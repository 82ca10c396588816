import hashlib

import numpy as np
import pytest

from chains import per_sequence_pretrain_step, per_sequence_step
from conftest import pattern_config, run_batch
from specmtp.batching import build_training_batch, build_training_stack, causal_rows
from specmtp.losses import base_and_sampler_ce, lcm_loss, total_loss
from specmtp.model import forward, init_model
from specmtp.sampler import init_sampler
from specmtp.tensor import Tape, backward, derive_rng, finite_diff_check, precision
from specmtp.training import (
    AdamW,
    CorpusSpec,
    DivergenceError,
    TrainConfig,
    Vocab,
    adamw_step,
    generate_corpus,
    pretrain_base,
    stacked_loss,
    train,
    warmup_lr,
)

# What pretrain_base fits besides every `.W`.
PRETRAINED = {"embed.base", "unembed", "final_ln.gain", "final_ln.bias"} | {
    f"layers.{i}.{ln}.{p}" for i in range(2) for ln in ("ln1", "ln2") for p in ("gain", "bias")
}


# ---------------------------------------------------------------------------
# Corpora
# ---------------------------------------------------------------------------


def test_pattern_corpus_is_exactly_periodic():
    spec = CorpusSpec(task="pattern", size=8, seed=1, seq_len=16, period=4)
    vocab = spec.vocab(2)
    for ids, flags in generate_corpus(spec, 2):
        assert ids[0] == vocab.bos
        chars = ids[1:]
        motif = chars[:4]
        assert np.array_equal(chars, np.tile(motif, 4))
        assert flags[-1] == 0 and flags[:-1].all()


def test_arithmetic_answers_recompute():
    spec = CorpusSpec(task="arithmetic", size=20, seed=3, digits=2)
    vocab = spec.vocab(2)
    for ids, flags in generate_corpus(spec, 2):
        text = vocab.decode(ids)
        body = text.replace("<bos>", "").replace("<eos>", "")
        lhs, answer = body.split("=")
        a, b = lhs.split("+")
        assert int(a) + int(b) == int(answer)
        # Loss only on the answer span: rows whose target is past '='.
        eq_row = body.index("=") + 1  # +1 for the bos row
        assert not flags[:eq_row].any()
        assert flags[eq_row : len(ids) - 1].all()


def test_file_corpus_windows(tmp_path):
    doc = tmp_path / "doc.txt"
    doc.write_text("the quick brown fox jumps over the lazy dog. " * 4)
    spec = CorpusSpec(task="file", size=6, seed=2, seq_len=12, path=str(doc))
    vocab = spec.vocab(2)
    text = doc.read_text()
    for ids, flags in generate_corpus(spec, 2):
        assert ids[0] == vocab.bos and len(ids) == 13
        window = vocab.decode(ids).replace("<bos>", "")
        assert window in text
        assert flags[-1] == 0 and flags[:-1].all()
    with pytest.raises(ValueError):
        generate_corpus(CorpusSpec(task="file", size=1, seq_len=999, path=str(doc)), 2)


def test_corpus_deterministic_under_seed():
    spec = CorpusSpec(task="pattern", size=6, seed=7)
    a = generate_corpus(spec, 2)
    b = generate_corpus(spec, 2)
    assert all(np.array_equal(x[0], y[0]) for x, y in zip(a, b))


def test_unknown_task_rejected():
    with pytest.raises(ValueError):
        generate_corpus(CorpusSpec(task="sudoku"), 2)


def test_vocab_layout_and_roundtrip():
    vocab = Vocab("abc", 2)
    assert (vocab.bos, vocab.eos, vocab.pad) == (3, 4, 5)
    assert vocab.first_mask == 6 and vocab.size == 8
    ids = vocab.encode("cab", add_eos=True)
    assert vocab.decode(ids) == "<bos>cab<eos>"
    with pytest.raises(ValueError):
        vocab.encode("xyz")


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


def test_adamw_zero_grad_zero_decay_is_noop():
    p = np.array([1.0, -2.0])
    m = np.zeros(2)
    v = np.zeros(2)
    adamw_step(p, np.zeros(2), m, v, 1, lr=0.1)
    assert np.array_equal(p, [1.0, -2.0])


def test_adamw_first_step_moves_by_lr():
    p = np.array([1.0])
    m = np.zeros(1)
    v = np.zeros(1)
    adamw_step(p, np.ones(1), m, v, 1, lr=0.1, weight_decay=0.0)
    assert abs(p[0] - 0.9) < 1e-6


def test_adamw_decoupled_decay():
    p = np.array([1.0])
    adamw_step(p, np.zeros(1), np.zeros(1), np.zeros(1), 1, lr=0.1, weight_decay=0.5)
    assert abs(p[0] - 0.95) < 1e-12


def test_adamw_shape_mismatch():
    with pytest.raises(ValueError):
        adamw_step(np.zeros(2), np.zeros(3), np.zeros(2), np.zeros(2), 1, lr=0.1)


# ---------------------------------------------------------------------------
# Training loop contracts
# ---------------------------------------------------------------------------


def tiny_config(**over):
    return pattern_config(
        total_steps=over.pop("total_steps", 5),
        pretrain_steps=over.pop("pretrain_steps", 0),
        warmup_steps=over.pop("warmup_steps", 0),
        **over,
    )


def test_trainable_partition_is_exact():
    cfg = tiny_config()
    corpus = generate_corpus(cfg.corpus, cfg.k_masks)
    mcfg = cfg.model_config(cfg.corpus.charset())
    model = init_model(mcfg, 0)
    sampler = init_sampler(cfg.d_model, 1)
    batch = build_training_batch(*corpus[0], mcfg.mask_ids)
    with Tape() as tape:
        out = run_batch(model, batch)
        base, samp = base_and_sampler_ce(
            batch, out.hidden, out.logits, sampler, model.unembed, model.embedding_table()
        )
        loss = total_loss(base, samp, lcm_loss(out.hidden, batch.lcm_pairs))
    backward(tape, loss)

    with_grad = {n for n, t in model.named_params() + sampler.named_params() if t.grad is not None}
    trainable = {n for n, t in model.trainable_params() + sampler.trainable_params()}
    assert with_grad <= trainable
    assert {n for n in trainable if n.endswith(".A") or n == "embed.mask"} <= with_grad
    # Frozen tensors never accumulate anything.
    assert all(
        t.grad is None
        for n, t in model.named_params()
        if not (n.endswith(".A") or n.endswith(".B") or n == "embed.mask")
    )


def test_frozen_base_hash_constant_and_probe_ntp_constant():
    cfg = tiny_config(total_steps=40)
    corpus_hashes = {}
    res = train(cfg)
    model = res.model
    for name, t in model.named_params():
        if not t.requires_grad:
            corpus_hashes[name] = hashlib.sha256(t.data.tobytes()).hexdigest()
    res2 = train(tiny_config(total_steps=40), model=model, sampler=res.sampler)
    for name, t in model.named_params():
        if not t.requires_grad:
            assert corpus_hashes[name] == hashlib.sha256(t.data.tobytes()).hexdigest()
    assert np.array_equal(res2.probe_ntp_logits_initial, res2.probe_ntp_logits_final)


def test_standard_lora_mode_moves_ntp_logits():
    cfg = tiny_config(total_steps=30, gated=False, learning_rate=3e-3)
    res = train(cfg)
    drift = np.max(np.abs(res.probe_ntp_logits_final - res.probe_ntp_logits_initial))
    assert drift > 0.0


def test_metrics_log_deterministic_except_wall_ms(tmp_path):
    cfg = tiny_config(total_steps=6)
    log_a, log_b = tmp_path / "a.csv", tmp_path / "b.csv"
    train(cfg, log_path=log_a)
    train(cfg, log_path=log_b)

    def strip_wall(path):
        lines = path.read_text().splitlines()
        return [",".join(line.split(",")[:-1]) for line in lines]

    assert strip_wall(log_a) == strip_wall(log_b)
    header = log_a.read_text().splitlines()[0]
    assert header == "step,base_ce,sampler_ce,lcm,total,ntp_only_ce,lr,wall_ms"


def test_divergence_aborts_loudly():
    cfg = tiny_config(total_steps=200, learning_rate=1e6, warmup_steps=0)
    with pytest.raises(DivergenceError):
        train(cfg)


def test_total_loss_trend_decreases(trained_full):
    totals = np.array([row[4] for row in trained_full.metrics])
    smooth = np.convolve(totals, np.ones(25) / 25, mode="valid")
    assert smooth[-1] < smooth[0]


def test_eval_history_recorded(trained_full):
    # trained_full runs without eval cadence; a short run with it records rows.
    cfg = tiny_config(total_steps=10, eval_every=5, eval_prompts=2, eval_max_steps=4)
    res = train(cfg)
    assert [s for s, _ in res.eval_history] == [4, 9]
    assert all(r >= 1.0 for _, r in res.eval_history)


def test_full_loop_gradient_check_64bit():
    with precision("float64"):
        cfg = tiny_config()
        corpus = generate_corpus(cfg.corpus, cfg.k_masks)
        mcfg = cfg.model_config(cfg.corpus.charset())
        model = init_model(mcfg, 2)
        sampler = init_sampler(cfg.d_model, 3)
        rng = np.random.default_rng(0)
        for lw in model.layers:
            for g in (lw.attn_q, lw.attn_k, lw.attn_v, lw.attn_o, lw.ff_in, lw.ff_out):
                g.B.data = rng.normal(0, 0.2, g.B.data.shape)
        batch = build_training_batch(*corpus[0], mcfg.mask_ids)

        def f():
            out = forward(
                model, batch.tokens, batch.position_ids, batch.attention_allowed, batch.gate
            )
            base, samp = base_and_sampler_ce(
                batch, out.hidden, out.logits, sampler, model.unembed, model.embedding_table()
            )
            return total_loss(base, samp, lcm_loss(out.hidden, batch.lcm_pairs))

        params = [t for _, t in model.trainable_params() + sampler.trainable_params()]
        err = finite_diff_check(f, params, max_coords=64, rng=np.random.default_rng(1))
        assert err < 1e-4


def test_gated_ntp_metric_constant_across_all_steps(trained_full):
    ntp = np.array([row[5] for row in trained_full.metrics])
    assert np.max(np.abs(ntp - ntp[0])) / max(abs(ntp[0]), 1e-12) < 1e-10


def test_trained_model_continues_training_patterns(trained_full):
    # Memorized motifs: greedy continuation reproduces the periodic stream.
    corpus = generate_corpus(trained_full.config.corpus, trained_full.config.k_masks)
    from specmtp.decoding import greedy_autoregressive

    hits = 0
    for seq, _ in corpus[:8]:
        prompt = seq[:9].tolist()
        out = greedy_autoregressive(trained_full.model, prompt, 6)
        hits += int(out[9:] == seq[9:15].tolist())
    assert hits >= 7


def test_future_rank_probe_improves_with_finetuning(arithmetic_models):
    # Rank of the sum digit at the first mask: that token is not derivable
    # from position alone, so untouched masks rank it poorly and the
    # fine-tuned masks must genuinely anticipate it.
    from specmtp.decoding import future_rank_probe, greedy_autoregressive

    base, result = arithmetic_models
    vocab = result.vocab
    probe_spec = CorpusSpec(task="arithmetic", size=12, seed=7, digits=1)
    before_ranks, after_ranks = [], []
    for ids, _ in generate_corpus(probe_spec, 4):
        text = vocab.decode(ids).replace("<bos>", "").replace("<eos>", "")
        prompt = vocab.encode(text.split("=")[0] + "=").tolist()
        stream = greedy_autoregressive(result.model, prompt, 3)
        future = stream[len(prompt) + 1 :][:1]
        before_ranks += future_rank_probe(base, prompt, future, 4)
        after_ranks += future_rank_probe(result.model, prompt, future, 4)
    assert np.median(after_ranks) < np.median(before_ranks)


# ---------------------------------------------------------------------------
# Stacked step: one taped pass over the step's sequences, byte-identical to
# the per-sequence loop in chains.py
# ---------------------------------------------------------------------------


def _oracle_corpus(task, tmp_path):
    if task == "pattern":
        return CorpusSpec(task="pattern", size=6, seed=3, seq_len=8, period=3)
    if task == "arithmetic":
        return CorpusSpec(task="arithmetic", size=6, seed=3, digits=1)
    doc = tmp_path / "doc.txt"
    doc.write_text("the quick brown fox jumps over the lazy dog. " * 3)
    return CorpusSpec(task="file", size=6, seed=3, seq_len=9, path=str(doc))


def _two_steps(cfg, corpus, stacked):
    """Losses, metric terms, gradients and AdamW state of two steps on a
    model with non-zero adapters, by the stacked step or by the oracle."""
    mcfg = cfg.model_config(cfg.corpus.charset())
    model = init_model(mcfg, 4)
    sampler = init_sampler(cfg.d_model, 5)
    rng = np.random.default_rng(4)
    for lw in model.layers:
        for g in (lw.attn_q, lw.attn_k, lw.attn_v, lw.attn_o, lw.ff_in, lw.ff_out):
            g.B.data = rng.normal(0, 0.2, g.B.data.shape).astype(g.B.data.dtype)
    params = model.trainable_params() + sampler.trainable_params()
    opt = AdamW(params, weight_decay=cfg.weight_decay)
    stack = build_training_stack(corpus, mcfg.mask_ids)
    batches = [build_training_batch(seq, flags, mcfg.mask_ids) for seq, flags in corpus]
    order = np.random.default_rng(11)
    record = []
    for _ in range(2):
        picks = order.integers(0, len(corpus), size=cfg.batch_size)
        if stacked:
            with Tape() as tape:
                loss, comp = stacked_loss(model, sampler, stack.select(picks), cfg)
            backward(tape, loss)
        else:
            loss, comp = per_sequence_step(model, sampler, batches, picks, cfg)
        record.append((loss.data.dtype, loss.data.tobytes(), comp))
        record.append({n: t.grad.tobytes() for n, t in params if t.grad is not None})
        opt.step(1e-2)
        opt.zero_grad()
        record.append([(opt.m[n].tobytes(), opt.v[n].tobytes(), t.data.tobytes()) for n, t in params])
    return record


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("task", ["pattern", "arithmetic", "file"])
def test_stacked_steps_are_bytewise_the_per_sequence_loop(task, dtype, tmp_path):
    with precision(dtype):
        cfg = tiny_config(
            corpus=_oracle_corpus(task, tmp_path), d_model=16, n_heads=2, d_ff=32, k_masks=3,
            lora_rank=4, batch_size=4,
        )
        corpus = generate_corpus(cfg.corpus, cfg.k_masks)
        stacked = _two_steps(cfg, corpus, stacked=True)
        oracle = _two_steps(cfg, corpus, stacked=False)
    assert stacked[0][0] == np.dtype(dtype)
    assert len(stacked[1]) == len(stacked[2]) > 20  # every adapter factor, mask rows, sampler
    assert stacked == oracle


def test_pretrain_leaves_the_mask_rows_trainable_and_without_gradient():
    # The mask rows are not fitted during pretraining, so no backward may
    # form a gradient for them through the embedding table.
    model = pretrain_base(pattern_config(pretrain_steps=3))
    assert model.embed_mask.grad is None
    assert model.embed_mask.requires_grad


def test_stacked_pretrain_is_bytewise_the_per_sequence_loop():
    cfg = tiny_config(
        corpus=CorpusSpec(task="arithmetic", size=6, seed=3, digits=1), d_model=16, n_heads=2,
        d_ff=32, k_masks=3, lora_rank=4, batch_size=3, pretrain_steps=2,
    )
    stacked = pretrain_base(cfg)
    corpus = generate_corpus(cfg.corpus, cfg.k_masks)
    model = init_model(cfg.model_config(cfg.corpus.charset()), cfg.seed)
    base = [(n, t) for n, t in model.named_params() if n.endswith(".W") or n in PRETRAINED]
    for _, t in model.named_params():
        t.requires_grad = any(t is b for _, b in base)
    opt = AdamW(base, weight_decay=0.0)
    batches = []
    for seq, flags in corpus:
        batch = causal_rows(seq)
        live = np.flatnonzero(flags[:-1] == 1)
        batch.base_labels[live] = seq[live + 1]
        batches.append(batch)
    order = derive_rng(cfg.seed, "pretrain.order")
    for step in range(cfg.pretrain_steps):
        per_sequence_pretrain_step(model, batches, order.integers(0, len(batches), size=cfg.batch_size))
        opt.step(warmup_lr(step, cfg.pretrain_lr, min(50, cfg.pretrain_steps // 10)))
        opt.zero_grad()
    for (name, got), (_, want) in zip(stacked.named_params(), model.named_params()):
        assert got.data.tobytes() == want.data.tobytes(), name

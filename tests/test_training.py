import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from chains import PerArrayAdamW, clone_by_overwrite, per_sequence_pretrain_step, per_sequence_step
from conftest import pattern_config, run_batch, sliced_regular_rows
from specmtp.batching import build_training_batch, build_training_stack, causal_rows
from specmtp.losses import base_and_sampler_ce, lcm_loss, total_loss
import specmtp.batching as batching
import specmtp.model as model_mod
from specmtp.checkpoint import load_checkpoint
from specmtp.model import ModelConfig, forward, init_model, model_params
from specmtp.sampler import init_sampler
from specmtp.tensor import IGNORE_ID, Tape, Tensor, active_tape, backward, derive_rng, finite_diff_check, fold_add, precision
import specmtp.training as training
from specmtp.training import (
    AdamW,
    CorpusSpec,
    DivergenceError,
    TrainConfig,
    Vocab,
    adamw_step,
    clone_base_with_rank,
    generate_corpus,
    pretrain_base,
    regular_rows,
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
    for ids, flags in generate_corpus(spec):
        assert ids[0] == vocab.bos
        chars = ids[1:]
        motif = chars[:4]
        assert np.array_equal(chars, np.tile(motif, 4))
        assert flags[-1] == 0 and flags[:-1].all()


def test_arithmetic_answers_recompute():
    spec = CorpusSpec(task="arithmetic", size=20, seed=3, digits=2)
    vocab = spec.vocab(2)
    for ids, flags in generate_corpus(spec):
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
    for ids, flags in generate_corpus(spec):
        assert ids[0] == vocab.bos and len(ids) == 13
        window = vocab.decode(ids).replace("<bos>", "")
        assert window in text
        assert flags[-1] == 0 and flags[:-1].all()
    with pytest.raises(ValueError):
        generate_corpus(CorpusSpec(task="file", size=1, seq_len=999, path=str(doc)))


def test_corpus_deterministic_under_seed():
    spec = CorpusSpec(task="pattern", size=6, seed=7)
    a = generate_corpus(spec)
    b = generate_corpus(spec)
    assert all(np.array_equal(x[0], y[0]) for x, y in zip(a, b))


def test_unknown_task_rejected():
    with pytest.raises(ValueError):
        generate_corpus(CorpusSpec(task="sudoku"))


def test_vocab_layout_and_roundtrip():
    vocab = Vocab("abc", 2)
    assert (vocab.bos, vocab.eos, vocab.pad) == (3, 4, 5)
    assert vocab.first_mask == 6 and vocab.size == 8
    # The model's vocabulary is this one, mask ids included.
    mcfg = TrainConfig(k_masks=2).model_config("abc")
    assert mcfg.vocab_size == vocab.size and mcfg.first_mask_id == vocab.first_mask
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


def test_adamw_over_parameters_of_two_dtypes_is_a_value_error():
    params = [("a", Tensor(np.zeros(2, np.float32))), ("b", Tensor(np.zeros(2, np.float64)))]
    with pytest.raises(ValueError, match=r"AdamW parameters must share one dtype, got \['float32', 'float64'\]"):
        AdamW(params)


def test_warmup_past_the_last_step_is_a_value_error():
    with pytest.raises(ValueError, match="warmup_steps must not exceed total_steps"):
        TrainConfig(warmup_steps=6, total_steps=5)


def _oracle_config(task, tmp_path, **over):
    return tiny_config(
        corpus=_oracle_corpus(task, tmp_path), d_model=16, n_heads=2, d_ff=32, k_masks=3, lora_rank=4, **over
    )


def _finetune_setup(cfg):
    """(model with non-zero adapters, sampler, training stack) for `cfg`,
    the same for every call."""
    model = init_model(cfg.model_config(cfg.corpus.charset()), 4)
    rng = np.random.default_rng(4)
    for lw in model.layers:
        for g in (lw.attn_q, lw.attn_k, lw.attn_v, lw.attn_o, lw.ff_in, lw.ff_out):
            g.B.data = rng.normal(0, 0.2, g.B.data.shape).astype(g.B.data.dtype)
    stack = build_training_stack(generate_corpus(cfg.corpus), model.config.mask_ids)
    return model, init_sampler(cfg.d_model, 5), stack


def _finetune_pair(dtype):
    """A small config and two identical fine-tuning set-ups."""
    with precision(dtype):
        cfg = _oracle_config("pattern", None, batch_size=3)
        return cfg, [_finetune_setup(cfg) for _ in range(2)]


def _moments(opt, params):
    """Each parameter's (m, v): the oracle's own arrays, or the flat
    optimizer's slices."""
    if isinstance(opt, PerArrayAdamW):
        return [(opt.m[n], opt.v[n]) for n, _ in params]
    return [(opt.m[sl], opt.v[sl]) for sl in opt.slices]


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_flat_adamw_is_bytewise_the_per_array_oracle(dtype):
    # Four steps with weight decay. In step 1 the loss leaves out the
    # sampler, so backward does not reach its parameters: their grads stay
    # zero and they get a zero grad's update, the decay alone.
    cfg, sides = _finetune_pair(dtype)
    records = []
    for make_opt, (model, sampler, stack) in zip((AdamW, PerArrayAdamW), sides):
        params = model.trainable_params() + sampler.trainable_params()
        opt = make_opt(params, betas=(0.8, 0.99), eps=1e-6, weight_decay=0.1)
        picks = np.random.default_rng(7)
        record = []
        with precision(dtype):
            for step in range(4):
                head = None if step == 0 else sampler
                with Tape() as tape:
                    loss, _ = stacked_loss(model, head, stack.select(picks.integers(0, 6, size=3)), cfg)
                backward(tape, loss)
                record.append([t.grad.tobytes() for _, t in params])
                opt.step(1e-2 * (step + 1))
                record.append([t.data.tobytes() for _, t in params])
                record.append([(m.tobytes(), v.tobytes()) for m, v in _moments(opt, params)])
                opt.zero_grad()
        records.append(record)
    flat, oracle = records
    assert flat == oracle
    names = [n for n, _ in sides[0][0].trainable_params() + sides[0][1].trainable_params()]
    zero = {n for n, g in zip(names, flat[0]) if not np.frombuffer(g, dtype).any()}
    assert zero == {n for n, _ in sides[0][1].trainable_params()}
    assert all(np.frombuffer(g, dtype).any() for n, g in zip(names, flat[3]) if n.startswith("sampler."))


def test_flat_adamw_gives_an_unreached_parameter_the_same_update_at_every_step():
    # Backward reaches the first weight and never the second: the second
    # gets a zero grad's update, its weight decay, at step 1 as at step 3.
    reached, unreached = (Tensor(np.ones(2, np.float32), requires_grad=True) for _ in range(2))
    opt = AdamW([("reached", reached), ("unreached", unreached)], weight_decay=0.5)
    for _ in range(3):
        with Tape() as tape:
            loss = fold_add(reached)
        backward(tape, loss)
        before = unreached.data.copy()
        opt.step(0.1)
        assert unreached.data.tobytes() == (before * np.float32(1.0 - 0.1 * 0.5)).tobytes()
        opt.zero_grad()
    assert not opt.m[opt.slices[1]].any() and not opt.v[opt.slices[1]].any()


def test_training_reads_the_concatenated_table_once():
    # The model's token lookup reads the (V, d) table that carries the mask
    # rows' gradient; the sampler's previous-token lookup reads the frozen
    # base rows, so it records no tape entry and no backward scatter-add.
    cfg, [(model, sampler, stack), _] = _finetune_pair("float32")
    with Tape() as tape:
        stacked_loss(model, sampler, stack.select(np.array([0, 1])), cfg)
    (table,) = [out for out, inputs, _ in tape._entries if any(t is model.embed_mask for t in inputs)]
    assert sum(any(t is table for t in inputs) for _, inputs, _ in tape._entries) == 1


@pytest.mark.parametrize("field", ["data", "grad"])
def test_flat_adamw_rejects_a_parameter_rebound_away_from_its_view(field):
    model = init_model(tiny_config().model_config("abcdef"), 0)
    params = model.trainable_params()
    opt = AdamW(params)
    for _, t in params:
        t.grad[...] = 1
    opt.step(1e-2)
    opt.zero_grad()
    name, t = params[3]
    # A detached copy: the model would read it, the optimizer would not.
    setattr(t, field, getattr(t, field).copy())
    with pytest.raises(ValueError, match=rf"{name!r}: \.{field} was rebound"):
        opt.step(1e-2)


def test_flat_adamw_keeps_views_through_backward_and_zero_grad():
    cfg, [(model, sampler, stack), _] = _finetune_pair("float32")
    params = model.trainable_params() + sampler.trainable_params()
    opt = AdamW(params)
    for (_, t), sl in zip(params, opt.slices):
        assert t.grad.ctypes.data == opt.grad[sl].ctypes.data
    for _ in range(2):
        with Tape() as tape:
            loss, _ = stacked_loss(model, sampler, stack.select(np.array([0, 1, 2])), cfg)
        backward(tape, loss)
        opt.step(1e-2)
        opt.zero_grad()
        for (_, t), sl in zip(params, opt.slices):
            assert t.data.ctypes.data == opt.data[sl].ctypes.data and t.grad.ctypes.data == opt.grad[sl].ctypes.data
        assert not opt.grad.any()


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


@pytest.mark.parametrize("rank", [0, 4, 8])
def test_a_clone_is_bytewise_the_overwritten_init(rank):
    # Base weights trained away from init, so a copy and a draw differ.
    base = init_model(tiny_config().model_config("abcdef"), 3)
    for _, t in base.named_params():
        t.data += np.float32(0.5)
    want = clone_by_overwrite(base, rank, 7)
    got = clone_base_with_rank(base, rank, 7)
    assert got.config == want.config
    assert [n for n, _ in got.named_params()] == [n for n, _ in want.named_params()]
    for (name, a), (_, b) in zip(want.named_params(), got.named_params()):
        assert a.data.dtype == b.data.dtype and a.data.tobytes() == b.data.tobytes(), name
        assert a.requires_grad == b.requires_grad, name
    assert got.pos_table.tobytes() == want.pos_table.tobytes()
    copied = dict(got.named_params())
    for name, t in base.named_params():
        assert name not in copied or not np.shares_memory(copied[name].data, t.data), name


def test_a_clone_draws_only_the_tensors_it_adds(monkeypatch):
    base = init_model(tiny_config().model_config("abcdef"), 3)
    drawn, original = [], model_mod.derive_rng

    def recorded(seed, name):
        drawn.append(name)
        return original(seed, name)

    monkeypatch.setattr(model_mod, "derive_rng", recorded)
    model = clone_base_with_rank(base, 4, 7)
    assert drawn == [n for n, _ in model.named_params() if n == "embed.mask" or n.endswith(".A")]


def test_trainable_partition_is_exact():
    cfg = tiny_config()
    corpus = generate_corpus(cfg.corpus)
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
    # The final logits, taken from the last step's probe pass, are a fresh
    # causal pass over the probe sequence's regular rows on the returned
    # model, byte for byte.
    corpus = generate_corpus(cfg.corpus)
    probe = build_training_stack(corpus, res.model.config.mask_ids).select(0).regular_layout()
    ungated = np.ones(probe.size, dtype=np.int8)
    fresh = forward(res.model, probe.tokens, probe.position_ids, probe.streams, ungated)
    want = fresh.logits.data
    assert res.probe_ntp_logits_final.dtype == want.dtype
    assert res.probe_ntp_logits_final.tobytes() == want.tobytes()


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


MISFIT = {
    "wider model": r"d_model 64 \(config: 32\)",
    "one more mask": r"vocab_size 14 \(config: 13\); k_masks 5 \(config: 4\)",
    "narrower sampler": r"sampler's width 16 does not match d_model 32",
}


@pytest.mark.parametrize("case", sorted(MISFIT))
def test_train_rejects_a_model_or_sampler_that_does_not_fit_the_config(tmp_path, case):
    cfg = tiny_config()
    mcfg = cfg.model_config(cfg.corpus.charset())
    model, sampler = None, None
    if case == "wider model":
        model = init_model(replace(mcfg, d_model=64), 0)
    elif case == "one more mask":
        model = init_model(replace(mcfg, vocab_size=mcfg.vocab_size + 1, k_masks=5), 0)
    else:
        sampler = init_sampler(16, 0)
    log, ckpt = tmp_path / "metrics.csv", tmp_path / "model.ckpt"
    with pytest.raises(ValueError, match=MISFIT[case]):
        train(cfg, model=model, sampler=sampler, log_path=log, checkpoint_path=ckpt)
    assert not log.exists() and not ckpt.exists()


def test_a_handed_sampler_is_saved_with_no_meta_key_against_it(tmp_path):
    # Under use_sampler = false, train() still trains a sampler it is
    # handed and saves it. The header's sampler field records that; no
    # meta key says otherwise.
    cfg = tiny_config(use_sampler=False, total_steps=2)
    ckpt = tmp_path / "model.ckpt"
    res = train(cfg, sampler=init_sampler(cfg.d_model, 1), checkpoint_path=ckpt)
    _, sampler, meta = load_checkpoint(ckpt)
    assert sampler is not None
    for (name, want), (_, got) in zip(res.sampler.named_params(), sampler.named_params()):
        assert got.data.tobytes() == want.data.tobytes(), name
    assert set(meta) == {"charset", "task", "gated", "loss_weights"}


def test_train_config_model_sizes_default_to_the_model_config():
    for charset in ("abcdef", "0123456789+="):
        assert TrainConfig().model_config(charset) == ModelConfig(vocab_size=Vocab(charset, 4).size)


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
        corpus = generate_corpus(cfg.corpus)
        mcfg = cfg.model_config(cfg.corpus.charset())
        model = init_model(mcfg, 2)
        sampler = init_sampler(cfg.d_model, 3)
        rng = np.random.default_rng(0)
        for lw in model.layers:
            for g in (lw.attn_q, lw.attn_k, lw.attn_v, lw.attn_o, lw.ff_in, lw.ff_out):
                g.B.data = rng.normal(0, 0.2, g.B.data.shape)
        batch = build_training_batch(*corpus[0], mcfg.mask_ids)
        # As train() runs it: the regular rows from one causal pass, and
        # the differentiated pass over the mask rows alone.
        regular = regular_rows(model, batch)

        def f():
            out = forward(
                model, batch.tokens, batch.position_ids, batch.streams, batch.gate, regular=regular
            )
            base, samp = base_and_sampler_ce(
                batch, out.hidden, out.logits, sampler, model.unembed, model.embedding_table()
            )
            return total_loss(base, samp, lcm_loss(out.hidden, batch.lcm_pairs))

        params = [t for _, t in model.trainable_params() + sampler.trainable_params()]
        err = finite_diff_check(f, params, max_coords=64, rng=np.random.default_rng(1))
        assert err < 1e-4


def test_gated_ntp_metric_constant_across_all_steps(trained_full):
    ntp = [row[5] for row in trained_full.metrics]
    assert ntp == [ntp[0]] * len(ntp)


def _probe_after_every_step(monkeypatch, cfg, model):
    """train() on `model` with a probe pass after each optimizer step, taken
    by a wrapped `AdamW.step`. Returns the result, those passes' (loss,
    logits), and the sequence of train()'s own probe passes ("probe") and
    optimizer steps ("step")."""
    stack = build_training_stack(generate_corpus(cfg.corpus), model.config.mask_ids)
    probe = stack.select(0).regular_layout()
    probe_ntp, step = training._probe_ntp, AdamW.step
    probes, events = [], []

    def probed_step(opt, lr):
        step(opt, lr)
        events.append("step")
        probes.append(probe_ntp(model, probe, cfg.gated))

    def counted(*args):
        events.append("probe")
        return probe_ntp(*args)

    monkeypatch.setattr(AdamW, "step", probed_step)
    monkeypatch.setattr(training, "_probe_ntp", counted)
    res = train(cfg, model=model)
    monkeypatch.undo()
    return res, probes, events


def test_gated_ntp_column_is_bitwise_a_probe_after_every_step(monkeypatch):
    cfg = tiny_config(total_steps=8, weight_decay=0.1)
    model = init_model(cfg.model_config(cfg.corpus.charset()), cfg.seed)
    res, probes, events = _probe_after_every_step(monkeypatch, cfg, model)
    assert events == ["probe"] + ["step"] * cfg.total_steps + ["probe"]
    assert [row[5] for row in res.metrics] == [loss for loss, _ in probes]
    for _, logits in probes:
        assert logits.tobytes() == res.probe_ntp_logits_initial.tobytes()
    assert res.probe_ntp_logits_final.tobytes() == probes[-1][1].tobytes()


@pytest.mark.parametrize("kind", ["base-weight", "ungated"])
def test_a_run_that_moves_regular_rows_keeps_its_per_step_probe(monkeypatch, kind):
    cfg = tiny_config(total_steps=6, gated=kind == "base-weight")
    model = init_model(cfg.model_config(cfg.corpus.charset()), cfg.seed)
    if kind == "base-weight":
        model.layers[0].ln1_gain.requires_grad = True
    res, probes, events = _probe_after_every_step(monkeypatch, cfg, model)
    assert events == ["probe"] + ["step", "probe"] * cfg.total_steps
    ntp = [row[5] for row in res.metrics]
    assert ntp == [loss for loss, _ in probes] and len(set(ntp)) > 1
    assert res.probe_ntp_logits_final.tobytes() == probes[-1][1].tobytes()
    assert res.probe_ntp_logits_final.tobytes() != res.probe_ntp_logits_initial.tobytes()


def _pass_kind(tokens, streams, regular):
    """What a `forward` call of train() runs: the probe (one sequence's
    regular rows), a taped pretraining pass or the untaped cache pass (a
    stack's regular rows), a pass over the mask rows given the regular
    ones, or a full training layout."""
    if regular is not None:
        return "mask rows"
    if np.ndim(tokens) == 1:
        return "probe"
    if streams.n_reg == np.shape(tokens)[-1]:
        return "pretrain" if active_tape() is not None else "regular"
    return "full"


@pytest.mark.parametrize("kind", ["gated", "pretrained", "ungated", "base-weight"])
def test_every_training_pass_goes_through_the_module_forward(monkeypatch, kind):
    # train()'s calls of the module's `forward`, each with forward's five
    # parameters by position. Gated: the probe, one causal pass over the
    # regular rows, one pass per step given those rows, the final probe;
    # after pretraining inside train() too. The ungated ablation and a run
    # that trains a base weight: the probe, then a full pass and a probe
    # per step.
    cfg = tiny_config(total_steps=5, gated=kind != "ungated", pretrain_steps=3 if kind == "pretrained" else 0)
    model = None
    if kind != "pretrained":
        model = init_model(cfg.model_config(cfg.corpus.charset()), cfg.seed)
        model.layers[0].ln1_gain.requires_grad = kind == "base-weight"
    calls, original = [], training.forward

    def counted(model, tokens, position_ids, streams, gate, **kw):
        calls.append(_pass_kind(tokens, streams, kw.get("regular")))
        return original(model, tokens, position_ids, streams, gate, **kw)

    monkeypatch.setattr(training, "forward", counted)
    train(cfg, model=model)
    cached = ["probe", "regular"] + ["mask rows"] * cfg.total_steps + ["probe"]
    if kind == "gated":
        assert calls == cached
    elif kind == "pretrained":
        assert calls == ["pretrain"] * cfg.pretrain_steps + cached
    else:
        assert calls == ["probe"] + ["full", "probe"] * cfg.total_steps


@pytest.mark.parametrize("gated", [True, False])
def test_a_train_call_builds_its_streams_once_not_per_step(monkeypatch, gated):
    # Every step's training pass takes the one stack's streams, and a run of
    # 4 steps builds as many streams as a run of 1.
    built, passed, original = [], [], training.forward

    def counted_streams(*args):
        built.append(args)
        return make_streams(*args)

    def recorded(model, tokens, position_ids, streams, gate, **kw):
        if _pass_kind(tokens, streams, kw.get("regular")) in ("mask rows", "full"):
            passed.append(streams)
        return original(model, tokens, position_ids, streams, gate, **kw)

    make_streams = batching._streams
    monkeypatch.setattr(batching, "_streams", counted_streams)
    monkeypatch.setattr(training, "forward", recorded)
    counts = []
    for steps in (1, 4):
        built.clear()
        passed.clear()
        train(tiny_config(total_steps=steps, gated=gated))
        counts.append(len(built))
        assert len(passed) == steps
        assert all(s is passed[0] for s in passed) and passed[0].block > 0
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("gated", [True, False])
def test_steps_take_their_sequences_in_the_order_of_one_draw_per_step(monkeypatch, gated):
    # train() draws every step's sequences before the first step, in the
    # order of one draw per step from the "batch.order" stream.
    cfg = tiny_config(total_steps=4, batch_size=3, gated=gated)
    mask_ids = cfg.model_config(cfg.corpus.charset()).mask_ids
    stack = build_training_stack(generate_corpus(cfg.corpus), mask_ids)
    seen, original = [], training.stacked_loss

    def recorded(model, sampler, batch, config, *rest):
        seen.append(batch.tokens)
        return original(model, sampler, batch, config, *rest)

    monkeypatch.setattr(training, "stacked_loss", recorded)
    train(cfg)
    order = derive_rng(cfg.seed, "batch.order")
    for tokens in seen:
        assert np.array_equal(tokens, stack.tokens[order.integers(0, len(stack.tokens), size=cfg.batch_size)])
    assert len(seen) == cfg.total_steps


def test_the_final_probe_is_a_pass_on_the_trained_model(monkeypatch):
    # The steps read each sequence's regular rows from their causal pass,
    # here with every logit shifted by 1: the losses read the shift, the
    # gradients do not. The final probe logits are still a causal pass over
    # the probe sequence's regular rows on the returned model, so they hold
    # no shift.
    original = training.regular_rows

    def shifted(model, stack):
        rows = original(model, stack)
        return rows._replace(logits=Tensor(rows.logits.data + 1))

    monkeypatch.setattr(training, "regular_rows", shifted)
    cfg = tiny_config(total_steps=4)
    res = train(cfg)
    stack = build_training_stack(generate_corpus(cfg.corpus), res.model.config.mask_ids)
    want = run_batch(res.model, stack.select(0).regular_layout()).logits.data
    assert res.probe_ntp_logits_final.tobytes() == want.tobytes()
    monkeypatch.undo()
    assert [row[1] for row in train(cfg).metrics] != [row[1] for row in res.metrics]


def test_an_overflow_in_the_regular_rows_is_a_divergence():
    # One huge embedding row of a token that the probe sequence lacks: the
    # probe passes, and the causal pass over the steps' regular rows
    # overflows. Its NumericsError comes out as a DivergenceError.
    cfg = tiny_config(total_steps=3)
    corpus = generate_corpus(cfg.corpus)
    model = init_model(cfg.model_config(cfg.corpus.charset()), cfg.seed)
    token = min(set(range(len(cfg.corpus.alphabet))) - set(corpus[0][0].tolist()))
    model.embed_base.data[token] = np.where(np.arange(cfg.d_model) % 2, 1e30, -1e30)
    with pytest.raises(DivergenceError, match="non-finite values in the regular rows: .* produced by layer_norm$"):
        train(cfg, model=model)


def test_trained_model_continues_training_patterns(trained_full):
    # Memorized motifs: greedy continuation reproduces the periodic stream.
    corpus = generate_corpus(trained_full.config.corpus)
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
    for ids, _ in generate_corpus(probe_spec):
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
    model with non-zero adapters, by the stacked step and the flat AdamW
    or by the oracles."""
    model, sampler, stack = _finetune_setup(cfg)
    params = model.trainable_params() + sampler.trainable_params()
    opt = (AdamW if stacked else PerArrayAdamW)(params, weight_decay=cfg.weight_decay)
    batches = [build_training_batch(seq, flags, model.config.mask_ids) for seq, flags in corpus]
    # As train() does: every sequence's regular rows once, for both steps.
    regular = regular_rows(model, stack) if stacked else None
    order = np.random.default_rng(11)
    record = []
    for _ in range(2):
        picks = order.integers(0, len(corpus), size=cfg.batch_size)
        if stacked:
            with Tape() as tape:
                loss, comp = stacked_loss(model, sampler, stack.select(picks), cfg, regular.select(picks))
            backward(tape, loss)
        else:
            loss, comp = per_sequence_step(model, sampler, batches, picks, cfg)
        record.append((loss.data.dtype, loss.data.tobytes(), comp))
        record.append({n: t.grad.tobytes() for n, t in params if t.grad is not None})
        opt.step(1e-2)
        opt.zero_grad()
        moments = _moments(opt, params)
        record.append([(m.tobytes(), v.tobytes(), t.data.tobytes()) for (m, v), (_, t) in zip(moments, params)])
    return record


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("task", ["pattern", "arithmetic", "file"])
def test_stacked_steps_are_bytewise_the_per_sequence_loop(task, dtype, tmp_path):
    with precision(dtype):
        cfg = _oracle_config(task, tmp_path, batch_size=4)
        corpus = generate_corpus(cfg.corpus)
        stacked = _two_steps(cfg, corpus, stacked=True)
        oracle = _two_steps(cfg, corpus, stacked=False)
    assert stacked[0][0] == np.dtype(dtype)
    assert len(stacked[1]) == len(stacked[2]) > 20  # every adapter factor, mask rows, sampler
    assert stacked == oracle


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("task", ["pattern", "arithmetic", "file"])
def test_mask_row_step_is_bytewise_the_full_layout_step(task, dtype, tmp_path):
    # Given the regular rows of the training layout's own untaped pass, a
    # step's taped pass runs the mask rows alone. Its loss, metric terms
    # and every gradient are the full pass's, byte for byte.
    with precision(dtype):
        cfg = _oracle_config(task, tmp_path)
        model, sampler, stack = _finetune_setup(cfg)
        params = model.trainable_params() + sampler.trainable_params()
        batch = stack.select(np.array([0, 3, 1, 3]))
        args = (model, batch.tokens, batch.position_ids, batch.streams, batch.gate)
        own = sliced_regular_rows(forward(*args), len(batch.ntp_rows))
        runs = []
        for regular in (None, own):
            for _, t in params:
                t.grad = None
            with Tape() as tape:
                loss, comp = stacked_loss(model, sampler, batch, cfg, regular)
            backward(tape, loss)
            runs.append((loss.data.dtype, loss.data.tobytes(), comp, [(n, t.grad.tobytes()) for n, t in params]))
    assert len(runs[0][3]) > 20  # every adapter factor, mask rows, sampler
    assert runs[0] == runs[1]


def test_pretrain_leaves_the_mask_rows_trainable_and_without_gradient():
    # The mask rows are not fitted during pretraining, so no backward may
    # form a gradient for them through the embedding table.
    model = pretrain_base(pattern_config(pretrain_steps=3))
    assert model.embed_mask.grad is None
    assert model.embed_mask.requires_grad


def test_pretrain_leaves_every_weight_with_its_table_flag_and_no_grad():
    model = pretrain_base(tiny_config(pretrain_steps=3))
    table = model_params(model.config)
    assert [p.name for p in table] == [n for n, _ in model.named_params()]
    for p, (name, t) in zip(table, model.named_params()):
        assert t.requires_grad == p.trainable and t.grad is None, name


def test_stacked_pretrain_is_bytewise_the_per_sequence_loop():
    cfg = tiny_config(
        corpus=CorpusSpec(task="arithmetic", size=6, seed=3, digits=1), d_model=16, n_heads=2,
        d_ff=32, k_masks=3, lora_rank=4, batch_size=3, pretrain_steps=2,
    )
    stacked = pretrain_base(cfg)
    corpus = generate_corpus(cfg.corpus)
    model = init_model(cfg.model_config(cfg.corpus.charset()), cfg.seed)
    base = [(n, t) for n, t in model.named_params() if n.endswith(".W") or n in PRETRAINED]
    for _, t in model.named_params():
        t.requires_grad = any(t is b for _, b in base)
    opt = PerArrayAdamW(base, weight_decay=0.0)
    batches = []
    for seq, flags in corpus:
        # A causal layout carries no labels: the oracle sets its own.
        batch = replace(causal_rows(seq), base_labels=np.full(len(seq), IGNORE_ID))
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


def test_a_pretraining_train_call_generates_its_corpus_once(monkeypatch):
    # train() with pretraining and no model builds one corpus for both,
    # and trains what train(model=pretrain_base(config)) trains.
    calls = []
    original = training.generate_corpus

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(training, "generate_corpus", counting)
    cfg = tiny_config(pretrain_steps=2, total_steps=2)
    got = train(cfg)
    assert len(calls) == 1
    want = train(cfg, model=pretrain_base(cfg))
    for (name, a), (_, b) in zip(got.model.named_params(), want.model.named_params()):
        assert a.data.tobytes() == b.data.tobytes(), name
    assert [row[:-1] for row in got.metrics] == [row[:-1] for row in want.metrics]


def test_a_file_task_train_call_reads_its_file_once(monkeypatch, tmp_path):
    doc = tmp_path / "doc.txt"
    doc.write_text("the quick brown fox jumps over the lazy dog. " * 4)
    reads = []
    original = Path.read_text

    def counting(self, *args, **kwargs):
        reads.append(self == doc)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counting)
    spec = CorpusSpec(task="file", size=8, seed=2, seq_len=12, path=str(doc))
    result = train(tiny_config(corpus=spec, pretrain_steps=2, total_steps=2))
    assert reads == [True]
    assert result.vocab.charset == "".join(sorted(set(doc.read_text())))

import contextlib

import numpy as np
import pytest
from chains import attention_chain, context_pass_chain, gated_linear_chain, init_by_hand, init_sampler_by_hand
from conftest import run_batch, sliced_regular_rows

from specmtp.batching import (
    DecodeTables,
    _layout,
    build_linear_inference_input,
    build_quadratic_inference_input,
    build_training_batch,
    build_training_stack,
    causal_rows,
)
from specmtp import tensor as tz
from specmtp.losses import base_and_sampler_ce, lcm_loss, total_loss
from specmtp.model import (
    LORA_ALPHA_OVER_RANK,
    ModelConfig,
    _gate_start,
    _pass,
    decode_pass,
    forward,
    gated_lora_apply,
    init_model,
    merge_adapters,
    model_params,
)
from specmtp.sampler import init_sampler, sampler_params
from specmtp.tensor import NumericsError, Tape, Tensor, backward, cross_entropy, precision
from specmtp.training import regular_rows


CFG = dict(vocab_size=16, d_model=16, n_layers=2, n_heads=2, d_ff=32, k_masks=3, max_position=64)


def make_model(rank=4, seed=0, **over):
    return init_model(ModelConfig(lora_rank=rank, **{**CFG, **over}), seed)


@pytest.mark.parametrize(
    "over, message",
    [
        (dict(d_model=16, n_heads=3), "d_model must be divisible by n_heads"),
        (dict(k_masks=0), "k_masks must be >= 1"),
        (dict(lora_rank=-1), "lora_rank must be >= 0"),
        (dict(vocab_size=3), "vocab_size must exceed k_masks"),
    ],
    ids=["heads-split-d-model", "no-mask", "negative-rank", "vocab-all-masks"],
)
def test_a_model_config_out_of_range_is_a_value_error(over, message):
    with pytest.raises(ValueError, match=message):
        ModelConfig(**{**CFG, "lora_rank": 4, **over})


def randomize_adapters(model, seed=99):
    rng = np.random.default_rng(seed)
    for lw in model.layers:
        for g in (lw.attn_q, lw.attn_k, lw.attn_v, lw.attn_o, lw.ff_in, lw.ff_out):
            g.A.data = rng.normal(0, 0.3, g.A.data.shape).astype(g.A.data.dtype)
            g.B.data = rng.normal(0, 0.3, g.B.data.shape).astype(g.B.data.dtype)


# ---------------------------------------------------------------------------
# Independent reference: plain causal forward in raw numpy, additive -inf
# masking, no gating machinery.
# ---------------------------------------------------------------------------


def _ln(x, g, b, eps=1e-5):
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * g + b


def _silu(x):
    return x / (1.0 + np.exp(-x))


def reference_causal_logits(model, tokens):
    c = model.config
    emb = np.concatenate([model.embed_base.data, model.embed_mask.data], axis=0)
    t_len = len(tokens)
    x = emb[np.asarray(tokens)] + model.pos_table[:t_len]
    hd = c.d_model // c.n_heads
    neg = np.triu(np.full((t_len, t_len), -np.inf), 1)
    for lw in model.layers:
        h = _ln(x, lw.ln1_gain.data, lw.ln1_bias.data)
        q = h @ lw.attn_q.W.data.T
        k = h @ lw.attn_k.W.data.T
        v = h @ lw.attn_v.W.data.T
        outs = []
        for hi in range(c.n_heads):
            sl = slice(hi * hd, (hi + 1) * hd)
            scores = q[:, sl] @ k[:, sl].T / np.sqrt(hd) + neg
            e = np.exp(scores - scores.max(axis=1, keepdims=True))
            w = e / e.sum(axis=1, keepdims=True)
            outs.append(w @ v[:, sl])
        x = x + np.concatenate(outs, axis=1) @ lw.attn_o.W.data.T
        h2 = _ln(x, lw.ln2_gain.data, lw.ln2_bias.data)
        x = x + _silu(h2 @ lw.ff_in.W.data.T) @ lw.ff_out.W.data.T
    z = _ln(x, model.final_ln_gain.data, model.final_ln_bias.data)
    return z @ model.unembed.data.T


@pytest.mark.parametrize("rank", [0, 4])
def test_the_parameter_tables_are_the_bundles_weights_in_order(rank):
    model, sampler = make_model(rank), init_sampler(CFG["d_model"], 1)
    for table, params in (
        (model_params(model.config), model.named_params()),
        (sampler_params(CFG["d_model"]), sampler.named_params()),
    ):
        assert [(p.name, p.shape, p.trainable) for p in table] == [
            (n, t.data.shape, t.requires_grad) for n, t in params
        ]
    assert [n for n, _ in sampler.named_params()] == [
        "sampler.l1", "sampler.ln1.gain", "sampler.ln1.bias", "sampler.l2", "sampler.ln2.gain", "sampler.ln2.bias"
    ]


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("rank", [0, 4])
def test_init_is_bytewise_init_by_hand(rank, dtype):
    with precision(dtype):
        pairs = (
            (make_model(rank, seed=5), init_by_hand(ModelConfig(lora_rank=rank, **CFG), 5)),
            (init_sampler(CFG["d_model"], 6), init_sampler_by_hand(CFG["d_model"], 6)),
        )
    for got, want in pairs:
        assert [n for n, _ in got.named_params()] == [n for n, _ in want.named_params()]
        for (name, a), (_, b) in zip(got.named_params(), want.named_params()):
            assert a.data.dtype == b.data.dtype and a.data.tobytes() == b.data.tobytes(), name
            assert a.requires_grad == b.requires_grad, name


def test_forward_matches_reference_implementation():
    with precision("float64"):
        model = make_model(rank=4, seed=3)
        rng = np.random.default_rng(0)
        tokens = rng.integers(0, CFG["vocab_size"] - CFG["k_masks"], size=12)
        batch = causal_rows(tokens)
        got = run_batch(model, batch).logits.data
        ref = reference_causal_logits(model, tokens)
        assert np.max(np.abs(got - ref)) < 1e-6


def test_rank_zero_has_no_adapters():
    model = make_model(rank=0)
    for lw in model.layers:
        assert lw.attn_q.A is None and lw.attn_q.B is None
    assert model.trainable_params() == [("embed.mask", model.embed_mask)]


def test_init_deterministic():
    a, b = make_model(seed=5), make_model(seed=5)
    for (na, ta), (nb, tb) in zip(a.named_params(), b.named_params()):
        assert na == nb and np.array_equal(ta.data, tb.data)


def test_zero_init_adapters_do_not_change_logits():
    model = make_model(rank=4, seed=1)
    tokens = np.array([1, 2, 3, 4])
    batch = causal_rows(tokens)
    base = run_batch(model, batch).logits.data
    for gate in ([1, 1, 1, 1], [0, 0, 1, 1]):
        got = forward(model, tokens, batch.position_ids, batch.streams, gate)
        assert np.array_equal(got.logits.data, base)


def test_gated_apply_gate_off_is_bitwise_base():
    model = make_model(rank=4, seed=2)
    randomize_adapters(model)
    lin = model.layers[0].attn_q
    x = Tensor(np.random.default_rng(1).normal(size=(5, CFG["d_model"])))
    base = x.data @ lin.W.data.T
    out = gated_lora_apply(lin, x, None)
    assert np.array_equal(out.data, base)


def test_gated_apply_trailing_rows_match_dense_reference():
    model = make_model(rank=4, seed=2)
    randomize_adapters(model)
    lin = model.layers[1].ff_in
    rng = np.random.default_rng(7)
    x = rng.normal(size=(6, CFG["d_model"])).astype(np.float32)
    out = gated_lora_apply(lin, Tensor(x), 3)
    base = x @ lin.W.data.T
    dense = base + 2.0 * (x @ lin.A.data) @ lin.B.data
    assert np.array_equal(out.data[:3], base[:3])
    assert np.max(np.abs(out.data[3:] - dense[3:])) < 1e-6


@pytest.mark.parametrize("start", [-1, 5, 9])
def test_gated_apply_rejects_a_start_outside_the_rows(start):
    # On arrays as on Tensors: a negative start would gate the wrong rows,
    # and one past the last row none, which a start of None says.
    lin = make_model(rank=4).layers[0].attn_q
    x = np.ones((5, CFG["d_model"]), dtype=np.float32)
    for xx in (x, Tensor(x)):
        with pytest.raises(NumericsError, match=f"start row {start} out of range for 5 rows"):
            gated_lora_apply(lin, xx, start)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_shared_input_gives_each_adapter_its_own_bytes(dtype):
    # q, k and v read one input. Each adapter of the decode copy, whose
    # weight was merged once, gives the bytes of the same adapter merging
    # it in the call, untaped and taped; their factors differ, so a
    # swapped weight fails.
    # The taped call records one gated_linear, and nothing when no row is
    # gated: the frozen linear's inputs are not tracked.
    with precision(dtype):
        model = make_model(rank=4, seed=3)
    randomize_adapters(model, seed=3)
    lw, merged = model.layers[1], merge_adapters(model).layers[1]
    rng = np.random.default_rng(3)
    for lead in ((), (2,)):
        x = rng.normal(size=lead + (7, CFG["d_model"])).astype(dtype)
        for start in (None, 6, 3, 0):
            outs = []
            for name in ("attn_q", "attn_k", "attn_v"):
                g, gm = getattr(lw, name), getattr(merged, name)
                assert g.merged is None and gm.merged is not None and gm.A is g.A and gm.W is g.W
                want = gated_lora_apply(g, x, start)
                got = gated_lora_apply(gm, x, start)
                assert got.dtype == want.dtype == np.dtype(dtype)
                assert got.tobytes() == want.tobytes()
                with Tape() as tape:
                    taped = gated_lora_apply(gm, Tensor(x), start)
                assert taped.data.tobytes() == want.tobytes()
                assert len(tape) == (0 if start is None else 1)  # A and B are tracked
                outs.append(got)
            if start is not None:
                assert not np.array_equal(outs[0], outs[1]) and not np.array_equal(outs[1], outs[2])


LAYOUTS = {
    "causal": lambda ids: causal_rows([1, 2, 3, 4]),
    "linear": lambda ids: build_linear_inference_input([1, 2, 3], [4, 5], ids),
    "quadratic": lambda ids: build_quadratic_inference_input([1, 2], [3, 4, 5], ids),
    "training": lambda ids: build_training_batch([1, 2, 3, 4, 5], np.ones(5, dtype=int), ids),
}


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_forward_on_the_decode_copy_is_bytewise_the_bundle(layout, dtype):
    # The copy's merged weights are the ones a pass forms per call.
    with precision(dtype):
        model = make_model(rank=4, seed=13)
        randomize_adapters(model, seed=13)
        copy = merge_adapters(model)
        batch = LAYOUTS[layout](model.config.mask_ids)
        want = run_batch(model, batch)
        for run in (lambda: run_batch(copy, batch), lambda: _taped(run_batch, copy, batch)):
            got = run()
            for field in ("hidden", "logits"):
                a, b = getattr(got, field).data, getattr(want, field).data
                assert a.dtype == b.dtype == np.dtype(dtype) and a.tobytes() == b.tobytes()
    assert merge_adapters(make_model(rank=0)).layers[0].attn_q.merged is None


def _taped(fn, *args):
    with Tape():
        return fn(*args)


def test_gate_invariance_bitwise_vs_rank_zero():
    # Gate-0 rows whose attention set holds only gate-0 rows must be
    # bit-identical to the rank-0 model, for any adapter values.
    base = make_model(rank=0, seed=11)
    for trial in range(5):
        model = make_model(rank=4, seed=11)
        randomize_adapters(model, seed=trial)
        rng = np.random.default_rng(trial)
        seq = rng.integers(0, CFG["vocab_size"] - CFG["k_masks"], size=9)
        batch = build_training_batch(seq, np.ones(9, dtype=int), ModelConfig(lora_rank=4, **CFG).mask_ids)
        got = run_batch(model, batch)
        ref = run_batch(base, batch)
        rows = batch.ntp_rows
        assert np.array_equal(got.logits.data[rows], ref.logits.data[rows])
        assert np.array_equal(got.hidden.data[rows], ref.hidden.data[rows])


def test_single_token_prompt_shapes():
    model = make_model()
    out = forward(model, [1], [0], causal_rows([1]).streams, [0])
    assert out.logits.data.shape == (1, CFG["vocab_size"])
    p = np.exp(out.logits.data[0] - out.logits.data[0].max())
    assert abs(p.sum() / p.sum() - 1.0) < 1e-6


def test_forward_rejects_bad_layouts():
    model = make_model()
    causal2 = causal_rows([1, 2]).streams
    with pytest.raises(NumericsError, match="^position id exceeds max_position$"):
        forward(model, [1, 2], [0, 600], causal2, [0, 0])
    with pytest.raises(NumericsError, match="^token id out of range$"):
        forward(model, [1, CFG["vocab_size"]], [0, 1], causal2, [0, 0])


@pytest.mark.parametrize("taped", [False, True])
def test_forward_rejects_an_empty_layout(taped):
    model = make_model()
    causal3 = causal_rows([1, 2, 3]).streams
    with Tape() if taped else contextlib.nullcontext():
        with pytest.raises(NumericsError, match=r"^empty layout: tokens of shape \(0,\) give no rows$"):
            forward(model, [], [], causal_rows([]).streams, [])
        with pytest.raises(NumericsError, match=r"^empty layout: tokens of shape \(0, 3\) give no rows$"):
            forward(model, np.zeros((0, 3), dtype=np.int64), [0, 1, 2], causal3, [0, 0, 0])
        with pytest.raises(NumericsError, match="^position_ids must hold one position per row$"):
            forward(model, [1, 2, 3], [], causal3, [0, 0, 0])


def _quadratic_layout(model):
    """A 22-row quadratic layout: 10 regular rows, then 4 blocks of 3."""
    return build_quadratic_inference_input([1, 2, 3, 4, 5, 6, 7], [8, 9, 10], model.config.mask_ids)


def _misfits(batch):
    """Streams that do not fit `batch`'s tokens, and forward's message."""
    streams, t_len = batch.streams, batch.size
    rows = r"^streams of {} rows for 22 rows of tokens$"
    first = r"^first output row {} outside 0\.\.10: context rows are regular rows, and at least one row is output$"
    return {
        "one-row-short": (streams._replace(allowed=streams.allowed[:-1]), rows.format(21)),
        "one-row-long": (streams._replace(allowed=np.tri(23, dtype=bool)), rows.format(23)),
        "another-layout": (causal_rows(range(10)).streams, rows.format(10)),
        "first-below-zero": (streams._replace(first=-1), first.format(-1)),
        "first-at-T": (streams._replace(first=t_len), first.format(t_len)),
        "first-past-T": (streams._replace(first=t_len + 3), first.format(t_len + 3)),
        "first-on-a-mask-row": (streams._replace(first=streams.n_reg + 1), first.format(streams.n_reg + 1)),
    }


MISFITS = sorted(_misfits(_quadratic_layout(make_model())))


@pytest.mark.parametrize("taped", [False, True])
@pytest.mark.parametrize("case", MISFITS)
def test_forward_rejects_streams_that_do_not_fit_the_tokens(case, taped):
    # The one check of a layout's streams: allowed has T rows, and the first
    # output row is a row, at most n_reg (here 10).
    model = make_model()
    batch = _quadratic_layout(model)
    streams, message = _misfits(batch)[case]
    with Tape() if taped else contextlib.nullcontext():
        with pytest.raises(NumericsError, match=message):
            forward(model, batch.tokens, batch.position_ids, streams, batch.gate)


# Rows of the 22-row layout: the first, a mask row in the middle of a block
# and the last row but one, each with a later row: the next row or the last.
AHEAD = {"first-next": (0, 1), "first-last": (0, 21), "middle": (11, 12), "last": (20, 21)}


@pytest.mark.parametrize("taped", [False, True])
@pytest.mark.parametrize("cell", sorted(AHEAD))
def test_a_row_never_sees_a_later_row(cell, taped):
    # A layout's streams admit no later key: another token at the later row
    # changes that row's output and leaves the earlier row's, byte for byte.
    model = make_model(rank=4, seed=5)
    randomize_adapters(model)
    batch = _quadratic_layout(model)
    row, key = AHEAD[cell]
    other = batch.tokens.copy()
    other[key] = (other[key] + 1) % CFG["vocab_size"]
    outs = []
    for tokens in (batch.tokens, other):
        with Tape() if taped else contextlib.nullcontext():
            got = forward(model, tokens, batch.position_ids, batch.streams, batch.gate)
        outs.append((got.hidden.data, got.logits.data))
    for a, b in zip(*outs):
        assert a[row].tobytes() == b[row].tobytes()
        assert not np.array_equal(a[key], b[key])


def test_padded_tail_permutation_is_invisible():
    # Rows never attended by anyone else can hold any token without
    # changing the attended rows' outputs: two one-row blocks, anchored at
    # rows 2 and 1, see only the regular rows and themselves.
    model = make_model(rank=4, seed=4)
    randomize_adapters(model)
    layout = _layout([1, 2, 3], [2, 1], [9])
    assert layout.position_ids.tolist() == [0, 1, 2, 3, 2]
    gate = np.zeros(5, dtype=int)
    a = forward(model, [1, 2, 3, 9, 10], layout.position_ids, layout.streams, gate).logits.data[:3]
    b = forward(model, [1, 2, 3, 10, 9], layout.position_ids, layout.streams, gate).logits.data[:3]
    assert np.array_equal(a, b)


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_float32_weights_stay_float32(layout):
    # One NumPy float64 constant in the pass (NumPy 2 promotion) would
    # turn every later activation and gradient into float64.
    model = make_model(rank=4, seed=5)
    randomize_adapters(model)
    batch = LAYOUTS[layout](model.config.mask_ids)
    with Tape() as tape:
        out = run_batch(model, batch)
        loss = cross_entropy(out.logits, np.zeros(batch.size, dtype=np.int64))
    backward(tape, loss)
    assert out.hidden.data.dtype == np.float32
    assert out.logits.data.dtype == np.float32
    grads = [t.grad for _, t in model.trainable_params() if t.grad is not None]
    assert all(g.dtype == np.float32 for g in grads)


# ---------------------------------------------------------------------------
# Untaped inference: with no tape, forward runs on plain arrays. The taped
# pass is the oracle, byte for byte.
# ---------------------------------------------------------------------------


def random_layout(kind, rng, mask_ids):
    n = int(rng.integers(2, 30))
    real = rng.integers(0, CFG["vocab_size"] - CFG["k_masks"], size=n).tolist()
    k = len(mask_ids)
    if kind == "causal":
        return causal_rows(real)
    if kind == "linear":
        return build_linear_inference_input(real, real[: int(rng.integers(0, k + 1))], mask_ids)
    if kind == "quadratic":
        return build_quadratic_inference_input(real, (real * k)[:k], mask_ids)
    return build_training_batch(real, rng.integers(0, 2, size=n), mask_ids)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_untaped_forward_is_bitwise_taped_forward(dtype, layout):
    with precision(dtype):
        model = make_model(rank=4, seed=6, n_heads=4)
        randomize_adapters(model, seed=6)
        rng = np.random.default_rng(6)
        model.embed_mask.data = rng.normal(0, 1.0, model.embed_mask.data.shape).astype(dtype)
        for _ in range(10):
            batch = random_layout(layout, rng, model.config.mask_ids)
            untaped = run_batch(model, batch)
            with Tape():
                taped = run_batch(model, batch)
            for got, want in ((untaped.hidden, taped.hidden), (untaped.logits, taped.logits)):
                assert isinstance(got, Tensor)
                assert got.data.dtype == want.data.dtype == np.dtype(dtype)
                assert got.data.tobytes() == want.data.tobytes()


def _decode_call_layouts(model, rng, n, k):
    """(build, first output row) of each layout a decode call builds for a
    prompt of n tokens at k masks, with the first output row it sets:
    greedy's causal layout, the probe's linear one, the linear ones with 0..k
    speculated tokens and no mask (speculation's fallback), and the
    quadratic one. All are cut from one call's tables, so each build must
    run its pass before the next."""
    tables = DecodeTables(n + 2 * k, k)
    masks = model.config.mask_ids[:k]
    prompt = rng.integers(0, model.config.first_mask_id, size=n).tolist()
    spec = rng.integers(0, model.config.first_mask_id, size=k).tolist()
    yield (lambda: causal_rows(prompt, tables)), n - 1
    yield (lambda: build_linear_inference_input(prompt, [], masks, tables)), n
    for s in range(k + 1):
        yield (lambda s=s: build_linear_inference_input(prompt, spec[:s], masks, tables)), n - 1
    yield (lambda: build_linear_inference_input(prompt, [], masks[:0], tables)), n - 1
    yield (lambda: build_quadratic_inference_input(prompt, spec, masks, tables)), n - 1


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_the_decode_entry_is_bitwise_forward_on_every_decode_layout(dtype):
    # decode_pass leaves out only the checks a decode call makes once, so on
    # every layout a call builds it gives forward's bytes: hidden rows and
    # logits by absolute row, context rows zero, and each layer's keys and
    # values. Prompts of 1 to 200 tokens, k = 1..4, on a decode call's copy.
    with precision(dtype):
        model = make_model(rank=4, seed=8, k_masks=4, max_position=256)
        randomize_adapters(model, seed=8)
        model = merge_adapters(model)
        rng = np.random.default_rng(8)
        for n in (1, 2, 3, 7, 17, 64, 150, 200):
            for k in range(1, 5):
                for build, first in _decode_call_layouts(model, rng, n, k):
                    batch = build()
                    args = (model, batch.tokens, batch.position_ids, batch.streams._replace(first=first), batch.gate)
                    got, want = decode_pass(*args), forward(*args)
                    assert got.logits.data.shape[-2] == batch.size
                    assert not got.logits.data[:first].any()
                    pairs = [(got.hidden.data, want.hidden.data), (got.logits.data, want.logits.data)]
                    pairs += [(a, b) for kv, kv_want in zip(got.kv, want.kv) for a, b in zip(kv, kv_want)]
                    for a, b in pairs:
                        assert a.dtype == b.dtype == np.dtype(dtype)
                        assert a.tobytes() == b.tobytes(), (n, k, batch.size, first)


def test_both_passes_call_the_module_gated_lora_apply(monkeypatch):
    # A replacement of specmtp.model.gated_lora_apply (a profiler's, say)
    # sees every adapter of the untaped pass as well as the taped one.
    import specmtp.model as model_mod

    calls = []
    original = model_mod.gated_lora_apply

    def recording(layer, x, *args, **kwargs):
        calls.append(isinstance(x, Tensor))
        return original(layer, x, *args, **kwargs)

    monkeypatch.setattr(model_mod, "gated_lora_apply", recording)
    model = make_model(rank=4)
    batch = build_training_batch([1, 2, 3, 4, 5], np.ones(5, dtype=int), model.config.mask_ids)
    run_batch(model, batch)
    assert calls == [False] * 6 * CFG["n_layers"]
    calls.clear()
    with Tape():
        run_batch(model, batch)
    assert calls == [True] * 6 * CFG["n_layers"]


def test_both_passes_call_the_module_masked_softmax_rows(monkeypatch):
    # Likewise a replacement of specmtp.model.masked_softmax_rows sees the
    # softmax of every layer on both passes, and its place in the layer.
    import specmtp.model as model_mod

    calls = []
    for name in ("gated_lora_apply", "masked_softmax_rows"):

        def recording(*args, _name=name, _original=getattr(model_mod, name), **kwargs):
            calls.append((_name, any(isinstance(a, Tensor) for a in args)))
            return _original(*args, **kwargs)

        monkeypatch.setattr(model_mod, name, recording)
    model = make_model(rank=4)
    batch = build_training_batch([1, 2, 3, 4, 5], np.ones(5, dtype=int), model.config.mask_ids)
    for taped in (False, True):
        calls.clear()
        with Tape() if taped else contextlib.nullcontext():
            run_batch(model, batch)
        # One softmax per layer, over the regular rows and the mask blocks.
        layer = ["gated_lora_apply"] * 3 + ["masked_softmax_rows"] + ["gated_lora_apply"] * 3
        assert calls == [(name, taped) for name in layer * CFG["n_layers"]]


BAD_GATES = [
    ([0, 2, 0], "gate entries must be 0 or 1"),
    ([0, 1], "gate length does not match row count"),
    # The gated rows are one trailing run: a 1 before a 0 names the rule.
    ([1, 0, 0], "gate must be 0s, then 1s"),
    ([0, 1, 0], "gate must be 0s, then 1s"),
]


@pytest.mark.parametrize("gate, message", BAD_GATES)
def test_untaped_forward_rejects_bad_gate_like_taped(gate, message):
    model = make_model()
    batch = causal_rows([1, 2, 3])
    args = (model, batch.tokens, batch.position_ids, batch.streams, gate)
    with pytest.raises(NumericsError, match=message):
        forward(*args)
    with Tape(), pytest.raises(NumericsError, match=message):
        forward(*args)


# Gates of every dtype a caller may pass, with entries inside and outside
# {0, 1}; lists go through np.asarray as in `forward`.
GATES = {
    "int8": [np.array(g, dtype=np.int8) for g in ([0, 1, 0], [1, 1], [0, 2, 1], [-1, 0], [127, 1])],
    "int64": [np.array(g, dtype=np.int64) for g in ([0, 0, 1], [2, 0], [-1, 1], [2**40, 1])],
    "bool": [np.array(g, dtype=bool) for g in ([True, False], [False, False], [True])],
    "float": [
        np.array(g, dtype=f)
        for f in (np.float32, np.float64)
        for g in ([0.0, 1.0], [-0.0, 1.0], [0.5, 1.0], [np.nan, 0.0], [np.inf, 1.0], [-1.0, 0.0], [2.0, 1.0], [1.0 + 1e-7, 0.0])
    ],
    "list": [np.asarray(g) for g in ([0, True, 1], [True, 2], [0.5, True], [False, 1.0])],
}


@pytest.mark.parametrize("kind", sorted(GATES))
def test_gate_check_accepts_exactly_what_isin_accepts(kind):
    verdicts = set()
    for gate in GATES[kind]:
        want = bool(np.isin(gate, (0, 1)).all())
        try:
            _gate_start(gate, gate.shape[0])
        except NumericsError as e:
            # Entries that pass may still break the order rule.
            got = str(e).startswith("gate must be 0s, then 1s")
            assert got or str(e) == "gate entries must be 0 or 1"
        else:
            got = True
        assert got == want, (kind, gate)
        verdicts.add(got)
    assert verdicts == ({True} if kind == "bool" else {True, False})


@pytest.mark.parametrize(
    "weight, op",
    [("layers.0.attn.q.A", "matmul"), ("layers.1.attn.v.W", "layer_norm")],
)
def test_untaped_forward_names_the_overflowing_op(weight, op):
    model = make_model(rank=4, seed=7)
    randomize_adapters(model)
    params = dict(model.named_params())
    params[weight].data = params[weight].data * np.float32(3e37)
    batch = build_training_batch([1, 2, 3, 4, 5], np.ones(5, dtype=int), model.config.mask_ids)
    args = (model, batch.tokens, batch.position_ids, batch.streams, batch.gate)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericsError, match=f"produced by {op}$"):
            forward(*args)
        with Tape(), pytest.raises(NumericsError, match=f"produced by {op}$"):
            forward(*args)


def test_an_overflow_in_the_gated_product_is_named_on_replay():
    # layers.0.attn.q's merged weight is finite, but its product with the
    # gated rows is not. The bundle's pass, taped or not, and the decode
    # copy's pass name that product, a linear; a causal layout runs no
    # gated row and stays finite.
    model = make_model(rank=4, seed=7)
    randomize_adapters(model)
    g = model.layers[0].attn_q
    g.A.data, g.B.data = g.A.data * np.float32(1e19), g.B.data * np.float32(1e19)
    assert np.isfinite(tz.merge_data(g.W.data, g.A.data, g.B.data, LORA_ALPHA_OVER_RANK)).all()
    batch = build_training_batch([1, 2, 3, 4, 5], np.ones(5, dtype=int), model.config.mask_ids)
    with np.errstate(over="ignore", invalid="ignore"):
        for bundle, taped in ((model, False), (model, True), (merge_adapters(model), False)):
            with Tape() if taped else contextlib.nullcontext():
                with pytest.raises(NumericsError, match="produced by linear$"):
                    run_batch(bundle, batch)
        assert np.isfinite(run_batch(model, causal_rows([1, 2, 3, 4, 5])).logits.data).all()


# ---------------------------------------------------------------------------
# Taped training pass: one fused gated_linear per adapter, and per layer
# the fused attention_scores and attention_context around the softmax. The
# chain of elementary ops they replace is the oracle, byte for byte,
# forward and backward.
# ---------------------------------------------------------------------------


def chain_lora(layer, x, gate):
    """gated_lora_apply with its gated linear as the elementary chain, on
    the gate's 1-rows by number."""
    rows = np.flatnonzero(gate)
    if rows.size == 0:
        return tz.linear(x, layer.W)
    return gated_linear_chain(x, layer.W, layer.A, layer.B, rows, LORA_ALPHA_OVER_RANK)


def chain_forward(model, batch, gate=None):
    """The taped forward with every fused op written as its elementary chain."""
    c = model.config
    gate = batch.gate if gate is None else np.asarray(gate)
    _gate_start(gate, batch.size)
    x = tz.add(
        tz.take_rows(model.embedding_table(), batch.tokens), Tensor(model.pos_table[batch.position_ids])
    )
    for lw in model.layers:
        h = tz.layer_norm(x, lw.ln1_gain, lw.ln1_bias)
        q, k, v = (chain_lora(g, h, gate) for g in (lw.attn_q, lw.attn_k, lw.attn_v))
        heads = attention_chain(q, k, v, batch.streams, c.n_heads)
        x = tz.add(x, chain_lora(lw.attn_o, heads, gate))
        h2 = tz.layer_norm(x, lw.ln2_gain, lw.ln2_bias)
        x = tz.add(x, chain_lora(lw.ff_out, tz.silu(chain_lora(lw.ff_in, h2, gate)), gate))
    hidden = tz.layer_norm(x, model.final_ln_gain, model.final_ln_bias)
    return hidden, tz.linear(hidden, model.unembed)


def taped_training_pass(model, sampler, batch, run):
    """hidden, logits and every trainable gradient of one training loss."""
    params = model.trainable_params() + sampler.trainable_params()
    for _, t in params:
        t.grad = None
    with Tape() as tape:
        hidden, logits = run()[:2]
        base, samp = base_and_sampler_ce(
            batch, hidden, logits, sampler, model.unembed, model.embedding_table()
        )
        loss = total_loss(base, samp, lcm_loss(hidden, batch.lcm_pairs))
    backward(tape, loss)
    return hidden.data, logits.data, {n: t.grad for n, t in params}, len(tape)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_taped_forward_is_bytewise_its_elementary_chain(dtype):
    with precision(dtype):
        model = make_model(rank=4, seed=8)
        randomize_adapters(model, seed=8)
        sampler = init_sampler(CFG["d_model"], 8)
        rng = np.random.default_rng(8)
        model.embed_mask.data = rng.normal(0, 1.0, model.embed_mask.data.shape).astype(dtype)
        b_grads = []
        for _ in range(8):
            batch = random_layout("training", rng, model.config.mask_ids)
            fused = taped_training_pass(model, sampler, batch, lambda: run_batch(model, batch))
            chain = taped_training_pass(model, sampler, batch, lambda: chain_forward(model, batch))
            for got, want in zip(fused[:2], chain[:2]):
                assert got.dtype == want.dtype == np.dtype(dtype)
                assert got.tobytes() == want.tobytes()
            assert fused[2].keys() == chain[2].keys()
            for name, got in fused[2].items():
                want = chain[2][name]
                assert (got is None) == (want is None), name
                if got is not None:
                    assert got.dtype == np.dtype(dtype), name
                    assert got.tobytes() == want.tobytes(), name
            assert fused[3] < chain[3]
            b_grads += [g for n, g in fused[2].items() if n.endswith(".B") and g is not None]
        assert any(g.any() for g in b_grads)


GATE_INDEXES = {
    # The first gated row of the layout's own gate (its mask rows), of the
    # ungated ablation (every row), of a gate with no gated row (a start of
    # None), and of a trailing gate of random start.
    "layout": lambda batch, rng: batch.gate,
    "ungated": lambda batch, rng: np.ones(batch.size, dtype=np.int8),
    "none": lambda batch, rng: np.zeros(batch.size, dtype=np.int8),
    "trailing": lambda batch, rng: (np.arange(batch.size) >= rng.integers(0, batch.size)).astype(np.int8),
}


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("kind", sorted(GATE_INDEXES))
def test_taped_forward_is_bytewise_its_chain_for_every_gate_index(kind, dtype):
    make_gate = GATE_INDEXES[kind]
    with precision(dtype):
        model = make_model(rank=4, seed=12)
        randomize_adapters(model, seed=12)
        sampler = init_sampler(CFG["d_model"], 12)
        rng = np.random.default_rng(12)
        for _ in range(4):
            batch = random_layout("training", rng, model.config.mask_ids)
            gate = make_gate(batch, rng)
            assert _gate_start(gate, batch.size) == (int(np.argmax(gate)) if gate.any() else None)
            runs = [
                taped_training_pass(model, sampler, batch, run)
                for run in (
                    lambda: forward(model, batch.tokens, batch.position_ids, batch.streams, gate),
                    lambda: chain_forward(model, batch, gate),
                )
            ]
            (f_hidden, f_logits, f_grads, _), (c_hidden, c_logits, c_grads, _) = runs
            assert f_hidden.tobytes() == c_hidden.tobytes() and f_logits.tobytes() == c_logits.tobytes()
            for name, got in f_grads.items():
                want = c_grads[name]
                assert (got is None) == (want is None), name
                assert got is None or got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("kind", sorted(GATE_INDEXES))
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_untaped_forward_is_bitwise_taped_forward_for_every_gate_index(layout, kind, dtype):
    # Every layout kind under every kind of gate index, on the bundle and
    # on its decode copy.
    make_gate = GATE_INDEXES[kind]
    with precision(dtype):
        model = make_model(rank=4, seed=14, n_heads=4)
        randomize_adapters(model, seed=14)
        rng = np.random.default_rng(14)
        for _ in range(4):
            batch = random_layout(layout, rng, model.config.mask_ids)
            args = (batch.tokens, batch.position_ids, batch.streams, make_gate(batch, rng))
            with Tape():
                taped = forward(model, *args)
            for bundle in (model, merge_adapters(model)):
                untaped = forward(bundle, *args)
                assert untaped.hidden.data.tobytes() == taped.hidden.data.tobytes()
                assert untaped.logits.data.tobytes() == taped.logits.data.tobytes()


def test_training_forward_records_one_entry_per_fused_op():
    # The embedding (table concat, lookup, position add), then 2 layers of:
    # 2 layer norms, 6 adapters (a gated_linear each, the residual adds
    # inside those of attn.o and ff.out), the attention's scores, softmax
    # and context, and silu; then the final norm and the unembedding. A
    # causal layout with its gate off runs each adapter as a linear (each
    # residual an add of its own); its attention is the same 3 entries.
    model = make_model(rank=4, seed=9)
    batch = build_training_batch([1, 2, 3, 4, 5], np.ones(5, dtype=int), model.config.mask_ids)
    with Tape() as tape:
        run_batch(model, batch)
    assert len(tape) == 3 + 2 * (2 + 6 + 3 + 1) + 2
    with Tape() as tape:
        run_batch(model, causal_rows([1, 2, 3, 4, 5]))
    assert len(tape) == 3 + 2 * (2 + 6 + 2 + 3 + 1) + 2


@pytest.mark.parametrize("gate, message", BAD_GATES)
def test_taped_forward_rejects_bad_gate_like_its_chain(gate, message):
    model = make_model()
    batch = causal_rows([1, 2, 3])
    with Tape(), pytest.raises(NumericsError, match=message):
        forward(model, batch.tokens, batch.position_ids, batch.streams, gate)
    with Tape(), pytest.raises(NumericsError, match=message):
        chain_forward(model, batch, gate)


# ---------------------------------------------------------------------------
# Stacked forward: B sequences that share one layout in one pass, each with
# the bytes of its own pass.
# ---------------------------------------------------------------------------


def random_stack(rng, mask_ids, n_seqs=4):
    """A training stack of n_seqs random sequences sharing length and flags."""
    n = int(rng.integers(3, 12))
    flags = rng.integers(0, 2, size=n)
    flags[0] = 1
    seqs = rng.integers(0, CFG["vocab_size"] - CFG["k_masks"], size=(n_seqs, n))
    return build_training_stack([(s, flags) for s in seqs], mask_ids)


@pytest.mark.parametrize("taped", [False, True])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_stacked_forward_is_bytewise_the_per_sequence_forwards(dtype, taped):
    with precision(dtype):
        model = make_model(rank=4, seed=10, n_heads=4)
        randomize_adapters(model, seed=10)
        rng = np.random.default_rng(10)
        model.embed_mask.data = rng.normal(0, 1.0, model.embed_mask.data.shape).astype(dtype)
        for _ in range(6):
            stack = random_stack(rng, model.config.mask_ids)
            with Tape() if taped else contextlib.nullcontext():
                out = run_batch(model, stack)
                singles = [run_batch(model, stack.select(b)) for b in range(stack.tokens.shape[0])]
            for field in ("hidden", "logits"):
                got = getattr(out, field).data
                want = np.stack([getattr(s, field).data for s in singles])
                assert got.dtype == np.dtype(dtype) and got.shape == want.shape
                assert got.tobytes() == want.tobytes()


def test_stacked_training_forward_records_as_many_entries_as_one_sequence():
    # The count of test_training_forward_records_one_entry_per_fused_op.
    model = make_model(rank=4, seed=9)
    stack = random_stack(np.random.default_rng(9), model.config.mask_ids)
    assert stack.tokens.shape[0] == 4
    for batch in (stack, stack.select(0)):
        with Tape() as tape:
            run_batch(model, batch)
        assert len(tape) == 3 + 2 * (2 + 6 + 3 + 1) + 2


# ---------------------------------------------------------------------------
# Regular rows from outside the pass: every pass returns each layer's keys
# and values (`kv`), so a layout's ungated regular rows can be kept as
# constants (a causal pass's result, as `training.regular_rows` keeps it),
# and a pass given them as `regular` runs the mask rows alone, attending to
# the given keys and values.
# ---------------------------------------------------------------------------


def _own_regular_rows(model, batch):
    """forward's arguments over `batch`, and the regular rows of its
    untaped full pass."""
    args = (model, batch.tokens, batch.position_ids, batch.streams, batch.gate)
    return args, sliced_regular_rows(forward(*args), batch.streams.n_reg)


@pytest.mark.parametrize("taped", [False, True])
def test_every_pass_returns_each_layers_keys_and_values(taped):
    # n_layers (keys, values) pairs of plain arrays (..., T, D) over the rows
    # the pass ran: every row, or with regular rows given, the mask rows.
    model = make_model(rank=4, seed=15)
    rng = np.random.default_rng(15)
    stack = random_stack(rng, model.config.mask_ids)
    layouts = [make(model.config.mask_ids) for make in LAYOUTS.values()] + [stack, stack.select(1)]
    args, own = _own_regular_rows(model, stack)
    runs = [((model, b.tokens, b.position_ids, b.streams, b.gate), None, b.size) for b in layouts]
    runs.append((args, own, stack.size - own.hidden.shape[-2]))
    for a, regular, rows in runs:
        with Tape() if taped else contextlib.nullcontext():
            kv = forward(*a, regular=regular).kv
        assert len(kv) == CFG["n_layers"]
        for k, v in kv:
            assert type(k) is type(v) is np.ndarray
            assert k.shape == v.shape == a[1].shape[:-1] + (rows, CFG["d_model"])


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_regular_rows_of_a_stack_are_each_sequences_causal_pass(dtype):
    # training.regular_rows runs one causal pass over a stack's regular
    # rows: each sequence's keys, values, hidden rows and logits are those
    # of a causal pass over its own regular rows, bit for bit. The full
    # training layout's pass runs more rows and more attention columns, so
    # its regular rows agree only to the last bits.
    with precision(dtype):
        model = make_model(rank=4, seed=16)
        randomize_adapters(model, seed=16)
        rng = np.random.default_rng(16)
        for stack in [random_stack(rng, model.config.mask_ids) for _ in range(4)]:
            got = regular_rows(model, stack)
            n = len(stack.ntp_rows)
            assert len(got.kv) == CFG["n_layers"]
            for b in range(stack.tokens.shape[0]):
                want = sliced_regular_rows(run_batch(model, causal_rows(stack.tokens[b, :n])), n)
                for a, w in zip(_arrays(got.select(b)), _arrays(want)):
                    assert a.dtype == np.dtype(dtype) and a.shape == w.shape and a.tobytes() == w.tobytes()
            full = sliced_regular_rows(run_batch(model, stack), n)
            for a, w in zip(_arrays(got), _arrays(full)):
                np.testing.assert_allclose(a, w, rtol=0, atol=1e-5 if dtype == "float32" else 1e-12)


def _arrays(rows):
    """Every array of a pass's result: each layer's keys and values, then
    hidden rows and logits."""
    return [a for kv in rows.kv for a in kv] + [rows.hidden.data, rows.logits.data]


@pytest.mark.parametrize("taped", [False, True])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_a_pass_given_its_own_regular_rows_is_bytewise_the_full_pass(dtype, taped):
    with precision(dtype):
        model = make_model(rank=4, seed=11)
        randomize_adapters(model, seed=11)
        rng = np.random.default_rng(11)
        model.embed_mask.data = rng.normal(0, 1.0, model.embed_mask.data.shape).astype(dtype)
        layouts = [random_stack(rng, model.config.mask_ids) for _ in range(3)]
        layouts += [random_layout(kind, rng, model.config.mask_ids) for kind in ("training", "quadratic")]
        for batch in layouts:
            args, own = _own_regular_rows(model, batch)
            with Tape() if taped else contextlib.nullcontext():
                got, want = forward(*args, regular=own), forward(*args)
            for field in ("hidden", "logits"):
                assert getattr(got, field).data.dtype == np.dtype(dtype)
                assert getattr(got, field).data.tobytes() == getattr(want, field).data.tobytes()


def test_a_pass_given_regular_rows_tapes_only_the_mask_rows():
    # The entries of a full pass, plus one concat_rows each that joins
    # hidden and logits under the given rows. Past the embedding table's
    # concat, every entry runs over the mask rows alone.
    model = make_model(rank=4, seed=12)
    batch = random_stack(np.random.default_rng(12), model.config.mask_ids)
    args, own = _own_regular_rows(model, batch)
    with Tape() as tape:
        forward(*args, regular=own)
    assert len(tape) == 3 + 2 * (2 + 6 + 3 + 1) + 2 + 2
    m = batch.size - batch.streams.n_reg
    rows = [out.data.shape[-2] for out, _, _ in tape._entries]
    assert rows == [CFG["vocab_size"]] + [m] * (len(tape) - 3) + [batch.size] * 2


REGULAR_MISUSE = {
    # Given rows must be the layout's ungated regular rows before its blocks.
    "given_gated": lambda m, b, own: forward(m, *b[:3], np.ones(b[0].shape[-1], np.int8), regular=own),
    "given_other_stack": lambda m, b, own: forward(m, *b, regular=own.select(np.array([0, 1]))),
    "given_one_sequence": lambda m, b, own: forward(m, b[0][0], *b[1:], regular=own),
    "given_causal": lambda m, b, own: _given_causal(m, b, own),
}


def _given_causal(model, args, own):
    n = own.hidden.shape[-2]
    causal = causal_rows(args[0][0, :n])
    return forward(model, args[0][:, :n], causal.position_ids, causal.streams, causal.gate, regular=own)


@pytest.mark.parametrize("case", sorted(REGULAR_MISUSE))
def test_forward_rejects_regular_rows_it_cannot_use(case):
    model = make_model(rank=4, seed=13)
    batch = random_stack(np.random.default_rng(13), model.config.mask_ids)
    args, own = _own_regular_rows(model, batch)
    with pytest.raises(NumericsError, match="regular rows"):
        REGULAR_MISUSE[case](model, args[1:], own)


def test_a_pass_with_every_row_gated_forms_no_frozen_product():
    # layers.0.attn.q's W overflows every product it enters, and its merged
    # weight is exactly 0. A pass whose every row is gated (the ungated
    # ablation's) forms no product with W: its fast run notes no overflow,
    # and the pass checked op by op (its replay) gives its bytes. A
    # layout's own gate runs W over the regular rows, named on replay.
    model = make_model(rank=4, seed=14)
    randomize_adapters(model, seed=14)
    g = model.layers[0].attn_q
    big = np.finfo(np.float32).max
    g.W.data = np.full_like(g.W.data, big)
    g.A.data, g.B.data = np.zeros_like(g.A.data), np.zeros_like(g.B.data)
    g.A.data[:, 0], g.B.data[0] = 1.0, -big / LORA_ALPHA_OVER_RANK
    assert not tz.merge_data(g.W.data, g.A.data, g.B.data, LORA_ALPHA_OVER_RANK).any()
    batch = build_training_batch([1, 2, 3, 4, 5], np.ones(5, dtype=int), model.config.mask_ids)
    every_row = np.ones(batch.size, dtype=np.int8)
    with np.errstate(over="raise", invalid="raise"):
        fast = forward(model, batch.tokens, batch.position_ids, batch.streams, every_row)
        replay = _pass(tz.ArrayOps, model, batch.tokens, batch.position_ids, batch.streams, 0)
    assert np.isfinite(fast.logits.data).all()
    assert fast.logits.data.tobytes() == replay[1].tobytes()
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericsError, match="produced by linear$"):
        run_batch(model, batch)


# ---------------------------------------------------------------------------
# Context rows: regular rows whose keys and values every layer computes but
# whose output no caller reads. The layout's streams name the first output
# row; the last layer runs its query side from it on.
# `chains.context_pass_chain` is the oracle, byte for byte; the full pass
# stays a tolerance check of the output rows.
# ---------------------------------------------------------------------------


def _decode_layouts(rng, mask_ids):
    """(layout, n_ver, first output rows) for causal, linear and quadratic
    layouts over prompts of 1 to 200 tokens: a first output row of 0,
    n_ver - 1, the first mask row (the mask blocks alone) and T - 1, where
    the rows before it are the streams' regular rows (a linear layout's
    are all its rows) and not all of them."""
    k = len(mask_ids)
    for n_ver in (1, 2, 5, 17, 64, 150, 200):
        verified = rng.integers(0, CFG["vocab_size"] - CFG["k_masks"], size=n_ver).tolist()
        spec = rng.integers(0, CFG["vocab_size"] - CFG["k_masks"], size=k).tolist()
        for batch in (
            causal_rows(verified),
            build_linear_inference_input(verified, spec[: int(rng.integers(0, k + 1))], mask_ids),
            build_quadratic_inference_input(verified, spec, mask_ids),
        ):
            # A causal or linear layout's rows are all regular in its
            # streams: every row but one may be context.
            last = min(batch.streams.n_reg, batch.size - 1)
            firsts = {r for r in (0, n_ver - 1, len(batch.ntp_rows), batch.size - 1) if r <= last}
            yield batch, n_ver, sorted(firsts)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_a_pass_with_context_rows_is_bytewise_its_chain(dtype):
    # Also: context rows' hidden rows and logits are exact zeros, every
    # layer's keys and values are the full pass's for every row, and the
    # output rows are the full pass's to the last bits.
    tol = 1e-5 if dtype == "float32" else 1e-12
    with precision(dtype):
        model = make_model(rank=4, seed=17, max_position=256)
        randomize_adapters(model, seed=17)
        rng = np.random.default_rng(17)
        model.embed_mask.data = rng.normal(0, 1.0, model.embed_mask.data.shape).astype(dtype)
        seen = set()
        for batch, n_ver, firsts in _decode_layouts(rng, model.config.mask_ids):
            full = run_batch(model, batch)
            for first in firsts:
                seen.add((first == 0, first == n_ver - 1, first == batch.size - 1))
                got = forward(model, batch.tokens, batch.position_ids, batch.streams._replace(first=first), batch.gate)
                hidden, logits, kv = context_pass_chain(model, batch, first)
                for field, want in (("hidden", hidden), ("logits", logits)):
                    a = getattr(got, field).data
                    assert a.dtype == want.dtype == np.dtype(dtype) and a.shape == want.shape
                    assert a.tobytes() == want.tobytes(), (batch.size, first, field)
                    assert a[:first].tobytes() == np.zeros_like(a[:first]).tobytes()
                    b = getattr(full, field).data
                    np.testing.assert_allclose(a[first:], b[first:], rtol=0, atol=tol)
                for (k, v), (kc, vc), (kf, vf) in zip(got.kv, kv, full.kv):
                    assert k.tobytes() == kc.tobytes() == kf.tobytes()
                    assert v.tobytes() == vc.tobytes() == vf.tobytes()
        assert {(True, True, False), (False, True, True), (False, False, False)} <= seen


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_a_pass_with_no_context_row_is_bytewise_the_full_pass(dtype):
    # The oracle with no context row is the chain pass of the full layout,
    # and forward runs the same bytes, taped or not.
    with precision(dtype):
        model = make_model(rank=4, seed=18, max_position=256)
        randomize_adapters(model, seed=18)
        rng = np.random.default_rng(18)
        for batch, _, _ in _decode_layouts(rng, model.config.mask_ids):
            hidden, logits, kv = context_pass_chain(model, batch, 0)
            want = chain_forward(model, batch)
            assert hidden.tobytes() == want[0].data.tobytes() and logits.tobytes() == want[1].data.tobytes()
            for run in (lambda: run_batch(model, batch), lambda: _taped(run_batch, model, batch)):
                got = run()
                assert got.hidden.data.tobytes() == hidden.tobytes() and got.logits.data.tobytes() == logits.tobytes()
                for pair, want_pair in zip(got.kv, kv):
                    assert all(a.tobytes() == b.tobytes() for a, b in zip(pair, want_pair))


def test_the_last_layer_of_a_pass_with_context_rows_runs_its_output_rows():
    # A 22-row quadratic layout whose first 6 rows are context rows: LN1's
    # keys and values of layer 1 over all 22 rows, its query and the rest
    # over the 16 rows from row 6 on.
    import specmtp.model as model_mod

    rows = []
    original = model_mod.gated_lora_apply

    def recording(layer, x, *args, **kwargs):
        rows.append(x.shape[-2])
        return original(layer, x, *args, **kwargs)

    model = make_model(rank=4)
    batch = _quadratic_layout(model)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model_mod, "gated_lora_apply", recording)
        forward(model, batch.tokens, batch.position_ids, batch.streams._replace(first=6), batch.gate)
    assert rows == [22] * 6 + [16, 22, 22, 16, 16, 16]


def test_forward_rejects_context_rows_that_a_caller_would_read():
    # Under a tape (training reads every row), and with regular rows given
    # (their pass outputs every mask row).
    model = make_model(rank=4, seed=13)
    batch = random_stack(np.random.default_rng(13), model.config.mask_ids)
    args, own = _own_regular_rows(model, batch)
    streams = batch.streams._replace(first=2)
    with Tape(), pytest.raises(NumericsError, match="^context rows under an active tape"):
        forward(model, batch.tokens, batch.position_ids, streams, batch.gate)
    with pytest.raises(NumericsError, match="^context rows with regular rows given"):
        forward(model, batch.tokens, batch.position_ids, streams, batch.gate, regular=own)

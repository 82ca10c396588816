import contextlib

import numpy as np
import pytest
from chains import attention_chain, lora_chain
from conftest import run_batch

from specmtp.batching import (
    build_linear_inference_input,
    build_quadratic_inference_input,
    build_training_batch,
    build_training_stack,
    causal_rows,
)
from specmtp import tensor as tz
from specmtp.losses import base_and_sampler_ce, lcm_loss, total_loss
from specmtp.model import LORA_ALPHA_OVER_RANK, ModelConfig, _check_gate, forward, gated_lora_apply, init_model
from specmtp.sampler import init_sampler
from specmtp.tensor import NumericsError, Tape, Tensor, backward, cross_entropy, precision


CFG = dict(vocab_size=16, d_model=16, n_layers=2, n_heads=2, d_ff=32, k_masks=3, max_position=64)


def make_model(rank=4, seed=0, **over):
    return init_model(ModelConfig(lora_rank=rank, **{**CFG, **over}), seed)


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
    for gate in ([1, 1, 1, 1], [0, 1, 0, 1]):
        got = forward(model, tokens, batch.position_ids, batch.attention_allowed, gate)
        assert np.array_equal(got.logits.data, base)


def test_gated_apply_gate_off_is_bitwise_base():
    model = make_model(rank=4, seed=2)
    randomize_adapters(model)
    lin = model.layers[0].attn_q
    x = Tensor(np.random.default_rng(1).normal(size=(5, CFG["d_model"])))
    base = x.data @ lin.W.data.T
    out = gated_lora_apply(lin, x, np.zeros(5, dtype=int))
    assert np.array_equal(out.data, base)


def test_gated_apply_mixed_rows_match_dense_reference():
    model = make_model(rank=4, seed=2)
    randomize_adapters(model)
    lin = model.layers[1].ff_in
    rng = np.random.default_rng(7)
    x = rng.normal(size=(6, CFG["d_model"])).astype(np.float32)
    gate = np.array([0, 1, 1, 0, 1, 0])
    out = gated_lora_apply(lin, Tensor(x), gate)
    base = x @ lin.W.data.T
    dense = base + 2.0 * (x @ lin.A.data) @ lin.B.data
    for t in range(6):
        if gate[t]:
            assert np.max(np.abs(out.data[t] - dense[t])) < 1e-6
        else:
            assert np.array_equal(out.data[t], base[t])


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
    out = forward(model, [1], [0], np.ones((1, 1), dtype=bool), [0])
    assert out.logits.data.shape == (1, CFG["vocab_size"])
    p = np.exp(out.logits.data[0] - out.logits.data[0].max())
    assert abs(p.sum() / p.sum() - 1.0) < 1e-6


def test_forward_rejects_bad_layouts():
    model = make_model()
    ok = np.ones((2, 2), dtype=bool)
    with pytest.raises(NumericsError):
        forward(model, [1, 2], [0, 600], ok, [0, 0])  # position beyond table
    with pytest.raises(NumericsError):
        forward(model, [1, 2], [0, 1], np.triu(np.ones((2, 2), dtype=bool)), [0, 0])
    no_diag = np.tril(np.ones((2, 2), dtype=bool))
    no_diag[1, 1] = False
    with pytest.raises(NumericsError):
        forward(model, [1, 2], [0, 1], no_diag, [0, 0])


@pytest.mark.parametrize("taped", [False, True])
def test_forward_rejects_an_empty_layout(taped):
    model = make_model()
    causal3 = np.tril(np.ones((3, 3), dtype=bool))
    with Tape() if taped else contextlib.nullcontext():
        with pytest.raises(NumericsError, match=r"^empty layout: tokens of shape \(0,\) give no rows$"):
            forward(model, [], [], np.zeros((0, 0), dtype=bool), [])
        with pytest.raises(NumericsError, match=r"^empty layout: tokens of shape \(0, 3\) give no rows$"):
            forward(model, np.zeros((0, 3), dtype=np.int64), [0, 1, 2], causal3, [0, 0, 0])
        with pytest.raises(NumericsError, match="^position_ids must hold one position per row$"):
            forward(model, [1, 2, 3], [], causal3, [0, 0, 0])


def _quadratic_allowed(model):
    """A 22-row quadratic layout's attention: causal with holes."""
    batch = build_quadratic_inference_input([1, 2, 3, 4, 5, 6, 7], [8, 9, 10], model.config.mask_ids)
    return batch, batch.attention_allowed.copy()


# Rows of the 22-row layout: the first, a middle one and the last with a
# later row to attend to; the later key is the next row or the last.
AHEAD = {"first-next": (0, 1), "first-last": (0, 21), "middle": (11, 12), "last": (20, 21)}


@pytest.mark.parametrize("taped", [False, True])
@pytest.mark.parametrize("cell", sorted(AHEAD))
def test_forward_rejects_attention_to_a_later_row(cell, taped):
    model = make_model()
    batch, allowed = _quadratic_allowed(model)
    allowed[AHEAD[cell]] = True
    with Tape() if taped else contextlib.nullcontext():
        with pytest.raises(NumericsError, match="^attention to future rows is not allowed$"):
            forward(model, batch.tokens, batch.position_ids, allowed, batch.gate)


@pytest.mark.parametrize("taped", [False, True])
@pytest.mark.parametrize("row", [0, 11, 21])
def test_forward_rejects_a_row_that_does_not_attend_to_itself(row, taped):
    model = make_model()
    batch, allowed = _quadratic_allowed(model)
    allowed[row, row] = False
    with Tape() if taped else contextlib.nullcontext():
        with pytest.raises(NumericsError, match="^every row must attend to itself$"):
            forward(model, batch.tokens, batch.position_ids, allowed, batch.gate)


def test_padded_tail_permutation_is_invisible():
    # Rows never attended by anyone else can hold any token without
    # changing the attended rows' outputs.
    model = make_model(rank=4, seed=4)
    randomize_adapters(model)
    tokens = np.array([1, 2, 3, 9, 10])
    allowed = np.zeros((5, 5), dtype=bool)
    allowed[np.tril_indices(3)] = True
    allowed[3, 3] = allowed[4, 4] = True
    gate = np.zeros(5, dtype=int)
    a = forward(model, tokens, [0, 1, 2, 3, 4], allowed, gate).logits.data[:3]
    tokens2 = np.array([1, 2, 3, 10, 9])
    b = forward(model, tokens2, [0, 1, 2, 3, 4], allowed, gate).logits.data[:3]
    assert np.array_equal(a, b)


LAYOUTS = {
    "causal": lambda ids: causal_rows([1, 2, 3, 4]),
    "linear": lambda ids: build_linear_inference_input([1, 2, 3], [4, 5], ids),
    "quadratic": lambda ids: build_quadratic_inference_input([1, 2], [3, 4, 5], ids),
    "training": lambda ids: build_training_batch([1, 2, 3, 4, 5], np.ones(5, dtype=int), ids),
}


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
        return build_quadratic_inference_input(real, real[:k], mask_ids)
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


@pytest.mark.parametrize(
    "gate, message",
    [([0, 2, 0], "gate entries must be 0 or 1"), ([0, 1], "gate length does not match row count")],
)
def test_untaped_forward_rejects_bad_gate_like_taped(gate, message):
    model = make_model()
    batch = causal_rows([1, 2, 3])
    args = (model, batch.tokens, batch.position_ids, batch.attention_allowed, gate)
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
            _check_gate(gate, gate.shape[0])
        except NumericsError as e:
            assert str(e) == "gate entries must be 0 or 1"
            got = False
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
    args = (model, batch.tokens, batch.position_ids, batch.attention_allowed, batch.gate)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericsError, match=f"produced by {op}$"):
            forward(*args)
        with Tape(), pytest.raises(NumericsError, match=f"produced by {op}$"):
            forward(*args)


# ---------------------------------------------------------------------------
# Taped training pass: one fused lora_delta per adapter, and per layer
# the fused attention_scores and attention_context around the softmax. The
# chain of elementary ops they replace is the oracle, byte for byte,
# forward and backward.
# ---------------------------------------------------------------------------


def chain_lora(layer, x, gate):
    """gated_lora_apply with its adapter delta as the elementary chain."""
    gate = np.asarray(gate)
    _check_gate(gate, x.data.shape[0])
    base = tz.linear(x, layer.W)
    rows = np.flatnonzero(gate)
    if rows.size == 0:
        return base
    return lora_chain(base, x, layer.A, layer.B, rows, LORA_ALPHA_OVER_RANK)


def chain_forward(model, batch, gate=None):
    """The taped forward with every fused op written as its elementary chain."""
    c = model.config
    gate = batch.gate if gate is None else gate
    x = tz.add(
        tz.take_rows(model.embedding_table(), batch.tokens), Tensor(model.pos_table[batch.position_ids])
    )
    for lw in model.layers:
        h = tz.layer_norm(x, lw.ln1_gain, lw.ln1_bias)
        q, k, v = (chain_lora(g, h, gate) for g in (lw.attn_q, lw.attn_k, lw.attn_v))
        heads = attention_chain(q, k, v, batch.attention_allowed, c.n_heads)
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
        hidden, logits = run()
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


def test_training_forward_records_one_entry_per_fused_op():
    # The embedding (table concat, lookup, position add), then 2 layers of:
    # 2 layer norms, 6 adapters (a linear plus a lora_delta each, the
    # residual adds inside the attn.o and ff.out deltas), attention scores,
    # softmax and context, and silu; then the final norm and the unembedding.
    model = make_model(rank=4, seed=9)
    batch = build_training_batch([1, 2, 3, 4, 5], np.ones(5, dtype=int), model.config.mask_ids)
    with Tape() as tape:
        run_batch(model, batch)
    assert len(tape) == 3 + 2 * (2 + 6 * 2 + 3 + 1) + 2


@pytest.mark.parametrize(
    "gate, message",
    [([0, 2, 0], "gate entries must be 0 or 1"), ([0, 1], "gate length does not match row count")],
)
def test_taped_forward_rejects_bad_gate_like_its_chain(gate, message):
    model = make_model()
    batch = causal_rows([1, 2, 3])
    with Tape(), pytest.raises(NumericsError, match=message):
        forward(model, batch.tokens, batch.position_ids, batch.attention_allowed, gate)
    with Tape(), pytest.raises(NumericsError, match=message):
        chain_forward(model, batch, gate)
    with Tape(), pytest.raises(NumericsError, match=message):
        gated_lora_apply(model.layers[0].attn_q, Tensor(np.ones((3, CFG["d_model"]))), gate)


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
        assert len(tape) == 3 + 2 * (2 + 6 * 2 + 3 + 1) + 2

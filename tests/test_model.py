import numpy as np
import pytest

from specmtp.batching import (
    build_linear_inference_input,
    build_quadratic_inference_input,
    build_training_batch,
    causal_rows,
)
from specmtp.model import ModelConfig, forward, gated_lora_apply, init_model
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


def run_batch(model, batch):
    return forward(model, batch.tokens, batch.position_ids, batch.attention_allowed, batch.gate)


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
    bad = np.array([[1, 1], [1, 1]])
    bad[0, 1] = 1
    with pytest.raises(NumericsError):
        forward(model, [1, 2], [0, 1], np.triu(np.ones((2, 2), dtype=bool)), [0, 0])
    no_diag = np.tril(np.ones((2, 2), dtype=bool))
    no_diag[1, 1] = False
    with pytest.raises(NumericsError):
        forward(model, [1, 2], [0, 1], no_diag, [0, 0])


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

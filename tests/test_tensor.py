import threading
from functools import partial

import numpy as np
import pytest
from chains import (
    attention_chain,
    context_chain,
    gated_linear_chain,
    matmul,
    row_scatter_add,
    scores_chain,
    silu_where,
    softmax_backward_chain,
    softmax_chain,
    softmax_rows,
    sum_all,
    transpose,
)

from specmtp import tensor as tz
from specmtp.batching import _layout
from specmtp.tensor import (
    NumericsError,
    Tape,
    Tensor,
    backward,
    cross_entropy,
    derive_rng,
    finite_diff_check,
    layer_norm,
    linear,
    masked_softmax_rows,
    precision,
    silu,
)

BIG = np.finfo(np.float64).max


def test_matmul_identity():
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    eye = Tensor(np.eye(2))
    assert np.array_equal(matmul(eye, m).data, m.data)


def test_matmul_hand():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[0.0], [1.0]])
    assert np.array_equal(matmul(a, b).data, np.array([[2.0], [4.0]]))


def test_matmul_shape_mismatch():
    with pytest.raises(NumericsError):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_matmul_gradients_match_finite_differences():
    with precision("float64"):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        err = finite_diff_check(lambda: sum_all(silu(matmul(a, b))), [a, b])
    assert err < 1e-6


# The attention path runs every head in one pass on stacked (H, ...) operands.
STACKED_LOSSES = {
    "matmul": lambda a, b, _: sum_all(silu(matmul(a, b))),
    "transpose": lambda a, _, w: sum_all(tz.mul(transpose(a, (1, 2, 0)), Tensor(w))),
    "masked_softmax_rows": lambda a, _, w: sum_all(
        tz.mul(masked_softmax_rows(matmul(a, transpose(a, (0, 2, 1))), np.tri(3, dtype=bool)), Tensor(w))
    ),
}


@pytest.mark.parametrize("op", sorted(STACKED_LOSSES))
def test_stacked_op_gradients_match_finite_differences(op):
    with precision("float64"):
        rng = np.random.default_rng(7)
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 4, 5)), requires_grad=True)
        w = rng.normal(size=(3, 4, 2) if op == "transpose" else (2, 3, 3))
        params = [a, b] if op == "matmul" else [a]
        err = finite_diff_check(lambda: STACKED_LOSSES[op](a, b, w), params)
    assert err < 1e-6


def test_stacked_ops_equal_their_per_block_ops():
    rng = np.random.default_rng(8)
    a, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 4, 3))
    allowed = np.tri(3, dtype=bool)
    prod = matmul(Tensor(a), Tensor(b))
    p = masked_softmax_rows(prod, allowed)
    for h in range(2):
        block = matmul(Tensor(a[h]), Tensor(b[h]))
        assert np.array_equal(prod.data[h], block.data)
        assert np.array_equal(p.data[h], masked_softmax_rows(block, allowed).data)


MISMATCHES = {
    "matmul_stack_sizes": lambda: matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 4, 5)))),
    "matmul_3d_2d": lambda: matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((4, 5)))),
    "matmul_2d_3d": lambda: matmul(Tensor(np.zeros((4, 5))), Tensor(np.zeros((2, 5, 3)))),
    "mask_not_t_by_t": lambda: masked_softmax_rows(Tensor(np.zeros((2, 3, 3))), np.ones((2, 3), dtype=bool)),
    "mask_stacked": lambda: masked_softmax_rows(Tensor(np.zeros((2, 3, 3))), np.ones((2, 3, 3), dtype=bool)),
    "transpose_axes": lambda: transpose(Tensor(np.zeros((2, 3, 4))), (0, 0, 1)),
}


@pytest.mark.parametrize("case", sorted(MISMATCHES))
def test_stacked_shape_mismatch_is_numerics_error(case):
    with pytest.raises(NumericsError):
        MISMATCHES[case]()


def test_scale_keeps_input_dtype():
    # A float64 scalar must not promote float32 data (NumPy 2 promotion).
    x = Tensor(np.ones((2, 3), dtype=np.float32))
    assert tz.scale(x, np.float64(0.25)).data.dtype == np.float32


def test_softmax_uniform():
    p = softmax_rows(Tensor([[0.0, 0.0, 0.0]]))
    assert np.allclose(p.data, 1.0 / 3.0, atol=1e-7)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(2)
    p = softmax_rows(Tensor(rng.normal(size=(5, 7)) * 10))
    assert np.allclose(p.data.sum(axis=1), 1.0, atol=1e-6)


def test_softmax_neg_inf_sentinel_is_exact_zero():
    p = softmax_rows(Tensor(np.array([[-np.inf, 0.0]])))
    assert p.data[0, 0] == 0.0
    assert p.data[0, 1] == 1.0


def test_masked_softmax_excluded_exact_zero():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(4, 4)))
    allowed = np.tril(np.ones((4, 4), dtype=bool))
    p = masked_softmax_rows(x, allowed)
    assert np.all(p.data[~allowed] == 0.0)
    assert np.allclose(p.data.sum(axis=1), 1.0, atol=1e-6)


def test_masked_softmax_matches_excluding_keys():
    # Zeroing by exclusion must equal running softmax on the reduced row.
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 5))
    allowed = rng.random((3, 5)) > 0.4
    allowed[:, 0] = True
    p = masked_softmax_rows(Tensor(x), allowed)
    for i in range(3):
        cols = np.flatnonzero(allowed[i])
        ref = softmax_rows(Tensor(x[i : i + 1, cols])).data[0]
        assert np.array_equal(p.data[i, cols], ref)


def _scores_with_edge_values(rng, shape, dtype):
    """Random scores holding -0.0, +0.0 and -inf (in allowed cells too),
    with rows whose allowed maximum is +0.0 and rows where it is -0.0."""
    x = rng.normal(size=shape).astype(dtype)
    for value, share in ((-0.0, 0.15), (0.0, 0.1), (-np.inf, 0.05)):
        x[rng.random(shape) < share] = value
    rows = x.reshape(-1, shape[-2], shape[-1])
    for block in rows:
        i = int(rng.integers(shape[-2]))
        block[i] = -np.abs(block[i])  # max -0.0: the diagonal is always allowed
        block[i, i] = -0.0
        j = int(rng.integers(shape[-2]))
        block[j] = -np.abs(block[j])
        block[j, j] = 0.0  # max +0.0, next to -0.0 entries
        block[j, 0] = -0.0
    # Every row keeps one finite allowed cell: the diagonal.
    diag = np.broadcast_to(np.eye(shape[-1], dtype=bool), shape)
    x[diag & np.isinf(x)] = 1.5
    return x


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_in_place_softmax_is_bytewise_the_out_of_place_chain(dtype):
    rng = np.random.default_rng(21)
    for t_len in (1, 2, 7, 33):
        allowed = random_allowed(rng, t_len)
        for shape in ((t_len, t_len), (3, 2, t_len, t_len)):
            x = _scores_with_edge_values(rng, shape, dtype)
            for mask in (allowed, None):
                # With no mask, the in-place core runs with every cell allowed.
                p = tz._softmax_core(x, np.ones_like(allowed) if mask is None else mask)
                want = softmax_chain(x, mask)
                assert p.dtype == want.dtype == dtype
                assert p.tobytes() == want.tobytes()
                g = _scores_with_edge_values(rng, shape, dtype)
                g[np.isinf(g)] = 0.25
                assert tz._softmax_backward(g, p).tobytes() == softmax_backward_chain(g, p).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("fill", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_masked_softmax_gives_excluded_cells_zero_whatever_they_hold(fill, dtype):
    # Exclusion replaces a cell; it does not add to it (NaN - inf is NaN).
    rng = np.random.default_rng(22)
    allowed = random_allowed(rng, 6)
    clean = rng.normal(size=(2, 6, 6)).astype(dtype)
    x = clean.copy()
    x[:, ~allowed] = fill
    want = tz.masked_softmax_data(clean, allowed)
    got = tz.masked_softmax_data(x, allowed)
    leaf = Tensor(clean)
    leaf.data = x  # Tensor() itself rejects NaN and +inf
    taped = masked_softmax_rows(leaf, allowed).data
    for p in (got, taped):
        assert p.dtype == dtype
        assert np.all(p[:, ~allowed] == 0.0)
        assert p.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_attention_ops_leave_their_inputs_unchanged(dtype):
    # Forward and backward of scores, masked softmax and context write only
    # into arrays they allocate: not into an input, an output already handed
    # on, or the incoming gradient.
    rng = np.random.default_rng(23)
    allowed = random_allowed(rng, T_ROWS)
    with precision(dtype):
        q, k, v = (Tensor(rng.normal(size=(2, T_ROWS, 4)), requires_grad=True) for _ in range(3))
        with Tape() as tape:
            s = tz.attention_scores(q, k, 2, T_ROWS, 0)
            p = masked_softmax_rows(s, allowed)
            tz.attention_context(p, v, T_ROWS, 0)
    arrays = [q.data, k.data, v.data, s.data, p.data, allowed]
    before = [a.tobytes() for a in arrays]
    assert len(tape) == 3
    for out, _, backward_fn in reversed(tape._entries):
        g = rng.normal(size=out.data.shape).astype(out.data.dtype)
        g_before = g.tobytes()
        backward_fn(g)
        assert g.tobytes() == g_before
    assert [a.tobytes() for a in arrays] == before


def test_softmax_gradient():
    with precision("float64"):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
        w = rng.normal(size=(2, 6))
        err = finite_diff_check(lambda: sum_all(mulw(softmax_rows(x), w)), [x])
    assert err < 1e-6


def mulw(t, w):
    return tz.mul(t, Tensor(w))


def test_layer_norm_constant_row_is_zero():
    x = Tensor(np.full((1, 8), 3.5))
    out = layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8)))
    assert np.allclose(out.data, 0.0, atol=1e-6)


def test_layer_norm_zero_gain_broadcasts_bias():
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(3, 4)))
    bias = np.array([1.0, -2.0, 0.5, 3.0])
    out = layer_norm(x, Tensor(np.zeros(4)), Tensor(bias))
    assert np.allclose(out.data, np.tile(bias, (3, 1)), atol=1e-7)


def test_layer_norm_gradient():
    with precision("float64"):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        g = Tensor(rng.normal(size=5), requires_grad=True)
        b = Tensor(rng.normal(size=5), requires_grad=True)
        w = rng.normal(size=(2, 5))
        err = finite_diff_check(lambda: sum_all(mulw(layer_norm(x, g, b), w)), [x, g, b])
    assert err < 1e-5


def test_silu_zero():
    assert silu(Tensor(np.zeros((1, 1)))).data[0, 0] == 0.0


@pytest.mark.parametrize("dtype, bits", [(np.float32, np.uint32), (np.float64, np.uint64)])
def test_silu_numerator_is_bitwise_the_where_form(dtype, bits):
    # max(e, x >= 0) for np.where(x >= 0, 1.0, e): the output and the kept
    # sigmoid, on special values, on random bit patterns (NaN payloads,
    # subnormals and every exponent), and on normal draws of every scale.
    info = np.finfo(dtype)
    specials = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0, 30.0, -30.0, 750.0, -750.0]
    for v in (info.smallest_subnormal, info.tiny, info.eps, info.max, np.sqrt(info.max)):
        specials += [v, -v]
    rng = np.random.default_rng(21)
    x = np.concatenate([
        np.array(specials, dtype=dtype),
        rng.integers(0, np.iinfo(bits).max, size=4096, dtype=bits, endpoint=True).view(dtype),
        (rng.normal(size=4096) * 10.0 ** rng.integers(-8, 9, size=4096)).astype(dtype),
    ])
    assert np.isnan(x).any() and (np.abs(x) < info.tiny).any() and np.isinf(x).any()
    for xd in (x, x[: x.size // 8 * 8].reshape(2, -1, 4)):
        token = tz._scan_per_op.set(False)  # silu of -inf is NaN
        try:
            with np.errstate(all="ignore"):
                got, want = tz.silu_data(xd), silu_where(xd)
        finally:
            tz._scan_per_op.reset(token)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype == dtype and g.shape == xd.shape
            assert g.tobytes() == w.tobytes()


def test_cross_entropy_uniform_logits():
    logits = Tensor(np.zeros((1, 4)))
    loss = cross_entropy(logits, np.array([2]))
    assert abs(loss.item() - np.log(4.0)) < 1e-6


def test_cross_entropy_ignored_rows():
    logits = Tensor(np.random.default_rng(8).normal(size=(3, 5)), requires_grad=True)
    with Tape() as tape:
        loss = cross_entropy(logits, np.array([-1, -1, -1]))
    assert loss.item() == 0.0
    backward_ok = True
    try:
        backward(tape, loss)
    except NumericsError:
        backward_ok = False
    assert backward_ok
    assert logits.grad is None or np.all(logits.grad == 0.0)


def test_cross_entropy_label_out_of_range():
    with pytest.raises(NumericsError):
        cross_entropy(Tensor(np.zeros((1, 4))), np.array([4]))


def test_cross_entropy_gradient():
    with precision("float64"):
        rng = np.random.default_rng(9)
        logits = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        labels = np.array([0, 5, -1, 2])
        err = finite_diff_check(lambda: cross_entropy(logits, labels), [logits])
    assert err < 1e-5


def test_backward_linear_case():
    # loss = sum(W @ x) -> dW[i, j] = x[j] for every i.
    w = Tensor(np.ones((3, 2)), requires_grad=True)
    x = Tensor(np.array([[2.0], [5.0]]))
    with Tape() as tape:
        loss = sum_all(matmul(w, x))
    backward(tape, loss)
    assert np.array_equal(w.grad, np.tile([2.0, 5.0], (3, 1)))


def test_backward_constant_loss_zero_grads():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    with Tape() as tape:
        loss = Tensor(np.zeros(()))
    backward(tape, loss)
    assert w.grad is None


def test_backward_requires_scalar():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    with Tape() as tape:
        out = silu(w)
    with pytest.raises(NumericsError):
        backward(tape, out)


def test_backward_accumulates_on_repeat():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    with Tape() as tape:
        loss = sum_all(w)
    backward(tape, loss)
    first = w.grad.copy()
    backward(tape, loss)
    assert np.array_equal(w.grad, 2.0 * first)


def test_two_layer_net_gradient_f32_and_f64():
    def run(dtype, tol):
        with precision(dtype):
            rng = np.random.default_rng(10)
            w1 = Tensor(rng.normal(size=(6, 4)).astype(tz.default_dtype()), requires_grad=True)
            w2 = Tensor(rng.normal(size=(2, 6)).astype(tz.default_dtype()), requires_grad=True)
            x = Tensor(rng.normal(size=(3, 4)).astype(tz.default_dtype()))
            labels = np.array([0, 1, 0])

            def f():
                return cross_entropy(linear(silu(linear(x, w1)), w2), labels)

            assert finite_diff_check(f, [w1, w2]) < tol

    run("float64", 1e-6)
    run("float32", 1e-4)


def test_finite_diff_quadratic_analytic():
    w = Tensor(np.array([1.0, 2.0]).reshape(1, 2).astype(np.float64), requires_grad=True)
    err = finite_diff_check(lambda: sum_all(tz.mul(w, w)), [w], eps=1e-6)
    assert err < 1e-9


def test_finite_diff_catches_corrupted_gradient():
    # An op with a deliberately wrong backward must be flagged.
    w = Tensor(np.array([[1.0, 2.0]]).astype(np.float64), requires_grad=True)

    def bad_double(x):
        out = Tensor(x.data * 2.0)

        def bw(g):
            return (g * 3.0,)  # wrong on purpose: true jacobian is 2

        return tz._record(out, (x,), bw)

    err = finite_diff_check(lambda: sum_all(bad_double(w)), [w], eps=1e-6)
    assert err > 1e-2


def test_nan_rejected():
    with pytest.raises(NumericsError):
        Tensor(np.array([np.nan]))


def _big(*shape):
    return Tensor(np.full(shape, BIG))


# Each op that computes values, fed inputs whose result is not finite.
# Softmax and silu cannot overflow: a softmax row with nothing admissible
# comes out NaN, and so does silu of -inf.
OVERFLOWS = {
    "matmul": lambda: matmul(_big(1, 2), _big(2, 1)),
    "linear": lambda: tz.linear(_big(1, 2), _big(3, 2)),
    "add": lambda: tz.add(_big(2, 2), _big(2)),
    "sub": lambda: tz.sub(_big(2, 2), Tensor(np.full((2, 2), -BIG))),
    "mul": lambda: tz.mul(_big(2, 2), _big(2, 2)),
    "scale": lambda: tz.scale(_big(2, 2), 2.0),
    "silu": lambda: tz.silu(Tensor(np.full((1, 2), -np.inf))),
    "layer_norm": lambda: tz.layer_norm(Tensor([[1.0, -1.0]]), _big(2), _big(2)),
    "softmax_rows": lambda: softmax_rows(Tensor(np.full((2, 3), -np.inf))),
    "masked_softmax_rows": lambda: tz.masked_softmax_rows(
        Tensor(np.zeros((2, 3))), np.array([[True, False, False], [False] * 3])
    ),
    "row_scatter_add": lambda: row_scatter_add(_big(3, 2), np.array([1]), _big(1, 2)),
    "cross_entropy": lambda: tz.cross_entropy(Tensor([[BIG, -BIG]]), np.array([1])),
    "sum_all": lambda: sum_all(_big(2, 2)),
    "mean_axis1": lambda: tz.mean_axis1(_big(2, 2)),
    "dot_const": lambda: tz.dot_const(_big(2), np.ones(2)),
    # The gated adapter op, gated_linear, keyed by the name of the op it
    # replaced so that the case ids stay: its merge's product overflows.
    "lora_delta": lambda: tz.gated_linear(
        Tensor(np.ones((2, 2))), Tensor(np.zeros((2, 2))), _big(2, 1), Tensor(np.full((1, 2), 2.0)), 1, 1.0
    ),
    "attention_scores": lambda: tz.attention_scores(_big(2, 2), _big(2, 2), 1, 2, 0),
    "attention_context": lambda: tz.attention_context(_big(1, 2, 2), _big(2, 2), 2, 0),
    # The attention ops on one regular row, then one block of 2 mask rows,
    # under the names of the mask-stream ops they replaced: the block's
    # product overflows, and, in the context, the sum of two finite products.
    "mask_attention_scores": lambda: tz.attention_scores(
        Tensor([[1.0, 1.0], [0.0, 0.0], [BIG, BIG]]), Tensor([[0.0, 0.0], [0.0, 0.0], [BIG, BIG]]), 1, 1, 2
    ),
    "mask_attention_context": lambda: tz.attention_context(
        Tensor(np.ones((1, 3, 3))), Tensor([[1.0, 1.0], [BIG, BIG], [BIG, BIG]]), 1, 2
    ),
    "mask_attention_context_sum": lambda: tz.attention_context(
        Tensor(np.full((1, 3, 3), 0.5)), Tensor(np.full((3, 2), 0.9 * BIG)), 1, 2
    ),
}
# A fused op runs its chain's array helpers, so the step that made the
# value names itself, as it would in the chain.
FUSED_STEP = {
    "lora_delta": "matmul",
    "attention_scores": "matmul",
    "attention_context": "matmul",
    "mask_attention_scores": "matmul",
    "mask_attention_context": "matmul",
    "mask_attention_context_sum": "add",
}


@pytest.mark.parametrize("op", sorted(OVERFLOWS))
def test_computing_op_rejects_non_finite_output_by_name(op):
    name = FUSED_STEP.get(op, op)
    with np.errstate(all="ignore"), pytest.raises(NumericsError, match=f"produced by {name}$"):
        OVERFLOWS[op]()


def test_neg_inf_moves_unchecked_but_is_never_computed_on():
    # -inf is the exclusion sentinel: ops that move it pass it through,
    # softmax gives it weight exactly 0, and a computing op rejects it.
    leaf = Tensor([[0.0, -np.inf], [1.0, 2.0]])
    moved = tz.take_rows(transpose(leaf), np.array([1, 0]))
    assert np.array_equal(moved.data, [[-np.inf, 2.0], [0.0, 1.0]])
    p = softmax_rows(moved)
    assert p.data[0, 0] == 0.0
    assert p.data[0, 1] == 1.0
    with pytest.raises(NumericsError, match="produced by sum_all$"):
        sum_all(leaf)


def test_tape_and_precision_are_per_thread():
    # Two threads each hold their own dtype and their own open tape at the
    # same time; neither sees the other's.
    barrier = threading.Barrier(2, timeout=30)
    results = {}

    def work(dtype):
        try:
            with precision(dtype):
                barrier.wait()
                with Tape() as tape:
                    barrier.wait()
                    w = Tensor([[1, 2], [3, 4]], requires_grad=True)
                    loss = sum_all(tz.mul(w, w))
                    seen = tz.default_dtype()
                    barrier.wait()
                backward(tape, loss)
            results[dtype] = (seen, w.data.dtype, len(tape), w.grad)
        except Exception as exc:  # reported below, from the main thread
            barrier.abort()
            results[dtype] = exc

    threads = [threading.Thread(target=work, args=(d,)) for d in ("float32", "float64")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    for dtype in ("float32", "float64"):
        if isinstance(results[dtype], Exception):
            raise results[dtype]
        seen, data_dtype, entries, grad = results[dtype]
        assert seen is getattr(np, dtype)
        assert data_dtype == getattr(np, dtype)
        assert entries == 2
        assert np.array_equal(grad, [[2, 4], [6, 8]])
    assert tz.default_dtype() is np.float32


def test_derive_rng_deterministic_and_name_sensitive():
    a = derive_rng(7, "w").normal(size=4)
    b = derive_rng(7, "w").normal(size=4)
    c = derive_rng(7, "v").normal(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_take_rows_backward_scatter():
    x = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    idx = np.array([1, 1, 3])
    with Tape() as tape:
        loss = sum_all(tz.take_rows(x, idx))
    backward(tape, loss)
    expected = np.zeros((4, 3))
    expected[1] = 2.0
    expected[3] = 1.0
    assert np.array_equal(x.grad, expected)


def test_row_scatter_add_untouched_rows_bitwise():
    base = Tensor(np.random.default_rng(11).normal(size=(5, 3)))
    delta = Tensor(np.ones((2, 3)))
    out = row_scatter_add(base, np.array([1, 4]), delta)
    assert np.array_equal(out.data[[0, 2, 3]], base.data[[0, 2, 3]])


# ---------------------------------------------------------------------------
# Fused ops: one tape entry each, byte-equal to the chain of elementary ops
# they replace, which stays their oracle.
# ---------------------------------------------------------------------------


T_ROWS = 6
# The first gated row: a layout's mask rows, its last row alone, or every
# row (the ungated ablation).
STARTS = {"tail": 2, "last": T_ROWS - 1, "all": 0}


def random_allowed(rng, t_len):
    """Causal with random holes, the diagonal always kept."""
    return np.tril(rng.random((t_len, t_len)) > 0.4) | np.eye(t_len, dtype=bool)


# The allowed matrix of T_ROWS rows as 2 regular rows, then 2 blocks of 2
# mask rows, anchored at rows 0 and 1: the regular keys, then the block's.
BLOCK_ALLOWED = np.array(
    [[1, 0, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 1, 1], [1, 1, 1, 0], [1, 1, 1, 1]], dtype=bool
)


def fused_case(op, case, dtype, seed=12):
    """(fused fn, chain fn, input leaves, loss weights) on random inputs."""
    rng = np.random.default_rng(seed)

    def leaf(*shape):
        return Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)

    if op == "lora_delta":  # gated_linear, under the name of the op it replaced
        start_name, residual = case
        start = STARTS[start_name]

        def fused(*t):  # x, w, a, b, then the residual if any
            return tz.gated_linear(*t[:4], start, 2.0, *t[4:])

        def chain(*t):
            return gated_linear_chain(*t[:4], np.arange(start, T_ROWS), 2.0, *t[4:])

        inputs = [leaf(T_ROWS, 4), leaf(5, 4), leaf(4, 3), leaf(3, 5)]
        if residual:
            inputs.append(leaf(T_ROWS, 5))
        shape = (T_ROWS, 5)
    elif op in ("attention_scores", "mask_attention_scores"):
        # A causal layout, or (under the name of the mask-stream op it
        # replaced) 2 regular rows, then 2 blocks of 2 mask rows.
        layout = dict(n_reg=T_ROWS, block=0) if op == "attention_scores" else dict(n_reg=2, block=2)
        fused, chain = partial(tz.attention_scores, n_heads=2, **layout), partial(scores_chain, n_heads=2, **layout)
        inputs = [leaf(T_ROWS, 4), leaf(T_ROWS, 4)]
        shape = (2, T_ROWS, layout["n_reg"] + layout["block"])
    elif op == "outside_attention_scores":
        # The 2 blocks of 2 mask rows alone, their 2 regular keys a constant
        # from outside.
        layout = dict(n_heads=2, n_reg=2, block=2, k_reg=rng.normal(size=(2, 4)).astype(dtype))
        fused, chain = partial(tz.attention_scores, **layout), partial(scores_chain, **layout)
        inputs = [leaf(T_ROWS - 2, 4), leaf(T_ROWS - 2, 4)]
        shape = (2, T_ROWS - 2, 4)
    elif op == "outside_attention_context":
        # Those mask rows' weights and values, the regular values a constant.
        layout = dict(n_reg=2, block=2, v_reg=rng.normal(size=(2, 4)).astype(dtype))
        p = tz.masked_softmax_rows(Tensor(rng.normal(size=(2, T_ROWS - 2, 4))), BLOCK_ALLOWED[2:]).data
        fused, chain = partial(tz.attention_context, **layout), partial(context_chain, **layout)
        inputs = [Tensor(p.astype(dtype), requires_grad=True), leaf(T_ROWS - 2, 4)]
        shape = (T_ROWS - 2, 4)
    elif op in ("split_attention_scores", "split_causal_attention_scores"):
        # Outside, then own: the layout's rows from row r on, the keys of
        # the r rows before them a constant from outside. The blocks' layout
        # from row 1 on (1 own regular row, then the blocks), or a causal
        # one from row 3 on.
        n_reg, block, r = (2, 2, 1) if op == "split_attention_scores" else (T_ROWS, 0, 3)
        layout = dict(n_heads=2, n_reg=n_reg, block=block, k_reg=rng.normal(size=(r, 4)).astype(dtype))
        fused, chain = partial(tz.attention_scores, **layout), partial(scores_chain, **layout)
        inputs = [leaf(T_ROWS - r, 4), leaf(T_ROWS - r, 4)]
        shape = (2, T_ROWS - r, n_reg + block)
    elif op in ("tail_attention_scores", "tail_causal_attention_scores"):
        # The queries of the layout's rows from row r on, the keys of every
        # row: the blocks' layout from row 1 on, or a causal one from row 3.
        n_reg, block, r = (2, 2, 1) if op == "tail_attention_scores" else (T_ROWS, 0, 3)
        layout = dict(n_heads=2, n_reg=n_reg, block=block)
        fused, chain = partial(tz.attention_scores, **layout), partial(scores_chain, **layout)
        inputs = [leaf(T_ROWS - r, 4), leaf(T_ROWS, 4)]
        shape = (2, T_ROWS - r, n_reg + block)
    elif op in ("tail_attention_context", "tail_causal_attention_context"):
        # Those rows' weights, and the values of every row.
        if op == "tail_attention_context":
            (n_reg, block, r), allowed = (2, 2, 1), BLOCK_ALLOWED[1:]
        else:
            (n_reg, block, r), allowed = (T_ROWS, 0, 3), random_allowed(rng, T_ROWS)[3:]
        p = tz.masked_softmax_rows(Tensor(rng.normal(size=(2,) + allowed.shape)), allowed).data
        layout = dict(n_reg=n_reg, block=block)
        fused, chain = partial(tz.attention_context, **layout), partial(context_chain, **layout)
        inputs = [Tensor(p.astype(dtype), requires_grad=True), leaf(T_ROWS, 4)]
        shape = (T_ROWS - r, 4)
    elif op in ("split_attention_context", "split_causal_attention_context"):
        # Those rows' weights and values, the values of the r rows before a constant.
        if op == "split_attention_context":
            (n_reg, block, r), allowed = (2, 2, 1), BLOCK_ALLOWED[1:]
        else:
            (n_reg, block, r), allowed = (T_ROWS, 0, 3), random_allowed(rng, T_ROWS)[3:]
        layout = dict(n_reg=n_reg, block=block, v_reg=rng.normal(size=(r, 4)).astype(dtype))
        p = tz.masked_softmax_rows(Tensor(rng.normal(size=(2,) + allowed.shape)), allowed).data
        fused, chain = partial(tz.attention_context, **layout), partial(context_chain, **layout)
        inputs = [Tensor(p.astype(dtype), requires_grad=True), leaf(T_ROWS - r, 4)]
        shape = (T_ROWS - r, 4)
    else:
        # Rows of attention weights: a softmax over a random causal mask, or
        # over the blocks' layout (2 regular rows, 2 blocks of 2).
        if op == "attention_context":
            layout, allowed = dict(n_reg=T_ROWS, block=0), random_allowed(rng, T_ROWS)
        else:
            layout, allowed = dict(n_reg=2, block=2), BLOCK_ALLOWED
        p = tz.masked_softmax_rows(Tensor(rng.normal(size=(2,) + allowed.shape)), allowed).data
        fused, chain = partial(tz.attention_context, **layout), partial(context_chain, **layout)
        inputs = [Tensor(p.astype(dtype), requires_grad=True), leaf(T_ROWS, 4)]
        shape = (T_ROWS, 4)
    return fused, chain, inputs, rng.normal(size=shape).astype(dtype)


FUSED_CASES = [
    pytest.param("lora_delta", (start, residual), id=f"lora_delta-{start}" + ("-residual" if residual else ""))
    for start in sorted(STARTS)
    for residual in (False, True)
] + [
    pytest.param(op, None, id=op)
    for op in (
        "attention_scores", "attention_context", "mask_attention_scores", "mask_attention_context",
        "outside_attention_scores", "outside_attention_context",
        "split_attention_scores", "split_attention_context",
        "split_causal_attention_scores", "split_causal_attention_context",
        "tail_attention_scores", "tail_attention_context",
        "tail_causal_attention_scores", "tail_causal_attention_context",
    )
]


@pytest.mark.parametrize("op, case", FUSED_CASES)
def test_fused_op_gradients_match_finite_differences(op, case):
    with precision("float64"):
        fused, _, inputs, w = fused_case(op, case, np.float64)
        err = finite_diff_check(lambda: sum_all(mulw(fused(*inputs), w)), inputs)
    assert err < 1e-6


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("op, case", FUSED_CASES)
def test_fused_op_is_bytewise_its_chain(op, case, dtype):
    results = []
    for side in ("fused", "chain"):
        fused_fn, chain_fn, inputs, w = fused_case(op, case, np.dtype(dtype))
        with Tape() as tape:
            out = (fused_fn if side == "fused" else chain_fn)(*inputs)
            loss = sum_all(mulw(out, w))
        backward(tape, loss)
        results.append((out, inputs, len(tape)))
    (fused, f_inputs, f_len), (chain, c_inputs, c_len) = results
    assert f_len == 3 and c_len > 3  # one entry, plus mul and sum_all
    assert fused.data.dtype == chain.data.dtype == np.dtype(dtype)
    assert fused.data.tobytes() == chain.data.tobytes()
    for f, c in zip(f_inputs, c_inputs):
        assert f.grad.dtype == c.grad.dtype == np.dtype(dtype)
        assert f.grad.tobytes() == c.grad.tobytes()


@pytest.mark.parametrize("layout", ["causal", "blocks"])
def test_attention_ops_are_bytewise_the_attention_chain(layout):
    # The three ops the model runs per layer, against the whole chain.
    rng = np.random.default_rng(13)
    streams = (T_ROWS, 0, random_allowed(rng, T_ROWS)) if layout == "causal" else (2, 2, BLOCK_ALLOWED)
    q, k, v = (Tensor(rng.normal(size=(T_ROWS, 4)).astype(np.float32), requires_grad=True) for _ in range(3))
    w = rng.normal(size=(T_ROWS, 4)).astype(np.float32)
    n_reg, block, allowed = streams
    runs = []
    for fn in (
        lambda: tz.attention_context(
            masked_softmax_rows(tz.attention_scores(q, k, 2, n_reg, block), allowed), v, n_reg, block
        ),
        lambda: attention_chain(q, k, v, streams, 2),
    ):
        for t in (q, k, v):
            t.grad = None
        with Tape() as tape:
            out = fn()
            loss = sum_all(mulw(out, w))
        backward(tape, loss)
        runs.append([out.data.tobytes()] + [t.grad.tobytes() for t in (q, k, v)])
    assert runs[0] == runs[1]


# 5 regular rows, then 3 blocks of 3 mask rows anchored at rows 1, 4 and 2.
ISOLATION_LAYOUT = _layout(np.zeros(5), [1, 4, 2], np.zeros(3))


def _isolated_attention(q, k, v, taped):
    """scores -> masked_softmax_rows -> context over ISOLATION_LAYOUT, as
    the autodiff ops under a tape or as their array helpers."""
    n_reg, block, allowed, _ = ISOLATION_LAYOUT.streams
    if not taped:
        s = tz.attention_scores_data(q, k, 2, n_reg, block)[0]
        return tz.attention_context_data(tz.masked_softmax_data(s, allowed), v, n_reg, block)[0]
    with Tape():
        qt, kt, vt = (Tensor(t, requires_grad=True) for t in (q, k, v))
        s = tz.attention_scores(qt, kt, 2, n_reg, block)
        return tz.attention_context(masked_softmax_rows(s, allowed), vt, n_reg, block).data


@pytest.mark.parametrize("taped", [False, True])
def test_mask_rows_reach_no_regular_row_and_blocks_reach_no_other_block(taped):
    # New q, k and v on every mask row leave the regular rows' bytes; new k
    # and v on one block leave every other row's. The extreme case's keys
    # overflow a product with any regular query, so a regular row that
    # scored a block key, even in an excluded cell, would raise.
    rng = np.random.default_rng(29)
    t_len, n_reg, block = ISOLATION_LAYOUT.size, 5, 3
    m = t_len - n_reg
    q, k, v = (rng.normal(size=(t_len, 4)).astype(np.float32) for _ in range(3))
    base = _isolated_attention(q, k, v, taped)
    assert base.dtype == np.float32 and base.shape == (t_len, 4)
    # The regular rows are the causal attention of the regular rows alone;
    # not bitwise, as the softmax sums their block columns' zeros too.
    alone = tz.attention_scores_data(q[:n_reg], k[:n_reg], 2, n_reg, 0)[0]
    alone = tz.masked_softmax_data(alone, np.tri(n_reg, dtype=bool))
    alone = tz.attention_context_data(alone, v[:n_reg], n_reg, 0)[0]
    np.testing.assert_allclose(base[:n_reg], alone, rtol=1e-6, atol=1e-6)
    for new in (
        [rng.normal(0.0, 3.0, size=(m, 4)) for _ in range(3)],
        [np.zeros((m, 4)), np.full((m, 4), 3e38), np.full((m, 4), 1e37)],
    ):
        q2, k2, v2 = q.copy(), k.copy(), v.copy()
        q2[n_reg:], k2[n_reg:], v2[n_reg:] = new
        got = _isolated_attention(q2, k2, v2, taped)
        assert np.isfinite(got).all()
        assert got[:n_reg].tobytes() == base[:n_reg].tobytes()
        assert not np.array_equal(got[n_reg:], base[n_reg:])
    for b in range(m // block):
        rows = np.arange(n_reg + b * block, n_reg + (b + 1) * block)
        k2, v2 = k.copy(), v.copy()
        k2[rows], v2[rows] = rng.normal(0.0, 3.0, size=(2, block, 4))
        got = _isolated_attention(q, k2, v2, taped)
        others = np.setdiff1d(np.arange(t_len), rows)
        assert got[others].tobytes() == base[others].tobytes()
        assert not np.array_equal(got[rows], base[rows])


def _gated_overflow(step):
    # Inputs of gated_linear whose first non-finite value appears at `step`
    # of its chain: linear, the merge (matmul, scale, add), the 1-row
    # linear, the residual add. "linear" is the 1-row one: W alone is finite
    # in x W^T, its merged weight is not.
    x, w, a, b = np.ones((2, 2)), np.zeros((2, 2)), np.ones((2, 1)), np.ones((1, 2))
    c, residual = 1.0, np.zeros((2, 2))
    if step == "linear":
        b = np.full((1, 2), BIG / 1.5)
    elif step == "matmul":
        a, b = np.full((2, 1), BIG), np.full((1, 2), 2.0)
    elif step == "scale":
        b, c = np.full((1, 2), 2.0), BIG
    else:
        w, residual = np.full((2, 2), BIG / 4), np.full((2, 2), BIG)
    return [Tensor(t) for t in (x, w, a, b)], 0, c, Tensor(residual)


@pytest.mark.parametrize("step", ["linear", "matmul", "scale", "add"])
def test_lora_delta_overflow_names_the_same_step_as_its_chain(step):
    # gated_linear, the op that replaced lora_delta.
    inputs, start, c, residual = _gated_overflow(step)
    for fn, gated in ((tz.gated_linear, start), (gated_linear_chain, np.arange(start, 2))):
        with np.errstate(all="ignore"), pytest.raises(NumericsError, match=f"produced by {step}$"):
            fn(*inputs, gated, c, residual)


def _t(*shape):
    return Tensor(np.zeros(shape))


FUSED_MISMATCHES = {
    # gated_linear(x, w, a, b, start, c[, residual]), under the name of the
    # op it replaced; a start row outside 0..T-1.
    "lora_x_not_2d": lambda: tz.gated_linear(_t(3), _t(2, 3), _t(3, 1), _t(1, 2), 0, 1.0),
    "lora_base_rows": lambda: tz.gated_linear(_t(3, 3), _t(2, 4), _t(4, 1), _t(1, 2), 0, 1.0),
    "lora_a_rows": lambda: tz.gated_linear(_t(3, 3), _t(2, 3), _t(2, 1), _t(1, 2), 0, 1.0),
    "lora_b_rows": lambda: tz.gated_linear(_t(3, 3), _t(2, 3), _t(3, 1), _t(2, 2), 0, 1.0),
    "lora_b_cols": lambda: tz.gated_linear(_t(3, 3), _t(2, 3), _t(3, 1), _t(1, 3), 0, 1.0),
    "lora_row_range": lambda: tz.gated_linear(_t(3, 3), _t(2, 3), _t(3, 1), _t(1, 2), 3, 1.0),
    "lora_negative_row": lambda: tz.gated_linear(_t(3, 3), _t(2, 3), _t(3, 1), _t(1, 2), -1, 1.0),
    "lora_residual_shape": lambda: tz.gated_linear(_t(3, 3), _t(2, 3), _t(3, 1), _t(1, 2), 0, 1.0, _t(3, 3)),
    "scores_k_shape": lambda: tz.attention_scores(_t(3, 4), _t(2, 4), 2, 3, 0),
    "scores_below_2d": lambda: tz.attention_scores(_t(4), _t(4), 2, 1, 0),
    "scores_heads_split": lambda: tz.attention_scores(_t(3, 4), _t(3, 4), 3, 3, 0),
    "scores_no_heads": lambda: tz.attention_scores(_t(3, 4), _t(3, 4), 0, 3, 0),
    # Layouts that are not n_reg regular rows and then whole blocks.
    "scores_no_regular_row": lambda: tz.attention_scores(_t(3, 4), _t(3, 4), 2, 0, 3),
    "scores_causal_short": lambda: tz.attention_scores(_t(3, 4), _t(3, 4), 2, 2, 0),
    "scores_ragged_blocks": lambda: tz.attention_scores(_t(6, 4), _t(6, 4), 2, 1, 2),
    "scores_block_without_rows": lambda: tz.attention_scores(_t(3, 4), _t(3, 4), 2, 3, 1),
    "context_p_not_3d": lambda: tz.attention_context(_t(3, 3), _t(3, 4), 3, 0),
    "context_p_not_t_by_t": lambda: tz.attention_context(_t(2, 3, 2), _t(3, 4), 3, 0),
    "context_v_rows": lambda: tz.attention_context(_t(2, 3, 3), _t(2, 4), 3, 0),
    "context_heads_split": lambda: tz.attention_context(_t(3, 3, 3), _t(3, 4), 3, 0),
    "context_no_heads": lambda: tz.attention_context(_t(0, 3, 3), _t(3, 4), 3, 0),
    "context_width_not_layout": lambda: tz.attention_context(_t(2, 5, 4), _t(5, 4), 1, 2),
    "context_ragged_blocks": lambda: tz.attention_context(_t(2, 6, 3), _t(6, 4), 1, 2),
    # Regular keys or values from outside the pass: one row per regular
    # row, the queries' columns, and mask blocks after them.
    "scores_outside_rows": lambda: tz.attention_scores(_t(4, 4), _t(4, 4), 2, 2, 2, np.zeros((3, 4))),
    "scores_outside_cols": lambda: tz.attention_scores(_t(4, 4), _t(4, 4), 2, 2, 2, np.zeros((2, 6))),
    "scores_outside_no_blocks": lambda: tz.attention_scores(_t(2, 4), _t(2, 4), 2, 2, 0, np.zeros((2, 4))),
    "scores_outside_ragged": lambda: tz.attention_scores(_t(3, 4), _t(3, 4), 2, 2, 2, np.zeros((2, 4))),
    "context_outside_rows": lambda: tz.attention_context(_t(2, 4, 4), _t(4, 4), 2, 2, np.zeros((3, 4))),
    "context_outside_no_blocks": lambda: tz.attention_context(_t(2, 2, 2), _t(2, 4), 2, 0, np.zeros((2, 4))),
    # Outside, then own: the own rows are the n_reg - r regular rows after
    # the r outside ones, then whole blocks; at least one row in all.
    "scores_split_rows": lambda: tz.attention_scores(_t(4, 4), _t(4, 4), 2, 2, 2, np.zeros((1, 4))),
    "scores_split_causal_rows": lambda: tz.attention_scores(_t(2, 4), _t(2, 4), 2, 4, 0, np.zeros((1, 4))),
    "scores_split_stack": lambda: tz.attention_scores(_t(2, 3, 4), _t(2, 3, 4), 2, 4, 0, np.zeros((1, 4))),
    "context_split_rows": lambda: tz.attention_context(_t(2, 2, 4), _t(2, 4), 4, 0, np.zeros((1, 4))),
    "context_split_cols": lambda: tz.attention_context(_t(2, 3, 4), _t(3, 4), 4, 0, np.zeros((1, 6))),
    # Queries of the layout's last rows, from a row that does not pass the
    # regular rows and does not come before the outside rows.
    "scores_tail_in_blocks": lambda: tz.attention_scores(_t(1, 4), _t(6, 4), 2, 2, 2),
    "scores_tail_more_queries": lambda: tz.attention_scores(_t(7, 4), _t(6, 4), 2, 6, 0),
    "scores_tail_before_outside": lambda: tz.attention_scores(_t(4, 4), _t(3, 4), 2, 6, 0, np.zeros((3, 4))),
    "context_tail_in_blocks": lambda: tz.attention_context(_t(2, 1, 4), _t(6, 4), 2, 2),
    "context_tail_more_rows": lambda: tz.attention_context(_t(2, 7, 6), _t(6, 4), 6, 0),
}


@pytest.mark.parametrize("case", sorted(FUSED_MISMATCHES))
def test_fused_op_shape_mismatch_is_numerics_error(case):
    with pytest.raises(NumericsError):
        FUSED_MISMATCHES[case]()


# ---------------------------------------------------------------------------
# Stacked ops: a leading sequence axis gives every sequence the bytes of the
# op run on that sequence alone, in the output and in every gradient. A
# weight shared by the sequences gets the gradient of a tape with one pass
# per sequence, their losses chained by `add`.
# ---------------------------------------------------------------------------

N_SEQ = 3
ROWS = np.array([1, 2, 4])
SEQ_IDX = np.array([[0, 2, 2, 5], [1, 1, 3, 0], [5, 4, 0, 0]])  # a lookup per sequence
CE_LABELS = np.array([[2, -1, 0, 6, 1], [5, -1, 6, 6, 0], [0, -1, 3, 2, 4]])


def _stacked_cases(rng, dtype):
    """op -> (run, inputs): run(tensors, s) applies the op, s slicing any
    per-sequence constant (slice(None) for the stack, b for sequence b);
    inputs are (array, stacked) pairs."""
    def arr(*shape):
        return rng.normal(size=shape).astype(dtype)

    x = (arr(N_SEQ, T_ROWS, 4), True)
    allowed = random_allowed(rng, T_ROWS)
    return {
        "take_rows": (lambda t, s: tz.take_rows(t[0], np.array([3, 0, 3])), [x]),
        "take_rows_lookup": (lambda t, s: tz.take_rows(t[0], SEQ_IDX[s]), [(arr(7, 4), False)]),
        "add_table": (lambda t, s: tz.add(*t), [x, (arr(T_ROWS, 4), False)]),
        "add_row_bias": (lambda t, s: tz.add(*t), [x, (arr(4), False)]),
        "sub": (lambda t, s: tz.sub(*t), [x, (arr(N_SEQ, T_ROWS, 4), True)]),
        "mul": (lambda t, s: tz.mul(*t), [x, (arr(N_SEQ, T_ROWS, 4), True)]),
        "scale": (lambda t, s: tz.scale(t[0], 0.3), [x]),
        "silu": (lambda t, s: tz.silu(t[0]), [x]),
        "layer_norm": (lambda t, s: tz.layer_norm(*t), [x, (arr(4), False), (arr(4), False)]),
        "linear": (lambda t, s: tz.linear(*t), [x, (arr(3, 4), False)]),
        "matmul": (lambda t, s: matmul(*t), [(arr(N_SEQ, 2, T_ROWS, 3), True), (arr(N_SEQ, 2, 3, 5), True)]),
        "row_scatter_add": (lambda t, s: row_scatter_add(t[0], ROWS, t[1]), [x, (arr(N_SEQ, 3, 4), True)]),
        # gated_linear, under the name of the op it replaced.
        "lora_delta": (
            lambda t, s: tz.gated_linear(*t, 3, 2.0),
            [x, (arr(5, 4), False), (arr(4, 3), False), (arr(3, 5), False)],
        ),
        "lora_delta_residual": (
            lambda t, s: tz.gated_linear(*t[:4], 3, 2.0, t[4]),
            [x, (arr(5, 4), False), (arr(4, 3), False), (arr(3, 5), False), (arr(N_SEQ, T_ROWS, 5), True)],
        ),
        "attention_scores": (lambda t, s: tz.attention_scores(*t, 2, T_ROWS, 0), [x, (arr(N_SEQ, T_ROWS, 4), True)]),
        "attention_scores_blocks": (lambda t, s: tz.attention_scores(*t, 2, 2, 2), [x, (arr(N_SEQ, T_ROWS, 4), True)]),
        "masked_softmax_rows": (
            lambda t, s: tz.masked_softmax_rows(t[0], allowed), [(arr(N_SEQ, 2, T_ROWS, T_ROWS), True)]
        ),
        "attention_context": (
            lambda t, s: tz.attention_context(*t, T_ROWS, 0), [(arr(N_SEQ, 2, T_ROWS, T_ROWS), True), x]
        ),
        "attention_context_blocks": (
            lambda t, s: tz.attention_context(*t, 2, 2), [(arr(N_SEQ, 2, T_ROWS, 4), True), x]
        ),
        "concat_cols": (lambda t, s: tz.concat_cols(list(t)), [x, (arr(N_SEQ, T_ROWS, 2), True)]),
        "mean_axis1": (lambda t, s: tz.mean_axis1(t[0]), [x]),
        "dot_const": (lambda t, s: tz.dot_const(t[0], np.arange(1.0, 5.0)), [(arr(N_SEQ, 4), True)]),
        "cross_entropy": (lambda t, s: tz.cross_entropy(t[0], CE_LABELS[s]), [(arr(N_SEQ, 5, 7), True)]),
    }


STACKED_OPS = sorted(_stacked_cases(np.random.default_rng(0), np.float64))


def _run_stacked(op, dtype):
    """Outputs and gradients of one stacked pass and of the per-sequence passes."""
    rng = np.random.default_rng(15)
    run, inputs = _stacked_cases(rng, dtype)[op]
    leaves = [Tensor(a, requires_grad=True) for a, _ in inputs]
    with Tape() as tape:
        out = run(leaves, slice(None))
        out_w = rng.normal(size=out.data.shape).astype(dtype)
        loss = sum_all(mulw(out, out_w))
    backward(tape, loss)
    stacked = (out.data, [t.grad for t in leaves])

    shared = [Tensor(a, requires_grad=True) if not st else None for a, st in inputs]
    per_seq = [[Tensor(a[b], requires_grad=True) for b in range(N_SEQ)] if st else None for a, st in inputs]
    outs = []
    with Tape() as tape:
        acc = None
        for b in range(N_SEQ):
            t = [sh if sh is not None else ps[b] for sh, ps in zip(shared, per_seq)]
            out_b = run(t, b)
            outs.append(out_b.data)
            loss_b = sum_all(mulw(out_b, out_w[b]))
            acc = loss_b if acc is None else tz.add(acc, loss_b)
    backward(tape, acc)
    grads = [sh.grad if sh is not None else np.stack([t.grad for t in ps]) for sh, ps in zip(shared, per_seq)]
    return stacked, (np.stack(outs), grads)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("op", STACKED_OPS)
def test_stacked_op_gives_each_sequence_its_own_bytes(op, dtype):
    (out, grads), (want_out, want_grads) = _run_stacked(op, np.dtype(dtype))
    assert out.dtype == want_out.dtype == np.dtype(dtype)
    assert out.shape == want_out.shape and out.tobytes() == want_out.tobytes()
    for got, want in zip(grads, want_grads):
        assert got.dtype == np.dtype(dtype) and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("op", STACKED_OPS)
def test_stacked_op_gradients_match_finite_differences_over_sequences(op):
    with precision("float64"):
        rng = np.random.default_rng(16)
        run, inputs = _stacked_cases(rng, np.float64)[op]
        leaves = [Tensor(a, requires_grad=True) for a, _ in inputs]
        w = rng.normal(size=run(leaves, slice(None)).data.shape)
        err = finite_diff_check(lambda: sum_all(mulw(run(leaves, slice(None)), w)), leaves)
    assert err < 1e-5


def test_fold_add_is_the_chain_of_adds():
    x = np.float32([0.1, 1e8, -1e8, 0.3, 7.0, 1e-3, 2.5, -0.7, 1.1])
    leaf = Tensor(x, requires_grad=True)
    with Tape() as tape:
        total = tz.fold_add(leaf)
        loss = tz.scale(total, 0.25)
    backward(tape, loss)
    chain = Tensor(x[0])
    for v in x[1:]:
        chain = tz.add(chain, Tensor(v))
    assert total.data.tobytes() == chain.data.tobytes()
    assert total.data.tobytes() != np.float32(x.sum()).tobytes()  # np.sum adds in another order
    assert np.array_equal(leaf.grad, np.full(9, 0.25, dtype=np.float32))
    with pytest.raises(NumericsError):
        tz.fold_add(Tensor(np.zeros((2, 2))))


STACKED_MISMATCHES = {
    "take_rows_stacked_by_stacked": lambda: tz.take_rows(_t(2, 3, 4), np.zeros((2, 2), dtype=int)),
    "cross_entropy_ignores_differ": lambda: tz.cross_entropy(_t(2, 3, 4), np.array([[0, -1, 1], [0, 1, -1]])),
    "lora_stacks_differ": lambda: tz.gated_linear(_t(3, 3, 3), _t(2, 3), _t(3, 1), _t(1, 2), 0, 1.0, _t(2, 3, 2)),
    "scores_stacks_differ": lambda: tz.attention_scores(_t(2, 3, 4), _t(3, 3, 4), 2, 3, 0),
    "context_stacks_differ": lambda: tz.attention_context(_t(2, 2, 3, 3), _t(3, 3, 4), 3, 0),
    "add_not_trailing": lambda: tz.add(_t(2, 3, 4), _t(2, 4)),
}


@pytest.mark.parametrize("case", sorted(STACKED_MISMATCHES))
def test_stacked_shape_mismatch_is_numerics_error_too(case):
    with pytest.raises(NumericsError):
        STACKED_MISMATCHES[case]()


# ---------------------------------------------------------------------------
# The gated product on arrays, as the untaped pass runs it: with its merged
# weight formed in the call, or carried by a decode copy. The test ids keep
# the names from the stacked low-rank product that it replaced.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("lead", [(), (2,)], ids=["rows", "stack"])
@pytest.mark.parametrize("n_rows", [1, 2, 20, 156, 160])
@pytest.mark.parametrize("d", [32, 96])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_stacked_lora_deltas_are_bytewise_one_lora_delta_per_adapter(dtype, d, n_rows, lead):
    # Three adapters read one input, each with its own factors, so a
    # swapped weight fails. Each output is bytewise its own chain, with G
    # formed in the call or merged beforehand, and in a stack each
    # sequence's bytes are its own call's.
    rng = np.random.default_rng([d, n_rows, len(lead)])
    t_len, rank = 160, 8

    def draw(*shape, std=1.0):
        return rng.normal(0.0, std, size=shape).astype(dtype)

    x = draw(*lead, t_len, d)
    start = t_len - n_rows  # the last n_rows rows are gated
    rows = np.arange(start, t_len)
    outs = []
    for _ in range(3):
        w, a, b = draw(d, d, std=0.2), draw(d, rank, std=0.3), draw(rank, d, std=0.3)
        got, xr, merged = tz.gated_linear_data(x, w, a, b, start, 2.0)
        assert got.dtype == np.dtype(dtype) and got.shape == x.shape
        assert xr.tobytes() == x[..., rows, :].tobytes()
        assert merged.tobytes() == tz.merge_data(w, a, b, 2.0).tobytes()
        assert tz.gated_linear_data(x, w, a, b, start, 2.0, merged=merged)[0].tobytes() == got.tobytes()
        for seq in range(lead[0]) if lead else [None]:
            xs = x if seq is None else x[seq]
            want = gated_linear_chain(*map(Tensor, (xs, w, a, b)), rows, 2.0).data
            assert (got if seq is None else got[seq]).tobytes() == want.tobytes()
        outs.append(got)
    assert not np.array_equal(outs[0], outs[1]) and not np.array_equal(outs[1], outs[2])


def test_stacked_lora_deltas_name_their_overflow_as_lora_delta_does():
    # The merge, formed in the call or beforehand, and the gated product on
    # arrays name the step that overflowed, as their chain does.
    for step in ("linear", "matmul", "scale", "add"):
        inputs, start, c, residual = _gated_overflow(step)
        x, w, a, b = (t.data for t in inputs)
        runs = [
            lambda: tz.gated_linear_data(x, w, a, b, start, c, residual.data),
            lambda: gated_linear_chain(*inputs, np.arange(start, 2), c, residual),
        ]
        for run in runs:
            with np.errstate(all="ignore"), pytest.raises(NumericsError, match=f"produced by {step}$"):
                run()
    with np.errstate(all="ignore"), pytest.raises(NumericsError, match="produced by linear$"):
        tz.gated_linear_data(np.ones((1, 2)), np.full((2, 2), BIG), np.ones((2, 1)), np.ones((1, 2)), 0, 1.0)
    with pytest.raises(NumericsError, match="gated_linear shape mismatch"):
        tz.merge_data(np.zeros((2, 2)), np.ones((3, 1)), np.ones((1, 2)), 1.0)


# ---------------------------------------------------------------------------
# take_rows' backward: a gather whose rows do not repeat puts its gradient
# with one fancy add, a gather whose rows repeat sums it with np.add.at.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("lead", [(), (2,)], ids=["rows", "stack"])
def test_take_rows_backward_on_unique_rows_is_bytewise_add_at(lead):
    # The op's own backward on a g that holds +0.0 and -0.0 (a leaf's
    # accumulation would turn -0.0 into +0.0 and hide the difference).
    rng = np.random.default_rng(17)
    x = Tensor(rng.normal(size=lead + (7, 4)), requires_grad=True)
    g = rng.normal(size=lead + (4, 4))
    g[..., 0, :2] = 0.0
    g[..., 1, 2:] = -0.0
    for idx in (np.array([5, 0, 6, 2]), np.array([1, 3, 4, 6]), np.array([3, 1, 3, 3])):
        with Tape() as tape:
            tz.take_rows(x, idx)
        ((_, _, bw),) = tape._entries
        (got,) = bw(g)
        want = np.zeros(x.data.shape)
        np.add.at(want, (..., idx, slice(None)), g)
        assert got.tobytes() == want.tobytes()
    # -0.0 + 0.0 is +0.0, as np.add.at gives it; the repeated row 3 sums.
    assert not np.signbit(got[..., 1, 2:]).any() and np.signbit(g[..., 1, 2:]).all()
    assert np.array_equal(got[..., 3, :], g[..., 0, :] + g[..., 2, :] + g[..., 3, :])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_gated_linear_with_every_row_gated_forms_no_frozen_product(dtype):
    # W overflows every product it enters, and the merged weight is exactly
    # 0. With every row gated (start 0), neither the output nor the input's
    # gradient forms a product with W, so nothing overflows on the way and
    # both are 0; with a row left ungated, the frozen product overflows and
    # is named.
    big = np.finfo(dtype).max
    x, w = np.ones((3, 2), dtype), np.full((2, 2), big, dtype)
    a, b = np.ones((2, 1), dtype), np.full((1, 2), -big / 2, dtype)
    with np.errstate(over="raise", invalid="raise"):
        leaves = [Tensor(x, requires_grad=True)] + [Tensor(t) for t in (w, a, b)]
        with Tape() as tape:
            y = tz.gated_linear(*leaves, 0, 2.0)
            loss = sum_all(y)
        backward(tape, loss)
    assert not y.data.any() and not leaves[0].grad.any()
    with np.errstate(all="ignore"), pytest.raises(NumericsError, match="produced by linear$"):
        tz.gated_linear_data(x, w, a, b, 1, 2.0)

import threading
from functools import partial

import numpy as np
import pytest
from chains import (
    attention_chain,
    context_chain,
    lora_chain,
    matmul,
    row_scatter_add,
    scores_chain,
    softmax_backward_chain,
    softmax_chain,
    softmax_rows,
    sum_all,
    transpose,
)

from specmtp import tensor as tz
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
            s = tz.attention_scores(q, k, 2)
            p = masked_softmax_rows(s, allowed)
            tz.attention_context(p, v)
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
    "lora_delta": lambda: tz.lora_delta(_big(2, 2), _big(2, 2), _big(2, 1), _big(1, 2), np.array([1]), 1.0),
    "attention_scores": lambda: tz.attention_scores(_big(2, 2), _big(2, 2), 1),
    "attention_context": lambda: tz.attention_context(_big(1, 2, 2), _big(2, 2)),
}
# A fused op runs its chain's array helpers, so the step that made the
# value names itself, as it would in the chain.
FUSED_STEP = {"lora_delta": "matmul", "attention_scores": "matmul", "attention_context": "matmul"}


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
ROW_SETS = {
    "subset": np.array([1, 2, 4]),
    "all": np.arange(T_ROWS),
    "none": np.array([], dtype=np.int64),
}


def random_allowed(rng, t_len):
    """Causal with random holes, the diagonal always kept."""
    return np.tril(rng.random((t_len, t_len)) > 0.4) | np.eye(t_len, dtype=bool)


def fused_case(op, case, dtype, seed=12):
    """(fused fn, chain fn, input leaves, loss weights) on random inputs."""
    rng = np.random.default_rng(seed)

    def leaf(*shape):
        return Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)

    if op == "lora_delta":
        rows_name, residual = case
        rows = ROW_SETS[rows_name]

        def fused(*t):  # base, x, a, b, then the residual if any
            return tz.lora_delta(*t[:4], rows, 2.0, *t[4:])

        def chain(*t):
            return lora_chain(*t[:4], rows, 2.0, *t[4:])

        inputs = [leaf(T_ROWS, 5), leaf(T_ROWS, 4), leaf(4, 3), leaf(3, 5)]
        if residual:
            inputs.append(leaf(T_ROWS, 5))
        shape = (T_ROWS, 5)
    elif op == "attention_scores":
        fused, chain = partial(tz.attention_scores, n_heads=2), partial(scores_chain, n_heads=2)
        inputs = [leaf(T_ROWS, 4), leaf(T_ROWS, 4)]
        shape = (2, T_ROWS, T_ROWS)
    else:
        # Rows of attention weights: a softmax over a random causal mask.
        allowed = random_allowed(rng, T_ROWS)
        p = tz.masked_softmax_rows(Tensor(rng.normal(size=(2, T_ROWS, T_ROWS))), allowed).data
        fused, chain = tz.attention_context, context_chain
        inputs = [Tensor(p.astype(dtype), requires_grad=True), leaf(T_ROWS, 4)]
        shape = (T_ROWS, 4)
    return fused, chain, inputs, rng.normal(size=shape).astype(dtype)


FUSED_CASES = [
    pytest.param("lora_delta", (rows, residual), id=f"lora_delta-{rows}" + ("-residual" if residual else ""))
    for rows in sorted(ROW_SETS)
    for residual in (False, True)
] + [pytest.param(op, None, id=op) for op in ("attention_scores", "attention_context")]


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


def test_attention_ops_are_bytewise_the_attention_chain():
    # The three ops the model runs per layer, against the whole chain.
    rng = np.random.default_rng(13)
    allowed = random_allowed(rng, T_ROWS)
    q, k, v = (Tensor(rng.normal(size=(T_ROWS, 4)).astype(np.float32), requires_grad=True) for _ in range(3))
    w = rng.normal(size=(T_ROWS, 4)).astype(np.float32)
    runs = []
    for fn in (
        lambda: tz.attention_context(masked_softmax_rows(tz.attention_scores(q, k, 2), allowed), v),
        lambda: attention_chain(q, k, v, allowed, 2),
    ):
        for t in (q, k, v):
            t.grad = None
        with Tape() as tape:
            out = fn()
            loss = sum_all(mulw(out, w))
        backward(tape, loss)
        runs.append([out.data.tobytes()] + [t.grad.tobytes() for t in (q, k, v)])
    assert runs[0] == runs[1]


def _lora_overflow(step):
    # Inputs whose first non-finite value appears at `step` of the chain.
    x, a, b = np.ones((2, 2)), np.ones((2, 1)), np.ones((1, 2))
    base, c, residual = np.zeros((2, 2)), 1.0, np.zeros((2, 2))
    if step == "matmul":
        a = np.full((2, 1), BIG)
    elif step == "scale":
        c = BIG
    elif step == "row_scatter_add":
        base = np.full((2, 2), BIG)
        b = np.full((1, 2), BIG / 4)
    else:
        residual = base = np.full((2, 2), BIG)
    return [Tensor(t) for t in (base, x, a, b)], np.array([0]), c, Tensor(residual)


@pytest.mark.parametrize("step", ["matmul", "scale", "row_scatter_add", "add"])
def test_lora_delta_overflow_names_the_same_step_as_its_chain(step):
    inputs, rows, c, residual = _lora_overflow(step)
    for fn in (tz.lora_delta, lora_chain):
        with np.errstate(all="ignore"), pytest.raises(NumericsError, match=f"produced by {step}$"):
            fn(*inputs, rows, c, residual)


def _t(*shape):
    return Tensor(np.zeros(shape))


FUSED_MISMATCHES = {
    "lora_x_not_2d": lambda: tz.lora_delta(_t(3, 2), _t(3), _t(3, 1), _t(1, 2), np.array([0]), 1.0),
    "lora_base_rows": lambda: tz.lora_delta(_t(4, 2), _t(3, 3), _t(3, 1), _t(1, 2), np.array([0]), 1.0),
    "lora_a_rows": lambda: tz.lora_delta(_t(3, 2), _t(3, 3), _t(2, 1), _t(1, 2), np.array([0]), 1.0),
    "lora_b_rows": lambda: tz.lora_delta(_t(3, 2), _t(3, 3), _t(3, 1), _t(2, 2), np.array([0]), 1.0),
    "lora_b_cols": lambda: tz.lora_delta(_t(3, 2), _t(3, 3), _t(3, 1), _t(1, 3), np.array([0]), 1.0),
    "lora_row_range": lambda: tz.lora_delta(_t(3, 2), _t(3, 3), _t(3, 1), _t(1, 2), np.array([3]), 1.0),
    "lora_negative_row": lambda: tz.lora_delta(_t(3, 2), _t(3, 3), _t(3, 1), _t(1, 2), np.array([-1]), 1.0),
    "lora_residual_shape": lambda: tz.lora_delta(
        _t(3, 2), _t(3, 3), _t(3, 1), _t(1, 2), np.array([0]), 1.0, _t(3, 3)
    ),
    "scores_k_shape": lambda: tz.attention_scores(_t(3, 4), _t(2, 4), 2),
    "scores_below_2d": lambda: tz.attention_scores(_t(4), _t(4), 2),
    "scores_heads_split": lambda: tz.attention_scores(_t(3, 4), _t(3, 4), 3),
    "scores_no_heads": lambda: tz.attention_scores(_t(3, 4), _t(3, 4), 0),
    "context_p_not_3d": lambda: tz.attention_context(_t(3, 3), _t(3, 4)),
    "context_p_not_t_by_t": lambda: tz.attention_context(_t(2, 3, 2), _t(3, 4)),
    "context_v_rows": lambda: tz.attention_context(_t(2, 3, 3), _t(2, 4)),
    "context_heads_split": lambda: tz.attention_context(_t(3, 3, 3), _t(3, 4)),
    "context_no_heads": lambda: tz.attention_context(_t(0, 3, 3), _t(3, 4)),
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
        "lora_delta": (
            lambda t, s: tz.lora_delta(*t, ROWS, 2.0),
            [(arr(N_SEQ, T_ROWS, 5), True), x, (arr(4, 3), False), (arr(3, 5), False)],
        ),
        "lora_delta_residual": (
            lambda t, s: tz.lora_delta(*t[:4], ROWS, 2.0, t[4]),
            [(arr(N_SEQ, T_ROWS, 5), True), x, (arr(4, 3), False), (arr(3, 5), False), (arr(N_SEQ, T_ROWS, 5), True)],
        ),
        "attention_scores": (lambda t, s: tz.attention_scores(*t, 2), [x, (arr(N_SEQ, T_ROWS, 4), True)]),
        "masked_softmax_rows": (
            lambda t, s: tz.masked_softmax_rows(t[0], allowed), [(arr(N_SEQ, 2, T_ROWS, T_ROWS), True)]
        ),
        "attention_context": (lambda t, s: tz.attention_context(*t), [(arr(N_SEQ, 2, T_ROWS, T_ROWS), True), x]),
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
    "lora_stacks_differ": lambda: tz.lora_delta(_t(2, 3, 2), _t(3, 3, 3), _t(3, 1), _t(1, 2), np.array([0]), 1.0),
    "scores_stacks_differ": lambda: tz.attention_scores(_t(2, 3, 4), _t(3, 3, 4), 2),
    "context_stacks_differ": lambda: tz.attention_context(_t(2, 2, 3, 3), _t(3, 3, 4)),
    "add_not_trailing": lambda: tz.add(_t(2, 3, 4), _t(2, 4)),
}


@pytest.mark.parametrize("case", sorted(STACKED_MISMATCHES))
def test_stacked_shape_mismatch_is_numerics_error_too(case):
    with pytest.raises(NumericsError):
        STACKED_MISMATCHES[case]()

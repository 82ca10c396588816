import threading

import numpy as np
import pytest

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
    matmul,
    precision,
    silu,
    softmax_rows,
    sum_all,
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
    "transpose": lambda a, _, w: sum_all(tz.mul(tz.transpose(a, (1, 2, 0)), Tensor(w))),
    "masked_softmax_rows": lambda a, _, w: sum_all(
        tz.mul(masked_softmax_rows(matmul(a, tz.transpose(a, (0, 2, 1))), np.tri(3, dtype=bool)), Tensor(w))
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
    "transpose_axes": lambda: tz.transpose(Tensor(np.zeros((2, 3, 4))), (0, 0, 1)),
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
    "matmul": lambda: tz.matmul(_big(1, 2), _big(2, 1)),
    "linear": lambda: tz.linear(_big(1, 2), _big(3, 2)),
    "add": lambda: tz.add(_big(2, 2), _big(2)),
    "sub": lambda: tz.sub(_big(2, 2), Tensor(np.full((2, 2), -BIG))),
    "mul": lambda: tz.mul(_big(2, 2), _big(2, 2)),
    "scale": lambda: tz.scale(_big(2, 2), 2.0),
    "silu": lambda: tz.silu(Tensor(np.full((1, 2), -np.inf))),
    "layer_norm": lambda: tz.layer_norm(Tensor([[1.0, -1.0]]), _big(2), _big(2)),
    "softmax_rows": lambda: tz.softmax_rows(Tensor(np.full((2, 3), -np.inf))),
    "masked_softmax_rows": lambda: tz.masked_softmax_rows(
        Tensor(np.zeros((2, 3))), np.array([[True, False, False], [False] * 3])
    ),
    "row_scatter_add": lambda: tz.row_scatter_add(_big(3, 2), np.array([1]), _big(1, 2)),
    "cross_entropy": lambda: tz.cross_entropy(Tensor([[BIG, -BIG]]), np.array([1])),
    "sum_all": lambda: tz.sum_all(_big(2, 2)),
    "mean_axis1": lambda: tz.mean_axis1(_big(2, 2)),
    "dot_const": lambda: tz.dot_const(_big(2), np.ones(2)),
}


@pytest.mark.parametrize("op", sorted(OVERFLOWS))
def test_computing_op_rejects_non_finite_output_by_name(op):
    with np.errstate(all="ignore"), pytest.raises(NumericsError, match=f"produced by {op}$"):
        OVERFLOWS[op]()


def test_neg_inf_moves_unchecked_but_is_never_computed_on():
    # -inf is the exclusion sentinel: ops that move it pass it through,
    # softmax gives it weight exactly 0, and a computing op rejects it.
    leaf = Tensor([[0.0, -np.inf], [1.0, 2.0]])
    moved = tz.take_rows(tz.transpose(leaf), np.array([1, 0]))
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
    out = tz.row_scatter_add(base, np.array([1, 4]), delta)
    assert np.array_equal(out.data[[0, 2, 3]], base.data[[0, 2, 3]])

"""A quick tour of the tensor engine: forward ops, the tape, and the
finite-difference oracle that every gradient in this package answers to."""

import numpy as np

from specmtp import Tape, Tensor, backward, finite_diff_check, precision
from specmtp.tensor import cross_entropy, linear, masked_softmax_rows, silu

# Plain forward math looks like numpy with an extra wrapper.
x = Tensor([[1.0, 2.0], [3.0, 4.0]])
w = Tensor([[0.0, 1.0]])
print("x @ w.T =", linear(x, w).data.ravel())

allowed = np.array([[True, True, True], [False, True, True]])
p = masked_softmax_rows(Tensor(np.zeros((2, 3))), allowed)
print("softmax rows:", np.round(p.data, 3))
print("(a key outside `allowed` is excluded: its probability is exactly", p.data[1, 0], ")")

# Gradients: run the forward under a tape, then walk it backwards.
w = Tensor(np.random.default_rng(0).normal(size=(3, 2)), requires_grad=True)
x = Tensor(np.random.default_rng(1).normal(size=(4, 2)))
labels = np.array([0, 2, 1, 0])
with Tape() as tape:
    loss = cross_entropy(linear(silu(linear(x, Tensor(np.eye(2)))), w), labels)
backward(tape, loss)
print("loss:", round(loss.item(), 4), " dL/dw row 0:", np.round(w.grad[0], 4))

# The oracle: central finite differences, probed in float64 so the check
# itself is never the noise source.
with precision("float64"):
    w64 = Tensor(np.random.default_rng(2).normal(size=(3, 2)), requires_grad=True)
    x64 = Tensor(np.random.default_rng(3).normal(size=(4, 2)))

    def f():
        return cross_entropy(linear(silu(x64), w64), labels[:4] % 3)

    err = finite_diff_check(f, [w64])
print("finite-difference agreement, max rel err:", f"{err:.2e}")

# A constant loss leaves every gradient untouched.
before = w.grad.copy()
with Tape() as tape:
    flat = Tensor(np.zeros(()))
backward(tape, flat)
assert np.array_equal(w.grad, before)
print("constant loss -> no gradients, as expected")

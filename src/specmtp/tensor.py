"""Dense tensors with reverse-mode autodiff.

Small on purpose: 1-D/2-D float arrays, a handful of ops sufficient for a
decoder-only transformer, and an explicit tape. No broadcasting beyond
row-wise bias/gain. Float32 by default, float64 for gradient checking via
`precision("float64")`. The default dtype and the active tape are held per
context, so each thread has its own.

Every value is checked once, where it is made. `Tensor(...)` takes data
from outside the engine and rejects NaN and +inf (-inf is the softmax
exclusion sentinel). Op outputs skip that scan (`_out`): an op that
computes values rejects a non-finite output and names itself; one that
only moves checked values (transpose, reshape, take_rows, col_slice,
concat_cols, concat_rows, detach) checks nothing.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np


class NumericsError(ValueError):
    """Non-finite value, bad shape, or misuse of the tape."""


# -----------------------------------------------------------------------------
# Global dtype and RNG derivation
# -----------------------------------------------------------------------------

_DTYPES = {"float32": np.float32, "float64": np.float64}
_default_dtype: ContextVar[type] = ContextVar("default_dtype", default=np.float32)


def set_default_dtype(name: str) -> None:
    if name not in _DTYPES:
        raise NumericsError(f"unsupported dtype {name!r}")
    _default_dtype.set(_DTYPES[name])


def default_dtype() -> type:
    return _default_dtype.get()


@contextmanager
def precision(name: str):
    """Temporarily switch the default dtype ('float32' or 'float64')."""
    saved = _default_dtype.get()
    set_default_dtype(name)
    try:
        yield
    finally:
        _default_dtype.set(saved)


def derive_rng(master_seed: int, name: str) -> np.random.Generator:
    """Deterministic per-name generator from one master seed.

    Hash-derived so adding or removing other draws (e.g. adapter tensors)
    never shifts the stream of an unrelated tensor.
    """
    digest = hashlib.blake2b(
        f"{master_seed}:{name}".encode(), digest_size=8
    ).digest()
    return np.random.default_rng(int.from_bytes(digest, "little"))


# -----------------------------------------------------------------------------
# Tensor and tape
# -----------------------------------------------------------------------------


class Tensor:
    """Contiguous float array plus an optional gradient accumulator.

    Data is immutable by convention once used in a forward pass; only
    `grad` is mutated (additively) by `backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "name", "_node")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(_default_dtype.get())
        self.data = arr if arr.ndim == 0 else np.ascontiguousarray(arr)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.name = name
        self._node = False
        if np.isnan(arr).any() or np.isposinf(arr).any():
            raise NumericsError("NaN or +inf in tensor init")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = np.zeros_like(self.data)

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}{tag})"


class Tape:
    """Ordered record of executed ops for reverse traversal.

    Use as a context manager around forward code; ops executed while the
    tape is active are recorded when any input is tracked. One tape per
    context (each thread has its own).
    """

    def __init__(self):
        self._entries: list[tuple[Tensor, tuple, object]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def __enter__(self) -> "Tape":
        if _active_tape.get() is not None:
            raise NumericsError("nested tapes are not supported")
        _active_tape.set(self)
        return self

    def __exit__(self, *exc) -> None:
        _active_tape.set(None)


_active_tape: ContextVar[Tape | None] = ContextVar("active_tape", default=None)


def _out(data, op: str = "") -> Tensor:
    """An op's output, made without `Tensor.__init__`'s scan. `op` names an
    op that computed `data`; one that only moves checked values passes none."""
    data = np.asarray(data)
    if op and not np.isfinite(data).all():
        raise NumericsError(f"non-finite values produced by {op}")
    out = Tensor.__new__(Tensor)
    out.data, out.grad, out.requires_grad, out.name, out._node = data, None, False, "", False
    return out


def _tracked(t) -> bool:
    return isinstance(t, Tensor) and (t.requires_grad or t._node)


def _record(out: Tensor, inputs: tuple, backward_fn) -> Tensor:
    """Append an op to the active tape if any input participates in the graph.

    `backward_fn(g)` returns one gradient array (or None) per input. It may
    pass `g` itself through to at most one input; all other returned arrays
    must be freshly allocated.
    """
    tape = _active_tape.get()
    if tape is not None and any(_tracked(t) for t in inputs):
        tape._entries.append((out, inputs, backward_fn))
        out._node = True
    return out


def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate d(loss)/d(param) into .grad of every tracked leaf.

    Visits ops in exact reverse execution order. Repeated calls accumulate.
    """
    if loss.data.shape != ():
        raise NumericsError("backward requires a scalar loss")
    live: dict[int, tuple[Tensor, np.ndarray]] = {
        id(loss): (loss, np.ones((), dtype=loss.data.dtype))
    }

    def _flush_leaf(t: Tensor, g: np.ndarray) -> None:
        if t.grad is None:
            t.grad = np.zeros_like(t.data)
        t.grad += g

    for out, inputs, backward_fn in reversed(tape._entries):
        entry = live.pop(id(out), None)
        if entry is None:
            continue
        g = entry[1]
        if out.requires_grad:
            _flush_leaf(out, g)
        for t, gt in zip(inputs, backward_fn(g)):
            if gt is None or not _tracked(t):
                continue
            acc = live.get(id(t))
            if acc is None:
                live[id(t)] = (t, gt)
            else:
                acc[1].__iadd__(gt)
    for t, g in live.values():
        if t.requires_grad and t is not loss:
            _flush_leaf(t, g)


# -----------------------------------------------------------------------------
# Ops
# -----------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a (m, p) @ b (p, n) -> (m, n)."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise NumericsError(f"matmul shape mismatch {a.shape} x {b.shape}")
    out = _out(a.data @ b.data, "matmul")

    def bw(g, ad=a.data, bd=b.data):
        return g @ bd.T, ad.T @ g

    return _record(out, (a, b), bw)


def linear(x: Tensor, w: Tensor) -> Tensor:
    """x (T, in) @ w.T for w (out, in) -> (T, out)."""
    if x.data.shape[1] != w.data.shape[1]:
        raise NumericsError(f"linear shape mismatch {x.shape} x {w.shape}")
    out = _out(x.data @ w.data.T, "linear")

    def bw(g, xd=x.data, wd=w.data):
        return g @ wd, g.T @ xd

    return _record(out, (x, w), bw)


def transpose(x: Tensor) -> Tensor:
    out = _out(np.ascontiguousarray(x.data.T))

    def bw(g):
        return (np.ascontiguousarray(g.T),)

    return _record(out, (x,), bw)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = _out(x.data.reshape(shape))

    def bw(g, s=x.data.shape):
        return (g.reshape(s),)

    return _record(out, (x,), bw)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise add; b may be a 1-D row bias against 2-D a."""
    _check_rowwise(a, b, "add")
    out = _out(a.data + b.data, "add")

    def bw(g, bshape=b.data.shape):
        gb = g.sum(axis=0) if g.ndim == 2 and len(bshape) == 1 else g.copy()
        return g, gb

    return _record(out, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_rowwise(a, b, "sub")
    out = _out(a.data - b.data, "sub")

    def bw(g, bshape=b.data.shape):
        gb = g.sum(axis=0) if g.ndim == 2 and len(bshape) == 1 else g.copy()
        return g, -gb

    return _record(out, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of equal-shape tensors."""
    if a.data.shape != b.data.shape:
        raise NumericsError(f"mul shape mismatch {a.shape} vs {b.shape}")
    out = _out(a.data * b.data, "mul")

    def bw(g, ad=a.data, bd=b.data):
        return g * bd, g * ad

    return _record(out, (a, b), bw)


def scale(x: Tensor, c: float) -> Tensor:
    out = _out(x.data * c, "scale")

    def bw(g, c=c):
        return (g * c,)

    return _record(out, (x,), bw)


def _check_rowwise(a: Tensor, b: Tensor, op: str) -> None:
    ok = a.data.shape == b.data.shape or (
        a.data.ndim == 2 and b.data.ndim == 1 and a.data.shape[1] == b.data.shape[0]
    )
    if not ok:
        raise NumericsError(f"{op} shape mismatch {a.shape} vs {b.shape}")


def silu(x: Tensor) -> Tensor:
    """x * sigmoid(x)."""
    xd = x.data
    s = np.where(xd >= 0, 1.0 / (1.0 + np.exp(-np.abs(xd))), np.exp(-np.abs(xd)) / (1.0 + np.exp(-np.abs(xd))))
    out = _out(x.data * s, "silu")

    def bw(g, xd=x.data, s=s):
        return (g * (s + xd * s * (1.0 - s)),)

    return _record(out, (x,), bw)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row zero mean / unit variance, then affine. x (T, d)."""
    if x.data.ndim != 2:
        raise NumericsError("layer_norm expects a 2-D input")
    mu = x.data.mean(axis=1, keepdims=True)
    var = x.data.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out = _out(xhat * gain.data + bias.data, "layer_norm")

    def bw(g, xhat=xhat, inv=inv, gd=gain.data, d=x.data.shape[1]):
        dxhat = g * gd
        dx = inv * (
            dxhat
            - dxhat.mean(axis=1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=1, keepdims=True)
        )
        return dx, (g * xhat).sum(axis=0), g.sum(axis=0)

    return _record(out, (x, gain, bias), bw)


def _softmax_core(xd: np.ndarray, allowed: np.ndarray | None):
    if allowed is None:
        masked = xd
    else:
        masked = np.where(allowed, xd, -np.inf)
    m = masked.max(axis=-1, keepdims=True)
    e = np.exp(masked - m)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_rows(x: Tensor) -> Tensor:
    """Row-stochastic softmax. -inf entries are exact exclusions (weight 0)."""
    xd = x.data
    excluded = np.isneginf(xd)
    p = _softmax_core(xd, ~excluded if excluded.any() else None)
    out = _out(p, "softmax_rows")

    def bw(g, p=p):
        return (p * (g - (p * g).sum(axis=-1, keepdims=True)),)

    return _record(out, (x,), bw)


def masked_softmax_rows(x: Tensor, allowed: np.ndarray) -> Tensor:
    """Softmax over the `allowed` entries of each row; others get exactly 0.

    `allowed` is a constant boolean array, same shape as x. Excluded
    positions receive zero probability and zero gradient.
    """
    if allowed.shape != x.data.shape:
        raise NumericsError("masked_softmax_rows mask shape mismatch")
    p = _softmax_core(x.data, allowed.astype(bool))
    out = _out(p, "masked_softmax_rows")

    def bw(g, p=p):
        return (p * (g - (p * g).sum(axis=-1, keepdims=True)),)

    return _record(out, (x,), bw)


def take_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """Gather rows by integer index; backward scatter-adds."""
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= x.data.shape[0]):
        raise NumericsError("take_rows index out of range")
    out = _out(x.data[idx])

    def bw(g, idx=idx, shape=x.data.shape, dtype=x.data.dtype):
        gx = np.zeros(shape, dtype=dtype)
        np.add.at(gx, idx, g)
        return (gx,)

    return _record(out, (x,), bw)


def row_scatter_add(base: Tensor, idx: np.ndarray, delta: Tensor) -> Tensor:
    """Copy of base with delta added at (unique) row indices idx."""
    idx = np.asarray(idx, dtype=np.int64)
    if delta.data.shape != (idx.size, base.data.shape[1]):
        raise NumericsError("row_scatter_add shape mismatch")
    out_data = base.data.copy()
    out_data[idx] += delta.data
    out = _out(out_data, "row_scatter_add")

    def bw(g, idx=idx):
        return g, g[idx].copy()

    return _record(out, (base, delta), bw)


def col_slice(x: Tensor, j0: int, j1: int) -> Tensor:
    out = _out(x.data[:, j0:j1].copy())

    def bw(g, j0=j0, j1=j1, shape=x.data.shape, dtype=x.data.dtype):
        gx = np.zeros(shape, dtype=dtype)
        gx[:, j0:j1] = g
        return (gx,)

    return _record(out, (x,), bw)


def concat_cols(parts: list[Tensor]) -> Tensor:
    out = _out(np.concatenate([p.data for p in parts], axis=1))
    widths = [p.data.shape[1] for p in parts]

    def bw(g, widths=widths):
        pieces, j = [], 0
        for w in widths:
            pieces.append(g[:, j : j + w].copy())
            j += w
        return tuple(pieces)

    return _record(out, tuple(parts), bw)


def concat_rows(parts: list[Tensor]) -> Tensor:
    out = _out(np.concatenate([p.data for p in parts], axis=0))
    heights = [p.data.shape[0] for p in parts]

    def bw(g, heights=heights):
        pieces, i = [], 0
        for h in heights:
            pieces.append(g[i : i + h].copy())
            i += h
        return tuple(pieces)

    return _record(out, tuple(parts), bw)


IGNORE_ID = -1


def cross_entropy(logits: Tensor, labels, ignore_id: int = IGNORE_ID) -> Tensor:
    """Mean -log softmax(logits)[label] over rows whose label != ignore_id.

    Returns scalar 0 (with no gradient flow) when every row is ignored.
    Labels outside [0, V) other than the sentinel are an error.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if logits.data.ndim != 2 or labels.shape != (logits.data.shape[0],):
        raise NumericsError("cross_entropy expects (R, V) logits and (R,) labels")
    valid = labels != ignore_id
    if valid.any():
        picked = labels[valid]
        if picked.min() < 0 or picked.max() >= logits.data.shape[1]:
            raise NumericsError("cross_entropy label out of range")
    else:
        return _out(np.zeros((), dtype=logits.data.dtype))
    rows = np.flatnonzero(valid)
    ld = logits.data[rows]
    m = ld.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(ld - m).sum(axis=1))
    losses = lse - ld[np.arange(rows.size), labels[rows]]
    out = _out(np.asarray(losses.mean(), dtype=logits.data.dtype), "cross_entropy")

    def bw(g, ld=ld, rows=rows, picked=labels[rows], shape=logits.data.shape):
        p = np.exp(ld - ld.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(rows.size), picked] -= 1.0
        gx = np.zeros(shape, dtype=ld.dtype)
        gx[rows] = p * (g / rows.size)
        return (gx,)

    return _record(out, (logits,), bw)


def sum_all(x: Tensor) -> Tensor:
    out = _out(np.asarray(x.data.sum(), dtype=x.data.dtype), "sum_all")

    def bw(g, shape=x.data.shape, dtype=x.data.dtype):
        return (np.full(shape, g, dtype=dtype),)

    return _record(out, (x,), bw)


def mean_axis1(x: Tensor) -> Tensor:
    """Row means: (T, d) -> (T,)."""
    out = _out(x.data.mean(axis=1), "mean_axis1")

    def bw(g, shape=x.data.shape, dtype=x.data.dtype):
        return (np.repeat(g[:, None] / shape[1], shape[1], axis=1).astype(dtype),)

    return _record(out, (x,), bw)


def dot_const(x: Tensor, w: np.ndarray) -> Tensor:
    """Weighted sum of a 1-D tensor with constant weights -> scalar."""
    w = np.asarray(w, dtype=x.data.dtype)
    if w.shape != x.data.shape:
        raise NumericsError("dot_const shape mismatch")
    out = _out(np.asarray(x.data @ w, dtype=x.data.dtype), "dot_const")

    def bw(g, w=w):
        return (g * w,)

    return _record(out, (x,), bw)


def detach(x: Tensor) -> Tensor:
    """Copy of x cut out of the graph; gradients stop here."""
    return _out(x.data)


# -----------------------------------------------------------------------------
# Gradient checking
# -----------------------------------------------------------------------------


def finite_diff_check(
    f,
    params: list[Tensor],
    eps: float = 1e-5,
    max_coords: int = 64,
    rng: np.random.Generator | None = None,
) -> float:
    """Max relative error of backward grads vs central finite differences.

    `f()` evaluates the scalar loss from the params' current data and must
    be repeatable. The analytic gradient is taken in the params' own
    precision; the difference quotient is probed with float64 copies so
    the oracle itself is not the noise source. Coordinates are subsampled
    down to `max_coords` for large parameter sets. Restores params' data
    and grad on exit.
    """
    if eps <= 0:
        raise NumericsError("eps must be positive")
    rng = rng or np.random.default_rng(0)

    saved_grads = [p.grad for p in params]
    for p in params:
        p.grad = None
    with Tape() as tape:
        loss = f()
    backward(tape, loss)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    for p, g in zip(params, saved_grads):
        p.grad = g

    coords = [(i, j) for i, p in enumerate(params) for j in range(p.data.size)]
    if len(coords) > max_coords:
        picks = rng.choice(len(coords), size=max_coords, replace=False)
        coords = [coords[i] for i in picks]

    saved_data = [p.data for p in params]
    for p in params:
        p.data = p.data.astype(np.float64)
    try:
        worst = 0.0
        for i, j in coords:
            flat = params[i].data.reshape(-1)
            orig = flat[j]
            flat[j] = orig + eps
            f_plus = f().item()
            flat[j] = orig - eps
            f_minus = f().item()
            flat[j] = orig
            fd = (f_plus - f_minus) / (2.0 * eps)
            an = float(analytic[i].reshape(-1)[j])
            err = abs(fd - an) / max(abs(fd), abs(an), 1e-5)
            worst = max(worst, err)
    finally:
        for p, d in zip(params, saved_data):
            p.data = d
    return worst

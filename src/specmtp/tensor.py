"""Dense tensors with reverse-mode autodiff.

Small on purpose: float arrays, a handful of ops sufficient for a
decoder-only transformer, and an explicit tape. An op is written for its
core shape, (T, d) rows for most, and takes any leading axes on its row
inputs: the heads of attention, and the sequences of a training stack,
which share one layout. A weight (linear, adapter factors, norm gain and
bias, a row bias, a position table) is shared by every leading index. Its
gradient is formed per leading index and summed last index first: the
order in which a tape with one pass per sequence would accumulate it, so
a stacked pass gives every sequence, and every weight, the bytes of the
per-sequence passes. Matmuls stay stacked calls, never flattened to
B * T rows, because a flattened product rounds differently. An op's
output keeps its inputs' dtype: float32 by default, float64 for gradient
checking via `precision("float64")`. The default dtype, the active tape
and the per-op scan switch are held per context, so each thread has its
own.

`Tensor(...)` takes data from outside the engine and rejects NaN and +inf
(-inf is the softmax exclusion sentinel). Op outputs skip that scan
(`_out`): an op that computes values rejects a non-finite output and
names itself; one that only moves checked values (take_rows, concat_cols,
concat_rows, detach) checks nothing.

A pass (`forward`, `sampler_logits`) scans its scores and logits, not
every op's output. It runs through `scanned_once`: per-op scans off,
numpy's floating-point errors noted but not reported, then one scan of
the logits. `attention_scores_data` scans its scores in every run. A
failed scan replays the pass on arrays with per-op scans on, under the
caller's errstate, to name the op that overflowed: it raises the error,
and gives the warnings, of a pass checked op by op. A noted error that
the caller's errstate reports is replayed too, so the caller gets its
warnings. This is exact because:
- every other computing op of a pass (matmul and linear, the adds,
  layer_norm, silu, the LoRA scatter) turns a non-finite input row into a
  non-finite output row, all the way to the logits; layer_norm also turns
  a finite row whose variance overflows into a NaN row;
- `@` forms every product, so 0 * inf = NaN: a non-finite value row
  reaches every context row, even through attention weights that are
  exactly 0 (tested: a BLAS that skipped zero operands would fail);
- the softmax can absorb a non-finite score (-inf in an allowed cell gets
  weight 0, an excluded cell is dropped), hence the scores scan; and the
  softmax of finite scores with a full diagonal is finite.

The forward math of the ops that a pass uses is written once, as an array
helper (`linear_data`, `layer_norm_data`, ...) that takes and returns
plain arrays and does the op's shape and finiteness checks. The `Tensor`
op calls its helper and records the backward. A pass is written once too,
over an op namespace: the autodiff ops when a tape is active, `ArrayOps`
(the helpers under the ops' names) when none is. So its taped and untaped
runs give the same bytes by construction.

Three fused ops record one tape entry where a chain of elementary ops
would record several: `lora_delta` (a gated adapter's rank-r correction,
for take_rows -> matmul -> matmul -> scale -> row_scatter_add, and
optionally the residual add after it), `attention_scores` (the heads'
scaled q k^T, for reshape/transpose x2 -> matmul -> scale) and
`attention_context` (weights times values, for reshape/transpose ->
matmul -> transpose -> reshape). The masked softmax between the two
attention ops stays `masked_softmax_rows`. Each fused op runs its
chain's array helpers in order and its backward applies the chain's
backward expressions in reverse, so values and gradients are byte-equal
to the chain's. The chains, in the tests, are their oracle.

The attention steps over (..., H, T, T) cells (the scores, the masked
softmax and its backward) each allocate one float array of that size, and
do their other steps in place on it, never in an input; the scores scan
adds one boolean array. An in-place step is the same IEEE operation on
the same values, so the bytes do not change.
`attention_scores` scales its product in place and scans it once, under
the name `matmul`, the only step of its chain that can overflow.
"""

from __future__ import annotations

import hashlib
import math
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


def active_tape() -> Tape | None:
    """The tape recording in this context, or None: then no gradient can be
    taken, and `forward` runs on plain arrays."""
    return _active_tape.get()


def _scan(data: np.ndarray, op: str) -> np.ndarray:
    """`data` as it is, once it holds no NaN or +-inf; otherwise name `op`."""
    if not np.isfinite(data).all():
        raise NumericsError(f"non-finite values produced by {op}")
    return data


# False while `scanned_once` runs a pass's fast run: per-op scans are off.
_scan_per_op: ContextVar[bool] = ContextVar("scan_per_op", default=True)


def _finite(data: np.ndarray, op: str) -> np.ndarray:
    """An op's output scan (`_scan`), skipped in a pass's fast run."""
    return _scan(data, op) if _scan_per_op.get() else data


# numpy's names for its floating-point errors: as its error callback gives
# them, and as keys of np.geterr().
_ERRSTATE_KEY = {"divide by zero": "divide", "overflow": "over", "underflow": "under", "invalid value": "invalid"}


def scanned_once(fast, replay, logits_of=None):
    """Run a pass with one finiteness scan, of its logits, in place of one
    per op. `fast()` runs with per-op scans off and numpy's floating-point
    errors noted, not reported; its result (or `logits_of(result)`) is then
    scanned once. If that scan or a scores scan fails, or numpy noted an
    error that the caller's errstate reports, `replay()`, the same pass on
    arrays, runs with per-op scans on under the caller's errstate: it
    raises the NumericsError of the op that overflowed, and gives the
    warnings, that a pass checked per op gives. Otherwise (or when the
    replay only warned) the fast result is returned."""
    noted = []
    token = _scan_per_op.set(False)
    try:
        with np.errstate(all="call", call=lambda err, flag: noted.append(err)):
            out = fast()
            clean = bool(np.isfinite(out if logits_of is None else logits_of(out)).all())
    except NumericsError:
        clean = False
    finally:
        _scan_per_op.reset(token)
    if not clean or any(np.geterr()[_ERRSTATE_KEY[err]] != "ignore" for err in noted):
        replay()
    if not clean:
        raise NumericsError("non-finite values that no per-op scan finds")
    return out


def _out(data, op: str = "") -> Tensor:
    """An op's output, made without `Tensor.__init__`'s scan. `op` names an
    op that computed `data`; one that only moves checked values passes none."""
    data = np.asarray(data)
    if op:
        _finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data, out.grad, out.requires_grad, out.name, out._node = data, None, False, "", False
    return out


def _tracked(t) -> bool:
    return isinstance(t, Tensor) and (t.requires_grad or t._node)


def _sum_lead(g: np.ndarray, ndim: int) -> np.ndarray:
    """The gradient of a weight with `ndim` axes from g, its per-sequence
    gradients over g's leading axes: summed from the last sequence to the
    first, as the per-sequence tape would add them."""
    if g.ndim == ndim:
        return g
    per_seq = g.reshape((-1,) + g.shape[g.ndim - ndim :])
    acc = per_seq[-1].copy()
    for gi in per_seq[-2::-1]:
        acc += gi
    return acc


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


def matmul_data(ad: np.ndarray, bd: np.ndarray) -> np.ndarray:
    """ad (..., m, p) @ bd (..., p, n) -> (..., m, n) over the same leading
    axes, or over ad's alone for a 2-D bd shared by every leading index."""
    shared_or_same = bd.ndim == 2 or ad.shape[:-2] == bd.shape[:-2]
    if ad.ndim < 2 or bd.ndim < 2 or not shared_or_same or ad.shape[-1] != bd.shape[-2]:
        raise NumericsError(f"matmul shape mismatch {ad.shape} x {bd.shape}")
    return _finite(ad @ bd, "matmul")


def linear_data(xd: np.ndarray, wd: np.ndarray) -> np.ndarray:
    """xd (..., T, in) @ wd.T for wd (out, in) -> (..., T, out)."""
    if xd.shape[-1] != wd.shape[1]:
        raise NumericsError(f"linear shape mismatch {xd.shape} x {wd.shape}")
    return _finite(xd @ wd.T, "linear")


def linear(x: Tensor, w: Tensor) -> Tensor:
    """Tensor form of `linear_data`. A frozen w gets no gradient formed."""
    out = _out(linear_data(x.data, w.data))

    def bw(g, xd=x.data, wd=w.data):
        gw = _sum_lead(g.swapaxes(-1, -2) @ xd, 2) if _tracked(w) else None
        return g @ wd, gw

    return _record(out, (x, w), bw)


def _check_rowwise(ad: np.ndarray, bd: np.ndarray, op: str) -> None:
    """bd is ad's shape, or a trailing part of it shared by every leading
    index: a row bias (d,), or a (T, d) table added to every sequence."""
    ok = ad.shape == bd.shape or (1 <= bd.ndim < ad.ndim and ad.shape[ad.ndim - bd.ndim :] == bd.shape)
    if not ok:
        raise NumericsError(f"{op} shape mismatch {ad.shape} vs {bd.shape}")


def _shared_grad(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The gradient of an operand of `shape` that `_check_rowwise` admitted:
    a row bias sums each sequence's rows, then the sequences are summed."""
    if g.shape == shape:
        return g.copy()
    if len(shape) == 1:
        g = np.add.reduce(g, axis=-2)
    return _sum_lead(g, len(shape))


def add_data(ad: np.ndarray, bd: np.ndarray) -> np.ndarray:
    """Elementwise add; bd may be shared by ad's leading rows (`_check_rowwise`)."""
    _check_rowwise(ad, bd, "add")
    return _finite(ad + bd, "add")


def add(a: Tensor, b: Tensor) -> Tensor:
    """Tensor form of `add_data`."""
    out = _out(add_data(a.data, b.data))

    def bw(g, bshape=b.data.shape):
        return g, _shared_grad(g, bshape)

    return _record(out, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_rowwise(a.data, b.data, "sub")
    out = _out(a.data - b.data, "sub")

    def bw(g, bshape=b.data.shape):
        return g, -_shared_grad(g, bshape)

    return _record(out, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of equal-shape tensors."""
    if a.data.shape != b.data.shape:
        raise NumericsError(f"mul shape mismatch {a.shape} vs {b.shape}")
    out = _out(a.data * b.data, "mul")

    def bw(g, ad=a.data, bd=b.data):
        return g * bd, g * ad

    return _record(out, (a, b), bw)


def scale_data(xd: np.ndarray, c: float) -> np.ndarray:
    """xd * c. `c` is taken as a Python float, so the output keeps xd's dtype."""
    return _finite(xd * float(c), "scale")


def scale(x: Tensor, c: float) -> Tensor:
    """Tensor form of `scale_data`."""
    c = float(c)
    out = _out(scale_data(x.data, c))

    def bw(g, c=c):
        return (g * c,)

    return _record(out, (x,), bw)


def silu_data(xd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x * sigmoid(x), sigmoid(x)); the sigmoid is kept for the backward."""
    e = np.exp(-np.abs(xd))
    s = np.where(xd >= 0, 1.0, e) / (1.0 + e)
    return _finite(xd * s, "silu"), s


def silu(x: Tensor) -> Tensor:
    """Tensor form of `silu_data`."""
    y, s = silu_data(x.data)
    out = _out(y)

    def bw(g, xd=x.data, s=s):
        return (g * (s + xd * s * (1.0 - s)),)

    return _record(out, (x,), bw)


def layer_norm_data(
    xd: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = 1e-5
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row zero mean / unit variance, then affine; xd (..., T, d).
    Returns (output, normalised rows, 1 / std), the last two for the
    backward."""
    if xd.ndim < 2:
        raise NumericsError("layer_norm expects rows of at least 2-D input")
    # The same bytes as xd.mean and xd.var, without their Python wrappers.
    d = xd.shape[-1]
    xc = xd - np.add.reduce(xd, axis=-1, keepdims=True) / d
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / d
    # var - var is +0.0 for a finite variance, so inv keeps its bytes; a
    # variance that overflowed to inf makes its row NaN, not the bias.
    inv = 1.0 / np.sqrt(var + eps) + (var - var)
    xhat = xc * inv
    return _finite(xhat * gain + bias, "layer_norm"), xhat, inv


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Tensor form of `layer_norm_data`."""
    y, xhat, inv = layer_norm_data(x.data, gain.data, bias.data, eps)
    out = _out(y)

    def bw(g, xhat=xhat, inv=inv, gd=gain.data, d=xhat.shape[-1]):
        dxhat = g * gd
        # The same bytes as .mean(axis=-1) and .sum(axis=-2), without their
        # Python wrappers.
        dx = inv * (
            dxhat
            - np.add.reduce(dxhat, axis=-1, keepdims=True) / d
            - xhat * (np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / d)
        )
        ggain = _sum_lead(np.add.reduce(g * xhat, axis=-2), 1) if _tracked(gain) else None
        gbias = _sum_lead(np.add.reduce(g, axis=-2), 1) if _tracked(bias) else None
        return dx, ggain, gbias

    return _record(out, (x, gain, bias), bw)


# The bits of -inf as the signed integer of each float's width.
_NEG_INF_BITS = {
    np.dtype(f): (i, np.array(-np.inf, f).view(i)[()])
    for f, i in ((np.float32, np.int32), (np.float64, np.int64))
}


def _exclude(xd: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """A C-ordered copy of xd with every cell outside `allowed` set to -inf,
    bit for bit `np.where(allowed, xd, -np.inf)`: on the integer view, xor
    with the bits of -inf, multiply by `allowed` (1 or 0), xor again. An
    allowed cell gets its own bits back (NaN and -0.0 included), an excluded
    one the bits of -inf. NumPy vectorises these integer ops; its masked
    select and masked copy over a broadcast mask run several times slower."""
    bits, neg_inf = _NEG_INF_BITS[xd.dtype]
    x = np.bitwise_xor(xd.view(bits), neg_inf, order="C")
    x *= allowed
    x ^= neg_inf
    return x.view(xd.dtype)


def _softmax_core(xd: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """Softmax over the `allowed` cells of the last axis. One new array the
    size of xd; the max shift, exp and division run in place on it, the same
    operations on the same values as out-of-place."""
    x = _exclude(xd, allowed)
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def _softmax_backward(g: np.ndarray, p: np.ndarray) -> np.ndarray:
    """p * (g - (p * g).sum(-1)) in one new array, leaving g and p as they are."""
    d = p * g
    s = d.sum(axis=-1, keepdims=True)
    np.subtract(g, s, out=d)
    d *= p
    return d


def masked_softmax_data(xd: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """Softmax over the `allowed` entries of each row; others get exactly 0,
    whatever they hold (NaN and +-inf included).

    `allowed` is a constant boolean array shaped like xd's last two axes;
    for stacked (H, T, T) scores one (T, T) mask applies to every block.
    """
    if allowed.shape != xd.shape[-2:]:
        raise NumericsError("masked_softmax_rows mask shape mismatch")
    return _finite(_softmax_core(xd, np.asarray(allowed, dtype=bool)), "masked_softmax_rows")


def masked_softmax_rows(x: Tensor, allowed: np.ndarray) -> Tensor:
    """Tensor form of `masked_softmax_data`. Excluded positions receive
    zero probability and zero gradient."""
    p = masked_softmax_data(x.data, allowed)
    out = _out(p)
    return _record(out, (x,), lambda g, p=p: (_softmax_backward(g, p),))


def take_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """Gather rows x[..., idx, :] by integer index; backward scatter-adds.

    Rows of x (..., T, d) by a 1-D idx keep x's leading axes. A 2-D table
    x (V, d) looked up by a stacked idx (..., R) gives (..., R, d): one
    lookup per sequence, so the table's gradient is summed per sequence
    first and then over the sequences, last first.
    """
    idx = np.asarray(idx, dtype=np.int64)
    xd = x.data
    if xd.ndim < 2 or (idx.ndim > 1 and xd.ndim > 2):
        raise NumericsError(f"take_rows cannot index {xd.shape} by {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= xd.shape[-2]):
        raise NumericsError("take_rows index out of range")
    out = _out(xd.take(idx, axis=-2))

    def bw(g, idx=idx, shape=xd.shape, dtype=xd.dtype):
        if idx.ndim < 2:
            gx = np.zeros(shape, dtype=dtype)
            np.add.at(gx, (..., idx, slice(None)), g)
            return (gx,)
        per_seq = idx.reshape(-1, idx.shape[-1])
        n = per_seq.shape[0]
        gx = np.zeros((n,) + shape, dtype=dtype)
        np.add.at(gx, (np.arange(n)[:, None], per_seq), g.reshape(n, idx.shape[-1], shape[-1]))
        return (_sum_lead(gx, 2),)

    return _record(out, (x,), bw)


def row_scatter_add_data(base: np.ndarray, idx: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Copy of base (..., T, d) with delta added at (unique) row indices idx."""
    if base.ndim < 2 or delta.shape != base.shape[:-2] + (idx.size, base.shape[-1]):
        raise NumericsError("row_scatter_add shape mismatch")
    out = base.copy()
    out[..., idx, :] += delta
    return _finite(out, "row_scatter_add")


# -----------------------------------------------------------------------------
# Fused ops: one tape entry for a chain of the ops above. The forward calls
# the chain's array helpers in the chain's order, so an overflow names the
# step that made it, as the chain does; the backward applies each step's
# own backward expression in reverse. Outputs and gradients are byte-equal
# to the chain's, which is their test oracle.
# -----------------------------------------------------------------------------


def lora_delta_data(
    base: np.ndarray, xd: np.ndarray, ad: np.ndarray, bd: np.ndarray, rows: np.ndarray, c: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """base + scatter(rows, ((xd[..., rows, :] @ ad) @ bd) * c), for unique
    in-range `rows` of xd (..., T, in) and base (..., T, out); ad (in, r)
    and bd (r, out) are shared by every leading index. Returns (output,
    xd[..., rows, :], that @ ad), the last two for the backward."""
    if xd.ndim < 2 or base.shape[:-1] != xd.shape[:-1]:
        raise NumericsError(f"lora_delta shape mismatch {xd.shape} vs base {base.shape}")
    xr = xd.take(rows, axis=-2)
    h = matmul_data(xr, ad)
    return row_scatter_add_data(base, rows, scale_data(matmul_data(h, bd), c)), xr, h


def lora_delta(
    base: Tensor,
    x: Tensor,
    a: Tensor,
    b: Tensor,
    rows: np.ndarray,
    c: float,
    residual: Tensor | None = None,
) -> Tensor:
    """Tensor form of `lora_delta_data`: the chain take_rows -> matmul ->
    matmul -> scale -> row_scatter_add as one op. With a `residual`, the
    chain's trailing add(residual, .) is part of the op too."""
    rows = np.asarray(rows, dtype=np.int64)
    xd = x.data
    if rows.size and xd.ndim >= 2 and (rows.min() < 0 or rows.max() >= xd.shape[-2]):
        raise NumericsError("lora_delta row index out of range")
    c = float(c)
    y, xr, h = lora_delta_data(base.data, xd, a.data, b.data, rows, c)
    inputs = (base, x, a, b)
    if residual is not None:
        y = add_data(residual.data, y)
        inputs += (residual,)
    out = _out(y)

    def bw(g, rows=rows, xr=xr, h=h, ad=a.data, bd=b.data, shape=xd.shape, dtype=xd.dtype):
        gd = g.take(rows, axis=-2) * c
        gh = gd @ bd.swapaxes(-1, -2)
        gxr = gh @ ad.swapaxes(-1, -2)
        gx = np.zeros(shape, dtype=dtype)
        gx[..., rows, :] += gxr  # take_rows' np.add.at, for unique rows
        ga = _sum_lead(xr.swapaxes(-1, -2) @ gh, 2) if _tracked(a) else None
        gb = _sum_lead(h.swapaxes(-1, -2) @ gd, 2) if _tracked(b) else None
        # add's backward: the residual takes g, the chain below a copy.
        return (g, gx, ga, gb) if residual is None else (g.copy(), gx, ga, gb, g)

    return _record(out, inputs, bw)


def _heads(xd: np.ndarray, n_heads: int) -> np.ndarray:
    """(..., T, D) -> a (..., H, T, D / H) view: the columns split into heads."""
    return xd.reshape(xd.shape[:-1] + (n_heads, xd.shape[-1] // n_heads)).swapaxes(-3, -2)


def _join_heads(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Inverse of `_heads` for a gradient g (..., H, T, D / H): `shape` is
    the (..., T, D) of the split input."""
    return np.ascontiguousarray(g.swapaxes(-3, -2)).reshape(shape)


def attention_scores_data(
    qd: np.ndarray, kd: np.ndarray, n_heads: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scaled dot-product scores of every head: (..., T, D) queries and
    keys, split into n_heads heads of D / n_heads columns, give (..., H, T,
    T) q k^T / sqrt(D / n_heads). Returns (scores, q as (..., H, T, d_h), k
    as (..., H, d_h, T)), the last two for the backward."""
    if n_heads < 1 or qd.ndim < 2 or kd.shape != qd.shape or qd.shape[-1] % n_heads:
        raise NumericsError(f"attention_scores shape mismatch {qd.shape}, {kd.shape} for {n_heads} heads")
    q = np.ascontiguousarray(_heads(qd, n_heads))
    k = np.ascontiguousarray(_heads(kd, n_heads).swapaxes(-1, -2))
    # matmul_data's product, scaled in place and checked once: a factor
    # 1 / sqrt(d_h) <= 1 cannot make a finite value non-finite, so a
    # non-finite score can only come from the product. The scan runs in a
    # fast run too: the softmax can absorb a non-finite score.
    s = q @ k
    s *= 1.0 / math.sqrt(q.shape[-1])
    return _scan(s, "matmul"), q, k


def attention_scores(q: Tensor, k: Tensor, n_heads: int) -> Tensor:
    """Tensor form of `attention_scores_data`: the chain reshape/transpose
    x2 -> matmul -> scale as one op."""
    s, qh, kh = attention_scores_data(q.data, k.data, n_heads)
    out = _out(s)
    c = 1.0 / math.sqrt(qh.shape[-1])

    def bw(g, qh=qh, kh=kh, shape=q.data.shape):
        gs = g * c
        gq = gs @ kh.swapaxes(-1, -2)
        gk = qh.swapaxes(-1, -2) @ gs
        return _join_heads(gq, shape), _join_heads(gk.swapaxes(-1, -2), shape)

    return _record(out, (q, k), bw)


def attention_context_data(pd: np.ndarray, vd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Attention weights pd (..., H, T, T) times (..., T, D) values split
    into H heads, the heads joined back to (..., T, D). Returns (output, v
    as (..., H, T, d_h)), the last for the backward."""
    ok = (
        vd.ndim >= 2
        and pd.ndim == vd.ndim + 1
        and pd.shape[-3] >= 1
        and pd.shape[:-3] == vd.shape[:-2]
        and pd.shape[-2:] == (vd.shape[-2],) * 2
    )
    if not ok or vd.shape[-1] % pd.shape[-3]:
        raise NumericsError(f"attention_context shape mismatch {pd.shape} x {vd.shape}")
    v = np.ascontiguousarray(_heads(vd, pd.shape[-3]))
    return _join_heads(matmul_data(pd, v), vd.shape), v


def attention_context(p: Tensor, v: Tensor) -> Tensor:
    """Tensor form of `attention_context_data`: the chain reshape/transpose
    -> matmul -> transpose -> reshape as one op."""
    y, vh = attention_context_data(p.data, v.data)
    out = _out(y)

    def bw(g, pd=p.data, vh=vh, shape=v.data.shape):
        go = np.ascontiguousarray(_heads(g, vh.shape[-3]))
        return go @ vh.swapaxes(-1, -2), _join_heads(pd.swapaxes(-1, -2) @ go, shape)

    return _record(out, (p, v), bw)


class ArrayOps:
    """The array helpers under their ops' names, for a pass written once
    over an op namespace and run with no tape. Activations are plain arrays;
    weights stay Tensors and are read through `.data`; each returns the op's
    output array. So the untaped pass runs each op's own forward math, and
    gives the taped pass's bytes. `Tensor` leaves an input a plain array."""

    Tensor = staticmethod(np.asarray)
    add = staticmethod(add_data)
    take_rows = staticmethod(lambda table, idx: table.data.take(idx, axis=-2))
    linear = staticmethod(lambda x, w: linear_data(x, w.data))
    silu = staticmethod(lambda x: silu_data(x)[0])
    layer_norm = staticmethod(lambda x, gain, bias: layer_norm_data(x, gain.data, bias.data)[0])
    attention_scores = staticmethod(lambda q, k, n_heads: attention_scores_data(q, k, n_heads)[0])
    masked_softmax_rows = staticmethod(masked_softmax_data)
    attention_context = staticmethod(lambda p, v: attention_context_data(p, v)[0])

    @staticmethod
    def lora_delta(base, x, a, b, rows, c, residual=None):
        y = lora_delta_data(base, x, a.data, b.data, rows, c)[0]
        return y if residual is None else add_data(residual, y)


def concat_cols(parts: list[Tensor]) -> Tensor:
    """Join (..., T, w_i) parts along their last axis."""
    out = _out(np.concatenate([p.data for p in parts], axis=-1))
    widths = [p.data.shape[-1] for p in parts]

    def bw(g, widths=widths):
        pieces, j = [], 0
        for w in widths:
            pieces.append(g[..., j : j + w].copy())
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

    logits (..., R, V) and labels (..., R) give one mean per sequence, of
    shape (...); every sequence must ignore the same rows. Returns 0 (with
    no gradient flow) when every row is ignored. Labels outside [0, V)
    other than the sentinel are an error.
    """
    labels = np.asarray(labels, dtype=np.int64)
    lg = logits.data
    if lg.ndim < 2 or labels.shape != lg.shape[:-1]:
        raise NumericsError("cross_entropy expects (..., R, V) logits and (..., R) labels")
    valid = labels != ignore_id
    if not valid.any():
        return _out(np.zeros(labels.shape[:-1], dtype=lg.dtype))
    first = valid.reshape(-1, labels.shape[-1])[0]
    if not (valid == first).all():
        raise NumericsError("cross_entropy: the sequences ignore different rows")
    rows = np.flatnonzero(first)
    picked = labels.take(rows, axis=-1)
    if picked.min() < 0 or picked.max() >= lg.shape[-1]:
        raise NumericsError("cross_entropy label out of range")
    # take() keeps every array C-ordered, so each row reduces as it would alone.
    ld = lg.take(rows, axis=-2)
    at = (np.arange(picked.size), picked.reshape(-1))
    m = ld.max(axis=-1, keepdims=True)
    lse = m[..., 0] + np.log(np.exp(ld - m).sum(axis=-1))
    losses = lse - ld.reshape(-1, lg.shape[-1])[at].reshape(lse.shape)
    out = _out(np.asarray(losses.mean(axis=-1), dtype=lg.dtype), "cross_entropy")

    def bw(g, ld=ld, rows=rows, at=at, shape=lg.shape):
        p = np.exp(ld - ld.max(axis=-1, keepdims=True))
        p /= p.sum(axis=-1, keepdims=True)
        p.reshape(-1, shape[-1])[at] -= 1.0
        gx = np.zeros(shape, dtype=ld.dtype)
        gx[..., rows, :] = p * (g / rows.size)[..., None, None]
        return (gx,)

    return _record(out, (logits,), bw)


def fold_add(x: Tensor) -> Tensor:
    """((x[0] + x[1]) + x[2]) + ... over a 1-D x: the sum a chain of `add`s
    gives, one sequence's loss after another (np.sum adds in another order).
    Every entry's gradient is the output's."""
    if x.data.ndim != 1 or x.data.shape[0] < 1:
        raise NumericsError(f"fold_add expects a nonempty 1-D tensor, got {x.data.shape}")
    acc = x.data[0]
    for v in x.data[1:]:
        acc = acc + v
    out = _out(np.asarray(acc, dtype=x.data.dtype), "fold_add")

    def bw(g, shape=x.data.shape, dtype=x.data.dtype):
        return (np.full(shape, g, dtype=dtype),)

    return _record(out, (x,), bw)


def mean_axis1(x: Tensor) -> Tensor:
    """Row means: (..., T, d) -> (..., T)."""
    out = _out(x.data.mean(axis=-1), "mean_axis1")

    def bw(g, shape=x.data.shape, dtype=x.data.dtype):
        return (np.repeat(g[..., None] / shape[-1], shape[-1], axis=-1).astype(dtype),)

    return _record(out, (x,), bw)


def dot_const(x: Tensor, w: np.ndarray) -> Tensor:
    """Weighted sum of x (..., P) with constant weights w (P,) -> (...).
    Each row is its own (1, P) @ (P, 1) product: the bytes of the 1-D dot,
    which a (..., P) @ (P,) matrix-vector product does not give."""
    w = np.asarray(w, dtype=x.data.dtype)
    if x.data.ndim < 1 or w.shape != x.data.shape[-1:]:
        raise NumericsError("dot_const shape mismatch")
    out = _out(np.asarray((x.data[..., None, :] @ w[:, None])[..., 0, 0], dtype=x.data.dtype), "dot_const")

    def bw(g, w=w):
        return (g[..., None] * w,)

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

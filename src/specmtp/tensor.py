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
  layer_norm, silu, the gated linear) turns a non-finite input row into a
  non-finite output row, all the way to the logits; layer_norm also turns
  a finite row whose variance overflows into a NaN row. One value reaches
  no output: the frozen product of a gated linear's gated rows, which the
  merged product overwrites when only some rows are gated (start > 0).
  An overflow there alone is noted, so under an errstate that reports it
  the replay names `linear`, and under one that ignores it the pass
  returns its finite result. With every row gated (start 0) the frozen
  product is not formed, so the fast run and its replay agree;
- `@` forms every product, so 0 * inf = NaN: a non-finite value row
  reaches every attention output row whose product reads it (a regular
  value every row, a mask block's value its block's rows), even through
  attention weights that are exactly 0 (tested: a BLAS that skipped zero
  operands would fail);
- the softmax can absorb a non-finite score (-inf in an allowed cell gets
  weight 0, an excluded cell is dropped), hence the scores scan; and the
  softmax of finite scores with a full diagonal is finite;
- a pass whose streams set a first output row (model.py) does not run
  the last layer's query side, o, MLP, final norm or unembedding on the
  context rows before it, so no overflow can arise there. Every op it does
  run on a context row feeds that row's keys or values in the next layer
  or in the last one, and a context row's keys and values reach every
  output row: `forward` admits as context rows only rows before the
  streams' n_reg, so each is a regular key, scored by every output row
  (the scores scan), and a regular value, in every output row's context
  product. So an overflow on a context row still reaches the scores or
  the logits, and the replay, run with the same streams, names its op.

The forward math of the ops that a pass uses is written once, as an array
helper (`linear_data`, `layer_norm_data`, ...) that takes and returns
plain arrays and does the op's shape and finiteness checks. The `Tensor`
op calls its helper and records the backward. A pass is written once too,
over an op namespace: the autodiff ops when a tape is active, `ArrayOps`
(the helpers under the ops' names) when none is. So its taped and untaped
runs give the same bytes by construction.

Three fused ops record one tape entry where a chain of elementary ops
would record several: `gated_linear` (a gated adapter: linear over every
row, the merged weight M = W + (c A B)^T, take_rows -> linear with M ->
row put into the gated rows, and optionally the residual add after it),
`attention_scores` (the heads' scaled q k^T, for reshape/transpose x2 ->
matmul -> scale) and `attention_context` (weights times values, for
reshape/transpose -> matmul -> transpose -> reshape). The attention pair
takes any layout of n_reg regular rows, then blocks of `block` mask rows:
every row's product with the regular keys (or values), and one batched
product of each block with its own keys (or values), with the slices,
reshapes and the concat or add that join them; a causal layout is
n_reg = T, block = 0, and runs the single product. The regular keys and
values are the pass's own first n_reg rows, or outside, then own:
constant arrays of the layout's first r rows from outside the pass (a
cache of rows that cannot change), then the pass's own first n_reg - r
rows; the constants take no gradient. The queries, and the weights'
rows, are the layout's last rows, from a row that does not pass the
regular rows: every row, the mask blocks alone when every regular row
comes from outside, or a decode pass's output rows in its last layer. The
masked softmax between the two stays `masked_softmax_rows`. Each fused op
runs its chain's array helpers in order and its backward applies the
chain's backward expressions in reverse, so values and gradients are
byte-equal to the chain's. The chains, in the tests, are their oracle.
A gated linear, taped or not, runs `gated_linear_data`: the frozen
product over every row, so an ungated row keeps the bytes of the plain
linear, then the gated rows, the trailing run from a `start` row on (a
view), times the merged weight, written by that product into the frozen
product's gated rows (the put), and the residual added into the same
array. With every row gated (start 0), the put would overwrite the whole
frozen product, so the merged product alone is formed, forward and
backward.
M is stored like W, so both products are linear's; zero factors give
M == W. The merge (`merge_data`) runs per call, or once for a decode
call, whose copy of the model carries M (`model.merge_adapters`). The
backward forms M's gradient per sequence, and the factors' gradients
from it per sequence, summed by `_sum_lead`, so a stack keeps the
per-sequence bytes.

The attention steps over their (..., H, rows, keys) cells (the scores,
the masked softmax and its backward) each allocate one float array of
that size, and do their other steps in place on it, never in an input;
the scores scan adds one boolean array. An in-place step is the same IEEE
operation on the same values, so the bytes do not change. The scores op
writes its products into that array, scales it in place and scans it
once, under the name `matmul`, the only step of its chain that can
overflow. The softmax's array is its exclusion: one `np.fmin` of the
scores with the layout's float32 mask (+inf on an allowed cell, which
keeps its score, -inf on an excluded one, which becomes -inf whatever it
held), made once per layout (`softmax_mask`, batching.py). The row
kernels work the same way: layer_norm runs its chain on the two row-sized
arrays it allocates, silu on three, and a gated linear writes into its
one output array.
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
    """(x * sigmoid(x), sigmoid(x)); the sigmoid is kept for the backward.
    The sigmoid is n / (1 + e) with e = exp(-|x|) and numerator n = 1 for
    x >= 0, e otherwise. Since e <= 1, n is max(e, x >= 0): bit for bit
    np.where(x >= 0, 1.0, e), NaN included, in one cheaper call. The chain
    runs in place on the arrays it allocates, e, the sigmoid and the
    output: the same operations in the same order as out-of-place."""
    e = np.abs(xd)
    np.negative(e, out=e)
    np.exp(e, out=e)
    s = np.maximum(e, xd >= 0)
    e += 1.0
    s /= e
    return _finite(xd * s, "silu"), s


def silu(x: Tensor) -> Tensor:
    """Tensor form of `silu_data`."""
    y, s = silu_data(x.data)
    out = _out(y)

    def bw(g, xd=x.data, s=s):
        return (g * (s + xd * s * (1.0 - s)),)

    return _record(out, (x,), bw)


LN_EPS = 1e-5  # every layer norm's variance floor


def layer_norm_data(xd: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row zero mean / unit variance, then affine; xd (..., T, d).
    Returns (output, normalised rows, 1 / std), the last two for the
    backward. The chain runs in place on the two row-sized arrays it
    allocates, the centred rows (then xhat) and the squares (then the
    output), so gain and bias are of xd's dtype: the same operations in
    the same order as out-of-place."""
    if xd.ndim < 2:
        raise NumericsError("layer_norm expects rows of at least 2-D input")
    # The same bytes as xd.mean and xd.var, without their Python wrappers.
    d = xd.shape[-1]
    mean = np.add.reduce(xd, axis=-1, keepdims=True)
    mean /= d
    xhat = np.subtract(xd, mean)
    y = np.multiply(xhat, xhat)
    var = np.add.reduce(y, axis=-1, keepdims=True)
    var /= d
    # var - var is +0.0 for a finite variance, so inv keeps its bytes; a
    # variance that overflowed to inf makes its row NaN, not the bias.
    inv = var + LN_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    inv += var - var
    xhat *= inv
    np.multiply(xhat, gain, out=y)
    y += bias
    return _finite(y, "layer_norm"), xhat, inv


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Tensor form of `layer_norm_data`."""
    y, xhat, inv = layer_norm_data(x.data, gain.data, bias.data)
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


def softmax_mask(allowed) -> np.ndarray:
    """The float32 mask that `masked_softmax_data` applies for a boolean
    `allowed`: +inf where a cell is allowed, -inf where it is excluded."""
    return np.where(allowed, np.float32(np.inf), np.float32(-np.inf))


def _softmax_core(xd: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Softmax over the cells of the last axis that the float32 `mask`
    (`softmax_mask`) allows. One new C-ordered array the size of xd:
    np.fmin with the mask keeps an allowed cell's value (an allowed NaN
    becomes +inf, which makes its row NaN as NaN does) and sets an excluded
    one to -inf, whatever it held, in one pass. No NaN is then left, so the
    max shift by np.fmax gives np.maximum's values; it, the exp and the
    division run in place, the same operations on the same values as
    out-of-place. A float32 mask leaves float64 scores float64."""
    x = np.fmin(xd, mask, order="C")
    # The ufunc reductions that .max and .sum call, without their wrappers.
    x -= np.fmax.reduce(x, axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= np.add.reduce(x, axis=-1, keepdims=True)
    return x


def _softmax_backward(g: np.ndarray, p: np.ndarray) -> np.ndarray:
    """p * (g - (p * g).sum(-1)) in one new array, leaving g and p as they are."""
    d = p * g
    s = np.add.reduce(d, axis=-1, keepdims=True)
    np.subtract(g, s, out=d)
    d *= p
    return d


def masked_softmax_data(xd: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """Softmax over the `allowed` entries of each row; others get exactly 0,
    whatever they hold (NaN and +-inf included).

    `allowed` is a constant mask shaped like xd's last two axes; for
    stacked (H, T, T) scores one (T, T) mask applies to every block. It is
    the float32 mask a layout's streams carry (`softmax_mask`: +inf where
    allowed, -inf where not), or a boolean matrix, made into that mask.
    """
    if allowed.shape != xd.shape[-2:]:
        raise NumericsError("masked_softmax_rows mask shape mismatch")
    if allowed.dtype == bool:
        allowed = softmax_mask(allowed)
    elif allowed.dtype != np.float32:
        raise NumericsError(f"masked_softmax_rows mask of dtype {allowed.dtype}: boolean or float32 +-inf")
    return _finite(_softmax_core(xd, allowed), "masked_softmax_rows")


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
            if idx.size < 2 or np.bincount(idx).max() < 2:
                gx[..., idx, :] += g  # np.add.at's bytes, where no row repeats
            else:
                np.add.at(gx, (..., idx, slice(None)), g)
            return (gx,)
        per_seq = idx.reshape(-1, idx.shape[-1])
        n = per_seq.shape[0]
        gx = np.zeros((n,) + shape, dtype=dtype)
        np.add.at(gx, (np.arange(n)[:, None], per_seq), g.reshape(n, idx.shape[-1], shape[-1]))
        return (_sum_lead(gx, 2),)

    return _record(out, (x,), bw)


# -----------------------------------------------------------------------------
# Fused ops: one tape entry for a chain of the ops above. The forward runs
# the chain's steps in the chain's order, as its array helpers or as the same
# IEEE operations in place, so an overflow names the step that made it, as
# the chain does; the backward applies each step's
# own backward expression in reverse. Outputs and gradients are byte-equal
# to the chain's, which is their test oracle.
# -----------------------------------------------------------------------------


def merge_data(wd: np.ndarray, ad: np.ndarray, bd: np.ndarray, c: float) -> np.ndarray:
    """The merged gated weight M = W + (c A B)^T of a frozen W (out, in)
    and factors A (in, r), B (r, out), stored like W, so that x M^T is
    linear's product (LoRA's merge, arXiv 2106.09685): the chain matmul ->
    scale -> transpose -> add(W, .), on one new array for the product and
    one for the sum, each step naming its overflow."""
    r = ad.shape[-1] if ad.ndim else 0
    if wd.ndim != 2 or ad.shape != (wd.shape[1], r) or bd.shape != (r, wd.shape[0]):
        raise NumericsError(f"gated_linear shape mismatch W {wd.shape}, A {ad.shape}, B {bd.shape}")
    s = _finite(ad @ bd, "matmul")
    s *= float(c)
    return _finite(np.add(wd, _finite(s, "scale").T, order="C"), "add")


def gated_linear_data(
    xd: np.ndarray, wd: np.ndarray, ad: np.ndarray, bd: np.ndarray, start: int, c: float,
    residual: np.ndarray | None = None, merged: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """linear(xd, wd) for xd (..., T, in), with its rows from `start` on
    (0 <= start < T) replaced by linear(xd[..., start:, :], M), M the
    merged weight (`merge_data`), or `merged` when the caller formed it
    already; then the residual added, when one is given. The steps run in
    the chain's order (linear, the merge, take rows, linear, row put, add),
    each naming its overflow. The second linear writes its product into
    the first one's gated rows, which is the put, and the residual (of the
    output's shape) is added into that same array, so the output is the
    one array the chain needs. At start 0 the first linear, whose every row
    the put would replace, is skipped. Returns (output, the view
    xd[..., start:, :], M), the last two for the backward."""
    if xd.ndim < 2:
        raise NumericsError(f"gated_linear shape mismatch x {xd.shape} for W {wd.shape}")
    if not 0 <= start < xd.shape[-2]:
        raise NumericsError(f"gated_linear start row {start} out of range for {xd.shape[-2]} rows")
    y = linear_data(xd, wd) if start else None
    md = merge_data(wd, ad, bd, c) if merged is None else merged
    xr = xd[..., start:, :]
    if start:
        # linear_data's product (xd's width was checked against W, whose
        # shape M has), written into the frozen product's gated rows.
        _finite(np.matmul(xr, md.T, out=y[..., start:, :]), "linear")
    else:
        y = linear_data(xr, md)
    if residual is not None:
        # add_data's sum, written into the array that holds the products.
        if residual.shape != y.shape:
            raise NumericsError(f"add shape mismatch {residual.shape} vs {y.shape}")
        _finite(np.add(residual, y, out=y), "add")
    return y, xr, md


def gated_linear(
    x: Tensor, w: Tensor, a: Tensor, b: Tensor, start: int, c: float,
    residual: Tensor | None = None, merged: np.ndarray | None = None,
) -> Tensor:
    """Tensor form of `gated_linear_data`: the chain linear, the merge
    (matmul, scale, transpose, add to W), take_rows, linear, row put and,
    with a `residual`, add(residual, .) as one op."""
    xd = x.data
    c = float(c)
    y, xr, md = gated_linear_data(xd, w.data, a.data, b.data, start, c, getattr(residual, "data", None), merged)
    inputs = (x, w, a, b) + (() if residual is None else (residual,))

    def bw(g, start=start, xr=xr, md=md, wd=w.data, ad=a.data, bd=b.data):
        gr = g[..., start:, :]
        if start:
            gx = g @ wd
            gx[..., start:, :] = gr @ md  # the put gave linear(x, W) zeros there
        else:
            gx = gr @ md
        dm = gr.swapaxes(-1, -2) @ xr  # M's gradient, per sequence
        gw = None
        if _tracked(w):
            # M's gradient, plus linear's from the rows that the put kept.
            g_kept = g.copy()
            g_kept[..., start:, :] = 0
            gw = _sum_lead(dm + g_kept.swapaxes(-1, -2) @ xd, 2)
        ds = np.ascontiguousarray(dm.swapaxes(-1, -2))  # (c A B)'s gradient
        ds *= c
        ga = _sum_lead(ds @ bd.T, 2) if _tracked(a) else None
        gb = _sum_lead(ad.T @ ds, 2) if _tracked(b) else None
        # add's backward: the residual takes g.
        return (gx, gw, ga, gb) + (() if residual is None else (g,))

    return _record(_out(y), inputs, bw)


def _heads(xd: np.ndarray, n_heads: int) -> np.ndarray:
    """(..., T, D) -> a (..., H, T, D / H) view: the columns split into heads."""
    return xd.reshape(xd.shape[:-1] + (n_heads, xd.shape[-1] // n_heads)).swapaxes(-3, -2)


def _join_heads(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Inverse of `_heads` for a gradient g (..., H, T, D / H): `shape` is
    the (..., T, D) of the split input."""
    return np.ascontiguousarray(g.swapaxes(-3, -2)).reshape(shape)


def _blocks(xd: np.ndarray, block: int) -> np.ndarray:
    """(..., M, c) -> (..., M / block, block, c): the rows in runs of `block`."""
    return xd.reshape(xd.shape[:-2] + (xd.shape[-2] // block, block, xd.shape[-1]))


def _key_blocks(kt: np.ndarray, lo: int, block: int) -> np.ndarray:
    """The block keys of kt (..., H, d_h, T), from column lo on, as a
    (..., H, nb, d_h, block) view."""
    kb = kt[..., lo:]
    return kb.reshape(kb.shape[:-1] + (kb.shape[-1] // block, block)).swapaxes(-3, -2)


def _row_split(
    t_q: int, own: np.ndarray, outside: np.ndarray | None, n_reg: int, block: int
) -> tuple[int, int, int] | None:
    """The split of a layout of n_reg regular rows, then blocks of `block`
    mask rows (none when block is 0), as the attention ops take it: the
    keys (or values) `outside` (..., r_out, D) of its first r_out rows from
    outside the pass (none when None), its `own` (..., T, D) after them,
    and t_q query rows, its last, from row r on. Returns (r_out, the first
    mask query row, the first own mask row), or None when the rows do not
    fit: `outside` has other leading axes or columns than `own`, the first
    query row r passes the regular rows (r_out <= r <= n_reg), or the mask
    rows are not whole blocks."""
    r_out = 0
    if outside is not None:
        if outside.ndim != own.ndim or outside.shape[:-2] + outside.shape[-1:] != own.shape[:-2] + own.shape[-1:]:
            return None
        r_out = outside.shape[-2]
    t_len = r_out + own.shape[-2]
    m = t_len - n_reg
    if not (r_out <= t_len - t_q <= n_reg and n_reg >= 1 and t_q >= 1):
        return None
    if not (m == 0 if block == 0 else block > 0 and m > 0 and m % block == 0):
        return None
    return r_out, t_q - m, own.shape[-2] - m


def attention_scores_data(
    qd: np.ndarray, kd: np.ndarray, n_heads: int, n_reg: int, block: int, kd_reg: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, tuple[int, int, int]]:
    """Scaled dot-product scores of every head. The (..., T, D) queries and
    keys are split into n_heads heads of d_h = D / n_heads columns. Every
    query row scores against the n_reg regular keys by one product; each
    mask row, in blocks of `block` rows, also scores against its own block's
    keys, by one batched (nb, block, block) product. That gives (..., H, T,
    n_reg + block) q k^T / sqrt(d_h); a regular row's block columns hold 0,
    for the softmax to exclude. A causal layout is n_reg = T, block = 0:
    (..., H, T, T).

    The keys are outside, then own: `kd_reg` (..., r_out, D), the keys of
    the layout's first r_out rows from outside the pass (none when not
    given), then kd, the keys of the rows after them. The queries qd are
    the layout's last rows, from a row r >= r_out on that does not pass the
    regular rows: n_reg - r regular rows, then the mask blocks. So qd and
    kd hold the whole layout at r = r_out = 0, the mask blocks alone at
    r = r_out = n_reg, and a decode pass's last layer has r > r_out = 0.
    Returns (scores, q as (..., H, T_q, d_h), k as (..., H, d_h, T_k), the
    regular keys as (..., H, d_h, n_reg), and `_row_split`'s split (r_out,
    the first mask query row, the first own mask key row)), the rest for
    the backward. The regular keys are a view of k's first columns when
    none come from outside, else one join of the outside keys' heads and
    k's regular columns."""
    ok = (
        n_heads >= 1
        and qd.ndim >= 2
        and kd.ndim == qd.ndim
        and kd.shape[:-2] + kd.shape[-1:] == qd.shape[:-2] + qd.shape[-1:]
        and not qd.shape[-1] % n_heads
    )
    split = _row_split(qd.shape[-2], kd, kd_reg, n_reg, block) if ok else None
    if split is None:
        raise NumericsError(
            f"attention_scores shape mismatch {qd.shape}, {kd.shape}"
            + (f", regular keys {kd_reg.shape}" if kd_reg is not None else "")
            + f" for {n_heads} heads, {n_reg} regular rows and blocks of {block}"
        )
    _, lo_q, lo_k = split
    q = np.ascontiguousarray(_heads(qd, n_heads))
    k = np.ascontiguousarray(_heads(kd, n_heads).swapaxes(-1, -2))
    kr = (
        k[..., :n_reg]
        if kd_reg is None
        else np.concatenate([_heads(kd_reg, n_heads).swapaxes(-1, -2), k[..., :lo_k]], axis=-1)
    )
    if block:
        s = np.empty(q.shape[:-1] + (n_reg + block,), dtype=q.dtype)
        np.matmul(q, kr, out=s[..., :n_reg])
        s[..., :lo_q, n_reg:] = 0
        by_block = _blocks(s[..., lo_q:, n_reg:], block)
        np.matmul(_blocks(q[..., lo_q:, :], block), _key_blocks(k, lo_k, block), out=by_block)
    else:
        s = q @ kr
    # matmul_data's products, scaled in place and checked once: a factor
    # 1 / sqrt(d_h) <= 1 cannot make a finite value non-finite, so a
    # non-finite score can only come from a product. The scan runs in a
    # fast run too: the softmax can absorb a non-finite score.
    s *= 1.0 / math.sqrt(q.shape[-1])
    return _scan(s, "matmul"), q, k, kr, split


def attention_scores(
    q: Tensor, k: Tensor, n_heads: int, n_reg: int, block: int, k_reg: np.ndarray | None = None
) -> Tensor:
    """Tensor form of `attention_scores_data`: the chain reshape/transpose
    x2 -> matmul -> scale as one op; with mask blocks, the regular keys'
    product and each block's product over its own rows, joined under a
    zero filler for the regular rows' block columns, before the scale.
    Regular keys `k_reg` from outside the pass are a constant: no gradient."""
    s, qh, kt, kr, (r_out, lo_q, lo_k) = attention_scores_data(q.data, k.data, n_heads, n_reg, block, k_reg)
    out = _out(s)
    c = 1.0 / math.sqrt(qh.shape[-1])

    def bw(g, qh=qh, kt=kt, kr=kr, q_shape=q.data.shape, k_shape=k.data.shape):
        gs = g * c
        gr = gs[..., :n_reg]
        gq = gr @ kr.swapaxes(-1, -2)
        # The own regular keys' gradient: their columns, after the outside ones.
        gk = (qh.swapaxes(-1, -2) @ gr[..., r_out:]).swapaxes(-1, -2) if lo_k else None
        if block:
            # A regular row's block columns were a constant: no gradient.
            gb, m_shape = _blocks(gs[..., lo_q:, n_reg:], block), gq[..., lo_q:, :].shape
            gq[..., lo_q:, :] += (gb @ _key_blocks(kt, lo_k, block).swapaxes(-1, -2)).reshape(m_shape)
            gkb = (_blocks(qh[..., lo_q:, :], block).swapaxes(-1, -2) @ gb).swapaxes(-1, -2).reshape(m_shape)
            gk = gkb if gk is None else np.concatenate([gk, gkb], axis=-2)
        return _join_heads(gq, q_shape), _join_heads(gk, k_shape)

    return _record(out, (q, k), bw)


def attention_context_data(
    pd: np.ndarray, vd: np.ndarray, n_reg: int, block: int, vd_reg: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, int, int]]:
    """Attention weights pd (..., H, T, n_reg + block), laid out as
    `attention_scores_data` lays out its scores, times the (..., T, D)
    values split into H heads: every row's weights on the n_reg regular
    values by one product, and each mask block's weights on its own block's
    values by one batched (nb, block, block) product, added into that
    block's rows. A regular row reads the regular values alone. The heads
    are joined back to (..., T, D).

    The values are outside, then own, and the weights' rows the layout's
    last rows, as the keys and queries of `attention_scores_data`:
    `vd_reg` (..., r_out, D) from outside the pass, then vd, and pd's rows
    from a row r >= r_out on. Returns (output (..., T_q, D), v as (..., H,
    T_v, d_h), the regular values as (..., H, n_reg, d_h), and
    `_row_split`'s split (r_out, the first mask query row, the first own
    mask value row)), the rest for the backward. The regular values are a
    view of v's first rows when none come from outside, else one join of
    the outside values' heads and v's regular rows."""
    n_heads = pd.shape[-3] if pd.ndim >= 3 else 0
    ok = (
        vd.ndim >= 2
        and pd.ndim == vd.ndim + 1
        and n_heads >= 1
        and pd.shape[:-3] == vd.shape[:-2]
        and pd.shape[-1] == n_reg + block
        and not vd.shape[-1] % n_heads
    )
    split = _row_split(pd.shape[-2], vd, vd_reg, n_reg, block) if ok else None
    if split is None:
        raise NumericsError(
            f"attention_context shape mismatch {pd.shape} x {vd.shape}"
            + (f", regular values {vd_reg.shape}" if vd_reg is not None else "")
            + f" for {n_reg} regular rows and blocks of {block}"
        )
    _, lo_q, lo_v = split
    v = np.ascontiguousarray(_heads(vd, n_heads))
    vr = v[..., :n_reg, :] if vd_reg is None else np.concatenate([_heads(vd_reg, n_heads), v[..., :lo_v, :]], axis=-2)
    out = _finite(pd[..., :n_reg] @ vr, "matmul")
    if block:
        by_block = _finite(_blocks(pd[..., lo_q:, n_reg:], block) @ _blocks(v[..., lo_v:, :], block), "matmul")
        out[..., lo_q:, :] += by_block.reshape(out[..., lo_q:, :].shape)
        _finite(out, "add")
    return _join_heads(out, vd.shape[:-2] + (pd.shape[-2], vd.shape[-1])), v, vr, split


def attention_context(p: Tensor, v: Tensor, n_reg: int, block: int, v_reg: np.ndarray | None = None) -> Tensor:
    """Tensor form of `attention_context_data`: the chain reshape/transpose
    -> matmul -> transpose -> reshape as one op; with mask blocks, each
    block's product added into its rows before the transpose. Regular
    values `v_reg` from outside the pass are a constant: no gradient."""
    y, vh, vr, (r_out, lo_q, lo_v) = attention_context_data(p.data, v.data, n_reg, block, v_reg)
    out = _out(y)

    def bw(g, pd=p.data, vh=vh, vr=vr, shape=v.data.shape):
        go = np.ascontiguousarray(_heads(g, vh.shape[-3]))
        gp = go @ vr.swapaxes(-1, -2)
        # The own regular values' gradient: their columns, after the outside ones.
        gv = pd[..., r_out:n_reg].swapaxes(-1, -2) @ go if lo_v else None
        if block:
            gob = _blocks(go[..., lo_q:, :], block)
            gpb = gob @ _blocks(vh[..., lo_v:, :], block).swapaxes(-1, -2)
            gvb = (_blocks(pd[..., lo_q:, n_reg:], block).swapaxes(-1, -2) @ gob).reshape(vh[..., lo_v:, :].shape)
            # A regular row reads no block value: its block columns get 0.
            gp = np.concatenate([gp, np.zeros(gp.shape[:-1] + (block,), dtype=gp.dtype)], axis=-1)
            gp[..., lo_q:, n_reg:] = gpb.reshape(gp[..., lo_q:, n_reg:].shape)
            gv = gvb if gv is None else np.concatenate([gv, gvb], axis=-2)
        return gp, _join_heads(gv, shape)

    return _record(out, (p, v), bw)


class ArrayOps:
    """The array helpers under their ops' names, for a pass written once
    over an op namespace and run with no tape. Activations are plain arrays;
    weights stay Tensors and are read through `.data`; each returns the op's
    output array. So the untaped pass runs each op's own forward math, and
    gives the taped pass's bytes. `Tensor` leaves an input a plain array.
    `gated_linear` takes the autodiff op's arguments."""

    Tensor = staticmethod(np.asarray)
    add = staticmethod(add_data)
    take_rows = staticmethod(lambda table, idx: table.data.take(idx, axis=-2))
    linear = staticmethod(lambda x, w: linear_data(x, w.data))
    silu = staticmethod(lambda x: silu_data(x)[0])
    layer_norm = staticmethod(lambda x, gain, bias: layer_norm_data(x, gain.data, bias.data)[0])
    attention_scores = staticmethod(lambda q, k, *layout: attention_scores_data(q, k, *layout)[0])
    attention_context = staticmethod(lambda p, v, *layout: attention_context_data(p, v, *layout)[0])
    concat_rows = staticmethod(lambda parts: np.concatenate(parts, axis=-2))
    gated_linear = staticmethod(
        lambda x, w, a, b, start, c, residual=None, merged=None: gated_linear_data(
            x, w.data, a.data, b.data, start, c, residual, merged
        )[0]
    )


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


def concat_rows(parts: list[Tensor | np.ndarray]) -> Tensor:
    """Join (..., T_i, d) parts along their row axis. A plain array part is
    a constant: it gets no gradient."""
    data = [p.data if isinstance(p, Tensor) else p for p in parts]
    out = _out(np.concatenate(data, axis=-2))
    heights = [d.shape[-2] for d in data]

    def bw(g, heights=heights):
        pieces, i = [], 0
        for p, h in zip(parts, heights):
            pieces.append(g[..., i : i + h, :].copy() if _tracked(p) else None)
            i += h
        return tuple(pieces)

    return _record(out, tuple(parts), bw)


IGNORE_ID = -1  # the label of a row that carries no loss


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean -log softmax(logits)[label] over rows whose label != IGNORE_ID.

    logits (..., R, V) and labels (..., R) give one mean per sequence, of
    shape (...); every sequence must ignore the same rows. Returns 0 (with
    no gradient flow) when every row is ignored. Labels outside [0, V)
    other than the sentinel are an error.
    """
    labels = np.asarray(labels, dtype=np.int64)
    lg = logits.data
    if lg.ndim < 2 or labels.shape != lg.shape[:-1]:
        raise NumericsError("cross_entropy expects (..., R, V) logits and (..., R) labels")
    valid = labels != IGNORE_ID
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

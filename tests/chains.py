"""The chains of elementary ops that the fused ops in `specmtp.tensor`
replace, the out-of-place softmax that the in-place one replaces, the
per-sequence training loop that the stacked training step replaces, and
the pair-by-pair consistency loss that `lcm_loss` replaces. Each
is its replacement's oracle: values and gradients must match it byte for
byte. The elementary ops that only these chains and the tests use are
written here too, on the engine's helpers and tape."""

import numpy as np
from conftest import run_batch

from specmtp import tensor as tz
from specmtp.losses import base_and_sampler_ce, lcm_loss, total_loss
from specmtp.model import forward
from specmtp.tensor import NumericsError, _out, _record


def matmul(a, b):
    """Tensor form of `matmul_data` for operands with the same leading axes."""
    ad, bd = a.data, b.data
    if ad.ndim != bd.ndim:
        raise NumericsError(f"matmul shape mismatch {ad.shape} x {bd.shape}")
    out = _out(tz.matmul_data(ad, bd))
    return _record(out, (a, b), lambda g: (g @ bd.swapaxes(-1, -2), ad.swapaxes(-1, -2) @ g))


def transpose(x, axes=None):
    """Contiguous copy of x with its axes permuted; with no `axes`, reversed
    (the 2-D transpose)."""
    if axes is not None and sorted(axes) != list(range(x.data.ndim)):
        raise NumericsError(f"transpose axes {axes} do not permute {x.data.shape}")
    out = _out(np.ascontiguousarray(x.data.transpose(axes)))
    inverse = None if axes is None else tuple(np.argsort(axes))
    return _record(out, (x,), lambda g: (np.ascontiguousarray(g.transpose(inverse)),))


def reshape(x, shape):
    out = _out(x.data.reshape(shape))
    return _record(out, (x,), lambda g, s=x.data.shape: (g.reshape(s),))


def row_scatter_add(base, idx, delta):
    """Tensor form of `row_scatter_add_data`."""
    idx = np.asarray(idx, dtype=np.int64)
    out = _out(tz.row_scatter_add_data(base.data, idx, delta.data))
    return _record(out, (base, delta), lambda g: (g, g.take(idx, axis=-2)))


def softmax_rows(x):
    """Row-stochastic softmax: the masked softmax with every cell allowed,
    so -inf entries are exact exclusions (weight 0)."""
    p = tz._softmax_core(x.data, np.ones(x.data.shape[-1:], dtype=bool))
    return _record(_out(p, "softmax_rows"), (x,), lambda g: (tz._softmax_backward(g, p),))


def sum_all(x):
    out = _out(np.asarray(x.data.sum(), dtype=x.data.dtype), "sum_all")
    return _record(out, (x,), lambda g, d=x.data: (np.full(d.shape, g, dtype=d.dtype),))


def lora_chain(base, x, a, b, rows, c, residual=None):
    """lora_delta as take_rows -> matmul -> matmul -> scale ->
    row_scatter_add, then add(residual, .) when a residual is given."""
    delta = tz.scale(matmul(matmul(tz.take_rows(x, rows), a), b), c)
    out = row_scatter_add(base, rows, delta)
    return out if residual is None else tz.add(residual, out)


def _split_heads(x, n_heads, axes):
    t_len, d = x.shape
    return transpose(reshape(x, (t_len, n_heads, d // n_heads)), axes)


def scores_chain(q, k, n_heads):
    """attention_scores as reshape/transpose x2 -> matmul -> scale."""
    qh, kh = _split_heads(q, n_heads, (1, 0, 2)), _split_heads(k, n_heads, (1, 2, 0))
    return tz.scale(matmul(qh, kh), 1.0 / np.sqrt(q.shape[1] // n_heads))


def context_chain(p, v):
    """attention_context as reshape/transpose -> matmul -> transpose -> reshape."""
    vh = _split_heads(v, p.shape[0], (1, 0, 2))
    return reshape(transpose(matmul(p, vh), (1, 0, 2)), v.shape)


def attention_chain(q, k, v, allowed, n_heads):
    """The multi-head attention core, (T, D) q, k, v -> (T, D)."""
    return context_chain(tz.masked_softmax_rows(scores_chain(q, k, n_heads), allowed), v)


def softmax_chain(xd, allowed=None):
    """The softmax over the last axis written out of place, one new array
    per step: np.where, then max, exp and divide."""
    masked = xd if allowed is None else np.where(allowed, xd, -np.inf)
    m = masked.max(axis=-1, keepdims=True)
    e = np.exp(masked - m)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_backward_chain(g, p):
    """The softmax backward written out of place."""
    return p * (g - (p * g).sum(axis=-1, keepdims=True))


def lcm_chain(hidden, lcm_pairs):
    """lcm_loss with its gap formed twice and its anchor weights counted
    pair by pair in a dict."""
    if not lcm_pairs:
        return tz.Tensor(np.zeros(hidden.data.shape[:-2], dtype=hidden.data.dtype))
    mask_rows = np.array([p[0] for p in lcm_pairs], dtype=np.int64)
    anchor_rows = np.array([p[1] for p in lcm_pairs], dtype=np.int64)
    anchors = tz.detach(tz.take_rows(hidden, anchor_rows))
    mtp = tz.take_rows(hidden, mask_rows)
    per_pair = tz.mean_axis1(tz.mul(tz.sub(mtp, anchors), tz.sub(mtp, anchors)))
    counts: dict[int, int] = {}
    for a in anchor_rows:
        counts[int(a)] = counts.get(int(a), 0) + 1
    n_anchors = len(counts)
    weights = np.array([1.0 / (n_anchors * counts[int(a)]) for a in anchor_rows])
    return tz.dot_const(per_pair, weights)


def per_sequence_step(model, sampler, batches, picks, config):
    """One training step as a loop with one taped pass per sequence, the
    stacked step's oracle: forward, losses and total per sequence, the
    totals chained by `add`, their mean differentiated. Returns the loss
    Tensor and the base, sampler and lcm terms summed over the sequences."""
    with tz.Tape() as tape:
        acc = None
        comp = [0.0, 0.0, 0.0]
        for si in picks:
            batch = batches[si]
            gate = batch.gate if config.gated else np.ones(batch.size, dtype=np.int8)
            out = forward(model, batch.tokens, batch.position_ids, batch.attention_allowed, gate)
            base, samp = base_and_sampler_ce(
                batch, out.hidden, out.logits, sampler, model.unembed, model.embedding_table()
            )
            lcm = lcm_loss(out.hidden, batch.lcm_pairs)
            seq_total = total_loss(base, samp, lcm, config.loss_weights)
            acc = seq_total if acc is None else tz.add(acc, seq_total)
            comp[0] += base.item()
            comp[1] += samp.item()
            comp[2] += lcm.item()
        loss = tz.scale(acc, 1.0 / len(picks))
    tz.backward(tape, loss)
    return loss, comp


def per_sequence_pretrain_step(model, batches, picks):
    """One `pretrain_base` step with one taped causal pass per sequence."""
    with tz.Tape() as tape:
        acc = None
        for si in picks:
            batch = batches[si]
            out = run_batch(model, batch)
            loss = tz.cross_entropy(out.logits, batch.base_labels)
            acc = loss if acc is None else tz.add(acc, loss)
        loss = tz.scale(acc, 1.0 / len(picks))
    tz.backward(tape, loss)
    return loss

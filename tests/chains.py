"""The chains of elementary ops that the fused ops in `specmtp.tensor`
replace. Each is the fused op's oracle: values and gradients must match
it byte for byte."""

import numpy as np

from specmtp import tensor as tz


def lora_chain(base, x, a, b, rows, c, residual=None):
    """lora_delta as take_rows -> matmul -> matmul -> scale ->
    row_scatter_add, then add(residual, .) when a residual is given."""
    delta = tz.scale(tz.matmul(tz.matmul(tz.take_rows(x, rows), a), b), c)
    out = tz.row_scatter_add(base, rows, delta)
    return out if residual is None else tz.add(residual, out)


def _split_heads(x, n_heads, axes):
    t_len, d = x.shape
    return tz.transpose(tz.reshape(x, (t_len, n_heads, d // n_heads)), axes)


def scores_chain(q, k, n_heads):
    """attention_scores as reshape/transpose x2 -> matmul -> scale."""
    qh, kh = _split_heads(q, n_heads, (1, 0, 2)), _split_heads(k, n_heads, (1, 2, 0))
    return tz.scale(tz.matmul(qh, kh), 1.0 / np.sqrt(q.shape[1] // n_heads))


def context_chain(p, v):
    """attention_context as reshape/transpose -> matmul -> transpose -> reshape."""
    vh = _split_heads(v, p.shape[0], (1, 0, 2))
    return tz.reshape(tz.transpose(tz.matmul(p, vh), (1, 0, 2)), v.shape)


def attention_chain(q, k, v, allowed, n_heads):
    """The multi-head attention core, (T, D) q, k, v -> (T, D)."""
    return context_chain(tz.masked_softmax_rows(scores_chain(q, k, n_heads), allowed), v)

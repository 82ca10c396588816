"""The chains of elementary ops that the fused ops in `specmtp.tensor`
replace, the out-of-place softmax that the in-place one replaces, and the
per-sequence training loop that the stacked training step replaces. Each
is its replacement's oracle: values and gradients must match it byte for
byte."""

import numpy as np

from specmtp import tensor as tz
from specmtp.losses import base_and_sampler_ce, lcm_loss, total_loss
from specmtp.model import forward


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
            out = forward(model, batch.tokens, batch.position_ids, batch.attention_allowed, batch.gate)
            loss = tz.cross_entropy(out.logits, batch.base_labels)
            acc = loss if acc is None else tz.add(acc, loss)
        loss = tz.scale(acc, 1.0 / len(picks))
    tz.backward(tape, loss)
    return loss

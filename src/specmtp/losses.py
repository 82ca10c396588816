"""Training losses: base and sampler cross-entropy plus latent consistency.

The consistency term pulls each mask row's hidden state toward the hidden
state of the regular row that shares its target. The anchor side is
detached, so only the mask representations move.

Each loss takes one sequence's batch or a stack of sequences that share
the layout (`build_training_stack`); over a stack it is a vector with one
entry per sequence, each with that sequence's own bytes.
"""

from __future__ import annotations

import numpy as np

from .tensor import (
    IGNORE_ID,
    Tensor,
    add,
    cross_entropy,
    detach,
    dot_const,
    mean_axis1,
    mul,
    scale,
    sub,
    take_rows,
)
from .batching import MaskedBatch
from .sampler import SamplerHead, sampler_logits_rows


def base_and_sampler_ce(
    batch: MaskedBatch,
    hidden: Tensor,
    base_logits: Tensor,
    sampler: SamplerHead | None = None,
    unembed: Tensor | None = None,
    embeddings: Tensor | None = None,
) -> tuple[Tensor, Tensor]:
    """Mean cross-entropies over every labeled row (regular and mask alike).

    The sampler term teacher-forces: each row's head input is the gold
    token preceding that row's target. Without a sampler the second term
    is a constant zero.
    """
    base = cross_entropy(base_logits, batch.base_labels)
    rows = batch.labeled_rows
    if sampler is None or rows.size == 0:
        return base, Tensor(np.zeros(base.data.shape, dtype=base_logits.data.dtype))
    prev_ids = batch.prev_token[..., rows]
    if (prev_ids < 0).any():
        raise ValueError("labeled row without a preceding gold token")
    logits = sampler_logits_rows(sampler, unembed, embeddings, prev_ids, take_rows(hidden, rows))
    samp = cross_entropy(logits, batch.base_labels[..., rows])
    return base, samp


def lcm_loss(hidden: Tensor, lcm_pairs: list[tuple[int, int]]) -> Tensor:
    """Mean over anchors of the mean squared gap to their paired mask rows.

    The squared gap is averaged over hidden dimensions as well, so the
    value does not scale with d. Anchors are detached: no gradient flows
    into the regular-row representations.
    """
    if not lcm_pairs:
        return Tensor(np.zeros(hidden.data.shape[:-2], dtype=hidden.data.dtype))
    mask_rows, anchor_rows = np.array(lcm_pairs, dtype=np.int64).T
    anchors = detach(take_rows(hidden, anchor_rows))
    d = sub(take_rows(hidden, mask_rows), anchors)
    per_pair = mean_axis1(mul(d, d))
    _, anchor_of, counts = np.unique(anchor_rows, return_inverse=True, return_counts=True)
    weights = 1.0 / (counts.size * counts[anchor_of])
    return dot_const(per_pair, weights)


def total_loss(base_ce: Tensor, sampler_ce: Tensor, lcm: Tensor, weights=(1.0, 1.0, 1.0)) -> Tensor:
    wb, ws, wl = weights
    if wb < 0 or ws < 0 or wl < 0:
        raise ValueError("loss weights must be nonnegative")
    return add(add(scale(base_ce, wb), scale(sampler_ce, ws)), scale(lcm, wl))


def ntp_only_ce(batch: MaskedBatch, base_logits: Tensor) -> Tensor:
    """Cross-entropy restricted to labeled regular rows (the quality metric
    that must stay flat while the adapters train)."""
    labels = batch.base_labels.copy()
    labels[..., batch.gate == 1] = IGNORE_ID
    return cross_entropy(base_logits, labels)


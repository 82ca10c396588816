"""Masked-input construction for training and for speculative inference.

A training batch interleaves a block of mask tokens after every
loss-bearing input token, so one pass answers "what comes after prefix i"
for every i at once. Every layout here is a token list plus a gate
(1 on mask rows), and one visibility rule gives all of them their
positions, anchors and attention:

- each mask block directly follows the regular row it extends (its anchor);
- a regular row sees every earlier regular row and itself, never a mask;
- a mask row sees every regular row up to its anchor, plus its own block
  up to and including itself;
- a row's position is the count of regular rows before its anchor, plus
  its 1-based index in the block (0 on the anchor itself).

So regular rows compute exactly what a plain causal pass computes, and
mask blocks never see each other.

Every sequence of a built-in corpus has the same length and loss flags,
so all of them share one training layout. `build_training_stack` builds
it once per corpus and gives tokens, labels and previous tokens a leading
sequence axis; a training step selects its sequences from that stack.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .tensor import IGNORE_ID

NO_ANCHOR = -1
NO_TOKEN = -1


@dataclass
class MaskedBatch:
    """One flattened layout: ids, positions, labels, gates, allowed sets.

    gate[i] == 1 exactly on mask rows. block_anchor maps each mask row to
    the row index of the real token its block extends (NO_ANCHOR on real
    rows). lcm_pairs lists (mask_row, anchor_row) couples whose hidden
    states are pulled together by the consistency loss. prev_token holds
    the gold token that precedes each row's target (for the sampler).

    In a stack of sequences that share the layout, tokens, base_labels
    and prev_token are (N, T); every other field is the shared (T,) one.
    """

    tokens: np.ndarray
    position_ids: np.ndarray
    gate: np.ndarray
    base_labels: np.ndarray
    attention_allowed: np.ndarray
    block_anchor: np.ndarray
    lcm_pairs: list[tuple[int, int]]
    prev_token: np.ndarray

    @property
    def size(self) -> int:
        return int(self.tokens.shape[-1])

    @property
    def labeled_rows(self) -> np.ndarray:
        """Rows with a live label, one set for every sequence of a stack."""
        return np.flatnonzero(self.base_labels.reshape(-1, self.size)[0] != IGNORE_ID)

    def select(self, picks) -> "MaskedBatch":
        """Sequences of a stack: an index array gives a smaller stack, an
        int one sequence's batch."""
        return replace(
            self,
            tokens=self.tokens[picks],
            base_labels=self.base_labels[picks],
            prev_token=self.prev_token[picks],
        )

    @property
    def ntp_rows(self) -> np.ndarray:
        return np.flatnonzero(self.gate == 0)

    @property
    def mtp_rows(self) -> np.ndarray:
        return np.flatnonzero(self.gate == 1)

    def block_rows(self, anchor_row: int) -> np.ndarray:
        """Mask rows of the block anchored at anchor_row, in m_1..m_k order."""
        return np.flatnonzero(self.block_anchor == anchor_row)


def _layout(tokens, gate) -> MaskedBatch:
    """Apply the module's visibility rule to a token list and its gate.

    Row 0 must be regular. Labels and previous tokens come back unset
    (IGNORE_ID / NO_TOKEN) and lcm_pairs empty.
    """
    gate = np.asarray(gate, dtype=np.int8)
    regular = gate == 0
    rows = np.arange(gate.shape[0])
    block = np.cumsum(regular)
    anchor = np.flatnonzero(regular)[block - 1]
    allowed = block[:, None] == block[None, :]
    allowed |= regular
    allowed &= rows[:, None] >= rows
    return MaskedBatch(
        tokens=np.asarray(tokens, dtype=np.int64),
        position_ids=block - 1 + rows - anchor,
        gate=gate,
        base_labels=np.full(rows.shape, IGNORE_ID, dtype=np.int64),
        attention_allowed=allowed,
        block_anchor=np.where(regular, NO_ANCHOR, anchor),
        lcm_pairs=[],
        prev_token=np.full(rows.shape, NO_TOKEN, dtype=np.int64),
    )


def build_training_batch(seq, loss_flags, mask_ids) -> MaskedBatch:
    """Interleave a k-mask block after every loss-bearing token of seq.

    seq: token ids x_1..x_n (n >= 2). loss_flags[i] == 1 makes row x_(i+1)
    carry a next-token label and (if it is not the last token) spawns a
    mask block. Labels: row of x_i predicts x_(i+1); mask m_j of the block
    after x_i predicts x_(i+1+j); IGNORE where the target does not exist
    or the loss is off. prev_token is x_i on the row of x_i and x_(i+j) on
    m_j (NO_TOKEN past the end). lcm_pairs couples m_j after x_i with the
    row of x_(i+j), which shares its target, when both labels are live.
    """
    seq = np.asarray(seq, dtype=np.int64)
    flags = np.asarray(loss_flags, dtype=np.int64)
    mask_ids = np.asarray(mask_ids, dtype=np.int64)
    n, k = seq.shape[0], mask_ids.shape[0]
    if n < 2:
        raise ValueError("sequence must have at least 2 tokens")
    if flags.shape != (n,):
        raise ValueError("loss_flags length must match the sequence")
    if k < 1:
        raise ValueError("need at least one mask id")

    tokens: list[int] = []
    gate: list[int] = []
    for p in range(n):
        tokens.append(seq[p])
        gate.append(0)
        if flags[p] == 1 and p < n - 1:
            tokens.extend(mask_ids)
            gate.extend([1] * k)
    batch = _layout(tokens, gate)

    # A row at position p predicts x[p+1] and follows x[p] (0-based).
    for row, (p, g) in enumerate(zip(batch.position_ids.tolist(), gate)):
        if p + 1 < n and (g == 1 or flags[p] == 1):
            batch.base_labels[row] = seq[p + 1]
        if p < n:
            batch.prev_token[row] = seq[p]
    # A mask row shares its target with the regular row at its position.
    labels, ntp_rows = batch.base_labels, batch.ntp_rows
    for row in batch.mtp_rows.tolist():
        if labels[row] != IGNORE_ID:
            arow = int(ntp_rows[batch.position_ids[row]])
            if labels[arow] != IGNORE_ID:
                batch.lcm_pairs.append((row, arow))
    return batch


def build_training_stack(corpus, mask_ids) -> MaskedBatch:
    """`build_training_batch` for every (seq, loss_flags) pair of a corpus.

    The sequences must share their length and loss flags, so that they
    share one layout: positions, gate, attention and lcm_pairs are built
    once, and tokens, base_labels and prev_token are (N, T), row b of each
    equal to sequence b's own batch. A ValueError names the first
    sequence whose length or flags differ from sequence 0's.
    """
    corpus = list(corpus)
    if not corpus:
        raise ValueError("cannot stack an empty corpus")
    seq0, flags0 = corpus[0]
    for i, (seq, flags) in enumerate(corpus[1:], start=1):
        if len(seq) != len(seq0):
            raise ValueError(
                f"sequence {i} has {len(seq)} tokens and sequence 0 has {len(seq0)}: "
                "a training stack needs one length"
            )
        if not np.array_equal(flags, flags0):
            raise ValueError(f"sequence {i} has other loss flags than sequence 0: a training stack needs one layout")
    layout = build_training_batch(seq0, flags0, mask_ids)
    seqs = np.stack([np.asarray(seq, dtype=np.int64) for seq, _ in corpus])
    n = seqs.shape[1]
    # Row r of every sequence holds that sequence's token at position p (a
    # mask id on mask rows), predicts its token p + 1 and follows token p.
    pos = layout.position_ids
    at, after = np.minimum(pos, n - 1), np.minimum(pos + 1, n - 1)
    layout.tokens = np.where(layout.gate == 0, seqs[:, at], layout.tokens)
    layout.base_labels = np.where(layout.base_labels != IGNORE_ID, seqs[:, after], IGNORE_ID)
    layout.prev_token = np.where(layout.prev_token != NO_TOKEN, seqs[:, at], NO_TOKEN)
    return layout


def build_linear_inference_input(verified, speculated, mask_ids) -> MaskedBatch:
    """verified + speculated + one tail mask block, fully causal.

    The tail block extends the last real token; its outputs are the next
    round of speculation when the whole current speculation verifies.
    """
    verified = list(verified)
    speculated = list(speculated)
    mask_ids = np.asarray(mask_ids, dtype=np.int64)
    k = mask_ids.shape[0]
    if not verified:
        raise ValueError("verified must be nonempty")
    if len(speculated) > k:
        raise ValueError("more speculated tokens than masks")

    real = verified + speculated
    return _layout(real + list(mask_ids), [0] * len(real) + [1] * k)


def build_quadratic_inference_input(verified, speculated, mask_ids) -> MaskedBatch:
    """verified + [masks] + [s_1, masks] + ... + [s_k, masks].

    Chain token s_j sees the verified prefix and s_1..s_j, never a mask.
    Mask m_l of the block anchored at chain token c sees verified, the
    chain through c, and m_1..m_l of its own block only. The first block
    is anchored at the last verified token, so even a first-token
    rejection leaves fresh speculation.
    """
    verified = list(verified)
    speculated = list(speculated)
    mask_ids = np.asarray(mask_ids, dtype=np.int64)
    k = mask_ids.shape[0]
    if not verified:
        raise ValueError("verified must be nonempty")
    if len(speculated) != k:
        raise ValueError(f"quadratic layout needs exactly {k} speculated tokens")

    tokens = verified + list(mask_ids)
    gate = [0] * len(verified) + [1] * k
    for tok in speculated:
        tokens += [tok] + list(mask_ids)
        gate += [0] + [1] * k
    return _layout(tokens, gate)


def causal_rows(tokens) -> MaskedBatch:
    """Plain causal layout over real tokens: the reference configuration."""
    tokens = list(tokens)
    return _layout(tokens, [0] * len(tokens))

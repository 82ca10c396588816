"""Masked-input construction for training and for speculative inference.

A training batch interleaves a block of mask tokens after every
loss-bearing input token, so one pass answers "what comes after prefix i"
for every i at once. Attention is restricted so that regular rows never
see a mask row, which keeps their outputs identical to a plain causal
pass, and so that mask blocks never see each other.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        return int(self.tokens.shape[0])

    @property
    def ntp_rows(self) -> np.ndarray:
        return np.flatnonzero(self.gate == 0)

    @property
    def mtp_rows(self) -> np.ndarray:
        return np.flatnonzero(self.gate == 1)

    def block_rows(self, anchor_row: int) -> np.ndarray:
        """Mask rows of the block anchored at anchor_row, in m_1..m_k order."""
        return np.flatnonzero(self.block_anchor == anchor_row)


def _finish(tokens, positions, gate, labels, allow_lists, anchors, prev, lcm_pairs):
    t_len = len(tokens)
    allowed = np.zeros((t_len, t_len), dtype=bool)
    for i, cols in enumerate(allow_lists):
        allowed[i, cols] = True
    return MaskedBatch(
        tokens=np.asarray(tokens, dtype=np.int64),
        position_ids=np.asarray(positions, dtype=np.int64),
        gate=np.asarray(gate, dtype=np.int8),
        base_labels=np.asarray(labels, dtype=np.int64),
        attention_allowed=allowed,
        block_anchor=np.asarray(anchors, dtype=np.int64),
        lcm_pairs=lcm_pairs,
        prev_token=np.asarray(prev, dtype=np.int64),
    )


def build_training_batch(seq, loss_flags, mask_ids) -> MaskedBatch:
    """Interleave a k-mask block after every loss-bearing token of seq.

    seq: token ids x_1..x_n (n >= 2). loss_flags[i] == 1 makes row x_(i+1)
    carry a next-token label and (if it is not the last token) spawns a
    mask block. Labels: row of x_i predicts x_(i+1); mask m_j of the block
    after x_i predicts x_(i+1+j); IGNORE where the target does not exist
    or the loss is off.
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

    tokens, positions, gate, labels, prev, anchors = [], [], [], [], [], []
    allow_lists: list[list[int]] = []
    ntp_row = np.zeros(n + 1, dtype=np.int64)  # 1-based token index -> row
    lcm_pairs: list[tuple[int, int]] = []
    mask_row_of: dict[tuple[int, int], int] = {}  # (block i, j) -> row

    for i in range(1, n + 1):  # 1-based over tokens
        row = len(tokens)
        ntp_row[i] = row
        tokens.append(seq[i - 1])
        positions.append(i - 1)
        gate.append(0)
        has_label = i < n and flags[i - 1] == 1
        labels.append(seq[i] if has_label else IGNORE_ID)
        prev.append(seq[i - 1])
        anchors.append(NO_ANCHOR)
        allow_lists.append([ntp_row[t] for t in range(1, i + 1)])

        if flags[i - 1] == 1 and i < n:
            block_start = len(tokens)
            for j in range(1, k + 1):
                mrow = len(tokens)
                mask_row_of[(i, j)] = mrow
                tokens.append(mask_ids[j - 1])
                positions.append((i - 1) + j)
                gate.append(1)
                target = i + 1 + j  # 1-based index of the predicted token
                labels.append(seq[target - 1] if target <= n else IGNORE_ID)
                prev.append(seq[i + j - 1] if i + j <= n else NO_TOKEN)
                anchors.append(ntp_row[i])
                allow_lists.append(
                    [ntp_row[t] for t in range(1, i + 1)]
                    + list(range(block_start, mrow + 1))
                )

    # Consistency couples: mask m_j after x_i shares its target with the
    # regular row of x_(i+j); pair them when both rows carry a live label.
    for (i, j), mrow in sorted(mask_row_of.items()):
        if i + j <= n:
            arow = int(ntp_row[i + j])
            if labels[mrow] != IGNORE_ID and labels[arow] != IGNORE_ID:
                lcm_pairs.append((mrow, arow))

    return _finish(tokens, positions, gate, labels, allow_lists, anchors, prev, lcm_pairs)


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
    tokens = real + list(mask_ids)
    t_len = len(tokens)
    positions = list(range(t_len))
    gate = [0] * len(real) + [1] * k
    labels = [IGNORE_ID] * t_len
    prev = [NO_TOKEN] * t_len
    last_real = len(real) - 1
    anchors = [NO_ANCHOR] * len(real) + [last_real] * k
    allow_lists = [list(range(i + 1)) for i in range(t_len)]
    return _finish(tokens, positions, gate, labels, allow_lists, anchors, prev, [])


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

    n_ver = len(verified)
    tokens = list(verified)
    positions = list(range(n_ver))
    gate = [0] * n_ver
    anchors = [NO_ANCHOR] * n_ver
    allow_lists = [list(range(i + 1)) for i in range(n_ver)]
    chain_rows = [n_ver - 1]  # chain position 0 is the last verified token

    def emit_block(anchor_row: int, anchor_pos: int, visible: list[int]):
        start = len(tokens)
        for l in range(1, k + 1):
            tokens.append(mask_ids[l - 1])
            positions.append(anchor_pos + l)
            gate.append(1)
            anchors.append(anchor_row)
            allow_lists.append(visible + list(range(start, start + l)))

    emit_block(n_ver - 1, n_ver - 1, list(range(n_ver)))

    for j, tok in enumerate(speculated, start=1):
        row = len(tokens)
        tokens.append(tok)
        positions.append(n_ver - 1 + j)
        gate.append(0)
        anchors.append(NO_ANCHOR)
        allow_lists.append(list(range(n_ver)) + chain_rows[1:] + [row])
        chain_rows.append(row)
        emit_block(row, n_ver - 1 + j, list(range(n_ver)) + chain_rows[1:])

    labels = [IGNORE_ID] * len(tokens)
    prev = [NO_TOKEN] * len(tokens)
    return _finish(tokens, positions, gate, labels, allow_lists, anchors, prev, [])


def causal_rows(tokens) -> MaskedBatch:
    """Plain causal layout over real tokens: the reference configuration."""
    tokens = list(tokens)
    t_len = len(tokens)
    return _finish(
        tokens,
        list(range(t_len)),
        [0] * t_len,
        [IGNORE_ID] * t_len,
        [list(range(i + 1)) for i in range(t_len)],
        [NO_ANCHOR] * t_len,
        [NO_TOKEN] * t_len,
        [],
    )

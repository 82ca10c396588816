"""Masked-input construction for training and for speculative inference.

A training batch adds a block of k mask tokens for every loss-bearing
input token, so one pass answers "what comes after prefix i" for every i
at once. Every layout here puts its regular rows first, in sequence
order, and its mask blocks after them: each block is one run of k rows
that extends one regular row, its anchor. One visibility rule gives all
of them their positions and attention:

- a regular row sees every earlier regular row and itself, never a mask;
- a mask row sees every regular row up to its anchor, plus its own block
  up to and including itself;
- regular row i has position i; mask m_j of the block anchored at row a
  has position a + j (j = 1..k).

So the regular rows compute exactly what a plain causal pass over them
computes, and mask blocks never see each other. Each layout carries the
rule twice: per row, as the (T,) `block_anchor` array, and as the layout's
`Streams`, the attention that `forward` takes (one op pair over the regular
keys and each row's own block, see model.py). The streams are built once
per layout, with the layout, and no (T, T) matrix is built. The gate is 0
on the regular rows and 1 on the mask rows, so the gated rows are one
trailing run.

One constructor (`_layout`) applies the rule. Training layouts anchor
their blocks at any regular rows. Every sequence of a built-in corpus has
the same length and loss flags, so all of them share one training layout.
`build_training_stack` builds it once per corpus and gives tokens, labels
and previous tokens a leading sequence axis; a training step selects its
sequences from that stack.

A decode layout's blocks extend its last regular rows: none (causal), the
last one (linear), or the last k + 1 (quadratic). The three inference
builders cut such a layout from a `DecodeTables`, `_layout`'s layout of
a decode call's longest quadratic layout, made once per call: a
quadratic layout is its last rows, a causal or linear one the triangle
of its first rows, and every cut's softmax mask is a view of the
tables' one mask. A decode layout fills no training field (labels,
previous tokens, lcm pairs).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .tensor import IGNORE_ID, softmax_mask

NO_ANCHOR = -1
NO_TOKEN = -1


class Streams(NamedTuple):
    """A layout's attention, as `forward` takes it.

    Every row scores against the first n_reg rows' keys, the regular keys;
    each of the rows after them, mask blocks of `block` rows, also scores
    against its own block's keys. `allowed` (T, n_reg + block) admits, for
    a regular row, the regular keys up to itself and no block column; for a
    mask row, the regular keys up to its anchor and its block's keys up to
    itself. It is the float32 mask that the softmax applies in one op
    (`tensor.softmax_mask`): +inf on an admitted cell, -inf on any other.

    A layout with no mask rows, or one block that extends the last regular
    row (a linear layout), sees the lower triangle of all T rows: it is
    n_reg = T, block = 0, and `allowed` is that (T, T) triangle.

    `first` is the pass's first output row: the rows before it, at most
    the regular rows, are context rows, whose keys and values every layer
    computes but whose output no caller reads (see model.forward). A
    builder's layout outputs every row; a decode pass sets `first` on it
    with `_replace`."""

    n_reg: int
    block: int
    allowed: np.ndarray
    first: int = 0


@dataclass
class MaskedBatch:
    """One flattened layout: ids, positions, labels, gates, block anchors
    and attention streams.

    Regular rows come first, then the mask blocks. gate[i] == 1 exactly on
    mask rows. block_anchor maps each mask row to the row index of the
    real token its block extends (NO_ANCHOR on real rows); streams is the
    same rule as the attention `forward` takes. lcm_pairs lists (mask_row,
    anchor_row) couples whose hidden states are pulled together by the
    consistency loss. prev_token holds the gold token that precedes each
    row's target (for the sampler); a decode layout leaves these three
    training fields None.

    In a stack of sequences that share the layout, tokens, base_labels
    and prev_token are (N, T); every other field is the shared one.
    """

    tokens: np.ndarray
    position_ids: np.ndarray
    gate: np.ndarray
    block_anchor: np.ndarray
    streams: Streams
    base_labels: np.ndarray | None = None
    lcm_pairs: list[tuple[int, int]] | None = None
    prev_token: np.ndarray | None = None

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

    def regular_layout(self) -> "MaskedBatch":
        """The regular rows alone, as `_layout`'s causal layout (they see no
        mask row) holding this batch's or stack's tokens, labels and
        previous tokens."""
        rows = self.ntp_rows
        return replace(
            _layout(self.tokens.reshape(-1, self.size)[0, rows], (), ()),
            tokens=self.tokens[..., rows],
            base_labels=self.base_labels[..., rows],
            prev_token=self.prev_token[..., rows],
        )

    def block_rows(self, anchor_row: int) -> np.ndarray:
        """Mask rows of the block anchored at anchor_row, in m_1..m_k order."""
        return np.flatnonzero(self.block_anchor == anchor_row)


def _layout(tokens, anchors, mask_ids) -> MaskedBatch:
    """Regular rows holding `tokens`, then one block of `mask_ids` for each
    regular row in `anchors`, in that order, under the module's visibility
    rule, with its streams and no training field. An anchor that is not a
    regular row is a ValueError. Every layout is this one's or cut from
    it: training layouts, causal regular rows, and a decode call's
    `DecodeTables`."""
    anchors = np.asarray(anchors, dtype=np.int64)
    mask_ids = np.asarray(mask_ids, dtype=np.int64)
    n, nb, k = len(tokens), anchors.size, mask_ids.size
    if nb and not (0 <= anchors.min() and anchors.max() < n):
        bad = anchors[(anchors < 0) | (anchors >= n)][0]
        raise ValueError(f"block anchor {bad} is not one of the {n} regular rows")
    t_len = n + nb * k
    out = MaskedBatch(
        tokens=np.empty(t_len, dtype=np.int64),
        position_ids=np.arange(t_len),
        gate=np.zeros(t_len, dtype=np.int8),
        block_anchor=np.full(t_len, NO_ANCHOR, dtype=np.int64),
        streams=_streams(n, anchors, k),
    )
    out.tokens[:n] = tokens
    out.gate[n:] = 1
    # Each block's rows, one row of these (nb, k) views.
    out.tokens[n:].reshape(nb, k)[...] = mask_ids
    out.block_anchor[n:].reshape(nb, k)[...] = anchors[:, None]
    out.position_ids[n:].reshape(nb, k)[...] = anchors[:, None] + np.arange(1, k + 1)
    return out


def _streams(n: int, anchors: np.ndarray, k: int) -> Streams:
    """The streams of n regular rows and one block of k rows for each of
    `anchors`, regular rows."""
    nb = anchors.size
    t_len = n + nb * k
    if t_len == n:
        # No mask row: the triangle.
        return Streams(t_len, 0, softmax_mask(np.tri(t_len, dtype=bool)))
    # Row a of the triangle admits the regular keys up to a: a regular row's
    # own, a mask row's anchor's. The block's keys up to each row's place in
    # its block, and none for a regular row.
    causal = np.tri(n, dtype=bool)
    allowed = np.zeros((t_len, n + k), dtype=bool)
    allowed[:n, :n] = causal
    allowed[n:, :n] = causal.take(np.repeat(anchors, k), axis=0)
    allowed[n:, n:].reshape(nb, k, k)[...] = np.tri(k, dtype=bool)
    return Streams(n, k, softmax_mask(allowed))


def build_training_batch(seq, loss_flags, mask_ids) -> MaskedBatch:
    """One sequence's training layout: the one-sequence training stack."""
    return build_training_stack([(seq, loss_flags)], mask_ids).select(0)


def build_training_stack(corpus, mask_ids) -> MaskedBatch:
    """A k-mask block for every loss-bearing token, for every (seq,
    loss_flags) pair of a corpus: the n regular rows, then the blocks.

    seq holds token ids (n >= 2); loss_flags[p] == 1 gives the row of
    seq[p] a next-token label and, unless p is the last position, a mask
    block. The sequences must share their length and loss flags, so that
    they share one layout: positions, gate, anchors and lcm_pairs are
    built once, and tokens, base_labels and prev_token are (N, T), row b
    of each sequence b's own. A ValueError names the first sequence whose
    length or flags differ from sequence 0's.

    A row at position p holds seq[p] (a mask id on mask rows). It is
    labelled seq[p + 1] iff p + 1 < n and it is a mask row or
    flags[p] == 1 (IGNORE_ID otherwise). Its previous token is seq[p] iff
    p < n (NO_TOKEN otherwise). A labelled mask row pairs in lcm_pairs
    with the regular row at its position, which shares its target, when
    that row is labelled too.
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
    seqs = np.stack([np.asarray(seq, dtype=np.int64) for seq, _ in corpus])
    flags = np.asarray(flags0, dtype=np.int64)
    mask_ids = np.asarray(mask_ids, dtype=np.int64)
    n, k = seqs.shape[1], mask_ids.shape[0]
    if n < 2:
        raise ValueError("sequence must have at least 2 tokens")
    if flags.shape != (n,):
        raise ValueError("loss_flags length must match the sequence")
    if k < 1:
        raise ValueError("need at least one mask id")

    layout = _layout(seqs[0], np.flatnonzero(flags[:-1] == 1), mask_ids)

    pos, regular = layout.position_ids, layout.gate == 0
    at, after = np.minimum(pos, n - 1), np.minimum(pos + 1, n - 1)
    labelled = (pos + 1 < n) & (~regular | (flags[at] == 1))
    layout.tokens = np.where(regular, seqs[:, at], layout.tokens)
    layout.base_labels = np.where(labelled, seqs[:, after], IGNORE_ID)
    layout.prev_token = np.where(pos < n, seqs[:, at], NO_TOKEN)
    mask_rows = np.flatnonzero(labelled & ~regular)
    partners = layout.ntp_rows[pos[mask_rows]]
    live = labelled[partners]
    layout.lcm_pairs = list(zip(mask_rows[live].tolist(), partners[live].tolist()))
    return layout


class DecodeTables:
    """The layout that one decode call cuts its layouts from, made once for
    the call's longest layout. Like `merge_adapters`' copy, tables live for
    one call: nothing is kept across calls.

    `longest` is `_layout`'s own layout of the call's longest quadratic
    layout: `rows` regular rows, then blocks of k that extend the last
    k + 1 of them (every row, when there are fewer). `rows` bounds the
    positions of the call's layouts (a layout with masks ends k past its
    regular rows). A quadratic layout with n regular rows is `longest`'s
    rows from rows - n on, with positions and anchors less rows - n; a
    causal or linear layout is the triangle of its first rows; a causal
    layout's anchors are a view of the tables' regular rows' own. A
    layout's tokens are one run of `longest.tokens`, and only those are
    written: each build rewrites them, so a layout's tokens hold until the
    next build from the same tables."""

    def __init__(self, rows: int, k: int):
        self.rows, self.k = rows, k
        self.longest = longest = _layout(np.zeros(rows), np.arange(max(rows - k - 1, 0), rows), np.zeros(k))
        for table in (longest.position_ids, longest.gate, longest.block_anchor, longest.streams.allowed):
            table.flags.writeable = False

    def layout(self, verified, speculated, mask_ids, quadratic: bool) -> MaskedBatch:
        """verified + speculated as the regular rows, then blocks of
        `mask_ids` extending the last regular row (linear; no block when
        mask_ids is empty) or each regular row from the last verified one on
        (quadratic, k blocks of the tables' k)."""
        n_ver, k = len(verified), len(mask_ids)
        n = n_ver + len(speculated)
        nb = k + 1 if quadratic else min(k, 1)
        t_len = n + nb * k
        if quadratic and k != self.k:
            raise ValueError(f"quadratic layout of {k} masks from tables of {self.k}")
        if n + (k if nb else 0) > self.rows or k > self.k:
            raise ValueError(f"layout of {t_len} rows does not fit decode tables of {self.rows} positions and {self.k} masks")
        longest, lo = self.longest, self.rows - n if quadratic else 0
        tokens = longest.tokens[lo : lo + t_len]
        tokens[:n_ver] = verified
        tokens[n_ver:n] = speculated
        tokens[n:].reshape(nb, k)[...] = mask_ids
        if quadratic:
            gate, positions = longest.gate[lo:], longest.position_ids[lo:] - lo
            anchor, streams = longest.block_anchor[lo:] - lo, Streams(n, k, longest.streams.allowed[lo:, lo:])
            anchor[:n] = NO_ANCHOR
        else:
            gate, positions = longest.gate[self.rows - n : self.rows + k], longest.position_ids[:t_len]
            streams = Streams(t_len, 0, longest.streams.allowed[:t_len, :t_len])
            # The tables' regular rows' anchors, all NO_ANCHOR; a causal cut's are a view.
            anchor = longest.block_anchor[:n]
            if nb:
                anchor = np.concatenate([anchor, np.full(k, n - 1)])
        return MaskedBatch(tokens, positions, gate, anchor, streams)


def build_linear_inference_input(verified, speculated, mask_ids, tables: DecodeTables | None = None) -> MaskedBatch:
    """verified + speculated + one tail mask block, fully causal.

    The tail block extends the last real token; its outputs are the next
    round of speculation when the whole current speculation verifies. With
    no mask id it is the causal layout of verified + speculated. The layout
    is cut from `tables` when given, else from tables made for it alone.
    """
    mask_ids = np.asarray(mask_ids, dtype=np.int64)
    k = mask_ids.shape[0]
    if not len(verified):
        raise ValueError("verified must be nonempty")
    if len(speculated) > k:
        raise ValueError("more speculated tokens than masks")
    if tables is None:
        tables = DecodeTables(len(verified) + len(speculated) + k, k)
    return tables.layout(verified, speculated, mask_ids, quadratic=False)


def build_quadratic_inference_input(verified, speculated, mask_ids, tables: DecodeTables | None = None) -> MaskedBatch:
    """verified + s_1..s_k, then k + 1 mask blocks, anchored at the last
    verified token and at each s_j.

    Chain token s_j sees the verified prefix and s_1..s_j, never a mask.
    Mask m_l of the block anchored at chain token c sees verified, the
    chain through c, and m_1..m_l of its own block only. The first block
    is anchored at the last verified token, so even a first-token
    rejection leaves fresh speculation. The layout is cut from `tables`
    when given, else from tables made for it alone.
    """
    mask_ids = np.asarray(mask_ids, dtype=np.int64)
    k = mask_ids.shape[0]
    if not len(verified):
        raise ValueError("verified must be nonempty")
    if len(speculated) != k:
        raise ValueError(f"quadratic layout needs exactly {k} speculated tokens")
    if tables is None:
        tables = DecodeTables(len(verified) + 2 * k, k)
    return tables.layout(verified, speculated, mask_ids, quadratic=True)


def causal_rows(tokens, tables: DecodeTables | None = None) -> MaskedBatch:
    """Plain causal layout over real tokens: the reference configuration,
    cut from `tables` when given, else from tables made for it alone."""
    if tables is None:
        tables = DecodeTables(len(tokens), 0)
    return tables.layout(tokens, (), (), quadratic=False)

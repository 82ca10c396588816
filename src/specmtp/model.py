"""Decoder-only transformer with a gated low-rank adapter on every linear.

Rows whose gate is 0 follow the frozen base weights exactly; rows whose
gate is 1 additionally go through the rank-r adapter path. Attention is
driven by an explicit allowed-set matrix so excluded keys get exactly
zero weight, which is what makes the gate-off guarantee bitwise.

`forward` takes one sequence's tokens (T,) or a stack (B, T) of sequences
that share one layout: positions, attention mask and gate are (T,)-shaped
and shared, and hidden and logits get the leading axis. A stack runs every
op once, on stacked operands, with each sequence's bytes (see tensor.py).
It checks the layout and the gate once per batch, then runs the pass,
written once (`_pass`) over an op namespace that the tape picks. Under
an active `Tape` that is the autodiff ops (training, and the test
oracle): one fused `lora_delta` per adapter, and per layer
`attention_scores`, `masked_softmax_rows` and `attention_context`. With
no tape it is their array helpers (`ArrayOps`): the same math in the
same order on plain arrays, with only `hidden` and `logits` wrapped as
Tensors, so both give the same bytes. On both, every adapter goes
through `gated_lora_apply`, which runs the ops matching its input.
Either runs with per-op finiteness scans off and scans its attention
scores and logits; a failed scan replays the pass on arrays with per-op
scans on to name the op (`scanned_once` in tensor.py).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# The autodiff ops below are also the taped pass's namespace (`_TAPED`):
# the pass looks them up as attributes of this module.
from .tensor import (
    ArrayOps,
    NumericsError,
    Tensor,
    _out,
    active_tape,
    add,
    attention_context,
    attention_scores,
    concat_rows,
    default_dtype,
    derive_rng,
    layer_norm,
    linear,
    lora_delta,
    masked_softmax_rows,
    scanned_once,
    silu,
    take_rows,
)

LORA_ALPHA_OVER_RANK = 2.0  # constant adapter multiplier (alpha = 2r)


@dataclass(frozen=True)
class ModelConfig:
    """Model sizes. The vocabulary reserves its top k_masks ids for
    the mask tokens; BOS/EOS/PAD are ordinary ids below them."""

    vocab_size: int
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 256
    k_masks: int = 4
    lora_rank: int = 8
    max_position: int = 512

    def __post_init__(self):
        if self.n_heads < 1:
            raise ValueError("n_heads must be >= 1")
        if self.d_model < 2 or self.d_model % 2:
            raise ValueError("d_model must be a positive even number")
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        if self.d_ff < 1:
            raise ValueError("d_ff must be >= 1")
        if self.max_position < 1:
            raise ValueError("max_position must be >= 1")
        if self.k_masks < 1:
            raise ValueError("k_masks must be >= 1")
        if self.lora_rank < 0:
            raise ValueError("lora_rank must be >= 0")
        if self.vocab_size <= self.k_masks:
            raise ValueError("vocab_size must exceed k_masks")

    @property
    def first_mask_id(self) -> int:
        return self.vocab_size - self.k_masks

    @property
    def mask_ids(self) -> np.ndarray:
        return np.arange(self.first_mask_id, self.vocab_size, dtype=np.int64)


@dataclass
class GatedLoraLinear:
    """Frozen weight W (out, in) plus trainable factors A (in, r), B (r, out).

    With rank 0 the factors are absent and the layer is the plain frozen
    linear for every row.
    """

    W: Tensor
    A: Tensor | None = None
    B: Tensor | None = None


@dataclass
class LayerWeights:
    attn_q: GatedLoraLinear
    attn_k: GatedLoraLinear
    attn_v: GatedLoraLinear
    attn_o: GatedLoraLinear
    ff_in: GatedLoraLinear
    ff_out: GatedLoraLinear
    ln1_gain: Tensor
    ln1_bias: Tensor
    ln2_gain: Tensor
    ln2_bias: Tensor


@dataclass
class ModelBundle:
    """Frozen base transformer plus the trainable extras.

    Trainable parameters are exactly: every adapter factor A and B, the
    mask-token embedding rows, and (externally) the sampler head. The
    unembedding is a frozen snapshot taken at init, so training the mask
    rows never perturbs any logit of a gate-0 row.
    """

    config: ModelConfig
    embed_base: Tensor  # (V - k, d) frozen
    embed_mask: Tensor  # (k, d) trainable
    layers: list[LayerWeights]
    final_ln_gain: Tensor
    final_ln_bias: Tensor
    unembed: Tensor  # (V, d) frozen
    pos_table: np.ndarray  # (max_position, d) constant

    def named_params(self) -> list[tuple[str, Tensor]]:
        """All weight tensors in a stable order (checkpoint order)."""
        out = [("embed.base", self.embed_base), ("embed.mask", self.embed_mask)]
        for i, lw in enumerate(self.layers):
            for part, g in (
                ("attn.q", lw.attn_q),
                ("attn.k", lw.attn_k),
                ("attn.v", lw.attn_v),
                ("attn.o", lw.attn_o),
                ("ff.in", lw.ff_in),
                ("ff.out", lw.ff_out),
            ):
                out.append((f"layers.{i}.{part}.W", g.W))
                if g.A is not None:
                    out.append((f"layers.{i}.{part}.A", g.A))
                    out.append((f"layers.{i}.{part}.B", g.B))
            out.append((f"layers.{i}.ln1.gain", lw.ln1_gain))
            out.append((f"layers.{i}.ln1.bias", lw.ln1_bias))
            out.append((f"layers.{i}.ln2.gain", lw.ln2_gain))
            out.append((f"layers.{i}.ln2.bias", lw.ln2_bias))
        out.append(("final_ln.gain", self.final_ln_gain))
        out.append(("final_ln.bias", self.final_ln_bias))
        out.append(("unembed", self.unembed))
        return out

    def trainable_params(self) -> list[tuple[str, Tensor]]:
        return [(n, t) for n, t in self.named_params() if t.requires_grad]

    def embedding_table(self) -> Tensor:
        """Full (V, d) table: frozen base rows stacked over the mask rows."""
        return concat_rows([self.embed_base, self.embed_mask])


def sinusoidal_positions(max_position: int, d_model: int) -> np.ndarray:
    """Absolute sin/cos table, computed in float64 then cast."""
    pos = np.arange(max_position, dtype=np.float64)[:, None]
    dim = np.arange(d_model // 2, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, 2.0 * dim / d_model)
    table = np.zeros((max_position, d_model), dtype=np.float64)
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)
    return table.astype(default_dtype())


def _draw(rng: np.random.Generator, std: float, shape) -> np.ndarray:
    return (rng.normal(0.0, std, size=shape)).astype(default_dtype())


def _gated_linear(seed: int, name: str, out_dim: int, in_dim: int, rank: int) -> GatedLoraLinear:
    w = Tensor(_draw(derive_rng(seed, name + ".W"), 1.0 / np.sqrt(in_dim), (out_dim, in_dim)))
    if rank == 0:
        return GatedLoraLinear(W=w)
    a = Tensor(
        _draw(derive_rng(seed, name + ".A"), 1.0 / np.sqrt(rank), (in_dim, rank)),
        requires_grad=True,
        name=name + ".A",
    )
    b = Tensor(
        np.zeros((rank, out_dim), dtype=default_dtype()),
        requires_grad=True,
        name=name + ".B",
    )
    return GatedLoraLinear(W=w, A=a, B=b)


def init_model(config: ModelConfig, seed: int) -> ModelBundle:
    """Deterministic init. Each tensor draws from its own name-derived
    stream, so the frozen base is bit-identical across ranks of the same
    seed (rank only adds or removes adapter tensors)."""
    c = config
    d, r = c.d_model, c.lora_rank
    embed_base = Tensor(
        _draw(derive_rng(seed, "embed.base"), 0.02, (c.vocab_size - c.k_masks, d)),
        name="embed.base",
    )
    embed_mask = Tensor(
        _draw(derive_rng(seed, "embed.mask"), 0.02, (c.k_masks, d)),
        requires_grad=True,
        name="embed.mask",
    )
    layers = []
    for i in range(c.n_layers):
        p = f"layers.{i}."
        layers.append(
            LayerWeights(
                attn_q=_gated_linear(seed, p + "attn.q", d, d, r),
                attn_k=_gated_linear(seed, p + "attn.k", d, d, r),
                attn_v=_gated_linear(seed, p + "attn.v", d, d, r),
                attn_o=_gated_linear(seed, p + "attn.o", d, d, r),
                ff_in=_gated_linear(seed, p + "ff.in", c.d_ff, d, r),
                ff_out=_gated_linear(seed, p + "ff.out", d, c.d_ff, r),
                ln1_gain=Tensor(np.ones(d, dtype=default_dtype())),
                ln1_bias=Tensor(np.zeros(d, dtype=default_dtype())),
                ln2_gain=Tensor(np.ones(d, dtype=default_dtype())),
                ln2_bias=Tensor(np.zeros(d, dtype=default_dtype())),
            )
        )
    unembed_data = np.concatenate([embed_base.data, embed_mask.data], axis=0).copy()
    return ModelBundle(
        config=c,
        embed_base=embed_base,
        embed_mask=embed_mask,
        layers=layers,
        final_ln_gain=Tensor(np.ones(d, dtype=default_dtype())),
        final_ln_bias=Tensor(np.zeros(d, dtype=default_dtype())),
        unembed=Tensor(unembed_data, name="unembed"),
        pos_table=sinusoidal_positions(c.max_position, d),
    )


def _check_gate(gate: np.ndarray, t_len: int) -> None:
    if gate.shape != (t_len,):
        raise NumericsError("gate length does not match row count")
    if not ((gate == 0) | (gate == 1)).all():
        raise NumericsError("gate entries must be 0 or 1")


def gated_lora_apply(
    layer: GatedLoraLinear,
    x: Tensor | np.ndarray,
    gate: np.ndarray,
    rows: np.ndarray | None = None,
    residual: Tensor | np.ndarray | None = None,
) -> Tensor | np.ndarray:
    """Row t gets W x_t, plus the scaled rank-r correction iff gate[t] == 1,
    plus residual_t when a residual is given.

    x and the residual are Tensors, run through the autodiff ops, or plain
    arrays, run through their array helpers (`ArrayOps`). `rows` are the
    gate's 1-rows when the caller has checked the gate already (`forward`
    does, once per pass); otherwise the gate is checked here. Gate-0 rows
    are returned untouched (no add of a zero), so they are bit-identical to
    the plain frozen linear.
    """
    if rows is None:
        gate = np.asarray(gate)
        _check_gate(gate, x.shape[-2])
        rows = np.flatnonzero(gate)
    ops = _TAPED if isinstance(x, Tensor) else ArrayOps
    base = ops.linear(x, layer.W)
    if layer.A is not None and rows.size:
        return ops.lora_delta(base, x, layer.A, layer.B, rows, LORA_ALPHA_OVER_RANK, residual)
    return base if residual is None else ops.add(residual, base)


# The taped pass's op namespace is this module, so the pass looks
# `masked_softmax_rows` up here at call time (perfbench times the taped pass
# by replacing it). The untaped one is `ArrayOps`.
_TAPED = sys.modules[__name__]


def _attends_ahead(allowed: np.ndarray) -> bool:
    """Whether some row of a (T, T) `allowed` admits a key after itself.
    Row i's later keys are one run of the flattened matrix, from just past
    its diagonal to the end of its row. `reduceat` ORs each run and each
    span between two runs; [::2] keeps the runs. O(T) memory."""
    t_len = allowed.shape[0]
    rows = np.arange(t_len - 1)
    runs = np.stack([rows * (t_len + 1) + 1, (rows + 1) * t_len], axis=1).ravel()
    return bool(np.logical_or.reduceat(allowed.ravel(), runs)[::2].any())


class ForwardResult(NamedTuple):
    hidden: Tensor  # (..., T, d) last-layer states after the final norm
    logits: Tensor  # (..., T, V)


def forward(
    model: ModelBundle,
    tokens,
    position_ids,
    attention_allowed: np.ndarray,
    gate,
) -> ForwardResult:
    """One pass over an arbitrary token/position/attention layout.

    tokens are (T,), or (B, T) for B sequences sharing the layout.
    attention_allowed[i, j] == 1 admits key j for query i; it must be
    lower-triangular with a full diagonal. Excluded keys get exactly zero
    attention weight. With no active tape the pass runs on plain arrays,
    with the same result. An empty layout is an error.
    """
    c = model.config
    tokens = np.asarray(tokens, dtype=np.int64)
    position_ids = np.asarray(position_ids, dtype=np.int64)
    gate = np.asarray(gate)
    t_len = tokens.shape[-1]
    if tokens.size == 0:
        raise NumericsError(f"empty layout: tokens of shape {tokens.shape} give no rows")
    allowed = np.asarray(attention_allowed).astype(bool, copy=False)
    if allowed.shape != (t_len, t_len):
        raise NumericsError("attention_allowed must be T x T")
    if _attends_ahead(allowed):
        raise NumericsError("attention to future rows is not allowed")
    if not allowed.diagonal().all():
        raise NumericsError("every row must attend to itself")
    if position_ids.shape != (t_len,):
        raise NumericsError("position_ids must hold one position per row")
    if tokens.min() < 0 or tokens.max() >= c.vocab_size:
        raise NumericsError("token id out of range")
    if position_ids.min() < 0 or position_ids.max() >= c.max_position:
        raise NumericsError("position id exceeds max_position")
    _check_gate(gate, t_len)
    rows = np.flatnonzero(gate)

    def run(ops):
        return _pass(ops, model, tokens, position_ids, allowed, gate, rows)

    def fast():
        if active_tape() is None:
            return ForwardResult(*map(_out, run(ArrayOps)))
        return ForwardResult(*run(_TAPED))

    return scanned_once(fast, lambda: run(ArrayOps), lambda out: out.logits.data)


def _pass(ops, model, tokens, position_ids, allowed, gate, rows) -> tuple:
    """The pass over op namespace `ops`, the autodiff ops (`_TAPED`) or
    their array helpers (`ArrayOps`); `rows` are the checked gate's 1-rows.
    Every adapter goes through this module's `gated_lora_apply`, looked up
    at call time on both paths; it picks the ops matching its input.
    Returns (hidden, logits) as the namespace's values."""
    c = model.config
    x = ops.add(ops.take_rows(model.embedding_table(), tokens), ops.Tensor(model.pos_table[position_ids]))
    for lw in model.layers:
        h = ops.layer_norm(x, lw.ln1_gain, lw.ln1_bias)
        q, k, v = (gated_lora_apply(g, h, gate, rows) for g in (lw.attn_q, lw.attn_k, lw.attn_v))
        weights = ops.masked_softmax_rows(ops.attention_scores(q, k, c.n_heads), allowed)
        heads = ops.attention_context(weights, v)
        x = gated_lora_apply(lw.attn_o, heads, gate, rows, residual=x)
        h2 = ops.layer_norm(x, lw.ln2_gain, lw.ln2_bias)
        ff = ops.silu(gated_lora_apply(lw.ff_in, h2, gate, rows))
        x = gated_lora_apply(lw.ff_out, ff, gate, rows, residual=x)

    hidden = ops.layer_norm(x, model.final_ln_gain, model.final_ln_bias)
    return hidden, ops.linear(hidden, model.unembed)

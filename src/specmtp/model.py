"""Decoder-only transformer with a gated low-rank adapter on every linear.

Rows whose gate is 0 follow the frozen base weights exactly; rows whose
gate is 1 additionally go through the rank-r adapter path. Attention is
driven by an explicit allowed-set matrix so excluded keys get exactly
zero weight, which is what makes the gate-off guarantee bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .tensor import (
    NumericsError,
    Tensor,
    add,
    concat_rows,
    default_dtype,
    derive_rng,
    layer_norm,
    linear,
    masked_softmax_rows,
    matmul,
    reshape,
    row_scatter_add,
    scale,
    silu,
    take_rows,
    transpose,
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


def gated_lora_apply(layer: GatedLoraLinear, x: Tensor, gate: np.ndarray) -> Tensor:
    """Row t gets W x_t, plus the scaled rank-r correction iff gate[t] == 1.

    Gate-0 rows are returned untouched (no add of a zero), so they are
    bit-identical to the plain frozen linear.
    """
    gate = np.asarray(gate)
    if gate.shape != (x.data.shape[0],):
        raise NumericsError("gate length does not match row count")
    if not np.isin(gate, (0, 1)).all():
        raise NumericsError("gate entries must be 0 or 1")
    base = linear(x, layer.W)
    rows = np.flatnonzero(gate)
    if layer.A is None or rows.size == 0:
        return base
    xr = take_rows(x, rows)
    delta = scale(matmul(matmul(xr, layer.A), layer.B), LORA_ALPHA_OVER_RANK)
    return row_scatter_add(base, rows, delta)


class ForwardResult(NamedTuple):
    hidden: Tensor  # (T, d) last-layer states after the final norm
    logits: Tensor  # (T, V)


def forward(
    model: ModelBundle,
    tokens,
    position_ids,
    attention_allowed: np.ndarray,
    gate,
) -> ForwardResult:
    """One pass over an arbitrary token/position/attention layout.

    attention_allowed[i, j] == 1 admits key j for query i; it must be
    lower-triangular with a full diagonal. Excluded keys get exactly zero
    attention weight.
    """
    c = model.config
    tokens = np.asarray(tokens, dtype=np.int64)
    position_ids = np.asarray(position_ids, dtype=np.int64)
    gate = np.asarray(gate)
    t_len = tokens.shape[0]
    allowed = np.asarray(attention_allowed).astype(bool)
    if allowed.shape != (t_len, t_len):
        raise NumericsError("attention_allowed must be T x T")
    if np.triu(allowed, 1).any():
        raise NumericsError("attention to future rows is not allowed")
    if not allowed.diagonal().all():
        raise NumericsError("every row must attend to itself")
    if tokens.min() < 0 or tokens.max() >= c.vocab_size:
        raise NumericsError("token id out of range")
    if position_ids.min() < 0 or position_ids.max() >= c.max_position:
        raise NumericsError("position id exceeds max_position")

    table = model.embedding_table()
    x = add(take_rows(table, tokens), Tensor(model.pos_table[position_ids]))

    head_dim = c.d_model // c.n_heads
    inv_sqrt = 1.0 / np.sqrt(head_dim)
    split = (t_len, c.n_heads, head_dim)
    for lw in model.layers:
        h = layer_norm(x, lw.ln1_gain, lw.ln1_bias)
        # Every head at once: q and v as (H, T, d_h), k as (H, d_h, T).
        q = transpose(reshape(gated_lora_apply(lw.attn_q, h, gate), split), (1, 0, 2))
        k = transpose(reshape(gated_lora_apply(lw.attn_k, h, gate), split), (1, 2, 0))
        v = transpose(reshape(gated_lora_apply(lw.attn_v, h, gate), split), (1, 0, 2))
        weights = masked_softmax_rows(scale(matmul(q, k), inv_sqrt), allowed)
        heads = reshape(transpose(matmul(weights, v), (1, 0, 2)), (t_len, c.d_model))
        attn = gated_lora_apply(lw.attn_o, heads, gate)
        x = add(x, attn)
        h2 = layer_norm(x, lw.ln2_gain, lw.ln2_bias)
        ff = gated_lora_apply(lw.ff_out, silu(gated_lora_apply(lw.ff_in, h2, gate)), gate)
        x = add(x, ff)

    hidden = layer_norm(x, model.final_ln_gain, model.final_ln_bias)
    logits = linear(hidden, model.unembed)
    return ForwardResult(hidden=hidden, logits=logits)

"""Two-block MLP head that picks coherent tokens from mask-row states.

Each block is linear -> SiLU -> LayerNorm. The input is the previous
token's embedding concatenated with the current hidden state; the output
feature goes through the shared frozen unembedding, so the head adds no
vocabulary-sized weights of its own.

The two blocks are written once, in `sampler_features`, over an op
namespace. `sampler_logits_rows`, the batched head that training uses,
runs them as autodiff ops. `sampler_logits`, the one-position decode head,
runs them as the ops' array helpers (`ArrayOps`) on plain arrays (the
hidden row may be a bare array) and wraps only the logits, with the same
bytes as the batched head. So the decode-time chain makes no Tensors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor
from .tensor import ArrayOps, Tensor, _out, concat_cols, default_dtype, derive_rng, linear, scanned_once, take_rows


@dataclass
class SamplerHead:
    l1: Tensor  # (d, 2d)
    ln1_gain: Tensor
    ln1_bias: Tensor
    l2: Tensor  # (d, d)
    ln2_gain: Tensor
    ln2_bias: Tensor

    def named_params(self) -> list[tuple[str, Tensor]]:
        return [
            ("sampler.l1", self.l1),
            ("sampler.ln1.gain", self.ln1_gain),
            ("sampler.ln1.bias", self.ln1_bias),
            ("sampler.l2", self.l2),
            ("sampler.ln2.gain", self.ln2_gain),
            ("sampler.ln2.bias", self.ln2_bias),
        ]

    def trainable_params(self) -> list[tuple[str, Tensor]]:
        return [(n, t) for n, t in self.named_params() if t.requires_grad]


def init_sampler(d_model: int, seed: int) -> SamplerHead:
    def draw(name, shape, std):
        return Tensor(
            derive_rng(seed, name).normal(0.0, std, size=shape).astype(default_dtype()),
            requires_grad=True,
            name=name,
        )

    d = d_model
    return SamplerHead(
        l1=draw("sampler.l1", (d, 2 * d), 1.0 / np.sqrt(2 * d)),
        ln1_gain=Tensor(np.ones(d, dtype=default_dtype()), requires_grad=True, name="sampler.ln1.gain"),
        ln1_bias=Tensor(np.zeros(d, dtype=default_dtype()), requires_grad=True, name="sampler.ln1.bias"),
        l2=draw("sampler.l2", (d, d), 1.0 / np.sqrt(d)),
        ln2_gain=Tensor(np.ones(d, dtype=default_dtype()), requires_grad=True, name="sampler.ln2.gain"),
        ln2_bias=Tensor(np.zeros(d, dtype=default_dtype()), requires_grad=True, name="sampler.ln2.bias"),
    )


def sampler_features(head: SamplerHead, x, ops):
    """x (R, 2d) -> (R, d) through the two blocks, over op namespace `ops`:
    the autodiff ops (`specmtp.tensor`), or their array helpers (`ArrayOps`)
    for a plain-array x."""
    h = ops.layer_norm(ops.silu(ops.linear(x, head.l1)), head.ln1_gain, head.ln1_bias)
    return ops.layer_norm(ops.silu(ops.linear(h, head.l2)), head.ln2_gain, head.ln2_bias)


def sampler_logits_rows(
    head: SamplerHead, unembed: Tensor, embeddings: Tensor, prev_ids, z_rows: Tensor
) -> Tensor:
    """Batched head: prev-token embeddings joined with hiddens -> (R, V)."""
    prev_ids = np.asarray(prev_ids, dtype=np.int64)
    e_prev = take_rows(embeddings, prev_ids)
    feats = sampler_features(head, concat_cols([e_prev, z_rows]), tensor)
    return linear(feats, unembed)


def sampler_logits(
    head: SamplerHead, unembed: Tensor, embeddings: Tensor, prev_token: int, z
) -> Tensor:
    """Logits (V,) for one position, conditioned on prev_token and the
    hidden row z (d,): a Tensor or a plain array. Not differentiable;
    training uses sampler_logits_rows."""
    if prev_token < 0 or prev_token >= embeddings.data.shape[0]:
        raise ValueError(f"prev_token {prev_token} outside the vocabulary")
    zd = z.data if isinstance(z, Tensor) else np.asarray(z)

    def run():
        x = np.concatenate([embeddings.data[[prev_token]], zd.reshape(1, zd.shape[-1])], axis=1)
        return ArrayOps.linear(sampler_features(head, x, ArrayOps), unembed)

    logits = scanned_once(run, run)
    return _out(logits.reshape(logits.shape[1]))


def sampler_chain(
    head: SamplerHead, unembed: Tensor, embeddings: Tensor, seed_token: int, zs
) -> list[int]:
    """Greedy left-to-right pick: each step conditions on the previous pick.

    zs holds one hidden row per position: Tensors, or the rows of one
    array. Ties break to the lowest token id (np.argmax convention).
    """
    if len(zs) == 0:
        raise ValueError("sampler_chain needs at least one hidden state")
    out: list[int] = []
    prev = seed_token
    for z in zs:
        logits = sampler_logits(head, unembed, embeddings, prev, z)
        prev = int(np.argmax(logits.data))
        out.append(prev)
    return out

"""Two-block MLP head that picks coherent tokens from mask-row states.

Each block is linear -> SiLU -> LayerNorm. The input is the previous
token's embedding concatenated with the current hidden state; the output
feature goes through the shared frozen unembedding, so the head adds no
vocabulary-sized weights of its own.

The two blocks are written once, in `sampler_features`, over an op
namespace. `sampler_logits_rows`, the batched head that training uses,
runs them as autodiff ops. `sampler_logits`, the decode head, runs them as
the ops' array helpers (`ArrayOps`) on plain arrays and returns plain
logits: the same bytes as the batched head over the same rows. So
decoding makes no Tensors.

Sampler table. The head sees the previous token only through its
embedding row, so `sampler_chain` runs the head once per step
(`sampler_logits`), over the seed token's pair with the first position
and every (position, previous token) pair of the other k - 1 positions:
1 + (k - 1) V rows. It reads its k picks off that table, starting from
the seed token; it does not run k one-row passes, each waiting for the
last pick. The table scans the logits of every row once, so a non-finite
logit in any row, on the chain or off it, raises `NumericsError` naming
the op that overflowed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields

import numpy as np

from . import tensor
from .model import Param, draw_params, param_tensors
from .tensor import ArrayOps, Tensor, concat_cols, linear, scanned_once, take_rows


@dataclass
class SamplerHead:
    l1: Tensor  # (d, 2d)
    ln1_gain: Tensor
    ln1_bias: Tensor
    l2: Tensor  # (d, d)
    ln2_gain: Tensor
    ln2_bias: Tensor

    def named_params(self) -> list[tuple[str, Tensor]]:
        """Every weight in field order, named sampler.<field> with its
        underscore as a dot (`sampler_params` order)."""
        return [(f"sampler.{f.name.replace('_', '.')}", getattr(self, f.name)) for f in fields(self)]

    def trainable_params(self) -> list[tuple[str, Tensor]]:
        return [(n, t) for n, t in self.named_params() if t.requires_grad]


@functools.cache
def sampler_params(d_model: int) -> tuple[Param, ...]:
    """The head's weights in `named_params` order, every one trainable."""
    d = d_model
    return (
        Param("sampler.l1", (d, 2 * d), "normal", 1.0 / np.sqrt(2 * d), trainable=True),
        Param("sampler.ln1.gain", (d,), "ones", trainable=True),
        Param("sampler.ln1.bias", (d,), "zeros", trainable=True),
        Param("sampler.l2", (d, d), "normal", 1.0 / np.sqrt(d), trainable=True),
        Param("sampler.ln2.gain", (d,), "ones", trainable=True),
        Param("sampler.ln2.bias", (d,), "zeros", trainable=True),
    )


def build_sampler(d_model: int, arrays: dict[str, np.ndarray]) -> SamplerHead:
    """The head whose weights are `arrays` by name (`param_tensors`)."""
    return SamplerHead(*param_tensors(sampler_params(d_model), arrays).values())


def init_sampler(d_model: int, seed: int) -> SamplerHead:
    return build_sampler(d_model, draw_params(sampler_params(d_model), seed))


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
    head: SamplerHead, unembed: Tensor, embeddings: Tensor, seed_token: int, zs: np.ndarray
) -> np.ndarray:
    """The chain's table for its (k, d) hidden rows zs: the first row
    paired with `seed_token`, then every other row with each id of the
    (V, d) embedding table, the (1 + (k - 1) V, V) logits of those pairs,
    z-major, as a plain array. The pairs run as the rows [E[prev] | z] of
    one array, so the table has the bytes of `sampler_logits_rows` over
    those rows. Not differentiable; training uses sampler_logits_rows."""
    emb = embeddings.data
    if not 0 <= seed_token < emb.shape[0]:
        raise ValueError(f"seed_token {seed_token} outside the vocabulary")
    v, d = emb.shape[0], zs.shape[-1]

    def run():
        x = np.empty((1 + (len(zs) - 1) * v, emb.shape[1] + d), dtype=np.result_type(emb, zs))
        x[0, :-d], x[0, -d:] = emb[seed_token], zs[0]
        pairs = x[1:].reshape(len(zs) - 1, v, x.shape[1])
        pairs[..., :-d] = emb
        pairs[..., -d:] = zs[1:, None]
        return ArrayOps.linear(sampler_features(head, x, ArrayOps), unembed)

    return scanned_once(run, run)


def sampler_chain(
    head: SamplerHead, unembed: Tensor, embeddings: Tensor, seed_token: int, zs: np.ndarray
) -> list[int]:
    """Greedy left-to-right pick: each step conditions on the previous pick.

    zs (k, d) holds one hidden row per position. One head run
    (`sampler_logits`) gives the first pick, from the seed token, and the
    picks for every (position, previous token) pair after it; the chain
    looks its picks up. Ties break to the lowest token id (np.argmax
    convention).
    """
    if len(zs) == 0:
        raise ValueError("sampler_chain needs at least one hidden state")
    vocab = embeddings.data.shape[0]
    picks = sampler_logits(head, unembed, embeddings, seed_token, zs).argmax(axis=-1)
    out = [int(picks[0])]
    for j in range(1, len(zs)):
        out.append(int(picks[1 + (j - 1) * vocab + out[-1]]))
    return out

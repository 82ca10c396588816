"""Decoder-only transformer with a gated low-rank adapter on every linear.

Rows whose gate is 0 follow the frozen base weights exactly; rows whose
gate is 1 run the merged weight W + c (A B)^T in place of W, LoRA's merge
(arXiv 2106.09685) kept to the gated rows. Keys outside a row's
visibility get exactly zero attention weight, which is what makes the
gate-off guarantee bitwise.

`forward` takes a layout in batching.py's form, regular rows first and
mask blocks after them, with the attention its builder made once
(`batching.Streams`): n_reg regular rows, blocks of `block` mask rows, one
(T, n_reg + block) `allowed` matrix, and the first output row. Each layer
runs one op pair around one `masked_softmax_rows`: `attention_scores`
scores every query row against the n_reg regular keys (one product) and
each mask row against its own block's keys as well (one batched (nb, k,
k) product), and `attention_context` forms every row's context from the
regular values and adds each block's own. A regular row's block columns
are excluded, so it reads the regular rows alone, as the content stream
of XLNet's two streams (arXiv 1906.08237) does. A causal layout, and a
linear one whose single block extends the last regular row, see the lower
triangle of their rows: they are n_reg = T, block = 0, the causal
attention of one product. Every row-wise op (norms, linears, adapters)
runs over all T rows, but in the last layer of a pass with context rows.

Context rows are regular rows whose keys and values every layer computes
but whose output no caller reads: a decode pass reads only the rows from
its last verified one on, and says so by the streams' `first` row. Every
layer then runs LN1 and the key and value adapters over every row, and the
last layer runs the rest, from its query adapter to the unembedding, only
from the first output row on: its attention ops take fewer query rows than
keys and values, the layout's last rows. The result keeps T rows: a
context row's hidden row and logits are zeros.

The regular rows never see a mask row, and at gate 0 they run the frozen
base, so while no base weight trains their keys, values, hidden rows and
logits cannot change. Every pass returns each layer's keys and values
(`ForwardResult.kv`) beside its hidden rows and logits, so a causal pass's
result is those rows' cache, and `forward` takes it back (`regular`): that
pass runs the mask rows alone, as the query stream that reads a content
stream computed once, and attends to the given keys and values through
the same op pair. Gated training computes each sequence's regular rows
once per `train()` call this way.

`forward` takes one sequence's tokens (T,) or a stack (B, T) of sequences
that share one layout: positions, streams and gate are shared, and hidden
and logits get the leading axis. A stack runs every op once, on stacked
operands, with each sequence's bytes (see tensor.py). It checks that the
streams fit the tokens, the id and position ranges, and the gate, once per
batch, then runs the pass, written once (`_pass`) over an op namespace
that the tape picks. A decode call's passes enter through `decode_pass`,
which runs the same pass with the same bytes and leaves out the checks the
call makes once for all of them: the id and position ranges, and the gate
pattern of its builders' layouts. Under
an active `Tape` that is the autodiff ops of `tensor.py` (training, and
the test oracle): one fused `gated_linear` per adapter and the fused
attention ops. With no tape it is their array helpers (`ArrayOps`): the
same math in the same order on plain arrays, with only `hidden` and
`logits` wrapped as Tensors, so both give the same bytes. On both, every
adapter goes through `gated_lora_apply` and every softmax through
`masked_softmax_rows`, this module's globals, which run the op matching
their input. The gate is 0s, then 1s (`_gate_start`): a layout's own gate
is 1 on its mask rows, which come last, and the ungated ablation's on
every row. So the adapters take the gated rows as one `start` row and run
the merged weight on the view of the rows from it on. Each call merges
the weight from the live factors, except in a decode call, whose passes
read a copy of the model that carries every merged weight, formed once
per call (`merge_adapters`). Either pass runs with per-op finiteness
scans off and scans its attention scores and logits; a failed scan
replays the pass on arrays with per-op scans on to name the op
(`scanned_once` in tensor.py).

A bundle is built from named arrays by one path (`build_model`), which
one table of names, shapes, draws and trainable flags drives
(`model_params`; the sampler head's is `sampler.sampler_params`). Init
draws every array, a checkpoint load takes the file's and draws nothing,
and a clone copies the base's and draws only what it adds.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import tensor
from .tensor import (
    ArrayOps,
    NumericsError,
    Tensor,
    _out,
    active_tape,
    concat_rows,
    default_dtype,
    derive_rng,
    masked_softmax_data,
    merge_data,
    scanned_once,
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
    linear for every row. `merged`, the weight W + c (A B)^T (out, in) of
    the gated rows, is set only on the copy that `merge_adapters` makes
    for one decode call; elsewhere each call forms it from A and B.
    """

    W: Tensor
    A: Tensor | None = None
    B: Tensor | None = None
    merged: np.ndarray | None = None


# The gated linears of a layer, as LayerWeights fields.
ADAPTERS = ("attn_q", "attn_k", "attn_v", "attn_o", "ff_in", "ff_out")


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

    What trains is the parameter table's flag (`model_params`). The
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
    pos_table: np.ndarray  # (max_position, d) constant, read-only
    table: Tensor | None = None  # (V, d), held only by a decode call's copy

    def named_params(self) -> list[tuple[str, Tensor]]:
        """All weight tensors in a stable order (checkpoint order)."""
        out = [("embed.base", self.embed_base), ("embed.mask", self.embed_mask)]
        for i, lw in enumerate(self.layers):
            for name in ADAPTERS:
                g, part = getattr(lw, name), name.replace("_", ".")
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
        """Full (V, d) table: frozen base rows stacked over the mask rows;
        the one a decode call's copy holds, else a taped concat."""
        if self.table is not None:
            return self.table
        return concat_rows([self.embed_base, self.embed_mask])


@functools.cache
def sinusoidal_positions(max_position: int, d_model: int, dtype: type) -> np.ndarray:
    """Absolute sin/cos table, computed in float64 then cast: one read-only
    array per size and dtype, which every bundle shares."""
    pos = np.arange(max_position, dtype=np.float64)[:, None]
    dim = np.arange(d_model // 2, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, 2.0 * dim / d_model)
    table = np.zeros((max_position, d_model), dtype=np.float64)
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)
    table = table.astype(dtype)
    table.flags.writeable = False
    return table


class Param(NamedTuple):
    """One weight of a parameter table: its checkpoint name, its shape, the
    draw init makes of it, and whether it trains. `init` is "normal" (from
    the name's own stream, with std `std`), "zeros", "ones", or "unembed"
    (the two embedding tables drawn before it, stacked)."""

    name: str
    shape: tuple[int, ...]
    init: str
    std: float = 0.0
    trainable: bool = False


def draw_params(table: tuple[Param, ...], seed: int, given: dict | None = None) -> dict[str, np.ndarray]:
    """Each array of `table` by name: given[name] where given, else init's
    draw of it from `seed`. Each name draws from its own stream, so what is
    given shifts no other draw."""
    arrays = dict(given or {})
    for p in table:
        if p.name in arrays:
            continue
        if p.init == "normal":
            arrays[p.name] = derive_rng(seed, p.name).normal(0.0, p.std, size=p.shape).astype(default_dtype())
        elif p.init == "unembed":
            arrays[p.name] = np.concatenate([arrays["embed.base"], arrays["embed.mask"]], axis=0)
        else:
            arrays[p.name] = (np.ones if p.init == "ones" else np.zeros)(p.shape, dtype=default_dtype())
    return arrays


def param_tensors(table: tuple[Param, ...], arrays: dict[str, np.ndarray]) -> dict[str, Tensor]:
    """arrays[name] for each weight of `table`, as a Tensor with its name and
    trainable flag. The arrays are taken as they are, with no scan: init's
    draws, a clone's copies, or a checkpoint's checked arrays."""
    out = {}
    for p in table:
        t = out[p.name] = _out(arrays[p.name])
        t.requires_grad, t.name = p.trainable, p.name
    return out


@functools.cache
def model_params(config: ModelConfig) -> tuple[Param, ...]:
    """The bundle's weights in `named_params` order. The frozen base draws
    normal weights, unit gains and zero biases, and an unembedding stacked
    from the embedding rows; the adapter factors A (normal) and B (zeros)
    and the mask rows train."""
    c = config
    d, r = c.d_model, c.lora_rank
    table = [
        Param("embed.base", (c.vocab_size - c.k_masks, d), "normal", 0.02),
        Param("embed.mask", (c.k_masks, d), "normal", 0.02, trainable=True),
    ]
    for i in range(c.n_layers):
        for name in ADAPTERS:
            part = f"layers.{i}.{name.replace('_', '.')}"
            out_dim, in_dim = {"ff_in": (c.d_ff, d), "ff_out": (d, c.d_ff)}.get(name, (d, d))
            table.append(Param(part + ".W", (out_dim, in_dim), "normal", 1.0 / np.sqrt(in_dim)))
            if r:
                table.append(Param(part + ".A", (in_dim, r), "normal", 1.0 / np.sqrt(r), trainable=True))
                table.append(Param(part + ".B", (r, out_dim), "zeros", trainable=True))
        for norm in ("ln1", "ln2"):
            table += [Param(f"layers.{i}.{norm}.gain", (d,), "ones"), Param(f"layers.{i}.{norm}.bias", (d,), "zeros")]
    table += [
        Param("final_ln.gain", (d,), "ones"),
        Param("final_ln.bias", (d,), "zeros"),
        Param("unembed", (c.vocab_size, d), "unembed"),
    ]
    return tuple(table)


def build_model(config: ModelConfig, arrays: dict[str, np.ndarray]) -> ModelBundle:
    """The bundle whose weights are `arrays` by name (`param_tensors` over
    `model_params`), plus the position table."""
    t = param_tensors(model_params(config), arrays)

    def layer(i: int) -> LayerWeights:
        p = f"layers.{i}."
        linears = {
            n: GatedLoraLinear(*(t.get(f"{p}{n.replace('_', '.')}.{w}") for w in "WAB")) for n in ADAPTERS
        }
        norms = {f"{n}_{k}": t[f"{p}{n}.{k}"] for n in ("ln1", "ln2") for k in ("gain", "bias")}
        return LayerWeights(**linears, **norms)

    return ModelBundle(
        config=config,
        embed_base=t["embed.base"],
        embed_mask=t["embed.mask"],
        layers=[layer(i) for i in range(config.n_layers)],
        final_ln_gain=t["final_ln.gain"],
        final_ln_bias=t["final_ln.bias"],
        unembed=t["unembed"],
        pos_table=sinusoidal_positions(config.max_position, config.d_model, default_dtype()),
    )


def init_model(config: ModelConfig, seed: int) -> ModelBundle:
    """Deterministic init. Each tensor draws from its own name-derived
    stream, so the frozen base is bit-identical across ranks of the same
    seed (rank only adds or removes adapter tensors)."""
    return build_model(config, draw_params(model_params(config), seed))


def _gate_start(gate: np.ndarray, t_len: int) -> int | None:
    """The first gated row of a gate of 0s, then 1s, or None when no row is
    gated. Any other gate is an error."""
    if gate.shape != (t_len,):
        raise NumericsError("gate length does not match row count")
    start = t_len - int(np.count_nonzero(gate))
    # The last t_len - start rows are all 1 exactly when the nonzero entries
    # are 1s and are those rows.
    if not (gate[start:] == 1).all():
        if not ((gate == 0) | (gate == 1)).all():
            raise NumericsError("gate entries must be 0 or 1")
        raise NumericsError("gate must be 0s, then 1s: the gated rows must be the last rows")
    return start if start < t_len else None


def check_token_range(config: ModelConfig, lowest, highest) -> None:
    """`forward`'s token id check, given a layout's lowest and highest id."""
    if lowest < 0 or highest >= config.vocab_size:
        raise NumericsError("token id out of range")


def gated_lora_apply(
    layer: GatedLoraLinear,
    x: Tensor | np.ndarray,
    start: int | None,
    residual: Tensor | np.ndarray | None = None,
) -> Tensor | np.ndarray:
    """Row t gets M x_t with the merged weight M = W + c (A B)^T for
    t >= start, else W x_t, plus residual_t when a residual is given; a
    `start` of None gates no row (`_gate_start`).

    x and the residual are Tensors, run through the autodiff op, or plain
    arrays, run through its array helper (`ArrayOps`). M is the layer's
    own when `merge_adapters` set it, else formed in the call. Ungated rows
    are the plain frozen linear's, bit for bit.
    """
    ops = tensor if isinstance(x, Tensor) else ArrayOps
    if layer.A is None or start is None:
        base = ops.linear(x, layer.W)
        return base if residual is None else ops.add(residual, base)
    return ops.gated_linear(x, layer.W, layer.A, layer.B, start, LORA_ALPHA_OVER_RANK, residual, layer.merged)


def merge_adapters(model: ModelBundle) -> ModelBundle:
    """A copy of `model` that holds its embedding table and whose gated
    linears carry their merged weight (`merge_data`), each formed once, for
    the passes of one decode call; every other field is the model's own
    object. A copy made before the weights change holds stale ones, so it
    must not outlive the call."""

    def merged(g: GatedLoraLinear) -> GatedLoraLinear:
        return g if g.A is None else replace(g, merged=merge_data(g.W.data, g.A.data, g.B.data, LORA_ALPHA_OVER_RANK))

    layers = [replace(lw, **{n: merged(getattr(lw, n)) for n in ADAPTERS}) for lw in model.layers]
    return replace(model, table=model.embedding_table(), layers=layers)


def masked_softmax_rows(scores: Tensor | np.ndarray, allowed: np.ndarray) -> Tensor | np.ndarray:
    """The attention softmax of both passes: the autodiff op for Tensor
    scores, `masked_softmax_data` for arrays. Both passes call it as this
    module's global, so a replacement (a profiler's, say) sees both."""
    if isinstance(scores, Tensor):
        return tensor.masked_softmax_rows(scores, allowed)
    return masked_softmax_data(scores, allowed)


class ForwardResult(NamedTuple):
    hidden: Tensor  # (..., T, d) last-layer states after the final norm; 0 on context rows
    logits: Tensor  # (..., T, V); 0 on context rows
    kv: tuple  # per layer, the (keys, values) arrays (..., T, D) of the rows the pass ran

    def select(self, picks) -> "ForwardResult":
        """The rows of sequences `picks` of a stack's pass, as `MaskedBatch.select`."""
        kv = tuple((k[picks], v[picks]) for k, v in self.kv)
        return ForwardResult(_out(self.hidden.data[picks]), _out(self.logits.data[picks]), kv)


def forward(
    model: ModelBundle,
    tokens,
    position_ids,
    streams,
    gate,
    regular: ForwardResult | None = None,
) -> ForwardResult:
    """One pass over a layout of batching.py's form: regular rows first,
    then mask blocks, whose attention is the layout's `Streams` (a builder
    makes them with the layout); keys outside it get exactly zero attention
    weight. The gate, 0s then 1s, picks the rows that run the adapters,
    independently of the streams.

    tokens are (T,), or (B, T) for B sequences sharing the layout. With no
    active tape the pass runs on plain arrays, with the same result. An
    empty layout is an error, and so are streams that do not fit the
    tokens (`allowed` must have T rows, and `first` must be a row, at most
    `n_reg`), an id outside the vocabulary, a position outside
    0..max_position - 1, and a gate other than 0s, then 1s. A decode call
    makes the last three checks once for all its passes (`decode_pass`).

    The rows before `streams.first`, regular rows of the streams, are
    context rows. Each layer computes their keys and values, but the last
    layer runs its query side, and the pass its final norm and unembedding,
    only from the first output row on (`_pass`): their hidden rows and
    logits come back as zeros, `kv` holds every row. The output rows agree
    with a pass with no context row up to rounding: a product over fewer
    rows can give other last bits. A taped pass, whose losses read every
    row, and a pass given `regular` reject them.

    The result also holds each layer's keys and values as plain arrays
    (`kv`), so the result of a causal pass over a layout's regular rows is
    their cache. Given it as `regular`, a pass over a layout with mask
    blocks after the same regular rows, none of them gated, runs the mask
    rows alone: each layer attends to the given keys and values and the
    mask rows' own, hidden and logits are the given rows' joined over the
    mask rows', and `kv` holds the mask rows' own. The given rows take
    no gradient. When they are the full pass's own, every mask row gets
    that pass's bytes as long as a product's bytes do not depend on how
    many rows it runs over (the tests check this at their sizes).
    """
    c = model.config
    tokens = np.asarray(tokens, dtype=np.int64)
    position_ids = np.asarray(position_ids, dtype=np.int64)
    gate = np.asarray(gate)
    _check_rows(tokens, position_ids, streams)
    check_token_range(c, tokens.min(), tokens.max())
    if position_ids.min() < 0 or position_ids.max() >= c.max_position:
        raise NumericsError("position id exceeds max_position")
    return _scanned_pass(model, tokens, position_ids, streams, _gate_start(gate, tokens.shape[-1]), regular)


def decode_pass(model: ModelBundle, tokens, position_ids, streams, gate) -> ForwardResult:
    """`forward` for the layouts of a decode call, which reach it as
    `decoding.forward`: the same pass, bytes and result (T rows by absolute
    row, context rows zero), less the checks that the call has made once
    for all its passes. The call checks its prompt's ids, and each
    speculation that an override gives; every other id it feeds back is an
    argmax over the vocabulary. It builds only layouts whose positions fit
    below max_position. Its builders (batching.py) give arrays and a gate
    of 0s, then 1s, whose first gated row is its count of 0s. The rows and
    streams are checked as `forward` checks them."""
    _check_rows(tokens, position_ids, streams)
    t_len = tokens.shape[-1]
    start = t_len - int(np.count_nonzero(gate))
    return _scanned_pass(model, tokens, position_ids, streams, start if start < t_len else None)


def _check_rows(tokens: np.ndarray, position_ids: np.ndarray, streams) -> None:
    """A layout has rows, and its streams and positions fit them."""
    t_len = tokens.shape[-1]
    if tokens.size == 0:
        raise NumericsError(f"empty layout: tokens of shape {tokens.shape} give no rows")
    n, first = streams.n_reg, streams.first
    if streams.allowed.shape[0] != t_len:
        raise NumericsError(f"streams of {streams.allowed.shape[0]} rows for {t_len} rows of tokens")
    if not 0 <= first <= min(n, t_len - 1):
        raise NumericsError(
            f"first output row {first} outside 0..{min(n, t_len - 1)}: "
            "context rows are regular rows, and at least one row is output"
        )
    if position_ids.shape != (t_len,):
        raise NumericsError("position_ids must hold one position per row")


def _scanned_pass(model, tokens, position_ids, streams, start, regular=None) -> ForwardResult:
    """The pass over checked rows, run under `scanned_once`; `start` is the
    first gated row (None for none)."""
    n, first = streams.n_reg, streams.first
    if first and active_tape() is not None:
        raise NumericsError("context rows under an active tape: a taped pass outputs every row, as training reads them")
    if first and regular is not None:
        raise NumericsError(
            "context rows with regular rows given: a pass given its regular rows outputs every mask row"
        )
    if regular is not None:
        gated_regular = start is not None and start < n
        if regular.hidden.shape[:-1] != tokens.shape[:-1] + (n,) or not streams.block or gated_regular:
            raise NumericsError(
                f"regular rows {regular.hidden.shape[:-1]} given for tokens {tokens.shape} with {n} regular "
                "rows: they must be the layout's ungated regular rows, and mask blocks must follow them"
            )
        tokens, position_ids = tokens[..., n:], position_ids[n:]
        streams = streams._replace(allowed=streams.allowed[n:])
        start = None if start is None else start - n

    def run(ops):
        return _pass(ops, model, tokens, position_ids, streams, start, regular)

    def fast():
        if active_tape() is not None:
            hidden, logits, kv = run(tensor)
            return ForwardResult(hidden, logits, tuple((k.data, v.data) for k, v in kv))
        hidden, logits, kv = run(ArrayOps)
        return ForwardResult(_out(hidden), _out(logits), tuple(kv))

    return scanned_once(fast, lambda: run(ArrayOps), lambda out: out.logits.data)


def _pass(ops, model, tokens, position_ids, streams, start, regular=None) -> tuple:
    """The pass over op namespace `ops`, the autodiff ops (`tensor`) or
    their array helpers (`ArrayOps`); `start` is the first gated row (None
    for none). With `regular`, the layout's regular rows come from outside
    the pass (a causal pass's result): tokens, positions, `streams.allowed`
    and `start` are those of the mask rows after them, each layer attends
    to the given keys and values, and hidden and logits are joined under
    the given ones' arrays. With context rows (`streams.first` > 0, arrays
    only), every layer runs LN1 and the key and value adapters over every
    row, and the last layer runs the rest from row `first` on: its query
    adapter, its attention, whose queries are those rows and whose keys
    and values are every row's, then o, LN2, the MLP, the final norm and
    the unembedding; the context rows' hidden and logits are zeros. Every
    adapter goes through this module's `gated_lora_apply`, and every
    softmax through its `masked_softmax_rows`, looked up at call time on
    both paths; each picks the op matching its input. Returns (hidden,
    logits, each layer's (keys, values) of the pass's own rows) as the
    namespace's values."""
    c = model.config
    n, block, allowed, first = streams
    x = ops.add(ops.take_rows(model.embedding_table(), tokens), ops.Tensor(model.pos_table[position_ids]))
    kv = []
    last = len(model.layers) - 1
    for i, lw in enumerate(model.layers):
        h = ops.layer_norm(x, lw.ln1_gain, lw.ln1_bias)
        r = first if i == last else 0  # the layer's first query row
        q_start = start if start is None or not r else max(start - r, 0)
        q = gated_lora_apply(lw.attn_q, h[..., r:, :] if r else h, q_start)
        k, v = (gated_lora_apply(g, h, start) for g in (lw.attn_k, lw.attn_v))
        kv.append((k, v))
        k_reg, v_reg = (None, None) if regular is None else regular.kv[i]
        if r:
            x, allowed, start = x[..., r:, :], allowed[r:], q_start
        scores = ops.attention_scores(q, k, c.n_heads, n, block, k_reg)
        heads = ops.attention_context(masked_softmax_rows(scores, allowed), v, n, block, v_reg)
        x = gated_lora_apply(lw.attn_o, heads, start, residual=x)
        h2 = ops.layer_norm(x, lw.ln2_gain, lw.ln2_bias)
        ff = ops.silu(gated_lora_apply(lw.ff_in, h2, start))
        x = gated_lora_apply(lw.ff_out, ff, start, residual=x)

    hidden = ops.layer_norm(x, model.final_ln_gain, model.final_ln_bias)
    logits = ops.linear(hidden, model.unembed)
    if regular is not None:
        hidden = ops.concat_rows([regular.hidden.data, hidden])
        logits = ops.concat_rows([regular.logits.data, logits])
    elif first:
        # A context row's last-layer ops did not run: its rows are zeros.
        zeros = [np.zeros(a.shape[:-2] + (first, a.shape[-1]), a.dtype) for a in (hidden, logits)]
        hidden, logits = ops.concat_rows([zeros[0], hidden]), ops.concat_rows([zeros[1], logits])
    return hidden, logits, kv

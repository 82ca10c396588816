"""The chains of elementary ops that the fused ops in `specmtp.tensor`
replace, the out-of-place softmax that the in-place one replaces, the
per-sequence training loop, each sequence's regular rows from its own
causal pass, that the stacked training step replaces,
the pair-by-pair consistency loss that `lcm_loss` replaces, the
serial sampler chain, one one-row head pass per position, that the
sampler table replaces, the `np.where` sigmoid numerator that
`silu_data`'s `np.maximum` replaces, a layer's attention, regular
keys and mask blocks, written with elementary ops, the pass whose last
layer runs only from its first output row on, written with them, and the
AdamW with one update and one pair of moment arrays per parameter that
the flat AdamW replaces, init written tensor by tensor, which the parameter table
replaces, and the clone that drew a whole model and then overwrote its
base weights, which the clone that draws only what it adds replaces.
Each is its replacement's oracle: values, gradients, optimizer state and
weights must match it byte for byte.
The visibility rule's (T, T) matrix, which no layout builds, is the
oracle of the `allowed` matrix of the streams a layout's builder makes.
The elementary ops that only these chains and the tests use are written
here too, on the engine's helpers and tape."""

from dataclasses import replace

import numpy as np
from conftest import run_batch

from specmtp import tensor as tz
from specmtp.batching import NO_ANCHOR, causal_rows
from specmtp.losses import base_and_sampler_ce, lcm_loss, total_loss
from specmtp.model import (
    LORA_ALPHA_OVER_RANK, GatedLoraLinear, LayerWeights, ModelBundle, forward, init_model,
    sinusoidal_positions,
)
from specmtp.sampler import SamplerHead, sampler_features
from specmtp.tensor import ArrayOps, NumericsError, Tensor, _out, _record, default_dtype, derive_rng, scanned_once
from specmtp.training import adamw_step


def matmul(a, b):
    """Tensor form of `matmul_data` for operands with the same leading axes."""
    ad, bd = a.data, b.data
    if ad.ndim != bd.ndim:
        raise NumericsError(f"matmul shape mismatch {ad.shape} x {bd.shape}")
    out = _out(tz.matmul_data(ad, bd))
    return _record(out, (a, b), lambda g: (g @ bd.swapaxes(-1, -2), ad.swapaxes(-1, -2) @ g))


def transpose(x, axes=None):
    """Contiguous copy of x with its axes permuted; with no `axes`, reversed
    (the 2-D transpose)."""
    if axes is not None and sorted(axes) != list(range(x.data.ndim)):
        raise NumericsError(f"transpose axes {axes} do not permute {x.data.shape}")
    out = _out(np.ascontiguousarray(x.data.transpose(axes)))
    inverse = None if axes is None else tuple(np.argsort(axes))
    return _record(out, (x,), lambda g: (np.ascontiguousarray(g.transpose(inverse)),))


def reshape(x, shape):
    out = _out(x.data.reshape(shape))
    return _record(out, (x,), lambda g, s=x.data.shape: (g.reshape(s),))


def row_scatter_add_data(base, idx, delta):
    """Copy of base (..., T, d) with delta added at (unique) row indices idx."""
    if base.ndim < 2 or delta.shape != base.shape[:-2] + (idx.size, base.shape[-1]):
        raise NumericsError("row_scatter_add shape mismatch")
    out = base.copy()
    out[..., idx, :] += delta
    return tz._finite(out, "row_scatter_add")


def row_scatter_add(base, idx, delta):
    """Tensor form of `row_scatter_add_data`."""
    idx = np.asarray(idx, dtype=np.int64)
    out = _out(row_scatter_add_data(base.data, idx, delta.data))
    return _record(out, (base, delta), lambda g: (g, g.take(idx, axis=-2)))


def softmax_rows(x):
    """Row-stochastic softmax: the masked softmax with every cell allowed,
    so -inf entries are exact exclusions (weight 0)."""
    p = tz._softmax_core(x.data, np.ones(x.data.shape[-1:], dtype=bool))
    return _record(_out(p, "softmax_rows"), (x,), lambda g: (tz._softmax_backward(g, p),))


def sum_all(x):
    out = _out(np.asarray(x.data.sum(), dtype=x.data.dtype), "sum_all")
    return _record(out, (x,), lambda g, d=x.data: (np.full(d.shape, g, dtype=d.dtype),))


def row_put(base, rows, value):
    """Copy of base (..., T, d) with its (unique) rows replaced by value;
    backward: base takes g with those rows zeroed, value takes g's rows."""
    rows = np.asarray(rows, dtype=np.int64)
    if base.data.ndim < 2 or value.data.shape != base.data.shape[:-2] + (rows.size, base.data.shape[-1]):
        raise NumericsError("row_put shape mismatch")
    out = base.data.copy()
    out[..., rows, :] = value.data

    def bw(g):
        kept = g.copy()
        kept[..., rows, :] = 0
        return kept, g.take(rows, axis=-2)

    return _record(_out(out), (base, value), bw)


def gated_linear_chain(x, w, a, b, rows, c, residual=None):
    """gated_linear over (T, in) x as linear, the merge (matmul, scale,
    transpose and add to W), take_rows, linear with the merged weight and
    row_put, then add(residual, .) when a residual is given."""
    base = tz.linear(x, w)
    merged = tz.add(w, transpose(tz.scale(matmul(a, b), c)))
    out = row_put(base, rows, tz.linear(tz.take_rows(x, rows), merged))
    return out if residual is None else tz.add(residual, out)


def _split_heads(x, n_heads, axes):
    t_len, d = x.shape
    return transpose(reshape(x, (t_len, n_heads, d // n_heads)), axes)


def _regular_rows(x, x_reg, n_reg):
    """The n_reg regular keys (or values) of a layout, outside, then own:
    x's first n_reg rows (take_rows), or the constant rows x_reg of the
    layout's first r rows, then x's first n_reg - r (concat_rows)."""
    if x_reg is None:
        return tz.take_rows(x, np.arange(n_reg))
    own = n_reg - x_reg.shape[0]
    outside = tz.Tensor(x_reg)
    return tz.concat_rows([outside, tz.take_rows(x, np.arange(own))]) if own else outside


def _mask_rows(q, k, n_reg, block, k_reg):
    """The first mask row of q and of k, for queries that are a layout's
    last rows and keys that are its rows after the r rows of k_reg."""
    t_len = (0 if k_reg is None else k_reg.shape[0]) + k.shape[0]
    return n_reg - (t_len - q.shape[-2]), n_reg - (t_len - k.shape[0])


def scores_chain(q, k, n_heads, n_reg, block, k_reg=None):
    """attention_scores over (T, D) q and k as reshape/transpose x2 ->
    matmul -> scale. With mask blocks after the first n_reg rows: every
    row's product with the regular keys (take_rows, reshape/transpose,
    matmul), each block's queries times its own keys (take_rows,
    reshape/transpose, a batched matmul) under a zero filler for the
    regular rows' block columns (concat_rows), the two joined by
    concat_cols, then the scale. With a constant (r, D) `k_reg`, the
    regular keys are its rows, then k's first n_reg - r, and k holds the
    layout's rows from row r on (`_regular_rows`). q may hold fewer rows
    than the layout: its last ones."""
    t_q, d = q.shape
    dh = d // n_heads
    qh = _split_heads(q, n_heads, (1, 0, 2))
    if not block:
        keys = k if k_reg is None else _regular_rows(k, k_reg, n_reg)
        return tz.scale(matmul(qh, _split_heads(keys, n_heads, (1, 2, 0))), 1.0 / np.sqrt(dh))
    lo_q, lo_k = _mask_rows(q, k, n_reg, block, k_reg)
    m = t_q - lo_q
    blocks = (n_heads, m // block, block, dh)
    kr = _split_heads(_regular_rows(k, k_reg, n_reg), n_heads, (1, 2, 0))
    qb = reshape(_split_heads(tz.take_rows(q, np.arange(lo_q, t_q)), n_heads, (1, 0, 2)), blocks)
    kb = _split_heads(tz.take_rows(k, np.arange(lo_k, k.shape[0])), n_heads, (1, 0, 2))
    kb = transpose(reshape(kb, blocks), (0, 1, 3, 2))
    filler = tz.Tensor(np.zeros((n_heads, lo_q, block), dtype=q.data.dtype))
    by_block = tz.concat_rows([filler, reshape(matmul(qb, kb), (n_heads, m, block))])
    return tz.scale(tz.concat_cols([matmul(qh, kr), by_block]), 1.0 / np.sqrt(dh))


def cols(x, lo, hi):
    """The columns x[..., lo:hi] as a copy; backward adds g into zeros."""
    out = _out(x.data[..., lo:hi].copy())

    def bw(g, shape=x.data.shape, dtype=x.data.dtype):
        gx = np.zeros(shape, dtype=dtype)
        gx[..., lo:hi] += g
        return (gx,)

    return _record(out, (x,), bw)


def context_chain(p, v, n_reg, block, v_reg=None):
    """attention_context over (H, T, n_reg + block) weights and (T, D)
    values as reshape/transpose -> matmul -> transpose -> reshape. With
    mask blocks: every row's regular columns times the regular values
    (column slice, take_rows, reshape/transpose, matmul), each block's rows'
    block columns times its own values (take_rows, column slice,
    reshape/transpose, a batched matmul), added into those rows (take_rows,
    add, concat_rows), then the transpose and reshape. With a constant
    (r, D) `v_reg`, the regular values are its rows, then v's first
    n_reg - r, and v holds the layout's rows from row r on. p may hold
    fewer rows than the layout: its last ones."""
    n_heads, t_q, width = p.shape
    shape = (t_q, v.shape[1])
    if not block:
        values = v if v_reg is None else _regular_rows(v, v_reg, n_reg)
        return reshape(transpose(matmul(p, _split_heads(values, n_heads, (1, 0, 2))), (1, 0, 2)), shape)
    lo_q, lo_v = _mask_rows(p, v, n_reg, block, v_reg)
    m, reg, mask = t_q - lo_q, np.arange(lo_q), np.arange(lo_q, t_q)
    dh = v.shape[1] // n_heads
    blocks = (n_heads, m // block, block)
    vr = _split_heads(_regular_rows(v, v_reg, n_reg), n_heads, (1, 0, 2))
    vb = reshape(_split_heads(tz.take_rows(v, np.arange(lo_v, v.shape[0])), n_heads, (1, 0, 2)), blocks + (dh,))
    pb = reshape(cols(tz.take_rows(p, mask), n_reg, width), blocks + (block,))
    ctx = matmul(cols(p, 0, n_reg), vr)
    by_block = reshape(matmul(pb, vb), (n_heads, m, dh))
    ctx = tz.concat_rows([tz.take_rows(ctx, reg), tz.add(tz.take_rows(ctx, mask), by_block)])
    return reshape(transpose(ctx, (1, 0, 2)), shape)


def attention_chain(q, k, v, streams, n_heads):
    """The attention of a layer over (T, D) q, k, v, as elementary ops:
    scores, the masked softmax over `streams.allowed`, context. `streams`
    is a layout's `Streams` (its `first` unread) or any (n_reg, block,
    allowed) triple."""
    n_reg, block, allowed = streams[:3]
    p = tz.masked_softmax_rows(scores_chain(q, k, n_heads, n_reg, block), allowed)
    return context_chain(p, v, n_reg, block)


def _lora_chain(layer, x, gate):
    """gated_lora_apply with its gated linear as the elementary chain, on
    the gate's 1-rows by number; the frozen linear alone for no gated row
    or no factors."""
    rows = np.flatnonzero(gate)
    if layer.A is None or rows.size == 0:
        return tz.linear(x, layer.W)
    return gated_linear_chain(x, layer.W, layer.A, layer.B, rows, LORA_ALPHA_OVER_RANK)


def context_pass_chain(model, batch, first):
    """The pass over one sequence's layout whose rows before `first` are
    context rows, written with the chain ops under the layout's own gate:
    every layer runs LN1 and the key and value adapters over every row, and
    the last layer runs its query adapter, its attention (those rows'
    queries against every row's keys and values, `scores_chain` /
    `context_chain`), o, LN2 and the MLP, then the final norm and the
    unembedding, on the rows from `first` on (take_rows). Returns (hidden, logits), zeros on the
    context rows, and each layer's keys and values of every row, as
    arrays."""
    c = model.config
    n_reg, block, allowed, _ = batch.streams
    x = tz.add(tz.take_rows(model.embedding_table(), batch.tokens), tz.Tensor(model.pos_table[batch.position_ids]))
    kv = []
    for i, lw in enumerate(model.layers):
        r = first if i == len(model.layers) - 1 else 0
        rows, gate = np.arange(r, batch.size), batch.gate[r:]
        h = tz.layer_norm(x, lw.ln1_gain, lw.ln1_bias)
        q = _lora_chain(lw.attn_q, tz.take_rows(h, rows) if r else h, gate)
        k, v = (_lora_chain(g, h, batch.gate) for g in (lw.attn_k, lw.attn_v))
        kv.append((k.data, v.data))
        if r:
            x = tz.take_rows(x, rows)
        p = tz.masked_softmax_rows(scores_chain(q, k, c.n_heads, n_reg, block), allowed[r:])
        x = tz.add(x, _lora_chain(lw.attn_o, context_chain(p, v, n_reg, block), gate))
        h2 = tz.layer_norm(x, lw.ln2_gain, lw.ln2_bias)
        x = tz.add(x, _lora_chain(lw.ff_out, tz.silu(_lora_chain(lw.ff_in, h2, gate)), gate))
    hidden = tz.layer_norm(x, model.final_ln_gain, model.final_ln_bias)
    logits = tz.linear(hidden, model.unembed)
    hidden, logits = (np.concatenate([np.zeros((first,) + t.shape[1:], t.data.dtype), t.data]) for t in (hidden, logits))
    return hidden, logits, kv


def visibility_rule(block_anchor, k):
    """batching.py's visibility rule as a (T, T) matrix: allowed[i, j] iff
    row i sees row j. A regular row (NO_ANCHOR) sees the regular rows up to
    itself; a mask row sees the regular rows up to its anchor and the rows
    of its block up to itself. The mask rows after the regular rows are
    blocks of k rows each, in order, whatever their anchors."""
    anchor = np.asarray(block_anchor)
    rows = np.arange(anchor.size)
    regular = anchor == NO_ANCHOR
    reach = np.where(regular, rows, anchor)
    block_of = np.where(regular, -1, (rows - np.count_nonzero(regular)) // max(k, 1))
    own_block = ~regular[:, None] & (block_of[:, None] == block_of[None, :]) & (rows[None, :] <= rows[:, None])
    return (regular[None, :] & (rows[None, :] <= reach[:, None])) | own_block


def streams_matrix(streams, t_len):
    """The (T, T) visibility that a layout's streams describe. A regular
    row's block columns stand for no key, so none may be allowed."""
    n, blk, allowed = streams[:3]
    if not blk:
        return allowed.copy()
    assert not allowed[:n, n:].any(), "a regular row's block column is allowed"
    out = np.zeros((t_len, t_len), dtype=bool)
    out[:, :n] = allowed[:, :n]
    for lo in range(n, t_len, blk):
        out[lo : lo + blk, lo : lo + blk] = allowed[lo : lo + blk, n:]
    return out


def silu_where(xd):
    """silu_data with its sigmoid numerator from np.where(x >= 0, 1.0, e)."""
    e = np.exp(-np.abs(xd))
    s = np.where(xd >= 0, 1.0, e) / (1.0 + e)
    return xd * s, s


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


def lcm_chain(hidden, lcm_pairs):
    """lcm_loss with its gap formed twice and its anchor weights counted
    pair by pair in a dict."""
    if not lcm_pairs:
        return tz.Tensor(np.zeros(hidden.data.shape[:-2], dtype=hidden.data.dtype))
    mask_rows = np.array([p[0] for p in lcm_pairs], dtype=np.int64)
    anchor_rows = np.array([p[1] for p in lcm_pairs], dtype=np.int64)
    anchors = tz.detach(tz.take_rows(hidden, anchor_rows))
    mtp = tz.take_rows(hidden, mask_rows)
    per_pair = tz.mean_axis1(tz.mul(tz.sub(mtp, anchors), tz.sub(mtp, anchors)))
    counts: dict[int, int] = {}
    for a in anchor_rows:
        counts[int(a)] = counts.get(int(a), 0) + 1
    n_anchors = len(counts)
    weights = np.array([1.0 / (n_anchors * counts[int(a)]) for a in anchor_rows])
    return tz.dot_const(per_pair, weights)


def causal_regular_rows(model, batch):
    """One sequence's regular rows as constants, from an untaped causal
    pass over them alone."""
    causal = causal_rows(batch.tokens[batch.ntp_rows])
    return forward(model, causal.tokens, causal.position_ids, causal.streams, causal.gate)


def per_sequence_step(model, sampler, batches, picks, config):
    """One training step as a loop with one taped pass per sequence, the
    stacked step's oracle: forward, losses and total per sequence, the
    totals chained by `add`, their mean differentiated. Gated, each
    sequence's regular rows come from its own causal pass before the tape
    (`causal_regular_rows`), and its taped pass runs the mask rows alone.
    Returns the loss Tensor and the base, sampler and lcm terms summed over
    the sequences."""
    regular = [causal_regular_rows(model, batches[si]) if config.gated else None for si in picks]
    with tz.Tape() as tape:
        acc = None
        comp = [0.0, 0.0, 0.0]
        for si, rows in zip(picks, regular):
            batch = batches[si]
            gate = batch.gate if config.gated else np.ones(batch.size, dtype=np.int8)
            out = forward(model, batch.tokens, batch.position_ids, batch.streams, gate, regular=rows)
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
            out = run_batch(model, batch)
            loss = tz.cross_entropy(out.logits, batch.base_labels)
            acc = loss if acc is None else tz.add(acc, loss)
        loss = tz.scale(acc, 1.0 / len(picks))
    tz.backward(tape, loss)
    return loss


def one_position_logits(head, unembed, embeddings, prev_token, z):
    """Sampler logits (V,) for one previous token and one hidden row (d,),
    run as a one-row pass: the oracle of `sampler_logits` at one position."""
    if prev_token < 0 or prev_token >= embeddings.data.shape[0]:
        raise ValueError(f"prev_token {prev_token} outside the vocabulary")
    zd = z.data if isinstance(z, tz.Tensor) else np.asarray(z)

    def run():
        x = np.concatenate([embeddings.data[[prev_token]], zd.reshape(1, zd.shape[-1])], axis=1)
        return ArrayOps.linear(sampler_features(head, x, ArrayOps), unembed)

    logits = scanned_once(run, run)
    return _out(logits.reshape(logits.shape[1]))


def serial_sampler_chain(head, unembed, embeddings, seed_token, zs):
    """The sampler chain as k one-row head passes, each conditioned on the
    pick before it. Returns the picks and each pass's logits (V,)."""
    picks, rows, prev = [], [], seed_token
    for z in zs:
        logits = one_position_logits(head, unembed, embeddings, prev, z).data
        prev = int(np.argmax(logits))
        picks.append(prev)
        rows.append(logits)
    return picks, rows


class PerArrayAdamW:
    """AdamW with one `adamw_step` call and one m and v array per
    parameter, keyed by name. Construction gives each parameter without a
    grad a zero one, and `zero_grad` gives each a fresh zero grad, so every
    step updates every parameter."""

    def __init__(self, params, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
        self.params = params
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {n: np.zeros_like(p.data) for n, p in params}
        self.v = {n: np.zeros_like(p.data) for n, p in params}
        for _, p in params:
            if p.grad is None:
                p.grad = np.zeros_like(p.data)

    def zero_grad(self):
        for _, p in self.params:
            p.grad = np.zeros_like(p.data)

    def step(self, lr):
        self.t += 1
        for name, p in self.params:
            adamw_step(
                p.data, p.grad, self.m[name], self.v[name], self.t,
                lr, self.betas, self.eps, self.weight_decay,
            )


def clone_by_overwrite(base, rank, seed):
    """`clone_base_with_rank` as init of the whole model at `rank`, then
    every base weight overwritten by a copy of the base's."""
    model = init_model(replace(base.config, lora_rank=rank), seed)
    fresh = dict(model.named_params())
    for name, t in base.named_params():
        if name == "embed.mask" or name.endswith(".A") or name.endswith(".B"):
            continue
        fresh[name].data = t.data.copy()
    return model


def _drawn(seed, name, std, shape, requires_grad=False):
    data = derive_rng(seed, name).normal(0.0, std, size=shape).astype(default_dtype())
    return Tensor(data, requires_grad=requires_grad, name=name)


def _const(fill, shape, requires_grad=False):
    return Tensor(np.full(shape, fill, dtype=default_dtype()), requires_grad=requires_grad)


def init_by_hand(config, seed):
    """`init_model` written tensor by tensor: each weight drawn from its
    name's stream, gains 1, biases 0, B 0, the unembedding a copy of the
    two embedding tables."""
    c, d, r = config, config.d_model, config.lora_rank

    def gated(name, out_dim, in_dim):
        w = _drawn(seed, name + ".W", 1.0 / np.sqrt(in_dim), (out_dim, in_dim))
        if not r:
            return GatedLoraLinear(W=w)
        a = _drawn(seed, name + ".A", 1.0 / np.sqrt(r), (in_dim, r), True)
        return GatedLoraLinear(W=w, A=a, B=_const(0.0, (r, out_dim), True))

    base = _drawn(seed, "embed.base", 0.02, (c.vocab_size - c.k_masks, d))
    mask = _drawn(seed, "embed.mask", 0.02, (c.k_masks, d), True)
    layers = []
    for i in range(c.n_layers):
        p = f"layers.{i}."
        dims = dict(attn_q=(d, d), attn_k=(d, d), attn_v=(d, d), attn_o=(d, d), ff_in=(c.d_ff, d), ff_out=(d, c.d_ff))
        linears = {n: gated(p + n.replace("_", "."), *dims[n]) for n in dims}
        norms = {f"ln{j}_{k}": _const(1.0 if k == "gain" else 0.0, d) for j in (1, 2) for k in ("gain", "bias")}
        layers.append(LayerWeights(**linears, **norms))
    return ModelBundle(
        config=c, embed_base=base, embed_mask=mask, layers=layers,
        final_ln_gain=_const(1.0, d), final_ln_bias=_const(0.0, d),
        unembed=Tensor(np.concatenate([base.data, mask.data], axis=0)),
        pos_table=sinusoidal_positions(c.max_position, d, default_dtype()),
    )


def init_sampler_by_hand(d_model, seed):
    """`init_sampler` written tensor by tensor; every weight trains."""
    d = d_model
    return SamplerHead(
        l1=_drawn(seed, "sampler.l1", 1.0 / np.sqrt(2 * d), (d, 2 * d), True),
        ln1_gain=_const(1.0, d, True), ln1_bias=_const(0.0, d, True),
        l2=_drawn(seed, "sampler.l2", 1.0 / np.sqrt(d), (d, d), True),
        ln2_gain=_const(1.0, d, True), ln2_bias=_const(0.0, d, True),
    )

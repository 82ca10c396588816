"""The gate guarantee: rows with gate 0 behave exactly like the base model
no matter what the adapters contain.

Every linear layer computes W x_t, and on the rows the gate selects it
runs the merged weight W + c (A B)^T in place of W. Gate-off rows are
returned untouched, so a model
stuffed with arbitrary adapter values is bit-identical to a rank-0 model
wherever the gate is off. Exits 1 if any printed claim is false."""

import sys

import numpy as np

from specmtp import ModelConfig, build_training_batch, forward, gated_lora_apply, init_model
from specmtp.model import LORA_ALPHA_OVER_RANK
from specmtp.tensor import Tensor, merge_data

failed = []


def claim(text: str, holds) -> None:
    print(f"{text}: {bool(holds)}")
    if not holds:
        failed.append(text)


CFG = dict(vocab_size=14, d_model=16, n_layers=2, n_heads=2, d_ff=32, k_masks=3)

adapted = init_model(ModelConfig(lora_rank=8, **CFG), seed=42)
reference = init_model(ModelConfig(lora_rank=0, **CFG), seed=42)

# Same seed, wildly different adapters: name-derived init streams mean the
# frozen base tensors still agree bit for bit.
rng = np.random.default_rng(7)
for lw in adapted.layers:
    for g in (lw.attn_q, lw.attn_k, lw.attn_v, lw.attn_o, lw.ff_in, lw.ff_out):
        g.A.data = rng.normal(0, 1.0, g.A.data.shape).astype(np.float32)
        g.B.data = rng.normal(0, 1.0, g.B.data.shape).astype(np.float32)

same_base = all(
    np.array_equal(dict(adapted.named_params())[n].data, t.data)
    for n, t in reference.named_params()
    if not n.endswith((".A", ".B"))
)
claim("frozen base tensors identical across ranks", same_base)

# One layer, trailing gate: the gated rows come last, as a layout's mask
# rows do, so the adapter takes them as one start row. Gate-0 rows are
# untouched, gate-1 rows merged.
lin = adapted.layers[0].attn_q
x = Tensor(np.random.default_rng(1).normal(size=(4, 16)).astype(np.float32))
gate = np.array([0, 0, 1, 1])
start = int(np.argmax(gate))
out = gated_lora_apply(lin, x, start)
base = x.data @ lin.W.data.T
claim("gate-0 rows bitwise equal to W x", np.array_equal(out.data[:start], base[:start]))
claim("gate-1 rows moved by the adapter", np.abs(out.data[start:] - base[start:]).max() > 0)
merged = merge_data(lin.W.data, lin.A.data, lin.B.data, LORA_ALPHA_OVER_RANK)
claim("gate-1 rows bitwise equal to (W + c (A B)^T) x", np.array_equal(out.data[start:], x.data[start:] @ merged.T))

# Whole model: a masked batch keeps regular rows inside a gate-0 world,
# so their logits match the rank-0 model exactly.
seq = np.random.default_rng(2).integers(0, 11, size=8)
batch = build_training_batch(seq, np.ones(8, dtype=int), adapted.config.mask_ids)
n_reg = int((batch.gate == 0).sum())
print(f"layout: {n_reg} regular rows first, then {batch.size - n_reg} mask rows in blocks of 3;")
print("  gate:", "".join(map(str, batch.gate)))
print("  block anchors of the mask rows:", batch.block_anchor[n_reg:].tolist())
got = forward(adapted, batch.tokens, batch.position_ids, batch.streams, batch.gate)
ref = forward(reference, batch.tokens, batch.position_ids, batch.streams, batch.gate)
rows = batch.ntp_rows
claim(
    "regular-row logits bitwise equal to the rank-0 model",
    np.array_equal(got.logits.data[rows], ref.logits.data[rows]),
)
claim(
    "mask-row logits differ (that is the point)",
    np.abs(got.logits.data[batch.mtp_rows] - ref.logits.data[batch.mtp_rows]).max() > 0,
)
if failed:
    sys.exit(f"false claims: {failed}")

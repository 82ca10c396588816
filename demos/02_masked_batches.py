"""What a masked training batch looks like, and why regular rows cannot
tell it apart from a plain causal pass.

For a sequence x_1..x_n, a block of k mask tokens extends every
loss-bearing token. Each block asks "and what comes after prefix i?", so
one forward answers n such prompts at once. The layout puts the regular
rows first and the blocks after them, and its builder makes the attention
`forward` takes, the layout's streams: every row scores the regular keys,
a regular row those up to itself and no mask row, and each block the
regular rows up to its anchor and itself."""

import numpy as np

from specmtp import ModelConfig, build_training_batch, causal_rows, forward, init_model

SEQ = [0, 1, 2]  # think "a b c"
MASKS = np.array([5, 6])

batch = build_training_batch(SEQ, [1, 1, 1], MASKS)

names = {0: "a", 1: "b", 2: "c", 5: "m1", 6: "m2"}
print("row layout (token / position / gate / label / block anchor):")
for r in range(batch.size):
    label = batch.base_labels[r]
    print(
        f"  row {r}: {names[int(batch.tokens[r])]:>3}"
        f"  pos {batch.position_ids[r]}"
        f"  gate {batch.gate[r]}"
        f"  label {names.get(int(label), '-'):>2}"
        f"  anchor {batch.block_anchor[r]}"
    )

# The attention the builder made with the layout: every row over the
# regular keys, then its own block's keys; a regular row has no block
# column, so it stays blind to every mask row.
streams = batch.streams
n, block = streams.n_reg, streams.block
print(f"\nstreams: n_reg {n}, block {block}, first output row {streams.first}")
print(f"allowed: {n} regular keys, then blocks of {block} (row may look at column):")
keys = [names[int(t)] for t in batch.tokens[:n]], [f"m{j + 1}" for j in range(block)]
print("       " + " ".join(f"{c:>2}" for c in keys[0]) + "  |" + " ".join(f"{c:>2}" for c in keys[1]))
for r, allowed in enumerate(streams.allowed):
    marks = [" x" if c else " ." for c in allowed]
    anchor = "" if r < n else f"  (anchor row {batch.block_anchor[r]})"
    print(f"  {names[int(batch.tokens[r])]:>4} " + " ".join(marks[:n]) + "  |" + " ".join(marks[n:]) + anchor)

print("\nconsistency couples (mask row, anchor row):", batch.lcm_pairs)

# The payoff: regular rows reproduce a plain causal forward exactly.
cfg = ModelConfig(vocab_size=7, d_model=16, n_layers=2, n_heads=2, d_ff=32, k_masks=2, lora_rank=4)
model = init_model(cfg, seed=0)
rng = np.random.default_rng(0)
for lw in model.layers:
    for g in (lw.attn_q, lw.attn_k, lw.attn_v, lw.attn_o, lw.ff_in, lw.ff_out):
        g.A.data = rng.normal(0, 0.3, g.A.data.shape).astype(np.float32)
        g.B.data = rng.normal(0, 0.3, g.B.data.shape).astype(np.float32)

masked = forward(model, batch.tokens, batch.position_ids, batch.streams, batch.gate)
plain_batch = causal_rows(SEQ)
plain = forward(
    model, plain_batch.tokens, plain_batch.position_ids,
    plain_batch.streams, plain_batch.gate,
)
diff = np.max(np.abs(masked.logits.data[batch.ntp_rows] - plain.logits.data))
print(f"\nregular-row logits vs plain causal forward, max abs diff: {diff:.2e}")
print("(bitwise equal:", bool(np.array_equal(masked.logits.data[batch.ntp_rows], plain.logits.data)), ")")

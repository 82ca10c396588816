"""End to end on a toy periodic corpus: pretrain a base, freeze it, fit
adapters + mask rows + sampler, then decode the same prompt three ways.

The three decodes emit identical text; what changes is how many forward
passes it takes. Takes roughly half a minute on a laptop. Exits 1 if a
speculative decode does not match greedy."""

import sys

import numpy as np

from specmtp import (
    CorpusSpec,
    TrainConfig,
    clone_base_with_rank,
    generate_corpus,
    greedy_autoregressive,
    pretrain_base,
    speculative_decode,
    train,
)

config = TrainConfig(
    corpus=CorpusSpec(task="pattern", size=48, seed=0, seq_len=16, period=4, alphabet="abcdef"),
    d_model=32, n_layers=2, n_heads=2, d_ff=64, k_masks=4, lora_rank=8,
    learning_rate=3e-3, warmup_steps=30, total_steps=300, batch_size=4,
    pretrain_steps=600, max_position=256,
)

print("pretraining the base on the task (it will be frozen afterwards)...")
base = pretrain_base(config)
print("fine-tuning adapters, mask rows, and the sampler head...")
result = train(config, model=clone_base_with_rank(base, config.lora_rank, config.seed))
vocab = result.vocab
print(f"final losses: total {result.metrics[-1][4]:.3f}, "
      f"regular-row ce drift {abs(result.metrics[-1][5] - result.metrics[0][5]):.1e} (frozen path)")

# A held-out periodic prompt.
heldout = generate_corpus(CorpusSpec(task="pattern", size=3, seed=123, seq_len=16, period=4, alphabet="abcdef"))
prompt = heldout[0][0][:9].tolist()
print("\nprompt:", vocab.decode(prompt))

greedy_out = greedy_autoregressive(result.model, prompt, 16)
print("greedy     :", vocab.decode(greedy_out[len(prompt):]), "(1 token per forward pass)")

mismatched = []
for strategy in ("linear", "quadratic"):
    out, stats = speculative_decode(result.model, result.sampler, prompt, 4, strategy, max_steps=16)
    same = out[: len(greedy_out)] == greedy_out[: len(out)]
    print(f"{strategy:<11}: {vocab.decode(out[len(prompt):len(prompt)+16])} "
          f"(rate {stats.rate:.2f} tokens/pass, matches greedy: {same})")
    if not same:
        mismatched.append(strategy)

print("\nacceptance by mask budget (quadratic, 12 held-out prompts):")
prompts = [seq[:9].tolist() for seq, _ in generate_corpus(
    CorpusSpec(task="pattern", size=12, seed=99, seq_len=16, period=4, alphabet="abcdef"))]
for k_eval in range(1, 5):
    rates = []
    for p in prompts:
        _, stats = speculative_decode(result.model, result.sampler, p, k_eval, "quadratic", max_steps=8)
        rates.append(stats.rate)
    print(f"  k={k_eval}: mean rate {np.mean(rates):.2f} (ceiling {k_eval + 1})")

if mismatched:
    sys.exit(f"speculative output differs from greedy: {mismatched}")

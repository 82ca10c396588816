"""Greedy reference decoding and speculative decoding with verification.

Every speculative step runs one forward pass over verified tokens, the
current speculation, and fresh mask blocks. Speculated tokens count only
after the model's own next-token argmax confirms them, which makes the
emitted stream identical to plain greedy decoding; speculation changes
speed, never content.

A pass's rows before the first row it reads are context rows (`_run`
sets the layout streams' `first` row): greedy reads its last row, a
speculative step its rows from the last verified one on, the probe its
mask rows. Their keys and values are computed, their last layer's query
side is not (see model.forward).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .batching import build_linear_inference_input, build_quadratic_inference_input, causal_rows
from .model import ModelBundle, forward, merge_adapters
from .sampler import SamplerHead, sampler_chain

STRATEGIES = ("linear", "quadratic")


@dataclass
class AcceptanceStats:
    generated: int  # G: tokens added beyond the prompt
    steps: int  # T: forward passes
    histogram: dict[int, int] = field(default_factory=dict)

    @property
    def rate(self) -> float:
        return acceptance_rate(self)


def acceptance_rate(stats: AcceptanceStats) -> float:
    """Verified tokens per forward pass, G / T."""
    if stats.steps < 1:
        raise ValueError("acceptance rate needs at least one step")
    return stats.generated / stats.steps


def _run(model: ModelBundle, batch, first: int):
    """`forward` over a layout whose rows before `first` are context rows:
    their keys and values are computed, their logits and hidden rows are not
    read (zeros)."""
    return forward(model, batch.tokens, batch.position_ids, batch.streams._replace(first=first), batch.gate)


def _check_prompt(model: ModelBundle, prompt) -> list[int]:
    tokens = [int(t) for t in prompt]
    if not tokens:
        raise ValueError("prompt must be nonempty")
    if len(tokens) > model.config.max_position:
        raise ValueError(
            f"prompt of {len(tokens)} tokens exceeds max_position {model.config.max_position}"
        )
    return tokens


def greedy_autoregressive(model: ModelBundle, prompt, max_new: int, eos: int | None = None) -> list[int]:
    """One token per full-prefix forward pass; the correctness baseline.

    Stops early when the next pass would need a position id at or past
    max_position; a prompt longer than max_position is rejected.
    """
    tokens = _check_prompt(model, prompt)
    # Every pass reads one embedding table. A causal layout gates no row,
    # so no adapter is merged.
    model = replace(model, table=model.embedding_table())
    for _ in range(max_new):
        batch = causal_rows(tokens)
        if batch.position_ids.max() >= model.config.max_position:
            break
        # Only the last row's logits are read.
        out = _run(model, batch, batch.size - 1)
        nxt = int(np.argmax(out.logits.data[-1]))
        tokens.append(nxt)
        if eos is not None and nxt == eos:
            break
    return tokens


def verify_speculated(chain_preds, speculated) -> tuple[int, list[int]]:
    """Longest verified prefix of the speculation, plus one free token.

    chain_preds c_0..c_s are the model's own argmax picks: c_0 at the last
    verified token, c_j at speculated token j. Acceptance stops at the
    first j with s_j != c_(j-1); the emitted tokens are the accepted
    prefix followed by c_a, all of them verified.
    """
    chain_preds = [int(t) for t in chain_preds]
    speculated = [int(t) for t in speculated]
    if len(chain_preds) != len(speculated) + 1:
        raise ValueError("need exactly one more chain prediction than speculated tokens")
    a = 0
    while a < len(speculated) and speculated[a] == chain_preds[a]:
        a += 1
    return a, speculated[:a] + [chain_preds[a]]


def speculative_decode(
    model: ModelBundle,
    sampler: SamplerHead | None,
    prompt,
    k_eval: int,
    strategy: str = "quadratic",
    max_steps: int = 100,
    eos: int | None = None,
    speculation_override=None,
) -> tuple[list[int], AcceptanceStats]:
    """Decode up to max_steps forward passes; each pass emits 1..k_eval+1 tokens.

    Once a speculative layout would reach max_position, each step runs
    greedy's causal layout instead, so decoding stops where greedy does,
    with the same tokens. A prompt longer than max_position is rejected.
    Without a sampler, mask rows fall back to their base-head argmax.
    speculation_override(verified, last_token, block_logits, block_hidden)
    replaces the speculation source; verified is the token list so far,
    ending with last_token (hook for adversarial-speculation tests;
    exactness holds for any speculation whatsoever).
    """
    cfg = model.config
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if not 1 <= k_eval <= cfg.k_masks:
        raise ValueError(f"k_eval must be in 1..{cfg.k_masks}")
    mask_ids = cfg.mask_ids[:k_eval]
    verified = _check_prompt(model, prompt)
    # Every pass of this call, and each sampler chain, reads the embedding
    # table and each adapter's merged weight from one copy, formed here
    # from the weights as they are now.
    model = merge_adapters(model)
    speculated: list[int] = []
    stats = AcceptanceStats(generated=0, steps=0)

    for _ in range(max_steps):
        n_ver = len(verified)
        # With nothing speculated, both strategies build the linear layout.
        if strategy == "linear" or not speculated:
            batch = build_linear_inference_input(verified, speculated, mask_ids)
        else:
            batch = build_quadratic_inference_input(verified, speculated, mask_ids)
        if batch.position_ids.max() >= cfg.max_position:
            # No room left to speculate: take greedy's own step, which
            # emits one exact token.
            speculated = []
            batch = causal_rows(verified)
            if batch.position_ids.max() >= cfg.max_position:
                break
        # Every row read is from the last verified one on.
        out = _run(model, batch, n_ver - 1)
        logits = out.logits.data

        # The last verified row, then each speculated token's row: the
        # regular rows from there on.
        chain_rows = batch.ntp_rows[n_ver - 1 :]
        accepted, emitted = verify_speculated(logits[chain_rows].argmax(axis=1), speculated)
        block = batch.block_rows(int(chain_rows[accepted]))

        stats.steps += 1
        stats.histogram[accepted] = stats.histogram.get(accepted, 0) + 1

        hit_eos = False
        for tok in emitted:
            verified.append(tok)
            stats.generated += 1
            if eos is not None and tok == eos:
                hit_eos = True
                break
        if hit_eos:
            break

        if speculation_override is not None:
            speculated = [
                int(t)
                for t in speculation_override(verified, emitted[-1], logits[block], out.hidden.data[block])
            ]
        elif block.size:
            if sampler is not None:
                speculated = sampler_chain(
                    sampler, model.unembed, model.embedding_table(), emitted[-1],
                    out.hidden.data[block],
                )
            else:
                speculated = logits[block].argmax(axis=1).tolist()
        else:
            speculated = []

    return verified, stats


def future_rank_probe(model: ModelBundle, prompt, true_future, k: int) -> list[int]:
    """Rank (1-based) of each anticipated token in the base logits at the
    mask appended for it. Rank 1 means the mask row's argmax is the truth.

    The j-th appended mask forecasts the token j+1 positions past the
    prompt end (the immediate next token belongs to the prompt's own last
    row), so true_future[0] should be the second upcoming token. The
    prompt and its k masks must fit below max_position.
    """
    cfg = model.config
    if not 1 <= k <= cfg.k_masks:
        raise ValueError(f"k must be in 1..{cfg.k_masks}")
    prompt = _check_prompt(model, prompt)
    if len(prompt) + k > cfg.max_position:
        raise ValueError(
            f"prompt of {len(prompt)} tokens leaves no room for {k} masks "
            f"below max_position {cfg.max_position}"
        )
    true_future = [int(t) for t in true_future]
    if len(true_future) > k:
        raise ValueError("more future tokens than masks")
    bad = [t for t in true_future if not 0 <= t < cfg.vocab_size]
    if bad:
        raise ValueError(f"future token {bad[0]} outside the vocabulary of {cfg.vocab_size} ids")
    batch = build_linear_inference_input(prompt, [], cfg.mask_ids[:k])
    # Only the mask rows are read.
    logits = _run(model, batch, len(prompt)).logits.data
    ranks = []
    for j, tok in enumerate(true_future):
        row = logits[len(prompt) + j]
        ranks.append(1 + int((row > row[tok]).sum()))
    return ranks

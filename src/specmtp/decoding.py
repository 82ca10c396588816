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

What holds for every pass of a call is made or checked once per call. A
call cuts each step's layout from one `DecodeTables` made for its longest
layout, and reads a step's chain and block rows from the builder's
arithmetic (blocks extend the layout's last regular rows). It checks the
prompt's ids once, and an overridden speculation's at its step; every
other id is an argmax over the vocabulary. It checks that a layout's
positions fit below max_position before it builds the layout. So its
passes go through `forward`, model.py's decode entry (`decode_pass`),
which leaves those checks out.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .batching import DecodeTables, build_linear_inference_input, build_quadratic_inference_input, causal_rows
from .model import ModelBundle, check_token_range, decode_pass, merge_adapters
from .sampler import SamplerHead, sampler_chain

# Every pass of a decode call goes through this module global, so a
# replacement (a profiler's, say) sees each one.
forward = decode_pass

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
    """The prompt's ids as ints, checked once for every pass of the call."""
    tokens = [int(t) for t in prompt]
    if not tokens:
        raise ValueError("prompt must be nonempty")
    if len(tokens) > model.config.max_position:
        raise ValueError(
            f"prompt of {len(tokens)} tokens exceeds max_position {model.config.max_position}"
        )
    check_token_range(model.config, min(tokens), max(tokens))
    return tokens


def greedy_autoregressive(model: ModelBundle, prompt, max_new: int, eos: int | None = None) -> list[int]:
    """One token per full-prefix forward pass; the correctness baseline.

    Stops early when the next pass would need a position id at or past
    max_position; a prompt longer than max_position is rejected.
    """
    tokens = _check_prompt(model, prompt)
    max_position = model.config.max_position
    # Every pass reads one embedding table. A causal layout gates no row,
    # so no adapter is merged.
    model = replace(model, table=model.embedding_table())
    tables = DecodeTables(min(max_position, len(tokens) + max_new), 0)
    for _ in range(max_new):
        # The pass over n tokens uses positions 0..n-1.
        if len(tokens) > max_position:
            break
        batch = causal_rows(tokens, tables)
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
    greedy's causal layout instead (the linear layout with no mask), so
    decoding stops where greedy does, with the same tokens. Each step builds
    one layout. A prompt longer than max_position is rejected.
    Without a sampler, mask rows fall back to their base-head argmax.
    speculation_override(verified, last_token, block_logits, block_hidden)
    replaces the speculation source; verified is the token list so far,
    ending with last_token (hook for adversarial-speculation tests;
    exactness holds for any speculation whatsoever). An id it returns
    outside the vocabulary is a NumericsError at that step.
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
    # A step adds at most k_eval + 1 verified tokens, and its layout's
    # positions end at most 2 k_eval past them.
    tables = DecodeTables(min(cfg.max_position, len(verified) + max_steps * (k_eval + 1) + k_eval), k_eval)
    speculated: list[int] = []
    stats = AcceptanceStats(generated=0, steps=0)

    for _ in range(max_steps):
        n_ver = len(verified)
        if n_ver > cfg.max_position:
            break  # not even greedy's pass over the verified tokens fits
        # Every layout's last position is its last real row's plus its masks.
        if n_ver + len(speculated) + k_eval > cfg.max_position:
            # No room left to speculate: take greedy's own step, the linear
            # layout with no mask, which emits one exact token.
            speculated = []
            batch = build_linear_inference_input(verified, speculated, mask_ids[:0], tables)
        elif strategy == "linear" or not speculated:
            # With nothing speculated, both strategies build the linear layout.
            batch = build_linear_inference_input(verified, speculated, mask_ids, tables)
        else:
            batch = build_quadratic_inference_input(verified, speculated, mask_ids, tables)
        # Every row read is from the last verified one on.
        out = _run(model, batch, n_ver - 1)
        logits = out.logits.data

        # The last verified row, then each speculated token's row: the
        # regular rows from there on. The layout's blocks of k_eval rows
        # extend its last regular rows, in order (batching.py): take the
        # block of the last accepted row, or none (it stops at 0).
        n_real = n_ver + len(speculated)
        accepted, emitted = verify_speculated(logits[n_ver - 1 : n_real].argmax(axis=1), speculated)
        first_anchor = n_real - (batch.size - n_real) // k_eval
        lo = n_real + (n_ver - 1 + accepted - first_anchor) * k_eval
        block = slice(lo, lo + k_eval) if lo >= n_real else slice(0, 0)

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
            if speculated:
                check_token_range(cfg, min(speculated), max(speculated))
        elif block.stop:
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

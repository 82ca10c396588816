import threading
from dataclasses import replace

import numpy as np
import pytest
from conftest import run_batch

from specmtp.decoding import (
    AcceptanceStats,
    acceptance_rate,
    future_rank_probe,
    greedy_autoregressive,
    speculative_decode,
    verify_speculated,
)
from specmtp.model import ModelConfig, init_model
from specmtp.sampler import init_sampler

CFG = ModelConfig(
    vocab_size=15, d_model=16, n_layers=2, n_heads=2, d_ff=32, k_masks=3,
    lora_rank=4, max_position=256,
)


def make_model(seed, randomize=True, config=CFG):
    model = init_model(config, seed)
    if randomize:
        rng = np.random.default_rng(seed + 1000)
        for lw in model.layers:
            for g in (lw.attn_q, lw.attn_k, lw.attn_v, lw.attn_o, lw.ff_in, lw.ff_out):
                g.A.data = rng.normal(0, 0.3, g.A.data.shape).astype(g.A.data.dtype)
                g.B.data = rng.normal(0, 0.3, g.B.data.shape).astype(g.B.data.dtype)
    return model


def test_verify_full_match():
    a, emitted = verify_speculated([4, 4, 4, 9], [4, 4, 4])
    assert a == 3 and emitted == [4, 4, 4, 9]


def test_verify_immediate_mismatch():
    a, emitted = verify_speculated([8, 5], [3])
    assert a == 0 and emitted == [8]


def test_verify_partial():
    a, emitted = verify_speculated([4, 9, 1, 2], [4, 7, 2])
    assert a == 1 and emitted == [4, 9]


def test_verify_enumeration_over_mismatch_positions():
    # Oracle: brute force the definition for every first-mismatch position.
    s = [3, 5, 7, 9]
    for miss in range(len(s) + 1):
        chain = list(s) + [42]
        if miss < len(s):
            chain[miss] = 99
        a, emitted = verify_speculated(chain, s)
        assert a == miss
        assert emitted == s[:miss] + [chain[miss]]


def test_verify_length_mismatch():
    with pytest.raises(ValueError):
        verify_speculated([1, 2], [1, 2])


def test_greedy_zero_budget_and_determinism():
    model = make_model(0)
    assert greedy_autoregressive(model, [1, 2], 0) == [1, 2]
    a = greedy_autoregressive(model, [1, 2, 3], 8)
    b = greedy_autoregressive(model, [1, 2, 3], 8)
    assert a == b


def test_speculative_exactness_untrained_models():
    # Keystone: for any model, both strategies reproduce greedy decoding
    # token for token. Untrained adapters and random masks included.
    for seed in range(4):
        model = make_model(seed)
        rng = np.random.default_rng(seed)
        prompt = rng.integers(0, CFG.first_mask_id, size=int(rng.integers(1, 6))).tolist()
        for strategy in ("linear", "quadratic"):
            for k_eval in (1, 3):
                out, stats = speculative_decode(
                    model, None, prompt, k_eval, strategy, max_steps=10
                )
                ref = greedy_autoregressive(model, prompt, len(out) - len(prompt))
                assert out == ref
                assert stats.generated == len(out) - len(prompt)
                assert 1.0 <= acceptance_rate(stats) <= k_eval + 1


def test_two_decodes_in_two_threads_match_each_alone():
    # Both threads start decoding at the same moment (numpy releases the
    # GIL inside its kernels, so the passes interleave for real).
    model = make_model(5)
    runs = {"linear": [1, 2, 3], "quadratic": [4, 5, 6, 7, 8]}

    def decode(strategy):
        return speculative_decode(model, None, runs[strategy], 3, strategy, max_steps=12)[0]

    alone = {s: decode(s) for s in runs}
    barrier = threading.Barrier(2, timeout=30)
    results = {}

    def work(strategy):
        try:
            barrier.wait()
            results[strategy] = decode(strategy)
        except Exception as exc:  # reported below, from the main thread
            barrier.abort()
            results[strategy] = exc

    threads = [threading.Thread(target=work, args=(s,)) for s in runs]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    assert results.keys() == alone.keys()
    for strategy, out in results.items():
        if isinstance(out, Exception):
            raise out
        assert out == alone[strategy]


def test_adversarial_speculation_rate_exactly_one():
    model = make_model(3)
    prompt = [2, 4]
    stream = greedy_autoregressive(model, prompt, 40)

    def always_wrong(verified, last_token, block_logits, block_hidden):
        pos = len(verified)
        truth = stream[pos] if pos < len(stream) else 0
        return [(truth + 1) % CFG.first_mask_id]

    out, stats = speculative_decode(
        model, None, prompt, 1, "linear", max_steps=12, speculation_override=always_wrong
    )
    assert acceptance_rate(stats) == 1.0
    assert out == stream[: len(out)]


def test_always_right_speculation_hits_upper_bound():
    model = make_model(5)
    prompt = [1, 2]
    k = 3
    stream = greedy_autoregressive(model, prompt, 60)

    def oracle(verified, last_token, block_logits, block_hidden):
        pos = len(verified)
        return stream[pos : pos + k]

    out, stats = speculative_decode(
        model, None, prompt, k, "linear", max_steps=8, speculation_override=oracle
    )
    assert out == stream[: len(out)]
    # First step is cold (1 token), every later step accepts all k.
    assert stats.generated == 1 + (stats.steps - 1) * (k + 1)
    assert acceptance_rate(stats) <= k + 1


def test_step_accounting_and_trace():
    model = make_model(9)
    out, stats = speculative_decode(model, None, [3, 1], 3, "quadratic", max_steps=7)
    assert stats.steps == 7
    assert sum(stats.histogram.values()) == 7
    assert stats.generated == len(out) - 2


def test_eos_truncates_inside_a_step():
    model = make_model(11)
    prompt = [1, 2]
    stream = greedy_autoregressive(model, prompt, 30)
    eos = stream[len(prompt) + 2]  # third generated token

    def oracle(verified, last_token, block_logits, block_hidden):
        pos = len(verified)
        return stream[pos : pos + 3]

    ref = greedy_autoregressive(model, prompt, 30, eos=eos)
    out, stats = speculative_decode(
        model, None, prompt, 3, "linear", max_steps=10, eos=eos,
        speculation_override=oracle,
    )
    assert out == ref
    assert out[-1] == eos
    # The emitting step still counted, and nothing after eos got through.
    assert stats.generated == len(out) - len(prompt)


def test_speculation_rejected_after_eos_restart():
    # eos handling must also hold without an override.
    model = make_model(13)
    prompt = [4]
    probe = greedy_autoregressive(model, prompt, 20)
    eos = probe[len(prompt)]  # first generated token
    for strategy in ("linear", "quadratic"):
        out, stats = speculative_decode(model, None, prompt, 2, strategy, max_steps=10, eos=eos)
        assert out == prompt + [eos]
        assert stats.steps == 1


def test_decode_rejects_bad_arguments():
    model = make_model(1)
    with pytest.raises(ValueError):
        speculative_decode(model, None, [1], 0, "linear")
    with pytest.raises(ValueError):
        speculative_decode(model, None, [1], CFG.k_masks + 1, "linear")
    with pytest.raises(ValueError):
        speculative_decode(model, None, [1], 1, "diagonal")
    with pytest.raises(ValueError):
        acceptance_rate(AcceptanceStats(generated=0, steps=0))


def test_acceptance_rate_arithmetic():
    assert acceptance_rate(AcceptanceStats(generated=9, steps=3)) == 3.0


def test_acceptance_rate_matches_trace_recount():
    model = make_model(17)
    out, stats = speculative_decode(model, None, [2, 3, 4], 2, "quadratic", max_steps=5)
    recount = sum(a * n for a, n in stats.histogram.items()) + stats.steps
    # Every step emits accepted + 1 tokens (eos never fires here).
    assert stats.generated == recount
    assert acceptance_rate(stats) == stats.generated / stats.steps


def test_future_rank_probe_rank_one_for_argmax():
    model = make_model(21)
    prompt = [1, 2, 3]
    from specmtp.batching import build_linear_inference_input

    batch = build_linear_inference_input(prompt, [], CFG.mask_ids[:2])
    out = run_batch(model, batch)
    best = [int(np.argmax(out.logits.data[len(prompt) + j])) for j in range(2)]
    ranks = future_rank_probe(model, prompt, best, 2)
    assert ranks == [1, 1]


def test_future_rank_probe_bounds():
    model = make_model(23)
    ranks = future_rank_probe(model, [1, 2], [3, 4, 5], 3)
    assert all(1 <= r <= CFG.vocab_size for r in ranks)
    with pytest.raises(ValueError):
        future_rank_probe(model, [1], [1, 2], 1)
    with pytest.raises(ValueError):
        future_rank_probe(model, [1, 2], [3], CFG.k_masks + 1)


def test_per_step_emitted_length_bounds():
    model = make_model(25)
    k = 3
    out, stats = speculative_decode(model, None, [1, 2], k, "quadratic", max_steps=8)
    # Every step emits accepted + 1 and accepted <= k.
    assert all(0 <= a <= k for a in stats.histogram)
    assert stats.generated == sum((a + 1) * n for a, n in stats.histogram.items())


SHORT = replace(CFG, max_position=16)


def test_greedy_stops_at_max_position():
    # The last pass over 16 tokens uses positions 0..15; the next would need 16.
    out = greedy_autoregressive(make_model(3, config=SHORT), [1, 2, 3], 20)
    assert len(out) == SHORT.max_position + 1
    # Positions are absolute, so the same weights with a longer table agree.
    assert out == greedy_autoregressive(make_model(3), [1, 2, 3], 20)[: len(out)]


@pytest.mark.parametrize("with_sampler", [False, True])
@pytest.mark.parametrize("strategy", ["linear", "quadratic"])
def test_speculative_stops_at_max_position(strategy, with_sampler):
    model = make_model(3, config=SHORT)
    sampler = init_sampler(CFG.d_model, 4) if with_sampler else None
    out, stats = speculative_decode(model, sampler, [1, 2, 3], CFG.k_masks, strategy, max_steps=20)
    assert stats.steps < 20
    # Where no speculative layout fits, each step takes greedy's causal
    # layout, so decoding runs on to the same end as greedy.
    assert len(out) == SHORT.max_position + 1
    assert out == greedy_autoregressive(model, [1, 2, 3], 20)


def test_prompt_longer_than_max_position_is_rejected():
    model = make_model(3, config=SHORT)
    long_prompt = [1] * (SHORT.max_position + 1)
    with pytest.raises(ValueError, match="exceeds max_position"):
        greedy_autoregressive(model, long_prompt, 5)
    for strategy in ("linear", "quadratic"):
        with pytest.raises(ValueError, match="exceeds max_position"):
            speculative_decode(model, None, long_prompt, CFG.k_masks, strategy)
    # A prompt that fills the context exactly still gets one greedy pass.
    assert len(greedy_autoregressive(model, long_prompt[1:], 5)) == SHORT.max_position + 1

"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with -s to stream them). Trained checkpoints come from
the session fixtures in conftest.py."""

import time

import numpy as np
import pytest

from conftest import finetune, heldout_prompts, pattern_config, run_batch
from specmtp.batching import build_linear_inference_input, build_training_batch, causal_rows
from specmtp.decoding import greedy_autoregressive, speculative_decode
from specmtp.losses import lcm_loss, base_and_sampler_ce, total_loss
from specmtp.model import ModelConfig, init_model
from specmtp.sampler import init_sampler
from specmtp.tensor import Tape, Tensor, backward, finite_diff_check, precision
from specmtp.training import generate_corpus, train


def _report(num, name, detail):
    print(f"ACCEPTANCE PASS [{num}] {name}: {detail}")


def _randomize(model, seed, scale=0.3):
    rng = np.random.default_rng(seed)
    for lw in model.layers:
        for g in (lw.attn_q, lw.attn_k, lw.attn_v, lw.attn_o, lw.ff_in, lw.ff_out):
            g.A.data = rng.normal(0, scale, g.A.data.shape).astype(g.A.data.dtype)
            g.B.data = rng.normal(0, scale, g.B.data.shape).astype(g.B.data.dtype)


def test_criterion_1_gate_invariance():
    t0 = time.perf_counter()
    base_cfg = dict(vocab_size=14, d_model=16, n_layers=2, n_heads=2, d_ff=32,
                    k_masks=3, max_position=128)
    for trial in range(50):
        model = init_model(ModelConfig(lora_rank=4, **base_cfg), seed=trial)
        _randomize(model, seed=trial)
        reference = init_model(ModelConfig(lora_rank=0, **base_cfg), seed=trial)
        rng = np.random.default_rng(trial)
        n = int(rng.integers(2, 10))
        seq = rng.integers(0, 14 - 3, size=n)
        batch = build_training_batch(seq, np.ones(n, dtype=int), model.config.mask_ids)
        got = run_batch(model, batch)
        ref = run_batch(reference, batch)
        rows = batch.ntp_rows
        assert np.array_equal(got.logits.data[rows], ref.logits.data[rows]), f"trial {trial}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(1, "gate invariance", f"50 random adapter draws bitwise clean in {elapsed:.1f}s")


def test_criterion_2_masked_batch_oracle_equivalence():
    t0 = time.perf_counter()
    worst_ntp, worst_block = 0.0, 0.0
    with precision("float64"):
        cfg = ModelConfig(vocab_size=16, d_model=16, n_layers=2, n_heads=2, d_ff=32,
                          k_masks=4, lora_rank=4, max_position=256)
        for trial in range(100):
            model = init_model(cfg, seed=trial % 7)
            _randomize(model, seed=trial)
            rng = np.random.default_rng(1000 + trial)
            n = int(rng.integers(2, 33))
            k = int(rng.integers(1, 5))
            seq = rng.integers(0, cfg.first_mask_id, size=n)
            flags = rng.integers(0, 2, size=n)
            flags[0] = 1
            mask_ids = cfg.mask_ids[:k]
            batch = build_training_batch(seq, flags, mask_ids)
            out = run_batch(model, batch)

            plain = run_batch(model, causal_rows(seq)).logits.data
            diff = np.max(np.abs(out.logits.data[batch.ntp_rows] - plain))
            worst_ntp = max(worst_ntp, diff)
            assert diff < 1e-6, f"trial {trial}: ntp rows diverged by {diff}"

            for idx, arow in enumerate(batch.ntp_rows[:-1], start=1):
                rows = batch.block_rows(int(arow))
                if rows.size == 0:
                    continue
                solo = build_linear_inference_input(seq[:idx], [], mask_ids)
                ref = run_batch(model, solo).logits.data[idx:]
                diff = np.max(np.abs(out.logits.data[rows] - ref))
                worst_block = max(worst_block, diff)
                assert diff < 1e-6, f"trial {trial}: block {idx} diverged by {diff}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(2, "masked-batch oracle equivalence",
            f"100 layouts, worst ntp {worst_ntp:.2e}, worst block {worst_block:.2e}, {elapsed:.1f}s")


def test_criterion_3_speculative_exactness(trained_full):
    t0 = time.perf_counter()
    trained = trained_full
    cfg = trained.model.config
    untrained = init_model(cfg, seed=77)
    prompts = heldout_prompts(count=50, prompt_len=9, seed=5)
    prompts += heldout_prompts(count=50, prompt_len=6, seed=6)
    checked = 0
    for model, sampler in ((untrained, None), (trained.model, trained.sampler)):
        for prompt in prompts:
            outs = {}
            for strategy in ("linear", "quadratic"):
                out, _ = speculative_decode(model, sampler, prompt, 4, strategy, max_steps=5)
                outs[strategy] = out
            budget = max(len(o) for o in outs.values()) - len(prompt)
            ref = greedy_autoregressive(model, prompt, budget)
            for strategy, out in outs.items():
                assert out == ref[: len(out)], f"{strategy} diverged on {prompt}"
                checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(3, "speculative exactness",
            f"{checked} decode runs on 2 checkpoints equal greedy, zero tolerance, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def dominance_rates(trained_full):
    prompts = heldout_prompts(count=50, prompt_len=9, seed=13)
    rates = {}
    for k_eval in range(1, 5):
        for strategy in ("linear", "quadratic"):
            vals = []
            for prompt in prompts:
                _, stats = speculative_decode(
                    trained_full.model, trained_full.sampler, prompt, k_eval,
                    strategy, max_steps=6,
                )
                vals.append(stats.rate)
            rates[(strategy, k_eval)] = np.array(vals)
    return rates


def test_criterion_4_quadratic_dominance(dominance_rates):
    lines = []
    for k_eval in range(1, 5):
        lin = dominance_rates[("linear", k_eval)].mean()
        quad = dominance_rates[("quadratic", k_eval)].mean()
        assert quad >= lin, f"k_eval={k_eval}: quadratic {quad:.3f} < linear {lin:.3f}"
        lines.append(f"k={k_eval}: quad {quad:.3f} >= lin {lin:.3f}")
    _report(4, "quadratic dominance", "; ".join(lines))


def test_criterion_5_rate_bounds(trained_full, dominance_rates):
    for (strategy, k_eval), vals in dominance_rates.items():
        assert np.all(vals >= 1.0) and np.all(vals <= k_eval + 1)

    # Adversarial always-reject speculation pins the rate to its floor.
    cfg = trained_full.model.config
    stream = greedy_autoregressive(trained_full.model, [cfg.first_mask_id - 1], 30)

    def always_wrong(verified, last_token, block_logits, block_hidden):
        pos = len(verified)
        truth = stream[pos] if pos < len(stream) else 0
        return [(truth + 1) % cfg.first_mask_id]

    _, stats = speculative_decode(
        trained_full.model, None, [cfg.first_mask_id - 1], 1, "linear",
        max_steps=12, speculation_override=always_wrong,
    )
    assert stats.rate == 1.0

    trained_rate = dominance_rates[("quadratic", 4)].mean()
    assert trained_rate >= 2.0, f"trained quadratic k=4 rate {trained_rate:.3f} < 2.0"
    _report(5, "rate bounds",
            f"all rates within [1, k+1]; adversarial floor 1.0 exact; "
            f"trained quadratic k=4 rate {trained_rate:.3f} >= 2.0")


def test_criterion_6_ntp_preservation(trained_full):
    gated_initial = trained_full.probe_ntp_logits_initial
    gated_final = trained_full.probe_ntp_logits_final
    assert np.array_equal(gated_initial, gated_final)
    first_ce, last_ce = trained_full.metrics[0][5], trained_full.metrics[-1][5]
    rel = abs(first_ce - last_ce) / max(abs(first_ce), 1e-12)
    assert rel < 1e-10

    standard = train(pattern_config(total_steps=30, warmup_steps=0, pretrain_steps=0,
                                    gated=False, learning_rate=3e-3))
    drift = np.max(np.abs(standard.probe_ntp_logits_final - standard.probe_ntp_logits_initial))
    assert drift > 0.0
    _report(6, "ntp preservation",
            f"gated probe bitwise constant over {len(trained_full.metrics)} steps "
            f"(ce rel drift {rel:.1e}); standard-adapter ablation drifts {drift:.2e}")


def test_criterion_7_lcm_detachment():
    hidden = Tensor(np.random.default_rng(3).normal(size=(6, 5)), requires_grad=True)
    pairs = [(0, 4), (1, 4), (2, 5)]
    with Tape() as tape:
        loss = lcm_loss(hidden, pairs)
    backward(tape, loss)
    assert np.all(hidden.grad[4] == 0.0) and np.all(hidden.grad[5] == 0.0)
    assert np.any(hidden.grad[0] != 0.0)

    with precision("float64"):
        hidden64 = Tensor(np.random.default_rng(4).normal(size=(6, 5)), requires_grad=True)
        with Tape() as tape:
            loss = lcm_loss(hidden64, pairs)
        backward(tape, loss)
        an = hidden64.grad.copy()
        eps = 1e-6
        for r in (0, 1, 2):
            for j in range(5):
                orig = hidden64.data[r, j]
                hidden64.data[r, j] = orig + eps
                up = lcm_loss(hidden64, pairs).item()
                hidden64.data[r, j] = orig - eps
                dn = lcm_loss(hidden64, pairs).item()
                hidden64.data[r, j] = orig
                assert abs((up - dn) / (2 * eps) - an[r, j]) < 1e-6

    copied = Tensor(np.random.default_rng(5).normal(size=(6, 5)))
    copied.data[0] = copied.data[4]
    copied.data[1] = copied.data[4]
    copied.data[2] = copied.data[5]
    assert lcm_loss(copied, pairs).item() == 0.0
    _report(7, "lcm detachment",
            "anchor gradients exactly zero; mask-side matches finite differences; "
            "value zero on copied hiddens")


def test_criterion_8_gradient_integrity():
    t0 = time.perf_counter()
    with precision("float64"):
        cfg = pattern_config(total_steps=1, pretrain_steps=0, warmup_steps=0)
        corpus = generate_corpus(cfg.corpus, cfg.k_masks)
        mcfg = cfg.model_config(cfg.corpus.charset())
        model = init_model(mcfg, 21)
        sampler = init_sampler(cfg.d_model, 22)
        _randomize(model, seed=23, scale=0.2)
        batch = build_training_batch(*corpus[0], mcfg.mask_ids)

        def f():
            out = run_batch(model, batch)
            base, samp = base_and_sampler_ce(
                batch, out.hidden, out.logits, sampler, model.unembed, model.embedding_table()
            )
            return total_loss(base, samp, lcm_loss(out.hidden, batch.lcm_pairs))

        params = [t for _, t in model.trainable_params() + sampler.trainable_params()]
        n_coords = min(64, sum(p.data.size for p in params))
        assert n_coords >= 64
        err = finite_diff_check(f, params, max_coords=64, rng=np.random.default_rng(8))
    elapsed = time.perf_counter() - t0
    assert err < 1e-4
    assert elapsed < 180.0
    _report(8, "gradient integrity",
            f"64 sampled trainable coordinates, max rel err {err:.2e}, {elapsed:.1f}s")


def test_criterion_9_component_ablation_trend(trained_plain, trained_sampler_only, trained_full):
    prompts = heldout_prompts(count=20, prompt_len=9, seed=17)

    def mean_rate(result, strategy, use_sampler):
        vals = []
        for prompt in prompts:
            _, stats = speculative_decode(
                result.model, result.sampler if use_sampler else None, prompt, 4,
                strategy, max_steps=6,
            )
            vals.append(stats.rate)
        return float(np.mean(vals))

    ladder = [
        ("linear, no sampler, no consistency", mean_rate(trained_plain, "linear", False)),
        ("quadratic, no sampler, no consistency", mean_rate(trained_plain, "quadratic", False)),
        ("quadratic + sampler", mean_rate(trained_sampler_only, "quadratic", True)),
        ("quadratic + sampler + consistency", mean_rate(trained_full, "quadratic", True)),
    ]
    assert ladder[-1][1] >= ladder[0][1]
    detail = "; ".join(f"{name}: {rate:.3f}" for name, rate in ladder)
    _report(9, "component ablation trend", detail)


def test_criterion_10_rank_sweep(pretrained_base):
    prompts = heldout_prompts(count=12, prompt_len=9, seed=19)
    details = []
    for rank in (1, 4, 16):
        result = finetune(pretrained_base, rank=rank, seed=rank, total_steps=300)
        vals = []
        for prompt in prompts:
            _, stats = speculative_decode(
                result.model, result.sampler, prompt, 4, "quadratic", max_steps=6
            )
            vals.append(stats.rate)
        rate = float(np.mean(vals))
        adapter_floats = sum(
            t.data.size
            for n, t in result.model.trainable_params()
            if n.endswith(".A") or n.endswith(".B")
        )
        assert rate > 1.1, f"rank {rank} rate {rate:.3f} <= 1.1"
        details.append(f"rank {rank}: rate {rate:.3f}, adapter overhead {adapter_floats * 4} bytes")
    _report(10, "rank sweep", "; ".join(details))

"""Self-test of the benchmark on a tiny model.

    python3 -m pytest perfbench -q

Checks that the exact counts repeat across two runs, that the traced run
emits the same tokens, counts and losses as the untraced one, and that a
run prints every metric BENCHMARK.json names, with its unit, in both
trace modes.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from layers import layer_metrics  # noqa: E402
from spans import StepClock, Tracer  # noqa: E402
from specmtp import load_checkpoint  # noqa: E402
from toymodel import ToyConfig, ensure_checkpoints  # noqa: E402
from workloads import K_EVAL, Runner, Setup, Workload, prompt_suite  # noqa: E402

TINY_TOY = ToyConfig(
    d_model=16, n_layers=1, n_heads=2, d_ff=32, corpus_size=8, seq_len=8,
    pretrain_steps=40, finetune_steps=20, warmup_steps=5, batch_size=2,
)
TINY = Workload(
    "tiny", prompt_len=9, prompts=6, max_steps=4,
    train_seq_len=8, train_corpus=4, train_batch=2, train_steps=3,
)
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    path = tmp_path_factory.mktemp("bench")
    ensure_checkpoints(ROOT, TINY_TOY, path)
    return path


def one_pass(cache, traced: bool):
    base_path, model_path = ensure_checkpoints(ROOT, TINY_TOY, cache)
    model, sampler, _ = load_checkpoint(model_path)
    base, _, _ = load_checkpoint(base_path)
    clock = StepClock()
    clock.install()
    runner = Runner(Setup(model, sampler, base, prompt_suite(TINY, 0)), TINY_TOY, TINY, 0, clock)
    tracer = Tracer() if traced else None
    try:
        if tracer is not None:
            tracer.install()
            runner.tracer = tracer
        rnd = runner.decode_round()
        calls = [runner.train_call(j) for j in range(2)]
    finally:
        if tracer is not None:
            tracer.remove()
        clock.remove()
    assert runner.failed == 0
    return rnd, [c.losses for c in calls], runner, tracer


def test_counts_repeat_exactly(cache):
    first, first_losses, _, _ = one_pass(cache, traced=False)
    second, second_losses, _, _ = one_pass(cache, traced=False)
    for s, c in first.counts.items():
        assert c.steps == TINY.prompts * TINY.max_steps
        assert sum(c.histogram.values()) == c.steps
        assert c.rows > 0 and c.no_speculation_steps >= TINY.prompts
    assert second.outputs == first.outputs
    assert second.counts == first.counts
    assert second_losses == first_losses


def test_traced_run_matches_untraced(cache):
    plain, plain_losses, _, _ = one_pass(cache, traced=False)
    traced, traced_losses, runner, tracer = one_pass(cache, traced=True)
    assert traced.outputs == plain.outputs
    assert traced.counts == plain.counts
    assert traced_losses == plain_losses
    names = {span[1] for span in tracer.spans}
    for boundary in (
        "decoding.forward", "decoding.build_linear_inference_input",
        "decoding.build_quadratic_inference_input", "decoding.causal_rows",
        "decoding.sampler_chain", "decoding.verify_speculated",
        "model.gated_lora_apply", "model.masked_softmax_rows", "sampler.sampler_logits",
        "training.forward", "training.backward", "training.base_and_sampler_ce",
        "training.lcm_loss", "training.AdamW.step",
    ):
        assert boundary in names
    assert sum(n for n, _ in tracer.tensor_inits.values()) > 0
    metrics = layer_metrics(tracer, runner.ops, traced.counts, K_EVAL, [1.0], 0.0)
    assert set(metrics) == {m["name"] for m in MANIFEST["per_layer"]}


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(cache, capsys, trace):
    args = argparse.Namespace(workload="tiny", seed=0, seconds=0.1, trace=trace)
    assert run.measure(args, MANIFEST, toy=TINY_TOY, wl=TINY, cache=cache) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = MANIFEST["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in section}
    for m in section:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m["name"])
        assert any(re.fullmatch(rf"{re.escape(m['name'])} \S+ {re.escape(m['unit'])} \(n=\d+\)", x) for x in lines)
    assert any(x.startswith("failure_rate 0 (0/") for x in lines)

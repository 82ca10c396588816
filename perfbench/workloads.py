"""What one run decodes and trains, the checks on every output, and the
end-to-end metrics.

Each workload has a decode phase and a training phase, and every figure
of one phase is timed apart from the other:

- Decode: for each prompt, quadratic then linear speculative decoding
  (k = 4, sampler on, a fixed number of steps, no EOS), then greedy
  decoding of exactly as many tokens as the longer of the two produced.
  Greedy runs in two calls split at the shorter length, so each
  speculative strategy is compared with greedy on the very tokens it
  emitted, and each must equal greedy token for token.
- Train: train() on a fresh clone of the frozen base, a fixed number of
  steps per call. The probe batch's regular-row logits must be bitwise
  unchanged afterwards and every logged loss finite.

One process, one operation at a time (a closed loop with one client).
"""

from __future__ import annotations

import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from specmtp import (
    clone_base_with_rank,
    derive_rng,
    greedy_autoregressive,
    speculative_decode,
    train,
)

from clock import Timed, timed
from spans import StepClock, Tracer
from toymodel import ToyConfig, pattern_corpus, train_config

K_EVAL = 4
STRATEGIES = ("quadratic", "linear")
DECODE_SHARE = 0.6  # of --seconds; training gets what decoding left
MIN_TRAIN_STEP_SAMPLES = 110  # so that >= 10 step times lie beyond p90
TRACED_PROMPTS = 32  # the traced run decodes this much of the suite, twice
TRACED_TRAIN_CALLS = 3


@dataclass(frozen=True)
class Workload:
    name: str  # why each workload exists is recorded in BENCHMARK.json
    prompt_len: int  # tokens, BOS included
    prompts: int
    max_steps: int
    train_seq_len: int
    train_corpus: int
    train_batch: int
    train_steps: int  # optimizer steps per train() call


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "short",
            prompt_len=9, prompts=48, max_steps=16,
            train_seq_len=16, train_corpus=48, train_batch=4, train_steps=16,
        ),
        Workload(
            "long",
            prompt_len=150, prompts=96, max_steps=8,
            train_seq_len=40, train_corpus=8, train_batch=2, train_steps=16,
        ),
    )
}


def prompt_suite(wl: Workload, seed: int) -> list[list[int]]:
    """Pattern-task prompts, BOS and then a motif tiled, from the seed alone.

    Acceptance depends mostly on which letters sit where in the motif, so
    the motifs are balanced: each letter takes each motif position equally
    often, in an order the seed shuffles. That keeps a suite's mean
    acceptance about three times steadier across seeds than drawing each
    motif independently.
    """
    spec = pattern_corpus(wl.prompts, seed, wl.prompt_len - 1)
    letters = len(spec.alphabet)
    if wl.prompts % letters:
        raise ValueError(f"prompt count must be a multiple of {letters}")
    rng = derive_rng(seed, f"perfbench.prompts.{wl.name}")
    columns = [rng.permutation(np.repeat(np.arange(letters), wl.prompts // letters)) for _ in range(spec.period)]
    bos = spec.vocab(K_EVAL).bos
    return [
        [bos] + np.resize([int(c[i]) for c in columns], spec.seq_len).tolist()
        for i in range(wl.prompts)
    ]


def train_seed(seed: int, call: int) -> int:
    return int(derive_rng(seed, f"perfbench.train.{call}").integers(2**31))


@dataclass
class StrategyCounts:
    """Exact counts for one strategy; equal runs must give equal counts."""

    generated: int = 0
    steps: int = 0
    histogram: dict[int, int] = field(default_factory=dict)
    rows: int = 0  # layout rows computed, summed over steps
    no_speculation_steps: int = 0  # steps whose layout carried no speculation

    def add(self, stats, layouts) -> None:
        self.generated += stats.generated
        self.steps += stats.steps
        for accepted, n in stats.histogram.items():
            self.histogram[accepted] = self.histogram.get(accepted, 0) + n
        self.rows += sum(rows for _, rows, _ in layouts)
        self.no_speculation_steps += sum(empty for _, _, empty in layouts)


@dataclass
class DecodeRound:
    """One pass over the prompt suite. Times are scaled seconds."""

    outputs: list = field(default_factory=list)  # per prompt: (quadratic, linear, greedy)
    counts: dict = field(default_factory=lambda: {s: StrategyCounts() for s in STRATEGIES})
    seconds: dict = field(default_factory=dict)  # quadratic, linear, greedy, greedy_on_<strategy>
    greedy_tokens: int = 0
    step_ms: list = field(default_factory=list)  # every quadratic step
    ttft_ms: list = field(default_factory=list)  # first quadratic step per prompt

    def add_seconds(self, key: str, s: float) -> None:
        self.seconds[key] = self.seconds.get(key, 0.0) + s


@dataclass
class TrainCall:
    losses: list  # metrics rows without the wall-time column
    scaled_s: float
    steps: int
    step_ms: list  # scaled time from each optimizer step to the next


@dataclass
class Setup:
    model: object
    sampler: object
    base: object
    prompts: list


class Runner:
    """Runs operations, counts attempts and failures, keeps every Timed."""

    def __init__(self, setup: Setup, toy: ToyConfig, wl: Workload, seed: int, step_clock: StepClock):
        self.s = setup
        self.toy = toy
        self.wl = wl
        self.seed = seed
        self.step_clock = step_clock
        self.tracer: Tracer | None = None
        self.calibrate_steps = True  # reference work inside train() calls
        self.ops: list[tuple[str, Timed]] = []
        self.attempted = 0
        self.failed = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"FAILED: {message}", file=sys.stderr)

    def _op(self, kind: str, fn, *args, **kwargs):
        if self.tracer is not None:
            self.tracer.begin_op(kind, len(self.ops))
        try:
            result, t = timed(fn, *args, **kwargs)
        finally:
            if self.tracer is not None:
                self.tracer.end_op()
        self.ops.append((kind, t))
        return result, t

    # -- decode ---------------------------------------------------------------

    def decode_round(self, limit: int | None = None) -> DecodeRound:
        """Decode the suite, or its first `limit` prompts."""
        rnd = DecodeRound()
        for i, prompt in enumerate(self.s.prompts[:limit]):
            self.attempted += 1
            try:
                self._decode_prompt(prompt, rnd)
            except Exception:
                self.fail(f"prompt {i} raised\n{traceback.format_exc()}")
        return rnd

    def _speculate(self, strategy: str, prompt, rnd: DecodeRound):
        self.step_clock.layouts = layouts = []
        try:
            (out, stats), t = self._op(
                strategy, speculative_decode, self.s.model, self.s.sampler, prompt,
                K_EVAL, strategy, max_steps=self.wl.max_steps,
            )
        finally:
            self.step_clock.layouts = None
        if len(layouts) != stats.steps:
            raise RuntimeError(f"{strategy}: {len(layouts)} layouts built for {stats.steps} steps")
        rnd.counts[strategy].add(stats, layouts)
        rnd.add_seconds(strategy, t.scaled_s)
        if strategy == "quadratic":
            bounds = [start for start, _, _ in layouts] + [t.start + t.raw_s]
            steps = [1e3 * (b - a) * t.factor for a, b in zip(bounds, bounds[1:])]
            rnd.step_ms += steps
            rnd.ttft_ms.append(steps[0])
        return out

    def _decode_prompt(self, prompt, rnd: DecodeRound) -> None:
        outs = {s: self._speculate(s, prompt, rnd) for s in STRATEGIES}
        lengths = {s: len(out) - len(prompt) for s, out in outs.items()}
        lo, hi = sorted(lengths.values())
        first, t_lo = self._op("greedy", greedy_autoregressive, self.s.model, prompt, lo)
        greedy, t_hi = self._op("greedy", greedy_autoregressive, self.s.model, first, hi - lo)
        rnd.add_seconds("greedy", t_lo.scaled_s + t_hi.scaled_s)
        rnd.greedy_tokens += hi
        for s, n in lengths.items():
            rnd.add_seconds(f"greedy_on_{s}", t_lo.scaled_s + (t_hi.scaled_s if n > lo else 0.0))
            if outs[s] != greedy[: len(outs[s])]:
                at = next(i for i, (a, b) in enumerate(zip(outs[s], greedy)) if a != b)
                raise AssertionError(f"{s} output differs from greedy at index {at}")
        rnd.outputs.append((outs["quadratic"], outs["linear"], greedy))

    # -- train ----------------------------------------------------------------

    def train_call(self, call: int) -> TrainCall | None:
        self.attempted += 1
        wl, toy = self.wl, self.toy
        seed = train_seed(self.seed, call)
        cfg = train_config(
            toy, pattern_corpus(wl.train_corpus, seed, wl.train_seq_len),
            wl.train_steps, seed, wl.train_batch,
        )
        model = clone_base_with_rank(self.s.base, toy.lora_rank, seed)
        marks: list = []
        self.step_clock.optimizer_steps = marks if self.calibrate_steps else None
        try:
            result, t = self._op("train", train, cfg, model=model)
        except Exception:
            self.fail(f"train call {call} raised\n{traceback.format_exc()}")
            return None
        finally:
            self.step_clock.optimizer_steps = None
        losses = [tuple(row[:7]) for row in result.metrics]
        if not np.array_equal(result.probe_ntp_logits_initial, result.probe_ntp_logits_final):
            self.fail(f"train call {call}: probe regular-row logits moved")
        elif not all(np.isfinite(v) for row in losses for v in row[1:6]):
            self.fail(f"train call {call}: non-finite loss")
        pieces = t.scaled_segments(marks)
        # pieces[0] also holds train()'s own set-up and pieces[-1] its
        # final probe pass; the ones between are whole optimizer steps.
        return TrainCall(losses, sum(pieces), len(result.metrics), [1e3 * p for p in pieces[1:-1]])


def warm_up(setup: Setup, toy: ToyConfig, wl: Workload) -> None:
    """One short decode of each kind and two training steps, so first-call
    costs land in set-up and not in the first timed operation."""
    prompt = setup.prompts[0]
    for strategy in STRATEGIES:
        speculative_decode(setup.model, setup.sampler, prompt, K_EVAL, strategy, max_steps=2)
    greedy_autoregressive(setup.model, prompt, 2)
    cfg = train_config(toy, pattern_corpus(wl.train_corpus, 0, wl.train_seq_len), 2, 0, wl.train_batch)
    train(cfg, model=clone_base_with_rank(setup.base, toy.lora_rank, 0))


def run_decode(runner: Runner, budget_s: float) -> list[DecodeRound]:
    """Whole rounds over the suite while the next one is expected to fit
    the budget; at least one."""
    rounds = []
    t0 = time.perf_counter()
    while True:
        rounds.append(runner.decode_round())
        elapsed = time.perf_counter() - t0
        if elapsed * (len(rounds) + 1) / len(rounds) > budget_s:
            return rounds


def run_train(runner: Runner, budget_s: float) -> list[TrainCall]:
    """train() calls while the next is expected to fit the budget, and at
    least enough for MIN_TRAIN_STEP_SAMPLES step times."""
    calls: list[TrainCall] = []
    per_call = max(1, runner.wl.train_steps - 1)
    t0 = time.perf_counter()
    n = 0
    while True:
        call = runner.train_call(n)
        n += 1
        if call is not None:
            calls.append(call)
        elapsed = time.perf_counter() - t0
        if n * per_call >= MIN_TRAIN_STEP_SAMPLES and elapsed * (n + 1) / n > budget_s:
            return calls


def run_traced(runner: Runner, tracer: Tracer) -> tuple[DecodeRound, float]:
    """An untraced and then a traced pass over the same prompts and train()
    calls, which must agree exactly. Returns the traced round and the
    tracing overhead: traced over untraced scaled time, in percent."""
    runner.calibrate_steps = False  # keep the two passes' work identical
    plain = runner.decode_round(TRACED_PROMPTS)
    plain_losses = [c and c.losses for c in map(runner.train_call, range(TRACED_TRAIN_CALLS))]
    n_plain = len(runner.ops)
    tracer.install()
    runner.tracer = tracer
    try:
        traced = runner.decode_round(TRACED_PROMPTS)
        traced_losses = [c and c.losses for c in map(runner.train_call, range(TRACED_TRAIN_CALLS))]
    finally:
        tracer.remove()
        runner.tracer = None
    same_work(runner, plain, traced, "traced run")
    if plain_losses != traced_losses:
        runner.fail("traced run: training losses differ")
    scaled = [t.scaled_s for _, t in runner.ops]
    return traced, 100 * (sum(scaled[n_plain:]) / sum(scaled[:n_plain]) - 1)


def same_work(runner: Runner, a: DecodeRound, b: DecodeRound, what: str) -> None:
    """Two passes over one suite must emit the same tokens and counts."""
    if a.outputs != b.outputs:
        runner.fail(f"{what}: decoded tokens differ")
    if a.counts != b.counts:
        runner.fail(f"{what}: step counts differ: {a.counts} vs {b.counts}")


def end_to_end(rounds: list[DecodeRound], calls: list[TrainCall], setup_s: list[float]) -> dict:
    """name -> (value, sample count)."""

    def per_round(fn):
        return statistics.median(fn(r) for r in rounds), len(rounds)

    first = rounds[0]
    steps = np.array([ms for r in rounds for ms in r.step_ms])
    ttft = [ms for r in rounds for ms in r.ttft_ms]
    train_steps = np.array([ms for c in calls for ms in c.step_ms])
    out = {
        "setup_s": (statistics.median(setup_s), len(setup_s)),
        "greedy_ms_per_token": per_round(lambda r: 1e3 * r.seconds["greedy"] / r.greedy_tokens),
        "quadratic_step_ms_p50": (float(np.percentile(steps, 50)), steps.size),
        "quadratic_step_ms_p90": (float(np.percentile(steps, 90)), steps.size),
        "ttft_ms_p50": (statistics.median(ttft), len(ttft)),
        "train_ms_per_step": (statistics.median(1e3 * c.scaled_s / c.steps for c in calls), len(calls)),
        "train_ms_per_step_p90": (float(np.percentile(train_steps, 90)), train_steps.size),
    }
    for s in STRATEGIES:
        c = first.counts[s]
        out[f"{s}_ms_per_token"] = per_round(lambda r: 1e3 * r.seconds[s] / r.counts[s].generated)
        out[f"{s}_speedup"] = per_round(lambda r: r.seconds[f"greedy_on_{s}"] / r.seconds[s])
        out[f"{s}_acceptance_rate"] = (c.generated / c.steps, c.steps)
    return out

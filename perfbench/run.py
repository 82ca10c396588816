"""Decode and training benchmark for specmtp.

    python3 perfbench/run.py --workload short --seed 0 --seconds 50 --trace 0

Run from the root of a checkout. The first run builds the toy checkpoint
(about a minute) and caches it under .bench_build. Each run then sets up
several times (loads the checkpoints, builds the seeded prompt suite,
warms up) and reports the median, decodes the suite in whole rounds for
up to DECODE_SHARE of --seconds, and trains for the rest.

--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced and
one traced pass over the same inputs (the first TRACED_PROMPTS prompts
and TRACED_TRAIN_CALLS train() calls), requires identical tokens, counts
and losses from both, writes the spans under .bench_build, and prints the
per-layer metrics plus the tracing overhead. The last line of standard
output is one JSON object: correct, attempted, failed, metrics. Any
failed check exits 1; a checkout without the package exits 2.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9


def blas_info() -> tuple[str, str]:
    """(library and build, live thread count) as OpenBLAS reports them."""
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    name = f"{blas.get('name')} {blas.get('version')}"
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(dll, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(dll, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    config.restype = ctypes.c_char_p
                    return f"{name} ({config().decode()})", str(threads())
    return name, "unknown (env pinned to 1)"


def measure(args, manifest, toy=None, wl=None, cache=None) -> int:
    """One run; toy, wl and cache default to the full benchmark's (the
    self-test passes tiny ones)."""
    import numpy as np

    from clock import timed
    from layers import layer_metrics
    from spans import StepClock, Tracer
    from specmtp import load_checkpoint
    from toymodel import CACHE_DIR, ToyConfig, ensure_checkpoints, payload_digest
    from workloads import (
        DECODE_SHARE, K_EVAL, WORKLOADS, Runner, Setup,
        end_to_end, prompt_suite, run_decode, run_traced, run_train, same_work, warm_up,
    )

    wl = wl or WORKLOADS[args.workload]
    toy = toy or ToyConfig()
    cache = cache or ROOT / CACHE_DIR
    t0 = time.perf_counter()
    base_path, model_path = ensure_checkpoints(ROOT, toy, cache)
    print(f"checkpoint ready in {time.perf_counter() - t0:.1f} s: {model_path.parent}")

    def set_up():
        (model, sampler, _), t_load = timed(load_checkpoint, model_path)
        base, _, _ = load_checkpoint(base_path)
        s = Setup(model, sampler, base, prompt_suite(wl, args.seed))
        warm_up(s, toy, wl)
        return s, 1e3 * t_load.scaled_s

    setup_s, load_ms = [], []
    for _ in range(SETUP_REPEATS):
        (setup, ms), t = timed(set_up)
        setup_s.append(t.scaled_s)
        load_ms.append(ms)

    blas, threads = blas_info()
    for key, value in (
        ("workload", wl.name), ("seed", args.seed), ("seconds", args.seconds),
        ("python", platform.python_version()), ("numpy", np.__version__),
        ("blas", blas), ("blas_threads", threads), ("nproc", os.cpu_count()),
        ("checkpoint_digest", payload_digest(model_path)),
        ("prompts", f"{len(setup.prompts)} x {wl.prompt_len} tokens, {wl.max_steps} steps, k={K_EVAL}"),
    ):
        print(f"env {key}: {value}")

    step_clock = StepClock()
    step_clock.install()
    runner = Runner(setup, toy, wl, args.seed, step_clock)
    try:
        if args.trace:
            tracer = Tracer()
            traced, overhead = run_traced(runner, tracer)
            trace_path = cache / "traces" / f"{wl.name}-seed{args.seed}.jsonl"
            tracer.write(trace_path)
            print(f"spans: {len(tracer.spans)} written to {trace_path}")
            metrics = layer_metrics(tracer, runner.ops, traced.counts, K_EVAL, load_ms, overhead)
            section = "per_layer"
        else:
            t_decode = time.perf_counter()
            rounds = run_decode(runner, DECODE_SHARE * args.seconds)
            for i, r in enumerate(rounds[1:], start=2):
                same_work(runner, rounds[0], r, f"round {i}")
            calls = run_train(runner, args.seconds - (time.perf_counter() - t_decode))
            metrics = end_to_end(rounds, calls, setup_s)
            section = "end_to_end"
    finally:
        step_clock.remove()

    units = {m["name"]: m["unit"] for m in manifest[section]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")
    for name, (value, n) in metrics.items():
        print(f"{name} {value:.6g} {units[name]} (n={n})")
    print(f"failure_rate {runner.failed / max(1, runner.attempted):.6g} ({runner.failed}/{runner.attempted} operations)")
    correct = runner.failed == 0 and runner.attempted > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {n: {"value": float(v), "unit": units[n]} for n, (v, _) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One BLAS thread, so runs compare. Set before anything imports numpy.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (ROOT / "src" / "specmtp" / "__init__.py").is_file():
        print(f"error: no specmtp package under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in manifest["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    return measure(args, manifest)


if __name__ == "__main__":
    sys.exit(main())

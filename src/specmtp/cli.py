"""Command-line front end: data generation, training, decoding, benchmark
reports, the future-token probe, and the exactness verification suite.

Exit codes: 0 ok, 1 usage, 2 I/O, 3 verification failure, 4 divergence.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint
from .decoding import STRATEGIES, future_rank_probe, greedy_autoregressive, speculative_decode
from .training import (
    MODEL_FIELDS,
    CorpusSpec,
    DivergenceError,
    TrainConfig,
    Vocab,
    derive_rng,
    generate_corpus,
    train,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_VERIFY = 3
EXIT_DIVERGENCE = 4


class UsageError(ValueError):
    pass


class VerificationFailure(RuntimeError):
    pass


# -----------------------------------------------------------------------------
# Config file: [section] + key = value, every key defaulted, unknown keys fatal
# -----------------------------------------------------------------------------


def _config_sections() -> dict[str, dict[str, tuple[str, type]]]:
    """[section] -> key -> (dataclass field, type), read off the dataclasses.

    [corpus] is CorpusSpec; [model] is the ModelConfig sizes TrainConfig
    repeats; [loss] is the loss_* weights without their prefix plus the
    sampler and gate switches; [train] is every other TrainConfig field.
    """
    corpus_types = get_type_hints(CorpusSpec)
    types = get_type_hints(TrainConfig)
    sections = {
        "corpus": {f.name: (f.name, corpus_types[f.name]) for f in fields(CorpusSpec)},
        "model": {},
        "train": {},
        "loss": {},
    }
    for f in fields(TrainConfig):
        if f.name == "corpus":
            continue
        if f.name in MODEL_FIELDS:
            section, key = "model", f.name
        elif f.name.startswith("loss_"):
            section, key = "loss", f.name[len("loss_") :]
        elif f.name in ("use_sampler", "gated"):
            section, key = "loss", f.name
        else:
            section, key = "train", f.name
        sections[section][key] = (f.name, types[f.name])
    return sections


_SECTIONS = _config_sections()


def _parse_value(raw: str, typ):
    raw = raw.strip()
    if typ is bool:
        if raw.lower() in ("1", "true", "on", "yes"):
            return True
        if raw.lower() in ("0", "false", "off", "no"):
            return False
        raise UsageError(f"expected a boolean, got {raw!r}")
    try:
        return typ(raw)
    except ValueError as exc:
        raise UsageError(f"bad value {raw!r}: {exc}") from exc


def parse_config_text(text: str) -> TrainConfig:
    """Strict parse: every key must belong to its section's schema."""
    section = None
    corpus_kwargs: dict = {}
    cfg_kwargs: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in _SECTIONS:
                raise UsageError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in stripped:
            raise UsageError(f"line {lineno}: expected key = value")
        if section is None:
            raise UsageError(f"line {lineno}: key outside any [section]")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _SECTIONS[section]:
            raise UsageError(f"line {lineno}: unknown key {key!r} in [{section}]")
        name, typ = _SECTIONS[section][key]
        kwargs = corpus_kwargs if section == "corpus" else cfg_kwargs
        kwargs[name] = _parse_value(raw, typ)
    try:
        return TrainConfig(corpus=CorpusSpec(**corpus_kwargs), **cfg_kwargs)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from exc


def render_config(cfg: TrainConfig) -> str:
    """Inverse of parse_config_text with every key resolved."""
    lines = []
    for section, keys in _SECTIONS.items():
        owner = cfg.corpus if section == "corpus" else cfg
        lines.append(f"[{section}]")
        for key, (name, typ) in keys.items():
            value = getattr(owner, name)
            if typ is bool:
                value = "true" if value else "false"
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)


# -----------------------------------------------------------------------------
# Shared helpers
# -----------------------------------------------------------------------------


def _load(ckpt_path: str):
    path = Path(ckpt_path)
    if not path.exists():
        raise FileNotFoundError(f"checkpoint not found: {path}")
    model, sampler, meta = load_checkpoint(path)
    charset = meta.get("charset")
    if charset is None:
        raise CheckpointError("checkpoint carries no charset meta")
    vocab = Vocab(charset, model.config.k_masks)
    if vocab.size != model.config.vocab_size:
        raise CheckpointError("charset does not match the stored vocabulary size")
    return model, sampler, vocab, meta


def _suite_prompts(suite: str, vocab: Vocab, count: int, prompt_len: int, seed: int):
    """Prompt id-lists for bench/verify. `suite` is random, pattern,
    arithmetic, or a path to a text file with one prompt per line."""
    if count < 0:
        raise UsageError("--prompts must be >= 0")
    rng = derive_rng(seed, f"suite.{suite}")
    prompts = []
    if Path(suite).is_file():
        for line in Path(suite).read_text(encoding="utf-8").splitlines():
            if line:
                prompts.append(vocab.encode(line).tolist())
        if not prompts:
            raise UsageError(f"no prompts in {suite}")
        return prompts[:count] if count else prompts
    if count < 1:
        raise UsageError("--prompts must be >= 1 for a generated suite")
    if suite == "random":
        for _ in range(count):
            chars = rng.integers(0, len(vocab.charset), size=prompt_len)
            prompts.append([vocab.bos] + chars.tolist())
    elif suite == "pattern":
        period = max(2, min(4, prompt_len // 2))
        for _ in range(count):
            motif = rng.integers(0, len(vocab.charset), size=period)
            chars = np.tile(motif, prompt_len // period + 1)[:prompt_len]
            prompts.append([vocab.bos] + chars.tolist())
    elif suite == "arithmetic":
        digits = max(1, (prompt_len - 2) // 2)
        hi = 10**digits
        for _ in range(count):
            a, b = int(rng.integers(0, hi)), int(rng.integers(0, hi))
            text = f"{a:0{digits}d}+{b:0{digits}d}="
            prompts.append(vocab.encode(text).tolist())
    else:
        raise UsageError(f"unknown suite {suite!r} (and no such file)")
    return prompts


# -----------------------------------------------------------------------------
# Commands
# -----------------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    spec = CorpusSpec(
        task=args.task, size=args.size, seed=args.seed, seq_len=args.seq_len,
        period=args.period, alphabet=args.alphabet, digits=args.digits,
        path=args.path,
    )
    vocab = spec.vocab(k_masks=1)
    corpus = generate_corpus(spec, k_masks=1)
    payload = {
        "task": spec.task,
        "charset": vocab.charset,
        "sequences": [
            {"ids": ids.tolist(), "flags": flags.tolist(), "text": vocab.decode(ids)}
            for ids, flags in corpus
        ],
    }
    Path(args.out).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(corpus)} sequences to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = parse_config_text(Path(args.config).read_text(encoding="utf-8"))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.txt").write_text(render_config(cfg), encoding="utf-8")
    result = train(
        cfg,
        log_path=out_dir / "metrics.csv",
        checkpoint_path=out_dir / "model.ckpt",
        verbose=not args.quiet,
    )
    last = result.metrics[-1]
    print(
        f"trained {cfg.total_steps} steps; final total {last[4]:.4f}, "
        f"ntp {last[5]:.4f}; checkpoint at {out_dir / 'model.ckpt'}"
    )
    return EXIT_OK


def cmd_decode(args) -> int:
    model, sampler, vocab, _ = _load(args.ckpt)
    prompt = vocab.encode(args.prompt).tolist()
    if args.no_sampler:
        sampler = None
    if args.strategy == "greedy":
        out = greedy_autoregressive(model, prompt, args.max_new, eos=vocab.eos)
        print(vocab.decode(out[len(prompt):]))
        print(f"tokens={len(out) - len(prompt)} steps={len(out) - len(prompt)} rate=1.0")
        return EXIT_OK
    out, stats = speculative_decode(
        model, sampler, prompt, args.k, args.strategy,
        max_steps=args.max_steps, eos=vocab.eos,
    )
    print(vocab.decode(out[len(prompt):]))
    # No step runs when the prompt leaves no room below max_position.
    rate = f"{stats.rate:.4f}" if stats.steps else "n/a"
    print(f"tokens={stats.generated} steps={stats.steps} rate={rate}")
    return EXIT_OK


def _bench_rows(model, sampler, vocab, meta, prompts, task, strategies, ks, max_steps, ablate):
    lcm_trained = "0"
    weights = meta.get("loss_weights", "")
    if weights:
        lcm_trained = "1" if float(weights.split(",")[-1]) > 0 else "0"
    sampler_modes = [True] if sampler is not None else [False]
    if ablate and sampler is not None:
        sampler_modes.append(False)
    rows = []
    for k in ks:
        for strategy in strategies:
            for use_sampler in sampler_modes:
                rates, token_times = [], []
                for prompt in prompts:
                    t0 = time.perf_counter()
                    _, stats = speculative_decode(
                        model, sampler if use_sampler else None, prompt, k,
                        strategy, max_steps=max_steps, eos=vocab.eos,
                    )
                    dt = time.perf_counter() - t0
                    rates.append(stats.rate)
                    token_times.append(1e3 * dt / max(1, stats.generated))
                rows.append(
                    {
                        "task": task,
                        "strategy": strategy,
                        "k_eval": k,
                        "sampler": int(use_sampler),
                        "lcm_trained": lcm_trained,
                        "lora_rank": model.config.lora_rank,
                        "rate_mean": float(np.mean(rates)),
                        "rate_std": float(np.std(rates)),
                        "prompts": len(prompts),
                        "wall_ms_per_token": float(np.mean(token_times)),
                    }
                )
    rows.sort(key=lambda r: (r["task"], r["k_eval"], r["strategy"], -r["sampler"]))
    return rows


BENCH_COLUMNS = [
    "task", "strategy", "k_eval", "sampler", "lcm_trained", "lora_rank",
    "rate_mean", "rate_std", "prompts", "wall_ms_per_token",
]


def format_bench_table(rows) -> str:
    def fmt(row, col):
        value = row[col]
        return f"{value:.4f}" if isinstance(value, float) else str(value)

    widths = {c: max(len(c), *(len(fmt(r, c)) for r in rows)) for c in BENCH_COLUMNS}
    lines = ["  ".join(c.ljust(widths[c]) for c in BENCH_COLUMNS)]
    for row in rows:
        lines.append("  ".join(fmt(row, c).ljust(widths[c]) for c in BENCH_COLUMNS))
    return "\n".join(lines)


def bench_csv(rows) -> str:
    lines = [",".join(BENCH_COLUMNS)]
    for row in rows:
        cells = []
        for col in BENCH_COLUMNS:
            value = row[col]
            cells.append(f"{value:.6g}" if isinstance(value, float) else str(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def cmd_bench(args) -> int:
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    if not strategies:
        raise UsageError(f"--strategies names no strategy (choose from {', '.join(STRATEGIES)})")
    unknown = [s for s in strategies if s not in STRATEGIES]
    if unknown:
        raise UsageError(f"unknown strategy {unknown[0]!r} (choose from {', '.join(STRATEGIES)})")
    model, sampler, vocab, meta = _load(args.ckpt)
    k_lo, _, k_hi = args.k_range.partition("-")
    ks = list(range(int(k_lo), int(k_hi or k_lo) + 1))
    if not ks or ks[-1] > model.config.k_masks:
        raise UsageError(f"k range must stay within 1..{model.config.k_masks}")
    prompts = _suite_prompts(args.suite, vocab, args.prompts, args.prompt_len, args.seed)
    rows = _bench_rows(
        model, sampler, vocab, meta, prompts,
        args.suite if not Path(args.suite).is_file() else Path(args.suite).stem,
        strategies, ks, args.max_steps, args.ablate,
    )
    for row in rows:
        if not 1.0 <= row["rate_mean"] <= row["k_eval"] + 1:
            raise VerificationFailure("acceptance rate escaped its bounds")
    print(format_bench_table(rows))
    if args.out:
        Path(args.out).write_text(bench_csv(rows), encoding="utf-8")
        print(f"report written to {args.out}")
    return EXIT_OK


def cmd_probe(args) -> int:
    model, _, vocab, _ = _load(args.ckpt)
    prompt = vocab.encode(args.prompt).tolist()
    future = vocab.encode(args.future, add_bos=False).tolist()
    k = args.k or model.config.k_masks
    ranks = future_rank_probe(model, prompt, future, k)
    for ch, rank in zip(args.future, ranks):
        print(f"{ch!r}: rank {rank}")
    print(f"median rank: {float(np.median(ranks)):.1f}")
    return EXIT_OK


def cmd_verify(args) -> int:
    model, sampler, vocab, _ = _load(args.ckpt)
    prompts = _suite_prompts(args.suite, vocab, args.prompts, args.prompt_len, args.seed)
    checked = 0
    for strategy in ("linear", "quadratic"):
        for prompt in prompts:
            out, _ = speculative_decode(
                model, sampler, prompt, args.k, strategy,
                max_steps=args.max_steps, eos=vocab.eos,
            )
            ref = greedy_autoregressive(model, prompt, len(out) - len(prompt), eos=vocab.eos)
            if out != ref:
                first = next(i for i, (x, y) in enumerate(zip(out, ref)) if x != y)
                raise VerificationFailure(
                    f"{strategy} decoding diverged from greedy at index {first} "
                    f"for prompt {vocab.decode(prompt)!r}"
                )
            checked += 1
    print(f"verified {checked} decode runs match greedy decoding exactly")
    return EXIT_OK


# -----------------------------------------------------------------------------
# Parser and entry point
# -----------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specmtp",
        description="Multi-token prediction with mask tokens and speculative decoding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic corpus as JSON")
    p.add_argument("--task", required=True, choices=["pattern", "arithmetic", "file"])
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seq-len", dest="seq_len", type=int, default=24)
    p.add_argument("--period", type=int, default=4)
    p.add_argument("--alphabet", default="abcdef")
    p.add_argument("--digits", type=int, default=2)
    p.add_argument("--path", default="")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train from a config file into a run directory")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("decode", help="decode a prompt with a trained checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--prompt", required=True)
    p.add_argument("--strategy", default="quadratic", choices=["greedy", "linear", "quadratic"])
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--max-steps", dest="max_steps", type=int, default=100)
    p.add_argument("--max-new", dest="max_new", type=int, default=64)
    p.add_argument("--no-sampler", dest="no_sampler", action="store_true")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("bench", help="acceptance-rate report over a prompt suite")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--suite", default="random")
    p.add_argument("--prompts", type=int, default=20)
    p.add_argument("--prompt-len", dest="prompt_len", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--strategies", default="linear,quadratic")
    p.add_argument("--k-range", dest="k_range", default="1-4")
    p.add_argument("--max-steps", dest="max_steps", type=int, default=100)
    p.add_argument("--ablate", action="store_true", help="also bench with the sampler off")
    p.add_argument("--out", default="")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("probe", help="rank of true future tokens at appended masks")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--prompt", required=True)
    p.add_argument("--future", required=True)
    p.add_argument("--k", type=int, default=0)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("verify", help="assert speculative output equals greedy output")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--suite", default="random")
    p.add_argument("--prompts", type=int, default=100)
    p.add_argument("--prompt-len", dest="prompt_len", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--max-steps", dest="max_steps", type=int, default=10)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (OSError, CheckpointError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

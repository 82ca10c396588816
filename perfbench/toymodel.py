"""The fixed toy checkpoint the benchmark measures.

It is the pattern-task configuration of the test suite: a frozen base
pretrained on the causal objective, then gated fine-tuning of adapters,
mask rows and sampler head. Both checkpoints are built once per checkout
and kept under .bench_build, keyed by the package source and this
configuration, so a changed program never reuses a stale model.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from pathlib import Path

from specmtp import (
    clone_base_with_rank,
    pretrain_base,
    save_checkpoint,
    train,
)
from specmtp.training import CorpusSpec, TrainConfig

CACHE_DIR = Path(".bench_build") / "perfbench"


@dataclass(frozen=True)
class ToyConfig:
    d_model: int = 32
    n_layers: int = 2
    n_heads: int = 2
    d_ff: int = 64
    k_masks: int = 4
    lora_rank: int = 8
    max_position: int = 256
    corpus_size: int = 48
    seq_len: int = 16
    pretrain_steps: int = 600
    finetune_steps: int = 400
    warmup_steps: int = 30
    batch_size: int = 4
    learning_rate: float = 3e-3


def pattern_corpus(size: int, seed: int, seq_len: int) -> CorpusSpec:
    return CorpusSpec(task="pattern", size=size, seed=seed, seq_len=seq_len, period=4, alphabet="abcdef")


def train_config(
    toy: ToyConfig, corpus: CorpusSpec, total_steps: int, seed: int, batch_size: int
) -> TrainConfig:
    return TrainConfig(
        corpus=corpus,
        d_model=toy.d_model,
        n_layers=toy.n_layers,
        n_heads=toy.n_heads,
        d_ff=toy.d_ff,
        k_masks=toy.k_masks,
        lora_rank=toy.lora_rank,
        max_position=toy.max_position,
        learning_rate=toy.learning_rate,
        warmup_steps=min(toy.warmup_steps, total_steps),
        total_steps=total_steps,
        batch_size=batch_size,
        seed=seed,
        pretrain_steps=toy.pretrain_steps,
        pretrain_lr=toy.learning_rate,
    )


def _cache_key(root: Path, toy: ToyConfig) -> str:
    h = hashlib.blake2b(repr(toy).encode(), digest_size=8)
    for path in sorted((root / "src" / "specmtp").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def ensure_checkpoints(root: Path, toy: ToyConfig, cache: Path) -> tuple[Path, Path]:
    """Paths of (frozen base, fine-tuned model with sampler); builds them
    on first use. Each file is written whole under a temporary name and
    renamed, so a killed build leaves nothing that looks finished."""
    directory = cache / f"toy-{_cache_key(root, toy)}"
    base_path, model_path = directory / "base.ckpt", directory / "model.ckpt"
    if base_path.is_file() and model_path.is_file():
        return base_path, model_path
    directory.mkdir(parents=True, exist_ok=True)
    cfg = train_config(
        toy, pattern_corpus(toy.corpus_size, 0, toy.seq_len), toy.finetune_steps, 0, toy.batch_size
    )
    base = pretrain_base(cfg)
    tuned = train(cfg, model=clone_base_with_rank(base, toy.lora_rank, 0))
    for path, model, sampler in ((base_path, base, None), (model_path, tuned.model, tuned.sampler)):
        partial = path.with_suffix(f".partial{os.getpid()}")
        save_checkpoint(model, sampler, partial)
        os.replace(partial, path)
    return base_path, model_path


def payload_digest(path: Path) -> str:
    """The checkpoint's trailing 64-bit payload digest, in hex."""
    with path.open("rb") as fh:
        fh.seek(-8, os.SEEK_END)
        return f"{int.from_bytes(fh.read(8), 'little'):016x}"

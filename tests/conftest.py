"""Shared trained checkpoints. Training is the slow part of the suite, so
every fine-tuned variant is built once per session from one pretrained
base and handed out as a fresh clone."""

import pytest

from specmtp.model import forward
from specmtp.training import (
    CorpusSpec,
    TrainConfig,
    clone_base_with_rank,
    generate_corpus,
    pretrain_base,
    train,
)

PATTERN_CORPUS = CorpusSpec(
    task="pattern", size=48, seed=0, seq_len=16, period=4, alphabet="abcdef"
)


def pattern_config(**over) -> TrainConfig:
    base = dict(
        corpus=PATTERN_CORPUS,
        d_model=32,
        n_layers=2,
        n_heads=2,
        d_ff=64,
        k_masks=4,
        lora_rank=8,
        max_position=256,
        learning_rate=3e-3,
        warmup_steps=30,
        total_steps=400,
        batch_size=4,
        seed=0,
        pretrain_steps=600,
        pretrain_lr=3e-3,
    )
    base.update(over)
    return TrainConfig(**base)


def run_batch(model, batch):
    """`forward` over a MaskedBatch's layout."""
    return forward(model, batch.tokens, batch.position_ids, batch.attention_allowed, batch.gate)


def heldout_prompts(count=12, prompt_len=9, seed=99):
    spec = CorpusSpec(
        task="pattern", size=count, seed=seed, seq_len=16, period=4, alphabet="abcdef"
    )
    return [seq[:prompt_len].tolist() for seq, _ in generate_corpus(spec, 4)]


@pytest.fixture(scope="session")
def pretrained_base():
    return pretrain_base(pattern_config())


def finetune(pretrained, rank=8, seed=0, **over):
    cfg = pattern_config(lora_rank=rank, seed=seed, **over)
    return train(cfg, model=clone_base_with_rank(pretrained, rank, seed))


@pytest.fixture(scope="session")
def trained_full(pretrained_base):
    """Sampler head plus consistency loss: the most advanced configuration."""
    return finetune(pretrained_base)


@pytest.fixture(scope="session")
def trained_plain(pretrained_base):
    """No sampler, no consistency loss: the simplest configuration."""
    return finetune(pretrained_base, use_sampler=False, loss_sampler=0.0, loss_lcm=0.0)


@pytest.fixture(scope="session")
def trained_sampler_only(pretrained_base):
    """Sampler head but no consistency loss (the middle rung)."""
    return finetune(pretrained_base, loss_lcm=0.0)


ARITH_CORPUS = CorpusSpec(task="arithmetic", size=80, seed=0, digits=1)


@pytest.fixture(scope="session")
def arithmetic_models():
    """(frozen base, fine-tuned result) on single-digit addition, where
    anticipating the sum digit actually requires the mask machinery."""
    cfg = pattern_config(corpus=ARITH_CORPUS, pretrain_steps=800, total_steps=500)
    base = pretrain_base(cfg)
    result = train(cfg, model=clone_base_with_rank(base, cfg.lora_rank, cfg.seed))
    return base, result

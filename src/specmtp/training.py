"""Synthetic corpora, the fine-tuning loop, and AdamW.

Only the weights that the parameter tables flag trainable (`model_params`,
`sampler_params`: the adapter factors, the mask-token embedding rows and
the sampler head) ever receive updates; the base transformer stays frozen.
The loop logs one comma-separated metrics record per step and tracks the
regular next-token loss on a frozen probe batch, which must not move while
the gate is honored.

A step's sequences go through one taped forward, one set of loss ops and
one backward, stacked on a leading axis (`build_training_stack`). Losses,
metrics and gradients are byte-identical to a loop with one pass per
sequence, which the tests keep as the oracle.

In gated mode, while only those weights train, no step can move a regular
row. So a `train()` call computes the regular rows of every sequence its
steps pick once, by one untaped causal pass whose result is their cache
(`regular_rows`), and each step's taped pass runs the mask rows alone,
attending to those rows' keys and values; the losses read the cached rows
joined over the mask rows.
Those rows come from a pass over fewer rows than the training layout's, so
their bytes can differ from a full pass's in the last bits. The ungated
ablation, a run that trains a base weight, and `pretrain_base` run the
full pass at every step.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .batching import MaskedBatch, build_training_stack
from .checkpoint import save_checkpoint
from .decoding import speculative_decode
from .losses import base_and_sampler_ce, lcm_loss, ntp_only_ce, total_loss
from .model import ForwardResult, ModelBundle, ModelConfig, build_model, draw_params, forward, init_model, model_params
from .sampler import SamplerHead, init_sampler, sampler_params
from .tensor import (
    NumericsError,
    Tape,
    Tensor,
    backward,
    cross_entropy,
    derive_rng,
    fold_add,
    scale,
)

METRICS_HEADER = "step,base_ce,sampler_ce,lcm,total,ntp_only_ce,lr,wall_ms"


class DivergenceError(RuntimeError):
    """Training loss went non-finite or blew past the divergence bound."""


# -----------------------------------------------------------------------------
# Vocabulary and corpora
# -----------------------------------------------------------------------------


@dataclass(frozen=True)
class Vocab:
    """Character vocabulary plus reserved ids: charset, BOS, EOS, PAD, then
    the k mask ids at the very top."""

    charset: str
    k_masks: int

    @property
    def bos(self) -> int:
        return len(self.charset)

    @property
    def eos(self) -> int:
        return len(self.charset) + 1

    @property
    def pad(self) -> int:
        return len(self.charset) + 2

    @property
    def size(self) -> int:
        return len(self.charset) + 3 + self.k_masks

    @property
    def first_mask(self) -> int:
        return len(self.charset) + 3

    def encode(self, text: str, add_bos: bool = True, add_eos: bool = False) -> np.ndarray:
        ids = []
        if add_bos:
            ids.append(self.bos)
        for ch in text:
            j = self.charset.find(ch)
            if j < 0:
                raise ValueError(f"character {ch!r} not in the vocabulary")
            ids.append(j)
        if add_eos:
            ids.append(self.eos)
        return np.asarray(ids, dtype=np.int64)

    def decode(self, ids) -> str:
        pieces = []
        for t in ids:
            t = int(t)
            if t < len(self.charset):
                pieces.append(self.charset[t])
            elif t == self.bos:
                pieces.append("<bos>")
            elif t == self.eos:
                pieces.append("<eos>")
            elif t == self.pad:
                pieces.append("<pad>")
            else:
                pieces.append(f"<m{t - self.first_mask + 1}>")
        return "".join(pieces)


CORPUS_TASKS = ("pattern", "arithmetic", "file")


@dataclass(frozen=True)
class CorpusSpec:
    """What text to synthesize: repeating motifs, char-level addition, or a
    raw text file chopped into windows."""

    task: str = "pattern"
    size: int = 64
    seed: int = 0
    seq_len: int = 24
    period: int = 4  # pattern task
    alphabet: str = "abcdef"  # pattern task
    digits: int = 2  # arithmetic task
    path: str = ""  # file task

    def __post_init__(self):
        if self.task not in CORPUS_TASKS:
            raise ValueError(f"unknown corpus task {self.task!r} (choose from {', '.join(CORPUS_TASKS)})")
        if self.task == "file" and not self.path:
            raise ValueError("corpus task 'file' needs a path")
        if self.size < 1 or self.period < 1:
            raise ValueError("corpus size and period must be >= 1")
        if self.seq_len < 1:
            raise ValueError(f"corpus seq_len (--seq-len) must be >= 1, got {self.seq_len}")
        if not self.alphabet:
            raise ValueError("corpus alphabet (--alphabet) must not be empty")
        if self.digits < 1:
            raise ValueError(f"corpus digits (--digits) must be >= 1, got {self.digits}")

    def text(self) -> str | None:
        """The file task's text, one read of its file; None for the other
        tasks, which read nothing."""
        return Path(self.path).read_text(encoding="utf-8") if self.task == "file" else None

    def charset(self, text: str | None = None) -> str:
        """The characters of the corpus: the file task's are those of its
        `text`, read from the file when not given."""
        if self.task == "pattern":
            return self.alphabet
        if self.task == "arithmetic":
            return "0123456789+="
        return "".join(sorted(set(self.text() if text is None else text)))

    def vocab(self, k_masks: int) -> Vocab:
        return Vocab(self.charset(), k_masks)


def generate_corpus(spec: CorpusSpec, text: str | None = None) -> list[tuple[np.ndarray, np.ndarray]]:
    """Deterministic (token ids, loss flags) pairs. flags[i] == 1 means the
    row of token i carries a next-token loss (and spawns masks). The file
    task windows its `text`, read from the file once when not given."""
    if text is None:
        text = spec.text()
    vocab = Vocab(spec.charset(text), 1)  # the ids below the mask ids do not depend on their count
    out: list[tuple[np.ndarray, np.ndarray]] = []
    if spec.task == "pattern":
        for idx in range(spec.size):
            rng = derive_rng(spec.seed, f"pattern.{idx}")
            motif = rng.integers(0, len(spec.alphabet), size=spec.period)
            reps = int(np.ceil(spec.seq_len / spec.period))
            chars = np.tile(motif, reps)[: spec.seq_len]
            ids = np.concatenate([[vocab.bos], chars]).astype(np.int64)
            flags = np.ones(len(ids), dtype=np.int64)
            flags[-1] = 0
            out.append((ids, flags))
    elif spec.task == "arithmetic":
        hi = 10**spec.digits
        for idx in range(spec.size):
            rng = derive_rng(spec.seed, f"arithmetic.{idx}")
            a, b = int(rng.integers(0, hi)), int(rng.integers(0, hi))
            text = f"{a:0{spec.digits}d}+{b:0{spec.digits}d}={a + b:0{spec.digits + 1}d}"
            ids = vocab.encode(text, add_bos=True, add_eos=True)
            eq_pos = int(np.flatnonzero(ids == vocab.charset.find("="))[0])
            flags = np.zeros(len(ids), dtype=np.int64)
            flags[eq_pos : len(ids) - 1] = 1  # loss on the answer span and eos
            out.append((ids, flags))
    else:  # file
        if len(text) < spec.seq_len:
            raise ValueError("file shorter than one window")
        rng = derive_rng(spec.seed, "file.windows")
        for _ in range(spec.size):
            start = int(rng.integers(0, len(text) - spec.seq_len + 1))
            ids = vocab.encode(text[start : start + spec.seq_len], add_bos=True)
            flags = np.ones(len(ids), dtype=np.int64)
            flags[-1] = 0
            out.append((ids, flags))
    return out


# -----------------------------------------------------------------------------
# AdamW
# -----------------------------------------------------------------------------


def adamw_step(p, g, m, v, t, lr, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
    """In-place decoupled-weight-decay update for one parameter array.

    t is the 1-based step count. Bias correction makes the very first
    step move by roughly lr for a unit gradient.
    """
    if g.shape != p.shape:
        raise ValueError("gradient shape does not match parameter")
    b1, b2 = betas
    if weight_decay:
        p *= 1.0 - lr * weight_decay
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * (g * g)
    m_hat = m / (1.0 - b1**t)
    v_hat = v / (1.0 - b2**t)
    p -= lr * m_hat / (np.sqrt(v_hat) + eps)


class AdamW:
    """AdamW over one flat array each for the parameters, their grads and
    the moments m and v (`slices[i]` is params[i]'s part). From
    construction each `.data` and `.grad` is a view into the first two (a
    grad already present is copied in, else it starts at zero), so every
    step, the first included, is one `adamw_step` call over every
    parameter, `zero_grad` is one fill, and backward adds into the views in
    place. A parameter that backward does not reach gets the update of a
    zero grad (its weight decay) at every step. A `.data` or `.grad`
    rebound away from its view would go untrained unseen, so `step` raises
    ValueError naming it."""

    def __init__(self, params: list[tuple[str, Tensor]], betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        dtypes = {p.data.dtype for _, p in params} or {np.dtype(np.float32)}
        if len(dtypes) > 1:
            raise ValueError(f"AdamW parameters must share one dtype, got {sorted(d.name for d in dtypes)}")
        ends = np.cumsum([0] + [p.data.size for _, p in params])
        self.slices = [slice(a, b) for a, b in zip(ends[:-1], ends[1:])]
        self.data, self.grad, self.m, self.v = np.zeros((4, ends[-1]), dtypes.pop())
        self._views = []
        for (name, p), sl in zip(params, self.slices):
            data, grad = self.data[sl].reshape(p.data.shape), self.grad[sl].reshape(p.data.shape)
            data[...] = p.data
            if p.grad is not None:
                grad[...] = p.grad
            p.data, p.grad = data, grad
            self._views.append((name, p, data, grad))

    def zero_grad(self) -> None:
        self.grad.fill(0)

    def step(self, lr: float) -> None:
        self.t += 1
        for name, p, data, grad in self._views:
            if p.data is not data or p.grad is not grad:
                field = "data" if p.data is not data else "grad"
                raise ValueError(f"AdamW parameter {name!r}: .{field} was rebound away from the optimizer's array")
        adamw_step(self.data, self.grad, self.m, self.v, self.t, lr, self.betas, self.eps, self.weight_decay)


def warmup_lr(step: int, base_lr: float, warmup_steps: int) -> float:
    """Linear warmup to base_lr, then flat. step is 0-based."""
    if warmup_steps <= 0:
        return base_lr
    return base_lr * min(1.0, (step + 1) / warmup_steps)


# -----------------------------------------------------------------------------
# Training loop
# -----------------------------------------------------------------------------


# The ModelConfig fields that TrainConfig repeats: every one but the
# vocabulary size, which the corpus charset decides.
MODEL_FIELDS = tuple(f.name for f in fields(ModelConfig) if f.name != "vocab_size")


@dataclass
class TrainConfig:
    """Every knob of a training run. The config file's sections and key
    order are read off these fields (see cli.py)."""

    corpus: CorpusSpec = field(default_factory=CorpusSpec)
    d_model: int = ModelConfig.d_model
    n_layers: int = ModelConfig.n_layers
    n_heads: int = ModelConfig.n_heads
    d_ff: int = ModelConfig.d_ff
    k_masks: int = ModelConfig.k_masks
    lora_rank: int = ModelConfig.lora_rank
    max_position: int = ModelConfig.max_position

    learning_rate: float = 2e-4
    warmup_steps: int = 200
    total_steps: int = 2000
    batch_size: int = 8
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    # Acceptance measures agreement with the frozen base path, so the base
    # must be competent at the task before it is frozen. pretrain_steps > 0
    # fits all base weights on the plain causal objective first.
    pretrain_steps: int = 0
    pretrain_lr: float = 3e-3

    loss_base: float = 1.0
    loss_sampler: float = 1.0
    loss_lcm: float = 1.0
    use_sampler: bool = True
    gated: bool = True  # False: adapters on every row (the ablation mode)

    eval_every: int = 0  # 0 disables periodic acceptance evals
    eval_prompts: int = 4
    eval_prompt_len: int = 8
    eval_max_steps: int = 8

    divergence_factor: float = 10.0
    divergence_patience: int = 50

    def __post_init__(self):
        if self.total_steps < 1 or self.batch_size < 1:
            raise ValueError("total_steps and batch_size must be >= 1")
        if self.warmup_steps > self.total_steps:
            raise ValueError("warmup_steps must not exceed total_steps")
        # Each optimizer, schedule, loss, eval and divergence field, named
        # by its config key: a value outside its range would fail only once
        # training runs, act as another value, or never stop it.
        nonnegative = (
            "weight_decay", "loss_base", "loss_sampler", "loss_lcm", "eval_every", "warmup_steps", "pretrain_steps"
        )
        evals = ("eval_prompts", "eval_prompt_len", "eval_max_steps") if self.eval_every else ()
        for names, ok, want in (
            (("learning_rate", "pretrain_lr", "adam_eps", "divergence_factor"), lambda v: v > 0, "finite and > 0"),
            (nonnegative, lambda v: v >= 0, "finite and >= 0"),
            (("beta1", "beta2"), lambda v: 0 <= v < 1, "in [0, 1)"),
            (("divergence_patience",) + evals, lambda v: v >= 1, ">= 1"),
        ):
            for name in names:
                value = getattr(self, name)
                if not (ok(value) and np.isfinite(value)):
                    section, key = ("loss", name[5:]) if name.startswith("loss_") else ("train", name)
                    raise ValueError(f"[{section}] {key} must be {want}, got {value}")
        # Building the ModelConfig checks the model sizes. The charset only
        # adds to vocab_size, whose check any charset passes, so none is read.
        self.model_config("")

    def model_config(self, charset: str) -> ModelConfig:
        return ModelConfig(
            vocab_size=Vocab(charset, self.k_masks).size,
            **{name: getattr(self, name) for name in MODEL_FIELDS},
        )

    @property
    def loss_weights(self) -> tuple[float, float, float]:
        return (self.loss_base, self.loss_sampler, self.loss_lcm)


@dataclass
class TrainResult:
    model: ModelBundle
    sampler: SamplerHead | None
    vocab: Vocab
    config: TrainConfig
    metrics: list[tuple]  # one row per step, METRICS_HEADER order
    probe_ntp_logits_initial: np.ndarray
    probe_ntp_logits_final: np.ndarray
    eval_history: list[tuple[int, float]]  # (step, mean acceptance rate)


def _forward_batch(model: ModelBundle, batch: MaskedBatch, gated: bool, regular: ForwardResult | None = None):
    gate = batch.gate if gated else np.ones(batch.size, dtype=np.int8)
    return forward(model, batch.tokens, batch.position_ids, batch.streams, gate, regular=regular)


def regular_rows(model: ModelBundle, stack: MaskedBatch) -> ForwardResult:
    """The regular rows of every sequence of a training stack as constants:
    the result of one untaped causal pass over them."""
    causal = stack.regular_layout()
    return forward(model, causal.tokens, causal.position_ids, causal.streams, causal.gate)


@contextmanager
def _diverging(where: str):
    """Overflow to inf is caught as DivergenceError: the numpy warning on
    the way there is just noise, and the NumericsError that names the op
    becomes a DivergenceError that says `where`."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            yield
    except NumericsError as exc:
        raise DivergenceError(f"non-finite values {where}: {exc}") from exc


def load_corpus(spec: CorpusSpec) -> tuple[list[tuple[np.ndarray, np.ndarray]], str]:
    """The corpus and its charset, from one read of a file task's file."""
    text = spec.text()
    return generate_corpus(spec, text), spec.charset(text)


def pretrain_base(config: TrainConfig, verbose: bool = False) -> ModelBundle:
    """Fit every base weight on the plain causal objective, then freeze.

    Returns a bundle ready for gated fine-tuning: competent frozen base,
    fresh random mask-embedding rows, zero-delta adapters. The unembedding
    trains independently here and is frozen afterwards, so later updates
    to the mask rows never touch it.
    """
    corpus, charset = load_corpus(config.corpus)
    return _pretrain(config, corpus, config.model_config(charset), verbose)


def _pretrain(config: TrainConfig, corpus, mcfg: ModelConfig, verbose: bool) -> ModelBundle:
    """`pretrain_base` on a corpus already built, whose model config is `mcfg`."""
    model = init_model(mcfg, config.seed)
    # The weights the table freezes train here and the ones it trains do
    # not: the mask rows, untracked, get no gradient through the embedding
    # table's concat.
    weights = list(zip(model_params(mcfg), model.named_params()))
    for p, (_, t) in weights:
        t.requires_grad = not p.trainable
    opt = AdamW([nt for p, nt in weights if not p.trainable], weight_decay=0.0)

    # The causal objective: the regular rows of the training stack, which
    # carry each flagged token's next-token label, without the mask blocks.
    causal = build_training_stack(corpus, mcfg.mask_ids).regular_layout()
    order_rng = derive_rng(config.seed, "pretrain.order")
    for step in range(config.pretrain_steps):
        picks = order_rng.integers(0, len(corpus), size=config.batch_size)
        batch = causal.select(picks)
        with Tape() as tape:
            out = _forward_batch(model, batch, gated=True)
            losses = cross_entropy(out.logits, batch.base_labels)
            loss = scale(fold_add(losses), 1.0 / config.batch_size)
        backward(tape, loss)
        opt.step(warmup_lr(step, config.pretrain_lr, min(50, config.pretrain_steps // 10)))
        opt.zero_grad()
        if verbose and (step + 1) % 100 == 0:
            print(f"pretrain step {step}: ce {loss.item():.4f}")

    for p, (_, t) in weights:
        t.requires_grad, t.grad = p.trainable, None
    return model


def clone_base_with_rank(base: ModelBundle, rank: int, seed: int) -> ModelBundle:
    """Fresh fine-tuning bundle around an existing frozen base: new adapters
    at the requested rank and new random mask rows, drawn as init draws
    them, and copies of the base weights, which draw nothing."""
    cfg = replace(base.config, lora_rank=rank)
    weights = dict(base.named_params())
    kept = {p.name: weights[p.name].data.copy() for p in model_params(base.config) if not p.trainable}
    return build_model(cfg, draw_params(model_params(cfg), seed, kept))


def eval_acceptance(model, sampler, vocab, corpus, config: TrainConfig) -> float:
    """Mean quadratic acceptance rate over a few held-out prompts."""
    rng = derive_rng(config.seed, "eval.prompts")
    rates = []
    for _ in range(config.eval_prompts):
        seq = corpus[int(rng.integers(0, len(corpus)))][0]
        prompt = seq[: config.eval_prompt_len].tolist()
        _, stats = speculative_decode(
            model, sampler, prompt, config.k_masks, "quadratic",
            max_steps=config.eval_max_steps, eos=vocab.eos,
        )
        rates.append(stats.rate)
    return float(np.mean(rates))


def train(
    config: TrainConfig,
    model: ModelBundle | None = None,
    sampler: SamplerHead | None = None,
    log_path=None,
    checkpoint_path=None,
    verbose: bool = False,
    corpus: tuple | None = None,
) -> TrainResult:
    """Run the fine-tuning loop; returns the trained bundle plus metrics.

    `corpus` is `load_corpus(config.corpus)` when the caller has already
    built it; else train() builds it. A given model must have the config's
    model sizes over its charset, and a given sampler its width, else
    ValueError names what differs. Aborts with DivergenceError when the
    loss goes non-finite or exceeds divergence_factor x the initial loss
    for divergence_patience consecutive steps.
    """
    corpus, charset = load_corpus(config.corpus) if corpus is None else corpus
    vocab = Vocab(charset, config.k_masks)
    mcfg = config.model_config(charset)
    if model is not None and model.config != mcfg:
        got, want = asdict(model.config), asdict(mcfg)
        diffs = "; ".join(f"{k} {got[k]} (config: {want[k]})" for k in want if got[k] != want[k])
        raise ValueError(f"the model does not fit the training config: {diffs}")
    if sampler is not None and sampler.l1.data.shape[0] != config.d_model:
        raise ValueError(f"the sampler's width {sampler.l1.data.shape[0]} does not match d_model {config.d_model}")
    if model is None:
        if config.pretrain_steps > 0:
            model = _pretrain(config, corpus, mcfg, verbose)
        else:
            model = init_model(mcfg, config.seed)
    if sampler is None and config.use_sampler:
        sampler = init_sampler(config.d_model, config.seed + 1)

    trainable = model.trainable_params() + (sampler.trainable_params() if sampler else [])
    opt = AdamW(
        trainable,
        betas=(config.beta1, config.beta2),
        eps=config.adam_eps,
        weight_decay=config.weight_decay,
    )

    stack = build_training_stack(corpus, mcfg.mask_ids)
    # The probe reads only the first sequence's regular rows, which see no
    # mask row: it is one causal pass over them.
    probe = stack.select(0).regular_layout()
    # Gated, with only the weights the tables flag trainable training, no
    # step can move a regular row. So the probe runs before the first step
    # and after the last, and each step logs the loss a probe would give.
    # And the regular rows of the sequences the steps pick are computed
    # once, before the first step (`regular_rows`): each step's taped pass
    # runs its mask rows alone.
    table = model_params(mcfg) + (sampler_params(config.d_model) if sampler else ())
    flagged = {p.name for p in table if p.trainable}
    probe_every_step = not config.gated or any(n not in flagged for n, _ in trainable)
    ntp_initial, probe_initial = _probe_ntp(model, probe, config.gated)
    # Every step's sequences, drawn in the steps' order.
    order_rng = derive_rng(config.seed, "batch.order")
    step_picks = [order_rng.integers(0, len(corpus), size=config.batch_size) for _ in range(config.total_steps)]

    log_file = None
    if log_path is not None:
        log_file = open(log_path, "w")
        log_file.write(METRICS_HEADER + "\n")

    metrics: list[tuple] = []
    eval_history: list[tuple[int, float]] = []
    initial_total = None
    high_streak = 0

    try:
        if not probe_every_step:
            used = np.unique(step_picks)
            with _diverging("in the regular rows"):
                regular = regular_rows(model, stack.select(used))
        for step, picks in enumerate(step_picks):
            t0 = time.perf_counter()
            lr_t = warmup_lr(step, config.learning_rate, config.warmup_steps)
            inv = 1.0 / config.batch_size
            step_regular = None if probe_every_step else regular.select(np.searchsorted(used, picks))

            with _diverging(f"at step {step}"):
                with Tape() as tape:
                    step_loss, comp = stacked_loss(model, sampler, stack.select(picks), config, step_regular)
                backward(tape, step_loss)
                opt.step(lr_t)
                opt.zero_grad()
                total_val = step_loss.item()
                if probe_every_step or step == config.total_steps - 1:
                    ntp_val, probe_final = _probe_ntp(model, probe, config.gated)
                if not probe_every_step:
                    ntp_val = ntp_initial
            wall_ms = (time.perf_counter() - t0) * 1e3
            row = (
                step,
                comp[0] * inv,
                comp[1] * inv,
                comp[2] * inv,
                total_val,
                ntp_val,
                lr_t,
                wall_ms,
            )
            metrics.append(row)
            if log_file:
                log_file.write(_format_metrics_row(row) + "\n")

            if initial_total is None:
                initial_total = total_val
            if not np.isfinite(total_val):
                raise DivergenceError(f"non-finite loss at step {step}")
            if total_val > config.divergence_factor * max(initial_total, 1e-8):
                high_streak += 1
                if high_streak >= config.divergence_patience:
                    raise DivergenceError(
                        f"loss {total_val:.4f} stayed above "
                        f"{config.divergence_factor}x initial for "
                        f"{config.divergence_patience} steps"
                    )
            else:
                high_streak = 0

            if config.eval_every and (step + 1) % config.eval_every == 0:
                rate = eval_acceptance(model, sampler, vocab, corpus, config)
                eval_history.append((step, rate))
                if verbose:
                    print(f"step {step}: total {total_val:.4f} acceptance {rate:.3f}")
    finally:
        if log_file:
            log_file.close()

    if checkpoint_path is not None:
        save_checkpoint(model, sampler, checkpoint_path, extra_meta=checkpoint_meta(config, vocab))
    return TrainResult(
        model=model,
        sampler=sampler,
        vocab=vocab,
        config=config,
        metrics=metrics,
        probe_ntp_logits_initial=probe_initial,
        probe_ntp_logits_final=probe_final,
        eval_history=eval_history,
    )


def stacked_loss(
    model: ModelBundle,
    sampler: SamplerHead | None,
    batch: MaskedBatch,
    config: TrainConfig,
    regular: ForwardResult | None = None,
) -> tuple[Tensor, list[float]]:
    """One step's loss over a stack of B sequences: the mean of their
    totals, and the base, sampler and lcm terms each summed over them (the
    metric columns before the mean). With the batch's `regular` rows as
    constants (`regular_rows`), its pass runs the mask rows alone.

    Every term is a (B,) vector with each sequence's own bytes. The totals
    are summed in sequence order and each metric term one sequence at a
    time, as a loop over the sequences would add them.
    """
    out = _forward_batch(model, batch, config.gated, regular)
    base, samp = base_and_sampler_ce(batch, out.hidden, out.logits, sampler, model.unembed, model.embed_base)
    lcm = lcm_loss(out.hidden, batch.lcm_pairs)
    totals = total_loss(base, samp, lcm, config.loss_weights)
    n_seqs = totals.data.shape[0]
    comp = [0.0, 0.0, 0.0]
    for b in range(n_seqs):
        for i, term in enumerate((base, samp, lcm)):
            comp[i] += float(term.data[b])
    return scale(fold_add(totals), 1.0 / n_seqs), comp


def _probe_ntp(model, probe, gated) -> tuple[float, np.ndarray]:
    """The probe's next-token loss and logits, from one pass over `probe`,
    the probe sequence's regular rows as a causal layout."""
    out = _forward_batch(model, probe, gated)
    return ntp_only_ce(probe, out.logits).item(), out.logits.data


def _format_metrics_row(row) -> str:
    step, base, samp, lcm, total, ntp, lr, wall = row
    return (
        f"{step},{base:.10g},{samp:.10g},{lcm:.10g},{total:.10g},"
        f"{ntp:.10g},{lr:.10g},{wall:.3f}"
    )


def checkpoint_meta(config: TrainConfig, vocab: Vocab) -> dict[str, str]:
    """Key-values a checkpoint needs so the CLI can decode text with it."""
    return {
        "charset": vocab.charset,
        "task": config.corpus.task,
        "gated": str(int(config.gated)),
        "loss_weights": f"{config.loss_base},{config.loss_sampler},{config.loss_lcm}",
    }

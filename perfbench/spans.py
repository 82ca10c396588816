"""Instrumentation from outside the package.

Two layers of wrappers replace module attributes of specmtp and put the
originals back on exit; no file of the package changes.

- StepClock is on in every run. It notes when each speculative layout is
  built (the start of a decode step) and its row count, and when each
  AdamW step ends. That costs one clock read per decode step.
- Tracer is on only in the traced run. It records a span at every layer
  boundary: name, start, end, parent span, operation id and step number.
  Tensor.__init__ runs hundreds of times per forward pass, so it is kept
  as a count and a total time on the span that is open when it runs.
  Spans stay in memory until `write`.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

import specmtp.decoding as decoding
import specmtp.model as model_mod
import specmtp.sampler as sampler_mod
import specmtp.training as training
from specmtp.tensor import Tensor
from specmtp.training import AdamW

from clock import reference_work

LAYOUT_BUILDERS = ("build_linear_inference_input", "build_quadratic_inference_input")


class Patches:
    """Replace attributes and restore every original, last set first."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class StepClock:
    """Set `layouts` or `optimizer_steps` to a list to collect into it.

    layouts gets (start time, layout rows, speculation was empty) per
    speculative step. optimizer_steps gets (end time, reference seconds,
    resume time) per AdamW step: a training step is long enough that
    reference work after each one (see clock.py) is cheap, and it lets
    every step be scaled by the speed measured right around it.
    """

    def __init__(self):
        self.layouts: list[tuple[float, int, bool]] | None = None
        self.optimizer_steps: list[tuple[float, float, float]] | None = None
        self._patches = Patches()

    def install(self) -> None:
        for name in LAYOUT_BUILDERS:
            self._patches.set(decoding, name, self._layout(getattr(decoding, name)))
        self._patches.set(AdamW, "step", self._adamw(AdamW.step))

    def remove(self) -> None:
        self._patches.restore()

    def _layout(self, original):
        def layout(verified, speculated, *rest):
            start = time.perf_counter()
            batch = original(verified, speculated, *rest)
            if self.layouts is not None:
                self.layouts.append((start, batch.size, len(speculated) == 0))
            return batch

        return layout

    def _adamw(self, original):
        def step(opt, lr):
            original(opt, lr)
            if self.optimizer_steps is not None:
                end = time.perf_counter()
                ref = reference_work()
                self.optimizer_steps.append((end, ref, time.perf_counter()))

        return step


class Tracer:
    """Span recorder. Operations (one decode or one train() call) are
    opened and closed by the benchmark with begin_op / end_op."""

    def __init__(self):
        # (id, name, start, end, parent id, op id, step number)
        self.spans: list[tuple[int, str, float, float, int, int, int]] = []
        self.tensor_inits: dict[int, list] = {}  # span id -> [count, seconds]
        self.step_rows: dict[int, int] = {}  # decoding.step span id -> layout rows
        self.margins: list[float] = []  # top-1 minus top-2 logit, per verified position
        self._stack: list[tuple[int, str, float, int, int]] = []
        self._next_id = 0
        self._op = -1
        self._op_kind = ""
        self._step = 0
        self._n_verified = 0
        self._chain_margins = np.zeros(0)
        self._patches = Patches()

    # -- frames ---------------------------------------------------------------

    def _open(self, name: str, start: float) -> int:
        span_id = self._next_id
        self._next_id += 1
        self._stack.append((span_id, name, start, self._op, self._step))
        return span_id

    def _close(self, end: float, name: str | None = None) -> None:
        span_id, opened_as, start, op, step = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((span_id, name or opened_as, start, end, parent, op, step))

    def _top_is(self, name: str) -> bool:
        return bool(self._stack) and self._stack[-1][1] == name

    def begin_op(self, kind: str, op_id: int) -> None:
        self._op, self._op_kind, self._step = op_id, kind, 0
        self._open(f"op.{kind}", time.perf_counter())
        if kind == "train":
            self._open("training.step", time.perf_counter())

    def end_op(self) -> None:
        now = time.perf_counter()
        if self._top_is("decoding.step"):
            self._close(now)
        elif self._top_is("training.step"):
            # What follows the last optimizer step is the final probe pass
            # and result assembly, not a step.
            self._close(now, name="training.tail")
        self._close(now)
        self._op = -1

    # -- wrappers -------------------------------------------------------------

    def install(self) -> None:
        p = self._patches
        for name in LAYOUT_BUILDERS + ("causal_rows",):
            p.set(decoding, name, self._layout(f"decoding.{name}", getattr(decoding, name)))
        p.set(decoding, "forward", self._decode_forward(decoding.forward))
        p.set(decoding, "verify_speculated", self._verify(decoding.verify_speculated))
        p.set(decoding, "sampler_chain", self._span("decoding.sampler_chain", decoding.sampler_chain))
        for name in ("gated_lora_apply", "masked_softmax_rows"):
            p.set(model_mod, name, self._span(f"model.{name}", getattr(model_mod, name)))
        p.set(sampler_mod, "sampler_logits", self._span("sampler.sampler_logits", sampler_mod.sampler_logits))
        for name in ("forward", "backward", "base_and_sampler_ce", "lcm_loss"):
            p.set(training, name, self._span(f"training.{name}", getattr(training, name)))
        p.set(AdamW, "step", self._adamw(AdamW.step))
        p.set(Tensor, "__init__", self._tensor_init(Tensor.__init__))

    def remove(self) -> None:
        self._patches.restore()

    def _span(self, name: str, original):
        def span(*args, **kwargs):
            self._open(name, time.perf_counter())
            try:
                return original(*args, **kwargs)
            finally:
                self._close(time.perf_counter())

        return span

    def _layout(self, name: str, original):
        wrapped = self._span(name, original)

        def layout(tokens, *rest):
            now = time.perf_counter()
            if self._top_is("decoding.step"):
                self._close(now)
            self._step += 1
            step_id = self._open("decoding.step", now)
            self._n_verified = len(tokens)
            batch = wrapped(tokens, *rest)
            self.step_rows[step_id] = batch.size
            return batch

        return layout

    def _decode_forward(self, original):
        wrapped = self._span("decoding.forward", original)

        def forward(model, tokens, position_ids, attention_allowed, gate):
            out = wrapped(model, tokens, position_ids, attention_allowed, gate)
            # Rows whose argmax decides an emitted token: the last verified
            # row, then every speculated (gate 0) row after it.
            n = self._n_verified
            rows = [n - 1] + [int(r) for r in np.flatnonzero(np.asarray(gate) == 0) if r >= n]
            top2 = np.sort(out.logits.data[rows].astype(np.float64), axis=1)[:, -2:]
            self._chain_margins = top2[:, 1] - top2[:, 0]
            if self._op_kind == "greedy":
                self.margins.append(float(self._chain_margins[0]))
            return out

        return forward

    def _verify(self, original):
        wrapped = self._span("decoding.verify_speculated", original)

        def verify(chain_preds, speculated):
            accepted, emitted = wrapped(chain_preds, speculated)
            self.margins.append(float(self._chain_margins[: accepted + 1].min()))
            return accepted, emitted

        return verify

    def _adamw(self, original):
        wrapped = self._span("training.AdamW.step", original)

        def step(opt, lr):
            wrapped(opt, lr)
            if self._top_is("training.step"):
                now = time.perf_counter()
                self._close(now)
                self._step += 1
                self._open("training.step", now)

        return step

    def _tensor_init(self, original):
        inits = self.tensor_inits
        stack = self._stack
        clock = time.perf_counter

        def init(tensor, *args, **kwargs):
            t0 = clock()
            original(tensor, *args, **kwargs)
            dt = clock() - t0
            key = stack[-1][0] if stack else -1
            acc = inits.get(key)
            if acc is None:
                inits[key] = [1, dt]
            else:
                acc[0] += 1
                acc[1] += dt

        return init

    # -- output ---------------------------------------------------------------

    def write(self, path: Path) -> None:
        """One JSON object per span; times in seconds from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = min((s[2] for s in self.spans), default=0.0)
        with path.open("w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, op, step in self.spans:
                count, secs = self.tensor_inits.get(span_id, (0, 0.0))
                fh.write(
                    json.dumps(
                        {
                            "id": span_id, "name": name, "start": start - t0, "end": end - t0,
                            "parent": parent, "op": op, "step": step,
                            "tensor_inits": count, "tensor_init_s": secs,
                        }
                    )
                    + "\n"
                )

"""Wall-clock timing scaled to a reference CPU speed.

On a shared machine the speed of one core drifts by half or more over
seconds, so raw wall time of the same work can differ by that much from
one run to the next. Every timed operation is therefore bracketed by two
short runs of fixed reference work, and its wall time is scaled by
REFERENCE_S over the mean reference time around it: the result reads as
"seconds on a core where the reference work takes REFERENCE_S". The
program never runs the reference work, so a faster program still shows
as a proportionally smaller scaled time. Raw wall time is kept beside it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

REFERENCE_S = 1.4e-3
_RNG = np.random.default_rng(0)
_SMALL = (_RNG.standard_normal((32, 32)) / 8).astype(np.float32)
_ROWS = _RNG.standard_normal((200, 32)).astype(np.float32)


def reference_work() -> float:
    """Seconds taken by a fixed mix of the work the toy model does: small
    matmuls with interpreter work between them, and row softmaxes over a
    200 x 200 score matrix. Without the second half the scale tracks
    decode time less closely and long-context training time hardly at
    all."""
    t0 = time.perf_counter()
    x = _SMALL
    for _ in range(100):
        x = np.tanh(x @ _SMALL)
        sum(range(100))
    for _ in range(4):
        scores = _ROWS @ _ROWS.T
        weights = np.exp(scores - scores.max(axis=1, keepdims=True))
        weights /= weights.sum(axis=1, keepdims=True)
        weights @ _ROWS
    return time.perf_counter() - t0


def scale(raw_s: float, ref_before_s: float, ref_after_s: float) -> float:
    """raw_s at the reference speed, taking the mean of the reference times
    measured just before and just after it."""
    return raw_s * 2.0 * REFERENCE_S / (ref_before_s + ref_after_s)


@dataclass(frozen=True)
class Timed:
    """One operation: raw wall seconds, the reference times around it, and
    the perf_counter reading at its start (so events inside it can be
    placed)."""

    raw_s: float
    ref_before_s: float
    ref_after_s: float
    start: float

    @property
    def factor(self) -> float:
        return scale(1.0, self.ref_before_s, self.ref_after_s)

    @property
    def scaled_s(self) -> float:
        return self.raw_s * self.factor

    def scaled_segments(self, marks) -> list[float]:
        """Scaled seconds of the pieces between reference measurements
        taken inside the operation. marks holds (piece end, reference
        seconds, next piece start) per inner measurement, in order."""
        starts = [self.start] + [resume for _, _, resume in marks]
        ends = [end for end, _, _ in marks] + [self.start + self.raw_s]
        refs = [self.ref_before_s] + [ref for _, ref, _ in marks] + [self.ref_after_s]
        return [scale(b - a, r0, r1) for a, b, r0, r1 in zip(starts, ends, refs, refs[1:])]


def timed(fn, *args, **kwargs):
    """Run fn between two reference measurements; return (result, Timed)."""
    before = reference_work()
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    raw = time.perf_counter() - t0
    after = reference_work()
    return result, Timed(raw, before, after, t0)

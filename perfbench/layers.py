"""Per-layer metrics from the traced run's spans and the exact counts.

Per-step figures are medians over the quadratic decode steps (decode
layers) or over the optimizer steps (training layers). Span durations
are scaled by the factor of the operation they ran in, like every other
time the benchmark reports.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from workloads import STRATEGIES, StrategyCounts

LAYOUT_SPANS = {
    "decoding.build_linear_inference_input",
    "decoding.build_quadratic_inference_input",
    "decoding.causal_rows",
}
LOSS_SPANS = {"training.base_and_sampler_ce", "training.lcm_loss"}


def accept_depths(c: StrategyCounts, k: int) -> list[float]:
    """P(mask j verified | masks 1..j-1 verified), j = 1..k, over the steps
    that carried speculation (0 where no step got that far). A step
    without speculation accepts 0 by construction, so it is taken out of
    the histogram's zero bucket."""
    hist = dict(c.histogram)
    hist[0] = hist.get(0, 0) - c.no_speculation_steps
    reached = [sum(n for a, n in hist.items() if a >= j) for j in range(k + 1)]
    return [reached[j] / reached[j - 1] if reached[j - 1] else 0.0 for j in range(1, k + 1)]


def layer_metrics(tracer, ops, counts: dict, k: int, load_ms: list[float], overhead_pct: float) -> dict:
    """name -> (value, sample count)."""
    factor = {i: t.factor for i, (_, t) in enumerate(ops)}
    kind = {i: name for i, (name, _) in enumerate(ops)}
    children = defaultdict(list)
    for span in tracer.spans:
        children[span[4]].append(span)

    # Tensor inits inside each span's subtree. Spans are stored as they
    # close, so every child precedes its parent.
    inits = defaultdict(lambda: [0, 0.0])
    for sid, (n, secs) in tracer.tensor_inits.items():
        inits[sid] = [n, secs]
    for sid, _, _, _, parent, _, _ in tracer.spans:
        if sid in inits and parent >= 0:
            inits[parent][0] += inits[sid][0]
            inits[parent][1] += inits[sid][1]

    def ms(span) -> float:
        return 1e3 * (span[3] - span[2]) * factor.get(span[5], 1.0)

    def self_ms(span) -> float:
        direct = sum(ms(c) for c in children[span[0]])
        own_inits = tracer.tensor_inits.get(span[0], (0, 0.0))[1]
        return ms(span) - direct - 1e3 * own_inits * factor.get(span[5], 1.0)

    q = defaultdict(list)
    totals = defaultdict(float)
    forwards = 0
    for step in tracer.spans:
        if step[1] != "decoding.step" or kind.get(step[5]) != "quadratic":
            continue
        f = factor[step[5]]
        kids = children[step[0]]
        fwd = [c for c in kids if c[1] == "decoding.forward"]
        forwards += len(fwd)
        fwd_kids = [g for c in fwd for g in children[c[0]]]
        chain = [c for c in kids if c[1] == "decoding.sampler_chain"]
        rows = tracer.step_rows[step[0]]
        fwd_ms = sum(ms(c) for c in fwd)
        adapter = sum(ms(g) for g in fwd_kids if g[1] == "model.gated_lora_apply")
        init_n = sum(inits[c[0]][0] for c in fwd)
        init_ms = sum(1e3 * inits[c[0]][1] * f for c in fwd)
        q["layout"].append(sum(ms(c) for c in kids if c[1] in LAYOUT_SPANS))
        q["rows"].append(rows)
        q["cells"].append(rows * rows)
        q["forward"].append(fwd_ms)
        q["us_per_row"].append(1e3 * fwd_ms / rows)
        q["softmax"].append(sum(ms(g) for g in fwd_kids if g[1] == "model.masked_softmax_rows"))
        q["adapter"].append(adapter)
        q["tensors"].append(init_n)
        q["init"].append(init_ms)
        q["chain"].append(sum(ms(c) for c in chain))
        q["logits_calls"].append(
            sum(1 for c in chain for g in children[c[0]] if g[1] == "sampler.sampler_logits")
        )
        q["verify"].append(sum(ms(c) for c in kids if c[1] == "decoding.verify_speculated"))
        q["self"].append(self_ms(step))
        totals["step"] += ms(step)
        totals["chain"] += q["chain"][-1]
        totals["adapter"] += adapter
        totals["init"] += 1e3 * inits[step[0]][1] * f

    t = defaultdict(list)
    for step in tracer.spans:
        if step[1] != "training.step":
            continue
        kids = children[step[0]]
        t["forward"].append(sum(ms(c) for c in kids if c[1] == "training.forward"))
        t["backward"].append(sum(ms(c) for c in kids if c[1] == "training.backward"))
        t["losses"].append(sum(ms(c) for c in kids if c[1] in LOSS_SPANS))
        t["adamw"].append(sum(ms(c) for c in kids if c[1] == "training.AdamW.step"))
        t["self"].append(self_ms(step))

    def med(xs):
        return statistics.median(xs), len(xs)

    quad = counts["quadratic"]
    out = {
        "batching.layout_ms": med(q["layout"]),
        "batching.rows": med(q["rows"]),
        "batching.allowed_cells": med(q["cells"]),
        "model.forward_ms": med(q["forward"]),
        "model.forward_us_per_row": med(q["us_per_row"]),
        "model.softmax_ms": med(q["softmax"]),
        "model.adapter_ms": med(q["adapter"]),
        "model.forwards_per_token": (forwards / quad.generated, quad.generated),
        "model.adapter_share_pct": (100 * totals["adapter"] / totals["step"], len(q["self"])),
        "tensor.tensors_per_forward": med(q["tensors"]),
        "tensor.init_ms_per_forward": med(q["init"]),
        "tensor.init_share_pct": (100 * totals["init"] / totals["step"], len(q["self"])),
        "tensor.backward_ms": med(t["backward"]),
        "sampler.chain_ms": med(q["chain"]),
        "sampler.chain_share_pct": (100 * totals["chain"] / totals["step"], len(q["self"])),
        "sampler.logits_calls": (sum(q["logits_calls"]) / len(q["logits_calls"]), len(q["logits_calls"])),
        "decoding.step_self_ms": med(q["self"]),
        "decoding.verify_ms": med(q["verify"]),
        "decoding.min_margin": (min(tracer.margins), len(tracer.margins)),
        "losses.ms": med(t["losses"]),
        "training.forward_ms": med(t["forward"]),
        "training.adamw_ms": med(t["adamw"]),
        "training.step_self_ms": med(t["self"]),
        "checkpoint.load_ms": med(load_ms),
        "trace.overhead_pct": (overhead_pct, len(ops)),
    }
    for s in STRATEGIES:
        c = counts[s]
        for j, p in enumerate(accept_depths(c, k), start=1):
            out[f"decoding.{s}.accept_depth_{j}"] = (p, c.steps - c.no_speculation_steps)
        out[f"decoding.{s}.useful_row_ratio"] = (c.generated / c.rows, c.rows)
    return out

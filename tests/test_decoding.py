import copy
import threading
from dataclasses import replace

import numpy as np
import pytest
from conftest import heldout_prompts, run_batch

from specmtp.decoding import (
    AcceptanceStats,
    acceptance_rate,
    future_rank_probe,
    greedy_autoregressive,
    speculative_decode,
    verify_speculated,
)
import specmtp.model as model_mod
import specmtp.tensor as tensor_mod
from specmtp.batching import DecodeTables, build_linear_inference_input, build_training_batch, causal_rows
from specmtp.losses import base_and_sampler_ce
from specmtp.model import ModelConfig, init_model
from specmtp.sampler import init_sampler
from specmtp.tensor import Tape, backward
from specmtp.training import AdamW

CFG = ModelConfig(
    vocab_size=15, d_model=16, n_layers=2, n_heads=2, d_ff=32, k_masks=3,
    lora_rank=4, max_position=256,
)


def make_model(seed, randomize=True, config=CFG):
    model = init_model(config, seed)
    if randomize:
        rng = np.random.default_rng(seed + 1000)
        for lw in model.layers:
            for g in (lw.attn_q, lw.attn_k, lw.attn_v, lw.attn_o, lw.ff_in, lw.ff_out):
                g.A.data = rng.normal(0, 0.3, g.A.data.shape).astype(g.A.data.dtype)
                g.B.data = rng.normal(0, 0.3, g.B.data.shape).astype(g.B.data.dtype)
    return model


def test_verify_full_match():
    a, emitted = verify_speculated([4, 4, 4, 9], [4, 4, 4])
    assert a == 3 and emitted == [4, 4, 4, 9]


def test_verify_immediate_mismatch():
    a, emitted = verify_speculated([8, 5], [3])
    assert a == 0 and emitted == [8]


def test_verify_partial():
    a, emitted = verify_speculated([4, 9, 1, 2], [4, 7, 2])
    assert a == 1 and emitted == [4, 9]


def test_verify_enumeration_over_mismatch_positions():
    # Oracle: brute force the definition for every first-mismatch position.
    s = [3, 5, 7, 9]
    for miss in range(len(s) + 1):
        chain = list(s) + [42]
        if miss < len(s):
            chain[miss] = 99
        a, emitted = verify_speculated(chain, s)
        assert a == miss
        assert emitted == s[:miss] + [chain[miss]]


def test_verify_length_mismatch():
    with pytest.raises(ValueError):
        verify_speculated([1, 2], [1, 2])


def test_greedy_zero_budget_and_determinism():
    model = make_model(0)
    assert greedy_autoregressive(model, [1, 2], 0) == [1, 2]
    a = greedy_autoregressive(model, [1, 2, 3], 8)
    b = greedy_autoregressive(model, [1, 2, 3], 8)
    assert a == b


def test_speculative_exactness_untrained_models():
    # Keystone: for any model, both strategies reproduce greedy decoding
    # token for token. Untrained adapters and random masks included.
    for seed in range(4):
        model = make_model(seed)
        rng = np.random.default_rng(seed)
        prompt = rng.integers(0, CFG.first_mask_id, size=int(rng.integers(1, 6))).tolist()
        for strategy in ("linear", "quadratic"):
            for k_eval in (1, 3):
                out, stats = speculative_decode(
                    model, None, prompt, k_eval, strategy, max_steps=10
                )
                ref = greedy_autoregressive(model, prompt, len(out) - len(prompt))
                assert out == ref
                assert stats.generated == len(out) - len(prompt)
                assert 1.0 <= acceptance_rate(stats) <= k_eval + 1


def test_two_decodes_in_two_threads_match_each_alone():
    # Both threads start decoding at the same moment (numpy releases the
    # GIL inside its kernels, so the passes interleave for real).
    model = make_model(5)
    runs = {"linear": [1, 2, 3], "quadratic": [4, 5, 6, 7, 8]}

    def decode(strategy):
        return speculative_decode(model, None, runs[strategy], 3, strategy, max_steps=12)[0]

    alone = {s: decode(s) for s in runs}
    barrier = threading.Barrier(2, timeout=30)
    results = {}

    def work(strategy):
        try:
            barrier.wait()
            results[strategy] = decode(strategy)
        except Exception as exc:  # reported below, from the main thread
            barrier.abort()
            results[strategy] = exc

    threads = [threading.Thread(target=work, args=(s,)) for s in runs]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    assert results.keys() == alone.keys()
    for strategy, out in results.items():
        if isinstance(out, Exception):
            raise out
        assert out == alone[strategy]


def _decode_with_mask_logits(model, sampler, prompt):
    """A quadratic decode that records every step's mask-row logits."""
    seen = []

    def speculate(verified, last_token, block_logits, block_hidden):
        seen.append(block_logits.copy())
        return block_logits.argmax(axis=1)

    out, _ = speculative_decode(model, sampler, prompt, 3, "quadratic", max_steps=6, speculation_override=speculate)
    return out, seen


def test_no_merged_weight_outlives_its_decode_call():
    # Decode, take one optimizer step on the adapters, decode again: the
    # second decode reads weights merged from the trained factors, so it
    # equals a decode of a fresh copy of the trained model, mask rows too.
    model, sampler, prompt = make_model(7), init_sampler(CFG.d_model, 7), [1, 2, 3, 4, 5]
    before = _decode_with_mask_logits(model, sampler, prompt)
    batch = build_training_batch([1, 2, 3, 4, 5, 6, 7], np.ones(7, dtype=int), CFG.mask_ids)
    opt = AdamW(model.trainable_params())
    with Tape() as tape:
        out = run_batch(model, batch)
        loss = base_and_sampler_ce(batch, out.hidden, out.logits)[0]
    backward(tape, loss)
    opt.step(1e-2)
    after = _decode_with_mask_logits(model, sampler, prompt)
    fresh = _decode_with_mask_logits(copy.deepcopy(model), sampler, prompt)
    assert after[0] == fresh[0] == before[0]  # every output is greedy's
    assert len(after[1]) == len(fresh[1])
    for got, want in zip(after[1], fresh[1]):
        assert got.tobytes() == want.tobytes()
    assert before[1][0].tobytes() != after[1][0].tobytes()


def test_each_decode_call_merges_each_adapter_once(monkeypatch):
    # Speculative decoding merges every adapter once per call, however many
    # passes it runs; greedy decoding gates no row and merges none.
    calls = []
    for owner in (model_mod, tensor_mod):

        def counting(*args, _original=owner.merge_data):
            calls.append(1)
            return _original(*args)

        monkeypatch.setattr(owner, "merge_data", counting)
    model = make_model(8)
    for steps in (1, 7):
        calls.clear()
        speculative_decode(model, init_sampler(CFG.d_model, 8), [1, 2, 3], 3, "quadratic", max_steps=steps)
        assert len(calls) == 6 * CFG.n_layers
    calls.clear()
    greedy_autoregressive(model, [1, 2, 3], 5)
    assert calls == []


def test_each_decode_call_builds_the_embedding_table_once(monkeypatch):
    # Every pass of a decode call, and each sampler chain, reads one (V, d)
    # table, however many steps the call runs.
    calls = []
    concat = model_mod.concat_rows

    def counting(parts):
        calls.append(1)
        return concat(parts)

    monkeypatch.setattr(model_mod, "concat_rows", counting)
    model = make_model(8)
    for steps in (1, 7):
        calls.clear()
        speculative_decode(model, init_sampler(CFG.d_model, 8), [1, 2, 3], 3, "quadratic", max_steps=steps)
        assert len(calls) == 1
        calls.clear()
        greedy_autoregressive(model, [1, 2, 3], steps)
        assert len(calls) == 1
    assert model.table is None


def test_each_decode_call_makes_its_tables_once(monkeypatch):
    # Every step's layout is cut from tables the call makes once; no builder
    # makes tables of its own inside a call. A call asked for nothing returns
    # the prompt with no tables, no layout and no pass.
    calls = []
    init = DecodeTables.__init__

    def counting(self, *args):
        calls.append(args)
        init(self, *args)

    monkeypatch.setattr(DecodeTables, "__init__", counting)
    model = make_model(8)
    builds = []
    _record_passes(monkeypatch, model, builds)
    for steps in (0, 1, 7):
        for strategy in ("linear", "quadratic"):
            calls.clear()
            builds.clear()
            out, stats = speculative_decode(model, init_sampler(CFG.d_model, 8), [1, 2, 3], 3, strategy, max_steps=steps)
            assert len(calls) == min(steps, 1) and len(builds) == 2 * stats.steps
            assert steps or (out == [1, 2, 3] and stats == AcceptanceStats(0, 0))
        calls.clear()
        builds.clear()
        out = greedy_autoregressive(model, [1, 2, 3], steps)
        assert len(calls) == min(steps, 1) and len(builds) == 2 * steps and len(out) == 3 + steps


@pytest.mark.parametrize("count", [-1, -5])
@pytest.mark.parametrize("decode", ["greedy", "linear", "quadratic"])
def test_a_negative_count_is_rejected_by_name_after_the_prompt_check(monkeypatch, decode, count):
    # A bad prompt is reported first; with a good one, a negative count is a
    # ValueError that names the argument, before any table, layout or pass.
    model = make_model(3)
    builds = []
    _record_passes(monkeypatch, model, builds)
    monkeypatch.setattr(DecodeTables, "__init__", lambda self, *args: builds.append("tables"))

    def run(prompt):
        if decode == "greedy":
            return greedy_autoregressive(model, prompt, count)
        return speculative_decode(model, None, prompt, 2, decode, max_steps=count)

    with pytest.raises(ValueError, match="^prompt must be nonempty$"):
        run([])
    name = "max_new" if decode == "greedy" else "max_steps"
    with pytest.raises(ValueError, match=f"^{name} must be >= 0, got {count}$"):
        run([1, 2, 3])
    assert builds == []


def test_adversarial_speculation_rate_exactly_one():
    model = make_model(3)
    prompt = [2, 4]
    stream = greedy_autoregressive(model, prompt, 40)

    def always_wrong(verified, last_token, block_logits, block_hidden):
        pos = len(verified)
        truth = stream[pos] if pos < len(stream) else 0
        return [(truth + 1) % CFG.first_mask_id]

    out, stats = speculative_decode(
        model, None, prompt, 1, "linear", max_steps=12, speculation_override=always_wrong
    )
    assert acceptance_rate(stats) == 1.0
    assert out == stream[: len(out)]


def test_always_right_speculation_hits_upper_bound():
    model = make_model(5)
    prompt = [1, 2]
    k = 3
    stream = greedy_autoregressive(model, prompt, 60)

    def oracle(verified, last_token, block_logits, block_hidden):
        pos = len(verified)
        return stream[pos : pos + k]

    out, stats = speculative_decode(
        model, None, prompt, k, "linear", max_steps=8, speculation_override=oracle
    )
    assert out == stream[: len(out)]
    # First step is cold (1 token), every later step accepts all k.
    assert stats.generated == 1 + (stats.steps - 1) * (k + 1)
    assert acceptance_rate(stats) <= k + 1


def test_step_accounting_and_trace():
    model = make_model(9)
    out, stats = speculative_decode(model, None, [3, 1], 3, "quadratic", max_steps=7)
    assert stats.steps == 7
    assert sum(stats.histogram.values()) == 7
    assert stats.generated == len(out) - 2


def test_eos_truncates_inside_a_step():
    model = make_model(11)
    prompt = [1, 2]
    stream = greedy_autoregressive(model, prompt, 30)
    eos = stream[len(prompt) + 2]  # third generated token

    def oracle(verified, last_token, block_logits, block_hidden):
        pos = len(verified)
        return stream[pos : pos + 3]

    ref = greedy_autoregressive(model, prompt, 30, eos=eos)
    out, stats = speculative_decode(
        model, None, prompt, 3, "linear", max_steps=10, eos=eos,
        speculation_override=oracle,
    )
    assert out == ref
    assert out[-1] == eos
    # The emitting step still counted, and nothing after eos got through.
    assert stats.generated == len(out) - len(prompt)


def test_speculation_rejected_after_eos_restart():
    # eos handling must also hold without an override.
    model = make_model(13)
    prompt = [4]
    probe = greedy_autoregressive(model, prompt, 20)
    eos = probe[len(prompt)]  # first generated token
    for strategy in ("linear", "quadratic"):
        out, stats = speculative_decode(model, None, prompt, 2, strategy, max_steps=10, eos=eos)
        assert out == prompt + [eos]
        assert stats.steps == 1


def test_decode_rejects_bad_arguments():
    model = make_model(1)
    with pytest.raises(ValueError):
        speculative_decode(model, None, [1], 0, "linear")
    with pytest.raises(ValueError):
        speculative_decode(model, None, [1], CFG.k_masks + 1, "linear")
    with pytest.raises(ValueError):
        speculative_decode(model, None, [1], 1, "diagonal")
    with pytest.raises(ValueError):
        acceptance_rate(AcceptanceStats(generated=0, steps=0))


def test_acceptance_rate_arithmetic():
    assert acceptance_rate(AcceptanceStats(generated=9, steps=3)) == 3.0


def test_acceptance_rate_matches_trace_recount():
    model = make_model(17)
    out, stats = speculative_decode(model, None, [2, 3, 4], 2, "quadratic", max_steps=5)
    recount = sum(a * n for a, n in stats.histogram.items()) + stats.steps
    # Every step emits accepted + 1 tokens (eos never fires here).
    assert stats.generated == recount
    assert acceptance_rate(stats) == stats.generated / stats.steps


def test_future_rank_probe_rank_one_for_argmax():
    model = make_model(21)
    prompt = [1, 2, 3]
    from specmtp.batching import build_linear_inference_input

    batch = build_linear_inference_input(prompt, [], CFG.mask_ids[:2])
    out = run_batch(model, batch)
    best = [int(np.argmax(out.logits.data[len(prompt) + j])) for j in range(2)]
    ranks = future_rank_probe(model, prompt, best, 2)
    assert ranks == [1, 1]


def test_future_rank_probe_bounds():
    model = make_model(23)
    ranks = future_rank_probe(model, [1, 2], [3, 4, 5], 3)
    assert all(1 <= r <= CFG.vocab_size for r in ranks)
    with pytest.raises(ValueError):
        future_rank_probe(model, [1], [1, 2], 1)
    with pytest.raises(ValueError):
        future_rank_probe(model, [1, 2], [3], CFG.k_masks + 1)


def test_per_step_emitted_length_bounds():
    model = make_model(25)
    k = 3
    out, stats = speculative_decode(model, None, [1, 2], k, "quadratic", max_steps=8)
    # Every step emits accepted + 1 and accepted <= k.
    assert all(0 <= a <= k for a in stats.histogram)
    assert stats.generated == sum((a + 1) * n for a, n in stats.histogram.items())


SHORT = replace(CFG, max_position=16)


def test_greedy_stops_at_max_position():
    # The last pass over 16 tokens uses positions 0..15; the next would need 16.
    out = greedy_autoregressive(make_model(3, config=SHORT), [1, 2, 3], 20)
    assert len(out) == SHORT.max_position + 1
    # Positions are absolute, so the same weights with a longer table agree.
    assert out == greedy_autoregressive(make_model(3), [1, 2, 3], 20)[: len(out)]


@pytest.mark.parametrize("with_sampler", [False, True])
@pytest.mark.parametrize("strategy", ["linear", "quadratic"])
def test_speculative_stops_at_max_position(strategy, with_sampler):
    model = make_model(3, config=SHORT)
    sampler = init_sampler(CFG.d_model, 4) if with_sampler else None
    out, stats = speculative_decode(model, sampler, [1, 2, 3], CFG.k_masks, strategy, max_steps=20)
    assert stats.steps < 20
    # Where no speculative layout fits, each step takes greedy's causal
    # layout, so decoding runs on to the same end as greedy.
    assert len(out) == SHORT.max_position + 1
    assert out == greedy_autoregressive(model, [1, 2, 3], 20)


def test_prompt_longer_than_max_position_is_rejected():
    model = make_model(3, config=SHORT)
    long_prompt = [1] * (SHORT.max_position + 1)
    with pytest.raises(ValueError, match="exceeds max_position"):
        greedy_autoregressive(model, long_prompt, 5)
    for strategy in ("linear", "quadratic"):
        with pytest.raises(ValueError, match="exceeds max_position"):
            speculative_decode(model, None, long_prompt, CFG.k_masks, strategy)
    # A prompt that fills the context exactly still gets one greedy pass.
    assert len(greedy_autoregressive(model, long_prompt[1:], 5)) == SHORT.max_position + 1


def test_future_rank_probe_checks_its_prompt_and_ids():
    model = make_model(3, config=SHORT)
    # 14 tokens fit max_position 16, but not with 3 masks after them.
    with pytest.raises(ValueError, match="prompt of 14 tokens leaves no room for 3 masks below max_position 16"):
        future_rank_probe(model, [1] * 14, [2], 3)
    assert len(future_rank_probe(model, [1] * 13, [2], 3)) == 1
    with pytest.raises(ValueError, match="exceeds max_position"):
        future_rank_probe(model, [1] * 17, [2], 1)
    with pytest.raises(ValueError, match="prompt must be nonempty"):
        future_rank_probe(model, [], [2], 1)
    for bad in (CFG.vocab_size, -1):
        with pytest.raises(ValueError, match=f"future token {bad} outside the vocabulary of 15 ids"):
            future_rank_probe(model, [1, 2], [3, bad], 2)


# ---------------------------------------------------------------------------
# Context rows: each decode pass marks the rows it does not read, so the
# last layer runs only the rows it reads: greedy's last row, a speculative
# step's rows from the last verified one on, the probe's mask rows.
# ---------------------------------------------------------------------------


SPECULATIVE_BUILDERS = ("build_linear_inference_input", "build_quadratic_inference_input")


def _record_passes(monkeypatch, model, builds=None):
    """Wraps decoding's layout builders, forward and model.gated_lora_apply
    by name, as perfbench's step clock and tracer do, and takes their
    arguments as those wrappers do: a builder's by position after the
    verified tokens, forward's five by position alone. Returns a list that
    gets one record per forward call: (layout rows, verified length,
    context rows, {(layer, adapter): rows}); `builds`, when given, gets the
    name of each builder called, and one None per forward call."""
    import specmtp.decoding as decoding_mod

    names = {id(getattr(lw, n).W): (i, n) for i, lw in enumerate(model.layers) for n in model_mod.ADAPTERS}
    passes, n_ver = [], []
    builds = [] if builds is None else builds

    def builder(name, original):
        def build(verified, *rest):
            builds.append(name)
            n_ver.append(len(verified))
            return original(verified, *rest)

        return build

    for name in SPECULATIVE_BUILDERS + ("causal_rows",):
        monkeypatch.setattr(decoding_mod, name, builder(name, getattr(decoding_mod, name)))

    forward = decoding_mod.forward

    def recording_forward(model, tokens, position_ids, streams, gate):
        builds.append(None)
        passes.append((len(tokens), n_ver[-1], streams.first, {}))
        return forward(model, tokens, position_ids, streams, gate)

    apply = model_mod.gated_lora_apply

    def recording_apply(layer, x, *args, **kwargs):
        passes[-1][3][names[id(layer.W)]] = x.shape[-2]
        return apply(layer, x, *args, **kwargs)

    monkeypatch.setattr(decoding_mod, "forward", recording_forward)
    monkeypatch.setattr(model_mod, "gated_lora_apply", recording_apply)
    return passes


@pytest.mark.parametrize("config", ["roomy", "to-max-position"])
@pytest.mark.parametrize("strategy", ["greedy", "linear", "quadratic"])
def test_each_step_builds_one_layout_then_runs_one_pass(monkeypatch, strategy, config):
    # perfbench's step clock requires one call of a speculative builder per
    # speculative step (as many as stats.steps), and its tracer opens a step
    # at each builder call and reads the pass of decoding.forward, five
    # arguments by position. That holds at max_position too, where a step
    # takes greedy's causal layout: the linear layout with no mask.
    cfg = CFG if config == "roomy" else SHORT
    model = make_model(3, config=cfg)
    builds = []
    passes = _record_passes(monkeypatch, model, builds)
    prompt = [1, 2, 3]
    if strategy == "greedy":
        out = greedy_autoregressive(model, prompt, 20)
        steps, names = len(out) - len(prompt), {"causal_rows"}
    else:
        sampler = init_sampler(CFG.d_model, 4)
        out, stats = speculative_decode(model, sampler, prompt, CFG.k_masks, strategy, max_steps=20)
        steps, names = stats.steps, set(SPECULATIVE_BUILDERS)
    assert steps == len(passes) > 0
    # Builder, pass, builder, pass, ...: no builder call after the last pass.
    assert len(builds) == 2 * steps and builds[1::2] == [None] * steps
    assert set(builds[0::2]) <= names
    if config == "to-max-position":
        assert len(out) == SHORT.max_position + 1
        # The last step ran greedy's layout: its rows are the verified tokens.
        assert passes[-1][0] == passes[-1][1] == SHORT.max_position


@pytest.mark.parametrize("bad", [-1, CFG.vocab_size], ids=["below-zero", "at-V"])
@pytest.mark.parametrize("decode", ["greedy", "linear", "quadratic", "probe"])
def test_a_prompt_id_outside_the_vocabulary_is_rejected_before_any_pass(monkeypatch, decode, bad):
    # Each decode call checks its prompt's ids once, with forward's own
    # error, before it runs a pass; its passes then leave the check out.
    model = make_model(3)
    builds = []
    _record_passes(monkeypatch, model, builds)
    prompt = [1, 2, bad, 4]
    with pytest.raises(tensor_mod.NumericsError, match="^token id out of range$"):
        if decode == "greedy":
            greedy_autoregressive(model, prompt, 5)
        elif decode == "probe":
            future_rank_probe(model, prompt, [1, 2], 2)
        else:
            speculative_decode(model, None, prompt, 2, decode, max_steps=5)
    assert builds == []
    with pytest.raises(tensor_mod.NumericsError, match="^token id out of range$"):
        model_mod.forward(model, prompt, range(4), causal_rows(prompt).streams, [0] * 4)


@pytest.mark.parametrize("bad", [-1, CFG.vocab_size], ids=["below-zero", "at-V"])
@pytest.mark.parametrize("strategy", ["linear", "quadratic"])
def test_an_overridden_speculation_outside_the_vocabulary_is_rejected_at_its_step(monkeypatch, strategy, bad):
    # An override's ids are checked at every step: the third step's override
    # gives one past the vocabulary, so the call stops after three passes.
    model = make_model(3)
    builds = []
    passes = _record_passes(monkeypatch, model, builds)
    k = 2

    def speculate(verified, last_token, block_logits, block_hidden):
        return [1, bad] if len(passes) == 3 else [1, 2]

    with pytest.raises(tensor_mod.NumericsError, match="^token id out of range$"):
        speculative_decode(model, None, [1, 2, 3], k, strategy, max_steps=6, speculation_override=speculate)
    assert len(passes) == 3 and builds[-1] is None


@pytest.mark.parametrize("strategy", ["greedy", "linear", "quadratic"])
def test_the_last_layer_runs_only_the_rows_decoding_reads(monkeypatch, strategy):
    # The last layer's q, o, ff_in and ff_out adapters see 1 row per greedy
    # pass and T - (n_ver - 1) rows per speculative pass; its k and v, and
    # every adapter of the earlier layers, see all T rows.
    model = make_model(31)
    passes = _record_passes(monkeypatch, model)
    prompt = [1, 2, 3, 4, 5, 6, 7]
    if strategy == "greedy":
        greedy_autoregressive(model, prompt, 6)
    else:
        speculative_decode(model, init_sampler(CFG.d_model, 31), prompt, 3, strategy, max_steps=6)
    assert len(passes) == 6
    last = CFG.n_layers - 1
    for t_len, n_ver, first, rows in passes:
        assert first == n_ver - 1 and (strategy != "greedy" or first == t_len - 1)
        assert len(rows) == 6 * CFG.n_layers
        for (layer, name), got in rows.items():
            read = layer == last and name not in ("attn_k", "attn_v")
            assert got == (t_len - first if read else t_len), (layer, name)


def test_an_overflow_in_a_context_row_is_named_on_replay():
    # Token 9 only at row 0, a context row of every pass: its embedding
    # makes layer 0's first norm overflow on that row alone. The fast run
    # never runs that row's last-layer query side, but its keys and values
    # reach every output row, so the pass fails and its replay names the op,
    # as the pass over the same layout with no context row does.
    model = make_model(33)
    model.embed_base.data = model.embed_base.data.copy()
    model.embed_base.data[9, 0] = np.float32(1e30)
    prompt = [9, 1, 2, 3, 4]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(tensor_mod.NumericsError, match="produced by layer_norm$"):
            run_batch(model, causal_rows(prompt))
        with pytest.raises(tensor_mod.NumericsError, match="produced by layer_norm$"):
            greedy_autoregressive(model, prompt, 3)
        for strategy in ("linear", "quadratic"):
            with pytest.raises(tensor_mod.NumericsError, match="produced by layer_norm$"):
                speculative_decode(model, init_sampler(CFG.d_model, 33), prompt, 3, strategy, max_steps=3)


@pytest.mark.parametrize("fixture", ["trained_full", "trained_plain", "trained_sampler_only"])
def test_future_rank_probe_ranks_are_the_full_passes(request, fixture):
    # The probe reads only its mask rows; their ranks are those of the
    # mask rows of a pass that outputs every row.
    model = request.getfixturevalue(fixture).model
    k = model.config.k_masks
    for seq in heldout_prompts(count=8, prompt_len=14):
        prompt, future = seq[:9], seq[10:14]
        batch = build_linear_inference_input(prompt, [], model.config.mask_ids[:k])
        logits = run_batch(model, batch).logits.data
        want = [1 + int((logits[9 + j] > logits[9 + j][tok]).sum()) for j, tok in enumerate(future)]
        assert future_rank_probe(model, prompt, future, k) == want

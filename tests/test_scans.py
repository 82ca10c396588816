"""One finiteness scan per pass: `forward` and `sampler_logits` skip the
per-op scans, scan their logits (and attention its scores) once, and on a
failed scan replay the pass with per-op scans on. Every test here compares
against a pass checked per op, op by op, as the oracle: the same error
message, the same RuntimeWarnings, the same bytes."""

import collections
import contextlib
import warnings

import numpy as np
import pytest
from chains import serial_sampler_chain
from conftest import run_batch

import specmtp.model as model_mod
import specmtp.sampler as sampler_mod
from specmtp import tensor as tz
from specmtp.batching import build_training_batch, causal_rows
from specmtp.model import ModelConfig, forward, init_model
from specmtp.sampler import init_sampler, sampler_chain
from specmtp.tensor import NumericsError, Tape

CFG = ModelConfig(vocab_size=16, d_model=16, n_layers=2, n_heads=2, d_ff=32, k_masks=3, lora_rank=4, max_position=64)


def per_op_checked(fast, replay, logits_of=None):
    """A stand-in for `scanned_once` that checks op by op: the pass itself,
    with every op's scan on, under the caller's errstate."""
    return fast()


def outcome(call):
    """(the NumericsError's message or None, the RuntimeWarnings recorded,
    the result or None)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call()
        except NumericsError as e:
            result, error = None, str(e)
        else:
            error = None
    seen = [(w.category.__name__, str(w.message)) for w in caught if issubclass(w.category, RuntimeWarning)]
    return error, seen, result


def make_model(seed=0):
    model = init_model(CFG, seed)
    rng = np.random.default_rng(seed + 1)
    for lw in model.layers:
        for g in (lw.attn_q, lw.attn_k, lw.attn_v, lw.attn_o, lw.ff_in, lw.ff_out):
            g.A.data = rng.normal(0, 0.3, g.A.data.shape).astype(np.float32)
            g.B.data = rng.normal(0, 0.3, g.B.data.shape).astype(np.float32)
    return model, init_sampler(CFG.d_model, seed + 2)


# Token 0 is in both layouts, so a -inf planted in row 0 of an embedding
# table is read.
LAYOUTS = {
    "training": build_training_batch([0, 3, 5, 2, 7, 1], [1, 1, 0, 1, 1, 1], CFG.mask_ids),
    "causal": causal_rows([0, 4, 6, 3, 9, 2, 11]),
}
SUBJECTS = ("untaped", "taped", "sampler_chain")


def run_subject(subject, model, head, batch, zs):
    if subject == "sampler_chain":
        return np.array(sampler_chain(head, model.unembed, model.embedding_table(), 0, zs))
    args = (model, batch.tokens, batch.position_ids, batch.streams, batch.gate)
    with Tape() if subject == "taped" else contextlib.nullcontext():
        out = forward(*args)
    return out.logits.data


def compare(subject, model, head, batch, zs, monkeypatch, what):
    """Both passes give the same outcome; returns it: "raised", "warned"
    (a finite result with warnings) or "clean"."""
    got = outcome(lambda: run_subject(subject, model, head, batch, zs))
    with monkeypatch.context() as m:
        m.setattr(model_mod, "scanned_once", per_op_checked)
        m.setattr(sampler_mod, "scanned_once", per_op_checked)
        want = outcome(lambda: run_subject(subject, model, head, batch, zs))
    assert got[:2] == want[:2], f"{subject} with {what}"
    if want[2] is not None:
        assert got[2].tobytes() == want[2].tobytes(), f"{subject} with {what}"
    return "raised" if want[0] is not None else "warned" if want[1] else "clean"


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("injection", ["scaled", "minus_inf"])
def test_every_injected_overflow_gives_what_per_op_checks_give(layout, injection, monkeypatch):
    model, head = make_model()
    batch = LAYOUTS[layout]
    zs = run_batch(model, batch).hidden.data
    weights = model.named_params() + head.named_params()
    seen = collections.Counter()
    for name, w in weights:
        clean = w.data
        for subject in SUBJECTS:
            if injection == "minus_inf":
                w.data = clean.copy()
                w.data.reshape(-1)[0] = -np.inf
                seen[subject, compare(subject, model, head, batch, zs, monkeypatch, f"-inf in {name}")] += 1
                continue
            # Scale by 10^5 more each time, until the per-op pass fails.
            for exp in range(4, 40, 5):
                with np.errstate(over="ignore", invalid="ignore"):
                    w.data = clean * np.float32(10.0**exp)
                kind = compare(subject, model, head, batch, zs, monkeypatch, f"{name} x 1e{exp}")
                seen[subject, kind] += 1
                if kind == "raised":
                    break
        w.data = clean
    # Every path meets failures, and none ends in a finite result with only
    # warnings: a variance that overflows inside layer_norm raises too.
    assert all(seen[subject, "raised"] for subject in SUBJECTS), seen
    assert not any(kind == "warned" for _, kind in seen), seen


VARIANCE_OVERFLOW = "non-finite values produced by layer_norm"


@pytest.mark.parametrize("errstate", ["default", "training"])
@pytest.mark.parametrize("subject", SUBJECTS)
def test_a_variance_overflow_raises_naming_layer_norm(subject, errstate):
    # An embedding scaled by 1e24 stays finite through the embedding sum,
    # but its rows' deviations overflow xc * xc in the first layer_norm
    # (the sampler head's first layer_norm, for the chain).
    model, head = make_model()
    batch = LAYOUTS["causal"]
    zs = run_batch(model, batch).hidden.data
    model.embed_base.data = model.embed_base.data * np.float32(1e24)
    # Training runs its step under over="ignore", invalid="ignore".
    quiet = dict(over="ignore", invalid="ignore") if errstate == "training" else {}
    with np.errstate(**quiet):
        error, seen, _ = outcome(lambda: run_subject(subject, model, head, batch, zs))
    assert error == VARIANCE_OVERFLOW
    assert seen == ([] if quiet else [
        ("RuntimeWarning", "overflow encountered in multiply"),
        ("RuntimeWarning", "invalid value encountered in subtract"),
    ])


def causal_allowed(t_len):
    return np.tril(np.ones((t_len, t_len), dtype=bool))


def attention_step(q, k):
    """Scores, then the causal masked softmax: the part of a pass where a
    non-finite score can vanish."""
    scores = tz.attention_scores_data(q, k, 1, q.shape[0], 0)[0]
    return tz.masked_softmax_data(scores, causal_allowed(q.shape[0]))


# q and k of one head (d_h = 2) whose only non-finite score is the named
# cell: q0 . k1 = 1e40 overflows in an excluded cell, q1 . k0 = -1e40 in an
# allowed one. Every other product is 0.
ABSORBED = {
    "inf_in_excluded_cell": ([[1e20, 0], [0, 1]], [[0, 1], [1e20, 0]]),
    "minus_inf_in_allowed_cell": ([[0, 1], [-1e20, 0]], [[1e20, 0], [0, 1]]),
}


@pytest.mark.parametrize("case", sorted(ABSORBED))
def test_a_score_the_softmax_would_absorb_still_names_matmul(case):
    q, k = (np.array(a, dtype=np.float32) for a in ABSORBED[case])
    with np.errstate(over="ignore"):
        scores = q @ k.T / np.float32(np.sqrt(2))
        assert np.isfinite(tz.masked_softmax_data(scores, causal_allowed(2))).all()
        assert (~np.isfinite(scores)).sum() == 1
        with pytest.raises(NumericsError, match="produced by matmul$"):
            tz.scanned_once(lambda: attention_step(q, k), lambda: attention_step(q, k))
        with pytest.raises(NumericsError, match="produced by matmul$"):
            attention_step(q, k)


def test_a_clean_pass_scans_only_its_scores(monkeypatch):
    model, head = make_model()
    batch = LAYOUTS["training"]
    scanned = []
    scan = tz._scan
    monkeypatch.setattr(tz, "_scan", lambda data, op: scanned.append(op) or scan(data, op))
    for taped in (False, True):
        with Tape() if taped else contextlib.nullcontext():
            run_batch(model, batch)
    # Per pass and layer, the one scores array of the regular keys and the
    # mask blocks.
    assert scanned == ["matmul"] * (2 * CFG.n_layers)
    scanned.clear()
    sampler_chain(head, model.unembed, model.embedding_table(), 0, np.ones((3, CFG.d_model), np.float32))
    assert scanned == []
    # Outside a pass every op scans its output again.
    tz.linear_data(np.ones((1, 2), np.float32), np.ones((2, 2), np.float32))
    assert scanned == ["linear"]


def overflowing_layer_norm():
    # xc * xc overflows, so the variance is inf: the row comes out NaN, not
    # its bias, from a finite input.
    x = np.array([[1e20, -1e20, 0.0]], dtype=np.float32)
    return tz.layer_norm_data(x, np.ones(3, np.float32), np.full(3, 0.5, np.float32))[0]


def test_a_variance_overflow_is_named_as_per_op_checks_name_it():
    got = outcome(lambda: tz.scanned_once(overflowing_layer_norm, overflowing_layer_norm))
    want = outcome(overflowing_layer_norm)
    assert got[0] == want[0] == VARIANCE_OVERFLOW
    assert got[1] == want[1]
    assert tz._scan_per_op.get()


def overflow_to_zero():
    # exp overflows to inf and 1 / inf is 0: a finite output, and an
    # overflow warning, from a finite input.
    return 1.0 / np.exp(np.array([100.0], dtype=np.float32))


def test_an_overflow_with_a_finite_result_warns_as_per_op_checks_do():
    got = outcome(lambda: tz.scanned_once(overflow_to_zero, overflow_to_zero))
    want = outcome(overflow_to_zero)
    assert got[1] == want[1] == [("RuntimeWarning", "overflow encountered in exp")]
    assert got[0] is want[0] is None
    assert got[2].tobytes() == want[2].tobytes()
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        tz.scanned_once(overflow_to_zero, overflow_to_zero)
    assert tz._scan_per_op.get()


@pytest.mark.parametrize("under", ["ignore", "warn"])
def test_an_error_the_caller_ignores_does_not_replay(under):
    replays = []

    def underflow():
        return np.exp(np.array([-200.0], dtype=np.float32))

    def replay():
        replays.append(1)
        return underflow()

    with np.errstate(under=under):
        got = outcome(lambda: tz.scanned_once(underflow, replay))
    assert len(replays) == (under == "warn")
    assert got[1] == ([] if under == "ignore" else [("RuntimeWarning", "underflow encountered in exp")])
    assert got[2].tobytes() == np.zeros(1, np.float32).tobytes()


def test_a_failed_pass_leaves_per_op_scans_on():
    def fast():
        return np.full(2, np.inf, np.float32)

    def replay():
        return tz.scale_data(np.ones(2, np.float32), np.inf)

    with pytest.raises(NumericsError, match="produced by scale$"):
        tz.scanned_once(fast, replay)
    assert tz._scan_per_op.get()
    with pytest.raises(NumericsError, match="that no per-op scan finds$"):
        tz.scanned_once(fast, lambda: None)


# The one-scan argument needs `@` to form every product, zero operands
# included, so that 0 * inf = NaN carries an overflow to the output. A BLAS
# that skipped zeros would let it vanish; then these fail.
def _one_row(rng, dtype, bad):
    a, b = rng.normal(size=(1, 64)), rng.normal(size=(64, 32))
    a[0, 17], b[17] = bad, 0.0
    return a.astype(dtype), b.astype(dtype), (0,)


def _many_rows(rng, dtype, bad):
    a, b = rng.normal(size=(40, 64)), rng.normal(size=(64, 32))
    a[23, 5], b[5] = bad, 0.0
    return a.astype(dtype), b.astype(dtype), (23,)


def _stacked_attention(rng, dtype, bad):
    # Weights (B, H, T, T) that give key 9 weight 0 in every row, and a
    # value row 9 holding the bad entry: every context row must get it.
    p = np.tril(rng.uniform(size=(2, 2, 24, 24)))
    p[..., 9] = 0.0
    v = rng.normal(size=(2, 2, 24, 8))
    v[1, 0, 9, 3] = bad
    return p.astype(dtype), v.astype(dtype), (1, 0)


def _zero_weight_column(rng, dtype, bad):
    # x @ W.T, the linear layer's product, for a W whose column 11 is 0.
    x, w = rng.normal(size=(24, 64)), rng.normal(size=(32, 64))
    x[6, 11], w[:, 11] = bad, 0.0
    return x.astype(dtype), w.astype(dtype).T, (6,)


PRODUCTS = {f.__name__[1:]: f for f in (_one_row, _many_rows, _stacked_attention, _zero_weight_column)}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bad", [np.inf, -np.inf])
@pytest.mark.parametrize("shape", sorted(PRODUCTS))
def test_matmul_forms_every_product_so_zero_times_inf_is_nan(shape, bad, dtype):
    a, b, hit = PRODUCTS[shape](np.random.default_rng(3), dtype, bad)
    with np.errstate(invalid="ignore"):
        out = a @ b
    # Every product with the bad entry is 0 * inf: the whole hit row (or,
    # for attention, every context row of the hit head) is NaN.
    expected = np.zeros(out.shape, dtype=bool)
    expected[hit] = True
    if shape == "stacked_attention":
        expected[...] = False
        expected[hit + (slice(None), 3)] = True
    assert np.isnan(out[expected]).all()
    assert np.isfinite(out[~expected]).all()


def test_an_overflow_off_the_chain_raises_naming_the_op(monkeypatch):
    # The table scans every (position, previous token) cell, not only the
    # cells the chain reads. An embedding row that no chain step conditions
    # on, scaled by 1e24, overflows only its own cells, in the head's first
    # layer_norm: the serial chain never reads them, the table raises.
    model, head = make_model()
    zs = run_batch(model, LAYOUTS["causal"]).hidden.data[:3]
    picks, _ = serial_sampler_chain(head, model.unembed, model.embedding_table(), 0, zs)
    off_chain = next(v for v in range(CFG.first_mask_id) if v not in [0] + picks[:-1])
    model.embed_base.data[off_chain] *= np.float32(1e24)
    assert serial_sampler_chain(head, model.unembed, model.embedding_table(), 0, zs)[0] == picks
    error, _, _ = outcome(lambda: run_subject("sampler_chain", model, head, None, zs))
    assert error == VARIANCE_OVERFLOW
    assert compare("sampler_chain", model, head, None, zs, monkeypatch, "an off-chain overflow") == "raised"

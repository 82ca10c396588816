import numpy as np
import pytest
from chains import streams_matrix, visibility_rule
from conftest import run_batch

from specmtp.batching import (
    NO_ANCHOR,
    DecodeTables,
    NO_TOKEN,
    build_linear_inference_input,
    build_quadratic_inference_input,
    build_training_batch,
    build_training_stack,
    causal_rows,
    _layout,
)
from specmtp.model import ModelConfig, _gate_start, init_model
from specmtp.tensor import IGNORE_ID, precision

MASKS2 = np.array([5, 6])


def allowed_set(batch, row, k):
    """The rows that `row` sees, by the visibility rule over blocks of k."""
    return set(np.flatnonzero(visibility_rule(batch.block_anchor, k)[row]).tolist())


def test_training_batch_frozen_example():
    # seq [a, b, c] = [0, 1, 2], all loss flags on, two masks.
    # Regular rows a, b, c first, then the blocks anchored at a and b.
    batch = build_training_batch([0, 1, 2], [1, 1, 1], MASKS2)
    assert batch.tokens.tolist() == [0, 1, 2, 5, 6, 5, 6]
    assert batch.position_ids.tolist() == [0, 1, 2, 1, 2, 2, 3]
    assert batch.base_labels.tolist() == [1, 2, IGNORE_ID, 2, IGNORE_ID, IGNORE_ID, IGNORE_ID]
    assert batch.gate.tolist() == [0, 0, 0, 1, 1, 1, 1]
    assert batch.block_anchor.tolist() == [NO_ANCHOR, NO_ANCHOR, NO_ANCHOR, 0, 0, 1, 1]
    assert batch.prev_token.tolist() == [0, 1, 2, 1, 2, 2, -1]
    assert batch.lcm_pairs == [(3, 1)]
    assert allowed_set(batch, 0, 2) == {0}
    assert allowed_set(batch, 1, 2) == {0, 1}
    assert allowed_set(batch, 2, 2) == {0, 1, 2}
    assert allowed_set(batch, 3, 2) == {0, 3}
    assert allowed_set(batch, 4, 2) == {0, 3, 4}
    assert allowed_set(batch, 5, 2) == {0, 1, 5}
    assert allowed_set(batch, 6, 2) == {0, 1, 5, 6}


def test_training_batch_no_flags_is_plain_causal():
    batch = build_training_batch([3, 1, 4, 1], [0, 0, 0, 0], MASKS2)
    plain = causal_rows([3, 1, 4, 1])
    assert batch.tokens.tolist() == plain.tokens.tolist()
    assert np.array_equal(batch.block_anchor, plain.block_anchor)
    assert np.all(batch.base_labels == IGNORE_ID)
    assert np.all(batch.gate == 0)


def test_training_batch_row_count_arithmetic():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 20))
        k = int(rng.integers(1, 5))
        seq = rng.integers(0, 5, size=n)
        flags = rng.integers(0, 2, size=n)
        batch = build_training_batch(seq, flags, np.arange(40, 40 + k))
        blocks = int(flags[: n - 1].sum())
        assert batch.size == n + k * blocks


def test_training_batch_flag_gates_labels():
    batch = build_training_batch([0, 1, 2, 3], [1, 0, 1, 1], MASKS2)
    # Row of x_2 carries no label and spawns no block.
    labeled_tokens = batch.tokens[batch.base_labels != IGNORE_ID]
    assert 1 not in labeled_tokens[batch.gate[batch.base_labels != IGNORE_ID] == 0]
    assert batch.size == 4 + 2 * 2


def test_training_batch_rejects_bad_input():
    with pytest.raises(ValueError):
        build_training_batch([1], [1], MASKS2)
    with pytest.raises(ValueError):
        build_training_batch([1, 2], [1], MASKS2)


def test_linear_input_cold_step():
    batch = build_linear_inference_input([7, 8], [], np.array([5, 6, 9]))
    assert batch.tokens.tolist() == [7, 8, 5, 6, 9]
    assert batch.gate.tolist() == [0, 0, 1, 1, 1]
    assert batch.block_anchor.tolist() == [NO_ANCHOR, NO_ANCHOR, 1, 1, 1]
    tri = np.tril(np.ones((5, 5), dtype=bool))
    assert np.array_equal(visibility_rule(batch.block_anchor, 3), tri)


def test_linear_input_sizes_and_positions():
    batch = build_linear_inference_input(list(range(5)), [1, 2, 3], np.array([10, 11, 12]))
    assert batch.size == 11
    assert batch.position_ids.tolist() == list(range(11))
    assert int(batch.gate.sum()) == 3


def test_linear_input_rejects_excess_speculation():
    with pytest.raises(ValueError):
        build_linear_inference_input([1], [2, 3], np.array([5]))


def test_quadratic_layout_k1():
    batch = build_quadratic_inference_input([1, 2], [3], np.array([5]))
    assert batch.tokens.tolist() == [1, 2, 3, 5, 5]
    assert batch.block_anchor.tolist() == [NO_ANCHOR, NO_ANCHOR, NO_ANCHOR, 1, 2]
    # Pre-block mask and chain block never see each other.
    assert allowed_set(batch, 2, 1) == {0, 1, 2}
    assert allowed_set(batch, 3, 1) == {0, 1, 3}
    assert allowed_set(batch, 4, 1) == {0, 1, 2, 4}


# Builders' streams written out by hand: (n_reg, block, allowed rows).
FROZEN_STREAMS = {
    # The training example above: blocks of 2 anchored at rows 0 and 1.
    "training-k2": (
        lambda: build_training_batch([0, 1, 2], [1, 1, 1], MASKS2),
        3,
        2,
        ["100 00", "110 00", "111 00", "100 10", "100 11", "110 10", "110 11"],
    ),
    # The k = 1 quadratic layout: one-row blocks anchored at rows 1 and 2.
    "quadratic-k1": (
        lambda: build_quadratic_inference_input([1, 2], [3], np.array([5])),
        3,
        1,
        ["100 0", "110 0", "111 0", "110 1", "111 1"],
    ),
    # The cold linear step: one block after the last row is the triangle.
    "linear-cold": (
        lambda: build_linear_inference_input([7, 8], [], np.array([5, 6, 9])),
        5,
        0,
        ["10000", "11000", "11100", "11110", "11111"],
    ),
}


@pytest.mark.parametrize("case", sorted(FROZEN_STREAMS))
def test_layout_streams_frozen_example(case):
    build, n_reg, block, rows = FROZEN_STREAMS[case]
    streams = build().streams
    want = np.array([[c == "1" for c in row.replace(" ", "")] for row in rows])
    assert (streams.n_reg, streams.block, streams.first) == (n_reg, block, 0)
    assert streams.allowed.dtype == bool
    assert np.array_equal(streams.allowed, want)


def test_quadratic_layout_k3_frozen_attention():
    verified = [1, 2, 3, 4]
    batch = build_quadratic_inference_input(verified, [7, 8, 9], np.array([10, 11, 12]))
    assert batch.size == 4 + 3 + 3 + 9
    assert batch.tokens.tolist() == [1, 2, 3, 4, 7, 8, 9] + [10, 11, 12] * 4
    # The first block (rows 7-9) extends the last verified row; s_1 (row 4)
    # never sees it.
    assert allowed_set(batch, 9, 3) == {0, 1, 2, 3, 7, 8, 9}
    assert allowed_set(batch, 4, 3) == {0, 1, 2, 3, 4}
    # Block 2's m_1 (row 10): all verified rows, s_1 (row 4), itself; s_2
    # (row 5) anchors block 3, whose m_2 (row 14) sees s_1 and s_2.
    assert allowed_set(batch, 10, 3) == {0, 1, 2, 3, 4, 10}
    assert allowed_set(batch, 14, 3) == {0, 1, 2, 3, 4, 5, 13, 14}
    # Positions: s_j continues the count; block masks continue their anchor.
    assert batch.position_ids.tolist() == [
        0, 1, 2, 3, 4, 5, 6, 4, 5, 6, 5, 6, 7, 6, 7, 8, 7, 8, 9
    ]


def test_quadratic_attention_is_lower_triangular_and_block_isolated():
    rng = np.random.default_rng(1)
    batch = build_quadratic_inference_input(
        rng.integers(0, 5, size=6).tolist(), [1, 2, 3], np.array([10, 11, 12])
    )
    allowed = visibility_rule(batch.block_anchor, 3)
    assert not np.triu(allowed, 1).any()
    assert allowed.diagonal().all()
    mask_rows = batch.mtp_rows
    for r in mask_rows:
        others = [m for m in mask_rows if batch.block_anchor[m] != batch.block_anchor[r]]
        assert not allowed[r, others].any()
    assert np.array_equal(streams_matrix(batch.streams, batch.size), allowed)
    assert batch.size == 6 + 3 + 9 + 3


def test_quadratic_rejects_wrong_speculation_length():
    with pytest.raises(ValueError):
        build_quadratic_inference_input([1], [2], np.array([5, 6]))


def _check_visibility(batch, k):
    """Walk the rows and check the visibility rule with plain sets: the
    regular rows first, then blocks of k mask rows, one anchor per block."""
    n_reg = int((batch.gate == 0).sum())
    block: list[int] = []
    for r in range(batch.size):
        seen = allowed_set(batch, r, k)
        assert max(seen) == r  # sees itself, never a later row
        if r < n_reg:
            assert batch.gate[r] == 0
            assert seen == set(range(r + 1))
            assert batch.position_ids[r] == r
            assert batch.block_anchor[r] == NO_ANCHOR
            continue
        anchor = int(batch.block_anchor[r])
        assert batch.gate[r] == 1 and 0 <= anchor < n_reg
        if (r - n_reg) % k == 0:
            block = []
        assert not block or batch.block_anchor[block[-1]] == anchor
        block.append(r)
        assert seen == set(range(anchor + 1)) | set(block)
        assert batch.position_ids[r] == anchor + len(block)


def _check_training_rows(batch, seq, flags, mask_block):
    """Walk one sequence's training rows and check tokens, labels, previous
    tokens and lcm_pairs against the rule of `build_training_stack`."""
    n, k = len(seq), len(mask_block)
    expect_tokens = list(seq)
    rows = {(i, 0): i - 1 for i in range(1, n + 1)}  # rows[(i, j)]: row of m_j after x_i; j = 0 is x_i
    for i in range(1, n):
        if flags[i - 1] == 1:
            for j in range(1, k + 1):
                rows[(i, j)] = len(expect_tokens)
                expect_tokens.append(mask_block[j - 1])
    assert batch.tokens.tolist() == expect_tokens
    labels = [IGNORE_ID] * batch.size
    prev = [NO_TOKEN] * batch.size
    for (i, j), r in rows.items():
        live = i + 1 + j <= n and (j > 0 or flags[i - 1] == 1)
        labels[r] = seq[i + j] if live else IGNORE_ID
        prev[r] = seq[i + j - 1] if i + j <= n else NO_TOKEN
    assert batch.base_labels.tolist() == labels
    assert batch.prev_token.tolist() == prev
    pairs = [
        (r, rows[(i + j, 0)]) for (i, j), r in sorted(rows.items(), key=lambda item: item[1])
        if j > 0 and labels[r] != IGNORE_ID and labels[rows[(i + j, 0)]] != IGNORE_ID
    ]
    assert batch.lcm_pairs == pairs


def test_random_layouts_follow_the_visibility_rule():
    rng = np.random.default_rng(7)
    for _ in range(60):
        k = int(rng.integers(1, 5))
        masks = np.arange(40, 40 + k)
        mask_block = masks.tolist()

        n = int(rng.integers(2, 12))
        seq = rng.integers(0, 30, size=n).tolist()
        flags = rng.integers(0, 2, size=n).tolist()
        batch = build_training_batch(seq, flags, masks)
        _check_visibility(batch, k)
        _check_training_rows(batch, seq, flags, mask_block)

        corpus = [(rng.integers(0, 30, size=n).tolist(), flags) for _ in range(int(rng.integers(1, 5)))]
        stack = build_training_stack(corpus, masks)
        assert stack.tokens.shape == stack.base_labels.shape == stack.prev_token.shape == (len(corpus), stack.size)
        for b, (seq_b, _) in enumerate(corpus):
            one = stack.select(b)
            _check_visibility(one, k)
            _check_training_rows(one, seq_b, flags, mask_block)

        verified = rng.integers(0, 30, size=int(rng.integers(1, 10))).tolist()
        spec = rng.integers(0, 30, size=int(rng.integers(0, k + 1))).tolist()
        linear = build_linear_inference_input(verified, spec, masks)
        assert linear.tokens.tolist() == verified + spec + mask_block
        spec = rng.integers(0, 30, size=k).tolist()
        quadratic = build_quadratic_inference_input(verified, spec, masks)
        assert quadratic.tokens.tolist() == verified + spec + mask_block * (k + 1)
        causal = causal_rows(verified + spec)
        assert not causal.gate.any()
        for batch in (linear, quadratic, causal):
            _check_visibility(batch, k)
            # A decode layout has no training field.
            assert batch.base_labels is None and batch.prev_token is None and batch.lcm_pairs is None


def test_layout_allowed_is_the_lower_triangle_of_the_visibility_rule():
    # Blocks anchored at any regular rows, in any order and repeated: the
    # rule's matrix is lower-triangular with a full diagonal (regular rows
    # come first), and the streams that the layout carries are that matrix.
    rng = np.random.default_rng(17)
    draws = [(3, [2, 1], 1), (3, [1, 1, 0], 2), (4, [3, 3], 1), (2, [1], 3)]
    for n in list(range(1, 6)) + [int(n) for n in rng.integers(6, 60, size=40)]:
        k = int(rng.integers(1, 5))
        distinct = rng.permutation(n)[: int(rng.integers(0, n + 1))]
        repeated = rng.integers(0, n, size=int(rng.integers(1, 2 * n + 1)))
        draws += [(n, distinct, k), (n, repeated, k)]
    for n, anchors, k in draws:
        batch = _layout(np.zeros(n), anchors, np.arange(40, 40 + k))
        want = visibility_rule(batch.block_anchor, k)
        assert want.dtype == bool
        assert not np.triu(want, 1).any() and want.diagonal().all()
        _check_visibility(batch, k)
        assert batch.streams.first == 0
        assert np.array_equal(streams_matrix(batch.streams, batch.size), want)


@pytest.mark.parametrize(
    "anchors", [[-1], [0, -2], [3], [1, 7]], ids=["below-zero", "below-zero-second", "at-n", "past-n-second"]
)
def test_layout_rejects_an_anchor_outside_the_regular_rows(anchors):
    bad = next(a for a in anchors if not 0 <= a < 3)
    with pytest.raises(ValueError, match=f"^block anchor {bad} is not one of the 3 regular rows$"):
        _layout([1, 2, 3], anchors, MASKS2)


def _cut_and_want(tables, kind, verified, spec, masks):
    """The layout of `kind` cut from `tables`, and `_layout`'s of the same
    rows and anchors: the regular rows, then blocks at none, the last, or
    the last k + 1 of them. `spec` is the speculation: any length up to k
    for a linear layout, k tokens for a quadratic one."""
    n_ver, k = len(verified), len(masks)
    if kind == "causal":
        return causal_rows(verified, tables), _layout(verified, [], masks)
    if kind == "linear":
        got = build_linear_inference_input(verified, spec, masks, tables)
        return got, _layout(verified + spec, [n_ver + len(spec) - 1], masks)
    if kind == "no-mask":
        return build_linear_inference_input(verified, [], masks[:0], tables), _layout(verified, [], masks)
    got = build_quadratic_inference_input(verified, spec, masks, tables)
    return got, _layout(verified + spec, np.arange(n_ver - 1, n_ver + k), masks)


def _check_cut(got, want, kind, k):
    for field in ("tokens", "position_ids", "gate", "block_anchor"):
        assert getattr(got, field).tolist() == getattr(want, field).tolist(), (kind, field)
    quadratic = kind == "quadratic"
    assert got.streams.n_reg == (want.size - (k + 1) * k if quadratic else got.size)
    assert got.streams.block == (k if quadratic else 0) and got.streams.first == 0
    assert np.array_equal(streams_matrix(got.streams, got.size), streams_matrix(want.streams, want.size))


def _check_read_only(tables):
    longest = tables.longest
    for table in (longest.position_ids, longest.gate, longest.block_anchor, longest.streams.allowed):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0


def test_decode_tables_cut_the_layout_of_the_general_constructor():
    # One call's tables, rebuilt from in any order as a decode call rebuilds
    # them, give the layout that `_layout` builds from the same anchors.
    # Causal and linear streams are the triangle, quadratic ones the two
    # streams. The tables' own arrays stay read-only.
    rng = np.random.default_rng(31)
    for k in range(1, 5):
        masks = np.arange(40, 40 + k)
        tables = DecodeTables(60, k)
        for _ in range(40):
            verified = rng.integers(0, 30, size=int(rng.integers(1, 60 - 2 * k))).tolist()
            spec = rng.integers(0, 30, size=k).tolist()
            kind = ["causal", "linear", "no-mask", "quadratic"][int(rng.integers(0, 4))]
            if kind == "linear":
                spec = spec[: int(rng.integers(0, k + 1))]
            _check_cut(*_cut_and_want(tables, kind, verified, spec, masks), kind, k)
        _check_read_only(tables)


def test_small_decode_tables_cut_every_layout_that_fits():
    # Tables of 1..2k + 1 positions: up to k they hold only layouts with no
    # mask, from k + 1 a linear block, and from 2k + 1 a quadratic layout.
    # Every layout that fits is `_layout`'s; every other one is rejected.
    rng = np.random.default_rng(37)
    for k in range(1, 5):
        masks = np.arange(40, 40 + k)
        for rows in range(1, 2 * k + 2):
            tables = DecodeTables(rows, k)
            for n_ver in range(1, rows + 1):
                verified = rng.integers(0, 30, size=n_ver).tolist()
                spec = rng.integers(0, 30, size=k).tolist()
                # (kind, speculation, rows up to the layout's last position)
                cuts = [("causal", [], n_ver), ("no-mask", [], n_ver), ("quadratic", spec, n_ver + 2 * k)]
                cuts += [("linear", spec[:s], n_ver + s + k) for s in range(k + 1)]
                for kind, cut, end in cuts:
                    if end <= rows:
                        _check_cut(*_cut_and_want(tables, kind, verified, cut, masks), kind, k)
                    else:
                        with pytest.raises(ValueError, match="does not fit decode tables"):
                            _cut_and_want(tables, kind, verified, cut, masks)
            _check_read_only(tables)


def test_a_layout_outside_its_tables_is_rejected():
    tables = DecodeTables(10, 2)
    masks = np.array([5, 6])
    build_linear_inference_input([1] * 6, [2, 3], masks, tables)  # 10 rows
    build_quadratic_inference_input([1] * 6, [2, 3], masks, tables)  # 8 regular rows, ending at position 9
    with pytest.raises(ValueError, match="^layout of 11 rows does not fit decode tables of 10 positions and 2 masks$"):
        build_linear_inference_input([1] * 7, [2, 3], masks, tables)
    with pytest.raises(ValueError, match="^layout of 15 rows does not fit decode tables of 10 positions and 2 masks$"):
        build_quadratic_inference_input([1] * 7, [2, 3], masks, tables)
    with pytest.raises(ValueError, match="^quadratic layout of 1 masks from tables of 2$"):
        build_quadratic_inference_input([1] * 2, [2], masks[:1], tables)


def _every_layout_kind(rng, count=60):
    """(mask ids, layouts) per draw: training layouts from random loss
    flags (one sequence and stacks), linear, quadratic and causal layouts."""
    for _ in range(count):
        k = int(rng.integers(1, 5))
        masks = np.arange(40, 40 + k)
        n = int(rng.integers(2, 14))
        flags = rng.integers(0, 2, size=n)
        verified = rng.integers(0, 30, size=int(rng.integers(1, 10))).tolist()
        yield masks, [
            build_training_batch(rng.integers(0, 30, size=n), flags, masks),
            build_training_stack([(rng.integers(0, 30, size=n), flags) for _ in range(3)], masks),
            build_linear_inference_input(verified, verified[: int(rng.integers(0, k + 1))], masks),
            build_quadratic_inference_input(verified, rng.integers(0, 30, size=k).tolist(), masks),
            causal_rows(verified),
        ]


def _every_builders_layouts(rng):
    """(k, layout) of every builder for prompts of 1 to 200 tokens and k =
    1..4: causal, linear with 0..k speculated tokens, quadratic, and a
    training stack of three sequences with random loss flags."""
    for n in (1, 2, 3, 7, 17, 64, 150, 200):
        for k in range(1, 5):
            masks = np.arange(40, 40 + k)
            prompt = rng.integers(0, 30, size=n).tolist()
            spec = rng.integers(0, 30, size=k).tolist()
            yield k, causal_rows(prompt)
            for s in range(k + 1):
                yield k, build_linear_inference_input(prompt, spec[:s], masks)
            yield k, build_quadratic_inference_input(prompt, spec, masks)
            m = max(n, 2)
            flags = rng.integers(0, 2, size=m)
            yield k, build_training_stack([(rng.integers(0, 30, size=m), flags) for _ in range(3)], masks)


def test_derived_visibility_is_the_rule_on_every_layout_kind():
    for k, batch in _every_builders_layouts(np.random.default_rng(23)):
        streams = batch.streams
        # A causal or linear layout is one block-free triangle.
        n_reg = int((batch.gate == 0).sum()) if streams.block else batch.size
        assert streams.n_reg == n_reg and streams.first == 0
        assert streams.block in (0, k)
        assert streams.allowed.dtype == bool
        assert streams.allowed.shape == (batch.size, n_reg + streams.block)
        got = streams_matrix(streams, batch.size)
        assert np.array_equal(got, visibility_rule(batch.block_anchor, k))


def test_every_layout_gates_exactly_its_mask_rows_and_they_come_last():
    # The adapters take the gated rows as one start row, so every layout's
    # gate must be 0s, then 1s, with the 1-rows its mask rows.
    for masks, layouts in _every_layout_kind(np.random.default_rng(29)):
        for batch in layouts:
            mask_rows = batch.block_anchor != NO_ANCHOR
            n_reg = batch.size - int(mask_rows.sum())
            assert batch.gate.tolist() == [0] * n_reg + [1] * (batch.size - n_reg)
            assert np.array_equal(batch.gate == 1, mask_rows)
            assert np.isin(batch.tokens[..., n_reg:], masks).all()
            assert not np.isin(batch.tokens[..., :n_reg], masks).any()
            assert _gate_start(batch.gate, batch.size) == (n_reg if n_reg < batch.size else None)


# ---------------------------------------------------------------------------
# Oracle equivalences through the model
# ---------------------------------------------------------------------------


def _random_model_with_adapters(seed, vocab=12, k=3):
    cfg = ModelConfig(
        vocab_size=vocab, d_model=16, n_layers=2, n_heads=2, d_ff=32, k_masks=k,
        lora_rank=4, max_position=128,
    )
    model = init_model(cfg, seed)
    rng = np.random.default_rng(seed + 1)
    for lw in model.layers:
        for g in (lw.attn_q, lw.attn_k, lw.attn_v, lw.attn_o, lw.ff_in, lw.ff_out):
            g.A.data = rng.normal(0, 0.3, g.A.data.shape).astype(g.A.data.dtype)
            g.B.data = rng.normal(0, 0.3, g.B.data.shape).astype(g.B.data.dtype)
    return model


def test_ntp_rows_reproduce_plain_causal_forward():
    with precision("float64"):
        for seed in range(20):
            model = _random_model_with_adapters(seed)
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 12))
            seq = rng.integers(0, model.config.first_mask_id, size=n)
            flags = rng.integers(0, 2, size=n)
            flags[0] = 1
            batch = build_training_batch(seq, flags, model.config.mask_ids)
            got = run_batch(model, batch).logits.data[batch.ntp_rows]
            ref = run_batch(model, causal_rows(seq)).logits.data
            assert np.max(np.abs(got - ref)) < 1e-6


@pytest.mark.parametrize("kind", ["training", "linear", "quadratic"])
def test_regular_rows_of_every_layout_match_a_causal_pass(kind):
    # The regular stream is a causal pass over the regular tokens, but the
    # row-wise products run over all T rows, so equal to tolerance, not bytes.
    with precision("float64"):
        for seed in range(10):
            model = _random_model_with_adapters(seed + 30)
            rng = np.random.default_rng(seed)
            k = model.config.k_masks
            real = rng.integers(0, model.config.first_mask_id, size=int(rng.integers(2, 14))).tolist()
            batch = {
                "training": lambda: build_training_batch(real, np.ones(len(real), dtype=int), model.config.mask_ids),
                "linear": lambda: build_linear_inference_input(real[:-2], real[-2:], model.config.mask_ids),
                "quadratic": lambda: build_quadratic_inference_input(real[: len(real) - k], real[-k:], model.config.mask_ids)
                if len(real) > k else build_quadratic_inference_input(real, real[:k], model.config.mask_ids),
            }[kind]()
            rows = batch.ntp_rows
            got = run_batch(model, batch).logits.data[rows]
            ref = run_batch(model, causal_rows(batch.tokens[rows])).logits.data
            assert np.max(np.abs(got - ref)) < 1e-6


def test_mask_blocks_reproduce_standalone_prompts():
    with precision("float64"):
        for seed in range(6):
            model = _random_model_with_adapters(seed + 50)
            rng = np.random.default_rng(seed)
            n = int(rng.integers(3, 9))
            seq = rng.integers(0, model.config.first_mask_id, size=n)
            batch = build_training_batch(seq, np.ones(n, dtype=int), model.config.mask_ids)
            out = run_batch(model, batch)
            for i in range(1, n):  # block after x_i exists for i < n
                arow = np.flatnonzero((batch.gate == 0))[i - 1]
                rows = batch.block_rows(arow)
                solo = build_linear_inference_input(seq[:i], [], model.config.mask_ids)
                solo_out = run_batch(model, solo)
                got = out.logits.data[rows]
                ref = solo_out.logits.data[i:]
                assert np.max(np.abs(got - ref)) < 1e-6


def test_deleting_a_block_leaves_other_rows_unchanged():
    with precision("float64"):
        model = _random_model_with_adapters(123)
        seq = np.array([1, 2, 3, 4, 5])
        batch = build_training_batch(seq, np.ones(5, dtype=int), model.config.mask_ids)
        full = run_batch(model, batch).logits.data
        # Drop the block anchored at the second token.
        arow = np.flatnonzero(batch.gate == 0)[1]
        drop = batch.block_rows(arow)
        keep = np.setdiff1d(np.arange(batch.size), drop)
        smaller = _layout(seq, np.delete(np.arange(4), 1), model.config.mask_ids)
        for field in ("tokens", "position_ids", "gate", "block_anchor"):
            assert np.array_equal(getattr(smaller, field), getattr(batch, field)[keep]), field
        got = run_batch(model, smaller).logits.data
        assert np.max(np.abs(got - full[keep])) < 1e-6


# ---------------------------------------------------------------------------
# Training stacks: one layout per corpus, a leading sequence axis on tokens,
# labels and previous tokens.
# ---------------------------------------------------------------------------

SHARED_FIELDS = ("position_ids", "gate", "block_anchor", "lcm_pairs")


def _assert_stack_is_its_sequences(stack, corpus, mask_ids):
    assert stack.tokens.shape == stack.base_labels.shape == stack.prev_token.shape == (len(corpus), stack.size)
    for b, (seq, flags) in enumerate(corpus):
        alone = build_training_batch(seq, flags, mask_ids)
        one = stack.select(b)
        _check_visibility(one, len(mask_ids))
        _check_training_rows(one, list(seq), list(flags), list(mask_ids))
        for name in ("tokens", "base_labels", "prev_token") + SHARED_FIELDS:
            assert np.array_equal(getattr(one, name), getattr(alone, name)), (b, name)
        assert one.streams[:2] + one.streams[3:] == alone.streams[:2] + alone.streams[3:]
        assert np.array_equal(one.streams.allowed, alone.streams.allowed)
        assert np.array_equal(one.labeled_rows, np.flatnonzero(alone.base_labels != IGNORE_ID))


def test_training_stack_is_every_sequence_batch():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        flags = rng.integers(0, 2, size=n)
        corpus = [(rng.integers(0, 5, size=n), flags) for _ in range(int(rng.integers(1, 5)))]
        stack = build_training_stack(corpus, MASKS2)
        _assert_stack_is_its_sequences(stack, corpus, MASKS2)
        picks = rng.integers(0, len(corpus), size=3)
        assert np.array_equal(stack.select(picks).tokens, stack.tokens[picks])
        # A stack's sequences share its streams; its regular rows are causal.
        assert stack.select(picks).streams is stack.streams
        regular = stack.regular_layout().streams
        assert (regular.n_reg, regular.block) == (n, 0) and np.array_equal(regular.allowed, np.tri(n, dtype=bool))


@pytest.mark.parametrize(
    "corpus, message",
    [
        ([([0, 1, 2], [1, 1, 1]), ([0, 1], [1, 1])], "sequence 1 has 2 tokens and sequence 0 has 3"),
        (
            [([0, 1, 2], [1, 1, 1]), ([2, 1, 0], [1, 1, 1]), ([0, 1, 2], [1, 0, 1])],
            "sequence 2 has other loss flags than sequence 0",
        ),
        ([], "empty corpus"),
    ],
)
def test_training_stack_rejects_sequences_of_another_layout(corpus, message):
    with pytest.raises(ValueError, match=message):
        build_training_stack(corpus, MASKS2)


@pytest.mark.parametrize("task", ["pattern", "arithmetic", "file"])
def test_every_corpus_task_has_one_training_layout(task, tmp_path):
    from specmtp.training import CorpusSpec, generate_corpus

    doc = tmp_path / "doc.txt"
    doc.write_text("the quick brown fox jumps over the lazy dog. " * 4)
    spec = {
        "pattern": CorpusSpec(task="pattern", size=24, seed=5, seq_len=13, period=5),
        "arithmetic": CorpusSpec(task="arithmetic", size=24, seed=5, digits=2),
        "file": CorpusSpec(task="file", size=24, seed=5, seq_len=11, path=str(doc)),
    }[task]
    corpus = generate_corpus(spec)
    mask_ids = np.array([len(spec.charset()) + 3, len(spec.charset()) + 4])
    layouts = set()
    for seq, flags in corpus:
        batch = build_training_batch(seq, flags, mask_ids)
        layouts.add((batch.position_ids.tobytes(), batch.gate.tobytes(), tuple(batch.lcm_pairs)))
    assert len(layouts) == 1
    _assert_stack_is_its_sequences(build_training_stack(corpus, mask_ids), corpus, mask_ids)

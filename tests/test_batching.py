import numpy as np
import pytest
from conftest import run_batch

from specmtp.batching import (
    NO_ANCHOR,
    NO_TOKEN,
    build_linear_inference_input,
    build_quadratic_inference_input,
    build_training_batch,
    build_training_stack,
    causal_rows,
    _layout,
)
from specmtp.model import ModelConfig, forward, init_model
from specmtp.tensor import IGNORE_ID, precision

MASKS2 = np.array([5, 6])


def allowed_set(batch, row):
    return set(np.flatnonzero(batch.attention_allowed[row]).tolist())


def test_training_batch_frozen_example():
    # seq [a, b, c] = [0, 1, 2], all loss flags on, two masks.
    batch = build_training_batch([0, 1, 2], [1, 1, 1], MASKS2)
    assert batch.tokens.tolist() == [0, 5, 6, 1, 5, 6, 2]
    assert batch.position_ids.tolist() == [0, 1, 2, 1, 2, 3, 2]
    assert batch.base_labels.tolist() == [1, 2, IGNORE_ID, 2, IGNORE_ID, IGNORE_ID, IGNORE_ID]
    assert batch.gate.tolist() == [0, 1, 1, 0, 1, 1, 0]
    assert batch.block_anchor.tolist() == [NO_ANCHOR, 0, 0, NO_ANCHOR, 3, 3, NO_ANCHOR]
    assert batch.prev_token.tolist() == [0, 1, 2, 1, 2, -1, 2]
    assert batch.lcm_pairs == [(1, 3)]
    assert allowed_set(batch, 0) == {0}
    assert allowed_set(batch, 1) == {0, 1}
    assert allowed_set(batch, 2) == {0, 1, 2}
    assert allowed_set(batch, 3) == {0, 3}
    assert allowed_set(batch, 4) == {0, 3, 4}
    assert allowed_set(batch, 5) == {0, 3, 4, 5}
    assert allowed_set(batch, 6) == {0, 3, 6}


def test_training_batch_no_flags_is_plain_causal():
    batch = build_training_batch([3, 1, 4, 1], [0, 0, 0, 0], MASKS2)
    plain = causal_rows([3, 1, 4, 1])
    assert batch.tokens.tolist() == plain.tokens.tolist()
    assert np.array_equal(batch.attention_allowed, plain.attention_allowed)
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
    assert np.array_equal(batch.attention_allowed, tri)


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
    assert batch.tokens.tolist() == [1, 2, 5, 3, 5]
    # Pre-block mask and chain block never see each other.
    assert allowed_set(batch, 2) == {0, 1, 2}
    assert allowed_set(batch, 3) == {0, 1, 3}
    assert allowed_set(batch, 4) == {0, 1, 3, 4}


def test_quadratic_layout_k3_frozen_attention():
    verified = [1, 2, 3, 4]
    batch = build_quadratic_inference_input(verified, [7, 8, 9], np.array([10, 11, 12]))
    assert batch.size == 4 + 3 + 3 + 9
    # The first block (rows 4-6) extends the last verified row; s_1 (row 7)
    # never sees it.
    assert allowed_set(batch, 6) == {0, 1, 2, 3, 4, 5, 6}
    assert allowed_set(batch, 7) == {0, 1, 2, 3, 7}
    # Block 2's m_1 (row 12): all verified rows, s_1 (row 7), s_2 (row 11), itself.
    assert batch.tokens[11:13].tolist() == [8, 10]
    assert allowed_set(batch, 12) == {0, 1, 2, 3, 7, 11, 12}
    # Positions: s_j continues the count; block masks continue their anchor.
    assert batch.position_ids.tolist() == [
        0, 1, 2, 3, 4, 5, 6, 4, 5, 6, 7, 5, 6, 7, 8, 6, 7, 8, 9
    ]


def test_quadratic_attention_is_lower_triangular_and_block_isolated():
    rng = np.random.default_rng(1)
    batch = build_quadratic_inference_input(
        rng.integers(0, 5, size=6).tolist(), [1, 2, 3], np.array([10, 11, 12])
    )
    assert not np.triu(batch.attention_allowed, 1).any()
    assert batch.attention_allowed.diagonal().all()
    mask_rows = batch.mtp_rows
    for r in mask_rows:
        others = [m for m in mask_rows if batch.block_anchor[m] != batch.block_anchor[r]]
        assert not batch.attention_allowed[r, others].any()
    assert batch.size == 6 + 3 + 9 + 3


def test_quadratic_rejects_wrong_speculation_length():
    with pytest.raises(ValueError):
        build_quadratic_inference_input([1], [2], np.array([5, 6]))


def _check_visibility(batch):
    """Walk the rows and check the visibility rule with plain sets."""
    regular_seen: list[int] = []
    anchor, block = None, []
    for r in range(batch.size):
        seen = allowed_set(batch, r)
        assert max(seen) == r  # sees itself, never a later row
        if batch.gate[r] == 0:
            assert seen == set(regular_seen) | {r}
            assert batch.position_ids[r] == len(regular_seen)
            assert batch.block_anchor[r] == NO_ANCHOR
            regular_seen.append(r)
            anchor, block = r, []
        else:
            block.append(r)
            assert seen == set(regular_seen) | set(block)
            assert batch.block_anchor[r] == anchor
            assert batch.position_ids[r] == batch.position_ids[anchor] + len(block)


def _check_training_rows(batch, seq, flags, mask_block):
    """Walk one sequence's training rows and check tokens, labels, previous
    tokens and lcm_pairs against the rule of `build_training_stack`."""
    n, k = len(seq), len(mask_block)
    expect_tokens, rows = [], {}  # rows[(i, j)]: row of m_j after x_i; j = 0 is x_i
    for i in range(1, n + 1):
        rows[(i, 0)] = len(expect_tokens)
        expect_tokens.append(seq[i - 1])
        if flags[i - 1] == 1 and i < n:
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
        (r, rows[(i + j, 0)]) for (i, j), r in sorted(rows.items())
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
        _check_visibility(batch)
        _check_training_rows(batch, seq, flags, mask_block)

        corpus = [(rng.integers(0, 30, size=n).tolist(), flags) for _ in range(int(rng.integers(1, 5)))]
        stack = build_training_stack(corpus, masks)
        assert stack.tokens.shape == stack.base_labels.shape == stack.prev_token.shape == (len(corpus), stack.size)
        for b, (seq_b, _) in enumerate(corpus):
            one = stack.select(b)
            _check_visibility(one)
            _check_training_rows(one, seq_b, flags, mask_block)

        verified = rng.integers(0, 30, size=int(rng.integers(1, 10))).tolist()
        spec = rng.integers(0, 30, size=int(rng.integers(0, k + 1))).tolist()
        linear = build_linear_inference_input(verified, spec, masks)
        assert linear.tokens.tolist() == verified + spec + mask_block
        spec = rng.integers(0, 30, size=k).tolist()
        quadratic = build_quadratic_inference_input(verified, spec, masks)
        chain = [tok for s in spec for tok in [s] + mask_block]
        assert quadratic.tokens.tolist() == verified + mask_block + chain
        causal = causal_rows(verified + spec)
        assert not causal.gate.any()
        for batch in (linear, quadratic, causal):
            _check_visibility(batch)
            assert np.all(batch.base_labels == IGNORE_ID)
            assert np.all(batch.prev_token == NO_TOKEN)
            assert batch.lcm_pairs == []


def test_layout_allowed_is_the_lower_triangle_of_the_visibility_rule():
    rng = np.random.default_rng(17)
    for t_len in list(range(1, 6)) + [int(n) for n in rng.integers(6, 80, size=40)]:
        gate = (rng.random(t_len) < 0.6).astype(np.int8)
        gate[0] = 0
        regular = gate == 0
        block = np.cumsum(regular)
        want = np.tril(regular[None, :] | (block[:, None] == block[None, :]))
        got = _layout(np.zeros(t_len), gate).attention_allowed
        assert got.dtype == want.dtype == bool
        assert np.array_equal(got, want)


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
        sub = batch.attention_allowed[np.ix_(keep, keep)]
        got = forward(
            model, batch.tokens[keep], batch.position_ids[keep], sub, batch.gate[keep]
        ).logits.data
        assert np.max(np.abs(got - full[keep])) < 1e-6


# ---------------------------------------------------------------------------
# Training stacks: one layout per corpus, a leading sequence axis on tokens,
# labels and previous tokens.
# ---------------------------------------------------------------------------

SHARED_FIELDS = ("position_ids", "gate", "attention_allowed", "block_anchor", "lcm_pairs")


def _assert_stack_is_its_sequences(stack, corpus, mask_ids):
    assert stack.tokens.shape == stack.base_labels.shape == stack.prev_token.shape == (len(corpus), stack.size)
    for b, (seq, flags) in enumerate(corpus):
        alone = build_training_batch(seq, flags, mask_ids)
        one = stack.select(b)
        _check_visibility(one)
        _check_training_rows(one, list(seq), list(flags), list(mask_ids))
        for name in ("tokens", "base_labels", "prev_token") + SHARED_FIELDS:
            assert np.array_equal(getattr(one, name), getattr(alone, name)), (b, name)
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
    corpus = generate_corpus(spec, 2)
    mask_ids = np.array([len(spec.charset()) + 3, len(spec.charset()) + 4])
    layouts = set()
    for seq, flags in corpus:
        batch = build_training_batch(seq, flags, mask_ids)
        layouts.add((batch.position_ids.tobytes(), batch.gate.tobytes(), tuple(batch.lcm_pairs)))
    assert len(layouts) == 1
    _assert_stack_is_its_sequences(build_training_stack(corpus, mask_ids), corpus, mask_ids)

import numpy as np
import pytest
from chains import one_position_logits, serial_sampler_chain

from specmtp import tensor as tz
from specmtp.model import ModelConfig, init_model
from specmtp.sampler import init_sampler, sampler_chain, sampler_features, sampler_logits
from specmtp.tensor import ArrayOps, Tape, Tensor, cross_entropy, finite_diff_check, precision
from specmtp.sampler import sampler_logits_rows

D = 16
CFG = ModelConfig(vocab_size=14, d_model=D, n_layers=1, n_heads=2, d_ff=32, k_masks=2)


def setup():
    model = init_model(CFG, 0)
    head = init_sampler(D, 1)
    return model, head


def test_logits_shape_and_softmax():
    model, head = setup()
    zs = np.random.default_rng(0).normal(size=(3, D)).astype(np.float32)
    logits = sampler_logits(head, model.unembed, model.embedding_table(), 3, zs)
    assert isinstance(logits, np.ndarray) and logits.shape == (1 + 2 * CFG.vocab_size, CFG.vocab_size)
    p = np.exp(logits - logits.max(axis=-1, keepdims=True))
    assert np.abs(p.sum(axis=-1) / p.sum(axis=-1) - 1.0).max() < 1e-6


def test_prev_token_changes_logits():
    model, head = setup()
    z = np.random.default_rng(1).normal(size=(1, D)).astype(np.float32)
    a = sampler_logits(head, model.unembed, model.embedding_table(), 0, z)
    b = sampler_logits(head, model.unembed, model.embedding_table(), 7, z)
    assert np.max(np.abs(a - b)) > 0.0


def test_gradient_of_sampler_ce():
    with precision("float64"):
        model, head = setup()
        rng = np.random.default_rng(2)
        z_rows = Tensor(rng.normal(size=(3, D)))
        prev = np.array([1, 4, 2])
        labels = np.array([5, 0, 3])

        def f():
            logits = sampler_logits_rows(head, model.unembed, model.embedding_table(), prev, z_rows)
            return cross_entropy(logits, labels)

        params = [t for _, t in head.trainable_params()]
        assert finite_diff_check(f, params) < 1e-4


def test_chain_single_step_equals_argmax():
    model, head = setup()
    z = np.random.default_rng(3).normal(size=(1, D)).astype(np.float32)
    got = sampler_chain(head, model.unembed, model.embedding_table(), 2, z)
    expect = int(np.argmax(sampler_logits(head, model.unembed, model.embedding_table(), 2, z)))
    assert got == [expect]


def test_chain_matches_independent_sequential_evaluation():
    # Duplicate-evaluation oracle: raw numpy re-implementation of the head.
    model, head = setup()
    rng = np.random.default_rng(4)
    zs = rng.normal(size=(4, D)).astype(np.float32)
    got = sampler_chain(head, model.unembed, model.embedding_table(), 1, zs)

    def ln(x, g, b, eps=1e-5):
        mu, var = x.mean(), x.var()
        return (x - mu) / np.sqrt(var + eps) * g + b

    def silu(x):
        return x / (1.0 + np.exp(-x))

    emb = np.concatenate([model.embed_base.data, model.embed_mask.data], axis=0)
    prev, expect = 1, []
    for z in zs:
        x = np.concatenate([emb[prev], z])
        h = ln(silu(head.l1.data @ x), head.ln1_gain.data, head.ln1_bias.data)
        h = ln(silu(head.l2.data @ h), head.ln2_gain.data, head.ln2_bias.data)
        prev = int(np.argmax(model.unembed.data @ h))
        expect.append(prev)
    assert got == expect


def test_chain_purity_resume_mid_chain():
    model, head = setup()
    rng = np.random.default_rng(5)
    zs = rng.normal(size=(3, D)).astype(np.float32)
    full = sampler_chain(head, model.unembed, model.embedding_table(), 6, zs)
    suffix = sampler_chain(head, model.unembed, model.embedding_table(), full[0], zs[1:])
    assert full[1:] == suffix


def test_features_width_matches_model_dim():
    _, head = setup()
    x = Tensor(np.zeros((2, 2 * D)))
    assert sampler_features(head, x, tz).data.shape == (2, D)
    assert sampler_features(head, x.data, ArrayOps).shape == (2, D)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_untaped_chain_equals_taped_argmax_chain(dtype):
    # With no tape the chain runs on plain hidden rows; the taped batched
    # head is the oracle, logits byte for byte and picks exactly.
    with precision(dtype):
        model, head = setup()
        emb = model.embedding_table()
        rng = np.random.default_rng(6)
        for _ in range(20):
            zs = rng.normal(size=(4, D)).astype(dtype)
            seed_token = int(rng.integers(0, CFG.vocab_size))
            got = sampler_chain(head, model.unembed, emb, seed_token, zs)
            prev, expect = seed_token, []
            for z in zs:
                with Tape():
                    taped = sampler_logits_rows(head, model.unembed, emb, [prev], Tensor(z[None]))
                untaped = sampler_logits(head, model.unembed, emb, prev, z[None])
                assert untaped.dtype == taped.data.dtype
                assert untaped.tobytes() == taped.data.tobytes()
                prev = int(np.argmax(taped.data[0]))
                expect.append(prev)
            assert got == expect


def random_head(dtype, seed):
    """The setup head with random norm gains and biases, so its logits are
    not all near zero."""
    model, head = setup()
    rng = np.random.default_rng(seed)
    for t in (head.ln1_gain, head.ln1_bias, head.ln2_gain, head.ln2_bias):
        t.data = rng.normal(0.0, 2.0, t.data.shape).astype(dtype)
    return model, head


def draw_zs(rng, k, dtype):
    """k hidden rows about as large as the embedding rows, so the previous
    token moves the picks at about half of the positions."""
    return rng.normal(0.0, 0.05, size=(k, D)).astype(dtype)


def taped_rows(head, model, prev_ids, z_rows):
    with Tape():
        return sampler_logits_rows(head, model.unembed, model.embedding_table(), prev_ids, Tensor(z_rows)).data


def chain_pairs(seed_token, zs, vocab):
    """The (previous token, hidden row) pairs of a chain's table, in order:
    the seed with the first row, then every token with each other row."""
    prev_ids = np.concatenate([[seed_token], np.tile(np.arange(vocab), len(zs) - 1)])
    return prev_ids, np.concatenate([zs[:1], np.repeat(zs[1:], vocab, axis=0)])


def chain_table(head, model, seed_token, zs):
    """The logits `sampler_chain` reads its picks from."""
    return sampler_logits(head, model.unembed, model.embedding_table(), seed_token, zs)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_table_is_bytewise_the_taped_rows(dtype):
    # The chain's table, the seed's row at the first position, then every
    # previous token at each later one, is one z-major batch of pairs:
    # taped sampler_logits_rows over the same rows is its byte oracle.
    with precision(dtype):
        model, head = random_head(dtype, 7)
        V = CFG.vocab_size
        rng = np.random.default_rng(8)
        for _ in range(20):
            k = int(rng.integers(1, 5))
            zs = draw_zs(rng, k, dtype)
            seed_token = int(rng.integers(0, V))
            got = chain_table(head, model, seed_token, zs)
            want = taped_rows(head, model, *chain_pairs(seed_token, zs, V))
            assert got.shape == (1 + (k - 1) * V, V)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_chain_picks_are_lookups_in_the_taped_table(dtype):
    with precision(dtype):
        model, head = random_head(dtype, 9)
        emb, V = model.embedding_table(), CFG.vocab_size
        rng = np.random.default_rng(10)
        varied = 0
        for _ in range(30):
            k = int(rng.integers(1, 5))
            zs = draw_zs(rng, k, dtype)
            prev = int(rng.integers(0, V))
            table = taped_rows(head, model, *chain_pairs(prev, zs, V)).argmax(axis=-1)
            picks = table[1:].reshape(k - 1, V)
            varied += sum(len(set(row)) > 1 for row in picks)
            got = sampler_chain(head, model.unembed, emb, prev, zs)
            expect = [int(table[0])]
            for j in range(k - 1):
                expect.append(int(picks[j, expect[-1]]))
            assert got == expect
        # The lookups matter: at these positions the pick depends on the
        # previous token.
        assert varied > 10


# A table row and the same pair's one-row pass may differ in their last
# bits (BLAS sums a (k * V)-row product in another order than a 1-row one).
# Within ROUNDING_ULPS * eps * max|logit| of each other per row, their
# argmax can differ only where the top two logits lie within twice that.
ROUNDING_ULPS = 32


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_chain_equals_the_serial_chain_away_from_near_ties(dtype):
    # The serial chain, one one-row pass per position, is the oracle for
    # the picks: equal up to the first position whose top-two margin is
    # within the rounding gap. No case of these 300 falls under the gap.
    with precision(dtype):
        eps = np.finfo(dtype).eps
        model, head = random_head(dtype, 11)
        emb, V = model.embedding_table(), CFG.vocab_size
        rng = np.random.default_rng(12)
        near_ties = 0
        for _ in range(300):
            k = int(rng.integers(1, 5))
            zs = draw_zs(rng, k, dtype)
            seed_token = int(rng.integers(0, V))
            table = chain_table(head, model, seed_token, zs)
            serial, rows = serial_sampler_chain(head, model.unembed, emb, seed_token, zs)
            got = sampler_chain(head, model.unembed, emb, seed_token, zs)
            prev = seed_token
            for j, one in enumerate(rows):
                bound = ROUNDING_ULPS * eps * np.abs(one).max()
                assert np.abs(table[0 if j == 0 else 1 + (j - 1) * V + prev] - one).max() <= bound
                runner_up, top = np.sort(one)[-2:]
                if top - runner_up <= 2 * bound:
                    near_ties += 1
                    break
                assert got[j] == serial[j]
                prev = serial[j]
        assert near_ties == 0, f"{near_ties} of 300 chains meet a near-tie"


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_one_position_table_keeps_the_one_row_bytes(dtype):
    # The table of one hidden row is the seed's one pair, run as the
    # one-row pass.
    with precision(dtype):
        model, head = random_head(dtype, 13)
        emb = model.embedding_table()
        rng = np.random.default_rng(14)
        for _ in range(40):
            z = draw_zs(rng, 1, dtype)
            prev = int(rng.integers(0, CFG.vocab_size))
            got = sampler_logits(head, model.unembed, emb, prev, z)
            want = one_position_logits(head, model.unembed, emb, prev, z[0]).data
            assert got.shape == (1, CFG.vocab_size)
            assert got.dtype == want.dtype
            assert got[0].tobytes() == want.tobytes()


def test_chain_rejects_a_seed_token_outside_the_vocabulary():
    model, head = setup()
    zs = np.zeros((2, D), dtype=np.float32)
    for seed_token in (-1, CFG.vocab_size):
        with pytest.raises(ValueError, match=f"seed_token {seed_token} outside the vocabulary"):
            sampler_chain(head, model.unembed, model.embedding_table(), seed_token, zs)

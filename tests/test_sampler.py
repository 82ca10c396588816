import numpy as np
import pytest

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
    z = Tensor(np.random.default_rng(0).normal(size=D))
    logits = sampler_logits(head, model.unembed, model.embedding_table(), 3, z)
    assert logits.data.shape == (CFG.vocab_size,)
    p = np.exp(logits.data - logits.data.max())
    assert abs(p.sum() / p.sum() - 1.0) < 1e-6


def test_prev_token_changes_logits():
    model, head = setup()
    z = Tensor(np.random.default_rng(1).normal(size=D))
    a = sampler_logits(head, model.unembed, model.embedding_table(), 0, z).data
    b = sampler_logits(head, model.unembed, model.embedding_table(), 7, z).data
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
    z = Tensor(np.random.default_rng(3).normal(size=D))
    got = sampler_chain(head, model.unembed, model.embedding_table(), 2, [z])
    expect = int(np.argmax(sampler_logits(head, model.unembed, model.embedding_table(), 2, z).data))
    assert got == [expect]


def test_chain_matches_independent_sequential_evaluation():
    # Duplicate-evaluation oracle: raw numpy re-implementation of the head.
    model, head = setup()
    rng = np.random.default_rng(4)
    zs = [Tensor(rng.normal(size=D).astype(np.float32)) for _ in range(4)]
    got = sampler_chain(head, model.unembed, model.embedding_table(), 1, zs)

    def ln(x, g, b, eps=1e-5):
        mu, var = x.mean(), x.var()
        return (x - mu) / np.sqrt(var + eps) * g + b

    def silu(x):
        return x / (1.0 + np.exp(-x))

    emb = np.concatenate([model.embed_base.data, model.embed_mask.data], axis=0)
    prev, expect = 1, []
    for z in zs:
        x = np.concatenate([emb[prev], z.data])
        h = ln(silu(head.l1.data @ x), head.ln1_gain.data, head.ln1_bias.data)
        h = ln(silu(head.l2.data @ h), head.ln2_gain.data, head.ln2_bias.data)
        prev = int(np.argmax(model.unembed.data @ h))
        expect.append(prev)
    assert got == expect


def test_chain_purity_resume_mid_chain():
    model, head = setup()
    rng = np.random.default_rng(5)
    zs = [Tensor(rng.normal(size=D).astype(np.float32)) for _ in range(3)]
    full = sampler_chain(head, model.unembed, model.embedding_table(), 6, zs)
    suffix = sampler_chain(head, model.unembed, model.embedding_table(), full[0], zs[1:])
    assert full[1:] == suffix


def test_features_width_matches_model_dim():
    _, head = setup()
    x = Tensor(np.zeros((2, 2 * D)))
    assert sampler_features(head, x, tz).data.shape == (2, D)
    assert sampler_features(head, x.data, ArrayOps).shape == (2, D)


def test_prev_token_outside_vocabulary_is_rejected():
    model, head = setup()
    z = np.zeros(D, dtype=np.float32)
    for prev in (-1, CFG.vocab_size):
        with pytest.raises(ValueError, match="outside the vocabulary"):
            sampler_logits(head, model.unembed, model.embedding_table(), prev, z)


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
                untaped = sampler_logits(head, model.unembed, emb, prev, z)
                assert untaped.data.dtype == taped.data.dtype
                assert untaped.data.tobytes() == taped.data[0].tobytes()
                prev = int(np.argmax(taped.data[0]))
                expect.append(prev)
            assert got == expect

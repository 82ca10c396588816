import numpy as np
import pytest
from chains import lcm_chain
from conftest import run_batch

from specmtp.batching import build_training_batch
from specmtp.losses import base_and_sampler_ce, lcm_loss, ntp_only_ce, total_loss
from specmtp.model import ModelConfig, init_model
from specmtp.sampler import init_sampler
from specmtp.tensor import IGNORE_ID, Tape, Tensor, backward, dot_const, precision

CFG = ModelConfig(vocab_size=12, d_model=16, n_layers=1, n_heads=2, d_ff=32, k_masks=2, lora_rank=4)


def setup(seed=0):
    model = init_model(CFG, seed)
    head = init_sampler(CFG.d_model, seed + 1)
    rng = np.random.default_rng(seed)
    for lw in model.layers:
        for g in (lw.attn_q, lw.attn_k, lw.attn_v, lw.attn_o, lw.ff_in, lw.ff_out):
            g.B.data = rng.normal(0, 0.2, g.B.data.shape).astype(g.B.data.dtype)
    return model, head


def test_all_ignored_labels_give_zero_losses():
    model, head = setup()
    batch = build_training_batch([1, 2, 3], [0, 0, 0], CFG.mask_ids)
    params = [t for _, t in head.trainable_params()]
    for p in params:
        p.grad = np.zeros_like(p.data)
    with Tape() as tape:
        out = run_batch(model, batch)
        base, samp = base_and_sampler_ce(
            batch, out.hidden, out.logits, head, model.unembed, model.embedding_table()
        )
    assert base.item() == 0.0 and samp.item() == 0.0
    assert all(np.all(p.grad == 0.0) for p in params)


def test_uniform_logits_base_ce_is_log_v():
    batch = build_training_batch([1, 2, 3], [1, 1, 1], np.array([10, 11]))
    logits = Tensor(np.zeros((batch.size, 4)))
    labels = batch.base_labels.copy()
    labels[labels >= 4] = 3
    from specmtp.tensor import cross_entropy

    assert abs(cross_entropy(logits, labels).item() - np.log(4.0)) < 1e-6


def test_losses_match_independent_row_loop():
    with precision("float64"):
        model, head = setup(3)
        rng = np.random.default_rng(3)
        seq = rng.integers(0, CFG.first_mask_id, size=7)
        flags = np.array([1, 0, 1, 1, 1, 0, 1])
        batch = build_training_batch(seq, flags, CFG.mask_ids)
        out = run_batch(model, batch)
        base, samp = base_and_sampler_ce(
            batch, out.hidden, out.logits, head, model.unembed, model.embedding_table()
        )

        # Independent per-row loop over plain numpy arrays.
        def row_ce(logit_row, label):
            m = logit_row.max()
            return float(m + np.log(np.exp(logit_row - m).sum()) - logit_row[label])

        emb = np.concatenate([model.embed_base.data, model.embed_mask.data], axis=0)

        def ln(x, g, b, eps=1e-5):
            return (x - x.mean()) / np.sqrt(x.var() + eps) * g + b

        base_vals, samp_vals = [], []
        for r in range(batch.size):
            label = batch.base_labels[r]
            if label == IGNORE_ID:
                continue
            base_vals.append(row_ce(out.logits.data[r], label))

            def silu(v):
                return v / (1.0 + np.exp(-v))

            x = np.concatenate([emb[batch.prev_token[r]], out.hidden.data[r]])
            h = ln(silu(head.l1.data @ x), head.ln1_gain.data, head.ln1_bias.data)
            h = ln(silu(head.l2.data @ h), head.ln2_gain.data, head.ln2_bias.data)
            samp_vals.append(row_ce(model.unembed.data @ h, label))

        assert abs(base.item() - np.mean(base_vals)) < 1e-8
        assert abs(samp.item() - np.mean(samp_vals)) < 1e-8


def test_sampler_ce_on_the_base_rows_rejects_a_mask_id_previous_token():
    # Training looks the previous tokens up in the frozen base rows, which
    # hold every gold token and no mask id.
    model, head = setup()
    batch = build_training_batch([1, 2, 3, 4], [1, 1, 1, 0], CFG.mask_ids)
    out = run_batch(model, batch)
    args = (out.hidden, out.logits, head, model.unembed)
    on_base = base_and_sampler_ce(batch, *args, model.embed_base)[1]
    assert on_base.data.tobytes() == base_and_sampler_ce(batch, *args, model.embedding_table())[1].data.tobytes()
    batch.prev_token[batch.labeled_rows[1]] = CFG.mask_ids[0]
    with pytest.raises(ValueError, match=f"previous token {CFG.mask_ids[0]} is past the embedding table: a mask id"):
        base_and_sampler_ce(batch, *args, model.embed_base)


def test_lcm_zero_when_mask_hiddens_equal_anchors():
    hidden = Tensor(np.tile(np.arange(4.0), (6, 1)))
    assert lcm_loss(hidden, [(1, 3), (2, 3), (4, 5)]).item() == 0.0


def test_lcm_hand_value():
    hidden = Tensor(np.array([[0.0, 0.0], [1.0, 0.0]]))
    # One pair, anchor [1, 0] vs mask [0, 0], mean over d=2 of squares: 0.5.
    assert abs(lcm_loss(hidden, [(0, 1)]).item() - 0.5) < 1e-12


def test_lcm_anchor_rows_get_exactly_zero_gradient():
    hidden = Tensor(np.random.default_rng(1).normal(size=(5, 3)), requires_grad=True)
    with Tape() as tape:
        loss = lcm_loss(hidden, [(0, 2), (1, 2), (3, 4)])
    backward(tape, loss)
    assert np.all(hidden.grad[2] == 0.0)
    assert np.all(hidden.grad[4] == 0.0)
    assert np.any(hidden.grad[0] != 0.0)


def test_lcm_mask_side_gradient_matches_finite_differences():
    with precision("float64"):
        # Finite differences see the anchor dependence that detachment
        # deliberately drops, so only probe mask-row coordinates.
        hidden = Tensor(np.random.default_rng(2).normal(size=(4, 3)), requires_grad=True)
        with Tape() as tape:
            loss = lcm_loss(hidden, [(0, 2), (1, 2)])
        hidden.grad = None
        backward(tape, loss)
        an = hidden.grad.copy()
        for r in (0, 1):
            for j in range(3):
                eps = 1e-6
                orig = hidden.data[r, j]
                hidden.data[r, j] = orig + eps
                up = lcm_loss(hidden, [(0, 2), (1, 2)]).item()
                hidden.data[r, j] = orig - eps
                dn = lcm_loss(hidden, [(0, 2), (1, 2)]).item()
                hidden.data[r, j] = orig
                fd = (up - dn) / (2 * eps)
                assert abs(fd - an[r, j]) < 1e-6


def test_lcm_anchor_averaging_skips_empty_anchors():
    hidden = Tensor(np.array([[0.0], [2.0], [0.0], [5.0]]))
    # Anchor 1 has two pairs (gaps 4 and 4 -> mean 4... values: (0-2)^2=4,
    # (0-2)^2=4), anchor 3 one pair (0-5)^2=25; mean over anchors = (4+25)/2.
    val = lcm_loss(hidden, [(0, 1), (2, 1), (0, 3)]).item()
    assert abs(val - (4.0 + 25.0) / 2.0) < 1e-6


def _lcm_value_and_grad(loss_fn, data, pairs):
    hidden = Tensor(data.copy(), requires_grad=True)
    with Tape() as tape:
        loss = loss_fn(hidden, pairs)
        # A stack's per-sequence losses meet in one scalar with unequal weights.
        scalar = loss if loss.data.ndim == 0 else dot_const(loss, np.arange(1.0, loss.data.shape[0] + 1))
    backward(tape, scalar)
    return loss.data, hidden.grad


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_lcm_loss_is_bytewise_its_chain(dtype):
    rng = np.random.default_rng(31)
    cases = [
        ((5, 3), [(0, 2), (1, 2), (3, 2)]),
        ((5, 3), [(4, 1)]),
        ((5, 3), []),
        ((3, 5, 3), [(0, 4), (2, 4)]),
        ((2, 5, 3), []),
        # 5 anchors, one with 7 pairs: 1 / (5 * 7) is not 1 / 5 / 7 in float64.
        ((16, 4), [(8 + i, 0) for i in range(7)] + [(12 + i, 1 + i) for i in range(4)]),
    ]
    for _ in range(100):
        t_len = int(rng.integers(2, 40))
        n_pairs = int(rng.integers(1, 20))
        # Anchors from the first few rows or from all of them, so that some
        # repeat and the anchor counts vary.
        anchors = rng.integers(0, int(rng.integers(1, t_len + 1)), size=n_pairs)
        pairs = list(zip(rng.integers(0, t_len, size=n_pairs).tolist(), anchors.tolist()))
        lead = () if rng.random() < 0.5 else (int(rng.integers(1, 4)),)
        cases.append((lead + (t_len, int(rng.integers(1, 9))), pairs))
    with precision(dtype):
        for shape, pairs in cases:
            data = rng.normal(size=shape).astype(dtype)
            got, got_grad = _lcm_value_and_grad(lcm_loss, data, pairs)
            want, want_grad = _lcm_value_and_grad(lcm_chain, data, pairs)
            assert got.dtype == want.dtype == np.dtype(dtype)
            assert got.shape == want.shape == shape[:-2]
            assert got.tobytes() == want.tobytes(), (shape, pairs)
            if pairs:
                assert got_grad.tobytes() == want_grad.tobytes(), (shape, pairs)
            else:
                assert got_grad is None and want_grad is None


def test_total_loss_weights():
    b = Tensor(np.asarray(2.0))
    s = Tensor(np.asarray(3.0))
    l = Tensor(np.asarray(0.5))
    assert total_loss(b, s, l, (1, 0, 0)).item() == 2.0
    assert total_loss(Tensor(np.asarray(0.0)), Tensor(np.asarray(0.0)), Tensor(np.asarray(0.0))).item() == 0.0
    assert abs(total_loss(b, s, l).item() - 5.5) < 1e-12


def test_ntp_only_ce_ignores_mask_rows():
    model, head = setup(9)
    batch = build_training_batch([1, 2, 3, 4], [1, 1, 1, 1], CFG.mask_ids)
    out = run_batch(model, batch)
    val = ntp_only_ce(batch, out.logits)
    rows = [r for r in batch.ntp_rows if batch.base_labels[r] != IGNORE_ID]
    expect = []
    for r in rows:
        lr = out.logits.data[r]
        m = lr.max()
        expect.append(m + np.log(np.exp(lr - m).sum()) - lr[batch.base_labels[r]])
    assert abs(val.item() - np.mean(expect)) < 1e-6


def test_ntp_ce_has_exactly_zero_adapter_gradient():
    # The quality metric cannot move under gating: no gradient path from
    # regular rows to the adapters, by backward and by finite differences.
    with precision("float64"):
        model, _ = setup(11)
        rng = np.random.default_rng(11)
        for lw in model.layers:
            for g in (lw.attn_q, lw.attn_k, lw.attn_v, lw.attn_o, lw.ff_in, lw.ff_out):
                g.A.data = rng.normal(0, 0.3, g.A.data.shape)
        seq = rng.integers(0, CFG.first_mask_id, size=6)
        batch = build_training_batch(seq, np.ones(6, dtype=int), CFG.mask_ids)
        with Tape() as tape:
            out = run_batch(model, batch)
            loss = ntp_only_ce(batch, out.logits)
        backward(tape, loss)
        adapters = [t for n, t in model.trainable_params() if n.endswith((".A", ".B"))]
        assert all(t.grad is None or np.all(t.grad == 0.0) for t in adapters)

        probe = adapters[0]
        eps = 1e-4
        orig = probe.data[0, 0]
        for sign in (1.0, -1.0):
            probe.data[0, 0] = orig + sign * eps
            out2 = run_batch(model, batch)
            assert ntp_only_ce(batch, out2.logits).item() == loss.item()
        probe.data[0, 0] = orig

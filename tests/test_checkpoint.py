import struct

import numpy as np
import pytest
from conftest import run_batch

from specmtp.batching import causal_rows
from specmtp.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from specmtp.cli import EXIT_IO, main
from specmtp.model import ModelConfig, init_model
from specmtp.sampler import init_sampler

CFG = ModelConfig(vocab_size=13, d_model=16, n_layers=1, n_heads=2, d_ff=32, k_masks=2, lora_rank=3)


def make_pair(seed=0):
    model = init_model(CFG, seed)
    rng = np.random.default_rng(seed)
    for lw in model.layers:
        for g in (lw.attn_q, lw.attn_k, lw.attn_v, lw.attn_o, lw.ff_in, lw.ff_out):
            g.B.data = rng.normal(0, 0.1, g.B.data.shape).astype(np.float32)
    return model, init_sampler(CFG.d_model, seed + 1)


def test_save_load_save_is_byte_identical(tmp_path):
    model, sampler = make_pair()
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(model, sampler, p1, extra_meta={"charset": "abc", "task": "pattern"})
    loaded, loaded_sampler, meta = load_checkpoint(p1)
    assert meta == {"charset": "abc", "task": "pattern"}
    save_checkpoint(loaded, loaded_sampler, p2, extra_meta=meta)
    assert p1.read_bytes() == p2.read_bytes()


def test_loaded_model_replays_probe_logits_exactly(tmp_path):
    model, sampler = make_pair(3)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, sampler, path)
    loaded, _, _ = load_checkpoint(path)
    batch = causal_rows([1, 2, 3, 4, 5])
    a = run_batch(model, batch)
    b = run_batch(loaded, batch)
    assert np.array_equal(a.logits.data, b.logits.data)


def test_corrupted_payload_byte_fails_checksum(tmp_path):
    model, sampler = make_pair()
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, sampler, path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_bad_magic_and_truncation(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
    model, sampler = make_pair()
    save_checkpoint(model, sampler, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 10])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_config_mismatch_reports_diff(tmp_path):
    model, sampler = make_pair()
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, sampler, path)
    other = ModelConfig(
        vocab_size=13, d_model=16, n_layers=2, n_heads=2, d_ff=32, k_masks=2, lora_rank=1
    )
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(path, expected_config=other)
    msg = str(err.value)
    assert "n_layers" in msg and "lora_rank" in msg


def test_sampler_absence_roundtrip(tmp_path):
    model, _ = make_pair()
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, None, path)
    _, sampler, _ = load_checkpoint(path)
    assert sampler is None


def test_trainability_flags_restored(tmp_path):
    model, sampler = make_pair()
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, sampler, path)
    loaded, loaded_sampler, _ = load_checkpoint(path)
    assert {n for n, _ in loaded.trainable_params()} == {n for n, _ in model.trainable_params()}
    assert len(loaded_sampler.trainable_params()) == 6


def test_legacy_switch_keys_load_only_when_on(tmp_path):
    # Files written before the unembedding-tying and mask-row-training
    # switches were removed still carry them in the header.
    model, sampler = make_pair()
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, sampler, path)
    blob = path.read_bytes()
    (count,) = struct.unpack_from("<I", blob, 8)  # header pairs follow the count
    legacy = tmp_path / "legacy.ckpt"
    for key in ("config.tie_unembedding", "config.train_mask_embeddings"):
        for value in ("1", "0"):
            pair = b"".join(struct.pack("<H", len(s)) + s.encode() for s in (key, value))
            legacy.write_bytes(blob[:8] + struct.pack("<I", count + 1) + pair + blob[12:])
            if value == "0":
                with pytest.raises(CheckpointError):
                    load_checkpoint(legacy)
                continue
            loaded, _, _ = load_checkpoint(legacy)
            for (name, a), (_, b) in zip(model.named_params(), loaded.named_params()):
                assert np.array_equal(a.data, b.data), name


@pytest.mark.parametrize("value", ["xx", "15"])
def test_corrupt_header_value_is_checkpoint_error(tmp_path, capsys, value):
    # The payload digest does not cover the header, so only the header
    # parse can catch a bad model size.
    model, sampler = make_pair()
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, sampler, path, extra_meta={"charset": "abcdefgh"})
    field = b"".join(struct.pack("<H", len(s)) + s.encode() for s in ("config.d_model", "16"))
    blob = path.read_bytes()
    assert blob.count(field) == 1
    path.write_bytes(blob.replace(field, field[:-2] + value.encode()))
    with pytest.raises(CheckpointError, match="d_model"):
        load_checkpoint(path)
    assert main(["decode", "--ckpt", str(path), "--prompt", "ab"]) == EXIT_IO
    assert "d_model" in capsys.readouterr().err


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_tensor_is_checkpoint_error(tmp_path, capsys, value):
    # Such a file has a valid digest; without the check, decode and verify
    # failed mid-pass with "non-finite values produced by linear".
    model, sampler = make_pair()
    model.layers[0].attn_q.W.data[1, 2] = value
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, sampler, path, extra_meta={"charset": "abcdefgh"})
    with pytest.raises(CheckpointError, match=r"layers\.0\.attn\.q\.W"):
        load_checkpoint(path)
    for argv in (["decode", "--prompt", "ab"], ["verify", "--suite", "random", "--prompts", "2"]):
        assert main(argv[:1] + ["--ckpt", str(path)] + argv[1:]) == EXIT_IO
        assert "layers.0.attn.q.W" in capsys.readouterr().err

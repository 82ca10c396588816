import struct

import numpy as np
import pytest
from conftest import run_batch

from specmtp.batching import causal_rows
import specmtp.model as model_mod
import specmtp.sampler as sampler_mod
import specmtp.tensor as tensor_mod
from specmtp.checkpoint import CheckpointError, _Reader, load_checkpoint, save_checkpoint
from specmtp.cli import EXIT_IO, main
from specmtp.model import ModelConfig, init_model
from specmtp.sampler import init_sampler
from specmtp.tensor import Tensor

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


def test_a_load_draws_nothing(tmp_path, monkeypatch):
    # The bundle is built from the file's arrays alone: with every
    # generator stream made to raise, a load still gives each saved tensor
    # bitwise, with the trainable flag that init gives it.
    model, sampler = make_pair(2)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, sampler, path)

    def no_draw(seed, name):
        raise AssertionError(f"a load drew {name}")

    for mod in (model_mod, sampler_mod, tensor_mod):
        monkeypatch.setattr(mod, "derive_rng", no_draw, raising=False)
    with pytest.raises(AssertionError):
        init_model(CFG, 0)
    with pytest.raises(AssertionError):
        init_sampler(CFG.d_model, 0)
    loaded, loaded_sampler, _ = load_checkpoint(path)
    monkeypatch.undo()
    saved = model.named_params() + sampler.named_params()
    got = loaded.named_params() + loaded_sampler.named_params()
    assert [n for n, _ in got] == [n for n, _ in saved]
    for (name, a), (_, b) in zip(saved, got):
        assert a.data.dtype == b.data.dtype and a.data.tobytes() == b.data.tobytes(), name
        assert a.requires_grad == b.requires_grad, name
    assert loaded.pos_table.tobytes() == model.pos_table.tobytes()


def _record_shape_at(blob: bytes, name: str) -> int:
    """Offset of the first dim of record `name` in a checkpoint's bytes."""
    field = struct.pack("<H", len(name)) + name.encode()
    assert blob.count(field) == 1
    return blob.index(field) + len(field) + 2  # after the dtype tag and rank


def test_a_record_whose_dims_pass_int64_is_a_checkpoint_error(tmp_path, capsys):
    # (2^32 - 1)^2 elements: an int64 product wraps to a negative length,
    # which read zero bytes and failed the reshape as a usage error.
    model, sampler = make_pair()
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, sampler, path, extra_meta={"charset": "abcdefgh"})
    blob = bytearray(path.read_bytes())
    at = _record_shape_at(bytes(blob), "embed.base")
    blob[at : at + 8] = struct.pack("<2I", 2**32 - 1, 2**32 - 1)
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)
    assert main(["decode", "--ckpt", str(path), "--prompt", "ab"]) == EXIT_IO
    assert "truncated" in capsys.readouterr().err


def test_a_string_that_is_not_utf8_is_a_checkpoint_error(tmp_path, capsys):
    # The digest does not cover the header; a decode error was a ValueError,
    # which the CLI reported as a usage error.
    model, sampler = make_pair()
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, sampler, path, extra_meta={"charset": "abcdefgh"})
    blob = bytearray(path.read_bytes())
    blob[blob.index(b"config.d_model")] = 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="UTF-8"):
        load_checkpoint(path)
    assert main(["decode", "--ckpt", str(path), "--prompt", "ab"]) == EXIT_IO
    assert "UTF-8" in capsys.readouterr().err


def test_a_negative_length_is_a_checkpoint_error():
    with pytest.raises(CheckpointError, match="negative"):
        _Reader(b"abcd").take(-1)


def test_a_tensor_saved_twice_is_a_checkpoint_error(tmp_path):
    # Its digest is valid; without the check the later record won.
    model, sampler = make_pair()
    params = model.named_params()
    model.named_params = lambda: params + [("embed.base", Tensor(model.embed_base.data + 1))]
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, sampler, path)
    with pytest.raises(CheckpointError, match=r"embed\.base twice"):
        load_checkpoint(path)

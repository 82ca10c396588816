"""Versioned binary checkpoint: header of key-value strings, named float32
tensor records, and a trailing 64-bit digest of the payload bytes."""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np

from .model import ModelBundle, ModelConfig, build_model, model_params
from .sampler import SamplerHead, build_sampler, sampler_params

MAGIC = b"SMTP"
FORMAT_VERSION = 1
DTYPE_F32 = 0

# Header keys config.<name>; every ModelConfig field is an int.
_CONFIG_FIELDS = tuple(f.name for f in fields(ModelConfig))
# Removed options whose one supported value was on. Files written before
# the removal still carry them, at "1".
_LEGACY_ON_KEYS = ("config.tie_unembedding", "config.train_mask_embeddings")


class CheckpointError(IOError):
    """Unreadable, corrupt, or incompatible checkpoint."""


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<H", len(raw)) + raw


def _digest(payloads: list[bytes]) -> int:
    h = hashlib.blake2b(digest_size=8)
    for p in payloads:
        h.update(p)
    return int.from_bytes(h.digest(), "little")


def save_checkpoint(
    model: ModelBundle,
    sampler: SamplerHead | None,
    path,
    extra_meta: dict[str, str] | None = None,
) -> None:
    """Serialize model (and sampler, when present) with meta key-values."""
    kv: dict[str, str] = {}
    for name in _CONFIG_FIELDS:
        kv[f"config.{name}"] = str(getattr(model.config, name))
    kv["sampler"] = "1" if sampler is not None else "0"
    for k, v in (extra_meta or {}).items():
        kv[f"meta.{k}"] = str(v)

    records = list(model.named_params())
    if sampler is not None:
        records += sampler.named_params()

    payloads: list[bytes] = []
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", FORMAT_VERSION)
    out += struct.pack("<I", len(kv))
    for k in sorted(kv):
        out += _pack_str(k)
        out += _pack_str(kv[k])
    out += struct.pack("<I", len(records))
    for name, tensor in records:
        arr = np.ascontiguousarray(tensor.data, dtype="<f4")
        payload = arr.tobytes()
        payloads.append(payload)
        out += _pack_str(name)
        out += struct.pack("<BB", DTYPE_F32, arr.ndim)
        out += struct.pack(f"<{arr.ndim}I", *arr.shape)
        out += payload
    out += struct.pack("<Q", _digest(payloads))
    Path(path).write_bytes(bytes(out))


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes:
        if n < 0:
            raise CheckpointError(f"negative record length {n}")
        if self.pos + n > len(self.blob):
            raise CheckpointError("truncated checkpoint")
        chunk = self.blob[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u(self, fmt: str) -> int:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))[0]

    def string(self) -> str:
        raw = self.take(self.u("<H"))
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"checkpoint string at byte {self.pos - len(raw)} is not UTF-8") from None


def _config_from_kv(kv: dict[str, str]) -> ModelConfig:
    for key in _LEGACY_ON_KEYS:
        if kv.get(key, "1") != "1":
            raise CheckpointError(f"{key} = {kv[key]} is no longer supported")
    args = {}
    for name in _CONFIG_FIELDS:
        key = f"config.{name}"
        if key not in kv:
            raise CheckpointError(f"checkpoint header missing {key}")
        try:
            args[name] = int(kv[key])
        except ValueError:
            raise CheckpointError(f"checkpoint header {key} = {kv[key]!r} is not an integer") from None
    # The payload digest does not cover the header, so a bad size here means
    # a corrupt file, not a usage error.
    try:
        return ModelConfig(**args)
    except ValueError as exc:
        raise CheckpointError(f"checkpoint header: {exc}") from exc


def load_checkpoint(path) -> tuple[ModelBundle, SamplerHead | None, dict[str, str]]:
    """Rebuild the bundle (and sampler, if saved). Returns stripped meta too.

    The payload digest is verified before any tensor is accepted; a name
    held twice, a missing or unexpected name, a shape other than the
    parameter table's, and a tensor holding NaN or +-inf are rejected by
    name. The bundle is then built from the file's arrays, with no draw.
    """
    r = _Reader(Path(path).read_bytes())
    if r.take(4) != MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    version = r.u("<I")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported format version {version}")
    kv = {}
    for _ in range(r.u("<I")):
        key = r.string()
        kv[key] = r.string()
    config = _config_from_kv(kv)

    loaded: dict[str, np.ndarray] = {}
    payloads: list[bytes] = []
    for _ in range(r.u("<I")):
        name = r.string()
        if name in loaded:
            raise CheckpointError(f"checkpoint holds tensor {name} twice")
        tag = r.u("<B")
        if tag != DTYPE_F32:
            raise CheckpointError(f"unknown dtype tag {tag} for {name}")
        rank = r.u("<B")
        shape = struct.unpack(f"<{rank}I", r.take(4 * rank))
        # Python ints: a product of stored dims can pass int64.
        payload = r.take(4 * math.prod(shape))
        payloads.append(payload)
        loaded[name] = np.frombuffer(payload, dtype="<f4").reshape(shape).copy()
    stored = r.u("<Q")
    if r.pos != len(r.blob):
        raise CheckpointError("trailing bytes after checksum")
    if stored != _digest(payloads):
        raise CheckpointError("payload checksum mismatch")

    has_sampler = kv.get("sampler") == "1"
    table = model_params(config) + (sampler_params(config.d_model) if has_sampler else ())
    for p in table:
        arr = loaded.get(p.name)
        if arr is None:
            raise CheckpointError(f"checkpoint is missing tensor {p.name}")
        if arr.shape != p.shape:
            raise CheckpointError(f"shape mismatch for {p.name}: {arr.shape} vs {p.shape}")
        # The digest only proves the bytes are the ones saved; the bundle
        # takes the arrays with no scan of its own.
        if not np.isfinite(arr).all():
            raise CheckpointError(f"tensor {p.name} holds NaN or infinite values")
    extra = loaded.keys() - {p.name for p in table}
    if extra:
        raise CheckpointError(f"unexpected tensors in checkpoint: {sorted(extra)}")
    model = build_model(config, loaded)
    sampler = build_sampler(config.d_model, loaded) if has_sampler else None
    meta = {k[len("meta.") :]: v for k, v in kv.items() if k.startswith("meta.")}
    return model, sampler, meta

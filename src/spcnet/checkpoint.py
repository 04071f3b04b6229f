"""Binary checkpoints: "SPCN" magic, versioned, little-endian throughout.

Layout: magic, u32 version, length-prefixed UTF-8 config block of key=value
lines, u32 tensor count, then per tensor a length-prefixed name, u32 rank,
u64 extents, and float32 values.  Parameters are stored in 32 bits (adequate
for inference at half the file size); optimizer moments ride along as
reserved "adam." tensors when present.  Every stored value is finite, and
no config key or tensor name appears twice: a save refuses a tensor that
float32 cannot hold finitely, or a meta entry that would not read back
(a key holding "=", a key or value holding a line break); a load refuses a
non-finite value or a repeated key or name.  A load fills the layout the
stored config registers as it reads each record.  A save writes a temporary
file next to the target and renames it over the target, so a failed save
leaves any earlier file intact.
"""
from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field, fields as dataclass_fields, replace
from pathlib import Path

import numpy as np

from .model import ModelConfig, init_params
from .optim import AdamState, ParamSet

MAGIC = b"SPCN"
VERSION = 1


class CheckpointError(ValueError):
    """Malformed or unsupported checkpoint file."""


@dataclass
class Checkpoint:
    config: ModelConfig
    params: ParamSet
    adam: AdamState | None = None
    meta: dict = field(default_factory=dict)


# -- config block -----------------------------------------------------------

def _encode_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def _decode_value(text: str, default, path, key: str):
    """Parse ``text`` as a value of the type of ``default`` (tuples hold
    ints); text that does not parse is an error naming the file and key."""
    try:
        if isinstance(default, tuple):
            return tuple(int(v) for v in text.split(",") if v)
        if isinstance(default, bool):
            return {"True": True, "False": False}[text]
        return type(default)(text)
    except (KeyError, ValueError):
        raise CheckpointError(
            f"{path}: config key {key!r}: cannot read {text!r} as "
            f"{type(default).__name__}"
        ) from None


def _config_block(ckpt: Checkpoint, path) -> bytes:
    lines = [f"{f.name}={_encode_value(getattr(ckpt.config, f.name))}"
             for f in dataclass_fields(ModelConfig)]
    lines.append(f"has_adam={ckpt.adam is not None}")
    if ckpt.adam is not None:
        lines.append(f"adam.t={ckpt.adam.t}")
    for key in sorted(ckpt.meta):
        lines.append(f"meta.{key}={ckpt.meta[key]}")
        # a load splits the block into lines and each line at its first "="
        if "=" in str(key) or "".join(lines[-1].splitlines()) != lines[-1]:
            raise CheckpointError(
                f"{path}: meta key {key!r}: a key may not hold '=', nor a key or value a line break"
            )
    return ("\n".join(lines) + "\n").encode("utf-8")


def _parse_config_block(blob: bytes, path) -> tuple[ModelConfig, dict, int | None]:
    """The stored config, meta entries and Adam step (None without Adam state)."""
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointError(
            f"{path}: config block is not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from None
    entries = {}
    for line in text.splitlines():
        if not line:
            continue
        key, _, value = line.partition("=")
        if key in entries:
            raise CheckpointError(f"{path}: config key {key!r} appears twice")
        entries[key] = value
    if "has_adam" not in entries:
        raise CheckpointError(f"{path}: config key 'has_adam' is missing")
    has_adam = _decode_value(entries["has_adam"], False, path, "has_adam")
    # every config field, the has_adam flag and, exactly when it is True, the
    # Adam step; nothing unknown
    required = [f.name for f in dataclass_fields(ModelConfig)] + ["has_adam"]
    if has_adam:
        required.append("adam.t")
    for key in entries:
        if key not in required and not key.startswith("meta."):
            raise CheckpointError(f"{path}: unknown config key {key!r}")
    for key in required:
        if key not in entries:
            raise CheckpointError(f"{path}: config key {key!r} is missing")
    values = {
        f.name: _decode_value(entries[f.name], f.default, path, f.name)
        for f in dataclass_fields(ModelConfig)
    }
    try:
        config = ModelConfig(**values)
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    meta = {k[5:]: v for k, v in entries.items() if k.startswith("meta.")}
    adam_t = _decode_value(entries["adam.t"], 0, path, "adam.t") if has_adam else None
    return config, meta, adam_t


# -- binary io ----------------------------------------------------------------

def _records(params: ParamSet, adam: AdamState | None) -> list[tuple[str, np.ndarray]]:
    """The stored (name, array) pairs in file order: the parameters, then
    Adam's first moments, then its second moments."""
    records = [(n, p.data) for n, p in params.items()]
    if adam is not None:
        records += [(f"adam.m.{n}", adam.m[n]) for n in params]
        records += [(f"adam.v.{n}", adam.v[n]) for n in params]
    return records


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    records = _records(ckpt.params, ckpt.adam)
    blob = _config_block(ckpt, path)
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            fh.write(struct.pack("<I", len(records)))
            for name, data in records:
                encoded = name.encode("utf-8")
                fh.write(struct.pack("<I", len(encoded)))
                fh.write(encoded)
                fh.write(struct.pack("<I", data.ndim))
                for extent in data.shape:
                    fh.write(struct.pack("<Q", extent))
                with np.errstate(over="ignore"):
                    values = np.ascontiguousarray(data, dtype="<f4")
                if not np.isfinite(values).all():
                    raise CheckpointError(
                        f"{path}: tensor {name!r} holds a value that is not finite in float32"
                    )
                fh.write(values.tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class _Reader:
    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.offset = 0
        self.path = path

    def take(self, count: int, what: str) -> bytes:
        if self.offset + count > len(self.blob):
            raise CheckpointError(
                f"{self.path}: truncated while reading {what} at offset {self.offset}"
            )
        out = self.blob[self.offset:self.offset + count]
        self.offset += count
        return out

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what: str) -> int:
        return struct.unpack("<Q", self.take(8, what))[0]


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint into the layout its config registers: each record
    fills, with its own shape, a slot not yet filled, until all are."""
    blob = Path(path).read_bytes()
    r = _Reader(blob, path)
    magic = r.take(4, "magic")
    if magic != MAGIC:
        raise CheckpointError(f"{path}: bad magic {magic!r} at offset 0")
    version = r.u32("version")
    if version != VERSION:
        raise CheckpointError(
            f"{path}: unsupported version {version} at offset 4"
        )
    config_len = r.u32("config length")
    config, meta, adam_t = _parse_config_block(r.take(config_len, "config block"), path)
    params = init_params(config, None)
    adam = None if adam_t is None else replace(AdamState.for_params(params), t=adam_t)
    layout = dict(_records(params, adam))
    unfilled = dict(layout)
    for _ in range(r.u32("tensor count")):
        name_len = r.u32("name length")
        at = r.offset
        try:
            name = r.take(name_len, "tensor name").decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"{path}: tensor name at offset {at} is not UTF-8 text") from None
        slot = unfilled.pop(name, None)
        if slot is None:
            raise CheckpointError(
                f"{path}: tensor {name!r} at offset {at} appears twice" if name in layout
                else f"{path}: unexpected tensor {name!r} at offset {at}"
            )
        shape = tuple(r.u64("extent") for _ in range(r.u32("rank")))
        # bytes before shape: extents whose product passes 2**64 read as truncated
        values = np.frombuffer(r.take(4 * math.prod(shape), f"values of {name}"), dtype="<f4")
        if shape != slot.shape:
            raise CheckpointError(f"{path}: tensor {name!r} is {shape}, not {slot.shape}")
        if not np.isfinite(values).all():
            raise CheckpointError(f"{path}: tensor {name!r} holds a non-finite value")
        np.copyto(slot, values.reshape(shape))
    if r.offset != len(blob):
        raise CheckpointError(
            f"{path}: {len(blob) - r.offset} trailing bytes at offset {r.offset}"
        )
    if unfilled:
        raise CheckpointError(f"{path}: missing tensor {next(iter(unfilled))!r}")
    return Checkpoint(config=config, params=params, adam=adam, meta=meta)

"""Binary checkpoint format.

Layout (version 2): 8-byte magic, u32 format version, u64 header length,
UTF-8 JSON header, raw little-endian float64 parameter blobs in manifest
order, then a 32-byte SHA-256 of every byte before it. The header carries
the run configuration, normalization statistics and a parameter manifest
(name, shape, byte offset/size). Manifest order is the order the caller
passes; for a model it is parameters() order (encoder patch projection, CLS
token, blocks, final norm, then decoder or head). Because the digest covers
header and blobs alike, truncation or bit rot anywhere fails loudly at load
time, before the header is parsed. A header that passes the digest is still
checked for structure (config and stats objects, a manifest of named,
non-negative shapes whose byte ranges fit the blobs) before any array is
read, so a malformed file is a CheckpointError naming it. Files are written
to a temporary sibling and renamed over the target, so an interrupted save
leaves the previous checkpoint intact.

A model checkpoint (save_model writes it, finetune.load_model rebuilds the
model) describes itself. Header `config` keys: kind ("pretrain": encoder +
decoder, or "finetuned": encoder + head), seed, mel (MelConfig fields),
model (ModelConfig fields), then pretrain (PretrainConfig fields) or
finetune (FinetuneConfig fields, pooling included) plus normalized (whether
the model's input was normalized). Header `stats` is {mean, std} of the
log-mel cells, null only for a fine-tuned model trained on raw input.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import asdict, dataclass, is_dataclass
from pathlib import Path

import numpy as np

from .errors import CheckpointError

MAGIC = b"CGHMAE\x00\x01"
FORMAT_VERSION = 2
DIGEST_BYTES = 32


@dataclass
class Checkpoint:
    config: dict
    stats: dict | None
    arrays: dict[str, np.ndarray]


def save_checkpoint(path, params: dict[str, np.ndarray], config: dict,
                    stats: dict | None) -> None:
    """Write parameters (name -> float64 array) with config and stats."""
    names = list(params.keys())
    if len(set(names)) != len(names):
        raise CheckpointError("duplicate parameter names")
    manifest = []
    blobs = []
    offset = 0
    for name in names:
        arr = np.ascontiguousarray(params[name], dtype="<f8")
        raw = arr.tobytes()
        manifest.append({"name": name, "shape": list(arr.shape),
                         "offset": offset, "nbytes": len(raw)})
        blobs.append(raw)
        offset += len(raw)
    header = {"version": FORMAT_VERSION, "config": config, "stats": stats, "params": manifest}
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    body = b"".join([MAGIC, struct.pack("<I", FORMAT_VERSION),
                     struct.pack("<Q", len(header_bytes)), header_bytes, *blobs])
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(body)
            fh.write(hashlib.sha256(body).digest())
            fh.flush()
            os.fsync(fh.fileno())   # the bytes reach the disk before the rename does
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_model(path, params, stats, kind: str, seed: int, mel_cfg, model_cfg,
               **sections) -> None:
    """Save Parameters under the model header; dataclass sections are stored as fields."""
    config = {"kind": kind, "seed": seed, "mel": asdict(mel_cfg), "model": asdict(model_cfg)}
    config.update({key: asdict(value) if is_dataclass(value) else value
                   for key, value in sections.items()})
    save_checkpoint(path, {p.name: p.data for p in params}, config,
                    None if stats is None else {"mean": stats.mean, "std": stats.std})


def load_checkpoint(path) -> Checkpoint:
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint not found: {path}")
    data = path.read_bytes()
    if len(data) < len(MAGIC) + 12 + DIGEST_BYTES or data[:len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    pos = len(MAGIC)
    (version,) = struct.unpack_from("<I", data, pos)
    pos += 4
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    end = len(data) - DIGEST_BYTES
    if hashlib.sha256(memoryview(data)[:end]).digest() != data[end:]:
        raise CheckpointError(f"{path}: checksum mismatch (truncated or corrupt)")
    (header_len,) = struct.unpack_from("<Q", data, pos)
    pos += 8
    if pos + header_len > end:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(data[pos:pos + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt header: {exc}") from None
    arrays = _read_arrays(header, data[pos + header_len:end], path)
    return Checkpoint(config=header["config"], stats=header["stats"], arrays=arrays)


def _read_arrays(header, blob: bytes, path) -> dict[str, np.ndarray]:
    """The header's parameters, read from the blobs after checking its structure:
    a valid digest can cover a malformed header."""
    def count(v) -> bool:
        return type(v) is int and v >= 0

    if not (isinstance(header, dict) and isinstance(header.get("config"), dict)
            and isinstance(header.get("stats", 0), (dict, type(None)))
            and isinstance(header.get("params"), list)):
        raise CheckpointError(f"{path}: malformed header: needs a config object, "
                              f"a stats object or null, and a params list")
    arrays: dict[str, np.ndarray] = {}
    for entry in header["params"]:
        name, shape, lo, nbytes = (entry.get(k) if isinstance(entry, dict) else None
                                   for k in ("name", "shape", "offset", "nbytes"))
        if not (isinstance(name, str) and isinstance(shape, list) and all(map(count, shape))
                and count(lo) and count(nbytes) and nbytes == 8 * math.prod(shape)):
            raise CheckpointError(f"{path}: malformed parameter entry {str(entry)[:120]}")
        if lo + nbytes > len(blob):
            raise CheckpointError(f"{path}: parameter {name} out of range")
        arr = np.frombuffer(blob[lo:lo + nbytes], dtype="<f8").reshape(shape)
        arrays[name] = arr.astype(np.float64)
    return arrays


def load_into(arrays: dict[str, np.ndarray], params) -> None:
    """Copy checkpoint arrays into a model's Parameters, matching by name."""
    by_name = {p.name: p for p in params}
    missing = sorted(set(by_name) - set(arrays))
    if missing:
        raise CheckpointError(f"checkpoint missing parameters: {missing[:5]}")
    for name, param in by_name.items():
        src = arrays[name]
        if src.shape != param.data.shape:
            raise CheckpointError(
                f"shape mismatch for {name}: checkpoint {src.shape} vs model {param.data.shape}")
        param.data[...] = src

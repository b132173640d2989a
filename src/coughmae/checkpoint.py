"""Binary checkpoint format.

Layout: 8-byte magic, u32 format version, u64 header length, UTF-8 JSON
header, then raw little-endian float64 parameter blobs in manifest order.
The header carries the run configuration, normalization statistics, a
parameter manifest (name, shape, byte offset/size) and a SHA-256 of the
blob section, so truncation or bit rot fails loudly at load time.

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
import struct
from dataclasses import asdict, dataclass, is_dataclass
from pathlib import Path

import numpy as np

from .errors import CheckpointError

MAGIC = b"CGHMAE\x00\x01"
FORMAT_VERSION = 1


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
    blob = b"".join(blobs)
    header = {
        "version": FORMAT_VERSION,
        "config": config,
        "stats": stats,
        "params": manifest,
        "blob_sha256": hashlib.sha256(blob).hexdigest(),
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(blob)


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
    if len(data) < len(MAGIC) + 12 or data[:len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    pos = len(MAGIC)
    (version,) = struct.unpack_from("<I", data, pos)
    pos += 4
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    (header_len,) = struct.unpack_from("<Q", data, pos)
    pos += 8
    if pos + header_len > len(data):
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(data[pos:pos + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt header: {exc}") from None
    pos += header_len
    blob = data[pos:]
    if hashlib.sha256(blob).hexdigest() != header.get("blob_sha256"):
        raise CheckpointError(f"{path}: checksum mismatch (truncated or corrupt)")
    arrays: dict[str, np.ndarray] = {}
    for entry in header["params"]:
        lo, hi = entry["offset"], entry["offset"] + entry["nbytes"]
        if hi > len(blob):
            raise CheckpointError(f"{path}: parameter {entry['name']} out of range")
        arr = np.frombuffer(blob[lo:hi], dtype="<f8").reshape(entry["shape"])
        arrays[entry["name"]] = arr.astype(np.float64)
    return Checkpoint(config=header["config"], stats=header["stats"], arrays=arrays)


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

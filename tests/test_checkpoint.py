"""Binary checkpoint roundtrips, corruption detection and atomic writes."""
import builtins
import hashlib
import json
import struct

import numpy as np
import pytest

from coughmae import checkpoint
from coughmae.checkpoint import (DIGEST_BYTES, FORMAT_VERSION, MAGIC, Checkpoint,
                                 load_checkpoint, load_into, save_checkpoint)
from coughmae.errors import CheckpointError
from coughmae.vit import EncoderParams, ModelConfig, embed, encode


def small_params():
    r = np.random.default_rng(0)
    return {
        "enc.w": r.normal(size=(4, 6)),
        "enc.b": r.normal(size=6),
        "head.w": r.normal(size=(6, 2)),
    }


def test_roundtrip_bit_exact(tmp_path):
    p = tmp_path / "c.bin"
    params = small_params()
    save_checkpoint(p, params, {"kind": "test", "seed": 3}, {"mean": 1.5, "std": 2.0})
    ckpt = load_checkpoint(p)
    assert ckpt.config == {"kind": "test", "seed": 3}
    assert ckpt.stats == {"mean": 1.5, "std": 2.0}
    assert set(ckpt.arrays) == set(params)
    for name, arr in params.items():
        assert np.array_equal(ckpt.arrays[name], arr)
        assert ckpt.arrays[name].dtype == np.float64


def test_save_is_byte_deterministic(tmp_path):
    params = small_params()
    save_checkpoint(tmp_path / "a.bin", params, {"seed": 1}, None)
    save_checkpoint(tmp_path / "b.bin", params, {"seed": 1}, None)
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


def test_truncated_file_fails_checksum(tmp_path):
    p = tmp_path / "c.bin"
    save_checkpoint(p, small_params(), {}, None)
    raw = p.read_bytes()
    p.write_bytes(raw[:-16])
    with pytest.raises(CheckpointError, match="checksum|range"):
        load_checkpoint(p)


def test_flipped_blob_byte_fails_checksum(tmp_path):
    p = tmp_path / "c.bin"
    save_checkpoint(p, small_params(), {}, None)
    raw = bytearray(p.read_bytes())
    raw[-1 - DIGEST_BYTES] ^= 0xFF        # last byte of the last parameter
    p.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="checksum"):
        load_checkpoint(p)


def test_flipped_header_byte_fails_checksum(tmp_path):
    p = tmp_path / "c.bin"
    save_checkpoint(p, small_params(), {"n_mels": 128}, None)
    raw = p.read_bytes()
    p.write_bytes(raw.replace(b'"n_mels": 128', b'"n_mels": 120'))
    with pytest.raises(CheckpointError, match="checksum"):
        load_checkpoint(p)


def test_old_format_version_rejected(tmp_path):
    p = tmp_path / "c.bin"
    p.write_bytes(MAGIC + struct.pack("<I", 1) + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="unsupported format version 1"):
        load_checkpoint(p)


def write_with_digest(path, header, blob: bytes) -> None:
    """A checkpoint file around any JSON header, with a correct digest."""
    raw = json.dumps(header).encode("utf-8")
    body = MAGIC + struct.pack("<I", FORMAT_VERSION) + struct.pack("<Q", len(raw)) + raw + blob
    path.write_bytes(body + hashlib.sha256(body).digest())


def _param(**entry) -> dict:
    return {"version": FORMAT_VERSION, "config": {}, "stats": None,
            "params": [{"name": "w", **entry}]}


# header, blob: each passes magic, version and digest checks
MALFORMED = {
    "no_params": ({"version": FORMAT_VERSION, "config": {}, "stats": None}, b""),
    "list_header": ([], b""),
    "size_not_shape": (_param(shape=[3], offset=0, nbytes=8), bytes(24)),
    "negative_offset": (_param(shape=[1], offset=-8, nbytes=8), bytes(16)),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_header_with_valid_digest_rejected(tmp_path, case):
    p = tmp_path / "c.bin"
    write_with_digest(p, *MALFORMED[case])
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(p)
    assert str(p) in str(info.value)


def test_valid_digest_wrapper_loads(tmp_path):
    # the malformed cases above differ from a loadable file only in their header
    p = tmp_path / "c.bin"
    write_with_digest(p, _param(shape=[1, 2], offset=8, nbytes=16), struct.pack("<3d", 0, 1, 2))
    assert np.array_equal(load_checkpoint(p).arrays["w"], [[1.0, 2.0]])


class _FailingWriter:
    """A file whose write stores half of its data, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        raise OSError("No space left on device")


def test_failed_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    p = tmp_path / "c.bin"
    save_checkpoint(p, small_params(), {"seed": 1}, None)
    before = p.read_bytes()
    monkeypatch.setattr(checkpoint, "open",
                        lambda path, mode: _FailingWriter(builtins.open(path, mode)),
                        raising=False)
    with pytest.raises(OSError, match="No space"):
        save_checkpoint(p, {"enc.w": np.ones((4, 6))}, {"seed": 2}, None)
    monkeypatch.undo()
    assert p.read_bytes() == before
    assert load_checkpoint(p).config == {"seed": 1}
    assert [f.name for f in tmp_path.iterdir()] == ["c.bin"]   # no temp file left


def test_wrong_magic_rejected(tmp_path):
    p = tmp_path / "c.bin"
    p.write_bytes(b"NOTACKPT" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="not a checkpoint"):
        load_checkpoint(p)


def test_missing_file(tmp_path):
    with pytest.raises(CheckpointError, match="not found"):
        load_checkpoint(tmp_path / "absent.bin")


def test_load_into_shape_mismatch(tmp_path):
    from coughmae.tensor import Parameter
    target = [Parameter(np.zeros((3, 3)), "enc.w")]
    with pytest.raises(CheckpointError, match="shape"):
        load_into({"enc.w": np.zeros((4, 6))}, target)


def test_load_into_missing_parameter():
    from coughmae.tensor import Parameter
    target = [Parameter(np.zeros(2), "enc.w"), Parameter(np.zeros(2), "enc.b")]
    with pytest.raises(CheckpointError, match="missing"):
        load_into({"enc.w": np.zeros(2)}, target)


def test_model_roundtrip_same_forward(tmp_path):
    # saving and reloading an encoder must not change its outputs at all
    cfg = ModelConfig(dim=16, n_heads=2, decoder_dim=16, decoder_heads=2,
                      patch_size=4, patch_stride=4)
    enc = EncoderParams(cfg, seed=9)
    arrays = {p.name: p.data for p in enc.parameters()}
    p = tmp_path / "m.bin"
    save_checkpoint(p, arrays, {"kind": "pretrain"}, {"mean": 0.0, "std": 1.0})

    x = np.random.default_rng(1).normal(size=(2, 24, 16))
    before = encode(embed(x, enc), enc).features.data.copy()

    enc2 = EncoderParams(cfg, seed=4)  # different init
    load_into(load_checkpoint(p).arrays, enc2.parameters())
    after = encode(embed(x, enc2), enc2).features.data
    assert np.array_equal(before, after)

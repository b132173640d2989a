"""Run-configuration parsing, validation, and canonical serialization."""
import pytest

from coughmae.config import (RunConfig, _coerce, config_to_dict, load_config,
                             parse_config, serialize_config)
from coughmae.errors import ConfigError


def test_defaults_parse_from_empty():
    cfg = parse_config({})
    assert cfg == RunConfig()
    assert cfg.mel.n_mels == 128
    assert cfg.model.dim == 64
    assert cfg.pretrain.mask_ratio == 0.75


def test_partial_override():
    cfg = parse_config({"seed": 9, "pretrain": {"mask_ratio": 0.5, "epochs": 200},
                        "finetune": {"pooling": "mean"}})
    assert cfg.seed == 9
    assert cfg.pretrain.mask_ratio == 0.5
    assert cfg.pretrain.epochs == 200
    assert cfg.pretrain.batch_size == 4   # untouched default
    assert cfg.finetune.pooling == "mean"


def test_unknown_key_rejected_with_path():
    with pytest.raises(ConfigError, match=r"config\.pretrain.*mask_rato"):
        parse_config({"pretrain": {"mask_rato": 0.5}})
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config({"banana": 1})


def test_wrong_type_rejected():
    with pytest.raises(ConfigError, match="seed"):
        parse_config({"seed": "zero"})
    with pytest.raises(ConfigError, match="epochs"):
        parse_config({"pretrain": {"epochs": 2.5}})


def test_section_validation_still_applies():
    with pytest.raises(ConfigError):
        parse_config({"pretrain": {"mask_ratio": 1.5}})
    with pytest.raises(ConfigError):
        parse_config({"finetune": {"pooling": "max"}})


def test_roundtrip_is_identity():
    cfg = parse_config({"seed": 4, "model": {"dim": 32, "n_heads": 2},
                        "segment": {"threshold": 0.7}})
    text = serialize_config(cfg)
    again = parse_config(config_to_dict(parse_config(config_to_dict(cfg))))
    assert again == cfg
    assert serialize_config(again) == text


def test_serialization_canonical():
    a = serialize_config(RunConfig())
    b = serialize_config(RunConfig())
    assert a == b
    assert a.endswith("\n") or "{" in a  # stable text form


def test_load_config_file(tmp_path):
    p = tmp_path / "run.json"
    p.write_text('{"seed": 11, "paths": {"output_dir": "results"}}')
    cfg = load_config(p)
    assert cfg.seed == 11
    assert cfg.paths.output_dir == "results"


def test_load_config_rejects_bad_json(tmp_path):
    p = tmp_path / "run.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(p)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.json")


def test_tuple_field_parsing():
    cfg = parse_config({"pretrain": {"betas": [0.9, 0.99]}})
    assert cfg.pretrain.betas == (0.9, 0.99)
    with pytest.raises(ConfigError):
        parse_config({"pretrain": {"betas": [0.9]}})


def test_unsupported_field_type_rejected():
    for field_type in (int | None, tuple[int, ...], list[int]):
        with pytest.raises(ConfigError):
            _coerce([1, 2], field_type, "config.x")

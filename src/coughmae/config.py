"""Run configuration: a strict JSON surface over the section dataclasses.

Unknown keys are rejected with their full path, defaults come from the
dataclasses themselves, and serialization is canonical (sorted keys, two
space indent) so parse -> serialize -> parse is the identity.
"""
from __future__ import annotations

import dataclasses
import json
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .dsp import MelConfig
from .errors import ConfigError
from .finetune import FinetuneConfig
from .mae import PretrainConfig
from .segment import SegmentationConfig
from .vit import ModelConfig


@dataclass(frozen=True)
class PathsConfig:
    manifest: str = ""
    checkpoint: str = ""
    output_dir: str = "out"


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    mel: MelConfig = field(default_factory=MelConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)
    finetune: FinetuneConfig = field(default_factory=FinetuneConfig)
    segment: SegmentationConfig = field(default_factory=SegmentationConfig)
    paths: PathsConfig = field(default_factory=PathsConfig)


def _coerce(value, target_type, where: str):
    if typing.get_origin(target_type) is tuple:   # fixed-length tuple[T1, T2, ...]
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where}: expected a list, got {type(value).__name__}")
        args = typing.get_args(target_type)
        if len(args) != len(value):
            raise ConfigError(f"{where}: expected {len(args)} items, got {len(value)}")
        return tuple(_coerce(v, t, f"{where}[{i}]") for i, (v, t) in enumerate(zip(value, args)))
    if dataclasses.is_dataclass(target_type):
        return _build_dataclass(target_type, value, where)
    if target_type is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where}: expected a number, got {value!r}")
        return float(value)
    if target_type is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{where}: expected an integer, got {value!r}")
        return value
    if target_type is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{where}: expected a boolean, got {value!r}")
        return value
    if target_type is str:
        if not isinstance(value, str):
            raise ConfigError(f"{where}: expected a string, got {value!r}")
        return value
    raise ConfigError(f"{where}: unsupported config field type {target_type}")


def _build_dataclass(cls, data, where: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected an object, got {type(data).__name__}")
    hints = typing.get_type_hints(cls)
    known = {f.name: hints[f.name] for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    kwargs = {name: _coerce(value, known[name], f"{where}.{name}")
              for name, value in data.items()}
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def parse_config(data: dict) -> RunConfig:
    return _build_dataclass(RunConfig, data, "config")


def serialize_config(cfg: RunConfig) -> str:
    return json.dumps(dataclasses.asdict(cfg), indent=2, sort_keys=True) + "\n"


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    return parse_config(data)

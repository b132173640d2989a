"""Benchmark inputs, built from the workload seed and cached per seed.

Everything is generated through coughmae's own public entry points
(`synth_dataset`, `load_wav`/`save_wav` and the CLI), so the fixtures are
whatever the checked-out program produces. They are built before any
timing starts and are excluded from every metric; the timed program only
receives the files.

Layout under the cache directory, one sub-directory per component:

    pretrain_data/   64 synthetic 1 s clips + manifest.csv (pretraining corpus)
    finetune_data/   64 labelled synthetic 1 s clips + manifest.csv
    init/            checkpoint.bin from a short pretraining run (finetune --init)
    model/           model.bin from a short fine-tuning run (segment --checkpoint)
    recording/       recording.wav (60 clips, 60 s) + truth.csv (clip-level events)

Each component is built in a temporary directory and renamed into place,
so an interrupted build never leaves a half-written component behind.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
from pathlib import Path

CORPUS_SIZE = 64
RECORDING_CLIPS = 60          # 1 s clips, so a 60 s recording
FIXTURE_PRETRAIN_EPOCHS = 2
FIXTURE_FINETUNE_EPOCHS = 2
FIXTURE_FINETUNE_FOLDS = 2

# What each workload needs, in build order.
NEEDS = {
    "pretrain": ("pretrain_data",),
    "finetune": ("pretrain_data", "finetune_data", "init"),
    "segment": ("pretrain_data", "finetune_data", "init", "model", "recording"),
}


def derive(seed: int, label: str) -> int:
    """Independent 32-bit sub-seed for one fixture component."""
    return int(hashlib.sha256(f"{seed}:{label}".encode()).hexdigest()[:8], 16)


def code_key(root: Path) -> str:
    """Hash of the program source and the benchmark code, naming the fixture cache."""
    h = hashlib.sha256()
    files = sorted((root / "src").rglob("*.py")) + sorted(Path(__file__).resolve().parent.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _run_cli(argv: list[str], log) -> None:
    from coughmae.cli import main
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(log):
        rc = main(argv)
    if rc != 0:
        raise RuntimeError(f"fixture command {argv[0]} exited {rc}")


def _write_json(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _build(component: str, out: Path, cache: Path, seed: int, log) -> None:
    from coughmae.dsp import Waveform, load_wav, save_wav, synth_dataset
    import numpy as np

    if component in ("pretrain_data", "finetune_data"):
        synth_dataset(out, CORPUS_SIZE, derive(seed, component))
    elif component == "init":
        cfg = _write_json(out / "pretrain.json", {
            "seed": derive(seed, "init"),
            "pretrain": {"epochs": FIXTURE_PRETRAIN_EPOCHS, "batch_size": 8},
            "paths": {"manifest": str(cache / "pretrain_data" / "manifest.csv"),
                      "output_dir": str(out)}})
        _run_cli(["pretrain", "--config", str(cfg)], log)
    elif component == "model":
        cfg = _write_json(out / "finetune.json", {
            "seed": derive(seed, "model"),
            "finetune": {"epochs": FIXTURE_FINETUNE_EPOCHS, "batch_size": 8,
                         "k_folds": FIXTURE_FINETUNE_FOLDS},
            "paths": {"manifest": str(cache / "finetune_data" / "manifest.csv"),
                      "output_dir": str(out)}})
        _run_cli(["finetune", "--config", str(cfg),
                  "--init", str(cache / "init" / "checkpoint.bin")], log)
    elif component == "recording":
        clips = synth_dataset(out / "clips", RECORDING_CLIPS, derive(seed, "recording"))
        order = np.random.default_rng(derive(seed, "recording.order")).permutation(len(clips))
        waves = [load_wav(clips.resolve(clips.entries[i])) for i in order]
        rate = waves[0].sample_rate
        save_wav(out / "recording.wav",
                 Waveform(samples=np.concatenate([w.samples for w in waves]), sample_rate=rate))
        # One truth event per maximal run of consecutive class-1 clips.
        lines = ["start_s,end_s"]
        t, run_start = 0.0, None
        for i, wave in zip(order, waves):
            positive = clips.entries[i].label == 1
            if positive and run_start is None:
                run_start = t
            if not positive and run_start is not None:
                lines.append(f"{run_start:.3f},{t:.3f}")
                run_start = None
            t += wave.duration
        if run_start is not None:
            lines.append(f"{run_start:.3f},{t:.3f}")
        (out / "truth.csv").write_text("\n".join(lines) + "\n")
        shutil.rmtree(out / "clips")
    else:
        raise ValueError(f"unknown fixture component {component!r}")


def ensure(root: Path, workload: str, seed: int, log) -> Path:
    """Build (or reuse) every fixture component the workload needs; return the cache dir."""
    cache = root / ".perfbench" / "cache" / code_key(root) / f"seed{seed}"
    cache.mkdir(parents=True, exist_ok=True)
    for component in NEEDS[workload]:
        final = cache / component
        if final.is_dir():
            continue
        tmp = cache / f".{component}.tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir()
        _build(component, tmp, cache, seed, log)
        try:
            os.rename(tmp, final)
        except OSError:
            if not final.is_dir():
                raise
            shutil.rmtree(tmp, ignore_errors=True)
    return cache

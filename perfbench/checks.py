"""Output checks for one repeat of each workload.

Each check function returns a list of failure messages; every message counts
as one failed operation. The checks read the artifacts the CLI wrote and use
coughmae's own readers, so a format change in the program shows up here.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import tempfile
from pathlib import Path

import numpy as np

# At the benchmark's short fine-tuning budget the classifier sits near
# chance: the 5-fold mean of best-epoch AUROC ranged 0.41-0.65 over the seeds
# tried, and the null spread of that mean is about 0.075 for 13-sample folds.
# The floor sits more than three null deviations below chance so a healthy
# run clears it on any seed; together with the constant-score check below it
# catches a classifier whose scores collapse or rank far worse than chance.
AUROC_FLOOR = 0.25

ARTIFACTS = {
    "pretrain": ("checkpoint.bin", "loss.csv"),
    "finetune": ("eval_report.json", "model.bin"),
    "segment": ("events.csv",),
}


def artifact_hashes(workload: str, out_dir: Path) -> dict[str, str]:
    hashes = {}
    for name in ARTIFACTS[workload]:
        path = out_dir / name
        hashes[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else "missing"
    return hashes


def check_pretrain(out_dir: Path, expected_steps: int) -> list[str]:
    from coughmae.checkpoint import load_checkpoint, save_checkpoint

    failures = []
    with open(out_dir / "loss.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != expected_steps:
        failures.append(f"loss.csv has {len(rows)} steps, expected {expected_steps}")
    losses = [float(r["loss"]) for r in rows]
    if not all(math.isfinite(v) for v in losses):
        failures.append("non-finite pretraining loss")
    epochs = sorted({int(r["epoch"]) for r in rows})
    if len(epochs) >= 2:
        first = np.mean([float(r["loss"]) for r in rows if int(r["epoch"]) == epochs[0]])
        last = np.mean([float(r["loss"]) for r in rows if int(r["epoch"]) == epochs[-1]])
        if not last < first:
            failures.append(f"last-epoch loss {last:.6f} not below first {first:.6f}")
    else:
        failures.append("fewer than two epochs in loss.csv")

    original = (out_dir / "checkpoint.bin").read_bytes()
    ckpt = load_checkpoint(out_dir / "checkpoint.bin")
    if not all(np.isfinite(a).all() for a in ckpt.arrays.values()):
        failures.append("non-finite parameter in checkpoint.bin")
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        copy = Path(tmp) / "roundtrip.bin"
        save_checkpoint(copy, ckpt.arrays, ckpt.config, ckpt.stats)
        if copy.read_bytes() != original:
            failures.append("checkpoint.bin does not round-trip through load/save")
    return failures


def final_loss(out_dir: Path) -> float:
    """Mean masked loss over the last pretraining epoch."""
    with open(out_dir / "loss.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    last = max(int(r["epoch"]) for r in rows)
    return float(np.mean([float(r["loss"]) for r in rows if int(r["epoch"]) == last]))


def check_finetune(out_dir: Path, k_folds: int) -> list[str]:
    from coughmae.checkpoint import load_checkpoint

    failures = []
    report = json.loads((out_dir / "eval_report.json").read_text())
    folds = report["fold_auroc"]
    if len(folds) != k_folds:
        failures.append(f"{len(folds)} fold AUROCs, expected {k_folds}")
    for i, a in enumerate(folds):
        if not (isinstance(a, (int, float)) and math.isfinite(a) and 0.0 <= a <= 1.0):
            failures.append(f"fold {i} AUROC {a!r} outside [0, 1]")
    if folds and not np.mean(folds) >= AUROC_FLOOR:
        failures.append(f"mean AUROC {np.mean(folds):.3f} below floor {AUROC_FLOOR}")
    if all(v == 0.5 for curve in report["curves"] for v in curve):
        failures.append("every validation AUROC is exactly 0.5: constant scores")
    model = load_checkpoint(out_dir / "model.bin")
    if model.config.get("kind") != "finetuned":
        failures.append(f"model.bin kind {model.config.get('kind')!r}, expected 'finetuned'")
    return failures


def final_epochs(out_dir: Path) -> int:
    """Epochs of the final-model retrain, as the CLI derives them from the report."""
    best = json.loads((out_dir / "eval_report.json").read_text())["best_epochs"]
    return max(1, int(round(float(np.mean([e + 1 for e in best])))))


def check_segment(out_dir: Path, stdout: str, duration: float) -> list[str]:
    from coughmae.segment import read_events_csv

    failures = []
    events = read_events_csv(out_dir / "events.csv")
    for prev, ev in zip(events, events[1:]):
        if not (prev.start < ev.start and prev.end <= ev.start):
            failures.append(f"events overlap or are unsorted at {prev.end:.3f}/{ev.start:.3f}")
    for ev in events:
        if ev.start < 0.0 or ev.end > duration + 1e-9:
            failures.append(f"event ({ev.start}, {ev.end}) outside [0, {duration}]")
    lines = stdout.strip().splitlines()
    try:
        scores = json.loads(lines[-1]) if lines else {}
        for key in ("event_f1", "sample_f1"):
            for part in ("precision", "recall", "f1"):
                v = scores[key][part]
                if not (math.isfinite(v) and 0.0 <= v <= 1.0):
                    failures.append(f"{key}.{part} = {v!r} outside [0, 1]")
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        failures.append(f"--truth F1 output does not parse: {exc!r}")
    return failures

"""Sliding-window cough segmentation and event scoring.

A scorer is any callable (wave, offsets, win) -> one positive-class
probability per window wave.samples[o:o + win]; per_window() builds one from
a Waveform -> probability callable. slide() runs it over fixed-length
windows advanced by a fixed step (both measured in whole samples, so
delaying audio by k steps shifts detections by exactly k steps), then merges
overlapping or touching positive windows into events.

Scoring offers two views: event-based F1 with greedy IoU matching, and
sample-based F1 over fixed-width time bins.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .dsp import Waveform
from .errors import DataError
from .workers import in_order, worker_count

_OVERLAP_TOL = 1e-12

# Windows per scorer call, at any worker count; it bounds the memory a long
# recording needs. Two workers of 32 peaked 13% higher than two of 16, and
# one worker of 32 had glibc trim and refault its heap after every chunk
# (about 233,000 minor faults per 60 s recording, against 3,100 at 16).
SCORE_CHUNK = 16

Scorer = Callable[[Waveform, np.ndarray, int], np.ndarray]


@dataclass(frozen=True)
class Event:
    """One detected interval, seconds."""

    start: float
    end: float

    def __post_init__(self):
        if not (math.isfinite(self.start) and math.isfinite(self.end)):
            raise DataError(f"non-finite event ({self.start}, {self.end})")
        if self.end <= self.start:
            raise DataError(f"event must have end > start, got ({self.start}, {self.end})")

    @property
    def length(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class SegmentationConfig:
    window: float = 0.4
    step: float = 0.01
    threshold: float = 0.5
    overlap_iou: float = 0.5
    sample_interval: float = 0.1

    def __post_init__(self):
        if self.window <= 0 or self.step <= 0 or self.sample_interval <= 0:
            raise DataError("window, step and sample_interval must be positive")
        if not 0.0 <= self.threshold <= 1.0 or not 0.0 < self.overlap_iou <= 1.0:
            raise DataError("threshold in [0,1] and overlap_iou in (0,1] required")


def merge_intervals(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Union of intervals: overlapping or touching spans collapse into one."""
    if not intervals:
        return []
    ordered = sorted(intervals)
    merged = [list(ordered[0])]
    for lo, hi in ordered[1:]:
        if lo <= merged[-1][1] + _OVERLAP_TOL:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged]


def per_window(fn: Callable[[Waveform], float]) -> Scorer:
    """Adapt a one-window scorer (Waveform -> probability) to slide()."""

    def scorer(wave: Waveform, offsets, win: int) -> np.ndarray:
        return np.array([float(fn(Waveform(samples=wave.samples[o:o + win],
                                           sample_rate=wave.sample_rate)))
                         for o in offsets])

    return scorer


def slide(wave: Waveform, scorer: Scorer, cfg: SegmentationConfig) -> list[Event]:
    """Score every full window and merge positive ones into events.

    Window offsets are whole multiples of the step in samples. Each scorer
    call gets consecutive ascending offsets, SCORE_CHUNK at most. The scorer
    runs in W = workers.worker_count() worker threads, never in the caller's
    thread, and with W > 1 its calls overlap, so it must be thread-safe and
    must not rely on the caller's per-thread state (such as tensor.no_grad).
    OpenBLAS is held to one thread while slide runs, and its count is
    restored when slide returns or raises. Every window is scored exactly
    once, and results are consumed in offset order, so a bad probability is
    reported at the earliest offset. Each event spans from the first
    positive window's start to the last positive window's end. Audio
    shorter than one window yields no events.
    """
    rate = wave.sample_rate
    win = int(round(cfg.window * rate))
    step = int(round(cfg.step * rate))
    if step <= 0 or win <= 0:
        raise DataError(f"window/step too small for rate {rate}")
    starts = range(0, len(wave.samples) - win + 1, step)
    chunks = (np.asarray(starts[lo:lo + SCORE_CHUNK], dtype=np.intp)
              for lo in range(0, len(starts), SCORE_CHUNK))
    positives: list[tuple[float, float]] = []
    with in_order(lambda offsets: scorer(wave, offsets, win), chunks,
                  worker_count()) as scored:
        for offsets, probs in scored:
            probs = np.asarray(probs, dtype=np.float64)
            if probs.shape != offsets.shape:
                raise DataError(f"scorer returned {probs.shape} probabilities "
                                f"for {len(offsets)} windows")
            bad = np.flatnonzero(~np.isfinite(probs))
            if bad.size:
                raise DataError(f"scorer returned non-finite probability at offset {offsets[bad[0]]}")
            for offset in offsets[probs >= cfg.threshold].tolist():
                positives.append((offset / rate, (offset + win) / rate))
    return [Event(start=lo, end=hi) for lo, hi in merge_intervals(positives)]


# - Scoring -


@dataclass(frozen=True)
class F1Scores:
    precision: float
    recall: float
    f1: float


def interval_iou(a: Event, b: Event) -> float:
    overlap = min(a.end, b.end) - max(a.start, b.start)
    if overlap <= 0:
        return 0.0
    union = max(a.end, b.end) - min(a.start, b.start)
    return overlap / union


def event_f1(predicted: list[Event], truth: list[Event],
             cfg: SegmentationConfig = SegmentationConfig()) -> F1Scores:
    """Greedy one-to-one event matching at IoU >= cfg.overlap_iou.

    Candidate pairs are taken in descending IoU order (ties broken by index),
    each event matching at most once. Both lists empty scores 1.0; exactly
    one empty scores 0.0.
    """
    if not predicted and not truth:
        return F1Scores(1.0, 1.0, 1.0)
    if not predicted or not truth:
        return F1Scores(0.0, 0.0, 0.0)
    pairs = []
    for i, p in enumerate(predicted):
        for j, t in enumerate(truth):
            iou = interval_iou(p, t)
            if iou >= cfg.overlap_iou:
                pairs.append((-iou, i, j))
    pairs.sort()
    used_pred: set[int] = set()
    used_truth: set[int] = set()
    tp = 0
    for _, i, j in pairs:
        if i in used_pred or j in used_truth:
            continue
        used_pred.add(i)
        used_truth.add(j)
        tp += 1
    precision = tp / len(predicted)
    recall = tp / len(truth)
    f1 = 0.0 if tp == 0 else 2 * precision * recall / (precision + recall)
    return F1Scores(precision, recall, f1)


def _positive_bins(events: list[Event], n_bins: int, dt: float) -> np.ndarray:
    flags = np.zeros(n_bins, dtype=bool)
    for ev in events:
        lo = max(0, int(math.floor(ev.start / dt)))
        hi = min(n_bins - 1, int(math.ceil(ev.end / dt)))
        for b in range(lo, hi + 1):
            overlap = min(ev.end, (b + 1) * dt) - max(ev.start, b * dt)
            if overlap > _OVERLAP_TOL:
                flags[b] = True
    return flags


def sample_f1(predicted: list[Event], truth: list[Event], duration: float,
              cfg: SegmentationConfig = SegmentationConfig()) -> F1Scores:
    """F1 over fixed sample_interval bins tiling [0, duration).

    A bin counts as positive when any event overlaps it with positive
    measure (merely touching a bin edge does not count).
    """
    if duration <= 0:
        raise DataError(f"duration must be positive, got {duration}")
    dt = cfg.sample_interval
    n_bins = max(1, int(math.ceil(duration / dt - 1e-9)))
    pred_bins = _positive_bins(predicted, n_bins, dt)
    truth_bins = _positive_bins(truth, n_bins, dt)
    tp = int(np.sum(pred_bins & truth_bins))
    fp = int(np.sum(pred_bins & ~truth_bins))
    fn = int(np.sum(~pred_bins & truth_bins))
    if tp + fp + fn == 0:
        return F1Scores(1.0, 1.0, 1.0)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return F1Scores(precision, recall, f1)


# - Events CSV -


def write_events_csv(path, events: list[Event]) -> None:
    """start_s,end_s rows with fixed 3-decimal formatting."""
    with open(path, "w", newline="") as fh:
        fh.write("start_s,end_s\n")
        for ev in events:
            fh.write(f"{ev.start:.3f},{ev.end:.3f}\n")


def read_events_csv(path) -> list[Event]:
    path = Path(path)
    if not path.exists():
        raise DataError(f"events file not found: {path}")
    events = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["start_s", "end_s"]:
            raise DataError(f"{path}:1: expected header start_s,end_s, got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise DataError(f"{path}:{lineno}: expected 2 columns, got {len(row)}")
            try:
                start, end = float(row[0]), float(row[1])
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-numeric event bounds {row!r}") from None
            try:
                events.append(Event(start=start, end=end))
            except DataError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
    return events

"""Sliding-window cough segmentation and event scoring.

A scorer is any callable (wave, offsets, win) -> one positive-class
probability per window wave.samples[o:o + win]. slide() runs it over
fixed-length windows advanced by a fixed step (both measured in whole
samples, so delaying audio by k steps shifts detections by exactly k
steps), then merges overlapping or touching positive windows into events.
It reads its input, a dsp.WavStream or a Waveform already in memory, in
blocks, so a recording's length does not set the memory segmentation needs.

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

from .dsp import Waveform, WavStream
from .errors import DataError
from .workers import in_order, worker_count

_OVERLAP_TOL = 1e-12

# Windows per scorer call, at any worker count; it bounds the memory a long
# recording needs. Two workers of 32 peaked 13% higher than two of 16, and
# one worker of 32 had glibc trim and refault its heap after every chunk
# (about 233,000 minor faults per 60 s recording, against 3,100 at 16).
SCORE_CHUNK = 16

# Window-start samples per block that slide() reads, rounded down to whole
# chunks and at least one chunk. At 16 kHz and the default 0.01 s step that
# is 8 chunks, and a block with its 0.4 s window is 1.7 s, 26,720 samples.
# Budgeting samples, not windows, keeps long steps from reading long blocks.
BLOCK_SAMPLES = 20_480

# glibc (mmap, trim) thresholds, bytes, that `coughmae segment` pins before
# scoring (workers.pin_malloc_thresholds). Each chunk's arrays, about 0.5 MB,
# then stay in the heap. A streamed run on a 60 s recording frees no large
# block that would lift glibc's own threshold above them, and took 199k-291k
# minor faults without the pin against about 9.6k with it (2-core box).
MALLOC_THRESHOLDS = (4 << 20, 8 << 20)

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


def _extend(merged: list[list[float]], lo: float, hi: float) -> None:
    """Add [lo, hi] to merged intervals none of which starts after lo."""
    if merged and lo <= merged[-1][1] + _OVERLAP_TOL:
        merged[-1][1] = max(merged[-1][1], hi)
    else:
        merged.append([lo, hi])


def slide(audio: Waveform | WavStream, scorer: Scorer, cfg: SegmentationConfig) -> list[Event]:
    """Score every full window and merge positive ones into events.

    Window offsets are whole multiples of the step in samples. Each scorer
    call gets consecutive ascending offsets, SCORE_CHUNK at most, and only
    the recording's last chunk may hold fewer. The audio is read in blocks
    of whole chunks whose window starts span at most BLOCK_SAMPLES samples
    (one chunk if a chunk spans more), plus the window - step samples the
    block's last window reaches past them. The scorer gets each block as a
    Waveform with offsets relative to the block's start: the same samples
    wherever a block starts, so the same probabilities. At most a few
    blocks are in memory at once.

    The scorer runs in W = workers.worker_count() worker threads, never in
    the caller's thread, and with W > 1 its calls overlap, so it must be
    thread-safe and must not rely on the caller's per-thread state (such as
    tensor.no_grad). OpenBLAS is held to one thread while slide runs, and
    its count is restored when slide returns or raises. Every window is
    scored exactly once, and results are consumed in offset order, so a bad
    probability is reported at the earliest offset, as an absolute sample
    offset. Positive windows are merged as they arrive, so slide holds the
    events, not the windows. Each event spans from the first positive
    window's start to the last positive window's end. Audio shorter than
    one window yields no events.
    """
    rate = audio.sample_rate
    win = int(round(cfg.window * rate))
    step = int(round(cfg.step * rate))
    if step <= 0 or win <= 0:
        raise DataError(f"window/step too small for rate {rate}")
    n_windows = max(0, (audio.n_samples - win) // step + 1)
    per_block = SCORE_CHUNK * max(1, BLOCK_SAMPLES // (SCORE_CHUNK * step))

    def chunks():
        """(block's first sample, block, block-relative offsets) per scorer call."""
        for w0 in range(0, n_windows, per_block):
            w1 = min(w0 + per_block, n_windows)
            base = w0 * step
            block = Waveform(audio.read(base, (w1 - 1) * step + win), rate)
            for c in range(w0, w1, SCORE_CHUNK):
                offsets = np.arange(c, min(c + SCORE_CHUNK, w1), dtype=np.intp) * step
                yield base, block, offsets - base

    merged: list[list[float]] = []
    with in_order(lambda item: scorer(item[1], item[2], win), chunks(),
                  worker_count()) as scored:
        for (base, _, offsets), probs in scored:
            probs = np.asarray(probs, dtype=np.float64)
            if probs.shape != offsets.shape:
                raise DataError(f"scorer returned {probs.shape} probabilities "
                                f"for {len(offsets)} windows")
            bad = np.flatnonzero(~np.isfinite(probs))
            if bad.size:
                raise DataError(f"scorer returned non-finite probability at offset "
                                f"{base + offsets[bad[0]]}")
            for offset in (base + offsets[probs >= cfg.threshold]).tolist():
                _extend(merged, offset / rate, (offset + win) / rate)
    return [Event(start=lo, end=hi) for lo, hi in merged]


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

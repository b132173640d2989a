"""Sliding-window event detection and F1 scoring."""
import time
import tracemalloc

import numpy as np
import pytest

from coughmae import finetune, workers
from coughmae.dsp import (DatasetStats, MelConfig, Waveform, WavStream, load_wav,
                          log_mel_spectrogram, normalize, stats_from_values, synth_dataset)
from coughmae.errors import DataError
from coughmae.finetune import (N_CLASSES, FinetuneConfig, Model, build_scorer,
                               finetune_arrays, score_samples)
from coughmae.mae import prepare_patches
from coughmae.segment import (BLOCK_SAMPLES, SCORE_CHUNK, Event, F1Scores, SegmentationConfig,
                              _extend, event_f1, interval_iou,
                              read_events_csv, sample_f1, slide, write_events_csv)
from coughmae.vit import EncoderParams, LinearParams, ModelConfig, patchify
from conftest import per_window
from test_dsp import float_stream, fmt_body, pcm_bytes, riff

CFG = SegmentationConfig()          # window 0.4, step 0.01, threshold 0.5


def merge_intervals(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Union of intervals: overlapping or touching spans collapse into one.
    The batch form of what slide does as windows arrive, as a reference."""
    merged: list[list[float]] = []
    for lo, hi in sorted(intervals):
        _extend(merged, lo, hi)
    return [(lo, hi) for lo, hi in merged]


def ramp_wave(n: int, rate: int = 100) -> Waveform:
    """Samples valued by index so a scorer can read its window offset."""
    return Waveform(samples=np.arange(n, dtype=np.float64), sample_rate=rate)


class LoggedReader:
    """A Waveform's reader surface that keeps every block slide() reads."""

    def __init__(self, wave: Waveform):
        self.wave, self.sample_rate, self.n_samples = wave, wave.sample_rate, wave.n_samples
        self.blocks: list[tuple[int, np.ndarray]] = []     # kept, so no two share an id

    def read(self, lo: int, hi: int) -> np.ndarray:
        block = self.wave.read(lo, hi)
        self.blocks.append((lo, block))
        return block

    def start_of(self, samples: np.ndarray) -> int:
        """The first sample of the block a scorer call was handed."""
        return next(lo for lo, block in self.blocks if block is samples)


def offset_scorer(positive_offsets_s, rate: int = 100):
    want = {int(round(o * rate)) for o in positive_offsets_s}

    def scorer(window: Waveform) -> float:
        return 1.0 if int(window.samples[0]) in want else 0.0

    return scorer


# - Event and config validation -


def test_event_validation():
    assert Event(0.0, 0.4).length == pytest.approx(0.4)
    with pytest.raises(DataError):
        Event(0.5, 0.5)
    with pytest.raises(DataError):
        Event(0.5, 0.2)
    with pytest.raises(DataError):
        Event(0.0, float("inf"))


def test_config_validation():
    with pytest.raises(DataError):
        SegmentationConfig(step=0.0)
    with pytest.raises(DataError):
        SegmentationConfig(threshold=1.5)
    with pytest.raises(DataError):
        SegmentationConfig(overlap_iou=0.0)


# - Interval helpers -


def test_merge_intervals():
    assert merge_intervals([]) == []
    assert merge_intervals([(0.0, 1.0)]) == [(0.0, 1.0)]
    assert merge_intervals([(0.0, 1.0), (0.5, 2.0)]) == [(0.0, 2.0)]
    assert merge_intervals([(0.0, 1.0), (1.0, 2.0)]) == [(0.0, 2.0)]   # touching
    assert merge_intervals([(3.0, 4.0), (0.0, 1.0)]) == [(0.0, 1.0), (3.0, 4.0)]
    assert merge_intervals([(0.0, 5.0), (1.0, 2.0)]) == [(0.0, 5.0)]   # nested


def test_interval_iou():
    assert interval_iou(Event(0.0, 1.0), Event(0.0, 1.0)) == 1.0
    assert interval_iou(Event(0.0, 1.0), Event(2.0, 3.0)) == 0.0
    assert interval_iou(Event(0.0, 1.0), Event(1.0, 2.0)) == 0.0       # touching
    assert interval_iou(Event(0.0, 0.4), Event(0.3, 0.7)) == pytest.approx(0.1 / 0.7)
    assert interval_iou(Event(0.0, 2.0), Event(1.0, 2.0)) == 0.5


# - slide -


def test_slide_no_positive_windows():
    wave = ramp_wave(100)
    assert slide(wave, per_window(lambda w: 0.0), CFG) == []


def test_slide_single_positive_window():
    # window 0.4 s at offset 0.10 s -> event spanning the window edges
    wave = ramp_wave(100)
    events = slide(wave, per_window(offset_scorer([0.10])), CFG)
    assert events == [Event(start=0.10, end=0.50)]


def test_slide_contiguous_windows_merge():
    # positives at offsets 0.10..0.20 -> one event from 0.10 to 0.20+0.4
    wave = ramp_wave(100)
    offsets = [round(0.10 + 0.01 * k, 2) for k in range(11)]
    events = slide(wave, per_window(offset_scorer(offsets)), CFG)
    assert events == [Event(start=0.10, end=0.60)]


def test_slide_separated_events():
    wave = ramp_wave(300)
    events = slide(wave, per_window(offset_scorer([0.10, 1.0, 1.01])), CFG)
    assert events == [Event(0.10, 0.50), Event(1.0, 1.41)]


def test_slide_short_audio_yields_nothing():
    wave = ramp_wave(30)   # 0.3 s < 0.4 s window
    assert slide(wave, per_window(lambda w: 1.0), CFG) == []


def test_slide_threshold_boundary():
    wave = ramp_wave(50)
    hits = slide(wave, per_window(lambda w: 0.5), CFG)      # prob == threshold counts
    assert len(hits) == 1
    assert slide(wave, per_window(lambda w: 0.4999), CFG) == []


def test_slide_rejects_non_finite_scorer():
    wave = ramp_wave(50)
    with pytest.raises(DataError):
        slide(wave, per_window(lambda w: float("nan")), CFG)


def test_slide_output_invariants(rng):
    for _ in range(10):
        n = int(rng.integers(50, 400))
        marks = set(rng.integers(0, max(1, n - 40), size=6).tolist())

        def scorer(w):
            return 1.0 if int(w.samples[0]) in marks else 0.0

        events = slide(ramp_wave(n), per_window(scorer), CFG)
        for a, b in zip(events, events[1:]):
            assert a.end < b.start                 # sorted, non-overlapping
        for ev in events:
            assert ev.length >= CFG.window - 1e-12


def test_slide_shift_consistency(rng):
    """Delaying audio by k steps moves every event boundary by exactly k steps."""
    rate = 100
    step_samples = 1                      # 0.01 s at 100 Hz
    win_samples = 40
    for _ in range(20):
        n = int(rng.integers(150, 300))
        x = rng.normal(size=n)
        # interior pulse: events clipped by the signal edges are exempt
        x[int(rng.integers(win_samples + 5, n - win_samples - 5))] = 50.0

        def scorer(w):
            return 1.0 if np.max(np.abs(w.samples)) > 10.0 else 0.0

        k = int(rng.integers(1, 30))
        base = slide(Waveform(x, rate), per_window(scorer), CFG)
        delayed = np.concatenate([np.zeros(k * step_samples), x])
        shifted = slide(Waveform(delayed, rate), per_window(scorer), CFG)
        assert len(base) == len(shifted)
        for ev, sv in zip(base, shifted):
            assert sv.start == pytest.approx(ev.start + k * CFG.step, abs=1e-9)
            assert sv.end == pytest.approx(ev.end + k * CFG.step, abs=1e-9)


def test_slide_passes_bounded_ordered_chunks():
    """Each call gets consecutive ascending offsets, at most SCORE_CHUNK of
    them, relative to a block that is a view of the audio and ends with its
    last window, and every window is scored exactly once (calls may overlap
    in time). On a ramp, block[o] is window o's absolute offset."""
    rate, n = 100, 50_000
    wave = ramp_wave(n, rate)
    calls = []

    def recording_scorer(w, offsets, win):
        assert np.shares_memory(w.samples, wave.samples) and win == 40
        calls.append((w.samples, list(offsets)))
        return np.zeros(len(offsets))

    assert slide(wave, recording_scorer, CFG) == []
    blocks: dict[int, tuple[int, list[int]]] = {}       # first sample -> (length, offsets)
    for block, c in calls:
        assert 1 <= len(c) <= SCORE_CHUNK
        assert c == list(range(c[0], c[0] + len(c)))
        blocks.setdefault(int(block[0]), (len(block), []))[1].extend(c)
    assert len(blocks) >= 2
    for length, starts in blocks.values():
        assert min(starts) == 0 and max(starts) + 40 == length
    absolute = sorted(int(block[o]) for block, c in calls for o in c)
    assert absolute == list(range(0, n - 40 + 1, 1))


@pytest.mark.parametrize("rate", [1000, 16000])
def test_slide_blocks_are_sized_in_samples(rate):
    """At a 0.1 s step a block's window starts span at most BLOCK_SAMPLES,
    rounded down to whole chunks, or one chunk where a chunk spans more,
    and each read adds only the win - step samples its last window needs."""
    cfg = SegmentationConfig(step=0.1)
    win, step = int(0.4 * rate), int(0.1 * rate)
    audio = LoggedReader(ramp_wave(60 * rate, rate))
    sizes = []

    def scorer(w, offsets, _):
        sizes.append(len(offsets))
        return np.zeros(len(offsets))

    assert slide(audio, scorer, cfg) == []
    chunk = SCORE_CHUNK * step
    budget = max(chunk, BLOCK_SAMPLES - BLOCK_SAMPLES % chunk)
    spans = [len(block) for _, block in audio.blocks]
    assert len(spans) >= 2 and max(spans) == budget + win - step
    assert sizes.count(SCORE_CHUNK) >= len(sizes) - 1      # blocks hold whole chunks


def test_slide_names_earliest_non_finite_offset(cpus):
    """A NaN in chunk 3 that is scored before chunk 1's NaN is not reported."""
    first, later = SCORE_CHUNK + 3, 3 * SCORE_CHUNK + 5
    calls = []

    def scorer(w, offsets, win):
        calls.append(int(offsets[0]))
        if first in offsets:
            time.sleep(0.2)            # chunks 2 and 3 finish first
        return np.where((offsets == first) | (offsets == later), np.nan, 0.0)

    with pytest.raises(DataError, match=f"offset {first}$"):
        slide(ramp_wave(2000), scorer, CFG)
    # Chunk 1 is consumed with at most `cpus` chunks submitted after it; the
    # remaining ~120 are never scored.
    assert len(calls) <= 2 + cpus
    assert sorted(calls) == [k * SCORE_CHUNK for k in range(len(calls))]


def test_slide_names_offset_of_non_finite_probability():
    def scorer(w, offsets, win):
        return np.where(offsets == 37, np.nan, 0.0)

    with pytest.raises(DataError, match="offset 37"):
        slide(ramp_wave(100), scorer, CFG)


def test_slide_rejects_wrong_probability_count():
    with pytest.raises(DataError, match="probabilities"):
        slide(ramp_wave(100), lambda w, offsets, win: np.zeros(1), CFG)


# - batched model scorer -


@pytest.fixture(scope="module")
def trained_scorer(tmp_path_factory):
    """A small classifier fine-tuned on window-length (38-frame) normalized
    clips, its batched scorer, its per-window reference scorer, and a
    recording of six clips from both classes."""
    root = tmp_path_factory.mktemp("seg_model")
    manifest = synth_dataset(root, 24, seed=41)
    mel_cfg = MelConfig()
    model_cfg = ModelConfig(dim=32, n_heads=2, n_blocks=1, decoder_dim=16,
                            decoder_heads=2, decoder_blocks=1)
    _, _, raw = prepare_patches(manifest, mel_cfg, 38, model_cfg)
    stats = stats_from_values(raw)
    patches, _, _ = prepare_patches(manifest, mel_cfg, 38, model_cfg, stats=stats)
    cfg = FinetuneConfig(epochs=20, batch_size=4, encoder_lr=1e-3, head_lr=1e-2,
                         pooling="mean", warmup_frac=0.1)
    model = Model(encoder=EncoderParams(model_cfg, seed=0),
                  head=LinearParams("head", model_cfg.dim, N_CLASSES, seed=0),
                  pooling=cfg.pooling, stats=stats)
    finetune_arrays(model, patches, manifest.labels(), np.arange(18), np.arange(18, 24),
                    cfg, seed=0)

    def window_prob(window: Waveform) -> float:
        """The per-window path: one log-mel and one batch-1 forward per window."""
        spec = normalize(log_mel_spectrogram(window, mel_cfg), stats.mean, stats.std)
        patches, _ = patchify(spec[None], 16, 16)
        return float(score_samples(patches, model)[0])

    clips = [load_wav(manifest.resolve(e)).samples for e in manifest.entries[:6]]
    recording = Waveform(np.concatenate(clips), mel_cfg.target_rate)
    return build_scorer(model, mel_cfg), per_window(window_prob), recording


@pytest.mark.parametrize("n_windows", [1, 16, 17, SCORE_CHUNK, SCORE_CHUNK + 1, 2 * SCORE_CHUNK,
                                       2 * SCORE_CHUNK + 1, None])
def test_batched_scorer_matches_per_window(trained_scorer, n_windows):
    """Chunks of SCORE_CHUNK windows and a last chunk of any size give each
    window the bits of its own batch-1 forward."""
    batched, reference, recording = trained_scorer
    win, step = 6400, 160
    n = len(recording.samples) if n_windows is None else win + (n_windows - 1) * step
    wave = Waveform(recording.samples[:n], recording.sample_rate)
    offsets = np.arange(0, n - win + 1, step)
    want = reference(wave, offsets, win)
    got = np.concatenate([batched(wave, offsets[lo:lo + SCORE_CHUNK], win)
                          for lo in range(0, len(offsets), SCORE_CHUNK)])
    assert got.shape == want.shape == offsets.shape
    assert got.tobytes() == want.tobytes()
    strict = SegmentationConfig(threshold=0.8)
    for cfg in (CFG, strict):
        assert slide(wave, batched, cfg) == slide(wave, reference, cfg)
    if n_windows is None:       # the full recording gives mixed decisions
        assert want.min() < 0.1 and want.max() > 0.9
        assert len(slide(wave, batched, strict)) >= 2


def test_batched_scorer_off_hop_step(trained_scorer):
    """Offsets in different hop phases each get the rows of a log-mel of
    their own phase, and score as each window's own log-mel does."""
    batched, reference, recording = trained_scorer
    offsets = np.array([0, 100, 250, 330])          # hop is 160 samples
    got = batched(recording, offsets, 6400)
    assert got.tobytes() == reference(recording, offsets, 6400).tobytes()
    cfg = SegmentationConfig(step=0.0125)           # 200 samples
    assert slide(recording, batched, cfg) == slide(recording, reference, cfg)


@pytest.mark.parametrize("step", [80, 100, 160, 200, 240, 1600])
def test_scorer_features_are_each_windows_own_log_mel(trained_scorer, step, monkeypatch):
    """For chunks of 1 to SCORE_CHUNK windows, the rows build_scorer cuts
    from one log-mel per hop phase are, byte for byte, each window's own
    normalized log-mel."""
    _, _, recording = trained_scorer
    mel_cfg, win = MelConfig(), 6400
    stats = DatasetStats(mean=-9.0, std=3.5)
    model_cfg = ModelConfig(dim=16, n_heads=2, n_blocks=1, decoder_dim=16,
                            decoder_heads=2, decoder_blocks=1)
    model = Model(encoder=EncoderParams(model_cfg, seed=0),
                  head=LinearParams("head", model_cfg.dim, N_CLASSES, seed=0),
                  pooling="mean", stats=stats)
    fed, spans = [], []

    def fed_patchify(values, *args):
        fed.append(values)
        return patchify(values, *args)

    def span_log_mel(wave, cfg):
        spans.append(len(wave.samples))
        return log_mel_spectrogram(wave, cfg)

    monkeypatch.setattr(finetune, "patchify", fed_patchify)
    monkeypatch.setattr(finetune, "log_mel_spectrogram", span_log_mel)
    scorer = build_scorer(model, mel_cfg)
    for n in range(1, SCORE_CHUNK + 1):
        offsets = 37 + step * np.arange(n)
        fed.clear()
        spans.clear()
        scorer(recording, offsets, win)
        want = np.stack([normalize(log_mel_spectrogram(
            Waveform(recording.samples[o:o + win], recording.sample_rate), mel_cfg),
            stats.mean, stats.std) for o in offsets.tolist()])
        assert len(fed) == 1 and fed[0].shape == want.shape
        assert fed[0].tobytes() == want.tobytes()
        assert len(spans) == len({o % mel_cfg.frame_hop_samples for o in offsets.tolist()})


def test_scorer_call_memory_is_bounded():
    """One scorer call of SCORE_CHUNK default windows on the default model
    peaks at 4.2 MB under tracemalloc (2-core box, numpy 2.4.6); with a
    GELU that holds three full-size arrays it peaked at 5.3 MB."""
    mel_cfg, model_cfg, win, step = MelConfig(), ModelConfig(), 6400, 160
    model = Model(encoder=EncoderParams(model_cfg, seed=0),
                  head=LinearParams("head", model_cfg.dim, N_CLASSES, seed=0),
                  pooling="cls", stats=DatasetStats(mean=-9.0, std=3.5))
    scorer = build_scorer(model, mel_cfg)
    samples = np.random.default_rng(5).normal(0.0, 0.1, win + (SCORE_CHUNK - 1) * step)
    wave, offsets = Waveform(samples, mel_cfg.target_rate), step * np.arange(SCORE_CHUNK)
    scorer(wave, offsets, win)          # warm numpy's and the mel filterbank's caches
    tracemalloc.start()
    try:
        scorer(wave, offsets, win)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.6e6


def test_batched_scorer_short_audio(trained_scorer):
    batched, _, recording = trained_scorer
    short = Waveform(recording.samples[:6399], recording.sample_rate)
    assert slide(short, batched, CFG) == []


def test_threaded_slide_is_bit_identical(trained_scorer, cpus):
    """The probabilities slide() consumes equal a sequential pass of the
    scorer over each block it reads bit for bit, and over the whole
    recording too, and so do the events."""
    batched, _, recording = trained_scorer
    win, step = 6400, 160
    offsets = np.arange(0, len(recording.samples) - win + 1, step)
    want = np.concatenate([batched(recording, offsets[lo:lo + SCORE_CHUNK], win)
                           for lo in range(0, len(offsets), SCORE_CHUNK)])
    audio = LoggedReader(recording)
    seen = []

    def recorded(wave, chunk, win):
        probs = batched(wave, chunk, win)
        seen.append((audio.start_of(wave.samples) + chunk, chunk.copy(), probs.copy()))
        return probs

    strict = SegmentationConfig(threshold=0.8)
    events = slide(audio, recorded, strict)
    assert len(audio.blocks) >= 3
    for lo, block in audio.blocks:
        rel = np.arange(0, len(block) - win + 1, step)
        assert rel[-1] + win == len(block)
        ref = np.concatenate([batched(Waveform(block, recording.sample_rate),
                                      rel[c:c + SCORE_CHUNK], win)
                              for c in range(0, len(rel), SCORE_CHUNK)])
        calls = sorted((call for call in seen if lo <= call[0][0] <= lo + rel[-1]),
                       key=lambda call: call[0][0])
        assert np.array_equal(np.concatenate([c for _, c, _ in calls]), rel)
        assert np.concatenate([p for _, _, p in calls]).tobytes() == ref.tobytes()
    seen.sort(key=lambda call: call[0][0])
    assert np.array_equal(np.concatenate([a for a, _, _ in seen]), offsets)
    got = np.concatenate([p for _, _, p in seen])
    assert got.tobytes() == want.tobytes()
    rate = recording.sample_rate
    positives = [(o / rate, (o + win) / rate) for o in offsets[want >= 0.8].tolist()]
    assert events == [Event(lo, hi) for lo, hi in merge_intervals(positives)]
    assert len(events) >= 2


def stream_cases(samples: np.ndarray, tmp_path):
    """(name, WAV bytes) of a 16 kHz recording in formats WavStream mixes or
    converts: 24-bit three-channel PCM, and stereo float at 44.1 kHz."""
    def channels(x: np.ndarray, n: int) -> np.ndarray:
        """n channels that average to about x."""
        noise = np.random.default_rng(n).normal(0.0, 1e-3, len(x))
        return np.stack([x + noise, x - noise, x][:n], axis=1)

    i24 = np.round(np.clip(channels(samples, 3), -1, 1) * (2 ** 23 - 1)).astype("<i4")
    at44k = float_stream(tmp_path / "src.wav", samples, 16000, target_rate=44100)
    f32 = channels(at44k.read(0, at44k.n_samples), 2).astype("<f4")
    return [("pcm24_3ch", riff([(b"fmt ", fmt_body(1, 3, 16000, 3, 24)),
                                (b"data", pcm_bytes(i24, 3))])),
            ("float32_stereo_44k", riff([(b"fmt ", fmt_body(3, 2, 44100, 4, 32)),
                                         (b"data", f32.tobytes())]))]


@pytest.mark.parametrize("case", [0, 1], ids=["pcm24_3ch", "float32_stereo_44k"])
def test_streamed_slide_matches_whole_file(trained_scorer, case, tmp_path, monkeypatch):
    """A WavStream, read in blocks, gives every window the probability that
    one whole read of the file gives it, bit for bit, and the same events;
    each block holds whole chunks, so only the recording's last chunk is short."""
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 1)     # calls in offset order
    batched, _, recording = trained_scorer
    name, body = stream_cases(recording.samples, tmp_path)[case]
    path = tmp_path / f"{name}.wav"
    path.write_bytes(body)
    strict = SegmentationConfig(threshold=0.8)

    def run(audio):
        calls = []

        def recorded(wave, offsets, win):
            probs = batched(wave, offsets, win)
            calls.append((len(wave.samples), offsets.copy(), probs))
            return probs

        return slide(audio, recorded, strict), calls

    once = WavStream(path, 16000)
    want, whole_calls = run(Waveform(once.read(0, once.n_samples), 16000))
    got, block_calls = run(WavStream(path, 16000))
    assert got == want and len(want) >= 2
    probs = np.concatenate([p for _, _, p in block_calls])
    assert probs.tobytes() == np.concatenate([p for _, _, p in whole_calls]).tobytes()
    sizes = [len(offsets) for _, offsets, _ in block_calls]
    assert set(sizes[:-1]) == {SCORE_CHUNK} and 1 <= sizes[-1] <= SCORE_CHUNK
    per_block = BLOCK_SAMPLES // (SCORE_CHUNK * 160)       # chunks at a 160-sample step
    blocks = -(-len(sizes) // per_block)
    assert blocks >= 3
    for k in range(blocks):
        group = block_calls[k * per_block:(k + 1) * per_block]
        assert group[0][1][0] == 0                       # offsets start at the block's start
        assert group[0][0] == group[-1][1][-1] + 6400    # the block ends with its last window


def test_slide_restores_blas_threads(cpus):
    threads = workers.openblas_threads()
    if threads is None:
        pytest.skip("numpy is not linked against OpenBLAS")
    get, set_ = threads
    original = get()
    inside = []

    def scorer(bad_offset):
        def score(w, offsets, win):
            inside.append(get())
            return np.where(offsets == bad_offset, np.nan, 0.0)

        return score

    try:
        set_(2)
        assert slide(ramp_wave(100), scorer(-1), CFG) == []
        assert get() == 2
        with pytest.raises(DataError, match="offset 37"):
            slide(ramp_wave(100), scorer(37), CFG)
        assert get() == 2
        assert inside and set(inside) == {1}
    finally:
        set_(original)


# - event_f1 -


def test_event_f1_identity():
    ev = [Event(0.1, 0.5)]
    assert event_f1(ev, ev) == F1Scores(1.0, 1.0, 1.0)


def test_event_f1_low_iou_no_match():
    # IoU = 0.1 / 0.7, about 0.143, below the 0.5 criterion
    scores = event_f1([Event(0.0, 0.4)], [Event(0.3, 0.7)])
    assert scores.f1 == 0.0
    assert scores.precision == 0.0
    assert scores.recall == 0.0


def test_event_f1_spurious_prediction():
    scores = event_f1([Event(0.1, 0.5), Event(2.0, 2.4)], [Event(0.1, 0.5)])
    assert scores.precision == 0.5
    assert scores.recall == 1.0
    assert scores.f1 == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_event_f1_empty_conventions():
    assert event_f1([], []) == F1Scores(1.0, 1.0, 1.0)
    assert event_f1([], [Event(0.0, 1.0)]) == F1Scores(0.0, 0.0, 0.0)
    assert event_f1([Event(0.0, 1.0)], []) == F1Scores(0.0, 0.0, 0.0)


def test_event_f1_greedy_one_to_one():
    # one prediction overlapping two truths can match only one of them
    pred = [Event(0.0, 1.0)]
    truth = [Event(0.0, 1.0), Event(0.4, 1.4)]
    scores = event_f1(pred, truth)
    assert scores.precision == 1.0
    assert scores.recall == 0.5


def test_event_f1_swap_symmetry(rng):
    for _ in range(20):
        pred = [Event(float(s), float(s) + float(l))
                for s, l in zip(rng.uniform(0, 10, 4), rng.uniform(0.2, 1.0, 4))]
        truth = [Event(float(s), float(s) + float(l))
                 for s, l in zip(rng.uniform(0, 10, 3), rng.uniform(0.2, 1.0, 3))]
        pred = [Event(lo, hi) for lo, hi in merge_intervals([(e.start, e.end) for e in pred])]
        truth = [Event(lo, hi) for lo, hi in merge_intervals([(e.start, e.end) for e in truth])]
        a = event_f1(pred, truth)
        b = event_f1(truth, pred)
        assert a.precision == b.recall
        assert a.recall == b.precision
        assert a.f1 == pytest.approx(b.f1, abs=1e-15)
        assert 0.0 <= a.f1 <= 1.0


# - sample_f1 -


def test_sample_f1_identity():
    ev = [Event(0.05, 0.35)]
    assert sample_f1(ev, ev, duration=1.0) == F1Scores(1.0, 1.0, 1.0)


def test_sample_f1_null_prediction():
    scores = sample_f1([], [Event(0.0, 0.2)], duration=1.0)
    assert scores.recall == 0.0
    assert scores.f1 == 0.0


def test_sample_f1_offset_bins():
    # truth bins {0,1}; pred bins {1,2}; TP=1 FP=1 FN=1 -> P=R=F1=0.5
    scores = sample_f1([Event(0.1, 0.3)], [Event(0.0, 0.2)], duration=1.0)
    assert scores == F1Scores(0.5, 0.5, 0.5)


def test_sample_f1_edge_touch_does_not_mark_bin():
    # event ending exactly at a bin boundary stays out of the next bin
    scores = sample_f1([Event(0.0, 0.1)], [Event(0.0, 0.1)], duration=0.3)
    assert scores.f1 == 1.0
    other = sample_f1([Event(0.1, 0.2)], [Event(0.0, 0.1)], duration=0.3)
    assert other.f1 == 0.0


def test_sample_f1_both_empty():
    assert sample_f1([], [], duration=1.0).f1 == 1.0


def test_sample_f1_bad_duration():
    with pytest.raises(DataError):
        sample_f1([], [], duration=0.0)


def test_sample_f1_swap_symmetry(rng):
    for _ in range(20):
        def rand_events():
            evs = [(float(s), float(s) + float(l))
                   for s, l in zip(rng.uniform(0, 3, 3), rng.uniform(0.05, 0.6, 3))]
            return [Event(lo, hi) for lo, hi in merge_intervals(evs)]

        pred, truth = rand_events(), rand_events()
        a = sample_f1(pred, truth, duration=4.0)
        b = sample_f1(truth, pred, duration=4.0)
        assert a.precision == b.recall
        assert a.recall == b.precision
        assert 0.0 <= a.f1 <= 1.0


# - CSV round trip -


def test_events_csv_roundtrip(tmp_path):
    events = [Event(0.1, 0.5), Event(1.0, 1.41), Event(2.345, 6.789)]
    path = tmp_path / "events.csv"
    write_events_csv(path, events)
    text = path.read_text()
    assert text.splitlines()[0] == "start_s,end_s"
    assert "0.100,0.500" in text
    assert "1.000,1.410" in text
    back = read_events_csv(path)
    assert back == events


def test_events_csv_empty(tmp_path):
    path = tmp_path / "none.csv"
    write_events_csv(path, [])
    assert read_events_csv(path) == []


def test_events_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("start_s,end_s\n0.1,0.5\nnope,0.7\n")
    with pytest.raises(DataError, match=":3:"):
        read_events_csv(path)
    path.write_text("wrong,header\n")
    with pytest.raises(DataError, match="header"):
        read_events_csv(path)
    path.write_text("start_s,end_s\n0.5,0.1\n")
    with pytest.raises(DataError, match=":2:"):
        read_events_csv(path)
    with pytest.raises(DataError, match="not found"):
        read_events_csv(tmp_path / "missing.csv")

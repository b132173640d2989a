"""Audio front end: WAV decoding and resampling, log-mel features, dataset plumbing.

WavStream is the one reader of WAV audio. It decodes, mixes to mono and
resamples a block at a time; load_wav and spectrogram_for_file are whole
reads of it, so training features and segmentation windows come from the
same code and the same bits. The feature chain is read at the target rate
-> log-mel spectrogram; spectrograms are float64 (time, mel) grids.
Everything here is deterministic, and the synthetic corpus generator is
reproducible down to the output bytes for a fixed seed.
"""
from __future__ import annotations

import csv
import functools
import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import AudioError, DataError, NumericsError
from .rng import seeded_rng

# Resampler design: windowed-sinc low-pass, Kaiser beta 12.9 (~130 dB stopband),
# 64 zero crossings per side, applied polyphase.
_KAISER_BETA = 12.9
_ZERO_CROSSINGS = 64


@dataclass(frozen=True)
class Waveform:
    """Mono float64 audio in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        if self.samples.ndim != 1:
            raise AudioError(f"waveform must be mono 1-d, got shape {self.samples.shape}")
        if self.sample_rate <= 0:
            raise AudioError(f"bad sample rate {self.sample_rate}")

    @property
    def n_samples(self) -> int:
        return len(self.samples)

    @property
    def duration(self) -> float:
        return self.n_samples / self.sample_rate

    def read(self, lo: int, hi: int) -> np.ndarray:
        """Samples lo..hi-1, a view: the reader surface WavStream has."""
        return self.samples[lo:hi]


@dataclass(frozen=True)
class MelConfig:
    """Log-mel front-end settings. Defaults match the training recipe."""

    target_rate: int = 16000
    n_mels: int = 128
    frame_length: float = 0.025
    frame_hop: float = 0.010
    fft_size: int = 512
    mel_fmin: float = 0.0
    mel_fmax: float = 8000.0
    log_floor: float = 1e-10

    def __post_init__(self):
        if self.frame_length_samples > self.fft_size:
            raise AudioError("frame longer than FFT size")
        if not 0 <= self.mel_fmin < self.mel_fmax <= self.target_rate / 2:
            raise AudioError(f"bad mel band [{self.mel_fmin}, {self.mel_fmax}] for rate {self.target_rate}")
        if self.log_floor <= 0:
            raise AudioError("log_floor must be positive")

    @property
    def frame_length_samples(self) -> int:
        return int(round(self.frame_length * self.target_rate))

    @property
    def frame_hop_samples(self) -> int:
        return int(round(self.frame_hop * self.target_rate))


# - WAV I/O -

_INT_SCALE = {np.dtype(np.int16): 32768.0, np.dtype(np.int32): 2147483648.0}
_WAVE_FORMAT_PCM = 0x0001
_WAVE_FORMAT_IEEE_FLOAT = 0x0003
_WAVE_FORMAT_EXTENSIBLE = 0xFFFE
# Trailing 12 bytes of the KSDATAFORMAT_SUBTYPE GUIDs; the first 4 hold the format tag.
_SUBTYPE_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def _parse_fmt(body: bytes, path) -> tuple[int, int, int, int, int]:
    """(rate, format tag, channels, block align, bits) from a fmt chunk body."""
    if len(body) < 16:
        raise AudioError(f"fmt chunk too short ({len(body)} bytes) in {path}")
    tag, channels, rate, byte_rate, block_align, bits = struct.unpack_from("<HHIIHH", body)
    if tag == _WAVE_FORMAT_EXTENSIBLE and len(body) >= 18:
        ext_size = struct.unpack_from("<H", body, 16)[0]
        if ext_size < 22 or len(body) < 40:
            raise AudioError(f"truncated WAVE_FORMAT_EXTENSIBLE fmt chunk in {path}")
        guid = body[24:40]
        if guid.endswith(_SUBTYPE_GUID_TAIL):
            tag = struct.unpack_from("<I", guid)[0]
    if tag not in (_WAVE_FORMAT_PCM, _WAVE_FORMAT_IEEE_FLOAT):
        raise AudioError(f"unsupported WAV format tag {tag:#06x} in {path}; "
                         "only PCM and IEEE float are read")
    if channels == 0 or block_align == 0 or block_align % channels:
        raise AudioError(f"bad WAV block layout ({channels} channels, "
                         f"block align {block_align}) in {path}")
    if rate == 0:
        raise AudioError(f"bad sample rate 0 in {path}")
    if tag == _WAVE_FORMAT_PCM and byte_rate != rate * block_align:
        raise AudioError(f"inconsistent WAV header in {path}: byte rate {byte_rate} "
                         f"!= rate {rate} x block align {block_align}")
    return rate, tag, channels, block_align, bits


def _decode_pcm(raw: bytearray, tag: int, channels: int, block_align: int,
                bits: int, path) -> np.ndarray:
    """Sample array from data chunk bytes, with the dtypes scipy.io.wavfile uses:
    uint8 for <= 8-bit PCM, int16/int32 for 16/32-bit, 24-bit as int32 with
    the sample in the top three bytes, float32/float64 for IEEE float."""
    width = block_align // channels
    usable = len(raw) - len(raw) % block_align
    if tag == _WAVE_FORMAT_IEEE_FLOAT and bits in (32, 64) and width in (4, 8):
        data = np.frombuffer(raw, dtype=f"<f{width}", count=usable // width)
    elif tag == _WAVE_FORMAT_PCM and 1 <= bits <= 8 and width == 1:
        data = np.frombuffer(raw, dtype=np.uint8, count=usable)
    elif tag == _WAVE_FORMAT_PCM and bits <= 8 * width and width in (2, 4):
        data = np.frombuffer(raw, dtype=f"<i{width}", count=usable // width)
    elif tag == _WAVE_FORMAT_PCM and bits <= 24 and width == 3:
        packed = np.frombuffer(raw, dtype=np.uint8, count=usable).reshape(-1, 3)
        wide = np.zeros((packed.shape[0], 4), dtype=np.uint8)
        wide[:, 1:] = packed
        data = wide.view("<i4").reshape(-1)
    else:
        kind = "float" if tag == _WAVE_FORMAT_IEEE_FLOAT else "PCM"
        raise AudioError(f"unsupported WAV sample format: {bits}-bit {kind} "
                         f"in {width}-byte containers in {path}")
    data = data.astype(data.dtype.newbyteorder("="), copy=False)
    return data.reshape(-1, channels) if channels > 1 else data


def _walk_wav(fh, path) -> tuple[tuple[int, int, int, int, int], int]:
    """The fmt fields and the data chunk size of an open RIFF/WAVE file,
    leaving fh at the first data byte.

    Chunks before `data` other than `fmt ` are skipped, odd-sized ones
    with their pad byte; nothing after `data` is read. A chunk that claims
    more bytes than the file holds is an error before anything is allocated.
    """
    file_size = os.fstat(fh.fileno()).st_size
    head = fh.read(12)
    if len(head) < 12 or head[:4] != b"RIFF" or head[8:12] != b"WAVE":
        raise AudioError(f"not a RIFF/WAVE file: {path}")
    fmt = None
    while True:
        chunk = fh.read(8)
        if len(chunk) < 8:
            raise AudioError(f"no data chunk in {path}")
        chunk_id, size = chunk[:4], struct.unpack("<I", chunk[4:])[0]
        if chunk_id in (b"fmt ", b"data") and size > file_size - fh.tell():
            raise AudioError(f"truncated {chunk_id.decode().strip()} chunk in {path}: "
                             f"{size} bytes declared, {file_size - fh.tell()} present")
        if chunk_id == b"fmt ":
            fmt = _parse_fmt(fh.read(size), path)
        elif chunk_id == b"data":
            if fmt is None:
                raise AudioError(f"data chunk before fmt chunk in {path}")
            return fmt, size
        else:
            fh.seek(size, 1)
        if size & 1:
            fh.seek(1, 1)


def _to_mono(data: np.ndarray, path) -> np.ndarray:
    """Float64 mono samples from decoded WAV samples (see WavStream).

    Every output sample depends only on its own frame, so a block of frames
    converts to the same bits as the whole file does.
    """
    if data.dtype in _INT_SCALE:
        samples = data.astype(np.float64) / _INT_SCALE[data.dtype]
    elif data.dtype == np.uint8:
        samples = (data.astype(np.float64) - 128.0) / 128.0
    else:
        if not np.isfinite(data).all():
            raise AudioError(f"non-finite samples in {path}")
        samples = np.clip(data.astype(np.float64), -1.0, 1.0)
    return samples.mean(axis=1) if samples.ndim == 2 else samples


class WavStream:
    """A WAV file's mono audio at target_rate (None: the file's own rate),
    decoded one block at a time.

    Reads PCM at 8 (unsigned), 16, 24 and 32 bits and IEEE float at 32 and
    64 bits, as plain or WAVE_FORMAT_EXTENSIBLE headers, any channel count.
    Integer samples map to [-1, 1) by dividing by the type's full scale;
    float samples are clipped into [-1, 1]. Multichannel input is averaged.
    The header is walked once, here: a malformed or truncated header, an
    unsupported format or an empty data chunk is an AudioError naming the
    file before any audio is read. A NaN or infinite float sample is an
    AudioError from the `read` whose block holds it. Every failure is an
    AudioError that names the file.

    At the file's own rate, `read(lo, hi)` reads and decodes frames lo..hi-1
    only. At another rate the audio is resampled polyphase with a
    windowed-sinc low-pass to n_samples = round(frames * target / source),
    so duration is preserved to within one sample period, and output i is
    the kernel centred on input time i * source / target. Outputs are
    computed in pieces that start on whole groups (_RESAMPLE_ROWS rows per
    phase), so a sample's bits do not depend on which reads asked for it.
    The stream keeps the last two pieces it computed, so ascending reads
    that overlap by less than a piece compute each piece once, and a whole
    read holds two pieces beside its output.
    """

    def __init__(self, path, target_rate: int | None = None):
        if target_rate is not None and target_rate <= 0:
            raise AudioError(f"bad target rate {target_rate}")
        try:
            with open(path, "rb") as fh:
                (rate, *layout), size = _walk_wav(fh, path)
                self._data_start = fh.tell()
        except OSError as exc:
            raise AudioError(f"cannot read audio file: {path}: {exc.strerror or exc}") from None
        _decode_pcm(bytearray(), *layout, path)        # an unsupported format fails here
        self.path = path
        self.sample_rate = rate if target_rate is None else target_rate
        self._layout = layout
        self._frames = size // layout[2]
        if self._frames == 0:
            raise AudioError(f"zero-length audio: {path}")
        self._polyphase = None if rate == self.sample_rate else _polyphase(rate, self.sample_rate)
        self.n_samples = (self._frames if self._polyphase is None
                          else int(round(self._frames * self.sample_rate / rate)))
        self._pieces: dict[int, np.ndarray] = {}

    @property
    def duration(self) -> float:
        return self.n_samples / self.sample_rate

    def _source(self, lo: int, hi: int) -> np.ndarray:
        """Mono float64 source frames lo..hi-1."""
        align = self._layout[2]
        raw = bytearray((hi - lo) * align)
        try:
            with open(self.path, "rb") as fh:
                fh.seek(self._data_start + lo * align)
                got = fh.readinto(raw)
        except OSError as exc:
            raise AudioError(f"cannot read audio file: {self.path}: "
                             f"{exc.strerror or exc}") from None
        if got != len(raw):
            raise AudioError(f"audio file shrank while being read: {self.path}")
        return _to_mono(_decode_pcm(raw, *self._layout, self.path), self.path)

    def _piece(self, k: int) -> np.ndarray:
        """Resampled outputs k * span .. (k + 1) * span - 1 (fewer at the end).

        Output i sits at upsampled time t = half + i * down: phase t % up,
        and its window starts at padded index t // up, where padded index j
        holds source frame j - (taps - 1), zero outside the file.
        """
        up, down, half, bank = self._polyphase
        taps = bank.shape[1]
        span = _piece_span(up)
        o0, o1 = k * span, min((k + 1) * span, self.n_samples)
        lo = (half + o0 * down) // up
        hi = (half + (o1 - 1) * down) // up + taps
        padded = np.zeros(hi - lo)
        a, b = max(lo - taps + 1, 0), min(hi - taps + 1, self._frames)
        if a < b:
            padded[a + taps - 1 - lo:b + taps - 1 - lo] = self._source(a, b)
        windows = np.lib.stride_tricks.sliding_window_view(padded, taps)
        out = np.empty(o1 - o0)
        for r in range(min(up, len(out))):
            t0 = half + (o0 + r) * down
            rows = windows[t0 // up - lo::down][:len(range(r, len(out), up))]
            dest = out[r::up]
            for g in range(0, len(rows), _RESAMPLE_ROWS):
                dest[g:g + _RESAMPLE_ROWS] = rows[g:g + _RESAMPLE_ROWS] @ bank[t0 % up]
        return out

    def read(self, lo: int, hi: int) -> np.ndarray:
        """Samples lo..hi-1 at the target rate, 0 <= lo <= hi <= n_samples."""
        if self._polyphase is None:
            return self._source(lo, hi)
        span = _piece_span(self._polyphase[0])
        out = np.empty(hi - lo)
        for k in range(lo // span, (hi - 1) // span + 1):
            if k not in self._pieces:
                self._pieces = {j: v for j, v in self._pieces.items() if j == k - 1}
                self._pieces[k] = self._piece(k)
            a, b = max(lo, k * span), min(hi, (k + 1) * span)
            out[a - lo:b - lo] = self._pieces[k][a - k * span:b - k * span]
        return out


def load_wav(path, target_rate: int | None = None) -> Waveform:
    """A whole WAV file at target_rate (None: its own rate), mixed to mono
    (see WavStream)."""
    stream = WavStream(path, target_rate)
    return Waveform(samples=stream.read(0, stream.n_samples), sample_rate=stream.sample_rate)


def save_wav(path, wave: Waveform) -> None:
    """Write 16-bit PCM mono; output bytes depend only on samples and rate.

    The layout is the canonical 44-byte header (RIFF, a 16-byte `fmt `
    chunk, `data`) followed by little-endian samples.
    """
    clipped = np.clip(wave.samples, -1.0, 1.0)
    pcm = np.round(clipped * 32767.0).astype("<i2").tobytes()
    rate = wave.sample_rate
    header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(pcm), b"WAVE",
                         b"fmt ", 16, _WAVE_FORMAT_PCM, 1, rate, 2 * rate, 2, 16,
                         b"data", len(pcm))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(pcm)


# - Resampling -

# Rows per matrix product: each phase computes its outputs in groups of
# this many rows, split at phase-row multiples of it. Where numpy hands the
# rows to BLAS (down >= taps, as at 44.1 and 22.05 kHz) a row's bits depend
# on its group, so a WavStream piece is whole groups: every output keeps the
# bits of one pass over the whole file in groups, whatever reads asked for it.
# At 512 a 44.1 kHz group spans 81,920 outputs (5.1 s at 16 kHz).
_RESAMPLE_ROWS = 512
# Resampled outputs a WavStream computes at once: a whole number of groups.
_STREAM_PIECE = 1 << 16


def _resample_kernel(up: int, down: int) -> np.ndarray:
    """Kaiser-windowed sinc low-pass for an up/down rational rate change.

    Cutoff sits at the lower of the two Nyquist rates; the half-length is
    rounded up to a multiple of `down` so the polyphase output aligns on
    an exact output-sample boundary.
    """
    width = max(up, down)
    half = down * math.ceil(_ZERO_CROSSINGS * width / down)
    k = np.arange(-half, half + 1, dtype=np.float64)
    cutoff = 1.0 / width
    kernel = cutoff * np.sinc(cutoff * k) * np.kaiser(2 * half + 1, _KAISER_BETA)
    kernel *= up / kernel.sum()
    return kernel


def _polyphase(source_rate: int, target_rate: int) -> tuple[int, int, int, np.ndarray]:
    """(up, down, kernel half-length, phase bank) for a rate change.

    Phase p's row of the (up, taps) bank holds taps kernel[p], kernel[p + up],
    ..., reversed, so a forward window of the input lines up with them.
    """
    g = math.gcd(source_rate, target_rate)
    up, down = target_rate // g, source_rate // g
    kernel = _resample_kernel(up, down)
    taps = -(-len(kernel) // up)
    bank = np.zeros(taps * up)
    bank[:len(kernel)] = kernel
    bank = np.ascontiguousarray(bank.reshape(taps, up).T[:, ::-1])
    return up, down, (len(kernel) - 1) // 2, bank


def _piece_span(up: int) -> int:
    """Outputs per WavStream piece: whole groups of _RESAMPLE_ROWS rows per phase."""
    group = _RESAMPLE_ROWS * up
    return group * max(1, _STREAM_PIECE // group)


# - Log-mel spectrogram -


def frame_count(n_samples: int, cfg: MelConfig) -> int:
    """Number of fully contained analysis frames for n_samples of audio."""
    length, hop = cfg.frame_length_samples, cfg.frame_hop_samples
    if n_samples < length:
        raise AudioError(f"audio shorter than one frame ({n_samples} < {length} samples)")
    return (n_samples - length) // hop + 1


def mel_scale(freq_hz):
    return 2595.0 * np.log10(1.0 + np.asarray(freq_hz, dtype=np.float64) / 700.0)


def mel_inverse(mels):
    return 700.0 * (10.0 ** (np.asarray(mels, dtype=np.float64) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=8)
def mel_filterbank(cfg: MelConfig) -> np.ndarray:
    """(n_mels, fft_size//2 + 1) triangular filters, peak weight 1 (area-unnormalized).

    Built once per MelConfig and shared by every caller, so the array is
    read-only.
    """
    pts = mel_inverse(np.linspace(mel_scale(cfg.mel_fmin), mel_scale(cfg.mel_fmax), cfg.n_mels + 2))
    bins = np.arange(cfg.fft_size // 2 + 1, dtype=np.float64) * cfg.target_rate / cfg.fft_size
    left, center, right = pts[:-2, None], pts[1:-1, None], pts[2:, None]
    rising = (bins[None, :] - left) / (center - left)
    falling = (right - bins[None, :]) / (right - center)
    bank = np.maximum(0.0, np.minimum(rising, falling))
    bank.flags.writeable = False
    return bank


def log_mel_spectrogram(wave: Waveform, cfg: MelConfig) -> np.ndarray:
    """(frames, n_mels) float64 natural-log energies: a Hann-windowed power
    spectrum projected on the mel bank.

    Only fully contained frames are used (no center padding), so delaying
    the input by exactly k hops shifts the frame grid by k rows, and the
    rows of a span's log-mel are the log-mels of the windows inside it. The
    log floor keeps silence finite at ln(log_floor).
    """
    if wave.sample_rate != cfg.target_rate:
        raise AudioError(f"expected {cfg.target_rate} Hz input, got {wave.sample_rate}; resample first")
    length, hop = cfg.frame_length_samples, cfg.frame_hop_samples
    n_frames = frame_count(len(wave.samples), cfg)
    frames = np.lib.stride_tricks.sliding_window_view(wave.samples, length)[::hop][:n_frames]
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(length) / length)  # periodic Hann
    spectrum = np.fft.rfft(frames * window, n=cfg.fft_size, axis=1)
    power = spectrum.real ** 2 + spectrum.imag ** 2
    mel_energy = power @ mel_filterbank(cfg).T
    return np.log(mel_energy + cfg.log_floor)


def fit_length(values: np.ndarray, target_frames: int, pad_value: float) -> np.ndarray:
    """A new (target_frames, n_mels) array: the time axis cropped, or
    right-padded with pad_value, the caller's silence value (ln(log_floor)
    for raw log-mels, 0 for normalized ones)."""
    if target_frames <= 0:
        raise AudioError(f"target_frames must be positive, got {target_frames}")
    if values.shape[0] >= target_frames:
        return values[:target_frames].copy()
    pad = np.full((target_frames - values.shape[0], values.shape[1]), pad_value)
    return np.concatenate([values, pad], axis=0)


def normalize(values: np.ndarray, mean: float, std: float) -> np.ndarray:
    if std <= 0.0:
        raise NumericsError(f"cannot normalize with std={std}")
    return (values - mean) / std


def spectrogram_for_file(path, cfg: MelConfig) -> np.ndarray:
    """Log-mel of a whole WAV file read at cfg.target_rate: the training features."""
    return log_mel_spectrogram(load_wav(path, cfg.target_rate), cfg)


# - Dataset manifest -


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    label: int | None = None
    split: str | None = None


@dataclass
class DatasetManifest:
    """CSV-backed file list: columns path,label,split; relative paths resolve
    against `root` (the directory the CSV lives in)."""

    entries: list[ManifestEntry] = field(default_factory=list)
    root: Path = field(default_factory=lambda: Path("."))

    def __len__(self) -> int:
        return len(self.entries)

    def resolve(self, entry: ManifestEntry) -> Path:
        p = Path(entry.path)
        return p if p.is_absolute() else self.root / p

    def labels(self) -> np.ndarray:
        missing = [e.path for e in self.entries if e.label is None]
        if missing:
            raise DataError(f"entries without labels: {missing[:3]}")
        return np.array([e.label for e in self.entries], dtype=np.intp)


def load_manifest(path) -> DatasetManifest:
    path = Path(path)
    if not path.exists():
        raise DataError(f"manifest not found: {path}")
    entries = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["path", "label", "split"]:
            raise DataError(f"{path}: expected header path,label,split, got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise DataError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
            raw_path, raw_label, raw_split = row
            if not raw_path:
                raise DataError(f"{path}:{lineno}: empty path")
            if raw_label == "":
                label = None
            else:
                try:
                    label = int(raw_label)
                except ValueError:
                    label = None
                if label not in (0, 1):
                    raise DataError(f"{path}:{lineno}: label must be 0 or 1, got {raw_label!r}")
            entries.append(ManifestEntry(path=raw_path, label=label, split=raw_split or None))
    paths = [e.path for e in entries]
    if len(set(paths)) != len(paths):
        raise DataError(f"{path}: duplicate entry paths")
    return DatasetManifest(entries=entries, root=path.parent)


def save_manifest(manifest: DatasetManifest, path) -> None:
    paths = [e.path for e in manifest.entries]
    if len(set(paths)) != len(paths):
        raise DataError("duplicate entry paths in manifest")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["path", "label", "split"])
        for e in manifest.entries:
            writer.writerow([e.path, "" if e.label is None else e.label, e.split or ""])


# - Dataset statistics -


@dataclass(frozen=True)
class DatasetStats:
    mean: float
    std: float

    @property
    def degenerate(self) -> bool:
        """All cells equal: no std to normalize by."""
        return self.std == 0.0


def dataset_stats(manifest: DatasetManifest, cfg: MelConfig) -> DatasetStats:
    """Population mean/std over every spectrogram cell in the manifest."""
    return stats_from_values({e.path: spectrogram_for_file(manifest.resolve(e), cfg)
                              for e in manifest.entries})


def stats_from_values(values: dict[str, np.ndarray]) -> DatasetStats:
    """Population mean/std over spectrogram values keyed by manifest path.

    Arrays are reduced in sorted-path order, so the bits do not depend on
    manifest ordering. An all-equal dataset is degenerate.
    """
    if not values:
        raise DataError("stats over an empty collection")
    flat = np.concatenate([values[path].ravel() for path in sorted(values)])
    return DatasetStats(mean=float(flat.mean()), std=float(flat.std()))


# - Synthetic corpus -


@dataclass(frozen=True)
class SynthSpec:
    """Two-class burst-noise corpus; classes differ by high/low band energy ratio.

    declared_margin is the promised separation (natural-log units) between
    the class means of (mean high-band log energy - mean low-band log energy).
    """

    duration: float = 1.0
    sample_rate: int = 16000
    low_band: tuple[float, float] = (300.0, 1200.0)
    high_band: tuple[float, float] = (1800.0, 4000.0)
    class_high_fraction: tuple[float, float] = (0.12, 0.88)
    fraction_jitter: float = 0.03
    bursts_range: tuple[int, int] = (1, 3)
    burst_length_range: tuple[float, float] = (0.08, 0.20)
    noise_amplitude: float = 3e-4
    gain_jitter_db: float = 6.0
    declared_margin: float = 2.0


def _band_noise(rng: np.random.Generator, n: int, band: tuple[float, float], rate: int) -> np.ndarray:
    """White noise band-limited by FFT masking, scaled to unit RMS."""
    noise = rng.standard_normal(n)
    spectrum = np.fft.rfft(noise)
    freqs = np.fft.rfftfreq(n, 1.0 / rate)
    spectrum[(freqs < band[0]) | (freqs > band[1])] = 0.0
    shaped = np.fft.irfft(spectrum, n=n)
    rms = np.sqrt(np.mean(shaped ** 2))
    if rms == 0.0:
        raise NumericsError("band noise collapsed to silence")
    return shaped / rms


def _synth_sample(rng: np.random.Generator, label: int, spec: SynthSpec) -> Waveform:
    rate = spec.sample_rate
    n = int(round(spec.duration * rate))
    samples = rng.standard_normal(n) * spec.noise_amplitude
    n_bursts = int(rng.integers(spec.bursts_range[0], spec.bursts_range[1] + 1))
    for _ in range(n_bursts):
        length = int(round(rng.uniform(*spec.burst_length_range) * rate))
        start = int(rng.uniform(0.02, spec.duration - spec.burst_length_range[1] - 0.02) * rate)
        frac = float(np.clip(spec.class_high_fraction[label] + rng.normal(0.0, spec.fraction_jitter),
                             0.02, 0.98))
        low = _band_noise(rng, length, spec.low_band, rate)
        high = _band_noise(rng, length, spec.high_band, rate)
        burst = (1.0 - frac) * low + frac * high
        attack = max(1, int(0.005 * rate))
        envelope = np.exp(-np.arange(length) / (0.25 * length))
        envelope[:attack] *= np.linspace(0.0, 1.0, attack)
        amplitude = 10.0 ** (rng.uniform(-14.0, -7.0) / 20.0)
        samples[start:start + length] += amplitude * envelope * burst
    gain = 10.0 ** (rng.uniform(-spec.gain_jitter_db, 0.0) / 20.0)
    return Waveform(samples=np.clip(samples * gain, -0.999, 0.999), sample_rate=rate)


def synth_dataset(out_dir, n_samples: int, seed: int,
                  spec: SynthSpec = SynthSpec()) -> DatasetManifest:
    """Write a balanced labelled WAV corpus plus manifest.csv into out_dir.

    Sample i is drawn from its own (seed, label-independent) stream, so the
    same seed reproduces identical bytes regardless of corpus size.
    """
    if n_samples < 2 or n_samples % 2 != 0:
        raise DataError(f"need an even n_samples >= 2 for balanced classes, got {n_samples}")
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write_probe"
        probe.write_bytes(b"")
        probe.unlink()
    except OSError as exc:
        raise DataError(f"output directory not writable: {out_dir}: {exc}") from None
    entries = []
    for i in range(n_samples):
        label = i % 2
        rng = seeded_rng(seed, f"synth.{i:05d}")
        wave = _synth_sample(rng, label, spec)
        name = f"sample{i:04d}_c{label}.wav"
        save_wav(out_dir / name, wave)
        entries.append(ManifestEntry(path=name, label=label, split=None))
    manifest = DatasetManifest(entries=entries, root=out_dir)
    save_manifest(manifest, out_dir / "manifest.csv")
    return manifest

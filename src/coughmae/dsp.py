"""Audio front end: WAV decoding, resampling, log-mel features, dataset plumbing.

The feature chain is load -> resample to the target rate -> log-mel
spectrogram; spectrograms are float64 (time, mel) grids. Everything here is
deterministic, and the synthetic corpus generator is reproducible down to
the output bytes for a fixed seed.
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
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


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


@dataclass
class MelSpectrogram:
    """(frames, mel bins) grid of natural-log energies."""

    values: np.ndarray
    normalized: bool = False


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


def _read_wav(path) -> tuple[int, np.ndarray]:
    """(rate, samples) of a RIFF/WAVE file, shaped (n,) or (n, channels).

    Chunks before `data` other than `fmt ` are skipped, odd-sized ones
    with their pad byte; nothing after `data` is read. A chunk that claims
    more bytes than the file holds is an error before anything is allocated.
    """
    try:
        with open(path, "rb") as fh:
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
                    raw = bytearray(size)
                    fh.readinto(raw)
                    rate, *layout = fmt
                    return rate, _decode_pcm(raw, *layout, path)
                else:
                    fh.seek(size, 1)
                if size & 1:
                    fh.seek(1, 1)
    except OSError as exc:
        raise AudioError(f"cannot read audio file: {path}: {exc.strerror or exc}") from None


def load_wav(path) -> Waveform:
    """Decode a RIFF/WAVE file, mixing to mono.

    Reads PCM at 8 (unsigned), 16, 24 and 32 bits and IEEE float at 32 and
    64 bits, as plain or WAVE_FORMAT_EXTENSIBLE headers, any channel count.
    Integer samples map to [-1, 1) by dividing by the type's full scale;
    float samples are clipped into [-1, 1], and a NaN or infinite float
    sample is an AudioError. Multichannel input is averaged. Every failure
    is an AudioError that names the file.
    """
    rate, data = _read_wav(path)
    if data.size == 0:
        raise AudioError(f"zero-length audio: {path}")
    if data.dtype in _INT_SCALE:
        samples = data.astype(np.float64) / _INT_SCALE[data.dtype]
    elif data.dtype == np.uint8:
        samples = (data.astype(np.float64) - 128.0) / 128.0
    else:
        if not np.isfinite(data).all():
            raise AudioError(f"non-finite samples in {path}")
        samples = np.clip(data.astype(np.float64), -1.0, 1.0)
    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    return Waveform(samples=samples, sample_rate=int(rate))


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

# Output rows computed per matrix product, bounding the window copy it may make.
_RESAMPLE_BLOCK = 4096


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


def resample(wave: Waveform, target_rate: int) -> Waveform:
    """Polyphase windowed-sinc resampling to target_rate.

    Output length is round(n * target / source), so duration is preserved
    to within one sample period. Equal rates return `wave` itself, sharing
    its samples. Otherwise output sample i is the kernel centred on input
    time i * source / target: conceptually zero-stuff by `up`, filter and
    keep every `down`-th sample, but each output only touches the kernel
    taps of its own phase, so no upsampled signal is ever built.
    """
    if target_rate <= 0:
        raise AudioError(f"bad target rate {target_rate}")
    src = wave.sample_rate
    if src == target_rate:
        return wave
    g = math.gcd(src, target_rate)
    up, down = target_rate // g, src // g
    kernel = _resample_kernel(up, down)
    half = (len(kernel) - 1) // 2
    n_in = len(wave.samples)
    n_out = int(round(n_in * target_rate / src))
    # Phase p holds taps kernel[p], kernel[p + up], ...; reversed, so a
    # forward window of the input lines up with them.
    taps = -(-len(kernel) // up)
    bank = np.zeros(taps * up)
    bank[:len(kernel)] = kernel
    bank = np.ascontiguousarray(bank.reshape(taps, up).T[:, ::-1])
    # Output i sits at upsampled time t = half + i * down: phase t % up, and
    # its window ends at input t // up, i.e. starts at padded index t // up.
    last = (half + max(n_out - 1, 0) * down) // up
    padded = np.zeros(taps - 1 + max(n_in, last + 1))
    padded[taps - 1:taps - 1 + n_in] = wave.samples
    windows = np.lib.stride_tricks.sliding_window_view(padded, taps)
    out = np.empty(n_out)
    for i0 in range(min(up, n_out)):
        t0 = half + i0 * down
        rows = windows[t0 // up::down][:len(range(i0, n_out, up))]
        dest = out[i0::up]
        for b in range(0, len(rows), _RESAMPLE_BLOCK):
            dest[b:b + _RESAMPLE_BLOCK] = rows[b:b + _RESAMPLE_BLOCK] @ bank[t0 % up]
    return Waveform(samples=out, sample_rate=target_rate)


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


def mel_filter_centers(cfg: MelConfig) -> np.ndarray:
    """Center frequency (Hz) of each triangular filter."""
    pts = np.linspace(mel_scale(cfg.mel_fmin), mel_scale(cfg.mel_fmax), cfg.n_mels + 2)
    return mel_inverse(pts)[1:-1]


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


def log_mel_spectrogram(wave: Waveform, cfg: MelConfig) -> MelSpectrogram:
    """Hann-windowed power spectrum projected on the mel bank, natural log.

    Only fully contained frames are used (no center padding), so delaying
    the input by exactly k hops shifts the frame grid by k rows. The log
    floor keeps silence finite at ln(log_floor).
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
    return MelSpectrogram(values=np.log(mel_energy + cfg.log_floor), normalized=False)


def fit_length(spec: MelSpectrogram, target_frames: int, log_floor: float = 1e-10) -> MelSpectrogram:
    """Crop or right-pad the time axis to exactly target_frames rows.

    Padding uses the silence value: ln(log_floor) for raw spectrograms,
    0 for normalized ones.
    """
    if target_frames <= 0:
        raise AudioError(f"target_frames must be positive, got {target_frames}")
    values = spec.values
    if values.shape[0] >= target_frames:
        out = values[:target_frames].copy()
    else:
        pad_value = 0.0 if spec.normalized else math.log(log_floor)
        pad = np.full((target_frames - values.shape[0], values.shape[1]), pad_value)
        out = np.concatenate([values, pad], axis=0)
    return MelSpectrogram(values=out, normalized=spec.normalized)


def normalize(spec: MelSpectrogram, mean: float, std: float) -> MelSpectrogram:
    if std <= 0.0:
        raise NumericsError(f"cannot normalize with std={std}")
    if spec.normalized:
        raise NumericsError("spectrogram is already normalized")
    return MelSpectrogram(values=(spec.values - mean) / std, normalized=True)


def spectrogram_for_file(path, cfg: MelConfig) -> MelSpectrogram:
    """load -> resample -> log-mel, the standard feature chain for one file."""
    wave = load_wav(path)
    wave = resample(wave, cfg.target_rate)
    return log_mel_spectrogram(wave, cfg)


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
                    raise DataError(f"{path}:{lineno}: label must be an integer, got {raw_label!r}") from None
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
    degenerate: bool = False


def dataset_stats(manifest: DatasetManifest, cfg: MelConfig) -> DatasetStats:
    """Population mean/std over every spectrogram cell in the manifest."""
    return stats_from_values({e.path: spectrogram_for_file(manifest.resolve(e), cfg).values
                              for e in manifest.entries})


def stats_from_values(values: dict[str, np.ndarray]) -> DatasetStats:
    """Population mean/std over spectrogram values keyed by manifest path.

    Arrays are reduced in sorted-path order, so the bits do not depend on
    manifest ordering. An all-equal dataset is flagged degenerate.
    """
    if not values:
        raise DataError("stats over an empty collection")
    flat = np.concatenate([values[path].ravel() for path in sorted(values)])
    mean = float(flat.mean())
    std = float(flat.std())
    return DatasetStats(mean=mean, std=std, degenerate=(std == 0.0))


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


def band_energy_ratios(manifest: DatasetManifest, mel_cfg: MelConfig,
                       spec: SynthSpec) -> dict[int, float]:
    """Per-class mean of (high-band minus low-band) mean log energy.

    This is the declared spectral property separating the synthetic classes;
    tests check the gap against spec.declared_margin.
    """
    centers = mel_filter_centers(mel_cfg)
    low_bins = (centers >= spec.low_band[0]) & (centers <= spec.low_band[1])
    high_bins = (centers >= spec.high_band[0]) & (centers <= spec.high_band[1])
    if not low_bins.any() or not high_bins.any():
        raise DataError("mel bank does not cover the declared bands")
    ratios: dict[int, list[float]] = {}
    for entry in manifest.entries:
        mel = spectrogram_for_file(manifest.resolve(entry), mel_cfg)
        value = float(mel.values[:, high_bins].mean() - mel.values[:, low_bins].mean())
        ratios.setdefault(entry.label, []).append(value)
    return {label: float(np.mean(vals)) for label, vals in ratios.items()}

"""Audio loading, resampling, log-mel extraction, statistics, synthesis."""
import math
import struct
import wave as wavemod

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coughmae.dsp import (DatasetManifest, DatasetStats, ManifestEntry, MelConfig,
                          SynthSpec, Waveform, WavStream, _decode_pcm,
                          _piece_span, _resample_kernel, _walk_wav, dataset_stats,
                          fit_length, frame_count, load_manifest, load_wav,
                          log_mel_spectrogram, mel_filterbank, mel_inverse, mel_scale, normalize,
                          save_manifest, save_wav, spectrogram_for_file,
                          stats_from_values, synth_dataset)
from coughmae.errors import AudioError, DataError, NumericsError

CFG = MelConfig()


def mel_filter_centers(cfg: MelConfig) -> np.ndarray:
    """Center frequency (Hz) of each triangular filter, computed apart from
    mel_filterbank as a reference for it."""
    pts = np.linspace(mel_scale(cfg.mel_fmin), mel_scale(cfg.mel_fmax), cfg.n_mels + 2)
    return mel_inverse(pts)[1:-1]


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
        value = float(mel[:, high_bins].mean() - mel[:, low_bins].mean())
        ratios.setdefault(entry.label, []).append(value)
    return {label: float(np.mean(vals)) for label, vals in ratios.items()}


def write_pcm16(path, samples, rate=16000, channels=1):
    with wavemod.open(str(path), "wb") as fh:
        fh.setnchannels(channels)
        fh.setsampwidth(2)
        fh.setframerate(rate)
        fh.writeframes(np.asarray(samples, dtype="<i2").tobytes())


# - WAV I/O -


def test_load_wav_int16_full_scale(tmp_path):
    p = tmp_path / "a.wav"
    write_pcm16(p, [0, 32767, -32768])
    w = load_wav(p)
    assert w.sample_rate == 16000
    assert w.samples[0] == 0.0
    assert w.samples[1] == pytest.approx(32767 / 32768, abs=1e-12)
    assert w.samples[2] == -1.0


def test_load_wav_stereo_mixes_to_mono(tmp_path):
    p = tmp_path / "st.wav"
    # interleaved L/R: left near full scale, right silent
    write_pcm16(p, [32767, 0, 32767, 0], channels=2)
    w = load_wav(p)
    assert w.samples.shape == (2,)
    assert np.allclose(w.samples, 0.5, atol=2e-5)


def test_load_wav_empty_errors(tmp_path):
    p = tmp_path / "empty.wav"
    write_pcm16(p, [])
    with pytest.raises(AudioError):
        load_wav(p)


def test_load_wav_rejects_non_finite_float_samples(tmp_path):
    from scipy.io import wavfile
    for bad in (np.nan, np.inf):
        p = tmp_path / "bad.wav"
        data = np.zeros(400, dtype=np.float32)
        data[7] = bad
        wavfile.write(str(p), 16000, data)
        with pytest.raises(AudioError, match="bad.wav"):
            load_wav(p)


def test_load_wav_missing_file():
    with pytest.raises(AudioError):
        load_wav("/nonexistent/nothing.wav")


def test_save_load_roundtrip_quantized(tmp_path):
    p = tmp_path / "r.wav"
    x = np.linspace(-1, 1, 777)
    save_wav(p, Waveform(x, 16000))
    back = load_wav(p)
    assert back.samples.shape == x.shape
    # half-step rounding plus the 32767/32768 write/read scale asymmetry
    assert np.max(np.abs(back.samples - x)) < 5e-5


def test_save_wav_deterministic_bytes(tmp_path):
    x = np.sin(np.linspace(0, 20, 4000))
    save_wav(tmp_path / "a.wav", Waveform(x, 16000))
    save_wav(tmp_path / "b.wav", Waveform(x, 16000))
    assert (tmp_path / "a.wav").read_bytes() == (tmp_path / "b.wav").read_bytes()


# - WAV codec against scipy.io.wavfile -

GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def riff(chunks: list[tuple[bytes, bytes]]) -> bytes:
    """RIFF/WAVE bytes from (id, body) chunks, odd bodies padded."""
    body = b"".join(cid + struct.pack("<I", len(data)) + data + b"\x00" * (len(data) & 1)
                    for cid, data in chunks)
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


def fmt_body(tag: int, channels: int, rate: int, width: int, bits: int,
             extensible: bool = False) -> bytes:
    align = channels * width
    head = struct.pack("<HHIIHH", 0xFFFE if extensible else tag, channels, rate,
                       rate * align, align, bits)
    if not extensible:
        return head
    return head + struct.pack("<HHI", 22, bits, 0) + struct.pack("<I", tag) + GUID_TAIL


def pcm_bytes(values: np.ndarray, width: int) -> bytes:
    """Little-endian packing; 24-bit keeps the low three bytes of each int32."""
    if width == 3:
        return values.astype("<i4").view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    return values.tobytes()


def read_raw(path) -> tuple[int, np.ndarray]:
    """(rate, samples) of a WAV file as decoded before mixing, shaped (n,) or
    (n, channels): the arrays scipy.io.wavfile.read returns."""
    with open(path, "rb") as fh:
        (rate, *layout), size = _walk_wav(fh, path)
        raw = bytearray(fh.read(size))
    return rate, _decode_pcm(raw, *layout, path)


def wav_cases():
    rng = np.random.default_rng(11)
    u8 = rng.integers(0, 256, size=(57, 2)).astype(np.uint8)
    i16 = rng.integers(-32768, 32768, size=57).astype("<i2")
    i24 = rng.integers(-2 ** 23, 2 ** 23, size=(57, 3)).astype("<i4")
    i32 = rng.integers(-2 ** 31, 2 ** 31, size=57).astype("<i4")
    f32 = rng.uniform(-1, 1, size=(57, 2)).astype("<f4")
    f64 = rng.uniform(-1, 1, size=57).astype("<f8")
    # (label, tag, width, bits, samples, extensible, extra chunks before data)
    return [
        ("pcm8_stereo", 1, 1, 8, u8, False, []),
        ("pcm16", 1, 2, 16, i16, False, []),
        ("pcm24_3ch", 1, 3, 24, i24, False, []),
        ("pcm32", 1, 4, 32, i32, False, []),
        ("float32_stereo", 3, 4, 32, f32, False, [(b"fact", struct.pack("<I", 57))]),
        ("float64", 3, 8, 64, f64, False, []),
        ("ext_pcm16", 1, 2, 16, i16, True, []),
        ("ext_pcm24_3ch", 1, 3, 24, i24, True, []),
        ("ext_float32_stereo", 3, 4, 32, f32, True, []),
        ("list_odd_before_data", 1, 2, 16, i16, False,
         [(b"LIST", b"INFOISFT\x03\x00\x00\x00ab\x00"), (b"JUNK", b"\x00" * 5)]),
    ]


@pytest.mark.parametrize("case", wav_cases(), ids=lambda c: c[0])
def test_read_wav_matches_scipy(case, tmp_path):
    from scipy.io import wavfile
    _, tag, width, bits, samples, extensible, extra = case
    channels = 1 if samples.ndim == 1 else samples.shape[1]
    p = tmp_path / "case.wav"
    p.write_bytes(riff([(b"fmt ", fmt_body(tag, channels, 22050, width, bits, extensible)),
                        *extra, (b"data", pcm_bytes(samples, width))]))
    rate, data = read_raw(p)
    ref_rate, ref = wavfile.read(str(p))
    assert rate == ref_rate == 22050
    assert data.dtype == ref.dtype and data.shape == ref.shape
    assert np.array_equal(data, ref)
    mono = load_wav(p).samples
    assert mono.shape == (57,) and np.all(np.abs(mono) <= 1.0)


def test_read_wav_24bit_is_left_justified(tmp_path):
    p = tmp_path / "i24.wav"
    values = np.array([0, 1, -1, 2 ** 23 - 1, -2 ** 23], dtype="<i4")
    p.write_bytes(riff([(b"fmt ", fmt_body(1, 1, 16000, 3, 24)),
                        (b"data", pcm_bytes(values, 3))]))
    _, data = read_raw(p)
    assert data.dtype == np.int32
    assert np.array_equal(data, values * 256)
    assert np.array_equal(load_wav(p).samples, values / 2.0 ** 23)


def test_read_wav_skips_unknown_odd_chunk(tmp_path):
    p = tmp_path / "odd.wav"
    values = np.array([1, -2, 3], dtype="<i2")
    p.write_bytes(riff([(b"abcd", b"xyz"), (b"fmt ", fmt_body(1, 1, 8000, 2, 16)),
                        (b"data", values.tobytes()), (b"LIST", b"trailing")]))
    rate, data = read_raw(p)
    assert rate == 8000 and np.array_equal(data, values)


@pytest.mark.parametrize("n,rate", [(0, 16000), (1, 16000), (777, 16000), (4001, 44100)])
def test_save_wav_bytes_match_scipy(n, rate, tmp_path):
    from scipy.io import wavfile
    x = np.sin(np.linspace(0, 30, n)) * 1.2
    save_wav(tmp_path / "ours.wav", Waveform(x, rate))
    ints = np.round(np.clip(x, -1.0, 1.0) * 32767.0).astype(np.int16)
    wavfile.write(str(tmp_path / "ref.wav"), rate, ints)
    assert (tmp_path / "ours.wav").read_bytes() == (tmp_path / "ref.wav").read_bytes()


# - resampling -


def float_stream(path, x: np.ndarray, rate: int, target_rate: int = 16000) -> WavStream:
    """x written as a 64-bit float WAV at rate, whose samples in [-1, 1] the
    stream decodes unchanged, opened at target_rate."""
    path.write_bytes(riff([(b"fmt ", fmt_body(3, 1, rate, 8, 64)),
                           (b"data", x.astype("<f8").tobytes())]))
    return WavStream(path, target_rate)


@pytest.mark.parametrize("src", [8000, 22050, 44100, 48000])
@pytest.mark.parametrize("n", [1, 7, 1000, 30011])
def test_resample_matches_upfirdn(src, n, tmp_path):
    from scipy.signal import upfirdn
    x = np.random.default_rng(src + n).uniform(-1, 1, n)
    g = math.gcd(src, 16000)
    up, down = 16000 // g, src // g
    kernel = _resample_kernel(up, down)
    start = (len(kernel) - 1) // 2 // down
    n_out = int(round(n * 16000 / src))
    ref = upfirdn(kernel, x, up=up, down=down)[start:start + n_out]
    stream = float_stream(tmp_path / "x.wav", x, src)
    out = stream.read(0, stream.n_samples)
    assert stream.sample_rate == 16000 and out.shape == (n_out,)
    assert np.all(np.abs(out - ref) <= 1e-12)


def test_resample_duration_preserved(tmp_path):
    x = np.random.default_rng(0).normal(size=48000)
    stream = float_stream(tmp_path / "x.wav", x, 48000)
    assert stream.sample_rate == 16000
    assert abs(stream.n_samples - 16000) <= 1


def test_resample_tone_stays_pure(tmp_path):
    rate_in = 44100
    t = np.arange(int(1.5 * rate_in)) / rate_in
    out = float_stream(tmp_path / "tone.wav", 0.8 * np.sin(2 * np.pi * 440.0 * t), rate_in)
    # analyze an interior chunk, away from filter edge transients
    chunk = out.read(4000, 12000) * np.hanning(8000)
    spectrum = np.abs(np.fft.rfft(chunk)) ** 2
    peak = int(np.argmax(spectrum))
    freq = peak * 16000 / 8000
    assert abs(freq - 440.0) <= 16000 / 8000
    side = spectrum.copy()
    side[max(0, peak - 4):peak + 5] = 0.0
    assert side.sum() < 0.01 * spectrum[peak]


# - block-wise reading -


def read_blocks(stream: WavStream, length: int, stride: int) -> list[tuple[int, np.ndarray]]:
    """(start, samples) of overlapping reads [k * stride, k * stride + length)."""
    return [(lo, stream.read(lo, min(lo + length, stream.n_samples)))
            for lo in range(0, stream.n_samples, stride)]


@pytest.mark.parametrize("src", [8000, 16000, 22050, 44100, 48000])
def test_wav_stream_resamples_like_whole_file(src, tmp_path):
    """One whole-file read, which spans several pieces, is within 1e-12 of
    scipy's upfirdn, and every block is bit-identical to the same span of it,
    wherever its boundaries fall, also a few samples either side of each
    piece the stream computes at once."""
    from scipy.signal import upfirdn
    x = np.random.default_rng(src).uniform(-0.9, 0.9, int(12.3 * src))
    p = tmp_path / "long.wav"
    save_wav(p, Waveform(x, src))
    once = WavStream(p, 16000)
    whole = once.read(0, once.n_samples)
    stream = WavStream(p, 16000)
    assert stream.sample_rate == 16000 and stream.n_samples == len(whole)
    assert stream.duration == len(whole) / 16000
    g = math.gcd(src, 16000)
    up, down = 16000 // g, src // g
    span = _piece_span(up)
    if src != 16000:
        assert len(whole) > span                 # piece 1 onwards is checked too
        kernel = _resample_kernel(up, down)
        start = (len(kernel) - 1) // 2 // down
        ref = upfirdn(kernel, load_wav(p).samples, up=up, down=down)[start:start + len(whole)]
        assert np.all(np.abs(whole - ref) <= 1e-12)
    for length, stride in [(26720, 20480), (1000, 700), (100003, 99991), (65536, 65536)]:
        for lo, block in read_blocks(WavStream(p, 16000), length, stride):
            assert block.tobytes() == whole[lo:lo + len(block)].tobytes()
    for edge in range(span, len(whole), span):
        for lo in range(edge - 3, edge + 3, 2):
            assert stream.read(lo, lo + 5).tobytes() == whole[lo:lo + 5].tobytes()


@pytest.mark.parametrize("case", wav_cases(), ids=lambda c: c[0])
def test_wav_stream_decodes_like_load_wav(case, tmp_path):
    _, tag, width, bits, samples, extensible, extra = case
    channels = 1 if samples.ndim == 1 else samples.shape[1]
    p = tmp_path / "case.wav"
    p.write_bytes(riff([(b"fmt ", fmt_body(tag, channels, 22050, width, bits, extensible)),
                        *extra, (b"data", pcm_bytes(samples, width))]))
    whole = load_wav(p).samples
    stream = WavStream(p, 22050)
    assert stream.n_samples == 57
    for lo, block in read_blocks(stream, 10, 7):
        assert block.tobytes() == whole[lo:lo + len(block)].tobytes()


def test_wav_stream_header_errors_before_reading(tmp_path):
    cases = {
        "short.wav": riff([(b"fmt ", fmt_body(1, 1, 16000, 2, 16)),
                           (b"data", bytes(8))])[:-4],
        "empty.wav": riff([(b"fmt ", fmt_body(1, 1, 16000, 2, 16)), (b"data", b"")]),
        "mulaw.wav": riff([(b"fmt ", fmt_body(7, 1, 16000, 1, 8)), (b"data", bytes(8))]),
        "pcm12.wav": riff([(b"fmt ", fmt_body(1, 1, 16000, 3, 32)), (b"data", bytes(9))]),
    }
    for name, body in cases.items():
        (tmp_path / name).write_bytes(body)
        with pytest.raises(AudioError, match=name):
            WavStream(tmp_path / name, 16000)
    with pytest.raises(AudioError, match="nothing.wav"):
        WavStream(tmp_path / "nothing.wav", 16000)


def test_wav_stream_rejects_non_finite_block(tmp_path):
    from scipy.io import wavfile
    data = np.zeros(4000, dtype=np.float32)
    data[3500] = np.nan
    p = tmp_path / "late_nan.wav"
    wavfile.write(str(p), 8000, data)
    stream = WavStream(p, 8000)
    assert np.all(stream.read(0, 3000) == 0.0)
    with pytest.raises(AudioError, match="late_nan.wav"):
        stream.read(3000, 4000)
    resampled = WavStream(p, 16000)         # one piece holds the whole file
    with pytest.raises(AudioError, match="late_nan.wav"):
        resampled.read(0, 100)


# - framing -


def test_frame_count_one_second():
    assert frame_count(16000, CFG) == 98


def test_frame_count_single_frame():
    assert frame_count(400, CFG) == 1


def test_frame_count_short_audio_errors():
    with pytest.raises(AudioError):
        frame_count(399, CFG)


@given(st.integers(2, 600), st.integers(1, 400), st.integers(400, 50000))
def test_frame_count_matches_enumeration(length, hop_raw, n):
    hop = min(hop_raw, length)
    cfg = MelConfig(frame_length=length / 16000, frame_hop=hop / 16000,
                    fft_size=1024)
    if n < length:
        with pytest.raises(AudioError):
            frame_count(n, cfg)
        return
    # brute force: count frame start offsets whose frame fits entirely
    expected = sum(1 for start in range(0, n, hop) if start + length <= n)
    assert frame_count(n, cfg) == expected


# - log-mel -


def test_log_mel_silence():
    spec = log_mel_spectrogram(Waveform(np.zeros(16000), 16000), CFG)
    assert spec.shape == (98, 128) and spec.dtype == np.float64
    assert np.allclose(spec, math.log(1e-10), atol=1e-12)


def test_log_mel_tone_hits_filter_center():
    # filters below ~1.5 kHz are narrower than the window mainlobe, so the
    # exact-argmax property is checked where the triangle dominates the smear
    centers = mel_filter_centers(CFG)
    for idx in (64, 90, 110):
        t = np.arange(16000) / 16000
        tone = 0.5 * np.sin(2 * np.pi * centers[idx] * t)
        spec = log_mel_spectrogram(Waveform(tone, 16000), CFG)
        assert int(np.argmax(spec.mean(axis=0))) == idx


def test_log_mel_always_finite():
    r = np.random.default_rng(1)
    for _ in range(5):
        x = np.clip(r.normal(scale=0.3, size=8000), -1, 1)
        spec = log_mel_spectrogram(Waveform(x, 16000), CFG)
        assert np.all(np.isfinite(spec))


def test_log_mel_wrong_rate_rejected():
    with pytest.raises(AudioError):
        log_mel_spectrogram(Waveform(np.zeros(44100), 44100), CFG)


def test_log_mel_translation_consistency():
    x = np.random.default_rng(2).normal(scale=0.2, size=16000)
    base = log_mel_spectrogram(Waveform(x, 16000), CFG)
    for k in (1, 3):
        delayed = np.concatenate([np.zeros(k * 160), x])
        shifted = log_mel_spectrogram(Waveform(delayed, 16000), CFG)
        assert np.array_equal(shifted[k:k + base.shape[0]], base)


def test_mel_scale_roundtrip():
    freqs = np.array([0.0, 100.0, 440.0, 4000.0, 8000.0])
    assert np.allclose(mel_inverse(mel_scale(freqs)), freqs, rtol=1e-12)


def test_mel_filterbank_geometry():
    fb = mel_filterbank(CFG)
    assert fb.shape == (128, CFG.fft_size // 2 + 1)
    assert np.all(fb >= 0)
    # filter 0 at fmin=0 is narrower than one FFT bin and may be empty
    assert np.all(fb[1:].sum(axis=1) > 0)


def test_mel_filterbank_cached_read_only():
    fb = mel_filterbank(CFG)
    assert mel_filterbank(MelConfig()) is fb
    with pytest.raises(ValueError):
        fb[0, 0] = 1.0
    assert mel_filterbank(MelConfig(n_mels=64)).shape == (64, CFG.fft_size // 2 + 1)


def test_filter_centers_monotone():
    centers = mel_filter_centers(CFG)
    assert centers.shape == (128,)
    assert np.all(np.diff(centers) > 0)


# - fit_length -


def test_fit_length_identity():
    values = np.random.default_rng(3).normal(size=(98, 128))
    out = fit_length(values, 98, 0.0)
    assert np.array_equal(out, values)
    assert not np.shares_memory(out, values)


def test_fit_length_crop_keeps_prefix():
    values = np.random.default_rng(4).normal(size=(98, 128))
    out = fit_length(values, 48, 0.0)
    assert np.array_equal(out, values[:48])
    assert not np.shares_memory(out, values)


def test_fit_length_pad_raw_uses_log_floor():
    values = np.random.default_rng(5).normal(size=(98, 128))
    out = fit_length(values, 112, math.log(CFG.log_floor))
    assert out.shape == (112, 128)
    assert np.array_equal(out[:98], values)
    assert np.all(out[98:] == math.log(1e-10))


def test_fit_length_pad_normalized_uses_zero():
    out = fit_length(np.ones((10, 128)), 12, 0.0)
    assert np.all(out[:10] == 1.0) and np.all(out[10:] == 0.0)


def test_fit_length_rejects_non_positive_target():
    with pytest.raises(AudioError):
        fit_length(np.zeros((4, 2)), 0, 0.0)


# - statistics and normalization -


def test_stats_constant_dataset_degenerate():
    s = stats_from_values({"a.wav": np.full((4, 4), 2.0)})
    assert s.mean == 2.0 and s.std == 0.0 and s.degenerate
    assert s == DatasetStats(mean=2.0, std=0.0)


def test_stats_small_example():
    s = stats_from_values({"a.wav": np.array([[1.0, 2.0], [3.0, 4.0]])})
    assert s.mean == pytest.approx(2.5, rel=1e-15)
    assert s.std == pytest.approx(1.118033988749895, rel=1e-12)
    assert not s.degenerate


def test_stats_duplication_invariance():
    arrays = [np.random.default_rng(6).normal(size=(7, 5)) for _ in range(3)]
    a = stats_from_values({f"a{i}.wav": x for i, x in enumerate(arrays)})
    b = stats_from_values({f"{c}{i}.wav": x for c in "ab" for i, x in enumerate(arrays)})
    assert a.mean == pytest.approx(b.mean, rel=1e-12)
    assert a.std == pytest.approx(b.std, rel=1e-12)


def test_stats_empty_collection_errors():
    with pytest.raises(DataError):
        stats_from_values({})


def test_dataset_stats_order_invariant(tmp_path):
    manifest = synth_dataset(tmp_path, 4, seed=9)
    reversed_manifest = DatasetManifest(list(reversed(manifest.entries)),
                                        root=manifest.root)
    a = dataset_stats(manifest, CFG)
    b = dataset_stats(reversed_manifest, CFG)
    assert a.mean == b.mean and a.std == b.std


def test_normalize_identity_params():
    values = np.array([[0.0, 1.0]])
    assert np.array_equal(normalize(values, 0.0, 1.0), values)


def test_normalize_example():
    assert np.array_equal(normalize(np.array([[2.0, 4.0]]), 3.0, 1.0), [[-1.0, 1.0]])


def test_normalize_bad_std_errors():
    with pytest.raises(NumericsError):
        normalize(np.array([[1.0]]), 0.0, 0.0)


def test_normalize_values_exact():
    values = np.random.default_rng(7).normal(loc=-5, scale=4, size=(20, 30))
    out = normalize(values, -5.0, 4.0)
    assert out.tobytes() == ((values - -5.0) / 4.0).tobytes()


# - synthetic corpus -


def test_synth_balanced_and_complete(tmp_path):
    manifest = synth_dataset(tmp_path, 8, seed=7)
    assert len(manifest.entries) == 8
    labels = manifest.labels()
    assert (labels == 0).sum() == 4 and (labels == 1).sum() == 4
    for e in manifest.entries:
        assert manifest.resolve(e).exists()


def test_synth_deterministic_bytes(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    ma = synth_dataset(a_dir, 6, seed=21)
    mb = synth_dataset(b_dir, 6, seed=21)
    for ea, eb in zip(ma.entries, mb.entries):
        assert ea.path == eb.path and ea.label == eb.label
        assert ma.resolve(ea).read_bytes() == mb.resolve(eb).read_bytes()


def test_synth_odd_count_rejected(tmp_path):
    with pytest.raises(DataError):
        synth_dataset(tmp_path, 7, seed=0)


def test_synth_classes_separated_by_declared_margin(tmp_path):
    spec = SynthSpec()
    manifest = synth_dataset(tmp_path, 16, seed=5, spec=spec)
    ratios = band_energy_ratios(manifest, CFG, spec)
    assert ratios[1] - ratios[0] >= spec.declared_margin


# - manifests -


def test_manifest_roundtrip(tmp_path):
    entries = [
        ManifestEntry(path="x/a.wav", label=0, split="train"),
        ManifestEntry(path="x/b.wav", label=1, split="val"),
        ManifestEntry(path="x/c.wav", label=None, split=None),
    ]
    p = tmp_path / "m.csv"
    save_manifest(DatasetManifest(entries, root=tmp_path), p)
    back = load_manifest(p)
    assert [e.path for e in back.entries] == [e.path for e in entries]
    assert [e.label for e in back.entries] == [0, 1, None]
    assert [e.split for e in back.entries] == ["train", "val", None]


def test_manifest_duplicate_paths_rejected(tmp_path):
    entries = [ManifestEntry(path="a.wav", label=0),
               ManifestEntry(path="a.wav", label=1)]
    with pytest.raises(DataError):
        save_manifest(DatasetManifest(entries, root=tmp_path), tmp_path / "m.csv")


def test_manifest_bad_label_line_reported(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("path,label,split\na.wav,zebra,train\n")
    with pytest.raises(DataError, match="label"):
        load_manifest(p)


def test_manifest_missing_file_errors():
    with pytest.raises(DataError):
        load_manifest("/nonexistent/m.csv")


def test_labels_require_all_entries_labelled(tmp_path):
    m = DatasetManifest([ManifestEntry(path="a.wav")], root=tmp_path)
    with pytest.raises(DataError):
        m.labels()


# - config validation -


def test_mel_config_rejects_bad_band():
    with pytest.raises(AudioError):
        MelConfig(mel_fmax=9000.0)


def test_mel_config_rejects_frame_longer_than_fft():
    with pytest.raises(AudioError):
        MelConfig(frame_length=0.04, fft_size=512)


def test_waveform_rejects_stereo_array():
    with pytest.raises(AudioError):
        Waveform(np.zeros((100, 2)), 16000)

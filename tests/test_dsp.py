"""Signal-chain tests: resampling, segmentation, STFT, mel features, archives.

The STFT is checked against an explicit DFT-matrix implementation and the
mel geometry against a from-scratch formula evaluation, so the production
vectorized code never validates itself.
"""

import math
import struct
from dataclasses import replace

import numpy as np
import pytest

from sonarprep.wavio import Waveform
from sonarprep.dsp import (DEFAULT_FEATURE_CONFIG, LOG_FLOOR, ArchiveFormatError,
                           ConfigMismatchError, DegenerateBandError,
                           DimensionMismatchError, FeatureConfig,
                           InvalidRateError, NonPositiveResultError,
                           features_for_segment, frame_count,
                           hz_to_mel, log_mel,
                           mel_filterbank, mel_to_hz, read_feature_archive,
                           resample, resample_signal, scale_config, segment,
                           stft_power, write_feature_archive)
from sonarprep.dsp import _band_plan, _phase_bank


class TestResample:
    def test_equal_rates_returns_same_object(self):
        w = Waveform(samples=np.ones(100), rate=8000)
        assert resample(w, 8000) is w

    @pytest.mark.parametrize("n,src,dst", [
        (160000, 32000, 8000), (160000, 32000, 16000), (12345, 44100, 8000),
        (999, 8000, 32000), (7, 3, 5), (100, 48000, 44100),
    ])
    def test_output_length_is_rounded_ratio(self, n, src, dst):
        y = resample_signal(np.zeros(n), src, dst)
        assert len(y) == round(n * dst / src)

    def test_constant_signal_preserved_away_from_edges(self):
        y = resample_signal(np.full(20000, 0.5), 44100, 16000)
        interior = y[400:-400]
        np.testing.assert_allclose(interior, 0.5, atol=1e-12)

    def test_tone_amplitude_after_decimation(self):
        rate = 32000
        t = np.arange(rate * 2) / rate
        x = np.sin(2 * np.pi * 440 * t)
        y = resample_signal(x, rate, 8000)
        peak = np.abs(y[1000:-1000]).max()
        assert abs(peak - 1.0) < 0.01

    def test_tone_round_trip(self):
        rate = 32000
        t = np.arange(rate) / rate
        x = np.sin(2 * np.pi * 1000 * t)
        y = resample_signal(resample_signal(x, rate, 16000), 16000, rate)
        mid = slice(2000, len(y) - 2000)
        assert np.abs(y[mid] - x[mid]).max() < 1e-4

    def test_upsample_interpolates_tone(self):
        rate = 8000
        t = np.arange(rate) / rate
        x = np.sin(2 * np.pi * 440 * t)
        y = resample_signal(x, rate, 32000)
        t4 = np.arange(len(y)) / 32000
        ref = np.sin(2 * np.pi * 440 * t4)
        mid = slice(2000, len(y) - 2000)
        assert np.abs(y[mid] - ref[mid]).max() < 1e-3

    def test_out_of_band_tone_is_attenuated(self):
        rate = 32000
        t = np.arange(rate) / rate
        x = np.sin(2 * np.pi * 6000 * t)  # above 4 kHz Nyquist of target
        y = resample_signal(x, rate, 8000)
        assert np.abs(y[500:-500]).max() < 0.02

    @pytest.mark.parametrize("src,dst,n", [
        (441, 160, 600), (441, 80, 600), (441, 320, 600),
        (160, 147, 120),  # fewer outputs than filter phases
        (1, 4, 300), (3, 5, 300), (4, 1, 600), (441, 20, 3000),
    ])
    def test_matches_direct_windowed_sinc_sum(self, src, dst, n):
        # output j sits at input time j * src / dst; it sums the input samples
        # within 64 zero crossings of the cutoff, weighted by a Kaiser-windowed
        # sinc (beta 8.555) normalized to unit DC gain
        x = np.random.default_rng(7).standard_normal(n)
        scale = min(1.0, dst / src)
        half_t = 64 / scale
        half = math.ceil(half_t)
        expected = []
        for j in range(round(n * dst / src)):
            anchor, phase = divmod(j * src, dst)
            taps = np.arange(anchor - half, anchor + half + 1)
            t = phase / dst - (taps - anchor)
            u = np.clip(t / half_t, -1.0, 1.0)
            kaiser = np.where(np.abs(t) <= half_t,
                              np.i0(8.555 * np.sqrt(1.0 - u ** 2)) / np.i0(8.555), 0.0)
            h = scale * np.sinc(scale * t) * kaiser
            inside = (taps >= 0) & (taps < n)
            expected.append(x[taps[inside]] @ h[inside] / h.sum())
        np.testing.assert_allclose(resample_signal(x, src, dst), expected,
                                   rtol=0, atol=1e-12)

    def test_filter_bank_is_designed_once_per_ratio_and_read_only(self):
        x = np.random.default_rng(3).standard_normal(500)
        first = resample_signal(x, 44100, 16000)
        plan = _band_plan(160, 441)
        assert _band_plan(160, 441) is plan
        for *_, band in plan[3]:
            with pytest.raises(ValueError):
                band[0, 0] = 0.0
        assert resample_signal(x, 44100, 16000).tobytes() == first.tobytes()

    @pytest.mark.parametrize("up,down", [
        (160, 441), (80, 441), (320, 441), (147, 160), (4, 1), (5, 3), (1, 4),
        (20, 441), (16000, 26367),
    ])
    def test_cached_band_matrices_stay_small(self, up, down):
        # under twice the phase bank, or 2 MB where widened blocks need it
        cached = sum(band.nbytes for *_, band in _band_plan(up, down)[3])
        assert cached <= max(2 * _phase_bank(up, down).nbytes, 2_000_000)

    def test_invalid_rates(self):
        w = Waveform(samples=np.ones(10), rate=8000)
        with pytest.raises(InvalidRateError):
            resample(w, 0)
        with pytest.raises(InvalidRateError):
            resample(w, -5)


class TestSegment:
    def test_exact_split_and_values(self):
        x = np.arange(30.0)
        w = Waveform(samples=x, rate=10)
        segs = segment(w, 1.0)
        assert [len(s) for s in segs] == [10, 10, 10]
        np.testing.assert_array_equal(segs[1], x[10:20])
        assert np.shares_memory(segs, x)

    def test_trailing_partial_dropped(self):
        w = Waveform(samples=np.arange(25.0), rate=10)
        segs = segment(w, 1.0)
        assert len(segs) == 2

    def test_shorter_than_segment_yields_nothing(self):
        w = Waveform(samples=np.arange(5.0), rate=10)
        assert segment(w, 1.0).shape == (0, 10)

    def test_non_integer_samples_per_segment_rejected(self):
        w = Waveform(samples=np.arange(100.0), rate=3)
        with pytest.raises(ValueError):
            segment(w, 0.5)  # 1.5 samples


class TestConfigScaling:
    def test_base_config_values(self):
        cfg = DEFAULT_FEATURE_CONFIG
        assert (cfg.model_rate, cfg.win_length, cfg.hop_length) == (32000, 1024, 320)
        assert (cfg.n_mels, cfg.f_min, cfg.f_max) == (64, 50.0, 14000.0)

    def test_half_and_quarter_rates(self):
        base = DEFAULT_FEATURE_CONFIG
        half = scale_config(base, 16000)
        assert (half.win_length, half.hop_length, half.f_max) == (512, 160, 7000.0)
        quarter = scale_config(base, 8000)
        assert (quarter.win_length, quarter.hop_length, quarter.f_max) == (256, 80, 3500.0)

    def test_identity_scaling(self):
        assert scale_config(DEFAULT_FEATURE_CONFIG, 32000) == DEFAULT_FEATURE_CONFIG

    def test_degenerate_target_rejected(self):
        with pytest.raises(NonPositiveResultError):
            scale_config(DEFAULT_FEATURE_CONFIG, 4)

    def test_odd_window_rejected(self):
        with pytest.raises(ValueError, match="win_length must be even"):
            FeatureConfig(8000, win_length=255, hop_length=80, f_max=3500)

    def test_scaling_to_odd_window_names_model_rate(self):
        base = FeatureConfig(8000, win_length=256, hop_length=80, f_max=3500)
        with pytest.raises(ConfigMismatchError, match="model rate 8100"):
            scale_config(base, 8100)  # 256 * 8100 / 8000 rounds to 259

    def test_five_second_frame_count_invariant(self):
        # 5 s of audio under each scaled config always yields 501 frames
        for rate in (8000, 16000, 32000):
            cfg = scale_config(DEFAULT_FEATURE_CONFIG, rate)
            assert frame_count(5 * rate, cfg.hop_length) == 501

    def test_mismatched_rate_frame_count(self):
        # 5 s at 16 kHz analyzed with the 32 kHz model settings
        assert frame_count(5 * 16000, DEFAULT_FEATURE_CONFIG.hop_length) == 251


def naive_stft_power(x: np.ndarray, cfg: FeatureConfig) -> np.ndarray:
    """Frame-by-frame DFT-matrix reference for the vectorized STFT."""
    win, hop = cfg.win_length, cfg.hop_length
    pad = win // 2
    xp = np.pad(x.astype(np.float64), pad, mode="reflect")
    window = np.hanning(win)
    k = np.arange(win // 2 + 1)[:, None]
    n = np.arange(win)[None, :]
    dft = np.exp(-2j * np.pi * k * n / win)
    frames = []
    for j in range(1 + len(x) // hop):
        seg = xp[j * hop:j * hop + win] * window
        spec = dft @ seg
        frames.append(np.abs(spec) ** 2)
    return np.stack(frames)


class TestStft:
    def test_matches_naive_dft(self):
        cfg = FeatureConfig(8000, win_length=64, hop_length=16, n_mels=8,
                            f_min=50, f_max=3500)
        rng = np.random.default_rng(0)
        x = rng.normal(size=256)
        got = stft_power(x, cfg)
        want = naive_stft_power(x, cfg)
        assert got.shape == want.shape == (17, 33)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_frame_count_five_seconds_at_32k(self):
        x = np.zeros(160000)
        p = stft_power(x, DEFAULT_FEATURE_CONFIG)
        assert p.shape == (501, 513)

    def test_signal_too_short_to_pad(self):
        cfg = FeatureConfig(8000, win_length=64, hop_length=16, n_mels=8,
                            f_min=50, f_max=3500)
        with pytest.raises(ConfigMismatchError):
            stft_power(np.zeros(16), cfg)


def reference_mel_points(f_min: float, f_max: float, n_mels: int) -> list:
    def to_mel(f):
        return 2595.0 * math.log10(1.0 + f / 700.0)

    def from_mel(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    lo, hi = to_mel(f_min), to_mel(f_max)
    return [from_mel(lo + i * (hi - lo) / (n_mels + 1)) for i in range(n_mels + 2)]


class TestMel:
    def test_scale_round_trip(self):
        f = np.array([0.0, 50.0, 700.0, 3500.0, 14000.0])
        np.testing.assert_allclose(mel_to_hz(hz_to_mel(f)), f, rtol=1e-12)

    def test_known_anchor(self):
        # 1 kHz sits near mel 999.99 under the 2595 log-10 form
        assert hz_to_mel(1000.0) == pytest.approx(2595.0 * math.log10(1 + 1000 / 700))

    def test_every_filter_peaks_at_one(self):
        for cfg in (DEFAULT_FEATURE_CONFIG,
                    scale_config(DEFAULT_FEATURE_CONFIG, 16000),
                    scale_config(DEFAULT_FEATURE_CONFIG, 8000)):
            fb = mel_filterbank(cfg, cfg.model_rate)
            assert fb.shape == (cfg.win_length // 2 + 1, cfg.n_mels)
            np.testing.assert_array_equal(fb.max(axis=0), np.ones(cfg.n_mels))

    def test_filter_peak_lands_near_center(self):
        cfg = DEFAULT_FEATURE_CONFIG
        fb = mel_filterbank(cfg, cfg.model_rate)
        bin_hz = cfg.model_rate / cfg.win_length
        centers = np.array(reference_mel_points(cfg.f_min, cfg.f_max, cfg.n_mels)[1:-1])
        peak_bins = fb.argmax(axis=0)
        assert np.all(np.abs(peak_bins * bin_hz - centers) <= bin_hz)

    def test_collapsed_band_rejected(self):
        cfg = FeatureConfig(32000, f_min=1000.0, f_max=1000.5, n_mels=64)
        with pytest.raises(DegenerateBandError):
            mel_filterbank(cfg, cfg.model_rate)

    def test_log_floor_applies_to_silence(self):
        cfg = FeatureConfig(8000, win_length=64, hop_length=16, n_mels=8,
                            f_min=50, f_max=3500)
        fb = mel_filterbank(cfg, cfg.model_rate)
        power = np.zeros((4, cfg.win_length // 2 + 1))
        lm = log_mel(power, fb)
        np.testing.assert_array_equal(lm, 10 * np.log10(LOG_FLOOR))

    def test_dimension_mismatch(self):
        cfg = FeatureConfig(8000, win_length=64, hop_length=16, n_mels=8,
                            f_min=50, f_max=3500)
        fb = mel_filterbank(cfg, cfg.model_rate)
        with pytest.raises(DimensionMismatchError):
            log_mel(np.zeros((4, 99)), fb)


class TestEffectiveConfig:
    """The model's feature config applied to samples at another rate:
    ``mel_filterbank(cfg, rate)`` keeps the window and reads the band at
    ``rate``."""

    def test_fmax_clamped_to_data_nyquist(self):
        cfg = DEFAULT_FEATURE_CONFIG
        fb = mel_filterbank(cfg, 16000)
        assert fb.shape == (cfg.win_length // 2 + 1, cfg.n_mels)
        np.testing.assert_array_equal(fb, mel_filterbank(replace(cfg, f_max=8000.0), 16000))

    def test_fmax_untouched_when_below_nyquist(self):
        cfg = DEFAULT_FEATURE_CONFIG
        fb = mel_filterbank(cfg, 32000)
        freqs = np.arange(cfg.win_length // 2 + 1) * 32000 / cfg.win_length
        assert not fb[freqs >= 14000.0].any() and fb[freqs > 13000.0].any()
        assert not np.array_equal(fb, mel_filterbank(replace(cfg, f_max=16000.0), 32000))

    def test_band_collapse_rejected(self):
        with pytest.raises(DegenerateBandError,
                           match="data rate 64 leaves no usable band above f_min=50.0"):
            mel_filterbank(DEFAULT_FEATURE_CONFIG, 64)

    def test_non_positive_rate_rejected(self):
        with pytest.raises(InvalidRateError, match="data rate 0 must be positive"):
            mel_filterbank(DEFAULT_FEATURE_CONFIG, 0)

    def test_mismatched_rate_feature_shape(self):
        # 16 kHz audio through the 32 kHz model settings: 251 frames
        x = np.random.default_rng(0).normal(size=5 * 16000)
        fb = mel_filterbank(DEFAULT_FEATURE_CONFIG, 16000)
        lm = features_for_segment(x, DEFAULT_FEATURE_CONFIG, fb)
        assert lm.shape == (251, 64)

    def test_matched_rate_feature_shape(self):
        x = np.random.default_rng(0).normal(size=5 * 32000)
        fb = mel_filterbank(DEFAULT_FEATURE_CONFIG, 32000)
        lm = features_for_segment(x, DEFAULT_FEATURE_CONFIG, fb)
        assert lm.shape == (501, 64)


def packed_archive(*items, count=None, tail=b""):
    """Hand-packed SPRF1 bytes for (frames, mels, label, float values) items."""
    blob = b"SPRF1" + struct.pack("<I", len(items) if count is None else count)
    for n_frames, n_mels, label, values in items:
        blob += struct.pack("<III", n_frames, n_mels, label)
        blob += struct.pack(f"<{len(values)}f", *values)
    return blob + tail


class TestArchive:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        values = rng.normal(size=(2, 7, 5)).astype(np.float32)
        path = tmp_path / "x.sprf"
        write_feature_archive(path, values, [2, 0])
        back, labels = read_feature_archive(path)
        assert back.dtype == np.float32 and labels.dtype == np.int64
        assert labels.tolist() == [2, 0]
        np.testing.assert_array_equal(back, values)

    def test_golden_bytes(self, tmp_path):
        values = np.arange(12, dtype=np.float32).reshape(2, 3, 2) / 4
        golden = packed_archive((3, 2, 1, values[0].ravel().tolist()),
                                (3, 2, 0, values[1].ravel().tolist()))
        path = tmp_path / "x.sprf"
        write_feature_archive(path, values, [1, 0])
        assert path.read_bytes() == golden
        back, labels = read_feature_archive(path)
        np.testing.assert_array_equal(back, values)
        assert labels.tolist() == [1, 0]

    def test_empty_archive(self, tmp_path):
        path = tmp_path / "x.sprf"
        write_feature_archive(path, np.zeros((0, 3, 2), dtype=np.float32), [])
        assert path.read_bytes() == packed_archive()
        back, labels = read_feature_archive(path)
        assert back.shape[0] == 0 and labels.shape == (0,)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.sprf"
        path.write_bytes(b"NOPE!" + b"\x00" * 16)
        with pytest.raises(ArchiveFormatError, match="x.sprf"):
            read_feature_archive(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "x.sprf"
        write_feature_archive(path, np.ones((1, 4, 4), dtype=np.float32), [1])
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(ArchiveFormatError, match="x.sprf"):
            read_feature_archive(path)

    @pytest.mark.parametrize("blob,problem", [
        (packed_archive((3, 2, 0, [0.0] * 6), (4, 2, 1, [0.0] * 8)), "differ in shape"),
        (packed_archive((4, 2, 0, [0.0] * 8), (3, 2, 1, [0.0] * 6)), "truncated"),
        (packed_archive((3, 2, 0, [0.0] * 6), count=2), "truncated"),
        (packed_archive((3, 2, 0, [0.0] * 6))[:-4], "truncated"),
        (packed_archive((3, 2, 0, [0.0] * 6))[:15], "truncated in a header"),
        (b"SPRF1\x01", "truncated in a header"),
        (packed_archive((3, 2, 0, [0.0] * 6), tail=b"JUNK"), "4 trailing bytes"),
        (packed_archive(tail=b"JUNK"), "4 trailing bytes"),
        (packed_archive((0, 8, 0, []), (0, 8, 1, [])), r"shape \(0, 8\) hold no cells"),
        (packed_archive((5, 0, 0, [])), r"shape \(5, 0\) hold no cells"),
    ], ids=["ragged-grows", "ragged-shrinks", "missing-item", "truncated-item",
            "truncated-header", "no-count", "trailing", "trailing-after-empty",
            "no-frames", "no-mels"])
    def test_malformed_archive_rejected(self, tmp_path, blob, problem):
        path = tmp_path / "x.sprf"
        path.write_bytes(blob)
        with pytest.raises(ArchiveFormatError, match=f"x.sprf: .*{problem}"):
            read_feature_archive(path)

    def test_failed_write_leaves_no_archive(self, tmp_path):
        path = tmp_path / "x.sprf"
        with pytest.raises(struct.error):  # the second label does not fit
            write_feature_archive(path, np.zeros((2, 3, 2)), [0, -1])
        assert not path.exists()
        write_feature_archive(path, np.ones((1, 3, 2)), [1])
        before = path.read_bytes()
        with pytest.raises(struct.error):  # a failed rewrite keeps the earlier file
            write_feature_archive(path, np.zeros((2, 3, 2)), [0, -1])
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["x.sprf"]

    def test_writer_needs_one_label_per_item(self, tmp_path):
        with pytest.raises(ArchiveFormatError):
            write_feature_archive(tmp_path / "x.sprf", np.zeros((2, 3, 2)), [0])

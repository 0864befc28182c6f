"""WAV decoding against the stdlib wave module, plus manifest handling."""

import io
import struct
import wave

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sonarprep.wavio import (PCM16_SCALE, DuplicateRecordingError,
                             MalformedHeaderError, Manifest, ManifestEntry,
                             MissingFieldError, NonFiniteSamplesError,
                             NonPositiveDurationError, TruncatedDataError,
                             UnsupportedEncodingError, load_manifest, parse_wav,
                             write_manifest)


def stdlib_wav_bytes(ints: np.ndarray, rate: int, channels: int = 1) -> bytes:
    buf = io.BytesIO()
    with wave.open(buf, "wb") as fh:
        fh.setnchannels(channels)
        fh.setsampwidth(2)
        fh.setframerate(rate)
        fh.writeframes(ints.astype("<i2").tobytes())
    return buf.getvalue()


def float32_wav_bytes(samples: np.ndarray, rate: int) -> bytes:
    data = samples.astype("<f4").tobytes()
    fmt = struct.pack("<HHIIHH", 3, 1, rate, rate * 4, 4, 32)
    body = (b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(data)) + data)
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


class TestParse:
    def test_pcm16_matches_stdlib_scaling(self):
        ints = np.array([0, 1, -1, 32767, -32768, 12345], dtype=np.int16)
        w = parse_wav(stdlib_wav_bytes(ints, 16000))
        assert w.rate == 16000
        np.testing.assert_array_equal(w.samples, ints / PCM16_SCALE)

    def test_random_pcm16_decodes_to_its_ints(self):
        rng = np.random.default_rng(0)
        ints = rng.integers(-32768, 32768, size=2048).astype(np.int16)
        w = parse_wav(stdlib_wav_bytes(ints, 8000))
        assert w.rate == 8000
        # scaling back must reproduce the original int stream bit for bit
        np.testing.assert_array_equal(w.samples * PCM16_SCALE, ints)

    def test_stereo_downmix_is_channel_mean(self):
        left = np.array([100, -200, 300], dtype=np.int16)
        right = np.array([300, 200, -100], dtype=np.int16)
        interleaved = np.empty(6, dtype=np.int16)
        interleaved[0::2] = left
        interleaved[1::2] = right
        w = parse_wav(stdlib_wav_bytes(interleaved, 44100, channels=2))
        expected = (left / PCM16_SCALE + right / PCM16_SCALE) / 2.0
        np.testing.assert_allclose(w.samples, expected)

    def test_float32_payload(self):
        x = np.array([0.0, 0.5, -0.25, 1.0], dtype=np.float32)
        w = parse_wav(float32_wav_bytes(x, 32000))
        np.testing.assert_array_equal(w.samples, x.astype(np.float64))

    def test_float32_ramp_decodes_within_float32_precision(self):
        x = np.linspace(-1, 1, 64)
        w = parse_wav(float32_wav_bytes(x, 22050))
        assert w.rate == 22050
        np.testing.assert_allclose(w.samples, x, atol=1e-7)

    def test_extra_chunks_are_skipped(self):
        ints = np.array([5, -5], dtype=np.int16)
        blob = stdlib_wav_bytes(ints, 8000)
        # splice a LIST chunk between fmt and data
        fmt_end = blob.index(b"data")
        extra = b"LIST" + struct.pack("<I", 4) + b"info"
        patched = blob[:fmt_end] + extra + blob[fmt_end:]
        patched = patched[:4] + struct.pack("<I", len(patched) - 8) + patched[8:]
        w = parse_wav(patched)
        np.testing.assert_array_equal(w.samples, ints / PCM16_SCALE)

    def test_duration_property(self):
        w = parse_wav(stdlib_wav_bytes(np.zeros(4000, dtype=np.int16), 8000))
        assert w.duration_seconds == pytest.approx(0.5)


class TestParseErrors:
    def test_not_riff(self):
        with pytest.raises(MalformedHeaderError):
            parse_wav(b"OGGS" + b"\x00" * 64)

    def test_truncated_data_chunk(self):
        blob = stdlib_wav_bytes(np.zeros(100, dtype=np.int16), 8000)
        with pytest.raises(TruncatedDataError):
            parse_wav(blob[:-10])

    def test_data_before_fmt(self):
        data = b"\x00\x00"
        fmt = struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
        body = (b"data" + struct.pack("<I", len(data)) + data
                + b"fmt " + struct.pack("<I", len(fmt)) + fmt)
        blob = b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body
        with pytest.raises(MalformedHeaderError):
            parse_wav(blob)

    def test_unsupported_bit_depth(self):
        buf = io.BytesIO()
        with wave.open(buf, "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(1)  # 8-bit
            fh.setframerate(8000)
            fh.writeframes(b"\x80" * 16)
        with pytest.raises(UnsupportedEncodingError):
            parse_wav(buf.getvalue())

    def test_too_many_channels(self):
        buf = io.BytesIO()
        with wave.open(buf, "wb") as fh:
            fh.setnchannels(4)
            fh.setsampwidth(2)
            fh.setframerate(8000)
            fh.writeframes(b"\x00" * 32)
        with pytest.raises(UnsupportedEncodingError):
            parse_wav(buf.getvalue())

    def test_empty_data(self):
        blob = stdlib_wav_bytes(np.zeros(0, dtype=np.int16), 8000)
        with pytest.raises(TruncatedDataError):
            parse_wav(blob)

    def test_nan_float_samples(self):
        x = np.array([0.0, np.nan], dtype=np.float32)
        with pytest.raises(NonFiniteSamplesError):
            parse_wav(float32_wav_bytes(x, 8000))


MANIFEST_HEADER = "recording_id,class_label,file_path,duration_seconds"

ids = st.text(alphabet="abcdefghij0123456789_", min_size=1, max_size=12)


class TestManifest:
    def test_header_and_round_trip(self):
        m = Manifest([
            ManifestEntry("r1", "tug", "tug/r1.wav", 120.5),
            ManifestEntry("r2", "cargo", "cargo/r2.wav", 33.0),
        ])
        text = write_manifest(m)
        assert text.splitlines()[0] == MANIFEST_HEADER
        again = load_manifest(text)
        assert again.entries == m.entries
        assert again.classes == ("cargo", "tug")

    @given(st.lists(ids, min_size=1, max_size=30, unique=True),
           st.lists(st.floats(min_value=0.001, max_value=1e6,
                              allow_nan=False), min_size=30, max_size=30))
    def test_round_trip_preserves_exact_durations(self, names, durations):
        entries = [ManifestEntry(n, f"class{i % 3}", f"class{i % 3}/{n}.wav", d)
                   for i, (n, d) in enumerate(zip(names, durations))]
        m = Manifest(entries)
        again = load_manifest(write_manifest(m))
        for a, b in zip(m.entries, again.entries):
            assert a.duration_seconds == b.duration_seconds

    def test_duplicate_recording_id_rejected(self):
        with pytest.raises(DuplicateRecordingError):
            Manifest([ManifestEntry("x", "a", "a/x.wav", 1.0),
                      ManifestEntry("x", "b", "b/x.wav", 2.0)])

    def test_blank_field_rejected(self):
        with pytest.raises(MissingFieldError):
            Manifest([ManifestEntry("", "a", "a/x.wav", 1.0)])

    def test_non_positive_duration_rejected(self):
        with pytest.raises(NonPositiveDurationError):
            Manifest([ManifestEntry("x", "a", "a/x.wav", 0.0)])

    @pytest.mark.parametrize("duration", [float("nan"), float("inf")])
    def test_non_finite_duration_rejected(self, duration):
        with pytest.raises(NonPositiveDurationError, match="'x'"):
            Manifest([ManifestEntry("x", "a", "a/x.wav", duration)])

    def test_wrong_header_rejected(self):
        with pytest.raises(MissingFieldError):
            load_manifest("id,label,path,duration\nx,a,a/x.wav,1.0\n")

    def test_label_indices_follow_sorted_classes(self):
        m = Manifest([ManifestEntry("r1", "zeta", "z/r1.wav", 1.0),
                      ManifestEntry("r2", "alpha", "a/r2.wav", 1.0)])
        assert m.label_indices() == {"alpha": 0, "zeta": 1}

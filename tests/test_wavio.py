"""WAV decoding against the stdlib wave module, durations from WAV headers,
plus manifest handling."""

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
                             wav_duration, write_manifest)


def stdlib_wav_bytes(ints: np.ndarray, rate: int, channels: int = 1) -> bytes:
    return stdlib_wav_with(channels, 2, ints.astype("<i2").tobytes(), rate)


def float32_wav_bytes(samples: np.ndarray, rate: int) -> bytes:
    return riff(fmt_chunk(tag=3, rate=rate, bits=32), (b"data", samples.astype("<f4").tobytes()))


def riff(*chunks: tuple[bytes, bytes]) -> bytes:
    """A RIFF/WAVE container of (chunk id, body) pairs, each body padded to
    an even length."""
    body = b"".join(cid + struct.pack("<I", len(data)) + data + b"\0" * (len(data) & 1)
                    for cid, data in chunks)
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


def fmt_chunk(tag: int = 1, channels: int = 1, rate: int = 8000,
              bits: int = 16) -> tuple[bytes, bytes]:
    block = channels * bits // 8
    return b"fmt ", struct.pack("<HHIIHH", tag, channels, rate, rate * block, block, bits)


def with_list_chunk(blob: bytes) -> bytes:
    """``blob`` with a LIST chunk spliced in between its fmt and data chunks."""
    fmt_end = blob.index(b"data")
    extra = b"LIST" + struct.pack("<I", 4) + b"info"
    patched = blob[:fmt_end] + extra + blob[fmt_end:]
    return patched[:4] + struct.pack("<I", len(patched) - 8) + patched[8:]


def stdlib_wav_with(channels: int, sample_width: int, frames: bytes,
                    rate: int = 8000) -> bytes:
    buf = io.BytesIO()
    with wave.open(buf, "wb") as fh:
        fh.setnchannels(channels)
        fh.setsampwidth(sample_width)
        fh.setframerate(rate)
        fh.writeframes(frames)
    return buf.getvalue()


VALID_WAVS = {
    "pcm16-mono": lambda: stdlib_wav_bytes(np.arange(-50, 50, dtype=np.int16), 16000),
    "pcm16-stereo": lambda: stdlib_wav_bytes(np.arange(6, dtype=np.int16), 44100,
                                             channels=2),
    "float32": lambda: float32_wav_bytes(np.linspace(-1, 1, 64), 22050),
    "list-chunk": lambda: with_list_chunk(stdlib_wav_bytes(np.array([5, -5], np.int16),
                                                           8000)),
}

MALFORMED_WAVS = {
    "not-riff": (lambda: b"OGGS" + b"\x00" * 64, MalformedHeaderError),
    "truncated-data": (lambda: stdlib_wav_bytes(np.zeros(100, np.int16), 8000)[:-10],
                       TruncatedDataError),
    "data-before-fmt": (lambda: riff((b"data", b"\x00\x00"), fmt_chunk()),
                        MalformedHeaderError),
    "8-bit-pcm": (lambda: stdlib_wav_with(1, 1, b"\x80" * 16), UnsupportedEncodingError),
    "4-channels": (lambda: stdlib_wav_with(4, 2, b"\x00" * 32), UnsupportedEncodingError),
    "empty-data": (lambda: stdlib_wav_bytes(np.zeros(0, np.int16), 8000),
                   TruncatedDataError),
    "missing-fmt": (lambda: riff((b"LIST", b"info")), MalformedHeaderError),
    "missing-data": (lambda: riff(fmt_chunk()), MalformedHeaderError),
    "short-fmt": (lambda: riff((b"fmt ", bytes(8)), (b"data", bytes(2))),
                  MalformedHeaderError),
    "chunk-overruns": (lambda: riff(fmt_chunk()) + b"LIST" + struct.pack("<I", 99),
                       MalformedHeaderError),
    "16-bit-float": (lambda: riff(fmt_chunk(tag=3), (b"data", bytes(2))),
                     UnsupportedEncodingError),
    "adpcm": (lambda: riff(fmt_chunk(tag=2), (b"data", bytes(2))),
              UnsupportedEncodingError),
    "zero-rate": (lambda: riff(fmt_chunk(rate=0), (b"data", bytes(2))),
                  MalformedHeaderError),
    "partial-frame": (lambda: riff(fmt_chunk(channels=2), (b"data", bytes(2))),
                      TruncatedDataError),
}


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
        w = parse_wav(with_list_chunk(stdlib_wav_bytes(ints, 8000)))
        np.testing.assert_array_equal(w.samples, ints / PCM16_SCALE)


class TestParseErrors:
    def test_not_riff(self):
        with pytest.raises(MalformedHeaderError):
            parse_wav(b"OGGS" + b"\x00" * 64)

    def test_truncated_data_chunk(self):
        blob = stdlib_wav_bytes(np.zeros(100, dtype=np.int16), 8000)
        with pytest.raises(TruncatedDataError):
            parse_wav(blob[:-10])

    def test_data_before_fmt(self):
        with pytest.raises(MalformedHeaderError):
            parse_wav(riff((b"data", b"\x00\x00"), fmt_chunk()))

    def test_unsupported_bit_depth(self):
        with pytest.raises(UnsupportedEncodingError):
            parse_wav(stdlib_wav_with(1, 1, b"\x80" * 16))

    def test_too_many_channels(self):
        with pytest.raises(UnsupportedEncodingError):
            parse_wav(stdlib_wav_with(4, 2, b"\x00" * 32))

    def test_empty_data(self):
        blob = stdlib_wav_bytes(np.zeros(0, dtype=np.int16), 8000)
        with pytest.raises(TruncatedDataError):
            parse_wav(blob)

    def test_nan_float_samples(self):
        x = np.array([0.0, np.nan], dtype=np.float32)
        with pytest.raises(NonFiniteSamplesError):
            parse_wav(float32_wav_bytes(x, 8000))


class TestDuration:
    """``wav_duration`` reads the headers ``parse_wav`` reads, and no samples."""

    @pytest.mark.parametrize("name", VALID_WAVS)
    def test_matches_decoded_length(self, tmp_path, name):
        blob = VALID_WAVS[name]()
        path = tmp_path / "x.wav"
        path.write_bytes(blob)
        w = parse_wav(blob)
        assert wav_duration(path) == w.samples.size / w.rate

    @pytest.mark.parametrize("name", MALFORMED_WAVS)
    def test_refuses_what_parse_refuses(self, tmp_path, name):
        build, error = MALFORMED_WAVS[name]
        path = tmp_path / "x.wav"
        path.write_bytes(build())
        with pytest.raises(error) as parsed:
            parse_wav(path.read_bytes())
        with pytest.raises(error) as walked:
            wav_duration(path)
        assert str(walked.value) == str(parsed.value)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(b"")
        with pytest.raises(MalformedHeaderError, match="not a RIFF/WAVE container"):
            wav_duration(path)

    def test_non_finite_samples_have_a_duration(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(float32_wav_bytes(np.array([0.0, np.nan, np.inf]), 8000))
        assert wav_duration(path) == 3 / 8000
        with pytest.raises(NonFiniteSamplesError):
            parse_wav(path.read_bytes())


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

"""WAV ingestion and dataset manifests.

Parses RIFF/WAVE containers (16-bit PCM and 32-bit IEEE float, mono or
stereo) into mono float waveforms, and handles the CSV manifest that maps
recordings to class labels and file paths.
"""

from __future__ import annotations

import csv
import io
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import SonarprepError


class WavError(SonarprepError):
    """Problem with a RIFF/WAVE byte stream."""


class MalformedHeaderError(WavError):
    """Magic numbers or chunk structure are invalid."""


class UnsupportedEncodingError(WavError):
    """Sample format other than 16-bit PCM or 32-bit float, or > 2 channels."""


class TruncatedDataError(WavError):
    """Data chunk shorter than declared, or contains no whole frame."""


class NonFiniteSamplesError(WavError):
    """Float samples contain NaN or infinity."""


class ManifestError(SonarprepError):
    """Problem with a dataset manifest."""


class DuplicateRecordingError(ManifestError):
    """The same recording_id appears more than once."""


class MissingFieldError(ManifestError):
    """A manifest row lacks a required field or has a malformed one."""


class NonPositiveDurationError(ManifestError):
    """A manifest row declares a duration that is not a positive finite number."""


_PCM = 1
_IEEE_FLOAT = 3
PCM16_SCALE = 32768.0


@dataclass(eq=False)
class Waveform:
    """A mono audio signal with its sampling rate.

    Samples are stored as float64 with amplitudes nominally in [-1, 1].
    """

    samples: np.ndarray
    rate: int
    source_id: str = ""

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise ValueError("samples must be a non-empty 1-d array")
        if not np.isfinite(self.samples).all():
            raise NonFiniteSamplesError("waveform contains non-finite samples")
        if int(self.rate) <= 0:
            raise ValueError("sampling rate must be positive")
        self.rate = int(self.rate)

    @property
    def duration_seconds(self) -> float:
        return self.samples.size / self.rate


def parse_wav(data: bytes, source_id: str = "") -> Waveform:
    """Decode a RIFF/WAVE byte string into a mono :class:`Waveform`.

    16-bit PCM samples are scaled by 1/32768; 32-bit IEEE float samples
    are taken as-is. Stereo input is mixed down by the arithmetic mean
    of the two channels.
    """
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise MalformedHeaderError("not a RIFF/WAVE container")
    fmt = None
    raw = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos:pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        body = pos + 8
        if chunk_id == b"fmt ":
            if size < 16 or body + 16 > len(data):
                raise MalformedHeaderError("fmt chunk too short")
            fmt = struct.unpack_from("<HHIIHH", data, body)
        elif chunk_id == b"data":
            if fmt is None:
                raise MalformedHeaderError("data chunk precedes fmt chunk")
            if body + size > len(data):
                raise TruncatedDataError(
                    f"data chunk declares {size} bytes, "
                    f"only {len(data) - body} present"
                )
            raw = data[body:body + size]
            break
        if body + size > len(data):
            raise MalformedHeaderError(f"chunk {chunk_id!r} overruns the file")
        pos = body + size + (size & 1)  # chunks are word-aligned
    if fmt is None:
        raise MalformedHeaderError("missing fmt chunk")
    if raw is None:
        raise MalformedHeaderError("missing data chunk")
    samples = _decode_samples(raw, fmt)
    return Waveform(samples, fmt[2], source_id)


def _decode_samples(raw: bytes, fmt: tuple) -> np.ndarray:
    audio_format, channels, rate, _byte_rate, _block_align, bits = fmt
    if audio_format not in (_PCM, _IEEE_FLOAT):
        raise UnsupportedEncodingError(f"audio format tag {audio_format} not supported")
    if audio_format == _PCM and bits != 16:
        raise UnsupportedEncodingError(f"{bits}-bit PCM not supported (16-bit only)")
    if audio_format == _IEEE_FLOAT and bits != 32:
        raise UnsupportedEncodingError(f"{bits}-bit float not supported (32-bit only)")
    if channels not in (1, 2):
        raise UnsupportedEncodingError(f"{channels} channels not supported (mono/stereo only)")
    if rate == 0:
        raise MalformedHeaderError("declared sample rate is zero")
    frame_bytes = channels * bits // 8
    if len(raw) % frame_bytes:
        raise TruncatedDataError("data chunk ends inside a sample frame")
    if not raw:
        raise TruncatedDataError("data chunk holds no samples")
    if audio_format == _PCM:
        arr = np.frombuffer(raw, dtype="<i2").astype(np.float64) / PCM16_SCALE
    else:
        arr = np.frombuffer(raw, dtype="<f4").astype(np.float64)
        if not np.isfinite(arr).all():
            raise NonFiniteSamplesError("float data chunk contains NaN or infinity")
    if channels == 2:
        arr = arr.reshape(-1, 2).mean(axis=1)
    return arr


MANIFEST_FIELDS = ("recording_id", "class_label", "file_path", "duration_seconds")


@dataclass(frozen=True)
class ManifestEntry:
    recording_id: str
    class_label: str
    file_path: str
    duration_seconds: float


@dataclass
class Manifest:
    """Ordered recording inventory; class labels derive the sorted class list."""

    entries: list[ManifestEntry]
    classes: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        seen = set()
        for e in self.entries:
            if not e.recording_id or not e.class_label or not e.file_path:
                raise MissingFieldError(f"entry {e!r} has an empty field")
            if not 0 < e.duration_seconds < np.inf:
                raise NonPositiveDurationError(
                    f"recording {e.recording_id!r} has duration {e.duration_seconds}"
                )
            if e.recording_id in seen:
                raise DuplicateRecordingError(f"duplicate recording_id {e.recording_id!r}")
            seen.add(e.recording_id)
        self.classes = tuple(sorted({e.class_label for e in self.entries}))

    def label_indices(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.classes)}

    def by_id(self) -> dict[str, ManifestEntry]:
        return {e.recording_id: e for e in self.entries}


def load_manifest(text: str) -> Manifest:
    """Parse manifest CSV text (header: recording_id,class_label,file_path,duration_seconds)."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise MissingFieldError("manifest is empty") from None
    if tuple(header) != MANIFEST_FIELDS:
        raise MissingFieldError(
            f"manifest header must be {','.join(MANIFEST_FIELDS)}, got {','.join(header)}"
        )
    entries = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(MANIFEST_FIELDS):
            raise MissingFieldError(f"line {lineno}: expected 4 fields, got {len(row)}")
        rec_id, label, path, dur_text = row
        try:
            duration = float(dur_text)
        except ValueError:
            raise MissingFieldError(
                f"line {lineno}: duration_seconds {dur_text!r} is not numeric"
            ) from None
        entries.append(ManifestEntry(rec_id, label, path, duration))
    return Manifest(entries)


def write_manifest(manifest: Manifest) -> str:
    """Serialize a manifest back to CSV text; inverse of :func:`load_manifest`."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(MANIFEST_FIELDS)
    for e in manifest.entries:
        writer.writerow([e.recording_id, e.class_label, e.file_path,
                         repr(e.duration_seconds)])
    return out.getvalue()

"""WAV ingestion and dataset manifests.

Parses RIFF/WAVE containers (16-bit PCM and 32-bit IEEE float, mono or
stereo, in a plain or a WAVE_FORMAT_EXTENSIBLE fmt chunk) into mono float
waveforms, and handles the CSV manifest that maps recordings to class
labels and file paths.
"""

from __future__ import annotations

import csv
import io
import mmap
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import SonarprepError


_PCM = 1
_IEEE_FLOAT = 3
_EXTENSIBLE = 0xFFFE
# bytes 2-15 of the KSDATAFORMAT_SUBTYPE GUIDs whose first two bytes are a
# plain format tag, such as PCM's 00000001-0000-0010-8000-00aa00389b71
_SUBTYPE_GUID_TAIL = bytes.fromhex("000000001000800000aa00389b71")
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
            raise SonarprepError("waveform contains non-finite samples")
        if int(self.rate) <= 0:
            raise ValueError("sampling rate must be positive")
        self.rate = int(self.rate)


def _extensible_format(data, body: int, size: int, bits: int) -> int:
    """The plain format tag that a WAVE_FORMAT_EXTENSIBLE fmt chunk at
    ``body`` stands for: its sub-format GUID's PCM or IEEE-float code."""
    if size < 40 or body + 40 > len(data):
        raise SonarprepError("extensible fmt chunk too short")
    valid_bits, _channel_mask, code, tail = struct.unpack_from("<HIH14s", data, body + 18)
    if tail != _SUBTYPE_GUID_TAIL or code not in (_PCM, _IEEE_FLOAT):
        guid = bytes(data[body + 24:body + 40]).hex()
        raise SonarprepError(f"extensible sub-format {guid} not supported "
                             f"(PCM or IEEE float only)")
    if valid_bits != bits:
        raise SonarprepError(f"{valid_bits} valid bits in {bits}-bit samples "
                             f"not supported")
    return code


def _wav_layout(data) -> tuple[tuple, int, int]:
    """Walk the RIFF chunks of ``data`` (bytes or any buffer) to the fmt
    fields and the offset and size of a data chunk this module can decode."""
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise SonarprepError("not a RIFF/WAVE container")
    fmt = offset = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos:pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        body = pos + 8
        if chunk_id == b"fmt ":
            if size < 16 or body + 16 > len(data):
                raise SonarprepError("fmt chunk too short")
            fmt = struct.unpack_from("<HHIIHH", data, body)
            if fmt[0] == _EXTENSIBLE:
                fmt = (_extensible_format(data, body, size, fmt[5]),) + fmt[1:]
        elif chunk_id == b"data":
            if fmt is None:
                raise SonarprepError("data chunk precedes fmt chunk")
            if body + size > len(data):
                raise SonarprepError(f"data chunk declares {size} bytes, "
                                     f"only {len(data) - body} present")
            offset = body
            break
        if body + size > len(data):
            raise SonarprepError(f"chunk {chunk_id!r} overruns the file")
        pos = body + size + (size & 1)  # chunks are word-aligned
    if fmt is None:
        raise SonarprepError("missing fmt chunk")
    if offset is None:
        raise SonarprepError("missing data chunk")
    audio_format, channels, rate, _byte_rate, _block_align, bits = fmt
    if audio_format not in (_PCM, _IEEE_FLOAT):
        raise SonarprepError(f"audio format tag {audio_format} not supported")
    if audio_format == _PCM and bits != 16:
        raise SonarprepError(f"{bits}-bit PCM not supported (16-bit only)")
    if audio_format == _IEEE_FLOAT and bits != 32:
        raise SonarprepError(f"{bits}-bit float not supported (32-bit only)")
    if channels not in (1, 2):
        raise SonarprepError(f"{channels} channels not supported (mono/stereo only)")
    if rate == 0:
        raise SonarprepError("declared sample rate is zero")
    if size % (channels * bits // 8):
        raise SonarprepError("data chunk ends inside a sample frame")
    if not size:
        raise SonarprepError("data chunk holds no samples")
    return fmt, offset, size


def parse_wav(data: bytes, source_id: str = "") -> Waveform:
    """Decode a RIFF/WAVE byte string into a mono :class:`Waveform`.

    16-bit PCM samples are scaled by 1/32768; 32-bit IEEE float samples
    are taken as-is. Stereo input is mixed down by the arithmetic mean
    of the two channels.
    """
    (audio_format, channels, rate, *_), offset, size = _wav_layout(data)
    if audio_format == _PCM:
        arr = np.frombuffer(data, "<i2", size // 2, offset).astype(np.float64)
        arr /= PCM16_SCALE  # in place: one float64 copy of the recording
    else:
        arr = np.frombuffer(data, "<f4", size // 4, offset).astype(np.float64)
    if channels == 2:
        arr = arr.reshape(-1, 2).mean(axis=1)
    return Waveform(arr, rate, source_id)


def wav_duration(path) -> float:
    """Seconds of audio in the WAV file at ``path``, read from its chunk
    headers; no sample is decoded."""
    with open(path, "rb") as f:
        if not f.seek(0, io.SEEK_END):  # mmap refuses an empty file
            raise SonarprepError("not a RIFF/WAVE container")
        with mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ) as view:
            (_, channels, rate, _, _, bits), _, size = _wav_layout(view)
    return size // (channels * bits // 8) / rate


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
                raise SonarprepError(f"entry {e!r} has an empty field")
            if not 0 < e.duration_seconds < np.inf:
                raise SonarprepError(
                    f"recording {e.recording_id!r} has duration {e.duration_seconds}"
                )
            if e.recording_id in seen:
                raise SonarprepError(f"duplicate recording_id {e.recording_id!r}")
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
        raise SonarprepError("manifest is empty") from None
    if tuple(header) != MANIFEST_FIELDS:
        raise SonarprepError(
            f"manifest header must be {','.join(MANIFEST_FIELDS)}, got {','.join(header)}"
        )
    entries = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(MANIFEST_FIELDS):
            raise SonarprepError(f"line {lineno}: expected 4 fields, got {len(row)}")
        rec_id, label, path, dur_text = row
        try:
            duration = float(dur_text)
        except ValueError:
            raise SonarprepError(
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

"""Synthetic tone-chord corpora for pipeline tests.

Each class is a fixed chord of sinusoids; recordings vary phase,
per-partial amplitude, and additive noise so the task is separable
but not degenerate. Files are written with the stdlib ``wave``
module (float WAVs by hand) so corpus generation shares no code with the
package reader.
"""

from __future__ import annotations

import struct
import wave
from pathlib import Path

import numpy as np

# chords spread across the band so log-mel signatures barely overlap
CLASS_CHORDS = {
    "boxer": (200.0, 1400.0),
    "corgi": (450.0, 2200.0),
    "husky": (900.0, 3000.0),
    "vizsla": (1800.0, 3400.0),
}


def chord_signal(rng: np.random.Generator, rate: int, seconds: float,
                 freqs: tuple[float, ...]) -> np.ndarray:
    n = int(round(rate * seconds))
    t = np.arange(n) / rate
    x = np.zeros(n)
    for f in freqs:
        amp = 0.25 * float(rng.uniform(0.8, 1.2))
        phase = float(rng.uniform(0, 2 * np.pi))
        x += amp * np.sin(2 * np.pi * f * t + phase)
    x += 0.01 * rng.standard_normal(n)
    peak = np.abs(x).max()
    if peak > 0.95:
        x *= 0.95 / peak
    return x


def write_pcm16(path: Path, samples: np.ndarray, rate: int) -> None:
    ints = np.clip(np.rint(samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(rate)
        fh.writeframes(ints.tobytes())


def write_float32(path: Path, samples: np.ndarray, rate: int) -> None:
    """A mono 32-bit IEEE float WAV, packed by hand: ``wave`` writes PCM only."""
    data = np.asarray(samples, dtype="<f4").tobytes()
    fmt = struct.pack("<HHIIHH", 3, 1, rate, rate * 4, 4, 32)
    body = (b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(data)) + data)
    path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)


def subformat_guid(code: int) -> bytes:
    """KSDATAFORMAT_SUBTYPE GUID {0000XXXX-0000-0010-8000-00aa00389b71} in
    its little-endian byte layout."""
    return struct.pack("<IHH", code, 0, 0x10) + bytes.fromhex("800000aa00389b71")


def as_extensible(blob: bytes, valid_bits: int | None = None,
                  guid: bytes | None = None) -> bytes:
    """The plain WAV ``blob`` with its 16-byte fmt chunk rewritten as
    WAVE_FORMAT_EXTENSIBLE: format tag 0xFFFE, and the old tag as the
    sub-format GUID's code unless ``guid`` is given."""
    tag, channels, rate, byte_rate, block, bits = struct.unpack_from("<HHIIHH", blob, 20)
    fmt = struct.pack("<HHIIHHHHI", 0xFFFE, channels, rate, byte_rate, block, bits, 22,
                      bits if valid_bits is None else valid_bits, (1 << channels) - 1)
    fmt += guid or subformat_guid(tag)
    data_at = blob.index(b"data", 36)
    (size,) = struct.unpack_from("<I", blob, data_at + 4)
    body = b"fmt " + struct.pack("<I", len(fmt)) + fmt + blob[data_at:data_at + 8 + size]
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


def make_corpus(root: Path, recordings_per_class: int = 10,
                seconds: float = 25.0, rate: int = 8000, seed: int = 0,
                classes: dict[str, tuple[float, ...]] | None = None) -> Path:
    """Write <root>/<class>/<class><i>.wav files; returns root."""
    rng = np.random.default_rng(seed)
    chords = CLASS_CHORDS if classes is None else classes
    for name, freqs in chords.items():
        class_dir = root / name
        class_dir.mkdir(parents=True, exist_ok=True)
        for i in range(recordings_per_class):
            x = chord_signal(rng, rate, seconds, freqs)
            write_pcm16(class_dir / f"{name}{i:02d}.wav", x, rate)
    return root


def corpus_manifest_text(root: Path) -> str:
    """Manifest CSV for a make_corpus layout, computed with stdlib wave."""
    lines = ["recording_id,class_label,file_path,duration_seconds"]
    for class_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        for path in sorted(class_dir.glob("*.wav")):
            with wave.open(str(path), "rb") as fh:
                duration = fh.getnframes() / fh.getframerate()
            lines.append(f"{class_dir.name}/{path.stem},{class_dir.name},"
                         f"{class_dir.name}/{path.name},{duration!r}")
    return "\n".join(lines) + "\n"

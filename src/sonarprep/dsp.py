"""Signal conditioning: resampling, segmentation, and log-mel features.

The feature path mirrors the usual audio-tagging front end: a centered
STFT with a Hann window, a power spectrum, a triangular mel filterbank
with peak-normalized filters, and decibel compression with a fixed
floor. Resampling is polyphase with a Kaiser-windowed sinc filter per
phase, cut off below the lower Nyquist so downsampling stays alias-free.
Once per rate ratio the phases are laid out as a few band matrices, each
phase's taps at its input offset within a block of outputs, so a signal
is filtered by a few BLAS matrix products on strided views of its samples.
"""

from __future__ import annotations

import functools
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import SonarprepError
from .files import atomic_open
from .wavio import Waveform

LOG_FLOOR = 1e-10            # power floor before dB conversion (-100 dB)
KAISER_BETA = 8.555          # shape of the window on the resampling sinc
FILTER_ZERO_CROSSINGS = 64   # sinc half-width, in zero crossings
MAX_BANK_BYTES = 1 << 27     # one ratio's float64 phase bank; its band matrices add under 2x


@dataclass(frozen=True)
class FeatureConfig:
    """STFT/mel parameters tied to the sampling rate they were designed for."""

    model_rate: int
    win_length: int = 1024
    hop_length: int = 320
    n_mels: int = 64
    f_min: float = 50.0
    f_max: float = 14000.0

    def __post_init__(self):
        if not (self.win_length >= self.hop_length > 0):
            raise ValueError("need win_length >= hop_length > 0")
        if self.win_length % 2:
            raise ValueError(f"win_length must be even, got {self.win_length}")
        if self.n_mels < 1:
            raise ValueError("n_mels must be at least 1")
        if not (0 <= self.f_min < self.f_max <= self.model_rate / 2):
            raise ValueError(
                f"need 0 <= f_min < f_max <= model_rate/2, got "
                f"[{self.f_min}, {self.f_max}] at rate {self.model_rate}"
            )


#: Production default: 32 kHz front end, 1024/320 STFT, 64 mels, 50 Hz-14 kHz.
DEFAULT_FEATURE_CONFIG = FeatureConfig(model_rate=32000)


# ---------------------------------------------------------------------------
# resampling
# ---------------------------------------------------------------------------

def _phase_bank(up: int, down: int) -> np.ndarray:
    """``[up x (2 * half + 1)]`` bank of unit-gain Kaiser-sinc phases for
    up/down, row ``p`` centred ``p / up`` input samples past its anchor."""
    scale = min(1.0, up / down)  # cutoff relative to the input Nyquist
    half_t = FILTER_ZERO_CROSSINGS / scale
    half = int(np.ceil(half_t))
    t = np.arange(up)[:, None] / up - np.arange(-half, half + 1)
    u = t / half_t
    window = np.i0(KAISER_BETA * np.sqrt(np.maximum(1.0 - u ** 2, 0.0))) / np.i0(KAISER_BETA)
    bank = scale * np.sinc(scale * t) * np.where(np.abs(u) <= 1.0, window, 0.0)
    bank /= bank.sum(axis=1, keepdims=True)
    return bank


#: A block's input stride D is widened towards MIN_STRIDE samples for a
#: small ``down``, keeping at most MAX_BLOCK outputs per block.
MIN_STRIDE, MAX_BLOCK = 128, 512


@functools.cache
def _band_plan(up: int, down: int):
    """``(half, D, U, groups)``: outputs in blocks of ``U = k * up`` whose
    inputs start ``D = k * down`` samples apart. Group ``(r0, r1, a0, H)``
    of block outputs ``r0 <= r < r1`` has a read-only band matrix ``H``
    [B x (r1 - r0)] holding the bank row of output ``r`` from row
    ``anchor(r) - a0``; its anchors span under ``taps``, so B < 2 * taps.
    Kept per ratio for the life of the process, as each recording of a
    sweep visits every ratio in turn and a design can take 0.5 s."""
    bank = _phase_bank(up, down)
    taps = bank.shape[1]
    k = max(1, min(-(-MIN_STRIDE // down), MAX_BLOCK // up))
    anchors, phases = np.divmod(np.arange(k * up) * down, up)
    groups, r0 = [], 0
    while r0 < k * up:
        a0 = int(anchors[r0])
        r1 = int(np.searchsorted(anchors, a0 + taps))
        band = np.zeros((int(anchors[r1 - 1]) - a0 + taps, r1 - r0))
        rows = anchors[r0:r1, None] - a0 + np.arange(taps)
        band[rows, np.arange(r1 - r0)[:, None]] = bank[phases[r0:r1]]
        band.flags.writeable = False
        groups.append((r0, r1, a0, band))
        r0 = r1
    return taps // 2, k * down, k * up, tuple(groups)


def resample_signal(x: np.ndarray, source_rate: int, target_rate: int) -> np.ndarray:
    """Rate-convert a 1-d signal; output length is round(n * target/source).

    With target/source = up/down in lowest terms, output ``j`` is the input
    window at ``j * down // up`` dotted with row ``j * down % up`` of a bank
    of ``up`` unit-gain Kaiser-sinc phases. Taken in blocks of ``U``
    outputs whose inputs lie ``D`` samples apart, a group of outputs is
    ``out[:, group] = sum_c window_c @ H[chunk c]`` over chunks of at most
    ``D`` rows of the group's band matrix ``H``: ``window_c``, the padded
    input as rows ``D`` apart and one chunk wide, is a strided view that
    BLAS takes as it is. A ratio whose bank exceeds ``MAX_BANK_BYTES`` is refused.
    """
    x = np.asarray(x, dtype=np.float64)
    up, down = Fraction(int(target_rate), int(source_rate)).as_integer_ratio()
    bank_bytes = 8 * up * (2 * int(np.ceil(FILTER_ZERO_CROSSINGS / min(1.0, up / down))) + 1)
    if bank_bytes > MAX_BANK_BYTES:
        raise SonarprepError(f"resampling {source_rate} Hz to {target_rate} Hz needs a "
                             f"{bank_bytes:,}-byte filter bank, above {MAX_BANK_BYTES:,} bytes")
    n_out = (2 * x.size * up + down) // (2 * down)
    half, stride, block, groups = _band_plan(up, down)
    n_blocks = -(-n_out // block)
    _, _, a_last, band_last = groups[-1]
    xp = np.zeros(n_blocks * stride + a_last + band_last.shape[0])
    xp[half:half + x.size] = x
    out = np.zeros((n_blocks, block))
    for r0, r1, a0, band in groups:
        for c0 in range(0, band.shape[0], stride):
            chunk = band[c0:c0 + stride]
            window = xp[a0 + c0:a0 + c0 + n_blocks * stride].reshape(n_blocks, stride)
            out[:, r0:r1] += window[:, :chunk.shape[0]] @ chunk
    return out.ravel()[:n_out]


def resample(w: Waveform, target_rate: int) -> Waveform:
    """Resample a waveform, returning the input untouched when rates match."""
    if int(target_rate) <= 0:
        raise SonarprepError(f"target rate {target_rate} must be positive")
    target_rate = int(target_rate)
    if target_rate == w.rate:
        return w
    return Waveform(resample_signal(w.samples, w.rate, target_rate), target_rate, w.source_id)


# ---------------------------------------------------------------------------
# segmentation and config scaling
# ---------------------------------------------------------------------------

def segment_length(seconds: float, rate: int) -> int:
    """Samples in one segment; seconds * rate must land on a whole number."""
    exact = seconds * rate
    length = int(round(exact)) if np.isfinite(exact) else 0
    if length <= 0 or abs(exact - length) > 1e-9 * max(1.0, exact):
        raise ValueError(f"{seconds} s at {rate} Hz is {exact} samples, "
                         f"not a positive whole number")
    return length


def segment(w: Waveform, seconds: float) -> np.ndarray:
    """Chop a waveform into consecutive fixed-length segments, returned as a
    [count x length] view of its samples.

    The trailing remainder shorter than one segment is dropped.
    """
    length = segment_length(seconds, w.rate)
    count = w.samples.size // length
    return w.samples[:count * length].reshape(count, length)


def scale_config(base: FeatureConfig, model_rate: int) -> FeatureConfig:
    """Rescale window, hop, and upper cutoff to a new model sampling rate."""
    rho = Fraction(int(model_rate), base.model_rate)
    win = int(round(base.win_length * rho))
    hop = int(round(base.hop_length * rho))
    if hop < 1 or win < 1:
        raise SonarprepError(f"scaling {base.win_length}/{base.hop_length} by {rho} to "
                             f"model rate {model_rate} collapses the frame grid")
    try:
        return replace(base, model_rate=int(model_rate), win_length=win,
                       hop_length=hop, f_max=float(base.f_max * rho))
    except ValueError as exc:
        raise SonarprepError(
            f"cannot scale the feature config to model rate {model_rate}: {exc}"
        ) from exc


def frame_count(n_samples: int, hop_length: int) -> int:
    """Number of STFT frames for a centered transform: 1 + floor(n/hop)."""
    if hop_length <= 0:
        raise ValueError("hop_length must be positive")
    if n_samples < 0:
        raise ValueError("n_samples must be non-negative")
    return 1 + n_samples // hop_length


def item_shape(cfg: FeatureConfig, seconds: float, rate: int) -> tuple[int, int]:
    """``(frames, mels)`` of one segment's log-mel at data rate ``rate``; refuses what the
    STFT or :func:`mel_filterbank` would, and segments or items too large for numpy."""
    length = segment_length(seconds, rate)
    frames = frame_count(length, cfg.hop_length)
    cell = f"data rate {rate}, model rate {cfg.model_rate}"
    if cfg.win_length // 2 >= length:
        raise SonarprepError(f"{cell}: win_length {cfg.win_length} too long to reflect-pad "
                             f"a {length}-sample segment")
    if cfg.n_mels > 2 * (cfg.win_length // 2 + 1):  # a bin lies in at most two filters
        raise SonarprepError(f"{cell}: n_mels {cfg.n_mels} exceeds twice the FFT bins, "
                             f"so a mel filter has no support on the FFT bin grid")
    if max(8 * length, 4 * frames * cfg.n_mels) > np.iinfo(np.intp).max:
        raise SonarprepError(f"{cell}: segment_seconds {seconds:g} makes items larger "
                             f"than numpy can hold")
    return frames, cfg.n_mels


# ---------------------------------------------------------------------------
# STFT and mel filterbank
# ---------------------------------------------------------------------------

#: Bytes of windowed float64 frames one STFT block holds: 64 frames of a
#: 1024-sample window, 128 of a 512. Each block's spectrum and power are
#: the same size or smaller, so a call's temporaries stay near this bound
#: however many frames the segment has.
STFT_BLOCK_BYTES = 1 << 19


def _stft_blocks(samples: np.ndarray, cfg: FeatureConfig):
    """Yield ``(start, rows)``: the power of frames ``start ..
    start + len(rows)``, one block at a time.

    The signal is reflect-padded by win/2 on each side so frames are
    centered on multiples of the hop; window is a symmetric Hann. Each
    block is windowed into one reused buffer, transformed and squared into
    another, so ``rows`` holds until the next block is drawn. The rfft
    computes each frame on its own, so the values do not depend on the
    block size.
    """
    x = np.asarray(samples, dtype=np.float64)
    win, hop = cfg.win_length, cfg.hop_length
    pad = win // 2
    if pad > x.size - 1:
        raise SonarprepError(
            f"window {win} too long to reflect-pad a {x.size}-sample segment"
        )
    xp = np.pad(x, pad, mode="reflect")
    n_frames = frame_count(x.size, hop)
    frames = sliding_window_view(xp, win)[::hop][:n_frames]
    window = np.hanning(win)
    step = min(max(1, STFT_BLOCK_BYTES // window.nbytes), n_frames)
    windowed = np.empty((step, win))
    power = np.empty((step, win // 2 + 1))
    for start in range(0, n_frames, step):
        block = frames[start:start + step]
        np.multiply(block, window, out=windowed[:len(block)])
        spectrum = np.fft.rfft(windowed[:len(block)], axis=1)
        rows = power[:len(block)]
        np.square(spectrum.real, out=rows)
        rows += np.square(spectrum.imag)
        del spectrum  # else it outlives the next block's
        yield start, rows


def stft_power(samples: np.ndarray, cfg: FeatureConfig) -> np.ndarray:
    """Power spectrogram of 1-d samples, [n_frames x (win/2 + 1)], a
    centered Hann-windowed STFT."""
    power = np.empty((frame_count(np.size(samples), cfg.hop_length),
                      cfg.win_length // 2 + 1))
    for start, rows in _stft_blocks(samples, cfg):
        power[start:start + len(rows)] = rows
    return power


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(cfg: FeatureConfig, rate: int) -> np.ndarray:
    """Triangular mel filterbank for samples at ``rate``, [(win/2 + 1) x n_mels],
    each filter peaking at 1.

    Window and hop stay in samples as designed for the model; the mel band
    is read against the bin frequencies at ``rate``, with f_max clamped to
    its Nyquist. Its refusals name both rates.
    """
    if int(rate) <= 0:
        raise SonarprepError(f"data rate {rate} must be positive")
    cell = f"data rate {rate}, model rate {cfg.model_rate}"
    f_max = min(cfg.f_max, rate / 2)
    if not cfg.f_min < f_max:
        raise SonarprepError(f"{cell}: no usable band above f_min={cfg.f_min}")
    edges = mel_to_hz(np.linspace(hz_to_mel(cfg.f_min), hz_to_mel(f_max), cfg.n_mels + 2))
    if np.any(np.diff(edges) <= 0):
        raise SonarprepError(f"{cell}: mel band too narrow: filter edges collapse")
    freqs = (np.arange(cfg.win_length // 2 + 1) * int(rate) / cfg.win_length)[:, None]
    lower, center, upper = edges[:-2], edges[1:-1], edges[2:]
    rising = (freqs - lower) / (center - lower)
    falling = (upper - freqs) / (upper - center)
    fb = np.clip(np.minimum(rising, falling), 0.0, None)
    peaks = fb.max(axis=0)
    if np.any(peaks <= 0):
        raise SonarprepError(f"{cell}: a mel filter has no support on the FFT bin grid")
    return fb / peaks


def log_mel(power: np.ndarray, fb: np.ndarray) -> np.ndarray:
    """Apply a filterbank to a power spectrogram and compress to dB,
    giving a [n_frames x n_mels] matrix."""
    power = np.asarray(power)
    if power.ndim != 2 or fb.ndim != 2 or power.shape[1] != fb.shape[0]:
        raise SonarprepError(
            f"power {power.shape} incompatible with filterbank {fb.shape}"
        )
    return 10.0 * np.log10(np.maximum(power @ fb, LOG_FLOOR))


def features_for_segment(samples: np.ndarray, cfg: FeatureConfig,
                         fb: np.ndarray) -> np.ndarray:
    """One segment's samples -> [n_frames x n_mels] log-mel matrix using the
    model's window and hop.

    ``fb`` is the filterbank for the samples' rate, built once per run with
    ``mel_filterbank(cfg, rate)``. Each STFT block's log-mel goes straight
    into the output, so no power spectrogram of the whole segment exists.
    """
    out = np.empty((frame_count(np.size(samples), cfg.hop_length), fb.shape[1]))
    for start, rows in _stft_blocks(samples, cfg):
        out[start:start + len(rows)] = log_mel(rows, fb)
    return out


# ---------------------------------------------------------------------------
# feature archives
# ---------------------------------------------------------------------------

ARCHIVE_MAGIC = b"SPRF1"


def _item_dtype(shape) -> np.dtype:
    """One archive item as a record: frames, mels and label, then the values."""
    return np.dtype([("head", "<u4", 3), ("values", "<f4", tuple(shape))])


class FeatureArchive:
    """Items of one ``(frames, mels)`` shape, written to an open archive as they come."""

    def __init__(self, f, shape):
        self.f, self.shape, self.count = f, tuple(shape), 0
        f.write(ARCHIVE_MAGIC + struct.pack("<I", 0))

    def append(self, values, labels) -> None:
        """Write [k x frames x mels] values and their k labels."""
        for item, label in zip(values, labels):
            self.f.write(struct.pack("<III", *self.shape, int(label))
                         + np.asarray(item, dtype="<f4").tobytes())
            self.count += 1

    def transform(self, fn) -> None:
        """Set each item's values to ``fn`` of them, in place through maps of 8 items."""
        self.f.flush()
        item = _item_dtype(self.shape)
        for start in range(0, self.count, 8):  # not the whole archive: RSS would hold it
            items = np.memmap(self.f, item, "r+", offset=9 + start * item.itemsize,
                              shape=(min(8, self.count - start),))
            for values in items["values"]:
                values[...] = fn(values)


@contextmanager
def feature_archive(path, shape):
    """A :class:`FeatureArchive` written through :func:`atomic_open` opened ``w+b``;
    its item count at offset 5 is patched in as the block completes."""
    with atomic_open(path, "w+b") as f:
        archive = FeatureArchive(f, shape)
        yield archive
        f.seek(5)
        f.write(struct.pack("<I", archive.count))


def write_feature_archive(path, values: np.ndarray, labels) -> None:
    """Write a [n x frames x mels] array and its n labels as one archive, atomically."""
    if values.ndim != 3 or len(labels) != values.shape[0]:
        raise SonarprepError(f"need [n x frames x mels] values and n labels, got "
                             f"{values.shape} and {len(labels)} labels")
    with feature_archive(path, values.shape[1:]) as archive:
        archive.append(values, labels)


def read_feature_archive(path) -> tuple[np.ndarray, np.ndarray]:
    """Read back the [n x frames x mels] float32 values and int64 labels
    written by :func:`write_feature_archive`.

    Every item must have the first item's shape. The items are read in one
    call into an array of records, and the values returned are a view of
    it, so a read holds one copy of them.
    """
    def refuse(problem: str):
        raise SonarprepError(f"{path}: {problem}")

    with open(path, "rb") as f:
        file_size = os.fstat(f.fileno()).st_size
        head = f.read(21)
        if head[:5] != ARCHIVE_MAGIC:
            refuse("bad magic: not a feature archive")
        try:
            (count,) = struct.unpack_from("<I", head, 5)
            shape = struct.unpack_from("<II", head, 9) if count else (0, 0)
        except struct.error:
            refuse("archive truncated in a header")
        if count and not shape[0] * shape[1]:
            refuse(f"items of shape {shape} hold no cells")
        if 12 + 4 * shape[0] * shape[1] > np.iinfo(np.intc).max:  # numpy's record limit
            refuse(f"items of shape {shape} are too large to read")
        item = _item_dtype(shape)
        size = 9 + count * item.itemsize
        n_fit = min(count, (file_size - 9) // item.itemsize)
        if count and not n_fit:
            refuse(f"archive truncated: {file_size} of {size} bytes")
        f.seek(9)
        records = np.fromfile(f, dtype=item, count=n_fit)
    if (records["head"][:, :2] != shape).any():
        refuse(f"items differ in shape from the first item's {shape}")
    if file_size < size:
        refuse(f"archive truncated: {file_size} of {size} bytes")
    if file_size > size:
        refuse(f"{file_size - size} trailing bytes after last item")
    return records["values"], records["head"][:, 2].astype(np.int64)

"""Spectrogram augmentation: time/frequency masking and mixup.

Masking follows the SpecAugment recipe with one twist: the time-mask
width budget scales with the ratio of data to model sampling rate, so
a spectrogram with half the frames sees masks of half the width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ShapeMismatchError


@dataclass(frozen=True)
class AugmentConfig:
    base_time_mask_width: int = 64
    freq_mask_width: int = 8
    n_time_masks: int = 2
    n_freq_masks: int = 2
    mixup_alpha: float = 1.0

    def __post_init__(self):
        if self.base_time_mask_width < 0 or self.freq_mask_width < 0:
            raise ValueError("mask widths must be non-negative")
        if self.n_time_masks < 0 or self.n_freq_masks < 0:
            raise ValueError("mask counts must be non-negative")
        if self.mixup_alpha <= 0:
            raise ValueError("mixup_alpha must be positive")


class MixPair(NamedTuple):
    lam: float
    index_a: int
    index_b: int


class Mask(NamedTuple):
    axis: str   # "time" masks frames, "freq" masks mel bins
    start: int
    width: int


def scaled_mask_width(base_width: int, data_rate: int, model_rate: int) -> int:
    """Time-mask width budget scaled by the data/model rate ratio."""
    if data_rate <= 0 or model_rate <= 0:
        raise ValueError("rates must be positive")
    return max(0, int(round(base_width * data_rate / model_rate)))


def draw_masks(n_frames: int, n_mels: int, cfg: AugmentConfig, time_width: int,
               rng: np.random.Generator) -> list[Mask]:
    """Sample mask rectangles; widths are uniform on [0, budget], clipped to fit."""
    masks = []
    for _ in range(cfg.n_time_masks):
        width = min(int(rng.integers(0, time_width + 1)), n_frames)
        start = int(rng.integers(0, n_frames - width + 1))
        masks.append(Mask("time", start, width))
    for _ in range(cfg.n_freq_masks):
        width = min(int(rng.integers(0, cfg.freq_mask_width + 1)), n_mels)
        start = int(rng.integers(0, n_mels - width + 1))
        masks.append(Mask("freq", start, width))
    return masks


def apply_masks(values: np.ndarray, masks: list[Mask]) -> np.ndarray:
    """Zero the masked stripes on a copy; everything else is untouched."""
    out = values.copy()
    for mask in masks:
        if mask.axis == "time":
            out[mask.start:mask.start + mask.width, :] = 0.0
        elif mask.axis == "freq":
            out[:, mask.start:mask.start + mask.width] = 0.0
        else:
            raise ValueError(f"unknown mask axis {mask.axis!r}")
    return out


def spec_augment(values: np.ndarray, cfg: AugmentConfig, time_width: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Apply time and frequency masks to a [n_frames x n_mels] matrix."""
    return apply_masks(values, draw_masks(*values.shape, cfg, time_width, rng))


def sample_lambda(alpha: float, rng: np.random.Generator) -> float:
    """Draw a mixing coefficient from Beta(alpha, alpha)."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return float(rng.beta(alpha, alpha))


def make_mix_pairs(batch_size: int, alpha: float,
                   rng: np.random.Generator) -> list[MixPair]:
    """Pair every batch element with a random-permutation partner."""
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    partners = rng.permutation(batch_size)
    return [MixPair(sample_lambda(alpha, rng), i, int(partners[i]))
            for i in range(batch_size)]


def mixup(x: np.ndarray, batch_targets, pairs: list[MixPair]):
    """Convex-combine a batch's paired inputs and targets with each pair's
    lambda; ``x`` is the [batch x ...] input array."""
    if x.dtype.kind != "f":
        x = x.astype(np.float64)
    y = np.asarray(batch_targets, dtype=x.dtype)
    if y.ndim != 2:
        raise ShapeMismatchError("targets must be a [batch x classes] matrix")
    if x.shape[0] != y.shape[0]:
        raise ShapeMismatchError(
            f"{x.shape[0]} inputs but {y.shape[0]} target rows"
        )
    if np.any(np.abs(y.sum(axis=1) - 1.0) > 1e-6):
        raise ValueError("each target row must sum to 1")
    lam = np.array([p.lam for p in pairs], dtype=x.dtype)
    a = np.array([p.index_a for p in pairs])
    b = np.array([p.index_b for p in pairs])
    if len(pairs) and (a.min() < 0 or b.min() < 0 or
                       a.max() >= x.shape[0] or b.max() >= x.shape[0]):
        raise ShapeMismatchError("pair indices fall outside the batch")
    lam_x = lam.reshape((-1,) + (1,) * (x.ndim - 1))
    mixed_x = lam_x * x[a] + (1.0 - lam_x) * x[b]
    mixed_y = lam[:, None] * y[a] + (1.0 - lam[:, None]) * y[b]
    return mixed_x, mixed_y

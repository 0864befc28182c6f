"""Spectrogram augmentation: time/frequency masking and mixup.

Masking follows the SpecAugment recipe with one twist: the time-mask
width budget scales with the ratio of data to model sampling rate, so
a spectrogram with half the frames sees masks of half the width.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import SonarprepError


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
        if not (0 <= self.n_time_masks <= 1024 and 0 <= self.n_freq_masks <= 1024):
            raise ValueError("n_time_masks and n_freq_masks must be 0..1024, drawn one by one")
        if self.mixup_alpha <= 0:
            raise ValueError("mixup_alpha must be positive")


class Mask(NamedTuple):
    axis: str   # "time" masks frames, "freq" masks mel bins
    start: int
    width: int


def scaled_mask_width(base_width: int, data_rate: int, model_rate: int) -> int:
    """Time-mask width budget scaled by the data/model rate ratio, rounded exactly."""
    if data_rate <= 0 or model_rate <= 0:
        raise ValueError("rates must be positive")
    return max(0, round(Fraction(base_width * data_rate, model_rate)))


def drawable_time_width(cfg: AugmentConfig, data_rate: int, model_rate: int) -> int:
    """:func:`scaled_mask_width` of ``cfg``; drawn masks wider than int64 are refused by key."""
    width = scaled_mask_width(cfg.base_time_mask_width, data_rate, model_rate)
    if cfg.n_time_masks and width > 2**63 - 1:
        raise SonarprepError(f"augment.base_time_mask_width scales to {width} at data rate "
                             f"{data_rate}, model rate {model_rate}, above 2**63 - 1")
    if cfg.n_freq_masks and cfg.freq_mask_width > 2**63 - 1:
        raise SonarprepError(f"augment.freq_mask_width {cfg.freq_mask_width} is above 2**63 - 1")
    return width


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
    return float(rng.beta(alpha, alpha))


def make_mix_pairs(batch_size: int, alpha: float,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """``(lam, partners)``: a random-permutation partner for every batch
    element, then one lambda per element, drawn in that order."""
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    partners = rng.permutation(batch_size)
    return np.array([sample_lambda(alpha, rng) for _ in range(batch_size)]), partners


def mixup(x: np.ndarray, batch_targets, pairs: tuple[np.ndarray, np.ndarray]):
    """Convex-combine each element of a batch with its partner, inputs and
    targets alike, by the element's lambda; ``x`` is the [batch x ...]
    input array and ``pairs`` is ``(lam, partners)``."""
    if x.dtype.kind != "f":
        x = x.astype(np.float64)
    y = np.asarray(batch_targets, dtype=x.dtype)
    if y.ndim != 2:
        raise SonarprepError("targets must be a [batch x classes] matrix")
    if x.shape[0] != y.shape[0]:
        raise SonarprepError(
            f"{x.shape[0]} inputs but {y.shape[0]} target rows"
        )
    if np.any(np.abs(y.sum(axis=1) - 1.0) > 1e-6):
        raise ValueError("each target row must sum to 1")
    lam, partners = np.asarray(pairs[0], dtype=x.dtype), np.asarray(pairs[1])
    if lam.shape != (len(x),) or partners.shape != (len(x),):
        raise SonarprepError(f"{len(x)} inputs but {lam.size} lambdas "
                             f"and {partners.size} partners")
    if len(x) and (partners.min() < 0 or partners.max() >= len(x)):
        raise SonarprepError("partner indices fall outside the batch")
    lam_x = lam.reshape((-1,) + (1,) * (x.ndim - 1))
    mixed_x = lam_x * x + (1.0 - lam_x) * x[partners]
    mixed_y = lam[:, None] * y + (1.0 - lam[:, None]) * y[partners]
    return mixed_x, mixed_y

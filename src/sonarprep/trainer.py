"""Training loops: single runs, seed replicates, and rate sweeps.

Each epoch shuffles with a stream derived from (seed, epoch), augments
training batches only (masking first, then mixup), and tracks the best
validation loss. Early stopping restores the best-epoch weights, with
ties resolved toward the earlier epoch.
"""

from __future__ import annotations

import io
import csv
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import SonarprepError
from .wavio import Manifest, ManifestEntry, Waveform
from .dsp import (DegenerateBandError, FeatureConfig, DEFAULT_FEATURE_CONFIG,
                  features_for_segment, frame_count, mel_filterbank, resample,
                  scale_config, segment, segment_length)
from .augment import AugmentConfig, make_mix_pairs, mixup, scaled_mask_width, spec_augment
from .datasplit import (SPLIT_NAMES, NormStats, SplitSpec, compute_norm_stats,
                        normalize, segment_counts, stratified_split)
from .nn import (AdamState, Architecture, DEFAULT_ARCHITECTURE, ModelState,
                 adam_step, cross_entropy_soft, gradients, infer, init_model)
from .evaluation import Metrics, aggregate_runs, evaluate


class EmptyDatasetError(SonarprepError):
    """A training or validation split has no samples."""


class DivergedError(SonarprepError):
    """An epoch's training or validation loss is not finite."""


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 5e-5
    batch_size: int = 64
    max_epochs: int = 100
    patience: int = 50
    seeds: tuple[int, ...] = (0, 1, 2)
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    feature: FeatureConfig = DEFAULT_FEATURE_CONFIG
    arch: Architecture = DEFAULT_ARCHITECTURE
    use_mixup: bool = True

    def __post_init__(self):
        if self.lr < 0:
            raise ValueError("lr must be non-negative")
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 1:
            raise ValueError("batch_size, max_epochs, and patience must be positive")
        if self.patience > self.max_epochs:
            raise ValueError("patience cannot exceed max_epochs")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if min(self.seeds) < 0 or len(set(self.seeds)) < len(self.seeds):
            raise ValueError(f"seeds must be distinct and non-negative, got {self.seeds}")


@dataclass
class RunHistory:
    seed: int
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_acc: list[float] = field(default_factory=list)
    best_epoch: int = 0
    stopped_epoch: int = 0


def one_hot(labels: np.ndarray, n_classes: int, dtype=np.float32) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros((labels.size, n_classes), dtype=dtype)
    out[np.arange(labels.size), labels] = 1.0
    return out


def validation_pass(model: ModelState, features: np.ndarray,
                    labels: np.ndarray) -> tuple[float, float]:
    """Unaugmented loss and accuracy over a held-out set."""
    logits = infer(model, features)
    loss, _ = cross_entropy_soft(logits, one_hot(labels, model.n_classes,
                                                 dtype=logits.dtype))
    return loss, float(np.mean(np.argmax(logits, axis=1) == labels))


def _augment_batch(inputs: np.ndarray, targets: np.ndarray, cfg: TrainConfig,
                   time_width: int, rng: np.random.Generator):
    masked = np.stack([spec_augment(sample, cfg.augment, time_width, rng)
                       for sample in inputs])
    if cfg.use_mixup:
        pairs = make_mix_pairs(masked.shape[0], cfg.augment.mixup_alpha, rng)
        return mixup(masked, targets, pairs)
    return masked, targets


# a diverging run overflows; the epoch's non-finite loss then raises
# DivergedError, so numpy's warnings would only repeat it
@np.errstate(over="ignore", invalid="ignore")
def train(cfg: TrainConfig, train_set, val_set, model: ModelState,
          data_rate: int, seed: int = 0) -> tuple[ModelState, RunHistory]:
    """Fit the model on features made at ``data_rate``; returns it restored
    to the best-validation epoch."""
    train_x, train_y = train_set
    val_x, val_y = val_set
    if train_x.shape[0] == 0:
        raise EmptyDatasetError("training split is empty")
    if val_x.shape[0] == 0:
        raise EmptyDatasetError("validation split is empty")
    n = train_x.shape[0]
    time_width = scaled_mask_width(cfg.augment.base_time_mask_width, data_rate,
                                   cfg.feature.model_rate)
    optimizer = AdamState.for_params(model.params, lr=cfg.lr)
    history = RunHistory(seed=seed)
    best_loss = np.inf
    best_epoch = 0
    best_params = {k: p.copy() for k, p in model.params.items()}
    epoch = 0
    for epoch in range(1, cfg.max_epochs + 1):
        rng = np.random.default_rng([seed, epoch])
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):  # final partial batch included
            idx = order[start:start + cfg.batch_size]
            inputs = train_x[idx]
            targets = one_hot(train_y[idx], model.n_classes, dtype=model.dtype)
            inputs, targets = _augment_batch(inputs, targets, cfg, time_width, rng)
            loss, grads = gradients(model, inputs, targets)
            adam_step(model.params, grads, optimizer)
            epoch_loss += loss * len(idx)
        train_loss = epoch_loss / n
        val_loss, val_acc = validation_pass(model, val_x, val_y)
        if not np.isfinite([train_loss, val_loss]).all():
            raise DivergedError(f"seed {seed}: training diverged in epoch {epoch} "
                                f"(train loss {train_loss}, val loss {val_loss}); "
                                f"try a lower train.lr")
        history.train_loss.append(train_loss)
        history.val_loss.append(val_loss)
        history.val_acc.append(val_acc)
        if val_loss < best_loss:  # strict: ties keep the earlier epoch
            best_loss = val_loss
            best_epoch = epoch
            best_params = {k: p.copy() for k, p in model.params.items()}
        if epoch - best_epoch >= cfg.patience:
            break
    for name, p in model.params.items():
        p[...] = best_params[name]
    history.best_epoch = best_epoch
    history.stopped_epoch = epoch
    return model, history


class FeatureSets(NamedTuple):
    """Stacked per-split features and integer labels."""

    train: tuple[np.ndarray, np.ndarray]
    val: tuple[np.ndarray, np.ndarray]
    test: tuple[np.ndarray, np.ndarray]
    n_classes: int


@dataclass
class SeedResult:
    seed: int
    model: ModelState
    history: RunHistory
    metrics: Metrics


def run_seeds(cfg: TrainConfig, data: FeatureSets, data_rate: int) -> list[SeedResult]:
    """Independent train/evaluate runs, one fresh model per seed."""
    results = []
    for seed in cfg.seeds:
        model = init_model(cfg.arch, data.n_classes, seed, dtype=np.float32)
        model, history = train(cfg, data.train, data.val, model, data_rate, seed=seed)
        metrics = evaluate(model, *data.test)
        results.append(SeedResult(seed=seed, model=model, history=history,
                                  metrics=metrics))
    return results


def history_csv(history: RunHistory) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["epoch", "train_loss", "val_loss", "val_acc"])
    for i in range(len(history.train_loss)):
        writer.writerow([i + 1, repr(history.train_loss[i]),
                         repr(history.val_loss[i]), repr(history.val_acc[i])])
    return out.getvalue()


# ---------------------------------------------------------------------------
# rate sweeps
# ---------------------------------------------------------------------------

def build_feature_sets(manifest: Manifest,
                       load_waveform: Callable[[ManifestEntry], Waveform],
                       assignment: dict[str, str], data_rate: int,
                       feature_cfgs: Sequence[FeatureConfig], seconds: float,
                       jobs: int = 1) -> list[tuple[FeatureSets, NormStats]]:
    """Resample, segment, featurize, and normalize a corpus into split
    arrays, once for each feature config, in the order given.

    Each recording is read, resampled to ``data_rate`` and segmented once,
    and every config's log-mel is computed from those segments, so a sweep
    resamples once per data rate. Every config's filterbank is built before
    any audio is read. Recordings are featurized on ``jobs`` threads; the
    arrays do not depend on ``jobs``. Each config's normalization stats come
    from its training split alone, and each split must produce at least one
    segment. A float64 spectrogram is dropped once its float32 row is filled.
    """
    banks = [mel_filterbank(cfg, data_rate) for cfg in feature_cfgs]

    def featurize_recording(entry: ManifestEntry) -> list[list[np.ndarray]]:
        segments = segment(resample(load_waveform(entry), data_rate), seconds)
        return [[features_for_segment(samples, cfg, fb) for samples in segments]
                for cfg, fb in zip(feature_cfgs, banks)]

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            per_recording = list(pool.map(featurize_recording, manifest.entries))
    else:
        per_recording = [featurize_recording(e) for e in manifest.entries]
    label_index = manifest.label_indices()
    results = []
    for k in range(len(feature_cfgs)):
        buckets = {name: ([], []) for name in SPLIT_NAMES}
        for entry, spectrograms in zip(manifest.entries, per_recording):
            values, labels = buckets[assignment[entry.recording_id]]
            values.extend(spectrograms[k])
            labels.extend([label_index[entry.class_label]] * len(spectrograms[k]))
            spectrograms[k] = None  # the buckets hold the only references
        for name, (values, _) in buckets.items():
            if not values:
                raise EmptyDatasetError(f"{name} split produced no segments")
        stats = compute_norm_stats(buckets["train"][0])
        sets = {}
        for name, (values, labels) in buckets.items():
            x = np.empty((len(values),) + values[0].shape, dtype=np.float32)
            for i, spectrogram in enumerate(values):
                x[i] = normalize(spectrogram, stats)
                values[i] = None
            sets[name] = (x, np.array(labels, dtype=np.int64))
        results.append((FeatureSets(**sets, n_classes=len(manifest.classes)), stats))
    return results


def sweep(data_rates, model_rates, cfg: TrainConfig, manifest: Manifest,
          load_waveform: Callable[[ManifestEntry], Waveform],
          split_spec: SplitSpec | None = None, seconds: float = 5.0,
          jobs: int = 1) -> dict:
    """Full grid over data and model sampling rates.

    The recording-level split is drawn once and reused for every cell.
    Every cell's feature config and filterbank is built before any audio is
    read. The corpus is then featurized once per data rate, on ``jobs``
    threads, with every model rate's rescaled config; each cell also
    rescales the time-mask budget and runs the usual multi-seed training.
    Returns the ``sweep_raw.json`` record: the class labels and one cell
    record per (data rate, model rate), sorted by data rate, then model rate.
    """
    split_spec = split_spec if split_spec is not None else SplitSpec()
    counts = segment_counts(manifest, seconds)
    split = stratified_split(manifest, counts, split_spec)
    features = {rm: scale_config(cfg.feature, rm) for rm in sorted(set(model_rates))}
    data_rates = sorted(set(data_rates))
    for data_rate in data_rates:
        for model_rate, cell_feature in features.items():
            try:
                mel_filterbank(cell_feature, data_rate)
            except DegenerateBandError as exc:
                raise DegenerateBandError(f"data rate {data_rate}, model rate "
                                          f"{model_rate}: {exc}") from exc
    cells = []
    for data_rate in data_rates:
        feature_sets = build_feature_sets(manifest, load_waveform, split.assignment,
                                          data_rate, list(features.values()),
                                          seconds, jobs=jobs)
        for model_rate, cell_feature in features.items():
            # popped, so each cell's arrays are freed once it has trained
            results = run_seeds(replace(cfg, feature=cell_feature),
                                feature_sets.pop(0)[0], data_rate)
            aggregate = aggregate_runs([r.metrics for r in results])
            cells.append({
                "data_rate": data_rate,
                "model_rate": model_rate,
                "mask_width": scaled_mask_width(cfg.augment.base_time_mask_width,
                                                data_rate, cell_feature.model_rate),
                "n_frames": frame_count(segment_length(seconds, data_rate),
                                        cell_feature.hop_length),
                "accuracies": [r.metrics.accuracy for r in results],
                "mean_accuracy": aggregate.mean_accuracy,
                "std_accuracy": aggregate.std_accuracy,
                "mean_confusion": aggregate.mean_confusion.tolist(),
            })
    return {"classes": list(manifest.classes), "cells": cells}

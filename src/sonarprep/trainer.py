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
from .dsp import (FeatureConfig, DEFAULT_FEATURE_CONFIG, features_for_segment,
                  item_shape, mel_filterbank, resample, scale_config, segment)
from .augment import AugmentConfig, drawable_time_width, make_mix_pairs, mixup, spec_augment
from .datasplit import (SPLIT_NAMES, NormStats, SplitSpec, compute_norm_stats,
                        normalize, segment_counts, stratified_split)
from .nn import (AdamState, DEFAULT_ARCHITECTURE, ModelState, adam_step,
                 cross_entropy_soft, gradients, infer, init_model)
from .evaluation import Metrics, aggregate_runs, evaluate


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 5e-5
    batch_size: int = 64
    max_epochs: int = 100
    patience: int = 50
    seeds: tuple[int, ...] = (0, 1, 2)
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    feature: FeatureConfig = DEFAULT_FEATURE_CONFIG
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
        return mixup(masked, targets,
                     make_mix_pairs(len(masked), cfg.augment.mixup_alpha, rng))
    return masked, targets


# a diverging run overflows; the epoch's non-finite loss then raises
# SonarprepError, so numpy's warnings would only repeat it
@np.errstate(over="ignore", invalid="ignore")
def train(cfg: TrainConfig, train_set, val_set, model: ModelState,
          data_rate: int, seed: int = 0) -> tuple[ModelState, RunHistory]:
    """Fit the model on features made at ``data_rate``; returns it restored
    to the best-validation epoch."""
    train_x, train_y = train_set
    val_x, val_y = val_set
    if train_x.shape[0] == 0:
        raise SonarprepError("training split is empty")
    if val_x.shape[0] == 0:
        raise SonarprepError("validation split is empty")
    n = train_x.shape[0]
    time_width = drawable_time_width(cfg.augment, data_rate, cfg.feature.model_rate)
    optimizer = AdamState.for_params(model.params, lr=cfg.lr)
    history = RunHistory()
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
            raise SonarprepError(f"seed {seed}: training diverged in epoch {epoch} "
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
    #: per split, the segments whose extrema fall outside the train split's
    #: range; counted by :func:`build_feature_sets`, empty elsewhere
    outside: tuple[int, ...] = ()


@dataclass
class SeedResult:
    seed: int
    model: ModelState
    history: RunHistory
    metrics: Metrics


def run_seeds(cfg: TrainConfig, data: FeatureSets,
              data_rate: int) -> tuple[dict, list[SeedResult]]:
    """Independent train/evaluate runs, one fresh default network per seed.
    Returns the cell's ``sweep_raw.json`` record and each seed's result."""
    results = []
    for seed in cfg.seeds:
        model = init_model(DEFAULT_ARCHITECTURE, data.n_classes, seed, dtype=np.float32)
        model, history = train(cfg, data.train, data.val, model, data_rate, seed=seed)
        metrics = evaluate(model, *data.test)
        results.append(SeedResult(seed=seed, model=model, history=history,
                                  metrics=metrics))
    aggregate = aggregate_runs([r.metrics for r in results])
    return {
        "data_rate": data_rate,
        "model_rate": cfg.feature.model_rate,
        "mask_width": drawable_time_width(cfg.augment, data_rate, cfg.feature.model_rate),
        "n_frames": data.train[0].shape[1],
        "accuracies": [r.metrics.accuracy for r in results],
        "mean_accuracy": aggregate.mean_accuracy,
        "std_accuracy": aggregate.std_accuracy,
        "mean_confusion": aggregate.mean_confusion.tolist(),
    }, results


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

def _rows_array(capacity: int, shape: tuple[int, int]) -> np.ndarray:
    """An unfilled float32 array of ``capacity`` rows; empty if a manifest
    promises more rows than can be allocated, which then grows as needed."""
    try:
        return np.empty((capacity,) + shape, dtype=np.float32)
    except (MemoryError, ValueError):
        return np.empty((0,) + shape, dtype=np.float32)


def _resize_rows(x: np.ndarray, n: int) -> None:
    """Grow or cut ``x`` to ``n`` rows in place, without a second copy of
    its values; no view of ``x`` may be alive."""
    x.resize((n,) + x.shape[1:], refcheck=False)


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
    segment.

    A segment's float64 log-mel is kept only until its float32 row and its
    float64 min and max are taken; the stats come from the train split's
    extrema. Each split's array is allocated once, sized from the
    manifest's durations, and a recording's rows are copied into it in
    manifest order; each row is then rescaled in place in float64. Memory
    holds the output plus a recording per worker. Durations that understate
    the audio grow the array, and rows they overstate are cut at the end.
    """
    shapes = [item_shape(cfg, seconds, data_rate) for cfg in feature_cfgs]
    banks = [mel_filterbank(cfg, data_rate) for cfg in feature_cfgs]

    def featurize_recording(entry: ManifestEntry) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per config: the recording's float32 rows and each row's [min, max]."""
        segments = segment(resample(load_waveform(entry), data_rate), seconds)
        per_config = []
        for cfg, fb, shape in zip(feature_cfgs, banks, shapes):
            rows = np.empty((len(segments),) + shape, dtype=np.float32)
            extrema = np.empty((len(segments), 2))
            for i, samples in enumerate(segments):
                spectrogram = features_for_segment(samples, cfg, fb)
                rows[i] = spectrogram
                extrema[i] = spectrogram.min(), spectrogram.max()
            per_config.append((rows, extrema))
        return per_config

    counts = segment_counts(manifest, seconds)
    capacity = dict.fromkeys(SPLIT_NAMES, 0)
    for entry in manifest.entries:
        capacity[assignment[entry.recording_id]] += counts[entry.recording_id]
    # per split, the labels so far (every config featurizes the same
    # segments); per config and split, the rows and their extrema so far
    labels = {name: [] for name in SPLIT_NAMES}
    splits = [{name: (_rows_array(capacity[name], shape), []) for name in SPLIT_NAMES}
              for shape in shapes]
    label_index = manifest.label_indices()

    def append(recordings) -> None:
        for entry, per_config in zip(manifest.entries, recordings):
            name = assignment[entry.recording_id]
            n = len(labels[name])
            for split, (rows, extrema) in zip(splits, per_config):
                x, split_extrema = split[name]
                if n + len(rows) > len(x):
                    _resize_rows(x, n + len(rows))
                x[n:n + len(rows)] = rows
                split_extrema.append(extrema)
            labels[name].extend([label_index[entry.class_label]] * len(per_config[0][0]))

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            append(pool.map(featurize_recording, manifest.entries))
    else:
        append(map(featurize_recording, manifest.entries))
    for name, split_labels in labels.items():
        if not split_labels:
            raise SonarprepError(f"{name} split produced no segments")
        labels[name] = np.array(split_labels, dtype=np.int64)
    results = []
    for split in splits:
        stats = compute_norm_stats(np.concatenate(split["train"][1]))
        sets, outside = {}, []
        for name, (x, split_extrema) in split.items():
            _resize_rows(x, len(labels[name]))
            for i in range(len(x)):
                x[i] = normalize(x[i].astype(np.float64), stats)
            lo, hi = np.concatenate(split_extrema).T
            outside.append(int(np.count_nonzero((lo < stats.global_min)
                                                | (hi > stats.global_max))))
            sets[name] = (x, labels[name])
        results.append((FeatureSets(**sets, n_classes=len(manifest.classes),
                                    outside=tuple(outside)), stats))
    return results


def sweep(data_rates, model_rates, cfg: TrainConfig, manifest: Manifest,
          load_waveform: Callable[[ManifestEntry], Waveform],
          split_spec: SplitSpec, seconds: float,
          jobs: int = 1) -> tuple[dict, list[tuple[int, ...]]]:
    """Full grid over data and model sampling rates.

    The recording-level split is drawn once and reused for every cell.
    Every cell's feature config and filterbank is built before any audio is
    read. The corpus is then featurized once per data rate, on ``jobs``
    threads, with every model rate's rescaled config; each cell is one
    :func:`run_seeds` call. Returns the ``sweep_raw.json`` record (the class
    labels and each cell's record, sorted by data rate, then model rate)
    and, in the same order, each cell's :attr:`FeatureSets.outside`.
    """
    counts = segment_counts(manifest, seconds)
    assignment = stratified_split(manifest, counts, split_spec)
    features = [scale_config(cfg.feature, rm) for rm in sorted(set(model_rates))]
    data_rates = sorted(set(data_rates))
    for data_rate in data_rates:
        for cell_feature in features:
            item_shape(cell_feature, seconds, data_rate)
            mel_filterbank(cell_feature, data_rate)
            drawable_time_width(cfg.augment, data_rate, cell_feature.model_rate)
    cells, outside = [], []
    for data_rate in data_rates:
        feature_sets = build_feature_sets(manifest, load_waveform, assignment,
                                          data_rate, features, seconds, jobs=jobs)
        for cell_feature in features:
            outside.append(feature_sets[0][0].outside)
            # popped, so each cell's arrays are freed once it has trained
            cells.append(run_seeds(replace(cfg, feature=cell_feature),
                                   feature_sets.pop(0)[0], data_rate)[0])
    return {"classes": list(manifest.classes), "cells": cells}, outside

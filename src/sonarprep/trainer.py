"""Training loops: single runs, seed replicates, and rate sweeps.

Each epoch shuffles with a stream derived from (seed, epoch), augments
training batches only (masking first, then mixup), and tracks the best
validation loss. Early stopping restores the best-epoch weights, with
ties resolved toward the earlier epoch.
"""

from __future__ import annotations

import io
import csv
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack, closing
from dataclasses import dataclass, field
from itertools import starmap
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple

import numpy as np

from .errors import SonarprepError
from .wavio import Manifest, ManifestEntry, Waveform
from .dsp import (FeatureConfig, DEFAULT_FEATURE_CONFIG, feature_archive, features_for_segment,
                  item_shape, mel_filterbank, resample, segment)
from .augment import AugmentConfig, drawable_time_width, make_mix_pairs, mixup, spec_augment
from .datasplit import SPLIT_NAMES, NormStats, compute_norm_stats, normalize
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
          data_rate: int, seed: int = 0) -> RunHistory:
    """Fit ``model`` in place on features made at ``data_rate``, restored to
    the best-validation epoch; returns its history."""
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
    return history


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


def run_seeds(cfg: TrainConfig, data: FeatureSets,
              data_rate: int) -> tuple[dict, list[SeedResult]]:
    """Independent train/evaluate runs, one fresh default network per seed.
    Returns the cell's ``sweep_raw.json`` record and each seed's result."""
    results = []
    for seed in cfg.seeds:
        model = init_model(DEFAULT_ARCHITECTURE, data.n_classes, seed, dtype=np.float32)
        history = train(cfg, data.train, data.val, model, data_rate, seed=seed)
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

def _in_order(fn, items, jobs: int):
    """``fn`` of each item, in order; with ``jobs > 1``, on that many threads
    with at most ``2 * jobs`` items submitted ahead of the one being used."""
    if jobs <= 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(jobs) as pool:
        ahead = deque()
        for item in items:
            ahead.append(pool.submit(fn, item))
            if len(ahead) > 2 * jobs:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()


def build_feature_sets(manifest: Manifest,
                       load_waveform: Callable[[ManifestEntry], Waveform],
                       assignment: dict[str, str],
                       outputs: Mapping[Path, tuple[int, FeatureConfig]], seconds: float,
                       jobs: int = 1) -> list[tuple[NormStats, tuple, tuple]]:
    """Resample, segment, featurize, and normalize a corpus into the archives
    ``train.sprf``, ``val.sprf`` and ``test.sprf`` of each output directory,
    at its data rate with its config. Returns, per output in order, its stats
    and, per split, the segments and those outside the train range.

    Every item shape and filterbank is built before any audio is read. Each
    recording is read once, on one of ``jobs`` threads with at most
    ``2 * jobs`` ahead of the one being written, and resampled and segmented
    once per data rate, each rate's samples dropped before the next's. Rows
    go to their split's archive in manifest order, with each one's float64
    min and max. Each output's train extrema then give its stats, and each
    row is rescaled in place in float64 through a map of its archive. No
    archive is renamed into place unless all are complete.
    """
    configs = list(outputs.values())
    shapes = [item_shape(cfg, seconds, rate) for rate, cfg in configs]
    banks = [mel_filterbank(cfg, rate) for rate, cfg in configs]

    def featurize_recording(entry: ManifestEntry) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per output: the recording's float32 rows and each row's [min, max]."""
        waveform, per_output = load_waveform(entry), [None] * len(configs)
        for data_rate in dict.fromkeys(rate for rate, _ in configs):  # in output order
            segments = segment(resample(waveform, data_rate), seconds)
            for i in [i for i, (rate, _) in enumerate(configs) if rate == data_rate]:
                rows = np.empty((len(segments),) + shapes[i], dtype=np.float32)
                extrema = np.empty((len(segments), 2))
                for j, samples in enumerate(segments):
                    spectrogram = features_for_segment(samples, configs[i][1], banks[i])
                    rows[j] = spectrogram
                    extrema[j] = spectrogram.min(), spectrogram.max()
                per_output[i] = rows, extrema
            del segments  # before the next rate's are made
        return per_output

    extrema = [{name: [] for name in SPLIT_NAMES} for _ in outputs]  # per output and split
    with ExitStack() as stack:
        archives = [{name: stack.enter_context(feature_archive(f"{out}/{name}.sprf", shape))
                     for name in SPLIT_NAMES} for out, shape in zip(outputs, shapes)]
        recordings = stack.enter_context(closing(
            _in_order(featurize_recording, manifest.entries, jobs)))
        labels = manifest.label_indices()
        for entry, per_output in zip(manifest.entries, recordings):
            name, label = assignment[entry.recording_id], labels[entry.class_label]
            for split, split_extrema, (rows, row_extrema) in zip(archives, extrema, per_output):
                split[name].append(rows, [label] * len(rows))
                split_extrema[name].append(row_extrema)
        results = []
        for split, split_extrema, (rate, cfg) in zip(archives, extrema, configs):
            segments = tuple(archive.count for archive in split.values())
            if 0 in segments:
                raise SonarprepError(f"data rate {rate}, model rate {cfg.model_rate}: "
                                     f"{SPLIT_NAMES[segments.index(0)]} split produced "
                                     f"no segments of {seconds:g} s")
            stats = compute_norm_stats(np.concatenate(split_extrema["train"]))
            outside = []
            for name, archive in split.items():
                archive.transform(lambda x: normalize(x.astype(np.float64), stats))
                lo, hi = np.concatenate(split_extrema[name]).T
                outside.append(int(np.sum((lo < stats.global_min) | (hi > stats.global_max))))
            results.append((stats, segments, tuple(outside)))
    return results


def sweep(classes, cells: Iterable[tuple[TrainConfig, FeatureSets, int]]) -> dict:
    """``sweep_raw.json``: the classes and each ``(config, features, data rate)``
    cell's :func:`run_seeds` record. ``starmap`` drops a cell's features before it
    draws the next, so cells read as they are drawn are held one at a time."""
    return {"classes": list(classes),
            "cells": [record for record, _ in starmap(run_seeds, cells)]}

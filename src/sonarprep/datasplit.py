"""Leakage-free dataset splitting and feature normalization.

Splits are assigned per recording, never per segment, so all segments
of a recording land in the same partition. Within each class the
recording counts follow the requested ratios by largest remainder, and
a seeded shuffle decides which recordings fill each quota.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import SonarprepError
from .wavio import Manifest

SPLIT_NAMES = ("train", "val", "test")

# validation failure codes
LEAKAGE = "LeakageDetected"
DUPLICATE_ROW = "DuplicateRow"
MISSING_RECORDING = "MissingRecording"
UNKNOWN_RECORDING = "UnknownRecording"
INVALID_SPLIT_NAME = "InvalidSplitName"
MISSING_CLASS = "MissingClassInSplit"


class TooFewRecordingsError(SonarprepError):
    """The manifest has no recordings, or a class has fewer than three, so
    one per split is impossible."""


class TooFewClassesError(SonarprepError):
    """Fewer than two classes, so there is nothing to classify."""


def require_two_classes(classes, source) -> None:
    """Refuse a class list that no classifier can be trained on."""
    if len(classes) < 2:
        raise TooFewClassesError(f"{source} has {len(classes)} class(es) {list(classes)}, "
                                 f"need at least two")


class EmptyTrainingSetError(SonarprepError):
    """No training spectrograms were provided for normalization stats."""


class DegenerateStatsError(SonarprepError):
    """Normalization stats have min >= max."""


class SplitFormatError(SonarprepError):
    """A split file is malformed."""


@dataclass(frozen=True)
class SplitSpec:
    ratios: tuple[float, float, float] = (0.7, 0.1, 0.2)
    seed: int = 0

    def __post_init__(self):
        if len(self.ratios) != len(SPLIT_NAMES):
            raise ValueError("need one ratio per split (train, val, test)")
        if any(not (0.0 < r < 1.0) for r in self.ratios):
            raise ValueError("each split ratio must lie strictly between 0 and 1")
        if abs(sum(self.ratios) - 1.0) > 1e-9:
            raise ValueError(f"split ratios must sum to 1, got {sum(self.ratios)}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass
class SplitFile:
    """Recording-to-split assignment plus the seed that produced it."""

    assignment: dict[str, str]
    seed: int
    # split -> class -> (recording count, segment count); filled by stratified_split
    class_counts: dict[str, dict[str, tuple[int, int]]] = field(default_factory=dict)


@dataclass(frozen=True)
class NormStats:
    global_min: float
    global_max: float

    @property
    def degenerate(self) -> bool:
        return not (self.global_min < self.global_max)


@dataclass
class SplitReport:
    passed: bool
    failures: list[tuple[str, str]]  # (code, detail)

    def codes(self) -> set[str]:
        return {code for code, _ in self.failures}


def segment_counts(manifest: Manifest, seconds: float) -> dict[str, int]:
    """Whole segments per recording, from manifest durations."""
    if seconds <= 0:
        raise ValueError("segment length must be positive")
    return {e.recording_id: int(math.floor(e.duration_seconds / seconds + 1e-9))
            for e in manifest.entries}


def _class_quotas(n: int, ratios, seg_deficits) -> list[int]:
    """Largest-remainder quotas; leftovers prefer splits that would stay empty,
    then larger remainders, then the split that is furthest behind on segments."""
    targets = [n * r for r in ratios]
    quotas = [int(math.floor(t)) for t in targets]
    leftover = n - sum(quotas)
    order = sorted(
        range(len(ratios)),
        key=lambda s: (quotas[s] > 0, -(targets[s] - quotas[s]), -seg_deficits[s], s),
    )
    for s in order[:leftover]:
        quotas[s] += 1
    # guarantee every split sees the class, stealing from the largest quota
    while 0 in quotas:
        donor = max(range(len(quotas)), key=lambda s: quotas[s])
        if quotas[donor] <= 1:
            break
        quotas[donor] -= 1
        quotas[quotas.index(0)] += 1
    return quotas


def stratified_split(manifest: Manifest, counts: dict[str, int],
                     spec: SplitSpec) -> SplitFile:
    """Assign recordings to train/val/test, stratified by class.

    ``counts`` gives segments per recording and is used to bias quota
    tie-breaks toward the split lagging its segment share.
    """
    missing = [e.recording_id for e in manifest.entries if e.recording_id not in counts]
    if missing:
        raise ValueError(f"no segment count for recordings: {missing[:5]}")
    if not manifest.entries:
        raise TooFewRecordingsError("manifest has no recordings")
    require_two_classes(manifest.classes, "manifest")
    by_class: dict[str, list[str]] = {label: [] for label in manifest.classes}
    for e in manifest.entries:
        by_class[e.class_label].append(e.recording_id)
    for label, recs in by_class.items():
        if len(recs) < len(SPLIT_NAMES):
            raise TooFewRecordingsError(
                f"class {label!r} has {len(recs)} recordings, need at least "
                f"{len(SPLIT_NAMES)} for one per split"
            )
    rng = np.random.default_rng(spec.seed)
    assignment: dict[str, str] = {}
    class_counts = {s: {} for s in SPLIT_NAMES}
    seg_assigned = dict.fromkeys(SPLIT_NAMES, 0)
    seg_total = 0
    for label in manifest.classes:  # sorted, so iteration order is stable
        recs = list(by_class[label])
        deficits = [spec.ratios[i] * seg_total - seg_assigned[s]
                    for i, s in enumerate(SPLIT_NAMES)]
        quotas = _class_quotas(len(recs), spec.ratios, deficits)
        rng.shuffle(recs)
        cursor = 0
        for split_name, quota in zip(SPLIT_NAMES, quotas):
            chosen = recs[cursor:cursor + quota]
            cursor += quota
            for rec_id in chosen:
                assignment[rec_id] = split_name
            segs = sum(counts[r] for r in chosen)
            class_counts[split_name][label] = (len(chosen), segs)
            seg_assigned[split_name] += segs
        seg_total += sum(counts[r] for r in recs)
    return SplitFile(assignment, spec.seed, class_counts)


def validate_split(rows, manifest: Manifest) -> SplitReport:
    """Check (recording_id, split) rows, as loaded from disk, against a
    manifest: exact partition, no leakage, every class present in every
    split."""
    failures: list[tuple[str, str]] = []
    known = manifest.by_id()
    first_seen: dict[str, str] = {}
    for rec_id, split_name in rows:
        if split_name not in SPLIT_NAMES:
            failures.append((INVALID_SPLIT_NAME,
                             f"{rec_id!r} assigned to unknown split {split_name!r}"))
            continue
        if rec_id in first_seen:
            if first_seen[rec_id] != split_name:
                failures.append((LEAKAGE,
                                 f"{rec_id!r} appears in both "
                                 f"{first_seen[rec_id]!r} and {split_name!r}"))
            else:
                failures.append((DUPLICATE_ROW, f"{rec_id!r} listed twice"))
            continue
        first_seen[rec_id] = split_name
        if rec_id not in known:
            failures.append((UNKNOWN_RECORDING, f"{rec_id!r} not in manifest"))
    for rec_id in known:
        if rec_id not in first_seen:
            failures.append((MISSING_RECORDING, f"{rec_id!r} has no split assignment"))
    present: dict[str, set[str]] = {s: set() for s in SPLIT_NAMES}
    for rec_id, split_name in first_seen.items():
        if split_name in present and rec_id in known:
            present[split_name].add(known[rec_id].class_label)
    for split_name in SPLIT_NAMES:
        for label in manifest.classes:
            if label not in present[split_name]:
                failures.append((MISSING_CLASS,
                                 f"class {label!r} absent from {split_name!r}"))
    return SplitReport(passed=not failures, failures=failures)


def write_split_file(sf: SplitFile) -> str:
    """Serialize as CSV rows plus a seed footer comment. An ID is quoted
    when it holds a comma, a quote or a line break, as in the manifest, and
    when it starts with ``#`` or with or ends in white space, so every ID
    reads back verbatim."""
    out = io.StringIO()
    plain = csv.writer(out, lineterminator="\n")
    quoted = csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_ALL)
    plain.writerow(("recording_id", "split"))
    for rec_id, split_name in sorted(sf.assignment.items()):
        needs_quotes = rec_id.startswith("#") or rec_id != rec_id.strip()
        (quoted if needs_quotes else plain).writerow((rec_id, split_name))
    out.write(f"# seed={sf.seed}\n")
    return out.getvalue()


def read_split_rows(text: str) -> tuple[list[tuple[str, str]], int | None]:
    """Parse split-file text into raw rows and the recorded seed.

    Rows are returned verbatim (duplicates included) so a validator can
    inspect exactly what the file says. A line that starts with ``#`` is a
    comment; a quoted field may span lines.
    """
    rows: list[tuple[str, str]] = []
    seed = None
    lines = io.StringIO(text, newline="")
    if lines.readline().strip() != "recording_id,split":
        raise SplitFormatError("split file must start with header 'recording_id,split'")
    lineno = 1
    for line in lines:
        lineno += 1
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            body = stripped.lstrip("#").strip()
            if body.startswith("seed="):
                try:
                    seed = int(body[5:])
                except ValueError:
                    raise SplitFormatError(f"split file line {lineno}: seed "
                                           f"{body[5:]!r} is not an integer") from None
            continue
        record = csv.reader(chain([line], lines))  # pulls more lines only inside quotes
        parts = next(record)
        if len(parts) != 2:
            raise SplitFormatError(f"split file line {lineno}: expected 'recording_id,split'")
        rows.append((parts[0], parts[1]))
        lineno += record.line_num - 1
    return rows, seed


def compute_norm_stats(spectrograms) -> NormStats:
    """Global scalar min and max over every entry of the training features,
    given as an iterable of arrays."""
    lo, hi = np.inf, -np.inf
    count = 0
    for values in spectrograms:
        lo = min(lo, float(values.min()))
        hi = max(hi, float(values.max()))
        count += 1
    if count == 0:
        raise EmptyTrainingSetError("cannot compute stats from zero spectrograms")
    return NormStats(lo, hi)


def normalize(values: np.ndarray, stats: NormStats) -> np.ndarray:
    """Min-max scale so the training extrema map to [0, 1]; no clamping,
    so validation or test values outside the training range may exceed it."""
    if stats.degenerate:
        raise DegenerateStatsError(
            f"stats are degenerate: min={stats.global_min}, max={stats.global_max}"
        )
    span = stats.global_max - stats.global_min
    return (values - stats.global_min) / span

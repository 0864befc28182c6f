"""Command-line pipeline: ingest, split, featurize, train, eval, sweep,
gradcam, and report.

Configuration lives in a flat text file of ``section.key = value``
lines; every key has a sensible default, the ``SONARPREP_SEED``
environment variable overrides configured seeds, and each settings
flag is a config key given on the command line, which overrides both.
Paths are not config keys: every command takes them as flags only.
All outputs are deterministic for fixed inputs and seeds.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import sys
from contextlib import contextmanager
from functools import partial, wraps
from dataclasses import dataclass, field, replace
from pathlib import Path

import click
import numpy as np

from . import __version__
from .errors import SonarprepError
from .files import write_json, write_text
from .wavio import (Manifest, ManifestEntry, load_manifest, parse_wav, wav_duration,
                    write_manifest)
from .dsp import (DEFAULT_FEATURE_CONFIG, item_shape, read_feature_archive, scale_config,
                  segment_length)
from .augment import AugmentConfig, drawable_time_width
from .datasplit import (SPLIT_NAMES, SplitSpec, read_split_rows, require_splittable,
                        require_two_classes, segment_counts, stratified_split,
                        validate_split, write_split_file)
from .nn import (DEFAULT_ARCHITECTURE, apply_checkpoint, infer, init_model,
                 load_checkpoint, save_checkpoint)
from .trainer import TrainConfig, FeatureSets, build_feature_sets, history_csv, run_seeds
from .trainer import sweep as run_sweep
from .evaluation import (aggregate_cams, evaluate,
                         render_confusion_csv, render_confusion_rownorm_csv,
                         render_sweep_table, write_cam_report)

ENV_SEED = "SONARPREP_SEED"


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {value}")
    return value


def parse_rate(text: str) -> int:
    """Sampling rate with optional k-suffix: '2k' -> 2000."""
    text = text.strip()
    scale = 1
    if text and text[-1] in "kK":
        scale = 1000
        text = text[:-1]
    value = float(text) * scale
    if not math.isfinite(value) or value != int(value) or int(value) <= 0:
        raise ValueError(f"invalid rate {text!r}")
    return int(value)


def _parse_rate_list(text: str) -> tuple[int, ...]:
    return tuple(parse_rate(part) for part in text.split(",") if part.strip())


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"invalid boolean {text!r}")


def _positive(caster):
    def cast(text: str):
        value = caster(text)
        if not value > 0:
            raise ValueError(f"must be positive, got {value}")
        return value
    return cast


@dataclass(frozen=True)
class RunConfig:
    """Effective settings for a pipeline run.

    The library configs are held whole: ``train`` carries the feature and
    augmentation configs, ``split`` the split spec.
    """

    data_rate: int = 32000
    segment_seconds: float = 5.0
    jobs: int = 1
    sweep_data_rates: tuple[int, ...] = ()
    sweep_model_rates: tuple[int, ...] = ()
    train: TrainConfig = field(default_factory=TrainConfig)
    split: SplitSpec = field(default_factory=SplitSpec)

    def __post_init__(self):
        for rate in (self.data_rate, *self.sweep_data_rates):
            segment_length(self.segment_seconds, rate)

    def values(self) -> dict:
        """The effective value of every config key."""
        objects = {"run": self, "train": self.train, "feature": self.train.feature,
                   "augment": self.train.augment, "split": self.split}
        return {key: getattr(objects[target], name)
                for key, (target, name, _) in _CONFIG_KEYS.items()}

    def fingerprint(self) -> str:
        """Hash of canonical JSON of the effective value of every config key
        but ``data.jobs``, which changes no output bytes."""
        values = self.values()
        del values["data.jobs"]
        return hashlib.sha256(json.dumps(values, sort_keys=True).encode("utf-8")).hexdigest()

    def front_end(self) -> dict:
        """The effective value of every key that shapes a feature:
        ``data.rate``, ``data.segment_seconds`` and each ``feature.*`` key."""
        return {key: value for key, value in self.values().items()
                if key in ("data.rate", "data.segment_seconds")
                or key.startswith("feature.")}


# key -> (object the value is staged for, field name, caster); each object is
# built once after every key is read, so keys may come in any order
_CONFIG_KEYS = {
    "data.rate": ("run", "data_rate", parse_rate),
    "data.segment_seconds": ("run", "segment_seconds", _positive(_finite)),
    "data.jobs": ("run", "jobs", _positive(int)),
    "feature.model_rate": ("feature", "model_rate", parse_rate),
    "feature.win_length": ("feature", "win_length", int),
    "feature.hop_length": ("feature", "hop_length", int),
    "feature.n_mels": ("feature", "n_mels", int),
    "feature.f_min": ("feature", "f_min", _finite),
    "feature.f_max": ("feature", "f_max", _finite),
    "augment.base_time_mask_width": ("augment", "base_time_mask_width", int),
    "augment.freq_mask_width": ("augment", "freq_mask_width", int),
    "augment.n_time_masks": ("augment", "n_time_masks", int),
    "augment.n_freq_masks": ("augment", "n_freq_masks", int),
    "augment.mixup_alpha": ("augment", "mixup_alpha", _finite),
    "train.lr": ("train", "lr", _finite),
    "train.batch_size": ("train", "batch_size", int),
    "train.max_epochs": ("train", "max_epochs", int),
    "train.patience": ("train", "patience", int),
    "train.seeds": ("train", "seeds", lambda v: tuple(int(p) for p in v.split(","))),
    "train.use_mixup": ("train", "use_mixup", _parse_bool),
    "split.ratios": ("split", "ratios", lambda v: tuple(_finite(p) for p in v.split(","))),
    "split.seed": ("split", "seed", int),
    "sweep.data_rates": ("run", "sweep_data_rates", _parse_rate_list),
    "sweep.model_rates": ("run", "sweep_model_rates", _parse_rate_list),
}


@contextmanager
def _naming(path):
    """Prefix ``path`` to the message of a refusal raised in the block."""
    try:
        yield
    except SonarprepError as exc:
        raise SonarprepError(f"{path}: {exc}") from exc


def _parse_file(path, parse):
    """``parse`` of the text of a config, manifest, split, ``classes.json`` or
    ``sweep_raw.json`` file; every refusal names the file once."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (IsADirectoryError, UnicodeDecodeError) as exc:
        raise SonarprepError(f"{path}: not a text file ({getattr(exc, 'strerror', exc)})") \
            from exc
    with _naming(path):
        return parse(text)


def _stage(staged: dict, key: str, value: str, where: str) -> None:
    """Cast one value and stage it, with its origin, for its object."""
    target, name, caster = _CONFIG_KEYS[key]
    try:
        staged[target][name] = (caster(value), where)
    except (ValueError, TypeError) as exc:
        raise SonarprepError(f"{where}: {key} = {value!r}: {exc}") from exc


def _read_config_lines(staged: dict, text: str) -> None:
    entries = []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SonarprepError(f"line {lineno}, column {len(raw_line) + 1}: "
                                 f"expected 'section.key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or "." not in key:
            raise SonarprepError(f"line {lineno}, column {raw_line.find('=') + 1}: "
                                 f"malformed key {key!r}")
        if key not in _CONFIG_KEYS:
            raise SonarprepError(f"line {lineno}: unknown key {key!r}")
        if not value:
            raise SonarprepError(f"line {lineno}, column {raw_line.find('=') + 2}: "
                                 f"empty value for {key!r}")
        entries.append((key, value, lineno))
    for key, value, lineno in entries:  # cast once every line has parsed
        _stage(staged, key, value, f"line {lineno}")


def load_config(path=None, env: dict | None = None,
                flags: dict | None = None) -> RunConfig:
    """Read a flat ``section.key = value`` config file over the defaults.

    A missing path (or empty file) yields the default configuration.
    ``SONARPREP_SEED`` in the environment overrides the split seed and
    re-bases the training seeds. ``flags`` maps each settings flag to
    ``(config key, value or None)``; a given value is cast like a file
    line and wins over the file and the environment.
    """
    env = os.environ if env is None else env
    # target -> field -> (value, origin)
    staged: dict[str, dict] = {t: {} for t in ("run", "feature", "augment", "train", "split")}
    if path is not None:
        _parse_file(path, partial(_read_config_lines, staged))
    if ENV_SEED in env:
        try:
            seed = int(env[ENV_SEED])
        except ValueError as exc:
            raise SonarprepError(f"{ENV_SEED} must be an integer") from exc
        seeds, _ = staged["train"].get("seeds", (TrainConfig.seeds, None))
        staged["split"]["seed"] = (seed, ENV_SEED)
        staged["train"]["seeds"] = (tuple(seed + i for i in range(len(seeds))), ENV_SEED)
    for flag, (key, value) in (flags or {}).items():
        if value is not None:
            _stage(staged, key, value, flag)

    def build(target: str, make, **derived):
        """Construct one object; its checks name where the values they name came from."""
        values = {name: value for name, (value, _) in staged[target].items()}
        try:
            return make(**values, **derived)
        except ValueError as exc:
            origins = {name: where for name, (_, where) in staged[target].items()}
            named = dict.fromkeys([where for name, where in origins.items()
                                   if re.search(rf"\b{name}\b", str(exc))] or origins.values())
            lines = ", ".join(w for w in named if w.startswith("line "))
            sources = [w for w in named if not w.startswith("line ")]
            sources += [f"{path}: {lines}"] if lines else []
            raise SonarprepError(f"{', '.join(sources)}: {exc}") from exc

    run = build("run", RunConfig)
    feature = build("feature", partial(replace, DEFAULT_FEATURE_CONFIG))
    train = build("train", TrainConfig, feature=feature,
                  augment=build("augment", AugmentConfig))
    return replace(run, train=train, split=build("split", SplitSpec))


# ---------------------------------------------------------------------------
# shared command plumbing
# ---------------------------------------------------------------------------

def _echo(message: str) -> None:
    """Print one line to the current standard output. Naming the stream
    keeps click from caching it: its cache holds every ``sys.stdout`` it
    sees for good, so a caller that redirects stdout per call would leak
    every buffer."""
    click.echo(message, file=click.get_text_stream("stdout"))


def _guarded(fn):
    """Convert package and file-system errors into exit-code-1 CLI failures."""
    @wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except FileNotFoundError as exc:
            raise click.ClickException(f"missing input: {exc}") from exc
        except (SonarprepError, OSError) as exc:
            raise click.ClickException(str(exc)) from exc
    return wrapper


def _settings_record(cfg: RunConfig) -> dict:
    return {"config_hash": cfg.fingerprint(),
            "seeds": {"split": cfg.split.seed, "train": list(cfg.train.seeds)}}


def _inputs_record(model_path: Path, features_dir: Path) -> dict:
    """SHA-256 of the checkpoint and test archive that eval or gradcam read."""
    digests = {}
    for role, path in (("model", model_path), ("test_features", features_dir / "test.sprf")):
        digest = hashlib.sha256()
        with open(path, "rb") as f:
            for block in iter(lambda: f.read(1 << 20), b""):
                digest.update(block)
        digests[role] = digest.hexdigest()
    return {"sha256": digests}


def _write_run_record(out_dir: Path, command: str, details: dict) -> None:
    """Write run.json: the command, what it depends on, and library versions;
    no paths and no times."""
    record = {
        "command": command,
        **details,
        "versions": {
            "sonarprep": __version__,
            "numpy": np.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
    }
    write_json(out_dir / "run.json", record)


def _read_wav(corpus_root: Path, entry: ManifestEntry):
    path = corpus_root / entry.file_path
    with _naming(path):
        return parse_wav(path.read_bytes(), source_id=entry.recording_id)


def _provenance(record: dict, source) -> dict:
    """The classes and :meth:`RunConfig.front_end` that a ``classes.json`` record
    or a checkpoint header holds, as one flat dict ``{"classes": [...], "data.rate":
    ..., ...}``, or ``{}``; the classes are at least two distinct, non-empty names."""
    front_end = record.get("front_end", {})
    if not isinstance(front_end, dict):
        raise SonarprepError(f"{source}: front_end must be an object, not {front_end!r}")
    made = {"classes": record["classes"], **front_end} if "classes" in record else front_end
    if "classes" in made:
        classes = made["classes"]
        if not (isinstance(classes, list) and all(isinstance(c, str) and c for c in classes)
                and len(set(classes)) == len(classes)):
            raise SonarprepError(f"{source}: classes must be a list of distinct, non-empty "
                                 f"names, not {classes!r}")
        require_two_classes(classes, source)
    return made


def _load_features(features_dir: Path, splits, wanted: dict, source: str,
                   shape: tuple[int, int] | None = None):
    """The :func:`_provenance` of ``classes.json`` and the (features, labels) of
    each named split archive. Features whose record differs from ``wanted`` in
    any key, or lacks one, are refused, naming ``source``, before any archive is
    read; so are items of another given shape."""
    path = features_dir / "classes.json"
    try:
        record = json.loads(_parse_file(path, str))
    except (ValueError, RecursionError) as exc:
        raise SonarprepError(f"{path}: not a classes file ({exc!r})") from exc
    if not isinstance(record, dict) or "classes" not in record:
        raise SonarprepError(f"{path}: not an object with a 'classes' key")
    made = _provenance(record, path)
    differ = [key for key in wanted if made.get(key) != wanted[key]]
    if differ:
        raise SonarprepError(
            f"{features_dir}: features made with "
            + ", ".join(f"{key} = {made.get(key)}" for key in differ)
            + f"; {source} " + ", ".join(f"{key} = {wanted[key]}" for key in differ))
    n_classes, arrays = len(made["classes"]), []
    for name in splits:
        path = features_dir / f"{name}.sprf"
        values, labels = read_feature_archive(path)
        if not labels.size:
            raise SonarprepError(f"{path}: archive holds no segments")
        if shape and values.shape[1:] != shape:
            raise SonarprepError(f"{path}: items of shape {values.shape[1:]}, but the "
                                 f"config makes {shape}")
        if labels.max() >= n_classes:
            raise SonarprepError(f"{path}: labels outside 0..{n_classes - 1} "
                                 f"of classes.json")
        arrays.append((values, labels))
    return made, arrays


def _check_cell(cfg: RunConfig) -> None:
    """Warn on stderr, named as in :func:`_echo`, when the data rate clamps the mel
    band; then refuse a cell whose item shape or mask width the config cannot make,
    or whose zero item a fresh default network cannot take, naming both rates."""
    feature = cfg.train.feature
    if feature.f_max > cfg.data_rate / 2:
        click.echo(f"warning: data rate {cfg.data_rate} Hz clamps the mel band of model "
                   f"rate {feature.model_rate} Hz from f_max {feature.f_max:g} Hz to "
                   f"{cfg.data_rate / 2:g} Hz", file=click.get_text_stream("stderr"))
    item = np.zeros((1,) + item_shape(feature, cfg.segment_seconds, cfg.data_rate), np.float32)
    drawable_time_width(cfg.train.augment, cfg.data_rate, feature.model_rate)
    try:  # the class count does not change which items fit
        infer(init_model(DEFAULT_ARCHITECTURE, 2, seed=0), item)
    except SonarprepError as exc:
        raise SonarprepError(f"data rate {cfg.data_rate}, model rate {feature.model_rate}: "
                             f"{exc}") from exc


def _write_features(manifest: Manifest, corpus_root: Path, assignment: dict[str, str],
                    cells: dict[Path, RunConfig]) -> list:
    """Check every cell, featurize each directory's cell in one :func:`build_feature_sets`
    pass, and write its ``norm_stats.json`` and ``classes.json``; returns that pass's result."""
    for cfg in cells.values():
        _check_cell(cfg)
    first = next(iter(cells.values()))  # the cells differ only in their front ends
    built = build_feature_sets(manifest, partial(_read_wav, corpus_root), assignment,
                               {out: (c.data_rate, c.train.feature) for out, c in cells.items()},
                               first.segment_seconds, jobs=first.jobs)
    for (out, cfg), (stats, _, _) in zip(cells.items(), built):
        write_json(out / "norm_stats.json",
                   {"global_min": stats.global_min, "global_max": stats.global_max})
        write_json(out / "classes.json", {"classes": list(manifest.classes),
                                          "front_end": cfg.front_end()})
    return built


def _read_features(features_dir: Path, cfg: RunConfig, source: str) -> tuple[dict, FeatureSets]:
    """The :func:`_provenance` and feature sets of a features directory ``cfg`` made."""
    made, splits = _load_features(features_dir, SPLIT_NAMES, cfg.front_end(), source,
                                  item_shape(cfg.train.feature, cfg.segment_seconds,
                                             cfg.data_rate))
    return made, FeatureSets(*splits, n_classes=len(made["classes"]))


def _load_test_run(model_path: Path, features_dir: Path):
    """The classes, test archive and checkpoint model that eval and gradcam read;
    the classes and front end that the checkpoint's header holds must be the features'."""
    header, tensors = load_checkpoint(model_path)
    made, [(features, labels)] = _load_features(features_dir, ["test"],
                                                _provenance(header, model_path),
                                                f"{model_path} was trained with")
    model = init_model(DEFAULT_ARCHITECTURE, len(made["classes"]), seed=0)
    with _naming(model_path):
        apply_checkpoint(model, tensors)
    return made["classes"], features, labels, model


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

@click.group()
@click.version_option(__version__)
def main():
    """Passive-sonar spectrogram pipeline: data prep, training, reporting."""


@main.command()
@click.option("--corpus-root", type=click.Path(exists=True, file_okay=False, path_type=Path),
              required=True, help="Directory of <class_label>/**/<recording>.wav files.")
@click.option("--out", type=click.Path(dir_okay=False, path_type=Path), required=True,
              help="Manifest CSV to write.")
@_guarded
def ingest(corpus_root: Path, out: Path):
    """Scan a class-per-directory corpus, subfolders included, into a manifest
    CSV whose IDs are paths under the root without ``.wav``: ``Cargo/ship1/0001``."""
    entries = []
    for class_dir in sorted(p for p in corpus_root.iterdir() if p.is_dir()):
        for wav_path in sorted(class_dir.rglob("*.wav")):
            file_path = wav_path.relative_to(corpus_root)
            with _naming(wav_path):
                duration = wav_duration(wav_path)
            entries.append(ManifestEntry(
                recording_id=file_path.with_suffix("").as_posix(),
                class_label=class_dir.name,
                file_path=str(file_path),
                duration_seconds=duration,
            ))
    manifest = Manifest(entries)
    write_text(out, write_manifest(manifest))
    _echo(f"wrote {len(entries)} recordings across "
          f"{len(manifest.classes)} classes to {out}")


@main.command("split")
@click.option("--config", "config_path", type=click.Path(exists=True, path_type=Path))
@click.option("--manifest", "manifest_path", required=True,
              type=click.Path(exists=True, path_type=Path))
@click.option("--ratios", type=str, default=None, help="train,val,test e.g. 0.7,0.1,0.2")
@click.option("--seed", type=str, default=None)
@click.option("--segment-seconds", type=str, default=None)
@click.option("--out", type=click.Path(dir_okay=False, path_type=Path),
              help="Split file to write; needed unless --validate.")
@click.option("--validate", "do_validate", is_flag=True,
              help="Check an existing split file instead of writing one.")
@click.option("--split-file", type=click.Path(exists=True, path_type=Path),
              help="Split file to validate; needed with --validate.")
@_guarded
def split_cmd(config_path, manifest_path, ratios, seed, segment_seconds, out,
              do_validate, split_file):
    """Write (or validate) a leakage-free recording-level split."""
    if do_validate and split_file is None:
        raise click.UsageError("Missing option '--split-file' (needed with --validate).")
    if not do_validate and out is None:
        raise click.UsageError("Missing option '--out' (needed unless --validate).")
    cfg = load_config(config_path, flags={
        "--ratios": ("split.ratios", ratios), "--seed": ("split.seed", seed),
        "--segment-seconds": ("data.segment_seconds", segment_seconds)})
    manifest = _parse_file(manifest_path, load_manifest)
    if do_validate:
        rows, _ = _parse_file(split_file, read_split_rows)
        failures = validate_split(rows, manifest)
        for code, detail in failures:
            _echo(f"FAIL {code}: {detail}")
        if failures:
            raise click.ClickException(f"{split_file}: split failed validation "
                                       f"({len(failures)} problems)")
        _echo("split OK")
        return
    counts = segment_counts(manifest, cfg.segment_seconds)
    with _naming(manifest_path):
        assignment = stratified_split(manifest, counts, cfg.split)
    write_text(out, write_split_file(assignment, cfg.split.seed))
    for name in SPLIT_NAMES:
        recs = [r for r, split_name in assignment.items() if split_name == name]
        _echo(f"{name}: {len(recs)} recordings, {sum(counts[r] for r in recs)} segments")


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True, path_type=Path))
@click.option("--manifest", "manifest_path", required=True,
              type=click.Path(exists=True, path_type=Path))
@click.option("--split-file", required=True, type=click.Path(exists=True, path_type=Path))
@click.option("--corpus-root", required=True,
              type=click.Path(exists=True, file_okay=False, path_type=Path))
@click.option("--data-rate", type=str, default=None, help="Target rate, e.g. 8k.")
@click.option("--jobs", type=str, default=None, help="Parallel featurization workers.")
@click.option("--out", required=True, type=click.Path(file_okay=False, path_type=Path))
@_guarded
def featurize(config_path, manifest_path, split_file, corpus_root, data_rate, jobs, out):
    """Resample, segment, and write normalized log-mel archives per split."""
    cfg = load_config(config_path, flags={"--data-rate": ("data.rate", data_rate),
                                          "--jobs": ("data.jobs", jobs)})
    manifest = _parse_file(manifest_path, load_manifest)
    with _naming(manifest_path):
        require_splittable(manifest)
    rows, _ = _parse_file(split_file, read_split_rows)
    failures = validate_split(rows, manifest)
    if failures:
        raise SonarprepError(f"{split_file}: split file failed validation: "
                             + "; ".join(f"{code}: {detail}" for code, detail in failures[:3]))
    [(_, segments, outside)] = _write_features(manifest, corpus_root, dict(rows), {out: cfg})
    for name, n, n_outside in zip(SPLIT_NAMES, segments, outside):
        _echo(f"{name}.sprf: {n} segments"
              + (f", {n_outside} outside the train range" if name != "train" else ""))
    _write_run_record(out, "featurize", _settings_record(cfg))


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True, path_type=Path))
@click.option("--features", "features_dir", required=True,
              type=click.Path(exists=True, file_okay=False, path_type=Path))
@click.option("--out", required=True, type=click.Path(file_okay=False, path_type=Path))
@_guarded
def train(config_path, features_dir, out):
    """Train over the configured seeds and save checkpoints and histories."""
    cfg = load_config(config_path)
    _check_cell(cfg)
    made, data = _read_features(features_dir, cfg, "the config sets")
    classes = made.pop("classes")
    record, results = run_seeds(cfg.train, data, cfg.data_rate)
    for result in results:
        save_checkpoint(out / f"model_seed{result.seed}.spnn", result.model.params,
                        {"classes": classes, "front_end": made})
        write_text(out / f"history_seed{result.seed}.csv", history_csv(result.history))
        _echo(f"seed {result.seed}: test accuracy {result.metrics.accuracy:.4f} "
              f"(best epoch {result.history.best_epoch})")
    write_json(out / "summary.json", {
        "classes": classes,
        "mean_accuracy": record["mean_accuracy"],
        "std_accuracy": record["std_accuracy"],
        "seeds": [{"seed": r.seed, "best_epoch": r.history.best_epoch,
                   "stopped_epoch": r.history.stopped_epoch, "test_accuracy": accuracy}
                  for r, accuracy in zip(results, record["accuracies"])]})
    write_text(out / "confusion_mean.csv",
               render_confusion_csv(record["mean_confusion"], classes))
    _write_run_record(out, "train", _settings_record(cfg))
    _echo(f"mean test accuracy "
          f"{record['mean_accuracy']:.4f} +/- {record['std_accuracy']:.4f}")


@main.command("eval")
@click.option("--model", "model_path", required=True,
              type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--features", "features_dir", required=True,
              type=click.Path(exists=True, file_okay=False, path_type=Path))
@click.option("--out", "out_dir", required=True,
              type=click.Path(file_okay=False, path_type=Path))
@_guarded
def eval_cmd(model_path, features_dir, out_dir):
    """Evaluate a checkpoint on the test archive."""
    classes, features, labels, model = _load_test_run(model_path, features_dir)
    metrics = evaluate(model, features, labels)
    write_json(out_dir / "metrics.json", {
        "accuracy": metrics.accuracy,
        "per_class_recall": {c: metrics.per_class_recall[i]
                             for i, c in enumerate(classes)},
        "n_test": int(labels.size),
    })
    write_text(out_dir / "confusion_counts.csv",
               render_confusion_csv(metrics.confusion, classes))
    write_text(out_dir / "confusion_rownorm.csv",
               render_confusion_rownorm_csv(metrics.confusion, classes))
    _write_run_record(out_dir, "eval", _inputs_record(model_path, features_dir))
    _echo(f"accuracy {metrics.accuracy:.4f} on {labels.size} segments")


@main.command()
@click.option("--model", "model_path", required=True,
              type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--features", "features_dir", required=True,
              type=click.Path(exists=True, file_okay=False, path_type=Path))
@click.option("--out", "out_dir", required=True,
              type=click.Path(file_okay=False, path_type=Path))
@_guarded
def gradcam(model_path, features_dir, out_dir):
    """Aggregate class activation maps over the test archive."""
    classes, features, labels, model = _load_test_run(model_path, features_dir)
    maps, counts = aggregate_cams(model, features, labels)
    write_cam_report(out_dir, maps, counts, classes)
    _write_run_record(out_dir, "gradcam", _inputs_record(model_path, features_dir))
    _echo(f"aggregated maps over {labels.size} segments "
          f"({counts[:, 0].sum()} classified correctly)")


@main.command("sweep")
@click.option("--config", "config_path", type=click.Path(exists=True, path_type=Path))
@click.option("--manifest", "manifest_path", required=True,
              type=click.Path(exists=True, path_type=Path))
@click.option("--corpus-root", required=True,
              type=click.Path(exists=True, file_okay=False, path_type=Path))
@click.option("--data-rates", type=str, default=None, help="e.g. 2k,4k,8k")
@click.option("--model-rates", type=str, default=None, help="e.g. 8k,16k,32k")
@click.option("--out", required=True, type=click.Path(file_okay=False, path_type=Path))
@_guarded
def sweep_cmd(config_path, manifest_path, corpus_root, data_rates, model_rates, out):
    """Train the full grid of data-rate x model-rate combinations."""
    cfg = load_config(config_path, flags={
        "--data-rates": ("sweep.data_rates", data_rates),
        "--model-rates": ("sweep.model_rates", model_rates)})
    manifest = _parse_file(manifest_path, load_manifest)
    if not cfg.sweep_data_rates or not cfg.sweep_model_rates:
        raise click.ClickException("sweep needs --data-rates and --model-rates "
                                   "(or sweep.* config keys)")
    with _naming(manifest_path):  # the split refuses what require_splittable does
        assignment = stratified_split(manifest, segment_counts(manifest, cfg.segment_seconds),
                                      cfg.split)
    features = [scale_config(cfg.train.feature, m) for m in sorted(set(cfg.sweep_model_rates))]
    cells = {out / "features" / f"{d}_{f.model_rate}":
             replace(cfg, data_rate=d, train=replace(cfg.train, feature=f))
             for d in sorted(set(cfg.sweep_data_rates)) for f in features}
    built = _write_features(manifest, corpus_root, assignment, cells)
    raw = run_sweep(manifest.classes, ((cell.train, _read_features(d, cell, "the sweep sets")[1],
                                        cell.data_rate) for d, cell in cells.items()))
    write_json(out / "sweep_raw.json", raw)
    write_text(out / "sweep_table.csv", render_sweep_table(raw["cells"]))
    _write_run_record(out, "sweep", _settings_record(cfg))
    for cell, (_, _, (_, val, test)) in zip(raw["cells"], built):
        _echo(f"data {cell['data_rate']} Hz / model {cell['model_rate']} Hz: "
              f"{cell['mean_accuracy']:.4f} +/- {cell['std_accuracy']:.4f}, "
              f"val {val} / test {test} outside the train range")


@main.command()
@click.option("--raw", "raw_path", required=True,
              type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--out", "out_dir", required=True,
              type=click.Path(file_okay=False, path_type=Path))
@_guarded
def report(raw_path, out_dir):
    """Re-render the sweep table and confusion views from raw sweep output."""
    try:
        raw = json.loads(_parse_file(raw_path, str))
        classes = raw["classes"]
        files = {"sweep_table.csv": render_sweep_table(raw["cells"])}
        for cell in raw["cells"]:
            stem = f"confusion_{cell['data_rate']}_{cell['model_rate']}"
            conf = np.asarray(cell["mean_confusion"])
            files[f"{stem}.csv"] = render_confusion_csv(conf, classes)
            files[f"{stem}_rownorm.csv"] = render_confusion_rownorm_csv(conf, classes)
    except (ValueError, KeyError, TypeError, IndexError, RecursionError) as exc:
        raise SonarprepError(f"{raw_path}: not a sweep record ({exc!r})") from exc
    for name, text in files.items():
        write_text(out_dir / name, text)
    _echo(f"rendered {len(raw['cells'])} sweep cells to {out_dir}")


if __name__ == "__main__":
    main()

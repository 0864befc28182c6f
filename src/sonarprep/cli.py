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
import sys
from functools import partial
from dataclasses import dataclass, field, replace
from pathlib import Path

import click
import numpy as np

from . import __version__
from .errors import SonarprepError
from .files import write_json, write_text
from .wavio import (Manifest, ManifestEntry, load_manifest, parse_wav, wav_duration,
                    write_manifest)
from .dsp import (DEFAULT_FEATURE_CONFIG, ArchiveFormatError, read_feature_archive,
                  segment_length, write_feature_archive)
from .augment import AugmentConfig
from .datasplit import (SPLIT_NAMES, SplitSpec, read_split_rows, require_two_classes,
                        segment_counts, stratified_split, validate_split,
                        write_split_file)
from .nn import (DEFAULT_ARCHITECTURE, apply_checkpoint, init_model,
                 load_checkpoint, save_checkpoint)
from .trainer import TrainConfig, FeatureSets, build_feature_sets, history_csv, run_seeds
from .trainer import sweep as run_sweep
from .evaluation import (aggregate_cams, aggregate_runs, evaluate,
                         render_confusion_csv, render_confusion_rownorm_csv,
                         render_sweep_table, write_cam_report)

ENV_SEED = "SONARPREP_SEED"


class ConfigParseError(SonarprepError):
    """A config line could not be parsed."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class UnknownKeyError(SonarprepError):
    """A config line names a key this tool does not know."""


class OutOfRangeError(SonarprepError):
    """A config value parses but falls outside its allowed range."""


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

    def fingerprint(self) -> str:
        """Hash of canonical JSON of the effective value of every config key
        but ``data.jobs``, which changes no output bytes."""
        objects = {"run": self, "train": self.train, "feature": self.train.feature,
                   "augment": self.train.augment, "split": self.split}
        values = {key: getattr(objects[target], name)
                  for key, (target, name, _) in _CONFIG_KEYS.items()
                  if key != "data.jobs"}
        return hashlib.sha256(json.dumps(values, sort_keys=True).encode("utf-8")).hexdigest()


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


def _read_text(path) -> str:
    """Text of a config, manifest or split file, or an error naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (IsADirectoryError, UnicodeDecodeError) as exc:
        raise SonarprepError(f"{path}: not a text file ({exc})") from exc


def _stage(staged: dict, key: str, value: str, where: str) -> None:
    """Cast one value and stage it, with its origin, for its object."""
    target, name, caster = _CONFIG_KEYS[key]
    try:
        staged[target][name] = (caster(value), where)
    except (ValueError, TypeError) as exc:
        raise OutOfRangeError(f"{where}: {key} = {value!r}: {exc}") from exc


def _read_config_lines(path) -> list[tuple[str, str, int]]:
    entries = []
    for lineno, raw_line in enumerate(_read_text(path).splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigParseError("expected 'section.key = value'",
                                   lineno, len(raw_line) + 1)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or "." not in key:
            raise ConfigParseError(f"malformed key {key!r}", lineno,
                                   raw_line.find("=") + 1)
        if key not in _CONFIG_KEYS:
            raise UnknownKeyError(f"line {lineno}: unknown key {key!r}")
        if not value:
            raise ConfigParseError(f"empty value for {key!r}", lineno,
                                   raw_line.find("=") + 2)
        entries.append((key, value, lineno))
    return entries


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
        for key, value, lineno in _read_config_lines(path):
            _stage(staged, key, value, f"line {lineno}")
    if ENV_SEED in env:
        try:
            seed = int(env[ENV_SEED])
        except ValueError as exc:
            raise OutOfRangeError(f"{ENV_SEED} must be an integer") from exc
        seeds, _ = staged["train"].get("seeds", (TrainConfig.seeds, None))
        staged["split"]["seed"] = (seed, ENV_SEED)
        staged["train"]["seeds"] = (tuple(seed + i for i in range(len(seeds))), ENV_SEED)
    for flag, (key, value) in (flags or {}).items():
        if value is not None:
            _stage(staged, key, value, flag)

    def build(target: str, make, **derived):
        """Construct one object; its own checks name where its values came from."""
        values = {name: value for name, (value, _) in staged[target].items()}
        try:
            return make(**values, **derived)
        except ValueError as exc:
            origins = dict.fromkeys(where for _, where in staged[target].values())
            raise OutOfRangeError(f"{', '.join(origins)}: {exc}") from exc

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
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except FileNotFoundError as exc:
            raise click.ClickException(f"missing input: {exc}") from exc
        except (SonarprepError, OSError) as exc:
            raise click.ClickException(str(exc)) from exc
    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
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
    return parse_wav((corpus_root / entry.file_path).read_bytes(),
                     source_id=entry.recording_id)


def _load_classes(features_dir: Path, rates: tuple[int, int] | None = None) -> list[str]:
    """Class names from ``classes.json``: at least two distinct, non-empty
    names. Given ``(data rate, model rate)``, refuse features made at other
    rates."""
    path = features_dir / "classes.json"
    try:
        record = json.loads(path.read_text())
        made = (record.get("data_rate"), record.get("model_rate"))
        classes = record["classes"]
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise SonarprepError(f"{path}: not a classes file ({exc!r})") from exc
    if not (isinstance(classes, list) and all(isinstance(c, str) and c for c in classes)
            and len(set(classes)) == len(classes)):
        raise SonarprepError(f"{path}: classes must be a list of distinct, non-empty "
                             f"names, not {classes!r}")
    require_two_classes(classes, path)
    if rates and made != rates:
        raise SonarprepError(f"{features_dir}: features made at data/model rate {made[0]}/"
                             f"{made[1]} Hz, the config sets {rates[0]}/{rates[1]} Hz")
    return classes


def _load_split(features_dir: Path, name: str,
                n_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Features and labels of one split archive written by ``featurize``."""
    path = features_dir / f"{name}.sprf"
    values, labels = read_feature_archive(path)
    if not labels.size:
        raise SonarprepError(f"{path}: archive holds no segments")
    if labels.max() >= n_classes:
        raise ArchiveFormatError(f"{path}: labels outside 0..{n_classes - 1} "
                                 f"of classes.json")
    return values, labels


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

@click.group()
@click.version_option(__version__)
def main():
    """Passive-sonar spectrogram pipeline: data prep, training, reporting."""


@main.command()
@click.option("--corpus-root", type=click.Path(exists=True, file_okay=False, path_type=Path),
              required=True, help="Directory of <class_label>/<recording>.wav files.")
@click.option("--out", type=click.Path(dir_okay=False, path_type=Path), required=True,
              help="Manifest CSV to write.")
@_guarded
def ingest(corpus_root: Path, out: Path):
    """Scan a class-per-directory corpus into a manifest CSV."""
    entries = []
    for class_dir in sorted(p for p in corpus_root.iterdir() if p.is_dir()):
        for wav_path in sorted(class_dir.glob("*.wav")):
            entries.append(ManifestEntry(
                recording_id=wav_path.stem,
                class_label=class_dir.name,
                file_path=str(wav_path.relative_to(corpus_root)),
                duration_seconds=wav_duration(wav_path),
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
    manifest = load_manifest(_read_text(manifest_path))
    if do_validate:
        rows, _ = read_split_rows(_read_text(split_file))
        report = validate_split(rows, manifest)
        for code, detail in report.failures:
            _echo(f"FAIL {code}: {detail}")
        if not report.passed:
            raise click.ClickException(f"split failed validation "
                                       f"({len(report.failures)} problems)")
        _echo("split OK")
        return
    counts = segment_counts(manifest, cfg.segment_seconds)
    sf = stratified_split(manifest, counts, cfg.split)
    write_text(out, write_split_file(sf))
    for name in ("train", "val", "test"):
        recs = sum(c[0] for c in sf.class_counts[name].values())
        segs = sum(c[1] for c in sf.class_counts[name].values())
        _echo(f"{name}: {recs} recordings, {segs} segments")


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
    manifest = load_manifest(_read_text(manifest_path))
    require_two_classes(manifest.classes, manifest_path)
    rows, _ = read_split_rows(_read_text(split_file))
    report = validate_split(rows, manifest)
    if not report.passed:
        raise click.ClickException(
            "split file failed validation: "
            + "; ".join(f"{code}: {detail}" for code, detail in report.failures[:3])
        )
    assignment = dict(rows)
    [(data, stats)] = build_feature_sets(manifest, lambda entry: _read_wav(corpus_root, entry),
                                         assignment, cfg.data_rate, [cfg.train.feature],
                                         cfg.segment_seconds, jobs=cfg.jobs)
    for name in SPLIT_NAMES:
        x, y = getattr(data, name)
        write_feature_archive(out / f"{name}.sprf", x, y)
        _echo(f"{name}.sprf: {len(y)} segments")
    write_json(out / "norm_stats.json",
               {"global_min": stats.global_min, "global_max": stats.global_max})
    write_json(out / "classes.json", {"classes": list(manifest.classes),
                                      "data_rate": cfg.data_rate,
                                      "model_rate": cfg.train.feature.model_rate})
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
    classes = _load_classes(features_dir, (cfg.data_rate, cfg.train.feature.model_rate))
    data = FeatureSets(*(_load_split(features_dir, name, len(classes))
                         for name in SPLIT_NAMES),
                       n_classes=len(classes))
    results = run_seeds(cfg.train, data, cfg.data_rate)
    summary = {"seeds": [], "classes": classes}
    for result in results:
        save_checkpoint(out / f"model_seed{result.seed}.spnn", result.model.params)
        write_text(out / f"history_seed{result.seed}.csv", history_csv(result.history))
        summary["seeds"].append({
            "seed": result.seed,
            "best_epoch": result.history.best_epoch,
            "stopped_epoch": result.history.stopped_epoch,
            "test_accuracy": result.metrics.accuracy,
        })
        _echo(f"seed {result.seed}: test accuracy {result.metrics.accuracy:.4f} "
              f"(best epoch {result.history.best_epoch})")
    aggregate = aggregate_runs([r.metrics for r in results])
    summary["mean_accuracy"] = aggregate.mean_accuracy
    summary["std_accuracy"] = aggregate.std_accuracy
    write_json(out / "summary.json", summary)
    write_text(out / "confusion_mean.csv",
               render_confusion_csv(aggregate.mean_confusion, classes))
    _write_run_record(out, "train", _settings_record(cfg))
    _echo(f"mean test accuracy "
          f"{aggregate.mean_accuracy:.4f} +/- {aggregate.std_accuracy:.4f}")


def _restore_model(model_path: Path, n_classes: int):
    model = init_model(DEFAULT_ARCHITECTURE, n_classes, seed=0, dtype=np.float32)
    return apply_checkpoint(model, load_checkpoint(model_path))


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
    classes = _load_classes(features_dir)
    features, labels = _load_split(features_dir, "test", len(classes))
    model = _restore_model(model_path, len(classes))
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
    classes = _load_classes(features_dir)
    features, labels = _load_split(features_dir, "test", len(classes))
    model = _restore_model(model_path, len(classes))
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
    manifest = load_manifest(_read_text(manifest_path))
    if not cfg.sweep_data_rates or not cfg.sweep_model_rates:
        raise click.ClickException("sweep needs --data-rates and --model-rates "
                                   "(or sweep.* config keys)")
    raw = run_sweep(cfg.sweep_data_rates, cfg.sweep_model_rates, cfg.train, manifest,
                    lambda entry: _read_wav(corpus_root, entry),
                    split_spec=cfg.split, seconds=cfg.segment_seconds,
                    jobs=cfg.jobs)
    write_json(out / "sweep_raw.json", raw)
    write_text(out / "sweep_table.csv", render_sweep_table(raw["cells"]))
    _write_run_record(out, "sweep", _settings_record(cfg))
    for cell in raw["cells"]:
        _echo(f"data {cell['data_rate']} Hz / model {cell['model_rate']} Hz: "
              f"{cell['mean_accuracy']:.4f} +/- {cell['std_accuracy']:.4f}")


@main.command()
@click.option("--raw", "raw_path", required=True,
              type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--out", "out_dir", required=True,
              type=click.Path(file_okay=False, path_type=Path))
@_guarded
def report(raw_path, out_dir):
    """Re-render the sweep table and confusion views from raw sweep output."""
    try:
        raw = json.loads(raw_path.read_text())
        classes = raw["classes"]
        files = {"sweep_table.csv": render_sweep_table(raw["cells"])}
        for cell in raw["cells"]:
            stem = f"confusion_{cell['data_rate']}_{cell['model_rate']}"
            conf = np.asarray(cell["mean_confusion"])
            files[f"{stem}.csv"] = render_confusion_csv(conf, classes)
            files[f"{stem}_rownorm.csv"] = render_confusion_rownorm_csv(conf, classes)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise SonarprepError(f"{raw_path}: not a sweep record ({exc!r})") from exc
    for name, text in files.items():
        write_text(out_dir / name, text)
    _echo(f"rendered {len(raw['cells'])} sweep cells to {out_dir}")


if __name__ == "__main__":
    main()

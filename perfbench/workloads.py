"""The three workloads: synthetic corpora, CLI stages, and output checks.

Every workload is closed-loop: one process runs its CLI stages in
sequence, and the next pass starts only when the previous one ended.
Corpora come from the benchmark seed; split and training seeds are fixed,
so segment counts, step counts and (for a given seed) every artifact byte
repeat exactly.

A workload's inputs are made in two steps. ``write_inputs`` writes the
synthetic corpus and the config once per run; it is the benchmark's own
code and is not timed. ``setup`` makes the package calls that prepare
what the timed stages consume (a manifest, feature archives, a
checkpoint); ``setup_s`` times only that.
"""

from __future__ import annotations

import csv
import json
import math
import wave
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# chords sit below 1.75 kHz so every class stays separable below the
# Nyquist frequency of the lowest sweep data rate (4 kHz)
CLASS_CHORDS = {
    "boxer": (200.0, 1400.0),
    "corgi": (450.0, 1100.0),
    "husky": (700.0, 1650.0),
    "vizsla": (300.0, 900.0),
}
SPLITS = ("train", "val", "test")


def chord_signal(rng: np.random.Generator, rate: int, seconds: float,
                 freqs) -> np.ndarray:
    n = int(round(rate * seconds))
    t = np.arange(n) / rate
    x = np.zeros(n)
    for f in freqs:
        amp = 0.25 * float(rng.uniform(0.8, 1.2))
        phase = float(rng.uniform(0, 2 * np.pi))
        x += amp * np.sin(2 * np.pi * f * t + phase)
    x += 0.01 * rng.standard_normal(n)
    return x * min(1.0, 0.95 / np.abs(x).max())


def write_corpus(root: Path, seed: int, recordings_per_class: int,
                 seconds: float, rate: int) -> float:
    """Write <root>/<class>/<class><i>.wav as 16-bit PCM with the stdlib
    ``wave`` module; returns the corpus length in seconds of audio."""
    rng = np.random.default_rng(seed)
    for label, freqs in CLASS_CHORDS.items():
        class_dir = root / label
        class_dir.mkdir(parents=True, exist_ok=True)
        for i in range(recordings_per_class):
            x = chord_signal(rng, rate, seconds, freqs)
            ints = np.clip(np.rint(x * 32768.0), -32768, 32767).astype("<i2")
            with wave.open(str(class_dir / f"{label}{i:02d}.wav"), "wb") as fh:
                fh.setnchannels(1)
                fh.setsampwidth(2)
                fh.setframerate(rate)
                fh.writeframes(ints.tobytes())
    return len(CLASS_CHORDS) * recordings_per_class * seconds


def read_split(path: Path) -> dict[str, str]:
    rows = [line for line in path.read_text().splitlines()[1:]
            if line and not line.startswith("#")]
    return dict(line.split(",") for line in rows)


def archive_shapes(path: Path) -> list[tuple[int, int]]:
    """Item shapes of a feature archive, read from its headers alone."""
    data = path.read_bytes()
    if data[:5] != b"SPRF1":
        raise ValueError(f"{path.name}: bad magic")
    count = int.from_bytes(data[5:9], "little")
    shapes, pos = [], 9
    for _ in range(count):
        frames, mels = (int.from_bytes(data[pos:pos + 4], "little"),
                        int.from_bytes(data[pos + 4:pos + 8], "little"))
        shapes.append((frames, mels))
        pos += 12 + 4 * frames * mels
    if pos != len(data):
        raise ValueError(f"{path.name}: {len(data) - pos} bytes unaccounted for")
    return shapes


@dataclass
class Stage:
    name: str
    args: list[str]
    check: Callable[[], list[str]]  # problems found, run after success


@dataclass
class Facts:
    """What one pass produced, beyond timings: the fixed counts and the
    quality numbers later changes must keep."""

    counts: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)


class Workload:
    name = ""
    jobs = 1
    expected_spans: tuple[str, ...] = ()
    recordings_per_class = 0
    seconds = 0.0
    rate = 0
    segment_seconds = 5.0
    config = ""
    setup_counts: dict = {}

    def write_inputs(self, inputs: Path, seed: int) -> None:
        """Write the synthetic corpus and the config under ``inputs``."""
        self.corpus, self.cfg = inputs / "corpus", inputs / "run.cfg"
        self.audio_s = write_corpus(self.corpus, seed, self.recordings_per_class,
                                    self.seconds, self.rate)
        self.cfg.write_text(self.config)

    def setup(self, root: Path, run_cli) -> None:
        """Make the package calls that prepare, under ``root``, what the
        timed stages consume."""
        raise NotImplementedError

    def stages(self, root: Path, out: Path, facts: Facts) -> list[Stage]:
        raise NotImplementedError

    def workload_metrics(self, stage_s: dict, facts: Facts) -> dict[str, float]:
        return {}

    # shared checks -------------------------------------------------------

    def segments_per_recording(self) -> int:
        return math.floor(self.seconds / self.segment_seconds + 1e-9)

    def check_archives(self, feats: Path, split_csv: Path, shape,
                       facts: Facts) -> list[str]:
        assignment = read_split(split_csv)
        per_rec = self.segments_per_recording()
        problems = []
        for name in SPLITS:
            expected = per_rec * sum(1 for s in assignment.values() if s == name)
            shapes = archive_shapes(feats / f"{name}.sprf")
            facts.counts[f"segments.{name}"] = len(shapes)
            if len(shapes) != expected:
                problems.append(f"{name}.sprf has {len(shapes)} items, "
                                f"expected {expected}")
            bad = [s for s in shapes if s != tuple(shape)]
            if bad:
                problems.append(f"{name}.sprf item shape {bad[0]}, expected {shape}")
        return problems


def _config(**keys) -> str:
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


def _run_setup(run_cli, commands) -> None:
    for args in commands:
        ok, output = run_cli(args)
        if not ok:
            raise RuntimeError(f"set-up {args[0]} failed: {output}")


class TrainSmall(Workload):
    name = "train-small"
    epochs = 2
    recordings_per_class = 10
    seconds = 25.0
    rate = 8000
    expected_spans = ("cli.train", "dsp.read_feature_archive", "trainer.run_seeds",
                      "trainer.train", "trainer.validation_pass",
                      "augment.spec_augment", "augment.mixup", "nn.forward",
                      "nn.backward", "nn.adam_step", "evaluation.evaluate",
                      "evaluation.predict")
    config = _config(**{
        "data.rate": "8k", "data.segment_seconds": "5.0",
        "feature.model_rate": "8k", "feature.win_length": 512,
        "feature.hop_length": 320, "feature.n_mels": 32, "feature.f_min": 50,
        "feature.f_max": 3500, "augment.base_time_mask_width": 16,
        "augment.freq_mask_width": 4, "train.lr": 0.005,
        "train.batch_size": 16, "train.max_epochs": epochs,
        "train.patience": epochs, "train.seeds": 0, "split.seed": 0,
    })

    def setup(self, root, run_cli):
        _run_setup(run_cli, (
            ["ingest", "--corpus-root", self.corpus, "--out", root / "manifest.csv"],
            ["split", "--config", self.cfg, "--manifest", root / "manifest.csv",
             "--out", root / "split.csv"],
            ["featurize", "--config", self.cfg, "--manifest",
             root / "manifest.csv", "--split-file", root / "split.csv",
             "--corpus-root", self.corpus, "--out", root / "feats"],
        ))
        self.setup_counts = {f"segments.{name}": len(archive_shapes(
            root / "feats" / f"{name}.sprf")) for name in SPLITS}
        self.n_train = self.setup_counts["segments.train"]

    def stages(self, root, out, facts):
        runs = out / "runs"

        def check_train():
            with open(runs / "history_seed0.csv") as fh:
                rows = list(csv.DictReader(fh))
            val = [float(r["val_loss"]) for r in rows]
            facts.values["final_val_loss"] = val[-1]
            facts.counts["epochs"] = len(rows)
            facts.counts["train_steps"] = len(rows) * math.ceil(self.n_train / 16)
            problems = []
            if len(rows) != self.epochs:
                problems.append(f"{len(rows)} epochs ran, expected {self.epochs}")
            if not math.isfinite(val[-1]) or not val[-1] < val[0]:
                problems.append(f"final val loss {val[-1]} not finite and below "
                                f"the first epoch's {val[0]}")
            if not (runs / "model_seed0.spnn").is_file():
                problems.append("no checkpoint written")
            return problems

        return [Stage("train", ["train", "--config", self.cfg,
                                "--features", root / "feats", "--out", runs],
                      check_train)]

    def workload_metrics(self, stage_s, facts):
        return {"train_samples_per_s": self.epochs * self.n_train / stage_s["train"],
                "final_val_loss": facts.values.get("final_val_loss", 0.0)}


class PaperInfer(Workload):
    name = "paper-infer"
    jobs = 2
    recordings_per_class = 5
    seconds = 25.0
    rate = 32000
    model_seed = 7
    expected_spans = ("cli.ingest", "cli.split", "cli.featurize", "cli.eval",
                      "cli.gradcam", "wavio.parse_wav", "dsp.resample",
                      "dsp.segment", "dsp.features_for_segment",
                      "dsp.mel_filterbank", "dsp.write_feature_archive",
                      "dsp.read_feature_archive", "datasplit.stratified_split",
                      "datasplit.compute_norm_stats", "datasplit.normalize",
                      "nn.forward", "nn.backward", "nn.grad_cam",
                      "evaluation.predict", "evaluation.evaluate",
                      "evaluation.aggregate_cams")
    config = _config(**{"data.rate": "32k", "data.segment_seconds": "5.0",
                        "split.seed": 0})

    def setup(self, root, run_cli):
        root.mkdir(parents=True)
        from sonarprep.nn import DEFAULT_ARCHITECTURE, init_model, save_checkpoint
        model = init_model(DEFAULT_ARCHITECTURE, len(CLASS_CHORDS),
                           seed=self.model_seed, dtype=np.float32)
        save_checkpoint(root / "model.spnn", model.params)

    def stages(self, root, out, facts):
        manifest, split_csv, feats = out / "manifest.csv", out / "split.csv", out / "feats"
        shape = (1 + int(self.segment_seconds * self.rate) // 320, 64)

        def check_manifest():
            with open(manifest) as fh:
                n = sum(1 for _ in csv.DictReader(fh))
            expected = len(CLASS_CHORDS) * self.recordings_per_class
            return [] if n == expected else [f"manifest lists {n}, expected {expected}"]

        def check_split():
            n = len(read_split(split_csv))
            return [] if n == len(CLASS_CHORDS) * self.recordings_per_class \
                else [f"split assigns {n} recordings"]

        def check_eval():
            n_test = json.loads((out / "eval" / "metrics.json").read_text())["n_test"]
            facts.counts["n_test"] = n_test
            expected = facts.counts.get("segments.test")
            return [] if n_test == expected else [f"eval saw {n_test}, expected {expected}"]

        def check_cams():
            sidecar = json.loads((out / "cams" / "cams.json").read_text())
            total = sum(b["count"] for b in sidecar["buckets"])
            facts.counts["cam_buckets"] = len(sidecar["buckets"])
            expected = facts.counts.get("segments.test")
            return [] if total == expected else [f"cam buckets hold {total}, "
                                                 f"expected {expected}"]

        return [
            Stage("ingest", ["ingest", "--corpus-root", self.corpus,
                             "--out", manifest], check_manifest),
            Stage("split", ["split", "--config", self.cfg,
                            "--manifest", manifest, "--out", split_csv], check_split),
            Stage("featurize", ["featurize", "--config", self.cfg,
                                "--manifest", manifest, "--split-file", split_csv,
                                "--corpus-root", self.corpus, "--out", feats,
                                "--jobs", str(self.jobs)],
                  lambda: self.check_archives(feats, split_csv, shape, facts)),
            Stage("eval", ["eval", "--model", root / "model.spnn",
                           "--features", feats, "--out", out / "eval"], check_eval),
            Stage("gradcam", ["gradcam", "--model", root / "model.spnn",
                              "--features", feats, "--out", out / "cams"], check_cams),
        ]

    def workload_metrics(self, stage_s, facts):
        n_test = facts.counts.get("segments.test", 0)
        return {"audio_s_per_s": self.audio_s / stage_s["featurize"],
                "eval_samples_per_s": n_test / stage_s["eval"],
                "cam_samples_per_s": n_test / stage_s["gradcam"]}


class SweepRates(Workload):
    name = "sweep-rates"
    recordings_per_class = 4
    seconds = 2.0
    # 22.05 kHz -> 8 and 4 kHz are the ratios 160/441 and 80/441: the
    # polyphase path with many filter phases, like 44.1 -> 32 kHz (320/441)
    rate = 22050
    segment_seconds = 2.0
    data_rates = (4000, 8000)
    model_rates = (8000, 16000)  # from the documented grid 8k,16k,32k
    expected_spans = ("cli.sweep", "wavio.parse_wav", "dsp.resample",
                      "dsp.features_for_segment", "dsp.mel_filterbank",
                      "datasplit.stratified_split", "trainer.sweep",
                      "trainer.build_feature_sets", "trainer.run_seeds",
                      "trainer.train", "nn.forward", "nn.backward",
                      "evaluation.evaluate")
    config = _config(**{
        "data.rate": "8k", "data.segment_seconds": segment_seconds,
        "feature.model_rate": "8k", "feature.win_length": 512,
        "feature.hop_length": 320, "feature.n_mels": 32, "feature.f_min": 50,
        "feature.f_max": 3500, "augment.base_time_mask_width": 16,
        "augment.freq_mask_width": 4, "train.lr": 0.005,
        "train.batch_size": 16, "train.max_epochs": 1, "train.patience": 1,
        "train.seeds": 0, "split.seed": 0,
    })

    def setup(self, root, run_cli):
        _run_setup(run_cli, (["ingest", "--corpus-root", self.corpus,
                              "--out", root / "manifest.csv"],))

    def stages(self, root, out, facts):
        def check_sweep():
            raw = json.loads((out / "sweep" / "sweep_raw.json").read_text())
            cells = {(c["data_rate"], c["model_rate"]): c for c in raw["cells"]}
            facts.counts["cells"] = len(cells)
            problems = [f"cell {d}/{m} missing" for d in self.data_rates
                        for m in self.model_rates if (d, m) not in cells]
            problems += [f"cell {k} has {len(c['accuracies'])} accuracies"
                         for k, c in cells.items() if len(c["accuracies"]) != 1]
            return problems

        def rates(values):
            return ",".join(str(r) for r in values)

        return [Stage("sweep", ["sweep", "--config", self.cfg,
                                "--manifest", root / "manifest.csv",
                                "--corpus-root", self.corpus,
                                "--data-rates", rates(self.data_rates),
                                "--model-rates", rates(self.model_rates),
                                "--out", out / "sweep"], check_sweep)]


WORKLOADS = {w.name: w for w in (TrainSmall, PaperInfer, SweepRates)}

# artifacts whose bytes the package promises to reproduce
DETERMINISTIC = ("run.json", "*.sprf", "*.spnn", "summary.json", "sweep_raw.json")


def artifact_hashes(out: Path) -> dict[str, str]:
    import hashlib
    hashes = {}
    for pattern in DETERMINISTIC:
        for path in sorted(out.rglob(pattern)):
            hashes[str(path.relative_to(out))] = hashlib.sha256(
                path.read_bytes()).hexdigest()[:16]
    return dict(sorted(hashes.items()))

"""Config parsing and the command-line pipeline, driven through CliRunner."""

import contextlib
import gc
import hashlib
import io
import json
import shutil
import struct
import weakref
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from sonarprep.cli import (ConfigParseError, OutOfRangeError, UnknownKeyError,
                           load_config, main, parse_rate)
from sonarprep.datasplit import read_split_rows
from sonarprep.dsp import write_feature_archive
from sonarprep import cli, nn, trainer
from sonarprep.nn import load_checkpoint, save_checkpoint
from synthdata import make_corpus, write_pcm16

SMOKE_CONFIG = """\
# pipeline smoke settings
data.rate = 8k
data.segment_seconds = 5.0
feature.model_rate = 8k
feature.win_length = 256
feature.hop_length = 80
feature.n_mels = 24
feature.f_min = 50
feature.f_max = 3500
augment.base_time_mask_width = 8
augment.freq_mask_width = 3
train.lr = 0.002
train.batch_size = 8
train.max_epochs = 2
train.patience = 2
train.seeds = 0
split.ratios = 0.5,0.25,0.25
split.seed = 7
"""


class TestParseRate:
    @pytest.mark.parametrize("text,value", [
        ("8000", 8000), ("8k", 8000), ("8K", 8000), ("2k", 2000),
        ("32k", 32000), ("44100", 44100), ("0.5k", 500),
    ])
    def test_accepted_forms(self, text, value):
        assert parse_rate(text) == value

    @pytest.mark.parametrize("text", ["0", "-8k", "8.3", "k", "fast"])
    def test_rejected_forms(self, text):
        with pytest.raises(ValueError):
            parse_rate(text)


class TestLoadConfig:
    def test_defaults_without_file(self):
        cfg = load_config(None, env={})
        assert cfg.data_rate == 32000
        assert cfg.train.feature.win_length == 1024
        assert cfg.train.lr == 5e-5
        assert cfg.train.batch_size == 64
        assert cfg.train.max_epochs == 100
        assert cfg.train.patience == 50
        assert cfg.train.seeds == (0, 1, 2)
        assert cfg.split.ratios == (0.7, 0.1, 0.2)

    def test_file_overrides_defaults(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text(SMOKE_CONFIG)
        cfg = load_config(p, env={})
        assert cfg.data_rate == 8000
        assert cfg.train.feature.model_rate == 8000
        assert cfg.train.feature.n_mels == 24
        assert not hasattr(cfg.train.augment, "data_rate")
        assert not hasattr(cfg.train.augment, "model_rate")
        assert cfg.train.batch_size == 8
        assert cfg.split.seed == 7
        assert cfg.train.seeds == (0,)

    def test_key_order_does_not_matter(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("feature.f_max = 3500\nfeature.model_rate = 8k\n")
        cfg = load_config(p, env={})
        assert cfg.train.feature.f_max == 3500.0
        assert cfg.train.feature.model_rate == 8000

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "c.cfg"
        # augment rates come only from data.rate and feature.model_rate, and
        # paths only from flags
        for line in ("trian.lr = 0.1\n", "augment.data_rate = 2k\n",
                     "paths.manifest = m.csv\n"):
            p.write_text(line)
            with pytest.raises(UnknownKeyError):
                load_config(p, env={})

    def test_parse_error_reports_line(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("data.rate = 8k\ntrain.lr 0.01\n")
        with pytest.raises(ConfigParseError) as err:
            load_config(p, env={})
        assert err.value.line == 2

    def test_out_of_range_value(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("train.batch_size = 0\n")
        with pytest.raises(OutOfRangeError):
            load_config(p, env={})

    def test_uncastable_value(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("train.max_epochs = soon\n")
        with pytest.raises(OutOfRangeError):
            load_config(p, env={})

    def test_env_seed_rebases_all_seeds(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("train.seeds = 0,1,2\nsplit.seed = 5\n")
        cfg = load_config(p, env={"SONARPREP_SEED": "40"})
        assert cfg.split.seed == 40
        assert cfg.train.seeds == (40, 41, 42)

    def test_env_seed_must_be_integer(self):
        with pytest.raises(OutOfRangeError):
            load_config(None, env={"SONARPREP_SEED": "lucky"})

    def test_comments_and_blanks_ignored(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("\n# note\n  \ndata.rate = 16k\n")
        assert load_config(p, env={}).data_rate == 16000

    def test_flags_are_cast_like_keys_and_win(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("split.seed = 5\ndata.rate = 16k\n")
        cfg = load_config(p, env={"SONARPREP_SEED": "40"},
                          flags={"--seed": ("split.seed", "3"),
                                 "--data-rate": ("data.rate", "8k"),
                                 "--jobs": ("data.jobs", None)})
        assert cfg.split.seed == 3
        assert cfg.train.seeds == (40, 41, 42)
        assert cfg.data_rate == 8000
        assert cfg.jobs == 1

    @pytest.mark.parametrize("line", [
        "data.rate = inf", "data.rate = 1e306k", "data.segment_seconds = inf", "train.lr = nan",
        "augment.mixup_alpha = nan", "feature.f_max = inf", "split.ratios = nan,0.5,0.5"])
    def test_non_finite_rejected(self, tmp_path, line):
        p = tmp_path / "c.cfg"
        p.write_text(line + "\n")
        with pytest.raises(OutOfRangeError, match="line 1"):
            load_config(p, env={})

    def test_segment_must_be_whole_samples_at_sweep_rates(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("data.rate = 8k\ndata.segment_seconds = 0.001\n")
        assert load_config(p, env={}).segment_seconds == 0.001  # 8 samples
        with pytest.raises(OutOfRangeError, match="22050 Hz"):  # 22.05 samples
            load_config(p, env={}, flags={"--data-rates": ("sweep.data_rates", "8k,22.05k")})

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_jobs_below_one_rejected(self, tmp_path, value):
        p = tmp_path / "c.cfg"
        p.write_text(f"data.jobs = {value}\n")
        with pytest.raises(OutOfRangeError, match="line 1"):
            load_config(p, env={})


def test_readme_lists_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Config format", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
    keys = [line.partition("=")[0].strip() for line in block.splitlines() if line.strip()]
    assert sorted(keys) == sorted(cli._CONFIG_KEYS)


class TestFingerprint:
    BASE = "data.rate = 8k\nfeature.model_rate = 8k\nfeature.f_max = 3500\n"

    def fingerprint(self, tmp_path, text, **flags):
        p = tmp_path / "c.cfg"
        p.write_text(text)
        return load_config(p, env={}, flags=flags).fingerprint()

    def test_ignores_key_order(self, tmp_path):
        reordered = "feature.f_max = 3500\nfeature.model_rate = 8k\ndata.rate = 8k\n"
        assert (self.fingerprint(tmp_path, self.BASE)
                == self.fingerprint(tmp_path, reordered))

    @pytest.mark.parametrize("line", ["feature.n_mels = 64", "data.jobs = 4"])
    def test_ignores_defaults_paths_and_jobs(self, tmp_path, line):
        assert (self.fingerprint(tmp_path, self.BASE)
                == self.fingerprint(tmp_path, self.BASE + line + "\n"))

    def test_flag_equals_key(self, tmp_path):
        without_rate = "feature.model_rate = 8k\nfeature.f_max = 3500\n"
        assert (self.fingerprint(tmp_path, self.BASE)
                == self.fingerprint(tmp_path, without_rate,
                                    **{"--data-rate": ("data.rate", "8k")}))

    def test_ignores_descriptor_repr(self, tmp_path, monkeypatch):
        before = self.fingerprint(tmp_path, self.BASE)
        monkeypatch.setattr(nn.Conv, "__repr__", lambda self: "Conv(changed)")
        assert repr(nn.DEFAULT_ARCHITECTURE).count("Conv(changed)")
        assert self.fingerprint(tmp_path, self.BASE) == before

    def test_changes_with_a_setting(self, tmp_path):
        assert (self.fingerprint(tmp_path, self.BASE)
                != self.fingerprint(tmp_path, self.BASE + "feature.n_mels = 32\n"))


def assert_clean_failure(result):
    """Exit code 1 with a single ``Error:`` line and no traceback."""
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), repr(result.exception)
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1, result.output
    assert "Traceback" not in result.output


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Corpus + manifest + split + features, shared by the command tests."""
    root = tmp_path_factory.mktemp("pipeline")
    make_corpus(root / "corpus", recordings_per_class=4, seconds=15.0,
                rate=8000, seed=1,
                classes={"alpha": (300.0, 1200.0), "bravo": (700.0, 2500.0)})
    (root / "run.cfg").write_text(SMOKE_CONFIG)
    runner = CliRunner()
    steps = [
        ["ingest", "--corpus-root", str(root / "corpus"),
         "--out", str(root / "manifest.csv")],
        ["split", "--config", str(root / "run.cfg"),
         "--manifest", str(root / "manifest.csv"),
         "--out", str(root / "split.csv")],
        ["featurize", "--config", str(root / "run.cfg"),
         "--manifest", str(root / "manifest.csv"),
         "--split-file", str(root / "split.csv"),
         "--corpus-root", str(root / "corpus"),
         "--out", str(root / "feats")],
        ["train", "--config", str(root / "run.cfg"),
         "--features", str(root / "feats"),
         "--out", str(root / "runs")],
    ]
    for args in steps:
        result = runner.invoke(main, args, catch_exceptions=False)
        assert result.exit_code == 0, f"{args[0]} failed: {result.output}"
    return root, runner


class TestPipelineCommands:
    def test_ingest_wrote_manifest(self, pipeline):
        root, _ = pipeline
        lines = (root / "manifest.csv").read_text().strip().splitlines()
        assert lines[0] == "recording_id,class_label,file_path,duration_seconds"
        assert len(lines) == 9  # header + 8 recordings

    def test_split_validates_cleanly(self, pipeline):
        root, runner = pipeline
        result = runner.invoke(main, [
            "split", "--config", str(root / "run.cfg"),
            "--manifest", str(root / "manifest.csv"),
            "--validate", "--split-file", str(root / "split.csv")])
        assert result.exit_code == 0
        assert "split OK" in result.output

    def test_keeps_no_redirected_stdout(self, pipeline):
        # an in-process caller that redirects stdout per command gets each
        # buffer back: nothing the command printed through holds on to it
        root, _ = pipeline
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            main.main(args=["split", "--config", str(root / "run.cfg"),
                            "--manifest", str(root / "manifest.csv"),
                            "--validate", "--split-file", str(root / "split.csv")],
                      prog_name="sonarprep", standalone_mode=False)
        assert buf.getvalue() == "split OK\n"
        ref = weakref.ref(buf)
        del buf
        gc.collect()
        assert ref() is None

    def test_corrupted_split_fails_with_exit_one(self, pipeline, tmp_path):
        root, runner = pipeline
        text = (root / "split.csv").read_text()
        lines = text.splitlines()
        first_id = lines[1].split(",")[0]
        lines.insert(2, f"{first_id},val")
        bad = tmp_path / "bad_split.csv"
        bad.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, [
            "split", "--manifest", str(root / "manifest.csv"),
            "--validate", "--split-file", str(bad)])
        assert result.exit_code == 1
        assert "LeakageDetected" in result.output

    def test_featurize_outputs(self, pipeline):
        root, _ = pipeline
        feats = root / "feats"
        for name in ("train.sprf", "val.sprf", "test.sprf", "norm_stats.json",
                     "classes.json", "run.json"):
            assert (feats / name).exists()
        stats = json.loads((feats / "norm_stats.json").read_text())
        assert stats["global_min"] < stats["global_max"]
        classes = json.loads((feats / "classes.json").read_text())
        assert classes == {"classes": ["alpha", "bravo"], "data_rate": 8000,
                           "model_rate": 8000}

    def test_featurize_is_deterministic_across_jobs(self, pipeline, tmp_path):
        root, runner = pipeline
        outs = []
        for jobs in ("1", "3"):
            out = tmp_path / f"feats_j{jobs}"
            result = runner.invoke(main, [
                "featurize", "--config", str(root / "run.cfg"),
                "--manifest", str(root / "manifest.csv"),
                "--split-file", str(root / "split.csv"),
                "--corpus-root", str(root / "corpus"),
                "--jobs", jobs, "--out", str(out)])
            assert result.exit_code == 0
            outs.append(out)
        for name in ("train.sprf", "val.sprf", "test.sprf", "run.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_train_outputs(self, pipeline):
        root, _ = pipeline
        runs = root / "runs"
        assert (runs / "model_seed0.spnn").exists()
        history = (runs / "history_seed0.csv").read_text().strip().splitlines()
        assert history[0] == "epoch,train_loss,val_loss,val_acc"
        assert len(history) == 3  # two epochs
        summary = json.loads((runs / "summary.json").read_text())
        assert summary["seeds"][0]["seed"] == 0
        assert 0.0 <= summary["mean_accuracy"] <= 1.0

    def test_eval_outputs(self, pipeline, tmp_path):
        root, runner = pipeline
        out = tmp_path / "evals"
        result = runner.invoke(main, [
            "eval", "--model", str(root / "runs" / "model_seed0.spnn"),
            "--features", str(root / "feats"), "--out", str(out)])
        assert result.exit_code == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics["per_class_recall"]) == {"alpha", "bravo"}
        counts = (out / "confusion_counts.csv").read_text().strip().splitlines()
        assert counts[0] == "true\\pred,alpha,bravo"
        total = sum(int(v) for line in counts[1:] for v in line.split(",")[1:])
        assert total == metrics["n_test"]

    def test_gradcam_outputs(self, pipeline, tmp_path):
        root, runner = pipeline
        out = tmp_path / "cams"
        result = runner.invoke(main, [
            "gradcam", "--model", str(root / "runs" / "model_seed0.spnn"),
            "--features", str(root / "feats"), "--out", str(out)])
        assert result.exit_code == 0
        sidecar = json.loads((out / "cams.json").read_text())
        assert len(sidecar["buckets"]) == 4  # 2 classes x correct/incorrect

    @pytest.mark.parametrize("command", ["eval", "gradcam"])
    def test_run_record_hashes_inputs(self, pipeline, tmp_path, command):
        root, runner = pipeline
        params = load_checkpoint(root / "runs" / "model_seed0.spnn")
        records = []
        for shift in (0, 1):
            model = tmp_path / f"model{shift}.spnn"
            save_checkpoint(model, {name: p + shift for name, p in params.items()})
            out = tmp_path / f"out{shift}"
            result = runner.invoke(main, [command, "--model", str(model),
                                          "--features", str(root / "feats"),
                                          "--out", str(out)])
            assert result.exit_code == 0, result.output
            text = (out / "run.json").read_text()
            assert str(tmp_path) not in text and str(root) not in text
            records.append(json.loads(text))
        first, second = records
        assert first["command"] == command
        assert set(first["versions"]) == {"sonarprep", "numpy", "python"}
        assert first["sha256"] == {
            "model": hashlib.sha256((tmp_path / "model0.spnn").read_bytes()).hexdigest(),
            "test_features": hashlib.sha256(
                (root / "feats" / "test.sprf").read_bytes()).hexdigest()}
        assert second["sha256"]["model"] != first["sha256"]["model"]
        assert second["sha256"]["test_features"] == first["sha256"]["test_features"]

    @pytest.mark.parametrize("command, missing", [
        ("eval", "--model"),
        ("split", "--manifest"), ("split", "--out"), ("split --validate", "--split-file"),
        ("featurize", "--manifest"), ("featurize", "--split-file"),
        ("featurize", "--corpus-root"), ("featurize", "--out"),
        ("train", "--out"),
        ("sweep", "--manifest"), ("sweep", "--corpus-root"), ("sweep", "--out"),
    ])
    def test_missing_required_flag_is_usage_error(self, pipeline, tmp_path, command,
                                                  missing):
        root, runner = pipeline
        paths = {"--manifest": root / "manifest.csv", "--split-file": root / "split.csv",
                 "--corpus-root": root / "corpus", "--features": root / "feats",
                 "--model": root / "runs" / "model_seed0.spnn", "--out": tmp_path / "out"}
        needs = {"eval": ("--model", "--features", "--out"),
                 "split": ("--manifest", "--out"),
                 "split --validate": ("--manifest", "--split-file"),
                 "featurize": ("--manifest", "--split-file", "--corpus-root", "--out"),
                 "train": ("--features", "--out"),
                 "sweep": ("--manifest", "--corpus-root", "--out")}
        args = command.split() + ["--config", str(root / "run.cfg")] * (command != "eval")
        for flag in needs[command]:
            if flag != missing:
                args += [flag, str(paths[flag])]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "Usage:" in result.output and f"'{missing}'" in result.output
        assert not (tmp_path / "out").exists()

    def test_train_masks_with_the_width_of_its_rates(self, pipeline, tmp_path,
                                                     monkeypatch):
        """``train`` scales the time-mask width by data.rate / feature.model_rate."""
        root, runner = pipeline
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMOKE_CONFIG.replace("data.rate = 8k\n", "data.rate = 4k\n"))
        feats = tmp_path / "feats"
        result = runner.invoke(main, [
            "featurize", "--config", str(cfg), "--manifest", str(root / "manifest.csv"),
            "--split-file", str(root / "split.csv"),
            "--corpus-root", str(root / "corpus"), "--out", str(feats)])
        assert result.exit_code == 0, result.output
        widths = set()
        spec_augment = trainer.spec_augment

        def spying_spec_augment(values, augment, time_width, rng):
            widths.add(time_width)
            return spec_augment(values, augment, time_width, rng)

        monkeypatch.setattr(trainer, "spec_augment", spying_spec_augment)
        result = runner.invoke(main, ["train", "--config", str(cfg), "--features",
                                      str(feats), "--out", str(tmp_path / "runs")])
        assert result.exit_code == 0, result.output
        assert widths == {round(8 * 4000 / 8000)} == {4}

    def test_report_renders_sweep_raw(self, pipeline, tmp_path):
        _, runner = pipeline
        raw = {
            "classes": ["alpha", "bravo"],
            "cells": [{"data_rate": 4000, "model_rate": 8000, "mask_width": 32,
                       "n_frames": 251, "accuracies": [0.75],
                       "mean_accuracy": 0.75, "std_accuracy": 0.0,
                       "mean_confusion": [[3, 1], [1, 3]]}],
        }
        raw_path = tmp_path / "sweep_raw.json"
        raw_path.write_text(json.dumps(raw))
        out = tmp_path / "report"
        result = runner.invoke(main, ["report", "--raw", str(raw_path),
                                      "--out", str(out)])
        assert result.exit_code == 0
        table = (out / "sweep_table.csv").read_text().strip().splitlines()
        assert table[0] == "data_rate_hz,8000"
        assert table[1] == "4000,75.0 ± 0.0"
        assert (out / "confusion_4000_8000.csv").exists()
        assert (out / "confusion_4000_8000_rownorm.csv").exists()

    def test_sweep_command_single_cell(self, pipeline, tmp_path):
        root, runner = pipeline
        out = tmp_path / "sweeps"
        result = runner.invoke(main, [
            "sweep", "--config", str(root / "run.cfg"),
            "--manifest", str(root / "manifest.csv"),
            "--corpus-root", str(root / "corpus"),
            "--data-rates", "8k", "--model-rates", "8k",
            "--out", str(out)])
        assert result.exit_code == 0, result.output
        raw = json.loads((out / "sweep_raw.json").read_text())
        assert len(raw["cells"]) == 1
        cell = raw["cells"][0]
        assert (cell["data_rate"], cell["model_rate"]) == (8000, 8000)
        assert cell["n_frames"] == 501
        table = (out / "sweep_table.csv").read_text()
        assert table.startswith("data_rate_hz,8000")
        result = runner.invoke(main, ["report", "--raw", str(out / "sweep_raw.json"),
                                      "--out", str(tmp_path / "report")])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "report" / "sweep_table.csv").read_bytes() == \
            (out / "sweep_table.csv").read_bytes()


def test_recording_ids_with_commas_survive_the_split_file(tmp_path):
    corpus = make_corpus(tmp_path / "corpus", recordings_per_class=4, seconds=15.0,
                         rate=8000, seed=1,
                         classes={"a": (300.0, 1200.0), "b": (700.0, 2500.0)})
    (corpus / "a" / "a00.wav").rename(corpus / "a" / "a0,x.wav")
    (corpus / "b" / "b01.wav").rename(corpus / "b" / 'b1 "q".wav')
    (tmp_path / "run.cfg").write_text(SMOKE_CONFIG)
    runner = CliRunner()
    common = ["--config", str(tmp_path / "run.cfg"),
              "--manifest", str(tmp_path / "manifest.csv")]
    split_file = str(tmp_path / "split.csv")
    steps = [
        ["ingest", "--corpus-root", str(corpus), "--out", str(tmp_path / "manifest.csv")],
        ["split", *common, "--out", split_file],
        ["split", *common, "--validate", "--split-file", split_file],
        ["featurize", *common, "--split-file", split_file, "--corpus-root", str(corpus),
         "--out", str(tmp_path / "feats")],
    ]
    outputs = []
    for args in steps:
        result = runner.invoke(main, args)
        assert result.exit_code == 0, f"{args[0]} failed: {result.output}"
        outputs.append(result.output)
    assert "split OK" in outputs[2]
    rows, _ = read_split_rows((tmp_path / "split.csv").read_text())
    assert {"a0,x", 'b1 "q"'} <= {rec_id for rec_id, _ in rows}
    assert len(rows) == 8
    assert (tmp_path / "feats" / "train.sprf").is_file()


class TestErrorSurface:
    @pytest.mark.parametrize("ratios", ["abc", "0.5,0.5,0.5"])
    def test_split_bad_ratios(self, pipeline, tmp_path, ratios):
        root, runner = pipeline
        result = runner.invoke(main, [
            "split", "--manifest", str(root / "manifest.csv"),
            "--ratios", ratios, "--out", str(tmp_path / "split.csv")])
        assert_clean_failure(result)
        assert "--ratios" in result.output

    @pytest.mark.parametrize("command,flag,value", [
        ("featurize", "--data-rate", "abc"), ("featurize", "--data-rate", "0"),
        ("featurize", "--jobs", "0"), ("sweep", "--data-rates", "abc"),
        ("sweep", "--model-rates", "0"), ("split", "--segment-seconds", "0"),
        ("featurize", "--data-rate", "inf"), ("featurize", "--data-rate", "1e306k"),
        ("split", "--segment-seconds", "inf"), ("split", "--segment-seconds", "0.33333")])
    def test_bad_flag_value(self, pipeline, tmp_path, command, flag, value):
        root, runner = pipeline
        inputs = {
            "split": ["--manifest", str(root / "manifest.csv")],
            "featurize": ["--manifest", str(root / "manifest.csv"),
                          "--split-file", str(root / "split.csv"),
                          "--corpus-root", str(root / "corpus")],
            "sweep": ["--manifest", str(root / "manifest.csv"),
                      "--corpus-root", str(root / "corpus"),
                      "--data-rates", "8k", "--model-rates", "8k"],
        }[command]
        result = runner.invoke(main, [command, "--config", str(root / "run.cfg"),
                                      *inputs, flag, value,
                                      "--out", str(tmp_path / "out")])
        assert_clean_failure(result)
        assert flag in result.output
        assert not (tmp_path / "out").exists()

    def test_odd_window_names_config_line(self, pipeline, tmp_path):
        root, runner = pipeline
        cfg = tmp_path / "odd.cfg"
        cfg.write_text(SMOKE_CONFIG.replace("feature.win_length = 256",
                                            "feature.win_length = 255"))
        result = runner.invoke(main, [
            "featurize", "--config", str(cfg),
            "--manifest", str(root / "manifest.csv"),
            "--split-file", str(root / "split.csv"),
            "--corpus-root", str(root / "corpus"), "--out", str(tmp_path / "out")])
        assert_clean_failure(result)
        assert "line 5" in result.output and "win_length must be even" in result.output

    def test_sweep_model_rate_with_odd_window(self, pipeline, tmp_path):
        root, runner = pipeline
        result = runner.invoke(main, [  # window 256 at 8 kHz scales to 259 at 8.1 kHz
            "sweep", "--config", str(root / "run.cfg"),
            "--manifest", str(root / "manifest.csv"),
            "--corpus-root", str(root / "corpus"),
            "--data-rates", "8k", "--model-rates", "8100", "--out", str(tmp_path / "out")])
        assert_clean_failure(result)
        assert "model rate 8100" in result.output

    def test_sweep_cell_without_filterbank_reads_no_audio(self, pipeline, tmp_path,
                                                          monkeypatch):
        root, runner = pipeline
        reads = []
        monkeypatch.setattr(cli, "_read_wav", lambda *args: reads.append(args))
        cfg = tmp_path / "mels.cfg"  # 64 mels have no support on the 32 kHz bin grid
        cfg.write_text(SMOKE_CONFIG.replace("feature.n_mels = 24", "feature.n_mels = 64"))
        result = runner.invoke(main, [
            "sweep", "--config", str(cfg), "--manifest", str(root / "manifest.csv"),
            "--corpus-root", str(root / "corpus"), "--data-rates", "4k,32k",
            "--model-rates", "8k", "--out", str(tmp_path / "out")])
        assert_clean_failure(result)
        assert "data rate 32000, model rate 8000" in result.output
        assert reads == []
        assert not (tmp_path / "out").exists()

    def test_seed_flag_beats_environment(self, pipeline, tmp_path):
        root, runner = pipeline
        out = tmp_path / "split.csv"
        result = runner.invoke(main, [
            "split", "--config", str(root / "run.cfg"),
            "--manifest", str(root / "manifest.csv"), "--seed", "3",
            "--out", str(out)], env={"SONARPREP_SEED": "40"})
        assert result.exit_code == 0, result.output
        assert "# seed=3" in out.read_text().splitlines()

    @pytest.mark.parametrize("line,flag,env,origin", [
        ("split.seed = -1", None, {}, "line 1"),
        ("train.seeds = 2,-1", None, {}, "line 1"),
        ("train.seeds = 0,0", None, {}, "line 1"),
        (None, "-2", {}, "--seed"),
        (None, None, {"SONARPREP_SEED": "-3"}, "SONARPREP_SEED"),
    ], ids=["negative-split-seed", "negative-train-seed", "repeated-train-seed",
            "negative-seed-flag", "negative-env-seed"])
    def test_bad_seed_names_origin(self, pipeline, tmp_path, line, flag, env, origin):
        root, runner = pipeline
        cfg = tmp_path / "seed.cfg"
        cfg.write_text(f"{line or ''}\n")
        result = runner.invoke(main, [
            "split", "--config", str(cfg), "--manifest", str(root / "manifest.csv"),
            *(["--seed", flag] if flag else []), "--out", str(tmp_path / "split.csv")],
            env=env)
        assert_clean_failure(result)
        assert origin in result.output and "non-negative" in result.output
        assert not (tmp_path / "split.csv").exists()

    @pytest.mark.parametrize("duration,message", [
        (None, "no recordings"), ("nan", "'r1' has duration nan"),
        ("inf", "'r1' has duration inf")], ids=["empty", "nan", "inf"])
    def test_split_refuses_manifest(self, pipeline, tmp_path, duration, message):
        _, runner = pipeline
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("recording_id,class_label,file_path,duration_seconds\n"
                            + (f"r1,alpha,alpha/r1.wav,{duration}\n" if duration else ""))
        result = runner.invoke(main, ["split", "--manifest", str(manifest),
                                      "--out", str(tmp_path / "split.csv")])
        assert_clean_failure(result)
        assert message in result.output
        assert not (tmp_path / "split.csv").exists()

    @pytest.mark.parametrize("problem", ["no-header", "bad-seed"])
    @pytest.mark.parametrize("command", ["split", "featurize"])
    def test_malformed_split_file(self, pipeline, tmp_path, command, problem):
        root, runner = pipeline
        lines = (root / "split.csv").read_text().splitlines()
        lines = lines[1:] if problem == "no-header" else lines[:-1] + ["# seed=xyz"]
        bad = tmp_path / "split.csv"
        bad.write_text("\n".join(lines) + "\n")
        args = {"split": ["--validate"],
                "featurize": ["--corpus-root", str(root / "corpus"),
                              "--out", str(tmp_path / "out")]}[command]
        result = runner.invoke(main, [
            command, "--config", str(root / "run.cfg"),
            "--manifest", str(root / "manifest.csv"), "--split-file", str(bad), *args])
        assert_clean_failure(result)
        assert ("header" if problem == "no-header" else "'xyz'") in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag,problem", [("--config", "byte-0xff"),
                                              ("--manifest", "byte-0xff"),
                                              ("--config", "directory")])
    def test_unreadable_text_input_names_file(self, pipeline, tmp_path, flag, problem):
        root, runner = pipeline
        bad = tmp_path / "bad.txt"
        if problem == "directory":
            bad.mkdir()
        else:
            bad.write_bytes(b"data.rate = 8k\n\xff\n")
        inputs = {"--config": str(root / "run.cfg"), "--manifest": str(root / "manifest.csv")}
        inputs[flag] = str(bad)
        result = runner.invoke(main, [
            "split", *(arg for item in inputs.items() for arg in item),
            "--out", str(tmp_path / "split.csv")])
        assert_clean_failure(result)
        assert str(bad) in result.output
        assert not (tmp_path / "split.csv").exists()

    def test_featurize_refuses_split_without_segments(self, pipeline, tmp_path):
        root, runner = pipeline
        corpus = tmp_path / "corpus"
        shutil.copytree(root / "corpus", corpus)
        rows, _ = read_split_rows((root / "split.csv").read_text())
        for rec_id, split_name in rows:
            if split_name == "val":  # 2 s, shorter than one 5 s segment
                write_pcm16(next(corpus.rglob(f"{rec_id}.wav")), np.zeros(16000), 8000)
        result = runner.invoke(main, [
            "featurize", "--config", str(root / "run.cfg"),
            "--manifest", str(root / "manifest.csv"),
            "--split-file", str(root / "split.csv"),
            "--corpus-root", str(corpus), "--out", str(tmp_path / "feats")])
        assert_clean_failure(result)
        assert "val split produced no segments" in result.output

    @pytest.mark.parametrize("blob", [
        b"SPRF1" + struct.pack("<I", 0),
        b"SPRF1" + struct.pack("<I", 2) + struct.pack("<III", 3, 2, 0) + bytes(24)
        + struct.pack("<III", 4, 2, 1) + bytes(32)], ids=["empty", "ragged"])
    @pytest.mark.parametrize("command", ["eval", "gradcam"])
    def test_unusable_test_archive(self, pipeline, tmp_path, command, blob):
        root, runner = pipeline
        feats = tmp_path / "feats"
        shutil.copytree(root / "feats", feats)
        (feats / "test.sprf").write_bytes(blob)
        result = runner.invoke(main, [
            command, "--model", str(root / "runs" / "model_seed0.spnn"),
            "--features", str(feats), "--out", str(tmp_path / "out")])
        assert_clean_failure(result)
        assert "test.sprf" in result.output

    @pytest.mark.parametrize("command", ["eval", "gradcam"])
    def test_label_outside_classes(self, pipeline, tmp_path, command):
        root, runner = pipeline
        feats = tmp_path / "feats"
        shutil.copytree(root / "feats", feats)
        write_feature_archive(feats / "test.sprf",
                              np.zeros((2, 501, 24), dtype=np.float32), [0, 5])
        result = runner.invoke(main, [
            command, "--model", str(root / "runs" / "model_seed0.spnn"),
            "--features", str(feats), "--out", str(tmp_path / "out")])
        assert_clean_failure(result)
        assert "classes.json" in result.output

    @pytest.mark.parametrize("text", [
        "not json",
        json.dumps({"classes": ["a", "b"], "cells": [
            {"data_rate": 4000, "mean_accuracy": 0.5, "std_accuracy": 0.0,
             "mean_confusion": [[1, 0], [0, 1]]}]}),
        json.dumps(["cells"]),
    ], ids=["not-json", "cell-without-model-rate", "not-an-object"])
    def test_report_rejects_bad_sweep_record(self, pipeline, tmp_path, text):
        _, runner = pipeline
        raw = tmp_path / "sweep_raw.json"
        raw.write_text(text)
        result = runner.invoke(main, ["report", "--raw", str(raw),
                                      "--out", str(tmp_path / "out")])
        assert_clean_failure(result)
        assert str(raw) in result.output
        assert not (tmp_path / "out").exists()

    def test_malformed_classes_file(self, pipeline, tmp_path):
        root, runner = pipeline
        feats = tmp_path / "feats"
        shutil.copytree(root / "feats", feats)
        (feats / "classes.json").write_text('{"classes": ')
        result = runner.invoke(main, [
            "eval", "--model", str(root / "runs" / "model_seed0.spnn"),
            "--features", str(feats), "--out", str(tmp_path / "out")])
        assert_clean_failure(result)
        assert "classes.json" in result.output

    @pytest.mark.parametrize("command", ["split", "featurize", "sweep"])
    def test_one_class_corpus_refused(self, pipeline, tmp_path, monkeypatch, command):
        """``ingest`` takes a one-class corpus, but every command after it
        refuses the manifest before it reads any audio."""
        root, runner = pipeline
        corpus = make_corpus(tmp_path / "corpus", recordings_per_class=3, seconds=15.0,
                             rate=8000, seed=1, classes={"alpha": (300.0, 1200.0)})
        manifest = tmp_path / "manifest.csv"
        result = runner.invoke(main, ["ingest", "--corpus-root", str(corpus),
                                      "--out", str(manifest)])
        assert result.exit_code == 0, result.output
        reads = []
        monkeypatch.setattr(cli, "_read_wav", lambda *args: reads.append(args))
        out = tmp_path / "out"
        args = {"split": [],
                "featurize": ["--split-file", str(root / "split.csv"),
                              "--corpus-root", str(corpus)],
                "sweep": ["--corpus-root", str(corpus), "--data-rates", "8k",
                          "--model-rates", "8k"]}[command]
        result = runner.invoke(main, [command, "--config", str(root / "run.cfg"),
                                      "--manifest", str(manifest), *args, "--out", str(out)])
        assert_clean_failure(result)
        assert "1 class(es) ['alpha'], need at least two" in result.output
        assert reads == []
        assert not out.exists()

    @pytest.mark.parametrize("classes", [
        ["alpha"], [], "ab", ["alpha", "alpha"], ["alpha", ""], ["alpha", 1],
        {"alpha": 0, "bravo": 1}, None,
    ], ids=["one-class", "empty", "string", "duplicate", "empty-name", "non-string",
            "object", "null"])
    @pytest.mark.parametrize("command", ["train", "eval", "gradcam"])
    def test_classes_file_needs_two_distinct_names(self, pipeline, tmp_path, command,
                                                   classes):
        root, runner = pipeline
        feats = tmp_path / "feats"
        shutil.copytree(root / "feats", feats)
        (feats / "classes.json").write_text(json.dumps(
            {"classes": classes, "data_rate": 8000, "model_rate": 8000}))
        out = tmp_path / "out"
        args = (["--config", str(root / "run.cfg")] if command == "train"
                else ["--model", str(root / "runs" / "model_seed0.spnn")])
        result = runner.invoke(main, [command, *args, "--features", str(feats),
                                      "--out", str(out)])
        assert_clean_failure(result)
        assert str(feats / "classes.json") in result.output
        assert not out.exists()

    def test_train_refuses_features_made_at_other_rates(self, pipeline, tmp_path):
        root, runner = pipeline
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMOKE_CONFIG.replace("data.rate = 8k\n", ""))
        feats = tmp_path / "feats"
        result = runner.invoke(main, [
            "featurize", "--config", str(cfg), "--data-rate", "2k",
            "--manifest", str(root / "manifest.csv"),
            "--split-file", str(root / "split.csv"),
            "--corpus-root", str(root / "corpus"), "--out", str(feats)])
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, ["train", "--config", str(cfg), "--features",
                                      str(feats), "--out", str(tmp_path / "runs")])
        assert_clean_failure(result)
        error = next(line for line in result.output.splitlines() if line.startswith("Error:"))
        assert str(feats) in error and "2000" in error and "32000" in error
        assert not (tmp_path / "runs").exists()

    def test_train_refuses_classes_file_without_rates(self, pipeline, tmp_path):
        root, runner = pipeline
        feats = tmp_path / "feats"
        shutil.copytree(root / "feats", feats)
        (feats / "classes.json").write_text('{"classes": ["alpha", "bravo"]}')
        result = runner.invoke(main, ["train", "--config", str(root / "run.cfg"),
                                      "--features", str(feats),
                                      "--out", str(tmp_path / "runs")])
        assert_clean_failure(result)
        assert str(feats) in result.output

    def test_diverged_training_fails_without_a_checkpoint(self, pipeline, tmp_path):
        root, runner = pipeline
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMOKE_CONFIG.replace("train.lr = 0.002", "train.lr = 1e30"))
        result = runner.invoke(main, ["train", "--config", str(cfg), "--features",
                                      str(root / "feats"), "--out", str(tmp_path / "runs")])
        assert_clean_failure(result)
        assert result.output.startswith("Error: seed 0: training diverged in epoch 1 ")
        assert not (tmp_path / "runs").exists()

    def test_checkpoint_with_trailing_bytes(self, pipeline, tmp_path):
        root, runner = pipeline
        model = tmp_path / "model.spnn"
        model.write_bytes((root / "runs" / "model_seed0.spnn").read_bytes() + b"JUNK")
        result = runner.invoke(main, [
            "eval", "--model", str(model), "--features", str(root / "feats"),
            "--out", str(tmp_path / "out")])
        assert_clean_failure(result)
        assert "trailing bytes" in result.output

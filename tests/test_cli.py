"""Config parsing and the command-line pipeline, driven through CliRunner."""

import contextlib
import gc
import hashlib
import io
import json
import re
import shutil
import struct
import weakref
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from sonarprep.cli import load_config, main, parse_rate
from sonarprep.datasplit import read_split_rows
from sonarprep.errors import SonarprepError
from sonarprep.dsp import write_feature_archive
from sonarprep import cli, dsp, nn, trainer
from sonarprep.nn import load_checkpoint, save_checkpoint
from sonarprep.wavio import load_manifest, parse_wav
from synthdata import (as_extensible, corpus_manifest_text, make_corpus, subformat_guid,
                       write_float32, write_pcm16)

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
            with pytest.raises(SonarprepError, match=f"line 1: unknown key '{line.split()[0]}'"):
                load_config(p, env={})

    def test_parse_error_reports_line(self, tmp_path):
        """Each parse refusal is one ``Error:`` line naming the config, the
        line and the column. ``split`` reads its config before its manifest,
        so the config stands in for the manifest too."""
        p = tmp_path / "c.cfg"
        for line, error in [
                ("train.lr 0.01", "line 2, column 14: expected 'section.key = value'"),
                ("lr = 0.01", "line 2, column 4: malformed key 'lr'"),
                ("train.lr = ", "line 2, column 11: empty value for 'train.lr'")]:
            p.write_text(f"data.rate = 8k\n{line}\n")
            result = CliRunner().invoke(main, ["split", "--config", str(p), "--manifest",
                                               str(p), "--out", str(tmp_path / "split.csv")])
            assert_clean_failure(result)
            assert result.output == f"Error: {p}: {error}\n"

    def test_out_of_range_value(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("train.batch_size = 0\n")
        with pytest.raises(SonarprepError, match="line 1: batch_size, max_epochs, and "
                                                 "patience must be positive"):
            load_config(p, env={})

    def test_uncastable_value(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("train.max_epochs = soon\n")
        with pytest.raises(SonarprepError, match="line 1: train.max_epochs = 'soon': "):
            load_config(p, env={})

    def test_env_seed_rebases_all_seeds(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("train.seeds = 0,1,2\nsplit.seed = 5\n")
        cfg = load_config(p, env={"SONARPREP_SEED": "40"})
        assert cfg.split.seed == 40
        assert cfg.train.seeds == (40, 41, 42)

    def test_env_seed_must_be_integer(self):
        with pytest.raises(SonarprepError, match="SONARPREP_SEED must be an integer"):
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
        with pytest.raises(SonarprepError, match=re.escape(f"line 1: {line.split()[0]} = ")):
            load_config(p, env={})

    def test_segment_must_be_whole_samples_at_sweep_rates(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("data.rate = 8k\ndata.segment_seconds = 0.001\n")
        assert load_config(p, env={}).segment_seconds == 0.001  # 8 samples
        with pytest.raises(SonarprepError, match="22050 Hz"):  # 22.05 samples
            load_config(p, env={}, flags={"--data-rates": ("sweep.data_rates", "8k,22.05k")})

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_jobs_below_one_rejected(self, tmp_path, value):
        p = tmp_path / "c.cfg"
        p.write_text(f"data.jobs = {value}\n")
        with pytest.raises(SonarprepError, match=f"line 1: data.jobs = '{value}': must be pos"):
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

    def test_ingest_decodes_no_samples(self, pipeline, tmp_path, monkeypatch):
        """Durations come from the WAV headers and match the stdlib reader's."""
        root, runner = pipeline

        def refuse(*args, **kwargs):
            raise AssertionError("ingest decoded samples")

        monkeypatch.setattr(cli, "parse_wav", refuse)
        out = tmp_path / "manifest.csv"
        result = runner.invoke(main, ["ingest", "--corpus-root", str(root / "corpus"),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert out.read_bytes() == (root / "manifest.csv").read_bytes()
        assert out.read_text() == corpus_manifest_text(root / "corpus")

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
        assert classes == {"classes": ["alpha", "bravo"], "front_end": {
            "data.rate": 8000, "data.segment_seconds": 5.0, "feature.model_rate": 8000,
            "feature.win_length": 256, "feature.hop_length": 80, "feature.n_mels": 24,
            "feature.f_min": 50.0, "feature.f_max": 3500.0}}

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

    def test_featurize_counts_segments_outside_the_train_range(self, pipeline, tmp_path):
        root, runner = pipeline
        corpus = tmp_path / "corpus"
        shutil.copytree(root / "corpus", corpus)
        rows, _ = read_split_rows((root / "split.csv").read_text())
        loud = next(rec_id for rec_id, split_name in rows if split_name == "val")
        path = next(corpus.rglob(f"{loud}.wav"))  # 20 dB above every train recording
        write_float32(path, 10 * parse_wav(path.read_bytes()).samples, 8000)
        counts = []
        for i, corpus_root in enumerate((root / "corpus", corpus)):
            result = runner.invoke(main, [
                "featurize", "--config", str(root / "run.cfg"),
                "--manifest", str(root / "manifest.csv"),
                "--split-file", str(root / "split.csv"),
                "--corpus-root", str(corpus_root), "--out", str(tmp_path / f"feats{i}")])
            assert result.exit_code == 0, result.output
            assert re.search(r"^train\.sprf: \d+ segments$", result.output, re.M)
            counts.append({name: int(n) for name, n in re.findall(
                r"^(val|test)\.sprf: \d+ segments, (\d+) outside the train range$",
                result.output, re.M)})
        pristine, louder = counts
        assert louder["test"] == pristine["test"]  # the train range did not move
        assert louder["val"] >= max(3, pristine["val"])  # all 3 of the loud segments

    def test_warns_when_the_data_rate_clamps_the_mel_band(self, pipeline, tmp_path):
        root, runner = pipeline
        inputs = ["--config", str(root / "run.cfg"), "--manifest", str(root / "manifest.csv"),
                  "--corpus-root", str(root / "corpus")]
        featurize = runner.invoke(main, ["featurize", *inputs, "--split-file",
                                         str(root / "split.csv"), "--data-rate", "4k",
                                         "--out", str(tmp_path / "feats")])
        sweep = runner.invoke(main, ["sweep", *inputs, "--data-rates", "4k,8k",
                                     "--model-rates", "8k,16k", "--out", str(tmp_path / "sweep")])
        for result in (featurize, sweep):
            assert result.exit_code == 0, result.output
            assert "warning" not in result.stdout
        clamp = "warning: data rate {} Hz clamps the mel band of model rate {} Hz " \
                "from f_max {} Hz to {} Hz\n"
        assert featurize.stderr == clamp.format(4000, 8000, 3500, 2000)
        assert sweep.stderr == (clamp.format(4000, 8000, 3500, 2000)
                                + clamp.format(4000, 16000, 7000, 2000)
                                + clamp.format(8000, 16000, 7000, 4000))

    def test_keeps_no_redirected_stderr(self, pipeline, tmp_path):
        root, _ = pipeline
        buf = io.StringIO()
        with contextlib.redirect_stderr(buf):
            main.main(args=["featurize", "--config", str(root / "run.cfg"),
                            "--manifest", str(root / "manifest.csv"),
                            "--split-file", str(root / "split.csv"),
                            "--corpus-root", str(root / "corpus"), "--data-rate", "4k",
                            "--out", str(tmp_path / "feats")],
                      prog_name="sonarprep", standalone_mode=False)
        assert buf.getvalue().startswith("warning: data rate 4000 Hz")
        ref = weakref.ref(buf)
        del buf
        gc.collect()
        assert ref() is None

    def test_sweep_counts_segments_outside_the_train_range(self, pipeline, tmp_path):
        """A sweep cell counts what featurize counts on the same corpus,
        whose val recording is 20 dB louder than every train recording."""
        root, runner = pipeline
        corpus = tmp_path / "corpus"
        shutil.copytree(root / "corpus", corpus)
        rows, _ = read_split_rows((root / "split.csv").read_text())
        loud = next(rec_id for rec_id, split_name in rows if split_name == "val")
        path = next(corpus.rglob(f"{loud}.wav"))
        write_float32(path, 10 * parse_wav(path.read_bytes()).samples, 8000)
        inputs = ["--config", str(root / "run.cfg"), "--manifest", str(root / "manifest.csv"),
                  "--corpus-root", str(corpus)]
        featurize = runner.invoke(main, ["featurize", *inputs, "--split-file",
                                         str(root / "split.csv"), "--out", str(tmp_path / "f")])
        sweep = runner.invoke(main, ["sweep", *inputs, "--data-rates", "8k",
                                     "--model-rates", "8k", "--out", str(tmp_path / "s")])
        assert featurize.exit_code == 0 == sweep.exit_code, sweep.output
        counts = dict(re.findall(r"^(val|test)\.sprf: \d+ segments, (\d+) outside",
                                 featurize.output, re.M))
        assert int(counts["val"]) >= 3  # all 3 of the loud segments
        assert re.fullmatch(
            r"data 8000 Hz / model 8000 Hz: \d\.\d{4} \+/- \d\.\d{4}, "
            rf"val {counts['val']} / test {counts['test']} outside the train range\n",
            sweep.stdout)

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
        _, params = load_checkpoint(root / "runs" / "model_seed0.spnn")
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

    def run_report(self, runner, tmp_path, classes, cells):
        raw_path = tmp_path / "sweep_raw.json"
        raw_path.write_text(json.dumps({"classes": classes, "cells": cells}))
        return runner.invoke(main, ["report", "--raw", str(raw_path),
                                    "--out", str(tmp_path / "report")])

    @staticmethod
    def cell(mean_confusion, accuracy=0.9):
        return {"data_rate": 8000, "model_rate": 8000, "mask_width": 64,
                "n_frames": 501, "accuracies": [accuracy], "mean_accuracy": accuracy,
                "std_accuracy": 0.0, "mean_confusion": mean_confusion}

    def test_report_refuses_a_confusion_matrix_of_another_class_count(self, pipeline,
                                                                     tmp_path):
        _, runner = pipeline
        result = self.run_report(runner, tmp_path, ["a", "b"],
                                 [self.cell([[3, 1, 0], [1, 3, 0], [0, 0, 4]])])
        assert_clean_failure(result)
        assert "not a sweep record" in result.output
        assert "need one row of 2 cells per class" in result.output
        assert not (tmp_path / "report").exists()

    def test_report_refuses_two_cells_at_the_same_rates(self, pipeline, tmp_path):
        _, runner = pipeline
        result = self.run_report(runner, tmp_path, ["a", "b"],
                                 [self.cell([[4, 1], [0, 5]], accuracy=0.5),
                                  self.cell([[5, 0], [1, 4]], accuracy=0.9)])
        assert_clean_failure(result)
        assert "two cells at (data rate, model rate) (8000, 8000)" in result.output
        assert not (tmp_path / "report").exists()

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
        # ``train`` ran the same cell on the same corpus, split and config
        summary = json.loads((root / "runs" / "summary.json").read_text())
        assert cell["accuracies"] == [s["test_accuracy"] for s in summary["seeds"]]
        assert (cell["mean_accuracy"], cell["std_accuracy"]) == \
            (summary["mean_accuracy"], summary["std_accuracy"])
        assert (tmp_path / "report" / "confusion_8000_8000.csv").read_bytes() == \
            (root / "runs" / "confusion_mean.csv").read_bytes()

    def test_sweep_reads_each_recording_once(self, pipeline, tmp_path, monkeypatch):
        """Every cell is featurized in one pass, and each cell directory is a
        features directory as ``featurize`` writes one, without its run.json."""
        root, runner = pipeline
        reads, read_wav = [], cli._read_wav
        monkeypatch.setattr(cli, "_read_wav", lambda corpus_root, entry: (
            reads.append(entry.recording_id), read_wav(corpus_root, entry))[1])
        out = tmp_path / "sweep"
        result = runner.invoke(main, [
            "sweep", "--config", str(root / "run.cfg"), "--manifest", str(root / "manifest.csv"),
            "--corpus-root", str(root / "corpus"), "--data-rates", "4k,8k",
            "--model-rates", "8k", "--out", str(out)])
        assert result.exit_code == 0, result.output
        manifest = load_manifest((root / "manifest.csv").read_text())
        assert sorted(reads) == sorted(e.recording_id for e in manifest.entries)
        cells = ["4000_8000", "8000_8000"]
        assert sorted(str(p.relative_to(out / "features"))
                      for p in (out / "features").rglob("*")) == sorted(
            cells + [f"{cell}/{name}" for cell in cells
                     for name in ("train.sprf", "val.sprf", "test.sprf", "norm_stats.json",
                                  "classes.json")])

    def test_train_on_a_sweep_cell_gives_the_cell_accuracies(self, pipeline, tmp_path):
        """``train`` reads a sweep cell as it reads ``featurize``'s output:
        with the cell's front end in its config, it trains the cell's seeds to
        the accuracies ``sweep_raw.json`` holds for the cell."""
        root, runner = pipeline
        out = tmp_path / "sweep"
        result = runner.invoke(main, [
            "sweep", "--config", str(root / "run.cfg"), "--manifest", str(root / "manifest.csv"),
            "--corpus-root", str(root / "corpus"), "--data-rates", "4k",
            "--model-rates", "8k,16k", "--out", str(out)])
        assert result.exit_code == 0, result.output
        raw = json.loads((out / "sweep_raw.json").read_text())
        assert [(c["data_rate"], c["model_rate"]) for c in raw["cells"]] == [(4000, 8000),
                                                                             (4000, 16000)]
        for cell in raw["cells"]:
            scale = cell["model_rate"] // 8000
            feats = out / "features" / f"4000_{cell['model_rate']}"
            classes = json.loads((feats / "classes.json").read_text())
            assert classes == {"classes": ["alpha", "bravo"], "front_end": {
                "data.rate": 4000, "data.segment_seconds": 5.0,
                "feature.model_rate": cell["model_rate"], "feature.win_length": 256 * scale,
                "feature.hop_length": 80 * scale, "feature.n_mels": 24, "feature.f_min": 50.0,
                "feature.f_max": 3500.0 * scale}}
            cfg = tmp_path / f"cell{scale}.cfg"
            cfg.write_text(SMOKE_CONFIG + "".join(f"{key} = {value}\n"
                                                  for key, value in classes["front_end"].items()))
            runs = tmp_path / f"runs{scale}"
            result = runner.invoke(main, ["train", "--config", str(cfg), "--features",
                                          str(feats), "--out", str(runs)])
            assert result.exit_code == 0, result.output
            summary = json.loads((runs / "summary.json").read_text())
            assert [s["test_accuracy"] for s in summary["seeds"]] == cell["accuracies"]
            assert (summary["mean_accuracy"], summary["std_accuracy"]) == \
                (cell["mean_accuracy"], cell["std_accuracy"])


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
    assert {"a/a0,x", 'b/b1 "q"'} <= {rec_id for rec_id, _ in rows}
    assert len(rows) == 8
    assert (tmp_path / "feats" / "train.sprf").is_file()


def test_ingest_names_recordings_by_their_path_under_the_root(tmp_path):
    """Two classes may hold the same file name, and a class may keep its
    recordings in subfolders."""
    corpus = make_corpus(tmp_path / "corpus", recordings_per_class=3, seconds=15.0,
                         rate=8000, seed=1,
                         classes={"alpha": (300.0, 1200.0), "bravo": (700.0, 2500.0)})
    (corpus / "alpha" / "alpha00.wav").rename(corpus / "alpha" / "x.wav")
    (corpus / "bravo" / "bravo00.wav").rename(corpus / "bravo" / "x.wav")
    (corpus / "alpha" / "sub").mkdir()
    (corpus / "alpha" / "alpha01.wav").rename(corpus / "alpha" / "sub" / "y.wav")
    (tmp_path / "run.cfg").write_text(SMOKE_CONFIG)
    common = ["--config", str(tmp_path / "run.cfg"),
              "--manifest", str(tmp_path / "manifest.csv")]
    runner = CliRunner()
    for args in (
            ["ingest", "--corpus-root", str(corpus), "--out", str(tmp_path / "manifest.csv")],
            ["split", *common, "--out", str(tmp_path / "split.csv")],
            ["featurize", *common, "--split-file", str(tmp_path / "split.csv"),
             "--corpus-root", str(corpus), "--out", str(tmp_path / "feats")]):
        result = runner.invoke(main, args)
        assert result.exit_code == 0, f"{args[0]} failed: {result.output}"
    manifest = load_manifest((tmp_path / "manifest.csv").read_text())
    assert {e.recording_id: e.file_path for e in manifest.entries} == {
        "alpha/sub/y": "alpha/sub/y.wav", "alpha/x": "alpha/x.wav",
        "alpha/alpha02": "alpha/alpha02.wav", "bravo/bravo01": "bravo/bravo01.wav",
        "bravo/bravo02": "bravo/bravo02.wav", "bravo/x": "bravo/x.wav"}
    assert all((tmp_path / "feats" / f"{name}.sprf").is_file()
               for name in ("train", "val", "test"))


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
        assert result.output == f"Error: {cfg}: line 5: win_length must be even, got 255\n"

    def test_config_value_refusal_names_config_and_line(self, pipeline, tmp_path):
        root, runner = pipeline
        cfg = tmp_path / "v.cfg"
        cfg.write_text(SMOKE_CONFIG.replace("data.rate = 8k", "data.rate = 0"))
        result = runner.invoke(main, [
            "split", "--config", str(cfg), "--manifest", str(root / "manifest.csv"),
            "--out", str(tmp_path / "split.csv")])
        assert_clean_failure(result)
        assert result.output == f"Error: {cfg}: line 2: data.rate = '0': invalid rate '0'\n"

    @pytest.mark.parametrize("text,where", [
        ("feature.model_rate = 8k\nfeature.n_mels = 24\nfeature.f_max = 5000\n",
         "{cfg}: line 1, line 3: need 0 <= f_min < f_max <= model_rate/2"),
        ("data.segment_seconds = 0.0001\ndata.jobs = 2\n",
         "--data-rate, {cfg}: line 1, line 2: 0.0001 s at 8000 Hz")],
        ids=["keys-named", "no-key-named"])
    def test_build_refusal_lists_the_lines_of_the_keys_it_names(self, tmp_path, text, where):
        """A refusal that names keys lists their lines, and one that names none
        every origin of its object; the config's path comes once, before its lines."""
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text)
        with pytest.raises(SonarprepError) as refusal:
            load_config(cfg, env={}, flags={"--data-rate": ("data.rate", "8k")})
        assert str(refusal.value).startswith(where.format(cfg=cfg))

    def test_sweep_model_rate_with_odd_window(self, pipeline, tmp_path):
        root, runner = pipeline
        result = runner.invoke(main, [  # window 256 at 8 kHz scales to 259 at 8.1 kHz
            "sweep", "--config", str(root / "run.cfg"),
            "--manifest", str(root / "manifest.csv"),
            "--corpus-root", str(root / "corpus"),
            "--data-rates", "8k", "--model-rates", "8100", "--out", str(tmp_path / "out")])
        assert_clean_failure(result)
        assert "model rate 8100" in result.output

    def test_featurize_names_both_rates_of_a_rate_without_mel_band(self, pipeline,
                                                                   tmp_path):
        root, runner = pipeline  # a 100 Hz data rate's Nyquist is f_min's 50 Hz
        out = tmp_path / "feats"
        result = runner.invoke(main, [
            "featurize", "--config", str(root / "run.cfg"), "--data-rate", "100",
            "--manifest", str(root / "manifest.csv"),
            "--split-file", str(root / "split.csv"),
            "--corpus-root", str(root / "corpus"), "--out", str(out)])
        assert_clean_failure(result)
        error = next(line for line in result.output.splitlines() if line.startswith("Error:"))
        assert "data rate 100, model rate 8000" in error
        assert not out.exists()

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

    @pytest.mark.parametrize("command", ["featurize", "sweep", "train"])
    def test_items_the_network_cannot_take_are_refused_before_audio_or_epochs(
            self, pipeline, tmp_path, monkeypatch, command):
        """One mel is too narrow for the network's 2x2 pool: the refusal names
        the cell before any recording is loaded or any epoch runs, and
        nothing is written. ``train`` reads a features directory made by hand
        with one mel, as ``featurize`` no longer writes one."""
        root, runner = pipeline
        reads, steps = [], []
        monkeypatch.setattr(cli, "_read_wav", lambda *args: reads.append(args))
        monkeypatch.setattr(trainer, "gradients", lambda *args: steps.append(args))
        cfg = tmp_path / "mel.cfg"
        cfg.write_text(SMOKE_CONFIG.replace("feature.n_mels = 24", "feature.n_mels = 1"))
        feats = tmp_path / "feats"
        for name in ("train", "val", "test"):
            write_feature_archive(feats / f"{name}.sprf", np.zeros((2, 501, 1), np.float32),
                                  [0, 1])
        classes = json.loads((root / "feats" / "classes.json").read_text())
        classes["front_end"]["feature.n_mels"] = 1
        (feats / "classes.json").write_text(json.dumps(classes))
        args = {"featurize": ["--manifest", str(root / "manifest.csv"),
                              "--split-file", str(root / "split.csv"),
                              "--corpus-root", str(root / "corpus")],
                "sweep": ["--manifest", str(root / "manifest.csv"),
                          "--corpus-root", str(root / "corpus"), "--data-rates", "4k,8k",
                          "--model-rates", "8k"],
                "train": ["--features", str(feats)]}[command]
        out = tmp_path / "out"
        result = runner.invoke(main, [command, "--config", str(cfg), *args, "--out", str(out)])
        assert_clean_failure(result)
        rate, frames = (4000, 251) if command == "sweep" else (8000, 501)
        assert result.output.splitlines()[-1] == (f"Error: data rate {rate}, model rate 8000: "
                                                  f"input {frames}x1 too small for pool 2")
        assert reads == [] and steps == []
        assert not out.exists()

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
                                              ("--config", "directory"),
                                              ("--config", "malformed"),
                                              ("--manifest", "malformed"),
                                              ("--split-file", "malformed")])
    def test_unreadable_text_input_names_file(self, pipeline, tmp_path, flag, problem):
        """A config, manifest or split file that is no text, or whose content
        is refused, is named once, at the start of the one ``Error:`` line."""
        root, runner = pipeline
        bad = tmp_path / "bad.txt"
        malformed = {"--config": ("data.rate = 8k\nfeature.n_mels 24\n",
                                  "line 2, column 18: expected 'section.key = value'"),
                     "--manifest": ("recording_id,class_label,file_path,duration_seconds\n"
                                    "a,alpha\n", "line 2: expected 4 fields, got 2"),
                     "--split-file": ("recording_id,split\nalpha/alpha00\n",
                                      "split file line 2: expected 'recording_id,split'")}
        if problem == "directory":
            bad.mkdir()
        elif problem == "malformed":
            bad.write_text(malformed[flag][0])
        else:
            bad.write_bytes(b"data.rate = 8k\n\xff\n")
        inputs = {"--config": str(root / "run.cfg"), "--manifest": str(root / "manifest.csv")}
        inputs[flag] = str(bad)
        output = (["--validate"] if flag == "--split-file"
                  else ["--out", str(tmp_path / "split.csv")])
        result = runner.invoke(main, [
            "split", *(arg for item in inputs.items() for arg in item), *output])
        assert_clean_failure(result)
        assert result.output.startswith(f"Error: {bad}: ")
        assert result.output.count(str(bad)) == 1
        if problem == "malformed":
            assert result.output == f"Error: {bad}: {malformed[flag][1]}\n"
        assert not (tmp_path / "split.csv").exists()

    @pytest.mark.parametrize("manifest_text,problem", [
        ("", "manifest has no recordings"),
        ("alpha/a1,alpha,alpha/a1.wav,15.0\n",
         "manifest has 1 class(es) ['alpha'], need at least two"),
        ("alpha/a1,alpha,alpha/a1.wav,15.0\nbravo/b1,bravo,bravo/b1.wav,15.0\n",
         "class 'alpha' has 1 recordings, need at least 3 for one per split")],
        ids=["header-only", "one-class", "class-too-small"])
    @pytest.mark.parametrize("command", ["split", "featurize", "sweep"])
    def test_manifest_refusal_names_the_manifest(self, pipeline, tmp_path, monkeypatch,
                                                 command, manifest_text, problem):
        root, runner = pipeline
        reads = []
        monkeypatch.setattr(cli, "_read_wav", lambda *args: reads.append(args))
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("recording_id,class_label,file_path,duration_seconds\n"
                            + manifest_text)
        args = {"split": [],
                "featurize": ["--split-file", str(root / "split.csv"),
                              "--corpus-root", str(root / "corpus")],
                "sweep": ["--corpus-root", str(root / "corpus"), "--data-rates", "8k",
                          "--model-rates", "8k"]}[command]
        result = runner.invoke(main, [command, "--config", str(root / "run.cfg"),
                                      "--manifest", str(manifest), *args,
                                      "--out", str(tmp_path / "out")])
        assert_clean_failure(result)
        assert result.output == f"Error: {manifest}: {problem}\n"
        assert reads == []

    @pytest.mark.parametrize("command", ["split", "featurize"])
    def test_failed_validation_names_the_split_file(self, pipeline, tmp_path, command):
        root, runner = pipeline
        split = tmp_path / "split.csv"
        split.write_text("recording_id,split\n")
        args = {"split": ["--validate"],
                "featurize": ["--corpus-root", str(root / "corpus"),
                              "--out", str(tmp_path / "out")]}[command]
        result = runner.invoke(main, [command, "--manifest", str(root / "manifest.csv"),
                                      "--split-file", str(split), *args])
        assert_clean_failure(result)
        error = result.output.splitlines()[-1]
        assert error.startswith(f"Error: {split}: split ")
        assert "failed validation" in error and error.count(str(split)) == 1

    @pytest.mark.parametrize("command", ["train", "eval", "gradcam"])
    def test_classes_file_that_is_a_directory_is_named_once(self, pipeline, tmp_path,
                                                           command):
        root, runner = pipeline
        feats = tmp_path / "feats"
        shutil.copytree(root / "feats", feats)
        (feats / "classes.json").unlink()
        (feats / "classes.json").mkdir()
        args = (["--config", str(root / "run.cfg")] if command == "train"
                else ["--model", str(root / "runs" / "model_seed0.spnn")])
        result = runner.invoke(main, [command, *args, "--features", str(feats),
                                      "--out", str(tmp_path / "out")])
        assert_clean_failure(result)
        assert result.output == (f"Error: {feats / 'classes.json'}: not a text file "
                                 f"(Is a directory)\n")

    def test_sweep_record_that_is_no_text_is_named_once(self, tmp_path):
        raw = tmp_path / "sweep_raw.json"
        raw.write_bytes(b'{"classes": ["\xff"]}')
        result = CliRunner().invoke(main, ["report", "--raw", str(raw),
                                           "--out", str(tmp_path / "out")])
        assert_clean_failure(result)
        assert result.output.startswith(f"Error: {raw}: not a text file (")
        assert result.output.count(str(raw)) == 1

    @pytest.mark.parametrize("command", ["report", "train"])
    def test_deeply_nested_json_is_refused_naming_the_file(self, pipeline, tmp_path,
                                                          command):
        root, runner = pipeline
        feats = tmp_path / "feats"
        shutil.copytree(root / "feats", feats)
        path = tmp_path / "sweep_raw.json" if command == "report" else feats / "classes.json"
        path.write_text("[" * 100000)
        args = (["--raw", str(path)] if command == "report"
                else ["--config", str(root / "run.cfg"), "--features", str(feats)])
        result = runner.invoke(main, [command, *args, "--out", str(tmp_path / "out")])
        assert_clean_failure(result)
        assert result.output.startswith(f"Error: {path}: not a ")
        assert "RecursionError" in result.output

    @pytest.mark.parametrize("command,line,error", [
        ("train", "augment.freq_mask_width = 100000000000000000000000",
         "augment.freq_mask_width 100000000000000000000000 is above 2**63 - 1"),
        ("train", "augment.base_time_mask_width = 100000000000000000000000",
         "augment.base_time_mask_width scales to 100000000000000000000000 at data rate "
         "8000, model rate 8000, above 2**63 - 1"),
        ("sweep", "augment.base_time_mask_width = 100000000000000000000000",
         "augment.base_time_mask_width scales to 100000000000000000000000 at data rate "
         "8000, model rate 8000, above 2**63 - 1"),
        ("featurize", "feature.n_mels = 1000000000000000000000",
         "data rate 8000, model rate 8000: n_mels 1000000000000000000000 exceeds twice the "
         "FFT bins, so a mel filter has no support on the FFT bin grid"),
        ("featurize", "feature.win_length = 1000000000000000000000",
         "data rate 8000, model rate 8000: win_length 1000000000000000000000 too long to "
         "reflect-pad a 40000-sample segment"),
        ("featurize", "data.segment_seconds = 1e300",
         "data rate 8000, model rate 8000: segment_seconds 1e+300 makes items larger than "
         "numpy can hold"),
        ("sweep", "data.segment_seconds = 1e300",
         "data rate 8000, model rate 8000: segment_seconds 1e+300 makes items larger than "
         "numpy can hold")],
        ids=["train-freq-mask", "train-time-mask", "sweep-time-mask", "featurize-n-mels",
             "featurize-win-length", "featurize-segment", "sweep-segment"])
    def test_oversized_setting_refused_before_audio_or_epochs(self, pipeline, tmp_path,
                                                              monkeypatch, command, line,
                                                              error):
        """A setting too large for numpy is refused by key before any audio is
        read or any epoch runs; the same config runs ``split`` as before."""
        root, runner = pipeline
        reads, steps = [], []
        monkeypatch.setattr(cli, "_read_wav", lambda *args: reads.append(args))
        monkeypatch.setattr(trainer, "gradients", lambda *args: steps.append(args))
        cfg = tmp_path / "big.cfg"
        cfg.write_text(SMOKE_CONFIG + line + "\n")
        args = {"train": ["--features", str(root / "feats")],
                "featurize": ["--manifest", str(root / "manifest.csv"),
                              "--split-file", str(root / "split.csv"),
                              "--corpus-root", str(root / "corpus")],
                "sweep": ["--manifest", str(root / "manifest.csv"),
                          "--corpus-root", str(root / "corpus"), "--data-rates", "8k",
                          "--model-rates", "8k"]}[command]
        out = tmp_path / "out"
        result = runner.invoke(main, [command, "--config", str(cfg), *args, "--out", str(out)])
        assert_clean_failure(result)
        assert result.output == f"Error: {error}\n"
        assert reads == [] and steps == []
        assert not out.exists()
        result = runner.invoke(main, ["split", "--config", str(cfg), "--manifest",
                                      str(root / "manifest.csv"), "--out", str(out)])
        assert result.exit_code == 0, result.output

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

    @pytest.mark.parametrize("key,made,config", [
        ("feature.n_mels", 24, 16), ("feature.hop_length", 80, 160)],
        ids=["n_mels", "hop_length"])
    def test_train_refuses_features_its_config_did_not_make(self, pipeline, tmp_path,
                                                           monkeypatch, key, made, config):
        """Features of 501x24 under a config that makes another shape are
        refused by the key that differs, before any archive is read."""
        root, runner = pipeline
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMOKE_CONFIG + f"{key} = {config}\n")
        reads, read = [], cli.read_feature_archive
        monkeypatch.setattr(cli, "read_feature_archive",
                            lambda path: reads.append(path) or read(path))
        result = runner.invoke(main, ["train", "--config", str(cfg), "--features",
                                      str(root / "feats"), "--out", str(tmp_path / "runs")])
        assert_clean_failure(result)
        error = next(line for line in result.output.splitlines() if line.startswith("Error:"))
        assert error == (f"Error: {root / 'feats'}: features made with {key} = {made}; "
                         f"the config sets {key} = {config}")
        assert reads == []
        assert not (tmp_path / "runs").exists()

    def test_train_refuses_a_split_archive_of_another_shape(self, pipeline, tmp_path):
        root, runner = pipeline
        feats = tmp_path / "feats"
        shutil.copytree(root / "feats", feats)
        write_feature_archive(feats / "val.sprf", np.zeros((2, 126, 24)), [0, 1])
        result = runner.invoke(main, ["train", "--config", str(root / "run.cfg"),
                                      "--features", str(feats),
                                      "--out", str(tmp_path / "runs")])
        assert_clean_failure(result)
        error = next(line for line in result.output.splitlines() if line.startswith("Error:"))
        assert str(feats / "val.sprf") in error
        assert "(126, 24)" in error and "(501, 24)" in error
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("line,made,config", [
        ("feature.win_length = 160", "feature.win_length = 256", "feature.win_length = 160"),
        ("feature.f_min = 400", "feature.f_min = 50.0", "feature.f_min = 400.0"),
        ("feature.f_max = 2000", "feature.f_max = 3500.0", "feature.f_max = 2000.0")],
        ids=["win_length", "f_min", "f_max"])
    def test_train_refuses_features_of_another_front_end(self, pipeline, tmp_path,
                                                         line, made, config):
        """Each key changes the log-mel's values but not its 501x24 shape."""
        root, runner = pipeline
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMOKE_CONFIG + line + "\n")
        result = runner.invoke(main, ["train", "--config", str(cfg), "--features",
                                      str(root / "feats"), "--out", str(tmp_path / "runs")])
        assert_clean_failure(result)
        error = next(line for line in result.output.splitlines() if line.startswith("Error:"))
        assert str(root / "feats") in error and made in error and config in error
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

    def test_train_refuses_a_front_end_record_that_is_not_an_object(self, pipeline,
                                                                    tmp_path):
        root, runner = pipeline
        feats = tmp_path / "feats"
        shutil.copytree(root / "feats", feats)
        (feats / "classes.json").write_text('{"classes": ["alpha", "bravo"], '
                                            '"front_end": [8000, 8000]}')
        result = runner.invoke(main, ["train", "--config", str(root / "run.cfg"),
                                      "--features", str(feats),
                                      "--out", str(tmp_path / "runs")])
        assert_clean_failure(result)
        assert str(feats / "classes.json") in result.output

    def test_diverged_training_fails_without_a_checkpoint(self, pipeline, tmp_path):
        root, runner = pipeline
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMOKE_CONFIG.replace("train.lr = 0.002", "train.lr = 1e30"))
        result = runner.invoke(main, ["train", "--config", str(cfg), "--features",
                                      str(root / "feats"), "--out", str(tmp_path / "runs")])
        assert_clean_failure(result)
        assert result.output.startswith("Error: seed 0: training diverged in epoch 1 ")
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command", ["eval", "gradcam"])
    def test_checkpoint_with_overflowing_shape(self, pipeline, tmp_path, command):
        """A shape of (2**32 - 1, 2**32 - 1) elements wraps a 64-bit count."""
        root, runner = pipeline
        model = tmp_path / "model.spnn"
        header = json.dumps({"tensors": [["w", [2**32 - 1, 2**32 - 1]]]}).encode()
        model.write_bytes(b"SPNN2" + struct.pack("<I", len(header)) + header)
        result = runner.invoke(main, [
            command, "--model", str(model), "--features", str(root / "feats"),
            "--out", str(tmp_path / "out")])
        assert_clean_failure(result)
        assert "tensor 'w' truncated" in result.output

    @pytest.mark.parametrize("command", ["eval", "gradcam"])
    def test_checkpoint_of_another_front_end_refused(self, pipeline, tmp_path, command):
        """A checkpoint trained on 8 kHz features (items 501x24) would take
        the same corpus featurized at 2 kHz (items 126x24): global pooling
        takes any size."""
        root, runner = pipeline
        feats = tmp_path / "feats"
        result = runner.invoke(main, [
            "featurize", "--config", str(root / "run.cfg"), "--data-rate", "2k",
            "--manifest", str(root / "manifest.csv"), "--split-file", str(root / "split.csv"),
            "--corpus-root", str(root / "corpus"), "--out", str(feats)])
        assert result.exit_code == 0, result.output
        model = root / "runs" / "model_seed0.spnn"
        result = runner.invoke(main, [command, "--model", str(model), "--features",
                                      str(feats), "--out", str(tmp_path / "out")])
        assert_clean_failure(result)
        error = next(line for line in result.output.splitlines() if line.startswith("Error:"))
        assert error == (f"Error: {feats}: features made with data.rate = 2000; "
                         f"{model} was trained with data.rate = 8000")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("classes", [["cargo", "tanker"], ["bravo", "alpha"]],
                             ids=["other-names", "other-order"])
    @pytest.mark.parametrize("command", ["eval", "gradcam"])
    def test_checkpoint_of_other_classes_refused(self, pipeline, tmp_path, monkeypatch,
                                                 command, classes):
        """Features of an otherwise identical corpus with other class names,
        or the same names in another order, are refused before any archive
        is read."""
        root, runner = pipeline
        feats = tmp_path / "feats"
        shutil.copytree(root / "feats", feats)
        record = json.loads((feats / "classes.json").read_text())
        (feats / "classes.json").write_text(json.dumps({**record, "classes": classes}))
        reads, read = [], cli.read_feature_archive
        monkeypatch.setattr(cli, "read_feature_archive",
                            lambda path: reads.append(path) or read(path))
        model = root / "runs" / "model_seed0.spnn"
        result = runner.invoke(main, [command, "--model", str(model), "--features",
                                      str(feats), "--out", str(tmp_path / "out")])
        assert_clean_failure(result)
        error = next(line for line in result.output.splitlines() if line.startswith("Error:"))
        assert error == (f"Error: {feats}: features made with classes = {classes}; "
                         f"{model} was trained with classes = ['alpha', 'bravo']")
        assert reads == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["eval", "gradcam"])
    def test_checkpoint_without_header_record_is_checked_by_shapes(self, pipeline, tmp_path,
                                                                   command):
        """A checkpoint whose header holds neither classes nor a front end,
        as ``save_checkpoint(path, params)`` writes it, gives the same
        outputs as the one ``train`` wrote."""
        root, runner = pipeline
        header, params = load_checkpoint(root / "runs" / "model_seed0.spnn")
        assert set(header) == {"classes", "front_end"}
        model = tmp_path / "model.spnn"
        save_checkpoint(model, params)
        outputs = []
        for path in (root / "runs" / "model_seed0.spnn", model):
            out = tmp_path / path.stem
            result = runner.invoke(main, [command, "--model", str(path), "--features",
                                          str(root / "feats"), "--out", str(out)])
            assert result.exit_code == 0, result.output
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()
                            if p.name != "run.json"})
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command", ["eval", "gradcam"])
    def test_checkpoint_of_other_shapes_names_the_model(self, pipeline, tmp_path, command):
        """A header-less checkpoint of a 4-class model, on 2-class features,
        is refused by tensor shape on one line that names the checkpoint."""
        root, runner = pipeline
        model = tmp_path / "four.spnn"
        save_checkpoint(model, nn.init_model(nn.DEFAULT_ARCHITECTURE, 4, seed=0).params)
        result = runner.invoke(main, [command, "--model", str(model), "--features",
                                      str(root / "feats"), "--out", str(tmp_path / "out")])
        assert_clean_failure(result)
        assert result.output == (f"Error: {model}: tensor 'dense6.weight' has shape (32, 4), "
                                 f"model expects (32, 2)\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("header,payload", [
        (b"[]", b""),
        (b'{"tensors": [["w", [-1]]]}', b""),
        (b'{"tensors": [["w", [true]]]}', bytes(4)),
        (b'{"classes": 5, "tensors": []}', b""),
    ], ids=["not-an-object", "size-negative", "size-bool", "classes-not-a-list"])
    @pytest.mark.parametrize("command", ["eval", "gradcam"])
    def test_malformed_checkpoint_header(self, pipeline, tmp_path, command, header,
                                         payload):
        root, runner = pipeline
        model = tmp_path / "model.spnn"
        model.write_bytes(b"SPNN2" + struct.pack("<I", len(header)) + header + payload)
        result = runner.invoke(main, [command, "--model", str(model), "--features",
                                      str(root / "feats"), "--out", str(tmp_path / "out")])
        assert_clean_failure(result)
        assert result.output.startswith(f"Error: {model}: ")
        assert not (tmp_path / "out").exists()

    def test_checkpoint_header_length_past_the_end(self, pipeline, tmp_path):
        root, runner = pipeline
        model = tmp_path / "model.spnn"
        data = (root / "runs" / "model_seed0.spnn").read_bytes()
        model.write_bytes(data[:5] + struct.pack("<I", len(data)) + data[9:])
        result = runner.invoke(main, ["eval", "--model", str(model), "--features",
                                      str(root / "feats"), "--out", str(tmp_path / "out")])
        assert_clean_failure(result)
        assert f"Error: {model}: checkpoint header runs past the end of the file" in result.output

    @pytest.mark.parametrize("command,split", [
        ("eval", "test"), ("gradcam", "test"), ("train", "train")])
    def test_archive_items_without_cells(self, pipeline, tmp_path, command, split):
        root, runner = pipeline
        feats = tmp_path / "feats"
        shutil.copytree(root / "feats", feats)
        write_feature_archive(feats / f"{split}.sprf", np.zeros((2, 0, 24)), [0, 1])
        source = (["--config", str(root / "run.cfg")] if command == "train"
                  else ["--model", str(root / "runs" / "model_seed0.spnn")])
        result = runner.invoke(main, [command, *source, "--features", str(feats),
                                      "--out", str(tmp_path / "out")])
        assert_clean_failure(result)
        assert f"{split}.sprf: items of shape (0, 24) hold no cells" in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,split", [
        ("eval", "test"), ("gradcam", "test"), ("train", "train")])
    def test_archive_items_too_large_to_read(self, pipeline, tmp_path, command, split):
        """An item header of 70000 x 70000 cells, past numpy's 2 GiB record."""
        root, runner = pipeline
        feats = tmp_path / "feats"
        shutil.copytree(root / "feats", feats)
        (feats / f"{split}.sprf").write_bytes(b"SPRF1" + struct.pack("<IIII", 1, 70000, 70000, 0))
        source = (["--config", str(root / "run.cfg")] if command == "train"
                  else ["--model", str(root / "runs" / "model_seed0.spnn")])
        result = runner.invoke(main, [command, *source, "--features", str(feats),
                                      "--out", str(tmp_path / "out")])
        assert_clean_failure(result)
        assert (f"Error: {feats / split}.sprf: items of shape (70000, 70000) are too large "
                f"to read") in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["ingest", "featurize", "sweep"])
    def test_wav_refusal_names_the_wav(self, pipeline, tmp_path, command):
        """A WAV whose data chunk claims more bytes than the file holds is
        named on the one ``Error:`` line, whether its header or its samples
        are read."""
        root, runner = pipeline
        corpus = tmp_path / "corpus"
        shutil.copytree(root / "corpus", corpus)
        wav = corpus / "alpha" / "alpha00.wav"
        data = bytearray(wav.read_bytes())
        at = data.index(b"data") + 4
        data[at:at + 4] = struct.pack("<I", 433983499)
        wav.write_bytes(bytes(data))
        out = tmp_path / "out"
        args = {"ingest": [],
                "featurize": ["--config", str(root / "run.cfg"), "--split-file",
                              str(root / "split.csv")],
                "sweep": ["--config", str(root / "run.cfg"), "--data-rates", "8k",
                          "--model-rates", "8k"]}[command]
        if command != "ingest":
            args += ["--manifest", str(root / "manifest.csv")]
        result = runner.invoke(main, [command, "--corpus-root", str(corpus), *args,
                                      "--out", str(out)])
        assert_clean_failure(result)
        assert result.output.endswith(f"Error: {wav}: data chunk declares 433983499 bytes, "
                                      f"only {len(data) - at - 4} present\n")
        assert not out.exists()

    def test_ingest_refuses_a_directory_named_like_a_wav(self, pipeline, tmp_path):
        root, runner = pipeline
        corpus = tmp_path / "corpus"
        shutil.copytree(root / "corpus", corpus)
        (corpus / "alpha" / "dir.wav").mkdir()
        out = tmp_path / "manifest.csv"
        result = runner.invoke(main, ["ingest", "--corpus-root", str(corpus),
                                      "--out", str(out)])
        assert_clean_failure(result)
        assert "dir.wav" in result.output
        assert not out.exists()

    def test_ingest_reads_extensible_wav(self, pipeline, tmp_path):
        root, runner = pipeline
        corpus = tmp_path / "corpus"
        shutil.copytree(root / "corpus", corpus)
        path = corpus / "alpha" / "alpha00.wav"
        path.write_bytes(as_extensible(path.read_bytes()))
        out = tmp_path / "manifest.csv"
        result = runner.invoke(main, ["ingest", "--corpus-root", str(corpus),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert out.read_bytes() == (root / "manifest.csv").read_bytes()

    @pytest.mark.parametrize("change,message", [
        ({"valid_bits": 12}, "12 valid bits in 16-bit samples not supported"),
        ({"guid": subformat_guid(2)},
         "extensible sub-format 0200000000001000800000aa00389b71 not supported"),
    ], ids=["valid-bits", "sub-format"])
    def test_ingest_refuses_extensible_wav_it_cannot_read(self, pipeline, tmp_path,
                                                          change, message):
        root, runner = pipeline
        corpus = tmp_path / "corpus"
        shutil.copytree(root / "corpus", corpus)
        path = corpus / "alpha" / "alpha00.wav"
        path.write_bytes(as_extensible(path.read_bytes(), **change))
        result = runner.invoke(main, ["ingest", "--corpus-root", str(corpus),
                                      "--out", str(tmp_path / "manifest.csv")])
        assert_clean_failure(result)
        assert message in result.output

    def test_non_finite_wav_passes_ingest_and_featurize_refuses_it(self, pipeline,
                                                                   tmp_path):
        """``ingest`` reads only headers, so samples are first checked when
        ``featurize`` decodes them."""
        root, runner = pipeline
        corpus = tmp_path / "corpus"
        shutil.copytree(root / "corpus", corpus)
        samples = np.zeros(15 * 8000)
        samples[7] = np.nan
        write_float32(corpus / "alpha" / "alpha00.wav", samples, 8000)
        manifest = tmp_path / "manifest.csv"
        result = runner.invoke(main, ["ingest", "--corpus-root", str(corpus),
                                      "--out", str(manifest)])
        assert result.exit_code == 0, result.output
        assert manifest.read_bytes() == (root / "manifest.csv").read_bytes()
        out = tmp_path / "feats"
        result = runner.invoke(main, [
            "featurize", "--config", str(root / "run.cfg"), "--manifest", str(manifest),
            "--split-file", str(root / "split.csv"), "--corpus-root", str(corpus),
            "--out", str(out)])
        assert_clean_failure(result)
        assert "non-finite samples" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("command", ["featurize", "sweep"])
    def test_failure_mid_stream_leaves_nothing(self, pipeline, tmp_path, monkeypatch,
                                               command):
        """The manifest's last recording holds a NaN, which ``ingest`` cannot see:
        it fails to decode after every other recording was streamed to its
        archive. The command fails on one line naming it, leaves no archive
        or ``.tmp`` in a new ``--out``, and a previous run's outputs as they were."""
        root, runner = pipeline
        corpus = tmp_path / "corpus"
        shutil.copytree(root / "corpus", corpus)
        manifest = root / "manifest.csv"
        bad = corpus / load_manifest(manifest.read_text()).entries[-1].file_path
        samples = np.zeros(15 * 8000)
        samples[-1] = np.nan
        write_float32(bad, samples, 8000)
        args = {"featurize": ["--split-file", str(root / "split.csv")],
                "sweep": ["--data-rates", "8k", "--model-rates", "8k"]}[command]

        def run(corpus_root, out):
            return runner.invoke(main, [command, "--config", str(root / "run.cfg"),
                                        "--manifest", str(manifest), *args,
                                        "--corpus-root", str(corpus_root), "--out", str(out)])

        def files(out):
            return {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}

        previous = tmp_path / "previous"
        assert run(root / "corpus", previous).exit_code == 0
        before = files(previous)
        assert any(path.suffix == ".sprf" for path in before)
        appended = []
        append = dsp.FeatureArchive.append
        monkeypatch.setattr(dsp.FeatureArchive, "append",
                            lambda archive, *a: appended.append(append(archive, *a)))
        for out in (tmp_path / "out", previous):
            appended.clear()
            result = run(corpus, out)
            assert_clean_failure(result)
            assert result.output.endswith(
                f"Error: {bad}: waveform contains non-finite samples\n")
            assert len(appended) == 7  # every recording but the last
        assert not (tmp_path / "out").exists()
        assert files(previous) == before

    def test_checkpoint_with_trailing_bytes(self, pipeline, tmp_path):
        root, runner = pipeline
        model = tmp_path / "model.spnn"
        model.write_bytes((root / "runs" / "model_seed0.spnn").read_bytes() + b"JUNK")
        result = runner.invoke(main, [
            "eval", "--model", str(model), "--features", str(root / "feats"),
            "--out", str(tmp_path / "out")])
        assert_clean_failure(result)
        assert "trailing bytes" in result.output

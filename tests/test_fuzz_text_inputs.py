"""Fuzzed configs, manifests, split files and ``sweep_raw.json`` files, each
run through a command that reads it and neither trains nor starts threads:
the run succeeds, or exits 1 with exactly one ``Error:`` line, which starts
with the file's path, and no traceback.

Each input is fuzzed two ways: byte flips and cuts of a valid file, and files
built by hand from lines that are each close to valid. The ``train.*`` and
``augment.*`` values of a config are also fuzzed through ``train`` on a tiny
archive, for one epoch, and the ``data.*`` and ``feature.*`` values through
``featurize`` and ``sweep`` on a tiny corpus, with ``data.jobs = 2``.
"""

import json
import shutil

import numpy as np

from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from sonarprep.cli import _CONFIG_KEYS, load_config, main
from sonarprep.dsp import write_feature_archive
from sonarprep.files import write_json
from synthdata import corpus_manifest_text, make_corpus

CONFIG = """\
data.rate = 8k
data.segment_seconds = 5.0
feature.model_rate = 8k
feature.win_length = 256
feature.hop_length = 80
feature.n_mels = 24
feature.f_max = 3500
train.seeds = 0
split.ratios = 0.5,0.25,0.25
split.seed = 7
"""

MANIFEST = "recording_id,class_label,file_path,duration_seconds\n" + "".join(
    f"{label}/{label}{i},{label},{label}/{label}{i}.wav,{15.0 + i}\n"
    for label in ("alpha", "bravo") for i in range(4))

CELL = {"data_rate": 8000, "model_rate": 8000, "mask_width": 8, "n_frames": 501,
        "accuracies": [0.5, 1.0], "mean_accuracy": 0.75, "std_accuracy": 0.25,
        "mean_confusion": [[1.5, 0.5], [0.0, 2.0]]}
SWEEP_RAW = json.dumps({"classes": ["alpha", "bravo"],
                        "cells": [CELL, {**CELL, "model_rate": 16000}]}, indent=1)

#: values near the edge of what a config, manifest or record holds
EDGE_VALUES = ["0", "-1", "1", "2", str(2**63), str(2**64), "1e300", "1e305", "1e400",
               "nan", "inf", "-inf", "0.5", "8k", "0.001", "1,2", "0.5,0.25,0.25", "true",
               "", "\udcff", "é"]
EDGES = st.sampled_from(EDGE_VALUES) | st.text(max_size=6)


def encode(text: str) -> bytes:
    """UTF-8, with lone surrogates standing for the raw bytes 0x80-0xff."""
    return text.encode("utf-8", "surrogateescape")


def flipped_and_cut(valid: bytes):
    """A strategy of ``valid`` with up to three bytes changed and its tail cut."""
    flips = st.lists(st.tuples(st.integers(0, len(valid) - 1), st.integers(0, 255)),
                     max_size=3)

    def apply(flips_and_cut):
        flips, cut = flips_and_cut
        data = bytearray(valid)
        for index, value in flips:
            data[index] = value
        return bytes(data[:cut])

    return st.tuples(flips, st.integers(0, len(valid))).map(apply)


def lines_of(line):
    """A strategy of files of up to five lines, each drawn from ``line``."""
    return st.lists(line, max_size=5).map(lambda lines: encode("".join(lines)))


def check_run(args, path):
    """Run one command; it succeeds or refuses in one line naming ``path``."""
    result = CliRunner().invoke(main, args, env={"SONARPREP_SEED": None})
    assert "Traceback" not in result.output
    if result.exit_code == 0:
        return
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit), \
        (result.output, result.exception)
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1, result.output
    assert errors[0].startswith(f"Error: {path}: "), errors[0]


def fuzz(blobs, run):
    """Write each blob drawn from ``blobs`` and check ``run`` on it."""
    @settings(max_examples=150, deadline=None)
    @given(blob=blobs)
    def each(blob):
        run(blob)
    each()


def test_fuzzed_configs_run_split_or_name_the_config(tmp_path):
    cfg, manifest = tmp_path / "run.cfg", tmp_path / "manifest.csv"
    manifest.write_text(MANIFEST)

    def run(blob):
        cfg.write_bytes(blob)
        check_run(["split", "--config", str(cfg), "--manifest", str(manifest),
                   "--out", str(tmp_path / "split.csv")], cfg)

    keys = st.sampled_from(sorted(_CONFIG_KEYS)) | st.text(max_size=8)
    line = st.builds(lambda key, value: f"{key} = {value}\n", keys, EDGES)
    fuzz(flipped_and_cut(CONFIG.encode()) | lines_of(line), run)


def test_fuzzed_manifests_split_or_name_the_manifest(tmp_path):
    manifest = tmp_path / "manifest.csv"

    def run(blob):
        manifest.write_bytes(blob)
        check_run(["split", "--manifest", str(manifest),
                   "--ratios", "0.5,0.25,0.25", "--out", str(tmp_path / "split.csv")],
                  manifest)

    header = "recording_id,class_label,file_path,duration_seconds\n"
    row = st.builds(lambda rid, label, path, duration: f"{rid},{label},{path},{duration}\n",
                    st.sampled_from(["r1", "r2", "r3", ""]) | st.text(max_size=4),
                    st.sampled_from(["alpha", "bravo", ""]), st.just("a/r.wav") | EDGES,
                    EDGES) | EDGES.map(lambda text: text + "\n")
    built = st.lists(row, max_size=8).map(lambda rows: encode(header + "".join(rows)))
    fuzz(flipped_and_cut(MANIFEST.encode()) | built, run)


def test_fuzzed_split_files_validate_or_name_the_split_file(tmp_path):
    manifest, split = tmp_path / "manifest.csv", tmp_path / "split.csv"
    manifest.write_text(MANIFEST)
    result = CliRunner().invoke(main, ["split", "--manifest", str(manifest), "--ratios",
                                       "0.5,0.25,0.25", "--out", str(split)])
    assert result.exit_code == 0, result.output
    valid = split.read_bytes()

    def run(blob):
        split.write_bytes(blob)
        check_run(["split", "--manifest", str(manifest), "--validate",
                   "--split-file", str(split)], split)

    ids = st.sampled_from([line.split(",")[0] for line in MANIFEST.splitlines()[1:]])
    row = (st.builds(lambda rid, name: f"{rid},{name}\n", ids | EDGES,
                     st.sampled_from(["train", "val", "test", "x"]) | EDGES)
           | EDGES.map(lambda seed: f"# seed={seed}\n") | EDGES.map(lambda t: f'"{t}\n'))
    built = st.lists(row, max_size=8).map(lambda rows: encode("recording_id,split\n"
                                                              + "".join(rows)))
    fuzz(flipped_and_cut(valid) | built, run)


def test_fuzzed_sweep_records_report_or_name_the_record(tmp_path):
    raw = tmp_path / "sweep_raw.json"

    def run(blob):
        raw.write_bytes(blob)
        check_run(["report", "--raw", str(raw), "--out", str(tmp_path / "out")], raw)

    scalars = (st.none() | st.booleans() | st.integers(-2, 2**64) | st.floats()
               | st.sampled_from(["alpha", "", "1"]))
    values = st.recursive(scalars, lambda inner: st.lists(inner, max_size=3), max_leaves=6)
    cell = st.fixed_dictionaries({}, optional={key: values for key in CELL})
    record = st.fixed_dictionaries({}, optional={
        "classes": values | st.just(["alpha", "bravo"]),
        "cells": st.lists(cell | values, max_size=3)})
    built = record.map(lambda obj: json.dumps(obj).encode())
    fuzz(flipped_and_cut(SWEEP_RAW.encode()) | built, run)


def test_fuzzed_training_settings_train_or_refuse_in_one_line(tmp_path):
    """``train`` for one epoch on 11x8 items, under fuzzed ``train.*`` and
    ``augment.*`` values: it trains, or exits 1 on one ``Error:`` line (a
    refused value, or a run that diverged), never with a traceback."""
    base = tmp_path / "base.cfg"
    base.write_text("data.rate = 8k\ndata.segment_seconds = 0.1\nfeature.model_rate = 8k\n"
                    "feature.win_length = 128\nfeature.hop_length = 80\nfeature.n_mels = 8\n"
                    "feature.f_max = 3500\ntrain.max_epochs = 1\ntrain.patience = 1\n")
    feats, rng = tmp_path / "feats", np.random.default_rng(0)
    for name, n in (("train", 6), ("val", 2), ("test", 2)):
        write_feature_archive(feats / f"{name}.sprf",
                              rng.random((n, 11, 8), dtype=np.float32), np.arange(n) % 2)
    write_json(feats / "classes.json", {"classes": ["alpha", "bravo"],
                                        "front_end": load_config(base, env={}).front_end()})
    cfg = tmp_path / "run.cfg"
    keys = sorted(k for k in _CONFIG_KEYS if k.split(".")[0] in ("train", "augment")
                  and k != "train.max_epochs")
    # mostly numbers a key can take, so that most runs reach training
    numbers = st.sampled_from(["0", "1", "3", "64", "1024", "1025", str(2**63 - 1), str(2**63),
                               "1e-300", "1e-5", "0.1", "1e300", "1,2", "false"])
    values = st.one_of(numbers, numbers, EDGES)
    line = st.builds(lambda key, value: f"{key} = {value}\n", st.sampled_from(keys), values)

    @settings(max_examples=200, deadline=None)
    @given(lines=st.lists(line, max_size=3))
    def each(lines):
        cfg.write_bytes(base.read_bytes() + encode("".join(lines)))
        result = CliRunner().invoke(main, ["train", "--config", str(cfg), "--features",
                                           str(feats), "--out", str(tmp_path / "runs")],
                                    env={"SONARPREP_SEED": None})
        assert "Traceback" not in result.output
        if result.exit_code:
            assert result.exit_code == 1 and isinstance(result.exception, SystemExit), \
                (result.output, result.exception)
            errors = [x for x in result.output.splitlines() if x.startswith("Error:")]
            assert len(errors) == 1, result.output

    each()


#: values that ``data.*`` and ``feature.*`` keys can take, as most runs should
#: reach the audio. A data rate that makes a ratio with a large numerator
#: designs a resampling plan of up to a few hundred MB below
#: ``dsp.MAX_BANK_BYTES`` (100,003 Hz from 8 kHz), so values come from these
#: lists, not from text.
FRONT_END_NUMBERS = ["1", "2", "8", "24", "50", "64", "80", "128", "256", "1024", "3500", "4000",
                     "0.25", "0.5", "1.5", "2k", "4k", "8k", "16k", "11025", "44.1k"]


def test_fuzzed_front_ends_featurize_and_sweep_as_one_job_does(tmp_path):
    """``featurize`` and ``sweep`` with ``data.jobs = 2`` under fuzzed
    ``data.*`` and ``feature.*`` values: each writes what ``data.jobs = 1``
    writes, or exits 1 on one ``Error:`` line, with no traceback and nothing
    under ``--out``. The line names the config, or the data rate and model
    rate of the cell its values make."""
    root = make_corpus(tmp_path / "corpus", recordings_per_class=4, seconds=1.5,
                       classes={"alpha": (300.0,), "bravo": (900.0,)})
    manifest, split = tmp_path / "manifest.csv", tmp_path / "split.csv"
    manifest.write_text(corpus_manifest_text(root))
    base = ("data.rate = 8k\ndata.segment_seconds = 0.5\nfeature.model_rate = 8k\n"
            "feature.win_length = 128\nfeature.hop_length = 80\nfeature.n_mels = 8\n"
            "feature.f_max = 3500\ntrain.seeds = 0\ntrain.max_epochs = 1\n"
            "train.patience = 1\nsplit.ratios = 0.5,0.25,0.25\nsplit.seed = 7\n"
            "sweep.data_rates = 4k,8k\nsweep.model_rates = 8k\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(base)
    result = CliRunner().invoke(main, ["split", "--config", str(cfg), "--manifest",
                                       str(manifest), "--out", str(split)])
    assert result.exit_code == 0, result.output
    args = {"featurize": ["--manifest", str(manifest), "--split-file", str(split),
                          "--corpus-root", str(root)],
            "sweep": ["--manifest", str(manifest), "--corpus-root", str(root)]}

    def written(out):
        return {str(path.relative_to(out)): path.read_bytes() for path in out.rglob("*")
                if path.suffix == ".sprf" or path.name in ("norm_stats.json", "sweep_raw.json")}

    def run(command, lines, jobs):
        cfg.write_bytes(encode(base + "".join(lines) + f"data.jobs = {jobs}\n"))
        out = tmp_path / f"out{jobs}"
        shutil.rmtree(out, ignore_errors=True)
        result = CliRunner().invoke(main, [command, "--config", str(cfg), *args[command],
                                           "--out", str(out)], env={"SONARPREP_SEED": None})
        assert "Traceback" not in result.output
        return result, out

    keys = sorted(k for k in _CONFIG_KEYS if k.split(".")[0] in ("data", "feature")
                  and k != "data.jobs")
    line = st.builds(lambda key, value: f"{key} = {value}\n", st.sampled_from(keys),
                     st.sampled_from(FRONT_END_NUMBERS) | st.sampled_from(EDGE_VALUES))

    @settings(max_examples=100, deadline=None)
    @given(command=st.sampled_from(sorted(args)), lines=st.lists(line, max_size=2))
    def each(command, lines):
        result, out = run(command, lines, jobs=2)
        if result.exit_code == 0:
            one_job, one_job_out = run(command, lines, jobs=1)
            assert one_job.exit_code == 0, one_job.output
            assert written(out) and written(out) == written(one_job_out)
            return
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit), \
            (result.output, result.exception)
        errors = [x for x in result.output.splitlines() if x.startswith("Error:")]
        assert len(errors) == 1, result.output
        assert errors[0].startswith(f"Error: {cfg}: ") or "model rate " in errors[0], errors[0]
        assert not out.exists()

    each()

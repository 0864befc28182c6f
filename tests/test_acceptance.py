"""Acceptance gate: eleven numbered checks covering the whole pipeline.

Each test prints one ``[criterion NN] label: PASS/FAIL`` line (visible
under ``pytest -s``) and enforces its own runtime budget. Check 11 needs
a real ship-noise corpus and is skipped unless ``DEEPSHIP_ROOT`` is set.
"""

import json
import math
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from sonarprep.augment import (AugmentConfig, draw_masks, sample_lambda,
                               scaled_mask_width, spec_augment)
from sonarprep.cli import main
from sonarprep.datasplit import (SplitSpec, read_split_rows, segment_counts,
                                 stratified_split, validate_split,
                                 write_split_file)
from sonarprep.dsp import (DEFAULT_FEATURE_CONFIG, FeatureConfig, features_for_segment,
                           frame_count, mel_filterbank, scale_config, stft_power)
from sonarprep.evaluation import aggregate_runs, confusion_matrix, metrics_from_predictions
from sonarprep.nn import (DEFAULT_ARCHITECTURE, Architecture, Conv, Dense,
                          GlobalAvgPool, MaxPool, Relu, aggregate_input_channels,
                          backward, cross_entropy_soft, forward, init_model)
from sonarprep.wavio import Manifest, ManifestEntry, load_manifest
from synthdata import make_corpus


@contextmanager
def criterion(num: int, label: str, budget_seconds: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] {label}: FAIL")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_seconds, (
        f"criterion {num} exceeded its {budget_seconds:.0f}s budget "
        f"({elapsed:.1f}s)")
    print(f"[criterion {num:02d}] {label}: PASS ({elapsed:.1f}s)")


def test_criterion_01_frame_counts():
    with criterion(1, "5 s frame counts at matched and halved data rates", 1.0):
        cfg = DEFAULT_FEATURE_CONFIG
        x32 = np.random.default_rng(0).normal(size=5 * 32000)
        power = stft_power(x32, cfg)
        assert power.shape[0] == 501
        assert frame_count(5 * 32000, cfg.hop_length) == 501

        x16 = np.random.default_rng(1).normal(size=5 * 16000)
        features = features_for_segment(
            x16, cfg, mel_filterbank(cfg, 16000))
        assert features.shape[0] == 251
        assert frame_count(5 * 16000, cfg.hop_length) == 251


def test_criterion_02_mask_width_table():
    with criterion(2, "time-mask width across all rate combinations", 1.0):
        expected = {
            8000: {2000: 16, 4000: 32, 8000: 64, 16000: 128, 32000: 256, 64000: 512},
            16000: {2000: 8, 4000: 16, 8000: 32, 16000: 64, 32000: 128, 64000: 256},
            32000: {2000: 4, 4000: 8, 8000: 16, 16000: 32, 32000: 64, 64000: 128},
        }
        base = AugmentConfig().base_time_mask_width
        checked = 0
        for model_rate, row in expected.items():
            for data_rate, width in row.items():
                assert scaled_mask_width(base, data_rate, model_rate) == width, \
                    (data_rate, model_rate)
                assert width == round(64 * data_rate / model_rate)
                checked += 1
        assert checked == 18
        # the two anchor values called out explicitly
        assert scaled_mask_width(base, 32000, 32000) == 64
        assert scaled_mask_width(base, 16000, 32000) == 32


def test_criterion_03_config_scaling():
    with criterion(3, "analysis settings at half and quarter rates", 1.0):
        base = DEFAULT_FEATURE_CONFIG
        assert (base.win_length, base.hop_length, base.f_max) == (1024, 320, 14000.0)
        half = scale_config(base, 16000)
        assert (half.win_length, half.hop_length, half.f_max) == (512, 160, 7000.0)
        quarter = scale_config(base, 8000)
        assert (quarter.win_length, quarter.hop_length, quarter.f_max) == (256, 80, 3500.0)


def test_criterion_04_stft_against_dft_oracle():
    with criterion(4, "vectorized STFT vs DFT-matrix oracle", 30.0):
        cfg = DEFAULT_FEATURE_CONFIG
        win, hop = cfg.win_length, cfg.hop_length
        k = np.arange(win // 2 + 1)[:, None]
        n = np.arange(win)[None, :]
        dft = np.exp(-2j * np.pi * k * n / win)
        window = np.hanning(win)
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(100):
            x = rng.normal(size=4096)
            got = stft_power(x, cfg)
            xp = np.pad(x, win // 2, mode="reflect")
            frames = np.stack([xp[j * hop:j * hop + win] * window
                               for j in range(1 + len(x) // hop)])
            want = np.abs(frames @ dft.T) ** 2
            rel = np.abs(got - want) / np.maximum(np.abs(want), 1e-300)
            worst = max(worst, float(rel.max()))
        assert worst < 1e-6, worst


def fd_worst_error(arch, n_classes, x_shape, seed, picks_per_tensor=6):
    eps = 1e-6
    rng = np.random.default_rng(seed)
    model = init_model(arch, n_classes, seed=seed, dtype=np.float64)
    x = rng.normal(size=x_shape)
    y = np.zeros((x_shape[0], n_classes))
    y[np.arange(x_shape[0]), rng.integers(0, n_classes, x_shape[0])] = 1.0

    def loss():
        logits = forward(model, x)
        return cross_entropy_soft(logits, y)[0]

    cache = []
    logits = forward(model, x, cache)
    _, grad_logits = cross_entropy_soft(logits, y)
    grads, _ = backward(model, cache, grad_logits)
    worst = 0.0
    for name, p in model.params.items():
        flat = p.ravel()
        for i in rng.choice(flat.size, size=min(picks_per_tensor, flat.size),
                            replace=False):
            keep = flat[i]
            flat[i] = keep + eps
            hi = loss()
            flat[i] = keep - eps
            lo = loss()
            flat[i] = keep
            fd = (hi - lo) / (2 * eps)
            an = grads[name].ravel()[i]
            worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-12))
    return worst


def test_criterion_05_gradient_checks_all_layers():
    with criterion(5, "backprop vs central differences, every layer type", 120.0):
        layer_archs = [
            Architecture((Conv(3, 3), GlobalAvgPool(), Dense())),       # padded conv
            Architecture((Conv(2, 2), GlobalAvgPool(), Dense())),       # unpadded conv
            Architecture((Conv(2, 3), Relu(), GlobalAvgPool(), Dense())),
            Architecture((Conv(2, 3), MaxPool(2), GlobalAvgPool(), Dense())),
        ]
        worst = 0.0
        for seed in range(10):
            for arch in layer_archs:
                worst = max(worst, fd_worst_error(arch, 3, (2, 1, 7, 6), seed))
            worst = max(worst, fd_worst_error(DEFAULT_ARCHITECTURE, 4,
                                              (2, 1, 12, 10), seed))
        assert worst < 1e-4, worst


def test_criterion_06_channel_aggregation_equivalence():
    with criterion(6, "replicated 3-channel input vs summed 1-channel kernels", 10.0):
        three = Architecture((Conv(8, 3), Relu(), GlobalAvgPool(), Dense()),
                             in_channels=3)
        one = Architecture((Conv(8, 3), Relu(), GlobalAvgPool(), Dense()),
                           in_channels=1)
        worst = 0.0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            m3 = init_model(three, 4, seed=seed, dtype=np.float32)
            m1 = init_model(one, 4, seed=seed, dtype=np.float32)
            m1.params["conv0.weight"] = aggregate_input_channels(
                m3.params["conv0.weight"])
            for name in ("conv0.bias", "dense3.weight", "dense3.bias"):
                m1.params[name] = m3.params[name].copy()
            x1 = rng.normal(size=(2, 1, 9, 8)).astype(np.float32)
            x3 = np.repeat(x1, 3, axis=1)
            logits1 = forward(m1, x1)
            logits3 = forward(m3, x3)
            delta = np.abs(logits1 - logits3).max()
            worst = max(worst, float(delta))
        assert worst < 1e-5, worst


def random_manifest(rng) -> Manifest:
    n_classes = int(rng.integers(2, 7))
    entries = []
    for c in range(n_classes):
        for i in range(int(rng.integers(4, 31))):
            duration = float(rng.uniform(5.0, 300.0))
            entries.append(ManifestEntry(f"c{c}r{i:03d}", f"class{c}",
                                         f"class{c}/r{i:03d}.wav", duration))
    return Manifest(entries)


CORRUPTIONS = ("leak", "duplicate", "drop", "unknown", "bad_name", "empty_class")


def corrupt(rows, manifest, kind, rng):
    rows = list(rows)
    if kind == "leak":
        rid, split = rows[int(rng.integers(len(rows)))]
        other = "val" if split != "val" else "test"
        rows.append((rid, other))
    elif kind == "duplicate":
        rows.append(rows[int(rng.integers(len(rows)))])
    elif kind == "drop":
        rows.pop(int(rng.integers(len(rows))))
    elif kind == "unknown":
        rows.append(("phantom_recording", "train"))
    elif kind == "bad_name":
        i = int(rng.integers(len(rows)))
        rows[i] = (rows[i][0], "holdout")
    elif kind == "empty_class":
        cls = manifest.entries[0].class_label
        members = {e.recording_id for e in manifest.entries
                   if e.class_label == cls}
        rows = [(rid, "train" if rid in members else split)
                for rid, split in rows]
    return rows


def test_criterion_07_split_soundness_fuzz():
    with criterion(7, "random-manifest split soundness and corruption detection", 30.0):
        rng = np.random.default_rng(7)
        spec = SplitSpec()  # 0.7 / 0.1 / 0.2
        for case in range(1000):
            manifest = random_manifest(rng)
            counts = segment_counts(manifest, 5.0)
            seed = int(rng.integers(0, 2**31))
            split = stratified_split(manifest, counts, SplitSpec(seed=seed))
            failures = validate_split(split.items(), manifest)
            assert not failures, failures
            per_class = {}
            for e in manifest.entries:
                per_class.setdefault(e.class_label, []).append(
                    split[e.recording_id])
            for cls, assigned in per_class.items():
                n = len(assigned)
                for name, ratio in zip(("train", "val", "test"), spec.ratios):
                    got = sum(1 for a in assigned if a == name)
                    assert abs(got - n * ratio) <= 1.0, (cls, name, got, n)
            if case % 100 == 0:  # seed determinism spot checks
                again = stratified_split(manifest, counts, SplitSpec(seed=seed))
                assert again == split

        detected = 0
        for case in range(1000):
            manifest = random_manifest(rng)
            counts = segment_counts(manifest, 5.0)
            split = stratified_split(manifest, counts,
                                     SplitSpec(seed=int(rng.integers(0, 2**31))))
            kind = CORRUPTIONS[case % len(CORRUPTIONS)]
            bad_rows = corrupt(list(split.items()), manifest, kind, rng)
            failures = validate_split(bad_rows, manifest)
            assert failures, (kind, failures)
            detected += 1
        assert detected == 1000


E2E_CONFIG = """\
data.rate = 8k
data.segment_seconds = 5.0
feature.model_rate = 8k
feature.win_length = 512
feature.hop_length = 320
feature.n_mels = 32
feature.f_min = 50
feature.f_max = 3500
augment.base_time_mask_width = 16
augment.freq_mask_width = 4
train.lr = 0.005
train.batch_size = 16
train.max_epochs = 30
train.patience = 30
train.seeds = 0,1,2
split.seed = 0
"""


def test_criterion_08_end_to_end_training(tmp_path):
    with criterion(8, "four-class synthetic corpus to >=95% test accuracy", 300.0):
        make_corpus(tmp_path / "corpus", recordings_per_class=10, seconds=25.0,
                    rate=8000, seed=0)
        wavs = list((tmp_path / "corpus").rglob("*.wav"))
        assert len(wavs) == 40
        (tmp_path / "run.cfg").write_text(E2E_CONFIG)
        runner = CliRunner()
        steps = [
            ["ingest", "--corpus-root", str(tmp_path / "corpus"),
             "--out", str(tmp_path / "manifest.csv")],
            ["split", "--config", str(tmp_path / "run.cfg"),
             "--manifest", str(tmp_path / "manifest.csv"),
             "--out", str(tmp_path / "split.csv")],
            ["featurize", "--config", str(tmp_path / "run.cfg"),
             "--manifest", str(tmp_path / "manifest.csv"),
             "--split-file", str(tmp_path / "split.csv"),
             "--corpus-root", str(tmp_path / "corpus"),
             "--out", str(tmp_path / "feats")],
            ["train", "--config", str(tmp_path / "run.cfg"),
             "--features", str(tmp_path / "feats"),
             "--out", str(tmp_path / "runs")],
        ]
        for args in steps:
            result = runner.invoke(main, args, catch_exceptions=False)
            assert result.exit_code == 0, f"{args[0]}: {result.output}"
        summary = json.loads((tmp_path / "runs" / "summary.json").read_text())
        accuracies = [s["test_accuracy"] for s in summary["seeds"]]
        assert len(accuracies) == 3
        assert all(a >= 0.95 for a in accuracies), accuracies
        assert summary["std_accuracy"] < 0.05, summary["std_accuracy"]


def johnk_beta(rng, alpha, n):
    out = []
    have = 0
    while have < n:
        m = max(4096, 2 * (n - have))
        u = rng.random(m) ** (1.0 / alpha)
        v = rng.random(m) ** (1.0 / alpha)
        s = u + v
        ok = (s <= 1.0) & (s > 0)
        keep = (u / np.where(s > 0, s, 1.0))[ok]
        out.append(keep)
        have += keep.size
    return np.concatenate(out)[:n]


def ks_statistic(a, b):
    grid = np.concatenate([a, b])
    fa = np.searchsorted(np.sort(a), grid, side="right") / a.size
    fb = np.searchsorted(np.sort(b), grid, side="right") / b.size
    return float(np.abs(fa - fb).max())


def test_criterion_09_augmentation_properties():
    with criterion(9, "mask rectangles, seed determinism, and mixing distribution", 60.0):
        cfg = AugmentConfig()
        budget = scaled_mask_width(cfg.base_time_mask_width, 16000, 32000)
        assert budget == 32
        n_frames, n_mels = 251, 64
        base = np.random.default_rng(0).normal(size=(n_frames, n_mels)) + 5.0
        for seed in range(100):
            masks = draw_masks(n_frames, n_mels, cfg, budget,
                               np.random.default_rng(seed))
            out = spec_augment(base, cfg, budget, np.random.default_rng(seed))
            masked = np.zeros_like(base, dtype=bool)
            for m in masks:
                if m.axis == "time":
                    masked[m.start:m.start + m.width, :] = True
                else:
                    masked[:, m.start:m.start + m.width] = True
            np.testing.assert_array_equal(out[~masked], base[~masked])
            assert (out[masked] == 0).all()
            again = spec_augment(base, cfg, budget, np.random.default_rng(seed))
            np.testing.assert_array_equal(out, again)

        n = 100_000
        rng = np.random.default_rng(123)
        lam = np.array([sample_lambda(1.0, rng) for _ in range(n)])
        oracle = johnk_beta(np.random.default_rng(456), 1.0, n)
        assert ks_statistic(lam, oracle) < 0.02

        from sonarprep.augment import make_mix_pairs, mixup
        rng = np.random.default_rng(9)
        x = rng.normal(size=(64, 6, 4))
        y = rng.random((64, 4))
        y /= y.sum(axis=1, keepdims=True)
        _, my = mixup(x, y, make_mix_pairs(64, 1.0, rng))
        np.testing.assert_allclose(my.sum(axis=1), 1.0, atol=1e-9)
        assert (my >= -1e-12).all()


def test_criterion_10_evaluation_algebra():
    with criterion(10, "confusion tallies and run aggregation algebra", 10.0):
        rng = np.random.default_rng(10)
        for _ in range(200):
            n_classes = int(rng.integers(2, 7))
            n = int(rng.integers(1, 400))
            y_true = rng.integers(0, n_classes, n)
            y_pred = rng.integers(0, n_classes, n)
            cm = confusion_matrix(y_true, y_pred, n_classes)
            brute = np.zeros((n_classes, n_classes), dtype=np.int64)
            for t, p in zip(y_true, y_pred):
                brute[t, p] += 1
            np.testing.assert_array_equal(cm, brute)
            m = metrics_from_predictions(y_true, y_pred, n_classes)
            assert m.accuracy == np.trace(cm) / n

        from sonarprep.evaluation import Metrics
        for _ in range(200):
            k = int(rng.integers(2, 9))
            accs = rng.random(k)
            runs = [Metrics(float(a), np.zeros(3),
                            rng.integers(0, 50, (3, 3))) for a in accs]
            agg = aggregate_runs(runs)
            assert abs(agg.mean_accuracy - accs.mean()) < 1e-12
            assert abs(agg.std_accuracy - accs.std(ddof=1)) < 1e-12
            stack = np.stack([r.confusion for r in runs]).mean(axis=0)
            np.testing.assert_allclose(agg.mean_confusion, stack, atol=1e-12)


def test_criterion_11_real_corpus_statistics(tmp_path):
    root = os.environ.get("DEEPSHIP_ROOT")
    if not root:
        pytest.skip("DEEPSHIP_ROOT not set; real-corpus check skipped")
    with criterion(11, "real corpus segment totals and split proportions", 1800.0):
        result = CliRunner().invoke(main, ["ingest", "--corpus-root", root,
                                           "--out", str(tmp_path / "manifest.csv")],
                                    catch_exceptions=False)
        assert result.exit_code == 0, result.output
        manifest = load_manifest((tmp_path / "manifest.csv").read_text())
        assert len(manifest.classes) == 4, f"expected 4 classes, got {manifest.classes}"
        assert len(manifest.entries) == 609, len(manifest.entries)
        counts = segment_counts(manifest, 5.0)
        assert sum(counts.values()) == 33770, sum(counts.values())
        split = stratified_split(manifest, counts, SplitSpec(seed=0))
        per_class = {}
        for e in manifest.entries:
            per_class.setdefault(e.class_label, []).append(
                split[e.recording_id])
        for cls, assigned in per_class.items():
            n = len(assigned)
            for name, ratio in zip(("train", "val", "test"), (0.7, 0.1, 0.2)):
                got = sum(1 for a in assigned if a == name)
                assert abs(got - n * ratio) <= 1.0, (cls, name, got, n * ratio)

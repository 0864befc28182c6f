"""Training loop behavior: early stopping, weight restore, determinism."""

import numpy as np
import pytest

import sonarprep.trainer as trainer_mod
from sonarprep.augment import AugmentConfig
from sonarprep.datasplit import SplitSpec
from sonarprep.dsp import DegenerateBandError, FeatureConfig, scale_config
from sonarprep.nn import Architecture, Conv, Dense, GlobalAvgPool, MaxPool, Relu, init_model
from sonarprep.trainer import (EmptyDatasetError, FeatureSets, TrainConfig,
                               build_feature_sets, history_csv, one_hot,
                               run_seeds, sweep, train, validation_pass)
from sonarprep.wavio import Manifest, ManifestEntry, Waveform

TINY_ARCH = Architecture((Conv(2, 3), Relu(), MaxPool(2), GlobalAvgPool(), Dense()))
TINY_AUG = AugmentConfig(base_time_mask_width=2, freq_mask_width=1)
TINY_FEAT = FeatureConfig(8000, win_length=64, hop_length=32, n_mels=6,
                          f_min=50, f_max=3500)


def tiny_config(**overrides):
    base = dict(lr=1e-3, batch_size=4, max_epochs=3, patience=3, seeds=(0,),
                augment=TINY_AUG, feature=TINY_FEAT, arch=TINY_ARCH,
                use_mixup=True)
    base.update(overrides)
    return TrainConfig(**base)


def tiny_data(n_train=10, n_val=4, n_test=4, n_classes=2, shape=(8, 6), seed=0):
    rng = np.random.default_rng(seed)
    protos = rng.normal(size=(n_classes,) + shape)

    def make(n):
        x = np.concatenate([protos[c] + 0.2 * rng.normal(size=(n,) + shape)
                            for c in range(n_classes)]).astype(np.float32)
        y = np.concatenate([np.full(n, c) for c in range(n_classes)])
        return x, y

    return FeatureSets(make(n_train), make(n_val), make(n_test), n_classes)


class TestTrainConfig:
    @pytest.mark.parametrize("seeds", [(0, -1), (1, 1)])
    def test_seeds_must_be_distinct_and_non_negative(self, seeds):
        with pytest.raises(ValueError, match="distinct and non-negative"):
            tiny_config(seeds=seeds)


class TestOneHot:
    def test_rows_are_indicators(self):
        out = one_hot(np.array([2, 0, 1]), 3)
        np.testing.assert_array_equal(out, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
        assert out.dtype == np.float32


class TestEarlyStopping:
    def scripted_run(self, monkeypatch, losses, patience, max_epochs=20):
        """Train against a scripted validation-loss sequence."""
        seen = iter(losses)
        snapshots = []

        def fake_validation(model, features, labels):
            snapshots.append({k: v.copy() for k, v in model.params.items()})
            return next(seen), 0.5

        monkeypatch.setattr(trainer_mod, "validation_pass", fake_validation)
        cfg = tiny_config(patience=patience, max_epochs=max_epochs, lr=1e-2)
        data = tiny_data()
        model = init_model(cfg.arch, data.n_classes, seed=0, dtype=np.float32)
        model, history = train(cfg, data.train, data.val, model, 8000, seed=0)
        return model, history, snapshots

    def test_stops_after_patience_without_improvement(self, monkeypatch):
        _, history, _ = self.scripted_run(
            monkeypatch, [1.0, 0.9, 0.95, 0.96, 0.97], patience=2)
        assert history.best_epoch == 2
        assert history.stopped_epoch == 4
        assert len(history.val_loss) == 4

    def test_tied_loss_keeps_earlier_epoch(self, monkeypatch):
        _, history, _ = self.scripted_run(
            monkeypatch, [1.0, 0.9, 0.9, 0.9], patience=2)
        assert history.best_epoch == 2
        assert history.stopped_epoch == 4

    def test_runs_to_max_epochs_when_improving(self, monkeypatch):
        _, history, _ = self.scripted_run(
            monkeypatch, [0.9, 0.8, 0.7, 0.6, 0.5], patience=3, max_epochs=5)
        assert history.best_epoch == 5
        assert history.stopped_epoch == 5

    def test_best_epoch_weights_restored(self, monkeypatch):
        model, history, snapshots = self.scripted_run(
            monkeypatch, [1.0, 0.7, 0.9, 0.95], patience=2)
        assert history.best_epoch == 2
        # snapshot i was taken entering validation after epoch i+1
        best = snapshots[history.best_epoch - 1]
        for name in model.params:
            np.testing.assert_array_equal(model.params[name], best[name])
        # and training moved past it before the restore
        last = snapshots[-1]
        assert any(not np.array_equal(best[k], last[k]) for k in best)


class TestTrainLoop:
    def test_deterministic_for_seed(self):
        cfg = tiny_config()
        data = tiny_data()
        runs = []
        for _ in range(2):
            model = init_model(cfg.arch, data.n_classes, seed=5, dtype=np.float32)
            model, history = train(cfg, data.train, data.val, model, 8000, seed=5)
            runs.append((model, history))
        (m1, h1), (m2, h2) = runs
        assert h1.train_loss == h2.train_loss
        assert h1.val_loss == h2.val_loss
        for name in m1.params:
            np.testing.assert_array_equal(m1.params[name], m2.params[name])

    def test_seed_changes_trajectory(self):
        cfg = tiny_config()
        data = tiny_data()
        model1 = init_model(cfg.arch, data.n_classes, seed=0, dtype=np.float32)
        _, h1 = train(cfg, data.train, data.val, model1, 8000, seed=0)
        model2 = init_model(cfg.arch, data.n_classes, seed=0, dtype=np.float32)
        _, h2 = train(cfg, data.train, data.val, model2, 8000, seed=1)
        assert h1.train_loss != h2.train_loss

    def test_every_train_batch_augmented_including_partial(self, monkeypatch):
        cfg = tiny_config(batch_size=8, max_epochs=3)
        data = tiny_data(n_train=10)  # 20 samples -> 3 batches of 8, 8, 4
        sizes = []
        original = trainer_mod._augment_batch

        def counting(inputs, targets, cfg, time_width, rng):
            sizes.append(inputs.shape[0])
            return original(inputs, targets, cfg, time_width, rng)

        monkeypatch.setattr(trainer_mod, "_augment_batch", counting)
        model = init_model(cfg.arch, data.n_classes, seed=0, dtype=np.float32)
        train(cfg, data.train, data.val, model, 8000, seed=0)
        assert sizes == [8, 8, 4] * 3

    def test_validation_set_never_augmented(self, monkeypatch):
        cfg = tiny_config()
        data = tiny_data()
        seen_val = []

        def spy_validation(model, features, labels):
            seen_val.append(features)
            return validation_pass(model, features, labels)

        monkeypatch.setattr(trainer_mod, "validation_pass", spy_validation)
        model = init_model(cfg.arch, data.n_classes, seed=0, dtype=np.float32)
        train(cfg, data.train, data.val, model, 8000, seed=0)
        for features in seen_val:
            assert features is data.val[0]  # same array, untouched

    def test_training_reduces_loss_on_separable_data(self):
        cfg = tiny_config(lr=5e-3, max_epochs=10, patience=10, use_mixup=False,
                          augment=AugmentConfig(n_time_masks=0, n_freq_masks=0))
        data = tiny_data(n_train=20)
        model = init_model(cfg.arch, data.n_classes, seed=0, dtype=np.float32)
        _, history = train(cfg, data.train, data.val, model, 8000, seed=0)
        assert history.train_loss[-1] < history.train_loss[0]

    def test_empty_splits_rejected(self):
        cfg = tiny_config()
        data = tiny_data()
        empty = (np.zeros((0, 8, 6), dtype=np.float32), np.zeros(0, dtype=int))
        model = init_model(cfg.arch, data.n_classes, seed=0, dtype=np.float32)
        with pytest.raises(EmptyDatasetError):
            train(cfg, empty, data.val, model, 8000, seed=0)
        with pytest.raises(EmptyDatasetError):
            train(cfg, data.train, empty, model, 8000, seed=0)


class TestRunSeeds:
    def test_one_result_per_seed_with_metrics(self):
        cfg = tiny_config(seeds=(0, 1))
        data = tiny_data()
        results = run_seeds(cfg, data, 8000)
        assert [r.seed for r in results] == [0, 1]
        for r in results:
            assert 0.0 <= r.metrics.accuracy <= 1.0
            assert r.history.stopped_epoch >= 1
        # different seeds must not share a model
        p0 = results[0].model.params["conv0.weight"]
        p1 = results[1].model.params["conv0.weight"]
        assert not np.array_equal(p0, p1)


class TestHistoryCsv:
    def test_layout_and_precision(self):
        from sonarprep.trainer import RunHistory
        h = RunHistory(seed=3, train_loss=[1.5, 0.25], val_loss=[1.25, 0.75],
                       val_acc=[0.5, 0.625], best_epoch=2, stopped_epoch=2)
        text = history_csv(h)
        lines = text.strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,val_acc"
        assert lines[1] == "1,1.5,1.25,0.5"
        assert lines[2] == "2,0.25,0.75,0.625"


def synthetic_manifest_and_loader(n_per_class=4, seconds=10.0, rate=8000,
                                  tones=(("hum", 400.0), ("whine", 1800.0))):
    """Tone-per-class corpus served from memory."""
    entries, waves = [], {}
    rng = np.random.default_rng(0)
    for cls, freq in tones:
        for i in range(n_per_class):
            rid = f"{cls}{i}"
            entries.append(ManifestEntry(rid, cls, f"{cls}/{rid}.wav", seconds))
            t = np.arange(int(rate * seconds)) / rate
            x = 0.5 * np.sin(2 * np.pi * freq * t) + 0.01 * rng.standard_normal(t.size)
            waves[rid] = Waveform(samples=x, rate=rate, source_id=rid)
    manifest = Manifest(entries)
    return manifest, lambda entry: waves[entry.recording_id]


SYNTHETIC_ASSIGNMENT = {f"{cls}{i}": split for cls in ("hum", "whine")
                        for i, split in enumerate(("train", "train", "val", "test"))}


def counting(loader):
    """The loader, recording the ID of every recording it is asked for."""
    calls = []

    def load(entry):
        calls.append(entry.recording_id)
        return loader(entry)

    return load, calls


def assert_same_feature_sets(built, expected):
    (data, stats), (want, want_stats) = built, expected
    assert stats == want_stats
    assert data.n_classes == want.n_classes
    for (x, y), (want_x, want_y) in zip(data[:3], want[:3]):
        assert (x.dtype, x.shape, x.tobytes()) == (want_x.dtype, want_x.shape,
                                                   want_x.tobytes())
        assert (y.dtype, y.tobytes()) == (want_y.dtype, want_y.tobytes())


class TestBuildFeatureSets:
    def test_shapes_counts_and_train_based_scaling(self):
        manifest, loader = synthetic_manifest_and_loader()
        [(data, stats)] = build_feature_sets(manifest, loader, SYNTHETIC_ASSIGNMENT,
                                             data_rate=8000, feature_cfgs=[TINY_FEAT],
                                             seconds=5.0)
        assert stats.global_min < stats.global_max
        # 10 s recordings -> 2 segments each
        assert data.train[0].shape[0] == 8
        assert data.val[0].shape[0] == 4
        assert data.test[0].shape[0] == 4
        assert data.n_classes == 2
        n_frames = 1 + (5 * 8000) // TINY_FEAT.hop_length
        assert data.train[0].shape[1:] == (n_frames, TINY_FEAT.n_mels)
        # min-max scaling is anchored on the training split only
        assert data.train[0].min() == pytest.approx(0.0, abs=1e-6)
        assert data.train[0].max() == pytest.approx(1.0, abs=1e-6)
        assert data.train[0].dtype == np.float32
        # labels follow sorted class order: hum=0, whine=1
        assert set(data.train[1][:4]) == {0}
        assert set(data.train[1][4:]) == {1}

    def test_threads_do_not_change_output(self):
        manifest, loader = synthetic_manifest_and_loader()
        serial, threaded = [build_feature_sets(manifest, loader, SYNTHETIC_ASSIGNMENT,
                                               data_rate=8000, feature_cfgs=[TINY_FEAT],
                                               seconds=5.0, jobs=jobs)[0]
                            for jobs in (1, 3)]
        assert_same_feature_sets(threaded, serial)

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_configs_built_together_match_single_builds(self, jobs):
        """One read and resample per recording serves every config, and
        each config's arrays and stats are those of a build on its own."""
        manifest, loader = synthetic_manifest_and_loader()
        configs = [TINY_FEAT, scale_config(TINY_FEAT, 16000)]
        load, calls = counting(loader)

        def build(cfgs):
            return build_feature_sets(manifest, load, SYNTHETIC_ASSIGNMENT,
                                      data_rate=4000, feature_cfgs=cfgs,
                                      seconds=5.0, jobs=jobs)

        together = build(configs)
        assert len(calls) == len(manifest.entries)
        assert len(together) == len(configs)
        assert together[0][0].train[0].shape != together[1][0].train[0].shape
        for cfg, built in zip(configs, together):
            [alone] = build([cfg])
            assert_same_feature_sets(built, alone)


class TestSweep:
    def test_single_cell_summary(self):
        manifest, loader = synthetic_manifest_and_loader(n_per_class=5)
        cfg = tiny_config(max_epochs=2, patience=2, seeds=(0,),
                          feature=TINY_FEAT)
        result = sweep((8000,), (8000,), cfg, manifest, loader,
                       split_spec=SplitSpec(ratios=(0.6, 0.2, 0.2), seed=0),
                       seconds=5.0)
        assert [(c["data_rate"], c["model_rate"]) for c in result["cells"]] == [(8000, 8000)]
        cell = result["cells"][0]
        assert cell["mask_width"] == TINY_AUG.base_time_mask_width  # same-rate cell
        assert cell["n_frames"] == 1 + (5 * 8000) // TINY_FEAT.hop_length
        assert len(cell["accuracies"]) == 1
        assert result["classes"] == ["hum", "whine"]

    def test_reads_each_recording_once_per_data_rate(self):
        manifest, loader = synthetic_manifest_and_loader(n_per_class=5)
        load, calls = counting(loader)
        data_rates, model_rates = (4000, 8000), (8000, 16000)
        result = sweep(data_rates, model_rates,
                       tiny_config(max_epochs=1, patience=1, seeds=(0,)),
                       manifest, load,
                       split_spec=SplitSpec(ratios=(0.6, 0.2, 0.2), seed=0),
                       seconds=5.0)
        assert [(c["data_rate"], c["model_rate"]) for c in result["cells"]] == [
            (4000, 8000), (4000, 16000), (8000, 8000), (8000, 16000)]
        assert len(calls) == len(manifest.entries) * len(data_rates)

    def test_each_cell_trains_with_the_mask_width_it_records(self, monkeypatch):
        """The width reaching ``spec_augment`` in each cell, including cells
        whose data rate differs from their model rate, is the cell's
        recorded ``mask_width``."""
        cell_widths = []
        run_seeds, spec_augment = trainer_mod.run_seeds, trainer_mod.spec_augment

        def marking_run_seeds(*args):
            cell_widths.append(set())
            return run_seeds(*args)

        def spying_spec_augment(values, cfg, time_width, rng):
            cell_widths[-1].add(time_width)
            return spec_augment(values, cfg, time_width, rng)

        monkeypatch.setattr(trainer_mod, "run_seeds", marking_run_seeds)
        monkeypatch.setattr(trainer_mod, "spec_augment", spying_spec_augment)
        manifest, loader = synthetic_manifest_and_loader(n_per_class=5)
        cfg = tiny_config(max_epochs=1, patience=1, seeds=(0,),
                          augment=AugmentConfig(base_time_mask_width=8, freq_mask_width=1))
        result = sweep((4000, 8000), (8000, 16000), cfg, manifest, loader,
                       split_spec=SplitSpec(ratios=(0.6, 0.2, 0.2), seed=0),
                       seconds=5.0)
        recorded = [c["mask_width"] for c in result["cells"]]
        assert recorded == [round(8 * c["data_rate"] / c["model_rate"])
                            for c in result["cells"]] == [4, 2, 8, 4]
        assert cell_widths == [{width} for width in recorded]

    def test_unbuildable_filterbank_fails_before_any_audio_is_read(self):
        """64 mels fit the 4 kHz bin grid of a 256-sample window but not the
        32 kHz one; the sweep must refuse before featurizing the 4 kHz row."""
        manifest, loader = synthetic_manifest_and_loader()
        load, calls = counting(loader)
        feature = FeatureConfig(8000, win_length=256, hop_length=80, n_mels=64,
                                f_min=50, f_max=3500)
        with pytest.raises(DegenerateBandError, match="data rate 32000, model rate 8000"):
            sweep((4000, 32000), (8000,), tiny_config(feature=feature), manifest, load,
                  split_spec=SplitSpec(ratios=(0.5, 0.25, 0.25), seed=0), seconds=5.0)
        assert calls == []

    def test_table_measures_the_data_rate(self):
        """Tones at 1.3 and 1.7 kHz survive an 8 kHz data rate but not a
        2 kHz one, whose anti-alias filter stops above 1 kHz: that row of
        the table must sit at chance while the 8 kHz row separates."""
        manifest, loader = synthetic_manifest_and_loader(
            n_per_class=8, seconds=4.0, tones=(("high", 1700.0), ("low", 1300.0)))
        cfg = tiny_config(lr=1e-2, max_epochs=60, patience=60, use_mixup=False)
        result = sweep((2000, 8000), (8000,), cfg, manifest, loader,
                       split_spec=SplitSpec(ratios=(0.5, 0.25, 0.25), seed=0),
                       seconds=1.0)
        cells = {c["data_rate"]: c for c in result["cells"]}
        for cell in cells.values():  # 2 test recordings per class, 4 segments each
            assert np.sum(cell["mean_confusion"], axis=1).tolist() == [8, 8]
        assert cells[2000]["mean_accuracy"] <= 0.75
        assert cells[8000]["mean_accuracy"] >= 0.95

"""Metrics, multi-run aggregation, activation-map reports, and table rendering."""

import csv
import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sonarprep.nn
from sonarprep.dsp import read_feature_archive
from sonarprep.nn import (DEFAULT_ARCHITECTURE, Architecture, Conv, Dense,
                          GlobalAvgPool, Relu, backward, cam_from_activations,
                          forward, init_model)
from sonarprep.evaluation import (EmptyTestSetError, Metrics,
                                  aggregate_cams, aggregate_runs,
                                  confusion_matrix, evaluate, format_mean_std,
                                  metrics_from_predictions, predict,
                                  render_confusion_csv,
                                  render_confusion_rownorm_csv,
                                  render_sweep_table, write_cam_report)


def brute_confusion(y_true, y_pred, n):
    cm = [[0] * n for _ in range(n)]
    for t, p in zip(y_true, y_pred):
        cm[t][p] += 1
    return np.array(cm)


class TestConfusion:
    @given(st.integers(min_value=2, max_value=6),
           st.integers(min_value=1, max_value=200),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_nested_loop_tally(self, n_classes, n, seed):
        rng = np.random.default_rng(seed)
        y_true = rng.integers(0, n_classes, n)
        y_pred = rng.integers(0, n_classes, n)
        got = confusion_matrix(y_true, y_pred, n_classes)
        np.testing.assert_array_equal(got, brute_confusion(y_true, y_pred,
                                                           n_classes))
        assert got.sum() == n

    def test_rows_are_truth(self):
        cm = confusion_matrix([0, 0, 1], [1, 1, 1], 2)
        np.testing.assert_array_equal(cm, [[0, 2], [0, 1]])

    def test_out_of_range_labels_rejected(self):
        with pytest.raises(ValueError):
            confusion_matrix([0, 3], [0, 0], 2)


class TestMetrics:
    def test_accuracy_and_recall(self):
        y_true = [0, 0, 0, 1, 1, 2]
        y_pred = [0, 0, 1, 1, 1, 0]
        m = metrics_from_predictions(y_true, y_pred, 3)
        assert m.accuracy == pytest.approx(4 / 6)
        np.testing.assert_allclose(m.per_class_recall, [2 / 3, 1.0, 0.0])

    def test_zero_support_class_recall_is_zero(self):
        m = metrics_from_predictions([0, 0], [0, 0], 3)
        np.testing.assert_allclose(m.per_class_recall, [1.0, 0.0, 0.0])

    @given(st.integers(min_value=2, max_value=5),
           st.integers(min_value=1, max_value=100),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_accuracy_equals_trace_over_total(self, n_classes, n, seed):
        rng = np.random.default_rng(seed)
        y_true = rng.integers(0, n_classes, n)
        y_pred = rng.integers(0, n_classes, n)
        m = metrics_from_predictions(y_true, y_pred, n_classes)
        assert m.accuracy == pytest.approx(np.trace(m.confusion) / n)
        assert m.confusion.sum() == n


def zero_logit_model(n_classes=3):
    arch = Architecture((Conv(2, 3), Relu(), GlobalAvgPool(), Dense()))
    m = init_model(arch, n_classes, seed=0, dtype=np.float64)
    m.params["dense3.weight"][:] = 0.0
    m.params["dense3.bias"][:] = 0.0
    return m


class TestPredict:
    def test_tied_logits_pick_lowest_index(self):
        m = zero_logit_model()
        x = np.random.default_rng(0).normal(size=(5, 8, 6))
        np.testing.assert_array_equal(predict(m, x), 0)

    def test_bias_breaks_ties(self):
        m = zero_logit_model()
        m.params["dense3.bias"][:] = [0.0, 1.0, 0.5]
        x = np.random.default_rng(0).normal(size=(4, 8, 6))
        np.testing.assert_array_equal(predict(m, x), 1)

    def test_batching_matches_single_shot(self, monkeypatch):
        m = zero_logit_model()
        m.params["dense3.weight"][:] = np.random.default_rng(1).normal(
            size=m.params["dense3.weight"].shape)
        x = np.random.default_rng(2).normal(size=(9, 8, 6))
        whole = predict(m, x)
        monkeypatch.setattr(sonarprep.nn, "CHUNK_CELLS", 4 * 8 * 6)
        np.testing.assert_array_equal(predict(m, x), whole)

    def test_memory_does_not_grow_with_the_sample_count(self):
        m = init_model(DEFAULT_ARCHITECTURE, 4, seed=0)
        chunk = sonarprep.nn.CHUNK_CELLS // (40 * 16)
        x = np.random.default_rng(0).normal(size=(3 * chunk, 40, 16)).astype(np.float32)
        predict(m, x[:chunk])

        def peak(features):
            tracemalloc.start()
            try:
                predict(m, features)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, three = peak(x[:chunk]), peak(x)  # one and three chunks
        assert three <= 1.1 * one

    def test_evaluate_bundles_metrics(self):
        m = zero_logit_model()
        x = np.random.default_rng(0).normal(size=(6, 8, 6))
        labels = np.array([0, 0, 0, 1, 2, 2])
        metrics = evaluate(m, x, labels)
        assert metrics.accuracy == pytest.approx(3 / 6)
        assert metrics.confusion[:, 0].sum() == 6  # everything predicted 0


class TestAggregateRuns:
    def test_mean_and_sample_std(self):
        runs = [Metrics(a, np.zeros(2), np.array([[1, 0], [0, 1]]))
                for a in (0.7, 0.8, 0.75)]
        agg = aggregate_runs(runs)
        assert agg.mean_accuracy == pytest.approx(0.75)
        assert agg.std_accuracy == pytest.approx(np.std([0.7, 0.8, 0.75], ddof=1))

    def test_single_run_std_is_zero(self):
        agg = aggregate_runs([Metrics(0.9, np.zeros(2), np.eye(2))])
        assert agg.std_accuracy == 0.0

    def test_confusion_count_average(self):
        runs = [Metrics(1.0, np.ones(2), np.array([[4, 0], [0, 4]])),
                Metrics(0.5, np.ones(2), np.array([[2, 2], [2, 2]]))]
        agg = aggregate_runs(runs)
        np.testing.assert_allclose(agg.mean_confusion, [[3, 1], [1, 3]])

    @given(st.lists(st.floats(min_value=0, max_value=1), min_size=2, max_size=8),
           st.integers(min_value=0, max_value=1000))
    @settings(max_examples=40, deadline=None)
    def test_algebra_matches_numpy_to_high_precision(self, accs, seed):
        rng = np.random.default_rng(seed)
        runs = [Metrics(a, np.zeros(3), rng.integers(0, 9, (3, 3))) for a in accs]
        agg = aggregate_runs(runs)
        assert abs(agg.mean_accuracy - np.mean(accs)) < 1e-12
        assert abs(agg.std_accuracy - np.std(accs, ddof=1)) < 1e-12


class TestRendering:
    def test_format_percent_one_decimal(self):
        assert format_mean_std(0.706, 0.008) == "70.6 ± 0.8"
        assert format_mean_std(1.0, 0.0) == "100.0 ± 0.0"

    def test_sweep_table_layout(self):
        cells = []
        for rd in (2000, 4000):
            for rm in (8000, 16000):
                cells.append({"data_rate": rd, "model_rate": rm,
                              "mean_accuracy": rd / 10000, "std_accuracy": 0.01,
                              "mean_confusion": np.eye(2).tolist()})
        text = render_sweep_table(cells)
        assert text.splitlines() == ["data_rate_hz,8000,16000",
                                     "2000,20.0 ± 1.0,20.0 ± 1.0",
                                     "4000,40.0 ± 1.0,40.0 ± 1.0"]

    def test_confusion_csv_counts(self):
        text = render_confusion_csv(np.array([[3, 1], [0, 2]]), ["a", "b"])
        lines = text.strip().splitlines()
        assert lines[0] == "true\\pred,a,b"
        assert lines[1] == "a,3,1"
        assert lines[2] == "b,0,2"

    def test_confusion_csv_float_cells(self):
        text = render_confusion_csv(np.array([[2.5, 0.5], [0.0, 3.0]]), ["a", "b"])
        assert "a,2.50,0.50" in text

    def test_plain_names_keep_their_bytes(self):
        conf = np.array([[3, 1, 0], [0, 2.5, 0.5], [0, 0, 0]])
        classes = ["Cargo", "passenger ship", "tug_boat"]
        assert render_confusion_csv(conf, classes) == (
            "true\\pred,Cargo,passenger ship,tug_boat\n"
            "Cargo,3,1,0\npassenger ship,0,2.50,0.50\ntug_boat,0,0,0\n")
        assert render_confusion_rownorm_csv(conf, classes) == (
            "true\\pred,Cargo,passenger ship,tug_boat\n"
            "Cargo,0.7500,0.2500,0.0000\npassenger ship,0.0000,0.8333,0.1667\n"
            "tug_boat,0.0000,0.0000,0.0000\n")

    @pytest.mark.parametrize("render", [render_confusion_csv, render_confusion_rownorm_csv])
    def test_names_with_csv_syntax_read_back(self, render):
        classes = ["Cargo, large", 'the "tug"', "pilot\nboat"]
        rows = list(csv.reader(io.StringIO(render(np.eye(3), classes))))
        assert rows[0] == ["true\\pred", *classes]
        assert [row[0] for row in rows[1:]] == classes
        assert all(len(row) == 4 for row in rows)

    def test_rownorm_zero_row_stays_zero(self):
        text = render_confusion_rownorm_csv(np.array([[0, 0], [1, 3]]), ["a", "b"])
        lines = text.strip().splitlines()
        assert lines[1] == "a,0.0000,0.0000"
        assert lines[2] == "b,0.2500,0.7500"


class TestCamAggregation:
    def test_buckets_cover_all_classes(self):
        m = zero_logit_model(n_classes=3)
        x = np.random.default_rng(0).normal(size=(7, 8, 6))
        labels = np.array([0, 0, 1, 1, 2, 2, 2])
        maps, counts = aggregate_cams(m, x, labels)
        assert counts.shape == (3, 2) and maps.shape[:2] == (3, 2)
        assert counts.sum() == 7
        # zero-weight head predicts class 0 everywhere
        assert counts[0, 0] == 2
        assert counts[1, 1] == 2
        assert counts[2, 1] == 3
        for cam in maps.reshape(-1, *maps.shape[2:]):
            assert cam.shape == maps.shape[2:]
            assert cam.min() >= 0.0 and cam.max() <= 1.0

    def test_empty_bucket_map_is_zero(self):
        m = zero_logit_model(n_classes=3)
        x = np.random.default_rng(0).normal(size=(2, 8, 6))
        maps, counts = aggregate_cams(m, x, np.array([0, 0]))
        np.testing.assert_array_equal(maps[1, 0], 0.0)
        assert counts[1, 0] == 0

    def test_empty_input_rejected(self):
        m = zero_logit_model()
        with pytest.raises(EmptyTestSetError):
            aggregate_cams(m, np.zeros((0, 8, 6)), np.zeros(0, dtype=int))

    def test_report_files(self, tmp_path):
        m = zero_logit_model(n_classes=2)
        x = np.random.default_rng(0).normal(size=(4, 8, 6))
        maps, counts = aggregate_cams(m, x, np.array([0, 1, 0, 1]))
        write_cam_report(tmp_path, maps, counts, ["anchor", "buoy"])
        sidecar = json.loads((tmp_path / "cams.json").read_text())
        assert sidecar["map_shape"] == list(maps.shape[2:])
        assert len(sidecar["buckets"]) == 4
        items, labels = read_feature_archive(tmp_path / "cams.sprf")
        assert len(labels) == 4
        for i, (bucket, values, label) in enumerate(zip(sidecar["buckets"], items, labels)):
            assert bucket["class_index"] == label == i // 2
            assert bucket["correct"] == (i % 2 == 0)
            assert bucket["count"] == counts[i // 2, i % 2]
            assert values.shape == maps.shape[2:]
            np.testing.assert_array_equal(values, maps[i // 2, i % 2].astype(np.float32))

    def test_matches_per_sample_reference(self):
        m = zero_logit_model(n_classes=3)
        rng = np.random.default_rng(3)
        m.params["dense3.weight"][:] = rng.normal(size=m.params["dense3.weight"].shape)
        x = rng.normal(size=(12, 8, 6))
        labels = rng.integers(0, 3, 12)
        sums, want_counts = {}, {}
        for sample, label in zip(x, labels):
            cache = []
            logits = forward(m, sample[None, None], cache)
            predicted = int(np.argmax(logits[0]))
            seed_grad = np.zeros_like(logits)
            seed_grad[0, predicted] = 1.0
            _, conv_grad = backward(m, cache, seed_grad, stop=1)  # down to conv0's output
            cam = cam_from_activations(  # channels-last -> [C, H, W]
                np.ascontiguousarray(cache[0][1][0].transpose(2, 0, 1)),
                np.ascontiguousarray(conv_grad[0].transpose(2, 0, 1)))
            key = (int(label), predicted == label)
            sums[key] = sums.get(key, 0.0) + cam
            want_counts[key] = want_counts.get(key, 0) + 1
        maps, counts = aggregate_cams(m, x, labels)
        assert 0 < counts[:, 0].sum() < 12  # some samples misclassified
        for c in range(3):
            for k, correct in enumerate((True, False)):
                n = want_counts.get((c, correct), 0)
                assert counts[c, k] == n
                want = sums[(c, correct)] / n if n else np.zeros(maps.shape[2:])
                np.testing.assert_array_equal(maps[c, k], want)

    def test_one_forward_pass_per_sample(self, monkeypatch):
        calls = []
        original = sonarprep.nn.forward

        def counting(model, batch, *args, **kwargs):
            calls.append(batch.shape[0])
            return original(model, batch, *args, **kwargs)

        monkeypatch.setattr(sonarprep.nn, "forward", counting)
        m = zero_logit_model(n_classes=2)
        x = np.random.default_rng(0).normal(size=(5, 8, 6))
        aggregate_cams(m, x, np.array([0, 1, 0, 1, 1]))
        assert calls == [1] * 5

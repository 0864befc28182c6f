"""Recording-level split construction, validation, and feature normalization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sonarprep.errors import SonarprepError
from sonarprep.wavio import Manifest, ManifestEntry
from sonarprep.datasplit import (DUPLICATE_ROW, INVALID_SPLIT_NAME, LEAKAGE,
                                 MISSING_CLASS, MISSING_RECORDING,
                                 UNKNOWN_RECORDING, NormStats, SplitSpec,
                                 compute_norm_stats,
                                 normalize, read_split_rows,
                                 segment_counts, stratified_split,
                                 validate_split, write_split_file)


def toy_manifest(per_class: dict[str, int], duration: float = 25.0) -> Manifest:
    entries = []
    for cls, n in per_class.items():
        for i in range(n):
            entries.append(ManifestEntry(f"{cls}{i:03d}", cls,
                                         f"{cls}/{cls}{i:03d}.wav", duration))
    return Manifest(entries)


def split_sizes(sf, manifest):
    by_class = {}
    label = {e.recording_id: e.class_label for e in manifest.entries}
    for rid, split in sf.items():
        by_class.setdefault(label[rid], {"train": 0, "val": 0, "test": 0})
        by_class[label[rid]][split] += 1
    return by_class


class TestSegmentCounts:
    def test_floor_of_duration_over_length(self):
        m = toy_manifest({"a": 3}, duration=25.0)
        assert set(segment_counts(m, 5.0).values()) == {5}

    def test_partial_segment_not_counted(self):
        m = toy_manifest({"a": 3}, duration=24.999)
        assert set(segment_counts(m, 5.0).values()) == {4}

    def test_float_wobble_rounds_up_at_boundary(self):
        m = toy_manifest({"a": 3}, duration=0.3)
        assert set(segment_counts(m, 0.1).values()) == {3}


class TestStratifiedSplit:
    def test_exact_quota_case(self):
        m = toy_manifest({"a": 10, "b": 10})
        sf = stratified_split(m, segment_counts(m, 5.0), SplitSpec(seed=1))
        sizes = split_sizes(sf, m)
        for cls in ("a", "b"):
            assert sizes[cls] == {"train": 7, "val": 1, "test": 2}

    def test_every_recording_assigned_once(self):
        m = toy_manifest({"a": 13, "b": 7, "c": 5})
        sf = stratified_split(m, segment_counts(m, 5.0), SplitSpec(seed=2))
        assert set(sf) == {e.recording_id for e in m.entries}

    def test_deterministic_for_seed(self):
        m = toy_manifest({"a": 9, "b": 11})
        counts = segment_counts(m, 5.0)
        a = stratified_split(m, counts, SplitSpec(seed=5))
        b = stratified_split(m, counts, SplitSpec(seed=5))
        assert a == b
        assert write_split_file(a, 5) == write_split_file(b, 5)

    def test_seed_changes_assignment(self):
        m = toy_manifest({"a": 30, "b": 30})
        counts = segment_counts(m, 5.0)
        a = stratified_split(m, counts, SplitSpec(seed=0))
        b = stratified_split(m, counts, SplitSpec(seed=1))
        assert a != b

    @given(st.integers(min_value=4, max_value=40),
           st.integers(min_value=4, max_value=40),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_default_ratio_deviation_within_one(self, na, nb, seed):
        m = toy_manifest({"a": na, "b": nb})
        sf = stratified_split(m, segment_counts(m, 5.0), SplitSpec(seed=seed))
        sizes = split_sizes(sf, m)
        for cls, n in (("a", na), ("b", nb)):
            for split, ratio in zip(("train", "val", "test"), (0.7, 0.1, 0.2)):
                assert abs(sizes[cls][split] - n * ratio) <= 1.0

    def test_three_recordings_one_per_split(self):
        m = toy_manifest({"a": 3, "b": 20})
        sf = stratified_split(m, segment_counts(m, 5.0), SplitSpec(seed=3))
        assert split_sizes(sf, m)["a"] == {"train": 1, "val": 1, "test": 1}

    def test_too_few_recordings_rejected(self):
        m = toy_manifest({"a": 2, "b": 20})
        with pytest.raises(SonarprepError, match="class 'a' has 2 recordings, need at least 3"):
            stratified_split(m, segment_counts(m, 5.0), SplitSpec())

    def test_empty_manifest_rejected(self):
        with pytest.raises(SonarprepError, match="manifest has no recordings"):
            stratified_split(Manifest([]), {}, SplitSpec())

    def test_one_class_rejected(self):
        m = toy_manifest({"a": 20})
        with pytest.raises(SonarprepError, match=r"1 class\(es\) \['a'\]"):
            stratified_split(m, segment_counts(m, 5.0), SplitSpec())

    def test_every_class_in_every_split(self):
        for seed in range(20):
            m = toy_manifest({"a": 4, "b": 5, "c": 17})
            sf = stratified_split(m, segment_counts(m, 5.0), SplitSpec(seed=seed))
            failures = validate_split(sf.items(), m)
            assert not failures, failures

    def test_missing_counts_rejected(self):
        m = toy_manifest({"a": 5})
        with pytest.raises(ValueError):
            stratified_split(m, {}, SplitSpec())

    def test_ratio_validation(self):
        with pytest.raises(ValueError):
            SplitSpec(ratios=(0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            SplitSpec(ratios=(1.0, 0.0, 0.0))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            SplitSpec(seed=-1)


class TestSplitFile:
    def test_round_trip_with_seed_footer(self):
        m = toy_manifest({"a": 5, "b": 5})
        sf = stratified_split(m, segment_counts(m, 5.0), SplitSpec(seed=77))
        text = write_split_file(sf, 77)
        assert text.rstrip().endswith("# seed=77")
        rows, seed = read_split_rows(text)
        assert seed == 77
        assert dict(rows) == sf

    def test_plain_ids_are_written_unquoted(self):
        m = toy_manifest({"a": 5, "b": 5})
        sf = stratified_split(m, segment_counts(m, 5.0), SplitSpec(seed=77))
        lines = ["recording_id,split"]
        lines += [f"{rec_id},{split}" for rec_id, split in sorted(sf.items())]
        assert write_split_file(sf, 77) == "\n".join(lines + ["# seed=77"]) + "\n"

    def test_ids_with_commas_and_quotes_round_trip(self):
        m = Manifest([ManifestEntry(rid, cls, f"{cls}/{rid}.wav", 25.0)
                      for cls in ("a", "b")
                      for rid in (f"{cls}0,x", f'{cls}1 "q"', f"{cls}2", f"{cls}3")])
        sf = stratified_split(m, segment_counts(m, 5.0), SplitSpec(seed=5))
        text = write_split_file(sf, 5)
        assert '"a0,x",' in text and '"a1 ""q""",' in text
        rows, seed = read_split_rows(text)
        assert seed == 5
        assert dict(rows) == sf
        assert not validate_split(rows, m)

    def test_ids_with_hash_spaces_and_line_breaks_round_trip(self):
        # ingest takes IDs from paths, whose class folder and file names can hold any of these
        m = Manifest([ManifestEntry(rid, cls, f"{cls}/{i}.wav", 25.0)
                      for cls in ("a", "b")
                      for i, rid in enumerate((f"#{cls}0", f" {cls}1", f"{cls}2 ",
                                               f"{cls}3\n# seed=9", f"{cls}4"))])
        sf = stratified_split(m, segment_counts(m, 5.0), SplitSpec(seed=5))
        text = write_split_file(sf, 5)
        assert '"#a0",' in text and '" a1",' in text and '"a2 ",' in text
        rows, seed = read_split_rows(text)
        assert seed == 5
        assert rows == sorted(sf.items())
        assert not validate_split(rows, m)

    def test_row_reader_preserves_duplicates(self):
        text = "recording_id,split\nx,train\nx,val\n"
        rows, seed = read_split_rows(text)
        assert rows == [("x", "train"), ("x", "val")]
        assert seed is None


class TestValidateSplit:
    def make(self):
        m = toy_manifest({"a": 5, "b": 5})
        sf = stratified_split(m, segment_counts(m, 5.0), SplitSpec(seed=0))
        return m, list(sf.items())

    def test_clean_split_passes(self):
        m, rows = self.make()
        assert not validate_split(rows, m)

    def test_leakage_detected(self):
        m, rows = self.make()
        rows.append((rows[0][0], "val" if rows[0][1] != "val" else "test"))
        failures = validate_split(rows, m)
        assert LEAKAGE in {code for code, _ in failures}

    def test_duplicate_row_detected(self):
        m, rows = self.make()
        rows.append(rows[0])
        assert DUPLICATE_ROW in {code for code, _ in validate_split(rows, m)}

    def test_missing_recording_detected(self):
        m, rows = self.make()
        failures = validate_split(rows[:-1], m)
        assert MISSING_RECORDING in {code for code, _ in failures}

    def test_unknown_recording_detected(self):
        m, rows = self.make()
        rows.append(("ghost", "train"))
        assert UNKNOWN_RECORDING in {code for code, _ in validate_split(rows, m)}

    def test_invalid_split_name_detected(self):
        m, rows = self.make()
        rows[0] = (rows[0][0], "holdout")
        assert INVALID_SPLIT_NAME in {code for code, _ in validate_split(rows, m)}

    def test_class_absent_from_split_detected(self):
        m, rows = self.make()
        # force every "b" recording into train
        rows = [(rid, "train" if rid.startswith("b") else split)
                for rid, split in rows]
        assert MISSING_CLASS in {code for code, _ in validate_split(rows, m)}


class TestNormalization:
    def test_stats_over_training_features(self):
        a = np.array([[0.0, 5.0], [2.0, 3.0]])
        b = np.array([[-4.0, 1.0]])
        stats = compute_norm_stats(np.concatenate([a, b]))
        assert (stats.global_min, stats.global_max) == (-4.0, 5.0)

    def test_normalize_maps_extremes_to_unit_interval(self):
        stats = NormStats(global_min=-10.0, global_max=30.0)
        x = np.array([[-10.0, 30.0, 10.0]])
        np.testing.assert_allclose(normalize(x, stats), [[0.0, 1.0, 0.5]])

    @given(st.floats(min_value=-100, max_value=100),
           st.floats(min_value=1e-3, max_value=200))
    @settings(max_examples=50)
    def test_affine_algebra(self, lo, span):
        stats = NormStats(global_min=lo, global_max=lo + span)
        x = np.linspace(lo - span, lo + 2 * span, 11)
        y = normalize(x, stats)
        np.testing.assert_allclose(y * span + lo, x, rtol=1e-9, atol=1e-9)

    def test_values_outside_range_not_clamped(self):
        stats = NormStats(global_min=0.0, global_max=1.0)
        y = normalize(np.array([2.0, -1.0]), stats)
        np.testing.assert_allclose(y, [2.0, -1.0])

    def test_container_type_preserved(self):
        stats = NormStats(global_min=0.0, global_max=2.0)
        out = normalize(np.array([[1.0]]), stats)
        assert isinstance(out, np.ndarray)
        np.testing.assert_allclose(out, [[0.5]])

    def test_degenerate_stats_rejected(self):
        with pytest.raises(SonarprepError, match="stats are degenerate: min=1.0, max=1.0"):
            normalize(np.ones(3), NormStats(global_min=1.0, global_max=1.0))

    def test_empty_training_set_rejected(self):
        with pytest.raises(SonarprepError, match="cannot compute stats from zero"):
            compute_norm_stats(np.empty((0, 2)))

"""Masking and mixup behavior, with an independent Beta sampler as oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sonarprep.augment import (AugmentConfig, Mask, apply_masks,
                               draw_masks, make_mix_pairs, mixup,
                               sample_lambda, scaled_mask_width, spec_augment)
from sonarprep.errors import SonarprepError


class TestMaskWidth:
    @pytest.mark.parametrize("data,model,expect", [
        (32000, 32000, 64), (16000, 32000, 32), (8000, 32000, 16),
        (4000, 32000, 8), (2000, 32000, 4),
        (8000, 8000, 64), (16000, 8000, 128), (2000, 8000, 16),
    ])
    def test_width_scales_with_rate_ratio(self, data, model, expect):
        assert scaled_mask_width(AugmentConfig().base_time_mask_width, data, model) == expect

    @pytest.mark.parametrize("data,model", [(0, 8000), (8000, 0), (-8000, 8000)])
    def test_non_positive_rate_rejected(self, data, model):
        with pytest.raises(ValueError, match="rates must be positive"):
            scaled_mask_width(64, data, model)

    def test_frequency_width_never_scales(self):
        """A quarter-rate time budget still draws frequency masks up to the
        full frequency width."""
        cfg = AugmentConfig()
        budget = scaled_mask_width(cfg.base_time_mask_width, 8000, 32000)
        widths = {axis: set() for axis in ("time", "freq")}
        for seed in range(100):
            for m in draw_masks(501, 64, cfg, budget, np.random.default_rng(seed)):
                widths[m.axis].add(m.width)
        assert max(widths["time"]) == budget == 16
        assert max(widths["freq"]) == cfg.freq_mask_width == 8


class TestMaskGeometry:
    def test_mask_counts_and_axes(self):
        cfg = AugmentConfig()
        masks = draw_masks(501, 64, cfg, 64, np.random.default_rng(0))
        assert sum(1 for m in masks if m.axis == "time") == cfg.n_time_masks
        assert sum(1 for m in masks if m.axis == "freq") == cfg.n_freq_masks

    def test_rectangles_stay_in_bounds_across_seeds(self):
        cfg = AugmentConfig()
        budget = scaled_mask_width(cfg.base_time_mask_width, 32000, 32000)
        for seed in range(100):
            masks = draw_masks(501, 64, cfg, budget, np.random.default_rng(seed))
            for m in masks:
                dim = 501 if m.axis == "time" else 64
                cap = budget if m.axis == "time" else cfg.freq_mask_width
                assert 0 <= m.width <= min(cap, dim)
                assert 0 <= m.start <= dim - m.width

    def test_width_clipped_when_budget_exceeds_axis(self):
        cfg = AugmentConfig()
        budget = scaled_mask_width(cfg.base_time_mask_width, 32000, 2000)
        assert budget == 1024
        for seed in range(50):
            masks = draw_masks(10, 64, cfg, budget, np.random.default_rng(seed))
            for m in masks:
                if m.axis == "time":
                    assert m.width <= 10

    def test_apply_zeroes_exact_rectangle(self):
        x = np.ones((6, 5))
        out = apply_masks(x, [Mask("time", 2, 3), Mask("freq", 4, 1)])
        assert (x == 1).all()  # input untouched
        np.testing.assert_array_equal(out[2:5, :], 0.0)
        np.testing.assert_array_equal(out[:2, 4], 0.0)
        np.testing.assert_array_equal(out[:2, :4], 1.0)
        np.testing.assert_array_equal(out[5:, :4], 1.0)

    def test_same_seed_same_masks(self):
        cfg = AugmentConfig()
        a = draw_masks(501, 64, cfg, 64, np.random.default_rng(9))
        b = draw_masks(501, 64, cfg, 64, np.random.default_rng(9))
        assert a == b

    def test_spec_augment_preserves_container_type(self):
        cfg = AugmentConfig()
        arr = np.ones((40, 16))
        out = spec_augment(arr, cfg, 64, np.random.default_rng(0))
        assert isinstance(out, np.ndarray) and out.shape == arr.shape

    def test_zero_masks_config_is_identity(self):
        cfg = AugmentConfig(n_time_masks=0, n_freq_masks=0)
        x = np.random.default_rng(0).normal(size=(20, 8))
        np.testing.assert_array_equal(
            spec_augment(x, cfg, 64, np.random.default_rng(1)), x)


def johnk_beta(rng: np.random.Generator, alpha: float, n: int) -> np.ndarray:
    """Rejection sampler for Beta(alpha, alpha); independent of rng.beta."""
    out = []
    have = 0
    while have < n:
        m = max(1024, 2 * (n - have))
        u = rng.random(m) ** (1.0 / alpha)
        v = rng.random(m) ** (1.0 / alpha)
        s = u + v
        ok = s <= 1.0
        keep = np.where(ok & (s > 0), u / np.where(s > 0, s, 1.0), 0.0)[ok]
        out.append(keep)
        have += keep.size
    return np.concatenate(out)[:n]


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    grid = np.concatenate([a, b])
    fa = np.searchsorted(np.sort(a), grid, side="right") / a.size
    fb = np.searchsorted(np.sort(b), grid, side="right") / b.size
    return float(np.abs(fa - fb).max())


class TestMixup:
    def test_lambda_distribution_matches_rejection_oracle(self):
        n = 20000
        rng = np.random.default_rng(3)
        lam = np.array([sample_lambda(1.0, rng) for _ in range(n)])
        oracle = johnk_beta(np.random.default_rng(17), 1.0, n)
        assert ks_statistic(lam, oracle) < 0.03

    def test_pairs_use_permutation_partners(self):
        rng = np.random.default_rng(5)
        lam, partners = make_mix_pairs(64, 1.0, rng)
        assert lam.shape == partners.shape == (64,)
        assert sorted(partners) == list(range(64))
        assert all(0.0 <= v <= 1.0 for v in lam)

    @pytest.mark.parametrize("n,alpha", [(1, 1.0), (7, 0.4), (64, 2.0)])
    def test_draws_the_permutation_then_one_lambda_per_element(self, n, alpha):
        lam, partners = make_mix_pairs(n, alpha, np.random.default_rng(11))
        reference = np.random.default_rng(11)
        want_partners = reference.permutation(n)
        want_lam = [reference.beta(alpha, alpha) for _ in range(n)]
        assert partners.tolist() == want_partners.tolist()
        assert lam.tolist() == want_lam

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_mix_equals_the_two_gather_formula_bitwise(self, dtype):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(9, 5, 3)).astype(dtype)
        y = np.eye(3, dtype=dtype)[rng.integers(0, 3, 9)]
        lam, partners = make_mix_pairs(9, 1.0, rng)
        mx, my = mixup(x, y, (lam, partners))
        a, b, lam = np.arange(9), partners, lam.astype(dtype)
        lam_x = lam[:, None, None]
        want_x = lam_x * x[a] + (1.0 - lam_x) * x[b]
        want_y = lam[:, None] * y[a] + (1.0 - lam[:, None]) * y[b]
        assert (mx.dtype, mx.tobytes()) == (want_x.dtype, want_x.tobytes())
        assert (my.dtype, my.tobytes()) == (want_y.dtype, want_y.tobytes())

    @given(st.integers(min_value=1, max_value=12),
           st.integers(min_value=2, max_value=5),
           st.integers(min_value=0, max_value=1000))
    @settings(max_examples=40, deadline=None)
    def test_targets_stay_on_simplex(self, batch, n_classes, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(batch, 4, 3))
        y = rng.random((batch, n_classes))
        y /= y.sum(axis=1, keepdims=True)
        pairs = make_mix_pairs(batch, 1.0, rng)
        _, my = mixup(x, y, pairs)
        np.testing.assert_allclose(my.sum(axis=1), 1.0, atol=1e-9)
        assert (my >= -1e-12).all()

    def test_mix_is_convex_combination(self):
        x = np.stack([np.zeros((2, 2)), np.ones((2, 2))])
        y = np.array([[1.0, 0.0], [0.0, 1.0]])
        pairs = (np.array([0.25, 0.5]), np.array([1, 0]))
        mx, my = mixup(x, y, pairs)
        np.testing.assert_allclose(mx[0], 0.75)
        np.testing.assert_allclose(my[0], [0.25, 0.75])
        np.testing.assert_allclose(mx[1], 0.5)
        np.testing.assert_allclose(my[1], [0.5, 0.5])

    def test_integer_inputs_promoted(self):
        x = np.array([[[0, 0]], [[2, 2]]])
        y = np.array([[1.0, 0.0], [0.0, 1.0]])
        mx, _ = mixup(x, y, (np.array([0.5, 0.5]), np.array([1, 0])))
        np.testing.assert_allclose(mx[0], 1.0)

    def test_target_rows_must_sum_to_one(self):
        x = np.ones((2, 2, 2))
        y = np.array([[0.9, 0.0], [0.5, 0.5]])
        with pytest.raises(ValueError):
            mixup(x, y, (np.array([0.5, 0.5]), np.array([1, 0])))

    def test_partner_index_out_of_range(self):
        x = np.ones((2, 2, 2))
        y = np.eye(2)
        with pytest.raises(SonarprepError, match="partner indices fall outside the batch"):
            mixup(x, y, (np.array([0.5, 0.5]), np.array([5, 0])))
        with pytest.raises(SonarprepError, match="partner indices fall outside the batch"):
            mixup(x, y, (np.array([0.5, 0.5]), np.array([-1, 0])))

    @pytest.mark.parametrize("lam,partners", [
        ([0.5], [1, 0]), ([0.5, 0.5, 0.5], [1, 0]), ([0.5, 0.5], [1]), (0.5, [1, 0])],
        ids=["few-lambdas", "many-lambdas", "few-partners", "scalar-lambda"])
    def test_one_lambda_and_one_partner_per_element(self, lam, partners):
        x = np.ones((2, 2, 2))
        y = np.eye(2)
        with pytest.raises(SonarprepError, match=r"2 inputs but \d lambdas and \d partners"):
            mixup(x, y, (np.array(lam), np.array(partners)))


class TestConfigValidation:
    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            AugmentConfig(base_time_mask_width=-1)

    def test_bad_alpha_rejected(self):
        with pytest.raises(ValueError):
            AugmentConfig(mixup_alpha=0.0)

    @pytest.mark.parametrize("counts", [{"n_time_masks": -1}, {"n_freq_masks": 1025},
                                        {"n_time_masks": 2**63}])
    def test_mask_counts_outside_0_to_1024_rejected(self, counts):
        """Every mask is drawn on its own, so a count of 2**63 would never finish."""
        with pytest.raises(ValueError, match=r"n_time_masks and n_freq_masks must be 0\.\.1024"):
            AugmentConfig(**counts)
        AugmentConfig(**{key: 1024 for key in counts})

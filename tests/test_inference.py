import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from bidegree.inference import (
    AsymptoticCov,
    ci_for_contrast,
    contrast_stat,
    normal_quantile,
    plug_in_variances,
)
from bidegree.fisher import fisher_info
from bidegree.model import ParamVector, WeightFamily
from bidegree.sampler import SimDesign, design_params

BINARY = WeightFamily.binary()
EXPONENTIAL = WeightFamily.exponential()
GEOMETRIC = WeightFamily.geometric()


def flat_cov(n, value, level=0.95):
    return AsymptoticCov(np.full(2 * n, float(value)), level)


class TestPlugInVariances:
    def test_binary_flat_quarter_rule(self):
        theta = ParamVector(np.zeros(101), np.zeros(101))
        cov = plug_in_variances(theta, BINARY)
        assert np.allclose(cov.v_hat_diag[:101], 25.0, atol=1e-12)

    def test_exponential_unit_pair_sums(self):
        theta = ParamVector(np.ones(5), np.zeros(5), negated=True)
        cov = plug_in_variances(theta, EXPONENTIAL)
        assert np.allclose(cov.v_hat_diag, 4.0, atol=1e-12)

    def test_matches_fisher_recomputation(self):
        theta = design_params(SimDesign(GEOMETRIC, 12, 0.9))
        cov = plug_in_variances(theta, GEOMETRIC)
        fisher = fisher_info(theta, GEOMETRIC)
        assert np.allclose(cov.v_hat_diag[:12], fisher.row_sums, atol=1e-14)
        assert np.allclose(cov.v_hat_diag[12:], fisher.col_sums, atol=1e-14)

    @pytest.mark.parametrize(
        "family",
        [BINARY, EXPONENTIAL, GEOMETRIC, WeightFamily.finite(4)],
        ids=lambda f: f.label,
    )
    def test_equals_fisher_margins_bit_for_bit(self, family):
        # n=300 takes several row blocks for every family
        theta = design_params(SimDesign(family, 300, 1.5))
        cov = plug_in_variances(theta, family)
        fisher = fisher_info(theta, family)
        assert np.array_equal(cov.v_hat_diag, np.concatenate([fisher.row_sums, fisher.col_sums]))

    @pytest.mark.parametrize(
        "family",
        [BINARY, EXPONENTIAL, GEOMETRIC, WeightFamily.finite(4)],
        ids=lambda f: f.label,
    )
    def test_allocates_no_pair_matrix(self, family):
        # The pass keeps its means and variances in one row block each; the
        # Fisher build it replaced kept two n x n arrays.
        n = 1000
        theta = design_params(SimDesign(family, n, 1.5))
        plug_in_variances(theta, family)
        tracemalloc.start()
        try:
            plug_in_variances(theta, family)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.2 * n * n * 8

    def test_level_validated(self):
        theta = ParamVector(np.zeros(4), np.zeros(4))
        with pytest.raises(ValueError):
            plug_in_variances(theta, BINARY, level=1.0)


class TestContrastStat:
    def test_zero_at_truth(self):
        theta = design_params(SimDesign(BINARY, 8, 1.0))
        cov = flat_cov(8, 10.0)
        for kind in ("alpha_diff", "pair_sum", "beta_diff"):
            assert contrast_stat(kind, 0, 3, theta, theta, cov) == 0.0

    def test_hand_value(self):
        # estimate difference 0.3, truth 0.1, both variances 50 -> exactly 1
        hat = ParamVector([0.3, 0.0, 0.0], [0.0, 0.0, 0.0])
        star = ParamVector([0.1, 0.0, 0.0], [0.0, 0.0, 0.0])
        value = contrast_stat("alpha_diff", 0, 1, hat, star, flat_cov(3, 50.0))
        assert value == pytest.approx(1.0, rel=1e-12)

    def test_antisymmetry(self):
        rng = np.random.default_rng(2)
        hat = ParamVector(rng.normal(size=6), np.append(rng.normal(size=5), 0.0))
        star = ParamVector(rng.normal(size=6), np.append(rng.normal(size=5), 0.0))
        cov = AsymptoticCov(rng.uniform(5, 9, 12), 0.95)
        for kind in ("alpha_diff", "beta_diff"):
            forward = contrast_stat(kind, 1, 3, hat, star, cov)
            backward = contrast_stat(kind, 3, 1, hat, star, cov)
            assert forward == -backward

    def test_pair_sum_shift_invariant(self):
        # shifting (alpha - c, beta + c) on both vectors leaves the statistic
        # unchanged because pair sums and plug-in variances are untouched
        theta_hat = design_params(SimDesign(GEOMETRIC, 9, 0.6))
        theta_star = design_params(SimDesign(GEOMETRIC, 9, 0.5))
        c = 0.173
        shifted_hat = ParamVector(theta_hat.alpha - c, theta_hat.beta + c, negated=True)
        shifted_star = ParamVector(theta_star.alpha - c, theta_star.beta + c, negated=True)
        base_cov = plug_in_variances(theta_hat, GEOMETRIC)
        shift_cov = plug_in_variances(shifted_hat, GEOMETRIC)
        original = contrast_stat("pair_sum", 2, 4, theta_hat, theta_star, base_cov)
        shifted = contrast_stat("pair_sum", 2, 4, shifted_hat, shifted_star, shift_cov)
        assert shifted == pytest.approx(original, abs=1e-12)

    def test_index_validation(self):
        theta = design_params(SimDesign(BINARY, 5, 0.0))
        cov = flat_cov(5, 4.0)
        with pytest.raises(IndexError):
            contrast_stat("beta_diff", 0, 4, theta, theta, cov)  # vertex n pinned
        with pytest.raises(IndexError):
            contrast_stat("pair_sum", 0, 4, theta, theta, cov)
        with pytest.raises(ValueError):
            contrast_stat("gamma", 0, 1, theta, theta, cov)


class TestCiForContrast:
    def test_quantile_arithmetic(self):
        hat = ParamVector(np.zeros(4), np.zeros(4))
        lo, hi = ci_for_contrast(0, 1, hat, flat_cov(4, 25.0), level=0.95)
        assert hi - lo == pytest.approx(2 * 1.959963984540054 * math.sqrt(0.08), rel=1e-9)
        assert hi - lo == pytest.approx(1.108723, abs=1e-5)

    def test_length_vanishes_for_huge_information(self):
        hat = ParamVector(np.zeros(4), np.zeros(4))
        lo, hi = ci_for_contrast(0, 1, hat, flat_cov(4, 1e18), level=0.95)
        assert hi - lo < 1e-8

    def test_centered_on_estimate(self):
        hat = ParamVector([2.0, 0.5, 0.0], [0.0, 0.0, 0.0])
        lo, hi = ci_for_contrast(0, 1, hat, flat_cov(3, 30.0))
        assert (lo + hi) / 2 == pytest.approx(1.5, rel=1e-12)

    def test_level_defaults_to_cov(self):
        hat = ParamVector(np.zeros(3), np.zeros(3))
        cov = flat_cov(3, 30.0, level=0.9)
        assert ci_for_contrast(0, 1, hat, cov) == ci_for_contrast(0, 1, hat, cov, 0.9)


class TestNormalQuantile:
    def test_against_scipy(self):
        grid = np.concatenate(
            [
                np.array([1e-12, 1e-9, 1e-4, 0.01, 0.02425]),
                np.linspace(0.03, 0.97, 95),
                np.array([0.975, 0.99, 0.9999, 1 - 1e-9]),
            ]
        )
        for p in grid:
            assert normal_quantile(float(p)) == pytest.approx(
                scipy.stats.norm.ppf(p), abs=1e-9, rel=1e-9
            )

    def test_machine_precision_in_both_tails(self):
        grid = np.concatenate(
            [
                np.geomspace(1e-12, 0.5, 2001),
                np.linspace(1e-12, 1 - 1e-12, 100001),
                1.0 - np.geomspace(1e-12, 0.5, 2001),
            ]
        )
        expected = scipy.stats.norm.ppf(grid)
        got = np.array([normal_quantile(float(p)) for p in grid])
        assert np.all(np.abs(got - expected) <= 4e-15 * np.maximum(1.0, np.abs(expected)))

    def test_symmetry(self):
        for p in (0.01, 0.2, 0.45):
            assert normal_quantile(p) == pytest.approx(-normal_quantile(1 - p), abs=1e-12)

    def test_domain(self):
        for p in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                normal_quantile(p)

import math

import numpy as np
import pytest

from bidegree.model import ParamVector, WeightFamily, bi_degrees, edge_mean, expected_degrees
from bidegree.sampler import (
    SimDesign,
    derive_seed,
    design_params,
    ramp_magnitude,
    sample_graph,
)

BINARY = WeightFamily.binary()
EXPONENTIAL = WeightFamily.exponential()
GEOMETRIC = WeightFamily.geometric()


def offdiag(matrix):
    return matrix[~np.eye(matrix.shape[0], dtype=bool)]


class TestSeeds:
    def test_derive_seed_deterministic(self):
        assert derive_seed(42, 7) == derive_seed(42, 7)
        assert derive_seed(42, 7) != derive_seed(42, 8)
        assert derive_seed(42, 7) != derive_seed(43, 7)

    def test_derived_seeds_distinct(self):
        seeds = {derive_seed(0, r) for r in range(10_000)}
        assert len(seeds) == 10_000

    def test_splitmix_reference_vectors(self):
        # known-answer values of the reference splitmix64 stream
        from bidegree.sampler import _splitmix64

        assert _splitmix64(0) == 0xE220A8397B1DCDAF
        assert _splitmix64(1) == 0x910A2DEC89025CC1

    def test_seed_derivation_frozen(self):
        # golden values: the seeding scheme is part of the output contract
        assert derive_seed(0, 0) == 12035550249420947055
        assert derive_seed(42, 7) == 7974615062405353404


class TestRamp:
    def test_rule_values(self):
        n = 100
        assert ramp_magnitude("zero", n) == 0.0
        assert ramp_magnitude("loglog", n) == pytest.approx(math.log(math.log(n)))
        assert ramp_magnitude("sqrtlog", n) == pytest.approx(math.sqrt(math.log(n)))
        assert ramp_magnitude("log", n) == pytest.approx(math.log(n))
        assert ramp_magnitude("sqrtn", n) == pytest.approx(10.0)
        with pytest.raises(ValueError):
            ramp_magnitude("linear", n)


class TestDesignParams:
    def test_binary_flat(self):
        theta = design_params(SimDesign(BINARY, 100, 0.0))
        assert np.all(theta.alpha == 0.0) and np.all(theta.beta == 0.0)
        assert not theta.negated

    def test_binary_ramp_endpoints(self):
        theta = design_params(SimDesign(BINARY, 5, 4.0))
        assert np.allclose(theta.alpha, [4.0, 3.0, 2.0, 1.0, 0.0])
        assert np.allclose(theta.beta, [4.0, 3.0, 2.0, 1.0, 0.0])

    def test_geometric_offset(self):
        theta = design_params(SimDesign(GEOMETRIC, 5, 0.0))
        assert np.allclose(theta.alpha, 0.2)
        assert np.allclose(theta.beta, [0.2, 0.2, 0.2, 0.2, 0.0])
        assert theta.negated

    def test_exponential_offset(self):
        theta = design_params(SimDesign(EXPONENTIAL, 4, 0.0))
        assert np.allclose(theta.alpha, 1.0)
        assert theta.beta[-1] == 0.0


class TestSampleGraph:
    def test_deterministic_per_seed(self):
        theta = design_params(SimDesign(BINARY, 20, 1.0))
        a = sample_graph(theta, BINARY, 123)
        b = sample_graph(theta, BINARY, 123)
        c = sample_graph(theta, BINARY, 124)
        assert np.array_equal(a.weights, b.weights)
        assert not np.array_equal(a.weights, c.weights)

    def test_zero_diagonal_all_families(self):
        for fam in (BINARY, EXPONENTIAL, GEOMETRIC, WeightFamily.finite(3)):
            theta = design_params(SimDesign(fam, 12, 0.5))
            graph = sample_graph(theta, fam, 5)
            assert np.all(np.diagonal(graph.weights) == 0.0)

    def test_binary_density(self):
        theta = ParamVector(np.zeros(100), np.zeros(100))
        total = edges = 0
        for rep in range(100):
            g = sample_graph(theta, BINARY, derive_seed(1, rep))
            total += offdiag(g.weights).sum()
            edges += 100 * 99
        density = total / edges
        assert abs(density - 0.5) < 4 * 0.5 / math.sqrt(edges)

    def test_exponential_pooled_mean(self):
        theta = ParamVector(np.ones(50), np.ones(50), negated=True)  # all rates 2
        values = np.concatenate(
            [offdiag(sample_graph(theta, EXPONENTIAL, derive_seed(2, r)).weights) for r in range(5)]
        )
        assert abs(values.mean() - 0.5) < 4 * 0.5 / math.sqrt(values.size)
        assert np.all(values >= 0.0)

    def test_geometric_pooled_mean(self):
        s = 0.7
        theta = ParamVector(np.full(50, s / 2), np.full(50, s / 2), negated=True)
        values = np.concatenate(
            [offdiag(sample_graph(theta, GEOMETRIC, derive_seed(3, r)).weights) for r in range(5)]
        )
        mean = edge_mean(GEOMETRIC, s)
        sd = math.sqrt(math.exp(s)) / abs(math.expm1(s))
        assert values.min() >= 0.0 and np.all(values == np.floor(values))
        assert abs(values.mean() - mean) < 4 * sd / math.sqrt(values.size)

    def test_finite_empirical_pmf(self):
        q, s = 4, 0.6
        fam = WeightFamily.finite(q)
        theta = ParamVector(np.full(60, s / 2), np.full(60, s / 2), negated=True)
        values = np.concatenate(
            [offdiag(sample_graph(theta, fam, derive_seed(4, r)).weights) for r in range(4)]
        )
        weights = np.exp(-s * np.arange(q))
        pmf = weights / weights.sum()
        for a in range(q):
            frequency = np.mean(values == a)
            tol = 4 * math.sqrt(pmf[a] * (1 - pmf[a]) / values.size)
            assert abs(frequency - pmf[a]) < tol
        assert set(np.unique(values)) <= set(range(q))

    def test_empirical_degree_means(self):
        # z-scores of mean degrees over replications stay within +-4
        n, reps = 30, 2000
        theta = design_params(SimDesign(BINARY, n, 0.5))
        expected = expected_degrees(theta, BINARY)
        sums_d = np.zeros(n)
        sums_b = np.zeros(n)
        for rep in range(reps):
            g = bi_degrees(sample_graph(theta, BINARY, derive_seed(6, rep)))
            sums_d += g.d
            sums_b += g.b
        sums = theta.pair_sums()
        np.fill_diagonal(sums, 0.0)
        p = 1.0 / (1.0 + np.exp(-sums))
        np.fill_diagonal(p, 0.0)
        var_d = (p * (1 - p)).sum(axis=1)
        z_d = (sums_d / reps - expected.d) / np.sqrt(var_d / reps)
        z_b = (sums_b / reps - expected.b) / np.sqrt((p * (1 - p)).sum(axis=0) / reps)
        assert np.abs(z_d).max() < 4.0
        assert np.abs(z_b).max() < 4.0

    def test_streams_uncorrelated(self):
        theta = ParamVector(np.zeros(60), np.zeros(60))
        x = offdiag(sample_graph(theta, BINARY, derive_seed(9, 0)).weights) - 0.5
        y = offdiag(sample_graph(theta, BINARY, derive_seed(9, 1)).weights) - 0.5
        corr = (x * y).mean() / 0.25
        assert abs(corr) < 4.0 / math.sqrt(x.size)

    def test_finite_two_samples_like_binary(self):
        # q=2 under the sign flip draws the same Bernoulli law as binary
        s = 0.8
        n = 60
        finite_theta = ParamVector(np.full(n, s / 2), np.full(n, s / 2), negated=True)
        binary_theta = ParamVector(np.full(n, -s / 2), np.full(n, -s / 2))
        fw = np.concatenate(
            [offdiag(sample_graph(finite_theta, WeightFamily.finite(2), derive_seed(12, r)).weights)
             for r in range(4)]
        )
        bw = np.concatenate(
            [offdiag(sample_graph(binary_theta, BINARY, derive_seed(13, r)).weights)
             for r in range(4)]
        )
        assert set(np.unique(fw)) <= {0.0, 1.0}
        p = 1.0 / (1.0 + math.exp(s))
        tol = 4 * math.sqrt(p * (1 - p) / fw.size)
        assert abs(fw.mean() - p) < tol
        assert abs(fw.mean() - bw.mean()) < 2 * tol


def tensor_finite_draws(q, s, u):
    """Reference inverse CDF: the cumulative pmf from an n x n x q tensor of
    weights, compared with the uniforms ``u``."""
    logits = -s[..., None] * np.arange(q, dtype=float)
    logits -= logits.max(axis=-1, keepdims=True)
    cdf = np.cumsum(np.exp(logits), axis=-1)
    cdf /= cdf[..., -1:]
    return np.minimum((cdf < u[..., None]).sum(axis=-1), q - 1).astype(float)


class TestFiniteInverseCdf:
    @pytest.mark.parametrize("q", [2, 3, 4, 7])
    def test_matches_tensor_inverse_cdf(self, q):
        # both signs of the pair sum, so the mirrored pmf is drawn as well
        from bidegree.sampler import _rng

        fam = WeightFamily.finite(q)
        rng = np.random.default_rng(q)
        n = 80
        alpha = rng.uniform(-4.0, 4.0, n)
        beta = np.append(rng.uniform(-4.0, 4.0, n - 1), 0.0)
        theta = ParamVector(alpha, beta, negated=True)
        weights = sample_graph(theta, fam, 99).weights
        s = theta.pair_sums()
        np.fill_diagonal(s, 1.0)
        expected = tensor_finite_draws(q, s, _rng(99).random((n, n)))
        np.fill_diagonal(expected, 0.0)
        assert np.array_equal(weights, expected)
        assert (s < 0).sum() > 1000 and (s > 0).sum() > 1000


class TestGoldenSamples:
    """Frozen draws pin the generator choice (Philox keyed by the derived
    seed); any change to the sampling path shows up here first."""

    def test_binary_golden(self):
        theta = design_params(SimDesign(BINARY, 4, 1.0))
        w = sample_graph(theta, BINARY, 2024).weights
        assert w.ravel().tolist() == [
            0, 1, 0, 0, 1, 0, 1, 1, 1, 1, 0, 0, 1, 1, 1, 0]

    def test_exponential_golden(self):
        theta = design_params(SimDesign(EXPONENTIAL, 4, 1.0))
        w = sample_graph(theta, EXPONENTIAL, 2024).weights
        assert w[0, 1] == pytest.approx(0.2891766096813293, abs=0.0)
        assert w[2, 3] == pytest.approx(1.0807023630494517, abs=0.0)

    def test_geometric_golden(self):
        theta = design_params(SimDesign(GEOMETRIC, 4, 1.0))
        w = sample_graph(theta, GEOMETRIC, 2024).weights
        assert w.ravel().tolist() == [
            0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0]

    def test_finite_golden(self):
        fam = WeightFamily.finite(3)
        theta = design_params(SimDesign(fam, 4, 1.0))
        w = sample_graph(theta, fam, 2024).weights
        assert w.ravel().tolist() == [
            0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0]


class TestDesignDomain:
    @pytest.mark.parametrize("rule", ["zero", "loglog", "sqrtlog", "log"])
    def test_rate_designs_stay_in_domain(self, rule):
        from bidegree.sampler import ramp_magnitude
        from bidegree.model import validate_params

        for fam, offset in ((EXPONENTIAL, 1.0), (GEOMETRIC, 0.2)):
            n = 50
            ramp = ramp_magnitude(rule, n)
            theta = design_params(SimDesign(fam, n, ramp))
            validate_params(theta, fam)
            sums = theta.pair_sums()
            np.fill_diagonal(sums, np.inf)
            # smallest off-diagonal sum pairs the second-flattest out-effect
            # with the pinned in-effect of vertex n
            assert sums.min() == pytest.approx(offset + ramp / (n - 1), rel=1e-12)
            assert sums.min() >= offset > 0.0

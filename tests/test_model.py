import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bidegree.model

from bidegree.fisher import fisher_info

from bidegree.model import (
    BiDegree,
    Graph,
    InvalidParameterError,
    ParamVector,
    WeightFamily,
    bi_degrees,
    edge_mean,
    edge_variance,
    expected_degrees,
    log_likelihood,
    moment_residual,
    validate_params,
)
from bidegree.model import _edge_means, _maths, _min_pair_sum, _pair_moments, _Workspace

BINARY = WeightFamily.binary()
EXPONENTIAL = WeightFamily.exponential()
GEOMETRIC = WeightFamily.geometric()

ALL_FAMILIES = [BINARY, EXPONENTIAL, GEOMETRIC, WeightFamily.finite(4)]


def finite_pmf(q, s):
    """Independent oracle: normalized exponential weights on {0, ..., q-1}."""
    weights = [math.exp(-s * a) for a in range(q)]
    total = sum(weights)
    return [w / total for w in weights]


def random_params(family, n, rng):
    if family.positive_pair_sums:
        alpha = rng.uniform(0.6, 1.4, n)
        beta = np.append(rng.uniform(0.6, 1.4, n - 1), 0.0)
    else:
        alpha = rng.uniform(-0.8, 0.8, n)
        beta = np.append(rng.uniform(-0.8, 0.8, n - 1), 0.0)
    return ParamVector(alpha, beta, negated=family.negated)


# ---------------------------------------------------------------------------
# families


class TestWeightFamily:
    def test_parse_round_trip(self):
        for label in ("binary", "exponential", "geometric", "finite:5"):
            assert WeightFamily.parse(label).label == label

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            WeightFamily.parse("poisson")
        with pytest.raises(ValueError):
            WeightFamily.parse("finite:x")

    def test_finite_needs_q_at_least_two(self):
        with pytest.raises(ValueError):
            WeightFamily.finite(1)
        with pytest.raises(ValueError):
            WeightFamily("binary", support_size=3)

    def test_orientation_flags(self):
        assert not BINARY.negated
        assert EXPONENTIAL.negated and GEOMETRIC.negated
        assert EXPONENTIAL.positive_pair_sums and GEOMETRIC.positive_pair_sums
        assert not WeightFamily.finite(3).positive_pair_sums


class TestEdgeMean:
    def test_binary_symmetric_point(self):
        assert edge_mean(BINARY, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_exponential_reciprocal_rate(self):
        assert edge_mean(EXPONENTIAL, 2.0) == pytest.approx(0.5, abs=1e-15)

    def test_geometric_unit_mean(self):
        assert edge_mean(GEOMETRIC, math.log(2.0)) == pytest.approx(1.0, abs=1e-12)

    def test_finite_two_matches_binary_flipped(self):
        # oracle: enumerate the 2-point pmf directly
        s = 1.0
        pmf = finite_pmf(2, s)
        assert edge_mean(WeightFamily.finite(2), s) == pytest.approx(pmf[1], abs=1e-15)
        assert edge_mean(WeightFamily.finite(2), s) == pytest.approx(
            edge_mean(BINARY, -s), abs=1e-14
        )

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_finite_matches_pmf_oracle(self, q):
        fam = WeightFamily.finite(q)
        for s in (-2.0, -0.3, 0.0, 0.4, 3.0):
            pmf = finite_pmf(q, s)
            mean = sum(a * p for a, p in enumerate(pmf))
            var = sum(a * a * p for a, p in enumerate(pmf)) - mean**2
            assert edge_mean(fam, s) == pytest.approx(mean, abs=1e-13)
            assert edge_variance(fam, s) == pytest.approx(var, abs=1e-13)

    def test_finite_uniform_at_zero(self):
        assert edge_mean(WeightFamily.finite(5), 0.0) == pytest.approx(2.0, abs=1e-13)

    def test_rate_domain_violation(self):
        for fam in (EXPONENTIAL, GEOMETRIC):
            with pytest.raises(InvalidParameterError):
                edge_mean(fam, -0.5)
            with pytest.raises(InvalidParameterError):
                edge_mean(fam, 0.0)

    def test_vectorized(self):
        out = edge_mean(BINARY, np.array([0.0, 1.0]))
        assert out.shape == (2,)


class TestEdgeVariance:
    def test_binary_bernoulli_half(self):
        assert edge_variance(BINARY, 0.0) == pytest.approx(0.25, abs=1e-15)

    def test_exponential_inverse_square(self):
        assert edge_variance(EXPONENTIAL, 2.0) == pytest.approx(0.25, abs=1e-15)

    def test_geometric_series_oracle(self):
        # oracle: sum k^2 p_k - mean^2 over a long truncation of the support
        s = 1.0
        p_success = 1.0 - math.exp(-s)
        mean = sum(k * math.exp(-s * k) * p_success for k in range(400))
        second = sum(k * k * math.exp(-s * k) * p_success for k in range(400))
        assert edge_variance(GEOMETRIC, s) == pytest.approx(second - mean**2, rel=1e-13)
        assert edge_variance(GEOMETRIC, s) == pytest.approx(
            math.e / (math.e - 1.0) ** 2, rel=1e-12
        )

    def test_variance_is_mean_slope(self):
        # d(mean)/ds is +variance for binary, -variance for the negated families
        h = 1e-6
        for fam in ALL_FAMILIES:
            s = 1.3
            slope = (edge_mean(fam, s + h) - edge_mean(fam, s - h)) / (2 * h)
            sign = -1.0 if fam.negated else 1.0
            assert slope == pytest.approx(sign * edge_variance(fam, s), rel=1e-6)


def mp_moments(family, s):
    """Mean and variance at pair sum ``s`` in 50-digit arithmetic, from the
    pmf or the closed forms; independent of the float kernel."""
    with mpmath.workdps(50):
        s = mpmath.mpf(s)
        if family.kind == "binary":
            p = 1 / (1 + mpmath.exp(-s))
            return p, p / (1 + mpmath.exp(s))  # p (1 - p) without cancelling 1 - p
        if family.kind == "exponential":
            return 1 / s, 1 / s**2
        if family.kind == "geometric":
            m = 1 / mpmath.expm1(s)
            return m, m * (1 + m)
        weights = [mpmath.exp(-s * k) for k in range(family.support_size)]
        z = mpmath.fsum(weights)
        mean = mpmath.fsum(k * w for k, w in enumerate(weights)) / z
        var = mpmath.fsum((k - mean) ** 2 * w for k, w in enumerate(weights)) / z
        return mean, var


def assert_matches_mp(family, s, mean, var, rel=1e-12, atol=0.0):
    for x, m, v in zip(np.ravel(s), np.ravel(mean), np.ravel(var)):
        ref_m, ref_v = mp_moments(family, x)
        assert abs(m - ref_m) <= rel * abs(ref_m) + atol, (family.label, x, "mean", m, ref_m)
        assert abs(v - ref_v) <= rel * abs(ref_v) + atol, (family.label, x, "variance", v, ref_v)


def pair_sum_lists(low, high):
    return st.lists(st.floats(low, high, allow_nan=False), min_size=1, max_size=20)


class TestEdgeKernel:
    """The one-pass kernel against 50-digit references, to 1e-12 relative."""

    @given(pair_sum_lists(-700.0, 700.0))
    @settings(max_examples=150, deadline=None)
    def test_binary(self, values):
        s = np.array(values)
        assert_matches_mp(BINARY, s, edge_mean(BINARY, s), edge_variance(BINARY, s))

    @given(st.sampled_from([2, 3, 4, 7]), pair_sum_lists(-40.0, 40.0))
    @settings(max_examples=200, deadline=None)
    def test_finite(self, q, values):
        fam = WeightFamily.finite(q)
        s = np.array(values)
        assert_matches_mp(fam, s, edge_mean(fam, s), edge_variance(fam, s))

    @given(pair_sum_lists(1e-8, 700.0))
    @settings(max_examples=150, deadline=None)
    def test_geometric(self, values):
        s = np.array(values)
        assert_matches_mp(GEOMETRIC, s, edge_mean(GEOMETRIC, s), edge_variance(GEOMETRIC, s))

    @given(pair_sum_lists(1e-8, 1e8))
    @settings(max_examples=100, deadline=None)
    def test_exponential(self, values):
        s = np.array(values)
        assert_matches_mp(EXPONENTIAL, s, edge_mean(EXPONENTIAL, s), edge_variance(EXPONENTIAL, s))

    @given(
        st.lists(st.floats(-400.0, 400.0, allow_nan=False), min_size=3, max_size=8),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_binary_whole_graph(self, alpha, seed):
        # |alpha| + |beta| up to 800 covers both the factorised exp(-alpha) *
        # exp(-beta) path and the per-edge fallback past 700
        n = len(alpha)
        beta = np.random.default_rng(seed).uniform(-400.0, 400.0, n)
        theta = ParamVector(alpha, beta)
        work = _Workspace(n, BINARY, means="whole")
        mean, var = work.means, _pair_moments(theta, BINARY, work).variance
        s = theta.pair_sums()
        inner = ~np.eye(n, dtype=bool) & (np.abs(s) <= 700.0)
        outer = ~np.eye(n, dtype=bool) & (np.abs(s) > 700.0)
        assert np.all(np.diagonal(mean) == 0.0) and np.all(np.diagonal(var) == 0.0)
        assert_matches_mp(BINARY, s[inner], mean[inner], var[inner])
        # past 700 the small results are subnormal: only an absolute check is meaningful
        assert_matches_mp(BINARY, s[outer], mean[outer], var[outer], atol=1e-300)
        assert np.array_equal(_edge_means(theta, BINARY), mean)

    @pytest.mark.parametrize(
        "family, low, high",
        [
            (BINARY, -30.0, 30.0),
            (EXPONENTIAL, 1e-8, 1e8),
            (GEOMETRIC, 1e-8, 700.0),
            (WeightFamily.finite(2), -30.0, 30.0),
            (WeightFamily.finite(4), -30.0, 30.0),
            (WeightFamily.finite(7), -30.0, 30.0),
        ],
        ids=lambda v: v.label if isinstance(v, WeightFamily) else "",
    )
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_inverse_mean_round_trip(self, family, low, high, data):
        # a mean rounded by a few ulps moves s by about that much over the
        # slope of the mean, |dm/ds| = variance
        s = np.array(data.draw(pair_sum_lists(low, high)))
        mean, var = edge_mean(family, s), edge_variance(family, s)
        back = _maths(family).inverse_mean(family, mean)
        tol = 8 * np.finfo(float).eps * (np.abs(mean) / var + np.abs(s))
        assert np.all(np.abs(back - s) <= tol), (family.label, s, back)

    def test_scalar_in_scalar_out(self):
        for fam in ALL_FAMILIES:
            assert isinstance(edge_mean(fam, 0.7), float)
            assert isinstance(edge_variance(fam, 0.7), float)

    def test_input_array_left_unchanged(self):
        s = np.array([-1.5, 0.5, 2.0])
        for fam in (BINARY, WeightFamily.finite(3)):
            edge_mean(fam, s)
            edge_variance(fam, s)
            assert s.tolist() == [-1.5, 0.5, 2.0]

    @pytest.mark.parametrize("family", [BINARY, WeightFamily.finite(2), WeightFamily.finite(4)],
                             ids=lambda f: f.label)
    def test_no_nan_at_theta_norm_800(self, family):
        n = 12
        rng = np.random.default_rng(4)
        alpha = rng.uniform(-800.0, 800.0, n)
        alpha[0], alpha[1] = 800.0, -800.0
        beta = np.append(rng.uniform(-800.0, 800.0, n - 1), 0.0)
        beta[0] = 800.0
        theta = ParamVector(alpha, beta, negated=family.negated)
        g = expected_degrees(ParamVector(np.zeros(n), np.zeros(n), family.negated), family)
        # exp(-|s|) may underflow to zero at |s| = 1600; nothing may turn into nan or inf
        with np.errstate(invalid="raise", divide="raise", over="raise"):
            fisher = fisher_info(theta, family)
            arrays = [
                fisher.cross,
                fisher.row_sums,
                moment_residual(theta, g, family),
                expected_degrees(theta, family).d,
                edge_mean(family, theta.pair_sums()),
                edge_variance(family, theta.pair_sums()),
            ]
        for values in arrays:
            assert np.all(np.isfinite(values))
        assert fisher.cross_min >= 0.0


def log_partition(family, s):
    """The family record's per-edge log-partition at one pair sum, in the stored frame."""
    return float(_maths(family).log_partition(family, np.array([s]))[0])


class TestLogPartition:
    def test_partition_slope_is_mean(self):
        # the slope in s is +edge_mean in the stored frame of every family, so
        # the gradient of log_likelihood is moment_residual
        h = 1e-6
        for fam in ALL_FAMILIES:
            s = 0.9
            slope = (log_partition(fam, s + h) - log_partition(fam, s - h)) / (2 * h)
            assert slope == pytest.approx(edge_mean(fam, s), rel=1e-6)

    def test_finite_two_matches_binary_partition(self):
        # natural-frame partitions agree after the sign flip of stored values
        fam = WeightFamily.finite(2)
        for s in (-3.0, -0.5, 0.7, 2.5):
            assert -log_partition(fam, s) == pytest.approx(log_partition(BINARY, -s), abs=1e-12)
            assert edge_mean(fam, s) == pytest.approx(edge_mean(BINARY, -s), abs=1e-12)
            assert edge_variance(fam, s) == pytest.approx(edge_variance(BINARY, -s), abs=1e-12)


# ---------------------------------------------------------------------------
# vectors, degrees


@st.composite
def effect_pairs(draw):
    """alpha and beta of one length n in 2..8, drawn from a few values so
    that minima tie, some of them at the same vertex on both sides."""
    n = draw(st.integers(2, 8))
    values = st.sampled_from([-1.5, -0.5, 0.0, 0.25, 0.5, 1.0, 2.0])
    alpha = draw(st.lists(values, min_size=n, max_size=n))
    beta = draw(st.lists(values, min_size=n, max_size=n))
    return np.array(alpha), np.array(beta)


class TestParamVector:
    def test_beta_last_not_required_for_evaluation(self):
        theta = ParamVector(np.ones(3), np.ones(3), negated=True)
        assert not theta.is_normalized
        validate_params(theta, EXPONENTIAL)  # shift-equivalent vectors are evaluable

    def test_free_round_trip(self):
        theta = ParamVector([1.0, 2.0, 3.0], [4.0, 5.0, 0.0])
        back = ParamVector.from_free(theta.free)
        assert np.array_equal(back.alpha, theta.alpha)
        assert np.array_equal(back.beta, theta.beta)

    @given(st.integers(2, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_from_free_preserves_pinned_entry(self, n, seed):
        free = np.random.default_rng(seed).normal(size=2 * n - 1)
        theta = ParamVector.from_free(free)
        assert theta.beta[-1] == 0.0
        assert np.array_equal(theta.free, free)

    @given(st.integers(2, 8), st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_with_step_matches_free_coordinates(self, n, seed, negated):
        # with_step adds to alpha and beta directly; the free-coordinate
        # form it replaced is the reference, bit for bit, including a start
        # whose beta[-1] is not 0.
        rng = np.random.default_rng(seed)
        theta = ParamVector(rng.normal(size=n), rng.normal(size=n), negated)
        step = rng.normal(size=2 * n - 1)
        moved = theta.with_step(step)
        reference = ParamVector.from_free(theta.free + step, negated)
        assert np.array_equal(moved.alpha, reference.alpha)
        assert np.array_equal(moved.beta, reference.beta)
        assert moved.negated == negated and moved.beta[-1] == 0.0

    def test_orientation_mismatch_rejected(self):
        theta = ParamVector(np.ones(3), np.append(np.ones(2), 0.0), negated=False)
        with pytest.raises(InvalidParameterError):
            validate_params(theta, EXPONENTIAL)

    def test_offending_pair_named_one_based(self):
        alpha = np.array([1.0, 1.0, -2.0])
        theta = ParamVector(alpha, np.append(np.ones(2), 0.0), negated=True)
        with pytest.raises(InvalidParameterError, match=r"\(3, 3\)|\(3, "):
            validate_params(theta, EXPONENTIAL)

    @given(effect_pairs())
    @example((np.array([0.5, 0.5]), np.array([-0.5, -0.5])))
    @example((np.array([-1.5, 0.0, 2.0]), np.array([-0.5, -0.5, 1.0])))
    @example((np.array([0.0, 0.0, 0.0]), np.array([0.0, 0.0, 0.0])))
    @settings(max_examples=300, deadline=None)
    def test_min_pair_sum_matches_full_matrix(self, effects):
        # The O(n) minimum against the n x n one: the same value, and a pair
        # off the diagonal that attains it.  Effects drawn from a few values
        # make ties, including ties between the diagonal and the minimum.
        alpha, beta = effects
        sums = np.add.outer(alpha, beta)
        np.fill_diagonal(sums, np.inf)
        smin, i, j = _min_pair_sum(alpha, beta)
        assert smin == sums.min()
        assert i != j and sums[i, j] == smin

    @given(effect_pairs())
    @example((np.array([-1.5, 0.0, 2.0]), np.array([1.0, -0.5, 1.0])))
    @settings(max_examples=300, deadline=None)
    def test_rejection_names_a_pair_at_the_minimum(self, effects):
        alpha, beta = effects
        theta = ParamVector(alpha, beta, negated=True)
        sums = theta.pair_sums()
        np.fill_diagonal(sums, np.inf)
        if sums.min() > 0.0:
            validate_params(theta, EXPONENTIAL)
            return
        with pytest.raises(InvalidParameterError) as info:
            validate_params(theta, EXPONENTIAL)
        i, j = (int(v) - 1 for v in re.search(r"\((\d+), (\d+)\)", str(info.value)).groups())
        assert i != j and sums[i, j] == sums.min()


class TestBiDegree:
    def test_sum_identity_enforced(self):
        with pytest.raises(ValueError):
            BiDegree([1.0, 2.0], [1.0, 1.0])

    def test_nonnegative(self):
        with pytest.raises(ValueError):
            BiDegree([-1.0, 1.0], [0.0, 0.0])

    def test_totals_of_large_weights_agree_to_rounding(self):
        # Real weights with mean 1e4 at n=1000: the row and column sums add
        # the same weights in two orders, and their totals differ by an ulp,
        # more than an absolute tolerance of 1e-9 n.
        w = np.random.default_rng(11).exponential(1e4, (1000, 1000))
        np.fill_diagonal(w, 0.0)
        d, b = w.sum(axis=1), w.sum(axis=0)
        assert 1e-9 * 1000 < abs(d.sum() - b.sum()) < 1e-15 * d.sum()
        g = bi_degrees(Graph(w))
        assert np.array_equal(g.d, d) and np.array_equal(g.b, b)

    @pytest.mark.parametrize(
        "d, b, message",
        [
            ([1e10, 1.0], [1e10, 2e3], "10000000001.0 vs 10000002000.0"),
            ([1.0, 2.0], [1.0, 1.0], "3.0 vs 2.0"),
        ],
    )
    def test_disagreeing_totals_rejected_as_plain_floats(self, d, b, message):
        with pytest.raises(ValueError, match=f"totals disagree: {re.escape(message)}$"):
            BiDegree(d, b)

    @pytest.mark.parametrize(
        "d, b",
        [
            ([math.nan, 1.0, 1.0], [1.0, 1.0, math.nan]),  # nan totals slip past the sum check
            ([math.inf, 1.0], [math.inf, 1.0]),
            ([1.0, 1.0], [2.0, math.nan]),
        ],
    )
    def test_non_finite_rejected(self, d, b):
        with pytest.raises(ValueError, match="degrees must be finite and nonnegative"):
            BiDegree(d, b)


class TestBiDegrees:
    def test_two_vertex_example(self):
        g = bi_degrees(Graph([[0.0, 1.0], [0.0, 0.0]]))
        assert np.array_equal(g.d, [1.0, 0.0])
        assert np.array_equal(g.b, [0.0, 1.0])

    def test_zero_matrix(self):
        g = bi_degrees(Graph(np.zeros((5, 5))))
        assert np.all(g.d == 0) and np.all(g.b == 0)

    def test_random_matrix_against_loop_oracle(self):
        rng = np.random.default_rng(3)
        w = (rng.random((4, 4)) < 0.5).astype(float)
        np.fill_diagonal(w, 0.0)
        g = bi_degrees(Graph(w))
        for i in range(4):
            assert g.d[i] == sum(w[i][j] for j in range(4))
            assert g.b[i] == sum(w[j][i] for j in range(4))

    def test_self_loops_rejected(self):
        with pytest.raises(ValueError):
            Graph(np.eye(3))


class TestExpectedDegrees:
    def test_binary_flat_params(self):
        theta = ParamVector(np.zeros(100), np.zeros(100))
        g = expected_degrees(theta, BINARY)
        assert np.allclose(g.d, 49.5, atol=1e-12)
        assert np.allclose(g.b, 49.5, atol=1e-12)

    def test_exponential_all_ones(self):
        theta = ParamVector(np.ones(10), np.ones(10), negated=True)
        g = expected_degrees(theta, EXPONENTIAL)
        assert np.allclose(g.d, 4.5, atol=1e-12)

    def test_geometric_ramp_against_brute_force(self):
        n, L = 10, math.log(math.log(10))
        idx = np.arange(n)
        alpha = 0.2 + (n - 1 - idx) * L / (n - 1)
        beta = alpha.copy()
        beta[-1] = 0.0
        theta = ParamVector(alpha, beta, negated=True)
        g = expected_degrees(theta, GEOMETRIC)
        for i in range(n):
            direct = sum(
                1.0 / (math.exp(alpha[i] + beta[k]) - 1.0) for k in range(n) if k != i
            )
            assert g.d[i] == pytest.approx(direct, rel=1e-12)

    def test_total_out_equals_total_in(self):
        rng = np.random.default_rng(11)
        for fam in ALL_FAMILIES:
            theta = random_params(fam, 30, rng)
            g = expected_degrees(theta, fam)
            assert abs(g.d.sum() - g.b.sum()) <= 1e-9 * 30**2


def whole_matrix_moments(theta, family):
    """Reference for the edge pass ``_pair_moments``: the pass as it was
    before it ran in cache-sized blocks.  The family kernel runs on whole
    n x n arrays, with the binary rank-one product where
    ``|alpha|_inf + |beta|_inf <= 700``, and the margins are mat-vecs with a
    ones vector."""
    n = theta.n
    s = theta.pair_sums()
    np.fill_diagonal(s, 1.0)
    variance = np.empty_like(s)
    if family == BINARY and np.abs(theta.alpha).max() + np.abs(theta.beta).max() <= 700.0:
        t = np.exp(-theta.alpha)[:, None] * np.exp(-theta.beta)
        mean = 1.0 / (1.0 + t)
        variance = t * mean * mean
    else:
        mean, variance = _maths(family).moments(family, s, variance)
    np.fill_diagonal(mean, 0.0)
    np.fill_diagonal(variance, 0.0)
    ones = np.ones(n)
    cross_min = variance[~np.eye(n, dtype=bool)].min()
    return mean @ ones, ones @ mean, variance, variance @ ones, ones @ variance, cross_min


PASS_FAMILIES = [BINARY, EXPONENTIAL, GEOMETRIC, WeightFamily.finite(2), WeightFamily.finite(4)]


def pass_params(family, n, seed, scale):
    """Effects for the pass tests: rate families get positive pair sums up to
    ``2 scale``, the others pair sums in ``[-2 scale, 2 scale]``."""
    rng = np.random.default_rng(seed)
    low = 0.01 if family.positive_pair_sums else -scale
    alpha, beta = rng.uniform(low, scale, n), rng.uniform(low, scale, n)
    return ParamVector(alpha, beta, negated=family.negated)


def check_pass(family, theta, rows, variance):
    """Run the pass in blocks of ``rows`` rows and compare it with the reference."""
    n = theta.n
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bidegree.model, "_CACHE_EDGES", rows * n)
        patch.setattr(bidegree.model, "_BLOCK_EDGES", rows * n)
        work = _Workspace(n, family, variance=variance)
        got = _pair_moments(theta, family, work)
    assert len(work.means) == min(rows, n)
    ref = whole_matrix_moments(theta, family)
    close = dict(rtol=1e-12, atol=0.0)
    assert np.allclose(got.mean_rows, ref[0], **close)
    assert np.allclose(got.mean_cols, ref[1], **close)
    if variance is None:
        assert got.variance is None and got.var_rows is None and got.var_cols is None
        return
    assert (got.variance is not None) == (variance == "whole" or rows >= n)
    if got.variance is not None:
        assert np.allclose(got.variance, ref[2], **close)
        assert np.all(np.diagonal(got.variance) == 0.0)
    assert np.allclose(got.var_rows, ref[3], **close)
    assert np.allclose(got.var_cols, ref[4], **close)
    assert got.cross_min == pytest.approx(ref[5], rel=1e-12, abs=0.0)


class TestEdgePass:
    """The one pass over the edges, in row blocks, leaves the margins and the
    smallest variance that whole-matrix passes and mat-vecs would."""

    @pytest.mark.parametrize("variance", ["whole", "block", None])
    @pytest.mark.parametrize(
        "n, rows", [(6, 6), (6, 9), (8, 2), (7, 3), (7, 1)],
        ids=["one-block", "block-beyond-n", "several", "short-last", "single-rows"],
    )
    @pytest.mark.parametrize("family", PASS_FAMILIES, ids=lambda f: f.label)
    def test_blocks(self, family, n, rows, variance):
        check_pass(family, pass_params(family, n, 5, 2.0), rows, variance)

    @pytest.mark.parametrize("rows", [2, 3, 5])
    def test_binary_per_edge_fallback(self, rows):
        # |alpha| + |beta| > 700: the rank-one product would overflow, so the
        # per-edge kernel runs, in blocks of rows too
        theta = pass_params(BINARY, 5, 7, 400.0)
        assert np.abs(theta.alpha).max() + np.abs(theta.beta).max() > 700.0
        assert _maths(BINARY).pair_moments(theta) is None
        check_pass(BINARY, theta, rows, "whole")

    @given(
        st.sampled_from(PASS_FAMILIES),
        st.integers(2, 12),
        st.integers(1, 14),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.5, 3.0, 30.0, 400.0]),
        st.sampled_from(["whole", "block", None]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_whole_matrix_reference(self, family, n, rows, seed, scale, variance):
        check_pass(family, pass_params(family, n, seed, scale), rows, variance)

    @pytest.mark.parametrize("variance", ["whole", "block", None])
    @pytest.mark.parametrize("family", [EXPONENTIAL, GEOMETRIC], ids=lambda f: f.label)
    def test_rate_family_pass_allocates_nothing(self, family, variance):
        # The pair sums are two broadcasting copies and a same-shape add into
        # the workspace.  A broadcasting add allocated 129 kB of the ufunc's
        # buffers for every block; a pass now traces about 6 kB in all.
        n = 400
        theta = pass_params(family, n, 3, 2.0)
        work = _Workspace(n, family, variance=variance)
        _pair_moments(theta, family, work)
        tracemalloc.start()
        try:
            _pair_moments(theta, family, work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024

    @pytest.mark.parametrize("family", PASS_FAMILIES[1:], ids=lambda f: f.label)
    def test_pair_sums_are_the_broadcast_sums(self, family):
        # the same floats as alpha[:, None] + beta, mean by mean
        theta = pass_params(family, 300, 4, 2.0)
        s = theta.alpha[:, None] + theta.beta
        np.fill_diagonal(s, 1.0)
        want = _maths(family).moments(family, s)[0]
        np.fill_diagonal(want, 0.0)
        assert np.array_equal(_edge_means(theta, family), want)

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.label)
    def test_fisher_and_degrees_come_from_the_pass(self, family):
        theta = random_params(family, 300, np.random.default_rng(4))
        ref = whole_matrix_moments(theta, family)
        fisher = fisher_info(theta, family)
        degrees = expected_degrees(theta, family)
        for got, want in zip(
            (degrees.d, degrees.b, fisher.cross, fisher.row_sums, fisher.col_sums), ref
        ):
            assert np.allclose(got, want, rtol=1e-12, atol=0.0)
        assert fisher.cross_min == pytest.approx(ref[5], rel=1e-12)
        assert fisher.cross_max == ref[2].max()


class TestMomentResidual:
    def test_zero_at_own_mean(self):
        rng = np.random.default_rng(5)
        for fam in ALL_FAMILIES:
            theta = random_params(fam, 8, rng)
            g = expected_degrees(theta, fam)
            assert np.abs(moment_residual(theta, g, fam)).max() < 1e-10

    def test_binary_three_vertex_example(self):
        theta = ParamVector(np.zeros(3), np.zeros(3))
        g = BiDegree([2.0, 1.0, 0.0], [0.0, 1.0, 2.0])
        assert np.allclose(moment_residual(theta, g, BINARY), [1, 0, -1, -1, 0], atol=1e-14)

    def test_slack_component_identity(self):
        # sum of out residuals minus sum of in residuals equals the last
        # vertex's in-degree residual
        rng = np.random.default_rng(7)
        for fam in ALL_FAMILIES:
            theta = random_params(fam, 9, rng)
            graph_theta = random_params(fam, 9, rng)
            g = expected_degrees(graph_theta, fam)
            resid = moment_residual(theta, g, fam)
            expected_last = g.b[-1] - expected_degrees(theta, fam).b[-1]
            slack = resid[:9].sum() - resid[9:].sum()
            assert slack == pytest.approx(expected_last, abs=1e-9)


class TestLogLikelihood:
    def test_binary_flat_value(self):
        n = 7
        theta = ParamVector(np.zeros(n), np.zeros(n))
        g = BiDegree(np.full(n, 3.0), np.full(n, 3.0))
        assert log_likelihood(theta, g, BINARY) == pytest.approx(
            -n * (n - 1) * math.log(2.0), rel=1e-14
        )

    def test_exponential_unit_rates_empty_graph(self):
        theta = ParamVector(np.ones(3), np.ones(3), negated=True)
        g = BiDegree(np.zeros(3), np.zeros(3))
        assert log_likelihood(theta, g, EXPONENTIAL) == pytest.approx(
            -6.0 * math.log(2.0), rel=1e-14
        )

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.label)
    def test_gradient_is_moment_residual(self, family):
        rng = np.random.default_rng(13)
        n = 6
        for _ in range(10):
            theta = random_params(family, n, rng)
            g = expected_degrees(random_params(family, n, rng), family)
            analytic = moment_residual(theta, g, family)
            h = 1e-6
            for k in range(2 * n - 1):
                bump = np.zeros(2 * n - 1)
                bump[k] = h
                fd = (
                    log_likelihood(theta.with_step(bump), g, family)
                    - log_likelihood(theta.with_step(-bump), g, family)
                ) / (2 * h)
                scale = max(1.0, abs(analytic[k]))
                assert abs(fd - analytic[k]) / scale < 1e-6

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from scipy.optimize import brentq
from hypothesis import strategies as st

import bidegree.fisher
import bidegree.model
import bidegree.solver
from bidegree.fisher import dense_inverse
from bidegree.inference import plug_in_variances
from bidegree.model import (
    BiDegree,
    Graph,
    InvalidParameterError,
    ParamVector,
    WeightFamily,
    _Moments,
    bi_degrees,
    edge_mean,
    expected_degrees,
)
from bidegree.sampler import SimDesign, derive_seed, design_params, ramp_magnitude, sample_graph
from bidegree.solver import (
    Existence,
    Feasibility,
    FitConfig,
    default_start,
    existence_check,
    newton_diagnostics,
    newton_fit,
)

BINARY = WeightFamily.binary()
EXPONENTIAL = WeightFamily.exponential()
GEOMETRIC = WeightFamily.geometric()
FINITE4 = WeightFamily.finite(4)

ALL_FAMILIES = [BINARY, EXPONENTIAL, GEOMETRIC, FINITE4]
DESIGN_L = {"binary": 0.8, "exponential": 1.5, "geometric": 0.8, "finite:4": 1.0}


def sampled_instance(family, n, seed):
    theta = design_params(SimDesign(family, n, DESIGN_L[family.label]))
    return theta, bi_degrees(sample_graph(theta, family, seed))


def closed_form_start(g, family):
    """The warm start written out per family: logits (binary) or a scalar
    root-finder (finite) of the clipped degree ratios, re-centred on vertex n;
    half the closed-form inverse mean per side (rate families), with the
    shift in alpha."""
    nm1 = g.n - 1
    if family.positive_pair_sums:
        d, b = np.maximum(g.d, 0.5), np.maximum(g.b, 0.5)
        if family.kind == "exponential":
            alpha, beta = nm1 / (2.0 * d), nm1 / (2.0 * b)
        else:
            alpha, beta = 0.5 * np.log1p(nm1 / d), 0.5 * np.log1p(nm1 / b)
        return alpha + beta[-1], beta - beta[-1]
    top, lo = family.max_weight, 1.0 / (2.0 * nm1)
    rd, rb = (np.clip(x / nm1, top * lo, top * (1.0 - lo)) for x in (g.d, g.b))
    if family.kind == "binary":
        alpha, beta = np.log(rd) - np.log1p(-rd), np.log(rb) - np.log1p(-rb)
    else:
        def inverse(r):
            return brentq(lambda s: edge_mean(family, s) - r, -60.0, 60.0, xtol=1e-15)
        alpha, beta = np.array([inverse(r) for r in rd]), np.array([inverse(r) for r in rb])
    return alpha, beta - beta[-1]


class TestExistenceCheck:
    def test_boundary_zero_out_degree(self):
        g = BiDegree([0.0, 2.0, 2.0, 2.0], [2.0, 2.0, 1.0, 1.0])
        assert existence_check(g, BINARY) is Feasibility.BOUNDARY

    def test_feasible_interior(self):
        g = BiDegree(np.full(100, 49.0), np.full(100, 49.0))
        assert existence_check(g, BINARY) is Feasibility.FEASIBLE

    def test_infeasible_above_support(self):
        g = BiDegree([5.0, 1.0, 1.0, 1.0], [2.0, 2.0, 2.0, 2.0])
        assert existence_check(g, BINARY) is Feasibility.INFEASIBLE

    def test_rate_families_only_zero_boundary(self):
        g = BiDegree([40.0, 1.0, 1.0], [14.0, 14.0, 14.0])
        assert existence_check(g, GEOMETRIC) is Feasibility.FEASIBLE
        g0 = BiDegree([0.0, 2.0, 2.0], [2.0, 1.0, 1.0])
        assert existence_check(g0, EXPONENTIAL) is Feasibility.BOUNDARY

    def test_finite_top_boundary(self):
        top = 3.0 * 3  # (q-1)(n-1)
        g = BiDegree([top, 4.0, 4.0, 4.0], [6.0, 6.0, 4.0, 5.0])
        assert existence_check(g, FINITE4) is Feasibility.BOUNDARY


class TestDefaultStart:
    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.label)
    def test_start_in_domain_and_normalized(self, family):
        _, g = sampled_instance(family, 25, 3)
        theta0 = default_start(g, family)
        assert theta0.beta[-1] == 0.0
        if family.positive_pair_sums:
            sums = theta0.pair_sums()
            np.fill_diagonal(sums, np.inf)
            assert sums.min() > 0.0

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.label)
    @pytest.mark.parametrize("empty_vertex", [False, True])
    def test_start_matches_closed_forms(self, family, empty_vertex):
        _, g = sampled_instance(family, 25, 3)
        if empty_vertex:  # move vertex 1's out-degree to vertex 2: both clips engage
            d = g.d.copy()
            d[1] += d[0]
            d[0] = 0.0
            g = BiDegree(d, g.b)
        alpha, beta = closed_form_start(g, family)
        theta0 = default_start(g, family)
        if family.kind == "binary":
            assert np.array_equal(theta0.alpha, alpha) and np.array_equal(theta0.beta, beta)
        else:
            scale = np.abs(np.concatenate([alpha, beta])).max()
            tol = 1e-12 if family.kind == "finite" else 4 * np.finfo(float).eps * scale
            assert np.abs(theta0.alpha - alpha).max() <= tol
            assert np.abs(theta0.beta - beta).max() <= tol

    def test_flat_binary_starts_at_zero(self):
        g = BiDegree(np.full(11, 5.0), np.full(11, 5.0))
        theta0 = default_start(g, BINARY)
        assert np.abs(theta0.free).max() < 1e-12


class TestNewtonFit:
    def test_noise_free_fixed_point_binary(self):
        theta_star = design_params(SimDesign(BINARY, 20, 1.0))
        g = expected_degrees(theta_star, BINARY)
        result = newton_fit(g, BINARY)
        assert result.converged and result.existence is Existence.EXISTS
        assert result.iterations <= 10
        assert np.abs(result.theta_hat.free - theta_star.free).max() < 1e-8

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.label)
    def test_fit_reproduces_observed_degrees(self, family):
        _, g = sampled_instance(family, 30, 11)
        result = newton_fit(g, family)
        assert result.converged
        fitted = expected_degrees(result.theta_hat, family)
        gap = max(np.abs(fitted.d - g.d).max(), np.abs(fitted.b - g.b).max())
        assert gap <= 1e-10 * 29

    def test_saturated_out_degrees_nonexistent(self):
        g = BiDegree(np.full(5, 4.0), np.full(5, 4.0))
        result = newton_fit(g, BINARY)
        assert result.existence is Existence.NON_EXISTENT
        assert not result.converged
        assert result.iterations == 0

    def test_exact_and_approx_steps_agree(self):
        theta_star = design_params(SimDesign(EXPONENTIAL, 100, 0.0))
        g = bi_degrees(sample_graph(theta_star, EXPONENTIAL, 17))
        exact = newton_fit(g, EXPONENTIAL, config=FitConfig(step_mode="exact"))
        approx = newton_fit(g, EXPONENTIAL, config=FitConfig(step_mode="sapprox"))
        assert exact.converged and approx.converged
        assert np.abs(exact.theta_hat.free - approx.theta_hat.free).max() <= 1e-8

    def test_beta_pin_preserved_along_the_run(self):
        _, g = sampled_instance(GEOMETRIC, 15, 5)
        result = newton_fit(g, GEOMETRIC)
        assert result.theta_hat.beta[-1] == 0.0

    def test_rate_iterates_stay_in_domain(self):
        # heavy-tailed degrees force damped steps; the fit must stay valid
        theta = ParamVector(
            np.array([2.5, 0.3, 0.3, 0.3, 0.3, 2.5, 0.3, 0.3]),
            np.array([2.5, 0.3, 0.3, 0.3, 0.3, 2.5, 0.3, 0.0]),
            negated=True,
        )
        g = bi_degrees(sample_graph(theta, GEOMETRIC, 23))
        result = newton_fit(g, GEOMETRIC)
        assert result.existence in (Existence.EXISTS, Existence.NON_EXISTENT)
        if result.converged:
            sums = result.theta_hat.pair_sums()
            np.fill_diagonal(sums, np.inf)
            assert sums.min() > 0.0

    def test_divergence_classified_nonexistent(self):
        theta_star = design_params(SimDesign(BINARY, 60, math.log(60)))
        count = 0
        for seed in range(10):
            g = bi_degrees(sample_graph(theta_star, BINARY, derive_seed(100, seed)))
            result = newton_fit(g, BINARY)
            count += result.existence is Existence.NON_EXISTENT
        assert count == 10

    def test_eventually_quadratic_trace(self):
        theta_star = design_params(SimDesign(BINARY, 25, 0.7))
        g = bi_degrees(sample_graph(theta_star, BINARY, 29))
        result = newton_fit(g, BINARY)
        assert result.converged
        residuals = [r for r, _ in result.trace]
        floor = 1e-12 * 25
        checked = 0
        for prev, cur in zip(residuals, residuals[1:]):
            if prev < 0.5 and cur > floor:
                assert math.log(cur) / math.log(prev) >= 1.5
                checked += 1
        assert checked >= 1

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.label)
    def test_fit_maximizes_natural_likelihood(self, family):
        # independent optimality check: the natural-frame log-density at the
        # fit beats random nearby parameter vectors
        from bidegree.model import log_likelihood

        _, g = sampled_instance(family, 20, 19)
        result = newton_fit(g, family)
        assert result.converged
        sign = -1.0 if family.negated else 1.0
        best = sign * log_likelihood(result.theta_hat, g, family)
        rng = np.random.default_rng(63)
        checked = 0
        while checked < 20:
            bump = rng.uniform(-0.2, 0.2, 39)
            candidate = result.theta_hat.with_step(bump)
            try:
                value = sign * log_likelihood(candidate, g, family)
            except InvalidParameterError:
                continue
            assert value <= best
            checked += 1

    def test_finite_two_fit_mirrors_binary_fit(self):
        # the same graph fit as binary and as finite:2 gives sign-flipped
        # estimates, end to end through sampling, start, and Newton
        fam2 = WeightFamily.finite(2)
        theta_star = design_params(SimDesign(BINARY, 25, 0.6))
        g = bi_degrees(sample_graph(theta_star, BINARY, 41))
        binary_fit = newton_fit(g, BINARY)
        finite_fit = newton_fit(g, fam2)
        assert binary_fit.converged and finite_fit.converged
        assert np.abs(binary_fit.theta_hat.free + finite_fit.theta_hat.free).max() < 1e-7

    def test_unnormalized_start_rejected(self):
        _, g = sampled_instance(BINARY, 10, 1)
        bad = ParamVector(np.zeros(10), np.full(10, 0.1))
        with pytest.raises(InvalidParameterError):
            newton_fit(g, BINARY, theta0=bad)

    def test_max_iter_exhaustion_is_undetermined(self):
        _, g = sampled_instance(BINARY, 20, 2)
        result = newton_fit(g, BINARY, config=FitConfig(max_iter=1, tol_residual=1e-14))
        assert not result.converged
        assert result.existence is Existence.UNDETERMINED

    def test_tolerance_met_on_the_last_allowed_iteration_exists(self):
        # The full fit reaches the tolerance after its fifth step; a budget
        # of five steps ends on the same iterate and gets the same verdict.
        _, g = sampled_instance(BINARY, 30, derive_seed(9, 0))
        full = newton_fit(g, BINARY)
        assert full.existence is Existence.EXISTS and full.iterations == 6
        result = newton_fit(g, BINARY, config=FitConfig(max_iter=5))
        assert result.iterations == 5
        assert result.existence is Existence.EXISTS and result.converged
        assert result.residual_norm_inf == full.residual_norm_inf
        np.testing.assert_array_equal(result.theta_hat.free, full.theta_hat.free)

    @pytest.mark.parametrize("max_iter", range(15, 22))
    def test_budget_beyond_the_bound_is_nonexistent(self, max_iter):
        # No interior MLE: these degrees force some edges to the support's
        # ends, and the capped steps march |theta| by 2 per iteration while
        # the residual keeps falling.  Unbudgeted, the run reaches the
        # tolerance beyond the bound at iteration 22 and is NonExistent; a
        # budget that stops it beyond the bound gives the same verdict.
        g = BiDegree([3, 3, 2, 1, 1], [3, 3, 2, 1, 1])
        assert newton_fit(g, BINARY).existence is Existence.NON_EXISTENT
        result = newton_fit(g, BINARY, config=FitConfig(max_iter=max_iter))
        assert result.iterations == max_iter
        assert np.abs(result.theta_hat.free).max() > bidegree.solver._DIVERGENCE_BOUND
        residuals = [r for r, _ in result.trace]
        assert residuals == sorted(residuals, reverse=True)  # still falling
        assert result.existence is Existence.NON_EXISTENT

    def test_uniqueness_from_perturbed_starts(self):
        rng = np.random.default_rng(31)
        for family in ALL_FAMILIES:
            _, g = sampled_instance(family, 20, 37)
            reference = newton_fit(g, family)
            assert reference.converged
            for _ in range(4):
                start = default_start(g, family)
                bump = rng.uniform(-0.3, 0.3, 39)
                candidate = start.with_step(bump)
                try:
                    result = newton_fit(g, family, theta0=candidate)
                except InvalidParameterError:
                    result = newton_fit(g, family, theta0=start)
                assert result.converged
                assert np.abs(result.theta_hat.free - reference.theta_hat.free).max() < 1e-6

    @pytest.mark.parametrize(
        "family, n, rule, seeds, forced",
        [
            (BINARY, 150, "loglog", (0, 1, 2), None),
            (GEOMETRIC, 200, "sqrtlog", (0, 1, 5, 6), None),
            (BINARY, 5, "zero", (), [3, 3, 2, 1, 1]),
        ],
        ids=["binary-n150-loglog", "geometric-n200-sqrtlog", "binary-marching"],
    )
    def test_step_solve_matches_dense_oracle_fit_by_fit(
        self, monkeypatch, family, n, rule, seeds, forced
    ):
        # Comparing with the dense solve pins the step solve without pinning
        # verdicts to fixed values.  The sampled seeds converge; ``forced``
        # degrees are realisable only with some edges at the support's ends,
        # so that fit marches to the divergence bound (22 steps with
        # backtracking, |theta| ~ 44).  Its iterates are ill-conditioned, and
        # only its verdict and iteration count are compared.
        design = design_params(SimDesign(family, n, ramp_magnitude(rule, n)))
        graphs = [bi_degrees(sample_graph(design, family, derive_seed(8, s))) for s in seeds]
        if forced:
            graphs.append(BiDegree(forced, forced))
        fast = [newton_fit(g, family) for g in graphs]
        monkeypatch.setattr(
            bidegree.solver, "solve_structured", lambda fisher, rhs: dense_inverse(fisher) @ rhs
        )
        dense = [newton_fit(g, family) for g in graphs]
        for k, (a, b) in enumerate(zip(fast, dense)):
            assert a.existence is b.existence
            assert a.iterations == b.iterations
            if k < len(seeds):
                assert np.abs(a.theta_hat.free - b.theta_hat.free).max() <= 1e-10
        if forced:
            assert np.abs(fast[-1].theta_hat.free).max() > bidegree.solver._DIVERGENCE_BOUND


    def test_geometric_nonexistent_only_with_a_zero_degree(self):
        # Small degrees have large geometric pair sums under the exponential
        # family's start (n-1)/(2 deg); from there the variances underflowed
        # and the divergence heuristic declared 180 of these 300 fits
        # nonexistent.  An MLE exists whenever every degree is positive.
        family, n = GEOMETRIC, 200
        design = design_params(SimDesign(family, n, ramp_magnitude("sqrtlog", n)))
        verdicts = []
        for r in range(300):
            g = bi_degrees(sample_graph(design, family, derive_seed(8, r)))
            result = newton_fit(g, family)
            zero_degree = bool(np.any(g.d == 0) or np.any(g.b == 0))
            verdicts.append((result.existence, zero_degree))
            assert result.existence is not Existence.UNDETERMINED
            if result.existence is Existence.NON_EXISTENT:
                assert zero_degree, f"replication {r}: nonexistent with every degree positive"
        assert sum(v is Existence.EXISTS for v, _ in verdicts) > 200

    @pytest.mark.parametrize(
        "family, n, rule, seeds, forced",
        [
            (BINARY, 150, "loglog", (0, 1, 2), [3, 3, 2, 1, 1]),
            (EXPONENTIAL, 150, "sqrtlog", (0, 1), None),
            (GEOMETRIC, 200, "sqrtlog", (0, 1, 5, 6), None),
            (FINITE4, 150, "loglog", (0, 1, 2), None),
            (WeightFamily.finite(3), 120, "zero", (0, 1), None),
        ],
        ids=["binary", "exponential", "geometric", "finite:4", "finite:3"],
    )
    def test_edge_kernel_matches_tensor_formulas_fit_by_fit(
        self, monkeypatch, family, n, rule, seeds, forced
    ):
        # ``forced`` degrees are realisable only with some edges at the
        # support's ends, so the fit marches to the divergence bound; there
        # the iterates are ill-conditioned and only verdict and iteration
        # count are compared.  (The finite analogue is left out: at pair sums
        # near -44 the reference's E k^2 - mean^2 cancels to a variance of 0.)
        design = design_params(SimDesign(family, n, ramp_magnitude(rule, n)))
        graphs = [bi_degrees(sample_graph(design, family, derive_seed(8, s))) for s in seeds]
        if forced:
            graphs.append(BiDegree(forced, forced))
        fast = [newton_fit(g, family) for g in graphs]
        monkeypatch.setattr(bidegree.model, "_pair_moments", tensor_pair_moments)
        monkeypatch.setattr(bidegree.fisher, "_pair_moments", tensor_pair_moments)
        slow = [newton_fit(g, family) for g in graphs]
        for a, b in zip(fast, slow):
            assert a.existence is b.existence
            assert a.iterations == b.iterations
            if a.existence is Existence.EXISTS:
                assert np.abs(a.theta_hat.free - b.theta_hat.free).max() <= 1e-10


class TestSapproxHandover:
    """Sapprox takes approximate steps until they stall or meet the
    tolerance, then exact steps in the same loop; only an exact step ends a
    fit on a tolerance."""

    @pytest.mark.parametrize(
        "family, d, b",
        [
            (GEOMETRIC, [2, 4, 2], [2, 3, 3]),
            (FINITE4, [8, 3, 10, 6, 5, 12], [10, 10, 5, 9, 8, 2]),
        ],
        ids=["geometric", "finite:4"],
    )
    def test_stalled_approximate_steps_finish_exactly(self, family, d, b):
        # An MLE exists for both, but the relaxed approximate step stalls
        # far from it; exact steps must take over before the budget runs out.
        g = BiDegree(d, b)
        exact = newton_fit(g, family)
        approx = newton_fit(g, family, config=FitConfig(step_mode="sapprox"))
        assert exact.existence is Existence.EXISTS
        assert approx.existence is Existence.EXISTS and approx.iterations < 20
        assert np.abs(approx.theta_hat.free - exact.theta_hat.free).max() <= 1e-8

    def test_verdicts_match_exact_on_small_graphs(self):
        # Random small integer graphs; many sit on or near the boundary of
        # the mean polytope, where the approximate step stalls.
        rng = np.random.default_rng(2024)
        families = (BINARY, WeightFamily.finite(3), FINITE4, GEOMETRIC)
        tops = (1, 2, 3, 3)
        differ, budget = [], []
        for k in range(200):
            n = rng.integers(3, 9)
            weights = rng.integers(0, tops[k % 4] + 1, (n, n)).astype(float)
            np.fill_diagonal(weights, 0.0)
            g, family = bi_degrees(Graph(weights)), families[k % 4]
            exact = newton_fit(g, family)
            approx = newton_fit(g, family, config=FitConfig(step_mode="sapprox"))
            if approx.existence is not exact.existence:
                differ.append((k, exact.existence.value, approx.existence.value))
            if approx.iterations == FitConfig().max_iter:
                budget.append(k)
        assert not differ
        assert not budget

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.label)
    def test_approximate_steps_carry_the_fit(self, monkeypatch, family):
        # Guard against a hand-over so early that sapprox becomes exact
        # Newton: the approximate steps do most of the work, and an exact
        # step ends the fit.
        calls = {"approx": 0, "exact": 0}

        def counted(fn, key):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        solver = bidegree.solver
        monkeypatch.setattr(
            solver, "apply_approx_inverse", counted(solver.apply_approx_inverse, "approx")
        )
        monkeypatch.setattr(solver, "solve_structured", counted(solver.solve_structured, "exact"))
        _, g = sampled_instance(family, 30, derive_seed(9, 0))
        result = newton_fit(g, family, config=FitConfig(step_mode="sapprox"))
        assert result.existence is Existence.EXISTS
        assert calls["approx"] >= 15 and 1 <= calls["exact"] <= 2


    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.label)
    def test_only_exact_steps_build_the_cross_block(self, monkeypatch, family):
        # From the gate on, a step's low-rank cross block is built on its
        # first product; approximate steps read only the margins.
        builds, solves = [], []

        def counted(fn, calls):
            def wrapper(*args, **kwargs):
                calls.append(1)
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            bidegree.fisher, "_low_rank_cross", counted(bidegree.fisher._low_rank_cross, builds)
        )
        monkeypatch.setattr(
            bidegree.solver, "solve_structured", counted(bidegree.solver.solve_structured, solves)
        )
        n = bidegree.solver._CLASS_GATE
        design = design_params(SimDesign(family, n, ramp_magnitude("loglog", n)))
        g = bi_degrees(sample_graph(design, family, derive_seed(9, 0)))
        result = newton_fit(g, family, config=FitConfig(step_mode="sapprox"))
        assert result.converged and len(result.trace) > len(solves) >= 1
        assert len(builds) == len(solves)


def _feasible_top(family, n):
    """Just below the largest degree the screen lets through."""
    return 0.95 * family.max_weight * (n - 1) if family.max_weight < math.inf else 5.0 * n


@st.composite
def class_stage_cases(draw):
    """Degree sequences that pass the existence screen, shaped to strain the
    class stage: all equal, many ties, a sampled ramp design (whose vertex n
    has an outlying in-degree), one vertex far outside the others, and free
    sequences, for many of which the class model or the MLE fails."""
    family = draw(st.sampled_from(ALL_FAMILIES))
    n = draw(st.integers(2 * bidegree.solver._CLASSES, 48))
    shape = draw(st.sampled_from(["equal", "ties", "ramp", "outlier", "free"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = _feasible_top(family, n)
    if shape == "ramp":
        ramp = draw(st.floats(0.0, 2.0))
        theta = design_params(SimDesign(family, n, ramp))
        g = bi_degrees(sample_graph(theta, family, draw(st.integers(0, 2**32 - 1))))
        d, b = g.d, g.b
    else:
        if shape == "equal":
            d = np.full(n, draw(st.floats(0.05, 0.95)) * top)
        elif shape == "ties":
            values = rng.uniform(0.05, 1.0, draw(st.integers(2, 3))) * top
            d = rng.choice(values, n)
        else:
            d = rng.uniform(0.05, 1.0, n) * top
        if shape == "outlier":
            d[rng.integers(n)] = draw(st.sampled_from([1e-3, 0.02, 1.0])) * top
        b = rng.permutation(d)  # the same total
    assume(existence_check(BiDegree(d, b), family) is Feasibility.FEASIBLE)
    return family, BiDegree(d, b)


def bisection_root(family, target, other, weights):
    """The x with ``target = sum_l weights[l] mu(x + other[l])``, bisected to
    rounding over a bracket wide enough for every case of ``row_cases``: the
    weighted mean sum is monotone in x, and for the rate families it runs
    from +inf at x = -min(other) down to 0."""
    lo, hi = (-min(other), -min(other) + 1e4) if family.positive_pair_sums else (-1e3, 1e3)
    increasing = not family.negated
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if family.positive_pair_sums and mid + min(other) <= 0.0:
            lo = mid
            continue
        above = float(weights @ edge_mean(family, mid + other)) > target
        if above == increasing:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@st.composite
def row_cases(draw):
    """Rows of ``_row_effects`` for every family: up to eight rows against
    up to six columns of other effects with positive weights.  Edge means
    per unit weight run over the family's support, out to 1e-9 of a bounded
    support's ends and, for the rate families, up to means of 100, whose
    brackets are cut at the floor ``-min(other)``.  Starts lie inside or
    outside the brackets."""
    family = draw(st.sampled_from(ALL_FAMILIES))
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.sampled_from([0.0, 0.5, 3.0]))
    other = draw(st.floats(-1.0, 1.0)) + spread * rng.random((rows, cols))
    weights = rng.integers(1, 60, (rows, cols)).astype(float)
    if family.positive_pair_sums:
        means = np.exp(rng.uniform(math.log(0.01), math.log(100.0), rows))
    else:
        ends = np.array([1e-9, 1e-4, 0.5, 1.0 - 1e-4, 1.0 - 1e-9])
        means = family.max_weight * np.where(
            rng.random(rows) < 0.5, rng.choice(ends, rows), rng.uniform(0.01, 0.99, rows)
        )
    targets = weights.sum(axis=1) * means
    centres = bidegree.model._maths(family).inverse_mean(family, means)
    start = rng.uniform(-5.0, 5.0, rows)
    return family, targets, centres, start, other, weights


def assert_rows_solved(family, targets, centres, start, other, weights):
    """``_row_effects`` is within the step tolerance of each row's bisected
    root, and for the rate families within that share of the root's distance
    from the floor: near the floor the edge means' pole makes the Newton
    steps as short as that distance while the root may lie several times
    further out."""
    x = bidegree.solver._row_effects(family, targets, centres, start, other, weights)
    for r in range(len(x)):
        root = bisection_root(family, targets[r], other[r], weights[r])
        room = root + other[r].min() if family.positive_pair_sums else math.inf
        assert abs(x[r] - root) <= bidegree.solver._ROW_TOL * min(1.0, room)
        assert x[r] + other[r].min() > 0.0 or not family.positive_pair_sums


class TestRowEffects:
    @given(row_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_bisection(self, case):
        assert_rows_solved(*case)

    @pytest.mark.parametrize("family", [EXPONENTIAL, GEOMETRIC], ids=lambda f: f.label)
    def test_roots_just_above_the_floor(self, family):
        # Edge means of 3 to 100 per unit weight put the roots' smallest pair
        # sums at 1e-3 to 0.3, from starts on either side of the bracket.
        means = np.repeat([3.0, 10.0, 30.0, 100.0], 3)
        other = np.tile([0.0, 0.5], (means.size, 1))
        weights = np.tile([1.0, 10.0], (means.size, 1))
        centres = bidegree.model._maths(family).inverse_mean(family, means)
        start = np.tile([-5.0, 0.0, 5.0], 4)
        assert_rows_solved(family, 11.0 * means, centres, start, other, weights)


class TestClassStart:
    """The class stage refines a default fit's start from n =
    ``_CLASS_GATE`` on; it returns a valid start or the closed-form one and
    never raises.  Below the gate the vertex sweeps refine it from n =
    ``_SWEEP_GATE`` on, and smaller fits start from the closed form."""

    @given(class_stage_cases())
    @settings(max_examples=300, deadline=None)
    def test_start_is_valid_or_the_closed_form(self, case):
        family, g = case
        fallback = default_start(g, family)
        start = bidegree.solver._class_start(g, family, fallback)
        if start is not fallback:
            bidegree.model.validate_params(start, family)
            assert start.n == g.n and start.is_normalized

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.label)
    def test_start_is_closer_to_the_fit(self, family):
        _, g = sampled_instance(family, 60, 4)
        fallback = default_start(g, family)
        start = bidegree.solver._class_start(g, family, fallback)
        assert start is not fallback
        theta_hat = newton_fit(g, family).theta_hat.free
        assert np.abs(start.free - theta_hat).max() < 0.2 * np.abs(fallback.free - theta_hat).max()

    def test_failures_return_the_closed_form_start(self, monkeypatch):
        _, g = sampled_instance(GEOMETRIC, 60, 4)
        fallback = default_start(g, GEOMETRIC)
        with monkeypatch.context() as patch:
            patch.setattr(bidegree.solver, "_CLASS_ITER", 0)  # the sweep budget
            assert bidegree.solver._class_start(g, GEOMETRIC, fallback) is fallback
        assert bidegree.solver._class_start(g, GEOMETRIC, fallback) is not fallback
        few = 2 * bidegree.solver._CLASSES - 1  # too few vertices for the classes
        small = BiDegree(np.full(few, 3.0), np.full(few, 3.0))
        small_fallback = default_start(small, GEOMETRIC)
        assert bidegree.solver._class_start(small, GEOMETRIC, small_fallback) is small_fallback

    def test_outlying_pair_is_lifted_to_the_damping_target(self, monkeypatch):
        # Vertex 28's out-degree 36 and vertex 29's in-degree 41 lie beyond
        # their classes' mean degrees (the median degree is 7), so each is
        # solved against the other side's class effects, and their own pair
        # sum comes out below 0.  Lifting that pair keeps the class start.
        d = [3, 1, 6, 4, 3, 4, 8, 11, 2, 4, 3, 5, 8, 4, 13, 8, 8, 5, 13, 12, 9, 7, 10, 5, 16, 8,
             16, 36, 7]
        b = [3, 3, 5, 9, 4, 7, 3, 5, 4, 2, 4, 10, 5, 3, 7, 10, 8, 12, 10, 4, 15, 8, 15, 8, 9,
             4, 12, 9, 41]
        g = BiDegree(d, b)
        fallback = default_start(g, GEOMETRIC)
        start = bidegree.solver._class_start(g, GEOMETRIC, fallback)
        assert start is not fallback
        fit = newton_fit(g, GEOMETRIC, theta0=start)
        closed = newton_fit(g, GEOMETRIC, theta0=fallback)
        assert fit.existence is closed.existence is Existence.EXISTS
        assert np.abs(fit.theta_hat.free - closed.theta_hat.free).max() <= 1e-8
        assert fit.iterations < closed.iterations
        monkeypatch.setattr(bidegree.solver, "_lift_pairs", lambda alpha, beta, target: None)
        assert bidegree.solver._class_start(g, GEOMETRIC, fallback) is fallback

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.label)
    def test_default_fit_matches_the_closed_form_start(self, family):
        # From the gate on, a default fit starts from the class stage: the
        # same verdict and MLE, in no more iterations.
        n = bidegree.solver._CLASS_GATE
        design = design_params(SimDesign(family, n, ramp_magnitude("loglog", n)))
        g = bi_degrees(sample_graph(design, family, derive_seed(77, 1)))
        fit = newton_fit(g, family)
        closed = newton_fit(g, family, theta0=default_start(g, family))
        assert fit.existence is closed.existence is Existence.EXISTS
        assert np.abs(fit.theta_hat.free - closed.theta_hat.free).max() <= 1e-8
        assert fit.iterations <= closed.iterations

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.label)
    def test_below_the_gate_fits_start_from_the_closed_form(self, family):
        # Below the sweep gate a default fit is the fit from default_start,
        # bit for bit.
        n = bidegree.solver._SWEEP_GATE - 1
        design = design_params(SimDesign(family, n, ramp_magnitude("loglog", n)))
        g = bi_degrees(sample_graph(design, family, derive_seed(77, 2)))
        fit = newton_fit(g, family)
        closed = newton_fit(g, family, theta0=default_start(g, family))
        assert fit.existence is closed.existence and fit.iterations == closed.iterations
        assert np.array_equal(fit.theta_hat.alpha, closed.theta_hat.alpha)
        assert np.array_equal(fit.theta_hat.beta, closed.theta_hat.beta)
        assert fit.trace == closed.trace
        assert (fit.start, fit.start_sweeps) == ("closed_form", 0)

    @pytest.mark.parametrize(
        "n", [bidegree.solver._SWEEP_GATE, bidegree.solver._CLASS_GATE - 1], ids=["sweep", "class"]
    )
    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.label)
    def test_between_the_gates_fits_start_from_the_sweeps(self, family, n):
        # From the sweep gate to below the class gate a default fit starts
        # from the sweeps: the same verdict and MLE, in no more iterations.
        design = design_params(SimDesign(family, n, ramp_magnitude("loglog", n)))
        g = bi_degrees(sample_graph(design, family, derive_seed(77, 2)))
        fit = newton_fit(g, family)
        closed = newton_fit(g, family, theta0=default_start(g, family))
        assert fit.start == "sweeps" and 1 <= fit.start_sweeps <= bidegree.solver._SWEEP_ITER
        assert fit.existence is closed.existence is Existence.EXISTS
        assert np.abs(fit.theta_hat.free - closed.theta_hat.free).max() <= 1e-7
        assert fit.iterations <= closed.iterations

    def test_binary_n1000_fits_take_four_passes(self, monkeypatch):
        # From the closed-form start these fits take 6 edge passes.
        passes = []

        def counted(*args, **kwargs):
            passes.append(1)
            return bidegree.model.moment_residual(*args, **kwargs)

        monkeypatch.setattr(bidegree.solver, "moment_residual", counted)
        n = 1000
        design = design_params(SimDesign(BINARY, n, ramp_magnitude("loglog", n)))
        for r in range(2):
            g = bi_degrees(sample_graph(design, BINARY, derive_seed(77, r)))
            passes.clear()
            assert newton_fit(g, BINARY).converged
            assert len(passes) <= 4


def row_sums_without_diagonal(family, x, other):
    """``sum_{j != i} mu(x_i + other_j)`` per row, one row at a time."""
    keep = ~np.eye(x.size, dtype=bool)
    return np.array([edge_mean(family, x[i] + other[keep[i]]).sum() for i in range(x.size)])


@st.composite
def half_sweep_cases(draw):
    """One side's rows against the other side's effects, as a sweep meets
    them, for every family.  Each row's root is drawn, and its target is
    its row sum there.  Rate-family roots put each row's smallest pair sum
    between 1e-3 (rows near the floor) and 3, and each start within 30% of
    that pair sum, with every pair sum positive, the diagonal ones too, as
    the sweeps leave them.  With ``off`` the row holding the smallest other
    effect gets a root whose pair sum with that effect is negative, below
    the table, so the row falls back to ``_row_effects``; with ``monotone``
    false the whole table does."""
    family = draw(st.sampled_from(ALL_FAMILIES))
    n = draw(st.integers(20, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.sampled_from([0.0, 0.5, 2.0]))
    other = draw(st.floats(-1.0, 1.0)) + spread * rng.random(n)
    off = family.positive_pair_sums and draw(st.booleans())
    if family.positive_pair_sums:
        k = int(np.argmin(other))
        if off:
            other[k] -= 0.5
        low = np.sort(other)[:2]
        own = np.where(np.arange(n) == k, low[1], low[0])  # each row's smallest other effect
        floor = draw(st.sampled_from([1e-3, 0.1]))
        root = np.exp(rng.uniform(math.log(floor), math.log(3.0), n)) - own
        if off:
            root[k] = 2e-3 - low[1]
        start = root + rng.uniform(-0.3, 0.3, n) * (root + own)
        start = np.maximum(start, 0.5 * (root + own) - other.min())
    else:
        root = rng.uniform(-3.0, 3.0, n)
        start = root + rng.uniform(-0.5, 0.5, n)
    targets = row_sums_without_diagonal(family, root, other)
    return family, targets, start, other, off, draw(st.booleans())


def half_sweep(family, targets, start, other, monotone=True):
    """One half-sweep as ``_sweep_start`` makes it; the new effects, the
    bracket centres, and the table."""
    n = targets.size
    inverse_mean = bidegree.model._maths(family).inverse_mean
    centres = inverse_mean(family, targets / (n - 1))
    floors = inverse_mean(family, targets) if family.positive_pair_sums else None
    rows = bidegree.solver._SWEEP_NODES + 1
    buffers = (
        np.empty((rows, n)), np.empty((rows, n)), np.ones(max(n, rows - 1)),
        np.empty((2, rows - 1)), np.empty(n),
    )
    table = bidegree.solver._row_table(family, centres, floors, start, other, buffers)
    if not monotone:
        table = table._replace(G=None)
    x = bidegree.solver._solve_rows(family, table, targets, centres, start, other)
    return x, centres, table


# The largest relative row residual of one half-sweep over 3,000 cases of
# ``half_sweep_cases``: 2.8e-2, in finite:4 rows with the widest spreads of
# other effects, whose targets lie near the support's ends; 4.6e-3 binary,
# 2.0e-2 exponential, 2.6e-2 geometric.
HALF_SWEEP_RTOL = 5e-2


class TestSweepStart:
    """From n = ``_SWEEP_GATE`` to below the class gate, default fits start
    from vertex sweeps on tabulated row sums; a fit says where it started."""

    @given(half_sweep_cases())
    @settings(max_examples=150, deadline=None)
    def test_half_sweep_rows_stay_in_their_brackets(self, case):
        family, targets, start, other, off, monotone = case
        with mock.patch.object(
            bidegree.solver, "_row_effects", wraps=bidegree.solver._row_effects
        ) as row_effects:
            x, centres, table = half_sweep(family, targets, start, other, monotone)
        fallback = [len(call.args[1]) for call in row_effects.call_args_list]
        n = x.size
        keep = ~np.eye(n, dtype=bool)
        for i in range(n):
            rest = other[keep[i]]
            assert centres[i] - rest.max() <= x[i] <= centres[i] - rest.min()
            assert x[i] + rest.min() > 0.0 or not family.positive_pair_sums
        residual = np.abs(row_sums_without_diagonal(family, x, other) - targets) / targets
        assert residual.max() <= HALF_SWEEP_RTOL
        if not monotone:
            assert fallback == [n]
        elif off:
            assert fallback and fallback[0] >= 1

    @pytest.mark.parametrize("family", [EXPONENTIAL, GEOMETRIC], ids=lambda f: f.label)
    def test_rows_whose_diagonal_term_does_not_settle(self, family):
        # Starts up to 0.5 below the roots, cut at pair sums of 1e-3, put
        # some rows' diagonal pair sums near the pole, where the diagonal
        # term moves the row too far for its slope to settle it in two
        # solves; unguarded, such rows kept residuals of 0.43-0.48.
        rng = np.random.default_rng(76)
        n = int(rng.integers(20, 40))
        other = rng.uniform(-1, 1) + 0.5 * rng.random(n)
        low = np.sort(other)[:2]
        own = np.where(np.arange(n) == np.argmin(other), low[1], low[0])
        root = np.exp(rng.uniform(math.log(1e-3), math.log(3.0), n)) - own
        start = np.maximum(root + rng.uniform(-0.5, 0.5, n), 1e-3 - other.min())
        targets = row_sums_without_diagonal(family, root, other)
        x, _, _ = half_sweep(family, targets, start, other)
        residual = np.abs(row_sums_without_diagonal(family, x, other) - targets) / targets
        assert residual.max() <= HALF_SWEEP_RTOL

    @given(class_stage_cases())
    @settings(max_examples=150, deadline=None)
    def test_start_is_valid_or_the_closed_form(self, case):
        family, g = case
        start, sweeps = bidegree.solver._sweep_start(g, family)
        bidegree.model.validate_params(start, family)
        assert start.n == g.n and start.is_normalized
        assert 0 <= sweeps <= bidegree.solver._SWEEP_ITER
        if sweeps == 0:
            closed = default_start(g, family)
            assert np.array_equal(start.free, closed.free)

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.label)
    def test_start_is_closer_to_the_fit(self, family):
        n = bidegree.solver._SWEEP_GATE
        design = design_params(SimDesign(family, n, ramp_magnitude("loglog", n)))
        g = bi_degrees(sample_graph(design, family, derive_seed(77, 1)))
        closed = default_start(g, family)
        swept, sweeps = bidegree.solver._sweep_start(g, family)
        assert sweeps >= 1
        theta_hat = newton_fit(g, family).theta_hat.free
        assert np.abs(swept.free - theta_hat).max() < 0.2 * np.abs(closed.free - theta_hat).max()

    def test_each_n_range_takes_its_start(self):
        solver = bidegree.solver
        starts = {}
        for n in (solver._SWEEP_GATE - 1, solver._SWEEP_GATE, solver._CLASS_GATE - 1,
                  solver._CLASS_GATE):
            design = design_params(SimDesign(GEOMETRIC, n, ramp_magnitude("loglog", n)))
            g = bi_degrees(sample_graph(design, GEOMETRIC, derive_seed(77, 3)))
            fit = newton_fit(g, GEOMETRIC)
            assert fit.existence is Existence.EXISTS
            assert (fit.start_sweeps > 0) == (fit.start == "sweeps")
            starts[n] = fit.start
            given_start = newton_fit(g, GEOMETRIC, theta0=default_start(g, GEOMETRIC))
            assert (given_start.start, given_start.start_sweeps) == ("given", 0)
        assert list(starts.values()) == ["closed_form", "sweeps", "sweeps", "class"]
        # a graph the screen stops starts, and ends, at the closed form
        n = solver._SWEEP_GATE
        d = np.full(n, 3.0)
        d[0] = 0.0
        d[1] = 6.0
        stopped = newton_fit(BiDegree(d, d), GEOMETRIC)
        assert stopped.existence is Existence.NON_EXISTENT
        assert (stopped.start, stopped.start_sweeps) == ("closed_form", 0)

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.label)
    def test_failed_sweeps_start_from_the_closed_form(self, monkeypatch, family):
        n = bidegree.solver._SWEEP_GATE
        design = design_params(SimDesign(family, n, ramp_magnitude("loglog", n)))
        g = bi_degrees(sample_graph(design, family, derive_seed(77, 4)))

        def failing(*args):
            raise InvalidParameterError("a value out of the family's domain")

        monkeypatch.setattr(bidegree.solver, "_row_table", failing)
        fit = newton_fit(g, family)
        closed = newton_fit(g, family, theta0=default_start(g, family))
        assert (fit.start, fit.start_sweeps) == ("closed_form", 0)
        assert fit.existence is closed.existence and fit.iterations == closed.iterations
        assert np.array_equal(fit.theta_hat.free, closed.theta_hat.free)
        assert fit.trace == closed.trace

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.label)
    def test_sapprox_fits_from_the_sweeps_take_exact_steps(self, family):
        # From a swept start approximate steps would only halve the residual
        # per step (geometric n=200 sqrtlog: 23 steps where the closed form's
        # sapprox fit took 10), so such a fit is the exact fit.
        n = bidegree.solver._SWEEP_GATE
        design = design_params(SimDesign(family, n, ramp_magnitude("sqrtlog", n)))
        g = bi_degrees(sample_graph(design, family, derive_seed(77, 5)))
        sapprox = FitConfig(step_mode="sapprox")
        fit = newton_fit(g, family, config=sapprox)
        exact = newton_fit(g, family)
        closed = newton_fit(g, family, theta0=default_start(g, family), config=sapprox)
        assert fit.start == "sweeps" and fit.trace == exact.trace
        assert np.array_equal(fit.theta_hat.free, exact.theta_hat.free)
        assert fit.existence is closed.existence is Existence.EXISTS
        assert np.abs(fit.theta_hat.free - closed.theta_hat.free).max() <= 1e-7
        assert fit.iterations < closed.iterations


def tensor_pair_moments(theta, family, work):
    """Reference for ``bidegree.model._pair_moments``: the per-family formulas
    the one-pass kernel replaced, with the finite family's moments taken from
    an n x n x q tensor of normalized pmf weights, and margins summed over the
    whole matrices.  It ignores the buffers in ``work`` and returns new
    arrays, so the fit must use the arrays returned."""
    s = theta.pair_sums()
    np.fill_diagonal(s, 1.0)
    if family.kind == "binary":
        def sigmoid(x):
            out = np.empty_like(x)
            pos = x >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            out[~pos] = ex / (1.0 + ex)
            return out

        mean, variance = sigmoid(s), sigmoid(s) * sigmoid(-s)
    elif family.kind == "exponential":
        mean, variance = 1.0 / s, s**-2
    elif family.kind == "geometric":
        mean, variance = 1.0 / np.expm1(s), np.exp(-s) / np.expm1(-s) ** 2
    else:
        support = np.arange(family.support_size, dtype=float)
        logits = -s[..., None] * support
        logits -= logits.max(axis=-1, keepdims=True)
        w = np.exp(logits)
        p = w / w.sum(axis=-1, keepdims=True)
        mean = p @ support
        variance = p @ support**2 - mean**2
    np.fill_diagonal(mean, 0.0)
    np.fill_diagonal(variance, 0.0)
    ones = np.ones(theta.n)
    if work.variance is None:
        return _Moments(mean @ ones, ones @ mean, None, None, None, math.nan)
    off = variance[~np.eye(theta.n, dtype=bool)]
    return _Moments(mean @ ones, ones @ mean, variance, variance @ ones, ones @ variance, off.min())


class TestNewtonDiagnostics:
    def test_noise_free_binary_flat(self):
        n = 50
        theta = ParamVector(np.zeros(n), np.zeros(n))
        g = expected_degrees(theta, BINARY)
        diag = newton_diagnostics(theta, g, BINARY)
        assert diag.r == pytest.approx(0.0, abs=1e-12)
        assert diag.contraction_ok
        assert diag.K1 == 49.0
        assert diag.K2 == 24.5

    def test_exponential_constants_formula(self):
        theta = design_params(SimDesign(EXPONENTIAL, 20, 0.0))
        g = expected_degrees(theta, EXPONENTIAL)
        diag = newton_diagnostics(theta, g, EXPONENTIAL)
        # smallest pair sum pairs the offset 1.0 with the pinned in-effect 0,
        # and r = 0 at the noise-free degrees
        margin = 1.0
        assert diag.K1 == pytest.approx(2 * 19 / margin**3, rel=1e-9)
        assert diag.K2 == pytest.approx(19 / margin**3, rel=1e-9)

    def test_geometric_constants_formula(self):
        theta = design_params(SimDesign(GEOMETRIC, 20, 0.0))
        g = expected_degrees(theta, GEOMETRIC)
        diag = newton_diagnostics(theta, g, GEOMETRIC)
        margin = 0.2  # offset paired with the pinned in-effect, r = 0
        eu = math.exp(margin)
        base = 19 * eu * (1 + eu) / (eu - 1) ** 2
        assert diag.K1 == pytest.approx(2 * base, rel=1e-9)
        assert diag.K2 == pytest.approx(base, rel=1e-9)

    def test_margin_failure_reason_code(self):
        theta = design_params(SimDesign(GEOMETRIC, 12, 0.0))
        # a degree sequence far from the design means r is large
        g = BiDegree(np.full(12, 60.0), np.full(12, 60.0))
        diag = newton_diagnostics(theta, g, GEOMETRIC)
        assert not diag.contraction_ok
        assert diag.reason is not None
        assert math.isinf(diag.rho)

    def test_finite_constants_positive(self):
        theta = design_params(SimDesign(FINITE4, 15, 0.5))
        g = bi_degrees(sample_graph(theta, FINITE4, 3))
        diag = newton_diagnostics(theta, g, FINITE4)
        assert 0.0 < diag.K2 < diag.K1 < math.inf

    def test_first_step_norm_scales_like_root_log_over_n(self):
        # Monte-Carlo oracle over 200 seeds: the exact first Newton step at
        # the flat design stays within a small multiple of sqrt(log n / n)
        # (observed median 0.69 at n=100, ~3.2x the rate).
        n = 100
        theta = ParamVector(np.zeros(n), np.zeros(n))
        values = []
        for seed in range(200):
            g = bi_degrees(sample_graph(theta, BINARY, derive_seed(55, seed)))
            values.append(newton_diagnostics(theta, g, BINARY).r)
        rate = math.sqrt(math.log(n) / n)
        assert float(np.median(values)) < 3.5 * rate


def reference_damping(theta, delta, family):
    """The n x n form of ``bidegree.solver._damping``: the largest lambda in
    (0, 1] keeping the smallest off-diagonal pair sum at least half its
    current value, from the whole pair-sum matrix."""
    if not family.positive_pair_sums:
        return 1.0
    n = theta.n
    sums = theta.pair_sums()
    np.fill_diagonal(sums, np.inf)
    dbeta = np.zeros(n)
    dbeta[: n - 1] = delta[n:]
    dsums = delta[:n, None] + dbeta[None, :]
    np.fill_diagonal(dsums, 0.0)
    target = 0.5 * sums.min()
    after = sums + dsums
    if after.min() >= target:
        return 1.0
    shrinking = dsums < 0
    lam = float(np.min((target - sums[shrinking]) / dsums[shrinking]))
    return min(max(lam, 0.0), 1.0)


@st.composite
def damping_cases(draw):
    """Positive rate-family effects (about half of them from three values, so
    minima tie), in half the cases with the smallest alpha and the smallest
    beta on one vertex, and a step of any size, so both the full step and a
    cut one occur.  The effects and the step come from a drawn seed: drawing
    each effect through hypothesis took 60 times as long as the test body."""
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tied = rng.choice([0.05, 0.5, 1.0], (2, n))
    alpha, beta = np.where(rng.random((2, n)) < 0.5, tied, rng.uniform(0.01, 3.0, (2, n)))
    if draw(st.booleans()):
        shared = draw(st.integers(0, n - 1))
        alpha[shared], beta[shared] = alpha.min(), beta.min()
    scale = draw(st.sampled_from([0.01, 0.3, 1.0, 5.0]))
    delta = scale * rng.uniform(-1.0, 1.0, 2 * n - 1)
    return ParamVector(alpha, beta, negated=True), delta


class TestDamping:
    @given(damping_cases(), st.sampled_from([EXPONENTIAL, GEOMETRIC]))
    @settings(max_examples=400, deadline=None)
    def test_matches_full_matrix_formula(self, case, family):
        # Allowed: 1e-12 absolute.  A cut's ratios are the reference's floats,
        # but the full-step test adds (alpha_i + dalpha_i) + (beta_j + dbeta_j)
        # where the reference adds (alpha_i + beta_j) + (dalpha_i + dbeta_j),
        # so a pair tied with the target can fall on either side of it, and
        # near-tied ratios could end the iteration an ulp apart.  In 60,000
        # seeded cases like these the two agreed bit for bit.
        theta, delta = case
        lam = bidegree.solver._damping(theta, delta, family)
        assert lam == pytest.approx(reference_damping(theta, delta, family), rel=0, abs=1e-12)
        assert 0.0 <= lam <= 1.0

    def test_full_and_cut_steps(self):
        theta = ParamVector(np.array([1.0, 0.5, 2.0]), np.array([0.5, 1.0, 0.0]), negated=True)
        small = np.full(5, -0.1)
        assert bidegree.solver._damping(theta, small, GEOMETRIC) == 1.0
        big = np.array([-0.9, -0.4, 0.0, -0.2, -0.6])
        lam = bidegree.solver._damping(theta, big, GEOMETRIC)
        assert 0.0 < lam < 1.0 and lam == reference_damping(theta, big, GEOMETRIC)

    @pytest.mark.parametrize("step, full", [(0.01, True), (2.0, False)])
    def test_allocates_less_than_one_pair_matrix(self, step, full):
        # The whole-matrix reference builds several n x n temporaries; the
        # full-step test and every step of the cut take a few length-n
        # vectors, so both stay within 16 of them (0.016 n x n arrays here).
        n = 1000
        rng = np.random.default_rng(8)
        alpha = rng.uniform(0.5, 2.0, n)
        beta = np.append(rng.uniform(0.5, 2.0, n - 1), 0.0)
        theta = ParamVector(alpha, beta, negated=True)
        delta = -step * rng.uniform(0.0, 1.0, 2 * n - 1)
        tracemalloc.start()
        try:
            lam = bidegree.solver._damping(theta, delta, GEOMETRIC)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (lam == 1.0) == full and lam == reference_damping(theta, delta, GEOMETRIC)
        assert peak < 16 * n * 8

    def test_sign_free_families_take_full_steps(self):
        theta = ParamVector(np.zeros(3), np.zeros(3))
        assert bidegree.solver._damping(theta, np.full(5, -50.0), BINARY) == 1.0


def warm_fit_peak(family, n):
    """Peak traced allocation of a converged default fit of a loglog design
    graph, run once before to warm up, in units of one n x n array."""
    design = design_params(SimDesign(family, n, ramp_magnitude("loglog", n)))
    g = bi_degrees(sample_graph(design, family, 5))
    newton_fit(g, family)
    tracemalloc.start()
    try:
        result = newton_fit(g, family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.converged
    return peak / (n * n * 8)


class TestFitBuffers:
    """A fit's edge passes write into one n x n buffer of variances and one
    row block of means, which it allocates once; nothing that leaves a public
    function may point into them."""

    @pytest.fixture
    def workspaces(self, monkeypatch):
        made = []

        class Recording(bidegree.model._Workspace):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(bidegree.solver, "_Workspace", Recording)
        return made

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.label)
    @pytest.mark.parametrize("step_mode", ["exact", "sapprox"])
    def test_returned_arrays_share_no_memory(self, workspaces, family, step_mode):
        _, g = sampled_instance(family, 30, 11)
        result = newton_fit(g, family, config=FitConfig(step_mode=step_mode))
        assert result.converged and len(workspaces) == 1
        theta = result.theta_hat
        fisher = bidegree.fisher.fisher_info(theta, family)
        at_start = bidegree.fisher.fisher_info(default_start(g, family), family)
        expected = expected_degrees(theta, family)
        arrays = [
            theta.alpha,
            theta.beta,
            bidegree.model.moment_residual(theta, g, family),
            fisher.cross,
            fisher.row_sums,
            fisher.col_sums,
            at_start.cross,
            expected.d,
            expected.b,
            plug_in_variances(theta, family).v_hat_diag,
        ]
        work = workspaces[0]
        # the variances, the block of means and the margin vectors
        buffers = (work.variance, work.means, work.vectors, work.ones)
        for k, array in enumerate(arrays):
            for buffer in buffers:
                assert not np.shares_memory(array, buffer)
            for other in arrays[k + 1 :]:
                assert not np.shares_memory(array, other)

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.label)
    def test_fisher_reuses_variances_only_of_the_same_theta(self, family):
        _, g = sampled_instance(family, 20, 3)
        theta = default_start(g, family)
        other = theta.with_step(np.full(39, 0.01))
        work = bidegree.model._Workspace(20, family)
        bidegree.model.moment_residual(theta, g, family, work=work)
        for point in (theta, other):
            fresh = bidegree.fisher.fisher_info(point, family)
            given_work = bidegree.fisher.fisher_info(point, family, work=work)
            assert np.shares_memory(given_work.cross, work.variance) == (point is theta)
            assert np.array_equal(given_work.cross, fresh.cross)
            assert np.array_equal(given_work.row_sums, fresh.row_sums)
            assert np.array_equal(given_work.col_sums, fresh.col_sums)
            assert given_work.cross_min == fresh.cross_min
            assert given_work.cross_max == fresh.cross_max
        assert work.theta is theta  # fisher_info never writes to the workspace

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.label)
    def test_results_survive_later_fits(self, family):
        _, g = sampled_instance(family, 30, 11)
        _, other = sampled_instance(family, 30, 12)
        theta0 = default_start(g, family)
        diagnostics = newton_diagnostics(theta0, g, family)
        result = newton_fit(g, family)
        kept = (result.theta_hat.alpha.copy(), result.theta_hat.beta.copy(), result.trace)
        newton_fit(other, family)
        assert np.array_equal(result.theta_hat.alpha, kept[0])
        assert np.array_equal(result.theta_hat.beta, kept[1])
        assert result.trace == kept[2]
        assert newton_diagnostics(theta0, g, family) == diagnostics

    @pytest.mark.parametrize(
        "family, bound",
        [(BINARY, 1.6), (FINITE4, 1.6), (GEOMETRIC, 1.6), (EXPONENTIAL, 1.6)],
        ids=["binary", "finite:4", "geometric", "exponential"],
    )
    def test_fit_allocates_one_buffer(self, family, bound):
        # Peak traced allocation of one warm fit below the gate, in units of
        # one n x n array: the variances, one row block of means (0.41 units
        # at 2**16 edges, 0.1 at the finite kernel's 16000), O(n) vectors and
        # the row-block temporaries of the finite kernel.  A damping cut
        # takes only length-n vectors.  They peak at 1.48 (binary), 1.46
        # (finite:4), 1.48 (geometric) and 1.48 (exponential) units.  When
        # the pass built the rate families' pair sums with a broadcasting add,
        # whose ufunc buffers took 129 kB, they peaked at 1.55; with
        # row-block temporaries of the damping cut, at 1.94 and 1.93.  With
        # two n x n buffers, fits peaked at 2.06, 2.35, 2.52 and 2.51; before
        # the buffers, at 3.04, 5.15, 4.92 and 5.06, from a new n x n array
        # per pass and per damping test.
        assert warm_fit_peak(family, bidegree.solver._CLASS_GATE - 1) <= bound

    @pytest.mark.parametrize("n, bound", [(400, 1.1), (1000, 0.35)])
    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.label)
    def test_fits_from_the_gate_keep_no_pair_matrix(self, workspaces, family, n, bound):
        # From the gate on, a fit keeps the variances as a row block too, and
        # each step's Fisher matrix is the low-rank operator built in the two
        # blocks.  Default fits peak at 0.96 (binary), 0.68 (finite:4), 0.96
        # (geometric) and 0.95 (exponential) units at n=400, where each block
        # is 0.41 units (0.16 for finite:4), and at 0.17, 0.25, 0.16 and 0.16
        # at n=1000.  A whole n x n buffer beside the two blocks would take
        # them above 1.3 units at n=400 and 1.1 at n=1000.
        assert warm_fit_peak(family, n) <= bound
        assert workspaces[-1].variance.shape[0] < n

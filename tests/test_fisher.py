import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from bidegree.fisher import (
    ApproxInverse,
    SingularFisherError,
    StructuredFisher,
    apply_approx_inverse,
    approx_error,
    approx_inverse,
    dense_inverse,
    fisher_info,
    materialize,
    materialize_approx,
    solve_structured,
)
from bidegree.fisher import _INTERP_DIGITS, _MAX_NODES, _low_rank_cross, _LowRankCross
from bidegree.model import (
    ParamVector,
    WeightFamily,
    _maths,
    _Workspace,
    bi_degrees,
    moment_residual,
)
from bidegree.sampler import SimDesign, design_params, ramp_magnitude, sample_graph
from bidegree.solver import default_start

BINARY = WeightFamily.binary()
EXPONENTIAL = WeightFamily.exponential()
GEOMETRIC = WeightFamily.geometric()
FINITE4 = WeightFamily.finite(4)


def random_fisher(n, seed, family=GEOMETRIC, low=0.5, high=1.0):
    """Fisher matrix at effects drawn uniformly from [low, high), beta[-1] = 0."""
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(low, high, n)
    beta = np.append(rng.uniform(low, high, n - 1), 0.0)
    return fisher_info(ParamVector(alpha, beta, negated=family.negated), family)


def synthetic_fisher(cross):
    """Build a StructuredFisher directly from a cross block (tests only)."""
    cross = np.asarray(cross, dtype=float)
    off = cross[~np.eye(cross.shape[0], dtype=bool)]
    return StructuredFisher(
        cross=cross,
        row_sums=cross.sum(axis=1),
        col_sums=cross.sum(axis=0),
        cross_min=float(off.min()),
    )


def reference_full_pcg(fisher, rhs):
    """Conjugate gradients on the whole (2n-1) x (2n-1) system, preconditioned
    by the approximate inverse: the step solve before the Schur complement,
    kept as the cost reference.  Each iteration reads ``cross`` twice."""
    n = fisher.n
    precond = approx_inverse(fisher)
    tol = 1e-13 * float(np.abs(rhs).max())
    x = np.zeros_like(rhs)
    if tol == 0.0:
        return x
    r = rhs.copy()
    z = apply_approx_inverse(precond, r)
    p = z
    rz = float(r @ z)
    for _ in range(200):
        padded = np.append(p[n:], 0.0)
        vp = np.empty_like(p)
        vp[:n] = fisher.row_sums * p[:n] + fisher.cross @ padded
        vp[n:] = (fisher.col_sums * padded + p[:n] @ fisher.cross)[: n - 1]
        step = rz / float(p @ vp)
        x += step * p
        r -= step * vp
        if float(np.abs(r).max()) <= tol:
            return x
        z = apply_approx_inverse(precond, r)
        rz_next = float(r @ z)
        p = z + (rz_next / rz) * p
        rz = rz_next
    raise AssertionError("reference conjugate gradients did not converge")


def counting_matvecs(fisher):
    """``fisher`` with a cross block that counts its products with vectors
    (``cross @ v`` and ``v @ cross``, views included), and the count."""
    calls = []

    class CountingArray(np.ndarray):
        def __matmul__(self, other):
            calls.append(1)
            return np.asarray(self) @ np.asarray(other)

        def __rmatmul__(self, other):
            calls.append(1)
            return np.asarray(other) @ np.asarray(self)

    return dataclasses.replace(fisher, cross=fisher.cross.view(CountingArray)), calls


def newton_system(family, rule, n, point):
    """The Fisher matrix and moment residual of a sampled ramp graph, at the
    design parameters or at the graph's warm start."""
    theta = design_params(SimDesign(family, n, ramp_magnitude(rule, n)))
    g = bi_degrees(sample_graph(theta, family, n))
    if point == "start":
        theta = default_start(g, family)
    return fisher_info(theta, family), moment_residual(theta, g, family)


class TestFisherInfo:
    def test_binary_flat_three_vertices(self):
        fisher = fisher_info(ParamVector(np.zeros(3), np.zeros(3)), BINARY)
        expected = 0.25 * (1.0 - np.eye(3))
        assert np.allclose(fisher.cross, expected, atol=1e-15)
        assert np.allclose(fisher.row_sums, 0.5, atol=1e-15)
        assert fisher.cross_min == fisher.cross_max == 0.25

    def test_exponential_unit_pair_sums(self):
        fisher = fisher_info(
            ParamVector(np.ones(4), np.zeros(4), negated=True), EXPONENTIAL
        )
        assert np.allclose(fisher.cross, 1.0 - np.eye(4), atol=1e-15)
        assert np.allclose(fisher.row_sums, 3.0, atol=1e-15)

    def test_geometric_design_per_entry_oracle(self):
        n = 6
        theta = design_params(SimDesign(GEOMETRIC, n, math.log(math.log(n))))
        fisher = fisher_info(theta, GEOMETRIC)
        for i in range(n):
            for j in range(n):
                if i == j:
                    assert fisher.cross[i, j] == 0.0
                    continue
                s = theta.alpha[i] + theta.beta[j]
                direct = math.exp(s) / (math.exp(s) - 1.0) ** 2
                assert fisher.cross[i, j] == pytest.approx(direct, rel=1e-12)

    def test_structural_invariants(self):
        fisher = random_fisher(8, 0)
        assert np.allclose(fisher.row_sums, fisher.cross.sum(axis=1))
        assert np.allclose(fisher.col_sums, fisher.cross.sum(axis=0))
        full = materialize(fisher)
        assert np.array_equal(full, full.T)
        # the implied slack row: corner equals the sum of the dropped column
        assert fisher.corner == pytest.approx(fisher.cross[:, -1].sum(), rel=1e-14)

    def test_positive_definite_small_sizes(self):
        for n, seed in ((3, 1), (10, 2), (20, 3)):
            fisher = random_fisher(n, seed)
            eigenvalues = np.linalg.eigvalsh(materialize(fisher))
            assert eigenvalues.min() > 0.0


    def test_import_leaves_scipy_linalg_unloaded(self):
        # The package's only runtime dependency is numpy: neither an import
        # nor the dense oracle loads any scipy module.
        import os
        import subprocess
        import sys
        from pathlib import Path

        import bidegree

        package_root = str(Path(bidegree.__file__).resolve().parent.parent)
        pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        code = (
            "import sys, bidegree, bidegree.cli\n"
            "theta = bidegree.ParamVector([0.1, 0.2, 0.3], [0.3, 0.2, 0.0])\n"
            "bidegree.dense_inverse(bidegree.fisher_info(theta, bidegree.WeightFamily.binary()))\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded, loaded\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": pythonpath},
        )
        assert result.returncode == 0, result.stderr


class TestApplyApproxInverse:
    def test_zero_vector(self):
        approx = ApproxInverse(np.full(5, 2.0), 2.0)
        assert np.all(apply_approx_inverse(approx, np.zeros(5)) == 0.0)

    def test_hand_example(self):
        # all diagonals 0.5, corner 0.5, x = (1,1,1,-1,-1): slack = 5
        approx = ApproxInverse(np.full(5, 2.0), 2.0)
        out = apply_approx_inverse(approx, np.array([1.0, 1, 1, -1, -1]))
        assert np.allclose(out, [12, 12, 12, -12, -12], atol=1e-14)

    def test_entry_pattern(self):
        # diagonal reciprocals plus the corner weight: +corner inside the
        # out/out and in/in blocks, -corner across them
        fisher = random_fisher(5, 12)
        dense = materialize_approx(approx_inverse(fisher))
        n = 5
        corner = 1.0 / fisher.corner
        diag = np.concatenate([fisher.row_sums, fisher.col_sums[: n - 1]])
        for i in range(2 * n - 1):
            for j in range(2 * n - 1):
                expected = (1.0 / diag[i] if i == j else 0.0) + (
                    corner if (i < n) == (j < n) else -corner
                )
                assert dense[i, j] == pytest.approx(expected, rel=1e-14)

    def test_matches_dense_materialization(self):
        fisher = random_fisher(6, 4)
        approx = approx_inverse(fisher)
        dense = materialize_approx(approx)
        rng = np.random.default_rng(5)
        for _ in range(5):
            x = rng.normal(size=11)
            assert np.allclose(apply_approx_inverse(approx, x), dense @ x, atol=1e-12)

    @given(st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_linearity(self, seed):
        fisher = random_fisher(5, 99)
        approx = approx_inverse(fisher)
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=9), rng.normal(size=9)
        lhs = apply_approx_inverse(approx, x + y)
        rhs = apply_approx_inverse(approx, x) + apply_approx_inverse(approx, y)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_dimension_mismatch(self):
        approx = ApproxInverse(np.full(5, 2.0), 2.0)
        with pytest.raises(ValueError):
            apply_approx_inverse(approx, np.zeros(4))


class TestDenseInverse:
    def test_synthetic_three_by_three_adjugate(self):
        # n=2 shape with hand-set entries (a true Fisher at n=2 is singular)
        fisher = synthetic_fisher([[0.0, 0.3], [0.2, 0.0]])
        full = materialize(fisher)
        full[0, 0], full[1, 1], full[2, 2] = 0.9, 0.8, 0.7
        inv = np.linalg.inv(full)  # adjugate route for a 3x3
        det = np.linalg.det(full)
        adj = inv * det
        assert np.allclose(adj / det, inv, atol=1e-12)
        boosted = StructuredFisher(
            cross=fisher.cross,
            row_sums=np.array([0.9, 0.8]),
            col_sums=np.array([0.7, fisher.col_sums[1]]),
            cross_min=0.2,
        )
        assert np.allclose(dense_inverse(boosted), adj / det, atol=1e-12)

    def test_true_two_vertex_fisher_is_singular(self):
        # with n=2 the three free parameters are not identifiable
        fisher = fisher_info(ParamVector(np.zeros(2), np.zeros(2)), BINARY)
        with pytest.raises(SingularFisherError):
            dense_inverse(fisher)

    @pytest.mark.parametrize(
        "family", [BINARY, EXPONENTIAL, GEOMETRIC, FINITE4], ids=lambda f: f.label
    )
    def test_agrees_with_scipy_at_n50(self, family):
        fisher = random_fisher(50, 10, family)
        full = materialize(fisher)
        want = scipy.linalg.cho_solve(scipy.linalg.cho_factor(full, lower=True), np.eye(99))
        assert np.abs(dense_inverse(fisher) - want).max() <= 1e-12 * np.abs(want).max()

    def test_inverse_symmetric(self):
        inv = dense_inverse(random_fisher(7, 8))
        assert np.allclose(inv, inv.T, atol=1e-12)

    def test_residual_small(self):
        fisher = random_fisher(10, 9)
        inv = dense_inverse(fisher)
        assert np.abs(materialize(fisher) @ inv - np.eye(19)).max() < 1e-8


class TestSolveStructured:
    def test_matches_dense_solve(self):
        fisher = random_fisher(9, 10)
        rng = np.random.default_rng(11)
        rhs = rng.normal(size=17)
        x = solve_structured(fisher, rhs)
        assert np.allclose(materialize(fisher) @ x, rhs, atol=1e-10)

    def test_rhs_length_checked(self):
        with pytest.raises(ValueError):
            solve_structured(random_fisher(5, 1), np.zeros(5))

    @pytest.mark.parametrize(
        "rhs", [[0.25, 0.25, 0.25], [1.0, 0.5, 0.2]], ids=["consistent", "inconsistent"]
    )
    def test_singular_two_vertex_fisher_raises(self, rhs):
        # n=2 leaves three free parameters that are not identifiable; the
        # solve must refuse rather than return one of many solutions or
        # overflow on an inconsistent right-hand side
        fisher = fisher_info(ParamVector(np.zeros(2), np.zeros(2)), BINARY)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularFisherError):
                solve_structured(fisher, np.array(rhs))

    def test_zero_rhs_gives_zero(self):
        assert np.all(solve_structured(random_fisher(6, 3), np.zeros(11)) == 0.0)

    @given(
        family=st.sampled_from([BINARY, EXPONENTIAL, GEOMETRIC, FINITE4]),
        n=st.integers(3, 60),
        width=st.sampled_from([0.5, 2.0, 5.0, 10.0, 15.0]),
        ramp=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_oracle(self, family, n, width, ramp, seed):
        # effects in [low, low + width]: positive for the rate families,
        # centred for the others
        low = 0.05 if family.positive_pair_sums else -width / 2
        if ramp:
            effects = low + width * np.linspace(0.0, 1.0, n)
            fisher = fisher_info(ParamVector(effects, effects, negated=family.negated), family)
        else:
            fisher = random_fisher(n, seed, family, low, low + width)
        rhs = np.random.default_rng(seed).normal(size=2 * n - 1)
        dense = materialize(fisher)
        expected = np.linalg.solve(dense, rhs)
        got = solve_structured(fisher, rhs)
        # wide ramps at small n reach condition numbers ~1e9, where both
        # solves carry forward errors ~cond * eps
        rtol = 1000 * np.finfo(float).eps * np.linalg.cond(dense)
        assert np.abs(got - expected).max() <= rtol * np.abs(expected).max()

    @given(
        family=st.sampled_from([BINARY, EXPONENTIAL, GEOMETRIC, FINITE4]),
        n=st.integers(3, 60),
        width=st.sampled_from([0.5, 2.0, 5.0, 10.0, 15.0]),
        ramp=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_true_residual_meets_stopping_rule(self, family, n, width, ramp, seed):
        # the stopping rule bounds the reduced residual, which is the
        # out-effect block of the full one; the in-effect block vanishes up
        # to rounding.  The check's own product adds rounding of a few
        # eps * |V| |x| (entrywise absolute values).
        low = 0.05 if family.positive_pair_sums else -width / 2
        if ramp:
            effects = low + width * np.linspace(0.0, 1.0, n)
            fisher = fisher_info(ParamVector(effects, effects, negated=family.negated), family)
        else:
            fisher = random_fisher(n, seed, family, low, low + width)
        rhs = np.random.default_rng(seed).normal(size=2 * n - 1)
        x = solve_structured(fisher, rhs)
        dense = materialize(fisher)
        residual = np.abs(rhs - dense @ x).max()
        rounding = 8 * np.finfo(float).eps * (np.abs(dense) @ np.abs(x)).max()
        assert residual <= 1e-13 * np.abs(rhs).max() + rounding

    def test_matches_dense_oracle_on_wide_geometric_ramp(self):
        # pair sums spread over [0.05, 30]: the smallest edge variance is
        # ~1e-13 and V has condition number ~3e10, as ill-conditioned as the
        # fits that march to the divergence bound.  At that conditioning the
        # dense LU solve itself is only accurate to ~1e-8 relative.
        n = 300
        ramp = np.linspace(0.025, 15.0, n)
        theta = ParamVector(ramp + ramp[-1], ramp - ramp[-1], negated=True)
        sums = theta.pair_sums()
        assert sums.min() == pytest.approx(0.05) and sums.max() == pytest.approx(30.0)
        fisher = fisher_info(theta, GEOMETRIC)
        rng = np.random.default_rng(300)
        for _ in range(3):
            rhs = rng.normal(size=2 * n - 1)
            expected = np.linalg.solve(materialize(fisher), rhs)
            got = solve_structured(fisher, rhs)
            assert np.abs(got - expected).max() <= 1e-6 * np.abs(expected).max()


class TestSolveCertification:
    """The Schur complement solve fails with ``SingularFisherError``, never a
    return value, when V is not positive definite."""

    def fisher_and_rhs(self):
        return random_fisher(5, 41), np.random.default_rng(41).normal(size=9)

    def test_nonpositive_row_sum(self):
        fisher, rhs = self.fisher_and_rhs()
        row_sums = fisher.row_sums.copy()
        row_sums[2] = 0.0
        with pytest.raises(SingularFisherError):
            solve_structured(dataclasses.replace(fisher, row_sums=row_sums), rhs)

    @pytest.mark.parametrize("index", [0, 3, -1], ids=["first", "last-kept", "corner"])
    def test_nonpositive_col_sum(self, index):
        fisher, rhs = self.fisher_and_rhs()
        col_sums = fisher.col_sums.copy()
        col_sums[index] = -0.5
        with pytest.raises(SingularFisherError):
            solve_structured(dataclasses.replace(fisher, col_sums=col_sums), rhs)

    def test_indefinite_fisher(self):
        # a positive cross block with diagonals far below its row sums:
        # every diagonal entry is positive, but V is indefinite and the
        # reduced matrix S = D_a - C D_b^{-1} C^T is negative definite
        n = 5
        fisher = synthetic_fisher(1.0 - np.eye(n))
        fisher = dataclasses.replace(fisher, row_sums=np.full(n, 0.5), col_sums=np.full(n, 0.5))
        assert np.linalg.eigvalsh(materialize(fisher)).min() < 0.0
        rhs = np.random.default_rng(5).normal(size=2 * n - 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularFisherError):
                solve_structured(fisher, rhs)


class TestSolveCost:
    """The solve reads ``cross`` fewer times than conjugate gradients on the
    whole system, and never holds an n x n array of its own."""

    @pytest.mark.parametrize("point", ["design", "start"])
    @pytest.mark.parametrize("n", [50, 200])
    @pytest.mark.parametrize(
        "family, rule",
        [(BINARY, "loglog"), (FINITE4, "loglog"), (GEOMETRIC, "sqrtlog"), (EXPONENTIAL, "sqrtlog")],
        ids=lambda v: v.label if isinstance(v, WeightFamily) else v,
    )
    def test_fewer_matvecs_than_full_system(self, family, rule, n, point):
        fisher, rhs = newton_system(family, rule, n, point)
        full, full_calls = counting_matvecs(fisher)
        schur, schur_calls = counting_matvecs(fisher)
        expected = reference_full_pcg(full, rhs)
        got = solve_structured(schur, rhs)
        # the count must see the solve's reads of cross to compare them
        assert 0 < len(schur_calls) < len(full_calls)
        assert np.abs(got - expected).max() <= 1e-11 * np.abs(expected).max()

    def test_allocates_no_n_by_n_array(self):
        n = 1000
        fisher = random_fisher(n, 17)
        rhs = np.random.default_rng(17).normal(size=2 * n - 1)
        solve_structured(fisher, rhs)
        tracemalloc.start()
        try:
            solve_structured(fisher, rhs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * n * n * 8


def cap_half_width(family):
    """Half-width of the interpolation variable's range (alpha, or log(alpha
    + min beta) for the rate families) at which the low-rank cross block
    takes ``_MAX_NODES`` nodes: where the Bernstein ellipse parameter
    ``r + sqrt(1 + r^2)`` of ``r = pole height / half-width`` reaches
    ``10**(_INTERP_DIGITS / _MAX_NODES)``."""
    rho = 10.0 ** (_INTERP_DIGITS / _MAX_NODES)
    return _maths(family).pole_height(family) * 2.0 * rho / (rho * rho - 1.0)


REACH = {"flat": 0.0, "cap": 1.0 - 1e-6, "beyond": 1.0 + 1e-6}


@st.composite
def low_rank_cases(draw):
    """Effects whose interpolation variable spans a drawn share of the range
    at the cap, exactly the cap, just beyond it, or nothing; for the rate
    families the smallest pair sum (the diagonal included) is drawn down
    to 1e-3, near their pole at 0."""
    family = draw(st.sampled_from([BINARY, EXPONENTIAL, GEOMETRIC, FINITE4]))
    n = draw(st.integers(12, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    reach = draw(st.sampled_from(["inside", "inside", "cap", "beyond", "flat"]))
    half = cap_half_width(family) * REACH.get(reach, rng.uniform(0.0, 1.0))
    y = rng.uniform(-half, half, n)
    y[:2] = -half, half
    beta = rng.uniform(-3.0, 3.0, n)
    if family.positive_pair_sums:
        # min beta near 0, so that the smallest pair sums are not the
        # difference of large effects, whose rounding would show
        beta += rng.uniform(-0.2, 0.2) - beta.min()
        gap = 10.0 ** draw(st.floats(-3.0, 0.0))  # min alpha + min beta
        alpha = gap * np.exp(y + half) - beta.min()
    else:
        alpha = y + rng.uniform(-2.0, 2.0)
    return family, ParamVector(rng.permutation(alpha), beta, negated=family.negated), reach


def assert_same_products(cross, dense, seed):
    """Both mat-vecs of ``cross`` against the dense block, within 1e-12 of
    the products' scale ``|dense| |x|``."""
    rng = np.random.default_rng(seed)
    x, p = rng.normal(size=(2, dense.shape[0]))
    for got, want, scale in (
        (cross @ x, dense @ x, np.abs(dense) @ np.abs(x)),
        (p @ cross, p @ dense, np.abs(p) @ np.abs(dense)),
    ):
        assert np.abs(got - want).max() <= 1e-12 * scale.max()


class TestLowRankCross:
    """From the gate on, a fit's cross block is the low-rank operator: its
    mat-vecs agree with the variances' to 1e-12 relative, and past
    ``_MAX_NODES`` nodes the fit reads the whole matrix instead."""

    @given(low_rank_cases(), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_products_match_the_dense_block(self, case, seed):
        family, theta, reach = case
        cross = _low_rank_cross(theta, family)
        if reach == "beyond":
            assert cross is None
            return
        assert cross.shape == (theta.n, theta.n)
        nodes = len(cross.K)
        assert nodes == {"cap": _MAX_NODES, "flat": 1}.get(reach, nodes) <= _MAX_NODES
        assert_same_products(cross, fisher_info(theta, family).cross, seed)

    @pytest.mark.parametrize("family", [BINARY, FINITE4], ids=lambda f: f.label)
    def test_effects_on_the_nodes(self, family):
        # alpha spans [-1, 1], so the nodes are the cosines themselves and
        # every other vertex sits exactly on one
        span = ParamVector([-1.0, 1.0], [0.0, 0.0], negated=family.negated)
        m = len(_low_rank_cross(span, family).K)
        nodes = np.cos((np.arange(m) + 0.5) * (math.pi / m))
        alpha = np.concatenate([[-1.0, 1.0], nodes, np.linspace(-0.9, 0.9, 7)])
        beta = np.random.default_rng(3).uniform(-2.0, 2.0, alpha.size)
        theta = ParamVector(alpha, beta, negated=family.negated)
        cross = _low_rank_cross(theta, family)
        assert len(cross.K) == m
        assert np.array_equal(cross.P[2 : 2 + m], np.eye(m))
        assert_same_products(cross, fisher_info(theta, family).cross, 4)

    @pytest.mark.parametrize("reach", ["cap", "beyond"])
    @pytest.mark.parametrize(
        "family", [BINARY, EXPONENTIAL, GEOMETRIC, FINITE4], ids=lambda f: f.label
    )
    def test_fit_workspace_reads_the_whole_matrix_beyond_the_cap(self, family, reach):
        n = 40
        rng = np.random.default_rng(8)
        half = cap_half_width(family) * REACH[reach]
        y = np.linspace(-half, half, n)
        beta = np.append(rng.uniform(0.1, 1.0, n - 1), 0.0)
        alpha = 0.1 * np.exp(y + half) if family.positive_pair_sums else y
        theta = ParamVector(rng.permutation(alpha), beta, negated=family.negated)
        g = bi_degrees(sample_graph(theta, family, 8))
        work = _Workspace(n, family, variance="block", nodes=_MAX_NODES)
        residual = moment_residual(theta, g, family, work=work)
        fisher = fisher_info(theta, family, work=work)
        dense = fisher_info(theta, family)
        assert np.array_equal(fisher.row_sums, dense.row_sums)
        assert np.array_equal(fisher.col_sums, dense.col_sums)
        assert fisher.cross_min == dense.cross_min
        cross = fisher.cross.block  # what the first product builds
        if reach == "beyond":
            assert isinstance(cross, np.ndarray)
            assert np.array_equal(cross, dense.cross)
        else:
            assert isinstance(cross, _LowRankCross) and len(cross.K) == _MAX_NODES
            assert_same_products(cross, dense.cross, 9)
        step = solve_structured(fisher, residual)
        exact = solve_structured(dense, residual)
        assert np.abs(step - exact).max() <= 1e-10 * np.abs(exact).max()


class TestApproxError:
    def test_two_vertex_synthetic_hand_value(self):
        fisher = StructuredFisher(
            cross=np.array([[0.0, 0.3], [0.2, 0.0]]),
            row_sums=np.array([0.9, 0.8]),
            col_sums=np.array([0.7, 0.6]),
            cross_min=0.2,
        )
        exact = np.linalg.inv(materialize(fisher))
        approx = materialize_approx(approx_inverse(fisher))
        report = approx_error(fisher)
        assert report.max_abs_err == pytest.approx(np.abs(exact - approx).max(), rel=1e-12)
        assert report.bound_shape == pytest.approx(0.09 / 0.008, rel=1e-12)

    def test_error_scale_matches_theory_at_flat_binary(self):
        theta = ParamVector(np.zeros(30), np.zeros(30))
        report = approx_error(fisher_info(theta, BINARY))
        # fitted leading constant should be order one
        assert 0.2 < report.max_abs_err / report.bound_shape < 5.0

    def test_inverse_application_bound(self):
        # inf-norm of V^{-1} x bounded by the approximation-error split with
        # an empirically fitted constant and a safety factor of 2
        fisher = fisher_info(ParamVector(np.zeros(20), np.zeros(20)), BINARY)
        report = approx_error(fisher)
        c1 = report.max_abs_err / report.bound_shape
        inv = dense_inverse(fisher)
        approx = approx_inverse(fisher)
        n = 20
        rng = np.random.default_rng(21)
        for _ in range(1000):
            x = rng.normal(size=2 * n - 1)
            slack = abs(x[:n].sum() - x[n:].sum())
            bound = (
                2 * c1 * (2 * n - 1) * fisher.cross_max**2 * np.abs(x).max()
                / (fisher.cross_min**3 * (n - 1) ** 2)
                + slack / fisher.corner
                + np.max(np.abs(x) * approx.inv_diag)
            )
            assert np.abs(inv @ x).max() <= 2.0 * bound

    def test_dense_guard(self):
        fisher = random_fisher(4, 2)
        big = StructuredFisher(
            cross=np.zeros((5001, 5001)),
            row_sums=np.ones(5001),
            col_sums=np.ones(5001),
            cross_min=1.0,
        )
        with pytest.raises(ValueError):
            materialize(big)
        assert materialize(fisher).shape == (7, 7)

"""Structured Fisher information matrices and their closed-form approximate inverse.

The Fisher matrix of the 2n-1 free parameters is symmetric and diagonally
dominant with a very particular shape: two diagonal blocks plus a positive
cross block of per-edge variances.  We never store the dense (2n-1)^2 array
outside the test oracle; the block structure is the representation, which
makes a mat-vec O(n^2) and applying the approximate inverse O(n).

The approximate inverse replaces ``V^{-1}`` by reciprocals of V's diagonal
plus a rank-one-style correction ``1/corner`` attached to the eliminated
in-effect of the last vertex; its entrywise error decays like
``max_offdiag^2 / (min_offdiag^3 * (n-1)^2)`` for well-behaved parameter
sequences, which :func:`approx_error` lets callers measure directly.

:func:`fisher_info` takes the matrix from one edge pass, which sums the
variances' margins and finds their smallest entry block by block.  In a fit
that is the accepted trial's residual pass, whose results wait in the fit's
workspace.  Below ``solver._CLASS_GATE`` the workspace keeps the variances
whole, and they are the cross block, so the build is O(n).  From the gate
on it keeps them only as a row block, and the cross block is a
:class:`_LowRankCross`: the variances interpolated at m Chebyshev nodes
(Berrut & Trefethen 2004), as in the black-box fast multipole method (Fong &
Darve 2009), a rank-m product less its diagonal, built in O(n m) in the
workspace's blocks on a step's first product (approximate steps read only
the margins).  A fit then holds no n x n array, unless a step needs more
than ``_MAX_NODES`` nodes.  The largest variance is scanned only when
:attr:`StructuredFisher.cross_max` is read, which needs the dense block.

The exact solve :func:`solve_structured` eliminates the in-effects, whose
block of V is diagonal, and runs conjugate gradients on the n x n Schur
complement of that block, preconditioned by the out-effect block of the
approximate inverse.  The complement is never formed: an iteration takes two
mat-vecs with the cross block, so the solve costs O(n^2) per Newton step
(O(n m) with the low-rank block) and needs fewer iterations than the same
method on the whole system.  :func:`materialize` and :func:`dense_inverse`
build the dense matrix and its inverse; they are the test oracle and serve
:func:`approx_error`, and nothing else in the package factors or solves a
dense matrix.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import (
    ParamVector,
    WeightFamily,
    _maths,
    _pair_moments,
    _Workspace,
    validate_params,
)

__all__ = [
    "ApproxError",
    "ApproxInverse",
    "SingularFisherError",
    "StructuredFisher",
    "apply_approx_inverse",
    "approx_error",
    "approx_inverse",
    "dense_inverse",
    "fisher_info",
    "materialize",
    "materialize_approx",
    "solve_structured",
]

DENSE_GUARD = 5000

# Conjugate-gradient stopping rule of ``solve_structured``: relative inf-norm
# residual tolerance and iteration budget.  On the reduced system,
# preconditioned by the approximate inverse, the iteration needs 4-7 steps on
# fits, including the ill-conditioned ones that march to the divergence bound.
_CG_RTOL = 1e-13
_CG_MAX_ITER = 200

# The low-rank cross block: the most Chebyshev nodes it may take (a step
# that needs more reads the whole matrix), and the decades its nodes are
# chosen to gain.  The count is ``_INTERP_DIGITS * log(10) / log(rho)`` for
# the Bernstein ellipse of parameter ``rho`` that reaches the variance's
# nearest pole; it put the interpolation error within 1e-15 of each
# column's largest variance for every family, across pole distances and
# ranges of alpha.
_MAX_NODES = 64
_INTERP_DIGITS = 16


class SingularFisherError(RuntimeError):
    """The Fisher matrix is not positive definite or its solve failed.

    Raised for degenerate inputs; ``newton_fit`` turns it into a verdict.
    """


@dataclass(frozen=True)
class StructuredFisher:
    """Fisher information stored by its block structure.

    ``cross[i, j]`` is the variance of edge (i, j) (zero diagonal): an n x n
    array, or inside a fit from ``solver._CLASS_GATE`` on a
    :class:`_LowRankCross`, which offers only its shape and mat-vecs.
    ``row_sums[i]`` is the alpha-block diagonal, ``col_sums[j]`` the
    beta-block diagonal for j < n-1; ``col_sums[-1]`` is the corner weight
    attached to the eliminated in-effect of vertex n.
    """

    cross: np.ndarray
    row_sums: np.ndarray
    col_sums: np.ndarray
    cross_min: float

    @property
    def n(self) -> int:
        return self.cross.shape[0]

    @property
    def cross_max(self) -> float:
        """The largest variance, scanned when read: only the diagnostics need
        it, and only a dense ``cross`` has it."""
        return float(self.cross.max())

    @property
    def corner(self) -> float:
        return float(self.col_sums[-1])


@dataclass(frozen=True)
class ApproxInverse:
    """Closed-form surrogate for the inverse Fisher matrix.

    ``inv_diag`` holds the 2n-1 diagonal reciprocals; ``inv_corner`` the
    reciprocal corner weight that enters with sign +1 on out-effect
    coordinates and -1 on in-effect coordinates.
    """

    inv_diag: np.ndarray
    inv_corner: float


@dataclass(frozen=True)
class ApproxError:
    max_abs_err: float
    bound_shape: float


class _LowRankCross:
    """The cross block as the rank-m product ``P @ K`` less its diagonal.

    ``K[k, j] = v(x_k + beta_j)`` holds the edge variances at m Chebyshev
    nodes ``x_k`` spanning ``[min alpha, max alpha]`` (spaced as
    :func:`_low_rank_cross` says), ``P[i, k]`` the barycentric weights that
    interpolate them at ``alpha_i`` (Berrut & Trefethen 2004), and ``dv[i] =
    v(alpha_i + beta_i)`` the diagonal, which the product includes and the
    block does not.  A mat-vec costs O(n m) instead of O(n^2).
    ``__array_ufunc__ = None`` makes numpy hand ``p @ cross`` to
    :meth:`__rmatmul__`.
    """

    __array_ufunc__ = None

    def __init__(self, P: np.ndarray, K: np.ndarray, dv: np.ndarray) -> None:
        self.P, self.K, self.dv = P, K, dv
        self.shape = (dv.size, dv.size)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.P @ (self.K @ x) - self.dv * x

    def __rmatmul__(self, p: np.ndarray) -> np.ndarray:
        return (p @ self.P) @ self.K - p * self.dv


def _node_count(y: np.ndarray, family: WeightFamily) -> int:
    """Chebyshev nodes that interpolate every column of the cross block over
    the range of its interpolation variable ``y``.

    The error decays like ``rho**-m`` for the largest Bernstein ellipse
    around the range on which the variance is analytic (Trefethen 2013,
    Thm 8.2).  A pole at height ``eta`` above the real axis, worst placed
    above the middle of a range of half-width h, gives ``rho = eta/h +
    sqrt(1 + (eta/h)^2)``.
    """
    half = 0.5 * float(y.max() - y.min())
    if half == 0.0:
        return 1
    ratio = _maths(family).pole_height(family) / half
    rho = ratio + math.sqrt(1.0 + ratio * ratio)
    return max(1, math.ceil(_INTERP_DIGITS * math.log(10.0) / math.log(rho)))


def _low_rank_cross(
    theta: ParamVector, family: WeightFamily, work: _Workspace | None = None
) -> _LowRankCross | None:
    """The cross block at ``theta`` as a :class:`_LowRankCross`, or None when
    it needs more than ``_MAX_NODES`` nodes.

    The columns are interpolated in ``y = alpha``, or for the rate families
    in ``y = log(alpha + min beta)``: their pole at pair sum 0 then lies at
    ``y = -inf``, and the nodes crowd towards the smallest pair sums, where
    the variances vary fastest.  (A rate-family range that reaches the pole
    takes the whole matrix.)  One call of the family's kernel evaluates K
    and dv.  Given a fit's workspace, whose passes keep only blocks, the
    operator lives in the blocks until the next pass: the block of means
    holds the pair sums, then P, and the block of variances K and dv.
    Otherwise its arrays are new.
    """
    n = theta.n
    alpha, beta = theta.alpha, theta.beta
    y = alpha
    if family.positive_pair_sums:
        shift = float(beta.min())
        y = alpha + shift
        if not y.min() > 0.0:
            return None
        y = np.log(y)
    m = _node_count(y, family)
    if m > _MAX_NODES:
        return None
    if work is None:
        pairs, values = np.empty((m + 1) * n), np.empty((m + 1) * n)
    else:
        pairs, values = work.means.reshape(-1), work.variance.reshape(-1)
    sums = pairs[: (m + 1) * n].reshape(m + 1, n)
    out = values[: (m + 1) * n].reshape(m + 1, n)
    angles = (np.arange(m) + 0.5) * (math.pi / m)
    nodes = np.cos(angles)  # first kind, on [-1, 1]
    lo, hi = float(y.min()), float(y.max())
    centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    points = centre + half * nodes
    # the pair sums of the nodes and of the diagonal, filled as the edge pass
    # fills its blocks; the rate families' node pair sums add two positive
    # terms, exp(y_k) and beta_j - min beta, so they keep full relative
    # accuracy however close to 0 they come
    if family.positive_pair_sums:
        np.exp(points, out=points)
        np.subtract(beta, shift, out=out[m])
        np.copyto(out[:m], out[m])
    else:
        np.copyto(out[:m], beta)
    np.copyto(sums[:m], points[:, None])
    np.add(sums[:m], out[:m], out=sums[:m])
    np.add(alpha, beta, out=sums[m])
    _maths(family).moments(family, sums, out)
    P = pairs[: n * m].reshape(n, m)
    if m == 1:  # y is constant, or its range below rounding: K's row is the block's
        P.fill(1.0)
        return _LowRankCross(P, out[:m], out[m])
    weights = np.sin(angles)
    weights[1::2] *= -1.0
    t = (y - centre) / half
    np.subtract.outer(t, nodes, out=P)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(1.0, P, out=P)
        scale = P @ weights
        P *= weights
        P /= scale[:, None]
    for i in np.flatnonzero(~np.isfinite(scale)):  # y_i is a node
        P[i] = t[i] == nodes
    return _LowRankCross(P, out[:m], out[m])


class _DeferredCross:
    """A fit step's cross block, built on its first product: a
    :class:`_LowRankCross` in the workspace's blocks or, beyond
    ``_MAX_NODES`` nodes, new variances from a pass made here."""

    __array_ufunc__ = None

    def __init__(self, theta: ParamVector, family: WeightFamily, work: _Workspace) -> None:
        self.shape = (theta.n, theta.n)
        self.args = (theta, family, work)

    @functools.cached_property
    def block(self):
        theta, family, work = self.args
        cross = _low_rank_cross(theta, family, work)
        if cross is None:
            cross = _pair_moments(theta, family, _Workspace(theta.n, family)).variance
        return cross

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.block @ x

    def __rmatmul__(self, p: np.ndarray) -> np.ndarray:
        return p @ self.block


def fisher_info(
    theta: ParamVector, family: WeightFamily, work: _Workspace | None = None
) -> StructuredFisher:
    """Build the structured Fisher matrix at ``theta``.

    The sign convention follows the storage orientation, so the returned
    matrix is positive for every family.

    ``work`` is the fitting loop's workspace.  When its last pass evaluated
    this very ``theta`` (the accepted trial's :func:`moment_residual`), that
    pass's margins and minimum are the matrix's, valid until the workspace's
    next pass; so is its cross block, which is the pass's variances when the
    workspace keeps them whole (the build is O(n)), and otherwise a
    :class:`_DeferredCross`, built on its first product in O(n m).  Without
    such a workspace the same pass runs here into new arrays.
    """
    validate_params(theta, family)
    if work is not None and work.theta is theta:
        moments = work.last
        cross = moments.variance
        if cross is None:  # a block workspace
            cross = _DeferredCross(theta, family, work)
    else:
        moments = _pair_moments(theta, family, _Workspace(theta.n, family))
        cross = moments.variance
    return StructuredFisher(
        cross=cross,
        row_sums=moments.var_rows,
        col_sums=moments.var_cols,
        cross_min=moments.cross_min,
    )


def approx_inverse(fisher: StructuredFisher) -> ApproxInverse:
    n = fisher.n
    diag = np.concatenate([fisher.row_sums, fisher.col_sums[: n - 1]])
    if np.any(diag <= 0.0) or fisher.corner <= 0.0:
        raise SingularFisherError("Fisher diagonal has nonpositive entries")
    return ApproxInverse(inv_diag=1.0 / diag, inv_corner=1.0 / fisher.corner)


def apply_approx_inverse(approx: ApproxInverse, x: np.ndarray) -> np.ndarray:
    """Apply the approximate inverse to a vector in O(n)."""
    x = np.asarray(x, dtype=float)
    if x.shape != approx.inv_diag.shape:
        raise ValueError(f"vector length {x.size} does not match {approx.inv_diag.size}")
    n = (x.size + 1) // 2
    slack = x[:n].sum() - x[n:].sum()
    out = x * approx.inv_diag
    out[:n] += slack * approx.inv_corner
    out[n:] -= slack * approx.inv_corner
    return out


def materialize(fisher: StructuredFisher) -> np.ndarray:
    """Dense (2n-1) x (2n-1) matrix; test oracle and :func:`approx_error` only."""
    n = fisher.n
    if n > DENSE_GUARD:
        raise ValueError(f"refusing to materialize a dense matrix for n={n} > {DENSE_GUARD}")
    full = np.zeros((2 * n - 1, 2 * n - 1))
    full[:n, :n] = np.diag(fisher.row_sums)
    full[n:, n:] = np.diag(fisher.col_sums[: n - 1])
    full[:n, n:] = fisher.cross[:, : n - 1]
    full[n:, :n] = fisher.cross[:, : n - 1].T
    return full


def materialize_approx(approx: ApproxInverse) -> np.ndarray:
    size = approx.inv_diag.size
    n = (size + 1) // 2
    sign = np.concatenate([np.ones(n), -np.ones(n - 1)])
    return np.diag(approx.inv_diag) + approx.inv_corner * np.outer(sign, sign)


def dense_inverse(fisher: StructuredFisher) -> np.ndarray:
    """Exact inverse ``L^-T L^-1`` from the Cholesky factor L of the dense matrix."""
    full = materialize(fisher)
    try:
        inv_factor = np.linalg.solve(np.linalg.cholesky(full), np.eye(full.shape[0]))
    except np.linalg.LinAlgError as exc:
        raise SingularFisherError(f"Fisher matrix is not positive definite: {exc}") from exc
    return inv_factor.T @ inv_factor


def solve_structured(fisher: StructuredFisher, rhs: np.ndarray) -> np.ndarray:
    """Solve ``V x = rhs`` by conjugate gradients on the Schur complement of
    the in-effect block, preconditioned by the closed-form approximate inverse.

    With ``C = cross[:, :n-1]``, ``D_a = diag(row_sums)`` and
    ``D_b = diag(col_sums[:n-1])``, eliminating the in-effects leaves
    ``S x_a = rhs_a - C D_b^{-1} rhs_b`` with ``S = D_a - C D_b^{-1} C^T``,
    which is never formed; then ``x_b = D_b^{-1} (rhs_b - C^T x_a)``.  The
    preconditioner is the out-effect block of the approximate inverse,
    ``D_a^{-1} + 11^T / corner``.  Each iteration costs the two mat-vecs of
    one block mat-vec (``p @ cross`` and ``cross @ w``), and ``x_b`` is
    accumulated from the vectors ``w = D_b^{-1} C^T p`` the iteration already
    computes, so only the reduced right-hand side costs an extra mat-vec.
    The reduced residual is the out-effect block of the full residual (its
    in-effect block is zero by construction); the iteration stops at
    ``|r|_inf <= 1e-13 |rhs|_inf``.  Raises :class:`SingularFisherError` when
    V is not positive definite (given ``D_b > 0``, S is positive definite iff
    V is), or when the iteration breaks down or exhausts its budget.
    """
    rhs = np.asarray(rhs, dtype=float)
    n = fisher.n
    if rhs.shape != (2 * n - 1,):
        raise ValueError(f"rhs length {rhs.size} does not match 2n-1 = {2 * n - 1}")
    # For n >= 3 with every off-diagonal variance positive, V is irreducibly
    # diagonally dominant: every diagonal entry is at least its row's
    # off-diagonal sum, strictly more on the out-effect rows i < n-1 (which
    # also carry the variance of the eliminated in-effect), and the positive
    # cross block links every out-effect to every kept in-effect.  With a
    # positive diagonal that makes V symmetric positive definite.  At n = 2,
    # or with a vanishing variance, V can be singular, and conjugate
    # gradients would return an answer or overflow instead of failing.
    if n < 3 or not fisher.cross_min > 0.0:
        raise SingularFisherError(
            f"Fisher matrix is not certified positive definite "
            f"(n={n}, min off-diagonal variance {fisher.cross_min:.3g})"
        )
    precond = approx_inverse(fisher)  # rejects a nonpositive diagonal or corner
    inv_out, inv_in = precond.inv_diag[:n], precond.inv_diag[n:]
    cross = fisher.cross
    tol = _CG_RTOL * float(np.abs(rhs).max())
    x = np.zeros_like(rhs)
    if tol == 0.0:
        return x
    x_out, x_in = x[:n], x[n:]
    np.multiply(rhs[n:], inv_in, out=x_in)
    r = rhs[:n] - cross @ np.append(x_in, 0.0)  # pad the eliminated in-effect with zero
    if float(np.abs(r).max()) <= tol:
        return x
    z = r * inv_out + r.sum() * precond.inv_corner
    p = z
    rz = float(r @ z)
    for _ in range(_CG_MAX_ITER):
        w = p @ cross
        w[: n - 1] *= inv_in
        w[-1] = 0.0
        sp = fisher.row_sums * p - cross @ w
        curvature = float(p @ sp)
        if not (math.isfinite(curvature) and curvature > 0.0):
            raise SingularFisherError(f"conjugate gradients broke down (p'Sp = {curvature:.3g})")
        step = rz / curvature
        x_out += step * p
        x_in -= step * w[: n - 1]
        r -= step * sp
        if float(np.abs(r).max()) <= tol:
            return x
        z = r * inv_out + r.sum() * precond.inv_corner
        rz_next = float(r @ z)
        p = z + (rz_next / rz) * p
        rz = rz_next
    raise SingularFisherError(f"conjugate gradients did not converge in {_CG_MAX_ITER} iterations")


def approx_error(fisher: StructuredFisher) -> ApproxError:
    """Entrywise gap between the exact and approximate inverses.

    ``bound_shape`` is the scale term ``max^2 / (min^3 (n-1)^2)`` so callers
    can estimate the unknown leading constant empirically instead of
    hard-coding one.
    """
    exact = dense_inverse(fisher)
    approx = materialize_approx(approx_inverse(fisher))
    gap = float(np.max(np.abs(exact - approx)))
    shape = fisher.cross_max**2 / (fisher.cross_min**3 * (fisher.n - 1) ** 2)
    return ApproxError(max_abs_err=gap, bound_shape=float(shape))

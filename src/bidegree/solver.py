"""Newton-Raphson fitting of the bi-degree MLE with existence detection.

The likelihood equations say the fitted expected degrees must reproduce the
observed ones, i.e. the moment residual ``F`` vanishes at the MLE.  One
Newton loop serves both step engines: an exact step solves the structured
Fisher system (conjugate gradients on the Schur complement of the in-effect
block, preconditioned by the approximate inverse, O(n^2) per step); sapprox
takes cheap approximate-inverse steps until they stall or meet the
tolerance, then exact ones.  Only an exact step ends a fit on a tolerance.

Each trial step costs one pass over the edges: the residual pass also
leaves the edge variances' margins and their minimum in the fit's workspace,
and the accepted trial's pass is the next step's Fisher matrix.  Below
``_CLASS_GATE`` the workspace (one n x n buffer of variances, one row block
of means and a few vectors, allocated once per fit) keeps the variances
whole.  From the gate on it keeps them as a row block too, and the Fisher
matrix's cross block is the low-rank operator of :mod:`bidegree.fisher`,
built in the workspace's two blocks, so such a fit keeps no n x n array; a
step whose operator would need more than ``fisher._MAX_NODES`` nodes reads
a whole matrix made for it.  Step damping for the positive-rate families
reads no n x n array: it finds the smallest pair sum in O(n), once for the
full step and once per step of Dinkelbach's iteration when it has to cut it.

A default fit (no ``theta0``) that passes the existence screen refines the
closed-form ``default_start`` before Newton.  The likelihood equations make
each fitted effect a monotone function of its own degree, and for the other
side's effects fixed they are one equation in one unknown per vertex, so
sweeps that solve each side's equations against the other side's effects
(the fixed-point idea of Chatterjee, Diaconis & Sly 2011) approach the MLE.

From ``_SWEEP_GATE`` to below ``_CLASS_GATE`` the sweeps run at vertex
resolution.  Against effects o of the other side every row's equation
reads one function, ``G(x) = sum_j mu(x + o_j)`` less the row's own
diagonal term, so a half-sweep tabulates G at 16 Chebyshev nodes with one
kernel call (the node table of the low-rank Fisher operator), reads it on a
fixed grid, and solves every row at once by inverting that monotone table,
in O(n m).  Three sweeps bring geometric n=200 fits from 8 Newton
iterations to 3, and the fit then takes exact steps in either step mode.
From ``_CLASS_GATE`` on the start is the degree-class model instead: the
model with effects constant on six quantile classes of out-degree and six
of in-degree already fixes the MLE closely.  That 11-parameter model is
solved by sweeps of a bracketed-Newton row solver, then interpolated back
to the vertices in degree; the vertices outside the classes' mean degrees
get an exact solve of their own equation, by the same row solver.  Fits
then start inside Newton's quadratic range (binary n=1000 fits take 4 edge
passes instead of 6).  The stage costs O(n log n) and reads no n x n
array.  On any failure of either refinement the fit starts from
``default_start``.  Smaller fits, where the sweeps cost more than the
iterations they save, and fits given a ``theta0`` start where they did.
``FitResult.start`` says which start a fit took.

The MLE exists iff the observed bi-degree sequence lies in the interior of
the mean polytope, and is then unique.  Interior membership has no practical
test, but its failure has an observable signature: the iterates run off to
infinity.  ``newton_fit`` combines a cheap coordinate-boundary screen with
that divergence heuristic.  Past the screen, every stop of the iteration
(residual or step tolerance, a non-finite residual, stagnation beyond the
divergence bound, a singular Fisher matrix, the budget) just ends the loop,
and one rule classifies the iterate the fit ends on: NonExistent if
``|theta|_inf`` exceeds the bound, else Exists if the residual is within
tolerance, else Undetermined.

The warm start and the contraction diagnostics take the family's inverse
mean and smoothness constants from its record in :mod:`bidegree.model`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .fisher import (
    _MAX_NODES,
    SingularFisherError,
    apply_approx_inverse,
    approx_inverse,
    fisher_info,
    solve_structured,
)
from .model import (
    BiDegree,
    InvalidParameterError,
    ParamVector,
    WeightFamily,
    _add_margins,
    _barycentric,
    _maths,
    _min_pair_sum,
    _node_table,
    _Workspace,
    edge_mean,
    edge_moments,
    moment_residual,
    validate_params,
)

__all__ = [
    "Existence",
    "Feasibility",
    "FitConfig",
    "FitResult",
    "NewtonDiagnostics",
    "default_start",
    "existence_check",
    "newton_diagnostics",
    "newton_fit",
]


class Existence(enum.Enum):
    EXISTS = "exists"
    NON_EXISTENT = "nonexistent"
    UNDETERMINED = "undetermined"


class Feasibility(enum.Enum):
    FEASIBLE = "feasible"
    BOUNDARY = "boundary"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class FitConfig:
    """Solver knobs.  ``tol_residual=None`` means ``1e-10 * (n - 1)``.

    The step tolerance and the divergence bound are the module constants
    ``_TOL_STEP`` and ``_DIVERGENCE_BOUND``: no caller tunes them.

    ``step_mode`` is "exact" (the Fisher system solved to 1e-13 relative
    residual by conjugate gradients on the Schur complement of the in-effect
    block, preconditioned by the approximate inverse, O(n^2) per step) or
    "sapprox" (relaxed approximate inverse steps, O(n) each after the
    O(n^2) edge pass, until the residual meets the tolerance or is above half
    its value two steps earlier; exact steps from then on, in the same loop
    and under the same budget).  A fit that starts from the vertex sweeps
    takes exact steps in either mode.
    """

    step_mode: str = "exact"
    tol_residual: float | None = None
    max_iter: int = 100

    def __post_init__(self) -> None:
        if self.step_mode not in ("exact", "sapprox"):
            raise ValueError(f"step_mode must be 'exact' or 'sapprox', got {self.step_mode!r}")
        if self.tol_residual is not None and self.tol_residual <= 0:
            raise ValueError("tol_residual must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class FitResult:
    theta_hat: ParamVector
    converged: bool
    existence: Existence
    iterations: int
    residual_norm_inf: float
    trace: tuple[tuple[float, float], ...] = field(default_factory=tuple)
    """Per-iteration pairs (residual inf-norm before the step, step inf-norm)."""
    start: str = "closed_form"
    """Where the iteration started: ``"given"`` (the caller's ``theta0``),
    ``"closed_form"`` (:func:`default_start`), ``"sweeps"`` (the closed form
    refined by vertex sweeps) or ``"class"`` (the degree-class stage)."""
    start_sweeps: int = 0
    """The vertex sweeps the start took; 0 unless ``start == "sweeps"``."""


@dataclass(frozen=True)
class NewtonDiagnostics:
    """Contraction certificate pieces for a Newton run started at ``theta0``.

    ``r`` is the exact first-step norm; ``K1``/``K2`` are family-specific
    smoothness constants; ``rho`` assembles them with a configurable leading
    constant.  ``contraction_ok`` (rho * r < 1/2) is advisory only.
    """

    r: float
    rho: float
    K1: float
    K2: float
    contraction_ok: bool
    reason: str | None = None


# The approximate inverse responds to the flat all-ones direction with an
# exact factor 2 (V S e = 2e), so a unit approximate step is marginally
# oscillatory on that mode; relaxing it by 2/3 turns every mode into a
# contraction (spectrum of I - (2/3) V S lies in [-1/3, 1)).
_SAPPROX_RELAX = 2.0 / 3.0

# Stability cap on the step inf-norm.  Inactive near a solution; during
# divergence it turns the blow-up into a steady march that the divergence
# heuristic can classify.
_MAX_STEP = 5.0

# A step shorter than this in the inf-norm ends the fit.
_TOL_STEP = 1e-10

# Iterates with ``|theta|_inf`` beyond this bound are taken to run off to a
# boundary point of the mean polytope: such a fit is NonExistent.
_DIVERGENCE_BOUND = 30.0

# The class stage of a default fit: degree classes per side, the smallest n
# it runs at, its sweep budget and relative residual tolerance, and the
# budget and step tolerance of the row solver.  Six
# classes bring the design fits into Newton's quadratic range; eight save one
# iteration more on binary and exponential n=1000 loglog designs (3 instead
# of 4), and twelve on sqrtlog designs too (``scripts/start_sweep.py
# --classes``).  Eight would make binary n=1000 fits twice as fast as before
# the low-rank cross block, and ``perfbench``'s loop, which keeps every fit it
# makes, then peaks 10% higher in memory, so the count stays at six.  The
# gate keeps a margin above the n at which binary fits, whose iterations are
# cheapest, break even: between 300 and 350 in ``scripts/start_sweep.py``,
# where the other families gain from 300 on.  From the gate on, fits also
# take the low-rank Fisher cross block and keep no n x n array.
# The class model only approximates the vertex model, so its own solve need
# not be tight: design fits took the same iterations with tolerances from
# 1e-7 to 1e-3.
_CLASSES = 6
_CLASS_GATE = 400
_CLASS_ITER = 10
_CLASS_RTOL = 1e-4
_ROW_ITER = 30
_ROW_TOL = 1e-4

# The vertex sweeps of a default fit below the class gate: the smallest n
# they run at, their budget, the Chebyshev nodes of a row table and the
# points of its fixed grid, with the read-only barycentric matrix that reads
# G there.  The gate is set from ``scripts/start_sweep.py``: from n = 150 on,
# fits from the swept start took 0.63-0.98 of the time of fits from the
# closed form on the loglog and sqrtlog designs of every family, and the
# zero-rule designs, whose closed-form fits take only 4-5 iterations, broke
# even (0.75-1.1); at n = 100-120 binary zero-rule fits took 1.2-1.3.  A
# fourth sweep saved 0.4 iterations more on geometric n=200 sqrtlog fits but
# cost more than it saved.  A grid of 1025 points took binary and finite:4
# n=200 loglog fits to 2 iterations where one of 129 or 257 left 3, for
# about 0.1 ms more per start.  The sweeps stop on the class model's
# relative tolerance, ``_CLASS_RTOL``: 1e-3 gave the same fits, and 1e-2
# stopped the rate families' sweeps early and cost them an iteration.
_SWEEP_GATE = 150
_SWEEP_ITER = 3
_SWEEP_NODES = 16
_GRID = np.linspace(-1.0, 1.0, 1025)
_GRID_WEIGHTS = _barycentric(_GRID, _SWEEP_NODES, np.empty((_GRID.size, _SWEEP_NODES)))
_GRID_WEIGHTS.flags.writeable = False


# ---------------------------------------------------------------------------
# feasibility screen and warm start


def existence_check(g: BiDegree, family: WeightFamily) -> Feasibility:
    """Fast necessary screen on coordinate bounds of the mean polytope.

    Feasible is necessary, not sufficient; the final verdict comes from the
    Newton run.  Degrees outside the closed support range are Infeasible,
    degrees on its boundary (e.g. an isolated or saturated vertex) Boundary.
    """
    hi = family.max_weight * (g.n - 1)
    values = np.concatenate([g.d, g.b])  # finite; hi is inf for the rate families
    if np.any(values < 0) or np.any(values > hi):
        return Feasibility.INFEASIBLE
    if np.any(values == 0) or np.any(values == hi):
        return Feasibility.BOUNDARY
    return Feasibility.FEASIBLE


def default_start(g: BiDegree, family: WeightFamily) -> ParamVector:
    """Moment-matched warm start with ``beta[-1] = 0``, through the family's
    inverse mean.

    Bounded families: the inverse mean of ``degree / (n-1)`` clipped to the
    largest weight times ``[1/(2(n-1)), 1 - 1/(2(n-1))]``, in-effects
    re-centred on vertex n.  Rate families: half the inverse mean of
    ``max(degree, 1/2) / (n-1)`` per side, with the re-centring shift moved
    into alpha so every pair sum stays positive.  (Geometric pair sums from
    the exponential inverse would underflow the variances and stall fits.)
    """
    nm1 = g.n - 1
    inverse_mean = _maths(family).inverse_mean
    alpha, beta = (inverse_mean(family, _clipped(family, x / nm1, nm1)) for x in (g.d, g.b))
    return _closed_form(family, alpha, beta)


def _clipped(family: WeightFamily, means: np.ndarray, nm1: int) -> np.ndarray:
    """The edge means per vertex whose inverse means :func:`default_start` takes."""
    if family.positive_pair_sums:
        return np.maximum(means, 0.5 / nm1)
    top, lo = family.max_weight, 1.0 / (2.0 * nm1)
    return np.clip(means, top * lo, top * (1.0 - lo))


def _closed_form(family: WeightFamily, alpha: np.ndarray, beta: np.ndarray) -> ParamVector:
    """:func:`default_start` from the inverse means of both sides."""
    if family.positive_pair_sums:
        alpha, beta = 0.5 * alpha, 0.5 * beta
        return ParamVector(alpha + beta[-1], beta - beta[-1], negated=True)
    return ParamVector(alpha, beta - beta[-1], negated=family.negated)


# ---------------------------------------------------------------------------
# vertex sweeps: the start of a default fit from n = _SWEEP_GATE to _CLASS_GATE


class _RowTable(NamedTuple):
    """One side's rows against the other side's effects: each row's bracket
    ``[lo, hi]``; the row-sum function ``G`` at the grid points ``y`` of the
    interpolation variable (increasing), or None where it is not strictly
    monotone, with the shift of the rate families' ``x = exp(y) - shift``;
    the edge mean and variance of each row's own diagonal pair sum at the
    effects the table was made for (views of the buffers the next table
    overwrites); and the row ``k`` whose diagonal term is its largest, with
    ``Gk``, G less that term."""

    lo: np.ndarray
    hi: np.ndarray
    y: np.ndarray
    G: np.ndarray | None
    shift: float
    own_mean: np.ndarray
    own_var: np.ndarray
    k: int
    Gk: np.ndarray


def _row_table(
    family: WeightFamily,
    centres: np.ndarray,
    floors: np.ndarray | None,
    x: np.ndarray,
    other: np.ndarray,
    buffers: tuple[np.ndarray, ...],
) -> _RowTable:
    """The table of ``G(x) = sum_j mu(x + other_j)`` for the rows with
    effects ``x`` and bracket centres ``centres``.

    With ``o`` row i's other effects ``other_j``, ``j != i``, its root lies
    in ``[centres_i - max o, centres_i - min o]`` (as in
    :func:`_row_effects`), and for the rate families at or above ``floors_i
    - min o``: the row's smallest pair sum has an edge mean of at most its
    target, whose inverse mean is ``floors_i``.  The table spans the union
    of the brackets in ``y = x``, or ``y = log(x + min other)`` for the rate
    families, leaving out a lower end at or below the pole (only a row that
    holds ``min other`` can have one).  One kernel call evaluates the
    ``_SWEEP_NODES`` node means and the rows' diagonal terms; the node
    means' row sums, through the edge pass's margins, give G at the nodes,
    and one product with the fixed barycentric matrix gives G on the grid.
    Every row's diagonal term is at most its largest off-diagonal one,
    hence at most its target, except in the row k holding the other effect
    with the largest edge mean (for the rate families, at the pole), whose
    own table leaves its diagonal term out, and whose diagonal pair sum
    alone may lie outside the family's domain.
    """
    m = _SWEEP_NODES
    order = np.argpartition(other, (1, other.size - 2))
    k_low, k_high = int(order[0]), int(order[-1])
    ends = other[order[[0, 1, -2, -1]]]
    low, high = float(ends[0]), float(ends[-1])
    lo, hi = centres - high, centres - low
    lo[k_high] = centres[k_high] - ends[-2]
    hi[k_low] = centres[k_low] - ends[1]
    k = k_low if family.negated else k_high
    sums, values, ones, nodes, spare = buffers
    np.add(x, other, out=sums[m])
    sums[m, k] = 1.0  # row k needs no diagonal term; this pair sum is in every family's domain
    if floors is None:
        bottom, top = float(lo.min()), float(hi.max())
    else:
        if not sums[m].min() > 0.0:
            raise InvalidParameterError("a diagonal pair sum is not positive")
        bound = floors - low
        bound[k_low] = floors[k_low] - ends[1]
        np.maximum(lo, bound, out=lo)
        above = lo + low  # the brackets' bottoms, over the interpolation variable
        bottom = float(np.min(above, where=above > 0.0, initial=np.inf))
        if bottom == math.inf:
            raise InvalidParameterError("no row's bracket lies above the pole")
        bottom, top = math.log(bottom), math.log(float(hi.max()) + low)
    _node_table(family, bottom, top, m, other, sums, values)
    if other.size >= m:
        _add_margins(sums[:m], slice(0, m), nodes[0], spare, ones, spare)
    else:  # a table wider than the graph: its row sums are its transpose's column sums
        _add_margins(sums[:m].T, slice(0, other.size), spare, nodes[0], ones, spare)
    np.subtract(nodes[0], sums[:m, k], out=nodes[1])  # less row k's diagonal column
    grid = nodes @ _GRID_WEIGHTS.T
    G, Gk = grid
    step = np.diff(grid)
    monotone = np.all(step < 0.0) if family.negated else np.all(step > 0.0)
    y = 0.5 * (bottom + top) + 0.5 * (top - bottom) * _GRID
    return _RowTable(lo, hi, y, G if monotone else None, low, sums[m], values[m], k, Gk)


def _invert(family: WeightFamily, table: _RowTable, level, G, y) -> np.ndarray:
    """The effects at which the table's G, oriented increasing, reads
    ``level``, by linear interpolation; NaN off the table."""
    out = np.interp(level, G, y, np.nan, np.nan)
    if family.positive_pair_sums:
        np.exp(out, out=out)
        out -= table.shift
    return out


def _solve_rows(
    family: WeightFamily,
    table: _RowTable,
    targets: np.ndarray,
    centres: np.ndarray,
    x: np.ndarray,
    other: np.ndarray,
) -> np.ndarray:
    """Each row's effect, solving ``targets_i = sum_{j != i} mu(x_i +
    other_j)`` on the table: ``G(x_i) = targets_i + mu(x_i + other_i)``,
    inverted by linear interpolation, twice, so that the row's own diagonal
    term (1/(n-1) of the sum) settles: first at ``x``, then moved to the
    first solution along its slope, the edge variance; row ``table.k``
    reads its own table, which leaves the term out.  Rows off the table,
    rows whose diagonal term does not settle, rows that land outside their
    brackets, and all rows when the table is not monotone are solved by
    :func:`_row_effects` against their whole row, inside its bracket."""
    n = x.size
    if table.G is None:
        out, off = x.copy(), np.arange(n)
    else:
        G, y = (table.G[::-1], table.y[::-1]) if family.negated else (table.G, table.y)
        level = targets + table.own_mean
        move = np.subtract if family.negated else np.add
        first = _invert(family, table, level, G, y)  # a row off the table is NaN
        out = _invert(family, table, move(level, table.own_var * (first - x)), G, y)
        # a diagonal term that moves its row by more than half the row's own
        # move is too far from linear, or too large, to settle in two solves
        unsettled = np.abs(out - first) > 0.5 * np.abs(first - x)
        k, Gk = table.k, table.Gk[::-1] if family.negated else table.Gk
        out[k] = _invert(family, table, targets[k : k + 1], Gk, y)[0]
        unsettled[k] = False
        out[unsettled | (out < table.lo) | (out > table.hi)] = np.nan
        off = np.flatnonzero(np.isnan(out))
    if off.size:
        keep = np.arange(n) != off[:, None]
        rest = np.broadcast_to(other, keep.shape)[keep].reshape(off.size, n - 1)
        out[off] = _row_effects(
            family, targets[off], centres[off], x[off], rest, np.ones(rest.shape)
        )
    return out


def _row_residual(
    family: WeightFamily, table: _RowTable, x: np.ndarray, targets: np.ndarray
) -> float:
    """The rows' largest residual at ``x``, read off the table; NaN when a
    row lies off it."""
    y = x
    if family.positive_pair_sums:  # row k can lie below the pole: off the table
        y = np.log(np.maximum(x + table.shift, np.finfo(float).tiny))
    sums = np.interp(y, table.y, table.G, np.nan, np.nan) - table.own_mean
    k = table.k
    sums[k] = np.interp(y[k], table.y, table.Gk, np.nan, np.nan)
    return float(np.abs(sums - targets).max())


def _sweep_start(
    g: BiDegree, family: WeightFamily, work: _Workspace | None = None
) -> tuple[ParamVector, int]:
    """:func:`default_start` refined by vertex sweeps, and the sweeps taken:
    0, with :func:`default_start` itself, on any failure.

    The inverse means of both sides' edge means per vertex, made in one
    call, are the rows' bracket centres and the closed form's values
    wherever :func:`default_start` does not clip.  A sweep solves every
    out-vertex's likelihood equation against the in-effects on one table
    (:func:`_row_table`, :func:`_solve_rows`), then every in-vertex's
    against the new out-effects, and renormalises to ``beta[-1] = 0``
    (the fixed-point idea of Chatterjee, Diaconis & Sly 2011, at vertex
    resolution).  The sweeps stop once the out-vertices' residual, read off
    the next sweep's table, meets ``_CLASS_RTOL`` relative to the largest
    degree, or after ``_SWEEP_ITER`` sweeps.  The tables live in the block
    of means of the fit's workspace ``work``, before its first pass, or
    else in a new array.
    """
    n, nm1 = g.n, g.n - 1
    inverse_mean = _maths(family).inverse_mean
    degrees = np.concatenate([g.d, g.b])
    means = degrees / nm1
    rate = family.positive_pair_sums
    inverse = inverse_mean(family, np.concatenate([means, degrees]) if rate else means)
    centres = inverse[: 2 * n]
    values = centres.copy()
    clipped = _clipped(family, means, nm1)
    moved = clipped != means
    if moved.any():
        values[moved] = inverse_mean(family, clipped[moved])
    start = _closed_form(family, *np.split(values, 2))
    targets, centres = np.split(degrees, 2), np.split(centres, 2)
    floors = np.split(inverse[2 * n :], 2) if rate else (None, None)
    rows = _SWEEP_NODES + 1
    tables = np.empty((2 * rows, n)) if work is None else work.means
    buffers = (
        tables[:rows], tables[rows : 2 * rows], np.ones(max(n, _SWEEP_NODES)),
        np.empty((2, _SWEEP_NODES)), np.empty(n),
    )
    tol = _CLASS_RTOL * float(degrees.max())
    a, b = start.alpha, start.beta
    try:
        table = _row_table(family, centres[0], floors[0], a, b, buffers)
        for sweeps in range(1, _SWEEP_ITER + 1):
            a = _solve_rows(family, table, targets[0], centres[0], a, b)
            table = _row_table(family, centres[1], floors[1], b, a, buffers)
            b = _solve_rows(family, table, targets[1], centres[1], b, a)
            a, b = a + b[-1], b - b[-1]
            if sweeps == _SWEEP_ITER:
                break
            table = _row_table(family, centres[0], floors[0], a, b, buffers)
            if table.G is not None and _row_residual(family, table, a, targets[0]) <= tol:
                break
        swept = ParamVector(a, b, negated=family.negated)
        validate_params(swept, family)
    except InvalidParameterError:
        return default_start(g, family), 0
    return swept, sweeps


# ---------------------------------------------------------------------------
# class stage: the start of a default fit from n = _CLASS_GATE on


def _quantile_classes(x: np.ndarray) -> np.ndarray:
    """Each vertex's class: ``_CLASSES`` classes of near-equal size by rank of x."""
    label = np.empty(x.size, dtype=np.intp)
    label[np.argsort(x)] = np.arange(x.size) * _CLASSES // x.size
    return label


def _row_effects(
    family: WeightFamily,
    targets: np.ndarray,
    centres: np.ndarray,
    start: np.ndarray,
    other: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """Each row r's effect x solving ``targets[r] = sum_l weights[r, l]
    mu(x + other[r, l])``, by bracketed Newton from ``start``.

    With ``centres[r]`` the pair sum whose edge mean is ``targets[r]`` over
    the row's total weight, every pair sum of the row is on one side of it at
    either end of ``[centres - max(other), centres - min(other)]``, so the
    root lies there, and for the rate families above the floor
    ``-min(other)``.  A start or Newton point outside the bracket is replaced
    by its midpoint.  Each iteration makes one kernel call.  The rows stop
    together once no step exceeds ``_ROW_TOL``, nor that share of the
    distance to the floor, near which the means' pole shortens the steps.
    """
    low, high = other.min(axis=1), other.max(axis=1)
    floor = -low if family.positive_pair_sums else -math.inf
    lo, hi = np.maximum(centres - high, floor), centres - low
    x = np.where((lo <= start) & (start <= hi) & (start > floor), start, 0.5 * (lo + hi))
    sign = -1.0 if family.negated else 1.0
    for _ in range(_ROW_ITER):
        mean, var = edge_moments(family, x[:, None] + other)
        gap = np.einsum("rl,rl->r", weights, mean) - targets
        slope = sign * np.einsum("rl,rl->r", weights, var)
        above = sign * gap > 0  # x lies above the root
        np.copyto(hi, x, where=above)
        np.copyto(lo, x, where=~above)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x - gap / slope
        inside = (lo <= newton) & (newton <= hi) & (newton > floor)
        step = np.where(inside, newton, 0.5 * (lo + hi)) - x
        x = x + step
        if np.all(np.abs(step) <= _ROW_TOL * np.minimum(1.0, x - floor)):
            break
    return x


def _solve_classes(
    family: WeightFamily,
    a: np.ndarray,
    b: np.ndarray,
    weight: np.ndarray,
    sums: tuple[np.ndarray, np.ndarray],
    centres: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray] | None:
    """The class MLE by sweeps from (a, b), or None unless the residual meets
    ``_CLASS_RTOL`` within ``_CLASS_ITER`` sweeps.

    A sweep solves the out-classes' equations (degree ``sums[0]``, bracket
    centres ``centres[0]``) against the in-class effects, then the
    in-classes' against the new out-class effects, and renormalises to
    ``b[-1] = 0``.  The in-class equations then hold, so the sweeps stop on
    the out-class residual.
    """
    tol = _CLASS_RTOL * max(float(sums[0].max()), float(sums[1].max()))
    for _ in range(_CLASS_ITER):
        a = _row_effects(family, sums[0], centres[0], a, np.broadcast_to(b, weight.shape), weight)
        b = _row_effects(family, sums[1], centres[1], b, np.broadcast_to(a, weight.shape), weight.T)
        a, b = a + b[-1], b - b[-1]
        mean = edge_mean(family, a[:, None] + b)
        if float(np.abs(np.einsum("kl,kl->k", weight, mean) - sums[0]).max()) <= tol:
            return a, b
    return None


def _prolong(
    family: WeightFamily,
    degrees: tuple[np.ndarray, np.ndarray],
    labels: tuple[np.ndarray, np.ndarray],
    sizes: tuple[np.ndarray, np.ndarray],
    sums: tuple[np.ndarray, np.ndarray],
    effects: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Both sides' vertex effects from their class effects; each tuple holds
    the out-side's array, then the in-side's.

    On each side the anchors are the class-mean degrees; equal anchors are
    merged, with their effects averaged by class size.  A vertex whose degree
    lies within the anchors gets the effect interpolated linearly between
    them.  The vertices outside, of both sides, get the exact solve of their
    own likelihood equations against the other side's class effects, from
    their nearest anchor's effect, in one ``_row_effects`` call
    (extrapolation would put the rate families' pair sums near zero).
    """
    n, interpolated, index, rows = degrees[0].size, [], [], []
    for side, opp in ((0, 1), (1, 0)):
        anchors, merged = np.unique(sums[side] / sizes[side], return_inverse=True)
        total = np.bincount(merged, weights=sizes[side])
        anchor_effects = np.bincount(merged, weights=effects[side] * sizes[side]) / total
        x = degrees[side]
        interpolated.append(np.interp(x, anchors, anchor_effects))
        far = np.flatnonzero((x < anchors[0]) | (x > anchors[-1]))
        index.append(far + side * n)
        own = labels[opp][far, None] == np.arange(_CLASSES)  # one pair fewer
        start = np.where(x[far] < anchors[0], anchor_effects[0], anchor_effects[-1])
        rows.append((x[far], start, np.broadcast_to(effects[opp], own.shape), sizes[opp] - own))
    out = np.concatenate(interpolated)
    targets, start, other, weights = map(np.concatenate, zip(*rows))
    if targets.size:
        centres = _maths(family).inverse_mean(family, targets / (n - 1))
        out[np.concatenate(index)] = _row_effects(family, targets, centres, start, other, weights)
    return out[:n], out[n:]


def _lift_pairs(alpha: np.ndarray, beta: np.ndarray, target: float) -> None:
    """Raise, in place, both effects of each pair ``i != j`` whose sum is not
    positive by half its shortfall, so that the pair sums ``target``.

    An outlying out-vertex and an outlying in-vertex are each solved against
    the other side's class effects, so their own pair sum can come out at or
    below 0.  A lift only raises pair sums, and each one makes its pair
    positive, so the pairs run out; the ``n`` lifts allowed are a guard.
    """
    for _ in range(alpha.size):
        smin, i, j = _min_pair_sum(alpha, beta)
        if smin > 0.0:
            return
        lift = 0.5 * (target - smin)
        alpha[i] += lift
        beta[j] += lift


def _class_start(g: BiDegree, family: WeightFamily, fallback: ParamVector) -> ParamVector:
    """A start near the MLE from the model whose effects are constant on
    ``_CLASSES`` quantile classes of out-degree and as many of in-degree.

    Out-class k has ``n_k`` vertices, in-class l has ``m_l``, and ``c_kl``
    vertices lie in both, so ``W_kl = n_k m_l - c_kl`` ordered pairs i != j
    join them; every ``W_kl`` is positive once each class has two vertices.
    The class model's sufficient statistics are the class degree sums, a
    linear image of (d, b), so its MLE exists whenever the graph's does.  It
    is solved from the class means of ``fallback`` by ``_solve_classes``,
    then prolonged to the vertices (``_prolong``), for the rate families
    with each pair whose sum is not positive lifted to the damping target,
    half the class model's smallest pair sum (``_lift_pairs``), and
    normalized to ``beta[-1] = 0``.  Any failure (the sweep budget, a value
    out of the family's domain) returns ``fallback`` itself.
    """
    if g.n < 2 * _CLASSES:
        return fallback
    k = _CLASSES
    degrees = (g.d, g.b)
    labels = (_quantile_classes(g.d), _quantile_classes(g.b))
    sizes = tuple(np.bincount(label, minlength=k).astype(float) for label in labels)
    shared = np.bincount(labels[0] * k + labels[1], minlength=k * k).reshape(k, k)
    weight = np.outer(*sizes) - shared
    sums = tuple(np.bincount(label, weights=x, minlength=k) for label, x in zip(labels, degrees))
    a = np.bincount(labels[0], weights=fallback.alpha, minlength=k) / sizes[0]
    b = np.bincount(labels[1], weights=fallback.beta, minlength=k) / sizes[1]
    means = np.concatenate(sums) / (np.concatenate(sizes) * (g.n - 1))
    try:
        centres = np.split(_maths(family).inverse_mean(family, means), 2)
        solution = _solve_classes(family, a + b[-1], b - b[-1], weight, sums, centres)
        if solution is None:
            return fallback
        alpha, beta = _prolong(family, degrees, labels, sizes, sums, solution)
        if family.positive_pair_sums:
            a, b = solution
            _lift_pairs(alpha, beta, 0.5 * float((a[:, None] + b).min()))
        shift = beta[-1]
        alpha += shift
        beta -= shift
        start = ParamVector(alpha, beta, negated=family.negated)
        validate_params(start, family)
    except InvalidParameterError:
        return fallback
    return start


# ---------------------------------------------------------------------------
# Newton iteration


def _damping(theta: ParamVector, delta: np.ndarray, family: WeightFamily) -> float:
    """Largest lambda in (0, 1] keeping min pair sum >= half its current value.

    With ``target`` that half, the cut is the smallest ratio
    ``(s_ij - target) / -ds_ij`` over the pairs the step shrinks, a
    fractional program, solved by Dinkelbach's iteration (Dinkelbach 1967)
    in O(n) per step.  From lambda = 1 (the full step), the smallest pair sum
    of ``theta + lambda * delta`` (``_min_pair_sum``) either meets the target,
    and lambda is the cut, or names a pair whose ratio is the next, smaller
    lambda.  The ratios are the same floats as those of the whole pair-sum
    matrix.  Each lambda is a pair's ratio, below the last, so the iteration
    ends; it falls superlinearly, in a few steps per cut.
    """
    if not family.positive_pair_sums:
        return 1.0
    n = theta.n
    dalpha, dbeta = delta[:n], np.append(delta[n:], 0.0)
    target = 0.5 * _min_pair_sum(theta.alpha, theta.beta)[0]
    lam = 1.0
    while True:
        smin, i, j = _min_pair_sum(theta.alpha + lam * dalpha, theta.beta + lam * dbeta)
        rate = -(dalpha[i] + dbeta[j])
        if smin >= target or not rate > 0.0:  # a pair the step keeps: rounding only
            return lam
        ratio = float((theta.alpha[i] + theta.beta[j] - target) / rate)
        if not ratio < lam:  # lambda stopped falling
            return lam
        lam = ratio


def _stagnant(residuals: list[float]) -> bool:
    # Relative decrease below 1% over the last 10 iterations.
    return len(residuals) >= 11 and residuals[-1] > 0.99 * residuals[-11]


def newton_fit(
    g: BiDegree,
    family: WeightFamily,
    theta0: ParamVector | None = None,
    config: FitConfig | None = None,
) -> FitResult:
    """Fit the MLE by Newton iteration; classify existence.

    The verdict is the module docstring's rule, applied once to the iterate
    the fit ends on.  A limit beyond the divergence bound is a boundary
    point, not an interior solution, even when it meets the tolerance.
    """
    cfg = config or FitConfig()
    n = g.n
    # Every pass of this fit writes into the workspace's buffers, and each
    # residual pass leaves the variances' margins there for the next Fisher
    # build, and below the gate the variances themselves; from the gate on
    # the Fisher build makes its low-rank cross block in the same buffers.
    # It is allocated before anything else so that the C allocator hands it
    # the space the previous fit's buffers freed, before small arrays that
    # outlive the fit split that space up.  Below the gate its block of
    # means first holds the start's two node tables, of _SWEEP_NODES + 1
    # rows each.
    if n < _CLASS_GATE:
        work = _Workspace(n, family, nodes=2 * _SWEEP_NODES + 1)
    else:
        work = _Workspace(n, family, variance="block", nodes=_MAX_NODES)
    # A default fit starts from the closed form; past the screen, from
    # _SWEEP_GATE on the vertex sweeps refine that start and from
    # _CLASS_GATE on the class stage does (the closed form again if either
    # fails).  A given theta0 is where the fit starts.
    screen = existence_check(g, family)
    start, sweeps = "closed_form", 0
    if theta0 is not None:
        theta, start = theta0, "given"
    elif screen is Feasibility.FEASIBLE and _SWEEP_GATE <= n < _CLASS_GATE:
        theta, sweeps = _sweep_start(g, family, work)
        start = "sweeps" if sweeps else start
    else:
        theta = default_start(g, family)
    validate_params(theta, family)
    if not theta.is_normalized:
        raise InvalidParameterError("starting point must have beta[-1] == 0")
    tol_residual = cfg.tol_residual if cfg.tol_residual is not None else 1e-10 * (n - 1)

    if screen is not Feasibility.FEASIBLE:
        resid = float(np.abs(moment_residual(theta, g, family)).max())
        return FitResult(theta, False, Existence.NON_EXISTENT, 0, resid, (), start)
    if theta0 is None and n >= _CLASS_GATE:
        refined = _class_start(g, family, theta)
        start = "class" if refined is not theta else start
        theta = refined

    sign = -1.0 if family.negated else 1.0
    trace: list[tuple[float, float]] = []
    residuals: list[float] = []
    iterations = 0
    residual = moment_residual(theta, g, family, work=work)
    resid_norm = float(np.abs(residual).max())

    # Every exit is a break; the verdict is decided once, after the loop.
    # ``exact`` says whether this step is exact.  Sapprox turns exact for good
    # once the residual meets the tolerance or exceeds half its value two
    # steps back (the approximate step is not monotone in the inf-norm, so one
    # step back is too short).  Only an exact step ends a fit on a tolerance.
    # A swept start lies inside Newton's quadratic range, where approximate
    # steps would only creep, about halving the residual per step, so a fit
    # from it takes exact steps in either mode.
    exact = cfg.step_mode == "exact" or start == "sweeps"
    for iterations in range(1, cfg.max_iter + 1):
        residuals.append(resid_norm)
        if not math.isfinite(resid_norm) or (exact and resid_norm <= tol_residual):
            break
        if float(np.abs(theta.free).max()) > _DIVERGENCE_BOUND and _stagnant(residuals):
            break
        exact = exact or resid_norm <= tol_residual or (
            len(residuals) > 2 and resid_norm > 0.5 * residuals[-3])
        try:
            fisher = fisher_info(theta, family, work=work)
            if exact:
                raw = solve_structured(fisher, residual)
            else:
                raw = _SAPPROX_RELAX * apply_approx_inverse(approx_inverse(fisher), residual)
        except SingularFisherError:
            break
        delta = sign * raw
        cap = min(1.0, _MAX_STEP / max(float(np.abs(delta).max()), 1e-300))
        lam = cap * _damping(theta, cap * delta, family)
        # An exact step backtracks until the residual stops increasing; the
        # Newton direction always admits such a step, and the accepted trial
        # doubles as the next iteration's residual evaluation.  The relaxed
        # approximate step is a contraction in its own eigenbasis but not
        # monotone in the inf-norm, so it is accepted as is.
        for _ in range(30):
            candidate = theta.with_step(lam * delta)
            trial = moment_residual(candidate, g, family, work=work)
            trial_norm = float(np.abs(trial).max())
            if (
                not exact
                or trial_norm <= resid_norm
                or lam * float(np.abs(delta).max()) <= _TOL_STEP
            ):
                break
            lam *= 0.5
        step_norm = lam * float(np.abs(delta).max())
        theta, residual, resid_norm = candidate, trial, trial_norm
        trace.append((residuals[-1], step_norm))
        if exact and step_norm <= _TOL_STEP:
            break

    if float(np.abs(theta.free).max()) > _DIVERGENCE_BOUND:
        existence = Existence.NON_EXISTENT
    elif resid_norm <= tol_residual:
        existence = Existence.EXISTS
    else:
        existence = Existence.UNDETERMINED
    converged = existence is Existence.EXISTS  # tolerance met with |theta| inside the bound
    return FitResult(
        theta, converged, existence, iterations, resid_norm, tuple(trace), start, sweeps
    )


# ---------------------------------------------------------------------------
# contraction diagnostics


def _lipschitz_constants(
    family: WeightFamily, theta0: ParamVector, n: int, r: float
) -> tuple[float, float, str | None]:
    """Second-derivative (K1) and per-row (K2) smoothness constants over the
    pair sums of theta0 widened by 4r; rate families fail with a reason code
    when the margin ``q_n - 4r`` is not positive."""
    lo = _min_pair_sum(theta0.alpha, theta0.beta)[0] - 4.0 * r
    if family.positive_pair_sums and lo <= 0.0:
        return math.inf, math.inf, f"pair-sum margin q_n - 4r = {lo:.3g} is not positive"
    # the largest pair sum is minus the smallest of the negated effects
    hi = -_min_pair_sum(-theta0.alpha, -theta0.beta)[0] + 4.0 * r
    return (*_maths(family).lipschitz(family, n - 1, lo, hi), None)


def newton_diagnostics(
    theta0: ParamVector, g: BiDegree, family: WeightFamily, c1: float = 1.0
) -> NewtonDiagnostics:
    """Exact first-step norm plus the assembled contraction factor.

    The leading constant of the inverse-approximation bound is unknown;
    ``c1`` defaults to 1 and should be calibrated from :func:`approx_error`
    sweeps when a sharper certificate is wanted.
    """
    validate_params(theta0, family)
    n = g.n
    work = _Workspace(n, family)
    residual = moment_residual(theta0, g, family, work=work)
    fisher = fisher_info(theta0, family, work=work)
    r = float(np.abs(solve_structured(fisher, residual)).max())
    k1, k2, reason = _lipschitz_constants(family, theta0, n, r)
    m, big_m = fisher.cross_min, fisher.cross_max
    rho = c1 * (2 * n - 1) * big_m**2 * k1 / (2.0 * m**3 * n**2) + k2 / ((n - 1) * m)
    ok = reason is None and rho * r < 0.5
    return NewtonDiagnostics(r=r, rho=float(rho), K1=k1, K2=k2, contraction_ok=ok, reason=reason)

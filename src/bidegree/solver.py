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

A default fit (no ``theta0``) of n >= ``_CLASS_GATE`` vertices that passes
the existence screen starts from its degree-class model rather than the
closed-form ``default_start``.  The likelihood equations make each fitted
effect a monotone function of its own degree, so the model with effects
constant on six quantile classes of out-degree and six of in-degree already
fixes the MLE closely: that 11-parameter model is solved by exact Newton on
its own structured Fisher matrix, interpolated back to the vertices in
degree, with an exact 1-D solve for the vertices outside the classes' mean
degrees.  Fits then start inside Newton's quadratic range (binary n=1000
fits take 4 edge passes instead of 6).  The stage costs O(n log n) and reads
no n x n array; on any failure the fit starts from ``default_start``.
Smaller fits, where the stage costs more than the iterations it saves, and
fits given a ``theta0`` start where they did.

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

import numpy as np

from .fisher import (
    _MAX_NODES,
    SingularFisherError,
    StructuredFisher,
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
    _maths,
    _min_pair_sum,
    _Workspace,
    edge_mean,
    edge_variance,
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
    and under the same budget).
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
# it runs at, its Newton budget and relative residual tolerance, and the
# budget and step tolerance of the outlying vertices' 1-D solves.  Six
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
_VERTEX_ITER = 30
_VERTEX_TOL = 1e-4


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
    if family.positive_pair_sums:
        alpha, beta = (0.5 * inverse_mean(family, np.maximum(x, 0.5) / nm1) for x in (g.d, g.b))
        return ParamVector(alpha + beta[-1], beta - beta[-1], negated=True)
    top, lo = family.max_weight, 1.0 / (2.0 * nm1)
    alpha, beta = (
        inverse_mean(family, np.clip(x / nm1, top * lo, top * (1.0 - lo))) for x in (g.d, g.b)
    )
    return ParamVector(alpha, beta - beta[-1], negated=family.negated)


# ---------------------------------------------------------------------------
# class stage: the start of a default fit from n = _CLASS_GATE on


def _quantile_classes(x: np.ndarray) -> np.ndarray:
    """Each vertex's class: ``_CLASSES`` classes of near-equal size by rank of x."""
    label = np.empty(x.size, dtype=np.intp)
    label[np.argsort(x)] = np.arange(x.size) * _CLASSES // x.size
    return label


def _class_system(
    family: WeightFamily,
    a: np.ndarray,
    b: np.ndarray,
    weight: np.ndarray,
    out_sums: np.ndarray,
    in_sums: np.ndarray,
) -> tuple[np.ndarray, StructuredFisher]:
    """Residual and Fisher matrix of the class model at class effects (a, b).

    ``weight[k, l]`` counts the ordered pairs ``i != j`` from out-class k to
    in-class l, so the weighted class-pair means and variances take the
    places of the edge means and variances, the diagonal k = l included.
    """
    sums = a[:, None] + b
    mean = weight * edge_mean(family, sums)
    var = weight * edge_variance(family, sums)
    k = len(a)
    ones = np.ones(k)
    mean_rows, mean_cols, var_rows, var_cols, spare = np.empty((5, k))
    _add_margins(mean, slice(0, k), mean_rows, mean_cols, ones, spare)
    _add_margins(var, slice(0, k), var_rows, var_cols, ones, spare)
    residual = np.concatenate([out_sums - mean_rows, (in_sums - mean_cols)[:-1]])
    return residual, StructuredFisher(var, var_rows, var_cols, float(var.min()))


def _solve_classes(
    family: WeightFamily,
    a: np.ndarray,
    b: np.ndarray,
    weight: np.ndarray,
    out_sums: np.ndarray,
    in_sums: np.ndarray,
) -> tuple[np.ndarray, np.ndarray] | None:
    """The class MLE by exact Newton from (a, b) with ``b[-1] = 0``, or None
    unless the residual meets ``_CLASS_RTOL`` within ``_CLASS_ITER`` steps.

    The steps are ``newton_fit``'s: capped at ``_MAX_STEP``, damped for the
    rate families so no class pair sum falls below half the current
    smallest, and halved until the residual stops increasing.
    """
    k = len(a)
    sign = -1.0 if family.negated else 1.0
    tol = _CLASS_RTOL * max(float(out_sums.max()), float(in_sums.max()))
    residual, fisher = _class_system(family, a, b, weight, out_sums, in_sums)
    norm = float(np.abs(residual).max())
    for _ in range(_CLASS_ITER):
        if not norm > tol:  # met, or not a number
            break
        delta = sign * solve_structured(fisher, residual)
        da, db = delta[:k], np.append(delta[k:], 0.0)
        lam = min(1.0, _MAX_STEP / max(float(np.abs(delta).max()), 1e-300))
        if family.positive_pair_sums:
            sums, dsums = a[:, None] + b, lam * (da[:, None] + db)
            shrinking = dsums < 0
            cut = (0.5 * sums.min() - sums[shrinking]) / dsums[shrinking]
            lam *= min(1.0, float(np.min(cut, initial=1.0)))
        for _ in range(30):
            trial = _class_system(family, a + lam * da, b + lam * db, weight, out_sums, in_sums)
            if float(np.abs(trial[0]).max()) <= norm:
                break
            lam *= 0.5
        a, b = a + lam * da, b + lam * db
        residual, fisher = trial
        norm = float(np.abs(residual).max())
    return (a, b) if norm <= tol else None


def _vertex_effects(
    family: WeightFamily,
    degrees: np.ndarray,
    near_degrees: np.ndarray,
    near_effects: np.ndarray,
    other: np.ndarray,
    counts: np.ndarray,
    own: np.ndarray,
) -> np.ndarray:
    """Each vertex's effect x solving ``degree = sum_l w_l mu(x + other_l)``
    with ``w_l = counts_l - [l == own]``, by bracketed Newton.

    ``other`` holds the other side's class effects, ``counts`` its class
    sizes and ``own`` the vertex's own class there.  With ``t`` the pair sum
    whose edge mean is ``degree / (n-1)``, the root lies in
    ``[t - max(other), t - min(other)]`` (every pair sum is on one side of t
    at either end), cut at ``-min(other)`` for the rate families.  Newton
    starts from the nearest class's effect ``near_effects``, moved by the
    difference between t and that of the class's mean degree
    ``near_degrees``; a Newton point outside the bracket is replaced by the
    midpoint.
    """
    m = degrees.size
    nm1 = float(counts.sum()) - 1.0
    targets = _maths(family).inverse_mean(family, np.concatenate([degrees, near_degrees]) / nm1)
    target = targets[:m]
    lo, hi = target - other.max(), target - other.min()
    floor = -float(other.min()) if family.positive_pair_sums else -math.inf
    lo = np.maximum(lo, floor)
    x = near_effects + target - targets[m:]
    x = np.where((lo <= x) & (x <= hi) & (x > floor), x, 0.5 * (lo + hi))
    rows = np.arange(m)
    sign = -1.0 if family.negated else 1.0
    for _ in range(_VERTEX_ITER):
        sums = x[:, None] + other
        mean = edge_mean(family, sums)
        var = edge_variance(family, sums)
        gap = mean @ counts - mean[rows, own] - degrees
        slope = sign * (var @ counts - var[rows, own])
        above = sign * gap > 0  # x lies above the root
        np.copyto(hi, x, where=above)
        np.copyto(lo, x, where=~above)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x - gap / slope
        inside = (lo <= newton) & (newton <= hi) & (newton > floor)
        step = np.where(inside, newton, 0.5 * (lo + hi)) - x
        x = x + step
        if float(np.abs(step).max()) <= _VERTEX_TOL:
            break
    return x


def _prolong(
    family: WeightFamily,
    degrees: np.ndarray,
    sums: np.ndarray,
    sizes: np.ndarray,
    effects: np.ndarray,
    other: np.ndarray,
    other_sizes: np.ndarray,
    other_label: np.ndarray,
) -> np.ndarray:
    """One side's vertex effects from its class effects.

    The anchors are the class-mean degrees ``sums / sizes``; equal anchors
    are merged, with their effects averaged by class size.  A vertex whose
    degree lies within the anchors gets the effect interpolated linearly
    between them; one outside gets the exact solve of its own likelihood
    equation against the other side's class effects (``_vertex_effects``),
    where extrapolation would put the rate families' pair sums near zero.
    """
    anchors, merged = np.unique(sums / sizes, return_inverse=True)
    anchor_effects = np.bincount(merged, weights=effects * sizes) / np.bincount(
        merged, weights=sizes
    )
    out = np.interp(degrees, anchors, anchor_effects)
    outside = np.flatnonzero((degrees < anchors[0]) | (degrees > anchors[-1]))
    if outside.size:
        near = np.where(degrees[outside] < anchors[0], 0, anchors.size - 1)
        out[outside] = _vertex_effects(
            family,
            degrees[outside],
            anchors[near],
            anchor_effects[near],
            other,
            other_sizes,
            other_label[outside],
        )
    return out


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
    normalized to ``beta[-1] = 0``.  Any failure (the budget, a singular
    class Fisher matrix, a value out of the family's domain) returns
    ``fallback`` itself.
    """
    if g.n < 2 * _CLASSES:
        return fallback
    k = _CLASSES
    out_label, in_label = _quantile_classes(g.d), _quantile_classes(g.b)
    out_sizes = np.bincount(out_label, minlength=k).astype(float)
    in_sizes = np.bincount(in_label, minlength=k).astype(float)
    shared = np.bincount(out_label * k + in_label, minlength=k * k).reshape(k, k)
    weight = np.outer(out_sizes, in_sizes) - shared
    out_sums = np.bincount(out_label, weights=g.d, minlength=k)
    in_sums = np.bincount(in_label, weights=g.b, minlength=k)
    a = np.bincount(out_label, weights=fallback.alpha, minlength=k) / out_sizes
    b = np.bincount(in_label, weights=fallback.beta, minlength=k) / in_sizes
    try:
        solution = _solve_classes(family, a + b[-1], b - b[-1], weight, out_sums, in_sums)
        if solution is None:
            return fallback
        a, b = solution
        alpha = _prolong(family, g.d, out_sums, out_sizes, a, b, in_sizes, in_label)
        beta = _prolong(family, g.b, in_sums, in_sizes, b, a, out_sizes, out_label)
        if family.positive_pair_sums:
            _lift_pairs(alpha, beta, 0.5 * float((a[:, None] + b).min()))
        shift = beta[-1]
        alpha += shift
        beta -= shift
        start = ParamVector(alpha, beta, negated=family.negated)
        validate_params(start, family)
    except (SingularFisherError, InvalidParameterError):
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
    # outlive the fit split that space up.
    if n < _CLASS_GATE:
        work = _Workspace(n, family)
    else:
        work = _Workspace(n, family, variance="block", nodes=_MAX_NODES)
    theta = default_start(g, family) if theta0 is None else theta0
    validate_params(theta, family)
    if not theta.is_normalized:
        raise InvalidParameterError("starting point must have beta[-1] == 0")
    tol_residual = cfg.tol_residual if cfg.tol_residual is not None else 1e-10 * (n - 1)

    screen = existence_check(g, family)
    if screen is not Feasibility.FEASIBLE:
        resid = float(np.abs(moment_residual(theta, g, family)).max())
        return FitResult(theta, False, Existence.NON_EXISTENT, 0, resid, ())
    # A default fit starts from the closed form; past the screen, from the
    # gate on, the class stage refines that start (the closed form again if
    # the stage fails).  A given theta0 is where the fit starts.
    if theta0 is None and n >= _CLASS_GATE:
        theta = _class_start(g, family, theta)

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
    exact = cfg.step_mode == "exact"
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
    return FitResult(theta, converged, existence, iterations, resid_norm, tuple(trace))


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

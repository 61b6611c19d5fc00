"""Edge-weight families, parameter vectors, and bi-degree likelihood pieces.

A directed graph on ``n`` vertices carries independent edge weights
``a[i, j]`` (no self-loops).  Each edge distribution is an exponential family
whose log-density is linear in ``alpha[i] + beta[j]``, so the out-degrees
``d`` and in-degrees ``b`` are the sufficient statistic.  Four families are
supported:

* ``binary`` -- Bernoulli weights, natural parameters stored directly,
  ``E a = exp(s) / (1 + exp(s))``.
* ``exponential`` -- nonnegative real weights; parameters are stored negated
  so the pair sum ``s`` is the (positive) rate, ``E a = 1/s``.
* ``geometric`` -- counts on ``{0, 1, ...}``; stored negated, ``s > 0``,
  ``E a = 1/(exp(s) - 1)``.
* ``finite`` -- counts on ``{0, ..., q-1}``; stored negated, any real ``s``
  (the pmf is a truncated geometric, uniform at ``s = 0``).

Each family's edge mean and variance come from one kernel that makes at most
one exponential pass per edge and never builds an n x n x q tensor: the
binary family takes ``t = exp(-s)``, as the n^2 product
``exp(-alpha_i) * exp(-beta_j)`` on whole graphs; ``finite:q`` sums powers of
``t = exp(-|s|)`` and mirrors the pmf where ``s < 0``; geometric takes one
``expm1``; exponential is ``1/s``.  The Fisher build, the moment residual,
the sampler, the finite warm start and the finite log-partition all run it.

Every public function here is a pure function of immutable values; nothing
mutates after construction, so all objects are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BiDegree",
    "Graph",
    "InvalidParameterError",
    "ParamVector",
    "WeightFamily",
    "bi_degrees",
    "edge_mean",
    "edge_variance",
    "expected_degrees",
    "log_likelihood",
    "log_partition_term",
    "moment_residual",
]

_KINDS = ("binary", "exponential", "geometric", "finite")


class InvalidParameterError(ValueError):
    """Parameter vector violates the family's domain."""


@dataclass(frozen=True)
class WeightFamily:
    """Tagged choice of edge distribution.

    ``support_size`` is the number of support points ``q`` and is only
    meaningful (and required) for ``kind="finite"``; ``q = 2`` reproduces the
    binary family under the sign flip of the stored parameters.
    """

    kind: str
    support_size: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}; expected one of {_KINDS}")
        if self.kind == "finite":
            if self.support_size is None or int(self.support_size) < 2:
                raise ValueError("finite family requires support_size q >= 2")
            object.__setattr__(self, "support_size", int(self.support_size))
        elif self.support_size is not None:
            raise ValueError(f"support_size is only valid for the finite family, not {self.kind!r}")

    @classmethod
    def binary(cls) -> "WeightFamily":
        return cls("binary")

    @classmethod
    def exponential(cls) -> "WeightFamily":
        return cls("exponential")

    @classmethod
    def geometric(cls) -> "WeightFamily":
        return cls("geometric")

    @classmethod
    def finite(cls, q: int) -> "WeightFamily":
        return cls("finite", q)

    @classmethod
    def parse(cls, label: str) -> "WeightFamily":
        """Parse a CLI/CSV label: ``binary``, ``exponential``, ``geometric`` or ``finite:q``."""
        text = label.strip().lower()
        if text.startswith("finite:"):
            try:
                q = int(text.split(":", 1)[1])
            except ValueError:
                raise ValueError(f"bad finite support size in {label!r}") from None
            return cls.finite(q)
        if text in ("binary", "exponential", "geometric"):
            return cls(text)
        raise ValueError(f"unknown family {label!r}; expected binary|exponential|geometric|finite:q")

    @property
    def label(self) -> str:
        if self.kind == "finite":
            return f"finite:{self.support_size}"
        return self.kind

    @property
    def negated(self) -> bool:
        """True when parameters are stored sign-flipped (edge means decrease in the pair sum)."""
        return self.kind != "binary"

    @property
    def positive_pair_sums(self) -> bool:
        """True when every off-diagonal pair sum must be strictly positive."""
        return self.kind in ("exponential", "geometric")

    @property
    def integer_weights(self) -> bool:
        return self.kind != "exponential"

    @property
    def max_weight(self) -> float:
        """Largest support point (``inf`` for unbounded families)."""
        if self.kind == "binary":
            return 1.0
        if self.kind == "finite":
            return float(self.support_size - 1)
        return float("inf")


@dataclass(frozen=True)
class ParamVector:
    """The 2n free effects: out-effects ``alpha`` and in-effects ``beta``.

    ``negated`` records the storage orientation and must match the family the
    vector is used with.  Fitting entry points require the identifiability
    normalization ``beta[-1] == 0`` (see :attr:`is_normalized`); evaluation
    helpers accept unnormalized vectors since the model itself is invariant
    under the shift ``(alpha - c, beta + c)``.
    """

    alpha: np.ndarray
    beta: np.ndarray
    negated: bool = False

    def __post_init__(self) -> None:
        alpha = np.array(self.alpha, dtype=float)
        beta = np.array(self.beta, dtype=float)
        if alpha.ndim != 1 or beta.ndim != 1 or alpha.shape != beta.shape:
            raise ValueError("alpha and beta must be 1-d arrays of equal length")
        if alpha.size < 2:
            raise ValueError("need at least 2 vertices")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @property
    def n(self) -> int:
        return self.alpha.size

    @property
    def is_normalized(self) -> bool:
        return self.beta[-1] == 0.0

    @property
    def free(self) -> np.ndarray:
        """The 2n-1 free coordinates ``(alpha_1..alpha_n, beta_1..beta_{n-1})``."""
        return np.concatenate([self.alpha, self.beta[:-1]])

    @classmethod
    def from_free(cls, free: np.ndarray, negated: bool = False) -> "ParamVector":
        free = np.asarray(free, dtype=float)
        if free.ndim != 1 or free.size % 2 != 1:
            raise ValueError("free vector must have odd length 2n-1")
        n = (free.size + 1) // 2
        beta = np.zeros(n)
        beta[:-1] = free[n:]
        return cls(free[:n].copy(), beta, negated)

    def with_step(self, step: np.ndarray) -> "ParamVector":
        """Add a step in free coordinates, keeping ``beta[-1]`` fixed."""
        return ParamVector.from_free(self.free + step, self.negated)

    def pair_sums(self) -> np.ndarray:
        """The n-by-n matrix ``alpha[i] + beta[j]`` (diagonal included)."""
        return self.alpha[:, None] + self.beta[None, :]


@dataclass(frozen=True)
class BiDegree:
    """Observed out-degrees ``d`` and in-degrees ``b`` of one graph."""

    d: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        d = np.array(self.d, dtype=float)
        b = np.array(self.b, dtype=float)
        if d.ndim != 1 or d.shape != b.shape or d.size < 2:
            raise ValueError("d and b must be 1-d arrays of equal length >= 2")
        if np.any(d < 0) or np.any(b < 0):
            raise ValueError("degrees must be nonnegative")
        if abs(d.sum() - b.sum()) > 1e-9 * d.size:
            raise ValueError(
                f"out- and in-degree totals disagree: {d.sum()!r} vs {b.sum()!r}"
            )
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.d.size


@dataclass(frozen=True)
class Graph:
    """Weighted adjacency matrix with a zero diagonal."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.array(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] < 2:
            raise ValueError("weights must be a square matrix of size >= 2")
        if np.any(np.diagonal(w) != 0.0):
            raise ValueError("self-loops are not allowed (diagonal must be zero)")
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.shape[0]


# ---------------------------------------------------------------------------
# per-edge quantities
#
# ``_edge_moments`` is the one kernel for means and variances.  The
# whole-graph functions below call it through ``_pair_moments``; the public
# per-edge functions call it directly.

# Binary pair sums up to this size in absolute value keep exp(-s) finite and
# normal, so exp(-alpha_i) * exp(-beta_j) can stand in for exp(-s) without
# overflow, underflow or an inf * 0 product.
_EXP_SAFE = 700.0


def _power_sums(q: int, t: np.ndarray, order: int) -> list[np.ndarray]:
    """``[sum_k k**r * t**k for r in 0..order]`` over the support ``k = 0..q-1``.

    Divided by the first entry (the normalizer ``Z``) they are the raw moments
    of the q-point pmf ``t**k / Z``.  Callers pass ``t = exp(-|s|)`` in [0, 1];
    Horner's rule then adds only positive terms and nothing can overflow.
    """
    sums = []
    for r in range(order + 1):
        acc = t * float((q - 1) ** r)
        for k in range(q - 2, 0, -1):
            acc += float(k**r)
            acc *= t
        if r == 0:
            acc += 1.0
        sums.append(acc)
    return sums


def _fold(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(exp(-|s|), s < 0)``, the exponential written over ``s``."""
    mirrored = s < 0
    return np.exp(np.negative(np.abs(s, out=s), out=s), out=s), mirrored


def _edge_moments(family: WeightFamily, s: np.ndarray, var: bool):
    """Edge means, and the variances when ``var`` (else None), at pair sums ``s``.

    ``s`` must lie in the family's domain, and it is overwritten: the kernel
    works in place to keep the number of arrays it allocates small.  Binary
    and ``finite:q`` take one exponential ``t = exp(-|s|)`` per edge; for
    ``s < 0`` the binary mean is ``t/(1+t)`` and the q-point pmf is the mirror
    image ``k -> q-1-k`` of the pmf at ``|s|``.  Geometric takes one ``expm1``
    per edge, exponential none.
    """
    if family.kind == "exponential":
        mean = np.reciprocal(s, out=s)
        return mean, (mean * mean if var else None)
    if family.kind == "geometric":
        with np.errstate(over="ignore"):
            mean = np.reciprocal(np.expm1(s, out=s), out=s)
        return mean, (np.multiply(mean + 1.0, mean) if var else None)
    t, mirrored = _fold(s)
    if family.kind == "binary":
        p = t + 1.0
        np.reciprocal(p, out=p)
        low = np.multiply(t, p, out=t)  # the mean at -|s|
        variance = low * p if var else None
        np.copyto(p, low, where=mirrored)
        return p, variance
    q = family.support_size
    z, *raw = _power_sums(q, t, 2 if var else 1)
    mean = np.divide(raw[0], z, out=raw[0])
    variance = None
    if var:
        variance = np.divide(raw[1], z, out=raw[1])
        variance -= np.multiply(mean, mean, out=z)
    np.subtract(q - 1, mean, out=mean, where=mirrored)
    return mean, variance


def _check_domain(family: WeightFamily, s: np.ndarray) -> None:
    if not np.all(np.isfinite(s)):
        raise InvalidParameterError(f"pair sums must be finite for the {family.kind} family")
    if family.positive_pair_sums and np.any(s <= 0.0):
        bad = float(np.min(s))
        raise InvalidParameterError(
            f"pair sums must be positive for the {family.kind} family (got {bad})"
        )


def _scalar_like(template, value: np.ndarray):
    return float(value) if np.ndim(template) == 0 else value


def _per_edge(family: WeightFamily, s, var: bool):
    arr = np.array(s, dtype=float, ndmin=1)  # a copy, which the kernel overwrites
    _check_domain(family, arr)
    out = _edge_moments(family, arr, var)[1 if var else 0]
    return float(out[0]) if np.ndim(s) == 0 else out


def edge_mean(family: WeightFamily, s):
    """Expected edge weight at pair sum ``s`` (elementwise over arrays)."""
    return _per_edge(family, s, var=False)


def edge_variance(family: WeightFamily, s):
    """Edge-weight variance at pair sum ``s``; equals the Fisher cross entry."""
    return _per_edge(family, s, var=True)


def _log_partition(family: WeightFamily, s: np.ndarray) -> np.ndarray:
    if family.kind == "binary":
        return np.logaddexp(0.0, s)
    if family.kind == "exponential":
        return np.log(s)
    if family.kind == "geometric":
        return np.log(-np.expm1(-s))
    # log sum_k exp(-s k) = log Z(exp(-|s|)) plus the largest exponent, (q-1)|s| when s < 0
    q = family.support_size
    z = _power_sums(q, np.exp(-np.abs(s)), 0)[0]
    return -(np.log(z) + (q - 1) * np.maximum(-s, 0.0))


def log_partition_term(family: WeightFamily, s):
    """Per-edge log-partition in the stored frame.

    Its derivative in ``s`` is ``edge_mean`` for the binary family and
    ``+edge_mean`` as well for the negated families, so the gradient of
    :func:`log_likelihood` is exactly :func:`moment_residual`.
    """
    arr = np.asarray(s, dtype=float)
    _check_domain(family, arr)
    return _scalar_like(s, _log_partition(family, arr))


# ---------------------------------------------------------------------------
# whole-graph quantities


def validate_params(theta: ParamVector, family: WeightFamily) -> None:
    """Raise InvalidParameterError unless theta is usable with the family."""
    if theta.negated != family.negated:
        raise InvalidParameterError(
            f"parameter orientation (negated={theta.negated}) does not match "
            f"family {family.kind!r} (negated={family.negated})"
        )
    if not (np.all(np.isfinite(theta.alpha)) and np.all(np.isfinite(theta.beta))):
        raise InvalidParameterError("parameters must be finite")
    if family.positive_pair_sums:
        sums = theta.pair_sums()
        np.fill_diagonal(sums, np.inf)
        smin = sums.min()
        if smin <= 0.0:
            i, j = np.unravel_index(np.argmin(sums), sums.shape)
            raise InvalidParameterError(
                f"pair sum for vertices ({i + 1}, {j + 1}) is {smin}; "
                f"must be positive for the {family.kind} family"
            )


def _pair_moments(theta: ParamVector, family: WeightFamily, var: bool):
    """Edge means, and the variances when ``var`` (else None), of every ordered
    pair as n-by-n arrays with a zero diagonal.

    Callers run :func:`validate_params` first, which makes every off-diagonal
    pair sum finite and in the family's domain, so no per-edge check runs here.
    """
    if (
        family.kind == "binary"
        and np.abs(theta.alpha).max() + np.abs(theta.beta).max() <= _EXP_SAFE
    ):
        # exp(-alpha_i - beta_j) factorises: an n^2 multiply in place of n^2
        # exponentials.  Then mean = 1/(1+t) and variance = t/(1+t)^2.
        t = np.multiply.outer(np.exp(-theta.alpha), np.exp(-theta.beta))
        if var:
            mean = t + 1.0
            np.reciprocal(mean, out=mean)
            variance = np.multiply(np.multiply(t, mean, out=t), mean, out=t)
        else:
            mean = np.reciprocal(np.add(t, 1.0, out=t), out=t)
            variance = None
    else:
        sums = theta.pair_sums()
        np.fill_diagonal(sums, 1.0)  # placeholder in every family's domain; zeroed below
        mean, variance = _edge_moments(family, sums, var)
    np.fill_diagonal(mean, 0.0)
    if var:
        np.fill_diagonal(variance, 0.0)
    return mean, variance


def bi_degrees(graph: Graph) -> BiDegree:
    """Row sums give out-degrees, column sums give in-degrees."""
    return BiDegree(graph.weights.sum(axis=1), graph.weights.sum(axis=0))


def expected_degrees(theta: ParamVector, family: WeightFamily) -> BiDegree:
    """Expected bi-degree sequence under the model at ``theta``."""
    validate_params(theta, family)
    means, _ = _pair_moments(theta, family, var=False)
    return BiDegree(means.sum(axis=1), means.sum(axis=0))


def moment_residual(theta: ParamVector, g: BiDegree, family: WeightFamily) -> np.ndarray:
    """The length 2n-1 residual ``F(theta)`` whose root is the MLE.

    Components 1..n are ``d_i - E d_i``; components n+1..2n-1 are
    ``b_j - E b_j`` for j < n (vertex n's in-effect is pinned by the
    identifiability constraint, so its residual is redundant).
    """
    validate_params(theta, family)
    if g.n != theta.n:
        raise ValueError(f"degree length {g.n} does not match parameter length {theta.n}")
    means, _ = _pair_moments(theta, family, var=False)
    return np.concatenate([g.d - means.sum(axis=1), (g.b - means.sum(axis=0))[:-1]])


def log_likelihood(theta: ParamVector, g: BiDegree, family: WeightFamily) -> float:
    """Stored-frame objective ``alpha.d + beta.b - sum of log-partition terms``.

    Its gradient in the free coordinates is :func:`moment_residual`, so the
    MLE is a stationary point.  For the negated families this is the negative
    of the natural-frame log-density; both characterize the same fit.
    """
    validate_params(theta, family)
    if g.n != theta.n:
        raise ValueError(f"degree length {g.n} does not match parameter length {theta.n}")
    sums = theta.pair_sums()
    np.fill_diagonal(sums, 1.0)  # placeholder in every family's domain; zeroed below
    z = _log_partition(family, sums)
    np.fill_diagonal(z, 0.0)
    return float(theta.alpha @ g.d + theta.beta @ g.b - z.sum())

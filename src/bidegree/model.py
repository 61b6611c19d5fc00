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

Everything that differs between the families (edge kernel, log-partition,
inverse mean, sampler, Newton smoothness constants, ramp offset, domain and
support) is one record per family in ``_FAMILIES``; no other code branches
on the family.  Each kernel makes at most one exponential per edge and no
n x n x q tensor: binary ``t = exp(-s)``, on whole graphs the n^2 product
``exp(-alpha_i) * exp(-beta_j)``; ``finite:q`` powers of ``t = exp(-|s|)``,
mirrored where ``s < 0``; geometric one ``expm1``; exponential ``1/s``.

Every whole-graph evaluation is one pass of ``_pair_moments`` over row
blocks.  While a block is in cache the pass adds its means into row and
column sums (the expected degrees) and, when it computes the variances, their
row and column sums (the Fisher diagonal) and their smallest off-diagonal
entry; nothing reads the block again.  The means live in a one-block scratch
buffer.  In a fit, each Newton trial makes one such pass:
:func:`moment_residual` given the fit's workspace (``work``) leaves the
variances' margins there, and the Fisher matrix of the accepted trial is
built from them.  Below ``solver._CLASS_GATE`` the workspace keeps the
variances whole too, for the step solve, in the fit's one n x n buffer.
From the gate on it keeps them as a block of scratch as well, and the
Fisher build writes its low-rank cross block into the two blocks, so such a
fit keeps no n x n array.  Either way the fitting loop allocates no n x n
array of its own.

Every public function here is a pure function of immutable values; nothing
mutates after construction, so all objects are safe to share across threads.
A workspace is made per fit and never outlives it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

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
    "moment_residual",
]


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
        if self.kind not in _FAMILIES:
            raise ValueError(f"unknown family kind {self.kind!r}; expected one of {tuple(_FAMILIES)}")
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
        return _maths(self).negated

    @property
    def positive_pair_sums(self) -> bool:
        """True when every off-diagonal pair sum must be strictly positive."""
        return _maths(self).positive_pair_sums

    @property
    def integer_weights(self) -> bool:
        return _maths(self).integer_weights

    @property
    def max_weight(self) -> float:
        """Largest support point (``inf`` for unbounded families)."""
        return _maths(self).max_weight(self)


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
        """Add a step in free coordinates; ``beta[-1]`` becomes 0, as in
        :meth:`from_free`.

        It adds to alpha and beta directly rather than through
        :attr:`free`: a fit takes a step per trial, and the length 2n-1
        copies split the allocator's free blocks into pieces too small for
        the length-n arrays of the results a caller keeps.
        """
        n = self.n
        return ParamVector(
            self.alpha + step[:n], np.append(self.beta[:-1] + step[n:], 0.0), self.negated
        )

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
        if not (np.all(np.isfinite(d) & (d >= 0)) and np.all(np.isfinite(b) & (b >= 0))):
            raise ValueError("degrees must be finite and nonnegative")
        # The totals are sums of the same weights in two orders, so they
        # agree to rounding relative to their size.
        out_total, in_total = float(d.sum()), float(b.sum())
        if abs(out_total - in_total) > 1e-9 * max(d.size, out_total, in_total):
            raise ValueError(
                f"out- and in-degree totals disagree: {out_total!r} vs {in_total!r}"
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
# per-family maths: the kernels, then one record per family in ``_FAMILIES``

# Binary pair sums up to this size in absolute value keep exp(-s) finite and
# normal, so exp(-alpha_i) * exp(-beta_j) can stand in for exp(-s) without
# overflow, underflow or an inf * 0 product.
_EXP_SAFE = 700.0

# Edges per row block where a whole-graph evaluation needs temporaries (the
# finite kernel, the binary per-edge fallback).  A block's temporaries then
# stay under 128 kB, which the C allocator serves from its free lists: with
# blocks of 2**15 edges, a finite:4 pass at n=500 took 1200 page faults and
# twice the time.
_BLOCK_EDGES = 16000

# Edges per row block of the kernels that allocate nothing (the rate
# families and the binary rank-one product): a block of means and one of
# variances, 512 kB each, stay in L2 cache while the pass sums their margins.
# Each block costs about ten numpy calls, so n <= 256 is one block.
_CACHE_EDGES = 2**16


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


def _pair_sums_in_domain(theta: ParamVector) -> np.ndarray:
    """The n-by-n pair sums with 1.0, in every family's domain, on the diagonal."""
    sums = theta.pair_sums()
    np.fill_diagonal(sums, 1.0)
    return sums


def _binary_moments(family: WeightFamily, s: np.ndarray, variance=None):
    # t = exp(-|s|): mean 1/(1+t), or t/(1+t) where s < 0; variance t/(1+t)^2
    t, mirrored = _fold(s)
    p = t + 1.0
    np.divide(1.0, p, out=p)  # the mean at |s|
    low = np.multiply(t, p, out=t)  # the mean at -|s|
    if variance is not None:
        np.multiply(low, p, out=variance)
    np.copyto(low, p, where=np.logical_not(mirrored, out=mirrored))
    return low, variance


def _binary_pair_moments(theta: ParamVector):
    # exp(-alpha_i - beta_j) factorises: a product per edge (a rank-one BLAS
    # product, exact with one term) in place of an exponential.  Then
    # mean = 1/(1+t) and variance = t/(1+t)^2.
    alpha, beta = theta.alpha, theta.beta
    if np.abs(alpha).max() + np.abs(beta).max() > _EXP_SAFE:
        return None
    left, right = np.exp(-alpha)[:, None], np.exp(-beta)[None, :]

    def block(rows: slice, mean: np.ndarray, variance: np.ndarray | None) -> None:
        t = mean if variance is None else variance
        np.dot(left[rows], right, out=t)
        np.divide(1.0, np.add(t, 1.0, out=mean), out=mean)
        if variance is not None:
            np.multiply(np.multiply(t, mean, out=t), mean, out=t)

    return block


def _exponential_moments(family: WeightFamily, s: np.ndarray, variance=None):
    mean = np.divide(1.0, s, out=s)
    if variance is not None:
        np.multiply(mean, mean, out=variance)
    return mean, variance


def _exponential_sample(theta: ParamVector, family: WeightFamily, gen) -> np.ndarray:
    u = 1.0 - gen.random((theta.n, theta.n))  # uniform on (0, 1]
    return -np.log(u) / _pair_sums_in_domain(theta)


def _geometric_moments(family: WeightFamily, s: np.ndarray, variance=None):
    with np.errstate(over="ignore"):
        mean = np.divide(1.0, np.expm1(s, out=s), out=s)
    if variance is not None:
        np.multiply(np.add(mean, 1.0, out=variance), mean, out=variance)
    return mean, variance


def _geometric_lipschitz(family: WeightFamily, nm1: int, lo: float, hi: float):
    eu = math.exp(lo)
    base = nm1 * eu * (1.0 + eu) / (eu - 1.0) ** 2
    return 2.0 * base, base


def _finite_moments(family: WeightFamily, s: np.ndarray, variance=None):
    # the finite:q pmf is t**k / Z with t = exp(-|s|) for s >= 0, and its
    # mirror image k -> q-1-k for s < 0
    q = family.support_size
    t, mirrored = _fold(s)
    z, *raw = _power_sums(q, t, 1 if variance is None else 2)
    mean = np.divide(raw[0], z, out=raw[0])  # the mean at |s|
    if variance is not None:
        np.divide(raw[1], z, out=variance)
        variance -= np.multiply(mean, mean, out=z)
    np.copyto(s, mean)
    np.subtract(q - 1, s, out=s, where=mirrored)
    return s, variance


def _finite_log_partition(family: WeightFamily, s: np.ndarray) -> np.ndarray:
    # log sum_k exp(-s k) = log Z(exp(-|s|)) plus the largest exponent, (q-1)|s| when s < 0
    q = family.support_size
    z = _power_sums(q, np.exp(-np.abs(s)), 0)[0]
    return -(np.log(z) + (q - 1) * np.maximum(-s, 0.0))


def _finite_inverse_mean(family: WeightFamily, m: np.ndarray) -> np.ndarray:
    # Bracketed Newton from the logit of m/(q-1), exact at q = 2.  The mean
    # decreases strictly in s with slope -variance; each evaluation shrinks
    # the bracket [-60, 60] to the root's side, and a Newton point outside
    # the closed bracket (a strict test would bisect away an exactly
    # converged entry) is replaced by the midpoint.  An entry is done when
    # its step is within a few ulps of the mean's own rounding, eps*m/var.
    q = family.support_size
    lo = np.full_like(m, -60.0)
    hi = np.full_like(m, 60.0)
    with np.errstate(divide="ignore"):
        s = np.clip(np.log(q - 1 - m) - np.log(m), lo, hi)
    variance = np.empty_like(m)
    for _ in range(100):
        mean = _finite_moments(family, s.copy(), variance)[0]
        above = mean > m
        np.copyto(lo, s, where=above)
        np.copyto(hi, s, where=~above)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = s + (mean - m) / variance
            rounding = 4 * np.finfo(float).eps * (np.abs(m) / variance + np.abs(s))
        step = np.where((lo <= newton) & (newton <= hi), newton, 0.5 * (lo + hi)) - s
        s += step
        if np.all(np.abs(step) <= rounding):
            break
    return s


def _finite_sample(theta: ParamVector, family: WeightFamily, gen) -> np.ndarray:
    # The smallest k with P(X <= k) >= u.  The mirrored index is drawn with
    # 1 - u, so one running sum of t**k serves both signs of s.
    q = family.support_size
    t, mirrored = _fold(_pair_sums_in_domain(theta))
    u = gen.random(t.shape)
    np.subtract(1.0, u, out=u, where=mirrored)
    u *= _power_sums(q, t, 0)[0]
    count = np.zeros_like(u)
    cumulative = np.zeros_like(u)
    tk = np.ones_like(u)
    for _ in range(q - 1):
        cumulative += tk
        tk *= t
        count += cumulative < u
    return np.subtract(q - 1, count, out=count, where=mirrored)


def _finite_lipschitz(family: WeightFamily, nm1: int, lo: float, hi: float):
    # No published constants: bound the mean's second derivative (the pmf's
    # third central moment) on a grid; the mirrored pmf only flips its sign.
    grid = np.linspace(lo, hi, 513)
    z, m1, m2, m3 = _power_sums(family.support_size, np.exp(-np.abs(grid)), 3)
    mean = m1 / z
    bound = float(np.abs(m3 / z - 3.0 * mean * (m2 / z) + 2.0 * mean**3).max())
    return 2.0 * nm1 * bound, nm1 * bound


@dataclass(frozen=True)
class _FamilyMaths:
    """One weight family's maths.  The comments give each callable's
    arguments; ``family`` carries q for ``finite:q``."""

    moments: Callable  # (family, s, variance=None) -> (mean, variance); the means overwrite s
    log_partition: Callable  # (family, s) -> per edge, in the stored frame; slope = mean
    inverse_mean: Callable  # (family, m) -> the pair sum whose edge mean is m
    sample: Callable  # (theta, family, gen) -> n x n weights, diagonal unspecified
    lipschitz: Callable  # (family, n - 1, lo, hi) -> (K1, K2) for pair sums in [lo, hi]
    # (family) -> how far above the real axis the variance's nearest pole
    # lies, over the pair sum s or, for the rate families, over log(s - c)
    # for any shift c >= 0, where their pole at s = 0 moves off to -inf
    pole_height: Callable
    max_weight: Callable = lambda family: math.inf  # (family) -> the largest support point
    negated: bool = True  # parameters stored sign-flipped
    positive_pair_sums: bool = False
    integer_weights: bool = True
    in_place: bool = False  # the kernel allocates nothing: cache-sized row blocks
    ramp_offset: float = 0.0  # of the ramp designs, whose smallest pair sum is twice it
    # (theta) -> a row-block kernel (rows, mean, variance) that allocates
    # nothing, or None where ``moments`` must run on the pair sums
    pair_moments: Callable | None = None


_FAMILIES = {
    "binary": _FamilyMaths(
        moments=_binary_moments,
        log_partition=lambda family, s: np.logaddexp(0.0, s),
        inverse_mean=lambda family, m: np.log(m) - np.log1p(-m),
        sample=lambda theta, family, gen: (
            gen.random((theta.n, theta.n)) < _edge_means(theta, family)
        ).astype(float),
        lipschitz=lambda family, nm1, lo, hi: (float(nm1), nm1 / 2.0),
        max_weight=lambda family: 1.0,
        negated=False,
        pole_height=lambda family: math.pi,  # exp(s) = -1
        pair_moments=_binary_pair_moments,
    ),
    "exponential": _FamilyMaths(
        moments=_exponential_moments,
        log_partition=lambda family, s: np.log(s),
        inverse_mean=lambda family, m: 1.0 / m,
        sample=_exponential_sample,
        lipschitz=lambda family, nm1, lo, hi: (2.0 * nm1 / lo**3, nm1 / lo**3),
        pole_height=lambda family: math.pi,  # s = 0: arg(s - c) = pi
        positive_pair_sums=True,
        integer_weights=False,
        in_place=True,
        ramp_offset=1.0,
    ),
    "geometric": _FamilyMaths(
        moments=_geometric_moments,
        log_partition=lambda family, s: np.log(-np.expm1(-s)),
        inverse_mean=lambda family, m: np.log1p(1.0 / m),
        sample=lambda theta, family, gen: np.floor(_exponential_sample(theta, family, gen)),
        lipschitz=_geometric_lipschitz,
        positive_pair_sums=True,
        in_place=True,
        ramp_offset=0.2,
        pole_height=lambda family: 0.5 * math.pi,  # s = 2 pi i k: arg(s - c) >= pi/2
    ),
    "finite": _FamilyMaths(
        moments=_finite_moments,
        log_partition=_finite_log_partition,
        inverse_mean=_finite_inverse_mean,
        sample=_finite_sample,
        lipschitz=_finite_lipschitz,
        max_weight=lambda family: float(family.support_size - 1),
        # exp(-qs) = 1 but exp(-s) != 1, where the normalizer vanishes
        pole_height=lambda family: 2.0 * math.pi / family.support_size,
    ),
}


def _maths(family: WeightFamily) -> _FamilyMaths:
    """The record of the family's kind."""
    return _FAMILIES[family.kind]


# ---------------------------------------------------------------------------
# per-edge quantities


def edge_moments(family: WeightFamily, s):
    """Edge-weight mean and variance at pair sum ``s``, elementwise over
    arrays and floats for a scalar, from one kernel call."""
    arr = np.array(s, dtype=float, ndmin=1)  # a copy, which the kernel overwrites
    if not np.all(np.isfinite(arr)):
        raise InvalidParameterError(f"pair sums must be finite for the {family.kind} family")
    if family.positive_pair_sums and np.any(arr <= 0.0):
        bad = float(np.min(arr))
        raise InvalidParameterError(
            f"pair sums must be positive for the {family.kind} family (got {bad})"
        )
    mean, variance = _maths(family).moments(family, arr, np.empty_like(arr))
    return (float(mean[0]), float(variance[0])) if np.ndim(s) == 0 else (mean, variance)


def edge_mean(family: WeightFamily, s):
    """Expected edge weight at pair sum ``s`` (elementwise over arrays)."""
    return edge_moments(family, s)[0]


def edge_variance(family: WeightFamily, s):
    """Edge-weight variance at pair sum ``s``; equals the Fisher cross entry."""
    return edge_moments(family, s)[1]


# ---------------------------------------------------------------------------
# whole-graph quantities


def _min_pair_sum(alpha: np.ndarray, beta: np.ndarray) -> tuple[float, int, int]:
    """The smallest off-diagonal ``alpha[i] + beta[j]`` and a pair ``(i, j)``,
    ``i != j``, that attains it, in O(n).

    When the smallest alpha and the smallest beta belong to different
    vertices they form the pair.  Otherwise one side keeps its smallest entry
    and the other takes the smallest of its remaining ones: any pair that
    avoids that vertex on both sides is no smaller.
    """
    i, j = int(np.argmin(alpha)), int(np.argmin(beta))
    if i != j:
        return float(alpha[i] + beta[j]), i, j
    rest = alpha.copy()
    rest[i] = np.inf
    i2 = int(np.argmin(rest))
    rest = beta.copy()
    rest[j] = np.inf
    j2 = int(np.argmin(rest))
    with_alpha, with_beta = alpha[i] + beta[j2], alpha[i2] + beta[j]
    if with_alpha <= with_beta:
        return float(with_alpha), i, j2
    return float(with_beta), i2, j


def validate_params(theta: ParamVector, family: WeightFamily) -> None:
    """Raise InvalidParameterError unless theta is usable with the family.  O(n)."""
    if theta.negated != family.negated:
        raise InvalidParameterError(
            f"parameter orientation (negated={theta.negated}) does not match "
            f"family {family.kind!r} (negated={family.negated})"
        )
    if not (np.all(np.isfinite(theta.alpha)) and np.all(np.isfinite(theta.beta))):
        raise InvalidParameterError("parameters must be finite")
    if family.positive_pair_sums:
        smin, i, j = _min_pair_sum(theta.alpha, theta.beta)
        if smin <= 0.0:
            raise InvalidParameterError(
                f"pair sum for vertices ({i + 1}, {j + 1}) is {smin}; "
                f"must be positive for the {family.kind} family"
            )


def _block_rows(n: int, cached: bool) -> int:
    """Rows per block of a pass: ``_CACHE_EDGES`` edges for kernels that
    allocate nothing, else ``_BLOCK_EDGES``."""
    return max(1, min(n, (_CACHE_EDGES if cached else _BLOCK_EDGES) // n))


class _Workspace:
    """The buffers one whole-graph pass writes into, and in a fit the
    parameters and the results of the last pass.

    ``means`` and ``variance`` say how much of each n x n array a pass keeps:
    ``"whole"`` (n rows) or ``"block"`` (one row block of scratch, which the
    next block overwrites); ``variance=None`` skips the variances.  The
    margin vectors receive the pass's sums.  ``pairs`` is where a kernel
    without a whole-graph form gets the in-effects, tiled over a block: the
    variances' rows, which the kernel overwrites, or a block of its own
    (empty for binary, whose whole-graph kernel needs none).

    ``newton_fit`` makes one per fit and hands it to :func:`moment_residual`
    and :func:`bidegree.fisher.fisher_info` as ``work``; the accepted trial's
    pass is then the next Fisher matrix.  Below ``solver._CLASS_GATE`` it
    keeps the variances whole, which the step solve reads.  From the gate on
    it keeps them as a block too, and ``nodes`` is the most Chebyshev nodes
    of the low-rank Fisher operator that ``fisher_info`` builds in the two
    blocks between passes, so each block holds at least ``nodes + 1`` rows.
    Nothing a public function returns points into a fit's workspace.
    """

    __slots__ = ("means", "variance", "pairs", "vectors", "ones", "theta", "last")

    def __init__(
        self,
        n: int,
        family: WeightFamily,
        means: str = "block",
        variance: str | None = "whole",
        nodes: int = 0,
    ) -> None:
        maths = _maths(family)
        rows = _block_rows(n, maths.in_place or maths.pair_moments is not None)
        if nodes:
            rows = max(rows, nodes + 1)
        heights = {"whole": n, "block": rows, None: 0}
        m, v = heights[means], heights[variance]
        t = 0 if variance or maths.pair_moments else rows
        flat = np.empty((m + v + t) * n)  # one allocation, which the next fit can reuse whole
        self.means = flat[: m * n].reshape(m, n)
        self.variance = flat[m * n : (m + v) * n].reshape(v, n) if variance else None
        self.pairs = self.variance if variance else flat[m * n :].reshape(t, n)
        self.vectors = np.empty((5, n))  # four margins and a spare
        self.ones = np.ones(n)
        self.theta: ParamVector | None = None
        self.last: _Moments | None = None


class _Moments(NamedTuple):
    """What one pass leaves; its arrays are the workspace's."""

    mean_rows: np.ndarray  # expected out-degrees
    mean_cols: np.ndarray  # expected in-degrees
    variance: np.ndarray | None  # n x n with a zero diagonal, when kept whole
    var_rows: np.ndarray | None  # the Fisher matrix's out-effect diagonal
    var_cols: np.ndarray | None  # its in-effect diagonal and corner
    cross_min: float  # the smallest off-diagonal variance


def _add_margins(block: np.ndarray, rows: slice, row_sums, col_sums, ones, spare) -> None:
    """Add a row block's row and column sums into the margins, as mat-vecs
    with a ones vector while the block is in cache."""
    np.dot(block, ones, out=row_sums[rows])
    if rows.start == 0:
        np.dot(ones[: len(block)], block, out=col_sums)
    else:
        col_sums += np.dot(ones[: len(block)], block, out=spare)


def _block_of(buffer: np.ndarray, block: slice, n: int) -> np.ndarray:
    """Where a block goes: its rows of a whole buffer, or the first rows of
    a block's scratch."""
    return buffer[block] if len(buffer) == n else buffer[: block.stop - block.start]


def _pair_moments(theta: ParamVector, family: WeightFamily, work: _Workspace) -> _Moments:
    """The one pass over the edges: row and column sums of the edge means of
    every ordered pair ``i != j`` and, when ``work`` has a variance buffer,
    of the edge variances, with the smallest of them.

    The pass runs in blocks of rows.  Each block's means and variances go to
    the workspace's buffers (a whole buffer keeps them, with a zero
    diagonal) and are summed before the next block.  Callers run
    :func:`validate_params` first, which makes every off-diagonal pair sum
    finite and in the family's domain, so no per-edge check runs here.
    """
    n = theta.n
    maths = _maths(family)
    kernel = maths.pair_moments(theta) if maths.pair_moments else None
    rows = _block_rows(n, maths.in_place or kernel is not None)
    means, variance, ones, pairs = work.means, work.variance, work.ones, work.pairs
    if kernel is None and not len(pairs):  # binary beyond _EXP_SAFE, without variances
        pairs = np.empty((rows, n))
    mean_rows, mean_cols, var_rows, var_cols, spare = work.vectors
    cross_min = math.inf
    for lo in range(0, n, rows):
        block = slice(lo, min(lo + rows, n))
        mean = _block_of(means, block, n)
        var = None if variance is None else _block_of(variance, block, n)
        if kernel is None:
            # two broadcasting copies and a same-shape add: a broadcasting add
            # would allocate the ufunc's buffers on every block
            tile = _block_of(pairs, block, n)
            np.copyto(mean, theta.alpha[block, None])
            np.copyto(tile, theta.beta)
            s = np.add(mean, tile, out=mean)
            np.fill_diagonal(s[:, block], 1.0)  # placeholder in every family's domain
            maths.moments(family, s, var)
        else:
            kernel(block, mean, var)
        np.fill_diagonal(mean[:, block], 0.0)
        _add_margins(mean, block, mean_rows, mean_cols, ones, spare)
        if var is not None:
            np.fill_diagonal(var[:, block], np.inf)  # keep the diagonal out of the minimum
            cross_min = min(cross_min, float(var.min()))
            np.fill_diagonal(var[:, block], 0.0)
            _add_margins(var, block, var_rows, var_cols, ones, spare)
    if variance is None:
        return _Moments(mean_rows, mean_cols, None, None, None, math.nan)
    whole = variance if len(variance) == n else None
    return _Moments(mean_rows, mean_cols, whole, var_rows, var_cols, cross_min)


def _edge_means(theta: ParamVector, family: WeightFamily) -> np.ndarray:
    """The n-by-n edge means with a zero diagonal, new; the binary sampler's input."""
    work = _Workspace(theta.n, family, means="whole", variance=None)
    _pair_moments(theta, family, work)
    return work.means


def bi_degrees(graph: Graph) -> BiDegree:
    """Row sums give out-degrees, column sums give in-degrees."""
    return BiDegree(graph.weights.sum(axis=1), graph.weights.sum(axis=0))


def expected_degrees(theta: ParamVector, family: WeightFamily) -> BiDegree:
    """Expected bi-degree sequence under the model at ``theta``."""
    validate_params(theta, family)
    moments = _pair_moments(theta, family, _Workspace(theta.n, family, variance=None))
    return BiDegree(moments.mean_rows, moments.mean_cols)


def moment_residual(
    theta: ParamVector, g: BiDegree, family: WeightFamily, work: _Workspace | None = None
) -> np.ndarray:
    """The length 2n-1 residual ``F(theta)`` whose root is the MLE.

    Components 1..n are ``d_i - E d_i``; components n+1..2n-1 are
    ``b_j - E b_j`` for j < n (vertex n's in-effect is pinned by the
    identifiability constraint, so its residual is redundant).

    ``work`` is the fitting loop's workspace: the same pass then also
    computes the edge variances, their margins and their minimum, and leaves
    them there for the Fisher build at ``theta``.  The residual returned is a
    new array either way.
    """
    validate_params(theta, family)
    if g.n != theta.n:
        raise ValueError(f"degree length {g.n} does not match parameter length {theta.n}")
    if work is None:
        moments = _pair_moments(theta, family, _Workspace(theta.n, family, variance=None))
    else:
        moments = work.last = _pair_moments(theta, family, work)
        work.theta = theta
    return np.concatenate([g.d - moments.mean_rows, (g.b - moments.mean_cols)[:-1]])


def log_likelihood(theta: ParamVector, g: BiDegree, family: WeightFamily) -> float:
    """Stored-frame objective ``alpha.d + beta.b - sum of log-partition terms``.

    Its gradient in the free coordinates is :func:`moment_residual`, so the
    MLE is a stationary point.  For the negated families this is the negative
    of the natural-frame log-density; both characterize the same fit.
    """
    validate_params(theta, family)
    if g.n != theta.n:
        raise ValueError(f"degree length {g.n} does not match parameter length {theta.n}")
    z = _maths(family).log_partition(family, _pair_sums_in_domain(theta))
    np.fill_diagonal(z, 0.0)
    return float(theta.alpha @ g.d + theta.beta @ g.b - z.sum())

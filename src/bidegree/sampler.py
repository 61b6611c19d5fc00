"""Graph sampling and the linear-ramp parameter designs used in experiments.

Randomness contract: every sampler is a pure function of ``(theta, family,
seed)``.  The generator is numpy's counter-based Philox keyed directly by the
64-bit seed, and replication ``r`` of a study derives its stream seed as
``derive_seed(base_seed, r)`` -- a splitmix64 hash mix -- so replications are
independent, reproducible, and assignable to workers in any order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    Graph,
    ParamVector,
    WeightFamily,
    _fold,
    _pair_moments,
    _power_sums,
    validate_params,
)

__all__ = [
    "SimDesign",
    "derive_seed",
    "design_params",
    "ramp_magnitude",
    "sample_graph",
]

_MASK64 = (1 << 64) - 1

# Per-family additive offset of the linear ramp; keeps rate-family pair sums
# bounded away from zero (minimum pair sum is twice the offset).
_RAMP_OFFSET = {"binary": 0.0, "exponential": 1.0, "geometric": 0.2, "finite": 0.0}

_RAMP_RULES = ("zero", "loglog", "sqrtlog", "log", "sqrtn")


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(base_seed: int, *parts: int) -> int:
    """Mix a base seed with integer indices into a fresh 64-bit stream seed."""
    h = base_seed & _MASK64
    for p in parts:
        h = _splitmix64(h ^ _splitmix64(p & _MASK64))
    return h


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed & _MASK64))


def ramp_magnitude(rule: str, n: int) -> float:
    """Ramp height L for a named rule: zero, loglog, sqrtlog, log or sqrtn."""
    rule = rule.strip().lower()
    if rule == "zero":
        return 0.0
    if rule == "loglog":
        return math.log(math.log(n))
    if rule == "sqrtlog":
        return math.sqrt(math.log(n))
    if rule == "log":
        return math.log(n)
    if rule == "sqrtn":
        return math.sqrt(n)
    raise ValueError(f"unknown ramp rule {rule!r}; expected one of {_RAMP_RULES}")


@dataclass(frozen=True)
class SimDesign:
    """A linear parameter ramp of height ``L`` on ``n`` vertices."""

    family: WeightFamily
    n: int
    L: float

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("need at least 2 vertices")
        if self.L < 0:
            raise ValueError("ramp height L must be nonnegative")


def design_params(design: SimDesign) -> ParamVector:
    """Parameters ``offset + (n-1-i) * L/(n-1)``, mirrored onto beta, beta[-1] = 0."""
    n, L = design.n, design.L
    offset = _RAMP_OFFSET[design.family.kind]
    idx = np.arange(n, dtype=float)
    alpha = offset + (n - 1 - idx) * L / (n - 1)
    beta = alpha.copy()
    beta[-1] = 0.0
    return ParamVector(alpha, beta, negated=design.family.negated)


def sample_graph(theta: ParamVector, family: WeightFamily, seed: int) -> Graph:
    """Draw one graph: n(n-1) independent edges at the given parameters.

    Inverse-CDF sampling throughout: exponential weights are ``-log(U)/s``,
    geometric weights ``floor(-log(U)/s)`` with U uniform on (0, 1], finite
    weights by inverting the exact pmf.  Deterministic given the seed.
    """
    validate_params(theta, family)
    n = theta.n
    gen = _rng(seed)
    if family.kind == "binary":
        p, _ = _pair_moments(theta, family, var=False)
        weights = (gen.random((n, n)) < p).astype(float)
    else:
        sums = theta.pair_sums()
        np.fill_diagonal(sums, 1.0)  # placeholder; the diagonal is zeroed below
        if family.kind == "exponential":
            u = 1.0 - gen.random((n, n))
            weights = -np.log(u) / sums
        elif family.kind == "geometric":
            u = 1.0 - gen.random((n, n))
            weights = np.floor(-np.log(u) / sums)
        else:
            weights = _finite_inverse_cdf(family.support_size, sums, gen.random((n, n)))
    np.fill_diagonal(weights, 0.0)
    return Graph(weights)


def _finite_inverse_cdf(q: int, s: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The smallest k with ``P(X <= k) >= u`` under the q-point pmf at ``s``.

    With ``t = exp(-|s|)`` the pmf is ``t**k / Z`` for ``s >= 0`` and its
    mirror image ``k -> q-1-k`` for ``s < 0``; the mirrored index is drawn
    with ``1 - u``, so one running sum of ``t**k`` serves both signs.  ``s``
    and ``u`` are overwritten.
    """
    t, mirrored = _fold(s)
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

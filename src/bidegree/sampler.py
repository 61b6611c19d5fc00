"""Graph sampling and the linear-ramp parameter designs used in experiments.

Randomness contract: every sampler is a pure function of ``(theta, family,
seed)``.  The generator is numpy's counter-based Philox keyed directly by the
64-bit seed, and replication ``r`` of a study derives its stream seed as
``derive_seed(base_seed, r)`` -- a splitmix64 hash mix -- so replications are
independent, reproducible, and assignable to workers in any order.
The draws and ramp offsets themselves are per-family fields of the family
records in :mod:`bidegree.model`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Graph, ParamVector, WeightFamily, _maths, validate_params

__all__ = [
    "SimDesign",
    "derive_seed",
    "design_params",
    "ramp_magnitude",
    "sample_graph",
]

_MASK64 = (1 << 64) - 1

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
    """Parameters ``offset + (n-1-i) * L/(n-1)``, mirrored onto beta, beta[-1] = 0;
    the family's offset keeps rate-family pair sums (at least twice it) off zero."""
    n, L = design.n, design.L
    offset = _maths(design.family).ramp_offset
    idx = np.arange(n, dtype=float)
    alpha = offset + (n - 1 - idx) * L / (n - 1)
    beta = alpha.copy()
    beta[-1] = 0.0
    return ParamVector(alpha, beta, negated=design.family.negated)


def sample_graph(theta: ParamVector, family: WeightFamily, seed: int) -> Graph:
    """Draw one graph: n(n-1) independent edges at the given parameters.

    The family's record draws by inverse-CDF sampling: binary ``U < p`` with
    ``p`` from the edge kernel, exponential ``-log(U)/s``, geometric
    ``floor(-log(U)/s)`` with U uniform on (0, 1], finite by inverting the
    exact pmf.  Deterministic given the seed.
    """
    validate_params(theta, family)
    weights = _maths(family).sample(theta, family, _rng(seed))
    np.fill_diagonal(weights, 0.0)
    return Graph(weights)

"""Plug-in asymptotic variances, standardized contrasts, and confidence intervals.

For any fixed set of coordinates the centered MLE is asymptotically normal
with covariance given by the approximate inverse of the Fisher matrix, so a
contrast of two out-effects has variance ``1/v[i] + 1/v[j]`` with ``v`` the
Fisher diagonal evaluated at the fitted parameters (the shared corner term
cancels in differences and is dropped for pair sums as well).  Interval
half-widths use the standard normal quantile of :class:`statistics.NormalDist`
(Wichura's AS241, accurate to about machine precision on (0, 1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .model import ParamVector, WeightFamily, _pair_moments, _Workspace, validate_params

__all__ = [
    "AsymptoticCov",
    "ci_for_contrast",
    "contrast_stat",
    "normal_quantile",
    "plug_in_variances",
]

CONTRAST_KINDS = ("alpha_diff", "pair_sum", "beta_diff")


@dataclass(frozen=True)
class AsymptoticCov:
    """Plug-in Fisher diagonals: n out-effect entries, n-1 in-effect entries,
    and the corner weight of the eliminated in-effect as entry 2n."""

    v_hat_diag: np.ndarray
    level: float

    def __post_init__(self) -> None:
        if not 0.0 < self.level < 1.0:
            raise ValueError("confidence level must lie in (0, 1)")
        if np.any(self.v_hat_diag <= 0.0):
            raise ValueError("all plug-in variances must be positive")

    @property
    def n(self) -> int:
        return self.v_hat_diag.size // 2

    def var_alpha(self, i: int) -> float:
        if not 0 <= i < self.n:
            raise IndexError(f"out-effect index {i} out of range for n={self.n}")
        return float(self.v_hat_diag[i])

    def var_beta(self, j: int) -> float:
        if not 0 <= j < self.n - 1:
            raise IndexError(
                f"in-effect index {j} out of range (vertex n's in-effect is pinned)"
            )
        return float(self.v_hat_diag[self.n + j])


def plug_in_variances(
    theta_hat: ParamVector, family: WeightFamily, level: float = 0.95
) -> AsymptoticCov:
    """Fisher diagonals evaluated at the fitted parameters.

    They are the variances' margins of :func:`bidegree.fisher.fisher_info`'s
    pass, taken from the same pass with the variances in a one-block scratch
    buffer, so no n x n array is made.
    """
    validate_params(theta_hat, family)
    work = _Workspace(theta_hat.n, family, variance="block")
    moments = _pair_moments(theta_hat, family, work)
    return AsymptoticCov(
        v_hat_diag=np.concatenate([moments.var_rows, moments.var_cols]),
        level=level,
    )


def contrast_stat(
    kind: str,
    i: int,
    j: int,
    theta_hat: ParamVector,
    theta_star: ParamVector,
    cov: AsymptoticCov,
) -> float:
    """Standardized contrast, asymptotically standard normal under the model.

    Kinds (indices are 0-based vertex indices):
      alpha_diff -- (alpha_i - alpha_j) centered at the truth;
      pair_sum   -- (alpha_i + beta_j) centered at the truth, j < n-1;
      beta_diff  -- (beta_i - beta_j) centered at the truth, i, j < n-1.
    """
    if kind not in CONTRAST_KINDS:
        raise ValueError(f"unknown contrast kind {kind!r}; expected one of {CONTRAST_KINDS}")
    if kind == "alpha_diff":
        num = (theta_hat.alpha[i] - theta_hat.alpha[j]) - (
            theta_star.alpha[i] - theta_star.alpha[j]
        )
        var = 1.0 / cov.var_alpha(i) + 1.0 / cov.var_alpha(j)
    elif kind == "pair_sum":
        num = (theta_hat.alpha[i] + theta_hat.beta[j]) - (
            theta_star.alpha[i] + theta_star.beta[j]
        )
        var = 1.0 / cov.var_alpha(i) + 1.0 / cov.var_beta(j)
    else:
        num = (theta_hat.beta[i] - theta_hat.beta[j]) - (
            theta_star.beta[i] - theta_star.beta[j]
        )
        var = 1.0 / cov.var_beta(i) + 1.0 / cov.var_beta(j)
    return float(num / math.sqrt(var))


def ci_for_contrast(
    i: int,
    j: int,
    theta_hat: ParamVector,
    cov: AsymptoticCov,
    level: float | None = None,
) -> tuple[float, float]:
    """Two-sided interval for ``alpha_i - alpha_j`` (0-based indices)."""
    level = cov.level if level is None else level
    z = normal_quantile(0.5 * (1.0 + level))
    center = float(theta_hat.alpha[i] - theta_hat.alpha[j])
    half = z * math.sqrt(1.0 / cov.var_alpha(i) + 1.0 / cov.var_alpha(j))
    return center - half, center + half


_STANDARD_NORMAL = NormalDist()


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF (the standard library's, near machine
    precision over the whole of (0, 1))."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile probability must lie in (0, 1), got {p}")
    return _STANDARD_NORMAL.inv_cdf(p)

"""Tests of the benchmark's independent existence certificate and fit checks."""

from types import SimpleNamespace

import numpy as np
import pytest

from bidegree import (
    Existence,
    SimDesign,
    WeightFamily,
    bi_degrees,
    derive_seed,
    design_params,
    newton_fit,
    ramp_magnitude,
    sample_graph,
)
from checker import Checks, certificate_cap, fit_failure, mle_exists


@pytest.mark.parametrize(
    "label, d, b, expected",
    [
        ("binary", [0, 2, 2, 2], [2, 2, 1, 1], False),  # zero out-degree
        ("binary", [3, 1, 1, 1], [2, 2, 1, 1], False),  # saturated row: n - 1 edges
        # Vertices 1-3 need 9 edges but can reach only each other (6) and the
        # two light in-degrees (2): no matrix has these margins (Hall).
        ("binary", [3, 3, 3, 1, 1], [3, 3, 3, 1, 1], False),
        # Realisable only with forced entries, though no degree is 0 or n - 1.
        ("binary", [3, 3, 2, 1, 1], [3, 3, 2, 1, 1], False),
        ("binary", [2, 2, 2, 2], [2, 2, 2, 2], True),
        ("finite:4", [9, 4, 4, 4], [6, 6, 4, 5], False),  # saturated row: (q-1)(n-1)
        ("finite:4", [4, 4, 4, 4], [4, 4, 4, 4], True),
        ("geometric", [0, 2, 1], [1, 1, 1], False),
        # Degree 1 everywhere is interior for unbounded weights (all entries 1/2).
        ("geometric", [1, 1, 1], [1, 1, 1], True),
    ],
)
def test_certificate_on_small_degree_sequences(label, d, b, expected):
    d, b = np.array(d, dtype=float), np.array(b, dtype=float)
    assert mle_exists(d, b, certificate_cap(label, d)) is expected


@pytest.mark.parametrize("rule", ["loglog", "log"])
def test_certificate_agrees_with_newton_on_binary_n100(rule):
    family = WeightFamily.binary()
    theta = design_params(SimDesign(family, 100, ramp_magnitude(rule, 100)))
    for r in range(30):
        g = bi_degrees(sample_graph(theta, family, derive_seed(20260809, r)))
        verdict = newton_fit(g, family).existence
        assert verdict is not Existence.UNDETERMINED
        assert mle_exists(g.d, g.b, 1) is (verdict is Existence.EXISTS)


def test_fit_failure_reasons():
    d = b = np.full(4, 2.0)

    def fit(verdict, s):
        # Flat parameters: every pair sum is s, so every edge mean is expit(s).
        return SimpleNamespace(existence=verdict, theta_hat=SimpleNamespace(alpha=np.full(4, s), beta=np.zeros(4)))

    mle = fit(Existence.EXISTS, np.log(2.0))  # expit(log 2) = 2/3 = degree / (n - 1)
    assert fit_failure("binary", mle, d, b, True) is None
    assert fit_failure("binary", fit(Existence.EXISTS, 0.5), d, b, True) == "exists with residual above tolerance"
    assert fit_failure("binary", mle, d, b, False) == "exists, certificate says nonexistent"
    assert fit_failure("binary", fit(Existence.NON_EXISTENT, 0.5), d, b, False) is None
    assert fit_failure("binary", fit(Existence.NON_EXISTENT, 0.5), d, b, True) == "nonexistent, certificate says exists"
    assert fit_failure("binary", fit(Existence.UNDETERMINED, 0.5), d, b, True) == "undetermined"
    assert fit_failure("binary", RuntimeError("boom"), d, b, True) == "raised RuntimeError"


def test_checks_count_wrong_verdicts_apart_from_failures():
    g = SimpleNamespace(d=np.full(4, 2.0), b=np.full(4, 2.0))  # interior: the MLE exists
    checks = Checks("binary")
    stopped = SimpleNamespace(existence=Existence.NON_EXISTENT, theta_hat=None)
    checks.fit(g, stopped)
    checks.fit(g, stopped)
    checks.fit(g, RuntimeError("boom"))
    checks.fit(g, SimpleNamespace(existence=Existence.UNDETERMINED, theta_hat=None))
    assert (checks.attempted, checks.wrong_verdicts, checks.failed) == (4, 2, 2)
    assert checks.ok_frac == 0.0

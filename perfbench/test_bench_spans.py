"""Tests of the benchmark's layer tracer."""

import bidegree
import bidegree.fisher
import bidegree.solver
from bidegree import SimDesign, WeightFamily, bi_degrees, design_params, sample_graph
from spans import Tracer

BINARY = WeightFamily.binary()


def _degrees(n=30):
    theta = design_params(SimDesign(BINARY, n, 0.5))
    return bi_degrees(sample_graph(theta, BINARY, 3))


def test_tracer_sees_calls_where_callers_resolve_them():
    g = _degrees()
    tracer = Tracer()
    tracer.install()
    try:
        result = bidegree.newton_fit(g, BINARY)
    finally:
        tracer.uninstall()
    assert bidegree.solver.fisher_info is bidegree.fisher.fisher_info  # originals restored
    m = {name: value for name, (value, _) in tracer.summary(1).items()}
    assert m["solver.newton_fit.calls"] == 1
    assert m["solver.default_start.calls"] == 1
    steps = m["fisher.solve_structured.calls"]
    assert m["fisher.fisher_info.calls"] == steps and 1 <= steps <= result.iterations
    assert m["model.moment_residual.calls"] > steps
    assert m["solver.iterations"] == result.iterations
    assert m["solver.exists_ratio"] == 1.0 and m["solver.wasted_iter_frac"] == 0.0
    children = sum(m[f"{layer}.total_s"] for layer in (
        "model.moment_residual", "fisher.fisher_info", "fisher.solve_structured", "solver.default_start"
    ))
    assert abs(m["solver.newton_fit.self_s"] - (m["solver.newton_fit.total_s"] - children)) < 1e-9


def test_removed_layer_function_is_missing_not_zero(monkeypatch):
    monkeypatch.delattr(bidegree.fisher, "solve_structured")
    tracer = Tracer()
    assert tracer.missing == ["bidegree.fisher.solve_structured"]
    assert not any(name.startswith("fisher.solve_structured") for name in tracer.summary(1))

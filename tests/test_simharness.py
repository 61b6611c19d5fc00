import dataclasses
import json
import math

import pytest

import bidegree.simharness as sh
from bidegree.model import WeightFamily
from bidegree.sampler import SimDesign, design_params
from bidegree.simharness import (
    ExperimentConfig,
    InsufficientDataError,
    config_from_json,
    experiment_csv,
    qq_csv,
    qq_export,
    run_experiment,
)
from bidegree.solver import Existence, FitResult

BINARY = WeightFamily.binary()


def small_config(**overrides):
    base = dict(
        family=BINARY,
        n_values=(30,),
        L_rules=("zero",),
        pairs=((1, 2),),
        replications=40,
        base_seed=99,
        parallelism=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(pairs=())
        with pytest.raises(ValueError):
            small_config(pairs=((1, 31),))
        with pytest.raises(ValueError):
            small_config(replications=0)
        with pytest.raises(ValueError):
            small_config(L_rules=("steep",))
        with pytest.raises(ValueError):
            small_config(level=1.2)

    def test_unknown_step_mode_rejected(self):
        with pytest.raises(ValueError, match="step_mode"):
            small_config(step_mode="bogus")

    def test_json_round_trip(self):
        text = json.dumps(
            {
                "family": "geometric",
                "n_values": [20, 30],
                "L_rules": ["zero", "loglog"],
                "pairs": [[1, 2], [5, 6]],
                "replications": 7,
                "base_seed": 3,
            }
        )
        cfg = config_from_json(text)
        assert cfg.family == WeightFamily.geometric()
        assert cfg.n_values == (20, 30)
        assert cfg.pairs == ((1, 2), (5, 6))
        assert cfg.replications == 7

    def test_json_names_every_field(self):
        cfg = ExperimentConfig(
            family=WeightFamily.finite(3),
            n_values=(12, 16),
            L_rules=("zero", "log"),
            pairs=((1, 2), (3, 4)),
            replications=9,
            level=0.9,
            base_seed=17,
            parallelism=2,
            step_mode="sapprox",
        )
        data = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(ExperimentConfig)}
        data["family"] = cfg.family.label
        assert config_from_json(json.dumps(data)) == cfg

    def test_json_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            config_from_json('{"family": "binary", "n_values": [10], "L_rules": ["zero"], "pairs": [[1,2]], "bogus": 1}')

    def test_json_missing_key_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            config_from_json('{"family": "binary"}')


class TestRunExperiment:
    def test_deterministic_across_runs_and_workers(self):
        cfg1 = small_config()
        cfg2 = small_config(parallelism=2)
        csv_a = experiment_csv(run_experiment(cfg1))
        csv_b = experiment_csv(run_experiment(cfg1))
        csv_c = experiment_csv(run_experiment(cfg2))
        assert csv_a == csv_b == csv_c

    def test_row_shape_and_ranges(self):
        rows = run_experiment(small_config(pairs=((1, 2), (10, 11))))
        assert len(rows) == 2
        for row in rows:
            assert row.family == "binary"
            assert 0.0 <= row.coverage_pct <= 100.0
            assert row.mean_ci_length > 0.0
            assert row.replications_used + round(row.nonexist_pct * 0.4) == 40

    def test_na_rows_when_no_mle_exists(self):
        cfg = small_config(n_values=(100,), L_rules=("log",), replications=15)
        rows = run_experiment(cfg)
        assert rows[0].nonexist_pct == 100.0
        assert rows[0].coverage_pct is None
        assert rows[0].mean_ci_length is None
        csv = experiment_csv(rows)
        assert ",NA,NA," in csv.splitlines()[1]

    def test_nonexistence_monotone_in_ramp(self):
        cfg = small_config(
            n_values=(40,),
            L_rules=("zero", "loglog", "sqrtlog", "log"),
            replications=150,
        )
        rows = run_experiment(cfg)
        rates = [row.nonexist_pct for row in rows]
        for lower, higher in zip(rates, rates[1:]):
            assert higher >= lower - 1.0  # paired seeds; allow 1pp noise
        assert rates[-1] > rates[0]

    def test_csv_header(self):
        csv = experiment_csv(run_experiment(small_config(replications=3)))
        assert csv.splitlines()[0] == sh.CSV_HEADER


class TestQQExport:
    def test_points_sorted_and_paired(self):
        points = qq_export(small_config(replications=60), "alpha_diff", (1, 2))
        theo = [t for t, _ in points]
        emp = [e for _, e in points]
        assert theo == sorted(theo)
        assert emp == sorted(emp)
        assert len(points) == 60
        # plotting positions straddle zero symmetrically
        assert theo[0] == pytest.approx(-theo[-1], abs=1e-12)

    def test_multi_cell_config_rejected(self):
        with pytest.raises(ValueError):
            qq_export(small_config(n_values=(20, 30)), "alpha_diff", (1, 2))

    @pytest.mark.parametrize(
        "kind, pair, message",
        [("alpha_diff", (1, 60), r"pair \(1, 60\) invalid for n=50"), ("bogus", (1, 2), "bogus")],
        ids=["pair", "kind"],
    )
    def test_bad_request_rejected_before_any_replication(self, monkeypatch, kind, pair, message):
        def no_sampling(*args, **kwargs):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(sh, "sample_graph", no_sampling)
        with pytest.raises(ValueError, match=message):
            qq_export(small_config(n_values=(50,)), kind, pair)

    def test_insufficient_data(self):
        cfg = small_config(n_values=(100,), L_rules=("log",), replications=12)
        with pytest.raises(InsufficientDataError):
            qq_export(cfg, "alpha_diff", (1, 2))

    def test_degenerate_injection_gives_zeros(self, monkeypatch):
        # force every fit to return the design truth: statistics collapse to 0
        def fake_fit(g, family, theta0=None, config=None):
            theta = design_params(SimDesign(family, g.n, 0.0))
            return FitResult(theta, True, Existence.EXISTS, 1, 0.0, ())

        monkeypatch.setattr(sh, "newton_fit", fake_fit)
        points = qq_export(small_config(replications=25), "alpha_diff", (1, 2))
        assert all(e == 0.0 for _, e in points)

    def test_qq_csv_format(self):
        text = qq_csv([(-1.0, -1.1), (0.5, 0.4)])
        lines = text.splitlines()
        assert lines[0] == "theoretical,empirical"
        assert lines[1] == "-1.0,-1.1"


class TestStatisticalBehaviour:
    def test_flat_binary_coverage_near_nominal(self):
        rows = run_experiment(small_config(n_values=(60,), replications=300))
        row = rows[0]
        assert row.nonexist_pct == 0.0
        # 95% nominal; at R=300 a 4-sigma band is about +-5pp
        assert 90.0 <= row.coverage_pct <= 100.0
        # CI length tracks the flat-design formula at n=60
        v = 59 * 0.25
        predicted = 2 * 1.959964 * math.sqrt(2.0 / v)
        assert row.mean_ci_length == pytest.approx(predicted, rel=0.05)

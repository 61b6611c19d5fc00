import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bidegree.solver
from bidegree.cli import (
    EXIT_NONEXISTENT,
    EXIT_OK,
    EXIT_UNDETERMINED,
    EXIT_USAGE,
    EdgeListParseError,
    main,
    read_dense,
    read_edge_list,
    write_edge_list,
)
from bidegree.model import Graph, WeightFamily
from bidegree.sampler import SimDesign, derive_seed, design_params, sample_graph

BINARY = WeightFamily.binary()
EXPONENTIAL = WeightFamily.exponential()


class TestEdgeListIO:
    def test_basic_parse_with_header(self):
        lines = ["src,dst,weight", "1,2,1", "2,3,1", "3,1,1"]
        graph = read_edge_list(lines, BINARY)
        assert graph.n == 3
        assert graph.weights[0, 1] == 1.0 and graph.weights[2, 0] == 1.0

    def test_header_after_comments_and_blank_lines(self):
        lines = ["# note", "", "src,dst,weight", "1,2,1", "2,3,1", "3,1,x"]
        with pytest.raises(EdgeListParseError, match="line 6"):
            read_edge_list(lines, BINARY)
        graph = read_edge_list(lines[:-1], BINARY)
        assert graph.n == 3 and graph.weights[1, 2] == 1.0

    def test_weight_defaults_to_one(self):
        graph = read_edge_list(["1 2", "2 1"], BINARY)
        assert graph.weights[0, 1] == 1.0

    def test_declared_n_pads_isolated_vertices(self):
        graph = read_edge_list(["1,2,1"], BINARY, n=4)
        assert graph.n == 4

    def test_self_loop_reports_line(self):
        with pytest.raises(EdgeListParseError, match="line 2"):
            read_edge_list(["1,2,1", "3,3,1"], BINARY)

    def test_duplicate_edge_rejected(self):
        with pytest.raises(EdgeListParseError, match="duplicate"):
            read_edge_list(["1,2,1", "1,2,1"], BINARY)

    def test_family_weight_checks(self):
        with pytest.raises(EdgeListParseError, match="exceeds"):
            read_edge_list(["1,2,2"], BINARY)
        with pytest.raises(EdgeListParseError, match="integer"):
            read_edge_list(["1,2,1.5"], WeightFamily.geometric())
        with pytest.raises(EdgeListParseError, match="negative"):
            read_edge_list(["1,2,-1"], EXPONENTIAL)

    @pytest.mark.parametrize(
        "family",
        [BINARY, EXPONENTIAL, WeightFamily.geometric(), WeightFamily.finite(4)],
        ids=lambda f: f.label,
    )
    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
    def test_non_finite_weight_names_its_line(self, family, weight):
        with pytest.raises(EdgeListParseError, match=f"line 2: weight {weight} is not finite"):
            read_edge_list(["1,2,1", f"2,3,{weight}"], family)
        with pytest.raises(EdgeListParseError, match=f"line 3: weight {weight} is not finite"):
            read_dense(["0,1,0", "0,0,1", f"{weight},0,0"], family)

    @pytest.mark.parametrize(
        "family",
        [BINARY, EXPONENTIAL, WeightFamily.geometric(), WeightFamily.finite(4)],
        ids=lambda f: f.label,
    )
    def test_round_trip_lossless_all_families(self, family, tmp_path):
        theta = design_params(SimDesign(family, 12, 0.7))
        graph = sample_graph(theta, family, 3)
        path = tmp_path / "edges.csv"
        with open(path, "w") as fh:
            write_edge_list(graph, fh)
        with open(path) as fh:
            back = read_edge_list(fh.readlines(), family, n=12)
        assert np.array_equal(back.weights, graph.weights)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_lossless_random_graphs(self, seed):
        theta = design_params(SimDesign(EXPONENTIAL, 5, 0.5))
        graph = sample_graph(theta, EXPONENTIAL, seed)
        lines = []

        class Sink:
            def write(self, text):
                lines.append(text)

        write_edge_list(graph, Sink())
        back = read_edge_list("".join(lines).splitlines(), EXPONENTIAL, n=5)
        assert np.array_equal(back.weights, graph.weights)

    def test_writer_matches_the_per_edge_reference(self):
        # The per-edge form of the writer, byte for byte, on weights whose
        # round trip needs all 17 significant digits, and on integers and
        # the ends of the double range.
        rng = np.random.default_rng(5)
        weights = rng.random((30, 30)) * (rng.random((30, 30)) < 0.5)
        weights[0, 1:6] = [0.1 + 0.2, 1.0 / 3.0, 3.0, 5e-324, 1.7976931348623157e308]
        np.fill_diagonal(weights, 0.0)
        assert any(float(f"{w:.16g}") != w for w in weights.ravel())
        reference = "src,dst,weight\n" + "".join(
            f"{i + 1},{j + 1},{weights[i, j]:.17g}\n" for i, j in zip(*np.nonzero(weights))
        )
        out = io.StringIO()
        write_edge_list(Graph(weights), out)
        assert out.getvalue() == reference

    def test_dense_matrix(self):
        graph = read_dense(["0,1,0", "0,0,1", "1,0,0"], BINARY)
        assert graph.weights[0, 1] == 1.0
        with pytest.raises(EdgeListParseError):
            read_dense(["0,1", "1,0", "0,0"], BINARY)


class TestFitCommand:
    def test_three_cycle_symmetric_fit(self, tmp_path, capsys):
        path = tmp_path / "cycle.csv"
        path.write_text("1,2,1\n2,3,1\n3,1,1\n")
        assert main(["fit", str(path), "--family", "binary"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["existence"] == "exists"
        alpha = report["theta_hat"]["alpha"]
        beta = report["theta_hat"]["beta"]
        # vertex-transitive input: all out-effects equal, all in-effects equal
        assert max(alpha) - min(alpha) < 1e-8
        assert max(beta) - min(beta) < 1e-8
        assert abs(alpha[0]) < 1e-8  # the flat solution is exactly zero
        assert beta[-1] == 0.0

    def test_report_says_where_the_fit_started(self, tmp_path, capsys):
        # below the sweep gate from the closed form, from the gate on from the sweeps
        for n, start in ((30, "closed_form"), (bidegree.solver._SWEEP_GATE, "sweeps")):
            graph = sample_graph(design_params(SimDesign(BINARY, n, 0.8)), BINARY, 5)
            path = tmp_path / f"g{n}.csv"
            with open(path, "w") as fh:
                write_edge_list(graph, fh)
            assert main(["fit", str(path), "--family", "binary", "--n", str(n)]) == EXIT_OK
            report = json.loads(capsys.readouterr().out)
            assert report["existence"] == "exists" and report["start"] == start

    def test_saturated_row_exits_two(self, tmp_path, capsys):
        path = tmp_path / "tournament.csv"
        path.write_text("1,2,1\n1,3,1\n1,4,1\n2,3,1\n")
        code = main(["fit", str(path), "--family", "binary", "--n", "4"])
        assert code == EXIT_NONEXISTENT
        report = json.loads(capsys.readouterr().out)
        assert report["existence"] == "nonexistent"
        assert report["theta_hat"] is None

    @pytest.mark.parametrize(
        "option, message",
        [(["--ci", "1,99"], "pair '1,99' invalid for n=4"), (["--level", "1.5"], "--level")],
        ids=["ci", "level"],
    )
    def test_bad_ci_options_exit_one_whatever_the_verdict(self, tmp_path, capsys, option, message):
        # The tournament graph has no MLE; the options are checked before the fit.
        path = tmp_path / "tournament.csv"
        path.write_text("1,2,1\n1,3,1\n1,4,1\n2,3,1\n")
        code = main(["fit", str(path), "--family", "binary", "--n", "4", *option])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    def test_parse_error_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1,1,1\n")
        assert main(["fit", str(path), "--family", "binary"]) == EXIT_USAGE
        assert "line 1" in capsys.readouterr().err

    def test_undetermined_exits_three(self, tmp_path, capsys):
        theta = design_params(SimDesign(BINARY, 20, 0.0))
        graph = sample_graph(theta, BINARY, 8)
        path = tmp_path / "g.csv"
        with open(path, "w") as fh:
            write_edge_list(graph, fh)
        code = main(
            ["fit", str(path), "--family", "binary", "--n", "20",
             "--max-iter", "1", "--tol-residual", "1e-14"]
        )
        assert code == EXIT_UNDETERMINED

    def test_tolerance_on_the_last_allowed_iteration_exits_zero(self, tmp_path, capsys):
        # the unbudgeted fit meets the tolerance after five steps
        theta = design_params(SimDesign(BINARY, 30, 0.8))
        graph = sample_graph(theta, BINARY, derive_seed(9, 0))
        path = tmp_path / "g.csv"
        with open(path, "w") as fh:
            write_edge_list(graph, fh)
        code = main(["fit", str(path), "--family", "binary", "--n", "30", "--max-iter", "5"])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["existence"] == "exists"

    def test_ci_report(self, tmp_path, capsys):
        theta = design_params(SimDesign(BINARY, 30, 0.0))
        graph = sample_graph(theta, BINARY, 12)
        path = tmp_path / "g.csv"
        with open(path, "w") as fh:
            write_edge_list(graph, fh)
        code = main(["fit", str(path), "--family", "binary", "--n", "30", "--ci", "1,2"])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        (ci,) = report["confidence_intervals"]
        assert ci["i"] == 1 and ci["j"] == 2
        assert ci["lo"] < ci["estimate"] < ci["hi"]
        assert ci["length"] == pytest.approx(ci["hi"] - ci["lo"], rel=1e-12)
        assert len(report["v_hat"]["alpha"]) == 30
        assert len(report["v_hat"]["beta"]) == 29

    def test_dense_format(self, tmp_path, capsys):
        path = tmp_path / "dense.csv"
        path.write_text("0,1,0\n0,0,1\n1,0,0\n")
        code = main(["fit", str(path), "--family", "binary", "--format", "dense"])
        assert code == EXIT_OK


class TestSampleCommand:
    def test_sample_writes_edges_and_sidecar(self, tmp_path):
        out = tmp_path / "sampled.csv"
        code = main(
            ["sample", "--family", "geometric", "--n", "15", "--L-rule", "loglog",
             "--seed", "5", "--output", str(out)]
        )
        assert code == EXIT_OK
        sidecar = json.loads((tmp_path / "sampled.csv.theta.json").read_text())
        expected = design_params(SimDesign(WeightFamily.geometric(), 15, math.log(math.log(15))))
        assert np.allclose(sidecar["alpha"], expected.alpha)
        assert np.allclose(sidecar["beta"], expected.beta)
        assert sidecar["n"] == 15 and sidecar["seed"] == 5

    def test_sample_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            main(["sample", "--family", "binary", "--n", "12", "--seed", "9",
                  "--output", str(out)])
        assert a.read_text() == b.read_text()

    def test_sample_from_theta_file(self, tmp_path):
        theta_file = tmp_path / "theta.json"
        theta_file.write_text(json.dumps({"alpha": [1.0, 1.0, 1.0], "beta": [1.0, 1.0, 0.0]}))
        out = tmp_path / "g.csv"
        code = main(["sample", "--family", "exponential", "--theta", str(theta_file),
                     "--seed", "2", "--output", str(out)])
        assert code == EXIT_OK
        graph = read_edge_list(out.read_text().splitlines(), EXPONENTIAL, n=3)
        assert graph.n == 3


class TestRoundTripRecovery:
    def test_sample_fit_recovers_truth(self, tmp_path, capsys):
        # flat design at n=200: the uniform estimation error stays within 5x
        # the sqrt(log n / n) consistency rate in at least 95 of 100 seeded
        # round trips (Monte-Carlo calibrated: median 3.3x, p95 4.3x)
        n = 200
        threshold = 5.0 * math.sqrt(math.log(n) / n)
        hits = 0
        for seed in range(100):
            out = tmp_path / f"g{seed}.csv"
            assert main(["sample", "--family", "binary", "--n", str(n),
                         "--seed", str(seed), "--output", str(out)]) == EXIT_OK
            code = main(["fit", str(out), "--family", "binary", "--n", str(n)])
            report = json.loads(capsys.readouterr().out)
            assert code == EXIT_OK
            sidecar = json.loads((tmp_path / f"g{seed}.csv.theta.json").read_text())
            gap = max(
                np.abs(np.array(report["theta_hat"]["alpha"]) - sidecar["alpha"]).max(),
                np.abs(np.array(report["theta_hat"]["beta"]) - sidecar["beta"]).max(),
            )
            hits += gap < threshold
        assert hits >= 95


class TestExperimentCommand:
    def test_experiment_csv_deterministic(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(
                {
                    "family": "binary",
                    "n_values": [25],
                    "L_rules": ["zero"],
                    "pairs": [[1, 2]],
                    "replications": 25,
                    "base_seed": 4,
                }
            )
        )
        outputs = []
        for _ in range(2):
            assert main(["experiment", str(config)]) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0].startswith("family,n,L_rule")

    def test_bad_config_exits_one(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text('{"family": "binary"}')
        assert main(["experiment", str(config)]) == EXIT_USAGE
        assert "missing" in capsys.readouterr().err


class TestDiagnoseCommand:
    def test_noise_free_diagnostics_csv(self, capsys):
        code = main(["diagnose", "--family", "binary", "--n-sweep", "20,40,80"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,max_abs_err,bound_shape,fitted_c1,r,rho,contraction_ok"
        rows = [line.split(",") for line in lines[1:]]
        errs = [float(row[1]) for row in rows]
        shapes = [float(row[2]) for row in rows]
        rs = [float(row[4]) for row in rows]
        # error decays roughly like n^-2 and r vanishes at noise-free degrees
        slope = np.polyfit(np.log([20, 40, 80]), np.log(errs), 1)[0]
        assert -2.3 < slope < -1.7
        assert shapes == sorted(shapes, reverse=True)
        assert max(rs) < 1e-10

    def test_sampled_diagnostics(self, capsys):
        code = main(["diagnose", "--family", "binary", "--n-sweep", "30",
                     "--sample-seed", "3"])
        assert code == EXIT_OK
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert float(row[4]) > 0.0

    @pytest.mark.parametrize("sweep", ["2", "20,2", "1"])
    def test_sweep_below_three_is_a_usage_error(self, sweep, capsys):
        assert main(["diagnose", "--family", "binary", "--n-sweep", sweep]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""  # rejected before any row is computed
        assert captured.err.startswith("error: --n-sweep values must be at least 3")


class TestUsage:
    def test_unknown_family(self, tmp_path, capsys):
        path = tmp_path / "e.csv"
        path.write_text("1,2,1\n2,1,1\n")
        assert main(["fit", str(path), "--family", "poisson"]) == EXIT_USAGE

    def test_missing_subcommand(self):
        assert main([]) == EXIT_USAGE

    def test_console_script_entry_point(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import bidegree

        # the child imports the same package as this test, installed or not
        package_root = str(Path(bidegree.__file__).resolve().parent.parent)
        pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        path = tmp_path / "e.csv"
        path.write_text("1,2,1\n2,3,1\n3,1,1\n")
        result = subprocess.run(
            [sys.executable, "-m", "bidegree.cli", "fit", str(path), "--family", "binary"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": pythonpath},
        )
        assert result.returncode == EXIT_OK
        assert '"existence": "exists"' in result.stdout

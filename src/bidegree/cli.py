"""Command-line front end: fit, sample, experiment, diagnose.

Vertex ids are 1-based in every file and report.  Exit codes: 0 success,
1 usage or parse error, 2 MLE nonexistent, 3 undetermined.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .fisher import approx_error, fisher_info
from .inference import ci_for_contrast, plug_in_variances
from .model import Graph, ParamVector, WeightFamily, bi_degrees, expected_degrees
from .sampler import SimDesign, design_params, ramp_magnitude, sample_graph
from .simharness import config_from_json, experiment_csv, run_experiment
from .solver import Existence, FitConfig, newton_diagnostics, newton_fit

__all__ = ["EdgeListParseError", "main", "read_dense", "read_edge_list", "write_edge_list"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NONEXISTENT = 2
EXIT_UNDETERMINED = 3


class EdgeListParseError(ValueError):
    """Malformed edge-list input; the message carries the 1-based line number."""


# ---------------------------------------------------------------------------
# file formats


def _check_weight(family: WeightFamily, weight: float, line: int) -> None:
    if not math.isfinite(weight):
        raise EdgeListParseError(f"line {line}: weight {weight!r} is not finite")
    if weight < 0:
        raise EdgeListParseError(f"line {line}: negative weight {weight!r}")
    if family.integer_weights and weight != int(weight):
        raise EdgeListParseError(
            f"line {line}: weight {weight!r} is not an integer for family {family.label}"
        )
    if weight > family.max_weight:
        raise EdgeListParseError(
            f"line {line}: weight {weight!r} exceeds the family maximum {family.max_weight}"
        )


def read_edge_list(lines, family: WeightFamily, n: int | None = None) -> Graph:
    """Parse ``src,dst,weight`` rows (comma, tab or space separated).

    Blank lines and ``#`` comments are skipped.  The header row is optional
    (the first row that is neither), the weight column defaults to 1, missing
    pairs have weight 0, and n is inferred as the largest vertex id unless
    declared.
    """
    edges: dict[tuple[int, int], float] = {}
    max_id = 0
    first_row = True
    for line_no, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        parts = [p for p in text.replace(",", " ").split() if p]
        if first_row:
            first_row = False
            try:
                int(parts[0])
            except ValueError:
                continue  # header row
        if len(parts) not in (2, 3):
            raise EdgeListParseError(f"line {line_no}: expected 2 or 3 fields, got {len(parts)}")
        try:
            src, dst = int(parts[0]), int(parts[1])
            weight = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError as exc:
            raise EdgeListParseError(f"line {line_no}: {exc}") from None
        if src < 1 or dst < 1:
            raise EdgeListParseError(f"line {line_no}: vertex ids are 1-based, got {src}, {dst}")
        if src == dst:
            raise EdgeListParseError(f"line {line_no}: self-loop on vertex {src}")
        if n is not None and (src > n or dst > n):
            raise EdgeListParseError(f"line {line_no}: vertex id exceeds declared n={n}")
        if (src, dst) in edges:
            raise EdgeListParseError(f"line {line_no}: duplicate edge {src} -> {dst}")
        _check_weight(family, weight, line_no)
        edges[(src, dst)] = weight
        max_id = max(max_id, src, dst)
    size = n if n is not None else max_id
    if size < 2:
        raise EdgeListParseError("graph needs at least 2 vertices; declare --n or add edges")
    weights = np.zeros((size, size))
    for (src, dst), weight in edges.items():
        weights[src - 1, dst - 1] = weight
    return Graph(weights)


def write_edge_list(graph: Graph, stream) -> None:
    """Emit nonzero edges as ``src,dst,weight`` with 17 significant digits."""
    rows, cols = np.nonzero(graph.weights)
    edges = zip((rows + 1).tolist(), (cols + 1).tolist(), graph.weights[rows, cols].tolist())
    stream.write("src,dst,weight\n" + "".join(f"{i},{j},{w:.17g}\n" for i, j, w in edges))


def read_dense(lines, family: WeightFamily, n: int | None = None) -> Graph:
    """Parse a dense comma-separated weight matrix."""
    values = []
    for line_no, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        try:
            row = [float(p) for p in text.replace(",", " ").split()]
        except ValueError as exc:
            raise EdgeListParseError(f"line {line_no}: {exc}") from None
        for value in row:
            _check_weight(family, value, line_no)
        values.append(row)
    size = len(values)
    if n is not None and size != n:
        raise EdgeListParseError(f"dense matrix has {size} rows but n={n} was declared")
    if size < 2 or any(len(row) != size for row in values):
        raise EdgeListParseError("dense input must be a square matrix of size >= 2")
    return Graph(np.asarray(values))


def _theta_to_json(theta: ParamVector) -> dict:
    return {"alpha": theta.alpha.tolist(), "beta": theta.beta.tolist()}


def _theta_from_json(data: dict, family: WeightFamily) -> ParamVector:
    return ParamVector(
        np.asarray(data["alpha"], dtype=float),
        np.asarray(data["beta"], dtype=float),
        negated=family.negated,
    )


# ---------------------------------------------------------------------------
# subcommands


def _parse_pairs(texts: list[str], n: int) -> list[tuple[int, int]]:
    pairs = []
    for text in texts:
        parts = text.split(",")
        if len(parts) != 2:
            raise ValueError(f"bad pair {text!r}; expected i,j")
        i, j = int(parts[0]), int(parts[1])
        if not (1 <= i <= n and 1 <= j <= n and i != j):
            raise ValueError(f"pair {text!r} invalid for n={n}")
        pairs.append((i, j))
    return pairs


def _cmd_fit(args) -> int:
    family = WeightFamily.parse(args.family)
    with open(args.input) as fh:
        lines = fh.readlines()
    reader = read_dense if args.format == "dense" else read_edge_list
    graph = reader(lines, family, args.n)
    # checked before the fit, so that bad CI options fail whatever the verdict
    pairs = _parse_pairs(args.ci or [], graph.n)
    if not 0.0 < args.level < 1.0:
        raise ValueError(f"--level must lie in (0, 1), got {args.level!r}")
    g = bi_degrees(graph)
    cfg = FitConfig(
        step_mode=args.step_mode,
        tol_residual=args.tol_residual,
        max_iter=args.max_iter,
    )
    result = newton_fit(g, family, config=cfg)
    report = {
        "family": family.label,
        "n": g.n,
        "existence": result.existence.value,
        "converged": result.converged,
        "iterations": result.iterations,
        "residual_norm_inf": result.residual_norm_inf,
        "theta_hat": None,
        "v_hat": None,
        "confidence_intervals": [],
    }
    if result.existence is Existence.EXISTS:
        report["theta_hat"] = _theta_to_json(result.theta_hat)
        cov = plug_in_variances(result.theta_hat, family, args.level)
        report["v_hat"] = {
            "alpha": cov.v_hat_diag[: g.n].tolist(),
            "beta": cov.v_hat_diag[g.n : 2 * g.n - 1].tolist(),
            "corner": float(cov.v_hat_diag[-1]),
        }
        for i, j in pairs:
            lo, hi = ci_for_contrast(i - 1, j - 1, result.theta_hat, cov, args.level)
            report["confidence_intervals"].append(
                {
                    "i": i,
                    "j": j,
                    "estimate": float(result.theta_hat.alpha[i - 1] - result.theta_hat.alpha[j - 1]),
                    "lo": lo,
                    "hi": hi,
                    "length": hi - lo,
                    "level": args.level,
                }
            )
    _write_text(args.output, json.dumps(report, indent=2) + "\n")
    if result.existence is Existence.NON_EXISTENT:
        return EXIT_NONEXISTENT
    if result.existence is Existence.UNDETERMINED:
        return EXIT_UNDETERMINED
    return EXIT_OK


def _cmd_sample(args) -> int:
    family = WeightFamily.parse(args.family)
    if args.theta is not None:
        with open(args.theta) as fh:
            theta = _theta_from_json(json.load(fh), family)
        design_info = {"source": args.theta}
    else:
        if args.n is None:
            raise ValueError("--n is required unless --theta is given")
        ramp = args.L if args.L is not None else ramp_magnitude(args.L_rule, args.n)
        theta = design_params(SimDesign(family, args.n, ramp))
        design_info = {"L": ramp, "L_rule": None if args.L is not None else args.L_rule}
    graph = sample_graph(theta, family, args.seed)
    with open(args.output, "w") as fh:
        write_edge_list(graph, fh)
    sidecar = {
        "family": family.label,
        "n": theta.n,
        "seed": args.seed,
        **design_info,
        **_theta_to_json(theta),
    }
    with open(args.output + ".theta.json", "w") as fh:
        json.dump(sidecar, fh, indent=2)
        fh.write("\n")
    return EXIT_OK


def _cmd_experiment(args) -> int:
    with open(args.config) as fh:
        cfg = config_from_json(fh.read())
    rows = run_experiment(cfg)
    _write_text(args.output, experiment_csv(rows))
    return EXIT_OK


def _cmd_diagnose(args) -> int:
    family = WeightFamily.parse(args.family)
    sweep = [int(part) for part in args.n_sweep.split(",")]
    if min(sweep) < 3:  # n = 2: two edges, three free effects, a singular Fisher matrix
        raise ValueError(f"--n-sweep values must be at least 3, got {min(sweep)}")
    lines = ["n,max_abs_err,bound_shape,fitted_c1,r,rho,contraction_ok"]
    for n in sweep:
        ramp = args.L if args.L is not None else ramp_magnitude(args.L_rule, n)
        theta = design_params(SimDesign(family, n, ramp))
        err = approx_error(fisher_info(theta, family))
        fitted = err.max_abs_err / err.bound_shape
        if args.sample_seed is not None:
            g = bi_degrees(sample_graph(theta, family, args.sample_seed))
        else:
            g = expected_degrees(theta, family)
        diag = newton_diagnostics(theta, g, family, c1=args.c1)
        lines.append(
            f"{n},{err.max_abs_err!r},{err.bound_shape!r},{fitted!r},"
            f"{diag.r!r},{diag.rho!r},{diag.contraction_ok}"
        )
    _write_text(args.output, "\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bidegree",
        description="Fit, sample and stress-test directed random graph models "
        "driven by the bi-degree sequence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit the MLE to an observed graph")
    fit.add_argument("input", help="edge list (src,dst,weight) or dense CSV")
    fit.add_argument("--family", required=True, help="binary|exponential|geometric|finite:q")
    fit.add_argument("--format", choices=("edgelist", "dense"), default="edgelist")
    fit.add_argument("--n", type=int, default=None, help="vertex count (default: max id)")
    fit.add_argument("--step-mode", choices=("exact", "sapprox"), default="exact")
    fit.add_argument("--max-iter", type=int, default=100)
    fit.add_argument("--tol-residual", type=float, default=None)
    fit.add_argument("--level", type=float, default=0.95)
    fit.add_argument("--ci", action="append", metavar="I,J", help="contrast pair, repeatable")
    fit.add_argument("--output", default=None, help="write the JSON report here (default stdout)")
    fit.set_defaults(run=_cmd_fit)

    sample = sub.add_parser("sample", help="draw a synthetic graph")
    sample.add_argument("--family", required=True)
    sample.add_argument("--n", type=int, default=None)
    sample.add_argument("--L", type=float, default=None, help="explicit ramp height")
    sample.add_argument(
        "--L-rule", default="zero", choices=("zero", "loglog", "sqrtlog", "log", "sqrtn")
    )
    sample.add_argument("--theta", default=None, help="JSON file with alpha/beta instead of a design")
    sample.add_argument("--seed", type=int, default=0)
    sample.add_argument("--output", required=True, help="edge list path; sidecar .theta.json beside it")
    sample.set_defaults(run=_cmd_sample)

    experiment = sub.add_parser("experiment", help="run a replicated coverage experiment")
    experiment.add_argument("config", help="JSON config mirroring ExperimentConfig")
    experiment.add_argument("--output", default=None, help="CSV path (default stdout)")
    experiment.set_defaults(run=_cmd_experiment)

    diagnose = sub.add_parser(
        "diagnose", help="inverse-approximation error and Newton contraction diagnostics"
    )
    diagnose.add_argument("--family", required=True)
    diagnose.add_argument("--n-sweep", default="20,40,80,160", help="comma-separated vertex counts")
    diagnose.add_argument("--L", type=float, default=None)
    diagnose.add_argument(
        "--L-rule", default="zero", choices=("zero", "loglog", "sqrtlog", "log", "sqrtn")
    )
    diagnose.add_argument("--c1", type=float, default=1.0)
    diagnose.add_argument(
        "--sample-seed",
        type=int,
        default=None,
        help="diagnose a sampled degree sequence instead of the noise-free one",
    )
    diagnose.add_argument("--output", default=None)
    diagnose.set_defaults(run=_cmd_diagnose)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.run(args)
    except (EdgeListParseError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

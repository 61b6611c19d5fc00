"""Benchmark of the bidegree library: Newton fit latency and Monte-Carlo throughput.

Run from the repository root; the library is imported from ``src/``:

    python3 perfbench/run.py --workload fit-binary-n1000 --seed 1 --seconds 25 --trace 0

Every workload is a closed loop in one process: one fit (or one experiment
cell) at a time, the next only after the previous one returns, with BLAS and
OpenMP pinned to one thread.

* ``fit-binary-n1000``: exact ``newton_fit`` of binary graphs sampled from the
  loglog ramp at n=1000.  The O(n^3) Schur step solve dominates.
* ``fit-finite4-n500``: the same loop on ``finite:4`` graphs at n=500.  The same
  layers run with the opposite balance: the n*n*q edge evaluation dominates.
* ``mc-geometric-n200``: ``run_experiment`` cells (geometric, n=200, sqrtlog
  ramp, three vertex pairs) at parallelism 1.  It covers sampling, fitting
  and CIs on small solves, and the fits that march to the divergence bound.

The fit workloads sample their graphs from the seed during set-up and cycle
through them.  The Monte-Carlo workload draws its cells' base seeds from the
seed; ``run_experiment`` samples inside the timed region.

Every fit is checked outside the timed region: its verdict against the
max-flow existence certificate and, when it says ``exists``, its moment
residual recomputed independently (see ``checker.py``).  A fit fails if it
raises, ends ``undetermined``, or returns ``exists`` above the residual
tolerance or for degrees the certificate rules out; failures are counted in
``failed``.  A ``nonexistent`` verdict the certificate contradicts (the
divergence heuristic giving up on a fit that has an MLE, about half the fits
of ``mc-geometric-n200``) is a completed call with a wrong verdict: it lowers
``fit_ok_frac`` and is printed on the ``check:`` line, but is not a failure.
The Monte-Carlo cells are refitted replication by replication, which both
times single fits and checks that the cell's rows match the replications.
``correct`` is false when a row disagrees with its replications or a fit does
not repeat exactly.

``--trace 0`` prints the end-to-end metrics:

* ``fit_p50_s``: median wall time of one ``newton_fit`` (default config).  On
  the Monte-Carlo workload, the median over cells of a cell's mean fit time:
  converged fits there take twice the iterations of the ones stopped at the
  divergence bound, so the median single fit would sit between the two
  clusters and jump with their shares.
* ``reps_per_s``: replications per second of ``run_experiment``, the median
  over cells (fits per second on the fit workloads).
* ``fit_ok_frac``: share of attempted fits that passed every check, the
  certificate's verdict included.
* ``setup_s``: imports, input generation and a warm-up fit; the median of
  this process and four more processes that only set up.
* ``peak_rss_mb``: peak resident memory of this process, before the checks of
  the fit workloads.

``--trace 1`` alternates untraced and traced work items over the same inputs
and prints, per traced item (one fit, or one replication), the calls, total
and self seconds of each layer function in ``spans.LAYERS``, the solver
ratios, and the tracing overhead.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os
import sys
import time

_START = time.perf_counter()

# Threaded BLAS only adds synchronisation on these matrix sizes (the test
# suite saw a 25x slowdown at n=200 on 2 cores); pin it before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Workload:
    family: str
    n: int
    rule: str
    pool: int = 0  # fit workloads: graphs sampled in set-up
    reps: int = 0  # Monte-Carlo workload: replications per cell


WORKLOADS = {
    "fit-binary-n1000": Workload("binary", 1000, "loglog", pool=16),
    # About 37% of these fits take 7 Newton iterations and the rest 6, so the
    # pool is large enough that the median fit rarely changes cluster with the seed.
    "fit-finite4-n500": Workload("finite:4", 500, "loglog", pool=40),
    "mc-geometric-n200": Workload("geometric", 200, "sqrtlog", reps=40),
}
MC_LEVEL = 0.95
SETUP_RUNS = 5  # this process plus four that only set up
WARMUP_STREAM = 1 << 32  # seed index of the warm-up cell, apart from the timed cells


def _load_program():
    """Import bidegree from the checkout's src/, never from anywhere else."""
    if not (SRC / "bidegree" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'bidegree'} not found; run from a bidegree checkout")
    sys.path.insert(0, str(SRC))
    import bidegree

    if Path(bidegree.__file__).resolve().parent != SRC / "bidegree":
        sys.exit(f"error: imported bidegree from {bidegree.__file__}, not {SRC}")
    return bidegree


def _mc_pairs(n: int) -> tuple[tuple[int, int], ...]:
    return ((1, 2), (n // 2, n // 2 + 1), (n - 1, n))


def _environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _timed(fn, *args, **kwargs):
    """(result or raised exception, wall seconds)."""
    start = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # a failed call is a counted outcome, not a crash
        result = exc
    return result, time.perf_counter() - start


def _runs(tracer, item: int) -> tuple[bool, ...]:
    """Traced flags for the runs of one work item: one untraced run, or with a
    tracer an untraced and a traced run over the same input, order alternating."""
    if tracer is None:
        return (False,)
    return (False, True) if item % 2 == 0 else (True, False)


def _run(fn, arg, tracer, traced: bool):
    if not traced:
        return _timed(fn, arg)
    tracer.install()
    try:
        return _timed(fn, arg)
    finally:
        tracer.uninstall()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _setup(bd, wl: Workload, seed: int):
    """Inputs and one warm-up call; the first fit pays lazy imports."""
    family = bd.WeightFamily.parse(wl.family)
    theta_star = bd.design_params(bd.SimDesign(family, wl.n, bd.ramp_magnitude(wl.rule, wl.n)))
    if wl.pool:
        inputs = [
            bd.bi_degrees(bd.sample_graph(theta_star, family, bd.derive_seed(seed, k)))
            for k in range(wl.pool)
        ]
        bd.newton_fit(inputs[0], family)
    else:
        inputs = None
        bd.run_experiment(_mc_config(bd, wl, family, seed, WARMUP_STREAM, reps=2))
    return family, theta_star, inputs


def _mc_config(bd, wl: Workload, family, seed: int, cell: int, reps: int):
    return bd.ExperimentConfig(
        family=family,
        n_values=(wl.n,),
        L_rules=(wl.rule,),
        pairs=_mc_pairs(wl.n),
        replications=reps,
        level=MC_LEVEL,
        base_seed=bd.derive_seed(seed, cell),
        parallelism=1,
    )


def _setup_seconds(args, own: float) -> float:
    """Median set-up time over this process and fresh processes that only set up."""
    times = [own]
    for _ in range(SETUP_RUNS - 1):
        done = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-only"],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    print("setup runs:", " ".join(f"{t:.3f}" for t in times), "s")
    return statistics.median(times)


def _same_fit(a, b) -> bool:
    if isinstance(a, BaseException) or isinstance(b, BaseException):
        return type(a) is type(b)
    return (
        a.existence == b.existence
        and a.iterations == b.iterations
        and np.array_equal(a.theta_hat.alpha, b.theta_hat.alpha)
        and np.array_equal(a.theta_hat.beta, b.theta_hat.beta)
    )


def run_fits(bd, family, inputs, seconds, tracer, checks):
    """Closed loop of newton_fit over the set-up graphs."""

    def fit(g):  # looks newton_fit up at call time, so an installed tracer sees it
        return bd.newton_fit(g, family)

    records = []  # (graph index, outcome, seconds, traced)
    deadline = time.perf_counter() + seconds
    k = 0
    while k == 0 or time.perf_counter() < deadline:
        g = inputs[k % len(inputs)]
        for traced in _runs(tracer, k):
            outcome, dt = _run(fit, g, tracer, traced)
            records.append((k % len(inputs), outcome, dt, traced))
        k += 1
    peak = _peak_rss_mb()

    first = {}
    for index, outcome, _, _ in records:
        checks.fit(inputs[index], outcome)
        if not _same_fit(first.setdefault(index, outcome), outcome):
            checks.inconsistent.append(f"graph {index}: repeated fits differ")
    times = [dt for _, _, dt, traced in records if not traced]
    traced_times = [dt for _, _, dt, traced in records if traced]
    return {
        "fit_p50_s": statistics.median(times),
        "reps_per_s": len(times) / sum(times),
        "peak_rss_mb": peak,
        "samples": len(times),
        "untraced_s": sum(times),
        "traced_s": sum(traced_times),
        "items": len(traced_times),
    }


def _check_cell(bd, family, theta_star, cfg, rows, checks, fit_times):
    """Refit a cell replication by replication; compare with its rows."""
    z = bd.normal_quantile(0.5 * (1.0 + cfg.level))
    pairs = cfg.pairs
    used, covered, lengths = 0, [0] * len(pairs), [0.0] * len(pairs)
    for r in range(cfg.replications):
        g = bd.bi_degrees(bd.sample_graph(theta_star, family, bd.derive_seed(cfg.base_seed, r)))
        outcome, dt = _timed(bd.newton_fit, g, family)
        fit_times.append(dt)
        checks.fit(g, outcome)
        if isinstance(outcome, BaseException) or outcome.existence is not bd.Existence.EXISTS:
            continue
        used += 1
        cov = bd.plug_in_variances(outcome.theta_hat, family, cfg.level)
        for k, (i, j) in enumerate(pairs):
            stat = bd.contrast_stat("alpha_diff", i - 1, j - 1, outcome.theta_hat, theta_star, cov)
            lo, hi = bd.ci_for_contrast(i - 1, j - 1, outcome.theta_hat, cov, cfg.level)
            if not (np.isfinite(lo) and lo < hi):
                checks.inconsistent.append(f"cell {cfg.base_seed}: interval ({lo}, {hi})")
            covered[k] += abs(stat) <= z
            lengths[k] += hi - lo
    if isinstance(rows, BaseException):
        checks.inconsistent.append(f"cell {cfg.base_seed}: run_experiment raised {rows!r}")
        return
    nonexist_pct = 100.0 * (cfg.replications - used) / cfg.replications
    expected = [
        (nonexist_pct, used, 100.0 * c / used, total / used) if used else (nonexist_pct, 0, None, None)
        for c, total in zip(covered, lengths)
    ]
    got = [(r.nonexist_pct, r.replications_used, r.coverage_pct, r.mean_ci_length) for r in rows]
    if len(got) != len(expected) or not all(map(_same_row, got, expected)):
        checks.inconsistent.append(f"cell {cfg.base_seed}: rows {got} != replications {expected}")


def _same_row(a, b) -> bool:
    return a[:2] == b[:2] and all(
        x is y is None or (x is not None and y is not None and math.isclose(x, y, rel_tol=1e-9))
        for x, y in zip(a[2:], b[2:])
    )


def run_cells(bd, wl, family, theta_star, seed, seconds, tracer, checks):
    """Closed loop of run_experiment cells, each refitted and checked."""

    def experiment(cfg):  # looks run_experiment up at call time, like fit() above
        return bd.run_experiment(cfg)

    fit_means, cell_times, traced_times = [], [], []
    samples = 0
    deadline = time.perf_counter() + seconds
    cell = 0
    while cell == 0 or time.perf_counter() < deadline:
        cfg = _mc_config(bd, wl, family, seed, cell, wl.reps)
        for traced in _runs(tracer, cell):
            rows, dt = _run(experiment, cfg, tracer, traced)
            (traced_times if traced else cell_times).append(dt)
        fit_times = []
        _check_cell(bd, family, theta_star, cfg, rows, checks, fit_times)
        fit_means.append(statistics.fmean(fit_times))
        samples += len(fit_times)
        cell += 1
    return {
        "fit_p50_s": statistics.median(fit_means),
        "reps_per_s": statistics.median(wl.reps / dt for dt in cell_times),
        "peak_rss_mb": _peak_rss_mb(),
        "samples": samples,
        "untraced_s": sum(cell_times),
        "traced_s": sum(traced_times),
        "items": len(traced_times) * wl.reps,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]

    bd = _load_program()
    family, theta_star, inputs = _setup(bd, wl, args.seed)
    own_setup = time.perf_counter() - _START
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup}))
        return 0
    # The benchmark's own modules load after set-up is timed: they are not the program's.
    import checker
    import spans

    print("env:", json.dumps(_environment()))

    tracer = spans.Tracer() if args.trace else None
    checks = checker.Checks(wl.family)
    if wl.pool:
        m = run_fits(bd, family, inputs, args.seconds, tracer, checks)
    else:
        m = run_cells(bd, wl, family, theta_star, args.seed, args.seconds, tracer, checks)

    print(
        f"check: {checks.attempted} fits, {checks.failed} failed, "
        f"{checks.wrong_verdicts} wrong nonexistent verdicts",
        json.dumps(checks.reasons),
    )
    for problem in checks.inconsistent[:10]:
        print("inconsistent:", problem)
    if tracer:
        for name in tracer.missing:
            print("trace: missing", name)
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in tracer.summary(m["items"]).items()
        }
        metrics["trace.items"] = {"value": m["items"], "unit": "count"}
        metrics["trace.overhead_frac"] = {
            "value": m["traced_s"] / m["untraced_s"] - 1.0,
            "unit": "ratio",
        }
        print(
            f"trace: {m['items']} traced items; traced {m['traced_s']:.3f} s vs "
            f"untraced {m['untraced_s']:.3f} s over the same inputs"
        )
    else:
        metrics = {
            "fit_p50_s": {"value": m["fit_p50_s"], "unit": "s"},
            "reps_per_s": {"value": m["reps_per_s"], "unit": "1/s"},
            "fit_ok_frac": {"value": checks.ok_frac, "unit": "ratio"},
            "setup_s": {"value": _setup_seconds(args, own_setup), "unit": "s"},
            "peak_rss_mb": {"value": m["peak_rss_mb"], "unit": "MB"},
        }
        print(f"fit_p50_s over {m['samples']} fits")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": not checks.inconsistent,
                "attempted": checks.attempted,
                "failed": checks.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare the closed-form start with the class start, per family and n.

For each family and n, samples graphs from the ramp design and fits each one
twice, alternating the order: from ``default_start`` and from the class
stage's start (``default_start`` refined by the degree-class model).  Both
fits pass their start as ``theta0``, so the class start is measured at every
n, below ``newton_fit``'s gate too, and its fit time includes the stage.
Prints one CSV row per (family, n): mean Newton iterations and median fit
time of each start, and how many fits gave different verdicts.  The gate
``solver._CLASS_GATE`` is set with a margin above the n from which the class
start's fits are faster on every family.  ``--classes K`` runs the class
start with K classes per side in place of ``solver._CLASSES``.

Example:
    python scripts/start_sweep.py --families binary finite:4 geometric exponential \
        --n 200 300 400 --rule sqrtlog --graphs 20 --repeats 3 --classes 8
"""

import argparse
import os
import statistics
import sys
import time

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import bidegree.solver
from bidegree.model import WeightFamily, bi_degrees
from bidegree.sampler import SimDesign, derive_seed, design_params, ramp_magnitude, sample_graph
from bidegree.solver import Feasibility, _class_start, default_start, existence_check, newton_fit


def closed_form_fit(g, family):
    return newton_fit(g, family, theta0=default_start(g, family))


def class_fit(g, family):
    # as in newton_fit, the stage runs only on graphs that pass the screen
    start = default_start(g, family)
    if existence_check(g, family) is Feasibility.FEASIBLE:
        start = _class_start(g, family, start)
    return newton_fit(g, family, theta0=start)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--families", nargs="+", default=["binary", "finite:4", "geometric", "exponential"])
    parser.add_argument("--n", nargs="+", type=int, default=[200, 300, 400])
    parser.add_argument("--rule", default="sqrtlog", help="ramp rule of the design")
    parser.add_argument("--graphs", type=int, default=10, help="graphs per (family, n)")
    parser.add_argument("--repeats", type=int, default=3, help="timed fits per graph and start")
    parser.add_argument("--seed", type=int, default=77)
    parser.add_argument(
        "--classes", type=int, default=bidegree.solver._CLASSES,
        help="degree classes per side of the class start",
    )
    args = parser.parse_args()
    if args.classes < 1:
        parser.error("--classes must be at least 1")
    bidegree.solver._CLASSES = args.classes

    starts = {"closed_form": closed_form_fit, "class": class_fit}
    print("family,n,L_rule,graphs,closed_form_iterations,class_iterations,"
          "closed_form_ms,class_ms,verdicts_differ")
    for label in args.families:
        family = WeightFamily.parse(label)
        for n in args.n:
            theta = design_params(SimDesign(family, n, ramp_magnitude(args.rule, n)))
            iterations = {name: [] for name in starts}
            seconds = {name: [] for name in starts}
            differ = 0
            for r in range(args.graphs):
                g = bi_degrees(sample_graph(theta, family, derive_seed(args.seed, r)))
                verdicts = {}
                for repeat in range(args.repeats):
                    order = list(starts) if (r + repeat) % 2 == 0 else list(starts)[::-1]
                    for name in order:
                        begin = time.perf_counter()
                        result = starts[name](g, family)
                        seconds[name].append(time.perf_counter() - begin)
                        if repeat == 0:
                            iterations[name].append(result.iterations)
                            verdicts[name] = result.existence
                differ += verdicts["closed_form"] is not verdicts["class"]
            print(
                f"{label},{n},{args.rule},{args.graphs},"
                f"{statistics.mean(iterations['closed_form']):.2f},"
                f"{statistics.mean(iterations['class']):.2f},"
                f"{1e3 * statistics.median(seconds['closed_form']):.3f},"
                f"{1e3 * statistics.median(seconds['class']):.3f},{differ}",
                flush=True,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())

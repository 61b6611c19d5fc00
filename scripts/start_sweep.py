#!/usr/bin/env python3
"""Compare the closed-form start with the class start and the swept start,
per family and n.

For each family and n, samples graphs from the ramp design and fits each one
three times, rotating the order: from ``default_start``, from the class
stage's start (``default_start`` refined by the degree-class model) and from
the swept start (``default_start`` refined by the vertex sweeps).  Every fit
passes its start as ``theta0``, so each start is measured at every n,
outside ``newton_fit``'s gates too, and its fit time includes the start's
own stage.  Prints one CSV row per (family, n): mean Newton iterations and
median fit time of each start, and how many fits gave verdicts that differ
from the closed form's.  ``--classes K`` runs the class start with K classes
per side in place of ``solver._CLASSES``.

The gates are set from these rows.  ``solver._CLASS_GATE`` keeps a margin
above the n from which the class start's fits are faster on every family.
``solver._SWEEP_GATE`` is the smallest n tried (100, 120, 150, 200, 300)
from which the swept start's fits were faster than the closed form's on
the loglog and sqrtlog designs of every family, and broke even on the zero
rule's, whose closed-form fits take only 4-5 iterations: at n = 150 they
took 0.63-0.98 of the closed form's time on the ramped designs and
0.75-1.1 on the zero rule's, and at n = 100-120 binary zero-rule fits took
1.2-1.3.

Example:
    python scripts/start_sweep.py --families binary finite:4 geometric exponential \
        --n 100 150 200 300 --rule zero --graphs 12 --repeats 5
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
from bidegree.solver import (
    Feasibility,
    _class_start,
    _sweep_start,
    default_start,
    existence_check,
    newton_fit,
)


def closed_form_fit(g, family):
    return newton_fit(g, family, theta0=default_start(g, family))


def class_fit(g, family):
    # as in newton_fit, the stages run only on graphs that pass the screen
    start = default_start(g, family)
    if existence_check(g, family) is Feasibility.FEASIBLE:
        start = _class_start(g, family, start)
    return newton_fit(g, family, theta0=start)


def swept_fit(g, family):
    if existence_check(g, family) is Feasibility.FEASIBLE:
        start = _sweep_start(g, family)[0]
    else:
        start = default_start(g, family)
    return newton_fit(g, family, theta0=start)


STARTS = {"closed_form": closed_form_fit, "class": class_fit, "swept": swept_fit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--families", nargs="+", default=["binary", "finite:4", "geometric", "exponential"])
    parser.add_argument("--n", nargs="+", type=int, default=[100, 150, 200, 300])
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

    names = list(STARTS)
    print("family,n,L_rule,graphs,"
          + ",".join(f"{name}_iterations" for name in names) + ","
          + ",".join(f"{name}_ms" for name in names) + ",verdicts_differ")
    for label in args.families:
        family = WeightFamily.parse(label)
        for n in args.n:
            theta = design_params(SimDesign(family, n, ramp_magnitude(args.rule, n)))
            iterations = {name: [] for name in names}
            seconds = {name: [] for name in names}
            differ = 0
            for r in range(args.graphs):
                g = bi_degrees(sample_graph(theta, family, derive_seed(args.seed, r)))
                verdicts = {}
                for repeat in range(args.repeats):
                    shift = (r + repeat) % len(names)
                    for name in names[shift:] + names[:shift]:
                        begin = time.perf_counter()
                        result = STARTS[name](g, family)
                        seconds[name].append(time.perf_counter() - begin)
                        if repeat == 0:
                            iterations[name].append(result.iterations)
                            verdicts[name] = result.existence
                differ += any(verdicts[name] is not verdicts["closed_form"] for name in names)
            print(
                f"{label},{n},{args.rule},{args.graphs},"
                + ",".join(f"{statistics.mean(iterations[name]):.2f}" for name in names) + ","
                + ",".join(f"{1e3 * statistics.median(seconds[name]):.3f}" for name in names)
                + f",{differ}",
                flush=True,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())

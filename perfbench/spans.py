"""Spans around the calls into each layer of ``bidegree``, recorded from outside.

The library's modules import each other's functions by name (``solver`` calls
its own ``fisher_info`` binding, ``simharness`` its own ``newton_fit``), so a
wrapper only sees a call if it replaces the name where the caller resolves it.
``Tracer.install`` therefore swaps every binding of a layer function in every
loaded ``bidegree`` module, and ``uninstall`` puts the originals back.

Each span records its layer, the enclosing ``newton_fit`` span (its fit id),
its parent span, start and end times, and for a fit its iterations and
verdict.  Spans stay in memory until ``summary`` reduces them.  A layer
function that no longer exists is listed in ``missing`` and gets no metrics.
"""

from __future__ import annotations

import functools
import sys
import time

# Layer name -> (module, functions timed under that name).
LAYERS = {
    "model.moment_residual": ("bidegree.model", ("moment_residual",)),
    "fisher.fisher_info": ("bidegree.fisher", ("fisher_info",)),
    "fisher.solve_structured": ("bidegree.fisher", ("solve_structured",)),
    "solver.newton_fit": ("bidegree.solver", ("newton_fit",)),
    "solver.default_start": ("bidegree.solver", ("default_start",)),
    "sampler.sample_graph": ("bidegree.sampler", ("sample_graph",)),
    "inference.plug_in_variances": ("bidegree.inference", ("plug_in_variances",)),
    "inference.ci": ("bidegree.inference", ("ci_for_contrast", "contrast_stat")),
    "simharness.run_experiment": ("bidegree.simharness", ("run_experiment",)),
}

_FIT = "solver.newton_fit"

# Span fields.
LAYER, FIT, PARENT, START, END, OUTCOME = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._wrappers: list[tuple[str, object, object]] = []
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        for layer, (module_name, names) in LAYERS.items():
            module = sys.modules.get(module_name)
            for name in names:
                original = getattr(module, name, None)
                if original is None:
                    self.missing.append(f"{module_name}.{name}")
                else:
                    self._wrappers.append((layer, original, self._wrap(layer, original)))

    def _wrap(self, layer: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1] if stack else None
            fit = span_id if layer == _FIT else (spans[parent][FIT] if parent is not None else None)
            span = [layer, fit, parent, 0, 0, None]
            spans.append(span)
            stack.append(span_id)
            span[START] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter_ns()
                stack.pop()
            if layer == _FIT:
                span[OUTCOME] = (result.iterations, result.existence.value)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every binding of a layer function in the loaded bidegree modules."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "bidegree"]
        for _, original, wrapper in self._wrappers:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def summary(self, items: int) -> dict[str, tuple[float, str]]:
        """(value, unit) per metric: per-item calls, total and self seconds of
        each layer, plus the solver's iteration counts and ratios."""
        layers = {layer for layer, _, _ in self._wrappers}
        calls = dict.fromkeys(layers, 0)
        total = dict.fromkeys(layers, 0)
        self_ns = dict.fromkeys(layers, 0)
        child = [0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] is not None:
                child[span[PARENT]] += span[END] - span[START]
        for span, covered in zip(self.spans, child):
            duration = span[END] - span[START]
            calls[span[LAYER]] += 1
            total[span[LAYER]] += duration
            self_ns[span[LAYER]] += duration - covered

        out = {}
        for layer in sorted(layers):
            out[f"{layer}.calls"] = (calls[layer] / items, "1/item")
            out[f"{layer}.total_s"] = (total[layer] / 1e9 / items, "s/item")
            out[f"{layer}.self_s"] = (self_ns[layer] / 1e9 / items, "s/item")

        fits = [s[OUTCOME] for s in self.spans if s[LAYER] == _FIT and s[OUTCOME]]
        iterations = sum(it for it, _ in fits)
        useful = sum(it for it, verdict in fits if verdict == "exists")
        in_fit = [s[LAYER] for s in self.spans if s[FIT] is not None and s[LAYER] != _FIT]
        steps = in_fit.count("fisher.fisher_info")
        out["solver.iterations"] = (iterations / max(len(fits), 1), "1/fit")
        out["solver.residual_evals_per_step"] = (
            in_fit.count("model.moment_residual") / max(steps, 1),
            "ratio",
        )
        out["solver.exists_ratio"] = (
            sum(verdict == "exists" for _, verdict in fits) / max(len(fits), 1),
            "ratio",
        )
        out["solver.wasted_iter_frac"] = (1.0 - useful / iterations if iterations else 0.0, "ratio")
        return out

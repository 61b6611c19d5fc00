"""Replicated Monte-Carlo experiments: coverage, CI length, MLE nonexistence, QQ data.

Each experiment cell fixes (family, n, ramp rule); replication ``r`` samples
a graph with stream seed ``derive_seed(base_seed, r)`` -- the same seed for
every cell, so cells are paired across ramp rules -- fits the MLE, and, when
it exists, records the standardized contrast and the confidence interval
length for every requested vertex pair.  Results are reduced in replication
order, so output is byte-identical across worker counts.

Coverage conditions on MLE existence; cells where no replication produced an
MLE report the literal string ``NA``.  Replications whose fit ends
Undetermined are counted with the nonexistent ones (no estimate was
obtained), keeping ``replications_used + failures == replications``.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

from .inference import CONTRAST_KINDS, ci_for_contrast, contrast_stat, normal_quantile
from .inference import plug_in_variances
from .model import WeightFamily, bi_degrees
from .sampler import SimDesign, derive_seed, design_params, ramp_magnitude, sample_graph
from .solver import Existence, FitConfig, newton_fit

__all__ = [
    "ExperimentConfig",
    "ExperimentRow",
    "InsufficientDataError",
    "config_from_json",
    "experiment_csv",
    "qq_csv",
    "qq_export",
    "run_experiment",
]

CSV_HEADER = "family,n,L_rule,i,j,coverage_pct,mean_ci_length,nonexist_pct,reps"


class InsufficientDataError(RuntimeError):
    """Too few replications produced an MLE to build the requested output."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid of experiment cells.  ``pairs`` holds 1-based vertex pairs."""

    family: WeightFamily
    n_values: tuple[int, ...]
    L_rules: tuple[str, ...]
    pairs: tuple[tuple[int, int], ...]
    replications: int = 1000
    level: float = 0.95
    base_seed: int = 0
    parallelism: int = 1
    step_mode: str = "exact"

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        object.__setattr__(self, "L_rules", tuple(str(r).lower() for r in self.L_rules))
        object.__setattr__(self, "pairs", tuple((int(i), int(j)) for i, j in self.pairs))
        if not self.n_values or not self.L_rules or not self.pairs:
            raise ValueError("n_values, L_rules and pairs must all be nonempty")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if not 0.0 < self.level < 1.0:
            raise ValueError("level must lie in (0, 1)")
        if self.parallelism < 1:
            raise ValueError("parallelism must be at least 1")
        FitConfig(step_mode=self.step_mode)  # validates the step mode
        for rule in self.L_rules:
            ramp_magnitude(rule, max(self.n_values))  # validates the rule name
        for n in self.n_values:
            for i, j in self.pairs:
                if not (1 <= i <= n and 1 <= j <= n and i != j):
                    raise ValueError(f"pair ({i}, {j}) invalid for n={n} (1-based, distinct)")


@dataclass(frozen=True)
class ExperimentRow:
    """One (family, n, L rule, pair) cell.  Percentages are None when no MLE existed."""

    family: str
    n: int
    L_rule: str
    i: int
    j: int
    coverage_pct: float | None
    mean_ci_length: float | None
    nonexist_pct: float
    replications_used: int


def _replicate(task) -> list[tuple[float, float]] | None:
    """One replication: sample, fit, per-pair (contrast stat, CI length)."""
    family, n, ramp, level, pairs, seed, step_mode, kind = task
    theta_star = design_params(SimDesign(family, n, ramp))
    g = bi_degrees(sample_graph(theta_star, family, seed))
    result = newton_fit(g, family, config=FitConfig(step_mode=step_mode))
    if result.existence is not Existence.EXISTS:
        return None
    cov = plug_in_variances(result.theta_hat, family, level)
    out = []
    for i, j in pairs:
        stat = contrast_stat(kind, i - 1, j - 1, result.theta_hat, theta_star, cov)
        lo, hi = ci_for_contrast(i - 1, j - 1, result.theta_hat, cov, level)
        out.append((stat, hi - lo))
    return out


def _run_tasks(tasks: list, parallelism: int) -> list:
    if parallelism > 1:
        with ProcessPoolExecutor(max_workers=parallelism) as executor:
            chunk = max(1, len(tasks) // (parallelism * 8))
            return list(executor.map(_replicate, tasks, chunksize=chunk))
    return [_replicate(task) for task in tasks]


def _cell_tasks(cfg: ExperimentConfig, n: int, rule: str, pairs, kind: str) -> list:
    ramp = ramp_magnitude(rule, n)
    return [
        (cfg.family, n, ramp, cfg.level, pairs, derive_seed(cfg.base_seed, r), cfg.step_mode, kind)
        for r in range(cfg.replications)
    ]


def run_experiment(cfg: ExperimentConfig) -> list[ExperimentRow]:
    """Run every cell of the grid; deterministic given the config."""
    cells = [(n, rule) for n in cfg.n_values for rule in cfg.L_rules]
    flat = []
    for n, rule in cells:
        flat.extend(_cell_tasks(cfg, n, rule, cfg.pairs, "alpha_diff"))
    flat_results = _run_tasks(flat, cfg.parallelism)

    z = normal_quantile(0.5 * (1.0 + cfg.level))
    rows = []
    for index, (n, rule) in enumerate(cells):
        results = flat_results[index * cfg.replications : (index + 1) * cfg.replications]
        existing = [res for res in results if res is not None]
        used = len(existing)
        nonexist_pct = 100.0 * (cfg.replications - used) / cfg.replications
        for k, (i, j) in enumerate(cfg.pairs):
            if used == 0:
                coverage = mean_length = None
            else:
                covered = sum(1 for res in existing if abs(res[k][0]) <= z)
                coverage = 100.0 * covered / used
                mean_length = sum(res[k][1] for res in existing) / used
            rows.append(
                ExperimentRow(
                    family=cfg.family.label,
                    n=n,
                    L_rule=rule,
                    i=i,
                    j=j,
                    coverage_pct=coverage,
                    mean_ci_length=mean_length,
                    nonexist_pct=nonexist_pct,
                    replications_used=used,
                )
            )
    return rows


def qq_export(cfg: ExperimentConfig, kind: str, pair: tuple[int, int]) -> list[tuple[float, float]]:
    """(theoretical, empirical) quantile pairs of a standardized contrast.

    Requires a single-cell config (one n, one L rule).  Empirical quantiles
    are the sorted statistics over replications with an existing MLE, paired
    with normal quantiles at plotting positions (k - 0.5) / count.
    """
    if len(cfg.n_values) != 1 or len(cfg.L_rules) != 1:
        raise ValueError("qq_export expects a single-cell config (one n, one L rule)")
    if kind not in CONTRAST_KINDS:
        raise ValueError(f"unknown contrast kind {kind!r}; expected one of {CONTRAST_KINDS}")
    (pair,) = replace(cfg, pairs=(pair,)).pairs  # validates the pair
    tasks = _cell_tasks(cfg, cfg.n_values[0], cfg.L_rules[0], (pair,), kind)
    results = _run_tasks(tasks, cfg.parallelism)
    stats = sorted(res[0][0] for res in results if res is not None)
    if len(stats) < 10:
        raise InsufficientDataError(
            f"only {len(stats)} replications produced an MLE; need at least 10"
        )
    count = len(stats)
    return [(normal_quantile((k + 0.5) / count), value) for k, value in enumerate(stats)]


# ---------------------------------------------------------------------------
# serialization


def _fmt(value: float | None, digits: int) -> str:
    return "NA" if value is None else f"{value:.{digits}f}"


def experiment_csv(rows: list[ExperimentRow]) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(
            f"{row.family},{row.n},{row.L_rule},{row.i},{row.j},"
            f"{_fmt(row.coverage_pct, 4)},{_fmt(row.mean_ci_length, 6)},"
            f"{row.nonexist_pct:.4f},{row.replications_used}"
        )
    return "\n".join(lines) + "\n"


def qq_csv(points: list[tuple[float, float]]) -> str:
    lines = ["theoretical,empirical"]
    lines.extend(f"{t!r},{e!r}" for t, e in points)
    return "\n".join(lines) + "\n"


def config_from_json(text: str) -> ExperimentConfig:
    """Build a config from a JSON document mirroring ExperimentConfig."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("experiment config must be a JSON object")
    unknown = set(data) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ValueError(f"unknown experiment config keys: {sorted(unknown)}")
    for key in ("family", "n_values", "L_rules", "pairs"):
        if key not in data:
            raise ValueError(f"experiment config is missing required key {key!r}")
    kwargs = dict(data)
    kwargs["family"] = WeightFamily.parse(data["family"])
    kwargs["n_values"] = tuple(data["n_values"])
    kwargs["L_rules"] = tuple(data["L_rules"])
    kwargs["pairs"] = tuple((p[0], p[1]) for p in data["pairs"])
    return ExperimentConfig(**kwargs)

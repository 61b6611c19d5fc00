"""Independent checks of fit outputs, kept apart from the library's own code.

Two checks decide whether one ``newton_fit`` result is right:

* The existence certificate.  The MLE exists iff the observed bi-degrees lie in
  the relative interior of the mean polytope (Rinaldo, Petrovic & Fienberg 2013,
  Ann. Statist. 41), i.e. iff some zero-diagonal matrix with every off-diagonal
  entry strictly inside ``(0, cap)`` has these margins.  One max-flow finds a
  matrix with the margins; an entry that sits at 0 or ``cap`` can be moved off
  its bound iff the row and column lie on a common cycle of the residual graph.
  For ``n >= 3`` every pair must therefore share a strongly connected component,
  i.e. the residual graph on the 2n row/column nodes is strongly connected.
* The moment residual, recomputed here from the family's edge means rather than
  through ``bidegree.model``.

Only the integer families have a certificate: ``binary`` (cap 1), ``finite:q``
(cap ``q - 1``) and ``geometric`` (unbounded weights; cap ``sum(d) + 1`` can
never be saturated, so it acts as infinity).

A fit *fails* when the call breaks or hands back a wrong estimate: it raises,
ends ``undetermined``, or says ``exists`` for an estimate that misses the
residual tolerance or for degrees the certificate rules out.  A
``nonexistent`` verdict the certificate contradicts is different: the call
completed by its documented rule (the divergence heuristic gave up), so it is
tallied as a wrong verdict, which lowers the share of fits that pass every
check but is not a failed operation.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, maximum_flow
from scipy.special import expit


def certificate_cap(label: str, d: np.ndarray) -> int:
    """Entry bound of the mean polytope for a family label."""
    if label == "binary":
        return 1
    if label.startswith("finite:"):
        return int(label.split(":", 1)[1]) - 1
    if label == "geometric":
        return int(np.rint(d).sum()) + 1
    raise ValueError(f"no existence certificate for family {label!r}")


def _as_integer(values: np.ndarray) -> np.ndarray:
    rounded = np.rint(values)
    if not np.array_equal(rounded, values):
        raise ValueError("the certificate needs integer degrees")
    return rounded.astype(np.int64)


def mle_exists(d: np.ndarray, b: np.ndarray, cap: int) -> bool:
    """True iff (d, b) lies in the relative interior of the mean polytope.

    ``d`` and ``b`` are the out- and in-degrees of a graph on ``n >= 3``
    vertices whose weights are integers in ``[0, cap]``.
    """
    d = _as_integer(np.asarray(d, dtype=float))
    b = _as_integer(np.asarray(b, dtype=float))
    n = d.size
    if n < 3 or b.size != n:
        raise ValueError("need two degree vectors of equal length n >= 3")
    if d.sum() != b.sum() or d.min() < 0 or b.min() < 0:
        return False
    # Nodes: 0 source, 1..n rows, n+1..2n columns, 2n+1 sink.
    source, sink = 0, 2 * n + 1
    rows, cols = np.nonzero(~np.eye(n, dtype=bool))
    tail = np.concatenate([np.zeros(n, dtype=np.int64), 1 + rows, n + 1 + np.arange(n)])
    head = np.concatenate([1 + np.arange(n), n + 1 + cols, np.full(n, sink)])
    capacity = np.concatenate([d, np.full(rows.size, cap), b])
    if capacity.max() > np.iinfo(np.int32).max:
        raise ValueError("degrees too large for an int32 max-flow")
    network = sp.csr_array(
        (capacity.astype(np.int32), (tail, head)), shape=(2 * n + 2, 2 * n + 2)
    )
    result = maximum_flow(network, source, sink, method="dinic")
    if result.flow_value != d.sum():
        return False  # no matrix with these margins at all
    flow = result.flow[1 : n + 1, n + 1 : 2 * n + 1].toarray()
    off = ~np.eye(n, dtype=bool)
    can_raise = sp.csr_array((flow < cap) & off)  # row i -> column j
    can_lower = sp.csr_array(((flow > 0) & off).T)  # column j -> row i
    residual = sp.block_array([[None, can_raise], [can_lower, None]], format="csr")
    components, _ = connected_components(residual, directed=True, connection="strong")
    return components == 1


def edge_means(label: str, alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Expected edge weights at stored-frame parameters, zero diagonal."""
    s = alpha[:, None] + beta[None, :]
    np.fill_diagonal(s, 1.0)
    if label == "binary":
        means = expit(s)
    elif label == "geometric":
        with np.errstate(over="ignore"):
            means = 1.0 / np.expm1(s)
    elif label.startswith("finite:"):
        support = np.arange(int(label.split(":", 1)[1]), dtype=float)
        logits = -s[..., None] * support
        weights = np.exp(logits - logits.max(axis=-1, keepdims=True))
        means = (weights @ support) / weights.sum(axis=-1)
    else:
        raise ValueError(f"no independent edge means for family {label!r}")
    np.fill_diagonal(means, 0.0)
    return means


def residual_inf(label: str, alpha, beta, d, b) -> float:
    """Inf-norm of the 2n-1 moment residual (vertex n's in-degree is implied)."""
    means = edge_means(label, np.asarray(alpha, float), np.asarray(beta, float))
    resid = np.concatenate([d - means.sum(axis=1), (b - means.sum(axis=0))[:-1]])
    return float(np.abs(resid).max())


FALSE_NONEXISTENT = "nonexistent, certificate says exists"


def fit_failure(label: str, outcome, d, b, exists: bool) -> str | None:
    """The check one fit misses, or None when its output passes every check.

    ``outcome`` is the FitResult or the exception the fit raised; ``exists``
    is the certificate's verdict for the degrees (d, b).  The residual is
    checked against the library's default tolerance ``1e-10 * (n - 1)``.
    """
    if isinstance(outcome, BaseException):
        return f"raised {type(outcome).__name__}"
    verdict = outcome.existence.value
    if verdict == "undetermined":
        return "undetermined"
    if verdict == "exists":
        if not exists:
            return "exists, certificate says nonexistent"
        theta = outcome.theta_hat
        if residual_inf(label, theta.alpha, theta.beta, d, b) > 1e-10 * (d.size - 1):
            return "exists with residual above tolerance"
        return None
    if exists:
        return FALSE_NONEXISTENT
    return None


class Checks:
    """Tally of the checks each fit misses, plus the consistency checks behind ``correct``."""

    def __init__(self, label: str) -> None:
        self.label = label
        self.attempted = 0
        self.reasons: dict[str, int] = {}
        self.inconsistent: list[str] = []
        self._certified: dict[bytes, bool] = {}

    @property
    def wrong_verdicts(self) -> int:
        """Fits that completed with a ``nonexistent`` verdict the certificate contradicts."""
        return self.reasons.get(FALSE_NONEXISTENT, 0)

    @property
    def failed(self) -> int:
        """Fits that broke: every check that did not pass, bar the wrong verdicts."""
        return sum(self.reasons.values()) - self.wrong_verdicts

    @property
    def ok_frac(self) -> float:
        """Share of attempted fits that passed every check."""
        return 1.0 - sum(self.reasons.values()) / self.attempted

    def exists(self, g) -> bool:
        key = np.concatenate([g.d, g.b]).tobytes()
        if key not in self._certified:
            cap = certificate_cap(self.label, g.d)
            self._certified[key] = mle_exists(g.d, g.b, cap)
        return self._certified[key]

    def fit(self, g, outcome) -> None:
        self.attempted += 1
        reason = fit_failure(self.label, outcome, g.d, g.b, self.exists(g))
        if reason is not None:
            self.reasons[reason] = self.reasons.get(reason, 0) + 1

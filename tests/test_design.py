"""Two design rules of ``src/bidegree``, checked by scanning its syntax trees.

Each weight family's maths lives in one record of ``bidegree.model``'s
family table, so no other code dispatches on ``WeightFamily.kind``.  The
scan fails on a comparison, a subscript, a ``match`` or a ``.get`` lookup on
a ``.kind`` attribute anywhere in ``src/bidegree`` outside the table lookup
and ``WeightFamily``'s own validation, parse and label.  Naming the kind in
an error message is fine.  The test oracles under ``tests/`` keep their own
per-family formulas on purpose and are not scanned.

A Newton step costs O(n^2) and never an O(n^3) dense solve, so no code uses
a ``linalg`` module (``np.linalg.*``, ``scipy.linalg.*``, or an import of
one) outside ``fisher.dense_inverse``, the dense test oracle.

Both step engines share one Newton loop, so the step mode is decided in one
place: a comparison with a ``.step_mode`` attribute appears only in
``FitConfig``'s validation and once in ``newton_fit``.

A Newton trial reads the edges once: ``model._pair_moments`` is the one pass,
and it sums the margins of each row block while the block is in cache.  So a
family kernel (a ``.moments(`` or ``.pair_moments(`` call, or a call of a
``_<family>_moments`` function) runs only inside that pass, the per-edge
helper ``edge_moments``, the finite inverse mean, and
``fisher._low_rank_cross``, which evaluates the variances at its
interpolation nodes once per Newton step, not per trial.  No
code takes the margins of an n x n array outside the pass's
``_add_margins``: no ``_margins`` helper, no mat-vec with a ones vector and
no axis sum, except ``bi_degrees``, which sums the observed weights.

Row blocks belong to that pass alone: no module but ``model.py`` refers to
the block sizes ``_BLOCK_EDGES`` and ``_CACHE_EDGES`` or to ``_block_rows``,
so no other code walks the pairs in blocks of its own.
"""

import ast
from pathlib import Path

import bidegree

SOURCES = sorted(Path(bidegree.__file__).parent.glob("*.py"))

ALLOWED = {
    ("model.py", "_maths"),
    ("model.py", "WeightFamily.__post_init__"),
    ("model.py", "WeightFamily.parse"),
    ("model.py", "WeightFamily.label"),
}
LINALG_ALLOWED = {("fisher.py", "dense_inverse")}
STEP_MODE_ALLOWED = {("solver.py", "FitConfig.__post_init__"), ("solver.py", "newton_fit")}
KERNEL_ALLOWED = {
    ("model.py", "_pair_moments"),
    ("model.py", "edge_moments"),
    ("model.py", "_finite_inverse_mean"),
    ("fisher.py", "_low_rank_cross"),
}
MARGIN_ALLOWED = {("model.py", "_add_margins"), ("model.py", "bi_degrees")}
BLOCKING_NAMES = ("_BLOCK_EDGES", "_CACHE_EDGES", "_block_rows")


def _is_kind(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "kind"


def _scan(source: str, matches) -> list[tuple[str, int]]:
    """``(enclosing function, line)`` of every node for which ``matches`` holds."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if matches(node):
            found.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def _is_kind_dispatch(node) -> bool:
    return (
        (isinstance(node, ast.Compare) and any(map(_is_kind, [node.left, *node.comparators])))
        or (isinstance(node, ast.Subscript) and _is_kind(node.slice))
        or (isinstance(node, ast.Match) and _is_kind(node.subject))
        or (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and any(map(_is_kind, node.args))
        )
    )


def _is_linalg_use(node) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr == "linalg"
    if isinstance(node, ast.Import):
        return any("linalg" in alias.name.split(".") for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        module = (node.module or "").split(".")
        return "linalg" in module or any(alias.name == "linalg" for alias in node.names)
    return False


def _is_step_mode(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "step_mode"


def _is_step_mode_test(node) -> bool:
    return isinstance(node, ast.Compare) and any(map(_is_step_mode, [node.left, *node.comparators]))


def _is_kernel_call(node) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr in ("moments", "pair_moments")
    return (
        isinstance(func, ast.Name)
        and func.id.startswith("_")
        and func.id.endswith("_moments")
        and func.id != "_pair_moments"
    )


def _is_ones(node) -> bool:
    """A ones vector: a name that says so, a slice of one, or ``np.ones(...)``."""
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Call):
        node = node.func
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")
    return name == "ones" or name.startswith("ones_") or name.endswith("_ones")


def _is_margin(node) -> bool:
    if isinstance(node, (ast.Name, ast.Attribute, ast.FunctionDef)):
        name = {ast.Name: "id", ast.Attribute: "attr", ast.FunctionDef: "name"}[type(node)]
        if getattr(node, name) == "_margins":
            return True
    if isinstance(node, ast.alias) and node.name == "_margins":
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
        return _is_ones(node.left) or _is_ones(node.right)
    if isinstance(node, ast.Call) and isinstance(node.func, (ast.Attribute, ast.Name)):
        func = node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
        if func in ("dot", "matmul", "inner"):
            return any(map(_is_ones, node.args))
        if func == "reduce":
            return True  # a ufunc reduction sums along axis 0 unless told otherwise
        if func == "sum":
            owner = getattr(node.func, "value", None)
            method = owner is not None and getattr(owner, "id", None) not in ("np", "numpy")
            axis_at = 0 if method else 1  # x.sum(axis) or np.sum(x, axis)
            return len(node.args) > axis_at or any(kw.arg == "axis" for kw in node.keywords)
    return False


def _is_blocking(node) -> bool:
    """A reference to the edge pass's row blocks: a name, an attribute, an
    import, a definition or a string naming one of ``BLOCKING_NAMES``."""
    name = {
        ast.Name: "id",
        ast.Attribute: "attr",
        ast.alias: "name",
        ast.FunctionDef: "name",
        ast.Constant: "value",
    }.get(type(node))
    return name is not None and getattr(node, name) in BLOCKING_NAMES


def kernel_calls(source: str) -> list[tuple[str, int]]:
    """``(enclosing function, line)`` of every call of a family's edge kernel."""
    return _scan(source, _is_kernel_call)


def margins(source: str) -> list[tuple[str, int]]:
    """``(enclosing function, line)`` of every row or column sum of an array."""
    return _scan(source, _is_margin)


def blocking_refs(source: str) -> list[tuple[str, int]]:
    """``(enclosing function, line)`` of every reference to the pass's row blocks."""
    return _scan(source, _is_blocking)


def kind_dispatches(source: str) -> list[tuple[str, int]]:
    """``(enclosing function, line)`` of every dispatch on a ``.kind`` attribute."""
    return _scan(source, _is_kind_dispatch)


def linalg_uses(source: str) -> list[tuple[str, int]]:
    """``(enclosing function, line)`` of every use or import of a ``linalg`` module."""
    return _scan(source, _is_linalg_use)


def step_mode_tests(source: str) -> list[tuple[str, int]]:
    """``(enclosing function, line)`` of every comparison with a ``.step_mode`` attribute."""
    return _scan(source, _is_step_mode_test)


def test_scanner_sees_dispatch_but_not_messages():
    source = '''
def f(family, table):
    if family.kind == "binary" or family.kind in ("a", "b"):
        pass
    match family.kind:
        case "finite":
            pass
    raise ValueError(f"bad {family.kind!r}")
    return table[family.kind], table.get(family.kind)
'''
    assert [line for _, line in kind_dispatches(source)] == [3, 3, 5, 9, 9]


def test_no_family_dispatch_outside_the_table():
    assert SOURCES
    stray, seen = [], set()
    for path in SOURCES:
        for scope, line in kind_dispatches(path.read_text()):
            seen.add((path.name, scope))
            if (path.name, scope) not in ALLOWED:
                stray.append(f"{path.name}:{line} in {scope or 'module'}")
    assert not stray, "dispatch on family.kind outside the family table: " + ", ".join(stray)
    # the table lookup itself is found, so the scan covers model.py
    assert ("model.py", "_maths") in seen


def test_scanner_sees_linalg_uses():
    source = '''
import numpy.linalg
from scipy import linalg
from scipy.linalg import cho_solve
def f(np, scipy, a, b):
    x = np.linalg.solve(a, b)
    return scipy.linalg.lu_factor(a), linalg, x.linalg_free
'''
    assert [line for _, line in linalg_uses(source)] == [2, 3, 4, 6, 7]


def test_no_dense_linear_algebra_outside_the_oracle():
    stray, seen = [], set()
    for path in SOURCES:
        for scope, line in linalg_uses(path.read_text()):
            seen.add((path.name, scope))
            if (path.name, scope) not in LINALG_ALLOWED:
                stray.append(f"{path.name}:{line} in {scope or 'module'}")
    assert not stray, "linalg use outside fisher.dense_inverse: " + ", ".join(stray)
    # the oracle's own use is found, so the scan covers fisher.py
    assert ("fisher.py", "dense_inverse") in seen


def test_scanner_sees_step_mode_tests():
    source = '''
def f(cfg, FitConfig):
    exact = cfg.step_mode == "exact"
    if "sapprox" != cfg.step_mode or cfg.step_mode in ("a", "b"):
        pass
    raise ValueError(f"bad {cfg.step_mode!r}")
    return FitConfig(step_mode=cfg.step_mode), exact
'''
    assert [line for _, line in step_mode_tests(source)] == [3, 4, 4]


def test_one_step_mode_decision():
    sites = []
    for path in SOURCES:
        sites += [(path.name, scope) for scope, _ in step_mode_tests(path.read_text())]
    stray = sorted({site for site in sites if site not in STEP_MODE_ALLOWED})
    assert not stray, f"step_mode tested outside its one decision: {stray}"
    assert sites.count(("solver.py", "newton_fit")) == 1
    # the validation is found too, so the scan covers solver.py
    assert ("solver.py", "FitConfig.__post_init__") in sites


def test_scanner_sees_kernel_calls_and_margins():
    source = '''
from .model import _margins
def f(np, rec, maths, family, s, x, ones, cross, p):
    mean = rec.moments(family, s)[0]
    kernel = maths.pair_moments(theta)
    both = _finite_moments(family, s, None)
    a, b = _margins(x)
    rows, cols = x @ ones, np.ones(n) @ x
    rows = np.dot(x, ones[:5], out=rows)
    cols = x.sum(axis=0) + np.sum(x, 1) + np.add.reduce(x, axis=0)
    total = np.sum(x) + np.add.reduce(x)
    return p @ cross, x.sum(), rec.log_partition(family, s), maths.inverse_mean(family, s)
def _margins(pairs):
    return _pair_moments(theta, family, work)
'''
    assert [line for _, line in kernel_calls(source)] == [4, 5, 6]
    assert [line for _, line in margins(source)] == [2, 7, 8, 8, 9, 10, 10, 10, 11, 13]


def test_edge_kernels_run_only_in_the_pass():
    stray, seen = [], set()
    for path in SOURCES:
        for scope, line in kernel_calls(path.read_text()):
            seen.add((path.name, scope))
            if (path.name, scope) not in KERNEL_ALLOWED:
                stray.append(f"{path.name}:{line} in {scope or 'module'}")
    assert not stray, "edge kernel called outside the edge pass: " + ", ".join(stray)
    # the pass's own call is found, so the scan covers model.py
    assert ("model.py", "_pair_moments") in seen


def test_margins_only_in_the_pass():
    stray, seen = [], set()
    for path in SOURCES:
        for scope, line in margins(path.read_text()):
            seen.add((path.name, scope))
            if (path.name, scope) not in MARGIN_ALLOWED:
                stray.append(f"{path.name}:{line} in {scope or 'module'}")
    assert not stray, "margins taken outside the edge pass: " + ", ".join(stray)
    assert ("model.py", "_add_margins") in seen


def test_scanner_sees_row_block_references():
    source = '''
from .model import _BLOCK_EDGES, _block_rows as rows_of
import bidegree.model
def f(n, patch):
    rows = max(1, bidegree.model._CACHE_EDGES // n)
    patch.setattr(bidegree.model, "_BLOCK_EDGES", 7)
    return _block_rows(n, True), "no _CACHE_EDGES in prose", _BLOCK_EDGES_X
def _block_rows(n):
    return n
'''
    assert [line for _, line in blocking_refs(source)] == [2, 2, 5, 6, 7, 8]


def test_row_blocks_only_in_the_model():
    stray, seen = [], set()
    for path in SOURCES:
        for scope, line in blocking_refs(path.read_text()):
            seen.add(path.name)
            if path.name != "model.py":
                stray.append(f"{path.name}:{line} in {scope or 'module'}")
    assert not stray, "row blocks referred to outside model.py: " + ", ".join(stray)
    # the pass's own blocks are found, so the scan covers model.py
    assert "model.py" in seen

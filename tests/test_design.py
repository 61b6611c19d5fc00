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

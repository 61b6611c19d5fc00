"""Each weight family's maths lives in one record of ``bidegree.model``'s
family table, so no other code dispatches on ``WeightFamily.kind``.

The scan fails on a comparison, a subscript, a ``match`` or a ``.get``
lookup on a ``.kind`` attribute anywhere in ``src/bidegree`` outside the
table lookup and ``WeightFamily``'s own validation, parse and label.  Naming
the kind in an error message is fine.  The test oracles under ``tests/``
keep their own per-family formulas on purpose and are not scanned.
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


def _is_kind(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "kind"


def kind_dispatches(source: str) -> list[tuple[str, int]]:
    """``(enclosing function, line)`` of every dispatch on a ``.kind`` attribute."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if (
            (isinstance(node, ast.Compare) and any(map(_is_kind, [node.left, *node.comparators])))
            or (isinstance(node, ast.Subscript) and _is_kind(node.slice))
            or (isinstance(node, ast.Match) and _is_kind(node.subject))
            or (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get"
                and any(map(_is_kind, node.args))
            )
        ):
            found.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


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

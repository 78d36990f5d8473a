"""Every function, class and method defined in src/rlx is referenced.

A definition counts as used when its name appears as a name, an
attribute or an imported name anywhere in src/rlx, tests, demos or the
benchmark harness; dunder methods, which Python calls itself, are
exempt.  Only the syntax trees are read, nothing is imported.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rlx"
SEARCHED = (sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
            + sorted((ROOT / "demos").glob("*.py"))
            + sorted((ROOT / "perfbench").glob("*.py")))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_tree(path)):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not (node.name.startswith("__")
                             and node.name.endswith("__"))):
                yield f"{path.stem}.{node.name}", node.name


def _references():
    names = set()
    for path in SEARCHED:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
    return names


def test_every_definition_is_referenced():
    used = _references()
    assert [where for where, name in _definitions() if name not in used] == []

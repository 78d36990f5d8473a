"""Every function, class and method defined in src/rlx is referenced.

A definition counts as used when its name appears as a name, an
attribute or an imported name anywhere in src/rlx, tests, demos or the
benchmark harness; a method counts only through attribute access
(`.name`), so a local variable of the same name cannot hide it.  Dunder
methods, which Python calls itself, are exempt.  The library itself
references each of its definitions: a re-export from `rlx/__init__.py`
or a name in `rlx.__all__` is no use.  No function re-imports, relative
to the package, a module its file already imports at top level, and no
module imports `annotations` from `__future__` without annotating
something.  Only the syntax trees are read, nothing is imported.
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
    """(where, name, is_method) for each definition in src/rlx."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _tree(path)
        methods = {node for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) for node in cls.body}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not (node.name.startswith("__")
                             and node.name.endswith("__"))):
                yield f"{path.stem}.{node.name}", node.name, node in methods


def _references(paths=SEARCHED):
    """(names, attributes): the names referenced in `paths` as a name or
    an imported name, and those referenced as an attribute."""
    names, attributes = set(), set()
    for path in paths:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
    return names, attributes


def _unreferenced(paths=SEARCHED):
    """The definitions that `paths` does not reference; a method needs an
    attribute reference, anything else any reference."""
    names, attributes = _references(paths)
    anything = names | attributes
    return {where for where, name, is_method in _definitions()
            if name not in (attributes if is_method else anything)}


def test_every_definition_is_referenced():
    assert sorted(_unreferenced()) == []


def test_every_library_definition_is_used_by_the_library():
    """A definition that only code outside src/rlx reaches is test-only
    code in the library: it belongs in the tests.  Exporting a name from
    `rlx/__init__.py` does not use it, so that module is not read."""
    unused = _unreferenced([path for path in sorted(PACKAGE.glob("*.py"))
                            if path.name != "__init__.py"])
    assert unused == set(), f"unreferenced in src/rlx: {sorted(unused)}"


def _function_reimports():
    """(file, function, module) for each package-relative import inside a
    function of a module the same file already imports at top level."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _tree(path)
        top = {node.module for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if (isinstance(node, ast.ImportFrom) and node.level == 1
                        and node.module in top):
                    found.add((path.stem, fn.name, node.module))
    return sorted(found)


def test_no_function_reimports_a_top_level_import():
    """A function-local import is kept only where it defers a load or
    breaks an import cycle; one of a module the file already imports at
    top level does neither."""
    assert _function_reimports() == []


def _needless_future_annotations(paths=sorted(PACKAGE.glob("*.py"))):
    """The stems of the modules in `paths` that import `annotations` from
    `__future__` but annotate nothing: no argument, no return and no
    annotated assignment, so the import changes nothing."""
    found = []
    for path in paths:
        tree = _tree(path)
        imported = any(isinstance(node, ast.ImportFrom)
                       and node.module == "__future__"
                       and any(a.name == "annotations" for a in node.names)
                       for node in tree.body)
        annotated = any(
            isinstance(node, ast.AnnAssign)
            or isinstance(node, ast.arg) and node.annotation is not None
            or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.returns is not None
            for node in ast.walk(tree))
        if imported and not annotated:
            found.append(path.stem)
    return found


def test_future_annotations_only_where_something_is_annotated():
    """`from __future__ import annotations` defers the evaluation of
    annotations; in a module without one it is dead weight."""
    assert _needless_future_annotations() == []


def test_needless_future_annotations_are_found(tmp_path):
    """The scan flags a module with the import and no annotation, and
    passes one whose argument, return or assignment is annotated."""
    head = "from __future__ import annotations\n\n"
    bodies = {"bare": "def f(x):\n    return x\n",
              "argument": "def f(x: int):\n    return x\n",
              "returns": "def f(x) -> int:\n    return x\n",
              "assignment": "x: int = 1\n",
              "unimported": "def f(x):\n    return x\n"}
    paths = []
    for stem, body in bodies.items():
        path = tmp_path / f"{stem}.py"
        path.write_text(("" if stem == "unimported" else head) + body,
                        encoding="utf-8")
        paths.append(path)
    assert _needless_future_annotations(paths) == ["bare"]

"""Every function, class and method defined in src/rlx is referenced.

A definition counts as used when its name appears as a name, an
attribute or an imported name anywhere in src/rlx, tests, demos or the
benchmark harness; a method counts only through attribute access
(`.name`), so a local variable of the same name cannot hide it.  Dunder
methods, which Python calls itself, are exempt.  The library itself
references each of its definitions, but for the public names of
`rlx.__all__`.  No function re-imports, relative to the package, a
module its file already imports at top level.  Only the syntax trees are
read, nothing is imported.
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


def _unreferenced(paths=SEARCHED, exported=frozenset()):
    """The definitions that `paths` does not reference; a method needs an
    attribute reference, anything else any reference or an export."""
    names, attributes = _references(paths)
    anything = names | attributes | exported
    return {where for where, name, is_method in _definitions()
            if name not in (attributes if is_method else anything)}


def test_every_definition_is_referenced():
    assert sorted(_unreferenced()) == []


def _exported():
    """The names in the list assigned to `__all__` in rlx/__init__.py."""
    for node in _tree(PACKAGE / "__init__.py").body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    raise AssertionError("rlx/__init__.py assigns no __all__")


def test_every_library_definition_is_used_by_the_library():
    """A definition that only code outside src/rlx reaches is test-only
    code in the library: it belongs in the tests."""
    unused = _unreferenced(sorted(PACKAGE.glob("*.py")), _exported())
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

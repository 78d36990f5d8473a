"""Every function, class and method defined in src/rlx is referenced.

A definition counts as used when its name appears as a name, an
attribute or an imported name anywhere in src/rlx, tests, demos or the
benchmark harness; dunder methods, which Python calls itself, are
exempt.  The library itself references each of its definitions, but for
the public names of `rlx.__all__` and a short allowlist.  No function
re-imports, relative to the package, a module its file already imports
at top level.  Only the syntax trees are read, nothing is imported.
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


# Definitions that nothing in src/rlx references and that rlx.__all__ does
# not export: code that only tests, demos or the benchmark run, kept in the
# library until it leaves it or gains a caller there.  The list only
# shrinks.
USED_OUTSIDE_THE_LIBRARY = {
    "io.load_blat",  # reads what `rlx reticulate --out` writes; no command does
    "iso.canonical_key",  # the enumeration tests and the benchmark
    "reticulation.reticulate_morphism",  # the functor on morphisms, tests only
    "reticulation.uniqueness_check",  # the unique isomorphism, tests only
    "spectra.gelfand_retract",  # the Gelfand retraction, tests and a demo
    "theorems.disagreements",  # the failing rows, tests only
}


def _references(paths=SEARCHED):
    names = set()
    for path in paths:
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
    code in the library.  A new one fails; one that gains a caller or
    leaves drops out of the list."""
    used = _references(sorted(PACKAGE.glob("*.py"))) | _exported()
    unused = {where for where, name in _definitions() if name not in used}
    assert unused == USED_OUTSIDE_THE_LIBRARY, (
        f"unreferenced in src/rlx: {sorted(unused - USED_OUTSIDE_THE_LIBRARY)}"
        f"; used now or gone, drop from the list: "
        f"{sorted(USED_OUTSIDE_THE_LIBRARY - unused)}")


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

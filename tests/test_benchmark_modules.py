"""Every rlx module the benchmark harness imports must exist.

perfbench/child.py imports the modules named in its RLX_MODULES in every
workload, so deleting or renaming one of them would break every benchmark
run.  The name list is read from the harness source without importing it.
"""

import ast
import importlib
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def _benchmark_modules():
    for node in ast.parse(CHILD.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "RLX_MODULES"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no RLX_MODULES in {CHILD}")


@pytest.mark.parametrize("name", _benchmark_modules())
def test_benchmark_module_imports(name):
    importlib.import_module(f"rlx.{name}")

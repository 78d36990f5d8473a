"""A ratchet on the bare `assert` statements in src/rlx.

A bare assert vanishes under `python -O`, and when it fires it exits 1
with a traceback, which reads like a validation error.  A cross-check
belongs in the theorem matrix as a row, where a failure exits 2.  The
pinned count may go down, never up: whoever removes an assert lowers
the pin.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rlx"
ASSERT_PIN = 20


def test_assert_count_is_pinned():
    count = sum(isinstance(node, ast.Assert)
                for path in sorted(SRC.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
    assert count == ASSERT_PIN, (
        f"{count} asserts in src/rlx, pinned at {ASSERT_PIN}: a new check "
        "belongs in the theorem matrix as a row or raises a typed RlxError; "
        "after removing asserts, lower the pin")

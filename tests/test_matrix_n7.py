"""The north star's claim as a gate: the theorem matrix over every
algebra of sizes 1..7 has no disagreement.

The size-7 rows are pinned by count and by SHA-256, as the size-6 rows
are in test_theorems.py.  Over sizes 1..7 each theorem id is pinned by
the count of its rows in each (lhs, rhs) cell, kept in
tests/data/matrix_histogram.json.  When a change moves rows, the failure
lists the cells that differ, so a re-record shows which rows changed,
not only that the digest did.  A re-record may add ids and their cells;
a change to the counts of an existing id is named in CHANGES.md.  The
size-7 rows come from empty memos, and the reticulation memo is checked
to miss once per entry over them.

To re-record the histogram, write `json.dumps(_histogram(rows), indent=1,
sort_keys=True)` plus a newline, with the rows of sizes 1..7.
"""

import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

from conftest import clear_memos
from rlx.reticulation import build_reticulation
from rlx.theorems import theorem_checks

HISTOGRAM = Path(__file__).resolve().parent / "data" / "matrix_histogram.json"

# SHA-256 of json.dumps([v.as_dict() for A in all_algebras(7) for v in
# theorem_checks(A)], sort_keys=True), and its row count
MATRIX_N7_SHA256 = "17793fdfa445c5d741dc83f4c4bad8f11a0dcfdbb24b844fb4177a64bf147689"
MATRIX_N7_ROWS = 53543


@pytest.fixture(scope="module")
def size_7_from_empty_memos(corpus7):
    """The size-7 rows, as dicts, of a matrix run from empty memos, and
    the `build_reticulation` memo's cache_info() after it."""
    clear_memos()
    rows = [v.as_dict() for A in corpus7 for v in theorem_checks(A)]
    return rows, build_reticulation.cache_info()


@pytest.fixture(scope="module")
def rows_by_size(corpus5, corpus6, size_7_from_empty_memos):
    """size -> the matrix rows, as dicts, of every algebra of that size."""
    out = {7: size_7_from_empty_memos[0]}
    for A in (*corpus5, *corpus6):
        out.setdefault(A.size, []).extend(v.as_dict() for v in theorem_checks(A))
    return out


def _histogram(rows):
    """theorem id -> {"lhs/rhs": row count}."""
    cells = Counter((r["theorem_id"], f"{r['lhs']}/{r['rhs']}") for r in rows)
    out = {}
    for (tid, cell), count in sorted(cells.items()):
        out.setdefault(tid, {})[cell] = count
    return out


def test_sizes_1_to_7_have_no_disagreement(rows_by_size):
    assert sorted(rows_by_size) == list(range(1, 8))
    bad = [r for rows in rows_by_size.values() for r in rows if not r["agree"]]
    assert bad == []


def test_size_7_matrix_pinned(rows_by_size):
    rows = rows_by_size[7]
    assert len(rows) == MATRIX_N7_ROWS
    text = json.dumps(rows, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == MATRIX_N7_SHA256


def test_each_reticulation_is_built_once(size_7_from_empty_memos):
    """An algebra whose representative has equal tables builds its own
    L(A), with no second, re-entrant miss for the representative: every
    miss of the size-7 matrix leaves one entry."""
    info = size_7_from_empty_memos[1]
    assert info.misses == info.currsize


def test_histogram_per_theorem_id_pinned(rows_by_size):
    found = _histogram(r for rows in rows_by_size.values() for r in rows)
    pinned = json.loads(HISTOGRAM.read_text(encoding="utf-8"))
    diff = [f"{tid} {cell}: pinned {pinned.get(tid, {}).get(cell, 0)}, "
            f"found {found.get(tid, {}).get(cell, 0)}"
            for tid in sorted(pinned.keys() | found.keys())
            for cell in sorted(pinned.get(tid, {}).keys()
                               | found.get(tid, {}).keys())
            if pinned.get(tid, {}).get(cell) != found.get(tid, {}).get(cell)]
    assert diff == [], "cells that differ:\n" + "\n".join(diff)
    assert sum(map(len, pinned.values())) == 131

"""A ratchet on the memo lookups that the theorem matrix makes.

`theorem_checks` runs over the corpus of sizes 1..5 in a fresh
interpreter, and the hits plus misses of every memo that
test_memo_inventory.py lists are summed over the run.  A lookup costs a
key hash and a dict probe even when it hits, and the matrix asks many
questions of a few algebras, so a per-filter or per-row answer that goes
back to a memo instead of a record the caller holds shows up here.  The
count does not depend on timing or on the string-hash seed.  The pin may
go down, never up: whoever lowers the count lowers the pin.
"""

import os
import subprocess
import sys
from pathlib import Path

import rlx
from test_memo_inventory import LRU_CACHES

# lookups of the size-5 matrix: 10,957 (11,089 when the spaces and L(A)
# were read off the first algebra of the signature to build them, not
# off its representative, and `star_property` had a memo; 11,317 before
# the filter record, the spaces and L(A) were built once per signature;
# 12,814 before the verdicts that read only the filter signature were
# decided once per signature and the row families read the lifting masks
# and the filter record once each; 14,142 when each lattice filter was
# decided on its own quotient and the gap lemma asked for each element's
# gap filter; 16,882 when every verdict that keeps only a bool built a
# record or asked the global memo, filter meets and joins looked up the
# filter record, and each reticulation and filter lattice ran a memo-hit
# `validate`)
LOOKUP_PIN = 10_957
# a count this far below the pin means the pin should come down
SLACK = 0.95

MEASURE = """
import importlib, sys
from rlx.enumeration import all_algebras
from rlx.theorems import theorem_checks
memos = []
for name in sys.argv[1:]:
    module, attr = name.split(".")
    memos.append(getattr(importlib.import_module("rlx." + module), attr))
corpus = [A for n in range(1, 6) for A in all_algebras(n)]

def lookups():
    return sum(m.cache_info().hits + m.cache_info().misses for m in memos)

before = lookups()
rows = [theorem_checks(A) for A in corpus]
print(sum(map(len, rows)), lookups() - before)
"""


def _measure():
    """(rows, memo lookups) of the size-5 matrix in a fresh interpreter
    that imports this rlx."""
    src = str(Path(rlx.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + os.pathsep + path if path else src)
    out = subprocess.run([sys.executable, "-c", MEASURE, *sorted(LRU_CACHES)],
                         env=env, capture_output=True, text=True, check=True)
    rows, lookups = map(int, out.stdout.split())
    return rows, lookups


def test_matrix_memo_lookups_are_pinned():
    rows, lookups = _measure()
    assert rows == 2753
    assert lookups <= LOOKUP_PIN, (
        f"the size-5 matrix makes {lookups:,} memo lookups, pinned at "
        f"{LOOKUP_PIN:,}: read an answer off a record the caller holds")
    assert lookups >= SLACK * LOOKUP_PIN, (
        f"the size-5 matrix makes {lookups:,} memo lookups, well under the "
        f"pin {LOOKUP_PIN:,}: lower the pin")

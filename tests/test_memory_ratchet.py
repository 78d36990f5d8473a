"""A ratchet on the memory that the theorem matrix keeps.

`theorem_checks` runs over the corpus of sizes 1..5 in a fresh
interpreter, and `tracemalloc` counts the bytes allocated during the run
that are still alive after it: the rows and everything the memos hold.
A fresh interpreter starts with empty memos, free lists and caches, so
the count does not depend on what ran before it: the full suite and the
file alone measure the same bytes.  The pin may go down, never up:
whoever lowers the bytes lowers the pin.  Object sizes differ between
Python versions, so the pin is kept per version.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rlx

# bytes retained with CPython 3.11 in a fresh interpreter: 244,309, plus
# 3 % (the pin was 288,100, set at 279,681; 260,917 before every algebra
# read its representative's filter record, spaces and L(A) instead of
# rebinding copies of them; the pin was 396,300, set at 384,751 before
# an algebra's identity became its tables and every memo kept one answer
# per table pair; the pin before it was 417,400, set at 405,191;
# 402,323 before Filt, Spec, Max and Rad were read off one filter record
# per algebra, 413,052 before the quotient tables were validated once per
# triple and L(A/F) read off the table memos, 439,820 before the
# topological predicates were kept per topology and not per space)
RETAINED_PIN = {(3, 11): 251_700}
# a value this far below the pin means the pin should come down
SLACK = 0.9

MEASURE = """
import gc, tracemalloc
from rlx.enumeration import all_algebras
from rlx.theorems import theorem_checks
corpus = [A for n in range(1, 6) for A in all_algebras(n)]
gc.collect()  # a full collection also empties the free lists
tracemalloc.start()
rows = [theorem_checks(A) for A in corpus]
gc.collect()
retained = tracemalloc.get_traced_memory()[0]
tracemalloc.stop()
print(sum(map(len, rows)), retained)
"""


def _measure():
    """(rows, bytes retained) of the size-5 matrix in a fresh interpreter
    that imports this rlx."""
    src = str(Path(rlx.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + os.pathsep + path if path else src)
    out = subprocess.run([sys.executable, "-c", MEASURE], env=env,
                         capture_output=True, text=True, check=True)
    rows, retained = map(int, out.stdout.split())
    return rows, retained


def test_matrix_retained_bytes_are_pinned():
    pin = RETAINED_PIN.get(sys.version_info[:2])
    if pin is None:
        pytest.skip(f"no pin for Python {sys.version_info[:2]}")
    rows, retained = _measure()
    assert rows == 2753
    assert retained <= pin, (
        f"the size-5 matrix retains {retained:,} bytes, pinned at {pin:,}: "
        "keep a value only where an equal one is not already held")
    assert retained >= SLACK * pin, (
        f"the size-5 matrix retains {retained:,} bytes, well under the pin "
        f"{pin:,}: lower the pin")

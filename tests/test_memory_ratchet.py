"""A ratchet on the memory that the theorem matrix keeps.

`theorem_checks` runs over the corpus of sizes 1..5 with every memo
emptied first, and `tracemalloc` counts the bytes allocated during the
run that are still alive after it: the rows and everything the memos
hold.  The pin may go down, never up: whoever lowers the bytes lowers the
pin.  Object sizes differ between Python versions, so the pin is kept
per version.
"""

import gc
import sys
import tracemalloc

import pytest

from rlx.enumeration import all_algebras
from rlx.theorems import theorem_checks

# bytes retained, measured 426,492-438,196 with CPython 3.11, plus 3 %
RETAINED_PIN = {(3, 11): 452_000}
# a value this far below the pin means the pin should come down
SLACK = 0.9


def test_matrix_retained_bytes_are_pinned(cold_caches):
    pin = RETAINED_PIN.get(sys.version_info[:2])
    if pin is None:
        pytest.skip(f"no pin for Python {sys.version_info[:2]}")
    corpus = [A for n in range(1, 6) for A in all_algebras(n)]
    gc.collect()  # a full collection also empties the free lists
    tracemalloc.start()
    try:
        rows = [theorem_checks(A) for A in corpus]
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert sum(map(len, rows)) == 2753
    assert retained <= pin, (
        f"the size-5 matrix retains {retained:,} bytes, pinned at {pin:,}: "
        "keep a value only where an equal one is not already held")
    assert retained >= SLACK * pin, (
        f"the size-5 matrix retains {retained:,} bytes, well under the pin "
        f"{pin:,}: lower the pin")

"""The memos that src/rlx defines, pinned by name.

A memo is a callable with `cache_clear` whose `__module__` is the rlx
module that holds it.  Every memo is an unbounded `lru_cache`, so a new
one is a decision about memory: this list and the memo count in ROADMAP
item 1 change with it.  An algebra is its tables, so the memos keyed by
an algebra are the ones test_table_memo.py checks.
"""

import importlib
import pkgutil

import rlx
from conftest import clear_memos
from rlx.theorems import theorem_checks
from test_table_memo import TABLE_MEMOS

KEYED_BY_AN_ALGEBRA = {
    "core.classify", "core.complemented_elements",
    "dlattice._lattice_blp_failures", "dlattice.is_conormal_lattice",
    "dlattice.is_normal_lattice",
    "filters._filters", "filters.quotient", "formulas._definable_masks",
    "lifting._lift_failures", "reticulation.build_reticulation",
    "spectra._build",
    "theorems._filter_side", "theorems.local_factor_decomposition",
}
LRU_CACHES = KEYED_BY_AN_ALGEBRA | {
    "core._element_range", "core._id_labels", "core._validate_lattice",
    "core._validate_residuated", "core.shared_set",
    "core.distributivity_witness", "dlattice._heyting_algebra",
    "filters._quotient_tables",
    "iso._order_minimizers", "spectra._topology_predicates",
    "theorems._shared_row",
}


def _memos():
    """'module.name' -> memo, for every memo of every rlx module."""
    found = {}
    for info in pkgutil.iter_modules(rlx.__path__):
        module = importlib.import_module(f"rlx.{info.name}")
        for name, obj in vars(module).items():
            if (callable(getattr(obj, "cache_clear", None))
                    and getattr(obj, "__module__", None) == module.__name__):
                found[f"{info.name}.{name}"] = obj
    return found


def _mismatch(kind, pinned, found):
    added, removed = sorted(found - pinned), sorted(pinned - found)
    return (f"{kind}: added {added}, removed {removed}; update the list in "
            f"{__name__} and the memo count in ROADMAP item 1")


def test_memos_are_pinned_by_name():
    memos = _memos()
    lru = {name for name, memo in memos.items()
           if hasattr(memo, "cache_parameters")}
    assert lru == set(memos), "a memo that is not an lru_cache"
    assert lru == LRU_CACHES, _mismatch("lru_cache memos", LRU_CACHES, lru)
    assert (len(memos), len(KEYED_BY_AN_ALGEBRA)) == (24, 13)


def test_table_memo_tests_list_exactly_the_table_memos():
    """TABLE_MEMOS in test_table_memo.py lists every memo keyed by an
    algebra, and nothing else."""
    memos = _memos()
    tested = {name for name in memos
              if any(memos[name] is memo for memo, _ in TABLE_MEMOS)}
    assert len(TABLE_MEMOS) == len(tested) and tested == KEYED_BY_AN_ALGEBRA, \
        _mismatch("TABLE_MEMOS in test_table_memo", KEYED_BY_AN_ALGEBRA, tested)


def test_clear_memos_empties_every_memo(E1):
    theorem_checks(E1)
    memos = _memos()
    assert any(memo.cache_info().currsize for memo in memos.values())
    clear_memos()
    assert {name for name, memo in memos.items()
            if memo.cache_info().currsize} == set()

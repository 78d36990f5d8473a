import hashlib
import itertools
import json

import rlx.reticulation
import rlx.spectra
from rlx.core import (
    boolean_algebra,
    complemented_elements,
    direct_product,
    godel_chain,
    validate,
)
from rlx.enumeration import all_algebras
from rlx.filters import principal_filter, quotient, spec
from rlx.formulas import blp_formula, ilp_formula
from rlx.theorems import disagreements, theorem_checks

# SHA-256 of json.dumps([v.as_dict() for A in all_algebras(6) for v in
# theorem_checks(A)], sort_keys=True), and its row count
MATRIX_N6_SHA256 = "f58e041bc6625be08bea165aaeb3bd7164174e97d434cff023ac219380309f5f"
MATRIX_N6_ROWS = 9553


def test_corpus_size_5_zero_disagreements(corpus5):
    for A in corpus5:
        bad = disagreements(A)
        assert not bad, (A, bad)


def test_fixtures_zero_disagreements(E1, E2):
    for A in (E1, E2):
        assert not disagreements(A)


def test_size_6_sample_zero_disagreements(corpus6):
    # deterministic sample: every fourth algebra in canonical order
    sample = corpus6[::4]
    assert len(sample) >= 30
    for A in sample:
        assert not disagreements(A)


def test_size_6_matrix_pinned(corpus6):
    """The size-6 theorem matrix, row for row, is the one recorded at
    commit f6da3af, before the cached lifting verdicts, the cached algebra
    hash and the bitmask order kernels."""
    rows = [v.as_dict() for A in corpus6 for v in theorem_checks(A)]
    assert len(rows) == MATRIX_N6_ROWS
    text = json.dumps(rows, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == MATRIX_N6_SHA256


def test_product_law_on_ordered_pairs_size_4(corpus4):
    # the definable-set product equation and the two-sided lifting law,
    # checked on every ordered pair
    from oracles import product_lp_check

    for A, B in itertools.product(corpus4, repeat=2):
        for phi in (blp_formula(), ilp_formula()):
            lp_ab, lp_a, lp_b = product_lp_check(A, B, phi)
            assert lp_ab == (lp_a and lp_b)


def test_verdicts_are_deterministic(E1):
    a = [v.as_dict() for v in theorem_checks(E1)]
    b = [v.as_dict() for v in theorem_checks(E1)]
    assert a == b


def test_verdict_schema(E1):
    for v in theorem_checks(E1):
        d = v.as_dict()
        assert set(d) == {"theorem_id", "lhs", "rhs", "agree", "witness"}
        assert isinstance(d["lhs"], bool) and isinstance(d["rhs"], bool)
        assert d["agree"] == ((not d["lhs"]) == (not d["rhs"])) or d["agree"] in (True, False)


def test_specific_verdicts_pentagon(E1):
    by_id = {}
    for v in theorem_checks(E1):
        by_id.setdefault(v.theorem_id, v)
    v = by_id["spec-strong-zero-dim.blp"]
    assert v.lhs is False and v.rhs is False and v.agree
    v = by_id["max-boolean-forms.gelfand+boolean-space"]
    assert v.lhs is False and v.rhs is False and v.agree


def test_local_product_decomposition_golden(E1):
    from rlx.theorems import local_factor_decomposition
    from rlx.core import boolean_algebra

    is_prod, locals_ok, sizes = local_factor_decomposition(E1)
    assert is_prod and not locals_ok  # single non-local factor
    B4 = boolean_algebra(2)
    is_prod, locals_ok, sizes = local_factor_decomposition(B4)
    assert is_prod and locals_ok and sizes == (2, 2)
    P = direct_product(boolean_algebra(1), boolean_algebra(1))
    is_prod, locals_ok, sizes = local_factor_decomposition(P)
    assert is_prod and locals_ok and len(sizes) == 2


def test_local_factor_decomposition_runs_once_per_algebra():
    """Two row families read the decomposition; it is built once."""
    from rlx.theorems import local_factor_decomposition

    P = direct_product(godel_chain(3), boolean_algebra(1))
    # labels no other test uses, so the cache has not seen this algebra
    A = validate(tuple(f"once{i}" for i in range(P.size)), P.leq, P.odot)
    before = local_factor_decomposition.cache_info()
    theorem_checks(A)
    after = local_factor_decomposition.cache_info()
    assert after.misses - before.misses == 1
    assert after.hits - before.hits == 1


def test_lattice_lifting_bug_is_a_disagreeing_row(monkeypatch):
    """A lattice side that lifts only bot and top shows up as a disagreeing
    reticulation-blp-transfer row, not as an exception."""
    def lattice_blp_filter(L, F):
        Q = quotient(L, F)
        lifted = {Q.class_of[L.bot], Q.class_of[L.top]}
        return complemented_elements(Q.quotient) <= lifted

    monkeypatch.setattr(rlx.reticulation, "lattice_blp_filter",
                        lattice_blp_filter)
    A = all_algebras(4)[0]
    rows = {v.theorem_id: v for v in theorem_checks(A)}
    row = rows["reticulation-blp-transfer"]
    assert not row.agree
    assert row.witness == "{e3}"


def test_star_direct_form_bug_is_a_disagreeing_row(monkeypatch):
    """A fault in the direct form of (*) shows up as disagreeing
    star-forms rows, not as an exception: the three reformulations are
    compared with the direct verdict by the matrix alone.  The fault is a
    radical taken over the prime filters instead of the maximal ones, and
    only star_property sees it.  star_property caches its answers, so the
    cache is emptied once the fault is in and again when the test ends."""
    def prime_radical(B):
        e = B.bot
        for P in spec(B):
            e = B.join[e][P.gen]
        return principal_filter(B, e)

    A = godel_chain(3)
    assert rlx.spectra.star_property(A)[0]
    assert prime_radical(A) != rlx.spectra.radical(A)
    monkeypatch.setattr(rlx.spectra, "radical", prime_radical)
    rlx.spectra.star_property.cache_clear()
    try:
        rows = {v.theorem_id: v for v in theorem_checks(A)}
    finally:
        rlx.spectra.star_property.cache_clear()
    for form in ("nilpotent-radical", "spectral", "spectral-powers"):
        row = rows[f"star-forms.{form}"]
        assert (row.lhs, row.rhs, row.agree) == (False, True, False)

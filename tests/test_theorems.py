import functools
import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest

import rlx.core
import rlx.dlattice
import rlx.filters
import rlx.iso
import rlx.reticulation
import rlx.spectra
import rlx.theorems
from rlx.core import (
    boolean_algebra,
    classify,
    complemented_elements,
    direct_product,
    godel_chain,
    leq_from_covers,
    upset_algebra,
    validate,
)
from rlx.dlattice import validate_bdl
from rlx.enumeration import all_algebras
from rlx.errors import NotDistributive
from rlx.filters import all_filters, principal_filter, quotient, spec
from rlx.formulas import blp_formula, ilp_formula
from rlx.io import print_filter
from rlx.spectra import stone_max, stone_spec, topology_predicates
from rlx.theorems import theorem_checks

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# SHA-256 of json.dumps([v.as_dict() for A in all_algebras(6) for v in
# theorem_checks(A)], sort_keys=True), and its row count
MATRIX_N6_SHA256 = "f58e041bc6625be08bea165aaeb3bd7164174e97d434cff023ac219380309f5f"
MATRIX_N6_ROWS = 9553

# The same digest of the rows of single algebras whose Stone spaces are
# larger than those of the corpus: 2^6 has a discrete Spec of 6 points,
# and the three products a non-discrete Spec of 6, 6 and 5 points
LARGE_MATRIX_SHA256 = {
    "2^6": "b4486f734bcdfa756d022edc42e041c8f062f09c3013c0478ac9793e87902e81",
    "E1xE1": "70da70a08ef11aa7a35a71baaa6cd71b75304f962afafdec0fc14e21bea6f633",
    "E1xE2": "ee9b9363c0b951af3e52654f3067580c2ca1f9a122b3af2eda6f27cf33ce6a9d",
    "E2xG3": "ad4e15e0e4569a06049fc6faa4a2c484b3cbdf6349658252faa84541d01ce683",
}


def test_corpus_size_5_zero_disagreements(corpus5):
    for A in corpus5:
        bad = [v for v in theorem_checks(A) if not v.agree]
        assert not bad, (A, bad)


def test_fixtures_zero_disagreements(E1, E2):
    for A in (E1, E2):
        assert all(v.agree for v in theorem_checks(A))


def test_size_6_sample_zero_disagreements(corpus6):
    # deterministic sample: every fourth algebra in canonical order
    sample = corpus6[::4]
    assert len(sample) >= 30
    for A in sample:
        assert all(v.agree for v in theorem_checks(A))


def test_size_6_matrix_pinned(corpus6):
    """The size-6 theorem matrix, row for row, is the one recorded at
    commit f6da3af, before the cached lifting verdicts, the cached algebra
    hash and the bitmask order kernels."""
    rows = [v.as_dict() for A in corpus6 for v in theorem_checks(A)]
    assert len(rows) == MATRIX_N6_ROWS
    text = json.dumps(rows, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == MATRIX_N6_SHA256


def test_large_algebra_matrices_pinned(E1, E2):
    """The rows of 2^6 and of three products of the fixtures are the ones
    recorded before the topological predicates were read off least open
    neighbourhoods."""
    algebras = {
        "2^6": boolean_algebra(6),
        "E1xE1": direct_product(E1, E1),
        "E1xE2": direct_product(E1, E2),
        "E2xG3": direct_product(E2, godel_chain(3)),
    }
    for name, A in algebras.items():
        rows = [v.as_dict() for v in theorem_checks(A)]
        text = json.dumps(rows, sort_keys=True)
        assert (hashlib.sha256(text.encode()).hexdigest()
                == LARGE_MATRIX_SHA256[name]), name


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
    assert local_factor_decomposition(boolean_algebra(3)) == (True, True,
                                                              (2, 2, 2))
    # both factors local, the 3-chain not Boolean
    P = direct_product(godel_chain(3), boolean_algebra(1))
    assert local_factor_decomposition(P) == (True, True, (2, 3))


def test_local_factor_decomposition_matches_the_isomorphism_search(corpus5,
                                                                   corpus6):
    """The map's verdict against the reference search: some isomorphism
    from A onto the product of the factors [¬e) over the Boolean atoms."""
    from rlx.theorems import local_factor_decomposition
    from oracles import rl_isomorphism

    for A in corpus5 + corpus6:
        nonbot = [e for e in classify(A).boolean_center if e != A.bot]
        atoms = sorted(e for e in nonbot
                       if not any(f != e and A.leq[f][e] for f in nonbot))
        factors = [upset_algebra(A, A.neg(e)) for e in atoms]
        is_prod, _locals_ok, sizes = local_factor_decomposition(A)
        assert is_prod is True
        assert sizes == tuple(X.size for X in factors)
        if factors:  # the trivial algebra has none
            prod = functools.reduce(direct_product, factors)
            assert is_prod == (rl_isomorphism(A, prod) is not None)


def test_one_factor_shortcut_matches_the_full_scan():
    """When the top is the only Boolean atom the decomposition answers
    without its product scan; on every algebra of sizes 1..7 and every
    fixture the answer is the full scan's.  Sizes 1..7 hold 889 algebras:
    885 take the shortcut, the trivial algebra and three decomposable
    ones (of sizes 4, 6 and 6) do not."""
    from rlx.io import load_rlat
    from rlx.theorems import local_factor_decomposition
    from oracles import scanned_factor_decomposition

    corpus = [A for n in range(1, 8) for A in all_algebras(n)]
    fixtures = [load_rlat(path) for path in sorted(FIXTURES.glob("*.rlat"))]
    assert len(corpus) == 889 and len(fixtures) == 6
    for A in corpus + fixtures:
        assert local_factor_decomposition(A) == \
            scanned_factor_decomposition(A), A.labels
    others = [A.size for A in corpus
              if local_factor_decomposition(A)[2] != (A.size,)]
    assert others == [1, 4, 6, 6]


def test_local_factor_decomposition_runs_once_per_algebra(cold_caches):
    """Two row families read the decomposition; it is built once."""
    from rlx.theorems import local_factor_decomposition

    A = direct_product(godel_chain(3), boolean_algebra(1))
    before = local_factor_decomposition.cache_info()
    theorem_checks(A)
    after = local_factor_decomposition.cache_info()
    assert after.misses - before.misses == 1
    assert after.hits - before.hits == 1


def test_matrix_derives_each_space_and_lattice_once(cold_caches, corpus5,
                                                   monkeypatch):
    """Work ratchet: the matrix computes the topological predicates once per
    topology, though spaces of different algebras share one; it scans each
    lattice table for (co)normality at most once, and it runs no product
    scan of the decomposition on an algebra of prime size; and it scans
    each lattice order for distributivity once."""
    scans, upsets = [], []
    split_witness = rlx.dlattice._split_witness

    def counted_split_witness(els, join, meet, top, bot):
        scans.append((join, meet, top, bot))
        return split_witness(els, join, meet, top, bot)

    def counted_upset_algebra(A, e):
        upsets.append(A)
        return upset_algebra(A, e)

    monkeypatch.setattr(rlx.dlattice, "_split_witness", counted_split_witness)
    monkeypatch.setattr(rlx.theorems, "upset_algebra", counted_upset_algebra)
    sample = [A for A in corpus5 if A.size == 5]
    memo = rlx.spectra._topology_predicates
    before = memo.cache_info()
    for A in sample:
        theorem_checks(A)
    after = memo.cache_info()
    spaces = {S for A in sample for S in (stone_spec(A), stone_max(A))}
    topologies = {(S.kind, len(S.points), S.opens) for S in spaces}
    assert after.misses - before.misses == len(topologies) < len(spaces)
    assert scans and len(scans) == len(set(scans))
    assert upsets == []  # 5 is prime: every sample algebra is indecomposable
    preds = topology_predicates(stone_spec(sample[-1]))
    with pytest.raises(TypeError):
        preds["t0"] = False

    A = sample[-1]
    L = validate_bdl(A.labels, A.leq)
    scanned = rlx.core.distributivity_witness.cache_info().misses
    again = validate_bdl(list(A.labels), [list(row) for row in A.leq])
    assert again == L and again.meet is L.meet
    assert rlx.core.distributivity_witness.cache_info().misses == scanned
    pentagon = leq_from_covers(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])
    for _ in range(2):
        with pytest.raises(NotDistributive):
            validate_bdl(["0", "d", "c", "b", "1"], pentagon)


def test_lattice_lifting_bug_is_a_disagreeing_row(corpus4, monkeypatch):
    """A lattice side that lifts only bot and top shows up as a disagreeing
    reticulation-blp-transfer row, not as an exception.  The matrix decides
    the lattice side once per filter signature, so that memo is emptied
    once the fault is in and again when the test ends."""
    def lattice_blp_filter(L, F):
        Q = quotient(L, F)
        lifted = {Q.class_of[L.bot], Q.class_of[L.top]}
        return complemented_elements(Q.quotient) <= lifted

    monkeypatch.setattr(rlx.reticulation, "lattice_blp_filter",
                        lattice_blp_filter)
    A = next(A for A in corpus4 if A.size == 4)
    rlx.theorems._filter_side.cache_clear()
    try:
        rows = {v.theorem_id: v for v in theorem_checks(A)}
    finally:
        rlx.theorems._filter_side.cache_clear()
    row = rows["reticulation-blp-transfer"]
    assert not row.agree
    assert row.witness == "{e3}"


def test_star_direct_form_bug_is_a_disagreeing_row(monkeypatch):
    """A fault in the direct form of (*) shows up as disagreeing
    star-forms rows, not as an exception: the three reformulations are
    compared with the direct verdict by the matrix alone.  The fault is a
    radical taken over the prime filters instead of the maximal ones, and
    only star_property sees it.  The matrix reads its verdict once per
    filter signature, so that memo is emptied once the fault is in and
    again when the test ends."""
    def prime_radical(B):
        e = B.bot
        for P in spec(B):
            e = B.join[e][P.gen]
        return principal_filter(B, e)

    A = godel_chain(3)
    assert rlx.spectra.star_property(A)[0]
    assert prime_radical(A) != rlx.spectra.radical(A)
    monkeypatch.setattr(rlx.spectra, "radical", prime_radical)
    rlx.theorems._filter_side.cache_clear()
    try:
        rows = {v.theorem_id: v for v in theorem_checks(A)}
    finally:
        rlx.theorems._filter_side.cache_clear()
    for form in ("nilpotent-radical", "spectral", "spectral-powers"):
        row = rows[f"star-forms.{form}"]
        assert (row.lhs, row.rhs, row.agree) == (False, True, False)


def test_monotone_lifting_reads_each_verdict_for_its_own_filter(corpus5,
                                                                 monkeypatch):
    # a stub bit reader whose verdict depends on the formula and on G: the
    # row's failures, caught from `_forall`, must be those of the loop
    # over every pair F <= G
    formulas = {blp_formula(): "blp", ilp_formula(): "ilp"}

    def verdict(A, phi, G):
        seed = f"{formulas[phi]}:{sorted(G.members)}"
        return random.Random(seed).random() < 0.6

    caught = []
    forall = rlx.theorems._forall

    def recording_forall(tid, failures):
        caught.append(list(failures))
        return forall(tid, failures)

    monkeypatch.setattr(rlx.theorems, "filter_lifts", verdict)
    monkeypatch.setattr(rlx.theorems, "_forall", recording_forall)
    kinds = set()
    for A in corpus5:
        B, idem = classify(A).boolean_center, classify(A).idempotents
        expected = []
        for F in all_filters(A):
            Q = quotient(A, F)
            classes = set(range(Q.quotient.size))
            for G in all_filters(A):
                if not F <= G:
                    continue
                if {Q.class_of[e] for e in B} == classes and not (
                        verdict(A, blp_formula(), G)
                        and verdict(A, ilp_formula(), G)):
                    expected.append(("boolean", print_filter(A, F),
                                     print_filter(A, G)))
                if ({Q.class_of[e] for e in idem} == classes
                        and not verdict(A, ilp_formula(), G)):
                    expected.append(("idempotent", print_filter(A, F),
                                     print_filter(A, G)))
        caught.clear()
        rlx.theorems.check_monotone_lifting(A)
        assert caught == [expected], A
        kinds.update(kind for kind, _, _ in expected)
    assert kinds == {"boolean", "idempotent"}


def test_matrix_checks_each_quotient_table_triple_once(cold_caches, corpus5,
                                                      monkeypatch):
    """Work ratchet: over the matrix of sizes 1..5, the congruence check
    runs once per nontrivial quotient build, once per table pair; `validate`
    runs once per distinct quotient table triple, well under once per
    quotient, once per lattice order, well under once per lattice (the
    reticulation and the filter lattice of each filter signature: 37
    inputs have 21 signatures), and once per factor of a decomposition;
    the reticulation, Spec and Max are built once per table pair: the
    quotients' table pairs are among the inputs'; and their identities
    that read only the signature run once per signature and kind."""
    calls = {"validate": 0, "congruence": [], "tables": 0, "upsets": 0,
             "lattices": 0, "stone": 0, "lam": 0}
    validate_ = rlx.core.validate
    congruence = rlx.filters._check_congruence
    tables = rlx.filters._quotient_tables

    def counted_validate(*args):
        calls["validate"] += 1
        return validate_(*args)

    def counted_congruence(A, class_of, reps):
        calls["congruence"].append((A, class_of))
        return congruence(A, class_of, reps)

    def counted_tables(*args):
        calls["tables"] += 1
        return tables(*args)

    def counted_upset_algebra(A, e):
        calls["upsets"] += 1
        return upset_algebra(A, e)

    def counted_validate_bdl(labels, leq):
        calls["lattices"] += 1
        return validate_bdl(labels, leq)

    for module in (rlx.core, rlx.filters, rlx.dlattice, rlx.iso):
        monkeypatch.setattr(module, "validate", counted_validate)
    monkeypatch.setattr(rlx.filters, "_check_congruence", counted_congruence)
    monkeypatch.setattr(rlx.filters, "_quotient_tables", counted_tables)
    monkeypatch.setattr(rlx.theorems, "upset_algebra", counted_upset_algebra)
    for module in (rlx.dlattice, rlx.reticulation):
        monkeypatch.setattr(module, "validate_bdl", counted_validate_bdl)
    stone = rlx.spectra._assert_stone_identities
    axioms = rlx.reticulation._assert_axioms

    def counted_stone(*args):
        calls["stone"] += 1
        return stone(*args)

    def counted_axioms(*args):
        calls["lam"] += 1
        return axioms(*args)

    monkeypatch.setattr(rlx.spectra, "_assert_stone_identities", counted_stone)
    monkeypatch.setattr(rlx.reticulation, "_assert_axioms", counted_axioms)
    sample = corpus5
    for A in sample:
        theorem_checks(A)
    builds = calls["congruence"]
    assert len(builds) == len(set(builds)) == calls["tables"] == 75
    triples = tables.cache_info().misses
    assert 2 * triples < len(builds)
    assert calls["lattices"] == 42
    assert calls["stone"] == 42 and calls["lam"] == 21
    orders = rlx.dlattice._heyting_algebra.cache_info().misses
    assert 4 * orders < calls["lattices"]
    assert calls["validate"] == triples + orders + calls["upsets"]
    assert (rlx.reticulation.build_reticulation.cache_info().misses
            == len(sample))
    assert rlx.spectra._build.cache_info().misses == 2 * len(sample)

import pytest

from rlx.core import (
    boolean_algebra,
    classify,
    complemented_elements,
    distributivity_witness,
    leq_from_covers,
)
from rlx.dlattice import (
    _lattice_blp_failures,
    _split_witness,
    is_conormal_lattice,
    is_normal_lattice,
    lattice_blp,
    lattice_blp_filter,
    conormal_radical_lifting,
    validate_bdl,
)
from rlx.errors import NotConormal, NotDistributive
from rlx.filters import Filter, all_filters, max_spec, quotient, radical, spec
from rlx.io import load_rlat
from rlx.reticulation import build_reticulation
from rlx.spectra import filter_lattice

from conftest import FIXTURES
from oracles import (
    dense_radical,
    distributive_lattices,
    lattice_is_filter,
    pair_split_witness,
    per_filter_lattice_blp,
)


def chain(n):
    return validate_bdl([str(i) for i in range(n)],
                        tuple(tuple(i <= j for j in range(n))
                              for i in range(n)))


def lozenge():
    leq = leq_from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    return validate_bdl(["0", "x", "y", "1"], leq)


def test_validate_lozenge():
    L = lozenge()
    assert L.size == 4 and L.bot == 0 and L.top == 3
    assert L.odot == L.meet  # the Heyting algebra on the lattice


def test_diamond_not_distributive():
    leq = leq_from_covers(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
    with pytest.raises(NotDistributive) as err:
        validate_bdl(["0", "p", "q", "r", "1"], leq)
    assert err.value.witness


def test_pentagon_not_distributive():
    leq = leq_from_covers(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])
    with pytest.raises(NotDistributive):
        validate_bdl(["0", "d", "c", "b", "1"], leq)


def test_distributivity_is_scanned_once_per_order(cold_caches):
    """Two labelings of one order make one scan, and so does a failing
    order met three times: its witness is stored, but no algebra is, so
    NotDistributive is raised on every call."""
    leq = leq_from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    for labels in (["0", "x", "y", "1"], ["o", "a", "b", "i"]):
        assert validate_bdl(labels, leq).labels == tuple(labels)
    assert distributivity_witness.cache_info().misses == 1
    pentagon = leq_from_covers(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])
    witnesses = []
    for labels in (["0", "d", "c", "b", "1"], ["0", "d", "c", "b", "1"],
                   ["o", "p", "q", "r", "i"]):
        with pytest.raises(NotDistributive) as err:
            validate_bdl(labels, pentagon)
        witnesses.append(err.value.witness)
    assert distributivity_witness.cache_info().misses == 2
    assert witnesses[0] and witnesses.count(witnesses[0]) == 3


def test_underlying_lattice(E1, E2):
    L = validate_bdl(E1.labels, E1.leq)
    assert L.size == 5
    with pytest.raises(NotDistributive):
        validate_bdl(E2.labels, E2.leq)  # pentagon inside


def test_lattice_filters_are_all_upsets():
    L = lozenge()
    fams = {F.members for F in all_filters(L)}
    assert fams == {
        frozenset({3}), frozenset({1, 3}), frozenset({2, 3}),
        frozenset({0, 1, 2, 3}),
    }
    for F in fams:
        assert lattice_is_filter(L, F)


def test_lattice_quotient_golden():
    L3 = chain(3)
    Q = quotient(L3, Filter(L3, frozenset({1, 2})))
    assert Q.quotient.size == 2
    assert Q.class_of[1] == Q.class_of[2] != Q.class_of[0]

    L = lozenge()
    Q = quotient(L, Filter(L, frozenset({1, 3})))  # [x)
    assert Q.quotient.size == 2
    assert Q.class_of[0] == Q.class_of[2]  # y & x = 0 = 0 & x
    assert Q.class_of[1] == Q.class_of[3]


def test_lattice_quotient_by_trivial():
    L = lozenge()
    Q = quotient(L, Filter(L, frozenset({L.top})))
    assert Q.quotient.size == L.size


def test_lattice_blp_boolean_and_chain():
    _, global_loz = lattice_blp(lozenge())
    assert global_loz
    _, global_chain = lattice_blp(chain(3))
    assert global_chain


def test_lattice_blp_of_pentagon_reticulation_fails(E1):
    # the reticulation of the Godel pentagon inherits its lifting failure
    R = build_reticulation(E1)
    per, global_holds = lattice_blp(R.lattice)
    assert not global_holds
    failing = [F for F, ok in per.items() if not ok]
    assert len(failing) == 1


def test_normal_conormal_basic():
    for L in (lozenge(), chain(2), chain(4)):
        assert is_normal_lattice(L)
        assert is_conormal_lattice(L)


def test_split_witness_matches_the_pair_scan():
    """The least-cover split gives the pair scan's first failing pair, or
    None, on every distributive lattice of at most 7 elements, for
    normality and for conormality."""
    failures = 0
    for n in range(1, 8):
        for L in distributive_lattices(n):
            for args in ((L.join, L.meet, L.top, L.bot),
                         (L.meet, L.join, L.bot, L.top)):
                witness = pair_split_witness(L.elements(), *args)
                assert _split_witness(L.elements(), *args) == witness, L
                failures += witness is not None
    assert failures == 10


def test_conormal_fails_on_pentagon_reticulation(E1, E2):
    for A in (E1, E2):
        L = build_reticulation(A).lattice
        assert not is_conormal_lattice(L)


def test_lattice_radical_golden():
    B = boolean_algebra(3)
    B8 = validate_bdl(B.labels, B.leq)
    for L, members in ((chain(3), {1, 2}), (lozenge(), {3}), (B8, {B8.top})):
        assert radical(L).members == frozenset(members)
        assert dense_radical(L) == frozenset(members)


def test_conormal_radical_lifting_golden(E1):
    assert conormal_radical_lifting(chain(3))
    assert conormal_radical_lifting(lozenge())
    with pytest.raises(NotConormal):
        conormal_radical_lifting(build_reticulation(E1).lattice)


def test_boolean_center_of_lattices():
    assert complemented_elements(chain(3)) == frozenset({0, 2})
    assert complemented_elements(lozenge()) == frozenset({0, 1, 2, 3})


def test_enumerated_bdlattices_radical_lifting():
    total = 0
    for n in range(1, 7):
        for L in distributive_lattices(n):
            total += 1
            assert radical(L).members == dense_radical(L)
            if is_conormal_lattice(L):
                assert conormal_radical_lifting(L)
    assert total > 10


def test_distributive_lattice_counts(corpus5, corpus6):
    # the known number of distributive lattices of each size n = 1..6; the
    # Heyting algebra of each is the Goedel algebra it was read from
    corpus = corpus5 + corpus6
    counts = []
    for n in range(1, 7):
        godel = [A for A in corpus if A.size == n and classify(A).is_godel]
        assert distributive_lattices(n) == godel
        counts.append(len(godel))
    assert tuple(counts) == (1, 1, 1, 2, 3, 5)


def test_prime_and_max_filters_of_lattice():
    L = lozenge()
    primes = {P.members for P in spec(L)}
    assert primes == {frozenset({1, 3}), frozenset({2, 3})}
    assert {M.members for M in max_spec(L)} == primes


def test_lattice_blp_mask_matches_the_per_filter_quotients(corpus5, corpus6):
    """Each filter's bit of the lattice's mask is the verdict of its own
    quotient, B(L/F) inside B(L)/F, on every reticulation and filter
    lattice of the algebras of sizes 1..6, the fixtures and 2^6, and the
    mask sets exactly the failing filters."""
    algebras = [*corpus5, *corpus6, boolean_algebra(6),
                *(load_rlat(path) for path in sorted(FIXTURES.glob("*.rlat")))]
    lattices = {L: None for A in algebras
                for L in (build_reticulation(A).lattice, filter_lattice(A))}
    verdicts = set()
    for L in lattices:
        expected = {F: per_filter_lattice_blp(L, F) for F in all_filters(L)}
        assert {F: lattice_blp_filter(L, F) for F in expected} == expected
        assert lattice_blp(L) == (expected, all(expected.values()))
        assert _lattice_blp_failures(L) == sum(
            1 << F.gen for F, lifts in expected.items() if not lifts)
        verdicts.update(expected.values())
    assert verdicts == {False, True}

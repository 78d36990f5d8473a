import hashlib

import pytest
from hypothesis import given, settings, strategies as st

import rlx.enumeration
from rlx.core import bounds_of, classify, validate
from rlx.enumeration import (
    KNOWN_COUNTS,
    SIZE_CAP,
    _generate,
    _lattice_orders,
    _products_on_lattice,
    all_algebras,
)
from rlx.errors import AxiomViolation, CorpusCountMismatch, SizeCapExceeded
from rlx.iso import (
    _order_minimizers,
    canonicalize,
    permute_relation,
    permute_table,
    table_key,
)

from constructors import boolean_algebra
from oracles import (
    _invariants,
    brute_canonical_key,
    brute_invariant,
    brute_relabeling,
    brute_table_ok,
    canonical_key,
    first_labelings,
    lattice_orders,
    orbit_counts,
    order_minimizers,
    products_on_lattice,
    rl_isomorphic,
    slow_enumerate,
)

# SHA-256 of repr([(A.labels, A.leq, A.odot) for A in all_algebras(n)])
# for n = 1..6, recorded at commit 622935e, before the unit-law prune and
# the order-minimizer canonical key; n = 7 recorded at commit a49302e,
# before the search pruned the partial irreducible table.
GENERATOR_DIGESTS = {
    1: "1e22d4f16c07e33b46cd876e29ce0303860fda9e947647f621fb00391ba6c2e5",
    2: "2fb1ffdaac1871a56b2abffe333c8d11fcd7310a91f4e2be7fc89a796469b799",
    3: "d2550c53ffa180d7f6ded678dcb511f2d479c1c12fc22fbab14c24b2cf55d6cd",
    4: "2f9687fb3ae005636eb64de0a58e8aea1be4ea89b1799a38d79d31ef5998204a",
    5: "e5c7945c19b7f970e591bc7f064f9808724b277873cf4f529b48cab04a695664",
    6: "60f693ab96367e3370cf98c19c7b1c09159c6711a33ba52106da578d801e952e",
    7: "912222328f0ffc3f94e9fdbd395700fe43ca5745b66088586f297e441d6e6c47",
}
# The same SHA-256 for the algebras of _generate(8), beyond SIZE_CAP,
# recorded at commit 1d829cd, before the search ran once per lattice.
GENERATOR_DIGEST_8 = \
    "d3c8af7f0e952a49d9fd9795b7b11cfb91c39cf0a1c9fba9aa5080c8c3ff0255"
# number of lattices of each size 1..SIZE_CAP (OEIS A006966)
LATTICE_COUNTS = (1, 1, 1, 2, 5, 15, 53)


def test_size_one_single_trivial():
    algs = all_algebras(1)
    assert len(algs) == 1
    assert algs[0].size == 1


def test_size_two_forced_tables():
    algs = all_algebras(2)
    assert len(algs) == 1
    assert rl_isomorphic(algs[0], boolean_algebra(1))


def test_size_three_two_chains():
    algs = all_algebras(3)
    assert len(algs) == 2
    assert all(classify(A).is_chain for A in algs)


def test_known_counts():
    assert [len(all_algebras(n)) for n in range(1, 7)] == [1, 1, 2, 7, 26, 129]


@pytest.mark.parametrize("n", sorted(GENERATOR_DIGESTS))
def test_generator_output_pinned(n):
    """The generator's exact output (representatives, labelings, order) is
    the one recorded before the prunes and the order-minimizer canonical
    key (see GENERATOR_DIGESTS)."""
    algs = all_algebras(n)
    text = repr([(A.labels, A.leq, A.odot) for A in algs])
    assert hashlib.sha256(text.encode()).hexdigest() == GENERATOR_DIGESTS[n]


def test_generator_output_pinned_at_size_8():
    """``_generate(8)`` finds the 4,712 algebras of size 8, the same
    representatives in the same order as when every labeled order was
    searched."""
    algs = [A for _, A in _generate(8)]
    assert len(algs) == 4712
    text = repr([(A.labels, A.leq, A.odot) for A in algs])
    assert hashlib.sha256(text.encode()).hexdigest() == GENERATOR_DIGEST_8


def test_search_runs_once_per_lattice_and_validate_once_per_class(monkeypatch):
    searched, validated = [], []
    search = rlx.enumeration._products_on_lattice
    validate_ = rlx.enumeration.validate

    def counting_search(leq, join, meet):
        searched[-1] += 1
        return search(leq, join, meet)

    def counting_validate(labels, leq, odot):
        validated[-1] += 1
        return validate_(labels, leq, odot)

    monkeypatch.setattr(rlx.enumeration, "_products_on_lattice", counting_search)
    monkeypatch.setattr(rlx.enumeration, "validate", counting_validate)
    for n in range(1, SIZE_CAP + 1):
        searched.append(0)
        validated.append(0)
        all_algebras(n)
    assert tuple(searched) == LATTICE_COUNTS
    assert tuple(validated) == KNOWN_COUNTS


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_product_search_matches_unpruned_search(n):
    """The pruned search returns the plain backtracking's tables, in its
    order, on every lattice order."""
    for leq, join, meet in lattice_orders(n):
        assert _products_on_lattice(leq, join, meet) == \
            products_on_lattice(leq, join, meet)


def test_product_search_is_exact():
    """Every table the search returns, on every lattice order up to size 7,
    is a residuated product, and these are all the tables that reach
    ``validate``."""
    totals = []
    for n in range(1, SIZE_CAP + 1):
        count = 0
        for leq, join, meet in lattice_orders(n):
            top = bounds_of(leq)[1]
            for table in _products_on_lattice(leq, join, meet):
                assert brute_table_ok(leq, join, meet, table, top)
                count += 1
        totals.append(count)
    assert totals == [1, 1, 2, 7, 27, 158, 1034]


@pytest.mark.parametrize("n", range(1, 9))
def test_lattice_orders_are_the_first_labelings(n):
    """The orderly generator yields the first labeling of each lattice among
    all labelings, and nothing else, in the same order."""
    orders = list(_lattice_orders(n))
    assert orders == list(first_labelings(n))
    assert len(orders) == (LATTICE_COUNTS + (222,))[n - 1]


def test_order_minimizers_match_the_full_scan():
    """Same least encoding and the same (perm, inverse) pairs, in the same
    order, on every labeled lattice order up to size 7, also relabeled so
    that bot and top move, and on the least labelings at size 8."""
    cases = []
    for n in range(1, 8):
        for leq, _join, _meet in lattice_orders(n):
            cases.append((leq, 0, n - 1))
            if n <= 6:
                reverse = tuple(reversed(range(n)))
                cases.append((permute_relation(leq, reverse), n - 1, 0))
    cases += [(leq, 0, 7) for leq, _join, _meet in _lattice_orders(8)]
    for leq, bot, top in cases:
        assert _order_minimizers(leq, bot, top) == \
            order_minimizers(leq, bot, top)


def test_orbit_count_matches_the_corpus():
    """Burnside's count of the classes on each lattice equals the number of
    canonical keys among the products the search finds on it, and the
    totals are the known counts, 4,712 at size 8 included."""
    totals = []
    for n in range(1, 9):
        total = 0
        for leq, products, classes in orbit_counts(n):
            keys = {table_key(leq, odot, 0, n - 1)[0] for odot in products}
            assert len(keys) == classes
            total += classes
        totals.append(total)
    assert tuple(totals) == KNOWN_COUNTS + (4712,)


def test_search_fault_is_loud(monkeypatch):
    """A table the search should not have returned stops the enumeration.
    The meet is not residuated on the two non-distributive 5-element
    lattices."""
    monkeypatch.setattr(rlx.enumeration, "_products_on_lattice",
                        lambda leq, join, meet: [meet])
    with pytest.raises(AxiomViolation):
        all_algebras(5)


def test_wrong_count_raises(monkeypatch):
    monkeypatch.setattr(rlx.enumeration, "_generate", lambda n: _generate(n)[1:])
    with pytest.raises(CorpusCountMismatch):
        all_algebras(4)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_slow_oracle_agrees(n):
    fast = {canonical_key(A) for A in all_algebras(n)}
    slow = {canonical_key(A) for A in slow_enumerate(n)}
    assert fast == slow


def test_cap_enforced():
    with pytest.raises(SizeCapExceeded):
        all_algebras(SIZE_CAP + 1)
    with pytest.raises(SizeCapExceeded):
        all_algebras(0)


def test_deterministic_order():
    a = [canonical_key(A) for A in all_algebras(4)]
    b = [canonical_key(A) for A in all_algebras(4)]
    assert a == b == sorted(a)


def test_canonicalization_idempotent(corpus4):
    for A in corpus4:
        C = canonicalize(A)
        assert canonicalize(C) == C
        assert canonical_key(C) == canonical_key(A)


def test_canonical_key_is_isomorphism_invariant(E1):
    from rlx.iso import permute_relation, permute_table
    from rlx.core import validate

    perm = (0, 2, 1, 3, 4)  # swap the two atoms
    leq = permute_relation(E1.leq, perm)
    odot = permute_table(E1.odot, perm)
    B = validate(tuple(E1.labels[i] for i in range(5)), leq, odot)
    assert canonical_key(B) == canonical_key(E1)
    assert rl_isomorphic(B, E1)


def test_enumerated_algebras_are_valid(corpus5):
    from rlx.core import validate

    for A in corpus5:
        assert validate(A.labels, A.leq, A.odot, A.imp) == A


def test_invariants_match_per_element_scans(corpus5, corpus6):
    for A in corpus5 + corpus6:
        tables = (A.join, A.meet, A.odot, A.imp)
        assert _invariants(A.leq, tables) == [
            brute_invariant(A.leq, tables, x) for x in A.elements()]


def _same_tables(A, leq, odot):
    return A.leq == leq and A.odot == odot


def test_canonical_key_matches_brute_force(corpus5, corpus6):
    for A in corpus5 + corpus6:
        key, perm = brute_relabeling(A)
        assert canonical_key(A) == key
        C = canonicalize(A)
        assert _same_tables(C, permute_relation(A.leq, perm),
                            permute_table(A.odot, perm))


def _relabeled(A, perm):
    labels = tuple(f"x{i}" for i in range(A.size))
    return validate(labels, permute_relation(A.leq, perm), permute_table(A.odot, perm))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_canonical_key_of_random_relabeling(corpus5, data):
    A = data.draw(st.sampled_from(corpus5))
    # the key is invariant under relabelings that fix bot and top
    mids = [x for x in A.elements() if x not in (A.bot, A.top)]
    perm = list(range(A.size))
    for src, dst in zip(mids, data.draw(st.permutations(mids))):
        perm[src] = dst
    B = _relabeled(A, perm)
    assert canonical_key(B) == brute_canonical_key(B) == canonical_key(A)
    assert canonicalize(B) == canonicalize(A)
    # and agrees with brute force under any relabeling
    D = _relabeled(A, data.draw(st.permutations(range(A.size))))
    key, best = brute_relabeling(D)
    assert canonical_key(D) == key
    assert _same_tables(canonicalize(D), permute_relation(D.leq, best),
                        permute_table(D.odot, best))

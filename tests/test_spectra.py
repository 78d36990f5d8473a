import itertools
import random
from pathlib import Path

import pytest

from rlx.core import classify
from rlx.filters import all_filters, max_spec, radical, spec
from rlx.io import load_rlat
from rlx.lifting import has_blp
from rlx.report import analysis_report
from rlx.spectra import (
    _topology_predicates,
    clopen_sets,
    clopen_via_boolean,
    filter_lattice,
    gelfand_conditions,
    gelfand_counterexample,
    is_gelfand,
    star_property,
    star_star_property,
    stone_max,
    stone_spec,
    topology_predicates,
)

from constructors import (
    boolean_algebra,
    direct_product,
    godel_chain,
    lukasiewicz_chain,
    ordinal_sum,
)
from oracles import (
    NotGelfand,
    brute_gelfand_form_2,
    fixed_point_filter,
    gelfand_retract,
    is_filter_subset,
    labeled_filter_lattice,
    members,
    min_generator,
    opens_topology_predicates,
    partial_orders,
)
from test_invariance import permuted

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_stone_spec_two_element():
    B2 = boolean_algebra(1)
    sp = stone_spec(B2)
    assert len(sp.points) == 1
    assert set(sp.opens) == {0, 1}


def test_stone_spec_pentagon_godel(E1):
    sp = stone_spec(E1)
    assert len(sp.points) == 3
    # opens: empty, {[a)}, {[b)}, {[a),[b)}, everything -- as masks over
    # point order ({1}, [a), [b))
    assert len(sp.opens) == 5
    mx = stone_max(E1)
    assert len(mx.points) == 2
    assert set(mx.opens) == {0, 1, 2, 3}  # discrete


def test_stone_spaces_on_corpus_build_with_identities(corpus5):
    for A in corpus5:
        stone_spec(A)
        stone_max(A)  # identity assertions run inside


def test_basis_generates_opens(corpus4):
    for A in corpus4:
        for space in (stone_spec(A), stone_max(A)):
            basis = {space.d(a) for a in A.elements()}
            for U in space.opens:
                acc = 0
                for Bm in basis:
                    if Bm & ~U == 0:
                        acc |= Bm
                assert acc == U


def test_clopen_families(E1):
    sp = stone_spec(E1)
    assert set(clopen_sets(sp)) == {0, sp.full}
    assert set(clopen_via_boolean(E1, "spec")) == {0, sp.full}
    mx = stone_max(E1)
    assert set(clopen_sets(mx)) == {0, 1, 2, 3}


def test_clopen_via_boolean_matches_on_spec(corpus5):
    for A in corpus5:
        sp = stone_spec(A)
        assert set(clopen_sets(sp)) == set(clopen_via_boolean(A, "spec"))


def test_clopen_via_boolean_on_max_under_hypotheses(corpus5):
    for A in corpus5:
        semisimple = members(A, radical(A)) == {A.top}
        if is_gelfand(A) or semisimple:
            mx = stone_max(A)
            assert set(clopen_sets(mx)) == set(clopen_via_boolean(A, "max"))


def test_topology_predicates_golden(E1):
    sp = topology_predicates(stone_spec(E1))
    assert sp["t0"] and sp["compact"]
    assert not sp["strongly_zero_dim"]  # Boolean lifting fails
    mx = topology_predicates(stone_max(E1))
    assert mx["t1"] and mx["boolean_space"]


def _outcome(predicates, kind, n, opens):
    """The predicates as a dict, or AssertionError if an assert fails."""
    try:
        return dict(predicates(kind, n, opens))
    except AssertionError:
        return AssertionError


def test_topology_predicates_match_the_opens_scan_on_small_posets():
    """A finite T0 topology is the up-sets of its specialization order.
    On that of every labeled partial order of at most 5 points, the
    closed forms give the predicates of the opens scan, for either kind,
    and their asserts fail on the same spaces.  The oracle's asserts are
    rewritten by pytest, so they fail under python -O too, where the
    library's are stripped; a space they reject is then not compared,
    as in a plain run."""
    outcomes = []
    for n in range(6):
        for leq in partial_orders(n):
            opens = tuple(U for U in range(1 << n) if all(
                U >> y & 1 for x in range(n) if U >> x & 1
                for y in range(n) if leq[x][y]))
            for kind in ("spec", "max"):
                want = _outcome(opens_topology_predicates, kind, n, opens)
                got = _outcome(_topology_predicates.__wrapped__,
                               kind, n, opens)
                if want is AssertionError and not __debug__:
                    got = want
                assert got == want, (kind, leq)
                outcomes.append(want is AssertionError)
    assert len(outcomes) == 2 * 4474 and any(outcomes)


def test_spec_always_t0_max_always_t1(corpus5):
    for A in corpus5:
        assert topology_predicates(stone_spec(A))["t0"]
        assert topology_predicates(stone_max(A))["t1"]


def test_gelfand_golden(E1, E2):
    assert not is_gelfand(E1)
    assert not is_gelfand(E2)
    assert is_gelfand(boolean_algebra(2))
    for n in (2, 3, 4):
        assert is_gelfand(godel_chain(n))
        assert is_gelfand(lukasiewicz_chain(n))


def test_gelfand_conditions_agree(corpus5, E1, E2):
    for A in list(corpus5) + [E1, E2]:
        conds = gelfand_conditions(A)
        assert len(set(conds.values())) == 1
        # form (2) is read off the generators; the oracle scans every
        # (u, v) for every (x, y)
        assert conds[2] == brute_gelfand_form_2(A)


def test_gelfand_retract_chain():
    A = godel_chain(4)
    rho = gelfand_retract(A)
    # local algebra: constant map onto the unique maximal point
    assert len(set(rho)) == 1


def test_gelfand_retract_product_of_chains():
    A = direct_product(godel_chain(3), godel_chain(2))
    rho = gelfand_retract(A)
    assert len(set(rho)) == len(max_spec(A)) == 2


def test_gelfand_retract_refuses(E1):
    with pytest.raises(NotGelfand):
        gelfand_retract(E1)


def test_ordinal_sum_never_gelfand_over_nonlocal_base():
    R = direct_product(boolean_algebra(1), boolean_algebra(1))
    A = ordinal_sum(R, godel_chain(2))
    assert not is_gelfand(A)
    assert not has_blp(A)


def test_star_properties_golden(E1, E2):
    assert star_property(E1) == (False, star_property(E1)[1])
    assert not star_property(E1)[0]
    assert not star_star_property(E1)[0]
    assert not star_property(E2)[0]
    b = boolean_algebra(1)
    holds, witnesses = star_property(b)
    assert holds and len(witnesses) == b.size
    assert star_star_property(b)[0]


def test_star_chain_on_corpus(corpus5):
    for A in corpus5:
        star, _ = star_property(A)
        starstar, _ = star_star_property(A)
        blp = has_blp(A)
        if star:
            assert blp
        if blp:
            assert starstar


def test_star_witnesses_verify(corpus4):
    for A in corpus4:
        holds, witnesses = star_property(A)
        if not holds:
            continue
        rad = radical(A)
        B = classify(A).boolean_center
        for x, (u, e) in witnesses.items():
            assert u in members(A, rad) and e in B
            assert fixed_point_filter(A, (u, e)) == \
                fixed_point_filter(A, (x,))


def test_filter_lattice_is_the_labeled_one_on_index_labels(corpus5, corpus6):
    """Gelfand form (1) reads the lattice of the filter order with index
    labels; on every algebra of size <= 6 and of the fixtures its tables
    are those of the lattice labeled by the filters that it replaced."""
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    for A in [*corpus5, *corpus6,
              *map(load_rlat, sorted(fixtures.glob("*.rlat")))]:
        L, M = filter_lattice(A), labeled_filter_lattice(A)
        assert L.labels == tuple(map(str, range(M.size)))
        assert ((L.leq, L.join, L.meet, L.odot, L.imp, L.bot, L.top)
                == (M.leq, M.join, M.meet, M.odot, M.imp, M.bot, M.top))


def _scanned_filters(A):
    """The filters of A as member sets, found by the is_filter_subset
    scan of every subset, keyed by their least member."""
    found = {}
    for r in range(1, A.size + 1):
        for combo in itertools.combinations(A.elements(), r):
            s = frozenset(combo)
            if is_filter_subset(A, s):
                found[min_generator(A, s)] = s
    return found


def test_filter_inclusion_is_read_off_the_order(corpus5):
    """A filter is an element id, so `F <= G` on two of them compares
    ids: inclusion must be read off the order.  On sizes <= 5 and on
    seeded permuted copies of them and of the fixtures, whose ids are no
    linear extension, the filter lattice's order, the Gelfand
    counterexample and the report's maximal filters above it are those
    of inclusion of the scanned member sets."""
    rng = random.Random(0)
    fixtures = [load_rlat(path) for path in sorted(FIXTURES.glob("*.rlat"))]
    algebras = [*corpus5, *(permuted(A, rng) for A in [*corpus5, *fixtures]
                            if A.size > 1)]
    witnessed = 0
    for A in algebras:
        sets = _scanned_filters(A)
        filters = all_filters(A)
        assert sorted(sets) == sorted(filters), A
        assert filter_lattice(A).leq == tuple(
            tuple(sets[F] <= sets[G] for G in filters) for F in filters), A
        above = {P: [M for M in max_spec(A) if sets[P] <= sets[M]]
                 for P in spec(A)}
        expected = next((P for P, Ms in above.items() if len(Ms) != 1), None)
        assert gelfand_counterexample(A) == expected, A
        witness = analysis_report(A, include_theorems=False)["gelfand"][
            "witness"]
        if expected is None:
            assert witness is None, A
        else:
            witnessed += 1
            assert witness["maximals_above"] == [
                "{" + ",".join(A.labels[x] for x in sorted(sets[M])) + "}"
                for M in above[expected]], A
    assert witnessed > 1

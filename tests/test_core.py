import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import rlx.core
from rlx.core import (
    _validate_lattice,
    _validate_residuated,
    boolean_algebra,
    classify,
    complemented_elements,
    derive_implication,
    direct_product,
    distributivity_witness,
    glb_table,
    godel_chain,
    leq_from_covers,
    lub_table,
    lukasiewicz_chain,
    ordinal_sum,
    trivial_algebra,
    upset_algebra,
    validate,
)
import rlx.enumeration
from rlx.enumeration import _generate
from rlx.errors import AxiomViolation, InvalidArgument, NotResiduated
from rlx.filters import all_filters, max_spec, quotient, spec
from rlx.io import load_rlat

from oracles import (
    brute_derive_implication,
    brute_glb_table,
    brute_lub_table,
    brute_validate_residuated,
    downset_residual_masks,
    lattice_orders,
    partial_orders,
    scanned_distributivity_witness,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_two_element_boolean_is_valid():
    B2 = boolean_algebra(1)
    assert B2.size == 2
    assert B2.odot == B2.meet
    assert B2.imp[1][0] == 0 and B2.imp[0][0] == 1


def test_pentagon_godel_tables_validate(E1):
    assert E1.size == 5
    # odot is the meet, top/bot at the expected ids
    assert E1.odot == E1.meet
    assert E1.labels[E1.bot] == "0" and E1.labels[E1.top] == "1"


def test_pentagon_godel_broken_imp_is_caught(E1):
    # switch a->0 from b to a: residuation must fail somewhere
    imp = [list(row) for row in E1.imp]
    imp[1][0] = 1
    with pytest.raises(AxiomViolation) as err:
        validate(E1.labels, E1.leq, E1.odot, imp)
    assert err.value.axiom in ("residuation", "implication-mismatch")
    assert err.value.witness


def test_validate_rejects_broken_order():
    leq = ((True, True), (True, True))  # antisymmetry broken
    with pytest.raises(AxiomViolation) as err:
        validate(("0", "1"), leq, ((0, 0), (0, 1)))
    assert err.value.axiom == "antisymmetry"


def test_validate_rejects_non_lattice():
    # two incomparable maximal elements: no top
    leq = leq_from_covers(3, [(0, 1), (0, 2)])
    with pytest.raises(AxiomViolation):
        validate(("0", "x", "y"), leq, ((0, 0, 0), (0, 1, 0), (0, 0, 2)))


def test_validate_rejects_non_associative():
    # chain 0 < a < b < 1 with a*a = 0, a*b = a, b*b = a:
    # (a*b)*b = a*b = a  but  a*(b*b) = a*a = 0
    n = 4
    leq = leq_from_covers(n, [(0, 1), (1, 2), (2, 3)])
    odot = [[min(i, j) for j in range(n)] for i in range(n)]
    odot[1][1] = 0
    odot[1][2] = odot[2][1] = 1
    odot[2][2] = 1
    with pytest.raises(AxiomViolation) as err:
        validate(("0", "a", "b", "1"), leq, odot)
    assert err.value.axiom == "monoid-associativity"


def test_order_kernels_match_list_scans():
    # every labeled partial order of size <= 5, non-lattices included, so
    # the None entries are covered too
    for n in range(1, 6):
        for leq in partial_orders(n):
            assert lub_table(leq) == brute_lub_table(leq)
            assert glb_table(leq) == brute_glb_table(leq)


def test_lattice_stage_facts_match_their_definitions():
    # every labeled lattice order of size <= 5, ids in any order: x is
    # join-irreducible iff it is not bot and no a, b other than x join to
    # x; (c, d) is a covering pair iff d < c and no e lies strictly between
    for n in range(1, 6):
        for leq in partial_orders(n):
            try:
                _, bot, _, join, _, irreducibles, covers, down = \
                    _validate_lattice.__wrapped__(leq)
            except AxiomViolation:
                continue
            below = [[v for v in range(n) if leq[v][c]] for c in range(n)]
            assert down == tuple(sum(1 << v for v in d) for d in below)
            assert sorted(covers) == [
                (c, d) for c in range(n) for d in below[c] if d != c
                and not any(e not in (c, d) and leq[d][e] and leq[e][c]
                            for e in range(n))]
            # along a linear extension: the pairs of d come before any
            # pair (c, d) that reads them
            assert all(k < covers.index((c, d))
                       for c, d in covers
                       for k, (e, _) in enumerate(covers) if e == d)
            assert irreducibles == tuple(
                x for x in range(n) if x != bot and all(
                    join[a][b] != x for a in below[x] for b in below[x]
                    if x not in (a, b)))


def test_residual_kernels_match_the_down_set_union():
    # every labeled partial order of size <= 5, ids in any order, with
    # drawn tables, commutative or not: the masks built along the covering
    # pairs are the unions over whole down-sets, and a residuum whose
    # lookups all hit satisfies the law, which fails after any scan
    rng = random.Random(28)
    exact_seen = scanned_seen = 0
    for n in range(1, 6):
        for leq in partial_orders(n):
            below = [[v for v in range(n) if leq[v][c]] for c in range(n)]
            down = rlx.core._row_masks(zip(*leq))
            covers = rlx.core._covering_pairs(down)
            for _ in range(3):
                odot = tuple(tuple(rng.randrange(n) for _ in range(n))
                             for _ in range(n))
                good = rlx.core._residual_masks(covers, odot)
                assert good == downset_residual_masks(below, odot)
                try:
                    imp, exact = rlx.core._residuum(good, down)
                except NotResiduated:
                    continue
                law = all(g == down[x] for masks, row in zip(good, imp)
                          for g, x in zip(masks, row))
                assert law == exact
                exact_seen += exact
                scanned_seen += not exact
    assert exact_seen and scanned_seen


def _first_non_associative(odot, ids):
    """The first (a, b, c) over `ids`, in a-b-c order, with
    (a*b)*c != a*(b*c), by the plain triple loop; None if there is none."""
    return next(((a, b, c) for a in ids for b in ids for c in ids
                 if odot[odot[a][b]][c] != odot[a][odot[b][c]]), None)


def test_half_associativity_scan_raises_the_full_scan_witness():
    # commutative tables on up to 6 elements, over every id and over a
    # drawn increasing subset of ids: the scan of c > a raises at the
    # plain loop's first failing triple, and passes where it passes
    rng = random.Random(2828)
    failing = 0
    for _ in range(3000):
        n = rng.randint(1, 6)
        odot = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(a, n):
                odot[a][b] = odot[b][a] = rng.randrange(n)
        odot = tuple(map(tuple, odot))
        for ids in (range(n), tuple(x for x in range(n) if rng.random() < .6)):
            expected = _first_non_associative(odot, ids)
            try:
                rlx.core._check_associative(odot, ids)
                witness = None
            except AxiomViolation as err:
                assert err.axiom == "monoid-associativity"
                witness = err.witness
            assert witness == expected
            failing += expected is not None
    assert failing > 1000


def _implication_or_pair(derive, leq, odot):
    """The derived table, or the (b, c) of the NotResiduated raised."""
    try:
        return derive(leq, odot)
    except NotResiduated as err:
        return err.pair


def test_distributivity_by_join_primes_matches_the_scan():
    """The join-prime test decides distributivity as the O(n^3) scan does,
    and a lattice that fails reports the scan's first triple: every
    lattice order of size <= 8, in every labeling whose ids run along a
    linear extension (3,637 orders at size 8)."""
    verdicts = set()
    for n in range(1, 9):
        for leq, _join, _meet in lattice_orders(n):
            witness = scanned_distributivity_witness(leq)
            assert distributivity_witness(leq) == witness, leq
            verdicts.add(witness is None)
    assert verdicts == {False, True}


LATTICE_ORDERS = [(leq, meet) for n in range(1, 6)
                  for leq, _join, meet in lattice_orders(n)]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_derive_implication_matches_list_scan(data):
    # a commutative table on a lattice order: the meet with a few cells
    # overwritten, so residuated tables (the meet of a distributive
    # lattice) and every kind of NotResiduated both occur
    leq, meet = data.draw(st.sampled_from(LATTICE_ORDERS))
    n = len(leq)
    odot = [list(row) for row in meet]
    for _ in range(data.draw(st.integers(0, 3))):
        a = data.draw(st.integers(0, n - 1))
        b = data.draw(st.integers(0, n - 1))
        odot[a][b] = odot[b][a] = data.draw(st.integers(0, n - 1))
    odot = tuple(tuple(row) for row in odot)
    assert (_implication_or_pair(derive_implication, leq, odot)
            == _implication_or_pair(brute_derive_implication, leq, odot))


def _stage_outcome(stage, leq, odot, imp):
    """The imp a residuated stage returns, or the axiom and witness of the
    AxiomViolation it raises."""
    try:
        return stage(leq, odot, imp)
    except AxiomViolation as err:
        return (err.axiom, err.witness)


def _library_stage(leq, odot, imp):
    """The library's residuated stage, uncached: the imp it returns, which
    hands back the odot it was given beside it."""
    checked_odot, checked_imp = _validate_residuated.__wrapped__(leq, odot, imp)
    assert checked_odot is odot
    return checked_imp


def _stages_agree(leq, odot, imp):
    """Both residuated stages on one input, the library's uncached; returns
    their common outcome."""
    fast = _stage_outcome(_library_stage, leq, odot, imp)
    assert fast == _stage_outcome(brute_validate_residuated, leq, odot, imp)
    return fast


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_residuated_stage_matches_plain_loops(data):
    # the meet of a lattice order with a few cells overwritten, some only
    # on one side of the diagonal; imp omitted, derived, derived with one
    # cell changed, or random
    leq, meet = data.draw(st.sampled_from(LATTICE_ORDERS))
    n = len(leq)
    cell = st.integers(0, n - 1)
    odot = [list(row) for row in meet]
    for _ in range(data.draw(st.integers(0, 3))):
        a, b, v = data.draw(cell), data.draw(cell), data.draw(cell)
        odot[a][b] = v
        if data.draw(st.integers(0, 3)):
            odot[b][a] = v
    odot = tuple(tuple(row) for row in odot)
    kind = data.draw(st.sampled_from(["none", "derived", "changed", "random"]))
    imp = None
    if kind in ("derived", "changed"):
        try:
            imp = [list(row) for row in brute_derive_implication(leq, odot)]
        except NotResiduated:
            kind = "random"
    if kind == "changed":
        b, c = data.draw(cell), data.draw(cell)
        imp[b][c] = (imp[b][c] + data.draw(st.integers(1, max(n - 1, 1)))) % n
    if kind == "random":
        imp = [[data.draw(cell) for _ in range(n)] for _ in range(n)]
    if imp is not None:
        imp = tuple(tuple(row) for row in imp)
    _stages_agree(leq, odot, imp)


def _with_cells(table, cells):
    rows = [list(row) for row in table]
    for (i, j), v in cells.items():
        rows[i][j] = v
    return tuple(tuple(row) for row in rows)


def _stage_cases():
    """(axiom, witness, leq, odot, imp) reaching each axiom of the stage."""
    G = godel_chain(3)
    yield ("monoid-commutativity", (0, 1), G.leq,
           _with_cells(G.odot, {(0, 1): 1}), None)
    yield ("monoid-unit", (1,), G.leq,
           _with_cells(G.odot, {(1, 2): 0, (2, 1): 0}), None)
    C4 = godel_chain(4)
    non_assoc = _with_cells(C4.odot, {(1, 1): 0, (2, 2): 1, (1, 2): 1,
                                      (2, 1): 1})
    yield "monoid-associativity", (1, 2, 2), C4.leq, non_assoc, None
    # the square 0 < 2, 3 < 1 below the chain 1 < 4 < 5, with the join
    # 1 = 2 | 3 labeled before the atoms: the law holds, and the plain
    # loop's first failing triple holds 1, which is join-reducible, ahead
    # of every failing triple of join-irreducibles
    square = leq_from_covers(6, [(0, 2), (0, 3), (2, 1), (3, 1), (1, 4),
                                 (4, 5)])
    odot = ((0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 2, 1), (0, 0, 0, 0, 2, 2),
            (0, 0, 0, 0, 0, 3), (0, 2, 2, 0, 2, 4), (0, 1, 2, 3, 4, 5))
    yield "monoid-associativity", (1, 4, 4), square, odot, None
    # neither associative nor residuated (the law fails at (1, 1, 1)):
    # the associativity witness comes first
    yield ("monoid-associativity", (1, 1, 2), C4.leq,
           _with_cells(C4.odot, {(1, 1): 3}), None)
    m3 = leq_from_covers(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
    yield "residuation", ("no-residuum",), m3, glb_table(m3), None
    # no residuum exists and an imp is given: the law fails at a triple
    yield "residuation", (1, 0, 0), m3, glb_table(m3), glb_table(m3)
    yield ("implication-mismatch", (1, 0), G.leq, G.odot,
           _with_cells(G.imp, {(1, 0): 1}))


@pytest.mark.parametrize("case", list(_stage_cases()),
                         ids=lambda case: f"{case[0]}-{case[1]}")
def test_residuated_stage_reaches_each_axiom(case):
    axiom, witness, leq, odot, imp = case
    assert _stages_agree(leq, odot, imp) == (axiom, witness)


@pytest.mark.parametrize("case", list(_stage_cases()),
                         ids=lambda case: f"{case[0]}-{case[1]}")
def test_residuated_stage_matches_plain_loops_on_other_labelings(case):
    """Each case under seeded relabelings of its carrier, bot and top
    included, so the ids need not be a linear extension of the order."""
    _, _, leq, odot, imp = case
    n = len(leq)
    rng = random.Random(n)
    for _ in range(40):
        perm = rng.sample(range(n), n)
        old = sorted(range(n), key=perm.__getitem__)  # old[perm[x]] == x

        def relabel(table, value=perm.__getitem__):
            return tuple(tuple(value(table[x][y]) for y in old) for x in old)

        _stages_agree(relabel(leq, bool), relabel(odot),
                      imp and relabel(imp))


def _input_error_cases():
    """(axiom, witness, labels, leq, odot, imp) for the malformed inputs."""
    G = godel_chain(3)
    ragged = G.odot[:2] + (G.odot[2][:2],)
    yield "table-dimension", ("labels", 0), (), (), (), None
    yield "table-dimension", ("leq", 3), G.labels, G.leq[:2], G.odot, None
    yield "table-dimension", ("odot", 3), G.labels, G.leq, ragged, None
    yield "table-dimension", ("imp", 3), G.labels, G.leq, G.odot, ragged
    # an imp of the wrong size on a valid monoid, then on a broken one:
    # the monoid fault comes first
    yield "table-dimension", ("imp", 3), G.labels, G.leq, G.odot, G.imp[:2]
    yield ("monoid-commutativity", (0, 1), G.labels, G.leq,
           _with_cells(G.odot, {(0, 1): 1}), G.imp[:2])
    # a bowtie: 1, 2 above 3, 4, so the pair (1, 2) has no meet and is
    # met before the pair (3, 4), which has no join
    bowtie = leq_from_covers(6, [(0, 3), (0, 4), (3, 1), (3, 2), (4, 1),
                                 (4, 2), (1, 5), (2, 5)])
    yield ("meet-glb", (1, 2), "0abcd1", bowtie, ((0,) * 6,) * 6, None)


@pytest.mark.parametrize("case", list(_input_error_cases()),
                         ids=lambda case: f"{case[0]}-{case[1]}")
def test_validate_rejects_malformed_input(case):
    axiom, witness, labels, leq, odot, imp = case
    with pytest.raises(AxiomViolation) as err:
        validate(labels, leq, odot, imp)
    assert (err.value.axiom, err.value.witness) == (axiom, witness)


def _accepted_algebras(corpus4, corpus5, corpus6):
    """Algebras from every way in: the enumerated corpus, the fixture
    files, products, ordinal sums, upset algebras and quotients."""
    yield from corpus5
    yield from corpus6
    for path in sorted(FIXTURES.glob("*.rlat")):
        yield load_rlat(path)
    for A in corpus4:
        for B in corpus4:
            yield direct_product(A, B)
            if B.size >= 2:
                yield ordinal_sum(A, B)
    for A in corpus5 + corpus6:
        for e in classify(A).boolean_center:
            yield upset_algebra(A, e)
    for A in corpus5:
        for F in all_filters(A):
            yield quotient(A, F).quotient


def test_accepted_algebras_satisfy_the_derived_facts(corpus4, corpus5,
                                                     corpus6):
    # validate checks none of a*b <= a&b, a*(b|c) = a*b | a*c and
    # a*!a = 0: the residuation law implies them; the reference stage
    # still checks all three
    for A in _accepted_algebras(corpus4, corpus5, corpus6):
        assert brute_validate_residuated(A.leq, A.odot, A.imp) == A.imp


def test_derive_implication_boolean():
    B2 = boolean_algebra(1)
    derived = derive_implication(B2.leq, B2.odot)
    assert derived == B2.imp
    assert derived == brute_derive_implication(B2.leq, B2.odot)


def test_derive_implication_matches_given_tables(E2):
    derived = derive_implication(E2.leq, E2.odot)
    assert derived == E2.imp
    assert derived == brute_derive_implication(E2.leq, E2.odot)


def test_derive_implication_lozenge_heyting():
    # lozenge with odot = meet: the Heyting implication of 2x2
    B4 = boolean_algebra(2)
    derived = derive_implication(B4.leq, B4.meet)
    assert derived == B4.imp
    assert derived == brute_derive_implication(B4.leq, B4.meet)


def test_derive_implication_failure():
    # the diamond M3 with odot = meet: {x : x & p <= q} = {0, q, r} has two
    # maximal elements, so no residuum exists
    leq = leq_from_covers(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
    odot = glb_table(leq)
    with pytest.raises(NotResiduated) as err:
        derive_implication(leq, odot)
    assert err.value.pair == _implication_or_pair(brute_derive_implication,
                                                  leq, odot)


def test_hash_agrees_with_equality_across_validations(E2):
    A = validate(E2.labels, E2.leq, E2.odot, E2.imp)
    B = validate(E2.labels, E2.leq, E2.odot)
    assert A is not B
    assert A == B and hash(A) == hash(B)
    assert {A: "cached"}[B] == "cached"
    # labels are not part of identity: an algebra is its tables
    relabeled = validate(tuple(x + "'" for x in E2.labels), E2.leq, E2.odot)
    assert relabeled.labels != A.labels
    assert relabeled == A and hash(relabeled) == hash(A)


def _clear_validate_memo():
    _validate_lattice.cache_clear()
    _validate_residuated.cache_clear()


def _outcome(*args):
    """What validate(*args) gives: the repr of every field of the algebra
    (so 1 and True differ), or the axiom and witness it raises."""
    try:
        A = validate(*args)
    except AxiomViolation as err:
        return ("raises", err.axiom, err.witness)
    return ("algebra", repr((A.labels, A.leq, A.join, A.meet, A.odot,
                             A.imp, A.bot, A.top)))


def _one_entry_mutations(A, i):
    """validate arguments for A, with and without imp, and with one entry
    in row i of leq, odot or imp changed (an entry 1 also becomes True)."""
    n = A.size
    tables = {"leq": A.leq, "odot": A.odot, "imp": A.imp}
    yield A.labels, A.leq, A.odot, A.imp
    yield A.labels, A.leq, A.odot, None
    for name, table in tables.items():
        for j in range(n):
            v = table[i][j]
            values = [not v] if name == "leq" else [(v + 1) % n]
            if v == 1 and name != "leq":
                values.append(True)
            for w in values:
                rows = [list(row) for row in table]
                rows[i][j] = w
                args = dict(tables, **{name: rows})
                yield A.labels, args["leq"], args["odot"], args["imp"]


def test_validate_memo_cold_and_warm(corpus5, corpus6):
    """With the memo cleared, with it holding only the unmutated algebra,
    and on a repeat call, every input gives the same algebra or the same
    exception and witness.  The mutated row moves from algebra to algebra."""
    for k, A in enumerate(corpus5 + corpus6):
        for args in _one_entry_mutations(A, k % A.size):
            _clear_validate_memo()
            cold = _outcome(*args)
            _clear_validate_memo()
            validate(A.labels, A.leq, A.odot, A.imp)
            assert _outcome(*args) == cold
            assert _outcome(*args) == cold


@pytest.mark.parametrize("bad", [1.0, "1"])
@pytest.mark.parametrize("name", ["odot", "imp"])
def test_validate_memo_checks_entries_before_a_hit(E2, name, bad):
    # 1.0 hashes and compares like 1, so the memo holds a valid key equal
    # to the bad table; the entry check still runs first
    validate(E2.labels, E2.leq, E2.odot, E2.imp)
    tables = {"odot": E2.odot, "imp": E2.imp}
    i, j = next((i, j) for i in E2.elements() for j in E2.elements()
                if tables[name][i][j] == 1)
    rows = [list(row) for row in tables[name]]
    rows[i][j] = bad
    args = dict(tables, **{name: rows})
    for _ in range(2):
        with pytest.raises(AxiomViolation) as err:
            validate(E2.labels, E2.leq, args["odot"], args["imp"])
        assert (err.value.axiom, err.value.witness) == ("table-entry", (name, i, j))


def test_generate_checks_each_lattice_order_once(monkeypatch):
    calls = []
    orders = []
    check_order = rlx.core._check_order
    validate_ = rlx.enumeration.validate

    def counting_check(leq, n):
        calls.append(leq)
        return check_order(leq, n)

    def recording_validate(labels, leq, odot):
        orders.append(leq)
        return validate_(labels, leq, odot)

    monkeypatch.setattr(rlx.core, "_check_order", counting_check)
    monkeypatch.setattr(rlx.enumeration, "validate", recording_validate)
    _clear_validate_memo()
    assert len(_generate(6)) == 129
    assert len(calls) == len(set(calls)) == len(set(orders)) < len(orders)


def test_power_limit_is_the_stationary_power(corpus5):
    for A in corpus5:
        for a in A.elements():
            w = A.power_limit(a)
            assert w == A.power(a, A.size) == A.odot[w][a]


def test_classify_pentagon_godel(E1):
    cls = classify(E1)
    assert cls.idempotents == frozenset(range(5))
    assert cls.boolean_center == frozenset({0, 4})
    assert cls.is_godel and not cls.is_chain
    assert cls.is_distributive


def test_classify_pentagon_stacked(E2):
    cls = classify(E2)
    lbl = {x: E2.labels[x] for x in E2.elements()}
    assert {lbl[x] for x in cls.boolean_center} == {"0", "1"}
    assert {lbl[x] for x in cls.idempotents} == {"0", "a", "b", "d", "1"}
    # the operation tables force d out of the regular elements: !d = b
    # and !b = c, so !!d = c
    assert {lbl[x] for x in cls.regulars} == {"0", "b", "c", "1"}
    assert not cls.is_godel and not cls.is_involutive
    assert not cls.is_distributive  # pentagon inside


def test_classify_boolean_algebra_everything():
    B2 = boolean_algebra(1)
    cls = classify(B2)
    full = frozenset(range(2))
    assert cls.boolean_center == cls.idempotents == cls.regulars == full
    assert cls.is_hyperarchimedean


def test_boolean_center_three_ways(corpus5):
    for A in corpus5:
        cls = classify(A)
        via_complement = complemented_elements(A)
        via_join = frozenset(a for a in A.elements()
                             if A.join[a][A.neg(a)] == A.top)
        assert cls.boolean_center == via_complement == via_join


def test_element_identities_on_corpus(corpus5):
    for A in corpus5:
        for a in A.elements():
            assert A.leq[A.odot[a][a]][a]
            assert A.leq[a][A.neg(A.neg(a))]
            assert A.neg(A.neg(A.neg(a))) == A.neg(a)
            for b in A.elements():
                assert A.leq[A.odot[a][b]][A.meet[a][b]]
                if A.join[a][b] == A.top:
                    assert A.meet[a][b] == A.odot[a][b]


def test_boolean_element_identities_on_corpus(corpus5):
    for A in corpus5:
        B = classify(A).boolean_center
        for e in B:
            for f in B:
                assert A.odot[e][f] == A.meet[e][f]
            for x in A.elements():
                assert A.imp[e][x] == A.join[A.neg(e)][x]


def test_boolean_center_is_boolean_subalgebra(corpus5):
    for A in corpus5:
        B = classify(A).boolean_center
        for e in B:
            assert A.neg(e) in B
            for f in B:
                assert A.join[e][f] in B
                assert A.meet[e][f] in B
                # distributivity inside the center
                for g in B:
                    assert A.meet[e][A.join[f][g]] == \
                        A.join[A.meet[e][f]][A.meet[e][g]]


def test_godel_iff_odot_is_meet(corpus5):
    for A in corpus5:
        assert classify(A).is_godel == (A.odot == A.meet)


def test_chain_constructors():
    G4 = godel_chain(4)
    assert classify(G4).is_godel and classify(G4).is_chain
    L4 = lukasiewicz_chain(4)
    assert classify(L4).is_involutive
    assert L4.odot[1][1] == 0  # 1/3 * 1/3 = 0
    assert lukasiewicz_chain(2) == boolean_algebra(1) or \
        lukasiewicz_chain(2).odot == boolean_algebra(1).odot


def test_lukasiewicz_two_is_two_element_boolean():
    L2 = lukasiewicz_chain(2)
    B2 = boolean_algebra(1)
    assert L2.leq == B2.leq and L2.odot == B2.odot and L2.imp == B2.imp


def test_constructor_argument_errors():
    with pytest.raises(InvalidArgument):
        lukasiewicz_chain(1)
    with pytest.raises(InvalidArgument):
        godel_chain(0)


def test_direct_product_boolean_center():
    P = direct_product(godel_chain(2), godel_chain(2))
    assert classify(P).boolean_center == frozenset(range(4))


def test_upset_algebra_on_all_boolean_elements(corpus5, corpus6):
    for A in list(corpus5) + list(corpus6):
        for e in classify(A).boolean_center:
            U = upset_algebra(A, e)
            assert U.size == sum(1 for x in A.elements() if A.leq[e][x])


def test_upset_algebra_rejects_non_boolean(E1):
    with pytest.raises(InvalidArgument):
        upset_algebra(E1, 1)  # element a is not Boolean


def test_ordinal_sum_produces_non_gelfand_example():
    R = direct_product(boolean_algebra(1), boolean_algebra(1))
    A = ordinal_sum(R, godel_chain(2))
    # {top} is prime and two maximal filters exist
    trivial = next(F for F in spec(A) if F.members == {A.top})
    assert trivial is not None
    assert len(max_spec(A)) == 2


def test_ordinal_sum_rejects_trivial_upper():
    with pytest.raises(InvalidArgument):
        ordinal_sum(boolean_algebra(1), trivial_algebra())


def test_ordinal_sum_validates_across_small_corpus(corpus4):
    # the stacked construction must always residuate; validate() runs
    # inside ordinal_sum, so surviving the sweep is the assertion
    bases = [A for A in corpus4 if A.size <= 4]
    uppers = [A for A in corpus4 if 2 <= A.size <= 3]
    for R in bases:
        for C in uppers:
            S = ordinal_sum(R, C)
            assert S.size == R.size + C.size - 1
            # the glue keeps R's top as the bottom of the chain part
            assert S.leq[R.top][S.top]


def test_ordinal_sum_of_chains_is_chain():
    S = ordinal_sum(godel_chain(3), lukasiewicz_chain(3))
    assert classify(S).is_chain
    assert S.size == 5


def test_trivial_algebra():
    T = trivial_algebra()
    assert T.size == 1 and T.bot == T.top

import itertools
from pathlib import Path

from rlx.enumeration import all_algebras
from rlx.core import (
    boolean_algebra,
    classify,
    direct_product,
    godel_chain,
    lukasiewicz_chain,
)
from rlx.filters import (
    Filter,
    all_filters,
    principal_filter,
    quotient,
    radical,
    spec,
)
from rlx.formulas import (
    blp_formula,
    definable_set,
    ilp_formula,
    parse_formula,
    rlp_formula,
)
from rlx.io import load_rlat
from rlx.lifting import (
    _lift_failures,
    _split_failure,
    atomic_lp_characterization,
    filter_lifts,
    has_blp,
    has_ilp,
    has_lp,
    has_phi_lp,
    has_rlp,
    lp_report,
    boolean_splitting_conditions,
)

from rlx.spectra import star_property, star_star_property

from oracles import (
    brute_boolean_splitting_conditions,
    plain_boolean_splitting_conditions,
    plain_classify,
    plain_split_failure,
    plain_splitting,
    product_lp_check,
    quotient_filter_verdict,
    trivial_filter,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def filter_by_labels(A, names):
    index = {lbl: i for i, lbl in enumerate(A.labels)}
    return Filter(A, frozenset(index[n] for n in names))


def test_golden_pentagon_godel(E1):
    assert (has_blp(E1), has_ilp(E1), has_rlp(E1)) == (False, True, True)
    # the radical {c,1} is the failing filter, counterexample a
    holds, verdict = has_phi_lp(E1, blp_formula(), filter_by_labels(E1, ["c", "1"]))
    assert not holds
    assert E1.labels[verdict.counterexample] == "a"
    # every other filter lifts
    rep = lp_report(E1, blp_formula())
    failing = [F for F, v in rep.per_filter if not v.holds]
    assert [sorted(E1.labels[x] for x in F.members) for F in failing] == [["1", "c"]]


def test_golden_pentagon_stacked_tables(E2):
    # the operation tables force a Boolean-lifting failure at [a): the
    # quotient is the four-element Boolean algebra but the center of the
    # algebra is {0,1}
    holds, verdict = has_phi_lp(E2, blp_formula(), filter_by_labels(E2, ["a", "1"]))
    assert not holds
    assert E2.labels[verdict.counterexample] == "b"
    assert not has_blp(E2)
    assert has_ilp(E2) and has_rlp(E2)
    rep = lp_report(E2, blp_formula())
    failing = [F for F, v in rep.per_filter if not v.holds]
    assert [sorted(E2.labels[x] for x in F.members) for F in failing] == [["1", "a"]]


def test_boolean_algebra_all_three():
    for k in (1, 2):
        B = boolean_algebra(k)
        assert (has_blp(B), has_ilp(B), has_rlp(B)) == (True, True, True)


def test_ilp_holds_globally_for_godel_fixture(E1):
    rep = lp_report(E1, ilp_formula())
    assert rep.global_holds
    assert all(v.holds for _, v in rep.per_filter)


def test_rlp_universal_on_corpus(corpus5, E1, E2):
    for A in list(corpus5) + [E1, E2]:
        assert has_rlp(A)


def test_trivial_and_improper_filters_always_lift(corpus4):
    for A in corpus4:
        for phi in (blp_formula(), ilp_formula(), rlp_formula()):
            ok, _ = has_phi_lp(A, phi, trivial_filter(A))
            assert ok
            ok, _ = has_phi_lp(A, phi, Filter(A, frozenset(A.elements())))
            assert ok


def test_global_verdict_is_the_reports(E1, E2):
    """`has_lp` and `has_rlp`, which build no record, give the report's
    global verdict on every algebra of size <= 6 and on the fixtures."""
    algebras = [A for n in range(1, 7) for A in all_algebras(n)]
    algebras += [load_rlat(path) for path in sorted(FIXTURES.glob("*.rlat"))]
    extra = parse_formula("exists w1 . v * w1 = 0 && v | w1 = 1")
    for A in algebras + [E1, E2]:
        for phi in (blp_formula(), ilp_formula(), rlp_formula(), extra):
            assert has_lp(A, phi) == lp_report(A, phi).global_holds, (A, phi)
        assert has_rlp(A) == lp_report(A, rlp_formula()).global_holds


def test_unsatisfiable_formula_lifts_where_it_is_satisfiable(corpus5):
    """The improper filter lifts phi iff some element satisfies phi: A/A
    is trivial and satisfies every formula.  `v = !v` holds of no element
    of a nontrivial Boolean or Goedel algebra, and of the middle of the
    three-element MV chain.  Every verdict is the quotient oracle's, and
    the global one is the report's, on sizes <= 5 and the fixtures."""
    phi = parse_formula("v = !v")
    fixtures = [load_rlat(path) for path in sorted(FIXTURES.glob("*.rlat"))]
    satisfiable = set()
    for A in corpus5 + fixtures:
        report = lp_report(A, phi)
        assert has_lp(A, phi) == report.global_holds, A
        for F, verdict in report.per_filter:
            assert (verdict.holds, verdict.counterexample,
                    verdict.witness) == quotient_filter_verdict(A, phi, F)
            if len(F) == A.size:
                assert verdict.holds == bool(definable_set(A, phi))
        satisfiable.add(bool(definable_set(A, phi)))
    assert satisfiable == {False, True}
    assert not has_lp(boolean_algebra(1), phi)


def test_lifting_mask_is_the_records(corpus5):
    """The lifting mask of each (algebra, formula) has the bit of exactly
    the filters whose record fails: each filter's bit is `lp_report`'s
    and `has_phi_lp`'s verdict, and `has_lp` is the global one, on sizes
    <= 5 and the fixtures, for the three named formulas, an unsatisfiable
    one and one with a bound variable."""
    fixtures = [load_rlat(path) for path in sorted(FIXTURES.glob("*.rlat"))]
    formulas = (blp_formula(), ilp_formula(), rlp_formula(),
                parse_formula("v = !v"),
                parse_formula("exists w . v | w = 1 && v & w = 0"))
    verdicts = set()
    for A in corpus5 + fixtures:
        for phi in formulas:
            report = lp_report(A, phi)
            failing = 0
            for F, verdict in report.per_filter:
                assert filter_lifts(A, phi, F) == verdict.holds, (A, phi, F)
                assert has_phi_lp(A, phi, F)[0] == verdict.holds, (A, phi, F)
                failing |= (not verdict.holds) << F.gen
                verdicts.add(verdict.holds)
            assert _lift_failures(A, phi) == failing, (A, phi)
            assert has_lp(A, phi) == report.global_holds, (A, phi)
    assert verdicts == {False, True}


def test_atomic_characterization_golden(E1, E2):
    assert atomic_lp_characterization(E1, ilp_formula())
    assert not atomic_lp_characterization(E1, blp_formula())
    assert not atomic_lp_characterization(E2, blp_formula())
    assert atomic_lp_characterization(E2, ilp_formula())


def test_atomic_characterization_equals_direct_on_corpus(corpus5):
    for A in corpus5:
        for phi in (blp_formula(), ilp_formula(), rlp_formula()):
            assert atomic_lp_characterization(A, phi) == \
                lp_report(A, phi).global_holds


def test_blp_gap_filter_is_join_with_negation(corpus4):
    # the term gap of the Boolean formula is a | !a, so the general
    # criterion specializes to the join form
    from rlx.formulas import atomic_parts, term_values

    t1, t2 = atomic_parts(blp_formula())
    for A in corpus4:
        left, right = term_values(A, t1, {}), term_values(A, t2, {})
        for a in A.elements():
            gap = A.bires(left[a], right[a])
            assert principal_filter(A, gap).members == \
                principal_filter(A, A.join[a][A.neg(a)]).members


def test_ilp_gap_filter_matches_definition(corpus4):
    from rlx.formulas import atomic_parts, term_values

    t1, t2 = atomic_parts(ilp_formula())
    for A in corpus4:
        left, right = term_values(A, t1, {}), term_values(A, t2, {})
        for a in A.elements():
            gap = A.bires(left[a], right[a])
            assert gap == A.bires(A.odot[a][a], a)


def test_boolean_splitting_conditions_golden(E1, E2):
    verdicts1, wit1 = boolean_splitting_conditions(E1)
    assert verdicts1 == (False, False, False, False)
    assert wit1[2] == (1,)  # element a: only Boolean above it is 1
    verdicts2, wit2 = boolean_splitting_conditions(E2)
    assert verdicts2 == (False, False, False, False)
    verdicts_b, _ = boolean_splitting_conditions(boolean_algebra(2))
    assert verdicts_b == (True, True, True, True)


def test_boolean_splitting_conditions_agree_on_corpus(corpus5):
    for A in corpus5:
        verdicts, _ = boolean_splitting_conditions(A)
        assert len(set(verdicts)) == 1


def test_boolean_splitting_matches_search_oracle(corpus5, corpus6, E1, E2):
    """The closed forms through u(x) give the verdicts and the first
    failing tuples of the search over Boolean candidates; on sizes <= 5
    also for every arity bound 2..5 of the pruned n-ary scan."""
    for A in [*corpus5, *corpus6, E1, E2]:
        assert (boolean_splitting_conditions(A)
                == brute_boolean_splitting_conditions(A)), A
    for max_arity in range(2, 6):
        for A in corpus5:
            assert (boolean_splitting_conditions(A, max_arity)
                    == brute_boolean_splitting_conditions(A, max_arity)), A


def test_split_failure_memo_matches_plain_scan(corpus5, corpus6, E1, E2):
    """The n-ary scan with its failed-state memo returns the first failing
    multiset of the scan without it, for k = 2..4 in turn on one memo as
    `boolean_splitting_conditions` runs them, on sizes 1..6, 2^6 and the
    products whose matrices are pinned."""
    algebras = [*corpus5, *corpus6, boolean_algebra(6),
                direct_product(E1, E1), direct_product(E1, E2),
                direct_product(E2, godel_chain(3))]
    found = set()
    for A in algebras:
        B = classify(A).boolean_center
        w = [A.power_limit(x) for x in A.elements()]
        u = []
        for x in A.elements():
            m = A.top
            for e in B:
                if A.leq[w[x]][e]:
                    m = A.meet[m][e]
            u.append(m)
        dead = set()
        for k in range(2, 5):
            combo = _split_failure(A, u, k, 0, A.top, A.top, dead)
            assert combo == plain_split_failure(A, u, k, 0, A.top, A.top), \
                (A, k)
            found.add(combo is None)
    assert found == {False, True}


def test_element_vector_scans_match_the_plain_loops(corpus5, corpus6, E1, E2):
    """`classify`, the Boolean splitting conditions and the two splitting
    properties, which index the power limits and the negation column,
    return what the loops through the one-line methods returned,
    witnesses and their order included, on sizes 1..6 and the products
    whose matrices are pinned."""
    algebras = [*corpus5, *corpus6, direct_product(E1, E1),
                direct_product(E1, E2), direct_product(E2, godel_chain(3))]
    held = set()
    for A in algebras:
        assert classify(A) == plain_classify(A), A
        verdicts, witnesses = boolean_splitting_conditions(A)
        expected = plain_boolean_splitting_conditions(A)
        assert (verdicts, list(witnesses.items())) == (
            expected[0], list(expected[1].items())), A
        B = sorted(classify(A).boolean_center)
        nilpotent_negation = [u for u in A.elements()
                              if A.power_limit(A.neg(u)) == A.bot]
        for (holds, found), us in (
                (star_property(A), sorted(radical(A).members)),
                (star_star_property(A), nilpotent_negation)):
            plain = plain_splitting(A, us, B)
            assert (holds, list(found.items())) == (
                plain[0], list(plain[1].items())), A
            held.add(holds)
        held.update(verdicts)
    assert held == {False, True}


def test_regular_lifting_double_negation_trace(corpus5, E1, E2):
    """The proof of regular lifting, traced: !!a is regular, and modulo
    every filter where a's class is regular, !!a lies in a's class."""
    for A in [*corpus5, E1, E2]:
        assert has_rlp(A)
        for F in all_filters(A):
            Q = quotient(A, F)
            reg_q = definable_set(Q.quotient, rlp_formula())
            for a in A.elements():
                if Q.class_of[a] in reg_q:
                    e = A.neg(A.neg(a))
                    assert A.neg(A.neg(e)) == e
                    assert Q.class_of[e] == Q.class_of[a]


def test_product_lp_check():
    B2 = boolean_algebra(1)
    assert product_lp_check(B2, B2, blp_formula()) == (True, True, True)


def test_product_lp_check_pentagon(E1):
    B2 = boolean_algebra(1)
    assert product_lp_check(E1, B2, blp_formula()) == (False, False, True)


def test_product_lp_check_ilp(E2):
    got = product_lp_check(E2, godel_chain(3), ilp_formula())
    assert got == (True, True, True)


def test_product_law_over_corpus_pairs(corpus4):
    small = [A for A in corpus4 if A.size <= 4]
    for A, B in itertools.product(small, repeat=2):
        for phi in (blp_formula(), ilp_formula()):
            product_lp_check(A, B, phi)  # asserts internally


def test_quotient_stability_on_corpus(corpus5):
    for A in corpus5:
        for phi in (blp_formula(), ilp_formula()):
            if not lp_report(A, phi).global_holds:
                continue
            for F in all_filters(A):
                Q = quotient(A, F).quotient
                assert lp_report(Q, phi).global_holds


def test_monotone_lifting_fires_somewhere(corpus5, E2):
    fired = 0
    for A in list(corpus5) + [E2]:
        B = classify(A).boolean_center
        for F in all_filters(A):
            Q = quotient(A, F)
            if {Q.class_of[e] for e in B} == set(range(Q.quotient.size)):
                fired += 1
                for G in all_filters(A):
                    if F.members <= G.members:
                        ok_b, _ = has_phi_lp(A, blp_formula(), G)
                        ok_i, _ = has_phi_lp(A, ilp_formula(), G)
                        assert ok_b and ok_i
    assert fired > 0


def test_chain_class_facts():
    for n in (2, 3, 4, 5):
        for A in (godel_chain(n), lukasiewicz_chain(n)):
            assert has_blp(A)
            assert has_ilp(A)
            for a in classify(A).idempotents:
                ok, _ = has_phi_lp(A, ilp_formula(), principal_filter(A, a))
                assert ok


def test_prime_filters_have_blp(corpus5, E1, E2):
    for A in list(corpus5) + [E1, E2]:
        for P in spec(A):
            ok, _ = has_phi_lp(A, blp_formula(), P)
            assert ok


def test_hyperarchimedean_implies_blp(corpus5):
    for A in corpus5:
        if classify(A).is_hyperarchimedean:
            assert has_blp(A)


def test_mv_chain_center_equals_idempotents_and_blp_matches_ilp():
    for n in (2, 3, 4, 5):
        A = lukasiewicz_chain(n)
        cls = classify(A)
        assert cls.boolean_center == cls.idempotents
        for F in all_filters(A):
            ok_b, _ = has_phi_lp(A, blp_formula(), F)
            ok_i, _ = has_phi_lp(A, ilp_formula(), F)
            assert ok_b == ok_i


def test_custom_formula_lifting(E1):
    # nilpotence-style formula: v^2 = 0 defines {0} on the Godel pentagon
    phi = parse_formula("v^2 = 0")
    assert definable_set(E1, phi) == frozenset({0})
    rep = lp_report(E1, phi)
    assert isinstance(rep.global_holds, bool)


def test_witness_reported_for_successful_lift(E1):
    ok, verdict = has_phi_lp(E1, blp_formula(), trivial_filter(E1))
    assert ok and verdict.witness is not None


def test_fiber_verdict_matches_quotient_oracle(corpus5, corpus6, E1, E2):
    """Every filter verdict, counterexample and witness read through the
    fiber map x -> e*x equals the one read off the built quotient."""
    fixtures = [load_rlat(path) for path in sorted(FIXTURES.glob("*.rlat"))]
    for A in corpus5 + corpus6 + [E1, E2] + fixtures:
        for phi in (blp_formula(), ilp_formula(), rlp_formula()):
            for F, verdict in lp_report(A, phi).per_filter:
                expected = quotient_filter_verdict(A, phi, F)
                assert (verdict.holds, verdict.counterexample,
                        verdict.witness) == expected, (A, phi, F)
                assert has_phi_lp(A, phi, F) == (verdict.holds, verdict)


def test_lifting_builds_no_quotient(corpus5):
    """Filter-level lifting is decided in the algebra itself: neither
    lp_report nor has_phi_lp builds a quotient algebra."""
    quotient.cache_clear()
    for A in corpus5:
        for phi in (blp_formula(), ilp_formula(), rlp_formula()):
            for F, _ in lp_report(A, phi).per_filter:
                has_phi_lp(A, phi, F)
    assert quotient.cache_info().currsize == 0

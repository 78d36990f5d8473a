import itertools
from pathlib import Path

from rlx.core import (
    boolean_algebra,
    classify,
    godel_chain,
    lukasiewicz_chain,
)
from rlx.filters import (
    Filter,
    all_filters,
    principal_filter,
    quotient,
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
    atomic_lp_characterization,
    has_blp,
    has_ilp,
    has_phi_lp,
    has_rlp,
    lp_report,
    boolean_splitting_conditions,
)

from oracles import (
    brute_boolean_splitting_conditions,
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
    failing tuples of the search over Boolean candidates."""
    for A in [*corpus5, *corpus6, E1, E2]:
        assert (boolean_splitting_conditions(A)
                == brute_boolean_splitting_conditions(A)), A


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

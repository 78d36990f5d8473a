import itertools
from pathlib import Path

import pytest

from rlx.core import boolean_algebra, godel_chain, lukasiewicz_chain, validate
from rlx.filters import all_filters, principal_filter, quotient
from rlx.io import load_rlat
from rlx.reticulation import (
    Reticulation,
    _retic_quotient_match,
    archimedean_bridge,
    blp_transfer,
    build_reticulation,
    verify_retic_properties,
)

from oracles import (
    NoIsomorphism,
    RLMorphism,
    find_isomorphism,
    kernel_quotient_reticulation,
    labeled_retic_quotient_match,
    reticulate_morphism,
    trivial_filter,
    uniqueness_check,
)


def test_reticulation_of_boolean_is_itself():
    B2 = boolean_algebra(1)
    R = build_reticulation(B2)
    assert R.lattice.size == 2
    B4 = boolean_algebra(2)
    R4 = build_reticulation(B4)
    assert R4.lattice.size == 4
    assert find_isomorphism(B4.leq, (B4.join, B4.meet),
                            R4.lattice.leq, (R4.lattice.join, R4.lattice.meet))


def test_reticulation_pentagon_collapses_nothing(E1):
    R = build_reticulation(E1)
    assert R.lattice.size == 5
    assert len(set(R.lam)) == 5


def test_reticulation_stacked_pentagon_collapses_pair(E2):
    R = build_reticulation(E2)
    assert R.lattice.size == 5
    idx = {lbl: i for i, lbl in enumerate(E2.labels)}
    assert R.lam[idx["c"]] == R.lam[idx["d"]]


def test_reticulation_mv_chain_collapses_nilpotents():
    L3 = lukasiewicz_chain(3)
    R = build_reticulation(L3)
    assert R.lattice.size == 2  # the middle element squares to 0
    assert R.lam[0] == R.lam[1]


def test_retic_properties_on_corpus(corpus5):
    for A in corpus5:
        verdicts = verify_retic_properties(A)
        assert all(verdicts.values()), verdicts


def test_retic_properties_on_fixtures(E1, E2):
    for A in (E1, E2):
        verdicts = verify_retic_properties(A)
        assert all(verdicts.values())


def test_uniqueness_of_reticulation(corpus4, E2):
    for A in list(corpus4) + [E2, godel_chain(4)]:
        R1 = build_reticulation(A)
        R2 = kernel_quotient_reticulation(A)
        f = uniqueness_check(R1, R2)
        assert sorted(f) == list(range(R1.lattice.size))
        for a in A.elements():
            assert f[R1.lam[a]] == R2.lam[a]


def test_uniqueness_rejects_mismatched_sources(E1, E2):
    with pytest.raises(NoIsomorphism):
        uniqueness_check(build_reticulation(E1), build_reticulation(E2))


def test_uniqueness_rejects_a_map_that_breaks_joins(E1):
    # swapping bot and top of L(A) gives a well-defined bijection that is
    # no lattice map
    R = build_reticulation(E1)
    L = R.lattice
    swap = {L.bot: L.top, L.top: L.bot}
    R2 = Reticulation(E1, L, tuple(swap.get(x, x) for x in R.lam), R.filter_of)
    with pytest.raises(NoIsomorphism, match="induced-join"):
        uniqueness_check(R, R2)


def test_uniqueness_rejects_a_map_that_is_onto_but_not_injective():
    # collapsing the 3-chain L(A) onto the 2-element lattice is a bounded
    # lattice map onto L2, but no isomorphism
    A = godel_chain(3)
    R = build_reticulation(A)
    L2 = build_reticulation(boolean_algebra(1)).lattice
    lam2 = tuple(L2.bot if a == A.bot else L2.top for a in A.elements())
    with pytest.raises(NoIsomorphism, match="not bijective"):
        uniqueness_check(R, Reticulation(A, L2, lam2, None))


def test_identity_morphism_reticulates_to_identity(E1):
    f = RLMorphism(E1, E1, tuple(range(E1.size)))
    lf = reticulate_morphism(f)
    assert lf == tuple(range(build_reticulation(E1).lattice.size))


def test_quotient_projection_reticulates_to_surjection(E2):
    F = principal_filter(E2, 1)  # [a)
    Q = quotient(E2, F)
    f = RLMorphism(E2, Q.quotient, Q.class_of)
    lf = reticulate_morphism(f)
    target = build_reticulation(Q.quotient)
    assert set(lf) == set(range(target.lattice.size))


def test_bottom_top_embedding_into_mv_chain():
    B2 = boolean_algebra(1)
    L3 = lukasiewicz_chain(3)
    f = RLMorphism(B2, L3, (0, 2))
    lf = reticulate_morphism(f)
    assert len(lf) == 2 and len(set(lf)) == 2


def test_functoriality_on_sampled_morphism_pairs(E2):
    # compose quotient projections and check the functor respects it
    F = principal_filter(E2, 1)
    Q1 = quotient(E2, F)
    f = RLMorphism(E2, Q1.quotient, Q1.class_of)
    G_members = frozenset(Q1.class_of[x]
                          for x in principal_filter(E2, 2).members)
    from rlx.filters import Filter

    G = Filter(Q1.quotient, G_members)
    Q2 = quotient(Q1.quotient, G)
    g = RLMorphism(Q1.quotient, Q2.quotient, Q2.class_of)
    gf = RLMorphism(E2, Q2.quotient,
                    tuple(Q2.class_of[f.mapping[x]] for x in E2.elements()))
    lf = reticulate_morphism(f)
    lg = reticulate_morphism(g)
    lgf = reticulate_morphism(gf)
    assert lgf == tuple(lg[lf[x]] for x in range(len(lf)))


def test_morphism_validation_rejects_non_morphism(E1):
    from rlx.errors import AxiomViolation

    # collapsing b onto a is not compatible with joins: a|b = c stays c
    with pytest.raises(AxiomViolation):
        RLMorphism(E1, E1, (0, 1, 1, 3, 4))


def test_swap_of_symmetric_atoms_is_automorphism(E1):
    f = RLMorphism(E1, E1, (0, 2, 1, 3, 4))
    lf = reticulate_morphism(f)
    assert sorted(lf) == list(range(build_reticulation(E1).lattice.size))


def test_blp_transfer_golden(E1, E2):
    idx1 = {lbl: i for i, lbl in enumerate(E1.labels)}
    F = principal_filter(E1, idx1["c"])
    assert blp_transfer(E1, F) == (False, False)
    idx2 = {lbl: i for i, lbl in enumerate(E2.labels)}
    assert blp_transfer(E2, principal_filter(E2, idx2["a"])) == (False, False)
    B2 = boolean_algebra(1)
    assert blp_transfer(B2, trivial_filter(B2)) == (True, True)


def test_blp_transfer_per_filter_on_corpus(corpus5):
    for A in corpus5:
        for F in all_filters(A):
            in_a, in_l = blp_transfer(A, F)
            assert in_a == in_l


def test_archimedean_bridge_golden(E1):
    bridge = archimedean_bridge(E1)
    assert not bridge["hyperarchimedean"]
    idx = {lbl: i for i, lbl in enumerate(E1.labels)}
    assert not bridge["per_element"][idx["a"]]

    L3 = lukasiewicz_chain(3)
    b3 = archimedean_bridge(L3)
    assert b3["hyperarchimedean"] and b3["lattice_boolean"]


def test_archimedean_bridge_on_corpus(corpus5):
    for A in corpus5:
        bridge = archimedean_bridge(A)
        assert bridge["hyperarchimedean"] == bridge["lattice_boolean"]


def test_preimage_preserves_arbitrary_intersections(corpus4):
    # over all families of lattice filters of the reticulation
    for A in corpus4:
        if A.size > 4:
            continue
        R = build_reticulation(A)
        filts = [H.members for H in all_filters(R.lattice)]

        def preimage(H):
            return frozenset(x for x in A.elements() if R.lam[x] in H)

        for r in range(1, len(filts) + 1):
            for family in itertools.combinations(filts, r):
                inter = frozenset.intersection(*family)
                assert preimage(inter) == \
                    frozenset.intersection(*(preimage(H) for H in family))


def test_gelfand_bridge(corpus5):
    from rlx.dlattice import is_conormal_lattice
    from rlx.spectra import is_gelfand

    for A in corpus5:
        L = build_reticulation(A).lattice
        assert is_gelfand(A) == is_conormal_lattice(L)


def test_quotient_match_reads_the_labeled_reticulation_label_free(
        corpus5, corpus6):
    """Row 8 reads L(A/F) as `build_reticulation(A/F)`, one per table pair:
    on every filter of every algebra of size <= 6 and of the fixtures the
    verdict is the oracle's, and a copy of A/F under other labels has the
    very same reticulation."""
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    checked = 0
    for A in [*corpus5, *corpus6,
              *map(load_rlat, sorted(fixtures.glob("*.rlat")))]:
        R = build_reticulation(A)
        for F in all_filters(A):
            assert (_retic_quotient_match(A, R, F)
                    == labeled_retic_quotient_match(A, R, F))
            Q = quotient(A, F).quotient
            copy = validate([f"q{x}" for x in Q.labels], Q.leq, Q.odot)
            assert build_reticulation(copy) is build_reticulation(Q)
            checked += 1
    assert checked == 561

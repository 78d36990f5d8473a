"""Isomorphism invariance: a relabeled copy gives the same theorem rows.

Every theorem the matrix checks is invariant under isomorphism, but the
enumerator labels every corpus algebra with bot at id 0 and top at id
n-1, as the fixtures are, and its ids are a linear extension of the
order.  So a check that reads an element's position instead of its role
passes every other test.  Here each algebra of sizes 2..6 is copied
under a seeded permutation of its carrier that moves bot or top, and the
copy is built through `validate`: the per-order facts of its lattice
stage (join-irreducibles, down-sets) and every check then run on a
labeling that is not a linear extension.  Labels travel with their
elements, so the rows must be equal, not just equal up to relabeling.
A `hypothesis` test draws the permutations of the six fixtures and the
corpus of sizes 1..5, bot and top moved or not.
"""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rlx.core import validate
from rlx.enumeration import all_algebras
from rlx.io import load_rlat
from rlx.spectra import stone_max, stone_spec, topology_predicates
from rlx.theorems import theorem_checks

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def permuted(A, rng):
    """A's copy through `validate` with element x at id perm[x], for a
    permutation drawn from `rng` that moves bot or top."""
    perm = list(range(A.size))
    while perm[A.bot] == A.bot and perm[A.top] == A.top:
        rng.shuffle(perm)
    return relabeled(A, perm)


def relabeled(A, perm):
    """A's copy through `validate` with element x at id perm[x]."""
    old = sorted(range(A.size), key=perm.__getitem__)  # old[perm[x]] == x

    def table(rel, value=lambda v: v):
        return [[value(rel[x][y]) for y in old] for x in old]

    return validate([A.labels[x] for x in old], table(A.leq),
                    table(A.odot, perm.__getitem__),
                    table(A.imp, perm.__getitem__))


def rows(A):
    return [(r.theorem_id, r.lhs, r.rhs, r.agree) for r in theorem_checks(A)]


@pytest.mark.parametrize("n", range(2, 7))
def test_permuted_copies_give_the_same_rows(n):
    rng = random.Random(n)
    for A in all_algebras(n):
        B = permuted(A, rng)
        assert (B.bot, B.top) != (A.bot, A.top)
        assert rows(B) == rows(A), A.labels


@pytest.fixture(scope="module")
def fixtures_and_corpus5(corpus5):
    fixtures = [load_rlat(path) for path in sorted(FIXTURES.glob("*.rlat"))]
    assert len(fixtures) == 6
    return fixtures + corpus5


def predicates(A):
    return [dict(topology_predicates(S)) for S in (stone_spec(A), stone_max(A))]


@settings(max_examples=8, deadline=None)
@given(st.data())
def test_drawn_permutations_give_the_same_rows(fixtures_and_corpus5, data):
    """A drawn permutation of each carrier, which may move bot and top or
    fix both, gives the same rows and the same topological predicates on
    Spec and Max.  The copy's spaces may number their points otherwise,
    and then their opens are other bitmasks: the predicates, kept per
    topology, are looked up under another key."""
    for A in fixtures_and_corpus5:
        perm = data.draw(st.permutations(range(A.size)), label=repr(A.labels))
        B = relabeled(A, perm)
        assert rows(B) == rows(A)
        assert predicates(B) == predicates(A)

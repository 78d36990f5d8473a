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
"""

import random

import pytest

from rlx.core import validate
from rlx.enumeration import all_algebras
from rlx.theorems import theorem_checks


def permuted(A, rng):
    """A's copy through `validate` with element x at id perm[x], for a
    permutation drawn from `rng` that moves bot or top."""
    n = A.size
    perm = list(range(n))
    while perm[A.bot] == A.bot and perm[A.top] == A.top:
        rng.shuffle(perm)
    old = sorted(range(n), key=perm.__getitem__)  # old[perm[x]] == x

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


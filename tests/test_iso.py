"""The reference isomorphism search of the test oracles against every
bijection, for n <= 5."""

import itertools

from hypothesis import given, settings, strategies as st

from rlx.core import validate
from rlx.iso import permute_relation, permute_table

from oracles import (
    find_isomorphism,
    lattice_orders,
    partial_orders,
    rl_isomorphism,
)


def brute_isomorphisms(leq_a, tables_a, leq_b, tables_b):
    """Every bijection p with x<=y iff p(x)<=p(y) and p(x op y) =
    p(x) op p(y) for each pair of tables, by trying all of them."""
    n = len(leq_a)
    if len(leq_b) != n:
        return set()
    pairs = [(a, b) for a in range(n) for b in range(n)]
    return {p for p in itertools.permutations(range(n))
            if all(leq_a[a][b] == leq_b[p[a]][p[b]]
                   and all(p[ta[a][b]] == tb[p[a]][p[b]]
                           for ta, tb in zip(tables_a, tables_b))
                   for a, b in pairs)}


def _rotated(A):
    """A relabeled by x -> x+1 mod n, so bot and top move too."""
    p = tuple((x + 1) % A.size for x in A.elements())
    return validate(A.labels, permute_relation(A.leq, p),
                    permute_table(A.odot, p))


def test_rl_isomorphism_matches_every_bijection(corpus5):
    # pairs of different sizes, same-size non-isomorphic pairs, and each
    # algebra against a relabeled copy of itself
    algebras = list(corpus5) + [_rotated(A) for A in corpus5]
    for A, B in itertools.product(algebras, repeat=2):
        found = rl_isomorphism(A, B)
        isos = brute_isomorphisms(A.leq, (A.join, A.meet, A.odot, A.imp),
                                  B.leq, (B.join, B.meet, B.odot, B.imp))
        assert found in isos if isos else found is None


def test_find_isomorphism_matches_every_bijection_on_lattices():
    # every labeling of every lattice: many same-size pairs are isomorphic
    # under a nontrivial map, and the lattice tables alone or none at all
    for n in range(1, 6):
        orders = list(lattice_orders(n))
        for (leq_a, *tables_a), (leq_b, *tables_b) in itertools.product(
                orders, repeat=2):
            for ta, tb in (((), ()), (tables_a, tables_b)):
                found = find_isomorphism(leq_a, ta, leq_b, tb)
                isos = brute_isomorphisms(leq_a, ta, leq_b, tb)
                assert found in isos if isos else found is None


POSETS = [leq for n in range(1, 5) for leq in partial_orders(n)]


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_find_isomorphism_matches_every_bijection_on_tables(data):
    # any partial order and table, against a relabeled copy with the
    # values of two off-diagonal cells maybe swapped: the invariants then
    # agree, so the search itself must tell isomorphic copies apart
    leq = data.draw(st.sampled_from(POSETS))
    n = len(leq)
    cell = st.integers(0, n - 1)
    table = tuple(tuple(data.draw(cell) for _ in range(n)) for _ in range(n))
    p = data.draw(st.permutations(range(n)))
    other = [list(row) for row in permute_table(table, p)]
    cells = [(a, b) for a in range(n) for b in range(n) if a != b]
    if cells and data.draw(st.booleans()):
        (a, b), (c, d) = data.draw(st.lists(st.sampled_from(cells), min_size=2,
                                            max_size=2, unique=True))
        other[a][b], other[c][d] = other[c][d], other[a][b]
    args = (leq, (table,), permute_relation(leq, p), (tuple(map(tuple, other)),))
    isos = brute_isomorphisms(*args)
    found = find_isomorphism(*args)
    assert found in isos if isos else found is None

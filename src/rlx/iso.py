"""Canonical labeling and isomorphism search for small operation tables.

Structures are given by a partial order plus a list of n x n operation
tables.  Sizes stay tiny (<= 64), so backtracking with cheap local
invariants is plenty.

The canonical key of a residuated lattice is the least encoding
``leq + odot`` (flattened row by row) over the relabelings that fix bot and
top.  The ``leq`` part has fixed length n*n, so the least key is the least
relabeled order followed by the least relabeled product over only the
relabelings that reach that order.  Those order minimizers form one coset
of the order's automorphism group; they are found once per order and
cached, so each algebra scans only that many relabelings instead of all
(n-2)!.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .core import validate


def permute_relation(rel, perm):
    n = len(rel)
    out = [[False] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = rel[a][b]
    return tuple(tuple(row) for row in out)


def permute_table(table, perm):
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[table[a][b]]
    return tuple(tuple(row) for row in out)


def _mid_perms(n, bot, top):
    mids = [x for x in range(n) if x not in (bot, top)]
    for images in itertools.permutations(mids):
        perm = list(range(n))
        for src, dst in zip(mids, images):
            perm[src] = dst
        yield tuple(perm)


def _flat(table):
    return tuple(v for row in table for v in row)


@lru_cache(maxsize=None)
def _order_minimizers(leq, bot, top):
    """Least relabeled order encoding, and every relabeling reaching it.

    Relabelings fix bot and top and are listed in ``_mid_perms`` order.
    """
    best, perms = None, []
    for perm in _mid_perms(len(leq), bot, top):
        bits = _flat(permute_relation(leq, perm))
        if best is None or bits < best:
            best, perms = bits, [perm]
        elif bits == best:
            perms.append(perm)
    return best, tuple(perms)


def _canonical_perm(A):
    """(key, perm): the canonical key and the first relabeling reaching it."""
    bits, perms = _order_minimizers(A.leq, A.bot, A.top)
    best = best_perm = None
    for perm in perms:
        vals = _flat(permute_table(A.odot, perm))
        if best is None or vals < best:
            best, best_perm = vals, perm
    return bits + best, best_perm


@lru_cache(maxsize=None)
def canonical_key(A):
    """Minimum-lex encoding of (leq, odot) over relabelings fixing bot/top."""
    return _canonical_perm(A)[0]


def canonicalize(A):
    """Relabel A into its canonical form (labels become e0..e{n-1})."""
    perm = _canonical_perm(A)[1]
    leq = permute_relation(A.leq, perm)
    odot = permute_table(A.odot, perm)
    labels = tuple(f"e{i}" for i in range(A.size))
    return validate(labels, leq, odot)


def _invariants(leq, tables):
    """Per element: (down-set size, up-set size, idempotence in each table,
    occurrences in each table), the counts from one pass per table."""
    n = len(leq)
    occur = []
    for t in tables:
        count = [0] * n
        for row in t:
            for v in row:
                count[v] += 1
        occur.append(count)
    return [(sum(1 for y in range(n) if leq[y][x]),
             sum(1 for y in range(n) if leq[x][y]),
             tuple(t[x][x] == x for t in tables),
             tuple(count[x] for count in occur))
            for x in range(n)]


def find_isomorphism(leq_a, tables_a, leq_b, tables_b):
    """A bijection p with p(x op y) = p(x) op p(y) and x<=y iff p(x)<=p(y).

    Returns the mapping as a tuple (old id -> new id) or None.  Tables must
    come in matching order on both sides.
    """
    n = len(leq_a)
    if len(leq_b) != n or len(tables_a) != len(tables_b):
        return None
    inv_a = _invariants(leq_a, tables_a)
    inv_b = _invariants(leq_b, tables_b)
    if sorted(inv_a) != sorted(inv_b):
        return None

    perm = [None] * n
    used = [False] * n

    def consistent(x):
        assigned = [a for a in range(n) if perm[a] is not None]
        for a in assigned:
            if leq_a[x][a] != leq_b[perm[x]][perm[a]] or leq_a[a][x] != leq_b[perm[a]][perm[x]]:
                return False
        for ta, tb in zip(tables_a, tables_b):
            for u in assigned:
                for v in assigned:
                    r = ta[u][v]
                    img = tb[perm[u]][perm[v]]
                    if perm[r] is not None and perm[r] != img:
                        return False
        return True

    def extend(x):
        if x == n:
            # full verification before accepting
            for a in range(n):
                for b in range(n):
                    if leq_a[a][b] != leq_b[perm[a]][perm[b]]:
                        return False
                    for ta, tb in zip(tables_a, tables_b):
                        if perm[ta[a][b]] != tb[perm[a]][perm[b]]:
                            return False
            return True
        for y in range(n):
            if used[y] or inv_a[x] != inv_b[y]:
                continue
            perm[x] = y
            used[y] = True
            if consistent(x) and extend(x + 1):
                return True
            perm[x] = None
            used[y] = False
        return False

    if extend(0):
        return tuple(perm)
    return None


def rl_isomorphism(A, B):
    """Residuated-lattice isomorphism A -> B as an id map, or None."""
    return find_isomorphism(A.leq, (A.join, A.meet, A.odot, A.imp),
                            B.leq, (B.join, B.meet, B.odot, B.imp))


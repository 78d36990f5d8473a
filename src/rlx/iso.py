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
(n-2)!, and a search by row prefix finds them without listing those.
"""

from __future__ import annotations

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


@lru_cache(maxsize=None)
def _order_minimizers(leq, bot, top):
    """Least relabeled order encoding, and every (perm, inverse) pair
    whose relabeling fixes bot and top and reaches it, sorted by perm.

    Entry (i, j) of a relabeled table is read at (inv[i], inv[j]).  Bot and
    top read the same under every relabeling, so encodings compare by
    their middle rows, ints with bit m-1-b for column b.  Middle positions
    are filled in order; a filled row is at best its known columns, then
    the unplaced elements not above it, then those above.  A branch whose
    best rows exceed the best found is dropped; branches go best first.
    """
    n = len(leq)
    mids = [x for x in range(n) if x not in (bot, top)]
    m = len(mids)
    bit = [1 << m - 1 - b for b in range(m)]
    up = [sum(bit[b] for b, y in enumerate(mids) if leq[x][y]) for x in mids]
    best, found = None, []

    def search(chosen, rows, rest):
        nonlocal best
        k = len(chosen)
        if k == m:
            if best is None or rows < best:
                best, found[:] = rows, []
            found.append(tuple(mids[y] for y in chosen))
            return
        kids = []
        for y in (y for y in range(m) if rest & bit[y]):
            new = [r | bit[k] if up[z] & bit[y] else r
                   for r, z in zip(rows, chosen)]
            new.append(sum(bit[b] for b, z in enumerate(chosen + (y,))
                           if up[y] & bit[z]))
            left = rest & ~bit[y]
            kids.append(([r | (1 << (up[z] & left).bit_count()) - 1
                          for r, z in zip(new, chosen + (y,))], y, new, left))
        for bounds, y, new, left in sorted(kids):
            if best is None or bounds <= best[:k + 1]:
                search(chosen + (y,), new, left)

    search((), [], (1 << m) - 1)
    invs = [tuple(dict(zip(mids, c)).get(p, p) for p in range(n)) for c in found]
    pairs = sorted((tuple(sorted(range(n), key=inv.__getitem__)), inv)
                   for inv in invs)
    inv = pairs[0][1]
    return tuple(leq[x][y] for x in inv for y in inv), tuple(pairs)


def table_key(leq, odot, bot, top):
    """(key, perm): the canonical key of an order and a product on it, with
    the given bounds, and the first relabeling reaching it.

    The tables need not be validated; for an algebra ``A`` this is
    ``canonical_key(A)`` and the relabeling ``canonicalize`` applies.
    """
    bits, pairs = _order_minimizers(leq, bot, top)
    best = best_perm = None
    for perm, inv in pairs:
        vals = tuple(perm[odot[i][j]] for i in inv for j in inv)
        if best is None or vals < best:
            best, best_perm = vals, perm
    return bits + best, best_perm


def _canonical_perm(A):
    """(key, perm): the canonical key and the first relabeling reaching it."""
    return table_key(A.leq, A.odot, A.bot, A.top)


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
    # per table, the entries (u, v) with value r and u, v < r, by r
    above = []
    for ta in tables_a:
        pairs = [[] for _ in range(n)]
        for u, row in enumerate(ta):
            for v, r in enumerate(row):
                if u < r and v < r:
                    pairs[r].append((u, v))
        above.append(pairs)

    def consistent(x):
        """Ids are assigned in order, so 0..x are.  The entries among 0..x-1
        with an assigned value were checked at earlier steps; the new ones
        have row or column x, or value x."""
        y = perm[x]
        for a in range(x + 1):
            if leq_a[x][a] != leq_b[y][perm[a]] or leq_a[a][x] != leq_b[perm[a]][y]:
                return False
        for ta, tb, pairs in zip(tables_a, tables_b, above):
            row_x, row_y = ta[x], tb[y]
            for u in range(x + 1):
                r, s = row_x[u], ta[u][x]
                if r <= x and perm[r] != row_y[perm[u]]:
                    return False
                if s <= x and perm[s] != tb[perm[u]][y]:
                    return False
            for u, v in pairs[x]:
                if tb[perm[u]][perm[v]] != y:
                    return False
        return True

    def extend(x):
        if x == n:
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


"""Canonical labeling of small residuated lattices.

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

    The tables need not be validated; for an algebra ``A`` the key is its
    canonical key and the relabeling the one ``canonicalize`` applies.
    """
    bits, pairs = _order_minimizers(leq, bot, top)
    best = best_perm = None
    for perm, inv in pairs:
        vals = tuple(perm[odot[i][j]] for i in inv for j in inv)
        if best is None or vals < best:
            best, best_perm = vals, perm
    return bits + best, best_perm


def canonicalize(A):
    """Relabel A into its canonical form (labels become e0..e{n-1})."""
    perm = table_key(A.leq, A.odot, A.bot, A.top)[1]
    leq = permute_relation(A.leq, perm)
    odot = permute_table(A.odot, perm)
    labels = tuple(f"e{i}" for i in range(A.size))
    return validate(labels, leq, odot)

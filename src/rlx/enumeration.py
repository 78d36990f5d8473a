"""Exhaustive enumeration of residuated lattices up to isomorphism.

Strategy: enumerate bounded lattices on n canonically-labeled elements
(orders compatible with id order), then complete each with every monoid
table that can residuate.  Since the product must distribute over joins,
it is determined by its values on join-irreducible pairs; we backtrack
over those and extend by joins.  Results are deduplicated by the
minimum-lex canonical key and returned in canonical-key order, so the
output is deterministic.

``_lattice_orders`` yields each lattice once, in its least labeling, by
orderly generation (Read, 1978; the argument is in its docstring).  The
representatives are those of a search over every labeling: every product
on another labeling has an isomorphic copy on the least one, and the
least labeling holds the first table of each class.
Each table is keyed before it is validated, and only the first table of
each key is validated: tables with equal keys are isomorphic, and being
residuated is invariant under isomorphism.

Per lattice order, the bounds, the join-irreducibles, a split x = a | b
of each join-reducible x, the earlier pairs below each irreducible pair
and the join triples where a column can fail to preserve joins are
computed once and shared by every completion.  The search rejects a
table while its irreducible product is still partial, and only where no
completion is a residuated product:

* Monotone bounds: p*q ranges over the interval from the join of the
  values of the earlier pairs below (p, q) up to p meet q.
* Early associativity: once p*q = v is set, (p*q)*r, p*(q*r) and q*(p*r)
  must agree for every irreducible r whose pairs are all set; x*r is the
  join of s*r over the irreducibles s <= x, as it is in every table that
  distributes over joins; the maximal such s alone give the join and the
  unset answer.  Ids are a linear extension and pairs are set in
  lexicographic order, so once (t, r) is set every (s, r) with s < t is
  set (a pinned (1, r) is read only with r's column set), and s*r <= t*r
  by the monotone bounds.
* Unit law: every irreducible p needs an irreducible q >= p with
  p*q = p, checked as soon as p's pairs are set.  When the top is
  join-irreducible its pairs are pinned, p*1 = p, and this always holds.
* Join preservation: once p's pairs are set, x -> x*p must preserve the
  joins x | y that have an irreducible below them and below neither x
  nor y.  Only those can fail, and a distributive lattice has none.

A full assignment is extended to the carrier with one join per entry,
x*y = a*y | b*y for the split of x.  The search is exact: every table it
returns is a residuated product.  Each column x -> x*p preserves joins,
so the one-join completion equals the join over all irreducible pairs
below, and it distributes over joins.  Every irreducible triple is
checked for associativity once the last of its three pairs is set, and
with distributivity that gives associativity.  The monotone bounds give
x*y <= x meet y, and the unit-law check, or the pinned top, gives the
unit.  A table that distributes over joins has a residuum on a finite
lattice.  The prunes cut only subtrees with no residuated product, and
the search keeps the candidate order, so the representatives found are
those of the unpruned search.  ``_generate`` still validates one table
of each class.
"""

from __future__ import annotations

import itertools

from .core import bounds_of, glb_table, lub_table, validate
from .errors import SIZE_CAP, CorpusCountMismatch, SizeCapExceeded
from .iso import table_key

# number of isomorphism classes of each size 1..SIZE_CAP
KNOWN_COUNTS = (1, 1, 2, 7, 26, 129, 723)


def _lattice_orders(n):
    """The least labeling of each lattice on n elements, as (leq, join, meet).

    A labeling puts bot at 0, top at n-1 and is a linear extension; it is
    compared by its bits rel[i][j], middles i < j in lexicographic order,
    False first.  Row i, the j > i above i, is an int with bit m-j for the
    m = n-2 middles, so labelings compare row by row as ints.  Rows are
    tried in increasing order, and no prune cuts a least labeling:

    * Transitivity: row i lies inside the row of each h < i below i.
    * Blocks: the positions j > i that rows < i cannot tell apart are
      intervals, and row i reads 0...01...1 on each.  Else a stable
      partition of a block, the elements not above i first, keeps rows < i
      (they agree across the block) and lowers row i; it is a linear
      extension, as the elements above i are closed upward and labels
      outside the block lie below or above it.  Splitting each block into
      its 0s and 1s keeps the blocks intervals.
    * A full labeling is kept if ``_is_least`` finds no smaller labeling
      and every pair has a join.
    """
    if n == 1:
        yield ((True,),), ((0,),), ((0,),)
        return
    m = n - 2
    up = [0] * (m + 1)

    def rows(i, blocks):
        if i >= m:
            if _is_least(up, m):
                leq = tuple(tuple(x == y or x == 0 or y == n - 1 or
                                  x < y < n - 1 and up[x] >> m - y & 1 == 1
                                  for y in range(n)) for x in range(n))
                join = lub_table(leq)
                if all(v is not None for row in join for v in row):
                    yield leq, join, glb_table(leq)
            return
        below = [h for h in range(1, i) if up[h] >> m - i & 1]
        lows = [b & -b for b in blocks]
        for ts in itertools.product(*(range(b.bit_count() + 1) for b in blocks)):
            up[i] = sum((low << t) - low for low, t in zip(lows, ts))
            if all(up[i] & ~up[h] == 0 for h in below):
                split = [p for b in blocks for p in (b & ~up[i], b & up[i]) if p]
                split[0] &= ~(1 << m - i - 1)
                yield from rows(i + 1, split[1:] if split[0] == 0 else split)

    yield from rows(1, [(1 << m - 1) - 1] if m > 1 else [])


def _is_least(up, m):
    """Whether no labeling of the lattice has smaller rows than ``up``.

    The least labeling reads 0...01...1 on every block, so each position k
    gets an element x minimal in the first block, as a linear extension
    needs, with the elements above x last in each block, which then splits
    into its 0s and 1s.  The search follows each such x, drops it once its
    row exceeds ``up[k]`` and answers False once a row is smaller.
    """
    down = [sum(1 << m - h for h in range(1, x) if up[h] >> m - x & 1)
            for x in range(m + 1)]

    def smaller(k, blocks):
        first = blocks[0]
        for x in range(1, m + 1):
            if not first >> m - x & 1 or down[x] & first:
                continue
            row, low, split = 0, m - k, []
            for block in [first & ~(1 << m - x)] + blocks[1:]:
                above = block & up[x]
                low -= block.bit_count()
                row |= (1 << above.bit_count()) - 1 << low
                split += [part for part in (block & ~above, above) if part]
            if row < up[k] or row == up[k] and k + 1 < m \
                    and smaller(k + 1, split):
                return True
        return False

    return m < 2 or not smaller(1, [(1 << m) - 1])


def _join_splits(join):
    """x -> (a, b) with a, b < x and a | b = x, for each join-reducible x.

    Ids are a linear extension, so every element below x has a smaller id.
    """
    splits = {}
    for x in range(len(join)):
        pair = next(((a, b) for a in range(x) for b in range(a + 1, x)
                     if join[a][b] == x), None)
        if pair is not None:
            splits[x] = pair
    return splits


def _complete_by_splits(join, bot, splits, prod):
    """Extend a product on irreducible pairs to the whole carrier, one join
    per entry: x*y = a*y | b*y for the split x = a | b."""
    n = len(join)
    table = [[bot] * n for _ in range(n)]
    for x in range(n):
        if x == bot:
            continue
        for y in range(x, n):
            if x in splits:
                a, b = splits[x]
                v = join[table[a][y]][table[b][y]]
            elif y in splits:
                a, b = splits[y]
                v = join[table[x][a]][table[x][b]]
            else:
                v = prod[x][y]
            table[x][y] = table[y][x] = v
    return tuple(tuple(row) for row in table)


def _products_on_lattice(leq, join, meet):
    """Every residuated product for one lattice order; ``_generate`` still
    validates the first of each isomorphism class."""
    n = len(leq)
    bot, top = bounds_of(leq)
    splits = _join_splits(join)
    irr_all = [x for x in range(n) if x != bot and x not in splits]
    below = [[p for p in irr_all if leq[p][x]] for x in range(n)]
    maximal = [[p for p in ps if not any(p != s and leq[p][s] for s in ps)]
               for ps in below]
    down = [[v for v in range(n) if leq[v][x]] for x in range(n)]
    irr = [x for x in irr_all if x != top]
    # top acts as unit on irreducibles automatically via extension only if
    # top is join-reducible; when top is irreducible we must pin its pairs.
    pin_top = top in irr_all
    free = [(p, q) for i, p in enumerate(irr) for q in irr[i:]]
    # Monotonicity bounds p*q from below by the join of the earlier pairs
    # below (p, q), in either orientation, and from above by p meet q.  No
    # earlier pair lies above (p, q): ids are a linear extension and pairs
    # go in lexicographic order.  A pinned pair (a, top) = a lies above
    # (p, q) only when a >= p or a >= q, so p meet q bounds v as well.
    lower = [[(a, b) for a, b in free[:k]
              if leq[a][p] and leq[b][q] or leq[a][q] and leq[b][p]]
             for k, (p, q) in enumerate(free)]
    # Join triples (x, y, x | y) with an irreducible below x | y but below
    # neither x nor y.  Elsewhere x -> x*p preserves x | y by construction.
    triples = [(x, y, join[x][y]) for x in range(n) for y in range(x + 1, n)
               if any(not leq[s][x] and not leq[s][y]
                      for s in below[join[x][y]])]
    # block_end[k] = (p, the irreducibles q >= p) once p's block of `free`
    # is assigned: then p's column is complete (ids are a linear extension).
    # a*1 = a for all a iff each irreducible p has an irreducible q >= p with
    # p*q = p: p is join-irreducible and every p*q <= p meet q.  A pinned
    # top is such a q.
    block_end = {}
    k = 0
    for i, p in enumerate(irr):
        k += len(irr) - i
        block_end[k] = (p, irr_all[i:])

    results = []
    prod = [[-1] * n for _ in range(n)]  # -1: pair not assigned yet
    if pin_top:
        for p in irr_all:
            prod[p][top] = prod[top][p] = p

    # x*r on the partial table is the join of s*r over the maximal
    # irreducibles s <= x, as in every product that distributes over joins
    # (module docstring), and unset if one of those s*r is.  `associative`,
    # run on every candidate value, and the column check at a block's end
    # read it inline, without a function call per read.

    def associative(p, q, v):
        """(p*q)*r = p*(q*r) = q*(p*r) for every irreducible r for which
        all the pairs read are set."""
        for r in irr_all:
            left = bot
            for s in maximal[v]:
                w = prod[s][r]
                if w < 0:
                    break
                left = join[left][w]
            else:
                for a, b in ((p, q), (q, p)):
                    br = prod[b][r]
                    if br >= 0:
                        right = bot
                        for s in maximal[br]:
                            w = prod[s][a]
                            if w < 0:
                                break
                            right = join[right][w]
                        else:
                            if right != left:
                                return False
        return True

    def backtrack(k):
        if k in block_end:
            p, above = block_end[k]
            if all(prod[p][q] != p for q in above):
                return
            if triples:
                # p's column is complete: every s*p it reads is set
                col = []
                for below_x in maximal:
                    acc = bot
                    for s in below_x:
                        acc = join[acc][prod[s][p]]
                    col.append(acc)
                if any(col[z] != join[col[x]][col[y]] for x, y, z in triples):
                    return
        if k == len(free):
            results.append(_complete_by_splits(join, bot, splits, prod))
            return
        p, q = free[k]
        lo = bot
        for a, b in lower[k]:
            lo = join[lo][prod[a][b]]
        for v in down[meet[p][q]]:
            if leq[lo][v]:
                prod[p][q] = prod[q][p] = v
                if associative(p, q, v):
                    backtrack(k + 1)
        prod[p][q] = prod[q][p] = -1

    backtrack(0)
    return results


def _generate(n):
    """(canonical key, algebra) pairs, one per isomorphism class of size n,
    sorted by key."""
    found = {}
    labels = tuple(f"e{i}" for i in range(n))
    for leq, join, meet in _lattice_orders(n):
        for odot in _products_on_lattice(leq, join, meet):
            key = table_key(leq, odot, 0, n - 1)[0]
            if key not in found:
                found[key] = validate(labels, leq, odot)
    return sorted(found.items())


def check_size(n):
    """Raise SizeCapExceeded unless the enumerator takes size n."""
    if not 1 <= n <= SIZE_CAP:
        raise SizeCapExceeded(f"size {n} outside 1..{SIZE_CAP}")


def all_algebras(n):
    """Every residuated lattice on n elements, one per isomorphism class,
    in the order of their canonical keys, so the list is deterministic.

    Raises ``SizeCapExceeded`` unless 1 <= n <= SIZE_CAP, and
    ``CorpusCountMismatch`` unless ``KNOWN_COUNTS[n-1]`` classes are found.
    """
    check_size(n)
    found = _generate(n)
    if len(found) != KNOWN_COUNTS[n - 1]:
        raise CorpusCountMismatch(f"size {n}: enumerated {len(found)} "
                                  f"algebras, expected {KNOWN_COUNTS[n - 1]}")
    return [A for _, A in found]

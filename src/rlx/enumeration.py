"""Exhaustive enumeration of residuated lattices up to isomorphism.

Strategy: enumerate bounded lattices on n canonically-labeled elements
(orders compatible with id order), then complete each with every monoid
table that can residuate.  Since the product must distribute over joins,
it is determined by its values on join-irreducible pairs; we backtrack
over those and extend by joins.  Results are deduplicated by the
minimum-lex canonical key and emitted in canonical-key order, so the
output is deterministic.

``_lattice_orders`` yields a lattice once per labeling, and the search
runs on the first labeling of each lattice only.  The representatives do
not change: every product on a later labeling has an isomorphic copy on
the first, the search returns all of them, and the first labeling comes
before every other, so it already holds the first table of each class.
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
  distributes over joins.
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

A corpus cache lives under $RLX_CORPUS_DIR (or ~/.cache/rlx-corpus),
keyed by size and generator version.  A cache file is used only if it
parses into exactly ``KNOWN_COUNTS[n-1]`` valid algebras of size n whose
sorted canonical keys hash to the SHA-256 stored with them; otherwise the
size is regenerated.  A generated size with another count raises instead
of being written, since it would be regenerated wrong on every run.
Files are written to a temporary name and renamed into place.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import tempfile
from pathlib import Path

from .core import bounds_of, glb_table, lub_table, validate
from .errors import SIZE_CAP, CorpusCountMismatch, RlxError, SizeCapExceeded
from .iso import canonical_key, find_isomorphism, table_key

GENERATOR_VERSION = 3
# number of isomorphism classes of each size 1..SIZE_CAP
KNOWN_COUNTS = (1, 1, 2, 7, 26, 129, 723)


def _lattice_orders(n):
    """All lattice orders on 0..n-1 with 0=bot, n-1=top, ids a linear extension.

    Yields (leq, join, meet).  Every isomorphism class shows up at least
    once because every finite lattice admits a linear extension.
    """
    if n == 1:
        yield ((True,),), ((0,),), ((0,),)
        return
    mids = list(range(1, n - 1))
    pairs = [(i, j) for i in mids for j in mids if i < j]
    for bits in itertools.product((False, True), repeat=len(pairs)):
        rel = [[i == j for j in range(n)] for i in range(n)]
        for i in range(n):
            rel[0][i] = True
            rel[i][n - 1] = True
        for (i, j), b in zip(pairs, bits):
            if b:
                rel[i][j] = True
        # transitivity check (ids form a linear extension, so i<j only)
        ok = True
        for i in mids:
            for j in mids:
                if i != j and rel[i][j]:
                    for k in mids:
                        if k != j and rel[j][k] and not rel[i][k]:
                            ok = False
                            break
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            continue
        leq = tuple(tuple(row) for row in rel)
        join = lub_table(leq)
        meet = glb_table(leq)
        if any(v is None for row in join for v in row):
            continue
        if any(v is None for row in meet for v in row):
            continue
        yield leq, join, meet


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

    def times(x, r):
        """x*r on the partial table, or -1 if a pair it reads is unset.

        A residuated product distributes over joins, so there x*r is the
        join of s*r over the irreducibles s <= x."""
        acc = bot
        for s in below[x]:
            w = prod[s][r]
            if w < 0:
                return -1
            acc = join[acc][w]
        return acc

    def associative(p, q, v):
        """(p*q)*r = p*(q*r) = q*(p*r) for every irreducible r for which
        all the pairs read are set."""
        for r in irr_all:
            left = times(v, r)
            if left < 0:
                continue
            for a, b in ((p, q), (q, p)):
                br = prod[b][r]
                if br >= 0:
                    right = times(br, a)
                    if right >= 0 and right != left:
                        return False
        return True

    def backtrack(k):
        if k in block_end:
            p, above = block_end[k]
            if all(prod[p][q] != p for q in above):
                return
            if triples:
                col = [times(x, p) for x in range(n)]
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
    # sorted (down-set size, up-set size) pairs -> the orders searched
    searched = {}
    labels = tuple(f"e{i}" for i in range(n))
    for leq, join, meet in _lattice_orders(n):
        sig = tuple(sorted((sum(row[x] for row in leq), sum(leq[x]))
                           for x in range(n)))
        earlier = searched.setdefault(sig, [])
        if any(find_isomorphism(leq, (), other, ()) is not None
               for other in earlier):
            continue
        earlier.append(leq)
        for odot in _products_on_lattice(leq, join, meet):
            key = table_key(leq, odot, 0, n - 1)[0]
            if key not in found:
                found[key] = validate(labels, leq, odot)
    return sorted(found.items())


def _cache_dir():
    root = os.environ.get("RLX_CORPUS_DIR")
    if root:
        return Path(root)
    return Path.home() / ".cache" / "rlx-corpus"


def _cache_path(n):
    return _cache_dir() / f"v{GENERATOR_VERSION}-n{n}.json"


def _to_json(A):
    return {
        "labels": list(A.labels),
        "leq": [[int(v) for v in row] for row in A.leq],
        "odot": [list(row) for row in A.odot],
    }


def _from_json(obj):
    leq = tuple(tuple(bool(v) for v in row) for row in obj["leq"])
    odot = tuple(tuple(row) for row in obj["odot"])
    return validate(tuple(obj["labels"]), leq, odot)


def _keys_digest(algebras, keys=None):
    """SHA-256 of the sorted canonical keys of a list of algebras, or of
    ``keys`` if the caller has them already."""
    if keys is None:
        keys = [canonical_key(A) for A in algebras]
    return hashlib.sha256(repr(sorted(keys)).encode()).hexdigest()


def _load_cache(path, n):
    """The cached algebras of size n, or None if the file is missing or wrong."""
    try:
        data = json.loads(path.read_text())
        algebras = [_from_json(o) for o in data["algebras"]]
        digest = data["keys_sha256"]
    except (OSError, ValueError, KeyError, TypeError, IndexError, RlxError):
        return None
    if len(algebras) != KNOWN_COUNTS[n - 1] or any(A.size != n for A in algebras):
        return None
    if digest != _keys_digest(algebras):
        return None
    return algebras


def _write_cache(path, algebras, keys):
    """Write through a temporary file, so readers never see a partial file.
    ``keys`` are the canonical keys of ``algebras``."""
    text = json.dumps({"keys_sha256": _keys_digest(algebras, keys),
                       "algebras": [_to_json(A) for A in algebras]})
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".",
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                f.write(text)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError:
        pass  # an unwritable cache only means regenerating next time


def enumerate_algebras(n, emit=None, use_cache=True):
    """Emit every residuated lattice on n elements once up to isomorphism.

    Deterministic order (sorted canonical keys).  Returns the count.
    A fresh enumeration that does not find ``KNOWN_COUNTS[n-1]`` algebras
    raises ``CorpusCountMismatch`` and writes no cache file.
    """
    if not 1 <= n <= SIZE_CAP:
        raise SizeCapExceeded(f"size {n} outside 1..{SIZE_CAP}")
    path = _cache_path(n)
    algebras = _load_cache(path, n) if use_cache else None
    if algebras is None:
        found = _generate(n)
        if len(found) != KNOWN_COUNTS[n - 1]:
            raise CorpusCountMismatch(f"size {n}: enumerated {len(found)} "
                                      f"algebras, expected {KNOWN_COUNTS[n - 1]}")
        algebras = [A for _, A in found]
        if use_cache:
            _write_cache(path, algebras, [key for key, _ in found])
    for A in algebras:
        if emit is not None:
            emit(A)
    return len(algebras)


def all_algebras(n, use_cache=True):
    """List form of :func:`enumerate_algebras`."""
    out = []
    enumerate_algebras(n, out.append, use_cache=use_cache)
    return out


def corpus(max_size, use_cache=True):
    """All algebras of size 1..max_size, concatenated in size order."""
    out = []
    for n in range(1, max_size + 1):
        out.extend(all_algebras(n, use_cache=use_cache))
    return out

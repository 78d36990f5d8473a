"""Exhaustive enumeration of residuated lattices up to isomorphism.

Strategy: enumerate bounded lattices on n canonically-labeled elements
(orders compatible with id order), then complete each with every monoid
table that can residuate.  Since the product must distribute over joins,
it is determined by its values on join-irreducible pairs; we backtrack
over those and extend by joins.  Results are deduplicated by the
minimum-lex canonical key and emitted in canonical-key order, so the
output is deterministic and worker-partitionable.

Per lattice order, the bounds, the join-irreducibles, a split x = a | b
of each join-reducible x and the earlier pairs below each irreducible pair
are computed once and shared by every completion.  The search rejects a
table while its irreducible product is still partial, and only where
every completion would fail the full check:

* Monotone bounds: p*q ranges over the interval from the join of the
  values of the earlier pairs below (p, q) up to p meet q.
* Early associativity: once p*q = v is set, (p*q)*r, p*(q*r) and q*(p*r)
  must agree for every irreducible r whose pairs are all set; x*r is the
  join of s*r over the irreducibles s <= x, as it is in every table that
  distributes over joins.
* Unit law: when the top is join-reducible, every irreducible p needs an
  irreducible q >= p with p*q = p, checked as soon as p's pairs are set.

A full assignment is extended to the carrier with one join per entry,
x*y = a*y | b*y for the split of x.  That table passes the full check
exactly when the join over all irreducible pairs below does, and then the
two are equal.  Every completed table still goes through that check and
through ``validate``, and the search keeps the candidate order, so the
representatives found are those of the unpruned search.

A corpus cache lives under $RLX_CORPUS_DIR (or ~/.cache/rlx-corpus),
keyed by size and generator version.  A cache file is used only if it
parses into exactly ``KNOWN_COUNTS[n-1]`` valid algebras of size n whose
sorted canonical keys hash to the SHA-256 stored with them; otherwise the
size is regenerated.  Files are written to a temporary name and renamed
into place.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import tempfile
from pathlib import Path

from .core import bounds_of, glb_table, lub_table, validate
from .errors import (
    SIZE_CAP,
    AxiomViolation,
    NotResiduated,
    RlxError,
    SizeCapExceeded,
)
from .iso import canonical_key

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
    """All residuated products for one lattice order; unvalidated tables."""
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
    # With top reducible, a*1 = a for all a iff each irreducible p has an
    # irreducible q >= p with p*q = p: p is join-irreducible and every
    # p*q <= p meet q.  Those pairs lie in p's block of `free` (ids are a
    # linear extension), so p is checked once its block is assigned.
    unit_check = {}
    if not pin_top:
        k = 0
        for i, p in enumerate(irr):
            k += len(irr) - i
            unit_check[k] = (p, irr[i:])

    results = []
    prod = [[-1] * n for _ in range(n)]  # -1: pair not assigned yet
    if pin_top:
        for p in irr_all:
            prod[p][top] = prod[top][p] = p

    def times(x, r):
        """x*r on the partial table, or -1 if a pair it reads is unset.

        A table that passes the full check distributes over joins, so there
        x*r is the join of s*r over the irreducibles s <= x."""
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
        if k in unit_check:
            p, above = unit_check[k]
            if all(prod[p][q] != p for q in above):
                return
        if k == len(free):
            table = _complete_by_splits(join, bot, splits, prod)
            if _table_ok(leq, join, meet, table, top):
                results.append(table)
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


def _table_ok(leq, join, meet, odot, top):
    n = len(leq)
    for a in range(n):
        if odot[a][top] != a:
            return False
    for a in range(n):
        for b in range(a, n):
            if not leq[odot[a][b]][meet[a][b]]:
                return False
    for a in range(n):
        for b in range(n):
            ab = odot[a][b]
            for c in range(b, n):
                if odot[ab][c] != odot[a][odot[b][c]]:
                    return False
    # join-distributivity makes the residuum exist on a finite lattice
    for a in range(n):
        for b in range(n):
            for c in range(b, n):
                if odot[a][join[b][c]] != join[odot[a][b]][odot[a][c]]:
                    return False
    return True


def _generate(n):
    found = {}
    for leq, join, meet in _lattice_orders(n):
        for odot in _products_on_lattice(leq, join, meet):
            labels = tuple(f"e{i}" for i in range(n))
            try:
                A = validate(labels, leq, odot)
            except (AxiomViolation, NotResiduated):
                continue
            key = canonical_key(A)
            if key not in found:
                found[key] = A
    return [found[k] for k in sorted(found)]


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


def _keys_digest(algebras):
    """SHA-256 of the sorted canonical keys of a list of algebras."""
    keys = sorted(canonical_key(A) for A in algebras)
    return hashlib.sha256(repr(keys).encode()).hexdigest()


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


def _write_cache(path, algebras):
    """Write through a temporary file, so readers never see a partial file."""
    text = json.dumps({"keys_sha256": _keys_digest(algebras),
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
    """
    if not 1 <= n <= SIZE_CAP:
        raise SizeCapExceeded(f"size {n} outside 1..{SIZE_CAP}")
    path = _cache_path(n)
    algebras = _load_cache(path, n) if use_cache else None
    if algebras is None:
        algebras = _generate(n)
        if use_cache:
            _write_cache(path, algebras)
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

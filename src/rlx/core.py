"""Finite residuated lattices: validation and element classes.

A residuated lattice here is a bounded lattice carrying a commutative
monoid (odot, top) tied to the order by the residuation law
a*b <= c  iff  a <= b->c.  Elements are 0-based ids; labels are cosmetic.
All operations in this module are pure; a validated algebra is immutable
and freely shareable.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from .errors import AxiomViolation, InvalidArgument, NotResiduated

Table = tuple  # n x n tuple-of-tuples of element ids
Relation = tuple  # n x n tuple-of-tuples of bools


class Record:
    """Base of the immutable value classes: a frozen dataclass without the
    cost of importing `dataclasses` and building each class.

    A subclass names its fields once, in order, as `__slots__`, so a
    record has no dict per instance.  It is built from its fields by
    position or by name, strictly (TypeError), and is read-only.  Records
    of one class are equal when their fields are, hash as their field
    tuple and show as `Class(field=value, ...)`.  A subclass with its own
    constructor hands its fields to this one or sets them with `_set`;
    one that stores more than its fields defines its own `__hash__` and
    `__repr__`, and `__eq__` unless what it stores follows from them.
    """

    __slots__ = ()

    _set = object.__setattr__

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs:
            args += tuple(kwargs.pop(k) for k in names[len(args):] if k in kwargs)
        if len(args) != len(names) or kwargs:
            raise TypeError(f"{type(self).__qualname__} takes the fields "
                            f"{', '.join(names)}")
        for name, value in zip(names, args):
            self._set(name, value)

    def _fields(self):
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class ResiduatedLattice(Record):
    """Validated finite residuated lattice.

    Do not build directly; go through :func:`validate`, which checks every
    axiom exhaustively.

    An algebra is its tables: equality and hash are those of `leq` and
    `odot`, which determine the other tables of a validated algebra.
    `labels` names the elements for input and output only, so a relabeled
    copy equals the algebra it copies, and every cache keyed by an
    algebra holds one answer per table pair, computed on the first copy
    asked.  Only the algebra a caller built is read for labels: an answer
    that holds an algebra (a quotient, a reticulation) may hold another
    copy.  Derived algebras are built with labels=None
    and show their ids.  The hash is computed once, holds only bools and
    ints, so it does not depend on the process's string-hash seed, and
    `validate` shares equal tables, so identity mostly decides equality.
    """

    def __init__(self, labels: tuple, leq: Relation, join: Table,
                 meet: Table, odot: Table, imp: Table, bot: int, top: int):
        self._set("labels", labels)
        self._set("leq", leq)
        self._set("join", join)
        self._set("meet", meet)
        self._set("odot", odot)
        self._set("imp", imp)
        self._set("bot", bot)
        self._set("top", top)
        self._set("size", len(labels))
        self._set("_hash", hash((leq, odot)))
        self._set("_elements", _element_range(len(labels)))

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.leq is other.leq or self.leq == other.leq)
                and (self.odot is other.odot or self.odot == other.odot))

    def __hash__(self):
        return self._hash

    def elements(self):
        """range(size), the one range every algebra of this size shares."""
        return self._elements

    def neg(self, a):
        return self.imp[a][self.bot]

    def bires(self, a, b):
        """Biresiduum d(a, b) = (a->b) & (b->a)."""
        return self.meet[self.imp[a][b]][self.imp[b][a]]

    def power(self, a, n):
        """a**n with the convention a**0 = top."""
        acc = self.top
        for _ in range(n):
            acc = self.odot[acc][a]
        return acc

    @cached_property
    def power_limits(self):
        """The power limit a^w of every element a, by id, computed once
        per algebra: the stationary value of the decreasing sequence a,
        a^2, a^3, ..., reached within `size` steps."""
        return tuple(self.power(a, self.size) for a in self.elements())

    def __repr__(self):
        return f"ResiduatedLattice({','.join(self.labels)})"


@lru_cache(maxsize=None)
def _element_range(n):
    """range(n), built once per size: `elements()` is called tens of
    thousands of times per matrix run, on algebras of a few sizes."""
    return range(n)


@lru_cache(maxsize=None)
def _id_labels(n):
    """The ids 0..n-1 as labels, built once per size: the labels of every
    derived algebra of that size."""
    return tuple(map(str, range(n)))


class ElementClassReport(Record):
    """The element classes of an algebra, each a frozenset of element ids,
    and its structural predicates, each a bool."""

    __slots__ = ("boolean_center", "idempotents", "regulars", "nilpotents",
                 "archimedeans", "is_godel", "is_involutive", "is_chain",
                 "is_distributive", "is_hyperarchimedean")


def _check_square(name, table, n):
    """Raise unless `table` is n x n with int entries in range(n).  Returns
    whether every entry is a plain int: a bool passes the check, but a
    table holding one is not interchangeable with the equal int table."""
    if len(table) != n or any(len(row) != n for row in table):
        raise AxiomViolation("table-dimension", (name, n))
    plain = True
    for i, row in enumerate(table):
        for j, v in enumerate(row):
            if v.__class__ is not int:
                if not isinstance(v, int):
                    raise AxiomViolation("table-entry", (name, i, j))
                plain = False
            if not 0 <= v < n:
                raise AxiomViolation("table-entry", (name, i, j))
    return plain


def _check_order(leq, n):
    for a in range(n):
        if not leq[a][a]:
            raise AxiomViolation("reflexivity", (a,))
    for a in range(n):
        for b in range(n):
            if a != b and leq[a][b] and leq[b][a]:
                raise AxiomViolation("antisymmetry", (a, b))
    for a in range(n):
        for b in range(n):
            if not leq[a][b]:
                continue
            for c in range(n):
                if leq[b][c] and not leq[a][c]:
                    raise AxiomViolation("transitivity", (a, b, c))


def bounds_of(leq):
    """(bot, top) of a partial order, or AxiomViolation if either is missing."""
    n = len(leq)
    bots = [a for a in range(n) if all(leq[a][b] for b in range(n))]
    tops = [a for a in range(n) if all(leq[b][a] for b in range(n))]
    if len(bots) != 1:
        raise AxiomViolation("bot-minimum", tuple(bots))
    if len(tops) != 1:
        raise AxiomViolation("top-maximum", tuple(tops))
    return bots[0], tops[0]


def _row_masks(rel):
    """Row i of a relation as a bitmask: bit j is set iff rel[i][j]."""
    return [sum(1 << j for j, v in enumerate(row) if v) for row in rel]


def _bound_table(masks):
    """Entry (a, b) is the c with masks[c] == masks[a] & masks[b], else None."""
    where = {m: c for c, m in enumerate(masks)}
    return tuple(tuple(where.get(ma & mb) for mb in masks) for ma in masks)


def lub_table(leq):
    """Least-upper-bound table of a partial order; None entries where no lub.

    The upper bounds of a and b have a least element c exactly when they
    are the up-set of c, so with up-sets as bitmasks each entry is one dict
    lookup.  `leq` must be a partial order: antisymmetry makes the up-sets
    distinct.  Every caller passes one: `_validate_lattice` runs
    `_check_order` first, and `_lattice_orders` only labels transitive
    relations on a linear extension.
    """
    return _bound_table(_row_masks(leq))


def glb_table(leq):
    """Greatest-lower-bound table of a partial order, dually via down-sets;
    the same callers, with the same precondition, as :func:`lub_table`."""
    return _bound_table(_row_masks(zip(*leq)))


def _covering_pairs(down):
    """The covering pairs (c, d), d a lower cover of c, with c along a
    linear extension; `down` holds the down-sets of a partial order as
    bitmasks.

    d < c gives |down(d)| < |down(c)|, so sorting by down-set size gives
    a linear extension whatever the ids.  The lower covers of c are the
    elements strictly below c that lie strictly below no other element
    strictly below c: n^2 bit operations in all."""
    n = len(down)
    strict = [m & ~(1 << c) for c, m in enumerate(down)]
    pairs = []
    for c in sorted(range(n), key=lambda c: down[c].bit_count()):
        below = strict[c]
        covered = 0
        for d in range(n):
            if below >> d & 1:
                covered |= strict[d]
        lower = below & ~covered
        pairs.extend((c, d) for d in range(n) if lower >> d & 1)
    return tuple(pairs)


def _residual_masks(covers, odot):
    """good[b][c], the bitmask of the a with a*b <= c, for every pair;
    `covers` holds the covering pairs along a linear extension
    (:func:`_covering_pairs`).

    Column b of the product is sorted by value once: bit a goes into the
    mask of the value a*b.  Every d < c lies below a lower cover of c, so
    good[b][c] is that mask of c joined with good[b][d] over the lower
    covers d of c.  Along a linear extension each good[b][d] is complete
    before a pair (c, d) reads it, so the masks are built in place:
    n^2 (1 + covers) operations, where the union over the whole down-set
    of c takes n^2 |down(c)|."""
    good = []
    n = len(odot)
    for column in zip(*odot):
        masks = [0] * n
        for a, v in enumerate(column):
            masks[v] |= 1 << a
        for c, d in covers:
            masks[c] |= masks[d]
        good.append(masks)
    return good


def _residuum(good, down):
    """(imp, exact): imp(b, c) is the maximum of good[b][c], the a whose
    down-set contains good[b][c] and lies in it.  When good[b][c] is a
    down-set, one lookup gives it; otherwise the elements are scanned.
    Raises NotResiduated(b, c) at the first pair, in row order, with no
    maximum.

    `exact` says whether every lookup hit.  A hit finds good[b][c] ==
    down[imp(b, c)], which is the residuation law at (b, c); a scanned
    entry is not a down-set, so there the law fails."""
    n = len(down)
    where = {m: a for a, m in enumerate(down)}
    imp = []
    exact = True
    for b, masks in enumerate(good):
        row = [where.get(g) for g in masks]
        if None in row:
            exact = False
            for c, g in enumerate(masks):
                if row[c] is None:
                    row[c] = next((a for a in range(n) if g >> a & 1
                                   and not g & ~down[a]), None)
                    if row[c] is None:
                        raise NotResiduated(b, c)
        imp.append(tuple(row))
    return tuple(imp), exact


def validate(labels, leq, odot, imp=None):
    """Check every residuated-lattice axiom exhaustively and build the algebra.

    `imp` may be omitted, in which case it is derived from the order and the
    monoid; when both given and derivable they must agree bit-exactly.  The
    join and meet are the lub/glb of `leq`.  `labels` None names each
    element by its id.
    Raises AxiomViolation with the first failing witness in element order.

    The two stages are memoized: the lattice checks by the order, the
    residuated checks by (leq, odot).  Each distinct input is checked once,
    and a failure is never stored, so it raises again on every call.  The
    algebra holds the tables the memos keep as keys, so algebras with equal
    tables share them instead of holding copies; a given `imp` is shared
    once it equals the stored derived one.  1, 1.0 and True hash alike, so
    a table is looked up only after its entries have passed the type and
    range check, and one holding a bool is checked without the memo and
    keeps its own objects.
    """
    labels, leq = _normalized(labels, leq)
    leq, bot, top, lub, glb = _validate_lattice(leq)[:5]
    n = len(labels)
    odot = tuple(tuple(row) for row in odot)
    plain = _check_square("odot", odot, n)
    if imp is not None:
        imp = tuple(tuple(row) for row in imp)
        try:
            plain = _check_square("imp", imp, n) and plain
        except AxiomViolation:
            # the uncached checks raise what they meet first: a monoid
            # fault, else this one
            _validate_residuated.__wrapped__(leq, odot, imp)
            raise
    shared = None
    if plain:
        try:
            shared = _validate_residuated(leq, odot, None)
        except AxiomViolation:
            if imp is None:
                raise
    if shared is not None and (imp is None or imp == shared[1]):
        odot, imp = shared
    else:
        # a table with a bool entry keeps its own objects; a given imp
        # that is not the stored residuum fails, at the witness it meets
        # first in the uncached checks
        odot, imp = _validate_residuated.__wrapped__(leq, odot, imp)
    return ResiduatedLattice(labels, leq, lub, glb, odot, imp, bot, top)


def _normalized(labels, leq):
    """Labels as strings, the ids when None, and `leq` as an n x n tuple
    of bools, n >= 1."""
    labels = (_id_labels(len(leq)) if labels is None
              else tuple(map(str, labels)))
    n = len(labels)
    if n == 0:
        raise AxiomViolation("table-dimension", ("labels", 0))
    leq = tuple([tuple(map(bool, row)) for row in leq])
    if len(leq) != n or any(len(r) != n for r in leq):
        raise AxiomViolation("table-dimension", ("leq", n))
    return labels, leq


@lru_cache(maxsize=None)
def _validate_lattice(leq):
    """The bounded-lattice part of :func:`validate` on a normalized order:
    order axioms, bounds, and a lub and glb for every pair.  Returns
    (leq, bot, top, join, meet, irreducibles, covers, down), with the `leq`
    it is keyed by and what the residuated stage reads of the order:
    `down` the down-sets as bitmasks and `covers` the covering pairs along
    a linear extension (:func:`_covering_pairs`)."""
    n = len(leq)
    _check_order(leq, n)
    bot, top = bounds_of(leq)

    lub = lub_table(leq)
    glb = glb_table(leq)
    for a in range(n):
        for b in range(n):
            if lub[a][b] is None:
                raise AxiomViolation("join-lub", (a, b))
            if glb[a][b] is None:
                raise AxiomViolation("meet-glb", (a, b))
    down = tuple(_row_masks(zip(*leq)))
    # x is join-irreducible iff the elements below it, x aside, have a
    # maximum: they form a principal down-set (bot's is empty)
    principal = set(down)
    irreducibles = tuple(x for x in range(n) if down[x] ^ 1 << x in principal)
    return leq, bot, top, lub, glb, irreducibles, _covering_pairs(down), down


@lru_cache(maxsize=None)
def _validate_residuated(leq, odot, imp):
    """The residuated part of :func:`validate` on an order that
    :func:`_validate_lattice` has checked and an `odot` that has passed
    the table check: the monoid, the residuum and the residuation law.
    Returns (odot, imp), the checked tables, with `imp` derived when None.

    Each check raises at the witness the plain loop over the elements in
    order would meet first; whole tables are compared before any scan.

    With the join and meet the lub/glb of `leq`, the law, the unit law and
    commutativity imply a*b <= a&b, a*(b|c) = a*b | a*c and a*!a = 0, so
    none of the three is checked:
    - d*a <= d*a gives d <= a->(d*a), so x -> x*a is monotone; hence
      a*b <= a*1 = a, and likewise a*b <= b;
    - a*b, a*c <= d gives b, c <= a->d, hence b|c <= a->d and
      a*(b|c) <= d; monotony gives the other inequality;
    - a->0 <= a->0 gives (a->0)*a <= 0.
    So * preserves joins in each argument, 0 included (a*0 <= 0), and
    every element is the join of the join-irreducibles below it (0 of
    none): associativity holds if it holds on irreducible triples, and is
    checked last, on those only.  It comes first in the order of errors:
    when the law or an irreducible triple fails, the n^3 loop runs first."""
    n = len(leq)
    _, _, top, _, _, irreducibles, covers, down = _validate_lattice(leq)
    if tuple(zip(*odot)) != odot:
        bad = next((a, b) for a in range(n) for b in range(n)
                   if odot[a][b] != odot[b][a])
        raise AxiomViolation("monoid-commutativity", bad)
    if tuple(row[top] for row in odot) != tuple(range(n)):
        bad = next(a for a in range(n) if odot[a][top] != a)
        raise AxiomViolation("monoid-unit", (bad,))
    try:
        good = _residual_masks(covers, odot)
        derived, exact = None, False
        try:
            derived, exact = _residuum(good, down)
        except NotResiduated:
            pass
        if imp is None:
            if derived is None:
                raise AxiomViolation("residuation", ("no-residuum",))
            imp = derived
        else:
            _check_square("imp", imp, n)
            if derived is not None and imp != derived:
                bad = next((a, b) for a in range(n) for b in range(n)
                           if imp[a][b] != derived[a][b])
                raise AxiomViolation("implication-mismatch", bad)

        # The law itself: a*b <= c  iff  a <= b->c, for all triples, is
        # good[b][c] == down[b->c] for all pairs.  When every lookup of
        # `_residuum` hit, that holds for the derived table, and a given
        # `imp` got here only if equal to it.  Otherwise some good[b][c]
        # is no down-set, and the law fails.  The witness is the least a,
        # then the least (b, c): the first triple in a-b-c order.
        if not exact:
            diff = [[g ^ down[x] for g, x in zip(masks, row)]
                    for masks, row in zip(good, imp)]
            a = min((d & -d).bit_length() - 1 for row in diff for d in row if d)
            b, c = next((b, c) for b in range(n) for c in range(n)
                        if diff[b][c] >> a & 1)
            raise AxiomViolation("residuation", (a, b, c))
        _check_associative(odot, irreducibles)
    except AxiomViolation:
        _check_associative(odot, range(n))
        raise
    return odot, imp


def _check_associative(odot, ids):
    """Raise at the first (a, b, c) over `ids`, increasing ids, in a-b-c
    order, with (a*b)*c != a*(b*c), for a commutative `odot`.

    Only c > a is scanned.  With * commutative, (c*b)*a = a*(b*c) and
    c*(b*a) = (a*b)*c: (c, b, a) compares the same two values as
    (a, b, c), so one fails iff the other does.  A failing (a, b, c) with
    c < a follows the failing (c, b, a) in a-b-c order, so the first
    failing triple has a <= c.  And (a, b, a) never fails: both sides
    equal a*(a*b).  So the witness is that of the full scan."""
    ids = tuple(ids)
    for i, a in enumerate(ids):
        row_a = odot[a]
        tail = ids[i + 1:]
        for b in ids:
            row_ab = odot[row_a[b]]
            row_b = odot[b]
            for c in tail:
                if row_ab[c] != row_a[row_b[c]]:
                    raise AxiomViolation("monoid-associativity", (a, b, c))


def leq_from_covers(n, covers):
    """Reflexive-transitive closure of a covering relation as a leq matrix."""
    leq = [[i == j for j in range(n)] for i in range(n)]
    for lo, hi in covers:
        leq[lo][hi] = True
    changed = True
    while changed:
        changed = False
        for a in range(n):
            for b in range(n):
                if not leq[a][b]:
                    continue
                for c in range(n):
                    if leq[b][c] and not leq[a][c]:
                        leq[a][c] = True
                        changed = True
    return tuple(tuple(row) for row in leq)


def covers_of(leq):
    """Covering pairs (lo, hi) of a validated lattice order, in id order,
    read off :func:`_validate_lattice`."""
    return sorted((d, c) for c, d in _validate_lattice(leq)[6])


@lru_cache(maxsize=None)
def shared_set(value):
    """The one stored value equal to `value`: a frozenset of element ids,
    a tuple of the rows or verdicts the theorem matrix decides once per
    filter signature, or a `filters.Signature`, whose algebra, the first
    seen with it, represents every algebra that has it.

    Element classes repeat from algebra to algebra: on n elements each
    is one of at most 2^n sets.  The matrix's shared rows
    and verdicts repeat across signatures.  So they share one object per
    distinct value, and the store grows with the values, not with the
    algebras."""
    return value


@lru_cache(maxsize=None)
def classify(A):
    """Element classes and structural predicates of a validated algebra."""
    n, els, bot = A.size, A.elements(), A.bot
    neg = [row[bot] for row in A.imp]
    w = A.power_limits
    idem = shared_set(frozenset(a for a in els if A.odot[a][a] == a))
    boolean = shared_set(frozenset(a for a in els if A.join[a][neg[a]] == A.top
                                   and A.meet[a][neg[a]] == bot))
    reg = shared_set(frozenset(a for a in els if neg[neg[a]] == a))
    nil = shared_set(frozenset(a for a in els if w[a] == bot))
    arch = shared_set(frozenset(a for a in els if w[a] in boolean))
    # an order relates each pair a != b at most one way, so it is a chain
    # iff it holds n(n+1)/2 pairs
    is_chain = sum(map(sum, A.leq)) == n * (n + 1) // 2
    is_distributive = distributivity_witness(A.leq) is None
    return ElementClassReport(
        boolean_center=boolean,
        idempotents=idem,
        regulars=reg,
        nilpotents=nil,
        archimedeans=arch,
        is_godel=idem == frozenset(A.elements()),
        is_involutive=reg == frozenset(A.elements()),
        is_chain=is_chain,
        is_distributive=is_distributive,
        is_hyperarchimedean=arch == frozenset(A.elements()),
    )


@lru_cache(maxsize=None)
def distributivity_witness(leq):
    """First (a, b, c) with a&(b|c) != (a&b)|(a&c), or None, for a
    normalized order that :func:`_validate_lattice` accepts.

    A finite lattice is distributive iff every join-irreducible j is
    join-prime: j <= b|c implies j <= b or j <= c.  That is, the elements
    not above j are closed under joins, or their join m is not above j:
    one pass per irreducible.  Only a lattice that fails runs the O(n^3)
    scan, for the first triple.
    Distributivity depends on the order alone, so it is decided once per
    order, for `classify` and `dlattice.validate_bdl` alike."""
    _, bot, _, join, meet, irreducibles = _validate_lattice(leq)[:6]
    for j in irreducibles:
        m = bot
        for x, above in enumerate(leq[j]):
            if not above:
                m = join[m][x]
        if leq[j][m]:
            break
    else:
        return None
    n = len(leq)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if meet[a][join[b][c]] != join[meet[a][b]][meet[a][c]]:
                    return (a, b, c)
    return None


def upset_algebra(A, e):
    """The residuated lattice on [e) for Boolean e, with a ->_e b = e | (a->b).

    [0) is all of A and 0 | (a->b) = a->b, so e = 0 gives A itself."""
    if e not in classify(A).boolean_center:
        raise InvalidArgument(f"element {A.labels[e]} is not Boolean")
    if e == A.bot:
        return A
    carrier = [x for x in A.elements() if A.leq[e][x]]
    index = {x: i for i, x in enumerate(carrier)}
    labels = tuple(A.labels[x] for x in carrier)
    leq = tuple(tuple(A.leq[x][y] for y in carrier) for x in carrier)
    odot = tuple(tuple(index[A.odot[x][y]] for y in carrier) for x in carrier)
    imp = tuple(tuple(index[A.join[e][A.imp[x][y]]] for y in carrier)
                for x in carrier)
    return validate(labels, leq, odot, imp)

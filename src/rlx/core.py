"""Finite residuated lattices: validation, element classes, constructors.

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

    A subclass's fields are the instance attributes its `__init__` sets,
    in order, with `_set`; plain assignment raises AttributeError.
    Records of the same class are equal when their fields are, hash as
    the tuple of their fields and show as `Class(field=value, ...)`.  A
    subclass that stores anything besides its fields defines its own
    `__eq__`, `__hash__` and `__repr__`.
    """

    # object.__setattr__, as a frozen dataclass uses it, keeps the fields
    # in the instance's compact attribute store; writing them through
    # self.__dict__ would build a full dict per instance, twice the memory
    _set = object.__setattr__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class ResiduatedLattice(Record):
    """Validated finite residuated lattice.

    Do not build directly; go through :func:`validate` (or a constructor
    below), which checks every axiom exhaustively.

    Algebras key many caches (`classify`, `quotient`, filters), so the
    hash is computed once, here, instead of re-hashing every table on each
    lookup.  It covers `leq` and `odot`, which determine the other tables
    of a validated algebra, and holds only bools and ints, so it does not
    depend on the process's string-hash seed.  Equality still compares
    every field.  Algebras with equal tables and other labels (a quotient,
    a reticulation and the algebra they mirror) share a hash, so equality
    tests identity and then the labels before any table.
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
        self._set("_hash", hash((leq, odot)))

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.labels == other.labels and self.bot == other.bot
                and self.top == other.top and self.leq == other.leq
                and self.odot == other.odot and self.join == other.join
                and self.meet == other.meet and self.imp == other.imp)

    def __hash__(self):
        return self._hash

    @property
    def size(self):
        return len(self.labels)

    def elements(self):
        return range(len(self.labels))

    def le(self, a, b):
        return self.leq[a][b]

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
    def _power_limits(self):
        return tuple(self.power(a, self.size) for a in self.elements())

    def power_limit(self, a):
        """Stationary value of the decreasing sequence a, a^2, a^3, ...

        Reached within `size` steps on a finite algebra; computed once per
        algebra for every element.
        """
        return self._power_limits[a]

    def is_nilpotent(self, a):
        return self.power_limit(a) == self.bot

    def label_of(self, a):
        return self.labels[a]

    def __repr__(self):
        return f"ResiduatedLattice({','.join(self.labels)})"


class ElementClassReport(Record):
    def __init__(self, boolean_center: frozenset, idempotents: frozenset,
                 regulars: frozenset, nilpotents: frozenset,
                 archimedeans: frozenset, is_godel: bool,
                 is_involutive: bool, is_chain: bool, is_distributive: bool,
                 is_hyperarchimedean: bool):
        self._set("boolean_center", boolean_center)
        self._set("idempotents", idempotents)
        self._set("regulars", regulars)
        self._set("nilpotents", nilpotents)
        self._set("archimedeans", archimedeans)
        self._set("is_godel", is_godel)
        self._set("is_involutive", is_involutive)
        self._set("is_chain", is_chain)
        self._set("is_distributive", is_distributive)
        self._set("is_hyperarchimedean", is_hyperarchimedean)


def _check_square(name, table, n):
    if len(table) != n or any(len(row) != n for row in table):
        raise AxiomViolation("table-dimension", (name, n))
    for i, row in enumerate(table):
        for j, v in enumerate(row):
            if not isinstance(v, int) or not 0 <= v < n:
                raise AxiomViolation("table-entry", (name, i, j))


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
    `_check_order` first, and `_lattice_orders` and the fixtures build
    orders.
    """
    return _bound_table(_row_masks(leq))


def glb_table(leq):
    """Greatest-lower-bound table of a partial order, dually via down-sets;
    the same callers, with the same precondition, as :func:`lub_table`."""
    return _bound_table(_row_masks(zip(*leq)))


def derive_implication(leq, odot):
    """Residuum table forced by the order and the monoid.

    imp(b, c) is the maximum of good = {a : a*b <= c}, the a in good whose
    down-set contains good (both as bitmasks); raises NotResiduated(b, c) at
    the first (b, c), in row order, where good has no maximum.  `leq` must
    be a partial order.  The caller still has to run :func:`validate`,
    which re-checks the full residuation equivalence.
    """
    n = len(leq)
    down = _row_masks(zip(*leq))
    imp = []
    for b in range(n):
        col = [odot[a][b] for a in range(n)]
        row = []
        for c in range(n):
            below = down[c]
            good = sum(1 << a for a in range(n) if below >> col[a] & 1)
            top = next((a for a in range(n)
                        if good >> a & 1 and not good & ~down[a]), None)
            if top is None:
                raise NotResiduated(b, c)
            row.append(top)
        imp.append(tuple(row))
    return tuple(imp)


def validate(labels, leq, odot, imp=None, join=None, meet=None):
    """Check every residuated-lattice axiom exhaustively and build the algebra.

    `imp` may be omitted, in which case it is derived from the order and the
    monoid; when both given and derivable they must agree bit-exactly.
    `join`/`meet` likewise default to the lub/glb of `leq`.
    Raises AxiomViolation with the first failing witness in element order.

    The two stages are memoized: the lattice checks by the order, the
    residuated checks by (leq, odot, imp).  Each distinct input is checked
    once, and a failure is never stored, so it raises again on every call.
    1, 1.0 and True hash alike, so a table is looked up only after its
    entries have passed the type and range check.
    """
    labels, leq = _normalized(labels, leq)
    bot, top, lub, glb = _validate_lattice(leq)
    n = len(labels)
    for name, axiom, given, bound in (("join", "join-lub", join, lub),
                                      ("meet", "meet-glb", meet, glb)):
        if given is not None:
            given = tuple(tuple(row) for row in given)
            _check_square(name, given, n)
            if given != bound:
                bad = next((a, b) for a in range(n) for b in range(n)
                           if given[a][b] != bound[a][b])
                raise AxiomViolation(axiom, bad)
    odot = tuple(tuple(row) for row in odot)
    _check_square("odot", odot, n)
    if imp is None:
        imp = _validate_residuated(leq, odot, None)
    else:
        imp = tuple(tuple(row) for row in imp)
        try:
            _check_square("imp", imp, n)
        except AxiomViolation:
            # the uncached checks raise what they meet first: a monoid
            # fault, else this one
            _validate_residuated.__wrapped__(leq, odot, imp)
            raise
        _validate_residuated(leq, odot, imp)
    return ResiduatedLattice(labels, leq, lub, glb, odot, imp, bot, top)


def _normalized(labels, leq):
    """Labels as strings and `leq` as an n x n tuple of bools, n >= 1."""
    labels = tuple(str(x) for x in labels)
    n = len(labels)
    if n == 0:
        raise AxiomViolation("table-dimension", ("labels", 0))
    leq = tuple(tuple(bool(v) for v in row) for row in leq)
    if len(leq) != n or any(len(r) != n for r in leq):
        raise AxiomViolation("table-dimension", ("leq", n))
    return labels, leq


@lru_cache(maxsize=None)
def _validate_lattice(leq):
    """The bounded-lattice part of :func:`validate` on a normalized order:
    order axioms, bounds, and a lub and glb for every pair.  Returns
    (bot, top, join, meet)."""
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
    return bot, top, lub, glb


@lru_cache(maxsize=None)
def _validate_residuated(leq, odot, imp):
    """The residuated part of :func:`validate` on an order that
    :func:`_validate_lattice` has checked and an `odot` that has passed
    the table check: the monoid, the residuum and the residuation law with
    its derived facts.  Returns the checked `imp`, derived when None."""
    n = len(leq)
    bot, top, join, meet = _validate_lattice(leq)
    for a in range(n):
        for b in range(n):
            if odot[a][b] != odot[b][a]:
                raise AxiomViolation("monoid-commutativity", (a, b))
    for a in range(n):
        if odot[a][top] != a:
            raise AxiomViolation("monoid-unit", (a,))
    for a in range(n):
        for b in range(n):
            ab = odot[a][b]
            for c in range(n):
                if odot[ab][c] != odot[a][odot[b][c]]:
                    raise AxiomViolation("monoid-associativity", (a, b, c))

    derived = None
    try:
        derived = derive_implication(leq, odot)
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

    # The law itself: a*b <= c  iff  a <= b->c, checked on all triples.
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if leq[odot[a][b]][c] != leq[a][imp[b][c]]:
                    raise AxiomViolation("residuation", (a, b, c))

    # Derived facts every residuated lattice must satisfy; cheap insurance
    # against table typos that happen to pass the law on the given imp.
    for a in range(n):
        for b in range(n):
            if not leq[odot[a][b]][meet[a][b]]:
                raise AxiomViolation("odot-below-meet", (a, b))
            for c in range(n):
                if odot[a][join[b][c]] != join[odot[a][b]][odot[a][c]]:
                    raise AxiomViolation("odot-join-distributivity", (a, b, c))
    for a in range(n):
        if odot[a][imp[a][bot]] != bot:
            raise AxiomViolation("odot-negation-bottom", (a,))
    return imp


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
    """Covering pairs (lo, hi) of a partial order, in id order."""
    n = len(leq)
    out = []
    for a in range(n):
        for b in range(n):
            if a == b or not leq[a][b]:
                continue
            if any(c != a and c != b and leq[a][c] and leq[c][b] for c in range(n)):
                continue
            out.append((a, b))
    return out


@lru_cache(maxsize=None)
def classify(A):
    """Element classes and structural predicates of a validated algebra."""
    n = A.size
    boolean = frozenset(
        a for a in A.elements()
        if A.join[a][A.neg(a)] == A.top and A.meet[a][A.neg(a)] == A.bot
    )
    idem = frozenset(a for a in A.elements() if A.odot[a][a] == a)
    reg = frozenset(a for a in A.elements() if A.neg(A.neg(a)) == a)
    nil = frozenset(a for a in A.elements() if A.power_limit(a) == A.bot)
    arch = frozenset(a for a in A.elements() if A.power_limit(a) in boolean)
    is_chain = all(A.leq[a][b] or A.leq[b][a]
                   for a in range(n) for b in range(a + 1, n))
    is_distributive = distributivity_witness(A.leq, A.join, A.meet) is None
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


def distributivity_witness(leq, join, meet):
    """First (a, b, c) with a&(b|c) != (a&b)|(a&c), or None."""
    n = len(leq)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if meet[a][join[b][c]] != join[meet[a][b]][meet[a][c]]:
                    return (a, b, c)
    return None


def complemented_elements(A):
    """{a : some y has a|y = top and a&y = bot}; equals the Boolean center."""
    out = set()
    for a in A.elements():
        for y in A.elements():
            if A.join[a][y] == A.top and A.meet[a][y] == A.bot:
                out.add(a)
                break
    return frozenset(out)


# ---------------------------------------------------------------------------
# Constructors


def boolean_algebra(n_atoms):
    """The 2^n_atoms-element Boolean algebra as a residuated lattice.

    Every Boolean algebra residuates in exactly one way: odot = meet and
    a->b = complement(a) | b.
    """
    if n_atoms < 0:
        raise InvalidArgument("n_atoms must be >= 0")
    atoms = [chr(ord("a") + i) for i in range(n_atoms)]
    masks = sorted(range(1 << n_atoms), key=lambda m: (bin(m).count("1"), m))
    index = {m: i for i, m in enumerate(masks)}
    full = (1 << n_atoms) - 1

    def name(m):
        if m == 0:
            return "0"
        if m == full:
            return "1"
        return "".join(atoms[i] for i in range(n_atoms) if m >> i & 1)

    labels = [name(m) for m in masks]
    n = len(masks)
    leq = tuple(tuple((masks[i] & masks[j]) == masks[i] for j in range(n))
                for i in range(n))
    meet = tuple(tuple(index[masks[i] & masks[j]] for j in range(n))
                 for i in range(n))
    imp = tuple(tuple(index[(full & ~masks[i]) | masks[j]] for j in range(n))
                for i in range(n))
    return validate(labels, leq, meet, imp)


def _chain_leq(n):
    return tuple(tuple(i <= j for j in range(n)) for i in range(n))


def _chain_labels(n):
    if n == 1:
        return ("0",)
    inner = [f"x{i}" for i in range(1, n - 1)]
    return tuple(["0"] + inner + ["1"])


def godel_chain(n):
    """n-element chain with odot = meet (a Goedel algebra)."""
    if n < 1:
        raise InvalidArgument("n must be >= 1")
    odot = tuple(tuple(min(i, j) for j in range(n)) for i in range(n))
    return validate(_chain_labels(n), _chain_leq(n), odot)


def lukasiewicz_chain(n):
    """n-element MV-chain: i*j = max(0, i+j-(n-1))."""
    if n < 2:
        raise InvalidArgument("n must be >= 2")
    odot = tuple(tuple(max(0, i + j - (n - 1)) for j in range(n))
                 for i in range(n))
    return validate(_chain_labels(n), _chain_leq(n), odot)


def trivial_algebra():
    """The one-element residuated lattice (0 = 1)."""
    return validate(("0",), ((True,),), ((0,),))


def _unique(labels):
    seen = set()
    out = []
    for lbl in labels:
        while lbl in seen:
            lbl += "'"
        seen.add(lbl)
        out.append(lbl)
    return tuple(out)


def direct_product(A, B):
    """Componentwise product; element (i, j) gets id i*|B| + j."""
    nb = B.size

    def pid(i, j):
        return i * nb + j

    labels = _unique(f"{A.labels[i]}.{B.labels[j]}"
                     for i in range(A.size) for j in range(B.size))
    pairs = [(i, j) for i in range(A.size) for j in range(B.size)]
    leq = tuple(
        tuple(A.leq[i1][i2] and B.leq[j1][j2] for (i2, j2) in pairs)
        for (i1, j1) in pairs)
    odot = tuple(
        tuple(pid(A.odot[i1][i2], B.odot[j1][j2]) for (i2, j2) in pairs)
        for (i1, j1) in pairs)
    imp = tuple(
        tuple(pid(A.imp[i1][i2], B.imp[j1][j2]) for (i2, j2) in pairs)
        for (i1, j1) in pairs)
    return validate(labels, leq, odot, imp)


def upset_algebra(A, e):
    """The residuated lattice on [e) for Boolean e, with a ->_e b = e | (a->b)."""
    if e not in classify(A).boolean_center:
        raise InvalidArgument(f"element {A.labels[e]} is not Boolean")
    carrier = [x for x in A.elements() if A.leq[e][x]]
    index = {x: i for i, x in enumerate(carrier)}
    labels = tuple(A.labels[x] for x in carrier)
    leq = tuple(tuple(A.leq[x][y] for y in carrier) for x in carrier)
    odot = tuple(tuple(index[A.odot[x][y]] for y in carrier) for x in carrier)
    imp = tuple(tuple(index[A.join[e][A.imp[x][y]]] for y in carrier)
                for x in carrier)
    return validate(labels, leq, odot, imp)


def ordinal_sum(R, C):
    """Stack C strictly above R, gluing 1_R with 0_C.

    Products across the seam: x*y = x for x in R\\{1_R}, y in C.  The
    implication is derived and the result fully validated rather than
    trusted, since the glued monoid need not always residuate.
    """
    if C.size < 2:
        raise InvalidArgument("upper summand must be non-trivial")
    nr, nc = R.size, C.size
    n = nr + nc - 1
    # ids: R keeps 0..nr-1 (top_R is the glue), C\{bot} gets nr..n-1.
    cmap = {}
    nxt = nr
    for j in range(nc):
        if j == C.bot:
            cmap[j] = R.top
        else:
            cmap[j] = nxt
            nxt += 1
    rpart = list(range(nr))
    labels = _unique(list(R.labels)
                     + [C.labels[j] for j in range(nc) if j != C.bot])

    leq = [[False] * n for _ in range(n)]
    for x in rpart:
        for y in rpart:
            leq[x][y] = R.leq[x][y]
    for jx in range(nc):
        for jy in range(nc):
            if C.leq[jx][jy]:
                leq[cmap[jx]][cmap[jy]] = True
    # every R element sits below every C element
    for x in rpart:
        for j in range(nc):
            leq[x][cmap[j]] = True
    for x in rpart:
        leq[x][x] = True

    odot = [[0] * n for _ in range(n)]
    glue = R.top

    def in_r(x):
        return x < nr and x != glue

    def c_of(x):
        # preimage in C of a glued id (glue included)
        if x == glue:
            return C.bot
        return next(j for j in range(nc) if cmap[j] == x)

    for x in range(n):
        for y in range(n):
            if x < nr and y < nr:
                odot[x][y] = R.odot[x][y]
            elif not in_r(x) and not in_r(y):
                odot[x][y] = cmap[C.odot[c_of(x)][c_of(y)]]
            elif in_r(x):
                odot[x][y] = x
            else:
                odot[x][y] = y

    leq = tuple(tuple(row) for row in leq)
    odot = tuple(tuple(row) for row in odot)
    return validate(labels, leq, odot)

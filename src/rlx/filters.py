"""Filters, spectra as filter sets, radicals, and quotient algebras.

On a finite algebra every filter is the up-set of its least element, an
idempotent: F = [e) = {x : e <= x}.  That generator `gen` is what the
filter operations compute with:

    [X)     = up-set of the product of the stationary powers x^n, x in X
    F v G   = up-set of gen(F) * gen(G)
    F ^ G   = up-set of gen(F) | gen(G)

Modulo [e), x and y are equivalent iff e*x = e*y, so the classes of A/[e)
are the fibers of x -> e*x.  As A -> A/[e) is onto and commutes with every
term, A/[e) |= phi(x/[e)) iff some witnesses in A make both sides of each
equation of phi equal under x -> e*x.  The lifting verdicts are decided
this way in A itself, without building the quotient.
"""

from __future__ import annotations

from functools import lru_cache

from .core import Record, ResiduatedLattice, validate
from .errors import AxiomViolation


class Filter(Record):
    """A filter of a finite algebra, given by its member set.

    The check is linear: the members contain top, their meet `gen` is a
    member and idempotent, and they are exactly the up-set of `gen`.  On a
    finite algebra that is the filter condition.  `gen` is derived, so
    equality and hash cover only the algebra and the members.
    """

    def __init__(self, algebra: ResiduatedLattice, members: frozenset):
        A, F = algebra, members
        if A.top not in F:
            raise AxiomViolation("filter-top", ())
        m = A.top
        for a in F:
            m = A.meet[m][a]
        if m not in F:
            raise AxiomViolation("filter-meet-closed", (m,))
        if A.odot[m][m] != m:
            raise AxiomViolation("filter-odot-closed", (m, m))
        for b in A.elements():
            if A.leq[m][b] and b not in F:
                raise AxiomViolation("filter-up-closed", (m, b))
        self._set("algebra", algebra)
        self._set("members", members)
        self._set("gen", m)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.members == other.members and self.algebra == other.algebra

    def __hash__(self):
        return hash((self.algebra, self.members))

    @property
    def proper(self):
        return self.algebra.bot not in self.members

    def __contains__(self, x):
        return x in self.members

    def __len__(self):
        return len(self.members)

    def __le__(self, other):
        return self.algebra.leq[other.gen][self.gen]

    def sorted_members(self):
        return sorted(self.members)

    def __repr__(self):
        labels = self.algebra.labels
        return "{" + ",".join(labels[x] for x in self.sorted_members()) + "}"


@lru_cache(maxsize=None)
def _upsets(A):
    """The filter [e) for every idempotent e (None elsewhere), built once."""
    return tuple(
        Filter(A, frozenset(x for x in A.elements() if A.leq[e][x]))
        if A.odot[e][e] == e else None
        for e in A.elements())


def generated_filter(A, xs):
    """Least filter containing xs; the empty set generates {top}."""
    e = A.top
    for x in xs:
        e = A.odot[e][A.power_limit(x)]
    return _upsets(A)[e]


def principal_filter(A, x):
    return generated_filter(A, (x,))


@lru_cache(maxsize=None)
def all_filters(A):
    """Every filter of A, deterministically ordered by (size, members).

    On a finite algebra the filters are exactly the up-sets of the
    idempotents; the tests check this against a scan of all subsets with
    the is_filter_subset oracle in tests/oracles.py.
    """
    out = [F for F in _upsets(A) if F is not None]
    return tuple(sorted(out, key=lambda F: (len(F), F.sorted_members())))


def filter_join(F, G):
    A = F.algebra
    return _upsets(A)[A.odot[F.gen][G.gen]]


def filter_meet(F, G):
    A = F.algebra
    return _upsets(A)[A.join[F.gen][G.gen]]


def improper_filter(A):
    return _upsets(A)[A.bot]


def is_prime(F):
    """Proper and split-resistant under joins: a|b in F => a in F or b in F."""
    A = F.algebra
    if not F.proper:
        return False
    for a in A.elements():
        for b in A.elements():
            if A.join[a][b] in F and a not in F and b not in F:
                return False
    return True


@lru_cache(maxsize=None)
def spec(A):
    """Prime filters, in all_filters order (the Stone-space point order)."""
    return tuple(F for F in all_filters(A) if is_prime(F))


@lru_cache(maxsize=None)
def max_spec(A):
    """Maximal proper filters, asserted to be prime.  The negated-power
    criterion (a outside M iff some !(a^k) lies in M) is the
    complement-as-power-union row of the theorem matrix."""
    filters = all_filters(A)
    proper = [F for F in filters if F.proper]
    out = []
    for F in proper:
        if not any(F.members < G.members for G in proper):
            out.append(F)
    primes = set(F.members for F in spec(A))
    for M in out:
        assert M.members in primes, "maximal filter not prime"
    return tuple(out)


@lru_cache(maxsize=None)
def radical(A):
    """Intersection of all maximal filters (the whole algebra if none)."""
    e = A.bot
    for M in max_spec(A):
        e = A.join[e][M.gen]
    return _upsets(A)[e]


def is_local(A):
    return len(max_spec(A)) == 1


def is_semisimple(A):
    return radical(A).gen == A.top


class QuotientAlgebra(Record):
    def __init__(self, parent: ResiduatedLattice, filter: Filter,
                 class_of: tuple,  # element id -> class id
                 quotient: ResiduatedLattice,
                 section: tuple):  # class id -> least representative element
        self._set("parent", parent)
        self._set("filter", filter)
        self._set("class_of", class_of)
        self._set("quotient", quotient)
        self._set("section", section)


def _check_congruence(A, class_of, reps):
    """Raise AxiomViolation("congruence", (r, x, z)) unless the partition
    class_of, with reps[c] a member of class c, is a congruence.

    Compatibility asks that x ~ y put T(x, z) ~ T(y, z) for T in join, meet,
    odot, imp and imp transposed (the first three commute).  Because ~ is
    transitive, it is enough to compare each x with its representative
    r = reps[class_of[x]]: then x ~ y share r, and T(x, z) ~ T(r, z) ~
    T(y, z).  So each table costs O(n^2), one row of class ids per element.
    """
    for tab in (A.join, A.meet, A.odot, A.imp, tuple(zip(*A.imp))):
        rows = [tuple(class_of[v] for v in row) for row in tab]
        for x in A.elements():
            r = reps[class_of[x]]
            if rows[x] != rows[r]:
                z = next(z for z in A.elements() if rows[x][z] != rows[r][z])
                raise AxiomViolation("congruence", (r, x, z))


@lru_cache(maxsize=None)
def quotient(A, F):
    """A modulo the congruence x ~ y iff x<->y in F.

    With e = F.gen, x<->y lies in F iff e*x = e*y, so the classes are the
    fibers of x -> e*x, and x/F <= y/F iff e*x <= e*y.  Class ids go by
    least member, which is also the class's representative.  On a
    distributive lattice (odot = meet) this is x ~ y iff x&e = y&e.  The
    quotient tables are validated from scratch and the congruence property
    is checked explicitly, in O(n^2) per table: as ~ is transitive, each x
    need only be compatible with its class representative
    (:func:`_check_congruence`).
    """
    n = A.size
    image = A.odot[F.gen]  # x -> e*x
    cid = {}
    for v in image:
        cid.setdefault(v, len(cid))
    class_of = tuple(cid[v] for v in image)
    reps = tuple(class_of.index(c) for c in range(len(cid)))

    _check_congruence(A, class_of, reps)

    leq = tuple(tuple(A.leq[image[r]][image[s]] for s in reps) for r in reps)
    odot = tuple(tuple(class_of[A.odot[r][s]] for s in reps) for r in reps)
    imp = tuple(tuple(class_of[A.imp[r][s]] for s in reps) for r in reps)
    labels = tuple(f"{A.labels[r]}/F" for r in reps)
    Q = validate(labels, leq, odot, imp)

    # class of top is exactly F
    assert {x for x in range(n) if class_of[x] == class_of[A.top]} == set(F.members)

    # radical commutes with quotients by sub-radical filters
    if F.members <= radical(A).members:
        rad_q = radical(Q).members
        rad_classes = {class_of[x] for x in radical(A).members}
        assert rad_q == rad_classes, "Rad(A/F) must equal Rad(A)/F"

    return QuotientAlgebra(A, F, class_of, Q, reps)


def filter_image(Q: QuotientAlgebra, G: Filter):
    """Image of a filter G >= F in the quotient A/F."""
    return _upsets(Q.quotient)[Q.class_of[G.gen]]

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

Filt(A), Spec(A), Max(A) and Rad(A) are one record per filter signature,
:func:`_filters`; `all_filters`, `spec`, `max_spec` and `radical` read
it, so a prime, a maximal filter and the radical are the very objects of
`all_filters`.  Each filter of the record holds the record's filter per
idempotent, `upsets`, so the meet and join of two of them are one index,
with no memo lookup.
"""

from __future__ import annotations

from functools import lru_cache

from .core import Record, ResiduatedLattice, shared_set, validate
from .errors import AxiomViolation


class Filter(Record):
    """A filter of a finite algebra, given by its member set.

    The check is linear: the members contain top, their meet `gen` is a
    member and idempotent, and they are exactly the up-set of `gen`.  On a
    finite algebra that is the filter condition.  `gen` is derived, so
    equality and hash cover only the algebra and the members.  Once checked,
    the members are the shared frozenset of :func:`rlx.core.shared_set`.
    A filter of the record of :func:`_filters` holds the signature's
    representative and that record's filter per idempotent, `upsets`; any
    other filter holds None there.  It follows from the algebra, so
    equality and hash ignore it.  The hash, a key of the quotient memo, is
    computed once.  A filter shows its member ids; `io.print_filter`
    renders it under an algebra's labels.
    """

    __slots__ = ("algebra", "members", "gen", "upsets", "_hash")

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
        F = shared_set(F)
        super().__init__(A, F, m, None, hash((A, F)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.members == other.members and self.algebra == other.algebra

    def __hash__(self):
        return self._hash

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
        return "{" + ",".join(map(str, self.sorted_members())) + "}"


def generated_filter(A, xs):
    """Least filter containing xs; the empty set generates {top}."""
    e = A.top
    for x in xs:
        e = A.odot[e][A.power_limit(x)]
    return _filters(A)[0][e]


def principal_filter(A, x):
    return generated_filter(A, (x,))


class Signature(tuple):
    """An algebra's filter signature, then the algebra: its order and power
    limits, which fix each principal filter [x) = [x^w) and so all that
    Filt, Spec, Max, Rad, B(A) and L(A) read of it:
    - the idempotents are the fixed points of x -> x^w;
    - for idempotents e*f = (e&f)^w, as (e&f)^2 <= e*f <= e&f;
    - the Boolean center is the lattice-complemented elements;
    - !e is the only complement of a Boolean e.
    It compares and hashes as these two fields, not as the algebra."""

    __slots__ = ()

    def __eq__(self, other):
        return other.__class__ is Signature and self[:-1] == other[:-1]

    def __hash__(self):
        return hash(self[:-1])


@lru_cache(maxsize=None)
def _filters(A):
    """(upsets, filters, primes, maxima, radical, representative) of A's
    filter signature: the filter [e) for every idempotent e (None
    elsewhere), every filter, the prime and the maximal filters, each in
    all_filters order, the radical, with the maximal filters asserted to
    be prime, and R, the algebra of the :class:`Signature` that
    `shared_set` keeps for A's.  They read only signature fields, so every
    algebra with it reads R's record, whose filters hold R.  A filter
    holds x iff it holds x^w, so (a*b)^w = (a&b)^w, checked first on A,
    gives V(a*b) = V(a&b) on Spec and Max and lam(a*b) = lam(a&b)."""
    w = A.power_limits
    for a, (odot, meet) in enumerate(zip(A.odot, A.meet)):
        for b in A.elements():
            if w[odot[b]] != w[meet[b]]:
                raise AxiomViolation("odot-limit", (a, b))
    R = shared_set(Signature((A.leq, w, A)))[-1]
    if R != A:
        return _filters(R)
    upsets = tuple(Filter(A, frozenset(x for x in A.elements() if A.leq[e][x]))
                   if A.odot[e][e] == e else None for e in A.elements())
    filters = tuple(sorted((F for F in upsets if F is not None),
                           key=lambda F: (len(F), F.sorted_members())))
    primes = tuple(F for F in filters if is_prime(F))
    proper = [F for F in filters if F.proper]
    maxima = tuple(F for F in proper
                   if not any(F.members < G.members for G in proper))
    for M in maxima:
        assert M in primes, "maximal filter not prime"
    rad = A.bot
    for M in maxima:
        rad = A.join[rad][M.gen]
    rad = upsets[rad]
    for F in upsets:
        if F is not None:
            F._set("upsets", upsets)
    return upsets, filters, primes, maxima, rad, R


def all_filters(A):
    """Every filter of A, deterministically ordered by (size, members).

    On a finite algebra the filters are exactly the up-sets of the
    idempotents; the tests check this against a scan of all subsets with
    the is_filter_subset oracle in tests/oracles.py.
    """
    return _filters(A)[1]


def filter_join(F, G):
    return (F.upsets or _filters(F.algebra)[0])[F.algebra.odot[F.gen][G.gen]]


def filter_meet(F, G):
    return (F.upsets or _filters(F.algebra)[0])[F.algebra.join[F.gen][G.gen]]


def improper_filter(A):
    return _filters(A)[0][A.bot]


def is_prime(F):
    """Proper and split-resistant under joins: a|b in F => a in F or b in F."""
    A, members = F.algebra, F.members
    if not F.proper:
        return False
    # a pair with a member never splits, so only the pairs outside F count
    outside = [a for a in A.elements() if a not in members]
    for a in outside:
        row = A.join[a]
        for b in outside:
            if row[b] in members:
                return False
    return True


def spec(A):
    """Prime filters, in all_filters order (the Stone-space point order)."""
    return _filters(A)[2]


def max_spec(A):
    """Maximal proper filters, asserted to be prime.  The negated-power
    criterion (a outside M iff some !(a^k) lies in M) is the
    complement-as-power-union row of the theorem matrix."""
    return _filters(A)[3]


def radical(A):
    """Intersection of all maximal filters (the whole algebra if none)."""
    return _filters(A)[4]


def is_local(A):
    return len(max_spec(A)) == 1


def is_semisimple(A):
    return radical(A).gen == A.top


class QuotientAlgebra(Record):
    """A/F for A `parent` and F `filter`: `class_of` maps an element id to
    its class id in `quotient`, `section` a class id to its least element."""

    __slots__ = ("parent", "filter", "class_of", "quotient", "section")


def _check_congruence(A, class_of, reps):
    """Raise AxiomViolation("congruence", (r, x, z)) unless the partition
    class_of, with reps[c] a member of class c, is a congruence.

    Compatibility asks that x ~ y put T(x, z) ~ T(y, z) for T in join, meet,
    odot, imp and imp transposed (the first three commute).  Because ~ is
    transitive, it is enough to compare each x with its representative
    r = reps[class_of[x]]: then x ~ y share r, and T(x, z) ~ T(r, z) ~
    T(y, z).  So each table costs O(n^2), one row of class ids per element.
    An element alone in its class is its own representative and is only
    ever compared with itself, so rows are built only for the members of
    larger classes, and a one-class partition passes at once.

    x's five rows in class ids, concatenated, are its signature; every
    row has n entries, so x is compatible with r iff their signatures are
    equal, and one pass accepts a congruence.  The witness is the one of
    a table-major scan (first table, then first x, then first z): for x
    whose signature differs from r's at first at index k, k // n is x's
    first failing table and k % n the first failing z in it, so the
    witness is the first x with the least k // n.
    """
    if len(reps) == 1:
        return
    sizes = [0] * len(reps)
    for c in class_of:
        sizes[c] += 1
    n = len(class_of)
    pmi = tuple(zip(*A.imp))
    sig = {x: tuple(map(class_of.__getitem__, A.join[x] + A.meet[x]
                        + A.odot[x] + A.imp[x] + pmi[x]))
           for x in A.elements() if sizes[class_of[x]] > 1}
    witness = None
    for x, s in sig.items():
        r = reps[class_of[x]]
        if s != sig[r]:
            k = next(k for k, (u, v) in enumerate(zip(s, sig[r])) if u != v)
            if witness is None or k // n < witness[0] // n:
                witness = k, r, x
    if witness is not None:
        k, r, x = witness
        raise AxiomViolation("congruence", (r, x, k % n))


@lru_cache(maxsize=None)
def _quotient_tables(leq, odot, imp):
    """The algebra `validate` returns for a quotient's raw (leq, odot,
    imp), checked in full on the first sight of each triple.

    The key is exact: its entries are plain bools and ints, built from
    `class_of` and the validated order, so equal keys are equal inputs.
    A failure is never stored."""
    return validate(None, leq, odot, imp)


@lru_cache(maxsize=None)
def quotient(A, F):
    """A modulo the congruence x ~ y iff x<->y in F.

    With e = F.gen, x<->y lies in F iff e*x = e*y, so the classes are the
    fibers of x -> e*x, and x/F <= y/F iff e*x <= e*y.  Class ids go by
    least member, which is also the class's representative.  On a
    distributive lattice (odot = meet) this is x ~ y iff x&e = y&e.  The
    congruence property is checked explicitly on every quotient, in
    O(n^2) per table: as ~ is transitive, each x need only be compatible
    with its class representative (:func:`_check_congruence`).  The
    quotient tables are validated once per distinct table triple
    (:func:`_quotient_tables`), so the quotients of equal triples are
    one algebra, which shows its class ids.

    The classes are all singletons exactly when F = {1}: any other F holds
    some e != 1, and e*e = e = e*1 puts e and 1 in one class.  Then
    x -> x/F is the identity, so A/{1} is A itself, and `class_of` and
    `section` are the identity.
    """
    n = A.size
    if F.gen == A.top:
        class_of = reps = tuple(A.elements())
        Q = A
    else:
        image = A.odot[F.gen]  # x -> e*x
        cid = {}
        for v in image:
            cid.setdefault(v, len(cid))
        class_of = tuple(cid[v] for v in image)
        reps = tuple(class_of.index(c) for c in range(len(cid)))

        _check_congruence(A, class_of, reps)

        leq = tuple(tuple(A.leq[image[r]][image[s]] for s in reps)
                    for r in reps)
        odot = tuple(tuple(class_of[A.odot[r][s]] for s in reps)
                     for r in reps)
        imp = tuple(tuple(class_of[A.imp[r][s]] for s in reps) for r in reps)
        Q = _quotient_tables(leq, odot, imp)

    # class of top is exactly F
    assert {x for x in range(n) if class_of[x] == class_of[A.top]} == set(F.members)

    # radical commutes with quotients by sub-radical filters
    rad = radical(A).members
    if F.members <= rad:
        assert radical(Q).members == {class_of[x] for x in rad}, \
            "Rad(A/F) must equal Rad(A)/F"

    return QuotientAlgebra(A, F, class_of, Q, reps)


def filter_image(Q: QuotientAlgebra, G: Filter):
    """Image of a filter G >= F in the quotient A/F."""
    return _filters(Q.quotient)[0][Q.class_of[G.gen]]

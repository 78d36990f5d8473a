"""Filters, spectra as filter sets, radicals, and quotient algebras.

On a finite algebra every filter is the up-set of its least element, an
idempotent: F = [e) = {x : e <= x}.  So a filter is its generator e, an
element id, and for F = [e), G = [f) the filter operations are table
reads:

    x in F  iff e <= x          F inside G  iff f <= e
    F v G   = [e * f)           F ^ G       = [e | f)
    A       = [0)               {1}         = [1)
    [x)     = [x^w), x^w the stationary power of x

Only a member set from outside, such as the command line's, is checked,
by :func:`generator`; the filters that `_filters` lists are up-sets of
idempotents by construction.

Modulo [e), x and y are equivalent iff e*x = e*y, so the classes of A/[e)
are the fibers of x -> e*x.  As A -> A/[e) is onto and commutes with every
term, A/[e) |= phi(x/[e)) iff some witnesses in A make both sides of each
equation of phi equal under x -> e*x.  The lifting verdicts are decided
this way in A itself, without building the quotient.

Filt(A), Spec(A), Max(A) and Rad(A) are one record per filter signature,
:func:`_filters`; `all_filters`, `spec`, `max_spec` and `radical` read
it.
"""

from functools import lru_cache

from .core import Record, shared_set, validate
from .errors import AxiomViolation


def generator(A, members):
    """The generator e of the filter of A whose member set is `members`,
    checked.  The check is linear: the members contain top, their meet e
    is a member and idempotent, and they are exactly the up-set of e.  On
    a finite algebra that is the filter condition.  Raises AxiomViolation
    "filter-top", "filter-meet-closed", "filter-odot-closed" or
    "filter-up-closed" at the first that fails."""
    if A.top not in members:
        raise AxiomViolation("filter-top", ())
    e = A.top
    for a in members:
        e = A.meet[e][a]
    if e not in members:
        raise AxiomViolation("filter-meet-closed", (e,))
    if A.odot[e][e] != e:
        raise AxiomViolation("filter-odot-closed", (e, e))
    for b in A.elements():
        if A.leq[e][b] and b not in members:
            raise AxiomViolation("filter-up-closed", (e, b))
    return e


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
    """(filters, primes, maxima, radical, representative) of A's filter
    signature, each filter its generator: every filter, ordered by (size,
    members), the prime and the maximal filters, each in that order, the
    radical, with the maximal filters asserted to be prime, and R, the
    algebra of the :class:`Signature` that `shared_set` keeps for A's.
    They read only signature fields, so every algebra with it reads R's
    record.  A filter holds x iff it holds x^w, so (a*b)^w = (a&b)^w,
    checked first on A, gives V(a*b) = V(a&b) on Spec and Max and
    lam(a*b) = lam(a&b)."""
    w = A.power_limits
    for a, (odot, meet) in enumerate(zip(A.odot, A.meet)):
        for b in A.elements():
            if w[odot[b]] != w[meet[b]]:
                raise AxiomViolation("odot-limit", (a, b))
    R = shared_set(Signature((A.leq, w, A)))[-1]
    if R != A:
        return _filters(R)
    leq = A.leq
    filters = tuple(sorted(
        (e for e in A.elements() if w[e] == e),
        key=lambda e: (sum(leq[e]), [x for x in A.elements() if leq[e][x]])))
    primes = tuple(e for e in filters if is_prime(A, e))
    # [e) is maximal iff no proper [f) strictly contains it: no f < e
    maxima = tuple(e for e in filters if e != A.bot and not any(
        f not in (A.bot, e) and leq[f][e] for f in filters))
    for M in maxima:
        assert M in primes, "maximal filter not prime"
    rad = A.bot
    for M in maxima:
        rad = A.join[rad][M]
    return filters, primes, maxima, rad, R


def all_filters(A):
    """Every filter of A by its generator, deterministically ordered by
    (size, members).

    On a finite algebra the filters are exactly the up-sets of the
    idempotents; the tests check this against a scan of all subsets with
    the is_filter_subset oracle in tests/oracles.py.
    """
    return _filters(A)[0]


def is_prime(A, e):
    """Proper and split-resistant under joins: a|b in [e) => a in [e) or
    b in [e)."""
    if e == A.bot:
        return False
    # a pair with a member never splits, so only the pairs outside count
    inside = A.leq[e]
    outside = [a for a in A.elements() if not inside[a]]
    for a in outside:
        row = A.join[a]
        for b in outside:
            if inside[row[b]]:
                return False
    return True


def spec(A):
    """Prime filters, in all_filters order (the Stone-space point order)."""
    return _filters(A)[1]


def max_spec(A):
    """Maximal proper filters, asserted to be prime.  The negated-power
    criterion (a outside M iff some !(a^k) lies in M) is the
    complement-as-power-union row of the theorem matrix."""
    return _filters(A)[2]


def radical(A):
    """Intersection of all maximal filters (the whole algebra if none)."""
    return _filters(A)[3]


def is_local(A):
    return len(max_spec(A)) == 1


def is_semisimple(A):
    return radical(A) == A.top


class QuotientAlgebra(Record):
    """A/F for A `parent` and F `filter`, a generator: `class_of` maps an
    element id to its class id in `quotient`, `section` a class id to its
    least element."""

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
def quotient(A, e):
    """A modulo the congruence x ~ y iff x<->y in F = [e).

    x<->y lies in F iff e*x = e*y, so the classes are the fibers of
    x -> e*x, and x/F <= y/F iff e*x <= e*y.  Class ids go by least
    member, which is also the class's representative.  On a distributive
    lattice (odot = meet) this is x ~ y iff x&e = y&e.  The congruence
    property is checked explicitly on every quotient, in O(n^2) per
    table: as ~ is transitive, each x need only be compatible with its
    class representative (:func:`_check_congruence`).  The quotient
    tables are validated once per distinct table triple
    (:func:`_quotient_tables`), so the quotients of equal triples are one
    algebra, which shows its class ids.

    The classes are all singletons exactly when F = {1}: any other F holds
    some e != 1, and e*e = e = e*1 puts e and 1 in one class.  Then
    x -> x/F is the identity, so A/{1} is A itself, and `class_of` and
    `section` are the identity.
    """
    if e == A.top:
        class_of = reps = tuple(A.elements())
        Q = A
    else:
        image = A.odot[e]  # x -> e*x
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
    top = class_of[A.top]
    assert all((c == top) == inside for c, inside in zip(class_of, A.leq[e]))

    # radical commutes with quotients by sub-radical filters: x -> x/F is
    # an onto lattice morphism, so it takes [rad) onto [rad/F)
    rad = radical(A)
    if A.leq[rad][e]:
        assert radical(Q) == class_of[rad], "Rad(A/F) must equal Rad(A)/F"

    return QuotientAlgebra(A, e, class_of, Q, reps)

"""The reticulation: the bounded distributive lattice of principal filters
(dually ordered) together with the canonical surjection, its defining
axioms, structural properties, and the bridges for Boolean lifting and
archimedean elements.  The lattice shows its ids; its element i is the
filter `filter_of[i]`, which the CLI and the report print as `[e)` under
the labels of the algebra they were given."""

from __future__ import annotations

from functools import lru_cache

from .core import (
    Record,
    ResiduatedLattice,
    _validate_lattice,
    classify,
    complemented_elements,
)
from .dlattice import lattice_blp_filter, validate_bdl
from .errors import AxiomViolation
from .filters import (
    Filter,
    _filters,
    all_filters,
    max_spec,
    quotient,
    radical,
    spec,
)
from .formulas import blp_formula
from .lifting import filter_lifts


class Reticulation(Record):
    def __init__(self, source: object,
                 lattice: ResiduatedLattice,  # Heyting algebra of validate_bdl
                 lam: tuple,  # element id -> lattice element id
                 filter_of: tuple):  # lattice element id -> Filter (principal)
        self._set("source", source)
        self._set("lattice", lattice)
        self._set("lam", lam)
        self._set("filter_of", filter_of)


@lru_cache(maxsize=None)
def build_reticulation(A):
    """Canonical construction: A's distinct principal filters under reverse
    inclusion, with lam(a) = [a).  `lam`, the filters, the lattice
    (validate_bdl checks distributivity) and :func:`_assert_axioms` read
    only signature fields, so every algebra with the signature reads the
    L(A) of its representative R, its `source`.  `_filters` has checked
    lam(a*b) = lam(a&b) on A."""
    _, filters, *_, R = _filters(A)
    if R != A:
        return build_reticulation(R)
    # on a finite algebra every filter is principal
    filter_of = tuple(sorted(filters,
                             key=lambda F: (-len(F), F.sorted_members())))
    index = {F.gen: i for i, F in enumerate(filter_of)}
    lam = tuple(index[x] for x in A.power_limits)  # [x) = [x^w)
    # reverse inclusion: [e) <= [f) in L iff [e) includes [f), iff e <= f
    leq = tuple(tuple(A.leq[F.gen][G.gen] for G in filter_of)
                for F in filter_of)
    _assert_axioms(A, lam, leq)
    return Reticulation(R, validate_bdl(None, leq), lam, filter_of)


def _assert_axioms(A, lam, leq):
    """The axioms of lam: A -> L, the lattice of `leq`, but lam(a*b)'s."""
    leq, bot, top, join, meet = _validate_lattice(leq)[:5]
    for a, la in enumerate(lam):
        ameet, ajoin, lmeet, ljoin = A.meet[a], A.join[a], meet[la], join[la]
        for b, lb in enumerate(lam):
            assert lam[ameet[b]] == lmeet[lb]
            assert lam[ajoin[b]] == ljoin[lb]
    assert lam[A.bot] == bot and lam[A.top] == top
    assert set(lam) == set(range(len(leq)))  # surjective
    # the powers of a decrease to a^w, so some a^n <= b iff a^w <= b
    for la, w in zip(lam, A.power_limits):
        row, above = leq[la], A.leq[w]
        for b, lb in enumerate(lam):
            assert row[lb] == above[b]


def verify_retic_properties(A, shared=None):
    """The eight structural properties of A's canonical reticulation; each
    returns True or raises, and the verdict vector is handed back.
    `shared`, the (property, verdict) pairs of :func:`signature_properties`
    on an algebra with the same filter signature, stands for them.  (3)
    and (8) read A's own product and quotients, not its `source`'s."""
    R = build_reticulation(A)
    lam = R.lam
    verdicts = dict(shared or signature_properties(R))

    # (3) powers collapse: a, a^2, ..., a^n all have the image of a
    ok = True
    for a, la in enumerate(lam):
        row, p = A.odot[a], A.top
        for _ in lam:
            p = row[p]
            ok = ok and lam[p] == la
    verdicts[3] = ok

    # (8) reticulation of a quotient is the quotient of the reticulation
    ok = True
    for F in all_filters(A):
        ok = ok and _retic_quotient_match(A, R, F)
    verdicts[8] = ok
    return verdicts


def signature_properties(R):
    """Properties (1), (2) and (4)-(7), which read only the source's filter
    signature (`filters.Signature`)."""
    A, L, lam = R.source, R.lattice, R.lam
    verdicts = {}

    # (1) bounded-lattice morphism on the lattice reduct
    verdicts[1] = (lam[A.bot] == L.bot and lam[A.top] == L.top and all(
        lam[A.meet[a][b]] == L.meet[la][lb]
        and lam[A.join[a][b]] == L.join[la][lb]
        for a, la in enumerate(lam) for b, lb in enumerate(lam)))

    # (2) lam(a) = lam(b) iff [a) = [b), that is iff a^w = b^w: the pairs
    #     take as many values as each
    w = A.power_limits
    verdicts[2] = len(set(lam)) == len(set(w)) == len(set(zip(lam, w)))

    # (4) the preimage map is a filter-lattice isomorphism with inverse
    #     F -> lam(F); pre[i] is the preimage of the i-th lattice filter
    lat_filts = all_filters(L)
    pre = [frozenset(x for x in A.elements() if lam[x] in H.members)
           for H in lat_filts]
    alg_filts = {F.members for F in all_filters(A)}
    pairs = list(zip(lat_filts, pre))
    verdicts[4] = (set(pre) == alg_filts and len(pre) == len(alg_filts)
                   and all(frozenset(lam[x] for x in P) == H.members
                           for H, P in pairs)
                   and all((H <= K) == (P <= PK)
                           for H, P in pairs for K, PK in pairs))

    # (5, 6) homeomorphisms of the prime and maximal spectra
    verdicts[5] = _spectrum_homeo(A, R, "spec")
    verdicts[6] = _spectrum_homeo(A, R, "max")

    # (7) Boolean centers are isomorphic through lam
    BA = sorted(classify(A).boolean_center)
    BL = complemented_elements(L)
    image = {lam[e] for e in BA}
    # joins, meets and complements are kept
    verdicts[7] = (image == BL and len(image) == len(BA) and all(
        lam[A.join[e][f]] == L.join[lam[e]][lam[f]]
        and lam[A.meet[e][f]] == L.meet[lam[e]][lam[f]]
        for e in BA for f in BA) and all(
        L.meet[lam[e]][lam[A.imp[e][A.bot]]] == L.bot
        and L.join[lam[e]][lam[A.imp[e][A.bot]]] == L.top for e in BA))
    return verdicts


def _spectrum_homeo(A, R, kind):
    """lam-preimage as a bijection prime-spectrum(L) -> spec(A) matching the
    two open-set families."""
    from .spectra import stone_max, stone_spec

    L, lam = R.lattice, R.lam
    if kind == "spec":
        lat_points = spec(L)
        space = stone_spec(A)
    else:
        lat_points = max_spec(L)
        space = stone_max(A)
    where = {P.members: i for i, P in enumerate(space.points)}
    pre = [frozenset(x for x in A.elements() if lam[x] in H.members)
           for H in lat_points]
    if set(pre) != where.keys() or len(pre) != len(space.points):
        return False
    # index map: lattice point i -> algebra point position
    pos = [where[p] for p in pre]
    # lattice-side opens: complements of up-families; H <= P iff P.gen <= H.gen
    lat_opens = {sum(1 << i for i, P in enumerate(lat_points)
                     if not L.leq[P.gen][H.gen]) for H in all_filters(L)}
    # transport algebra opens through the bijection and compare
    return lat_opens == {sum(1 << i for i, p in enumerate(pos) if U >> p & 1)
                         for U in space.opens}


def _induced_map(lam1, lam2, L1, L2):
    """The bounded lattice morphism f: L1 -> L2 with f(lam1[a]) = lam2[a]
    for every element a of the common source, as a tuple over L1.

    Raises AxiomViolation at the first failure: f not well defined at a
    ("induced-well-defined", (a,)), lam1 missing part of L1
    ("induced-domain", ()), a join or meet not preserved at (x, y)
    ("induced-join" / "induced-meet"), or the bounds not preserved
    ("induced-bounds", ()).
    """
    f = {}
    for a, (x, y) in enumerate(zip(lam1, lam2)):
        if f.setdefault(x, y) != y:
            raise AxiomViolation("induced-well-defined", (a,))
    if len(f) != L1.size:
        raise AxiomViolation("induced-domain", ())
    for x in L1.elements():
        for y in L1.elements():
            if f[L1.join[x][y]] != L2.join[f[x]][f[y]]:
                raise AxiomViolation("induced-join", (x, y))
            if f[L1.meet[x][y]] != L2.meet[f[x]][f[y]]:
                raise AxiomViolation("induced-meet", (x, y))
    if f[L1.bot] != L2.bot or f[L1.top] != L2.top:
        raise AxiomViolation("induced-bounds", ())
    return tuple(f[x] for x in L1.elements())


def _retic_quotient_match(A, R, F):
    """Is the canonical map lam_F(a/F) -> lam(a)/lam(F) a well-defined
    bounded lattice isomorphism L(A/F) -> L(A)/lam(F)?"""
    L, lam = R.lattice, R.lam
    Q = quotient(A, F)
    RQ = build_reticulation(Q.quotient)
    LQ = RQ.lattice
    QL = quotient(L, Filter(L, frozenset(lam[x] for x in F.members)))
    try:
        f = _induced_map(tuple(RQ.lam[c] for c in Q.class_of),
                         tuple(QL.class_of[x] for x in lam),
                         LQ, QL.quotient)
    except AxiomViolation:
        return False
    return len(set(f)) == LQ.size == QL.quotient.size


def blp_transfer(A, F):
    """(lifting in A, lifting of lam(F) in L(A)) computed independently
    on the two sides; the reticulation-blp-transfer row compares them."""
    R = build_reticulation(A)
    in_a = filter_lifts(A, blp_formula(), F)
    lamF = Filter(R.lattice, frozenset(R.lam[x] for x in F.members))
    in_l = lattice_blp_filter(R.lattice, lamF)
    return in_a, in_l


def archimedean_bridge(A):
    """Per-element archimedean test against Boolean-ness of the lam image;
    the radical maps onto the lattice radical; locality transfers.  Whether
    A is hyperarchimedean and whether L(A) is Boolean are returned for the
    hyperarchimedean-boolean-reticulation row to compare."""
    R = build_reticulation(A)
    L, lam = R.lattice, R.lam
    report = classify(A)
    BL = complemented_elements(L)
    per_element = {}
    for a in A.elements():
        is_arch = a in report.archimedeans
        assert is_arch == (lam[a] in BL)
        per_element[a] = is_arch
    hyper = report.is_hyperarchimedean
    lattice_boolean = BL == frozenset(L.elements())

    lam_rad = frozenset(lam[x] for x in radical(A).members)
    assert lam_rad == radical(L).members

    locals_match = (len(max_spec(A)) == 1) == (len(max_spec(L)) == 1)
    semilocal_match = len(max_spec(A)) == len(max_spec(L))
    assert locals_match and semilocal_match
    return {
        "per_element": per_element,
        "hyperarchimedean": hyper,
        "lattice_boolean": lattice_boolean,
    }

"""The reticulation: the bounded distributive lattice of principal filters
(dually ordered) together with the canonical surjection, its defining
axioms, structural properties, the functor on morphisms, and the bridges
for Boolean lifting and archimedean elements."""

from __future__ import annotations

from functools import lru_cache

from .core import Record, ResiduatedLattice, classify, complemented_elements
from .dlattice import lattice_blp_filter, validate_bdl
from .errors import AxiomViolation, NoIsomorphism
from .filters import (
    Filter,
    all_filters,
    max_spec,
    principal_filter,
    quotient,
    radical,
    spec,
)
from .formulas import blp_formula
from .lifting import has_phi_lp


class Reticulation(Record):
    def __init__(self, source: object,
                 lattice: ResiduatedLattice,  # Heyting algebra of validate_bdl
                 lam: tuple,  # element id -> lattice element id
                 filter_of: tuple):  # lattice element id -> Filter (principal)
        self._set("source", source)
        self._set("lattice", lattice)
        self._set("lam", lam)
        self._set("filter_of", filter_of)


class RLMorphism(Record):
    """A residuated-lattice morphism, checked on construction."""

    def __init__(self, source: object, target: object,
                 mapping: tuple):  # element id -> element id
        A, B, f = source, target, mapping
        if len(f) != A.size:
            raise AxiomViolation("morphism-arity", (len(f),))
        if f[A.bot] != B.bot or f[A.top] != B.top:
            raise AxiomViolation("morphism-bounds", ())
        for x in A.elements():
            for y in A.elements():
                pairs = (
                    (A.join, B.join), (A.meet, B.meet),
                    (A.odot, B.odot), (A.imp, B.imp),
                )
                for ta, tb in pairs:
                    if f[ta[x][y]] != tb[f[x]][f[y]]:
                        raise AxiomViolation("morphism-compat", (x, y))
        self._set("source", source)
        self._set("target", target)
        self._set("mapping", mapping)


@lru_cache(maxsize=None)
def build_reticulation(A):
    """Canonical construction: distinct principal filters under reverse
    inclusion, with lam(a) = [a).  validate_bdl checks distributivity, and
    the five axioms of lam are asserted on the result."""
    # on a finite algebra every filter is principal
    principal = sorted(all_filters(A),
                       key=lambda F: (-len(F), F.sorted_members()))
    index = {F.gen: i for i, F in enumerate(principal)}
    # reverse inclusion: [a) <= [b) in L iff [a) includes [b)
    leq = tuple(tuple(G <= F for G in principal) for F in principal)
    labels = tuple(f"[{A.labels[F.gen]})" for F in principal)
    L = validate_bdl(labels, leq)
    lam = tuple(index[principal_filter(A, a).gen] for a in A.elements())
    R = Reticulation(A, L, lam, tuple(principal))
    _assert_axioms(R)
    return R


def _assert_axioms(R):
    A, L, lam = R.source, R.lattice, R.lam
    for a in A.elements():
        for b in A.elements():
            assert lam[A.odot[a][b]] == L.meet[lam[a]][lam[b]]
            assert lam[A.join[a][b]] == L.join[lam[a]][lam[b]]
    assert lam[A.bot] == L.bot and lam[A.top] == L.top
    assert set(lam) == set(L.elements())  # surjective
    # the powers of a decrease to a^w, so some a^n <= b iff a^w <= b
    for a in A.elements():
        for b in A.elements():
            assert L.leq[lam[a]][lam[b]] == A.leq[A.power_limit(a)][b]


def verify_retic_properties(R):
    """The eight structural properties of the canonical reticulation; each
    returns True or raises, and the verdict vector is handed back."""
    A, L, lam = R.source, R.lattice, R.lam
    verdicts = {}

    # (1) bounded-lattice morphism on the lattice reduct
    ok = all(lam[A.meet[a][b]] == L.meet[lam[a]][lam[b]]
             and lam[A.join[a][b]] == L.join[lam[a]][lam[b]]
             for a in A.elements() for b in A.elements())
    ok = ok and lam[A.bot] == L.bot and lam[A.top] == L.top
    verdicts[1] = ok

    # (2) kernel: lam(a) = lam(b) iff the principal filters coincide
    verdicts[2] = all(
        (lam[a] == lam[b]) == (principal_filter(A, a).gen
                               == principal_filter(A, b).gen)
        for a in A.elements() for b in A.elements())

    # (3) powers collapse
    verdicts[3] = all(lam[A.power(a, n)] == lam[a]
                      for a in A.elements() for n in range(1, A.size + 1))

    # (4) the preimage map is a filter-lattice isomorphism with inverse
    #     F -> lam(F)
    lat_filts = all_filters(L)
    pre = {}
    for H in lat_filts:
        members = frozenset(x for x in A.elements() if lam[x] in H)
        pre[H] = members
    alg_filts = {F.members for F in all_filters(A)}
    ok = set(pre.values()) == alg_filts and len(pre) == len(alg_filts)
    for H in lat_filts:
        image = frozenset(lam[x] for x in pre[H])
        ok = ok and image == H.members
    for H in lat_filts:
        for K in lat_filts:
            ok = ok and ((H <= K) == (pre[H] <= pre[K]))
    verdicts[4] = ok

    # (5, 6) homeomorphisms of the prime and maximal spectra
    verdicts[5] = _spectrum_homeo(A, R, "spec")
    verdicts[6] = _spectrum_homeo(A, R, "max")

    # (7) Boolean centers are isomorphic through lam
    BA = sorted(classify(A).boolean_center)
    BL = complemented_elements(L)
    image = {lam[e] for e in BA}
    ok = image == BL and len({lam[e] for e in BA}) == len(BA)
    for e in BA:
        for f in BA:
            ok = ok and lam[A.join[e][f]] == L.join[lam[e]][lam[f]]
            ok = ok and lam[A.meet[e][f]] == L.meet[lam[e]][lam[f]]
        # complements map to complements
        ok = ok and L.meet[lam[e]][lam[A.neg(e)]] == L.bot
        ok = ok and L.join[lam[e]][lam[A.neg(e)]] == L.top
    verdicts[7] = ok

    # (8) reticulation of a quotient is the quotient of the reticulation
    ok = True
    for F in all_filters(A):
        ok = ok and _retic_quotient_match(A, R, F)
    verdicts[8] = ok
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
    alg_points = [P.members for P in space.points]
    pre = [frozenset(x for x in A.elements() if lam[x] in H)
           for H in lat_points]
    if set(pre) != set(alg_points) or len(pre) != len(alg_points):
        return False
    # index map: lattice point i -> algebra point position
    pos = [alg_points.index(p) for p in pre]
    # opens on the lattice side: complements of up-families of filters
    lat_opens = set()
    for H in all_filters(L):
        mask = 0
        for i, P in enumerate(lat_points):
            if not H <= P:
                mask |= 1 << i
        lat_opens.add(mask)
    # transport algebra opens through the bijection and compare
    transported = set()
    for U in space.opens:
        mask = 0
        for i in range(len(lat_points)):
            if (U >> pos[i]) & 1:
                mask |= 1 << i
        transported.add(mask)
    return transported == lat_opens


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
    QL = quotient(L, Filter(L, frozenset(lam[x] for x in F.members)))
    try:
        f = _induced_map(tuple(RQ.lam[c] for c in Q.class_of),
                         tuple(QL.class_of[x] for x in lam),
                         RQ.lattice, QL.quotient)
    except AxiomViolation:
        return False
    return len(set(f)) == RQ.lattice.size == QL.quotient.size


def uniqueness_check(R1, R2):
    """The unique lattice isomorphism f with f o lam1 = lam2.

    Surjectivity of lam1 forces f; we verify it is a well-defined bounded
    lattice isomorphism and return it, or raise NoIsomorphism.
    """
    A = R1.source
    if R2.source is not A and R2.source != A:
        raise NoIsomorphism("reticulations of different algebras")
    try:
        f = _induced_map(R1.lam, R2.lam, R1.lattice, R2.lattice)
    except AxiomViolation as exc:
        raise NoIsomorphism(str(exc)) from exc
    if not len(set(f)) == R1.lattice.size == R2.lattice.size:
        raise NoIsomorphism("not bijective")
    return f


def reticulate_morphism(f: RLMorphism):
    """The lattice morphism L(f) with L(f)(lam_B(b)) = lam_C(f(b));
    AxiomViolation if that is not a well-defined bounded lattice map."""
    RB = build_reticulation(f.source)
    RC = build_reticulation(f.target)
    return _induced_map(RB.lam, tuple(RC.lam[y] for y in f.mapping),
                        RB.lattice, RC.lattice)


def blp_transfer(A, F):
    """(lifting in A, lifting of lam(F) in L(A)) computed independently
    on the two sides; the reticulation-blp-transfer row compares them."""
    R = build_reticulation(A)
    in_a, _ = has_phi_lp(A, blp_formula(), F)
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
        "radical_image_matches": True,
        "local_transfer": locals_match,
    }

"""The reticulation: the bounded distributive lattice of principal filters
(dually ordered) together with the canonical surjection, its defining
axioms, structural properties, the functor on morphisms, and the bridges
for Boolean lifting and archimedean elements."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import ResiduatedLattice, classify, complemented_elements
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


@dataclass(frozen=True)
class Reticulation:
    source: object
    lattice: ResiduatedLattice  # the Heyting algebra of validate_bdl
    lam: tuple  # element id -> lattice element id
    filter_of: tuple  # lattice element id -> Filter (principal)


@dataclass(frozen=True)
class RLMorphism:
    source: object
    target: object
    mapping: tuple  # element id -> element id

    def __post_init__(self):
        A, B, f = self.source, self.target, self.mapping
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


@lru_cache(maxsize=None)
def build_reticulation(A):
    """Canonical construction: distinct principal filters under reverse
    inclusion, with lam(a) = [a).  All five axioms and distributivity are
    asserted on the result."""
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
    for a in A.elements():
        for b in A.elements():
            reach = any(A.leq[A.power(a, n)][b] for n in range(1, A.size + 1))
            assert L.leq[lam[a]][lam[b]] == reach


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


def _retic_quotient_match(A, R, F):
    L, lam = R.lattice, R.lam
    Q = quotient(A, F)
    RQ = build_reticulation(Q.quotient)
    QL = quotient(L, Filter(L, frozenset(lam[x] for x in F.members)))
    LQ, class_of = QL.quotient, QL.class_of
    # the canonical map lam_F(a/F) -> lam(a)/lam(F) must be a well-defined
    # bounded lattice isomorphism
    mapping = {}
    for a in A.elements():
        src = RQ.lam[Q.class_of[a]]
        dst = class_of[lam[a]]
        if src in mapping and mapping[src] != dst:
            return False
        mapping[src] = dst
    if len(mapping) != RQ.lattice.size or len(set(mapping.values())) != LQ.size:
        return False
    for x in RQ.lattice.elements():
        for y in RQ.lattice.elements():
            if mapping[RQ.lattice.join[x][y]] != LQ.join[mapping[x]][mapping[y]]:
                return False
            if mapping[RQ.lattice.meet[x][y]] != LQ.meet[mapping[x]][mapping[y]]:
                return False
    return (mapping[RQ.lattice.bot] == LQ.bot
            and mapping[RQ.lattice.top] == LQ.top)


def uniqueness_check(R1, R2):
    """The unique lattice isomorphism f with f o lam1 = lam2.

    Surjectivity of lam1 forces f; we verify it is a well-defined bounded
    lattice isomorphism and return it, or raise NoIsomorphism.
    """
    A = R1.source
    if R2.source is not A and R2.source != A:
        raise NoIsomorphism("reticulations of different algebras")
    f = {}
    for a in A.elements():
        x, y = R1.lam[a], R2.lam[a]
        if x in f and f[x] != y:
            raise NoIsomorphism(f"map not well defined at {a}")
        f[x] = y
    L1, L2 = R1.lattice, R2.lattice
    if len(f) != L1.size or len(set(f.values())) != L2.size:
        raise NoIsomorphism("not bijective")
    for x in L1.elements():
        for y in L1.elements():
            if f[L1.join[x][y]] != L2.join[f[x]][f[y]]:
                raise NoIsomorphism("join not preserved")
            if f[L1.meet[x][y]] != L2.meet[f[x]][f[y]]:
                raise NoIsomorphism("meet not preserved")
    if f[L1.bot] != L2.bot or f[L1.top] != L2.top:
        raise NoIsomorphism("bounds not preserved")
    return tuple(f[x] for x in range(L1.size))


def reticulate_morphism(f: RLMorphism):
    """The lattice morphism L(f) with L(f)(lam_B(b)) = lam_C(f(b))."""
    RB = build_reticulation(f.source)
    RC = build_reticulation(f.target)
    out = {}
    for b in f.source.elements():
        x = RB.lam[b]
        y = RC.lam[f.mapping[b]]
        if x in out and out[x] != y:
            raise AxiomViolation("functor-well-defined", (b,))
        out[x] = y
    LB, LC = RB.lattice, RC.lattice
    for x in LB.elements():
        for y in LB.elements():
            assert out[LB.join[x][y]] == LC.join[out[x]][out[y]]
            assert out[LB.meet[x][y]] == LC.meet[out[x]][out[y]]
    assert out[LB.bot] == LC.bot and out[LB.top] == LC.top
    return tuple(out[x] for x in range(LB.size))


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
    hyperarchimedean iff L(A) is Boolean; the radical maps onto the lattice
    radical; locality transfers."""
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
    assert hyper == lattice_boolean

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

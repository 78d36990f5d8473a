"""Stone topologies on the prime and maximal spectra, topological
predicates, the Gelfand property in all its equivalent forms, and the
principal-filter splitting properties."""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType

from .core import Record, classify
from .errors import NotGelfand
from .filters import (
    all_filters,
    filter_join,
    filter_meet,
    improper_filter,
    max_spec,
    radical,
    spec,
)

# Opens are bitmasks over point indices; point order is the filter
# enumeration order restricted to the space's points.  A point contains
# the filter [e) iff it contains e, so V(F) = v[gen(F)] and D = full & ~V.


class SpectrumSpace(Record):
    def __init__(self, algebra: object,
                 kind: str,  # "spec" | "max"
                 points: tuple,  # of Filter
                 opens: tuple,  # sorted bitmask family
                 v: tuple):  # element id -> bitmask of the points holding it
        self._set("algebra", algebra)
        self._set("kind", kind)
        self._set("points", points)
        self._set("opens", opens)
        self._set("v", v)

    @property
    def full(self):
        return (1 << len(self.points)) - 1

    def d(self, a):
        """The basic open D(a) resp. d(a): the points omitting a."""
        return self.full & ~self.v[a]

    @property
    def basis(self):
        """(element id, D(a)) for every element."""
        return tuple((a, self.d(a)) for a in range(len(self.v)))

    def mask_of(self, filters):
        idx = {F.gen: i for i, F in enumerate(self.points)}
        m = 0
        for F in filters:
            m |= 1 << idx[F.gen]
        return m

    def is_open(self, mask):
        return mask in set(self.opens)

    def is_closed(self, mask):
        return (self.full & ~mask) in set(self.opens)


def _build(A, kind):
    points = spec(A) if kind == "spec" else max_spec(A)
    v = tuple(sum(1 << i for i, P in enumerate(points) if a in P)
              for a in A.elements())
    full = (1 << len(points)) - 1
    opens = sorted({full & ~v[F.gen] for F in all_filters(A)})
    space = SpectrumSpace(A, kind, points, tuple(opens), v)
    _assert_stone_identities(A, space)
    return space


def _assert_stone_identities(A, space):
    """Defining identities of the V/D (v/d) operators on the fresh family."""
    pts, v = space.points, space.v
    filters = all_filters(A)
    full = space.full
    # V(F) read off the generator is the set of points including F
    for F in filters:
        assert v[F.gen] == sum(1 << i for i, P in enumerate(pts)
                               if F.members <= P.members)
    for F in filters:
        for G in filters:
            assert v[filter_meet(F, G).gen] == v[F.gen] | v[G.gen]
            assert v[filter_join(F, G).gen] == v[F.gen] & v[G.gen]
    for a in A.elements():
        for b in A.elements():
            assert v[A.join[a][b]] == v[a] | v[b]
            assert v[A.odot[a][b]] == v[A.meet[a][b]] == v[a] & v[b]
    # V(F) as the intersection of the V(a) over a in F
    for F in filters:
        acc = full
        for a in F.members:
            acc &= v[a]
        assert acc == v[F.gen]
    # D injective on filters, reflecting inclusion (prime spectrum only)
    if space.kind == "spec":
        for F in filters:
            for G in filters:
                dF, dG = space.d(F.gen), space.d(G.gen)
                assert (dF == dG) == (F.gen == G.gen)
                assert (dF & ~dG == 0) == (F <= G)


@lru_cache(maxsize=None)
def stone_spec(A):
    return _build(A, "spec")


@lru_cache(maxsize=None)
def stone_max(A):
    return _build(A, "max")


def clopen_sets(space):
    opens = set(space.opens)
    return tuple(sorted(U for U in opens if (space.full & ~U) in opens))


def clopen_via_boolean(A, which):
    """{D(e) : e Boolean} resp. {d(e) : ...}; equal to the clopen family on
    Spec always, and on Max under Gelfand or semisimplicity."""
    space = stone_spec(A) if which == "spec" else stone_max(A)
    B = classify(A).boolean_center
    fam = {space.d(e) for e in B}
    return tuple(sorted(fam))


def topology_predicates(space):
    """T0/T1/Hausdorff/compact/zero-dimensional/strongly-zero-dimensional/
    normal/Boolean for an explicit finite open family."""
    n = len(space.points)
    opens = space.opens
    openset = set(opens)
    full = space.full
    clopens = [U for U in opens if (full & ~U) in openset]

    t0 = all(
        any(((U >> x) & 1) != ((U >> y) & 1) for U in opens)
        for x in range(n) for y in range(x + 1, n))
    t1 = all((full & ~(1 << x)) in openset for x in range(n))
    hausdorff = all(
        any((U >> x) & 1 and (V >> y) & 1 and U & V == 0
            for U in opens for V in opens)
        for x in range(n) for y in range(x + 1, n))
    compact = True  # finite spaces are compact
    # zero-dimensional: every open is a union of clopen sets
    zero_dim = True
    for U in opens:
        acc = 0
        for C in clopens:
            if C & ~U == 0:
                acc |= C
        if acc != U:
            zero_dim = False
            break
    # strongly zero-dimensional via the binary-cover splitting criterion
    strongly_zero_dim = True
    for U in opens:
        for V in opens:
            if U | V != full:
                continue
            ok = any(
                C & ~U == 0 and D & ~V == 0 and C & D == 0 and C | D == full
                for C in clopens for D in clopens)
            if not ok:
                strongly_zero_dim = False
                break
        if not strongly_zero_dim:
            break
    normal = True
    closed = [full & ~U for U in opens]
    for C in closed:
        for D in closed:
            if C & D != 0:
                continue
            ok = any(C & ~U == 0 and D & ~V == 0 and U & V == 0
                     for U in opens for V in opens)
            if not ok:
                normal = False
                break
        if not normal:
            break
    boolean_space = compact and hausdorff and zero_dim
    preds = {
        "t0": t0,
        "t1": t1,
        "hausdorff": hausdorff,
        "compact": compact,
        "zero_dim": zero_dim,
        "strongly_zero_dim": strongly_zero_dim,
        "normal": normal,
        "boolean_space": boolean_space,
    }
    if space.kind == "max":
        # on a T1 compact space the four conditions collapse
        assert zero_dim == strongly_zero_dim == normal == boolean_space
    # strong zero-dimensionality agrees with clopen separation of disjoint
    # closed sets (the three-way equivalence of the splitting criterion)
    sep = True
    for C in closed:
        for D in closed:
            if C & D != 0:
                continue
            if not any(K & ~(full & ~D) == 0 and C & ~K == 0
                       for K in clopens):
                sep = False
                break
        if not sep:
            break
    assert sep == strongly_zero_dim
    return preds


def gelfand_counterexample(A):
    """The first prime filter (in Spec order) that does not sit below
    exactly one maximal filter, or None when A is Gelfand."""
    maxima = max_spec(A)
    for P in spec(A):
        if sum(P <= M for M in maxima) != 1:
            return P
    return None


@lru_cache(maxsize=None)
def is_gelfand(A):
    """Every prime filter sits below exactly one maximal filter."""
    return gelfand_counterexample(A) is None


def gelfand_conditions(A):
    """All implemented equivalent forms of the Gelfand property.

    Keys 1,2,4,8,10,12,14 are computed on A directly; 3 and 5 on the
    reticulation.  The gelfand-forms rows compare each with key 4.
    """
    from .dlattice import is_conormal_lattice, is_normal_lattice, validate_bdl
    from .reticulation import build_reticulation

    out = {}
    out[4] = is_gelfand(A)

    # (1) the filter lattice is normal
    filters = all_filters(A)
    leq = tuple(tuple(F <= G for G in filters) for F in filters)
    filt_lattice = validate_bdl(tuple(repr(F) for F in filters), leq)
    out[1] = is_normal_lattice(filt_lattice)

    # (2) element form of the same statement on principal filters, read
    # off their generators g[x] = x^w: [u) ^ [v) = [g[u] | g[v]) and
    # [x) v [y) = [g[x] * g[y]).  Both sides see an element only through
    # its generator, so the quantifiers run over the generators, and
    # zero[e] lists the generators f with f * e = 0.
    gens = sorted({A.power_limit(a) for a in A.elements()})
    zero = {e: [f for f in gens if A.odot[f][e] == A.bot] for e in gens}
    out[2] = all(
        any(A.join[f][h] == A.top for f in zero[e] for h in zero[k])
        for e in gens for k in zero[e])

    # (8) Spec(A) is a normal space
    out[8] = topology_predicates(stone_spec(A))["normal"]

    # (10) {P : P <= M} closed for every maximal M
    sp = stone_spec(A)
    cond10 = True
    for M in max_spec(A):
        below = sp.mask_of([P for P in sp.points if P <= M])
        if not sp.is_closed(below):
            cond10 = False
            break
    out[10] = cond10

    # (12) M is the only maximal filter over the intersection of its primes
    cond12 = True
    for M in max_spec(A):
        inter = improper_filter(A)
        for P in spec(A):
            if P <= M:
                inter = filter_meet(inter, P)
        over = [N for N in max_spec(A) if inter <= N]
        if over != [M]:
            cond12 = False
            break
    out[12] = cond12

    # (14) distinct maximal filters separated by disjoint opens in Spec
    cond14 = True
    maxima = max_spec(A)
    for i, M in enumerate(maxima):
        for N in maxima[i + 1:]:
            mi = sp.mask_of([M])
            ni = sp.mask_of([N])
            if not any(U & mi and V & ni and U & V == 0
                       for U in sp.opens for V in sp.opens):
                cond14 = False
                break
        if not cond14:
            break
    out[14] = cond14

    # reticulation-side forms
    R = build_reticulation(A)
    L = R.lattice
    out[3] = is_conormal_lattice(L)
    out[5] = is_gelfand(L)
    return out


def gelfand_retract(A):
    """The map sending a prime to its unique maximal, with continuity and
    identity-on-Max checked; NotGelfand otherwise."""
    if not is_gelfand(A):
        raise NotGelfand(repr(A))
    sp = stone_spec(A)
    mx = stone_max(A)
    maxima = max_spec(A)
    rho = []
    for P in sp.points:
        M = next(M for M in maxima if P <= M)
        rho.append(next(i for i, Q in enumerate(mx.points)
                        if Q.members == M.members))
    # identity on maximal points
    for i, P in enumerate(sp.points):
        if any(P.members == M.members for M in maxima):
            assert mx.points[rho[i]].members == P.members
    # continuity: preimages of opens are open
    for U in mx.opens:
        pre = 0
        for i in range(len(sp.points)):
            if (U >> rho[i]) & 1:
                pre |= 1 << i
        assert sp.is_open(pre), "retraction must be continuous"
    return tuple(rho)


@lru_cache(maxsize=None)
def star_property(A):
    """Principal filters split off a radical part: for every x some
    u in Rad(A) and Boolean e give [x) = [u) v [e).

    Decided directly on the generators g[x] = x^w of the principal
    filters: [u) v [e) = [x) iff g[u] * g[e] = g[x].  The star-forms rows
    compare the verdict with the nilpotent, spectral and bounded-union
    reformulations.  Returns (holds, witnesses) where witnesses is a
    read-only map x -> the first such (u, e); the answer is cached.
    """
    B = sorted(classify(A).boolean_center)
    return _splitting(A, sorted(radical(A).members), B)


def star_star_property(A):
    """Weakened splitting: u only needs a nilpotent negation."""
    B = sorted(classify(A).boolean_center)
    us = [u for u in A.elements() if A.is_nilpotent(A.neg(u))]
    return _splitting(A, us, B)


def _splitting(A, us, B):
    """(holds, witnesses) of "for every x some u in `us` and e in `B` give
    [x) = [u) v [e)", scanning u, then e, in the given order."""
    g = [A.power_limit(a) for a in A.elements()]
    witnesses = {}
    for x in A.elements():
        found = next(((u, e) for u in us for e in B
                      if A.odot[g[u]][g[e]] == g[x]), None)
        if found is not None:
            witnesses[x] = found
    return len(witnesses) == A.size, MappingProxyType(witnesses)

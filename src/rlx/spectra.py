"""Stone topologies on Spec and Max, their predicates read off least open
neighbourhoods, the Gelfand property in all its equivalent forms, and
the principal-filter splitting properties."""

from __future__ import annotations

from functools import lru_cache, reduce
from types import MappingProxyType

from .core import Record, classify
from .filters import (
    _filters,
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
    def __init__(self, kind: str,  # "spec" | "max"
                 points: tuple,  # of Filter
                 opens: tuple,  # sorted bitmask family
                 v: tuple):  # element id -> bitmask of the points holding it
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

    def mask_of(self, filters):
        idx = {F.gen: i for i, F in enumerate(self.points)}
        m = 0
        for F in filters:
            m |= 1 << idx[F.gen]
        return m

    def is_closed(self, mask):
        return (self.full & ~mask) in set(self.opens)


@lru_cache(maxsize=None)
def _build(A, kind):
    """The space of its kind on the primes or maxima of A's filter record.
    Its points, `v`, the opens and :func:`_assert_stone_identities` read
    only signature fields, so every algebra reads the space of its
    representative R.  `_filters` has checked V(a*b) = V(a&b) on A."""
    _, filters, primes, maxima, _, R = _filters(A)
    if R != A:
        return _build(R, kind)
    points = primes if kind == "spec" else maxima
    v = [0] * A.size
    for i, P in enumerate(points):
        for a in P.members:
            v[a] |= 1 << i
    full = (1 << len(points)) - 1
    opens = tuple(sorted({full & ~v[F.gen] for F in filters}))
    space = SpectrumSpace(kind, points, opens, tuple(v))
    _assert_stone_identities(A, space)
    return space


def _assert_stone_identities(A, space):
    """Defining identities of the V/D (v/d) operators, but V(a*b)'s."""
    pts, v = space.points, space.v
    filters = all_filters(A)
    full = space.full
    # V(F) read off the generator is the set of points including F
    for F in filters:
        assert v[F.gen] == sum(1 << i for i, P in enumerate(pts)
                               if F.members <= P.members)
    for F in filters:
        vf = v[F.gen]
        for G in filters:
            assert v[filter_meet(F, G).gen] == vf | v[G.gen]
            assert v[filter_join(F, G).gen] == vf & v[G.gen]
    for a in A.elements():
        va, join, meet = v[a], A.join[a], A.meet[a]
        for b, vb in enumerate(v):
            assert v[join[b]] == va | vb
            assert v[meet[b]] == va & vb
    # V(F) as the intersection of the V(a) over a in F
    for F in filters:
        acc = full
        for a in F.members:
            acc &= v[a]
        assert acc == v[F.gen]
    # D injective on filters, reflecting inclusion (prime spectrum only)
    if space.kind == "spec":
        d = [full & ~v[F.gen] for F in filters]
        for F, dF in zip(filters, d):
            for G, dG in zip(filters, d):
                assert (dF == dG) == (F.gen == G.gen)
                assert (dF & ~dG == 0) == (F <= G)


def stone_spec(A):
    return _build(A, "spec")


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
    normal/Boolean for an explicit finite open family.

    Several row families read the predicates of one space, and spaces of
    different algebras often carry the same topology, so they are
    computed once per topology and returned as a read-only mapping.  They
    and their two asserts read only the point count and the opens, and
    the kind chooses whether the Max-only assert runs; that triple is the
    key, so a space's algebra, points and filters are never hashed."""
    return _topology_predicates(space.kind, len(space.points), space.opens)


def _neighbourhoods(n, opens):
    """nb[x], the least open holding point x: the AND of the opens that
    hold it (a finite topology is closed under intersections)."""
    nb = [(1 << n) - 1] * n
    for U in opens:
        nb = [m & U if U >> x & 1 else m for x, m in enumerate(nb)]
    return nb


@lru_cache(maxsize=None)
def _topology_predicates(kind, n, opens):
    """The predicates read off the least open neighbourhoods nb[x].

    A finite topology is Alexandrov: an open holds x iff it contains
    nb[x].  So the opens are the up-sets of the order with nb[x] = up(x),
    the closed sets its down-sets, cl[x] = {y : x in nb[y]} the closure
    of x, and the component comp[x] of x the least clopen holding it.
    An open (closed set) is the union of its nb[x] (cl[x]), so:
    - T0: an open tells x, y apart unless each lies in nb of the other;
    - T1: all {x} closed means an antichain, so every nb[x] = {x};
    - Hausdorff: nb[x], nb[y] are the least opens around x and y;
    - zero-dimensional: nb[x] is a union of clopens iff it is comp[x];
    - strongly zero-dimensional (every open cover U, V refined by a
      clopen partition): a component holds a closed (minimal) point m; if
      only one, it is nb[m], inside whichever of U, V holds m; if two, m
      and m', the cover full-{m}, full-{m'} splits it;
    - normal: the least opens around disjoint closed C, D are the unions
      of their nb[c], nb[d]; a point of both lies in some nb[c] and nb[d]
      with cl[c], cl[d] inside C, D, so point closures suffice;
    - clopen separation: the least clopen over C is the union of the
      components meeting C; so, as for normality, points with disjoint
      closures must lie in different components.
    """
    nb = _neighbourhoods(n, opens)
    cl = [sum(1 << y for y in range(n) if nb[y] >> x & 1) for x in range(n)]
    comp = [nb[x] | cl[x] for x in range(n)]
    for k in range(n):  # Warshall: the components of comparability
        comp = [c | comp[k] if c >> k & 1 else c for c in comp]
    pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]
    apart = [(x, y) for x, y in pairs if cl[x] & cl[y] == 0]
    minimal = sum(1 << x for x in range(n) if cl[x] == 1 << x)
    hausdorff = all(nb[x] & nb[y] == 0 for x, y in pairs)
    zero_dim = nb == comp
    strongly_zero_dim = all((c & minimal).bit_count() == 1 for c in comp)
    normal = all(nb[x] & nb[y] == 0 for x, y in apart)
    boolean_space = hausdorff and zero_dim  # finite spaces are compact
    if kind == "max":
        # on a T1 compact space the four conditions collapse
        assert zero_dim == strongly_zero_dim == normal == boolean_space
    # strong zero-dimensionality agrees with clopen separation of disjoint
    # closed sets (the three-way equivalence of the splitting criterion)
    assert all(comp[x] != comp[y] for x, y in apart) == strongly_zero_dim
    return MappingProxyType({
        "t0": not any(nb[x] >> y & 1 and nb[y] >> x & 1 for x, y in pairs),
        "t1": all(nb[x] == 1 << x for x in range(n)),
        "hausdorff": hausdorff,
        "compact": True,
        "zero_dim": zero_dim,
        "strongly_zero_dim": strongly_zero_dim,
        "normal": normal,
        "boolean_space": boolean_space,
    })


def gelfand_counterexample(A):
    """The first prime filter (in Spec order) that does not sit below
    exactly one maximal filter, or None when A is Gelfand."""
    maxima = max_spec(A)
    for P in spec(A):
        if sum(P <= M for M in maxima) != 1:
            return P
    return None


def is_gelfand(A):
    """Every prime filter sits below exactly one maximal filter."""
    return gelfand_counterexample(A) is None


def filter_lattice(A):
    """The filters of A under inclusion, in all_filters order, as a
    lattice that shows its ids."""
    from .dlattice import validate_bdl

    filters = all_filters(A)
    return validate_bdl(None,
                        tuple(tuple(F <= G for G in filters)
                              for F in filters))


def gelfand_conditions(A):
    """All implemented equivalent forms of the Gelfand property.

    Keys 1,2,4,8,10,12,14 are computed on A directly; 3 and 5 on the
    reticulation.  The gelfand-forms rows compare each with key 4.
    """
    from .dlattice import is_conormal_lattice, is_normal_lattice
    from .reticulation import build_reticulation

    out = {}
    out[4] = is_gelfand(A)

    # (1) the filter lattice is normal
    out[1] = is_normal_lattice(filter_lattice(A))

    # (2) element form of the same statement on principal filters, read
    # off their generators g[x] = x^w: [u) ^ [v) = [g[u] | g[v]) and
    # [x) v [y) = [g[x] * g[y]).  Both sides see an element only through
    # its generator, so the quantifiers run over the generators, and
    # zero[e] lists the generators f with f * e = 0.
    gens = sorted(set(A.power_limits))
    zero = {e: [f for f in gens if A.odot[f][e] == A.bot] for e in gens}
    out[2] = all(
        any(A.join[f][h] == A.top for f in zero[e] for h in zero[k])
        for e in gens for k in zero[e])

    # (8) Spec(A) is a normal space
    out[8] = topology_predicates(stone_spec(A))["normal"]

    # (10) {P : P <= M} closed for every maximal M
    sp, maxima = stone_spec(A), max_spec(A)
    out[10] = all(sp.is_closed(sp.mask_of([P for P in sp.points if P <= M]))
                  for M in maxima)

    # (12) M is the only maximal filter over the intersection of its primes
    def over(M):
        inter = reduce(filter_meet, [P for P in sp.points if P <= M],
                       improper_filter(A))
        return [N for N in maxima if inter <= N]
    out[12] = all(over(M) == [M] for M in maxima)

    # (14) distinct maximal filters have disjoint least opens in Spec
    nb = _neighbourhoods(len(sp.points), sp.opens)
    near = [nb[sp.mask_of([M]).bit_length() - 1] for M in maxima]
    out[14] = all(U & V == 0 for i, U in enumerate(near)
                  for V in near[i + 1:])

    # reticulation-side forms
    R = build_reticulation(A)
    L = R.lattice
    out[3] = is_conormal_lattice(L)
    out[5] = is_gelfand(L)
    return out


def star_property(A):
    """Principal filters split off a radical part: for every x some
    u in Rad(A) and Boolean e give [x) = [u) v [e).

    Decided directly on the generators g[x] = x^w of the principal
    filters: [u) v [e) = [x) iff g[u] * g[e] = g[x].  The star-forms rows
    compare the verdict with the nilpotent, spectral and bounded-union
    reformulations, read once per filter signature.  Returns (holds,
    witnesses) where witnesses is a read-only map x -> the first such
    (u, e).
    """
    B = sorted(classify(A).boolean_center)
    return _splitting(A, sorted(radical(A).members), B)


def star_star_property(A):
    """Weakened splitting: u only needs a nilpotent negation."""
    B = sorted(classify(A).boolean_center)
    w = A.power_limits
    us = [u for u, row in enumerate(A.imp) if w[row[A.bot]] == A.bot]
    return _splitting(A, us, B)


def _splitting(A, us, B):
    """(holds, witnesses) of "for every x some u in `us` and e in `B` give
    [x) = [u) v [e)", scanning u, then e, in the given order."""
    g = A.power_limits
    first = {}  # g[x] -> the first (u, e), in scan order, giving [x)
    for u in us:
        row = A.odot[g[u]]
        for e in B:
            first.setdefault(row[g[e]], (u, e))
    witnesses = {x: first[gx] for x, gx in enumerate(g) if gx in first}
    return len(witnesses) == A.size, MappingProxyType(witnesses)

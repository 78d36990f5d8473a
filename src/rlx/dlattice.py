"""Bounded distributive lattices: validation, filters, quotients, lattice BLP,
normality predicates and the lattice radical."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import bounds_of, distributivity_witness, glb_table, lub_table
from .errors import AxiomViolation, NotConormal, NotDistributive


@dataclass(frozen=True)
class BDLattice:
    labels: tuple
    leq: tuple
    join: tuple
    meet: tuple
    bot: int
    top: int

    @property
    def size(self):
        return len(self.labels)

    def elements(self):
        return range(len(self.labels))

    def le(self, a, b):
        return self.leq[a][b]

    def __repr__(self):
        return f"BDLattice({','.join(self.labels)})"


def validate_bdl(labels, leq):
    """Bounded lattice with exhaustive distributivity check."""
    labels = tuple(str(x) for x in labels)
    n = len(labels)
    if n == 0:
        raise AxiomViolation("table-dimension", ("labels", 0))
    leq = tuple(tuple(bool(v) for v in row) for row in leq)
    if len(leq) != n or any(len(r) != n for r in leq):
        raise AxiomViolation("table-dimension", ("leq", n))
    for a in range(n):
        if not leq[a][a]:
            raise AxiomViolation("reflexivity", (a,))
        for b in range(n):
            if a != b and leq[a][b] and leq[b][a]:
                raise AxiomViolation("antisymmetry", (a, b))
            if leq[a][b]:
                for c in range(n):
                    if leq[b][c] and not leq[a][c]:
                        raise AxiomViolation("transitivity", (a, b, c))
    bot, top = bounds_of(leq)
    join = lub_table(leq)
    meet = glb_table(leq)
    for a in range(n):
        for b in range(n):
            if join[a][b] is None:
                raise AxiomViolation("join-lub", (a, b))
            if meet[a][b] is None:
                raise AxiomViolation("meet-glb", (a, b))
    witness = distributivity_witness(leq, join, meet)
    if witness is not None:
        raise NotDistributive(witness)
    return BDLattice(labels, leq, join, meet, bot, top)


def underlying_lattice(A):
    """The bounded-lattice reduct of a residuated lattice, when distributive."""
    return validate_bdl(A.labels, A.leq)


@lru_cache(maxsize=None)
def lattice_filters(L):
    """All lattice filters (up-closed, meet-closed), i.e. all up-sets of
    single elements on a finite lattice, ordered by (size, members)."""
    out = []
    seen = set()
    for x in L.elements():
        members = frozenset(y for y in L.elements() if L.leq[x][y])
        if members not in seen:
            seen.add(members)
            out.append(members)
    return tuple(sorted(out, key=lambda F: (len(F), sorted(F))))


def lattice_prime_filters(L):
    out = []
    for F in lattice_filters(L):
        if L.bot in F:
            continue
        prime = True
        for a in L.elements():
            for b in L.elements():
                if L.join[a][b] in F and a not in F and b not in F:
                    prime = False
                    break
            if not prime:
                break
        if prime:
            out.append(F)
    return tuple(out)


def lattice_max_filters(L):
    proper = [F for F in lattice_filters(L) if L.bot not in F]
    return tuple(F for F in proper if not any(F < G for G in proper))


@lru_cache(maxsize=None)
def lattice_quotient(L, F):
    """L modulo x ~ y iff x & a = y & a for some witness a in F."""
    n = L.size

    def related(x, y):
        return any(L.meet[x][a] == L.meet[y][a] for a in F)

    rep = [None] * n
    for x in range(n):
        if rep[x] is None:
            rep[x] = x
        for y in range(x + 1, n):
            if rep[y] is None and related(x, y):
                rep[y] = rep[x]
    reps = sorted(set(rep))
    cid = {r: i for i, r in enumerate(reps)}
    class_of = tuple(cid[rep[x]] for x in range(n))

    for x in range(n):
        for y in range(n):
            if class_of[x] != class_of[y]:
                continue
            for z in range(n):
                if class_of[L.meet[x][z]] != class_of[L.meet[y][z]]:
                    raise AxiomViolation("congruence", (x, y, z))
                if class_of[L.join[x][z]] != class_of[L.join[y][z]]:
                    raise AxiomViolation("congruence", (x, y, z))

    m = len(reps)
    leq = tuple(
        tuple(class_of[L.meet[reps[i]][reps[j]]] == class_of[reps[i]]
              for j in range(m))
        for i in range(m))
    labels = tuple(f"{L.labels[r]}/F" for r in reps)
    Q = validate_bdl(labels, leq)
    return Q, class_of, tuple(reps)


def boolean_center(L):
    """Complemented elements of a bounded distributive lattice."""
    out = set()
    for a in L.elements():
        for y in L.elements():
            if L.join[a][y] == L.top and L.meet[a][y] == L.bot:
                out.add(a)
                break
    return frozenset(out)


def lattice_blp_filter(L, F):
    """Does F lift Boolean elements: B(L/F) inside B(L)/F?"""
    Q, class_of, _reps = lattice_quotient(L, F)
    quotient_boolean = boolean_center(Q)
    lifted = {class_of[e] for e in boolean_center(L)}
    return quotient_boolean <= lifted


def lattice_blp(L):
    """Per-filter Boolean lifting, plus the global conjunction."""
    per = {F: lattice_blp_filter(L, F) for F in lattice_filters(L)}
    return per, all(per.values())


def is_normal_lattice(L):
    """x|y=1 always splits: some u,v with u&v=0, u|x=v|y=1."""
    return _normal_witnesses(L) is None


def _normal_witnesses(L):
    for x in L.elements():
        for y in L.elements():
            if L.join[x][y] != L.top:
                continue
            ok = any(L.meet[u][v] == L.bot
                     and L.join[u][x] == L.top and L.join[v][y] == L.top
                     for u in L.elements() for v in L.elements())
            if not ok:
                return (x, y)
    return None


def is_conormal_lattice(L):
    return _conormal_witnesses(L) is None


def _conormal_witnesses(L):
    for x in L.elements():
        for y in L.elements():
            if L.meet[x][y] != L.bot:
                continue
            ok = any(L.join[u][v] == L.top
                     and L.meet[u][x] == L.bot and L.meet[v][y] == L.bot
                     for u in L.elements() for v in L.elements())
            if not ok:
                return (x, y)
    return None


def lattice_radical(L):
    """{a : a&x=0 forces x=0}; asserted equal to the intersection of the
    maximal filters."""
    members = frozenset(
        a for a in L.elements()
        if all(x == L.bot for x in L.elements() if L.meet[a][x] == L.bot))
    inter = frozenset(L.elements())
    for M in lattice_max_filters(L):
        inter &= M
    assert members == inter, "dense-element radical must match max intersection"
    return members


def conormal_radical_lifting(L):
    """Boolean lifting of the radical filter in a conormal lattice."""
    if not is_conormal_lattice(L):
        raise NotConormal(repr(L))
    return lattice_blp_filter(L, lattice_radical(L))


def enumerate_bdlattices(n):
    """All bounded distributive lattices on n elements up to isomorphism."""
    from .enumeration import _lattice_orders
    from .iso import find_isomorphism

    found = []
    for leq, join, meet in _lattice_orders(n):
        if distributivity_witness(leq, join, meet) is not None:
            continue
        L = validate_bdl(tuple(f"e{i}" for i in range(n)), leq)
        if any(find_isomorphism(L.leq, (L.join, L.meet),
                                M.leq, (M.join, M.meet)) for M in found):
            continue
        found.append(L)
    return found

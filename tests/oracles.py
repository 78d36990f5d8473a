"""Slow, definition-level reference implementations used only by the tests.

Each one follows the textbook definition element by element, so the fast
closed forms in the library can be checked against it.  The small helpers
at the top are conveniences that only the tests use; after them come the
.blat reader and the constructions of the paper that no rlx command
runs, the functor on morphisms, the uniqueness of the reticulation and
the Gelfand retraction, with the two errors they raise.  The backtracking
isomorphism search after them is the reference that `rl_isomorphic`,
`first_labelings` and the Boolean decomposition's test compare against;
`test_iso.py` checks it against every bijection.
"""

import argparse
import itertools
import math
from types import MappingProxyType

import rlx.core
from rlx.cli import (
    cmd_analyze,
    cmd_check_theorems,
    cmd_enumerate,
    cmd_lp,
    cmd_quotient,
    cmd_reticulate,
    cmd_validate,
)
from rlx.core import (
    ElementClassReport,
    Record,
    _check_square,
    _validate_lattice,
    classify,
    complemented_elements,
    direct_product,
    glb_table,
    lub_table,
    upset_algebra,
    validate,
)
from rlx.dlattice import validate_bdl
from rlx.core import bounds_of
from rlx.enumeration import _lattice_orders, _products_on_lattice, all_algebras
from rlx.errors import (
    SIZE_CAP,
    AxiomViolation,
    FileFormatError,
    NotResiduated,
    RlxError,
)
from rlx.filters import (
    Filter,
    _filters,
    all_filters,
    is_local,
    max_spec,
    principal_filter,
    quotient,
)
from rlx.formulas import BoundVar, Const, FreeVar, Neg, Pow, definable_set
from rlx.io import _logical_lines, _parse_elements_and_order
from rlx.lifting import _split_failure, has_blp, lp_report
from rlx.iso import permute_relation, permute_table, table_key
from rlx.reticulation import (
    Reticulation,
    _assert_axioms,
    _induced_map,
    build_reticulation,
)
from rlx.spectra import is_gelfand, stone_max, stone_spec


def trivial_filter(A):
    return _filters(A)[0][A.top]


def min_generator(F):
    """The minimum of F: its idempotent generator."""
    return F.gen


def parse_blat(text):
    """The bounded distributive lattice of a .blat text."""
    lines = _logical_lines(text)
    labels, leq, pos = _parse_elements_and_order(lines, 0)
    if pos != len(lines):
        raise FileFormatError("trailing content", lines[pos][0])
    return validate_bdl(labels, leq)


def canonical_key(A):
    """Minimum-lex encoding of (leq, odot) over relabelings fixing bot/top."""
    return table_key(A.leq, A.odot, A.bot, A.top)[0]


class NotGelfand(RlxError):
    """Raised when a retraction is requested for a non-Gelfand algebra."""


class NoIsomorphism(RlxError):
    pass


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


def reticulate_morphism(f: RLMorphism):
    """The lattice morphism L(f) with L(f)(lam_B(b)) = lam_C(f(b));
    AxiomViolation if that is not a well-defined bounded lattice map."""
    RB = build_reticulation(f.source)
    RC = build_reticulation(f.target)
    return _induced_map(RB.lam, tuple(RC.lam[y] for y in f.mapping),
                        RB.lattice, RC.lattice)


def uniqueness_check(R1, R2):
    """The unique lattice isomorphism f with f o lam1 = lam2.

    Surjectivity of lam1 forces f; we verify it is a well-defined bounded
    lattice isomorphism and return it, or raise NoIsomorphism.
    """
    if _filters(R1.source)[5] is not _filters(R2.source)[5]:
        raise NoIsomorphism("reticulations of different algebras")
    try:
        f = _induced_map(R1.lam, R2.lam, R1.lattice, R2.lattice)
    except AxiomViolation as exc:
        raise NoIsomorphism(str(exc)) from exc
    if not len(set(f)) == R1.lattice.size == R2.lattice.size:
        raise NoIsomorphism("not bijective")
    return f


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
        assert pre in sp.opens, "retraction must be continuous"
    return tuple(rho)


def _invariants(leq, tables):
    """Per element: (down-set size, up-set size, idempotence in each table,
    occurrences in each table), the counts from one pass per table."""
    n = len(leq)
    occur = []
    for t in tables:
        count = [0] * n
        for row in t:
            for v in row:
                count[v] += 1
        occur.append(count)
    return [(sum(1 for y in range(n) if leq[y][x]),
             sum(1 for y in range(n) if leq[x][y]),
             tuple(t[x][x] == x for t in tables),
             tuple(count[x] for count in occur))
            for x in range(n)]


def find_isomorphism(leq_a, tables_a, leq_b, tables_b):
    """A bijection p with p(x op y) = p(x) op p(y) and x<=y iff p(x)<=p(y).

    Returns the mapping as a tuple (old id -> new id) or None.  Tables must
    come in matching order on both sides.
    """
    n = len(leq_a)
    if len(leq_b) != n or len(tables_a) != len(tables_b):
        return None
    inv_a = _invariants(leq_a, tables_a)
    inv_b = _invariants(leq_b, tables_b)
    if sorted(inv_a) != sorted(inv_b):
        return None

    perm = [None] * n
    used = [False] * n
    # per table, the entries (u, v) with value r and u, v < r, by r
    above = []
    for ta in tables_a:
        pairs = [[] for _ in range(n)]
        for u, row in enumerate(ta):
            for v, r in enumerate(row):
                if u < r and v < r:
                    pairs[r].append((u, v))
        above.append(pairs)

    def consistent(x):
        """Ids are assigned in order, so 0..x are.  The entries among 0..x-1
        with an assigned value were checked at earlier steps; the new ones
        have row or column x, or value x."""
        y = perm[x]
        for a in range(x + 1):
            if leq_a[x][a] != leq_b[y][perm[a]] or leq_a[a][x] != leq_b[perm[a]][y]:
                return False
        for ta, tb, pairs in zip(tables_a, tables_b, above):
            row_x, row_y = ta[x], tb[y]
            for u in range(x + 1):
                r, s = row_x[u], ta[u][x]
                if r <= x and perm[r] != row_y[perm[u]]:
                    return False
                if s <= x and perm[s] != tb[perm[u]][y]:
                    return False
            for u, v in pairs[x]:
                if tb[perm[u]][perm[v]] != y:
                    return False
        return True

    def extend(x):
        if x == n:
            return True
        for y in range(n):
            if used[y] or inv_a[x] != inv_b[y]:
                continue
            perm[x] = y
            used[y] = True
            if consistent(x) and extend(x + 1):
                return True
            perm[x] = None
            used[y] = False
        return False

    if extend(0):
        return tuple(perm)
    return None


def rl_isomorphism(A, B):
    """Residuated-lattice isomorphism A -> B as an id map, or None."""
    return find_isomorphism(A.leq, (A.join, A.meet, A.odot, A.imp),
                            B.leq, (B.join, B.meet, B.odot, B.imp))


def rl_isomorphic(A, B):
    return rl_isomorphism(A, B) is not None


def eval_term(A, t, value, env):
    """Value of a term at free-var `value` with bound-var assignment `env`,
    by one walk of the term."""
    if isinstance(t, FreeVar):
        return value
    if isinstance(t, BoundVar):
        return env[t.name]
    if isinstance(t, Const):
        return A.bot if t.value == 0 else A.top
    if isinstance(t, Neg):
        return A.imp[eval_term(A, t.arg, value, env)][A.bot]
    if isinstance(t, Pow):
        return A.power(eval_term(A, t.arg, value, env), t.exponent)
    lhs = eval_term(A, t.lhs, value, env)
    rhs = eval_term(A, t.rhs, value, env)
    if t.op == "|":
        return A.join[lhs][rhs]
    if t.op == "&":
        return A.meet[lhs][rhs]
    if t.op == "*":
        return A.odot[lhs][rhs]
    if t.op == "->":
        return A.imp[lhs][rhs]
    if t.op == "<->":
        return A.meet[A.imp[lhs][rhs]][A.imp[rhs][lhs]]
    raise AssertionError(t)


def satisfies(A, phi, a):
    """Does phi(a) hold in A: one eval_term walk per equation and bound-
    variable assignment, the witnesses brute-forced over the carrier."""
    names = phi.bound_vars
    for combo in itertools.product(A.elements(), repeat=len(names)):
        env = dict(zip(names, combo))
        if all(eval_term(A, l, a, env) == eval_term(A, r, a, env)
               for l, r in phi.equations):
            return True
    return False


def quotient_filter_verdict(A, phi, F):
    """(holds, counterexample, witness) of phi-lifting at F, read off an
    explicitly built A/F with the `satisfies` oracle on both algebras.

    Every phi-class of A/F must contain a phi-element of A.  Class ids go
    by least member; the counterexample is the least member of the least
    class that does not lift, and the witness the least phi-element of A
    in the least phi-class (None if there is no phi-class)."""
    Q = quotient(A, F)
    sat = [a for a in A.elements() if satisfies(A, phi, a)]
    quotient_sat = {c for c in Q.quotient.elements()
                    if satisfies(Q.quotient, phi, c)}
    missing = quotient_sat - {Q.class_of[e] for e in sat}
    if missing:
        least_class = min(missing)
        counterexample = min(x for x in A.elements()
                             if Q.class_of[x] == least_class)
        return False, counterexample, None
    witness = None
    if quotient_sat and sat:
        least_class = min(quotient_sat)
        witness = min(e for e in sat if Q.class_of[e] == least_class)
    return True, None, witness


def brute_invariant(leq, tables, x):
    """The isomorphism invariant of x, each occurrence count by its own
    scan of the whole table."""
    n = len(leq)
    down = sum(1 for y in range(n) if leq[y][x])
    up = sum(1 for y in range(n) if leq[x][y])
    diag = tuple(t[x][x] == x for t in tables)
    occur = tuple(sum(1 for a in range(n) for b in range(n) if t[a][b] == x)
                  for t in tables)
    return (down, up, diag, occur)


def brute_lub_table(leq):
    """Least-upper-bound table by scanning the upper bounds; None entries
    where there is no lub."""
    n = len(leq)
    out = []
    for a in range(n):
        row = []
        for b in range(n):
            ubs = [c for c in range(n) if leq[a][c] and leq[b][c]]
            least = [c for c in ubs if all(leq[c][d] for d in ubs)]
            row.append(least[0] if len(least) == 1 else None)
        out.append(tuple(row))
    return tuple(out)


def brute_glb_table(leq):
    n = len(leq)
    out = []
    for a in range(n):
        row = []
        for b in range(n):
            lbs = [c for c in range(n) if leq[c][a] and leq[c][b]]
            greatest = [c for c in lbs if all(leq[d][c] for d in lbs)]
            row.append(greatest[0] if len(greatest) == 1 else None)
        out.append(tuple(row))
    return tuple(out)


def brute_derive_implication(leq, odot):
    """imp(b, c) = the maximum of {a : a*b <= c}, by scanning that set;
    NotResiduated(b, c) at the first pair where it has no maximum."""
    n = len(leq)
    imp = []
    for b in range(n):
        row = []
        for c in range(n):
            good = [a for a in range(n) if leq[odot[a][b]][c]]
            maxima = [a for a in good if all(leq[x][a] for x in good)]
            if len(maxima) != 1:
                raise NotResiduated(b, c)
            row.append(maxima[0])
        imp.append(tuple(row))
    return tuple(imp)


def downset_residual_masks(downs, odot):
    """good[b][c], the bitmask of the a with a*b <= c, for every pair, as a
    union over the whole down-set: downs[c] lists the elements below c.
    Bit a goes into the mask of the value a*b, and good[b][c] is the union
    of the masks of the values below c: their sum, as they are disjoint."""
    n = len(downs)
    good = []
    for column in zip(*odot):
        by_value = [0] * n
        for a, v in enumerate(column):
            by_value[v] |= 1 << a
        good.append([sum(by_value[v] for v in below) for below in downs])
    return good


def brute_validate_residuated(leq, odot, imp):
    """The residuated stage of `validate` as plain loops over the
    elements: each axiom checked pair by pair or triple by triple, and the
    residuation law on every triple.  Reads the lattice tables from
    `rlx.core._validate_lattice` at call time and derives the residuum
    with `brute_derive_implication`; uncached."""
    n = len(leq)
    _, bot, top, join, meet = rlx.core._validate_lattice(leq)[:5]
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
        derived = brute_derive_implication(leq, odot)
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

    for a in range(n):
        for b in range(n):
            for c in range(n):
                if leq[odot[a][b]][c] != leq[a][imp[b][c]]:
                    raise AxiomViolation("residuation", (a, b, c))

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


def partial_orders(n):
    """Every partial order on range(n) (labeled, non-lattices included) as
    a leq matrix.  Element k is added to each order on range(k) with an
    up-closed set U of elements above it and a down-closed set D below it,
    every element of D lying below every element of U."""
    orders = [()]  # up[a] as bitmasks, for the elements added so far
    for k in range(n):
        grown = []
        for up in orders:
            down = [sum(1 << b for b in range(k) if up[b] >> a & 1)
                    for a in range(k)]
            for sides in itertools.product((0, 1, 2), repeat=k):
                U = sum(1 << a for a in range(k) if sides[a] == 1)
                D = sum(1 << a for a in range(k) if sides[a] == 2)
                if any(U >> a & 1 and up[a] & ~U for a in range(k)):
                    continue
                if any(D >> a & 1 and down[a] & ~D for a in range(k)):
                    continue
                if any(D >> a & 1 and U & ~up[a] for a in range(k)):
                    continue
                grown.append(tuple(up[a] | (1 << k if D >> a & 1 else 0)
                                   for a in range(k)) + (U | 1 << k,))
        orders = grown
    for up in orders:
        yield tuple(tuple(bool(up[a] >> b & 1) for b in range(n))
                    for a in range(n))


def set_partitions(n):
    """Every partition of range(n) as a tuple of class ids, numbered in
    order of each class's least member."""
    def grow(prefix, k):
        if len(prefix) == n:
            yield prefix
            return
        for c in range(k + 1):
            yield from grow(prefix + (c,), max(k, c + 1))
    yield from grow((), 0)


def is_filter_subset(A, subset):
    """Contains top, up-closed and closed under odot."""
    if A.top not in subset:
        return False
    for a in subset:
        for b in A.elements():
            if A.leq[a][b] and b not in subset:
                return False
        for b in subset:
            if A.odot[a][b] not in subset:
                return False
    return True


def brute_is_prime(F):
    """Prime by the definition: proper, and a|b in F puts a or b in F, for
    every pair of elements."""
    A = F.algebra
    return F.proper and not any(
        A.join[a][b] in F.members and a not in F.members
        and b not in F.members
        for a in A.elements() for b in A.elements())


def lattice_is_filter(L, subset):
    """Contains top, up-closed and closed under meet."""
    if L.top not in subset:
        return False
    for a in subset:
        for b in L.elements():
            if L.leq[a][b] and b not in subset:
                return False
        for b in subset:
            if L.meet[a][b] not in subset:
                return False
    return True


def dense_radical(L):
    """{a : a&x = 0 forces x = 0}, the dense elements of a distributive
    lattice; on a finite one this is the intersection of the maximal
    filters."""
    return frozenset(
        a for a in L.elements()
        if all(x == L.bot for x in L.elements() if L.meet[a][x] == L.bot))


def distributive_lattices(n):
    """The bounded distributive lattices of size n up to isomorphism: the
    lattices of the Goedel algebras (odot = meet) among all_algebras(n)."""
    return [validate_bdl(A.labels, A.leq)
            for A in all_algebras(n) if classify(A).is_godel]


def brute_boolean_splitting_conditions(A, max_arity=4):
    """boolean_splitting_conditions by search: for each tuple, try every
    choice of Boolean e_i in the principal filters of its elements."""
    B = sorted(classify(A).boolean_center)
    pf = [principal_filter(A, x) for x in A.elements()]
    witnesses = {}

    cond1 = has_blp(A)

    cond2 = True
    for x in A.elements():
        fx = pf[x]
        fnx = pf[A.neg(x)]
        if not any(e in fx and A.neg(e) in fnx for e in B):
            cond2 = False
            witnesses[2] = (x,)
            break

    cond3 = True
    for x in A.elements():
        for y in A.elements():
            if A.odot[x][y] != A.bot:
                continue
            fx = pf[x]
            fy = pf[y]
            if not any(e in fx and A.neg(e) in fy for e in B):
                cond3 = False
                witnesses[3] = (x, y)
                break
        if not cond3:
            break

    cond4 = True
    for n in range(2, max_arity + 1):
        if not cond4:
            break
        for combo in itertools.combinations_with_replacement(A.elements(), n):
            prod = A.top
            for x in combo:
                prod = A.odot[prod][x]
            if prod != A.bot:
                continue
            if not _nary_boolean_split(A, B, [pf[x] for x in combo]):
                cond4 = False
                witnesses[4] = combo
                break

    return (cond1, cond2, cond3, cond4), witnesses


def _nary_boolean_split(A, B, pfs):
    n = len(pfs)
    candidates = [[e for e in B if e in F] for F in pfs]
    for es in itertools.product(*candidates):
        total = A.top
        for e in es:
            total = A.meet[total][e]
        if total != A.bot:
            continue
        if all(A.join[es[i]][es[j]] == A.top
               for i in range(n) for j in range(i + 1, n)):
            return True
    return False


def plain_split_failure(A, u, k, start, prod, meet):
    """`lifting._split_failure` without its failed-state memo: the first
    k-multiset of elements >= start, in the order of
    combinations_with_replacement, that takes `prod` to 0 while the meet
    of its u(x) with `meet` stays above 0; None if there is none.

    The meet only decreases as a multiset grows, so an x that takes it to
    0 is skipped together with every extension through it."""
    for x in range(start, A.size):
        m = A.meet[meet][u[x]]
        if m == A.bot:
            continue
        p = A.odot[prod][x]
        if k == 1:
            if p == A.bot:
                return (x,)
        else:
            rest = plain_split_failure(A, u, k - 1, x, p, m)
            if rest is not None:
                return (x, *rest)
    return None


def brute_congruence_violation(A, class_of):
    """First (x, y, z) with x ~ y whose images under join, meet or odot
    with z, or under imp with z on either side, fall in different classes;
    None if the partition class_of is a congruence."""
    n = A.size
    for x in range(n):
        for y in range(n):
            if class_of[x] != class_of[y]:
                continue
            for z in range(n):
                for tab in (A.join, A.meet, A.odot):
                    if class_of[tab[x][z]] != class_of[tab[y][z]]:
                        return (x, y, z)
                if class_of[A.imp[x][z]] != class_of[A.imp[y][z]]:
                    return (x, y, z)
                if class_of[A.imp[z][x]] != class_of[A.imp[z][y]]:
                    return (x, y, z)
    return None


def table_major_congruence_check(A, class_of, reps):
    """The congruence check as it was before the one-pass signatures:
    table by table, each member of a larger class compared with its
    representative, raising AxiomViolation("congruence", (r, x, z)) at the
    first failing (table, x, z)."""
    if len(reps) == 1:
        return
    sizes = [0] * len(reps)
    for c in class_of:
        sizes[c] += 1
    shared = [x for x in A.elements() if sizes[class_of[x]] > 1]
    for tab in (A.join, A.meet, A.odot, A.imp, tuple(zip(*A.imp))):
        rows = {x: tuple(map(class_of.__getitem__, tab[x])) for x in shared}
        for x in shared:
            r = reps[class_of[x]]
            if rows[x] != rows[r]:
                z = next(z for z in A.elements() if rows[x][z] != rows[r][z])
                raise AxiomViolation("congruence", (r, x, z))


def labeled_retic_quotient_match(A, R, F):
    """The reticulation-of-a-quotient check as it was before L(A/F) was
    read label-free: the labeled reticulation of A/F, built in full, and
    the canonical map into L(A)/lam(F) checked on its lattice."""
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


def labeled_filter_lattice(A):
    """The filter lattice of A under inclusion, labeled by the filters, as
    `gelfand_conditions` built it before it read the lattice of the order."""
    filters = all_filters(A)
    leq = tuple(tuple(F <= G for G in filters) for F in filters)
    return validate_bdl(tuple(repr(F) for F in filters), leq)


def kernel_quotient_reticulation(A):
    """Alternative construction used by the uniqueness check: carrier
    classes of the kernel lam(a) = lam(b), ordered by power reachability."""
    classes = []
    rep_of = {}
    for a in A.elements():
        key = principal_filter(A, a).gen
        if key not in rep_of:
            rep_of[key] = len(classes)
            classes.append(a)
    m = len(classes)

    def reaches(a, b):
        return any(A.leq[A.power(a, n)][b] for n in range(1, A.size + 1))

    leq = tuple(tuple(reaches(classes[i], classes[j]) for j in range(m))
                for i in range(m))
    labels = tuple(f"[{A.labels[r]}]" for r in classes)
    L = validate_bdl(labels, leq)
    lam = tuple(rep_of[principal_filter(A, a).gen] for a in A.elements())
    filt = tuple(principal_filter(A, r) for r in classes)
    R = Reticulation(A, L, lam, filt)
    _assert_axioms(A, lam, L.leq)
    return R


def fixed_point_filter(A, xs):
    """Least filter containing xs, by closing under up-sets and odot until
    nothing changes; the empty set generates {top}."""
    current = set(xs)
    current.add(A.top)
    changed = True
    while changed:
        changed = False
        for a in list(current):
            for b in A.elements():
                if A.leq[a][b] and b not in current:
                    current.add(b)
                    changed = True
            for b in list(current):
                c = A.odot[a][b]
                if c not in current:
                    current.add(c)
                    changed = True
    return frozenset(current)


def mid_perms(n, bot, top):
    """Every relabeling that fixes bot and top, as a tuple old id -> new id,
    sorted."""
    mids = [x for x in range(n) if x not in (bot, top)]
    for images in itertools.permutations(mids):
        perm = list(range(n))
        for src, dst in zip(mids, images):
            perm[src] = dst
        yield tuple(perm)


def lattice_orders(n):
    """All lattice orders on 0..n-1 with 0=bot, n-1=top, ids a linear
    extension: every labeling of every lattice, as (leq, join, meet), in
    increasing order of the bits rel[i][j] over the middle pairs i < j.

    Every isomorphism class shows up at least once because every finite
    lattice admits a linear extension.
    """
    if n == 1:
        yield ((True,),), ((0,),), ((0,),)
        return
    mids = list(range(1, n - 1))
    pairs = [(i, j) for i in mids for j in mids if i < j]
    for bits in itertools.product((False, True), repeat=len(pairs)):
        rel = [[i == j for j in range(n)] for i in range(n)]
        for i in range(n):
            rel[0][i] = True
            rel[i][n - 1] = True
        for (i, j), b in zip(pairs, bits):
            if b:
                rel[i][j] = True
        # transitivity check (ids form a linear extension, so i<j only)
        ok = True
        for i in mids:
            for j in mids:
                if i != j and rel[i][j]:
                    for k in mids:
                        if k != j and rel[j][k] and not rel[i][k]:
                            ok = False
                            break
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            continue
        leq = tuple(tuple(row) for row in rel)
        join = lub_table(leq)
        meet = glb_table(leq)
        if any(v is None for row in join for v in row):
            continue
        if any(v is None for row in meet for v in row):
            continue
        yield leq, join, meet


def first_labelings(n):
    """The first labeling of each lattice that ``lattice_orders`` yields:
    each order is dropped if an order isomorphism maps it onto an earlier
    kept order with the same sorted (down-set size, up-set size) pairs."""
    kept = {}
    for leq, join, meet in lattice_orders(n):
        sig = tuple(sorted((sum(row[x] for row in leq), sum(leq[x]))
                           for x in range(n)))
        earlier = kept.setdefault(sig, [])
        if all(find_isomorphism(leq, (), other, ()) is None
               for other in earlier):
            earlier.append(leq)
            yield leq, join, meet


def order_minimizers(leq, bot, top):
    """Least relabeled order encoding, and every (perm, inverse) pair
    whose relabeling reaches it, in ``mid_perms`` order: the full scan of
    the (n-2)! relabelings."""
    best, pairs = None, []
    for perm in mid_perms(len(leq), bot, top):
        inv = tuple(sorted(range(len(perm)), key=perm.__getitem__))
        bits = tuple(leq[x][y] for x in inv for y in inv)
        if best is None or bits < best:
            best, pairs = bits, [(perm, inv)]
        elif bits == best:
            pairs.append((perm, inv))
    return best, tuple(pairs)


def orbit_counts(n):
    """(leq, products, classes) per lattice of size n, in the generator's
    order: the residuated products the search finds on the lattice and the
    number of their isomorphism classes by Burnside's lemma,
    ``(1/|Aut L|) * sum over g in Aut L of #{products fixed by g}``.

    ``Aut L`` is found by brute force over the relabelings fixing the
    bounds; no canonical key or isomorphism search is used.  Products on
    one lattice are isomorphic exactly when an automorphism of the lattice
    maps one onto the other, so the classes are the orbits."""
    elems = range(n)
    for leq, join, meet in _lattice_orders(n):
        autos = [g for g in mid_perms(n, 0, n - 1)
                 if all(leq[g[x]][g[y]] == leq[x][y]
                        for x in elems for y in elems)]
        products = _products_on_lattice(leq, join, meet)
        fixed = sum(all(g[t[x][y]] == t[g[x]][g[y]]
                        for x in elems for y in elems)
                    for g in autos for t in products)
        assert fixed % len(autos) == 0
        yield leq, products, fixed // len(autos)


def brute_relabeling(A):
    """(key, perm): the least flattened (leq, odot) encoding over every
    relabeling fixing bot and top, and the first relabeling reaching it."""
    best = best_perm = None
    for perm in mid_perms(A.size, A.bot, A.top):
        leq = permute_relation(A.leq, perm)
        odot = permute_table(A.odot, perm)
        key = tuple(v for row in leq for v in row) + tuple(v for row in odot for v in row)
        if best is None or key < best:
            best, best_perm = key, perm
    return best, best_perm


def brute_canonical_key(A):
    return brute_relabeling(A)[0]


def slow_enumerate(n):
    """Scan all commutative unital tables.

    Enumerates every lattice order, then every commutative table with the
    top as unit, keeps those whose residuum exists and passes full
    validation, and deduplicates up to isomorphism.  Exponential; intended
    for cross-checking the fast generator at n <= 4 only.
    """
    found = {}
    for leq, join, meet in lattice_orders(n):
        top = n - 1
        cells = [(i, j) for i in range(n - 1) for j in range(i, n - 1)]
        for values in itertools.product(range(n), repeat=len(cells)):
            table = [[None] * n for _ in range(n)]
            for a in range(n):
                table[a][top] = a
                table[top][a] = a
            for (i, j), v in zip(cells, values):
                table[i][j] = v
                table[j][i] = v
            odot = tuple(tuple(row) for row in table)
            labels = tuple(f"e{i}" for i in range(n))
            try:
                A = validate(labels, leq, odot)
            except (AxiomViolation, NotResiduated):
                continue
            key = brute_canonical_key(A)
            if key not in found:
                found[key] = A
    return [found[k] for k in sorted(found)]


def product_lp_check(A, B, phi):
    """(lp(AxB), lp(A), lp(B)) with the product law and the definable-set
    product equation asserted."""
    P = direct_product(A, B)
    lp_p = lp_report(P, phi).global_holds
    lp_a = lp_report(A, phi).global_holds
    lp_b = lp_report(B, phi).global_holds
    assert lp_p == (lp_a and lp_b), "lifting must respect finite products"

    sat_p = definable_set(P, phi)
    sat_a = definable_set(A, phi)
    sat_b = definable_set(B, phi)
    nb = B.size
    expected = frozenset(i * nb + j for i in sat_a for j in sat_b)
    assert sat_p == expected, "definable sets must multiply componentwise"
    return lp_p, lp_a, lp_b


def scanned_factor_decomposition(A):
    """`theorems.local_factor_decomposition` with the product scan run on
    every algebra, the one-factor case included: the map x -> (neg e | x)
    over the atoms e of the Boolean center, checked pair by pair in A's
    tables."""
    B = sorted(classify(A).boolean_center)
    nonbot = [e for e in B if e != A.bot]
    atoms = [e for e in nonbot
             if not any(f != e and A.leq[f][e] for f in nonbot)]
    if not atoms:  # trivial algebra
        return True, True, ()
    factors = [upset_algebra(A, A.neg(e)) for e in atoms]
    sizes = tuple(X.size for X in factors)
    comps = [A.join[A.neg(e)] for e in atoms]
    img = [tuple(c[x] for c in comps) for x in A.elements()]
    leq, odot, els = A.leq, A.odot, A.elements()
    is_prod = (math.prod(sizes) == A.size and len(set(img)) == A.size
               and all(leq[x][y] == all(leq[a][b]
                                        for a, b in zip(img[x], img[y]))
                       and all(c[odot[x][y]] == odot[c[x]][c[y]]
                               for c in comps)
                       for x in els for y in els))
    all_local = all(is_local(X) for X in factors)
    return is_prod, all_local, sizes


def join_irreducibles(leq, join):
    """Non-bot elements that are not the join of two strictly smaller ones."""
    n = len(leq)
    bot, _ = bounds_of(leq)
    return [x for x in range(n) if x != bot and not any(
        join[a][b] == x for a in range(n) for b in range(n)
        if a != x and b != x and leq[a][x] and leq[b][x])]


def brute_table_ok(leq, join, meet, odot, top):
    """The oracle for the exactness of the enumerator's search: whether a
    completed table is a residuated product, axiom by axiom in plain loops:
    the unit law, odot below the meet, associativity and
    join-distributivity, the last three over c >= b by commutativity."""
    n = len(leq)
    for a in range(n):
        if odot[a][top] != a:
            return False
    for a in range(n):
        for b in range(a, n):
            if not leq[odot[a][b]][meet[a][b]]:
                return False
    for a in range(n):
        for b in range(n):
            ab = odot[a][b]
            for c in range(b, n):
                if odot[ab][c] != odot[a][odot[b][c]]:
                    return False
    for a in range(n):
        for b in range(n):
            for c in range(b, n):
                if odot[a][join[b][c]] != join[odot[a][b]][odot[a][c]]:
                    return False
    return True


def products_on_lattice(leq, join, meet):
    """The oracle for the exactness of the enumerator's search: every
    residuated product on one lattice order, in the search's order, by the
    plain backtracking it refines.  Each candidate p*q <= p meet q is
    checked for monotonicity against every assigned pair, the unit law is
    checked per irreducible, and each full assignment is extended to the
    carrier by joining over all irreducible pairs below, then given to
    ``brute_table_ok``."""
    n = len(leq)
    bot, top = bounds_of(leq)
    irr_all = join_irreducibles(leq, join)
    below = [[p for p in irr_all if leq[p][x]] for x in range(n)]
    irr = [x for x in irr_all if x != top]
    pin_top = top in irr_all
    free = [(p, q) for i, p in enumerate(irr) for q in irr[i:]]
    unit_check = {}
    if not pin_top:
        k = 0
        for i, p in enumerate(irr):
            k += len(irr) - i
            unit_check[k] = (p, irr[i:])
    results = []
    prod = {}
    if pin_top:
        for p in irr_all:
            prod[(p, top)] = p

    def monotone_ok(p, q, v):
        for (a, b), w in prod.items():
            if leq[a][p] and leq[b][q] and not leq[w][v]:
                return False
            if leq[p][a] and leq[q][b] and not leq[v][w]:
                return False
            if leq[a][q] and leq[b][p] and not leq[w][v]:
                return False
            if leq[q][a] and leq[p][b] and not leq[v][w]:
                return False
        return True

    def complete():
        table = [[None] * n for _ in range(n)]
        for x in range(n):
            for y in range(x, n):
                acc = bot
                for p in below[x]:
                    for q in below[y]:
                        acc = join[acc][prod[(p, q) if p <= q else (q, p)]]
                table[x][y] = table[y][x] = acc
        return tuple(tuple(row) for row in table)

    def backtrack(k):
        if k in unit_check:
            p, above = unit_check[k]
            if all(prod[(p, q)] != p for q in above):
                return
        if k == len(free):
            table = complete()
            if brute_table_ok(leq, join, meet, table, top):
                results.append(table)
            return
        p, q = free[k]
        for v in range(n):
            if leq[v][meet[p][q]] and monotone_ok(p, q, v):
                prod[(p, q)] = v
                backtrack(k + 1)
                del prod[(p, q)]

    backtrack(0)
    return results


def brute_gelfand_form_2(A):
    """Gelfand form (2) by its definition on principal filters, with
    g[x] = x^w: whenever [x) v [y) is improper, some [u), [v) with
    [u) ^ [v) trivial have [u) v [x) and [v) v [y) improper.  Scans every
    (u, v) for every (x, y)."""
    g = [A.power_limit(a) for a in A.elements()]

    def improper_join(x, y):
        return A.odot[g[x]][g[y]] == A.bot

    return all(
        any(A.join[g[u]][g[v]] == A.top
            and improper_join(u, x) and improper_join(v, y)
            for u in A.elements() for v in A.elements())
        for x in A.elements() for y in A.elements() if improper_join(x, y))


def opens_topology_predicates(kind, n, opens):
    """The eight topological predicates of `rlx.spectra.topology_predicates`
    by their definitions on an explicit open family: T0 and Hausdorff over
    pairs of opens, zero-dimensionality as every open a union of clopens,
    strong zero-dimensionality by the binary-cover splitting criterion and
    normality over pairs of disjoint closed sets and pairs of opens.  The
    two asserts (the collapse on Max, clopen separation against strong
    zero-dimensionality) run as in the library."""
    openset = set(opens)
    full = (1 << n) - 1
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
    if kind == "max":
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
    return MappingProxyType(preds)


def pair_split_witness(els, join, meet, top, bot):
    """`rlx.dlattice._split_witness` by its definition: the first pair
    x, y with x|y = top that no u, v with u&v = bot and u|x = v|y = top
    splits, or None, scanning every (u, v) for every (x, y)."""
    for x in els:
        for y in els:
            if join[x][y] != top:
                continue
            if not any(meet[u][v] == bot and join[u][x] == top
                       and join[v][y] == top for u in els for v in els):
                return (x, y)
    return None


def argparse_parser():
    """The argparse parser that `rlx.cli` used before its command table:
    the reference for `rlx.cli.parse_args` on well-formed arguments."""
    p = argparse.ArgumentParser(
        prog="rlx",
        description="finite residuated-lattice workbench")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check a .rlat file")
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("analyze", help="full analysis report")
    sp.add_argument("file")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--topology", action="store_true",
                    help="include the theorem traceability matrix")
    sp.add_argument("--theorems", action="store_true",
                    help="alias of --topology")
    sp.set_defaults(fn=cmd_analyze)

    sp = sub.add_parser("lp", help="lifting-property check")
    sp.add_argument("file")
    sp.add_argument("--formula")
    sp.add_argument("--blp", action="store_true")
    sp.add_argument("--ilp", action="store_true")
    sp.add_argument("--rlp", action="store_true")
    sp.add_argument("--filter", help="restrict to one filter, e.g. 'c,1'")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_lp)

    sp = sub.add_parser("check-theorems", help="run the theorem matrix")
    sp.add_argument("file")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--stats", action="store_true")
    sp.set_defaults(fn=cmd_check_theorems)

    sp = sub.add_parser("enumerate",
                        help=f"write all algebras of one size (<= {SIZE_CAP})")
    sp.add_argument("size", type=int)
    sp.add_argument("out_dir")
    sp.set_defaults(fn=cmd_enumerate)

    sp = sub.add_parser("reticulate", help="emit the reticulation lattice")
    sp.add_argument("file")
    sp.add_argument("--out", help="write a .blat file instead of stdout")
    sp.add_argument("--verify", action="store_true",
                    help="check the structural properties as well")
    sp.set_defaults(fn=cmd_reticulate)

    sp = sub.add_parser("quotient", help="print the quotient algebra")
    sp.add_argument("file")
    sp.add_argument("--filter", required=True)
    sp.set_defaults(fn=cmd_quotient)
    return p


# The loops that the element-vector kernels replaced, kept as the
# references of differential tests: the library's answers, witnesses
# included, must be theirs.


def scanned_distributivity_witness(leq):
    """First (a, b, c) with a&(b|c) != (a&b)|(a&c), or None: the O(n^3)
    scan that decided distributivity before the join-prime test."""
    join, meet = _validate_lattice(leq)[3:5]
    n = len(leq)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if meet[a][join[b][c]] != join[meet[a][b]][meet[a][c]]:
                    return (a, b, c)
    return None


def per_filter_lattice_blp(L, F):
    """Does F lift Boolean elements: B(L/F) inside B(L)/F?  Decided on the
    quotient of each filter asked, as before the lattice's bitmask."""
    Q = quotient(L, F)
    return (complemented_elements(Q.quotient)
            <= {Q.class_of[e] for e in complemented_elements(L)})


def plain_classify(A):
    """`classify` through the one-line methods, with distributivity read
    off the scan."""
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
    is_distributive = scanned_distributivity_witness(A.leq) is None
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


def plain_splitting(A, us, B):
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


def plain_boolean_splitting_conditions(A, max_arity=4):
    """`boolean_splitting_conditions` through the one-line methods."""
    B = classify(A).boolean_center
    w = [A.power_limit(x) for x in A.elements()]
    u = []
    for x in A.elements():
        m = A.top
        for e in B:
            if A.leq[w[x]][e]:
                m = A.meet[m][e]
        u.append(m)
    witnesses = {}

    cond1 = has_blp(A)

    cond2 = True
    for x in A.elements():
        if not A.leq[w[A.neg(x)]][A.neg(u[x])]:
            cond2 = False
            witnesses[2] = (x,)
            break

    cond3 = True
    for x in A.elements():
        for y in A.elements():
            if A.odot[x][y] != A.bot:
                continue
            if A.meet[u[x]][u[y]] != A.bot:
                cond3 = False
                witnesses[3] = (x, y)
                break
        if not cond3:
            break

    dead = set()
    for n in range(2, max_arity + 1):
        combo = _split_failure(A, u, n, 0, A.top, A.top, dead)
        if combo is not None:
            witnesses[4] = combo
            break
    cond4 = 4 not in witnesses

    return (cond1, cond2, cond3, cond4), witnesses

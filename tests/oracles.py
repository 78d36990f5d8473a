"""Slow, definition-level reference implementations used only by the tests.

Each one follows the textbook definition element by element, so the fast
closed forms in the library can be checked against it.  The small helpers
at the top are conveniences that only the tests use.
"""

import itertools

from rlx.core import classify, direct_product, validate
from rlx.dlattice import validate_bdl
from rlx.core import bounds_of
from rlx.enumeration import _lattice_orders, _table_ok, all_algebras
from rlx.errors import AxiomViolation, NotResiduated
from rlx.filters import _upsets, principal_filter, quotient
from rlx.formulas import BoundVar, Const, FreeVar, Neg, Pow, definable_set
from rlx.lifting import has_blp, lp_report
from rlx.iso import _mid_perms, permute_relation, permute_table, rl_isomorphism
from rlx.reticulation import Reticulation, _assert_axioms


def trivial_filter(A):
    return _upsets(A)[A.top]


def min_generator(F):
    """The minimum of F: its idempotent generator."""
    return F.gen


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
    _assert_axioms(R)
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


def brute_relabeling(A):
    """(key, perm): the least flattened (leq, odot) encoding over every
    relabeling fixing bot and top, and the first relabeling reaching it."""
    best = best_perm = None
    for perm in _mid_perms(A.size, A.bot, A.top):
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
    for leq, join, meet in _lattice_orders(n):
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


def join_irreducibles(leq, join):
    """Non-bot elements that are not the join of two strictly smaller ones."""
    n = len(leq)
    bot, _ = bounds_of(leq)
    return [x for x in range(n) if x != bot and not any(
        join[a][b] == x for a in range(n) for b in range(n)
        if a != x and b != x and leq[a][x] and leq[b][x])]


def products_on_lattice(leq, join, meet):
    """Every table the enumerator's search returns for one lattice order,
    by the plain backtracking it refines: each candidate p*q <= p meet q is
    checked for monotonicity against every assigned pair, the unit law is
    checked per irreducible, and each full assignment is extended to the
    carrier by joining over all irreducible pairs below, then given to
    ``_table_ok``."""
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
            if _table_ok(leq, join, meet, table, top):
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

"""Lifting properties: per-filter and global phi-LP, the three named
properties (Boolean, idempotent, regular), and their algebraic
characterizations."""

from __future__ import annotations

import itertools
from functools import lru_cache

from .core import Record, classify
from .filters import all_filters, principal_filter
from .formulas import (
    _definable_masks,
    atomic_parts,
    blp_formula,
    definable_set,
    ilp_formula,
    rlp_formula,
    term_values,
)


class FilterVerdict(Record):
    """`counterexample` is an element id that fails to lift, or None;
    `witness` a lifting element for the least liftable class, or None."""

    def __init__(self, holds: bool, counterexample: object, witness: object):
        self._set("holds", holds)
        self._set("counterexample", counterexample)
        self._set("witness", witness)


class LpReport(Record):
    def __init__(self, formula: object,
                 per_filter: tuple,  # of (Filter, FilterVerdict)
                 global_holds: bool):
        self._set("formula", formula)
        self._set("per_filter", per_filter)
        self._set("global_holds", global_holds)


def has_phi_lp(A, phi, F):
    """Filter-level lifting: every phi-element of A/F is a class of a
    phi-element of A.  Returns (holds, FilterVerdict)."""
    masks = _definable_masks(A, phi)
    return _filter_verdict(A, masks, _members(A, masks[A.top]), F)


def _members(A, mask):
    """The elements of A in `mask`, ascending."""
    return [a for a in A.elements() if mask >> a & 1]


def _filter_verdict(A, masks, sat, F):
    """:func:`has_phi_lp` read off A through the fiber map x -> e*x, with
    e = F.gen, `masks` = _definable_masks(A, phi) and `sat` the
    phi-elements of A, ascending.

    The classes of A/F are the fibers of x -> e*x, numbered by least
    member, and masks[e] holds the elements whose class satisfies phi in
    A/F.  A class lifts iff some phi-element of A lies in its fiber, so
    the counterexample is the least element of masks[e] whose fiber misses
    the phi-elements, and the witness is the least phi-element in the
    fiber of the least element of masks[e].
    """
    img = A.odot[F.gen]
    reached = {img[s] for s in sat}
    held = _members(A, masks[F.gen])
    for a in held:
        if img[a] not in reached:
            return False, FilterVerdict(False, a, None)
    witness = None
    if held:
        witness = next(s for s in sat if img[s] == img[held[0]])
    return True, FilterVerdict(True, None, witness)


def lp_report(A, phi):
    """phi-LP verdict for every filter, plus the global conjunction.

    The trivial and improper filters always lift and are asserted to.
    Deliberately not cached: it is called with many (algebra, formula)
    pairs, quotients included, and keeping every report alive raised the
    peak RSS of the size-7 theorem matrix by 8-9 %.  Callers that need
    only the global verdict use the cached :func:`has_blp`,
    :func:`has_ilp` and :func:`has_rlp`.
    """
    rows = []
    masks = _definable_masks(A, phi)
    sat = _members(A, masks[A.top])
    for F in all_filters(A):
        holds, verdict = _filter_verdict(A, masks, sat, F)
        if F.members == {A.top} or not F.proper:
            assert holds, "trivial/improper filters always have the lifting property"
        rows.append((F, verdict))
    return LpReport(phi, tuple(rows), all(v.holds for _, v in rows))


@lru_cache(maxsize=None)
def has_blp(A):
    return lp_report(A, blp_formula()).global_holds


@lru_cache(maxsize=None)
def has_ilp(A):
    return lp_report(A, ilp_formula()).global_holds


@lru_cache(maxsize=None)
def has_rlp(A):
    """Global regular lifting, which holds on every finite algebra."""
    return lp_report(A, rlp_formula()).global_holds


def atomic_lp_characterization(A, phi):
    """Global phi-LP for an atomic phi via the biresiduum criterion:
    every a admits e in A(phi) with d(a, e) in [d(t1(a), t2(a)))."""
    t1, t2 = atomic_parts(phi)
    sat = definable_set(A, phi)
    left, right = term_values(A, t1, {}), term_values(A, t2, {})
    for a in A.elements():
        gap = A.bires(left[a], right[a])
        F = principal_filter(A, gap)
        if not any(A.bires(a, e) in F for e in sat):
            return False
    return True


def boolean_splitting_conditions(A, max_arity=4):
    """The four equivalent Boolean-lifting conditions, with witnesses.

    (1) global BLP; (2) every x has Boolean e with e in [x), !e in [!x);
    (3) the x*y = 0 form; (4) the n-ary form for 2 <= n <= max_arity with
    pairwise joins 1 and total meet 0.  Returns (verdicts, witnesses): the
    witnesses map a condition index to its first failing tuple.

    Each search over Boolean e reduces to u(x), the least Boolean element
    of [x): the meet of the Boolean e >= x^w, Boolean because the Boolean
    center is closed under meet and contains top.  A Boolean e lies in [x)
    iff e >= u(x), and e -> !e reverses the order of the center, so (2)
    holds at x iff !u(x) in [!x), and (3) at (x, y) iff u(x) & u(y) = 0.
    (4) holds at x_1..x_k iff the meet of the u(x_i) is 0: then the !u(x_i)
    join to top, so a partition of unity d_i <= !u(x_i) exists, and the
    e_i = !d_i have pairwise joins 1 and meet 0.
    """
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
            m = A.top
            for x in combo:
                m = A.meet[m][u[x]]
            if m != A.bot:
                cond4 = False
                witnesses[4] = combo
                break

    return (cond1, cond2, cond3, cond4), witnesses

"""Lifting properties: per-filter and global phi-LP, the three named
properties (Boolean, idempotent, regular), and their algebraic
characterizations.  Every verdict that keeps only a bool reads one
bitmask per (algebra, formula), :func:`_lift_failures`, of the filters
that fail: `has_lp` and its three named forms ask whether it is 0, and
`filter_lifts` reads the bit of one filter.  `has_phi_lp` and
`lp_report` build the records, counterexample and witness included,
that the CLI and the report print."""

from __future__ import annotations

from functools import lru_cache

from .core import Record, classify
from .filters import all_filters
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
    phi-element of A.  Returns (holds, FilterVerdict); a caller that
    needs only `holds` reads :func:`filter_lifts`."""
    masks = _definable_masks(A, phi)
    return _filter_verdict(A, masks, _members(A, masks[A.top]), F)


def _members(A, mask):
    """The elements of A in `mask`, ascending."""
    return [a for a in A.elements() if mask >> a & 1]


@lru_cache(maxsize=None)
def _lift_failures(A, phi):
    """The bitmask of the idempotents e whose [e) fails phi-LP: bit e is
    set iff x -> e*x takes some element of masks[e] outside the image of
    the phi-elements of A (see :func:`_filter_verdict`), where masks =
    _definable_masks(A, phi).  Every per-filter and global verdict that
    keeps only the bool reads it.  The trivial filter always lifts, and
    the improper one iff some element satisfies phi: A/A is trivial and
    satisfies every formula.  Both are asserted."""
    masks = _definable_masks(A, phi)
    sat = _members(A, masks[A.top])
    failures = 0
    for e, mask in enumerate(masks):
        if mask:
            img = A.odot[e]
            reached = {img[s] for s in sat}
            for a, y in enumerate(img):
                if mask >> a & 1 and y not in reached:
                    failures |= 1 << e
                    break
    assert (not failures >> A.top & 1
            and (failures >> A.bot & 1) != bool(sat)), \
        "the trivial filter lifts, the improper one iff phi is satisfiable"
    return failures


def filter_lifts(A, phi, F):
    """Whether F has phi-LP: the bool of :func:`has_phi_lp`, no record
    built."""
    return not _lift_failures(A, phi) >> F.gen & 1


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

    Deliberately not cached: it is called with many (algebra, formula)
    pairs, quotients included, and keeping every report alive raised the
    peak RSS of the size-7 theorem matrix by 8-9 %.  Callers that need
    only a bool use :func:`has_lp` or :func:`filter_lifts`, which build
    no record.
    """
    masks = _definable_masks(A, phi)
    sat = _members(A, masks[A.top])
    rows = tuple((F, _filter_verdict(A, masks, sat, F)[1])
                 for F in all_filters(A))
    return LpReport(phi, rows, all(v.holds for _, v in rows))


def has_lp(A, phi):
    """Global phi-LP, the `global_holds` of :func:`lp_report`: no
    filter fails."""
    return not _lift_failures(A, phi)


def has_blp(A):
    return has_lp(A, blp_formula())


def has_ilp(A):
    return has_lp(A, ilp_formula())


def has_rlp(A):
    """Global regular lifting, which holds on every finite algebra; read
    off the lifting mask like the other two."""
    return has_lp(A, rlp_formula())


def atomic_lp_characterization(A, phi):
    """Global phi-LP for an atomic phi via the biresiduum criterion:
    every a admits e in A(phi) with d(a, e) in [d(t1(a), t2(a)))."""
    t1, t2 = atomic_parts(phi)
    sat = definable_set(A, phi)
    left, right = term_values(A, t1, {}), term_values(A, t2, {})
    imp, meet, w = A.imp, A.meet, A.power_limits
    for a, x, y in zip(A.elements(), left, right):
        # [gap) is the up-set of gap^w, so z lies in it iff gap^w <= z
        above = A.leq[w[meet[imp[x][y]][imp[y][x]]]]
        row = imp[a]
        for e in sat:
            if above[meet[row[e]][imp[e][a]]]:
                break
        else:
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
    w, neg = A.power_limits, [row[A.bot] for row in A.imp]
    els, leq, meet, bot = A.elements(), A.leq, A.meet, A.bot
    u = []
    for x in els:
        m = A.top
        above = leq[w[x]]
        for e in B:
            if above[e]:
                m = meet[m][e]
        u.append(m)
    witnesses = {}

    cond1 = has_blp(A)

    cond2 = True
    for x in els:
        if not leq[w[neg[x]]][neg[u[x]]]:
            cond2 = False
            witnesses[2] = (x,)
            break

    cond3 = True
    for x in els:
        row, low = A.odot[x], meet[u[x]]
        for y in els:
            if row[y] == bot and low[u[y]] != bot:
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


def _split_failure(A, u, k, start, prod, meet, dead):
    """The first k-multiset of elements >= start, in the order of
    combinations_with_replacement, that takes `prod` to 0 while the meet
    of its u(x) with `meet` stays above 0; None if there is none.

    The meet only decreases as a multiset grows, so an x that takes it to
    0 is skipped together with every extension through it.  The answer
    depends only on (k, start, prod, meet), so a state that found none is
    put in `dead` and never searched again: skipping it skips only
    extensions that fail, and the first witness is unchanged."""
    for x in range(start, A.size):
        m = A.meet[meet][u[x]]
        if m == A.bot:
            continue
        p = A.odot[prod][x]
        if k == 1:
            if p == A.bot:
                return (x,)
        elif (k - 1, x, p, m) not in dead:
            rest = _split_failure(A, u, k - 1, x, p, m, dead)
            if rest is not None:
                return (x, *rest)
    dead.add((k, start, prod, meet))
    return None

"""Executable characterization theorems.

Every check evaluates both sides of a biconditional (or the hypothesis and
conclusion of an implication) independently and reports agreement, giving
a single-run traceability matrix.  A disagreement means an implementation
bug, not a property of the input algebra.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from functools import lru_cache, reduce
from math import prod
from operator import and_, or_

from .core import Record, classify, shared_set, upset_algebra
from .dlattice import is_conormal_lattice, conormal_radical_lifting, lattice_blp
from .filters import (
    _filters,
    all_filters,
    filter_image,
    filter_join,
    filter_meet,
    is_local,
    is_semisimple,
    max_spec,
    principal_filter,
    quotient,
    radical,
)
from .formulas import (
    _definable_masks,
    atomic_parts,
    blp_formula,
    ilp_formula,
    rlp_formula,
    term_values,
)
from .io import print_filter
from .lifting import (
    _lift_failures,
    atomic_lp_characterization,
    filter_lifts,
    has_blp,
    has_ilp,
    has_rlp,
    boolean_splitting_conditions,
)
from .spectra import (
    clopen_sets,
    clopen_via_boolean,
    gelfand_conditions,
    star_property,
    star_star_property,
    stone_max,
    stone_spec,
    topology_predicates,
)
from .reticulation import (
    archimedean_bridge,
    blp_transfer,
    build_reticulation,
    signature_properties,
    verify_retic_properties,
)


class TheoremVerdict(Record):
    """One row of the theorem matrix.  A matrix holds many rows and few
    theorem ids, so each id is interned and the fields live in slots
    instead of a dict per row; equality, hash and repr are those of the
    other records."""

    __slots__ = ("theorem_id", "lhs", "rhs", "agree", "witness")

    def __init__(self, theorem_id: str, lhs: bool, rhs: bool, agree: bool,
                 witness: object = None):
        self._set("theorem_id", sys.intern(theorem_id))
        self._set("lhs", lhs)
        self._set("rhs", rhs)
        self._set("agree", agree)
        self._set("witness", witness)

    def as_dict(self):
        return {k: getattr(self, k) for k in self.__slots__}

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.as_dict() == other.as_dict()
        return NotImplemented

    def __hash__(self):
        return hash((self.theorem_id, self.lhs, self.rhs, self.agree,
                     self.witness))

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in self.as_dict().items())
        return f"TheoremVerdict({fields})"


@lru_cache(maxsize=None)
def _shared_row(tid, lhs, rhs, agree):
    """The one stored row (tid, lhs, rhs, agree) without a witness.

    Rows repeat from algebra to algebra, and a row without a witness is
    one of at most four per theorem id.  So such rows share one object
    each, and the store grows with the theorem ids, not with the algebras.
    """
    return TheoremVerdict(tid, lhs, rhs, agree)


def _row(tid, lhs, rhs, agree, witness):
    if witness is None:
        return _shared_row(tid, lhs, rhs, agree)
    return TheoremVerdict(tid, lhs, rhs, agree, witness)


def _equiv(tid, lhs, rhs, witness=None):
    lhs, rhs = bool(lhs), bool(rhs)
    if witness is None:
        return _shared_row(tid, lhs, rhs, lhs == rhs)
    return TheoremVerdict(tid, lhs, rhs, lhs == rhs, witness)


def _implies(tid, hyp, concl, witness=None):
    return _row(tid, bool(hyp), bool(concl), (not hyp) or bool(concl),
                witness)


def _forall(tid, failures):
    """A universally quantified identity; agree iff no counterexample."""
    ok = len(failures) == 0
    return _row(tid, ok, ok, ok, failures[0] if failures else None)


def check_blp_conditions(A):
    (c1, c2, c3, c4), wit = boolean_splitting_conditions(A)
    return [
        _equiv("blp-splitting.2", c1, c2, wit.get(2)),
        _equiv("blp-splitting.3", c1, c3, wit.get(3)),
        _equiv("blp-splitting.4", c1, c4, wit.get(4)),
    ]


def check_atomic_characterization(A):
    out = []
    for name, phi, direct in (
            ("blp", blp_formula(), has_blp(A)),
            ("ilp", ilp_formula(), has_ilp(A)),
            ("rlp", rlp_formula(), has_rlp(A))):
        via_terms = atomic_lp_characterization(A, phi)
        out.append(_equiv(f"atomic-lift.{name}", direct, via_terms))
    return out


def check_quotient_stability(A):
    out = []
    for name, has_lp in (("blp", has_blp), ("ilp", has_ilp)):
        every_quotient = all(has_lp(quotient(A, F).quotient)
                             for F in all_filters(A))
        out.append(_equiv(f"quotient-stability.{name}", has_lp(A),
                          every_quotient))
    return out


def check_factor_congruences(A):
    """Complementary filter pairs behave like product decompositions."""
    failures = []
    filters = all_filters(A)
    lifts = [(has_lp, has_lp(A)) for has_lp in (has_blp, has_ilp)]
    for F in filters:
        for G in filters:
            if filter_meet(F, G).gen != A.top:
                continue
            if filter_join(F, G).gen != A.bot:
                continue
            for has_lp, whole in lifts:
                parts = (has_lp(quotient(A, F).quotient)
                         and has_lp(quotient(A, G).quotient))
                if whole != parts:
                    failures.append((print_filter(A, F), print_filter(A, G)))
    return [_forall("factor-congruence-lift", failures)]


def check_monotone_lifting(A):
    """If the Boolean (resp. idempotent) classes cover a quotient, every
    larger filter lifts.  Whether G lifts does not depend on F: G's two
    bits of the algebra's lifting masks are read once, for every pair."""
    failures = []
    report = classify(A)
    B, idem = report.boolean_center, report.idempotents
    filters = all_filters(A)
    lifts = [(G, filter_lifts(A, blp_formula(), G),
              filter_lifts(A, ilp_formula(), G)) for G in filters]
    for F in filters:
        Q = quotient(A, F)
        all_classes = set(range(Q.quotient.size))
        b_covers = {Q.class_of[e] for e in B} == all_classes
        i_covers = {Q.class_of[e] for e in idem} == all_classes
        for G, blp, ilp in lifts:
            if not F <= G:
                continue
            if b_covers and not (blp and ilp):
                failures.append(("boolean", print_filter(A, F),
                                 print_filter(A, G)))
            if i_covers and not ilp:
                failures.append(("idempotent", print_filter(A, F),
                                 print_filter(A, G)))
    return [_forall("covering-classes-lift-upward", failures)]


def check_chain_facts(A):
    report = classify(A)
    primes, maxima = _filters(A)[2:4]
    # the lifting masks: bit e is set iff [e) fails
    blp = _lift_failures(A, blp_formula())
    ilp = _lift_failures(A, ilp_formula())
    local = len(maxima) == 1
    out = []
    # the one-element algebra has no proper filters, hence no maximal
    # filter; locality statements are read for non-trivial algebras
    nontrivial_chain = report.is_chain and A.size > 1
    out.append(_implies("chain-local", nontrivial_chain, local))
    out.append(_implies("local-blp", local, not blp))
    out.append(_implies("chain-blp", report.is_chain, not blp))
    out.append(_implies("finite-chain-ilp", report.is_chain, not ilp))
    failures = []
    if report.is_chain:
        # an idempotent generates its own principal filter
        failures = [a for a in sorted(report.idempotents) if ilp >> a & 1]
    out.append(_forall("chain-idempotent-filter-ilp", failures))
    prime_failures = [print_filter(A, P) for P in primes if blp >> P.gen & 1]
    out.append(_forall("prime-filters-blp", prime_failures))
    out.append(_implies("hyperarchimedean-blp",
                        report.is_hyperarchimedean, not blp))
    out.append(_equiv("hyperarchimedean-spec-is-max",
                      report.is_hyperarchimedean, len(primes) == len(maxima)))
    return out


def check_spec_strong_zero_dim(A):
    blp = has_blp(A)
    szd = topology_predicates(stone_spec(A))["strongly_zero_dim"]
    return [_equiv("spec-strong-zero-dim.blp", blp, szd)]


def _max_boolean_forms(A):
    """Conditions 2 and 3 of :func:`check_max_boolean_forms`, which read
    only A's filter signature: distinct maximal filters are split by a
    Boolean element and its negation, and the d(e) are a basis of Max(A):
    each open is the union of the d(e) inside it."""
    B = sorted(classify(A).boolean_center)
    mx = stone_max(A)
    maxima = [M.members for M in max_spec(A)]
    pairs = [(e, A.imp[e][A.bot]) for e in B]
    split = all(any(e in M and ne in N for e, ne in pairs)
                and any(e in N and ne in M for e, ne in pairs)
                for i, M in enumerate(maxima) for N in maxima[i + 1:])
    basis = [mx.d(e) for e in B]
    return split, all(U == reduce(or_, (D for D in basis if D & ~U == 0), 0)
                      for U in mx.opens)


def check_max_boolean_forms(A):
    """The eight equivalent Boolean-lifting conditions through Max(A)."""
    blp = has_blp(A)
    side = _side(A)
    B = sorted(classify(A).boolean_center)
    mx = stone_max(A)
    v, full = mx.v, mx.full
    vd = [(v[e], full & ~v[e]) for e in B]
    cond2, cond3 = side.split_maximals, side.boolean_basis
    # (10') every a admits Boolean e with v(a) <= d(e), v(!a) <= v(e)
    cond10 = True
    for va, row in zip(v, A.imp):
        vna = v[row[A.bot]]
        ok = False
        for ve, de in vd:
            if va & ~de == 0 and vna & ~ve == 0:
                ok = True
                break
        if not ok:
            cond10 = False
            break
    preds = topology_predicates(mx)
    gel = side.gelfand
    conds = {
        "split-maximals": cond2,
        "boolean-basis": cond3,
        "spectral-split": cond10,
        "gelfand+zero-dim": gel and preds["zero_dim"],
        "gelfand+strong-zero-dim": gel and preds["strongly_zero_dim"],
        "gelfand+normal": gel and preds["normal"],
        "gelfand+boolean-space": gel and preds["boolean_space"],
    }
    return [_equiv(f"max-boolean-forms.{name}", blp, val)
            for name, val in conds.items()]


def check_star_forms(A):
    record = _filters(A)
    holds = _filter_side(record[5]).star
    B = sorted(classify(A).boolean_center)
    rad = record[4].members
    mx = stone_max(A)
    w, bot, neg = A.power_limits, A.bot, [row[A.bot] for row in A.imp]

    cond2 = True
    for odot, join in zip(A.odot, A.join):
        if not any(w[odot[e]] == bot and join[e] in rad for e in B):
            cond2 = False
            break

    v, full = mx.v, mx.full
    d = [full & ~x for x in v]
    vd = [(v[e], d[e]) for e in B]
    # (3) some Boolean e has v(a) <= d(e), d(a) <= v(e); (4) the same with
    # negs, the union of the v(!(a^k)), which lies in v(e) iff each does
    cond3 = cond4 = True
    for a, (va, da) in enumerate(zip(v, d)):
        negs, p, row = 0, A.top, A.odot[a]
        for _ in d:  # p runs through a, a^2, ..., a^n
            p = row[p]
            negs |= v[neg[p]]
        ok3 = ok4 = False
        for ve, de in vd:
            if va & ~de == 0:
                ok3 = ok3 or da & ~ve == 0
                ok4 = ok4 or negs & ~ve == 0
        cond3, cond4 = cond3 and ok3, cond4 and ok4
    return [
        _equiv("star-forms.nilpotent-radical", holds, cond2),
        _equiv("star-forms.spectral", holds, cond3),
        _equiv("star-forms.spectral-powers", holds, cond4),
    ]


def check_star_chain(A):
    starstar, _ = star_star_property(A)
    blp = has_blp(A)
    return [
        _implies("star-implies-blp", _side(A).star, blp),
        _implies("blp-implies-starstar", blp, starstar),
    ]


def check_gelfand_forms(A):
    return list(_side(A).gelfand_forms)


def check_radical_lifting_consequences(A):
    record = _filters(A)
    ok = filter_lifts(A, blp_formula(), record[4])
    gel = _filter_side(record[5]).gelfand
    out = [_implies("gelfand-radical-blp", gel, ok)]
    # the lattice side: conormal lattices lift their radical
    R = build_reticulation(A)
    L = R.lattice
    if is_conormal_lattice(L):
        out.append(_implies("conormal-radical-blp", True, conormal_radical_lifting(L)))
    else:
        out.append(_implies("conormal-radical-blp", False, True))
    return out


def check_max_boolean_corollaries(A):
    rad = radical(A)
    Q = quotient(A, rad).quotient
    mx_boolean = topology_predicates(stone_max(A))["boolean_space"]
    out = [_equiv("max-boolean-vs-semisimple-quotient",
                  mx_boolean, has_blp(Q))]
    semisimple = is_semisimple(A)
    out.append(_implies("semisimple-max-boolean-blp",
                        semisimple and mx_boolean, has_blp(A)))
    return out


def check_semisimple_equivalences(A):
    semisimple = is_semisimple(A)
    preds = topology_predicates(stone_max(A))
    out = []
    if semisimple:
        blp = has_blp(A)
        for name in ("zero_dim", "strongly_zero_dim", "normal", "boolean_space"):
            out.append(_equiv(f"semisimple-forms.{name}", blp, preds[name]))
    else:
        out.append(_implies("semisimple-forms.vacuous", False, True))
    return out


def check_semisimple_star_equivalences(A):
    """With semisimplicity (semilocal is automatic on finite algebras) the
    splitting property joins the equivalence chain."""
    semisimple = is_semisimple(A)
    out = []
    if semisimple:
        side = _side(A)
        star, gel = side.star, side.gelfand
        blp = has_blp(A)
        out.append(_equiv("semisimple-semilocal.star-blp", star, blp))
        out.append(_equiv("semisimple-semilocal.blp-gelfand", blp, gel))
    else:
        out.append(_implies("semisimple-semilocal.vacuous", False, True))
    return out


def check_semisimple_hausdorff(A):
    semisimple = is_semisimple(A)
    hausdorff = topology_predicates(stone_max(A))["hausdorff"]
    return [_implies("semisimple-hausdorff-gelfand",
                     semisimple and hausdorff, _side(A).gelfand)]


@lru_cache(maxsize=None)
def local_factor_decomposition(A):
    """Decompose A along the atoms e of its Boolean center and report
    (decomposition-is-a-product, every-factor-local, factor sizes).

    The decomposition is the paper's map x -> (neg e | x)_e into the
    product of the factors [neg e).  Its components are elements of A, so
    it is checked in A's tables: the factor sizes multiply to n, the
    images are distinct, x <= y iff every component is <=, and
    neg e | x*y = (neg e | x) * (neg e | y) in every component.  Nothing
    more is needed.  An order bijection is a lattice isomorphism, and a
    residuum is fixed by <= and *; `validate` has proved A and each factor
    residuated, so the map also carries -> to the product's ->_e.

    When the top is the only atom (B(A) = {0, 1}) the one factor is
    [neg 1) = [0) = A itself and the one component is x -> 0 | x = x, so
    every comparison of the scan compares a value with itself: the answer
    is (True, is_local(A), (n,)) without the scan.  Every algebra of
    prime size is such, since a Boolean e other than 0 and 1 makes n =
    |[e)| * |[neg e)|.  Of the 889 algebras of sizes 1..7, 885 take this
    path; the trivial algebra and three decomposable ones do not.

    Two row families read it, so it is cached; the answer is a tuple of
    immutable values."""
    B = sorted(classify(A).boolean_center)
    nonbot = [e for e in B if e != A.bot]
    atoms = [e for e in nonbot
             if not any(f != e and A.leq[f][e] for f in nonbot)]
    if not atoms:  # trivial algebra
        return True, True, ()
    if atoms == [A.top]:  # directly indecomposable
        return True, is_local(A), (A.size,)
    factors = [upset_algebra(A, A.neg(e)) for e in atoms]
    sizes = tuple(X.size for X in factors)
    comps = [A.join[A.neg(e)] for e in atoms]
    img = [tuple(c[x] for c in comps) for x in A.elements()]
    leq, odot, els = A.leq, A.odot, A.elements()
    is_prod = (prod(sizes) == A.size and len(set(img)) == A.size
               and all(leq[x][y] == all(leq[a][b]
                                        for a, b in zip(img[x], img[y]))
                       and all(c[odot[x][y]] == odot[c[x]][c[y]]
                               for c in comps)
                       for x in els for y in els))
    all_local = all(is_local(X) for X in factors)
    return is_prod, all_local, sizes


def check_local_product_square(A):
    """Semilocal equivalence square: radical lifting, global lifting, the
    star splitting, and product-of-locals all coincide (finite algebras
    are semilocal)."""
    record = _filters(A)
    fails = _lift_failures(A, blp_formula())  # bit e: [e) fails
    ok_rad, blp = not fails >> record[4].gen & 1, not fails
    star = _filter_side(record[5]).star
    is_prod, locals_ok, sizes = local_factor_decomposition(A)
    prod_of_locals = is_prod and locals_ok
    return [
        _equiv("local-product.radical-vs-blp", ok_rad, blp),
        _equiv("local-product.blp-vs-star", blp, star),
        _equiv("local-product.blp-vs-decomposition", blp, prod_of_locals,
               witness=sizes),
    ]


def check_gelfand_consequences(A):
    side = _side(A)
    gel, star = side.gelfand, side.star
    is_prod, locals_ok, _sizes = local_factor_decomposition(A)
    return [
        _implies("gelfand-blp", gel, has_blp(A)),
        _implies("gelfand-star", gel, star),
        _implies("gelfand-local-product", gel, is_prod and locals_ok),
    ]


def check_spectral_lemmas(A):
    out = []
    mx = stone_max(A)
    B = sorted(classify(A).boolean_center)
    record = _filters(A)
    rad, shared = record[4], _filter_side(record[5]).spectral
    w, bot, neg = A.power_limits, A.bot, [row[A.bot] for row in A.imp]

    v, full = mx.v, mx.full
    d = [full & ~x for x in v]
    failures = []
    for a, (va, da) in enumerate(zip(v, d)):
        odot, join = A.odot[a], A.join[a]
        for e in B:
            ve, de = v[e], d[e]
            nilp_ne = w[odot[neg[e]]] == bot
            nilp_e = w[odot[e]] == bot
            if (va & ~ve == 0) != nilp_ne:
                failures.append(("v<=v", a, e))
            if (va & ~de == 0) != nilp_e:
                failures.append(("v<=d", a, e))
            if (da & ~ve == 0) != (join[e] in rad.members):
                failures.append(("d<=v", a, e))
    out.append(_forall("nilpotence-mirrors-containment", failures))

    failures = []
    for a, row in enumerate(A.odot):
        union, p = 0, A.top
        for _ in d:  # p runs through a, a^2, ..., a^n
            p = row[p]
            union |= v[neg[p]]
        if d[a] != union:
            failures.append(a)
    out.append(_forall("complement-as-power-union", failures))
    out.extend(shared[:2])  # the closure of Max in Spec

    # Max(A) is homeomorphic to Max(A / Rad) through the filter correspondence
    Q = quotient(A, rad)
    mxq = stone_max(Q.quotient)
    mapping = []
    ok = True
    for M in mx.points:
        img = filter_image(Q, M)
        try:
            mapping.append(next(i for i, N in enumerate(mxq.points)
                                if N.members == img.members))
        except StopIteration:
            ok = False
            break
    if ok:
        ok = len(set(mapping)) == len(mxq.points) == len(mx.points)
    if ok:
        transported = set()
        for U in mx.opens:
            m = 0
            for i, j in enumerate(mapping):
                if (U >> i) & 1:
                    m |= 1 << j
            transported.add(m)
        ok = transported == set(mxq.opens)
    out.append(_equiv("max-of-semisimple-quotient-homeo", ok, True))
    return out + list(shared[2:])


def _spectral_rows(A, gelfand):
    """The rows of :func:`check_spectral_lemmas` that read only A's filter
    signature; `gelfand` is whether A is Gelfand.  The closure of Max in
    Spec is V(Rad), and dense when A is semisimple; D(e) = V(!e) for
    Boolean e on both spaces; the clopens are the D(e)."""
    mx, sp = stone_max(A), stone_spec(A)
    semisimple = is_semisimple(A)
    maxima = {M.members for M in max_spec(A)}
    max_mask = sp.mask_of([P for P in sp.points if P.members in maxima])
    closure = reduce(and_, (sp.full & ~U for U in sp.opens
                            if max_mask & U == 0), sp.full)
    swapped = [e for e in sorted(classify(A).boolean_center)
               for S in (sp, mx) if S.d(e) != S.v[A.imp[e][A.bot]]]
    clopen = [set(clopen_sets(S)) == set(clopen_via_boolean(A, kind))
              for S, kind in ((sp, "spec"), (mx, "max"))]
    return (_equiv("max-closure-is-radical-locus",
                   closure == sp.v[radical(A).gen], True),
            _implies("semisimple-max-dense", semisimple, closure == sp.full),
            _forall("boolean-open-closed-swap", swapped),
            _equiv("clopen-spec-boolean", clopen[0], True),
            _equiv("clopen-max-boolean", clopen[1], True)
            if gelfand or semisimple
            else _implies("clopen-max-boolean", False, True))


def check_complementary_filter_lemma(A):
    """F, G intersect trivially and join improperly iff they are the
    principal filters of a complementary Boolean pair.  The lemma reads
    only the filter signature: the first failing pair of generators is
    found on the representative and shown under A's labels."""
    upsets, *_, R = _filters(A)
    pair = _filter_side(R).complementary
    failures = ([tuple(print_filter(A, upsets[e]) for e in pair)]
                if pair else [])
    return [_forall("complementary-filter-pairs", failures)]


def _complementary_failure(A):
    """The generators of the first filters F, G against the lemma of
    :func:`check_complementary_filter_lemma`, or None."""
    filters, B = all_filters(A), classify(A).boolean_center
    return next(((F.gen, G.gen) for F in filters for G in filters
                 if (filter_meet(F, G).gen == A.top
                     and filter_join(F, G).gen == A.bot)
                 != (F.gen in B and G.gen == A.imp[F.gen][A.bot])), None)


def check_biresiduum_gap_lemma(A):
    """a always satisfies phi modulo the filter generated by its own
    term gap d(t1(a), t2(a))."""
    failures = []
    w = A.power_limits
    for name, phi in (("blp", blp_formula()), ("ilp", ilp_formula()),
                      ("rlp", rlp_formula())):
        t1, t2 = atomic_parts(phi)
        left, right = term_values(A, t1, {}), term_values(A, t2, {})
        # per generator of a gap filter [gap): the classes of A/[gap) and
        # the mask whose bit c is set iff A/[gap) satisfies phi at class c
        held = {}
        for a, x, y in zip(A.elements(), left, right):
            gap = A.bires(x, y)
            if w[gap] not in held:
                Q = quotient(A, principal_filter(A, gap))
                held[w[gap]] = (Q.class_of, _definable_masks(
                    Q.quotient, phi)[Q.quotient.top])
            class_of, mask = held[w[gap]]
            if not mask >> class_of[a] & 1:
                failures.append((name, a))
    return [_forall("gap-filter-satisfaction", failures)]


def check_retic_bridge(A):
    _, filters, *_, R = _filters(A)
    side = _filter_side(R)
    verdicts = verify_retic_properties(A, side.retic)
    out = [_equiv(f"reticulation-structure.{k}", v, True)
           for k, v in sorted(verdicts.items())]

    # bit e of `fails` is set iff [e) fails Boolean lifting in A, and of
    # `lifts` iff its image lifts in L(A)
    fails, lifts = _lift_failures(A, blp_formula()), side.lattice_lifts
    failures = [print_filter(A, F) for F in filters
                if (not fails >> F.gen & 1) != (lifts >> F.gen & 1)]
    out.append(_forall("reticulation-blp-transfer", failures))
    out.append(_equiv("reticulation-global-blp", not fails, side.lattice_blp))
    out.append(side.hyper)
    return out


FilterSide = namedtuple("FilterSide", "gelfand star split_maximals "
                        "boolean_basis gelfand_forms spectral complementary "
                        "retic lattice_lifts lattice_blp hyper")


@lru_cache(maxsize=None)
def _filter_side(R):
    """The verdicts of the matrix that read only R's filter signature
    (`filters.Signature`), decided on R, the representative of every
    algebra with that signature: rows without a label, bits, and the
    complementary pair and the lattice-lifting mask by generator.  Two
    algebras with one signature give these computations identical inputs,
    so recomputing them would repeat the same operations on the same
    values: the argument `validate`'s memo makes for equal tables.  The
    row and verdict tuples repeat across signatures, so they are shared."""
    conds = gelfand_conditions(R)
    retic = build_reticulation(R)
    bridge = archimedean_bridge(R)
    return FilterSide(
        conds[4], star_property(R)[0], *_max_boolean_forms(R),
        shared_set(tuple(_equiv(f"gelfand-forms.{k}", conds[4], conds[k])
                         for k in sorted(conds) if k != 4)),
        shared_set(_spectral_rows(R, conds[4])), _complementary_failure(R),
        shared_set(tuple(signature_properties(retic).items())),
        sum(1 << F.gen for F in all_filters(R) if blp_transfer(R, F)[1]),
        lattice_blp(retic.lattice)[1],
        _equiv("hyperarchimedean-boolean-reticulation",
               bridge["hyperarchimedean"], bridge["lattice_boolean"]))


def _side(A):
    """The filter-side verdicts of A, those of its representative."""
    return _filter_side(_filters(A)[5])


ALL_CHECKS = (
    check_blp_conditions,
    check_atomic_characterization,
    check_quotient_stability,
    check_factor_congruences,
    check_monotone_lifting,
    check_chain_facts,
    check_spec_strong_zero_dim,
    check_max_boolean_forms,
    check_star_forms,
    check_star_chain,
    check_gelfand_forms,
    check_radical_lifting_consequences,
    check_max_boolean_corollaries,
    check_semisimple_equivalences,
    check_semisimple_star_equivalences,
    check_semisimple_hausdorff,
    check_local_product_square,
    check_gelfand_consequences,
    check_spectral_lemmas,
    check_complementary_filter_lemma,
    check_biresiduum_gap_lemma,
    check_retic_bridge,
)


def theorem_checks(A):
    """Run every check; returns the flat, deterministically ordered list."""
    out = []
    for fn in ALL_CHECKS:
        out.extend(fn(A))
    return out

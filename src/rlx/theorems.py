"""Executable characterization theorems.

Every check evaluates both sides of a biconditional (or the hypothesis and
conclusion of an implication) independently and reports agreement, giving
a single-run traceability matrix.  A disagreement means an implementation
bug, not a property of the input algebra.
"""

from __future__ import annotations

from functools import lru_cache

from .core import Record, classify, direct_product, upset_algebra
from .dlattice import is_conormal_lattice, conormal_radical_lifting
from .filters import (
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
    spec,
)
from .formulas import blp_formula, ilp_formula, rlp_formula
from .iso import rl_isomorphism
from .lifting import (
    atomic_lp_characterization,
    has_blp,
    has_ilp,
    has_phi_lp,
    has_rlp,
    boolean_splitting_conditions,
)
from .spectra import (
    gelfand_conditions,
    is_gelfand,
    star_property,
    star_star_property,
    stone_max,
    stone_spec,
    topology_predicates,
)
from .reticulation import build_reticulation


class TheoremVerdict(Record):
    def __init__(self, theorem_id: str, lhs: bool, rhs: bool, agree: bool,
                 witness: object = None):
        self._set("theorem_id", theorem_id)
        self._set("lhs", lhs)
        self._set("rhs", rhs)
        self._set("agree", agree)
        self._set("witness", witness)

    def as_dict(self):
        return {
            "theorem_id": self.theorem_id,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "agree": self.agree,
            "witness": self.witness,
        }


def _equiv(tid, lhs, rhs, witness=None):
    return TheoremVerdict(tid, bool(lhs), bool(rhs), bool(lhs) == bool(rhs),
                          witness)


def _implies(tid, hyp, concl, witness=None):
    return TheoremVerdict(tid, bool(hyp), bool(concl),
                          (not hyp) or bool(concl), witness)


def _forall(tid, failures):
    """A universally quantified identity; agree iff no counterexample."""
    ok = len(failures) == 0
    return TheoremVerdict(tid, ok, ok, ok,
                          witness=failures[0] if failures else None)


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
    for F in filters:
        for G in filters:
            if filter_meet(F, G).gen != A.top:
                continue
            if filter_join(F, G).gen != A.bot:
                continue
            for has_lp in (has_blp, has_ilp):
                parts = (has_lp(quotient(A, F).quotient)
                         and has_lp(quotient(A, G).quotient))
                if has_lp(A) != parts:
                    failures.append((repr(F), repr(G)))
    return [_forall("factor-congruence-lift", failures)]


def check_monotone_lifting(A):
    """If the Boolean (resp. idempotent) classes cover a quotient, every
    larger filter lifts."""
    failures = []
    B = classify(A).boolean_center
    idem = classify(A).idempotents
    filters = all_filters(A)
    for F in filters:
        Q = quotient(A, F)
        all_classes = set(range(Q.quotient.size))
        b_covers = {Q.class_of[e] for e in B} == all_classes
        i_covers = {Q.class_of[e] for e in idem} == all_classes
        for G in filters:
            if not F <= G:
                continue
            if b_covers:
                ok_b, _ = has_phi_lp(A, blp_formula(), G)
                ok_i, _ = has_phi_lp(A, ilp_formula(), G)
                if not (ok_b and ok_i):
                    failures.append(("boolean", repr(F), repr(G)))
            if i_covers:
                ok_i, _ = has_phi_lp(A, ilp_formula(), G)
                if not ok_i:
                    failures.append(("idempotent", repr(F), repr(G)))
    return [_forall("covering-classes-lift-upward", failures)]


def check_chain_facts(A):
    report = classify(A)
    out = []
    # the one-element algebra has no proper filters, hence no maximal
    # filter; locality statements are read for non-trivial algebras
    nontrivial_chain = report.is_chain and A.size > 1
    out.append(_implies("chain-local", nontrivial_chain, is_local(A)))
    out.append(_implies("local-blp", is_local(A), has_blp(A)))
    out.append(_implies("chain-blp", report.is_chain, has_blp(A)))
    out.append(_implies("finite-chain-ilp", report.is_chain, has_ilp(A)))
    failures = []
    if report.is_chain:
        for a in sorted(report.idempotents):
            ok, _ = has_phi_lp(A, ilp_formula(), principal_filter(A, a))
            if not ok:
                failures.append(a)
    out.append(_forall("chain-idempotent-filter-ilp", failures))
    prime_failures = []
    for P in spec(A):
        ok, _ = has_phi_lp(A, blp_formula(), P)
        if not ok:
            prime_failures.append(repr(P))
    out.append(_forall("prime-filters-blp", prime_failures))
    out.append(_implies("hyperarchimedean-blp",
                        report.is_hyperarchimedean, has_blp(A)))
    out.append(_equiv("hyperarchimedean-spec-is-max",
                      report.is_hyperarchimedean,
                      len(spec(A)) == len(max_spec(A))))
    return out


def check_spec_strong_zero_dim(A):
    blp = has_blp(A)
    szd = topology_predicates(stone_spec(A))["strongly_zero_dim"]
    return [_equiv("spec-strong-zero-dim.blp", blp, szd)]


def check_max_boolean_forms(A):
    """The eight equivalent Boolean-lifting conditions through Max(A)."""
    blp = has_blp(A)
    B = sorted(classify(A).boolean_center)
    mx = stone_max(A)
    maxima = max_spec(A)

    # (2) distinct maximals split by a Boolean element and its negation
    cond2 = True
    for i, M in enumerate(maxima):
        for N in maxima[i + 1:]:
            if not any(e in M and A.neg(e) in N for e in B) or \
               not any(e in N and A.neg(e) in M for e in B):
                cond2 = False
    # (3) {d(e)} is a basis of Max(A)
    basis = {mx.d(e) for e in B}
    cond3 = True
    for U in mx.opens:
        acc = 0
        for Dm in basis:
            if Dm & ~U == 0:
                acc |= Dm
        if acc != U:
            cond3 = False
            break
    # (10') every a admits Boolean e with v(a) <= d(e), v(!a) <= v(e)
    cond10 = True
    for a in A.elements():
        va, vna = mx.v[a], mx.v[A.neg(a)]
        ok = False
        for e in B:
            ve, de = mx.v[e], mx.d(e)
            if va & ~de == 0 and vna & ~ve == 0:
                ok = True
                break
        if not ok:
            cond10 = False
            break
    preds = topology_predicates(mx)
    gel = is_gelfand(A)
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
    holds, _ = star_property(A)
    B = sorted(classify(A).boolean_center)
    rad = radical(A)
    mx = stone_max(A)

    cond2 = all(
        any(A.is_nilpotent(A.odot[a][e]) and A.join[a][e] in rad.members
            for e in B)
        for a in A.elements())

    def spectral(a, bounded):
        va, da = mx.v[a], mx.d(a)
        for e in B:
            ve, de = mx.v[e], mx.d(e)
            if va & ~de != 0:
                continue
            if not bounded:
                if da & ~ve == 0:
                    return True
            else:
                if all(mx.v[A.neg(A.power(a, k))] & ~ve == 0
                       for k in range(1, A.size + 1)):
                    return True
        return False

    cond3 = all(spectral(a, bounded=False) for a in A.elements())
    cond4 = all(spectral(a, bounded=True) for a in A.elements())
    return [
        _equiv("star-forms.nilpotent-radical", holds, cond2),
        _equiv("star-forms.spectral", holds, cond3),
        _equiv("star-forms.spectral-powers", holds, cond4),
    ]


def check_star_chain(A):
    star, _ = star_property(A)
    starstar, _ = star_star_property(A)
    return [
        _implies("star-implies-blp", star, has_blp(A)),
        _implies("blp-implies-starstar", has_blp(A), starstar),
    ]


def check_gelfand_forms(A):
    conds = gelfand_conditions(A)
    base = conds[4]
    return [_equiv(f"gelfand-forms.{k}", base, conds[k])
            for k in sorted(conds) if k != 4]


def check_radical_lifting_consequences(A):
    gel = is_gelfand(A)
    ok, _ = has_phi_lp(A, blp_formula(), radical(A))
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
        star, _ = star_property(A)
        blp = has_blp(A)
        gel = is_gelfand(A)
        out.append(_equiv("semisimple-semilocal.star-blp", star, blp))
        out.append(_equiv("semisimple-semilocal.blp-gelfand", blp, gel))
    else:
        out.append(_implies("semisimple-semilocal.vacuous", False, True))
    return out


def check_semisimple_hausdorff(A):
    semisimple = is_semisimple(A)
    hausdorff = topology_predicates(stone_max(A))["hausdorff"]
    return [_implies("semisimple-hausdorff-gelfand",
                     semisimple and hausdorff, is_gelfand(A))]


@lru_cache(maxsize=None)
def local_factor_decomposition(A):
    """Decompose A along the atoms of its Boolean center and report
    (decomposition-is-a-product, every-factor-local, factor sizes).

    Two row families read it, so it is cached; the answer is a tuple of
    immutable values."""
    B = sorted(classify(A).boolean_center)
    nonbot = [e for e in B if e != A.bot]
    atoms = [e for e in nonbot
             if not any(f != e and A.leq[f][e] for f in nonbot)]
    if not atoms:  # trivial algebra
        return True, True, ()
    factors = [upset_algebra(A, A.neg(e)) for e in atoms]
    prod = factors[0]
    for X in factors[1:]:
        prod = direct_product(prod, X)
    iso = rl_isomorphism(A, prod)
    all_local = all(is_local(X) for X in factors)
    return iso is not None, all_local, tuple(X.size for X in factors)


def check_local_product_square(A):
    """Semilocal equivalence square: radical lifting, global lifting, the
    star splitting, and product-of-locals all coincide (finite algebras
    are semilocal)."""
    ok_rad, _ = has_phi_lp(A, blp_formula(), radical(A))
    blp = has_blp(A)
    star, _ = star_property(A)
    is_prod, locals_ok, sizes = local_factor_decomposition(A)
    prod_of_locals = is_prod and locals_ok
    return [
        _equiv("local-product.radical-vs-blp", ok_rad, blp),
        _equiv("local-product.blp-vs-star", blp, star),
        _equiv("local-product.blp-vs-decomposition", blp, prod_of_locals,
               witness=sizes),
    ]


def check_gelfand_consequences(A):
    gel = is_gelfand(A)
    star, _ = star_property(A)
    is_prod, locals_ok, _sizes = local_factor_decomposition(A)
    return [
        _implies("gelfand-blp", gel, has_blp(A)),
        _implies("gelfand-star", gel, star),
        _implies("gelfand-local-product", gel, is_prod and locals_ok),
    ]


def check_spectral_lemmas(A):
    out = []
    mx = stone_max(A)
    sp = stone_spec(A)
    B = sorted(classify(A).boolean_center)
    rad = radical(A)

    failures = []
    for a in A.elements():
        for e in B:
            va, da = mx.v[a], mx.d(a)
            ve, de = mx.v[e], mx.d(e)
            nilp_ne = A.is_nilpotent(A.odot[a][A.neg(e)])
            nilp_e = A.is_nilpotent(A.odot[a][e])
            if (va & ~ve == 0) != nilp_ne:
                failures.append(("v<=v", a, e))
            if (va & ~de == 0) != nilp_e:
                failures.append(("v<=d", a, e))
            if (da & ~ve == 0) != (A.join[a][e] in rad.members):
                failures.append(("d<=v", a, e))
    out.append(_forall("nilpotence-mirrors-containment", failures))

    failures = []
    for a in A.elements():
        union = 0
        for k in range(1, A.size + 1):
            union |= mx.v[A.neg(A.power(a, k))]
        if mx.d(a) != union:
            failures.append(a)
    out.append(_forall("complement-as-power-union", failures))

    # closure of Max inside Spec is V(Rad); semisimple means dense
    max_mask = sp.mask_of([P for P in sp.points
                           if any(P.members == M.members for M in max_spec(A))])
    closure = sp.full
    for U in sp.opens:
        closed = sp.full & ~U
        if max_mask & ~closed == 0:
            closure &= closed
    out.append(_equiv("max-closure-is-radical-locus",
                      closure == sp.v[rad.gen], True))
    semisimple = is_semisimple(A)
    out.append(_implies("semisimple-max-dense", semisimple,
                        closure == sp.full))

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

    # D(e) = V(!e) for Boolean e, on both spaces
    failures = []
    for e in B:
        if sp.d(e) != sp.v[A.neg(e)]:
            failures.append(e)
        if mx.d(e) != mx.v[A.neg(e)]:
            failures.append(e)
    out.append(_forall("boolean-open-closed-swap", failures))

    # clopen families
    from .spectra import clopen_sets, clopen_via_boolean
    clp = clopen_sets(sp)
    out.append(_equiv("clopen-spec-boolean",
                      set(clp) == set(clopen_via_boolean(A, "spec")), True))
    clpm = clopen_sets(mx)
    via = set(clopen_via_boolean(A, "max"))
    if is_gelfand(A) or semisimple:
        out.append(_equiv("clopen-max-boolean", set(clpm) == via, True))
    else:
        out.append(_implies("clopen-max-boolean", False, True))
    return out


def check_complementary_filter_lemma(A):
    """F, G intersect trivially and join improperly iff they are the
    principal filters of a complementary Boolean pair."""
    failures = []
    filters = all_filters(A)
    B = classify(A).boolean_center
    for F in filters:
        for G in filters:
            lhs = (filter_meet(F, G).gen == A.top
                   and filter_join(F, G).gen == A.bot)
            rhs = any(F.gen == e and G.gen == A.neg(e) for e in B)
            if lhs != rhs:
                failures.append((repr(F), repr(G)))
    return [_forall("complementary-filter-pairs", failures)]


def check_biresiduum_gap_lemma(A):
    """a always satisfies phi modulo the filter generated by its own
    term gap d(t1(a), t2(a))."""
    from .formulas import atomic_parts, definable_set, term_values

    failures = []
    for name, phi in (("blp", blp_formula()), ("ilp", ilp_formula()),
                      ("rlp", rlp_formula())):
        t1, t2 = atomic_parts(phi)
        left, right = term_values(A, t1, {}), term_values(A, t2, {})
        for a in A.elements():
            gap = A.bires(left[a], right[a])
            F = principal_filter(A, gap)
            Q = quotient(A, F)
            if Q.class_of[a] not in definable_set(Q.quotient, phi):
                failures.append((name, a))
    return [_forall("gap-filter-satisfaction", failures)]


def check_retic_bridge(A):
    from .reticulation import (
        archimedean_bridge,
        blp_transfer,
        verify_retic_properties,
    )

    R = build_reticulation(A)
    verdicts = verify_retic_properties(R)
    out = [_equiv(f"reticulation-structure.{k}", v, True)
           for k, v in sorted(verdicts.items())]

    failures = []
    for F in all_filters(A):
        in_a, in_l = blp_transfer(A, F)
        if in_a != in_l:
            failures.append(repr(F))
    out.append(_forall("reticulation-blp-transfer", failures))
    out.append(_equiv("reticulation-global-blp", has_blp(A),
                      _lattice_global_blp(R.lattice)))

    bridge = archimedean_bridge(A)
    out.append(_equiv("hyperarchimedean-boolean-reticulation",
                      bridge["hyperarchimedean"], bridge["lattice_boolean"]))
    return out


def _lattice_global_blp(L):
    from .dlattice import lattice_blp

    _per, global_holds = lattice_blp(L)
    return global_holds


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


def disagreements(A):
    return [v for v in theorem_checks(A) if not v.agree]

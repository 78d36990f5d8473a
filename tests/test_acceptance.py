"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they execute.

Criterion 2 asserts what the six-element fixture's operation tables force,
and two of its values differ from the ones first recorded for it:

* regulars = {0, b, c, 1}, not {0, b, c, d, 1}.  The ->0 column of the
  `imp` table gives !d = b and !b = c, so !!d = c != d; it also gives
  !a = 0, so !!a = 1 != a.  Both b and c are fixed by !!.
* Boolean lifting fails, at exactly one filter, the radical {a, 1}, with
  counterexample b.  The quotient by [a) = {a, 1} is the four-element
  Boolean algebra, and its class b/[a) has no preimage in the Boolean
  center {0, 1}.  No finite algebra could have the recorded value anyway:
  a finite residuated lattice has Boolean lifting iff it is a finite
  product of local ones, and such a product with two maximal filters has
  a four-element center.  (Also, the unique coatom a makes {1} a prime
  filter below both maximal filters, so the algebra is not Gelfand.)
"""

import itertools
import subprocess
import sys
import time
from pathlib import Path

from rlx.core import classify, lukasiewicz_chain
from rlx.dlattice import is_conormal_lattice, conormal_radical_lifting
from rlx.filters import (
    all_filters,
    is_local,
    max_spec,
    principal_filter,
    quotient,
    radical,
)
from rlx.formulas import blp_formula, ilp_formula
from rlx.lifting import (
    has_blp,
    has_ilp,
    has_phi_lp,
    has_rlp,
    lp_report,
)
from rlx.reticulation import (
    archimedean_bridge,
    blp_transfer,
    build_reticulation,
    verify_retic_properties,
)
from rlx.spectra import is_gelfand, star_property, star_star_property
from rlx.theorems import disagreements

from oracles import (
    dense_radical,
    distributive_lattices,
    product_lp_check,
    rl_isomorphic,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _report(number, name, failures):
    status = "PASS" if not failures else "FAIL"
    line = f"ACCEPTANCE {number} {name}: {status}"
    print(line, file=sys.stderr)
    assert not failures, f"{line}\n  " + "\n  ".join(failures)


def _labelset(A, ids):
    return {A.labels[x] for x in ids}


def test_criterion_1_golden_pentagon_godel(E1):
    t0 = time.time()
    failures = []
    cls = classify(E1)
    if cls.idempotents != frozenset(E1.elements()):
        failures.append("idempotents must be the whole carrier")
    if _labelset(E1, radical(E1).members) != {"c", "1"}:
        failures.append(f"radical is {_labelset(E1, radical(E1).members)}")
    rep = lp_report(E1, blp_formula())
    failing = [F for F, v in rep.per_filter if not v.holds]
    if rep.global_holds:
        failures.append("Boolean lifting must fail")
    if [_labelset(E1, F.members) for F in failing] != [{"c", "1"}]:
        failures.append("the radical must be the failing filter")
    if not lp_report(E1, ilp_formula()).global_holds:
        failures.append("idempotent lifting must hold")
    if [_labelset(E1, M.members) for M in max_spec(E1)] != \
            [{"a", "c", "1"}, {"b", "c", "1"}]:
        failures.append("maximal spectrum mismatch")
    if is_gelfand(E1):
        failures.append("must not be Gelfand")
    elapsed = time.time() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 1s")
    _report(1, "golden five-element fixture", failures)


def test_criterion_2_golden_pentagon_stacked(E2):
    t0 = time.time()
    failures = []
    cls = classify(E2)
    if _labelset(E2, cls.boolean_center) != {"0", "1"}:
        failures.append("boolean center mismatch")
    if _labelset(E2, cls.idempotents) != {"0", "a", "b", "d", "1"}:
        failures.append("idempotents mismatch")
    if _labelset(E2, cls.regulars) != {"0", "b", "c", "1"}:
        failures.append(
            f"regulars are {sorted(_labelset(E2, cls.regulars))}; the tables "
            "give !d=b, !b=c, !a=0, so exactly 0, b, c, 1 are fixed by !!")
    if [_labelset(E2, M.members) for M in max_spec(E2)] != \
            [{"a", "b", "1"}, {"a", "c", "d", "1"}]:
        failures.append("maximal spectrum mismatch")
    from rlx.core import boolean_algebra

    Q = quotient(E2, principal_filter(E2, 1))
    if Q.quotient.size != 4 or not rl_isomorphic(Q.quotient, boolean_algebra(2)):
        failures.append("quotient by [a) must be the 4-element Boolean algebra")
    rep = lp_report(E2, blp_formula())
    failing = [(F, v) for F, v in rep.per_filter if not v.holds]
    if has_blp(E2):
        failures.append("Boolean lifting must fail")
    if [_labelset(E2, F.members) for F, _ in failing] != [{"a", "1"}]:
        failures.append("{a,1} must be the only failing filter")
    if [F for F, _ in failing] != [radical(E2)]:
        failures.append("the failing filter must be the radical")
    if [E2.labels[v.counterexample] for _, v in failing] != ["b"]:
        failures.append("b must be the counterexample")
    if not has_ilp(E2):
        failures.append("idempotent lifting must hold")
    elapsed = time.time() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 1s")
    _report(2, "golden six-element fixture (regulars {0,b,c,1}; Boolean "
               "lifting fails only at the radical {a,1}, at b)", failures)


def test_criterion_3_rlp_universality(corpus5, E1, E2):
    failures = []
    for A in list(corpus5) + [E1, E2]:
        if not has_rlp(A):
            failures.append(f"regular lifting failed on {A!r}")
    _report(3, "regular lifting universal on corpus <= 5 and fixtures",
            failures)


def test_criterion_4_theorem_suite(corpus4, corpus5, corpus6):
    t0 = time.time()
    failures = []
    for A in corpus5:
        for v in disagreements(A):
            failures.append(f"{A!r}: {v.theorem_id} lhs={v.lhs} rhs={v.rhs}")
    sample6 = corpus6[::4]
    for A in sample6:
        for v in disagreements(A):
            failures.append(f"size-6 {A!r}: {v.theorem_id}")
    for A, B in itertools.product(corpus4, repeat=2):
        for phi in (blp_formula(), ilp_formula()):
            lp_ab, lp_a, lp_b = product_lp_check(A, B, phi)
            if lp_ab != (lp_a and lp_b):
                failures.append(f"product law broke on {A!r} x {B!r}")
    elapsed = time.time() - t0
    if elapsed > 600:
        failures.append(f"runtime {elapsed:.0f}s exceeds 10 minutes")
    _report(4, f"theorem suite (corpus<=5 exhaustive, {len(sample6)} "
               f"size-6 samples, {len(corpus4)}^2 product pairs, "
               f"{elapsed:.0f}s)", failures)


def test_criterion_5_reticulation(corpus5, E1, E2):
    failures = []
    for A in list(corpus5) + [E1, E2]:
        verdicts = verify_retic_properties(build_reticulation(A))
        for k, ok in verdicts.items():
            if not ok:
                failures.append(f"{A!r}: structural property {k}")
        for F in all_filters(A):
            in_a, in_l = blp_transfer(A, F)
            if in_a != in_l:
                failures.append(f"{A!r}: transfer mismatch at {F!r}")
        bridge = archimedean_bridge(A)
        if bridge["hyperarchimedean"] != bridge["lattice_boolean"]:
            failures.append(f"{A!r}: hyperarchimedean bridge")
    _report(5, "reticulation axioms, structure, lifting transfer", failures)


def test_criterion_6_class_facts(corpus5, E1, E2):
    failures = []
    everything = list(corpus5) + [E1, E2]
    for A in everything:
        cls = classify(A)
        if cls.is_chain and A.size > 1:
            if not (has_blp(A) and has_ilp(A)):
                failures.append(f"chain without lifting: {A!r}")
        if is_local(A) and not has_blp(A):
            failures.append(f"local without Boolean lifting: {A!r}")
        if cls.is_hyperarchimedean and not has_blp(A):
            failures.append(f"hyperarchimedean without Boolean lifting: {A!r}")
        star, _ = star_property(A)
        starstar, _ = star_star_property(A)
        if star and not has_blp(A):
            failures.append(f"star without Boolean lifting: {A!r}")
        if has_blp(A) and not starstar:
            failures.append(f"Boolean lifting without weak star: {A!r}")
    for n in (2, 3, 4, 5):
        A = lukasiewicz_chain(n)
        cls = classify(A)
        if cls.boolean_center != cls.idempotents:
            failures.append(f"MV chain center mismatch at n={n}")
        for F in all_filters(A):
            ok_b, _ = has_phi_lp(A, blp_formula(), F)
            ok_i, _ = has_phi_lp(A, ilp_formula(), F)
            if ok_b != ok_i:
                failures.append(f"MV chain per-filter mismatch at n={n}")
    # the implication chain must not be vacuous: a lifting-false witness
    if has_blp(E1):
        failures.append("five-element fixture must separate the chain")
    if not any(has_blp(A) for A in corpus5):
        failures.append("corpus must contain a Boolean-lifting witness")
    _report(6, "class facts (chains, local, hyperarchimedean, MV, star chain)",
            failures)


def test_criterion_7_distributive_lattice_suite(corpus5):
    failures = []
    total = 0
    for n in range(1, 7):
        for L in distributive_lattices(n):
            total += 1
            if radical(L).members != dense_radical(L):
                failures.append(f"radical mismatch on {L!r}")
            if is_conormal_lattice(L) and not conormal_radical_lifting(L):
                failures.append(f"conormal radical lifting failed on {L!r}")
    for A in corpus5:
        L = build_reticulation(A).lattice
        if is_conormal_lattice(L) != is_gelfand(A):
            failures.append(f"conormal/Gelfand bridge broke on {A!r}")
    _report(7, f"distributive-lattice suite ({total} lattices <= 6)", failures)


def test_criterion_8_determinism():
    failures = []
    for name in ("trivial", "b2", "godel3", "luk4", "pentagon_godel", "pentagon_stacked"):
        cmd = [sys.executable, "-m", "rlx.cli", "check-theorems",
               str(FIXTURES / f"{name}.rlat")]
        runs = [subprocess.run(cmd, capture_output=True, text=True)
                for _ in range(2)]
        if runs[0].stdout != runs[1].stdout:
            failures.append(f"output differs across runs for {name}")
        if runs[0].returncode != runs[1].returncode:
            failures.append(f"exit code differs across runs for {name}")
        if runs[0].returncode != 0:
            failures.append(f"unexpected disagreement exit for {name}")
    _report(8, "byte-identical theorem runs on every fixture", failures)

"""Verdicts shared by filter signature are each algebra's own verdicts.

The matrix decides what reads only an algebra's filter signature
(`filters.Signature`: its order and power limits) once per signature,
on the first algebra seen with it.  With the signature store handing
each algebra its own signature back, every algebra decides everything
itself: the rows, witnesses included, and the analysis reports are the
same both ways.  Every other algebra reads the filter record, both
spaces and the reticulation of that first algebra, the very objects, and
the product identity that `_filters` checks on every algebra still
catches a fault in it.
"""

import pytest

import rlx.core
import rlx.filters
from conftest import FIXTURES, clear_memos
from rlx.cli import main
from rlx.core import (
    ResiduatedLattice,
    boolean_algebra,
    classify,
    complemented_elements,
    direct_product,
    godel_chain,
    shared_set,
)
from rlx.enumeration import all_algebras
from rlx.errors import AxiomViolation
from rlx.filters import Signature, _filters, all_filters, quotient
from rlx.io import load_rlat
from rlx.reticulation import build_reticulation
from rlx.spectra import stone_max, stone_spec
from rlx.theorems import theorem_checks

PATHS = sorted(FIXTURES.glob("*.rlat"))


def _algebras():
    """Sizes 1..6, the six fixtures, 2^6 and the three pinned products."""
    E1, E2 = (load_rlat(FIXTURES / name)
              for name in ("pentagon_godel.rlat", "pentagon_stacked.rlat"))
    return ([A for n in range(1, 7) for A in all_algebras(n)]
            + [load_rlat(path) for path in PATHS]
            + [boolean_algebra(6), direct_product(E1, E1),
               direct_product(E1, E2), direct_product(E2, godel_chain(3))])


def _matrix_and_reports(algebras, capsys):
    """Every row of every algebra, then `rlx analyze --json`, with and
    without --theorems, on each fixture; from empty memos."""
    clear_memos()
    rows = [[v.as_dict() for v in theorem_checks(A)] for A in algebras]
    reports = []
    for path in PATHS:
        for extra in ([], ["--theorems"]):
            assert main(["analyze", "--json", *extra, str(path)]) == 0
            reports.append(capsys.readouterr().out)
    return rows, reports


def _assert_representative_structures(algebras):
    """Each algebra's filter record, both spaces and reticulation are the
    objects of the representative of its signature, and every filter,
    point and reticulation holds the representative."""
    for A in algebras:
        record = _filters(A)
        upsets, filters, primes, maxima, rad, R = record
        sp, mx, retic = stone_spec(A), stone_max(A), build_reticulation(A)
        assert record is _filters(R) and retic is build_reticulation(R)
        assert sp is stone_spec(R) and mx is stone_max(R)
        assert retic.source is R
        held = [F for F in upsets if F is not None]
        assert set(filters) == set(held)
        for F in [*held, *filters, *primes, *maxima, rad, *sp.points,
                  *mx.points, *retic.filter_of]:
            assert F.algebra is R and F.upsets is upsets


def test_sharing_by_signature_changes_no_row(monkeypatch, capsys):
    algebras = _algebras()
    shared = _matrix_and_reports(algebras, capsys)
    # most algebras read the verdicts and structures of another one
    assert 2 * sum(_filters(A)[5] is not A for A in algebras) > len(algebras)
    _assert_representative_structures(algebras)
    monkeypatch.setattr(rlx.filters, "shared_set", lambda value: value)
    try:
        assert _matrix_and_reports(algebras, capsys) == shared
    finally:
        clear_memos()


def test_one_representative_owns_each_signature(corpus5, corpus6,
                                                monkeypatch):
    """After the matrix over sizes 1..6 there is one representative per
    (order, power limits) key, the keys of the quotients and lattices the
    matrix builds included, and every other algebra's spaces and
    reticulation hold the opens and the lattice of its
    representative's."""
    algebras = [*corpus5, *corpus6]
    built = list(algebras)
    init = rlx.core.ResiduatedLattice.__init__

    def record(self, *args):
        init(self, *args)
        built.append(self)

    clear_memos()
    monkeypatch.setattr(rlx.core.ResiduatedLattice, "__init__", record)
    try:
        for A in algebras:
            theorem_checks(A)
        representatives = {id(_filters(B)[5]) for B in built}
        keys = {(B.leq, B.power_limits) for B in built}
        assert len(representatives) == len(keys) < len(built)
        for A in algebras:
            R = _filters(A)[5]
            if R is not A:
                assert stone_spec(A).opens is stone_spec(R).opens
                assert stone_max(A).opens is stone_max(R).opens
                assert (build_reticulation(A).lattice
                        is build_reticulation(R).lattice)
    finally:
        clear_memos()


def _six_field_key(A):
    """The filter signature as it was once keyed: the order, the power
    limits, the idempotents, their products, the Boolean center and the
    negations of its elements."""
    els, neg = A.elements(), [row[A.bot] for row in A.imp]
    idem = [e for e in els if A.odot[e][e] == e]
    center = [a for a in els
              if A.join[a][neg[a]] == A.top and A.meet[a][neg[a]] == A.bot]
    return (A.leq, A.power_limits, sum(1 << e for e in idem),
            tuple(A.odot[e][f] for e in idem for f in idem if e <= f),
            sum(1 << e for e in center), tuple(neg[e] for e in center))


def test_two_field_key_partitions_as_the_six_field_key(corpus5, corpus6,
                                                       corpus7):
    """(order, power limits) splits the algebras of sizes 1..7, and the
    quotients the matrix builds of them, exactly as the six-field key
    did: each key is a function of the other."""
    algebras = [*corpus5, *corpus6, *corpus7]
    classes = [len({(A.leq, A.power_limits) for A in algebras
                    if A.size == n}) for n in range(1, 8)]
    assert classes == [1, 1, 2, 5, 12, 37, 116]
    algebras += [quotient(A, F).quotient for A in algebras
                 for F in all_filters(A)]
    two = {(A.leq, A.power_limits) for A in algebras}
    six = {_six_field_key(A) for A in algebras}
    assert len(two) == len(six) == len({k[:2] for k in six})


def test_signature_classes_are_classify_s():
    """The four facts that let the order and the power limits stand for
    the idempotents, their products, the Boolean center and its
    negations, and the product identity that `_filters` checks:
    - the idempotents of `classify` are the fixed points of x -> x^w;
    - for idempotents e*f = (e&f)^w;
    - the Boolean center is the lattice-complemented elements;
    - !e is the only complement of a Boolean e;
    - (a*b)^w = (a&b)^w."""
    algebras = ([A for n in range(1, 7) for A in all_algebras(n)]
                + [load_rlat(path) for path in PATHS])
    for A in algebras:
        w, els, report = A.power_limits, A.elements(), classify(A)
        idem = report.idempotents
        assert idem == {a for a in els if w[a] == a}
        assert all(A.odot[e][f] == w[A.meet[e][f]] for e in idem for f in idem)
        assert report.boolean_center == complemented_elements(A)
        for e in report.boolean_center:
            assert [y for y in els if A.join[e][y] == A.top
                    and A.meet[e][y] == A.bot] == [A.neg(e)]
        assert all(w[A.odot[a][b]] == w[A.meet[a][b]]
                   for a in els for b in els)


def _faulty_twin(A):
    """A copy of A, built without `validate`, with one product entry
    changed so that its order and power limits stay A's but the changed
    product a*b leaves the class of a&b under x -> x^w: (copy, a, b), or
    None."""
    w, idem = A.power_limits, classify(A).idempotents
    for a in A.elements():
        for b in A.elements():
            # the power limits read x^k * x (k >= 0); the six-field key,
            # e*f for idempotents e and f
            if {a, b} <= idem or any(A.power(b, k) == a
                                     for k in range(A.size + 1)):
                continue
            for c in A.elements():
                if w[c] != w[A.meet[a][b]]:
                    odot = [list(row) for row in A.odot]
                    odot[a][b] = c
                    B = ResiduatedLattice(
                        A.labels, A.leq, A.join, A.meet,
                        tuple(map(tuple, odot)), A.imp, A.bot, A.top)
                    assert B.power_limits == w
                    return B, a, b
    return None


def test_product_identities_catch_a_fault_on_a_non_representative():
    """An algebra that shares a valid algebra's order and power limits
    but not its product raises `odot-limit` at the changed pair from the
    filter record, both spaces and the reticulation, before its
    signature is looked up, so it never becomes a representative."""
    clear_memos()
    try:
        algebras = [A for n in range(1, 6) for A in all_algebras(n)]
        A = next(A for A in algebras if _faulty_twin(A))
        B, a, b = _faulty_twin(A)
        assert _six_field_key(B) == _six_field_key(A)
        for build in (all_filters, stone_spec, stone_max, build_reticulation):
            with pytest.raises(AxiomViolation) as caught:
                build(B)
            assert (caught.value.axiom, caught.value.witness) == (
                "odot-limit", (a, b))
        # the valid algebra of the signature becomes its representative
        assert _filters(A)[5] is A
        assert shared_set(Signature((B.leq, B.power_limits, B)))[-1] is A
    finally:
        clear_memos()

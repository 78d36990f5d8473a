"""Verdicts shared by filter signature are each algebra's own verdicts.

The matrix decides what reads only an algebra's filter signature
(`filters.Signature`) once per signature, on the first algebra seen with
it.  With the representative lookup handing each algebra its own
signature back, every algebra decides everything itself: the rows,
witnesses included, and the analysis reports are the same both ways.
Every other algebra's filters, spaces and reticulation are its own
objects, rebuilt from the first algebra's, and the identities that read
its own product still catch a fault in it.
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
    idempotents_and_center,
)
from rlx.enumeration import all_algebras
from rlx.errors import AxiomViolation
from rlx.filters import _filters
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


def _assert_own_structures(algebras):
    """Each algebra's filters, points, spaces and reticulation hold the
    algebra itself (the first copy of equal tables, whose answers every
    copy reads), not the representative of its signature."""
    first = {}
    for A in algebras:
        A = first.setdefault(A, A)
        upsets, filters, primes, maxima, rad, _ = _filters(A)
        owned = [F for F in upsets if F is not None]
        assert set(filters) == set(owned)
        for F in owned + [*filters, *primes, *maxima, rad]:
            assert F.algebra is A and F.upsets is upsets
        for space in (stone_spec(A), stone_max(A)):
            assert space.algebra is A
            assert all(P.algebra is A for P in space.points)
        R = build_reticulation(A)
        assert R.source is A
        assert all(F.algebra is A for F in R.filter_of)


def test_sharing_by_signature_changes_no_row(monkeypatch, capsys):
    algebras = _algebras()
    shared = _matrix_and_reports(algebras, capsys)
    # most algebras read the verdicts and structures of another one
    info = rlx.filters.representative.cache_info()
    assert info.hits > info.misses
    assert any(_filters(A)[5] is not A for A in algebras)
    _assert_own_structures(algebras)
    monkeypatch.setattr(rlx.filters, "representative", lambda sig: sig)
    try:
        assert _matrix_and_reports(algebras, capsys) == shared
    finally:
        clear_memos()


def test_one_representative_owns_each_signature(corpus5, corpus6,
                                                monkeypatch):
    """After the matrix over sizes 1..6 the representative memo holds one
    entry per filter signature, the signatures of the quotients and
    lattices the matrix builds included, and every other algebra's spaces
    and reticulation hold the opens and the lattice of its
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
        signatures = {id(_filters(B)[5]) for B in built}
        assert (rlx.filters.representative.cache_info().currsize
                == len(signatures) < len(built))
        for A in algebras:
            R = _filters(A)[5]
            if R is not A:
                assert stone_spec(A).opens is stone_spec(R).opens
                assert stone_max(A).opens is stone_max(R).opens
                assert (build_reticulation(A).lattice
                        is build_reticulation(R).lattice)
    finally:
        clear_memos()


def test_signature_classes_are_classify_s():
    """The idempotents and the Boolean center of the filter signature are
    those of `classify`, and those of their definitions: the fixed
    points of the power limits and the lattice-complemented elements."""
    algebras = ([A for n in range(1, 7) for A in all_algebras(n)]
                + [load_rlat(path) for path in PATHS])
    for A in algebras:
        idem, center = idempotents_and_center(A)
        report = classify(A)
        assert (idem, center) == (report.idempotents, report.boolean_center)
        assert idem == {a for a, w in enumerate(A.power_limits) if w == a}
        assert center == complemented_elements(A)


def _faulty_twin(A):
    """A copy of A, built without `validate`, with one product entry
    changed so that its filter signature stays A's but the changed
    product a*b leaves the class of a&b under V: (copy, a, b), or None."""
    w, idem = A.power_limits, idempotents_and_center(A)[0]
    v = stone_spec(A).v
    for a in A.elements():
        for b in A.elements():
            # the power limits read x^k * x (k >= 0); the signature, e*f
            # for idempotents e and f
            if {a, b} <= idem or any(A.power(b, k) == a
                                     for k in range(A.size + 1)):
                continue
            for c in A.elements():
                if v[c] != v[A.meet[a][b]]:
                    odot = [list(row) for row in A.odot]
                    odot[a][b] = c
                    B = ResiduatedLattice(
                        A.labels, A.leq, A.join, A.meet,
                        tuple(map(tuple, odot)), A.imp, A.bot, A.top)
                    assert B.power_limits == w
                    return B, a, b
    return None


def test_product_identities_catch_a_fault_on_a_non_representative():
    """On an algebra that shares a valid algebra's filter signature but
    not its product, the spaces and the reticulation are read off the
    representative's, and V(a*b) = V(a) & V(b) and lam(a*b) = lam(a) &
    lam(b) still raise."""
    clear_memos()
    try:
        algebras = [A for n in range(1, 6) for A in all_algebras(n)]
        for A in algebras:
            stone_spec(A), stone_max(A), build_reticulation(A)
        A = next(A for A in algebras
                 if _filters(A)[5] is not A and _faulty_twin(A))
        B, a, b = _faulty_twin(A)
        assert _filters(B)[5] is _filters(A)[5] is not B
        with pytest.raises(AxiomViolation) as caught:
            stone_spec(B)
        assert (caught.value.axiom, caught.value.witness) == ("stone-odot", (a, b))
        with pytest.raises(AxiomViolation) as caught:
            build_reticulation(B)
        assert (caught.value.axiom, caught.value.witness) == ("lambda-odot", (a, b))
        # the valid algebras of the signature still build theirs
        assert stone_spec(A).algebra is A
    finally:
        clear_memos()

"""Verdicts shared by filter signature are each algebra's own verdicts.

The matrix decides what reads only an algebra's filter signature
(`filters.Signature`) once per signature, on the first algebra seen with
it.  With the representative lookup handing each algebra its own
signature back, every algebra decides everything itself: the rows,
witnesses included, and the analysis reports are the same both ways.
"""

import rlx.filters
from conftest import FIXTURES, clear_memos
from rlx.cli import main
from rlx.core import boolean_algebra, direct_product, godel_chain
from rlx.enumeration import all_algebras
from rlx.io import load_rlat
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


def test_sharing_by_signature_changes_no_row(monkeypatch, capsys):
    algebras = _algebras()
    shared = _matrix_and_reports(algebras, capsys)
    # most algebras read the verdicts of another one
    info = rlx.filters.representative.cache_info()
    assert info.hits > info.misses
    monkeypatch.setattr(rlx.filters, "representative", lambda sig: sig)
    try:
        assert _matrix_and_reports(algebras, capsys) == shared
    finally:
        clear_memos()

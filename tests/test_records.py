"""The value classes behave as the frozen dataclasses they replace, and the
CLI loads only what its subcommand uses.

The record classes are plain classes on `rlx.core.Record`, so importing
rlx does not import `dataclasses` (and with it `inspect`, `ast` and
`dis`).  The reprs below were recorded from the dataclass versions,
except three re-recorded when labels left an algebra's identity: a
filter and a derived algebra (a quotient, a reticulation lattice) show
ids, not `x/F` or `[e)` labels.
"""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rlx
from rlx.core import (
    ElementClassReport,
    ResiduatedLattice,
    boolean_algebra,
    classify,
    godel_chain,
    lukasiewicz_chain,
    validate,
)
from rlx.filters import Filter, QuotientAlgebra, principal_filter, quotient
from rlx.formulas import (
    BinOp,
    BoundVar,
    Const,
    Formula,
    FreeVar,
    Neg,
    Pow,
    blp_formula,
    parse_formula,
)
from rlx.lifting import FilterVerdict, LpReport, has_phi_lp, lp_report
from rlx.reticulation import Reticulation, build_reticulation
from rlx.spectra import SpectrumSpace, stone_spec
from rlx.theorems import TheoremVerdict, theorem_checks

from oracles import RLMorphism

SRC = Path(rlx.__file__).resolve().parent.parent
FIXTURES = SRC.parent / "fixtures"

B = boolean_algebra(1)
G = godel_chain(3)
PHI = parse_formula("exists w1. v^2 | !w1 = 1 && v -> 0 = w1")

# one instance of each of the 16 record classes of the library and of
# the tests' RLMorphism, with its repr as the frozen dataclass printed it
RECORDS = {
    ResiduatedLattice: (G, "ResiduatedLattice(0,x1,1)"),
    ElementClassReport: (
        classify(B),
        "ElementClassReport(boolean_center=frozenset({0, 1}), "
        "idempotents=frozenset({0, 1}), regulars=frozenset({0, 1}), "
        "nilpotents=frozenset({0}), archimedeans=frozenset({0, 1}), "
        "is_godel=True, is_involutive=True, is_chain=True, "
        "is_distributive=True, is_hyperarchimedean=True)"),
    Filter: (principal_filter(G, 1), "{1,2}"),
    QuotientAlgebra: (
        quotient(B, principal_filter(B, B.bot)),
        "QuotientAlgebra(parent=ResiduatedLattice(0,1), filter={0,1}, "
        "class_of=(0, 0), quotient=ResiduatedLattice(0), "
        "section=(0,))"),
    Formula: (
        PHI,
        "Formula(bound_vars=('w1',), equations=((BinOp(op='|', "
        "lhs=Pow(arg=FreeVar(name='v'), exponent=2), "
        "rhs=Neg(arg=BoundVar(name='w1'))), Const(value=1)), "
        "(BinOp(op='->', lhs=FreeVar(name='v'), rhs=Const(value=0)), "
        "BoundVar(name='w1'))), free_var='v')"),
    BinOp: (PHI.equations[0][0],
            "BinOp(op='|', lhs=Pow(arg=FreeVar(name='v'), exponent=2), "
            "rhs=Neg(arg=BoundVar(name='w1')))"),
    Pow: (PHI.equations[0][0].lhs, "Pow(arg=FreeVar(name='v'), exponent=2)"),
    Neg: (PHI.equations[0][0].rhs, "Neg(arg=BoundVar(name='w1'))"),
    FreeVar: (PHI.equations[1][0].lhs, "FreeVar(name='v')"),
    BoundVar: (PHI.equations[1][1], "BoundVar(name='w1')"),
    Const: (PHI.equations[0][1], "Const(value=1)"),
    FilterVerdict: (has_phi_lp(G, blp_formula(), principal_filter(G, 1))[1],
                    "FilterVerdict(holds=True, counterexample=None, "
                    "witness=0)"),
    LpReport: (
        lp_report(B, blp_formula()),
        "LpReport(formula=Formula(bound_vars=(), equations=((BinOp(op='|', "
        "lhs=FreeVar(name='v'), rhs=Neg(arg=FreeVar(name='v'))), "
        "Const(value=1)),), free_var='v'), per_filter=(({1}, "
        "FilterVerdict(holds=True, counterexample=None, witness=0)), "
        "({0,1}, FilterVerdict(holds=True, counterexample=None, "
        "witness=0))), global_holds=True)"),
    Reticulation: (
        build_reticulation(B),
        "Reticulation(source=ResiduatedLattice(0,1), "
        "lattice=ResiduatedLattice(0,1), lam=(0, 1), "
        "filter_of=({0,1}, {1}))"),
    RLMorphism: (
        RLMorphism(B, B, (0, 1)),
        "RLMorphism(source=ResiduatedLattice(0,1), "
        "target=ResiduatedLattice(0,1), mapping=(0, 1))"),
    SpectrumSpace: (
        stone_spec(B),
        "SpectrumSpace(kind='spec', "
        "points=({1},), opens=(0, 1), v=(0, 1))"),
    TheoremVerdict: (
        theorem_checks(B)[0],
        "TheoremVerdict(theorem_id='blp-splitting.2', lhs=True, rhs=True, "
        "agree=True, witness=None)"),
}


def _fields(record):
    """The constructor arguments of a record, by name."""
    names = inspect.signature(type(record)).parameters
    return {name: getattr(record, name) for name in names}


def test_every_record_class_is_covered():
    assert len(RECORDS) == 17
    for cls, (record, _) in RECORDS.items():
        assert type(record) is cls


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_semantics(cls):
    record, recorded_repr = RECORDS[cls]
    assert repr(record) == recorded_repr

    fields = _fields(record)
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) is fields[name]

    twin = cls(**fields)
    assert twin is not record
    assert twin == record and not twin != record
    assert hash(twin) == hash(record)
    if cls is ResiduatedLattice:
        assert hash(record) == hash((record.leq, record.odot))
    else:
        assert hash(record) == hash(tuple(fields.values()))


def test_record_equality_needs_the_same_class_and_fields():
    assert FreeVar("v") != BoundVar("v")
    assert FreeVar("v") != "v"
    verdict = TheoremVerdict("t", True, True, True)
    assert verdict == TheoremVerdict("t", True, True, True, None)
    assert verdict != TheoremVerdict("t", True, True, True, "w")
    assert FilterVerdict(True, None, 0) != FilterVerdict(True, None, 1)


def test_algebras_with_equal_tables_and_other_labels_are_equal():
    """An algebra is its tables; labels are not part of its identity."""
    relabeled = validate(("a", "b", "c"), G.leq, G.odot)
    assert relabeled.leq == G.leq and relabeled.odot == G.odot
    assert relabeled.labels != G.labels
    assert relabeled == G and not relabeled != G
    assert hash(relabeled) == hash(G)
    assert validate(G.labels, G.leq, lukasiewicz_chain(3).odot) != G
    assert validate(G.labels, G.leq, G.odot) == G


def test_filter_equality_ignores_its_derived_generator():
    F = principal_filter(G, 1)
    twin = Filter(G, frozenset(F.members))
    assert twin == F and hash(twin) == hash((G, F.members))
    assert twin.gen == F.gen
    assert Filter(G, frozenset({2})) != F


def _run_isolated(code):
    """Run `code` in `python -S`, so no .pth file imports anything first,
    and return its stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    out = _run_isolated(
        "import sys\n"
        "import rlx.cli\n"
        "print(sorted(m for m in ('dataclasses', 'inspect')\n"
        "             if m in sys.modules))\n")
    assert out == "[]\n"


def test_check_theorems_loads_only_what_it_uses():
    fixture = FIXTURES / "luk4.rlat"
    out = _run_isolated(
        "import contextlib, io, sys\n"
        "import rlx.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = rlx.cli.main(['check-theorems', '--json', "
        f"{str(fixture)!r}])\n"
        "unwanted = ('rlx.enumeration', 'rlx.report', 'dataclasses',\n"
        "            'inspect')\n"
        "print(code, sorted(m for m in unwanted if m in sys.modules))\n")
    assert out == "0 []\n"

from pathlib import Path

import pytest

from rlx.dlattice import validate_bdl
from rlx.errors import AxiomViolation, FileFormatError
from rlx.io import (
    load_rlat,
    parse_filter,
    parse_rlat,
    print_blat,
    print_filter,
    print_rlat,
)

from constructors import (
    boolean_algebra,
    godel_chain,
    lukasiewicz_chain,
    trivial_algebra,
)
from oracles import parse_blat

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# (fixture, label list, code, witness): each of the four faults that
# `parse_filter` reports, with the first offending element ids
FILTER_FAULTS = (
    ("pentagon_godel", "c", "filter-top", ()),
    ("pentagon_godel", "a,1", "filter-up-closed", (1, 3)),
    ("pentagon_godel", "{a,b,c,1}", "filter-meet-closed", (0,)),
    ("luk4", "x2,1", "filter-odot-closed", (2, 2)),
)

EXAMPLE = """
# five-element example, implication given explicitly
elements: 0 a b c 1
order: 0<a 0<b a<c b<c c<1
odot:
0 0 0 0 0
0 a 0 a a
0 0 b b b
0 a b c c
0 a b c 1
imp:
1 1 1 1 1
b 1 b 1 1
a a 1 1 1
0 a b 1 1
0 a b c 1
"""


def test_parse_example():
    A = parse_rlat(EXAMPLE)
    assert A.size == 5
    assert A.labels == ("0", "a", "b", "c", "1")


def test_parse_with_derive(E1):
    text = """
elements: 0 a b c 1
order: 0<a 0<b a<c b<c c<1
odot:
0 0 0 0 0
0 a 0 a a
0 0 b b b
0 a b c c
0 a b c 1
imp: derive
"""
    A = parse_rlat(text)
    assert A == E1


def test_round_trip_all_fixtures():
    paths = sorted(FIXTURES.glob("*.rlat"))
    assert len(paths) == 6
    for path in paths:
        A = load_rlat(path)
        assert parse_rlat(print_rlat(A)) == A


# the fixture files that a constructor of constructors.py builds
CONSTRUCTED = {
    "trivial": trivial_algebra,
    "b2": lambda: boolean_algebra(1),
    "godel3": lambda: godel_chain(3),
    "luk4": lambda: lukasiewicz_chain(4),
}


@pytest.mark.parametrize("name", CONSTRUCTED)
def test_fixture_file_is_its_constructor(name):
    A, B = load_rlat(FIXTURES / f"{name}.rlat"), CONSTRUCTED[name]()
    assert A == B and A.labels == B.labels


def test_round_trip_idempotent(E2):
    once = print_rlat(E2)
    assert print_rlat(parse_rlat(once)) == once


def test_parse_errors_carry_line_numbers():
    with pytest.raises(FileFormatError) as err:
        parse_rlat("order: 0<1\n")
    assert err.value.line == 1

    with pytest.raises(FileFormatError) as err:
        parse_rlat("elements: 0 1\norder: 0<1\nodot:\n0 0\n")
    # missing second odot row
    assert err.value.line >= 3

    with pytest.raises(FileFormatError) as err:
        parse_rlat("elements: 0 1\norder: 0<1\nodot:\n0 0\n0 x\nimp: derive\n")
    assert err.value.line == 5

    with pytest.raises(FileFormatError) as err:
        parse_rlat("elements: 0 0\norder:\n")
    assert err.value.line == 1


def test_parse_rejects_bad_tables():
    text = """
elements: 0 1
order: 0<1
odot:
0 0
0 0
imp: derive
"""
    with pytest.raises(AxiomViolation):
        parse_rlat(text)  # unit law broken: 1*1 = 0


def test_comments_and_blank_lines_ignored(E1):
    text = print_rlat(E1)
    noisy = "# header\n\n" + text.replace("odot:", "odot:  # rows follow")
    assert parse_rlat(noisy) == E1


def test_blat_round_trip():
    B = boolean_algebra(2)
    L = validate_bdl(B.labels, B.leq)
    assert parse_blat(print_blat(L)) == L


def test_blat_rejects_nondistributive():
    from rlx.errors import NotDistributive

    text = "elements: 0 p q r 1\norder: 0<p 0<q 0<r p<1 q<1 r<1\n"
    with pytest.raises(NotDistributive):
        parse_blat(text)


def test_filter_parsing(E1):
    F = parse_filter(E1, "c,1")
    assert F == 3  # the filter is its generator c
    assert print_filter(E1, F) == "{c,1}"
    assert parse_filter(E1, "{c,1}") == F


def test_filter_parsing_unknown_label(E1):
    with pytest.raises(FileFormatError):
        parse_filter(E1, "z,1")


def test_filter_parsing_rejects_non_filter(E1):
    with pytest.raises(AxiomViolation):
        parse_filter(E1, "a,1")  # not odot-closed upward set: misses c


@pytest.mark.parametrize("name, text, code, witness", FILTER_FAULTS)
def test_filter_parsing_reports_each_fault(name, text, code, witness):
    A = load_rlat(FIXTURES / f"{name}.rlat")
    with pytest.raises(AxiomViolation) as caught:
        parse_filter(A, text)
    assert (caught.value.axiom, caught.value.witness) == (code, witness)


def test_trivial_round_trip():
    T = trivial_algebra()
    assert parse_rlat(print_rlat(T)) == T

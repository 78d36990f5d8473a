"""Equal immutable values are one object.

`validate` hands out the tables its memos hold as keys, and filters and
element classes take their member sets from one store, `shared_set`.
So a quotient, a reticulation or a copy of an algebra holds no copy of a
table that an equal algebra already holds.  The id labels of derived
algebras and theorem rows without a witness are shared the same way.  A table is shared only
after its entries pass the type and range check, and never across a bool:
1 and True compare and hash alike.  Only a stage that passes is stored.
"""

import pytest

from rlx.core import (
    _validate_lattice,
    _validate_residuated,
    classify,
    shared_set,
    validate,
)
from rlx.errors import AxiomViolation
from rlx.filters import Filter, all_filters, principal_filter, quotient
from rlx.theorems import _equiv, _shared_row, theorem_checks

TABLES = ("leq", "join", "meet", "odot", "imp")


def _copy(table):
    return [list(row) for row in table]


def _fresh(A):
    """A validated again from list copies of its tables."""
    return validate(A.labels, _copy(A.leq), _copy(A.odot), _copy(A.imp))


def test_equal_tables_are_one_object(cold_caches, E2):
    A = _fresh(E2)
    relabeled = validate([x + "'" for x in E2.labels], _copy(E2.leq),
                         _copy(E2.odot))
    for name in TABLES:
        assert getattr(relabeled, name) is getattr(A, name)


def test_trivial_quotient_shares_the_tables(cold_caches, corpus5, E1, E2):
    """A/{1} is A itself, and the canonical map is the identity.  An
    algebra is its tables, so A/{1} is the first copy of A that asked:
    equal to A, holding A's tables."""
    for B in corpus5 + [E1, E2]:
        A = _fresh(B)
        Q = quotient(A, principal_filter(A, A.top))
        assert Q.quotient == A
        assert all(getattr(Q.quotient, name) is getattr(A, name)
                   for name in TABLES)
        assert Q.class_of == Q.section == tuple(A.elements())


def _with_entry(table, value):
    """`table` as lists, with its first entry 1 replaced by `value`."""
    rows = _copy(table)
    i, j = next((i, j) for i, row in enumerate(rows)
                for j, v in enumerate(row) if v == 1)
    rows[i][j] = value
    return rows


def _holds_bool(table):
    return any(v.__class__ is bool for row in table for v in row)


@pytest.mark.parametrize("int_first", [True, False])
@pytest.mark.parametrize("name", ["odot", "imp"])
def test_a_bool_table_never_stands_for_an_int_table(cold_caches, E2, name,
                                                    int_first):
    tables = {"odot": E2.odot, "imp": E2.imp}
    with_bool = dict(tables, **{name: _with_entry(tables[name], True)})

    def run(args):
        return validate(E2.labels, E2.leq, args["odot"], args["imp"])

    if int_first:
        plain, boolish = run(tables), run(with_bool)
    else:
        boolish, plain = run(with_bool), run(tables)
    assert _holds_bool(getattr(boolish, name))
    assert not _holds_bool(getattr(plain, name))
    assert getattr(boolish, name) is not getattr(plain, name)
    assert run(tables).odot is plain.odot and run(tables).imp is plain.imp


@pytest.mark.parametrize("int_first", [True, False])
@pytest.mark.parametrize("name", ["odot", "imp"])
def test_a_float_table_never_stands_for_an_int_table(cold_caches, E2, name,
                                                     int_first):
    tables = {"odot": E2.odot, "imp": E2.imp}
    with_float = dict(tables, **{name: _with_entry(tables[name], 1.0)})
    if int_first:
        validate(E2.labels, E2.leq, tables["odot"], tables["imp"])
    with pytest.raises(AxiomViolation) as err:
        validate(E2.labels, E2.leq, with_float["odot"], with_float["imp"])
    assert err.value.axiom == "table-entry"
    A = validate(E2.labels, E2.leq, tables["odot"], tables["imp"])
    assert not any(v.__class__ is float for t in (A.odot, A.imp)
                   for row in t for v in row)


def test_equal_member_sets_are_one_object(cold_caches, corpus5, E1, E2):
    """The member sets are one object each, and the store holds them and
    the filter signatures that `filters._filters` interns beside them, one
    per (order, power limits) pair."""
    seen, signatures = {}, set()
    for B in corpus5 + [E1, E2]:
        A = _fresh(B)
        signatures.add((A.leq, A.power_limits))
        cls = classify(A)
        sets = [F.members for F in all_filters(A)]
        sets += [cls.boolean_center, cls.idempotents, cls.regulars,
                 cls.nilpotents, cls.archimedeans]
        for s in sets:
            assert seen.setdefault(s, s) is s
        F = all_filters(A)[0]
        assert Filter(A, frozenset(F.members)).members is F.members
    assert shared_set.cache_info().currsize == len(seen) + len(signatures)


def _store_sizes():
    return tuple(memo.cache_info().currsize for memo in
                 (_validate_lattice, _validate_residuated, shared_set))


def test_a_failed_validation_stores_nothing(cold_caches, E2):
    """With the algebra's own stages stored, a failing order, product or
    residuum, and a table with a bad entry, add nothing to any store and
    raise again on the next call."""
    validate(E2.labels, E2.leq, E2.odot)
    F = principal_filter(E2, E2.top)
    before = _store_sizes()
    leq = _copy(E2.leq)
    leq[E2.top][E2.bot] = True  # antisymmetry fails
    odot = _copy(E2.odot)
    odot[1][2] = (odot[1][2] + 1) % E2.size  # commutativity fails
    imp = _copy(E2.imp)
    imp[1][2] = (imp[1][2] + 1) % E2.size  # not the residuum
    failing = [
        (leq, E2.odot, E2.imp),
        (E2.leq, odot, None),
        (E2.leq, odot, E2.imp),
        (E2.leq, E2.odot, imp),
        (E2.leq, _with_entry(E2.odot, 1.0), None),
        (E2.leq, E2.odot, _with_entry(E2.imp, "1")),
    ]
    for args in failing:
        for _ in range(2):
            with pytest.raises(AxiomViolation):
                validate(E2.labels, *args)
    for members in (frozenset({E2.bot}), frozenset(F.members) - {E2.top}):
        with pytest.raises(AxiomViolation):
            Filter(E2, members)
    assert _store_sizes() == before


def test_equal_quotient_labels_are_one_object(cold_caches, corpus5):
    """The quotients by F != {1}, whose labels are their ids, share them."""
    seen, count = {}, 0
    for A in corpus5:
        for F in all_filters(A):
            if F.gen == A.top:
                continue
            labels = quotient(A, F).quotient.labels
            assert labels == tuple(map(str, range(len(labels))))
            assert seen.setdefault(labels, labels) is labels
            count += 1
    assert len(seen) < count


def test_equal_rows_without_a_witness_are_one_object(cold_caches, corpus5):
    assert _shared_row.cache_info().currsize == 0
    seen, algebras_of, witnessed = {}, {}, []
    for k, A in enumerate(corpus5):
        for v in theorem_checks(A):
            if v.witness is not None:
                witnessed.append(v)
                continue
            assert seen.setdefault(v, v) is v
            algebras_of.setdefault(v, set()).add(k)
    assert max(map(len, algebras_of.values())) > 1
    assert _shared_row.cache_info().currsize == len(seen)
    # a row with a witness is built afresh and never stored
    assert witnessed
    assert len({id(v) for v in witnessed}) == len(witnessed)
    rows = [_equiv("t", True, True, ("w",)) for _ in range(2)]
    assert rows[0] == rows[1] and rows[0] is not rows[1]
    assert _shared_row.cache_info().currsize == len(seen)

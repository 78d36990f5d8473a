"""Answers that no label enters are kept once per table pair.

`core.table_memo` keys a memo by the algebra's (leq, odot) and the other
arguments, so a relabeled copy of an algebra (equal quotients of
different algebras, a copy under other labels) reads the answer computed
for the first of them.  `A/{1}` is `A` itself.  Everything that shows a label (filters, spaces, the
reticulation, quotients) is still built per algebra, from its own labels.
"""

import pytest

import rlx.core
from conftest import clear_memos
from rlx.core import classify, complemented_elements, table_memo, validate
from rlx.dlattice import is_conormal_lattice, is_normal_lattice
from rlx.filters import (
    _generators,
    all_filters,
    max_spec,
    principal_filter,
    quotient,
    radical,
    spec,
)
from rlx.formulas import _definable_masks, blp_formula, ilp_formula, rlp_formula
from rlx.lifting import has_blp, has_ilp, has_lp
from rlx.reticulation import _lattice_parts, build_reticulation
from rlx.spectra import is_gelfand, star_property, stone_max, stone_spec
from rlx.theorems import theorem_checks

FORMULAS = (blp_formula(), ilp_formula(), rlp_formula())

# each table memo with the number of values its other arguments take in
# the size <= 5 matrix: the three lifting formulas, of which `has_lp` is
# asked the Boolean and the idempotent one
TABLE_MEMOS = (
    (classify, 1), (complemented_elements, 1), (_generators, 1),
    (has_lp, 2), (is_gelfand, 1), (star_property, 1),
    (_lattice_parts, 1), (_definable_masks, 3), (is_normal_lattice, 1),
    (is_conormal_lattice, 1),
)


def _relabeled(A):
    return validate([f"<{x}>" for x in A.labels], A.leq, A.odot)


def _gens(filters):
    return tuple(F.gen for F in filters)


def _answers(A):
    """Every answer about A that holds no label, through the public
    functions."""
    R = build_reticulation(A)
    L = R.lattice
    return (
        classify(A), complemented_elements(A), has_blp(A), has_ilp(A),
        is_gelfand(A), star_property(A)[0], dict(star_property(A)[1]),
        tuple(_definable_masks(A, phi) for phi in FORMULAS),
        _gens(all_filters(A)), _gens(spec(A)), _gens(max_spec(A)),
        radical(A).gen,
        tuple((S.opens, S.v) for S in (stone_spec(A), stone_max(A))),
        (R.lam, _gens(R.filter_of), L.leq, L.join, L.meet, L.odot, L.imp),
        is_normal_lattice(L), is_conormal_lattice(L),
        tuple((Q.class_of, Q.section, Q.quotient.leq, Q.quotient.odot,
               Q.quotient.imp)
              for Q in (quotient(A, F) for F in all_filters(A))),
    )


def _assert_own_labels(A):
    """Every labeled value derived from A shows A's labels."""
    def shows(F, B):
        return (F.algebra is B and repr(F)
                == "{" + ",".join(B.labels[x] for x in F.sorted_members()) + "}")

    filters = all_filters(A)
    assert all(shows(F, A) for F in filters)
    assert all(shows(F, A) for F in spec(A) + max_spec(A) + (radical(A),))
    for S in (stone_spec(A), stone_max(A)):
        assert S.algebra is A and all(shows(P, A) for P in S.points)
    R = build_reticulation(A)
    assert R.source is A and all(shows(F, A) for F in R.filter_of)
    assert R.lattice.labels == tuple(f"[{A.labels[F.gen]})"
                                     for F in R.filter_of)
    for F in filters:
        Q = quotient(A, F)
        assert Q.parent is A and shows(Q.filter, A)
        if F.gen == A.top:
            assert Q.quotient is A
        else:
            assert Q.quotient.labels == tuple(f"{A.labels[r]}/F"
                                              for r in Q.section)


def test_table_memo_contract(E1):
    """A relabeled copy reads the answer of the first copy without a call,
    a call that raises stores nothing, and `cache_info()` and
    `cache_clear()` behave as `lru_cache`'s do."""
    calls = []

    @table_memo
    def shifted_size(A, k):
        calls.append(A)
        if k < 0:
            raise ValueError(k)
        return A.size + k

    copy = _relabeled(E1)
    assert shifted_size(E1, 1) == 6 and calls == [E1]
    assert calls[0] is E1  # run on the caller's algebra
    assert shifted_size(copy, 1) == 6 and len(calls) == 1
    assert shifted_size(copy, 2) == 7 and calls[1] is copy
    info = shifted_size.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 2, 2)

    for _ in range(2):
        with pytest.raises(ValueError):
            shifted_size(E1, -1)
    assert len(calls) == 4
    info = shifted_size.cache_info()
    assert (info.hits, info.currsize) == (1, 2)

    shifted_size.cache_clear()
    info = shifted_size.cache_info()
    assert (info.hits, info.currsize) == (0, 0)
    assert shifted_size(copy, 1) == 6 and calls[-1] is copy


def _copies(corpus):
    """Each algebra and each of its quotients, with a relabeled copy."""
    for A in corpus:
        yield A
        for F in all_filters(A):
            yield quotient(A, F).quotient


def test_relabeled_copies_get_equal_answers(cold_caches, corpus5):
    algebras = list(_copies(corpus5))
    for X in algebras:
        clear_memos()
        expected = _answers(X)
        clear_memos()
        Y = _relabeled(X)
        assert Y.labels != X.labels
        assert _answers(Y) == expected  # cold: Y computes its own answers
        assert _answers(X) == expected  # warm: X reads Y's answers
        clear_memos()
        assert _answers(X) == expected
        Y = _relabeled(X)
        assert _answers(Y) == expected  # warm: Y reads X's answers
        _assert_own_labels(X)
        _assert_own_labels(Y)


def test_memos_hold_one_entry_per_table_pair(cold_caches, corpus5,
                                             monkeypatch):
    """After the size-5 matrix no table memo holds more entries than there
    are distinct table pairs, times the values of its other arguments,
    though the matrix builds more algebras than pairs."""
    built = list(corpus5)
    init = rlx.core.ResiduatedLattice.__init__

    def record(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(rlx.core.ResiduatedLattice, "__init__", record)
    for A in corpus5:
        theorem_checks(A)
    pairs = {(B.leq, B.odot) for B in built}
    assert len(built) > 2 * len(pairs)
    for memo, other_values in TABLE_MEMOS:
        assert 0 < memo.cache_info().currsize <= len(pairs) * other_values, \
            memo.__name__


@pytest.fixture(scope="module")
def corpus_and_fixtures(corpus5, corpus6, E1, E2):
    return [*corpus5, *corpus6[::8], E1, E2]


def test_only_the_trivial_filter_keeps_the_size(corpus_and_fixtures):
    """A filter F other than {1} holds some e != 1, and e*1 = e = e*e puts
    1 and e in one class, so A/F is smaller than A: no quotient but A/{1}
    has A's tables, and A/{1} is A itself."""
    for A in corpus_and_fixtures:
        for F in all_filters(A):
            Q = quotient(A, F).quotient
            if F is principal_filter(A, A.top):
                assert Q is A
            else:
                assert Q.size < A.size

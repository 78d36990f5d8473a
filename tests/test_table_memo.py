"""Equal tables share every memo.

An algebra is its tables: equality and hash are those of (leq, odot), and
labels are not part of identity.  So every memo keyed by an algebra (a
plain `lru_cache`) holds one answer per table pair, computed on the first
copy asked, and a relabeled copy, or an equal quotient of another algebra,
reads that very answer.  `A/{1}` is `A` itself.  Labels reach the output
only from the algebra the caller built: the CLI runs below show the same
bytes whatever copies ran before them.
"""

from functools import lru_cache

import pytest

import rlx.core
from conftest import FIXTURES, clear_memos
from rlx.cli import main
from rlx.core import classify, validate
from rlx.dlattice import (
    _lattice_blp_failures,
    is_conormal_lattice,
    is_normal_lattice,
)
from rlx.filters import (
    _filters,
    all_filters,
    max_spec,
    quotient,
    radical,
    spec,
)
from rlx.formulas import _definable_masks, blp_formula, ilp_formula, rlp_formula
from rlx.io import load_rlat, print_rlat
from rlx.lifting import _lift_failures, has_blp, has_ilp
from rlx.reticulation import build_reticulation
from rlx.spectra import _build, is_gelfand, star_property, stone_max, stone_spec
from rlx.theorems import _filter_side, local_factor_decomposition, theorem_checks

FORMULAS = (blp_formula(), ilp_formula(), rlp_formula())

# each memo keyed by an algebra with the number of values its other
# arguments take in the size <= 5 matrix: the three lifting formulas, the
# two kinds of space, and the filters, at most 5 on 5 elements
TABLE_MEMOS = (
    (classify, 1), (_filters, 1), (quotient, 5), (_lift_failures, 3),
    (build_reticulation, 1), (_definable_masks, 3), (is_normal_lattice, 1),
    (is_conormal_lattice, 1), (_build, 2), (local_factor_decomposition, 1),
    (_lattice_blp_failures, 1), (_filter_side, 1),
)


def _relabeled(A):
    return validate([f"<{x}>" for x in A.labels], A.leq, A.odot)


def _answers(A):
    """Every answer about A, through the public functions."""
    R = build_reticulation(A)
    L = R.lattice
    return (
        classify(A), has_blp(A), has_ilp(A),
        is_gelfand(A), star_property(A)[0], dict(star_property(A)[1]),
        tuple(_definable_masks(A, phi) for phi in FORMULAS),
        all_filters(A), spec(A), max_spec(A), radical(A),
        tuple((S.opens, S.v) for S in (stone_spec(A), stone_max(A))),
        (R.lam, R.filter_of, L.leq, L.join, L.meet, L.odot, L.imp),
        is_normal_lattice(L), is_conormal_lattice(L),
        tuple((Q.class_of, Q.section, Q.quotient.leq, Q.quotient.odot,
               Q.quotient.imp)
              for Q in (quotient(A, F) for F in all_filters(A))),
    )


def _shared(A, B):
    """The answers of B are the very objects of A's."""
    assert all_filters(B) is all_filters(A)
    assert stone_spec(B) is stone_spec(A) and stone_max(B) is stone_max(A)
    assert build_reticulation(B) is build_reticulation(A)
    for F in all_filters(A):
        assert quotient(B, F) is quotient(A, F)


def test_table_memo_contract(E1):
    """A memo keyed by an algebra is an `lru_cache`: a relabeled copy
    reads the answer of the first copy without a call, a call that raises
    stores nothing, and `cache_info()` and `cache_clear()` are the lru's."""
    calls = []

    @lru_cache(maxsize=None)
    def shifted_size(A, k):
        calls.append(A)
        if k < 0:
            raise ValueError(k)
        return A.size + k

    copy = _relabeled(E1)
    assert copy == E1 and hash(copy) == hash(E1) and copy.labels != E1.labels
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
    """Each algebra and each of its quotients."""
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
        _shared(Y, X)
        clear_memos()
        assert _answers(X) == expected
        Y = _relabeled(X)
        assert _answers(Y) == expected  # warm: Y reads X's answers
        _shared(X, Y)


def test_memos_hold_one_entry_per_table_pair(cold_caches, corpus5,
                                             monkeypatch):
    """After the size-5 matrix no memo keyed by an algebra holds more
    entries than there are distinct table pairs, times the values of its
    other arguments, though the matrix builds more algebras than pairs."""
    built = list(corpus5)
    init = rlx.core.ResiduatedLattice.__init__

    def record(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(rlx.core.ResiduatedLattice, "__init__", record)
    for A in corpus5:
        theorem_checks(A)
    pairs = {(B.leq, B.odot) for B in built}
    # the quotients of equal triples and the lattices of equal orders are
    # one object each, but copies remain: 58 algebras on 37 pairs
    assert len(built) > len(pairs)
    for memo, other_values in TABLE_MEMOS:
        assert 0 < memo.cache_info().currsize <= len(pairs) * other_values, \
            memo.__name__


def _output(argv, capsys):
    assert main(argv) == 0, argv
    return capsys.readouterr().out


def test_outputs_show_only_the_callers_labels(tmp_path, capsys):
    """In one process, each CLI run on a fixture and on a copy under new
    label strings prints what that run prints alone, whichever copy ran
    first: a memo answer computed on one copy never shows its labels on
    the other."""
    A = load_rlat(FIXTURES / "pentagon_stacked.rlat")
    names = tuple(f"new_{x}" for x in A.labels)
    copy = tmp_path / "copy.rlat"
    copy.write_text(print_rlat(A, names), encoding="utf-8")
    rad = [x for x in A.elements() if A.leq[radical(A)][x]]
    runs = {}
    for path, labels in ((FIXTURES / "pentagon_stacked.rlat", A.labels),
                         (copy, names)):
        filt = "{" + ",".join(labels[x] for x in rad) + "}"
        runs[labels] = [[cmd, *args, str(path)] for cmd, *args in (
            ("analyze", "--json"), ("lp", "--blp", "--json"),
            ("lp", "--blp", "--json", "--filter", filt), ("reticulate",),
            ("quotient", "--filter", filt))]
    alone = {}
    for argv in runs[A.labels] + runs[names]:
        clear_memos()
        alone[tuple(argv)] = _output(argv, capsys)
    for original, renamed in zip(runs[A.labels], runs[names]):
        assert alone[tuple(original)] != alone[tuple(renamed)]
    for first, second in ((A.labels, names), (names, A.labels)):
        clear_memos()
        for argv in runs[first] + runs[second]:
            assert _output(argv, capsys) == alone[tuple(argv)], argv


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
            if F == A.top:
                assert Q == A
            else:
                assert Q.size < A.size

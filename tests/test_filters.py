import itertools
from pathlib import Path
from types import SimpleNamespace

import pytest

from rlx.core import (
    boolean_algebra,
    classify,
    godel_chain,
    lukasiewicz_chain,
    validate,
)
from rlx.errors import AxiomViolation
from rlx.io import load_rlat
from rlx.filters import (
    Filter,
    _check_congruence,
    _filters,
    all_filters,
    filter_join,
    filter_meet,
    generated_filter,
    improper_filter,
    is_local,
    is_prime,
    is_semisimple,
    max_spec,
    principal_filter,
    quotient,
    radical,
    spec,
)

from oracles import (
    brute_congruence_violation,
    brute_is_prime,
    fixed_point_filter,
    is_filter_subset,
    min_generator,
    rl_isomorphic,
    set_partitions,
    table_major_congruence_check,
    trivial_filter,
)


def members_by_label(A, F):
    return {A.labels[x] for x in F.members}


def filter_from_labels(A, names):
    index = {lbl: i for i, lbl in enumerate(A.labels)}
    return Filter(A, frozenset(index[n] for n in names))


def test_filter_invariants_enforced(E1):
    with pytest.raises(AxiomViolation):
        Filter(E1, frozenset({0}))  # no top
    with pytest.raises(AxiomViolation):
        Filter(E1, frozenset({1, 4}))  # not up-closed: misses c


def test_filter_check_matches_definition(corpus4, E1, E2):
    # the linear constructor check accepts exactly the subsets that are
    # filters by definition, on every subset of every small algebra
    for A in list(corpus4) + [E1, E2]:
        for r in range(A.size + 1):
            for combo in itertools.combinations(A.elements(), r):
                s = frozenset(combo)
                if is_filter_subset(A, s):
                    assert Filter(A, s).members == s
                else:
                    with pytest.raises(AxiomViolation):
                        Filter(A, s)


def test_generated_filter_golden(E1, E2):
    assert members_by_label(E1, generated_filter(E1, {3})) == {"c", "1"}
    assert members_by_label(E1, generated_filter(E1, ())) == {"1"}
    # powers of c fall to d, so c generates the up-set of d
    idx = {lbl: i for i, lbl in enumerate(E2.labels)}
    assert members_by_label(E2, generated_filter(E2, {idx["c"]})) == \
        {"a", "c", "d", "1"}


def test_generated_filter_matches_naive_fixpoint(corpus4):
    for A in corpus4:
        for seed_size in range(min(3, A.size) + 1):
            for seed in itertools.combinations(A.elements(), seed_size):
                got = generated_filter(A, seed).members
                # oracle: smallest filter-subset containing the seed
                best = None
                for r in range(A.size + 1):
                    for combo in itertools.combinations(A.elements(), r):
                        s = frozenset(combo)
                        if set(seed) <= s and is_filter_subset(A, s):
                            if best is None or len(s) < len(best):
                                best = s
                assert got == best


def test_generated_filter_matches_fixed_point_closure(corpus5, corpus6):
    for A in list(corpus5) + list(corpus6):
        for size in range(3):
            for seed in itertools.combinations(A.elements(), size):
                assert generated_filter(A, seed).members == \
                    fixed_point_filter(A, seed)


def test_all_filters_by_subset_scan(corpus4, E1):
    for A in list(corpus4) + [E1]:
        expected = set()
        for r in range(A.size + 1):
            for combo in itertools.combinations(A.elements(), r):
                s = frozenset(combo)
                if is_filter_subset(A, s):
                    expected.add(s)
        assert {F.members for F in all_filters(A)} == expected


def test_all_filters_count_golden(E1, E2):
    assert len(all_filters(E1)) == 5
    assert len(all_filters(E2)) == 5
    B2 = boolean_algebra(1)
    assert [members_by_label(B2, F) for F in all_filters(B2)] == \
        [{"1"}, {"0", "1"}]


def test_filter_lattice_golden(E2):
    fb = principal_filter(E2, 2)  # [b)
    fd = principal_filter(E2, 4)  # [d)
    assert members_by_label(E2, filter_join(fb, fd)) == set(E2.labels)
    assert members_by_label(E2, filter_meet(fb, fd)) == {"a", "1"}


def test_principal_filter_identities(corpus5):
    for A in corpus5:
        for a in A.elements():
            fa = principal_filter(A, a)
            for n in range(1, A.size + 1):
                assert principal_filter(A, A.power(a, n)).members == fa.members
            for b in A.elements():
                fb = principal_filter(A, b)
                assert filter_join(fa, fb).members == \
                    principal_filter(A, A.odot[a][b]).members == \
                    principal_filter(A, A.meet[a][b]).members
                assert filter_meet(fa, fb).members == \
                    principal_filter(A, A.join[a][b]).members
        assert principal_filter(A, A.top).members == {A.top}
        if A.size > 1:
            assert not principal_filter(A, A.bot).proper


def test_filter_join_elementwise_form(corpus4):
    for A in corpus4:
        for F in all_filters(A):
            for G in all_filters(A):
                expected = frozenset(
                    x for x in A.elements()
                    if any(A.leq[A.odot[f][g]][x]
                           for f in F.members for g in G.members))
                assert filter_join(F, G).members == expected


def test_every_filter_is_intersection_of_primes_above(corpus5):
    for A in corpus5:
        primes = spec(A)
        for F in all_filters(A):
            inter = frozenset(A.elements())
            for P in primes:
                if F.members <= P.members:
                    inter &= P.members
            assert inter == F.members
        # intersection of all primes is the trivial filter
        if primes:
            inter = frozenset(A.elements())
            for P in primes:
                inter &= P.members
            assert inter == {A.top}


def test_spectra_golden(E1, E2):
    assert [members_by_label(E1, F) for F in max_spec(E1)] == \
        [{"a", "c", "1"}, {"b", "c", "1"}]
    assert members_by_label(E1, radical(E1)) == {"c", "1"}
    assert {frozenset(members_by_label(E1, F)) for F in spec(E1)} == {
        frozenset({"1"}), frozenset({"a", "c", "1"}), frozenset({"b", "c", "1"})}
    assert not is_local(E1)

    assert [members_by_label(E2, F) for F in max_spec(E2)] == \
        [{"a", "b", "1"}, {"a", "c", "d", "1"}]
    assert not is_local(E2)
    assert members_by_label(E2, radical(E2)) == {"a", "1"}


def test_filters_spectra_and_radical_are_read_off_one_record(cold_caches,
                                                             E1):
    """Work ratchet: all_filters, spec, max_spec, radical and
    generated_filter read one record per algebra, built once, so the
    points of Spec and Max and the radical are the objects of
    all_filters, and a repeat call returns the same tuple."""
    A = E1
    before = _filters.cache_info()
    reads = (all_filters, spec, max_spec)
    tuples = [read(A) for read in reads]
    rad = radical(A)
    top = generated_filter(A, ())
    after = _filters.cache_info()
    assert after.misses - before.misses == 1
    filters, primes, maxima = tuples
    assert primes and maxima
    assert all(any(P is F for F in filters) for P in primes + maxima + (rad,))
    assert any(top is F for F in filters)
    assert all(read(A) is t for read, t in zip(reads, tuples))
    assert radical(A) is rad and generated_filter(A, ()) is top


def test_chains_are_local_with_all_filters_prime():
    for n in (2, 3, 4, 5):
        for A in (godel_chain(n), lukasiewicz_chain(n)):
            assert is_local(A)
            for F in all_filters(A):
                if F.proper:
                    assert is_prime(F)


def test_is_prime_matches_the_definition(corpus5, corpus6):
    """The scan over the pairs outside F agrees with the scan over all
    pairs on every filter of every algebra of size <= 6 and of the
    fixtures."""
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    algebras = [*corpus5, *corpus6,
                *map(load_rlat, sorted(fixtures.glob("*.rlat")))]
    verdicts = [(is_prime(F), brute_is_prime(F))
                for A in algebras for F in all_filters(A)]
    assert all(fast == brute for fast, brute in verdicts)
    assert {fast for fast, _ in verdicts} == {True, False}


def test_semilocal_reports_max_count(E1):
    # every finite algebra is semilocal: finitely many maximal filters
    assert len(max_spec(E1)) == 2


def test_semisimple(E1):
    assert not is_semisimple(E1)
    assert is_semisimple(boolean_algebra(2))


def test_quotient_by_trivial_filter_is_isomorphic(corpus4):
    for A in corpus4:
        Q = quotient(A, trivial_filter(A))
        assert Q.quotient.size == A.size
        assert rl_isomorphic(Q.quotient, A)


def test_quotient_by_improper_filter_is_trivial(E1):
    Q = quotient(E1, improper_filter(E1))
    assert Q.quotient.size == 1


def test_quotient_golden_lozenge(E2):
    Q = quotient(E2, principal_filter(E2, 1))  # [a)
    assert Q.quotient.size == 4
    assert rl_isomorphic(Q.quotient, boolean_algebra(2))
    # classes {0}, {b}, {c,d}, {a,1}
    groups = {}
    for x in E2.elements():
        groups.setdefault(Q.class_of[x], set()).add(E2.labels[x])
    assert sorted(groups.values(), key=sorted) == \
        [{"0"}, {"a", "1"}, {"b"}, {"c", "d"}]


def test_quotient_golden_pentagon_boolean_gap(E1):
    # modulo {c,1} the quotient is the lozenge: a/F gains a complement
    # even though no Boolean element of E1 sits in its class
    F = principal_filter(E1, 3)
    Q = quotient(E1, F)
    assert Q.quotient.size == 4
    q = Q.quotient
    a_class = Q.class_of[1]
    assert q.join[a_class][q.imp[a_class][q.bot]] == q.top
    boolean_lifts = {Q.class_of[e] for e in classify(E1).boolean_center}
    assert a_class not in boolean_lifts


def test_second_isomorphism(corpus4):
    for A in corpus4:
        for F in all_filters(A):
            QF = quotient(A, F)
            for G in all_filters(A):
                if not F.members <= G.members:
                    continue
                g_over_f = Filter(QF.quotient,
                                  frozenset(QF.class_of[x] for x in G.members))
                iterated = quotient(QF.quotient, g_over_f).quotient
                direct = quotient(A, G).quotient
                assert rl_isomorphic(iterated, direct)


def test_min_generator(E1, E2):
    assert E1.labels[min_generator(principal_filter(E1, 3))] == "c"
    assert E1.labels[min_generator(trivial_filter(E1))] == "1"
    fa = principal_filter(E2, 1)
    m = min_generator(fa)
    assert E2.labels[m] == "a"
    assert E2.odot[m][m] == m


def test_min_generator_total_on_finite_filters(corpus5):
    # finite filters are meet-closed, so the minimum always exists and is
    # an idempotent generator
    for A in corpus5:
        for F in all_filters(A):
            m = min_generator(F)
            assert all(A.leq[m][x] for x in F.members)
            assert A.odot[m][m] == m


def test_filters_of_finite_algebra_principal_and_idempotent_generated(corpus5):
    for A in corpus5:
        idem = classify(A).idempotents
        expected = {principal_filter(A, a).members for a in idem}
        assert {F.members for F in all_filters(A)} == expected


def _separates(A, class_of, x, y, z):
    """Does z tell x ~ y apart through join, meet, odot or imp?"""
    c = class_of
    return (any(c[t[x][z]] != c[t[y][z]]
                for t in (A.join, A.meet, A.odot, A.imp))
            or c[A.imp[z][x]] != c[A.imp[z][y]])


def test_congruence_check_accepts_every_filter(corpus5, corpus6):
    for A in [*corpus5, *corpus6]:
        for F in all_filters(A):
            Q = quotient(A, F)
            _check_congruence(A, Q.class_of, Q.section)
            assert brute_congruence_violation(A, Q.class_of) is None


def test_congruence_check_matches_pairwise_scan(corpus5):
    """On every partition of every algebra of size <= 5, the one-pass check
    raises exactly when the pairwise scan finds a violation, and with the
    witness (r, x, z) of the table-major loop it replaced, which is one."""
    raised = 0
    for A in corpus5:
        for class_of in set_partitions(A.size):
            reps = tuple(class_of.index(c) for c in range(max(class_of) + 1))
            expected = brute_congruence_violation(A, class_of)
            try:
                table_major_congruence_check(A, class_of, reps)
            except AxiomViolation as exc:
                oracle = exc.witness
            else:
                oracle = None
            try:
                _check_congruence(A, class_of, reps)
            except AxiomViolation as exc:
                assert exc.axiom == "congruence"
                assert exc.witness == oracle
                r, x, z = exc.witness
                assert class_of[r] == class_of[x]
                assert _separates(A, class_of, r, x, z)
                assert expected is not None
                raised += 1
            else:
                assert expected is None and oracle is None
    assert raised > 1000


def test_congruence_check_reads_each_table(corpus4):
    """Each of the five tables is checked.  On a residuated lattice the
    meet never fails alone (a partition compatible with join, odot and
    imp is the congruence of a filter), so the check runs on stand-ins
    that keep one table of an algebra and make the others constant, which
    every partition respects, and is compared with the table-major loop.
    The last stand-in's imp has equal rows, x -> z = !z, so only its
    transpose can fail."""
    raised = [0] * 5
    for A in corpus4:
        els = A.elements()
        flat = tuple((0,) * A.size for _ in els)
        cols = tuple(tuple(A.neg(z) for z in els) for _ in els)
        kept = (("join", A.join), ("meet", A.meet), ("odot", A.odot),
                ("imp", A.imp), ("imp", cols))
        for k, (name, table) in enumerate(kept):
            tables = dict(join=flat, meet=flat, odot=flat, imp=flat)
            tables[name] = table
            B = SimpleNamespace(elements=A.elements, **tables)
            for class_of in set_partitions(A.size):
                reps = tuple(class_of.index(c)
                             for c in range(max(class_of) + 1))
                try:
                    table_major_congruence_check(B, class_of, reps)
                except AxiomViolation as exc:
                    with pytest.raises(AxiomViolation) as got:
                        _check_congruence(B, class_of, reps)
                    assert got.value.witness == exc.witness
                    raised[k] += 1
                else:
                    _check_congruence(B, class_of, reps)
    assert min(raised) > 10, raised

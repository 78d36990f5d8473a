import itertools
from pathlib import Path
from types import SimpleNamespace

import pytest

from rlx.core import classify
from rlx.errors import AxiomViolation
from rlx.io import load_rlat
from rlx.filters import (
    _check_congruence,
    _filters,
    all_filters,
    generator,
    is_local,
    is_prime,
    is_semisimple,
    max_spec,
    quotient,
    radical,
    spec,
)

from constructors import boolean_algebra, godel_chain, lukasiewicz_chain
from oracles import (
    brute_congruence_violation,
    brute_is_prime,
    fixed_point_filter,
    generated_filter,
    is_filter_subset,
    members,
    min_generator,
    rl_isomorphic,
    set_partitions,
    table_major_congruence_check,
)


def members_by_label(A, e):
    return {A.labels[x] for x in members(A, e)}


def test_filter_invariants_enforced(E1):
    with pytest.raises(AxiomViolation):
        generator(E1, frozenset({0}))  # no top
    with pytest.raises(AxiomViolation):
        generator(E1, frozenset({1, 4}))  # not up-closed: misses c


def test_filter_check_matches_definition(corpus4, E1, E2):
    # the linear check accepts exactly the subsets that are filters by
    # definition, on every subset of every small algebra, and returns
    # the generator, the least member
    for A in list(corpus4) + [E1, E2]:
        for r in range(A.size + 1):
            for combo in itertools.combinations(A.elements(), r):
                s = frozenset(combo)
                if is_filter_subset(A, s):
                    e = generator(A, s)
                    assert members(A, e) == s and e == min_generator(A, s)
                else:
                    with pytest.raises(AxiomViolation):
                        generator(A, s)


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
                got = members(A, generated_filter(A, seed))
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
                assert members(A, generated_filter(A, seed)) == \
                    fixed_point_filter(A, seed)


def test_all_filters_by_subset_scan(corpus4, E1):
    for A in list(corpus4) + [E1]:
        expected = set()
        for r in range(A.size + 1):
            for combo in itertools.combinations(A.elements(), r):
                s = frozenset(combo)
                if is_filter_subset(A, s):
                    expected.add(s)
        assert {members(A, e) for e in all_filters(A)} == expected


def test_all_filters_count_golden(E1, E2):
    assert len(all_filters(E1)) == 5
    assert len(all_filters(E2)) == 5
    B2 = boolean_algebra(1)
    assert [members_by_label(B2, F) for F in all_filters(B2)] == \
        [{"1"}, {"0", "1"}]


def test_filter_lattice_golden(E2):
    b, d = E2.power_limits[2], E2.power_limits[4]  # [b) = [b^w), [d)
    # the join of [b) and [d) is [b * d), their meet [b | d)
    assert members_by_label(E2, E2.odot[b][d]) == set(E2.labels)
    assert members_by_label(E2, E2.join[b][d]) == {"a", "1"}


def test_principal_filter_identities(corpus5):
    """[x) = [x^w), and the join and meet of [a) and [b) read off their
    generators are the principal filters of a*b, a&b and a|b, by the
    fixed-point closure."""
    for A in corpus5:
        w = A.power_limits
        for a in A.elements():
            fa = fixed_point_filter(A, (a,))
            assert members(A, w[a]) == fa
            for n in range(1, A.size + 1):
                assert fixed_point_filter(A, (A.power(a, n),)) == fa
            for b in A.elements():
                assert members(A, A.odot[w[a]][w[b]]) == \
                    fixed_point_filter(A, (A.odot[a][b],)) == \
                    fixed_point_filter(A, (A.meet[a][b],)) == \
                    fixed_point_filter(A, (a, b))
                assert members(A, A.join[w[a]][w[b]]) == \
                    fixed_point_filter(A, (A.join[a][b],)) == \
                    fa & fixed_point_filter(A, (b,))
        assert fixed_point_filter(A, (A.top,)) == {A.top}
        assert members(A, A.bot) == frozenset(A.elements())


def test_filter_join_elementwise_form(corpus4):
    for A in corpus4:
        for F in all_filters(A):
            for G in all_filters(A):
                expected = frozenset(
                    x for x in A.elements()
                    if any(A.leq[A.odot[f][g]][x]
                           for f in members(A, F) for g in members(A, G)))
                assert members(A, A.odot[F][G]) == expected


def test_every_filter_is_intersection_of_primes_above(corpus5):
    for A in corpus5:
        primes = [members(A, P) for P in spec(A)]
        for F in (members(A, e) for e in all_filters(A)):
            inter = frozenset(A.elements())
            for P in primes:
                if F <= P:
                    inter &= P
            assert inter == F
        # intersection of all primes is the trivial filter
        if primes:
            inter = frozenset(A.elements())
            for P in primes:
                inter &= P
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
    """Work ratchet: all_filters, spec, max_spec and radical read one
    record per algebra, built once, so the points of Spec and Max and the
    radical are among all_filters, and a repeat call returns the same
    tuple."""
    A = E1
    before = _filters.cache_info()
    reads = (all_filters, spec, max_spec)
    tuples = [read(A) for read in reads]
    rad = radical(A)
    after = _filters.cache_info()
    assert after.misses - before.misses == 1
    filters, primes, maxima = tuples
    assert primes and maxima
    assert set(primes + maxima + (rad, A.top)) <= set(filters)
    assert all(read(A) is t for read, t in zip(reads, tuples))
    assert radical(A) == rad


def test_chains_are_local_with_all_filters_prime():
    for n in (2, 3, 4, 5):
        for A in (godel_chain(n), lukasiewicz_chain(n)):
            assert is_local(A)
            for F in all_filters(A):
                if F != A.bot:
                    assert is_prime(A, F)


def test_is_prime_matches_the_definition(corpus5, corpus6):
    """The scan over the pairs outside F agrees with the scan over all
    pairs on every filter of every algebra of size <= 6 and of the
    fixtures."""
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    algebras = [*corpus5, *corpus6,
                *map(load_rlat, sorted(fixtures.glob("*.rlat")))]
    verdicts = [(is_prime(A, F), brute_is_prime(A, F))
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
        Q = quotient(A, A.top)
        assert Q.quotient.size == A.size
        assert rl_isomorphic(Q.quotient, A)


def test_quotient_by_improper_filter_is_trivial(E1):
    Q = quotient(E1, E1.bot)
    assert Q.quotient.size == 1


def test_quotient_golden_lozenge(E2):
    Q = quotient(E2, 1)  # [a)
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
    Q = quotient(E1, 3)  # [c)
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
                if not members(A, F) <= members(A, G):
                    continue
                g_over_f = generator(QF.quotient, frozenset(
                    QF.class_of[x] for x in members(A, G)))
                iterated = quotient(QF.quotient, g_over_f).quotient
                direct = quotient(A, G).quotient
                assert rl_isomorphic(iterated, direct)


def test_min_generator(E1, E2):
    assert E1.labels[min_generator(E1, fixed_point_filter(E1, (3,)))] == "c"
    assert E1.labels[min_generator(E1, fixed_point_filter(E1, ()))] == "1"
    m = min_generator(E2, fixed_point_filter(E2, (1,)))
    assert E2.labels[m] == "a"
    assert E2.odot[m][m] == m


def test_min_generator_total_on_finite_filters(corpus5):
    # finite filters are meet-closed, so the minimum always exists, is an
    # idempotent generator and is the filter's id
    for A in corpus5:
        for F in all_filters(A):
            m = min_generator(A, members(A, F))
            assert m == F
            assert A.odot[m][m] == m


def test_filters_of_finite_algebra_principal_and_idempotent_generated(corpus5):
    for A in corpus5:
        idem = classify(A).idempotents
        expected = {fixed_point_filter(A, (a,)) for a in idem}
        assert {members(A, F) for F in all_filters(A)} == expected
        assert set(all_filters(A)) == idem


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

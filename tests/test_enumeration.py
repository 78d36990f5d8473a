import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from rlx.core import boolean_algebra, classify, validate
from rlx.enumeration import (
    GENERATOR_VERSION,
    SIZE_CAP,
    _lattice_orders,
    _products_on_lattice,
    all_algebras,
    enumerate_algebras,
)
from rlx.errors import SizeCapExceeded
from rlx.iso import (
    _invariants,
    canonical_key,
    canonicalize,
    permute_relation,
    permute_table,
)

from oracles import (
    brute_canonical_key,
    brute_invariant,
    brute_relabeling,
    products_on_lattice,
    rl_isomorphic,
    slow_enumerate,
)

# SHA-256 of repr([(A.labels, A.leq, A.odot) for A in all_algebras(n,
# use_cache=False)]) for n = 1..6, recorded at commit 622935e, before the
# unit-law prune and the order-minimizer canonical key; n = 7 recorded at
# commit a49302e, before the search pruned the partial irreducible table.
GENERATOR_DIGESTS = {
    1: "1e22d4f16c07e33b46cd876e29ce0303860fda9e947647f621fb00391ba6c2e5",
    2: "2fb1ffdaac1871a56b2abffe333c8d11fcd7310a91f4e2be7fc89a796469b799",
    3: "d2550c53ffa180d7f6ded678dcb511f2d479c1c12fc22fbab14c24b2cf55d6cd",
    4: "2f9687fb3ae005636eb64de0a58e8aea1be4ea89b1799a38d79d31ef5998204a",
    5: "e5c7945c19b7f970e591bc7f064f9808724b277873cf4f529b48cab04a695664",
    6: "60f693ab96367e3370cf98c19c7b1c09159c6711a33ba52106da578d801e952e",
    7: "912222328f0ffc3f94e9fdbd395700fe43ca5745b66088586f297e441d6e6c47",
}


def test_size_one_single_trivial():
    algs = all_algebras(1)
    assert len(algs) == 1
    assert algs[0].size == 1


def test_size_two_forced_tables():
    algs = all_algebras(2)
    assert len(algs) == 1
    assert rl_isomorphic(algs[0], boolean_algebra(1))


def test_size_three_two_chains():
    algs = all_algebras(3)
    assert len(algs) == 2
    assert all(classify(A).is_chain for A in algs)


def test_known_counts():
    assert [len(all_algebras(n)) for n in range(1, 7)] == [1, 1, 2, 7, 26, 129]


@pytest.mark.parametrize("n", sorted(GENERATOR_DIGESTS))
def test_generator_output_pinned(n):
    """The generator's exact output (representatives, labelings, order) is
    the one recorded before the prunes and the order-minimizer canonical
    key (see GENERATOR_DIGESTS)."""
    algs = all_algebras(n, use_cache=False)
    text = repr([(A.labels, A.leq, A.odot) for A in algs])
    assert hashlib.sha256(text.encode()).hexdigest() == GENERATOR_DIGESTS[n]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_product_search_matches_unpruned_search(n):
    """The pruned search returns the plain backtracking's tables, in its
    order, on every lattice order."""
    for leq, join, meet in _lattice_orders(n):
        assert _products_on_lattice(leq, join, meet) == \
            products_on_lattice(leq, join, meet)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_slow_oracle_agrees(n):
    fast = {canonical_key(A) for A in all_algebras(n, use_cache=False)}
    slow = {canonical_key(A) for A in slow_enumerate(n)}
    assert fast == slow


def test_cap_enforced():
    with pytest.raises(SizeCapExceeded):
        enumerate_algebras(SIZE_CAP + 1)
    with pytest.raises(SizeCapExceeded):
        enumerate_algebras(0)


def test_deterministic_order():
    a = [canonical_key(A) for A in all_algebras(4, use_cache=False)]
    b = [canonical_key(A) for A in all_algebras(4, use_cache=False)]
    assert a == b == sorted(a)


def test_canonicalization_idempotent(corpus4):
    for A in corpus4:
        C = canonicalize(A)
        assert canonicalize(C) == C
        assert canonical_key(C) == canonical_key(A)


def test_canonical_key_is_isomorphism_invariant(E1):
    from rlx.iso import permute_relation, permute_table
    from rlx.core import validate

    perm = (0, 2, 1, 3, 4)  # swap the two atoms
    leq = permute_relation(E1.leq, perm)
    odot = permute_table(E1.odot, perm)
    B = validate(tuple(E1.labels[i] for i in range(5)), leq, odot)
    assert canonical_key(B) == canonical_key(E1)
    assert rl_isomorphic(B, E1)


def test_cache_round_trip(tmp_path, monkeypatch):
    monkeypatch.setenv("RLX_CORPUS_DIR", str(tmp_path))
    first = all_algebras(3)
    assert list(tmp_path.glob("*-n3.json"))
    second = all_algebras(3)
    assert first == second


def test_enumerated_algebras_are_valid(corpus5):
    from rlx.core import validate

    for A in corpus5:
        assert validate(A.labels, A.leq, A.odot, A.imp) == A


def test_invariants_match_per_element_scans(corpus5, corpus6):
    for A in corpus5 + corpus6:
        tables = (A.join, A.meet, A.odot, A.imp)
        assert _invariants(A.leq, tables) == [
            brute_invariant(A.leq, tables, x) for x in A.elements()]


def _same_tables(A, leq, odot):
    return A.leq == leq and A.odot == odot


def test_canonical_key_matches_brute_force(corpus5, corpus6):
    for A in corpus5 + corpus6:
        key, perm = brute_relabeling(A)
        assert canonical_key(A) == key
        C = canonicalize(A)
        assert _same_tables(C, permute_relation(A.leq, perm),
                            permute_table(A.odot, perm))


def _relabeled(A, perm):
    labels = tuple(f"x{i}" for i in range(A.size))
    return validate(labels, permute_relation(A.leq, perm), permute_table(A.odot, perm))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_canonical_key_of_random_relabeling(corpus5, data):
    A = data.draw(st.sampled_from(corpus5))
    # the key is invariant under relabelings that fix bot and top
    mids = [x for x in A.elements() if x not in (A.bot, A.top)]
    perm = list(range(A.size))
    for src, dst in zip(mids, data.draw(st.permutations(mids))):
        perm[src] = dst
    B = _relabeled(A, perm)
    assert canonical_key(B) == brute_canonical_key(B) == canonical_key(A)
    assert canonicalize(B) == canonicalize(A)
    # and agrees with brute force under any relabeling
    D = _relabeled(A, data.draw(st.permutations(range(A.size))))
    key, best = brute_relabeling(D)
    assert canonical_key(D) == key
    assert _same_tables(canonicalize(D), permute_relation(D.leq, best),
                        permute_table(D.odot, best))


def _edit_algebras(edit):
    """A cache file whose algebra list is edited and whose digest is kept."""
    def bad(good):
        data = json.loads(good)
        data["algebras"] = edit(data["algebras"])
        return json.dumps(data)
    return bad


BAD_CACHES = {
    "empty-list": lambda good: "[]",
    "empty-object": lambda good: "{}",
    "size-one-algebra": _edit_algebras(
        lambda algs: [{"labels": ["e0"], "leq": [[1]], "odot": [[0]]}]),
    "not-an-algebra": _edit_algebras(lambda algs: [1]),
    "missing-algebra": _edit_algebras(lambda algs: algs[:1]),
    "duplicated-algebra": _edit_algebras(lambda algs: [algs[0], algs[0]]),
    "no-digest": lambda good: json.dumps(json.loads(good)["algebras"]),
    "truncated": lambda good: good[:len(good) // 2],
}


@pytest.mark.parametrize("case", sorted(BAD_CACHES))
def test_bad_cache_is_regenerated(case, tmp_path, monkeypatch):
    monkeypatch.setenv("RLX_CORPUS_DIR", str(tmp_path))
    path = tmp_path / f"v{GENERATOR_VERSION}-n3.json"
    all_algebras(3)
    good = path.read_text()
    path.write_text(BAD_CACHES[case](good))
    algs = all_algebras(3)
    assert len(algs) == 2
    assert algs == all_algebras(3, use_cache=False)
    assert path.read_text() == good
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]

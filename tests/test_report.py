from hypothesis import given, settings, strategies as st

from rlx.core import validate
from rlx.iso import permute_relation, permute_table
from rlx.report import content_hash

from oracles import rl_isomorphic


def _relabeled(A, perm):
    labels = tuple(f"x{i}" for i in range(A.size))
    return validate(labels, permute_relation(A.leq, perm),
                    permute_table(A.odot, perm))


def test_content_hash_when_bot_and_top_move(E1):
    # bot goes to id 1 and top to id 0
    B = _relabeled(E1, (1, 2, 3, 4, 0))
    assert (B.bot, B.top) == (1, 0)
    assert rl_isomorphic(B, E1)
    assert content_hash(B) == content_hash(E1) == "b97999c0af256eab"


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_content_hash_of_random_relabeling(corpus5, data):
    A = data.draw(st.sampled_from(corpus5))
    B = _relabeled(A, data.draw(st.permutations(range(A.size))))
    assert content_hash(B) == content_hash(A)

import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

from rlx.core import validate
from rlx.iso import permute_relation, permute_table
from rlx.report import content_hash

from oracles import rl_isomorphic

SRC = Path(__file__).resolve().parent.parent / "src"


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


def test_no_module_loads_hashlib_until_a_report_hashes():
    """`hashlib` loads OpenSSL, megabytes of resident memory, so importing
    rlx must not load it; the first `content_hash` does.  A fresh
    interpreter, without `site`, imports every module of the package."""
    code = (
        "import importlib, sys\n"
        "from pathlib import Path\n"
        f"for path in sorted(Path({str(SRC / 'rlx')!r}).glob('*.py')):\n"
        "    importlib.import_module('rlx' if path.stem == '__init__'\n"
        "                            else 'rlx.' + path.stem)\n"
        "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))\n"
        "from rlx.fixtures import pentagon_godel\n"
        "from rlx.report import content_hash\n"
        "print(content_hash(pentagon_godel()))\n"
        "print('hashlib' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "b97999c0af256eab", "True"]

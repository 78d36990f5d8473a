import os
import subprocess
import sys
from importlib.util import find_spec
from pathlib import Path

from hypothesis import given, settings, strategies as st

from rlx.core import validate
from rlx.io import load_rlat
from rlx.iso import permute_relation, permute_table
from rlx.report import content_hash

from oracles import rl_isomorphic

SRC = Path(__file__).resolve().parent.parent / "src"
# `_sha2` from CPython 3.12 on, `_sha256` before; `content_hash` falls back
# to `hashlib`, and so loads OpenSSL, only where neither exists.
BUILTIN_SHA256 = any(find_spec(name) is not None
                     for name in ("_sha2", "_sha256"))


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
    rlx must not load it, and the first `content_hash` does not either
    where the interpreter has a built-in SHA-256 module; without one, it
    falls back to `hashlib`.  A fresh interpreter, without `site`, imports
    every module of the package."""
    fixture = SRC.parent / "fixtures" / "pentagon_godel.rlat"
    code = (
        "import importlib, sys\n"
        "from pathlib import Path\n"
        f"for path in sorted(Path({str(SRC / 'rlx')!r}).glob('*.py')):\n"
        "    importlib.import_module('rlx' if path.stem == '__init__'\n"
        "                            else 'rlx.' + path.stem)\n"
        "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))\n"
        "from rlx.io import load_rlat\n"
        "from rlx.report import content_hash\n"
        f"print(content_hash(load_rlat({str(fixture)!r})))\n"
        "print('hashlib' in sys.modules, '_hashlib' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    before, digest, after = proc.stdout.splitlines()
    assert (before, digest) == ("[]", "b97999c0af256eab")
    assert after == ("False False" if BUILTIN_SHA256 else "True True")


def test_cli_calls_load_no_argument_parser():
    """`rlx check-theorems --json` and `rlx analyze --json` read their
    arguments off the command table: neither loads argparse, nor gettext
    and locale, which argparse loads to translate its messages."""
    fixture = SRC.parent / "fixtures" / "b2.rlat"
    code = (
        "import contextlib, io, sys\n"
        "from rlx.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main([cmd, '--json', {str(fixture)!r}])\n"
        "             for cmd in ('check-theorems', 'analyze')]\n"
        "print(codes, sorted({'argparse', 'gettext', 'locale'}"
        " & set(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0] []\n"


def test_analyze_hashes_without_openssl(monkeypatch):
    """`rlx analyze --json` prints its digest without loading `_hashlib`,
    OpenSSL's binding, where the interpreter has a built-in SHA-256
    module, and the digest is the one of the `hashlib` fallback, taken
    here with both built-in modules made unimportable."""
    fixture = SRC.parent / "fixtures" / "b2.rlat"
    code = (
        "import contextlib, io, json, sys\n"
        "from rlx.cli import main\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    code = main(['analyze', '--json', {str(fixture)!r}])\n"
        "print(code, '_hashlib' in sys.modules)\n"
        "print(json.loads(out.getvalue())['hash'])\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    status, digest = proc.stdout.splitlines()
    assert status == ("0 False" if BUILTIN_SHA256 else "0 True")
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    assert content_hash(load_rlat(fixture)) == digest

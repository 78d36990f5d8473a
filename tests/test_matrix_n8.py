"""The north star's claim at size 8 as a gate: the theorem matrix over all
4,712 algebras of size 8 has no disagreement.

Size 8 is beyond `SIZE_CAP`, so the algebras come from `_generate(8)`
directly.  The rows are pinned by count and by SHA-256, as the size-7
rows are in test_matrix_n7.py.  Size 8 is where 420 filter signatures
share their filter records, Stone spaces and reticulations among 4,712
algebras.  The sweep runs in a fresh interpreter, with this one's -O,
so the memos it fills leave with it, and it hashes the rows as they
come instead of keeping them.
"""

import os
import subprocess
import sys
from pathlib import Path

import rlx

# SHA-256 of json.dumps([v.as_dict() for _, A in _generate(8) for v in
# theorem_checks(A)], sort_keys=True), and its row count
MATRIX_N8_SHA256 = "d7de2df75dd7d9e7488c03660c206cfa77a599c0bcb636344c168f7c5d7d3a57"
MATRIX_N8_ROWS = 349_376

# the bytes of json.dumps(rows, sort_keys=True), fed to the hash one
# algebra's rows at a time: the list's items joined by ", " inside "[]"
SWEEP = """
import hashlib, json
from rlx.enumeration import _generate
from rlx.theorems import theorem_checks
digest, rows, bad, sep = hashlib.sha256(b"["), 0, 0, ""
for _, A in _generate(8):
    verdicts = theorem_checks(A)
    text = json.dumps([v.as_dict() for v in verdicts], sort_keys=True)
    digest.update((sep + text[1:-1]).encode())
    rows += len(verdicts)
    bad += sum(not v.agree for v in verdicts)
    sep = ", "
digest.update(b"]")
print(rows, bad, digest.hexdigest())
"""


def test_size_8_matrix_has_no_disagreement_and_is_pinned():
    src = str(Path(rlx.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + os.pathsep + path if path else src)
    opt = ["-O"] * sys.flags.optimize
    out = subprocess.run([sys.executable, *opt, "-c", SWEEP], env=env,
                         capture_output=True, text=True, check=True)
    rows, bad, digest = out.stdout.split()
    assert (int(rows), int(bad)) == (MATRIX_N8_ROWS, 0)
    assert digest == MATRIX_N8_SHA256

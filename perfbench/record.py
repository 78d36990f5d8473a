"""Record the benchmark's expectations from the current checkout.

    python3 perfbench/record.py

Writes ``perfbench/data/n7.json`` (the 723 size-7 algebras with every
theorem-matrix row) and ``perfbench/data/expected.json`` (per-size counts
and reference canonical-form digests, and exit code plus stdout SHA-256 of
each CLI call).  Run once, at the commit whose behaviour is the reference;
later commits are gated against what it wrote.  Takes a few minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from run import CLI_COMMANDS, DATA, MAX_SIZE, corpus_digest, sha256

ROOT = Path.cwd()
WORK = ROOT / ".perfbench-work" / "record"


def main():
    WORK.mkdir(parents=True)
    try:
        os.environ["RLX_CORPUS_DIR"] = str(WORK / "corpus")
        sys.path.insert(0, str(ROOT / "src"))
        from rlx.enumeration import all_algebras
        from rlx.theorems import theorem_checks
        from child import encode_algebra

        enumerate_expect = {}
        for n in range(1, MAX_SIZE + 1):
            algebras = [encode_algebra(A) for A in all_algebras(n)]
            enumerate_expect[str(n)] = {"count": len(algebras),
                                        "digest": corpus_digest(algebras, n)}
            print(f"n={n}: {len(algebras)} algebras", flush=True)

        top = all_algebras(MAX_SIZE)
        theorem_ids, index, snapshot = [], {}, []
        for A in top:
            rows = []
            for v in theorem_checks(A):
                if v.theorem_id not in index:
                    index[v.theorem_id] = len(theorem_ids)
                    theorem_ids.append(v.theorem_id)
                rows.append(index[v.theorem_id] * 4 + 2 * bool(v.lhs) + bool(v.rhs))
            leq, odot = encode_algebra(A)
            snapshot.append({"leq": leq, "odot": odot, "rows": rows})
        print(f"matrix: {len(snapshot)} algebras, {len(theorem_ids)} theorem ids", flush=True)

        env = {"PATH": os.environ.get("PATH", os.defpath), "HOME": str(WORK),
               "PYTHONPATH": "src", "PYTHONHASHSEED": "0", "PYTHONNOUSERSITE": "1",
               "RLX_CORPUS_DIR": str(WORK / "corpus")}
        cli_expect = {}
        for path in sorted(ROOT.glob("fixtures/*.rlat")):
            fixture = path.relative_to(ROOT).as_posix()
            cli_expect[fixture] = {}
            for cmd in CLI_COMMANDS:
                proc = subprocess.run([sys.executable, "-m", "rlx.cli", cmd, "--json", fixture],
                                      cwd=ROOT, env=env, capture_output=True, check=False)
                cli_expect[fixture][cmd] = [proc.returncode, sha256(proc.stdout)]
        print(f"cli: {len(cli_expect)} fixtures", flush=True)

        DATA.mkdir(exist_ok=True)
        with open(DATA / "n7.json", "w", encoding="utf-8") as fh:
            json.dump({"labels": list(top[0].labels), "theorem_ids": theorem_ids,
                       "algebras": snapshot}, fh, separators=(",", ":"))
            fh.write("\n")
        with open(DATA / "expected.json", "w", encoding="utf-8") as fh:
            json.dump({"enumerate": enumerate_expect, "cli": cli_expect}, fh, indent=1,
                      sort_keys=True)
            fh.write("\n")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    main()

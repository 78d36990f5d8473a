import hashlib
import itertools
import json
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import rlx.cli
import rlx.enumeration
import rlx.theorems
from rlx.cli import COMMANDS, main, parse_args
from rlx.enumeration import _generate, all_algebras
from rlx.formulas import (
    MAX_DEPTH,
    blp_formula,
    format_formula,
    ilp_formula,
    rlp_formula,
)
from rlx.io import load_rlat, parse_rlat, print_blat, save_rlat
from rlx.lifting import lp_report
from rlx.reticulation import build_reticulation
from rlx.theorems import ALL_CHECKS, TheoremVerdict, theorem_checks
from test_invariance import permuted
from test_memo_inventory import LRU_CACHES

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys):
    code, out, _ = run_cli(capsys, "validate", str(FIXTURES / "pentagon_godel.rlat"))
    assert code == 0
    assert "valid residuated lattice with 5 elements" in out


def test_validate_missing_file(capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(capsys, "validate", str(FIXTURES / "nope.rlat"))
    assert err.value.code == 1


def test_validate_broken_file(tmp_path, capsys):
    bad = tmp_path / "bad.rlat"
    bad.write_text("elements: 0 1\norder: 0<1\nodot:\n0 0\n0 0\nimp: derive\n")
    with pytest.raises(SystemExit) as err:
        run_cli(capsys, "validate", str(bad))
    assert err.value.code == 1


def test_analyze_pentagon(capsys):
    code, out, _ = run_cli(capsys, "analyze", str(FIXTURES / "pentagon_godel.rlat"))
    assert code == 0
    assert "BLP=False" in out and "ILP=True" in out
    assert "{c,1}" in out and "counterexample: a" in out
    assert "gelfand: False" in out


def test_analyze_json_matches_human_verdicts(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--json",
                           str(FIXTURES / "pentagon_stacked.rlat"))
    assert code == 0
    payload = json.loads(out)
    assert payload["lifting"] == {"blp": False, "ilp": True, "rlp": True}
    code, human, _ = run_cli(capsys, "analyze", str(FIXTURES / "pentagon_stacked.rlat"))
    assert f"BLP={payload['lifting']['blp']}" in human
    assert f"ILP={payload['lifting']['ilp']}" in human
    assert payload["spectra"]["max_points"] == ["{a,b,1}", "{a,c,d,1}"]


def test_lp_with_filter(capsys):
    code, out, _ = run_cli(capsys, "lp", str(FIXTURES / "pentagon_godel.rlat"),
                           "--blp", "--filter", "c,1")
    assert code == 0
    assert "False" in out and "counterexample: a" in out


def test_lp_with_filter_json_matches_the_full_report(capsys):
    path = str(FIXTURES / "pentagon_godel.rlat")
    code, out, _ = run_cli(capsys, "lp", path, "--ilp", "--filter", "c,1",
                           "--json")
    assert code == 0
    payload = json.loads(out)
    _, full, _ = run_cli(capsys, "lp", path, "--ilp", "--json")
    row = next(r for r in json.loads(full)["filters"] if r["filter"] == "{c,1}")
    assert payload == {"formula": "v^2 = v", "filter": "{c,1}",
                       "holds": True, "witness": row["witness"]}


def test_lp_with_unknown_filter_label(capsys):
    code, out, err = run_cli(capsys, "lp", str(FIXTURES / "pentagon_godel.rlat"),
                             "--blp", "--filter", "x,1")
    assert (code, out) == (1, "")
    assert err.startswith("error: filter:") and "'x'" in err


def test_lp_formula_global(capsys):
    code, out, _ = run_cli(capsys, "lp", str(FIXTURES / "pentagon_stacked.rlat"),
                           "--formula", "v^2 = v")
    assert code == 0
    assert "global=True" in out


def test_lp_json(capsys):
    code, out, _ = run_cli(capsys, "lp", str(FIXTURES / "pentagon_godel.rlat"),
                           "--blp", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["global"] is False
    failing = [row for row in payload["filters"] if not row["holds"]]
    assert len(failing) == 1 and failing[0]["filter"] == "{c,1}"


@pytest.mark.parametrize("name, formula", [("blp", blp_formula),
                                           ("ilp", ilp_formula),
                                           ("rlp", rlp_formula)])
def test_lp_named_flag_reads_the_matrix_formula(capsys, name, formula):
    """`rlx lp --blp|--ilp|--rlp` checks the formula the theorem matrix
    uses, with the verdict of the library's lp_report."""
    path = FIXTURES / "pentagon_godel.rlat"
    code, out, _ = run_cli(capsys, "lp", str(path), f"--{name}", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["formula"] == format_formula(formula())
    assert payload["global"] == lp_report(load_rlat(path), formula()).global_holds


def test_lp_requires_exactly_one_formula(capsys):
    code, _, err = run_cli(capsys, "lp", str(FIXTURES / "b2.rlat"))
    assert code == 1
    code, _, err = run_cli(capsys, "lp", str(FIXTURES / "b2.rlat"),
                           "--blp", "--ilp")
    assert code == 1


def test_lp_bad_formula(capsys):
    code, _, err = run_cli(capsys, "lp", str(FIXTURES / "b2.rlat"),
                           "--formula", "v | = 1")
    assert code == 1
    assert "formula" in err


def test_lp_formula_nested_too_deep(capsys):
    """A formula nested past the parser's bound is one error line, not a
    RecursionError traceback."""
    for text in ("(" * 400 + "v" + ")" * 400 + " = v", "!" * 600 + "v = v",
                 "v" + " -> v" * 600 + " = 1"):
        code, out, err = run_cli(capsys, "lp", str(FIXTURES / "b2.rlat"),
                                 "--formula", text)
        assert (code, out) == (1, "")
        assert err.startswith("error: formula: nested deeper than")
        assert err.count("\n") == 1


def test_lp_formula_chain_too_deep(capsys):
    """A left-grouped chain of 500 operators opens no level, but its term
    is too deep: one error line, not a RecursionError traceback."""
    for link, tail in ((" | v", " = 1"), (" & v", " = 1"), (" * v", " = 1"),
                       (" <-> v", " = 1"), ("^1", " = v")):
        code, out, err = run_cli(capsys, "lp", str(FIXTURES / "b2.rlat"),
                                 "--formula", "v" + link * 500 + tail)
        assert (code, out) == (1, "")
        assert err.startswith("error: formula: term deeper than")
        assert err.count("\n") == 1


def test_lp_formula_at_the_nesting_bound(capsys):
    """At the bound a formula is evaluated: in the Boolean algebra B2 an
    even number of negations gives back v, so the formula holds globally."""
    text = "!" * MAX_DEPTH + "v = v"
    code, out, err = run_cli(capsys, "lp", str(FIXTURES / "b2.rlat"),
                             "--formula", text, "--json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["formula"] == text and payload["global"] is True


def test_check_theorems_exit_zero(capsys):
    for name in ("trivial", "b2", "godel3", "luk4", "pentagon_godel", "pentagon_stacked"):
        code, out, _ = run_cli(capsys, "check-theorems",
                               str(FIXTURES / f"{name}.rlat"))
        assert code == 0
        assert "0 disagreements" in out


def test_check_theorems_deterministic(capsys):
    path = str(FIXTURES / "pentagon_stacked.rlat")
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "check-theorems", path, "--json")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_enumerate_command(tmp_path, capsys):
    out_dir = tmp_path / "corpus"
    code, out, _ = run_cli(capsys, "enumerate", "3", str(out_dir))
    assert code == 0
    files = sorted(out_dir.glob("*.rlat"))
    assert len(files) == 2
    for f in files:
        load_rlat(f)


def test_enumerate_wrong_count(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(rlx.enumeration, "_generate", lambda n: _generate(n)[1:])
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "enumerate", "4", str(out_dir))
    assert (code, out) == (1, "")
    assert err.startswith("error: size 4: enumerated 6 algebras, expected 7")
    assert list(out_dir.glob("*.rlat")) == []


def test_enumeration_writes_nothing_else(tmp_path, capsys, monkeypatch):
    """Nothing is cached between runs: neither the library nor
    ``rlx enumerate N DIR`` writes anywhere but DIR, HOME included."""
    monkeypatch.setenv("HOME", str(tmp_path))
    for name in [key for key in os.environ if key.startswith("RLX_")]:
        monkeypatch.delenv(name)
    for n in range(1, 5):
        all_algebras(n)
    code, _, _ = run_cli(capsys, "enumerate", "3", str(tmp_path / "out"))
    assert code == 0
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_enumerate_size_zero(tmp_path, capsys):
    code, out, err = run_cli(capsys, "enumerate", "0", str(tmp_path / "out"))
    assert (code, out) == (1, "")
    assert err.startswith("error: size 0")
    assert not (tmp_path / "out").exists()


def test_reticulate_verify_failing_property(capsys, monkeypatch):
    import rlx.cli as cli

    monkeypatch.setattr(cli, "verify_retic_properties",
                        lambda R: {1: True, 2: False})
    code, out, _ = run_cli(capsys, "reticulate", str(FIXTURES / "luk4.rlat"),
                           "--verify")
    assert code == 2
    assert "property 1: ok\nproperty 2: FAIL\n" in out


def test_reticulate_and_verify(tmp_path, capsys):
    out_file = tmp_path / "ret.blat"
    code, out, _ = run_cli(capsys, "reticulate", str(FIXTURES / "luk4.rlat"),
                           "--out", str(out_file), "--verify")
    assert code == 0
    assert out_file.exists()
    L = oracles.parse_blat(out_file.read_text(encoding="utf-8"))
    assert L.size == 2  # nilpotent chain collapses below the top
    assert "property 8: ok" in out


# SHA-256 of the stdout of `rlx reticulate F`, recorded at commit b0353cb,
# before distributive lattices were built as Heyting algebras
RETICULATE_SHA256 = {
    "trivial": "0ed207da289db9d27ce2371afe9141888ac532804ef07d668e7154c6d285ad19",
    "b2": "ac78f81a68b317353109a66559bb710f5d95baccf2c4170efbefabf8be65b368",
    "godel3": "9702795df33c894b235c7a3bc0bcf9d4448e253a630fa90eb7a76201990d0047",
    "luk4": "ac78f81a68b317353109a66559bb710f5d95baccf2c4170efbefabf8be65b368",
    "pentagon_godel": "039bce9b031fe4c2436f4138f51daa7c4d629b74be989ee88887526d9b2adfc8",
    "pentagon_stacked": "8444c7d9a833aecf6be42ecf7a4c1b71f6fc929676ed48cfa81c8ca0287f38fb",
}


@pytest.mark.parametrize("name", sorted(RETICULATE_SHA256))
def test_reticulate_output_pinned(capsys, name):
    path = FIXTURES / f"{name}.rlat"
    code, out, _ = run_cli(capsys, "reticulate", str(path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == RETICULATE_SHA256[name]
    L = build_reticulation(load_rlat(path)).lattice
    assert oracles.parse_blat(print_blat(L)) == L


# SHA-256 of the stdout of `rlx quotient F --filter <top>`, recorded at
# commit d32a329, before A/{1} became A itself
TRIVIAL_QUOTIENT_SHA256 = {
    "b2": "54fa47914916cd40ab979b45a9abb9fa263ad6b91f9ff3cd39b9d6f90daa066c",
    "godel3": "e814af960b89528f3cf51789bd8adff170f232865b94607ca243390ae786a2ff",
    "luk4": "7c2e37b5f074eac27f8d0fc28a4317fffb22d147498bf9680213a457d92a8a95",
    "pentagon_godel": "1c8fa38cc59c559e7c9b1da9be2844516097816bdd91bc4f2d1b67de9ef43998",
    "pentagon_stacked": "69590ada746225a22f4562544ea61d86dad1fb2f9afb2a9f180bebb6c66e8a06",
    "trivial": "a1ee5823e7304df7088f17ff6c8ace551db1319f833726b2f9907a322d8d9c4a",
}


@pytest.mark.parametrize("name", sorted(TRIVIAL_QUOTIENT_SHA256))
def test_trivial_quotient_output_pinned(capsys, name):
    """A/{1} is A itself, yet `rlx quotient` prints every class as x/F."""
    A = load_rlat(FIXTURES / f"{name}.rlat")
    code, out, err = run_cli(capsys, "quotient", str(FIXTURES / f"{name}.rlat"),
                             "--filter", A.labels[A.top])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == TRIVIAL_QUOTIENT_SHA256[name]
    assert out.startswith("elements: " + " ".join(f"{x}/F" for x in A.labels))


@pytest.mark.parametrize("path", [p for p in sorted(FIXTURES.glob("*.rlat"))
                                  if load_rlat(p).size > 1],
                         ids=lambda p: p.stem)
def test_permuted_fixture_gives_the_same_rows_and_hash(capsys, tmp_path, path):
    """A copy of the fixture file with its rows and columns reordered, bot
    and top moved, gives the same theorem rows and content hash.  The copy
    lives in tmp_path: perfbench/record.py globs fixtures/."""
    A = load_rlat(path)
    B = permuted(A, random.Random(path.stem))
    assert (B.bot, B.top) != (A.bot, A.top)
    copy = tmp_path / path.name
    save_rlat(B, copy)
    assert copy.read_text() != path.read_text()

    def rows(p):
        code, out, _ = run_cli(capsys, "check-theorems", "--json", str(p))
        assert code == 0
        return [(r["theorem_id"], r["lhs"], r["rhs"], r["agree"])
                for r in json.loads(out)]

    def content_hash(p):
        code, out, _ = run_cli(capsys, "analyze", "--json", str(p))
        assert code == 0
        return json.loads(out)["hash"]

    assert rows(copy) == rows(path)
    assert content_hash(copy) == content_hash(path)


def test_quotient_round_trip(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "quotient", str(FIXTURES / "pentagon_stacked.rlat"),
                           "--filter", "a,1")
    assert code == 0
    Q = parse_rlat(out)
    assert Q.size == 4
    # re-analyzing the emitted file matches the in-memory quotient analysis
    path = tmp_path / "q.rlat"
    path.write_text(out)
    code, report_out, _ = run_cli(capsys, "analyze", "--json", str(path))
    payload = json.loads(report_out)
    assert payload["classes"]["boolean_center"] == payload["elements"]

    from rlx.filters import principal_filter, quotient as quot
    from rlx.report import analysis_report

    E2 = load_rlat(FIXTURES / "pentagon_stacked.rlat")
    in_memory = analysis_report(quot(E2, principal_filter(E2, 1)).quotient,
                                include_theorems=False)
    on_disk = analysis_report(Q, include_theorems=False)
    assert in_memory["lifting"] == on_disk["lifting"]
    assert in_memory["hash"] == on_disk["hash"]


def test_cli_entry_point_subprocess():
    # byte-identical output across runs, through the real console script
    cmd = [sys.executable, "-m", "rlx.cli", "check-theorems",
           str(FIXTURES / "pentagon_godel.rlat")]
    a = subprocess.run(cmd, capture_output=True, text=True)
    b = subprocess.run(cmd, capture_output=True, text=True)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.rlat")),
                         ids=lambda p: p.stem)
def test_check_theorems_same_under_optimize(path):
    # python -O strips every assert: the matrix must print the same rows
    # and exit the same without them
    cmd = ["-m", "rlx.cli", "check-theorems", "--json", str(path)]
    plain, optimized = [
        subprocess.run([sys.executable, *opt, *cmd], capture_output=True, timeout=120)
        for opt in ([], ["-O"])]
    assert plain.stdout
    assert (optimized.stdout, optimized.returncode) == (plain.stdout, plain.returncode)


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["plain", "O"])
def test_lp_unsatisfiable_formula(optimize):
    """No element of 2 satisfies v = !v, so the improper filter does not
    lift it while the trivial one does; the verdict is printed, with or
    without the library's asserts."""
    proc = subprocess.run(
        [sys.executable, *optimize, "-m", "rlx.cli", "lp",
         str(FIXTURES / "b2.rlat"), "--formula", "v = !v"],
        capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == ("v = !v: global=False\n"
                           "  {1}: True\n"
                           "  {0,1}: False  counterexample: 0\n")


def test_quotient_bad_filter(capsys):
    code, _, err = run_cli(capsys, "quotient", str(FIXTURES / "pentagon_stacked.rlat"),
                           "--filter", "b,c")
    assert code == 1
    assert "filter" in err


def test_check_theorems_disagreement_exit_code(capsys, monkeypatch):
    # exit code 2 is reserved for a matrix disagreement (an implementation
    # bug); force one through a stubbed check to pin the plumbing
    from rlx.theorems import TheoremVerdict
    import rlx.cli as cli

    def fake_checks(A):
        return [TheoremVerdict("stub", True, False, False, None)]

    monkeypatch.setattr(cli, "theorem_checks", fake_checks)
    code, out, _ = run_cli(capsys, "check-theorems",
                           str(FIXTURES / "b2.rlat"))
    assert code == 2
    assert "1 disagreements" in out


@pytest.mark.parametrize("flag", ["--topology", "--theorems"])
@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.rlat")),
                         ids=lambda p: p.stem)
def test_analyze_theorems_match_check_theorems(capsys, path, flag):
    code, out, _ = run_cli(capsys, "analyze", "--json", flag, str(path))
    assert code == 0
    report = json.loads(out)
    _, matrix, _ = run_cli(capsys, "check-theorems", "--json", str(path))
    assert report["theorems"] == json.loads(matrix)
    assert report["theorem_disagreements"] == 0


def test_analyze_topology_disagreement_exit_code(capsys, monkeypatch):
    from rlx.theorems import TheoremVerdict
    import rlx.report as report

    def fake_checks(A):
        return [TheoremVerdict("stub", True, False, False, None)]

    monkeypatch.setattr(report, "theorem_checks", fake_checks)
    code, out, _ = run_cli(capsys, "analyze", "--topology",
                           str(FIXTURES / "b2.rlat"))
    assert code == 2
    assert "theorem matrix: 1 checks, 1 disagreements" in out
    assert "!! stub: lhs=True rhs=False witness=None" in out


def _stats_table(err, memos=None):
    """(family, rows, ms) per line of the --stats family table on stderr.
    The memo table after it holds (memo, hits, misses) for every memo of
    the loaded rlx modules; `memos`, if given, receives those rows."""
    lines = [line.split() for line in err.splitlines()]
    assert lines[0] == ["family", "rows", "ms"]
    end = lines.index(["memo", "hits", "misses"])
    if memos is not None:
        memos.extend((name, int(hits), int(misses))
                     for name, hits, misses in lines[end + 1:])
    return [(name, int(rows), float(ms)) for name, rows, ms in lines[1:end]]


def test_check_theorems_stats_times_each_row_family(capsys, monkeypatch):
    """--stats prints the rows and milliseconds of each row family, and
    their total, then the hits and misses of every memo, to stderr; stdout
    and the exit code are those of the call without it, on every fixture,
    plain and --json, and on a matrix with a disagreeing row."""
    loaded = {name for name in LRU_CACHES
              if f"rlx.{name.split('.')[0]}" in sys.modules}
    for path in sorted(FIXTURES.glob("*.rlat")):
        rows = len(theorem_checks(load_rlat(path)))
        for extra in ([], ["--json"]):
            plain = run_cli(capsys, "check-theorems", *extra, str(path))
            code, out, err = run_cli(capsys, "check-theorems", *extra,
                                     "--stats", str(path))
            assert (code, out, plain[2]) == (plain[0], plain[1], "")
            memos = []
            table = _stats_table(err, memos)
            assert {name for name, _, _ in memos} == loaded
            counts = {name: (hits, misses) for name, hits, misses in memos}
            assert counts["core.shared_set"][1] >= 1
            assert counts["theorems._filter_side"][1] >= 1
            assert all(hits >= 0 and misses >= 0 for hits, misses
                       in counts.values())
            assert [name for name, _, _ in table] == [
                fn.__name__ for fn in ALL_CHECKS] + ["total"]
            assert table[-1][1] == sum(n for _, n, _ in table[:-1]) == rows
            assert all(ms >= 0 for _, _, ms in table)

    def disagreeing(A):
        return [TheoremVerdict("stub", True, False, False, None)]

    for module in (rlx.theorems, rlx.cli):
        monkeypatch.setattr(module, "ALL_CHECKS", (disagreeing,))
    path = str(FIXTURES / "b2.rlat")
    plain = run_cli(capsys, "check-theorems", path)
    code, out, err = run_cli(capsys, "check-theorems", "--stats", path)
    assert (code, out) == plain[:2] and code == 2
    assert [row[:2] for row in _stats_table(err)] == [("disagreeing", 1),
                                                      ("total", 1)]


# Every example of the README's CLI section, with and without its
# optional flags
README_EXAMPLES = [
    "validate fixtures/pentagon_godel.rlat",
    "analyze fixtures/pentagon_stacked.rlat",
    "analyze fixtures/pentagon_stacked.rlat --json --topology",
    'lp fixtures/pentagon_godel.rlat --blp --filter "c,1"',
    "lp fixtures/pentagon_stacked.rlat --formula 'v^2 = v' --json",
    "check-theorems fixtures/luk4.rlat",
    "check-theorems fixtures/luk4.rlat --json",
    "enumerate 5 out/corpus5",
    "reticulate fixtures/luk4.rlat --out luk4.blat --verify",
    'quotient fixtures/pentagon_stacked.rlat --filter "a,1"',
]


def _well_formed(command):
    """Argument lists of `command`: every subset of its flags and each
    valued option absent, as `--opt value` or as `--opt=value`, with the
    positionals before, between and after them."""
    positionals, flags, options = (names.split() for names in COMMANDS[command][1:4])
    values = {"file": "f.rlat", "size": "5", "out_dir": "out"}
    spellings = []
    for o in options:
        ways = [[f"--{o.rstrip('!')}", "v^2 = v"], [f"--{o.rstrip('!')}=v^2 = v"]]
        spellings.append(ways if o.endswith("!") else [[], *ways])
    for k in range(len(flags) + 1):
        for chosen in itertools.combinations(flags, k):
            for valued in itertools.product(*spellings):
                groups = [[f"--{f}"] for f in chosen] + [g for g in valued if g]
                for cut in itertools.combinations_with_replacement(
                        range(len(groups) + 1), len(positionals)):
                    argv = [command]
                    for i, group in enumerate(groups + [[]]):
                        argv += [values[name] for name, at
                                 in zip(positionals, cut) if at == i]
                        argv += group
                    yield argv


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_parse_args_matches_argparse(command):
    """On well-formed arguments the command table gives the namespace the
    argparse parser gave, attribute for attribute."""
    reference = oracles.argparse_parser()
    cases = [*_well_formed(command), *(shlex.split(text) for text in README_EXAMPLES
                                       if text.startswith(command + " "))]
    for argv in cases:
        assert vars(parse_args(argv)) == vars(reference.parse_args(argv)), argv


@pytest.mark.parametrize("argv", [
    [], ["bogus"], ["check-theorems"], ["enumerate", "x", "y"],
    ["enumerate", "3"], ["validate", "a.rlat", "b.rlat"],
    ["check-theorems", "b2.rlat", "--bogus"], ["lp", "b2.rlat", "--filter"],
    ["lp", "b2.rlat", "--top"], ["quotient", "b2.rlat"],
    ["analyze", "--json=yes", "b2.rlat"],
], ids=lambda argv: " ".join(argv) or "no-command")
def test_usage_error_exits_1(capsys, argv):
    """A usage error prints the usage and the error to stderr and exits 1:
    exit 2 stays reserved for a theorem disagreement."""
    with pytest.raises(SystemExit) as err:
        main(argv)
    out, err_text = capsys.readouterr()
    assert (err.value.code, out) == (1, "")
    assert err_text.startswith("usage:") and "rlx: error: " in err_text


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["lp", "-h"],
                                  ["quotient", "b2.rlat", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    out, err_text = capsys.readouterr()
    assert (err.value.code, err_text) == (0, "")
    assert out.startswith("usage: rlx")

"""rlx benchmark runner (stdlib only).

Run from the root of a checkout:

    python3 perfbench/run.py --workload matrix-n7 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Workloads (why each exists is in BENCHMARK.json):

* ``enumerate-cold``  a fresh interpreter calls ``all_algebras(n)`` for
  n = 1..7 against an empty ``RLX_CORPUS_DIR`` (cache write included);
* ``matrix-n7``       a fresh interpreter calls ``theorem_checks`` on a
  seed-chosen stratified sample of the 723 size-7 algebras, read from
  ``data/n7.json`` and built with ``rlx.core.validate`` during set-up;
* ``cli-fixtures``    closed loop, one client: ``python -m rlx.cli
  check-theorems --json F`` and ``analyze --json F`` for every recorded
  fixture, one fresh process per call.

Every output is checked against expectations recorded at the seed commit
(``data/``, written by ``record.py``); a mismatch is a failed operation.
Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the ``end_to_end`` ones of BENCHMARK.json,
with ``--trace 1`` the ``per_layer`` ones.

Load comes from this one process, which runs at most one child at a time
(the reference host has 2 cores) and pins itself and its children to one
CPU.  Times are scaled to a reference host speed (see REFERENCE_S), and
printed unscaled as well.  Every child gets a pinned environment:
``PYTHONPATH=src``, ``PYTHONHASHSEED=0``, ``HOME`` and ``RLX_CORPUS_DIR``
inside the run's work dir (so ``~/.cache/rlx-corpus`` is never read), and
bytecode precompiled during set-up into a benchmark-owned
``PYTHONPYCACHEPREFIX``.  Everything is written under
``.perfbench-work/`` in the checkout and removed at exit.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from child import REFERENCE_EVERY, reference_job

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
DATA = HERE / "data"

WORKLOADS = ("enumerate-cold", "matrix-n7", "cli-fixtures")
CLI_COMMANDS = ("check-theorems", "analyze")
MAX_SIZE = 7
SETUP_REPS = 5
MATRIX_STRATA = 48
# Seconds one repetition (enumerate-cold), round of one algebra per stratum
# (matrix-n7) or round over every fixture and command (cli-fixtures) takes at
# the seed commit on a 2-core host under continuous load.  ``--seconds`` is
# turned into a fixed count of repetitions or rounds, so a run's work
# depends only on ``--seed`` and ``--seconds``, never on host speed.
ROUND_S = {"enumerate-cold": 20.0, "matrix-n7": 5.5, "cli-fixtures": 1.7}
# Every child is killed once the run has lasted this long.
RUN_BUDGET_S = 170.0
INTERPRETER_PROBES = 5
# Host speed moves by up to 40 % within seconds to minutes on small shared
# machines.  So ``reference_job()`` is timed next to the work, on the same
# CPU (around every set-up and CLI round, every REFERENCE_EVERY matrix
# algebras, every SAMPLE_PERIOD_S of an enumeration), and each timed sample
# is multiplied by REFERENCE_S over the mean reference time of its stretch
# of work: the figures read as if the host ran the job in exactly 0.1 s.
REFERENCE_S = 0.1
# Per-layer metrics that are not tracer counters; each is measured by one
# workload (``trace.overhead_frac`` by all) and reads 0 on the others.
WORKLOAD_OWNED = ("enumeration.unique", "theorems.rows", "cli.interpreter_ms",
                  "cli.import_ms", "trace.overhead_frac")


class BenchError(Exception):
    """The benchmark cannot produce a result."""


class Run:
    """State of one benchmark run: where it works and what it expects."""

    def __init__(self, root, workload, seed, seconds, trace):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = root / ".perfbench-work" / f"run-{os.getpid()}"
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.prefix = None
        self.max_size = MAX_SIZE
        self.expected = load_json(DATA / "expected.json")
        self.snapshot = load_json(DATA / "n7.json") if workload == "matrix-n7" else None
        self.inputs = None
        self.last_stderr = ""
        self._jobs = 0

    def rounds(self):
        """Rounds to measure; a traced run measures each round twice."""
        rounds = max(1, int(self.seconds / ROUND_S[self.workload]))
        return max(1, rounds // 2) if self.trace else rounds

    def fresh_dir(self, name):
        self._jobs += 1
        path = self.work / f"{name}-{self._jobs}"
        path.mkdir(parents=True)
        return path

    def env(self, write_bytecode=False, corpus_dir=None):
        env = {
            "PATH": os.environ.get("PATH", os.defpath),
            "HOME": str(self.work),
            "PYTHONPATH": "src",
            "PYTHONHASHSEED": "0",
            "PYTHONNOUSERSITE": "1",
            "PYTHONPYCACHEPREFIX": str(self.prefix),
            "RLX_CORPUS_DIR": str(corpus_dir or self.work / "corpus-unused"),
        }
        if not write_bytecode:
            env["PYTHONDONTWRITEBYTECODE"] = "1"
        return env

    def spawn(self, argv, env):
        """Run one child to completion: (exit code, stdout, wall s, peak RSS MB).

        Wall time runs from just before spawn to reaping; peak RSS comes
        from the child's own rusage.
        """
        out_path = self.work / "child.stdout"
        err_path = self.work / "child.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.last_stderr = err_path.read_text(encoding="utf-8", errors="replace")
        return proc.returncode, out_path.read_bytes(), wall, usage.ru_maxrss / 1024.0

    def job(self, spec, env):
        """Run ``child.py`` on one job spec; returns (result, wall s, peak RSS MB)."""
        out = self.work / "job.json"
        spec = dict(spec, out=str(out))
        code, _, wall, rss = self.spawn([sys.executable, str(CHILD), json.dumps(spec)], env)
        if code != 0:
            raise BenchError(f"child job {spec['job']} exited {code}:\n{self.last_stderr[-2000:]}")
        return load_json(out), wall, rss


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def sha256(data):
    return hashlib.sha256(data).hexdigest()


# --- output checks --------------------------------------------------------

def linear_extensions(leq, n):
    """Every ordering of 0..n-1 that lists each element after those below it."""
    below = [[j for j in range(n) if j != i and leq[j * n + i] == "1"] for i in range(n)]
    out = []

    def extend(order, placed):
        if len(order) == n:
            out.append(tuple(order))
            return
        for x in range(n):
            if x not in placed and all(y in placed for y in below[x]):
                order.append(x)
                placed.add(x)
                extend(order, placed)
                placed.discard(x)
                order.pop()

    extend([], set())
    return out


def canonical_form(leq, odot, n):
    """Reference canonical form of an algebra given as flat leq/odot strings.

    The least relabeled (leq, odot) encoding over all relabelings that are
    linear extensions of the order.  An isomorphism maps linear extensions
    to linear extensions, so this is a complete invariant; it shares no code
    with ``rlx.iso``, so replacing ``canonical_key`` cannot weaken the gate.
    """
    best = None
    for order in linear_extensions(leq, n):
        new = {old: k for k, old in enumerate(order)}
        enc = ("".join(leq[a * n + b] for a in order for b in order) + ":"
               + "".join(str(new[int(odot[a * n + b])]) for a in order for b in order))
        if best is None or enc < best:
            best = enc
    return best


def corpus_digest(algebras, n):
    """Digest of the sorted reference canonical forms of one size's output."""
    forms = sorted(canonical_form(leq, odot, n) for leq, odot in algebras)
    return sha256("\n".join(forms).encode())


def matrix_mismatch(expected_rows, theorem_ids, got_rows):
    """Why a theorem_checks result fails its gate, or None.

    Every recorded (theorem_id, lhs, rhs) row must still be present with the
    same values and no row may disagree; new rows are allowed.
    """
    bad = [r[0] for r in got_rows if not r[3]]
    if bad:
        return f"disagreement in {bad[0]}"
    missing = collections.Counter(
        (theorem_ids[code >> 2], bool(code & 2), bool(code & 1)) for code in expected_rows)
    missing.subtract(collections.Counter((r[0], r[1], r[2]) for r in got_rows))
    lost = [row for row, count in missing.items() if count > 0]
    return f"recorded row missing or changed: {lost[0]}" if lost else None


# --- set-up ----------------------------------------------------------------

def matrix_order(snapshot, seed, rounds):
    """Seed-chosen stratified sample of snapshot indices, in run order.

    The algebras are sorted by their number of filters (idempotents), which
    tracks theorem_checks cost, and cut into MATRIX_STRATA blocks; each
    round takes one algebra per block in a seed-shuffled order, so every
    round is a stratified sample and seeds differ little in cost.
    """
    algebras = snapshot["algebras"]
    n = len(snapshot["labels"])
    idem = [sum(a["odot"][x * n + x] == str(x) for x in range(n)) for a in algebras]
    ranked = sorted(range(len(algebras)), key=lambda i: (idem[i], i))
    total = len(ranked)
    blocks = [ranked[k * total // MATRIX_STRATA:(k + 1) * total // MATRIX_STRATA]
              for k in range(MATRIX_STRATA)]
    rng = random.Random(seed)
    perms = [rng.sample(block, len(block)) for block in blocks]
    order = []
    for r in range(rounds):
        picks = [perm[r % len(perm)] for perm in perms]
        rng.shuffle(picks)
        order.extend(picks)
    return order


def prepare_inputs(run):
    """Parent-side input building; part of set-up."""
    if run.workload == "matrix-n7":
        order = matrix_order(run.snapshot, run.seed, run.rounds())
        algebras = run.snapshot["algebras"]
        path = run.work / "matrix-inputs.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"labels": run.snapshot["labels"],
                       "algebras": [[i, algebras[i]["leq"], algebras[i]["odot"]] for i in order]},
                      fh)
        run.inputs = {"workload": "matrix", "inputs": str(path)}
    elif run.workload == "enumerate-cold":
        run.inputs = {"workload": "enumerate", "max_size": run.max_size}
    else:
        run.inputs = {"workload": "cli", "fixtures": [f for f in sorted(run.expected["cli"])
                                                      if (run.root / f).is_file()]}


def setup_once(run, index):
    """One complete set-up: fresh bytecode prefix, inputs, warm child."""
    start = time.perf_counter()
    run.prefix = run.work / f"pycache-{index}"
    run.prefix.mkdir(parents=True)
    prepare_inputs(run)
    corpus = run.fresh_dir("corpus")
    run.job(dict(run.inputs, job="setup"), run.env(write_bytecode=True, corpus_dir=corpus))
    return time.perf_counter() - start


# --- workloads -------------------------------------------------------------

def new_result():
    return {"attempted": 0, "failed": 0, "errors": [], "lat_ms": [], "ref_s": [],
            "algebras": 0, "rss_mb": [], "traces": [], "extra": {}}


def local_reference(boundaries, count, per_segment):
    """Reference time for each of ``count`` samples taken in segments of
    ``per_segment``, with the reference job timed at every segment boundary."""
    return [(boundaries[i // per_segment] + boundaries[i // per_segment + 1]) / 2.0
            for i in range(count)]


def fail(result, message):
    result["failed"] += 1
    if len(result["errors"]) < 5:
        result["errors"].append(message)


def enumerate_cold(run):
    res = new_result()
    expected = run.expected["enumerate"]
    plan = [False, True] if run.trace else [False] * run.rounds()
    walls = {}
    for traced in plan:
        corpus = run.fresh_dir("corpus")
        out, _, rss = run.job(dict(run.inputs, job="enumerate", trace=traced),
                              run.env(corpus_dir=corpus))
        walls[traced] = out["wall_s"] / statistics.fmean(out["reference_s"])
        unique = 0
        for size in out["sizes"]:
            n, want = size["n"], expected[str(size["n"])]
            res["attempted"] += 1
            unique += len(size["algebras"])
            if size["error"]:
                fail(res, f"n={n}: {size['error']}")
            elif len(size["algebras"]) != want["count"]:
                fail(res, f"n={n}: {len(size['algebras'])} algebras, expected {want['count']}")
            elif corpus_digest(size["algebras"], n) != want["digest"]:
                fail(res, f"n={n}: canonical-form digest differs from the recorded one")
        if traced:
            res["traces"].append(out["trace"])
            res["extra"]["enumeration.unique"] = unique
        else:
            res["lat_ms"].append(out["wall_s"] * 1000.0)
            res["ref_s"].append(statistics.fmean(out["reference_s"]))
            res["algebras"] += unique
            res["rss_mb"].append(rss)
    if run.trace:
        res["extra"]["trace.overhead_frac"] = walls[True] / walls[False] - 1.0
    return res


def matrix_n7(run):
    res = new_result()
    theorem_ids = run.snapshot["theorem_ids"]
    algebras = run.snapshot["algebras"]
    walls = {}
    for traced in ([False, True] if run.trace else [False]):
        out, _, rss = run.job(dict(run.inputs, job="matrix", trace=traced), run.env())
        walls[traced] = out["wall_s"] / statistics.fmean(out["reference_s"])
        for item in out["algebras"]:
            res["attempted"] += 1
            why = item["error"] or matrix_mismatch(algebras[item["idx"]]["rows"], theorem_ids,
                                                   item["rows"])
            if why:
                fail(res, f"algebra {item['idx']}: {why}")
        if traced:
            res["traces"].append(out["trace"])
            res["extra"]["theorems.rows"] = sum(len(a["rows"]) for a in out["algebras"])
        else:
            res["lat_ms"].extend(a["s"] * 1000.0 for a in out["algebras"])
            res["ref_s"].extend(local_reference(out["reference_s"], len(out["algebras"]),
                                                REFERENCE_EVERY))
            res["algebras"] += len(out["algebras"])
            res["rss_mb"].append(rss)
    if run.trace:
        res["extra"]["trace.overhead_frac"] = walls[True] / walls[False] - 1.0
    return res


def cli_fixtures(run):
    res = new_result()
    expected = run.expected["cli"]
    calls = [(f, cmd) for f in sorted(expected) for cmd in CLI_COMMANDS]
    rng = random.Random(run.seed)
    env = run.env()
    walls = {False: 0.0, True: 0.0}
    boundaries = []
    for _ in range(run.rounds()):
        boundaries.append(reference_job())
        for fixture, cmd in rng.sample(calls, len(calls)):
            want_code, want_digest = expected[fixture][cmd]
            argv = [cmd, "--json", fixture]
            for traced in ([False, True] if run.trace else [False]):
                res["attempted"] += 1
                if not (run.root / fixture).is_file():
                    fail(res, f"{fixture}: missing")
                    continue
                if traced:
                    out = run.work / "job.json"
                    spec = {"job": "cli", "argv": argv, "trace": True, "out": str(out)}
                    code, stdout, wall, rss = run.spawn(
                        [sys.executable, str(CHILD), json.dumps(spec)], env)
                else:
                    code, stdout, wall, rss = run.spawn(
                        [sys.executable, "-m", "rlx.cli", *argv], env)
                walls[traced] += wall
                if code != want_code or sha256(stdout) != want_digest:
                    fail(res, f"{cmd} {fixture}: exit {code}, stdout sha256 {sha256(stdout)[:12]}"
                              f" (expected exit {want_code}, {want_digest[:12]})")
                elif traced:
                    res["traces"].append(load_json(out)["trace"])
                if not traced:
                    res["lat_ms"].append(wall * 1000.0)
                    res["algebras"] += 1
                    res["rss_mb"].append(rss)
    boundaries.append(reference_job())
    res["ref_s"] = local_reference(boundaries, len(res["lat_ms"]), len(calls))
    if run.trace:
        res["extra"]["trace.overhead_frac"] = walls[True] / walls[False] - 1.0
        bare, imported = [], []
        for _ in range(INTERPRETER_PROBES):
            bare.append(run.spawn([sys.executable, "-c", "pass"], env)[2])
            imported.append(run.spawn([sys.executable, "-c", "import rlx.cli"], env)[2])
        res["extra"]["cli.interpreter_ms"] = statistics.median(bare) * 1000.0
        res["extra"]["cli.import_ms"] = (statistics.median(imported)
                                         - statistics.median(bare)) * 1000.0
    return res


MEASURE = {"enumerate-cold": enumerate_cold, "matrix-n7": matrix_n7,
           "cli-fixtures": cli_fixtures}


# --- metrics ---------------------------------------------------------------

def percentile(values, q):
    """The q-th percentile (q in 1..99), interpolated within the data."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(res, setup, scaled=True):
    """End-to-end values; ``setup`` holds (seconds, reference) pairs."""

    def scale(ref):
        return REFERENCE_S / ref if scaled else 1.0

    lat = [ms * scale(ref) for ms, ref in zip(res["lat_ms"], res["ref_s"])]
    return {
        "setup_s": statistics.median(s * scale(ref) for s, ref in setup),
        "op_ms_p50": statistics.median(lat),
        "op_ms_p90": percentile(lat, 90),
        "algebras_per_s": res["algebras"] * 1000.0 / sum(lat),
        "peak_rss_mb": statistics.median(res["rss_mb"]),
    }


def merge_traces(traces):
    calls, self_s, cache = collections.Counter(), collections.Counter(), {}
    edges = collections.Counter()
    for t in traces:
        calls.update(t["calls"])
        self_s.update(t["self_s"])
        for a, b, n in t["edges"]:
            edges[(a, b)] += n
        for name, (hits, misses) in t["cache"].items():
            h, m = cache.get(name, (0, 0))
            cache[name] = (h + hits, m + misses)
    return calls, self_s, edges, cache


def per_layer(res, names):
    """Per-layer values keyed by metric name, and the names found absent.

    ``<module>.<function>.{calls,self_s,hit_ratio}`` come from the tracer;
    a function the tracer could not find is absent and reads 0.  The other
    names are measured by the workload that owns them and read 0 elsewhere.
    """
    calls, self_s, edges, cache = merge_traces(res["traces"])
    enum_fns = [f for f in calls if f.startswith("enumeration.")]
    validate_calls = sum(n for (a, b), n in edges.items()
                         if b == "core.validate" and a in enum_fns)
    unique = res["extra"].get("enumeration.unique", 0)
    values = {name: 0 for name in WORKLOAD_OWNED}
    values.update(res["extra"])
    values["enumeration.self_s"] = sum(self_s[f] for f in enum_fns)
    values["enumeration.validate_calls"] = validate_calls
    values["enumeration.yield"] = unique / validate_calls if validate_calls else 0.0
    absent = []
    for name in names:
        if name in values:
            continue
        fn, _, kind = name.rpartition(".")
        if fn not in calls:
            absent.append(name)
            values[name] = 0
        elif kind == "calls":
            values[name] = calls[fn]
        elif kind == "self_s":
            values[name] = self_s[fn]
        else:
            hits, misses = cache.get(fn, (0, 0))
            values[name] = hits / (hits + misses) if hits + misses else 0.0
    return values, absent


# --- run record ------------------------------------------------------------

def source_identity(root):
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "rlx").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, check=False)
        commit = proc.stdout.strip() or commit
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def record(run, reference_s):
    """What a run ran on: interpreter, host, source, child environment."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        **source_identity(run.root),
        "child_env": {k: v.replace(str(run.root), ".") for k, v in run.env().items()
                      if k != "PATH"},
        "reference_job_ms": {"median": statistics.median(reference_s) * 1000.0,
                             "min": min(reference_s) * 1000.0,
                             "max": max(reference_s) * 1000.0},
        "workload": run.workload, "seed": run.seed, "seconds": run.seconds, "trace": run.trace,
    }


# --- runner ----------------------------------------------------------------

def bench(run, spec):
    """Set up, measure, check; returns the result line as a dict."""
    boundaries, setup_s = [reference_job()], []
    for i in range(SETUP_REPS):
        setup_s.append(setup_once(run, i))
        boundaries.append(reference_job())
    setup = list(zip(setup_s, local_reference(boundaries, SETUP_REPS, 1)))
    res = MEASURE[run.workload](run)
    print("# run " + json.dumps(record(run, boundaries + res["ref_s"]), sort_keys=True))
    print(f"# {res['attempted']} operations, {res['failed']} failed")
    for message in res["errors"]:
        print(f"# FAILED {message}")
    if run.trace:
        names = [m["name"] for m in spec["per_layer"]]
        values, absent = per_layer(res, names)
        for name in absent:
            print(f"# absent {name} (function not found; reads 0)")
        wanted = spec["per_layer"]
    else:
        values = end_to_end(res, setup)
        wanted = spec["end_to_end"]
        for name, value in end_to_end(res, setup, scaled=False).items():
            print(f"# unscaled {name} = {value:.6g}")
        for alias, value, unit in metric_aliases(run.workload, values, res):
            print(f"# {alias} = {value:.6g} {unit}")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"# {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def metric_aliases(workload, values, res):
    """The workload-specific names under which the generic metrics are known."""
    rows = [("error_rate", res["failed"] / res["attempted"], "ratio")]
    if workload == "enumerate-cold":
        rows.append(("enum_s", values["op_ms_p50"] / 1000.0, "s"))
    elif workload == "matrix-n7":
        rows += [("matrix_algebras_per_s", values["algebras_per_s"], "1/s"),
                 ("matrix_alg_ms_p50", values["op_ms_p50"], "ms"),
                 ("matrix_alg_ms_p90", values["op_ms_p90"], "ms")]
    else:
        rows += [("cli_ms_p50", values["op_ms_p50"], "ms"),
                 ("cli_ms_p90", values["op_ms_p90"], "ms")]
    return rows + [("samples", len(res["lat_ms"]), "count")]


def check_checkout(root):
    for need in ("src/rlx/__init__.py", "fixtures", "BENCHMARK.json"):
        if not (root / need).exists():
            raise BenchError(f"{root} is not an rlx checkout: {need} is missing")


def execute(root, workload, seed, seconds, trace, tamper=None):
    run = Run(root, workload, seed, seconds, trace)
    if tamper:
        tamper(run)
    spec = load_json(root / "BENCHMARK.json")
    try:
        run.work.mkdir(parents=True)
        return bench(run, spec)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            run.work.parent.rmdir()
        except OSError:
            pass


def self_test(root):
    """Tamper with one expectation per workload; each must fail, not pass."""

    def wrong_count(run):
        run.max_size = 6
        run.expected["enumerate"]["5"]["count"] += 1

    def flipped_verdict(run):
        first = matrix_order(run.snapshot, 0, 1)[0]
        rows = run.snapshot["algebras"][first]["rows"]
        rows[0] ^= 2

    def wrong_digest(run):
        fixture = sorted(run.expected["cli"])[0]
        run.expected["cli"][fixture]["analyze"][1] = "0" * 64

    def smoke(run):
        run.max_size = 6

    ok = True
    for workload, tamper in (("enumerate-cold", wrong_count), ("matrix-n7", flipped_verdict),
                             ("cli-fixtures", wrong_digest)):
        clean = execute(root, workload, 0, 1, 0, smoke)
        bad = execute(root, workload, 0, 1, 0, tamper)
        passed = clean["failed"] == 0 and bad["failed"] > 0 and not bad["correct"]
        ok &= passed
        print(f"SELF-TEST {workload}: untampered failed={clean['failed']}, "
              f"tampered failed={bad['failed']}/{bad['attempted']}: "
              f"{'PASS' if passed else 'FAIL'}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that a tampered expectation fails on every workload")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so the running child is killed and reaped and the
    # work dir removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # Keep this process and every child on one CPU, so the reference job
    # and the work it scales run where they are measured.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    root = Path.cwd()
    try:
        check_checkout(root)
        if args.self_test:
            return self_test(root)
        if not args.workload:
            parser.error("--workload is required")
        result = execute(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

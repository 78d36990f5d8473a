"""Measured process of the rlx benchmark: one fresh interpreter per repetition.

Run by ``run.py``, which imports only :func:`reference_job` from here.  One
JSON job spec comes in as the only argument; the result goes to the file
named by the spec's ``out``.

Jobs:

* ``setup``      import every rlx module and build the workload's inputs,
                 then exit (run with bytecode writing on, this also fills the
                 benchmark-owned bytecode prefix);
* ``enumerate``  call ``rlx.enumeration.all_algebras(n)`` for n = 1..max_size
                 against the empty corpus dir in ``RLX_CORPUS_DIR``;
* ``matrix``     call ``rlx.theorems.theorem_checks`` on each input algebra;
* ``cli``        run ``rlx.cli.main`` on the given arguments with tracing on
                 (the traced twin of ``python -m rlx.cli``; stdout unchanged).

With ``"trace": true`` the timed region runs under a :class:`Tracer`, which
sees rlx only from outside: it rebinds public functions in the loaded
``rlx.*`` namespaces and edits nothing in ``src/rlx``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import signal
import sys
import time

RLX_MODULES = ("core", "iso", "enumeration", "filters", "formulas", "lifting",
               "spectra", "dlattice", "reticulation", "theorems", "io",
               "report", "cli")

# Public functions timed by the tracer, as "<module>.<function>".  The
# theorem checks are added from ``rlx.theorems.ALL_CHECKS`` at install time.
TRACED = (
    "enumeration.corpus", "enumeration.all_algebras",
    "enumeration.enumerate_algebras",
    "iso.canonical_key", "iso.rl_isomorphism",
    "core.validate", "core.classify",
    "filters.generated_filter", "filters.filter_meet", "filters.all_filters",
    "filters.spec", "filters.max_spec", "filters.radical", "filters.quotient",
    "formulas.definable_set",
    "lifting.lp_report", "lifting.has_phi_lp",
    "lifting.boolean_splitting_conditions",
    "lifting.atomic_lp_characterization",
    "spectra.stone_spec", "spectra.stone_max", "spectra.topology_predicates",
    "spectra.gelfand_conditions", "spectra.star_property",
    "spectra.star_star_property",
    "dlattice.validate_bdl", "dlattice.lattice_filters", "dlattice.lattice_blp",
    "reticulation.build_reticulation", "reticulation.verify_retic_properties",
    "reticulation.blp_transfer", "reticulation.archimedean_bridge",
    "io.load_rlat", "report.analysis_report",
)


class Tracer:
    """Per-function counters for calls into rlx, kept in memory.

    Each traced call is a span; only aggregates are kept (calls, self
    time, and calls per caller), because hot leaves such as
    ``generated_filter`` run hundreds of thousands of times.  Self time is
    a span's duration minus the time of the traced spans it encloses.
    """

    def __init__(self, clock=time.perf_counter):
        self.calls = {}
        self.self_s = {}
        self.edges = {}
        self._caches = {}
        self._stack = []
        self._clock = clock

    def install(self, names):
        """Rebind each named function in every loaded ``rlx.*`` namespace.

        Rebinding in all namespaces catches names imported with ``from .x
        import f``; module-level tuples (``ALL_CHECKS``) are rebuilt with the
        wrappers.  A name that no longer exists is skipped; run.py
        reports it as absent.
        """
        wrappers = {}
        for name in names:
            mod_name, _, fn_name = name.partition(".")
            fn = getattr(sys.modules.get("rlx." + mod_name), fn_name, None)
            if not callable(fn):
                continue
            if hasattr(fn, "cache_info"):
                self._caches[name] = (fn, fn.cache_info())
            wrappers[id(fn)] = self._wrap(name, fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "rlx" or mod_name.startswith("rlx.")):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, attr, wrappers[id(value)])
                elif isinstance(value, tuple) and any(id(v) in wrappers for v in value):
                    setattr(mod, attr, tuple(wrappers.get(id(v), v) for v in value))

    def _wrap(self, name, fn):
        calls, self_s, edges, stack = self.calls, self.self_s, self.edges, self._stack
        clock = self._clock
        calls[name] = 0
        self_s[name] = 0.0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            caller = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                calls[name] += 1
                self_s[name] += took - frame[1]
                if stack:
                    stack[-1][1] += took
                edge = (caller, name)
                edges[edge] = edges.get(edge, 0) + 1

        return traced

    def summary(self):
        hits = {}
        for name, (fn, before) in self._caches.items():
            after = fn.cache_info()
            hits[name] = [after.hits - before.hits, after.misses - before.misses]
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "edges": [[a, b, n] for (a, b), n in self.edges.items()],
            "cache": hits,
        }


# The matrix child runs the reference job before every REFERENCE_EVERY
# algebras and once at the end; the enumerate child, whose one call to
# all_algebras(7) takes many seconds, runs it every SAMPLE_PERIOD_S seconds
# from a timer signal.
REFERENCE_EVERY = 12
SAMPLE_PERIOD_S = 1.5


def reference_job():
    """Seconds taken by a fixed pure-Python job of about 0.1 s.

    The job (join table and up-set closures on the 8-element Boolean
    lattice) does the same kind of tuple, frozenset and dict work as rlx but
    shares no code with it, so no change to rlx can move it.  Timed next to
    the workload, it tells how fast this host runs Python at that moment.
    """
    start = time.perf_counter()
    n = 8
    leq = tuple(tuple(a & b == a for b in range(n)) for a in range(n))
    seen = {}
    for _ in range(500):
        join = tuple(tuple(min(x for x in range(n) if leq[a][x] and leq[b][x])
                           for b in range(n)) for a in range(n))
        for a in range(n):
            for b in range(n):
                up = frozenset(x for x in range(n) if leq[join[a][b]][x])
                seen[up] = seen.get(up, 0) + 1
    return time.perf_counter() - start


class SpeedSampler:
    """Times the reference job every SAMPLE_PERIOD_S seconds of a long call.

    The job runs in a SIGALRM handler, between two bytecodes of the code
    being measured.  :meth:`clock` is ``time.perf_counter`` stopped while a
    handler runs, so timings taken with it leave the samples out.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def clock(self):
        return time.perf_counter() - self.spent

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, _signum, _frame):
        start = time.perf_counter()
        self.samples.append(reference_job())
        self.spent += time.perf_counter() - start


def traced_names():
    checks = getattr(sys.modules.get("rlx.theorems"), "ALL_CHECKS", ())
    return TRACED + tuple("theorems." + fn.__name__ for fn in checks)


def import_rlx():
    for name in RLX_MODULES:
        importlib.import_module("rlx." + name)


def start_tracer(job, clock=time.perf_counter):
    if not job.get("trace"):
        return None
    tracer = Tracer(clock)
    tracer.install(traced_names())
    return tracer


def decode_algebra(labels, leq, odot):
    n = len(labels)
    leq_rows = tuple(tuple(leq[i * n + j] == "1" for j in range(n)) for i in range(n))
    odot_rows = tuple(tuple(int(odot[i * n + j]) for j in range(n)) for i in range(n))
    return leq_rows, odot_rows


def encode_algebra(A):
    return ("".join("1" if v else "0" for row in A.leq for v in row),
            "".join(str(v) for row in A.odot for v in row))


def build_inputs(job):
    """The workload's inputs, built as the last step of set-up."""
    from rlx.core import validate
    if job["workload"] == "matrix":
        with open(job["inputs"], encoding="utf-8") as fh:
            spec = json.load(fh)
        labels = tuple(spec["labels"])
        return [(idx, validate(labels, *decode_algebra(labels, leq, odot)))
                for idx, leq, odot in spec["algebras"]]
    if job["workload"] == "enumerate":
        corpus_dir = os.environ["RLX_CORPUS_DIR"]
        if os.listdir(corpus_dir):
            raise SystemExit(f"corpus dir {corpus_dir} is not empty")
        return None
    from rlx.io import load_rlat
    return [load_rlat(path) for path in job["fixtures"]]


def run_setup(job):
    import compileall
    import runpy  # noqa: F401  (``python -m`` needs it; import fills its bytecode)
    compileall.compile_dir(os.path.join("src", "rlx"), quiet=1)
    import_rlx()
    build_inputs(job)
    return {}


def run_enumerate(job):
    import_rlx()
    build_inputs(job)
    enumeration = sys.modules["rlx.enumeration"]
    reference = [reference_job()]
    sizes = []
    with SpeedSampler() as sampler:
        tracer = start_tracer(job, sampler.clock)
        start = sampler.clock()
        for n in range(1, job["max_size"] + 1):
            try:
                algebras, error = enumeration.all_algebras(n), None
            except Exception as exc:  # reported as a failed operation
                algebras, error = [], repr(exc)
            sizes.append((n, algebras, error))
        wall = sampler.clock() - start
    reference += sampler.samples
    reference.append(reference_job())
    return {
        "wall_s": wall,
        "reference_s": reference,
        "sizes": [{"n": n, "error": error, "algebras": [encode_algebra(A) for A in algs]}
                  for n, algs, error in sizes],
        "trace": tracer.summary() if tracer else None,
    }


def run_matrix(job):
    import_rlx()
    inputs = build_inputs(job)
    tracer = start_tracer(job)
    theorems = sys.modules["rlx.theorems"]
    clock = time.perf_counter
    done = []
    reference = []
    wall = 0.0
    for k, (idx, A) in enumerate(inputs):
        if k % REFERENCE_EVERY == 0:
            reference.append(reference_job())
        t0 = clock()
        try:
            rows, error = theorems.theorem_checks(A), None
        except Exception as exc:  # reported as a failed operation
            rows, error = [], repr(exc)
        took = clock() - t0
        wall += took
        done.append((idx, took, rows, error))
    reference.append(reference_job())
    return {
        "wall_s": wall,
        "reference_s": reference,
        "algebras": [{"idx": idx, "s": s, "error": error,
                      "rows": [[v.theorem_id, bool(v.lhs), bool(v.rhs), bool(v.agree)]
                               for v in rows]}
                     for idx, s, rows, error in done],
        "trace": tracer.summary() if tracer else None,
    }


def run_cli(job):
    import_rlx()
    tracer = start_tracer(job)
    cli = sys.modules["rlx.cli"]
    try:
        code = cli.main(job["argv"])
    except SystemExit as exc:
        code = exc.code
    sys.stdout.flush()
    return {"exit": code, "trace": tracer.summary()}


JOBS = {"setup": run_setup, "enumerate": run_enumerate, "matrix": run_matrix,
        "cli": run_cli}


def main():
    job = json.loads(sys.argv[1])
    result = JOBS[job["job"]](job)
    with open(job["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return result.get("exit") or 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/repeat.py                       # each workload once
    python3 perfbench/repeat.py --runs 10 --out perfbench/baseline-seed.json
    python3 perfbench/repeat.py --runs 1 --trace 1    # per-layer metrics

Runs ``run.py`` once per (workload, seed), one at a time, from the root of
the checkout.  Prints each run's metric lines and, per workload and metric,
the median, quartiles and spread (interquartile range over median) over
the runs, as ``statistics.quantiles(values, n=4)`` gives them.  ``--out``
writes every run's result and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    for line in lines[:-1]:
        if " = " in line:
            print(f"{workload} seed {seed} {line}")
    result = json.loads(lines[-1])
    result["run"] = next(json.loads(line[len("# run "):]) for line in lines
                         if line.startswith("# run "))
    result["seed"] = seed
    return result


def summarise(runs):
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        summary[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": median,
                         "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}
    return summary


def main(argv=None):
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    failed = 0
    for workload in args.workloads.split(","):
        runs = [run_once(workload, args.first_seed + i, args.seconds, args.trace)
                for i in range(args.runs)]
        failed += sum(r["failed"] for r in runs)
        summary = summarise(runs)
        report["workloads"][workload] = {"summary": summary, "runs": runs}
        for name, s in summary.items():
            print(f"{workload} {name}: median {s['median']:.6g} {s['unit']}, "
                  f"quartiles {s['q1']:.6g}..{s['q3']:.6g}, spread {s['spread']:.3f} "
                  f"over {len(runs)} runs")
        print(f"{workload}: {sum(r['attempted'] for r in runs)} operations, "
              f"{sum(r['failed'] for r in runs)} failed", flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end.

Exit codes: 0 success (and, for check-theorems, full agreement, and
after -h); 1 validation or usage failure; 2 theorem disagreement (an
implementation bug surfaced by the matrix, kept distinct for CI).
Arguments are read off one table, `COMMANDS`; options are never abbreviated.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from .errors import SIZE_CAP, RlxError
from .filters import quotient
from .formulas import NAMED_FORMULAS, format_formula, parse_formula
from .io import (
    load_rlat,
    parse_filter,
    print_blat,
    print_filter,
    print_rlat,
    reticulation_labels,
    save_rlat,
)
from .lifting import has_phi_lp, lp_report
from .reticulation import build_reticulation, verify_retic_properties
from .theorems import ALL_CHECKS, theorem_checks


def _load(path):
    try:
        return load_rlat(path)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1)
    except RlxError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        raise SystemExit(1)


def cmd_validate(args):
    A = _load(args.file)
    print(f"ok: {args.file}: valid residuated lattice with "
          f"{A.size} elements")
    return 0


def cmd_analyze(args):
    from .report import analysis_report, render_human

    A = _load(args.file)
    report = analysis_report(A, include_theorems=args.topology or args.theorems)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_human(report), end="")
    if report.get("theorem_disagreements"):
        return 2
    return 0


def cmd_lp(args):
    A = _load(args.file)
    chosen = [text for name, text in NAMED_FORMULAS.items() if getattr(args, name)]
    chosen += [args.formula] if args.formula else []
    if len(chosen) != 1:
        print("error: pick exactly one of --formula/--blp/--ilp/--rlp",
              file=sys.stderr)
        return 1
    try:
        phi = parse_formula(chosen[0])
    except RlxError as exc:
        print(f"error: formula: {exc}", file=sys.stderr)
        return 1

    if args.filter:
        try:
            F = parse_filter(A, args.filter)
        except RlxError as exc:
            print(f"error: filter: {exc}", file=sys.stderr)
            return 1
        holds, verdict = has_phi_lp(A, phi, F)
        payload = _lp_row(A, verdict, formula=format_formula(phi),
                          filter=print_filter(A, F), holds=holds)
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(f"{payload['formula']} at {payload['filter']}: {holds}"
                  f"{_counterexample_note(payload)}")
        return 0

    rep = lp_report(A, phi)
    rows = [_lp_row(A, verdict, filter=print_filter(A, F), holds=verdict.holds)
            for F, verdict in rep.per_filter]
    payload = {
        "formula": format_formula(phi),
        "global": rep.global_holds,
        "filters": rows,
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"{payload['formula']}: global={rep.global_holds}")
        for row in rows:
            print(f"  {row['filter']}: {row['holds']}"
                  f"{_counterexample_note(row)}")
    return 0


def _lp_row(A, verdict, **fields):
    """`fields` plus the labels of the verdict's counterexample and
    witness, where it has them."""
    if verdict.counterexample is not None:
        fields["counterexample"] = A.labels[verdict.counterexample]
    if verdict.witness is not None:
        fields["witness"] = A.labels[verdict.witness]
    return fields


def _counterexample_note(row):
    return (f"  counterexample: {row['counterexample']}"
            if "counterexample" in row else "")


def cmd_check_theorems(args):
    A = _load(args.file)
    verdicts = _timed_checks(A) if args.stats else theorem_checks(A)
    bad = [v for v in verdicts if not v.agree]
    if args.json:
        print(json.dumps([v.as_dict() for v in verdicts], indent=2,
                         sort_keys=True))
    else:
        for v in verdicts:
            mark = "ok " if v.agree else "!!"
            print(f"{mark} {v.theorem_id}: lhs={v.lhs} rhs={v.rhs}")
        print(f"{len(verdicts)} checks, {len(bad)} disagreements")
    return 2 if bad else 0


def _timed_checks(A):
    """The rows of `theorem_checks`, printing the rows and milliseconds of
    each row family to stderr, then the hits and misses of every memo of
    the loaded rlx modules; `theorem_checks` itself stays untimed."""
    verdicts, lines, start = [], [], perf_counter()
    for fn in ALL_CHECKS:
        t = perf_counter()
        rows = fn(A)
        lines.append((fn.__name__, len(rows), perf_counter() - t))
        verdicts.extend(rows)
    lines.append(("total", len(verdicts), perf_counter() - start))
    print(f"{'family':<40}{'rows':>6}{'ms':>10}", file=sys.stderr)
    for name, rows, seconds in lines:
        print(f"{name:<40}{rows:>6}{seconds * 1000:>10.3f}", file=sys.stderr)
    print(f"{'memo':<40}{'hits':>8}{'misses':>8}", file=sys.stderr)
    for module in sorted(m for m in sys.modules if m.startswith("rlx.")):
        for name, fn in vars(sys.modules[module]).items():
            if hasattr(fn, "cache_info") and fn.__module__ == module:
                info, name = fn.cache_info(), f"{module[4:]}.{name}"
                print(f"{name:<40}{info.hits:>8}{info.misses:>8}",
                      file=sys.stderr)
    return verdicts


def cmd_enumerate(args):
    from .enumeration import all_algebras, check_size

    out_dir = Path(args.out_dir)
    try:
        check_size(args.size)  # before the directory is made
        out_dir.mkdir(parents=True, exist_ok=True)
        algebras = all_algebras(args.size)
        for i, A in enumerate(algebras):
            save_rlat(A, out_dir / f"n{args.size}-{i:04d}.rlat")
    except RlxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{len(algebras)} algebras of size {args.size} written to {out_dir}")
    return 0


def cmd_reticulate(args):
    A = _load(args.file)
    R = build_reticulation(A)
    text = print_blat(R.lattice, reticulation_labels(A, R))
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"reticulation ({R.lattice.size} elements) written to {args.out}")
    else:
        print(text, end="")
    if args.verify:
        verdicts = verify_retic_properties(A)
        for k, v in sorted(verdicts.items()):
            print(f"property {k}: {'ok' if v else 'FAIL'}")
        if not all(verdicts.values()):
            return 2
    return 0


def cmd_quotient(args):
    A = _load(args.file)
    try:
        F = parse_filter(A, args.filter)
    except RlxError as exc:
        print(f"error: filter: {exc}", file=sys.stderr)
        return 1
    Q = quotient(A, F)
    # every class prints as x/F, x its least member under A's labels
    labels = tuple(f"{A.labels[r]}/F" for r in Q.section)
    print(print_rlat(Q.quotient, labels), end="")
    return 0


# name -> (function, positionals, flags, valued options, help), each list
# space-separated; a valued option with a trailing "!" must be given
COMMANDS = {
    "validate": (cmd_validate, "file", "", "", "check a .rlat file"),
    "analyze": (cmd_analyze, "file", "json topology theorems", "", "analysis report"),
    "lp": (cmd_lp, "file", "blp ilp rlp json", "formula filter", "lifting check"),
    "check-theorems": (cmd_check_theorems, "file", "json stats", "",
                       "the theorem matrix"),
    "enumerate": (cmd_enumerate, "size out_dir", "", "",
                  f"write all algebras of one size (<= {SIZE_CAP})"),
    "reticulate": (cmd_reticulate, "file", "verify", "out", "the reticulation lattice"),
    "quotient": (cmd_quotient, "file", "", "filter!", "the quotient algebra"),
}


def _exit(command, error=None):
    """Print the usage of `command` (of rlx if None); exit 1 on `error`, else 0."""
    if command is None:
        lines = ["usage: rlx COMMAND ...", *(f"  {name:<16}{entry[4]}"
                                            for name, entry in COMMANDS.items())]
    else:
        _, *lists, text = COMMANDS[command]
        positionals, flags, options = (names.split() for names in lists)
        lines = [" ".join(["usage: rlx", command, *positionals,
                           *(f"--{o[:-1]} {o[:-1].upper()}" if o[-1] == "!"
                             else f"[--{o} {o.upper()}]" for o in options),
                           *(f"[--{f}]" for f in flags)]), f"  {text}"]
    lines += [f"rlx: error: {error}"] if error else []
    print("\n".join(lines), file=sys.stderr if error else sys.stdout)
    raise SystemExit(1 if error else 0)


def parse_args(argv=None):
    """The namespace argparse gave: `command`, `fn`, the positionals, each
    flag (False unless given) and each valued option (None unless given),
    as `--opt value` or `--opt=value`, anywhere after the command."""
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in COMMANDS else None
    if "-h" in argv or "--help" in argv:
        _exit(command)
    if command is None:
        _exit(None, f"invalid choice: {argv[0]!r}" if argv
              else "the following arguments are required: command")
    fn, *lists, _ = COMMANDS[command]
    positionals, flags, options = (names.split() for names in lists)
    valued = [o.rstrip("!") for o in options]
    args = SimpleNamespace(command=command, fn=fn,
                           **dict.fromkeys(flags, False), **dict.fromkeys(valued))
    values, rest = [], iter(argv[1:])
    for arg in rest:
        name, eq, value = arg[2:].partition("=")
        if not arg.startswith("-") and len(values) < len(positionals):
            values.append(arg)
        elif arg[:2] == "--" and name in flags and not eq:
            setattr(args, name, True)
        elif arg[:2] == "--" and name in valued:
            value = value if eq else next(rest, "-")
            if value.startswith("-") and not eq:
                _exit(command, f"argument --{name}: expected one argument")
            setattr(args, name, value)
        else:
            _exit(command, f"unrecognized arguments: {arg}")
    missing = [*positionals[len(values):], *(f"--{o[:-1]}" for o in options
               if o[-1] == "!" and getattr(args, o[:-1]) is None)]
    if missing:
        _exit(command, f"the following arguments are required: {', '.join(missing)}")
    for name, value in zip(positionals, values):
        try:
            setattr(args, name, int(value) if name == "size" else value)
        except ValueError:
            _exit(command, f"argument {name}: invalid int value: {value!r}")
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        return args.fn(args)
    except RlxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end.

Exit codes: 0 success (and, for check-theorems, full agreement);
1 validation or usage failure; 2 theorem disagreement (an implementation
bug surfaced by the matrix, kept distinct for CI).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import SIZE_CAP, RlxError
from .filters import quotient
from .formulas import NAMED_FORMULAS, format_formula, parse_formula
from .io import (
    load_rlat,
    parse_filter,
    print_blat,
    print_filter,
    print_rlat,
    save_rlat,
)
from .lifting import has_phi_lp, lp_report
from .reticulation import build_reticulation, verify_retic_properties
from .theorems import theorem_checks


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
    chosen = [name for name in NAMED_FORMULAS if getattr(args, name)]
    if args.formula:
        chosen.append(None)
    if len(chosen) != 1:
        print("error: pick exactly one of --formula/--blp/--ilp/--rlp",
              file=sys.stderr)
        return 1
    text = args.formula if args.formula else NAMED_FORMULAS[chosen[0]]
    try:
        phi = parse_formula(text)
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
                          filter=print_filter(F), holds=holds)
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(f"{payload['formula']} at {payload['filter']}: {holds}"
                  f"{_counterexample_note(payload)}")
        return 0

    rep = lp_report(A, phi)
    rows = [_lp_row(A, verdict, filter=print_filter(F), holds=verdict.holds)
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
    verdicts = theorem_checks(A)
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
    text = print_blat(R.lattice)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"reticulation ({R.lattice.size} elements) written to {args.out}")
    else:
        print(text, end="")
    if args.verify:
        verdicts = verify_retic_properties(R)
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
    # A/{1} is A itself, with A's labels; every class prints as x/F
    labels = tuple(f"{A.labels[r]}/F" for r in Q.section)
    print(print_rlat(Q.quotient, labels), end="")
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="rlx",
        description="finite residuated-lattice workbench")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check a .rlat file")
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("analyze", help="full analysis report")
    sp.add_argument("file")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--topology", action="store_true",
                    help="include the theorem traceability matrix")
    sp.add_argument("--theorems", action="store_true",
                    help="alias of --topology")
    sp.set_defaults(fn=cmd_analyze)

    sp = sub.add_parser("lp", help="lifting-property check")
    sp.add_argument("file")
    sp.add_argument("--formula")
    sp.add_argument("--blp", action="store_true")
    sp.add_argument("--ilp", action="store_true")
    sp.add_argument("--rlp", action="store_true")
    sp.add_argument("--filter", help="restrict to one filter, e.g. 'c,1'")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_lp)

    sp = sub.add_parser("check-theorems", help="run the theorem matrix")
    sp.add_argument("file")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_check_theorems)

    sp = sub.add_parser("enumerate",
                        help=f"write all algebras of one size (<= {SIZE_CAP})")
    sp.add_argument("size", type=int)
    sp.add_argument("out_dir")
    sp.set_defaults(fn=cmd_enumerate)

    sp = sub.add_parser("reticulate", help="emit the reticulation lattice")
    sp.add_argument("file")
    sp.add_argument("--out", help="write a .blat file instead of stdout")
    sp.add_argument("--verify", action="store_true",
                    help="check the structural properties as well")
    sp.set_defaults(fn=cmd_reticulate)

    sp = sub.add_parser("quotient", help="print the quotient algebra")
    sp.add_argument("file")
    sp.add_argument("--filter", required=True)
    sp.set_defaults(fn=cmd_quotient)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except RlxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

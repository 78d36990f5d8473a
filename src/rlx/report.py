"""Analysis report assembly: one dict per algebra, a pure function of the
input, rendered identically as JSON or human-readable text."""

from __future__ import annotations

from .core import classify, validate
from .filters import all_filters, is_local, is_semisimple, max_spec, radical
from .formulas import blp_formula, ilp_formula, rlp_formula
from .io import print_filter, print_rlat, reticulation_labels
from .iso import canonicalize, permute_relation, permute_table
from .lifting import lp_report
from .reticulation import build_reticulation
from .spectra import (
    gelfand_counterexample,
    is_gelfand,
    star_property,
    star_star_property,
    stone_max,
    stone_spec,
    topology_predicates,
)
from .theorems import theorem_checks


def content_hash(A):
    """Hash of the canonical form: the same for every isomorphic copy of A.

    `canonicalize` only permutes the elements strictly between bot and top,
    so bot and top are first moved to ids 0 and n-1, the other elements
    keeping their order.  Labels never enter the hash.

    The digest comes from the interpreter's built-in SHA-256 module,
    imported here, its only use: `_sha2` from CPython 3.12 on, `_sha256`
    before.  `hashlib.sha256` gives the same digest but loads OpenSSL,
    megabytes of resident memory and a few ms of start-up on every
    `analyze`; it is the fallback where neither module exists.
    """
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256

    order = sorted(A.elements(), key=lambda x: (x != A.bot, x == A.top, x))
    perm = [0] * A.size
    for new, old in enumerate(order):
        perm[old] = new
    B = validate(A.labels, permute_relation(A.leq, perm),
                 permute_table(A.odot, perm))
    text = print_rlat(canonicalize(B))
    return sha256(text.encode("utf-8")).hexdigest()[:16]


def _gelfand_witness(A):
    """A prime filter under several maximal ones, or None when Gelfand."""
    P = gelfand_counterexample(A)
    if P is None:
        return None
    return {"prime": print_filter(A, P),
            "maximals_above": [print_filter(A, M) for M in max_spec(A)
                               if P <= M]}


def analysis_report(A, include_theorems=True):
    cls = classify(A)
    labels = A.labels

    def names(subset):
        return [labels[x] for x in sorted(subset)]

    filters = all_filters(A)
    per_filter = []
    reports = {
        "blp": lp_report(A, blp_formula()),
        "ilp": lp_report(A, ilp_formula()),
        "rlp": lp_report(A, rlp_formula()),
    }
    for i, F in enumerate(filters):
        row = {"filter": print_filter(A, F)}
        for key, rep in reports.items():
            verdict = rep.per_filter[i][1]
            row[key] = verdict.holds
            if verdict.counterexample is not None:
                row[f"{key}_counterexample"] = labels[verdict.counterexample]
        per_filter.append(row)

    sp, mx = stone_spec(A), stone_max(A)
    star, star_wit = star_property(A)
    starstar, _ = star_star_property(A)
    R = build_reticulation(A)
    lattice_labels = reticulation_labels(A, R)

    report = {
        "hash": content_hash(A),
        "size": A.size,
        "elements": list(labels),
        "classes": {
            "boolean_center": names(cls.boolean_center),
            "idempotents": names(cls.idempotents),
            "regulars": names(cls.regulars),
            "nilpotents": names(cls.nilpotents),
            "archimedeans": names(cls.archimedeans),
            "is_godel": cls.is_godel,
            "is_involutive": cls.is_involutive,
            "is_chain": cls.is_chain,
            "is_distributive": cls.is_distributive,
            "is_hyperarchimedean": cls.is_hyperarchimedean,
        },
        "filters": per_filter,
        "lifting": {
            "blp": reports["blp"].global_holds,
            "ilp": reports["ilp"].global_holds,
            "rlp": reports["rlp"].global_holds,
        },
        "spectra": {
            "spec_points": [print_filter(A, P) for P in sp.points],
            "max_points": [print_filter(A, M) for M in mx.points],
            "radical": print_filter(A, radical(A)),
            "is_local": is_local(A),
            "is_semisimple": is_semisimple(A),
            "spec_topology": dict(topology_predicates(sp)),
            "max_topology": dict(topology_predicates(mx)),
        },
        "gelfand": {
            "holds": is_gelfand(A),
            "witness": _gelfand_witness(A),
            # the maximality axioms about infinite families hold vacuously
            # on finite algebras and are reported, not tested
            "maximality_note": "finite algebra: completeness conditions vacuous",
        },
        "star": {
            "star": star,
            "star_star": starstar,
            "witnesses": {labels[x]: [labels[u], labels[e]]
                          for x, (u, e) in sorted(star_wit.items())},
        },
        "reticulation": {
            "lattice_size": R.lattice.size,
            "lambda": {labels[a]: lattice_labels[R.lam[a]]
                       for a in A.elements()},
        },
    }
    if include_theorems:
        matrix = [v.as_dict() for v in theorem_checks(A)]
        report["theorems"] = matrix
        report["theorem_disagreements"] = sum(1 for v in matrix if not v["agree"])
    return report


def render_human(report):
    out = []
    push = out.append
    push(f"algebra {report['hash']}  (n={report['size']})")
    push(f"  elements: {' '.join(report['elements'])}")
    cls = report["classes"]
    push(f"  boolean center: {{{','.join(cls['boolean_center'])}}}")
    push(f"  idempotents:    {{{','.join(cls['idempotents'])}}}")
    push(f"  regulars:       {{{','.join(cls['regulars'])}}}")
    push(f"  nilpotents:     {{{','.join(cls['nilpotents'])}}}")
    push(f"  archimedeans:   {{{','.join(cls['archimedeans'])}}}")
    flags = [k for k in ("is_godel", "is_involutive", "is_chain",
                         "is_distributive", "is_hyperarchimedean") if cls[k]]
    push(f"  flags: {', '.join(flags) if flags else '(none)'}")
    lift = report["lifting"]
    push(f"  lifting: BLP={lift['blp']} ILP={lift['ilp']} RLP={lift['rlp']}")
    push("  filters:")
    for row in report["filters"]:
        verdicts = " ".join(f"{k.upper()}={row[k]}" for k in ("blp", "ilp", "rlp"))
        extra = ""
        if "blp_counterexample" in row:
            extra = f"  (blp counterexample: {row['blp_counterexample']})"
        push(f"    {row['filter']}: {verdicts}{extra}")
    spx = report["spectra"]
    push(f"  spec: {' '.join(spx['spec_points'])}")
    push(f"  max:  {' '.join(spx['max_points'])}")
    push(f"  radical: {spx['radical']}  local={spx['is_local']} "
         f"semisimple={spx['is_semisimple']}")
    push(f"  spec topology: {_render_preds(spx['spec_topology'])}")
    push(f"  max topology:  {_render_preds(spx['max_topology'])}")
    gel = report["gelfand"]
    if gel["witness"] is None:
        push(f"  gelfand: {gel['holds']}")
    else:
        w = gel["witness"]
        push(f"  gelfand: {gel['holds']}  (prime {w['prime']} under "
             f"{len(w['maximals_above'])} maximal filters)")
    push(f"  star: {report['star']['star']}  star-star: {report['star']['star_star']}")
    ret = report["reticulation"]
    lam = " ".join(f"{a}>{v}" for a, v in ret["lambda"].items())
    push(f"  reticulation: {ret['lattice_size']} elements; lambda: {lam}")
    if "theorems" in report:
        bad = report["theorem_disagreements"]
        push(f"  theorem matrix: {len(report['theorems'])} checks, "
             f"{bad} disagreements")
        for v in report["theorems"]:
            if not v["agree"]:
                push(f"    !! {v['theorem_id']}: lhs={v['lhs']} rhs={v['rhs']}"
                     f" witness={v['witness']}")
    return "\n".join(out) + "\n"


def _render_preds(preds):
    return " ".join(f"{k}={'T' if v else 'F'}" for k, v in preds.items())

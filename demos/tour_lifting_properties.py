#!/usr/bin/env python3
"""A guided tour of lifting properties on two small residuated lattices.

Walks through the five-element Goedel algebra on the lozenge-with-top
order and the six-element pentagon-with-top algebra: element classes,
filters, quotients, and which filters lift Boolean and idempotent
elements.  Run it directly; it prints a narrative.
"""

from pathlib import Path

from rlx.core import classify
from rlx.filters import all_filters, max_spec, quotient, radical
from rlx.formulas import blp_formula, ilp_formula
from rlx.io import load_rlat, print_filter
from rlx.lifting import lp_report, boolean_splitting_conditions

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def banner(text):
    print()
    print(text)
    print("-" * len(text))


def tour(A, title):
    banner(title)
    cls = classify(A)

    def names(ids):
        return "{" + ",".join(A.labels[x] for x in sorted(ids)) + "}"

    print(f"carrier: {' '.join(A.labels)}")
    print(f"Boolean center {names(cls.boolean_center)}, "
          f"idempotents {names(cls.idempotents)}, "
          f"regulars {names(cls.regulars)}")
    print(f"filters: {', '.join(print_filter(A, F) for F in all_filters(A))}")
    print(f"maximal: {', '.join(print_filter(A, M) for M in max_spec(A))}; "
          f"radical {print_filter(A, radical(A))}")

    for label, phi in (("Boolean", blp_formula()), ("idempotent", ilp_formula())):
        rep = lp_report(A, phi)
        print(f"{label} lifting, filter by filter:")
        for F, verdict in rep.per_filter:
            if verdict.holds:
                print(f"  {print_filter(A, F)}: lifts")
            else:
                cex = A.labels[verdict.counterexample]
                Q = quotient(A, F)
                size = Q.quotient.size
                print(f"  {print_filter(A, F)}: FAILS -- the class of {cex} "
                      f"satisfies the property in the {size}-element quotient "
                      f"but no element of the class does in the algebra")
        print(f"  globally: {'holds' if rep.global_holds else 'fails'}")

    verdicts, witnesses = boolean_splitting_conditions(A)
    print(f"splitting criteria (direct, binary, zero-product, n-ary): {verdicts}")
    if not verdicts[1]:
        x = witnesses[2][0]
        print(f"  splitting witness: no Boolean element sits in "
              f"[{A.labels[x]}) with its negation in [!{A.labels[x]})")


def main():
    tour(load_rlat(FIXTURES / "pentagon_godel.rlat"),
         "Five elements, product = meet: idempotents everywhere, "
         "but the radical cannot lift Boolean elements")
    tour(load_rlat(FIXTURES / "pentagon_stacked.rlat"),
         "Six elements on the pentagon-with-top order: idempotent lifting "
         "holds, Boolean lifting breaks at the radical")
    banner("Reading the failure")
    print("Both algebras quotient onto the four-element Boolean algebra,")
    print("whose every element is Boolean, while their own centers are {0,1}.")
    print("Two classes therefore have no Boolean representative, and the")
    print("filter defining the quotient refuses to lift.")


if __name__ == "__main__":
    main()

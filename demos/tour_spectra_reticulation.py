#!/usr/bin/env python3
"""Spectra, the Gelfand property, and the reticulation, end to end.

Builds Stone spaces for a batch of small algebras, shows how the
topology read off the prime spectrum mirrors Boolean lifting, and
demonstrates that the reticulation preserves the whole filter/spectrum
structure while forgetting the multiplicative fine print.
"""

import sys
from pathlib import Path

from rlx.enumeration import all_algebras
from rlx.filters import max_spec, spec
from rlx.io import load_rlat, print_filter, reticulation_labels
from rlx.lifting import has_blp
from rlx.reticulation import build_reticulation, verify_retic_properties
from rlx.spectra import (
    is_gelfand,
    star_property,
    stone_max,
    stone_spec,
    topology_predicates,
)

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
# the textbook algebras come from the test suite's constructors
sys.path.insert(0, str(ROOT / "tests"))

from constructors import (  # noqa: E402  (found through the path above)
    boolean_algebra,
    direct_product,
    godel_chain,
    lukasiewicz_chain,
    ordinal_sum,
)


def banner(text):
    print()
    print(text)
    print("-" * len(text))


def describe(A, name):
    sp = stone_spec(A)
    mx = stone_max(A)
    preds = topology_predicates(sp)
    print(f"{name}: |Spec|={len(sp.points)} |Max|={len(mx.points)} "
          f"gelfand={is_gelfand(A)} blp={has_blp(A)} "
          f"spec strongly-zero-dim={preds['strongly_zero_dim']}")


def main():
    banner("Boolean lifting is visible in the prime spectrum")
    describe(boolean_algebra(2), "2x2 Boolean")
    describe(godel_chain(4), "4-chain, product = meet")
    describe(lukasiewicz_chain(4), "4-chain, MV product")
    lozenge = load_rlat(FIXTURES / "pentagon_godel.rlat")
    describe(lozenge, "lozenge-with-top, product = meet")
    print("The strongly-zero-dimensional line tracks the lifting verdict:")
    print("that equivalence is one of the executable theorems.")

    banner("Gelfand retraction")
    A = direct_product(godel_chain(3), godel_chain(2))
    maxima = max_spec(A)
    for P in spec(A):
        # A is Gelfand: exactly one maximal filter lies above P
        M = next(M for M in maxima if A.leq[M][P])  # P inside M
        print(f"  prime {print_filter(A, P)} -> maximal {print_filter(A, M)}")

    banner("Manufacturing a non-Gelfand algebra")
    R = direct_product(boolean_algebra(1), boolean_algebra(1))
    S = ordinal_sum(R, godel_chain(2))
    describe(S, "2x2 stacked under a fresh top")
    print("The fresh top makes {1} prime below both maximal filters,")
    print(f"so no retraction exists and the splitting property reads "
          f"{star_property(S)[0]}.")

    banner("The reticulation keeps the spectrum, forgets the product")
    for name, A in [("MV 3-chain", lukasiewicz_chain(3)),
                    ("lozenge-with-top", lozenge)]:
        Rt = build_reticulation(A)
        verdicts = verify_retic_properties(A)
        print(f"{name}: lattice {' '.join(reticulation_labels(A, Rt))}; "
              f"all {len(verdicts)} structural properties "
              f"{'pass' if all(verdicts.values()) else 'FAIL'}")

    banner("Sweeping every five-element algebra")
    total = gel = lifts = 0
    for A in all_algebras(5):
        total += 1
        gel += is_gelfand(A)
        lifts += has_blp(A)
    print(f"{total} algebras of size 5 up to isomorphism: "
          f"{gel} Gelfand, {lifts} with Boolean lifting")


if __name__ == "__main__":
    main()

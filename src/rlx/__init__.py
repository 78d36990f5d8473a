"""Finite-model workbench for residuated lattices.

Validation and constructors for small residuated lattices, filter and
quotient machinery, lifting-property checks (Boolean/idempotent/regular and
arbitrary equational formulas), Stone spectra with their topologies, the
reticulation functor, and an executable suite of characterization theorems.
"""

from .core import (
    ElementClassReport,
    ResiduatedLattice,
    boolean_algebra,
    classify,
    derive_implication,
    direct_product,
    godel_chain,
    lukasiewicz_chain,
    ordinal_sum,
    trivial_algebra,
    upset_algebra,
    validate,
)
from .errors import (
    AxiomViolation,
    FileFormatError,
    FormulaSyntaxError,
    InvalidArgument,
    MultipleFreeVariables,
    NotAtomic,
    NotConormal,
    NotDistributive,
    NotResiduated,
    RlxError,
    SizeCapExceeded,
    UnboundVariable,
)

__version__ = "0.1.0"

__all__ = [
    "ElementClassReport",
    "ResiduatedLattice",
    "boolean_algebra",
    "classify",
    "derive_implication",
    "direct_product",
    "godel_chain",
    "lukasiewicz_chain",
    "ordinal_sum",
    "trivial_algebra",
    "upset_algebra",
    "validate",
    "AxiomViolation",
    "FileFormatError",
    "FormulaSyntaxError",
    "InvalidArgument",
    "MultipleFreeVariables",
    "NotAtomic",
    "NotConormal",
    "NotDistributive",
    "NotResiduated",
    "RlxError",
    "SizeCapExceeded",
    "UnboundVariable",
    "__version__",
]

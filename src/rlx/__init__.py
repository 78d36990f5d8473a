"""Finite-model workbench for residuated lattices.

Validation and element classes of small residuated lattices, filter and
quotient machinery, lifting-property checks (Boolean/idempotent/regular and
arbitrary equational formulas), Stone spectra with their topologies, the
reticulation functor, and an executable suite of characterization theorems.
"""

from .core import (
    ElementClassReport,
    ResiduatedLattice,
    classify,
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
    "classify",
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

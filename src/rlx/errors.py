"""Exception types shared across the workbench."""


class RlxError(Exception):
    """Base class for all library errors."""


class AxiomViolation(RlxError):
    """An algebra description breaks one of the defining axioms.

    Carries the axiom name and the first offending witness tuple under the
    fixed 0..n-1 element order, so failures are reproducible.
    """

    def __init__(self, axiom, witness):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"{axiom} violated at {witness}")


class NotResiduated(RlxError):
    """{a : a*b <= c} has no maximum, so no residuum exists for (b, c)."""

    def __init__(self, b, c):
        self.pair = (b, c)
        super().__init__(f"no residuum exists for pair ({b}, {c})")


class InvalidArgument(RlxError):
    pass


# the largest size the enumerator accepts
SIZE_CAP = 7


class SizeCapExceeded(RlxError):
    """A size outside 1..SIZE_CAP was asked of the enumerator."""


class NotGelfand(RlxError):
    """Raised when a retraction is requested for a non-Gelfand algebra."""


class NotDistributive(RlxError):
    """The underlying bounded lattice is not distributive."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"distributivity fails at {witness}")


class NotConormal(RlxError):
    pass


class NotAtomic(RlxError):
    """The formula is not a single bound-variable-free equation."""


class NoIsomorphism(RlxError):
    pass


class FormulaSyntaxError(RlxError):
    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class UnboundVariable(RlxError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"variable {name!r} is not bound by the exists prefix")


class MultipleFreeVariables(RlxError):
    def __init__(self, names):
        self.names = tuple(names)
        super().__init__(f"more than one free variable: {', '.join(self.names)}")


class FileFormatError(RlxError):
    """A .rlat/.blat file cannot be parsed; carries the 1-based line number."""

    def __init__(self, message, line):
        self.line = line
        super().__init__(f"line {line}: {message}")

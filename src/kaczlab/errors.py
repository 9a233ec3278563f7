"""Exception types shared across the package."""


class KaczlabError(Exception):
    """Base class for all errors raised by this package."""


class ZeroRowOrColumn(KaczlabError):
    """A matrix has a structurally or numerically zero row or column."""

    def __init__(self, index: int, kind: str, underflow: bool = False):
        self.index = index
        self.kind = kind  # "row" or "column"
        if underflow:
            super().__init__(f"{kind} {index} has nonzero entries, but its squared norm "
                             "underflows to 0")
        else:
            super().__init__(f"zero {kind} at index {index}")


class NonFiniteEntry(KaczlabError):
    """NaN or Inf encountered at an API boundary."""


class IndexOutOfRange(KaczlabError):
    """Row or column index outside the matrix dimensions."""


class ParseError(KaczlabError):
    """Malformed input file; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class UnsupportedField(KaczlabError):
    """Matrix Market field or symmetry variant this reader does not handle."""


class OracleNotConverged(KaczlabError):
    """The least-squares reference oracle hit its iteration budget."""


class OracleUnavailable(KaczlabError):
    """A diagnostic oracle was requested for a matrix above its size limit."""


class TrivialNullSpace(KaczlabError):
    """range(A)^perp is (numerically) trivial; no orthogonal noise exists."""


class DegenerateGeometry(KaczlabError):
    """Tomography geometry that produces no usable rays."""


class InvalidRatio(KaczlabError):
    """Sampling ratio outside (0, 1]."""


class ZeroResidual(KaczlabError):
    """The augmented residual vanished: the iterate already solves the system."""


class ReferenceUnavailable(KaczlabError):
    """A stopping rule needs the reference solution but none is attached."""


class WindowNotReady(KaczlabError):
    """A windowed stopping check was evaluated off its schedule."""


class IncompleteRun(KaczlabError):
    """A report lacks the fields needed for the requested comparison."""

"""Exception types shared across the workbench.

Everything raised on purpose derives from WorkbenchError, so callers can
catch one base class.  Plain ZeroDivisionError is used for division by the
zero scalar, matching what the arithmetic would raise anyway.
"""


class WorkbenchError(Exception):
    """Base class for all deliberate workbench failures."""


class ShapeMismatch(WorkbenchError):
    """Operands live over different matrix shapes."""


class IndexOutOfShape(WorkbenchError):
    """A row or column index falls outside the ambient shape."""


class EmptyMinor(WorkbenchError):
    """An operation that needs a nonempty index pair got the empty minor."""


class SizeMismatch(WorkbenchError):
    """Row and column index sets have incompatible sizes."""


class OverlapError(WorkbenchError):
    """Extension index sets overlap the sets already present."""


class ZeroInput(WorkbenchError):
    """A nonzero operand was required."""


class BasisMismatch(WorkbenchError):
    """Coefficient vectors over different graded bases were combined."""


class DegreeTooLarge(WorkbenchError):
    """An input or a graded component exceeds a size guard."""


class StageOutOfRange(WorkbenchError):
    """Tower stage index outside the family's range."""


class UndefinedMember(WorkbenchError):
    """The requested family member does not exist for this frame."""


class NotAboveGamma(WorkbenchError):
    """The minor is not greater than or equal to the frame minor."""


class NoScalarFound(WorkbenchError):
    """No (unique nonzero) commutation scalar exists; the claim fails."""


class PoleAtSpecialization(WorkbenchError):
    """The denominator vanishes at the requested evaluation point."""


class ExprSyntaxError(WorkbenchError):
    """Expression text failed to parse; carries the offending position."""

    def __init__(self, message, pos):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


class ConfigError(WorkbenchError):
    """Invalid workbench configuration."""

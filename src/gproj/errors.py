"""Exception hierarchy shared by all gproj layers.

Two families matter to callers: InputError (malformed data, bad references,
unparsable text; CLI exit code 2) and MathRejection (structurally valid input
that fails a mathematical precondition or guard; CLI exit code 1).
"""


class GprojError(Exception):
    pass


class InputError(GprojError):
    """Malformed or inconsistent input (not a mathematical failure)."""


class ParseError(InputError):
    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        loc = ""
        if line is not None:
            loc = f" at line {line}" + (f", col {col}" if col is not None else "")
        super().__init__(message + loc)


class RingMismatch(InputError):
    """Operands built over different rings."""


class MathRejection(GprojError):
    """A precondition of a mathematical operation is violated."""


class DegreeGuardExceeded(MathRejection):
    """A Groebner-type computation exceeded the configured total-degree cap.

    The message starts with the operation that tripped it: "Groebner basis",
    "module basis at rank r" or "normal form"."""


class MapNotWellDefined(MathRejection):
    """A matrix does not send source relations into the target relation span."""


class NotRegularOnModule(MathRejection):
    pass


class UnitElement(MathRejection):
    pass


class ZeroDivisorInRing(MathRejection):
    pass


class NotMonic(MathRejection):
    pass


class RingNotRecognizedAsDomain(MathRejection):
    pass


class NotRegularOnQuotient(MathRejection):
    """The distinguished variable is a zero divisor on the ambient quotient."""


class NoCoresolutionAvailable(MathRejection):
    pass


class PdInfiniteOrUnresolved(MathRejection):
    pass


class RingNotInCatalog(MathRejection):
    pass

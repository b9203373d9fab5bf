"""Exception hierarchy shared across the package.

Everything raised on purpose derives from XorlabError so the CLI can map
domain failures to exit code 1 while genuine bugs still crash loudly.  The
CLI maps an OSError (a file it cannot read or write) to exit code 1 too.
"""


class XorlabError(Exception):
    """Base class for all expected failures."""


class ShapeError(XorlabError, ValueError):
    """Dimension or arity mismatch between operands."""


class ArityError(XorlabError, ValueError):
    """Wrong number of components (e.g. activation count vs layer count)."""


class DomainError(XorlabError, ValueError):
    """A value lies outside its documented domain."""


class SingularMatrixError(XorlabError, ArithmeticError):
    """Pivot below tolerance during inversion, or rank-deficient system."""


class InfeasibleProbabilityError(DomainError):
    """Target probability outside the Frechet bounds."""


class ExprSyntaxError(XorlabError, ValueError):
    """Boolean-expression parse failure; carries offset and expected set."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...]):
        super().__init__(message)
        self.offset = offset
        self.expected = expected


class UnboundVariableError(XorlabError, LookupError):
    """An expression variable has no binding."""


class SpecSyntaxError(XorlabError, ValueError):
    """Malformed topology specification string."""


class NotLinearError(XorlabError, ValueError):
    """Layer collapse requested on a network with non-identity activations."""


class DivergenceError(XorlabError, ArithmeticError):
    """Training blew up; carries the iteration, the SSE, and the state."""

    def __init__(self, message: str, iteration: int, sse: float, net=None):
        super().__init__(message)
        self.iteration = iteration
        self.sse = sse
        self.net = net


class UnknownNameError(XorlabError, LookupError):
    """Lookup of a dataset or baseline name failed; message lists options."""


class InvalidCoordError(XorlabError, IndexError):
    """Weight coordinate does not exist in the network."""


class CsvFormatError(XorlabError, ValueError):
    """Malformed CSV input; message names the offending line."""


class ModelFormatError(XorlabError, ValueError):
    """Malformed model document (bad JSON, missing fields, bad shapes)."""

"""Exception hierarchy for the HADAD reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming out of the library with one ``except`` clause while
still being able to distinguish the common failure modes.
"""


class ReproError(Exception):
    """Base class of every exception raised by this library."""


class ShapeError(ReproError):
    """Raised when the dimensions of an expression are inconsistent.

    Examples: multiplying a ``k x z`` matrix by an ``m x n`` one with
    ``z != m``, adding matrices of different shapes, or asking for the
    inverse / determinant / trace of a non-square matrix.
    """


class TypeMismatchError(ReproError):
    """Raised when an operator is applied to an operand of the wrong kind
    (e.g. a relational join over a scalar, or a matrix inverse of a table)."""


class UnknownMatrixError(ReproError):
    """Raised when an expression references a matrix name that is not
    registered in the catalog being used."""


class UnknownTableError(ReproError):
    """Raised when a relational expression references an unregistered table."""


class EncodingError(ReproError):
    """Raised when an expression cannot be encoded on the VREM schema."""


class DecodingError(ReproError):
    """Raised when a relational rewriting cannot be decoded back into a
    syntactically valid LA / hybrid expression."""


class ChaseError(ReproError):
    """Raised by the chase engines on malformed constraints or when an EGD
    attempts to equate two distinct constants (hard constraint violation)."""


class ChaseBudgetExceeded(ChaseError):
    """Raised (optionally) when a chase/saturation run hits its step or atom
    budget before reaching a fixpoint."""


class RewriteError(ReproError):
    """Raised when the optimizer cannot produce any equivalent rewriting
    (including the identity rewriting) for the given expression."""


class ExecutionError(ReproError):
    """Raised by execution backends when an expression cannot be evaluated."""


class CatalogError(ReproError):
    """Raised on invalid catalog registrations (duplicate names, bad
    metadata, inconsistent dimensions)."""


class ViewError(ReproError):
    """Raised when a materialized view definition is invalid (unnamed,
    non-materializable, or its definition fails shape checking)."""


class UnknownWorkspaceError(ReproError, KeyError):
    """Raised when a request or API call names a workspace that is not
    registered in the :class:`repro.api.WorkspaceRegistry` being used.  The
    message lists the registered workspace names; the gateway maps this to
    an HTTP 404."""

    # KeyError.__str__ renders repr(args[0]), which would wrap the message
    # in an extra layer of quotes in 404 bodies and tracebacks.
    __str__ = Exception.__str__


class ConfigError(ReproError, ValueError):
    """Raised when a :mod:`repro.config` dataclass is constructed with an
    invalid value.  The message always names the offending field, the value
    received and what would have been acceptable, so a misconfigured
    :class:`repro.api.Engine` fails at construction — not two layers down
    inside the planner or the gateway."""

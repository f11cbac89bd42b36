"""Exception hierarchy with stable machine-readable codes.

Every error carries a ``code`` (used verbatim in CLI error objects) and an
optional ``context`` dict with the offending indices or values.
"""

from __future__ import annotations


class KdqError(Exception):
    """Base class for all package errors."""

    code = "error"

    def __init__(self, message: str, **context):
        super().__init__(message)
        self.context = context


class ValidationError(KdqError):
    """An input object violates a structural invariant."""

    code = "validation"


class DimMismatchError(KdqError):
    code = "dim_mismatch"


class NotNormalizedError(KdqError):
    code = "not_normalized"


class BadRankError(KdqError):
    code = "bad_rank"


class SingularOverlapError(KdqError):
    """A basis overlap is too close to zero for a quotient to be stable."""

    code = "singular_overlap"


class BadSampleCountError(KdqError):
    code = "bad_sample_count"


class BadEpsilonError(KdqError):
    code = "bad_epsilon"


class EvenDimensionError(KdqError):
    code = "even_dimension"


class BadSlitsError(KdqError):
    code = "bad_slits"


class DegeneratePostselectionError(KdqError):
    code = "degenerate_postselection"


class ZeroCouplingError(KdqError):
    code = "zero_coupling"

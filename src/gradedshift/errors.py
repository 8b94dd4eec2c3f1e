"""Typed errors shared across the package.

The split matters for the CLI exit-code contract: ``InvalidInputError`` and
its subclasses map to exit code 2 (bad input, including typed refusals such
as a non-CNP kernel fed to the Chen identity, and ``ValidationError`` for a
config or manifest that breaks its schema), while ``CertificationError``
maps to exit code 1 (a property that should hold numerically did not).
"""

__all__ = [
    "GradedShiftError",
    "InvalidInputError",
    "ValidationError",
    "SeriesRangeError",
    "NotLeftInvertibleError",
    "NotContractiveError",
    "NotCnpError",
    "CertificationError",
]


class GradedShiftError(Exception):
    """Base class for all package errors."""


class InvalidInputError(GradedShiftError, ValueError):
    """Input violates a documented precondition."""


class ValidationError(InvalidInputError):
    """A config or manifest breaks its JSON schema.

    ``json_path`` names the field (``$`` for the whole document) and
    ``message`` says how; ``str()`` is ``"<json_path>: <message>"``.
    """

    def __init__(self, json_path: str, message: str):
        super().__init__(f"{json_path}: {message}")
        self.json_path = json_path
        self.message = message


class SeriesRangeError(InvalidInputError):
    """A series coefficient out of range: its index beyond the documented
    series cap, or its value beyond float range."""


class NotLeftInvertibleError(InvalidInputError):
    """Operator not bounded below at truncation scale.

    Carries the offending smallest singular value in ``sigma_min``.
    """

    def __init__(self, message: str, sigma_min: float):
        super().__init__(message)
        self.sigma_min = float(sigma_min)


class NotContractiveError(InvalidInputError):
    """A symbol fails its contractivity precondition, a certified upper bound
    ||M_Phi|| <= 1 + tol (a realization record, or the block coefficient
    bound of :mod:`gradedshift.purity`)."""


class NotCnpError(InvalidInputError):
    """Kernel fails the complete Nevanlinna-Pick sign test; refused."""


class CertificationError(GradedShiftError):
    """A post-hoc numerical certificate failed."""

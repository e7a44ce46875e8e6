"""Exception hierarchy.

Every domain failure derives from :class:`DomainError` and carries a
machine-readable ``witness`` dict sufficient to reproduce the failure.
The CLI maps DomainError to exit code 1 and InputFormatError to exit 2.
"""

from __future__ import annotations

from typing import Any


class DomainError(Exception):
    """Base class for domain-level failures."""

    def __init__(self, message: str, witness: dict[str, Any] | None = None):
        super().__init__(message)
        self.witness = witness if witness is not None else {}

    @property
    def name(self) -> str:
        return type(self).__name__


class InputFormatError(Exception):
    """Malformed external input (bad JSON, missing keys, bad shapes)."""


# group-core
class NotLatinSquare(DomainError):
    pass


class NoIdentity(DomainError):
    pass


class NotAssociative(DomainError):
    pass


class SizeLimitExceeded(DomainError):
    pass


# numerics
class NotHermitian(DomainError):
    pass


class ConvergenceFailure(DomainError):
    pass


class SingularInput(DomainError):
    pass


# characters
class DegenerateSpectrum(DomainError):
    pass


# positive definite functions / states
class NotHermitianSymmetric(DomainError):
    pass


class NotPositiveDefinite(DomainError):
    pass


class NotNormalized(DomainError):
    pass


class BadWeights(DomainError):
    pass


class GroupMismatch(DomainError):
    pass


# channels
class InternalDisagreement(DomainError):
    pass


# convex faces
class NotCentral(DomainError):
    pass


class BoundsViolation(DomainError):
    pass


# von Neumann structure
class DecompositionFailure(DomainError):
    pass


class NotIsomorphic(DomainError):
    pass


class DimensionMismatch(DomainError):
    pass


class NotAffine(DomainError):
    pass


class FitFailure(DomainError):
    pass

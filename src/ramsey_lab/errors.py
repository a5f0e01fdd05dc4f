"""Shared exception types for ramsey_lab."""

from __future__ import annotations


class CapExceededError(RuntimeError):
    """A search or a builder was asked to run beyond its fixed size cap.

    Raised loudly instead of silently truncating the search.
    """


class InfeasibleDensityError(RuntimeError):
    """No finite edge density makes the hole exponent nonpositive.

    Carries the nuisance parameter ``a`` at which the d-coefficient of the
    exponent is not certifiably negative while the constant part is positive.
    """

    def __init__(self, message: str, a: float | None = None):
        super().__init__(message)
        self.a = a

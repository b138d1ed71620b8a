"""Verdicts for promise-problem deciders, and the JSON form of their results."""
from __future__ import annotations

import dataclasses
import enum

from .linalg import matrix_to_json

# a decider counts a value within this of a threshold, times the scale of
# its values where that is not 1, as on the threshold, so a value that
# equals one in exact arithmetic gets the same verdict whatever order its
# sums were taken in
THRESHOLD_TOL = 1e-12


class Verdict(enum.Enum):
    YES = "YES"
    NO = "NO"
    PROMISE_VIOLATED = "PROMISE_VIOLATED"

    @classmethod
    def of(cls, yes: bool, no: bool) -> Verdict:
        """YES if ``yes`` holds, else NO if ``no`` holds; a value between the
        two thresholds violates the promise."""
        return cls.YES if yes else cls.NO if no else cls.PROMISE_VIOLATED


def threshold_verdict(value: float, a: float, b: float, tol: float,
                      yes_high: bool) -> Verdict:
    """The one tolerance rule of the slice and Hamiltonian deciders: a value
    within ``tol`` of a threshold counts as on it. With ``yes_high``, YES at
    or above b and NO at or below a; otherwise YES at or below a and NO at
    or above b. The deciders refuse b − a <= 2·tol, so no value is within
    the tolerance of both thresholds; ``ham-min``, which reports λ_min for
    any b > a, reads such a value by the YES side."""
    high, low = value >= b - tol, value <= a + tol
    return Verdict.of(high, low) if yes_high else Verdict.of(low, high)


class Report:
    """Base of result dataclasses whose JSON form is their fields."""

    def to_json(self) -> dict:
        """The fields by name, a verdict as its value and a complex number as
        its [re, im] pair; None fields are left out."""
        out = {}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, Verdict):
                value = value.value
            elif isinstance(value, complex):
                value = matrix_to_json(value)
            if value is not None:
                out[field.name] = value
        return out

"""Verdicts for promise-problem deciders, and the JSON form of their results."""
from __future__ import annotations

import dataclasses
import enum

from .linalg import matrix_to_json


class Verdict(enum.Enum):
    YES = "YES"
    NO = "NO"
    PROMISE_VIOLATED = "PROMISE_VIOLATED"

    @classmethod
    def of(cls, yes: bool, no: bool) -> Verdict:
        """YES if ``yes`` holds, else NO if ``no`` holds; a value between the
        two thresholds violates the promise."""
        return cls.YES if yes else cls.NO if no else cls.PROMISE_VIOLATED


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

"""Verdicts for promise-problem deciders, and the JSON form of their results."""
from __future__ import annotations

import dataclasses
import enum


class Verdict(enum.Enum):
    YES = "YES"
    NO = "NO"
    PROMISE_VIOLATED = "PROMISE_VIOLATED"

    def __str__(self) -> str:
        return self.value

    @classmethod
    def of(cls, yes: bool, no: bool) -> Verdict:
        """YES if ``yes`` holds, else NO if ``no`` holds; a value between the
        two thresholds violates the promise."""
        return cls.YES if yes else cls.NO if no else cls.PROMISE_VIOLATED


class Report:
    """Base of result dataclasses whose JSON form is their fields."""

    def to_json(self) -> dict:
        """The fields by name, a verdict as its value; None fields are left out."""
        out = {}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if value is not None:
                out[field.name] = value.value if isinstance(value, Verdict) else value
        return out

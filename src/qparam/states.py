"""Statevector container.

Convention used everywhere in this package: qubit 0 is the most significant
bit of a basis-state index, so |q0 q1 ... q_{n-1}> has index
sum(q_i << (n-1-i)).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .linalg import json_int, matrix_from_json, matrix_to_json


@dataclass
class StateVector:
    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        count = self.amplitudes.size if self.amplitudes.ndim == 1 else 0
        # bit lengths first: 2**num_qubits of a document can be astronomical
        if self.num_qubits != count.bit_length() - 1 or count != 2**self.num_qubits:
            raise InvalidInputError(
                f"expected 2^{self.num_qubits} amplitudes, "
                f"got {self.amplitudes.shape}"
            )

    @classmethod
    def zero(cls, num_qubits: int) -> "StateVector":
        return cls.basis(num_qubits, 0)

    @classmethod
    def basis(cls, num_qubits: int, index: int) -> "StateVector":
        if not 0 <= index < 2**num_qubits:
            raise InvalidInputError(f"basis index {index} out of range")
        amps = np.zeros(2**num_qubits, dtype=complex)
        amps[index] = 1.0
        return cls(num_qubits, amps)

    def to_json(self) -> dict:
        return {
            "num_qubits": self.num_qubits,
            "amplitudes": matrix_to_json(self.amplitudes),
        }

    @classmethod
    def from_json(cls, data: dict) -> "StateVector":
        try:
            num_qubits, amplitudes = data["num_qubits"], data["amplitudes"]
        except (KeyError, TypeError) as exc:
            raise InvalidInputError(f"malformed state JSON: {exc}") from exc
        return cls(json_int(num_qubits, "num_qubits"),
                   matrix_from_json([amplitudes])[0])

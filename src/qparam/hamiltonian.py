"""Local Hamiltonians, their weight-k restriction, and the slice decider.

A Hamiltonian is a sum of Hermitian blocks, each supported on a few qubits.
The weight-k restriction is one CSR matrix, assembled with vectorised bit
operations over the C(n, k) fixed-weight basis, one term at a time, without
ever forming the full 2^n matrix. The slice decider reads λ_min of that
matrix from the Lanczos loop of ``linalg.min_eigenvalue``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .circuits import apply_gate_matrix
from .decision import Report, Verdict
from .errors import InvalidInputError, require_within
from .linalg import (is_hermitian, json_finite, json_int, matrix_from_json,
                     min_eigenvalue)
from .states import StateVector
from .weightenum import WeightEnumeration

# COO entries (row, col, value: 32 B each) one restriction may hold, about 1 GB
RESTRICT_ENTRY_LIMIT = 2**25


@dataclass(frozen=True)
class LocalTerm:
    """One Hermitian block acting on a sorted tuple of qubits."""

    qubits: tuple[int, ...]
    block: np.ndarray

    def __post_init__(self):
        qs = tuple(self.qubits)
        object.__setattr__(self, "qubits", qs)
        if len(set(qs)) != len(qs) or any(q < 0 for q in qs):
            raise InvalidInputError(f"invalid support {qs}")
        if qs != tuple(sorted(qs)):
            raise InvalidInputError(f"support must be sorted, got {qs}")
        block = np.asarray(self.block, dtype=complex)
        object.__setattr__(self, "block", block)
        dim = 2 ** len(qs)
        if block.shape != (dim, dim):
            raise InvalidInputError(
                f"block shape {block.shape} does not match support size {len(qs)}"
            )
        if not is_hermitian(block):  # NaN and Inf fail too
            raise InvalidInputError("term block is not Hermitian within 1e-12")


@dataclass(frozen=True)
class LocalHamiltonian:
    n: int
    locality: int
    a: float
    b: float
    terms: tuple[LocalTerm, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if self.n <= 0:
            raise InvalidInputError("need at least one qubit")
        if self.b <= self.a:
            raise InvalidInputError(f"need b > a, got a={self.a}, b={self.b}")
        for term in self.terms:
            if len(term.qubits) > self.locality:
                raise InvalidInputError(
                    f"term on {term.qubits} exceeds locality {self.locality}"
                )
            if any(q >= self.n for q in term.qubits):
                raise InvalidInputError(f"term support {term.qubits} out of range")

    @classmethod
    def from_json(cls, data: dict) -> "LocalHamiltonian":
        try:
            terms = tuple(
                LocalTerm(tuple(json_int(q, "term qubit") for q in t["qubits"]),
                          matrix_from_json(t["matrix"]))
                for t in data["terms"]
            )
            return cls(
                json_int(data["n"], "n"), json_int(data["locality"], "locality"),
                json_finite(data["a"], "a"), json_finite(data["b"], "b"), terms,
            )
        except (KeyError, TypeError) as exc:
            raise InvalidInputError(f"malformed Hamiltonian JSON: {exc}") from exc


def _spread_bits(n: int, qubits: tuple[int, ...], local: int) -> int:
    """The n-qubit basis index holding ``local`` on ``qubits`` (first qubit =
    local MSB) and 0 elsewhere."""
    s = len(qubits)
    return sum(((local >> (s - 1 - pos)) & 1) << (n - 1 - q)
               for pos, q in enumerate(qubits))


def restrict_to_weight(h: LocalHamiltonian, k: int):
    """The Hamiltonian compressed to the weight-k sector, indexed by rank.

    Each term acts on the whole sector at once. Its local index is read from
    every basis state with shifts and masks. For each local input pattern and
    each nonzero block entry with an output pattern of the same weight (any
    other output leaves the sector), the states holding that input have the
    differing term bits flipped and are ranked by binary search in the
    increasing basis. Each block gives its strict upper triangle and half its
    diagonal's real part; the triples of all terms sum into one COO matrix U,
    and U + Uᴴ is exactly Hermitian: (r, c) and (c, r) add the same two floats.

    Returns a CSR matrix. Raises ``ResourceError`` before allocating anything
    when the basis plus the candidate entries, C(n, k) * (1 + sum of
    2^|support|), exceed ``RESTRICT_ENTRY_LIMIT``.
    """
    enum = WeightEnumeration(h.n, k)
    dim = enum.dim
    size = dim * (1 + sum(2 ** len(term.qubits) for term in h.terms))
    require_within(size, RESTRICT_ENTRY_LIMIT, f"weight-{k} restriction entries")
    basis = enum.indices()
    rows = [np.empty(0, dtype=np.intp)]
    cols = [np.empty(0, dtype=np.intp)]
    vals = [np.empty(0, dtype=complex)]
    for term in h.terms:
        local = np.zeros(dim, dtype=np.int64)
        for q in term.qubits:  # first qubit = local MSB
            local = (local << 1) | ((basis >> (h.n - 1 - q)) & 1)
        upper = np.triu(term.block, 1) + np.diag(term.block.diagonal().real / 2)
        for ix, iy in np.argwhere(upper).tolist():
            if ix.bit_count() != iy.bit_count():  # weight changed, outside the sector
                continue
            states = np.flatnonzero(local == ix)
            flip = _spread_bits(h.n, term.qubits, ix ^ iy)
            rows.append(states)
            cols.append(
                np.searchsorted(basis, basis[states] ^ flip) if flip else states
            )
            vals.append(np.full(len(states), upper[ix, iy]))
    half = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim), dtype=complex,
    )
    return half + half.conj().T


def expectation_value(h: LocalHamiltonian, state: StateVector) -> float:
    if state.num_qubits != h.n:
        raise InvalidInputError(
            f"state has {state.num_qubits} qubits, Hamiltonian has {h.n}"
        )
    total = 0.0
    psi = state.amplitudes
    for term in h.terms:
        applied = apply_gate_matrix(psi, h.n, term.qubits, term.block)
        total += np.vdot(psi, applied).real
    return float(total)


@dataclass(frozen=True)
class HamiltonianDecision(Report):
    verdict: Verdict
    lambda_min: float
    dim: int
    a: float
    b: float
    k: int


def decide_weight_k_local_hamiltonian(h: LocalHamiltonian, k: int) -> HamiltonianDecision:
    """Exact decision for the weight-k slice from λ_min of the restriction."""
    restricted = restrict_to_weight(h, k)
    lam = min_eigenvalue(restricted, mode="iterative")
    return HamiltonianDecision(Verdict.of(lam <= h.a, lam >= h.b), lam,
                               restricted.shape[0], h.a, h.b, k)

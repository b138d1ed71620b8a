"""Local Hamiltonians, their weight-k restriction, and the slice decider.

A Hamiltonian is a sum of Hermitian blocks, each supported on a few qubits.
The weight-k restriction is one CSR matrix, assembled with vectorised bit
operations over the C(n, k) fixed-weight basis, one pass for all the terms
of each support size, without ever forming the full 2^n matrix. The slice
decider reads λ_min of that matrix from the Lanczos loop of
``linalg.min_eigenvalue``.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .circuits import apply_gate_matrix
from .decision import THRESHOLD_TOL, Report, Verdict, threshold_verdict
from .errors import InvalidInputError, require_within
from .linalg import (is_hermitian, json_finite, json_int, matrix_from_json,
                     min_eigenvalue, spectral_scale)
from .states import StateVector
from .weightenum import WeightEnumeration

# basis states plus candidate entries one restriction may price,
# C(n, k)·(1 + Σ 2^|support|); the admitted n = 40, k = 4 boundary
# (60 pair terms, 2.2e7 priced) peaks at about 203 MiB VmHWM
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


def restrict_to_weight(h: LocalHamiltonian, k: int):
    """The Hamiltonian compressed to the weight-k sector, indexed by rank.

    The terms are taken in groups of one support size s, each group in one
    vectorised pass over the sector. The bits of every basis state at each
    qubit give a (terms, states) array of local indices (first qubit = local
    MSB). The block diagonals, gathered at those indices and summed over the
    terms, give the real diagonal. For each pair ix < iy of local patterns of
    the same weight (any other pair leaves the sector), the states holding ix
    under a term whose block entry (ix, iy) is nonzero have the differing
    term bits flipped and are ranked by binary search in the increasing
    basis; they are the strict upper triangle, since flipping ix up to iy
    raises the index. The upper entries are summed once, and the CSR matrix
    holds each sum S at (r, c), conj(S) at (c, r) and the diagonal, so it is
    Hermitian bit for bit however many terms share an entry. Entries that
    sum to zero are not stored.

    Returns a CSR matrix. Raises ``ResourceError`` before allocating anything
    when the basis plus the candidate entries, C(n, k) * (1 + sum of
    2^|support|), exceed ``RESTRICT_ENTRY_LIMIT``. scipy is imported here,
    not with the module, so that only the Hamiltonian commands load it.
    """
    import scipy.sparse as sp

    enum = WeightEnumeration(h.n, k)
    dim = enum.dim
    size = dim * (1 + sum(2 ** len(term.qubits) for term in h.terms))
    require_within(size, RESTRICT_ENTRY_LIMIT, f"weight-{k} restriction entries")
    basis = enum.indices()
    diag = np.zeros(dim)
    rows = [np.empty(0, dtype=np.intp)]
    cols = [np.empty(0, dtype=np.intp)]
    vals = [np.empty(0, dtype=complex)]
    groups: dict[int, list[LocalTerm]] = {}
    for term in h.terms:
        groups.setdefault(len(term.qubits), []).append(term)
    for s, terms in groups.items():
        qubits = np.array([t.qubits for t in terms], dtype=np.int64)
        shifts = h.n - 1 - qubits.reshape(len(terms), s)  # bit of each support qubit
        blocks = np.stack([t.block for t in terms])
        local = np.zeros((len(terms), dim), dtype=np.int64)
        for pos in range(s):  # first qubit = local MSB
            local <<= 1
            local |= (basis >> shifts[:, pos, None]) & 1
        diag += np.take_along_axis(
            blocks.diagonal(axis1=1, axis2=2).real, local, axis=1).sum(axis=0)
        for ix, iy in combinations(range(2**s), 2):
            if ix.bit_count() != iy.bit_count():  # weight changed, outside the sector
                continue
            (sel,) = np.nonzero(blocks[:, ix, iy])
            t, states = np.nonzero(local[sel] == ix)
            pattern = ((ix ^ iy) >> np.arange(s - 1, -1, -1)) & 1
            flip = (pattern << shifts[sel]).sum(axis=1)
            rows.append(states)
            cols.append(np.searchsorted(basis, basis[states] ^ flip[t]))
            vals.append(blocks[sel, ix, iy][t])
    upper = sp.csr_matrix(  # sums the entries that terms share
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim),
    ).tocoo()
    ranks = np.arange(dim)
    out = sp.csr_matrix(
        (np.concatenate([upper.data, upper.data.conj(), diag]),
         (np.concatenate([upper.row, upper.col, ranks]),
          np.concatenate([upper.col, upper.row, ranks]))),
        shape=(dim, dim),
    )
    out.eliminate_zeros()
    return out


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


def weight_k_min_eigenvalue(h: LocalHamiltonian, k: int) -> HamiltonianDecision:
    """λ_min of the weight-k restriction (``ham-min``), for any b > a, with
    the verdict of the slice's one rule: YES at or below a, NO at or above b,
    each within tol = ``THRESHOLD_TOL``·σ, σ the restriction's
    :func:`linalg.spectral_scale`, since the eigensolver's last bits grow
    with |λ| < σ. Where b − a <= 2·tol a value within tol of both reads YES."""
    restricted = restrict_to_weight(h, k)
    return _slice_decision(h, k, restricted, spectral_scale(restricted))


def decide_weight_k_local_hamiltonian(h: LocalHamiltonian, k: int) -> HamiltonianDecision:
    """Exact decision for the weight-k slice (``ham-decide``): the verdict of
    :func:`weight_k_min_eigenvalue`, but b − a <= 2·tol is refused after the
    restriction and before the eigensolve, so no λ_min is within the
    tolerance of both thresholds."""
    restricted = restrict_to_weight(h, k)
    sigma = spectral_scale(restricted)
    if not h.b - h.a > 2 * THRESHOLD_TOL * sigma:
        raise InvalidInputError(
            f"need b - a > 2*THRESHOLD_TOL*sigma = {2 * THRESHOLD_TOL * sigma:g} "
            f"(sigma = {sigma:g}, the restriction's largest row sum + 1), "
            f"got a={h.a}, b={h.b}")
    return _slice_decision(h, k, restricted, sigma)


def _slice_decision(h: LocalHamiltonian, k: int, restricted,
                    sigma: float) -> HamiltonianDecision:
    lam = min_eigenvalue(restricted, mode="iterative")
    verdict = threshold_verdict(lam, h.a, h.b, THRESHOLD_TOL * sigma, yes_high=False)
    return HamiltonianDecision(verdict, lam, restricted.shape[0], h.a, h.b, k)

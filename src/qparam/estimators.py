"""Monte-Carlo estimators, exact slice deciders, and the maximally-mixed-
witness decision procedure.

Sampling is emulated: the zeros among one part's m Hadamard tests are one
Binomial(m, p₀) count, p₀ = (1 + Re or Im ⟨ψ|U|ψ⟩)/2 exactly. Randomness
comes from a counter-based Philox generator keyed by (seed, stream), so
results are reproducible under any execution order.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace
from decimal import Context, Decimal
from functools import reduce
from math import ceil, comb, inf, isfinite, log, sqrt, ulp

import numpy as np

from .circuits import (
    QuantumCircuit,
    StateVector,
    accept_light_cone,
    accept_projected_columns,
    hadamard_test_unitary,
    simulate,
)
from .decision import Report, Verdict
from .errors import InvalidInputError, require_within
from .linalg import full_spectrum
from .weightenum import INDEX_BITS, WeightEnumeration

EXACT_GAP_LIMIT = 20
QMAK_QUBIT_LIMIT = 12
# maximally-mixed-witness traces 2^k·Pr[accept]: YES at or above, NO at or below
QMAK_YES_TRACE = 2 / 3
QMAK_NO_TRACE = 1 / 3
CLASSICAL_GATES = ("X", "CX", "TOFFOLI")
# Hoeffding samples of any estimate; only gapp-estimate holds them (8 B each)
SAMPLE_LIMIT = 2**24
# bytes that GapInstance.evaluate holds, 256 MiB; refused before any path is drawn
GAP_ENTRY_LIMIT = 2**28


def rng_stream(seed: int, stream: int) -> np.random.Generator:
    """Counter-based generator for one named stream of a seed in [0, 2^64)."""
    if not 0 <= seed < 2**64:
        raise InvalidInputError(f"seed must lie in [0, 2^64), got {seed}")
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_count(tau: float, delta: float) -> int:
    """Hoeffding sample count for a mean of ±1 variables: additive error tau
    with failure probability delta; ``ResourceError`` past ``SAMPLE_LIMIT``."""
    if not 0 < tau < inf:
        raise InvalidInputError(f"tau must be positive and finite, got {tau}")
    if not 0 < delta < 1:
        raise InvalidInputError(f"delta must lie in (0,1), got {delta}")
    # every τ ≥ 64 takes 1 sample (2 ln(2/δ) < 1420 < 64²); τ² over- or underflows
    count = 2 * log(2 / delta) / max(min(tau, 64.0) ** 2, ulp(0.0))
    if count == inf:  # τ below about 1e-154: 3 digits of the exact quotient
        count = Context(prec=3).divide(Decimal(2 * log(2 / delta)), Decimal(tau) ** 2)
    require_within(count, SAMPLE_LIMIT, f"samples for tau {tau}:")
    return ceil(count)


@dataclass(frozen=True)
class EstimateReport(Report):
    value: complex | float
    tau: float
    delta: float
    samples: int
    seed: int
    mode: str
    bound: float
    warning: bool | None = None  # True, or None and left out of the JSON

    def __post_init__(self):  # τ·√2 overflows near the float maximum; JSON has no Inf
        if not isfinite(self.bound):
            raise InvalidInputError(f"tau {self.tau} gives a bound past the float range")


def sample_amplitude(q: complex, tau: float, delta: float, seed: int) -> EstimateReport:
    """Estimate of a known amplitude q = ⟨ψ|U|ψ⟩ from emulated Hadamard tests;
    |q̃ − q| ≤ τ·√2 except with probability 2δ. A test measures 0 with
    probability p₀ = (1 + Re q)/2, or (1 + Im q)/2 with S† before the last H;
    each part is the mean (2z − m)/m of m(τ, δ) outcomes ±1, one draw of
    z ~ Binomial(m, p₀) zeros on stream 0 (Re) or 1 (Im)."""
    m = sample_count(tau, delta)
    parts = []
    for stream, part in enumerate((q.real, q.imag)):
        p_zero = min(1.0, max(0.0, (1.0 + part) / 2))
        parts.append((2 * rng_stream(seed, stream).binomial(m, p_zero) - m) / m)
    return EstimateReport(
        value=complex(*parts), tau=tau, delta=delta, samples=m,
        seed=seed, mode="additive", bound=tau * sqrt(2.0),
    )


def estimate_amplitude(
    unitary: np.ndarray,
    prep: QuantumCircuit | None,
    tau: float,
    delta: float,
    seed: int,
) -> EstimateReport:
    """Estimate q = ⟨ψ|U|ψ⟩, ψ the prep circuit's output on |0…0⟩ (|0…0⟩
    itself without one); |q̃ − q| ≤ τ·√2 except with probability 2δ."""
    u, num_sys = hadamard_test_unitary(unitary, prep)
    if prep is None:
        psi = StateVector.zero(num_sys).amplitudes
    else:
        psi = simulate(prep, StateVector.zero(prep.witness_qubits)).amplitudes
    return sample_amplitude(complex(np.vdot(psi, u @ psi)), tau, delta, seed)


def estimate_amplitude_multiplicative(
    unitary: np.ndarray,
    prep: QuantumCircuit | None,
    epsilon: float,
    delta: float,
    lower_bound: float,
    seed: int,
) -> EstimateReport:
    """Relative-error variant: |q̃ − q| ≤ ε·|q| whenever |q| ≥ lower_bound.

    It runs the additive estimate at τ = ε·L/√2. An ε·L past the float range
    is refused; a τ that underflows to 0 runs as the least positive float, so
    its sample count is refused like that of any τ too small to schedule."""
    for name, value in (("lower bound", lower_bound), ("epsilon", epsilon)):
        if not 0 < value < inf:
            raise InvalidInputError(f"{name} must be positive and finite, got {value}")
    bound = epsilon * lower_bound
    if bound == inf:
        raise InvalidInputError(f"epsilon {epsilon} times lower bound {lower_bound} "
                                f"is past the float range")
    tau = max(bound / sqrt(2.0), ulp(0.0))
    base = estimate_amplitude(unitary, prep, tau, delta, seed)
    warning = abs(base.value) < lower_bound * (1.0 - epsilon)
    return replace(base, mode="multiplicative", bound=bound,
                   warning=bool(warning) or None)


@dataclass(frozen=True)
class GapInstance:
    """Deterministic path predicate: a circuit of classical reversible gates
    evaluated on basis states of the path register."""

    path_bits: int
    predicate: QuantumCircuit

    def __post_init__(self):
        if self.path_bits <= 0:
            raise InvalidInputError("need at least one path bit")
        if self.predicate.witness_qubits != self.path_bits:
            raise InvalidInputError(
                f"predicate expects {self.predicate.witness_qubits} witness "
                f"qubits, instance has {self.path_bits} path bits"
            )
        for gate in self.predicate.gates:
            if gate.name not in CLASSICAL_GATES:
                raise InvalidInputError(
                    f"gate {gate.name} is not classical; allowed: "
                    f"{CLASSICAL_GATES}"
                )

    @classmethod
    def from_json(cls, data: dict) -> "GapInstance":
        if data.get("classical_only") is not True:
            raise InvalidInputError("gap instance JSON must set classical_only to true")
        circuit = QuantumCircuit.from_json(data)
        return cls(circuit.witness_qubits, circuit)

    def evaluate(self, indices: np.ndarray) -> np.ndarray:
        """Accept bit (bool) of each path index, wire 0 = most significant bit.

        Holds one bool array per wire that a gate or the accept qubit reads:
        a path wire starts as its bit of the indices, an ancilla as zeros."""
        p = self.path_bits
        wires = {}

        def wire(q: int) -> np.ndarray:
            if q not in wires:
                wires[q] = (((indices >> (p - 1 - q)) & 1).astype(bool) if q < p
                            else np.zeros(len(indices), dtype=bool))
            return wires[q]

        for gate in self.predicate.gates:
            # X, CX and TOFFOLI flip the target where every control reads 1
            # (X has none, so it flips every path)
            controls = [wire(c) for c in gate.controls]
            fire = reduce(np.logical_and, controls) if controls else True
            wires[gate.targets[0]] = wire(gate.targets[0]) ^ fire
        return wire(self.predicate.accept_qubit)

    def require_evaluable(self, paths: int) -> None:
        """Refuse ``paths`` paths past ``GAP_ENTRY_LIMIT`` bytes of :meth:`evaluate`:
        each path's int64 index, one int64 temporary and a bool per wire held."""
        circuit = self.predicate
        wires = {circuit.accept_qubit}.union(*(g.wires for g in circuit.gates))
        require_within(paths * (16 + len(wires)), GAP_ENTRY_LIMIT, "gap evaluator bytes")


def exact_gap(instance: GapInstance) -> int:
    """(#accepting − #rejecting) over all 2^p paths, by full enumeration."""
    p = instance.path_bits
    require_within(p, EXACT_GAP_LIMIT, "path bits")
    instance.require_evaluable(2**p)
    accepted = int(np.sum(instance.evaluate(np.arange(2**p, dtype=np.int64))))
    return 2 * accepted - 2**p


def estimate_gap(
    instance: GapInstance, tau_rel: float, delta: float, seed: int
) -> EstimateReport:
    """Unbiased g̃ = (2^p/m)·ΣX_i from uniformly sampled paths;
    |g̃ − g| ≤ τ_rel·2^p except with probability δ. Paths are drawn as
    int64 indices, so at most ``INDEX_BITS`` path bits are accepted."""
    p = instance.path_bits
    require_within(p, INDEX_BITS, "path bits")
    m = sample_count(tau_rel, delta)
    instance.require_evaluable(m)
    indices = rng_stream(seed, 0).integers(0, 2**p, size=m)
    accepted = int(np.sum(instance.evaluate(indices)))
    value = 2**p / m * (2 * accepted - m)
    return EstimateReport(
        value=value, tau=tau_rel, delta=delta, samples=m, seed=seed,
        mode="additive", bound=tau_rel * 2**p,
    )


def _accept_columns(circuit: QuantumCircuit, witness: Callable) -> np.ndarray:
    """Accept-projected columns of the witness indices ``witness()`` builds
    once the whole circuit passes the qubit limit, evolved through the accept
    qubit's backward light cone only: the gates outside it cancel in U†Π₁U."""
    require_within(circuit.total_qubits, QMAK_QUBIT_LIMIT, "circuit qubits")
    return accept_projected_columns(accept_light_cone(circuit), witness())


def qmak_operator(verifier: QuantumCircuit, k: int) -> tuple[np.ndarray, float]:
    """The positive-semidefinite operator Q on the k-qubit witness register
    whose diagonal sums to 2^k times the maximally-mixed acceptance.

    Q = ⟨w,0|U†Π₁U|w′,0⟩ is the Gram matrix of the accept-projected columns
    of all 2^k witness basis states."""
    if verifier.witness_qubits != k:
        raise InvalidInputError(
            f"verifier has {verifier.witness_qubits} witness qubits, expected {k}"
        )
    phi = _accept_columns(verifier, lambda: np.arange(2**k))
    q = phi.conj().T @ phi
    return q, float(np.trace(q).real)


@dataclass(frozen=True)
class QmakDecision(Report):
    verdict: Verdict
    accept_probability: float
    trace: float
    k: int


def qmak_decide(verifier: QuantumCircuit, k: int) -> QmakDecision:
    """Decide by running the verifier on the maximally mixed witness:
    Pr[accept] = 2^{-k}·Tr(Q), compared against the rescaled thresholds."""
    _, trace = qmak_operator(verifier, k)
    verdict = Verdict.of(trace >= QMAK_YES_TRACE, trace <= QMAK_NO_TRACE)
    return QmakDecision(verdict, trace / 2**k, trace, k)


def amplify_gap(p_single: float, repetitions: int) -> float:
    """Majority vote over independent repetitions: the binomial upper tail."""
    if repetitions % 2 != 1 or repetitions < 1:
        raise InvalidInputError(f"repetitions must be odd, got {repetitions}")
    if not 0 <= p_single <= 1:
        raise InvalidInputError(f"probability out of range: {p_single}")
    r = repetitions
    return float(
        sum(
            comb(r, j) * p_single**j * (1 - p_single) ** (r - j)
            for j in range(r // 2 + 1, r + 1)
        )
    )


@dataclass(frozen=True)
class SliceDecision(Report):
    verdict: Verdict
    max_acceptance: float
    a: float
    b: float
    k: int
    table: dict | None = None


def _weight_k_columns(
    circuit: QuantumCircuit, k: int, a: float, b: float
) -> tuple[WeightEnumeration, np.ndarray]:
    """The weight-k witness basis and its accept-projected columns for both slice
    deciders, checking b > a, then the enumeration, then the qubit limit."""
    if b <= a:
        raise InvalidInputError(f"need b > a, got a={a}, b={b}")
    enum = WeightEnumeration(circuit.witness_qubits, k)
    return enum, _accept_columns(circuit, enum.indices)


def decide_weight_qcs_exact(
    circuit: QuantumCircuit, k: int, a: float, b: float
) -> SliceDecision:
    """Maximum acceptance over all weight-k witness states, exactly: the
    largest eigenvalue of the Gram matrix of the weight-k basis's
    accept-projected columns."""
    _, phi = _weight_k_columns(circuit, k, a, b)
    gram = phi.conj().T @ phi
    lam_max = float(full_spectrum(gram)[-1])
    return SliceDecision(Verdict.of(lam_max >= b, lam_max <= a), lam_max, a, b, k)


def decide_hamming_weight_qcs_exact(
    circuit: QuantumCircuit, k: int, a: float, b: float
) -> SliceDecision:
    """Maximum acceptance over weight-k basis-string witnesses, exactly.

    Each string's acceptance is the squared norm of its accept-projected
    column."""
    enum, phi = _weight_k_columns(circuit, k, a, b)
    # squared column norms: the diagonal of the Gram matrix wqcs diagonalises
    accept = np.sum(np.abs(phi) ** 2, axis=0)
    table = dict(zip(enum.strings(), accept.tolist()))
    best = max(table.values())
    return SliceDecision(Verdict.of(best >= b, best <= a), float(best), a, b, k, table)

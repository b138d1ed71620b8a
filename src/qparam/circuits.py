"""Circuit IR, statevector simulation, weft metrics, and witness gadgets.

Wire convention: wires are numbered 0..(witness_qubits + ancilla_qubits - 1),
witness wires first; qubit 0 is the most significant bit of a basis index.
For multi-wire gates the first wire in (controls + targets) order supplies
the most significant bit of the gate's local matrix index.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from math import ceil, comb, log2

import numpy as np

from .decision import Report
from .errors import InvalidInputError, require_within
from .linalg import json_int, matrix_from_json, require_unitary
from .states import StateVector
from .weightenum import WeightEnumeration

SUPPORT_TOL = 1e-12

_SQ = 1 / np.sqrt(2)
NAMED_1Q = {
    "H": np.array([[_SQ, _SQ], [_SQ, -_SQ]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1, -1]).astype(complex),
    "S": np.diag([1, 1j]).astype(complex),
    "SDG": np.diag([1, -1j]).astype(complex),
    "T": np.diag([1, np.exp(1j * np.pi / 4)]).astype(complex),
}
NAMED_2Q = {
    "CX": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
    "SWAP": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
}
# gates with one nonzero per column; the rest (H, UNITARY) are dense
MONOMIAL_GATES = frozenset(
    ("X", "Y", "Z", "S", "SDG", "T", "CX", "CZ", "SWAP", "TOFFOLI")
)
_DIAGONAL_PHASE = {
    "Z": -1 + 0j, "S": 1j, "SDG": -1j, "T": np.exp(1j * np.pi / 4), "CZ": -1 + 0j
}
# witness columns evolved at once, which bounds the block to 2^total × 64
WITNESS_CHUNK = 64
# widest state decode_weight_witness expands: 2^20 amplitudes, 16 MiB
DECODE_QUBIT_LIMIT = 20


@dataclass(frozen=True)
class Gate:
    """One gate: a named gate, a generalized Toffoli, or a unitary block."""

    name: str
    controls: tuple[int, ...] = ()
    targets: tuple[int, ...] = ()
    matrix: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "controls", tuple(self.controls))
        object.__setattr__(self, "targets", tuple(self.targets))
        wires = self.wires
        if len(set(wires)) != len(wires) or any(w < 0 for w in wires):
            raise InvalidInputError(f"gate {self.name}: invalid wires {wires}")
        if self.matrix is not None and self.name != "UNITARY":
            raise InvalidInputError(f"gate {self.name} takes no matrix")
        if self.name in NAMED_1Q:
            if self.controls or len(self.targets) != 1:
                raise InvalidInputError(f"{self.name} takes exactly one target")
        elif self.name in NAMED_2Q:
            ctl = 1 if self.name in ("CX", "CZ") else 0
            if len(self.controls) != ctl or len(self.targets) != 2 - ctl:
                raise InvalidInputError(f"{self.name}: bad wire counts")
        elif self.name == "TOFFOLI":
            if len(self.controls) < 2 or len(self.targets) != 1:
                raise InvalidInputError(
                    "TOFFOLI needs at least two controls and one target"
                )
        elif self.name == "UNITARY":
            if self.controls or not self.targets or self.matrix is None:
                raise InvalidInputError("UNITARY needs targets and a matrix")
            m = np.asarray(self.matrix, dtype=complex)
            dim = 2 ** len(self.targets)
            if m.shape != (dim, dim):
                raise InvalidInputError(
                    f"UNITARY matrix shape {m.shape} does not fit "
                    f"{len(self.targets)} targets"
                )
            object.__setattr__(self, "matrix", require_unitary(m))
        else:
            raise InvalidInputError(f"unknown gate name {self.name!r}")

    @property
    def wires(self) -> tuple[int, ...]:
        return self.controls + self.targets

    def local_matrix(self) -> np.ndarray:
        if self.name in NAMED_1Q:
            return NAMED_1Q[self.name]
        if self.name in NAMED_2Q:
            return NAMED_2Q[self.name]
        if self.name == "TOFFOLI":
            dim = 2 ** len(self.wires)
            m = np.eye(dim, dtype=complex)
            # flip the target (last wire) when every control bit is 1
            m[[dim - 2, dim - 1]] = m[[dim - 1, dim - 2]]
            return m
        return self.matrix

    def is_weft_gate(self) -> bool:
        """Generalized Toffolis and unitary blocks on three or more wires."""
        return self.name == "TOFFOLI" or (
            self.name == "UNITARY" and len(self.targets) >= 3
        )

    @classmethod
    def from_json(cls, data: dict) -> "Gate":
        try:
            name = str(data["name"])
            controls = tuple(data.get("controls", ()))
            targets = tuple(data.get("targets", ()))
            matrix = data.get("matrix")
        except (KeyError, TypeError) as exc:
            raise InvalidInputError(f"malformed gate JSON: {exc}") from exc
        return cls(
            name,
            tuple(json_int(w, "gate wire") for w in controls),
            tuple(json_int(w, "gate wire") for w in targets),
            matrix_from_json(matrix) if matrix is not None else None,
        )


@dataclass(frozen=True)
class QuantumCircuit:
    witness_qubits: int
    ancilla_qubits: int
    gates: tuple[Gate, ...]
    accept_qubit: int

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        total = self.total_qubits
        if self.witness_qubits < 0 or self.ancilla_qubits < 0 or total == 0:
            raise InvalidInputError("circuit needs at least one qubit")
        if not 0 <= self.accept_qubit < total:
            raise InvalidInputError(f"accept qubit {self.accept_qubit} out of range")
        for gate in self.gates:
            if any(w >= total for w in gate.wires):
                raise InvalidInputError(
                    f"gate {gate.name} wires {gate.wires} out of range for "
                    f"{total} qubits"
                )

    @property
    def total_qubits(self) -> int:
        return self.witness_qubits + self.ancilla_qubits

    @classmethod
    def from_json(cls, data: dict) -> "QuantumCircuit":
        keys = ("witness_qubits", "ancilla_qubits", "accept_qubit")
        try:
            witness, ancilla, accept = (data[key] for key in keys)
            gates = list(data["gates"])
        except (KeyError, TypeError) as exc:
            raise InvalidInputError(f"malformed circuit JSON: {exc}") from exc
        return cls(
            json_int(witness, keys[0]),
            json_int(ancilla, keys[1]),
            tuple(Gate.from_json(g) for g in gates),
            json_int(accept, keys[2]),
        )


def apply_gate_matrix(
    amplitudes: np.ndarray, num_qubits: int, wires: tuple[int, ...], matrix: np.ndarray
) -> np.ndarray:
    """Apply a 2^|wires| matrix on the given wires (first wire = local MSB).

    ``amplitudes`` is one state, shape (2^num_qubits,), or a block of states
    in its columns, shape (2^num_qubits, W); the result has the same shape.
    """
    s = len(wires)
    first = min(wires)
    shape = amplitudes.shape
    tensor_shape = [2] * num_qubits + list(shape[1:])
    # The wires before the first gate wire stay in front as a batch axis, so
    # a gate on an ascending run of adjacent wires is applied without a
    # transposed copy. The column axis is never a wire, so it stays last.
    rest = [q for q in range(len(tensor_shape)) if q not in wires]
    order = rest[:first] + list(wires) + rest[first:]
    moved = np.transpose(amplitudes.reshape(tensor_shape), order)
    moved = (matrix @ moved.reshape(2**first, 2**s, -1)).reshape(tensor_shape)
    return np.transpose(moved, np.argsort(order)).reshape(shape)


def _monomial_map(gate: Gate, index: np.ndarray, num_qubits: int, position):
    """A monomial gate as (source, phase) over all basis indices.

    The gate maps amplitudes as out[i] = phase[i] · in[source[i]]; ``None``
    stands for the identity source or a unit phase. ``position[w]`` is the
    bit position that holds wire w.
    """
    def bit(wire):
        return 1 << (num_qubits - 1 - position[wire])

    if gate.name in _DIAGONAL_PHASE:
        # the phase applies where every wire of the gate reads 1
        mask = sum(bit(w) for w in gate.wires)
        return None, np.where((index & mask) == mask, _DIAGONAL_PHASE[gate.name], 1)
    if gate.name == "SWAP":
        a, b = (bit(w) for w in gate.targets)
        differ = ((index & a) == 0) != ((index & b) == 0)
        return np.where(differ, index ^ (a | b), index), None
    # X, Y, CX, TOFFOLI flip the target where every control reads 1
    target = bit(gate.targets[0])
    controls = sum(bit(w) for w in gate.controls)
    source = np.where((index & controls) == controls, index ^ target, index)
    if gate.name == "Y":
        return source, np.where((index & target) != 0, 1j, -1j)
    return source, None


def _compile(
    circuit: QuantumCircuit, keep: np.ndarray | None = None
) -> Iterator[tuple]:
    """The circuit as steps (source, phase, dense gate), generated lazily.

    A step gathers the block's rows by ``source``, scales them by ``phase``
    (either may be ``None``), then applies its dense gate, if any, to the
    top bit positions 0..s-1. Each run of monomial gates between two dense
    gates folds into one index map, so it costs O(2^total) once rather than
    O(2^total · W) per block. Each map holds O(2^total) memory, so one block
    consumes the steps as they come.

    The block's bit positions hold the wires in a tracked order
    (``layout[p]`` is the wire at position p). A dense gate whose wires are
    not an ascending adjacent run, or that follows a pending gather, first
    has its wires moved to the top positions in gate order; that row
    permutation folds into the pending map like a monomial gate, so the gate
    is one GEMM on a view. The last step restores the wire order and keeps
    only the rows ``keep`` (all rows when ``None``).
    """
    n = circuit.total_qubits
    index = np.arange(2**n)
    axes = index.reshape([2] * n)
    layout = list(range(n))
    source = phase = None

    def fold(g_source, g_phase):
        nonlocal source, phase
        if g_source is not None:
            source = g_source if source is None else source[g_source]
            phase = None if phase is None else phase[g_source]
        if g_phase is not None:
            phase = g_phase if phase is None else g_phase * phase

    def relayout(order):
        # the row permutation that puts the wires of ``order`` at positions 0..n-1
        position = {w: p for p, w in enumerate(layout)}
        fold(axes.transpose([position[w] for w in order]).ravel(), None)
        layout[:] = order

    for gate in circuit.gates:
        position = {w: p for p, w in enumerate(layout)}
        if gate.name in MONOMIAL_GATES:
            fold(*_monomial_map(gate, index, n, position))
            continue
        wires = [position[w] for w in gate.wires]
        s = len(wires)
        adjacent = wires == list(range(wires[0], wires[0] + s))
        if wires != list(range(s)) and (source is not None or not adjacent):
            relayout(list(gate.wires) + [w for w in layout if w not in gate.wires])
            wires = list(range(s))
        yield source, phase, (gate, tuple(wires))
        source = phase = None
    if layout != list(range(n)):
        relayout(list(range(n)))
    if keep is not None:
        fold(keep, None)
    yield source, phase, None


def _evolve(steps: Iterable[tuple], block: np.ndarray, num_qubits: int) -> np.ndarray:
    """Apply compiled steps to every column of a (rows, W) block.

    The block is scaled in place, so the caller hands over its ownership.
    """
    for source, phase, dense in steps:
        if source is not None:
            block = block[source]
        if phase is not None:
            # in place: a fresh broadcast product costs several times more
            block *= phase[:, None]
        if dense is not None:
            gate, wires = dense
            block = apply_gate_matrix(block, num_qubits, wires, gate.local_matrix())
    return block


def simulate(circuit: QuantumCircuit, input_state: StateVector) -> StateVector:
    """Run the circuit on input ⊗ |0...0⟩ over the ancilla wires."""
    if input_state.num_qubits != circuit.witness_qubits:
        raise InvalidInputError(
            f"input has {input_state.num_qubits} qubits, circuit expects "
            f"{circuit.witness_qubits} witness qubits"
        )
    n = circuit.total_qubits
    block = np.zeros((2**n, 1), dtype=complex)
    # witness wires are the most significant bits, ancillas trail as |0>
    block[:: 2**circuit.ancilla_qubits, 0] = input_state.amplitudes
    return StateVector(n, _evolve(_compile(circuit), block, n)[:, 0])


def accept_projected_columns(
    circuit: QuantumCircuit, witness_indices: np.ndarray
) -> np.ndarray:
    """The accept rows of U|w, 0...0⟩ for witness basis indices w, as the
    columns of a (2^(total-1), W) array.

    The accept rows are the basis indices whose accept qubit reads 1, in
    ascending order; the rows that Π₁ zeroes are left out. The circuit is
    compiled once, holding one index map per dense gate, and the columns are
    evolved ``WITNESS_CHUNK`` at a time.
    """
    n = circuit.total_qubits
    rows = np.asarray(witness_indices, dtype=np.int64) << circuit.ancilla_qubits
    accept = np.flatnonzero((np.arange(2**n) >> (n - 1 - circuit.accept_qubit)) & 1)
    steps = list(_compile(circuit, accept))
    # Each block starts past the first index map: basis column w is the one
    # row that the map gathers from row w, scaled by that row's phase.
    source, phase, dense = steps[0]
    steps[0] = (None, None, dense)
    if source is None:
        source = np.arange(2**n)
    landing = np.full(2**n, -1)
    landing[source] = np.arange(len(source))
    at = landing[rows]
    # a witness the map drops (at = -1) writes 0 into the last row of its
    # own column, which is zero anyway
    value = np.where(at >= 0, 1 if phase is None else phase[at], 0)
    out = np.empty((2 ** (n - 1), len(rows)), dtype=complex)
    for start in range(0, len(rows), WITNESS_CHUNK):
        chunk = slice(start, start + WITNESS_CHUNK)
        width = len(at[chunk])
        block = np.zeros((len(source), width), dtype=complex)
        block[at[chunk], np.arange(width)] = value[chunk]
        out[:, chunk] = _evolve(steps, block, n)
    return out


def accept_light_cone(circuit: QuantumCircuit) -> QuantumCircuit:
    """The circuit cut to the accept qubit's backward light cone.

    Walking back from the accept qubit, a gate is kept when its wires meet
    the live set, and its wires then join it; the kept gates stay in order.
    Each dropped gate commutes with every later kept gate and with Π₁, so it
    cancels in U†Π₁U: the accept rows of U|x⟩ change only by a unitary on
    those rows, which leaves every Gram matrix of them unchanged.
    """
    live = {circuit.accept_qubit}
    kept = []
    for gate in reversed(circuit.gates):
        if not live.isdisjoint(gate.wires):
            live.update(gate.wires)
            kept.append(gate)
    return replace(circuit, gates=tuple(reversed(kept)))


def acceptance_probability(circuit: QuantumCircuit, input_state: StateVector) -> float:
    """Probability of measuring the accept qubit as 1 on the output state."""
    out = simulate(circuit, input_state)
    n = circuit.total_qubits
    tensor = out.amplitudes.reshape([2] * n)
    slice_one = np.take(tensor, 1, axis=circuit.accept_qubit)
    return float(np.sum(np.abs(slice_one) ** 2))


@dataclass(frozen=True)
class CircuitMetrics(Report):
    weft: int
    depth: int
    size: int


def circuit_metrics(circuit: QuantumCircuit) -> CircuitMetrics:
    """Weft and depth by a longest-path sweep over the wire-ordered gate DAG.

    Levels are kept only for the wires that some gate touches, so the cost is
    O(gates) however many wires the circuit declares."""
    weft_level: dict[int, int] = {}
    depth_level: dict[int, int] = {}
    for gate in circuit.gates:
        wires = gate.wires
        w = max(weft_level.get(q, 0) for q in wires) + int(gate.is_weft_gate())
        d = max(depth_level.get(q, 0) for q in wires) + 1
        for q in wires:
            weft_level[q] = w
            depth_level[q] = d
    return CircuitMetrics(
        weft=max(weft_level.values(), default=0),
        depth=max(depth_level.values(), default=0),
        size=len(circuit.gates),
    )


def project_weight_k(state: StateVector, k: int) -> tuple[StateVector, float]:
    """Normalized projection onto the weight-k sector and its probability.

    Probability 0 yields the (unnormalizable) zero vector as the flag state.
    """
    n = state.num_qubits
    projected = np.zeros(2**n, dtype=complex)
    if 0 <= k <= n:
        indices = WeightEnumeration(n, k).indices()
        projected[indices] = state.amplitudes[indices]
    prob = float(np.sum(np.abs(projected) ** 2))
    if prob == 0.0:
        return StateVector(n, np.zeros(2**n, dtype=complex)), 0.0
    return StateVector(n, projected / np.sqrt(prob)), prob


def compressed_qubits(n: int, k: int) -> int:
    """ceil(log2 C(n,k)) qubits for the rank register, in exact integers."""
    return (comb(n, k) - 1).bit_length()


def encode_weight_witness(n: int, k: int, state: StateVector) -> StateVector:
    """Transport amplitudes from weight-k strings to their ranks."""
    if state.num_qubits != n:
        raise InvalidInputError(f"state has {state.num_qubits} qubits, expected {n}")
    enum = WeightEnumeration(n, k)
    indices = enum.indices()
    off_support = np.abs(state.amplitudes).copy()
    off_support[indices] = 0.0
    if np.max(off_support, initial=0.0) > SUPPORT_TOL:
        raise InvalidInputError(
            f"state has amplitude outside the weight-{k} sector"
        )
    m = compressed_qubits(n, k)
    out = np.zeros(2**m, dtype=complex)
    out[: enum.dim] = state.amplitudes[indices]
    return StateVector(m, out)


def decode_weight_witness(n: int, k: int, compressed: StateVector) -> StateVector:
    """Inverse of :func:`encode_weight_witness`; ``ResourceError`` before
    allocating anything when n exceeds ``DECODE_QUBIT_LIMIT``."""
    enum = WeightEnumeration(n, k)
    m = compressed_qubits(n, k)
    if compressed.num_qubits != m:
        raise InvalidInputError(
            f"compressed state has {compressed.num_qubits} qubits, expected {m}"
        )
    if np.max(np.abs(compressed.amplitudes[enum.dim:]), initial=0.0) > SUPPORT_TOL:
        raise InvalidInputError("padded-index amplitude above tolerance")
    require_within(n, DECODE_QUBIT_LIMIT, "decoded qubits")
    indices = enum.indices()
    out = np.zeros(2**n, dtype=complex)
    out[indices] = compressed.amplitudes[: enum.dim]
    return StateVector(n, out)


def prepare_classical_weight_state(
    n: int, k: int, generator: QuantumCircuit, permutation
) -> StateVector:
    """S_n(D_k|0^k⟩ ⊗ |0^{n-k}⟩) with S_n permuting tensor factors.

    ``permutation[i]`` is the wire the i-th tensor factor is routed to.
    """
    perm = list(permutation)
    if sorted(perm) != list(range(n)):
        raise InvalidInputError(f"not a permutation of 0..{n - 1}: {perm}")
    if generator.total_qubits != k:
        raise InvalidInputError(
            f"generator acts on {generator.total_qubits} qubits, expected {k}"
        )
    core = simulate(generator, StateVector.zero(generator.witness_qubits))
    full = np.zeros(2**n, dtype=complex)
    full[np.arange(2**k) * 2 ** (n - k)] = core.amplitudes
    tensor = full.reshape([2] * n)
    # output axis perm[i] receives input axis i
    inverse = np.argsort(perm)
    return StateVector(n, np.transpose(tensor, inverse).reshape(-1))


REJECT = "REJECT"


def one_hot_block_decode(num_blocks: int, block_size: int, bits: str):
    """Per-block one-hot positions as bit indices, or REJECT."""
    if min(num_blocks, block_size) < 1:
        raise InvalidInputError(f"counts must be positive: {num_blocks}, {block_size}")
    if len(bits) != num_blocks * block_size:
        raise InvalidInputError(
            f"expected {num_blocks * block_size} bits, got {len(bits)}"
        )
    if any(c not in "01" for c in bits):
        raise InvalidInputError(f"not a bitstring: {bits!r}")
    width = max(1, ceil(log2(block_size))) if block_size > 1 else 1
    out = []
    for b in range(num_blocks):
        block = bits[b * block_size: (b + 1) * block_size]
        if block.count("1") != 1:
            return REJECT
        out.append(format(block.index("1"), f"0{width}b"))
    return "".join(out)


def hadamard_test_unitary(
    unitary: np.ndarray, prep: QuantumCircuit | None = None
) -> tuple[np.ndarray, int]:
    """The unitary as a complex array and its qubit count, if a Hadamard test
    can run on it: square, of power-of-two dimension, unitary within
    ``UNITARY_TOL`` (NaN and Inf fail), and as wide as the prep circuit."""
    u = np.asarray(unitary, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise InvalidInputError(f"expected a square unitary, got shape {u.shape}")
    dim = u.shape[0]
    if dim < 1 or dim & (dim - 1):
        raise InvalidInputError(f"unitary dimension {dim} is not a power of two")
    num_sys = dim.bit_length() - 1
    require_unitary(u)
    if prep is not None and prep.total_qubits != num_sys:
        raise InvalidInputError(f"prep circuit acts on {prep.total_qubits} "
                                f"qubits, unitary needs {num_sys}")
    return u, num_sys


def hadamard_test_circuit(
    unitary: np.ndarray, part: str = "real", prep: QuantumCircuit | None = None
) -> QuantumCircuit:
    """Hadamard-test circuit; the single ancilla is wire 0 and the accept qubit.

    With |ψ⟩ the prep circuit's output, Pr[wire 0 measures 0] is
    (1 + Re⟨ψ|U|ψ⟩)/2 for part="real" and (1 + Im⟨ψ|U|ψ⟩)/2 for part="imag";
    the accept qubit measures 1, so the probability of accepting is the
    complement.
    """
    u, num_sys = hadamard_test_unitary(unitary, prep)
    dim = u.shape[0]
    if part not in ("real", "imag"):
        raise InvalidInputError(f"part must be 'real' or 'imag', got {part!r}")
    gates = [Gate("H", targets=(0,))]
    if prep is not None:
        gates += [replace(g, controls=tuple(w + 1 for w in g.controls),
                          targets=tuple(w + 1 for w in g.targets))
                  for g in prep.gates]
    # controlled-U with the ancilla as the local MSB: block-diag(I, U)
    controlled = np.zeros((2 * dim, 2 * dim), dtype=complex)
    controlled[:dim, :dim] = np.eye(dim)
    controlled[dim:, dim:] = u
    gates.append(Gate("UNITARY", targets=tuple(range(num_sys + 1)), matrix=controlled))
    if part == "imag":
        gates.append(Gate("SDG", targets=(0,)))
    gates.append(Gate("H", targets=(0,)))
    return QuantumCircuit(
        witness_qubits=num_sys + 1, ancilla_qubits=0,
        gates=tuple(gates), accept_qubit=0,
    )

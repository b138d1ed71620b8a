"""Circuit IR, statevector simulation, weft metrics, and witness gadgets.

Wire convention: wires are numbered 0..(witness_qubits + ancilla_qubits - 1),
witness wires first; qubit 0 is the most significant bit of a basis index.
For multi-wire gates the first wire in (controls + targets) order supplies
the most significant bit of the gate's local matrix index.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from math import comb
from typing import NamedTuple

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
# columns evolved at once, each shared by witnesses of distinct classes; a
# block holds only the basis rows its columns reach, so 2^total × 64
# entries is its upper bound
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
    amplitudes: np.ndarray, num_qubits: int, wires: tuple[int, ...],
    matrix: np.ndarray, out: np.ndarray | None = None,
) -> np.ndarray:
    """Apply a 2^|wires| matrix on the given wires (first wire = local MSB).

    ``amplitudes`` is one state, shape (2^num_qubits,), or a block of states
    in its columns, shape (2^num_qubits, W); the result has the same shape.
    It is written to ``out``, a C-contiguous array of that shape that does
    not overlap ``amplitudes``, when one is given. On the top wires 0..s-1
    in order both transposes are views, and the GEMM writes ``out`` itself.
    """
    shape = amplitudes.shape
    tensor_shape = [2] * num_qubits + list(shape[1:])
    # the column axis is never a wire, so it stays last
    order = list(wires) + [q for q in range(len(tensor_shape)) if q not in wires]
    moved = np.transpose(amplitudes.reshape(tensor_shape), order)
    moved = moved.reshape(2 ** len(wires), -1)
    if out is not None and order == sorted(order):
        np.matmul(matrix, moved, out=out.reshape(moved.shape))
        return out
    moved = (matrix @ moved).reshape(tensor_shape)
    result = np.transpose(moved, np.argsort(order)).reshape(shape)
    if out is None:
        return result
    out[...] = result
    return out


def _relabel(gate: Gate, rows: np.ndarray, num_qubits: int):
    """A monomial gate pushed through the basis labels ``rows``: their new
    labels and the phase each row picks up (``None`` for a unit phase)."""
    def bit(wire):
        return 1 << (num_qubits - 1 - wire)

    if gate.name in _DIAGONAL_PHASE:
        # the phase applies where every wire of the gate reads 1
        mask = sum(bit(w) for w in gate.wires)
        return rows, np.where((rows & mask) == mask, _DIAGONAL_PHASE[gate.name], 1)
    if gate.name == "SWAP":
        a, b = (bit(w) for w in gate.targets)
        differ = ((rows & a) == 0) != ((rows & b) == 0)
        return rows ^ differ * (a | b), None
    # X, Y, CX, TOFFOLI flip the target where every control reads 1
    target = bit(gate.targets[0])
    controls = sum(bit(w) for w in gate.controls)
    flipped = rows ^ ((rows & controls) == controls) * target
    if gate.name == "Y":
        # Y|0⟩ = i|1⟩ and Y|1⟩ = −i|0⟩: the phase reads the source bit
        return flipped, np.where((rows & target) != 0, -1j, 1j)
    return flipped, None


def _steps(
    circuit: QuantumCircuit,
) -> Iterator[Gate | tuple[list[int], np.ndarray]]:
    """The circuit's gates in an equivalent order, in one pass: monomial
    gates one at a time and dense gates in fused runs (wires, matrix), the
    run's wires in the order its members first touch them, the first wire
    the most significant bit of the matrix.

    A run opens at a dense gate. A later monomial gate that touches none of
    the run's wires commutes with every member so far, so it goes out ahead
    of the run at once. A monomial gate on the run's wires only, or a dense
    gate that keeps the run within three wires, joins the run and is
    multiplied into its matrix as it arrives, new wires as the low bits.
    Any other gate closes the run. A monomial gate never widens a run: it
    only relabels rows, while a run on s wires fills all 2^s patterns of
    every coset it meets. A dense gate on more than three wires is a run of
    its own. Three, since a product with an 8×8 matrix costs about one pass
    over a 2^12 × 64 block, like a 2×2 one.
    """
    wires, matrix = [], None
    for gate in circuit.gates:
        monomial = gate.name in MONOMIAL_GATES
        if matrix is not None:
            if monomial and set(wires).isdisjoint(gate.wires):
                yield gate
                continue
            new = [w for w in gate.wires if w not in wires]
            if len(wires) + len(new) <= 3 and not (monomial and new):
                if new:
                    wires += new
                    matrix = np.kron(matrix, np.eye(2 ** len(new)))
                at = tuple(wires.index(w) for w in gate.wires)
                matrix = apply_gate_matrix(matrix, len(wires), at, gate.local_matrix())
                continue
            yield wires, matrix
            matrix = None
        if monomial:
            yield gate
        else:
            wires, matrix = list(gate.wires), gate.local_matrix()
    if matrix is not None:
        yield wires, matrix


def _fixed_wires(steps: list, witness_qubits: int) -> list[int]:
    """The witness wires whose starting bit every label that :func:`_evolve`
    reaches through ``steps`` still determines, ascending.

    A witness wire's support, the wires whose current bits determine its
    starting bit, is at first the wire itself. A monomial gate only
    relabels rows: SWAP exchanges its two wires in the support, and X, Y,
    CX and TOFFOLI, which flip their target where every control reads 1,
    add their controls to a support that holds the target; a phase gate
    changes no label. A run fills every pattern of its wires, so a wire
    whose support meets a run is no longer fixed. Walking the steps
    backwards, ``mixed`` holds the wires that a support must miss there:
    a run's wires, carried back through each SWAP, and the target of a
    flip whose controls meet them. So one mask serves every witness wire.
    """
    mixed = 0
    for step in reversed(steps):
        if not isinstance(step, Gate):
            mixed |= sum(1 << w for w in step[0])
        elif step.name == "SWAP":
            a, b = step.targets
            if (mixed >> a ^ mixed >> b) & 1:
                mixed ^= 1 << a | 1 << b
        elif step.name not in _DIAGONAL_PHASE \
                and any(mixed >> c & 1 for c in step.controls):
            mixed |= 1 << step.targets[0]
    return [w for w in range(witness_qubits) if not mixed >> w & 1]


def _work(steps: list, rows: int, width: int, num_qubits: int) -> np.ndarray:
    """The two work buffers of :func:`_evolve`, for blocks of at most
    ``width`` columns that start on at most ``rows`` distinct rows: each
    holds the largest block the steps can make, since a run on s wires at
    most multiplies the rows by 2^s, and no block holds more than 2^n. A
    block smaller than that touches only the buffers' first pages.

    The class that :func:`accept_row_blocks` carries above bit n adds no
    label to the 2^n: each of its fixed wires' starting bit is a function
    of the label's bits on the wire's support (:func:`_fixed_wires`), so the
    class is a function of the label's low n bits."""
    for step in steps:
        if not isinstance(step, Gate):
            rows = min(rows << len(step[0]), 1 << num_qubits)
    return np.empty((2, rows * width), dtype=complex)


def _evolve(
    steps: Iterable, rows: np.ndarray, block: np.ndarray, num_qubits: int,
    work: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply :func:`_steps` to a block whose rows are the distinct basis
    labels ``rows``, every other basis row being an exact zero in every
    column; return the new (rows, block).

    A monomial gate only relabels the rows and multiplies a pending phase,
    which the next run, or the end, scales the block by. A run on s wires
    mixes rows only within a coset: the labels that agree on every bit off
    its wires. Its one gather lays the block out as (2^s, cosets, W), the
    run's local index first, then the cosets ascending, and the run is one
    GEMM on the (2^s, cosets·W) view. So a block holds only the cosets its
    columns reach, and never more than 2^n rows.

    The gather fills ``work[0]`` and the GEMM ``work[1]`` (see
    :func:`_work`), so after a run the block is a view of ``work[1]``,
    valid until the buffers are next used; no step allocates a block. The
    block is scaled in place, so the caller hands over its ownership; it
    may lie at the head of ``work[1]``, since the first gather reads it
    before any GEMM writes there.
    """
    phase = None
    for step in steps:
        if isinstance(step, Gate):
            rows, g_phase = _relabel(step, rows, num_qubits)
            if g_phase is not None:
                phase = g_phase if phase is None else g_phase * phase
            continue
        if phase is not None:
            # in place: a fresh broadcast product costs several times more
            block *= phase[:, None]
            phase = None
        wires, matrix = step
        bits = [1 << (num_qubits - 1 - w) for w in wires]
        cosets, coset = np.unique(rows & ~sum(bits), return_inverse=True)
        spread, local = np.zeros(1, dtype=np.int64), 0
        for b in bits:
            spread = (spread[:, None] | [0, b]).ravel()
            local = 2 * local + ((rows & b) != 0)
        # a label that no row fills wraps round to the last row, and is then
        # zeroed; the default mode="raise" would gather through a copy
        at = np.full(len(spread) * len(cosets), -1)
        at[local * len(cosets) + coset] = np.arange(len(rows))
        size = at.size * block.shape[1]
        gathered = work[0, :size].reshape(at.size, -1)
        np.take(block, at, axis=0, out=gathered, mode="wrap")
        gathered[at < 0] = 0
        rows = (spread[:, None] | cosets).ravel()
        block = work[1, :size].reshape(at.size, -1)
        apply_gate_matrix(gathered.reshape(len(spread), -1), len(bits),
                          tuple(range(len(bits))), matrix,
                          out=block.reshape(len(spread), -1))
    if phase is not None:
        block *= phase[:, None]
    return rows, block


def simulate(circuit: QuantumCircuit, input_state: StateVector) -> StateVector:
    """Run the circuit on input ⊗ |0...0⟩ over the ancilla wires."""
    if input_state.num_qubits != circuit.witness_qubits:
        raise InvalidInputError(
            f"input has {input_state.num_qubits} qubits, circuit expects "
            f"{circuit.witness_qubits} witness qubits"
        )
    n = circuit.total_qubits
    # witness wires are the most significant bits, ancillas trail as |0>
    rows = np.arange(2**circuit.witness_qubits) << circuit.ancilla_qubits
    block = input_state.amplitudes[:, None].copy()
    steps = list(_steps(circuit))
    rows, block = _evolve(steps, rows, block, n, _work(steps, len(rows), 1, n))
    out = np.zeros(2**n, dtype=complex)
    out[rows] = block[:, 0]
    return StateVector(n, out)


class AcceptBlock(NamedTuple):
    """One block of :func:`accept_row_blocks`: the evolved rows of up to
    ``WITNESS_CHUNK`` columns, each column shared by witnesses of distinct
    classes, their patterns of bits on the fixed wires.

    ``labels[i]`` is −1 where Π₁ zeroes ``block[i]``, and otherwise
    ``k << (n − 1) | r``: r the accept row, with the accept bit dropped,
    and k the index of the row's class among the witnesses' classes in
    ascending order. ``owners[k, c]`` is the position in the witness
    indices of the witness of class k in column c, or the number of witness
    indices where there is none; a column's entries on other classes' rows
    are exact zeros. ``block`` is a view of the work buffers, the reader's
    to overwrite until the next block is drawn.
    """

    labels: np.ndarray
    block: np.ndarray
    owners: np.ndarray


def _fold(witness: np.ndarray, fixed: int) -> tuple:
    """Each witness's column and class index, and the (classes, columns)
    table of the witness in each class and column; a class is a pattern of
    witness bits on the ``fixed`` mask.

    Witnesses share a column when their other bits agree, the columns
    ascending in those bits. Where no two share one, or an index repeats,
    nothing is folded: each witness has its own column, in order.
    """
    count = len(witness)
    own = np.arange(count)
    if fixed:
        mixed, column = np.unique(witness & ~fixed, return_inverse=True)
        if len(mixed) < count:
            classes, tag = np.unique(witness & fixed, return_inverse=True)
            owners = np.full((len(classes), len(mixed)), count)
            owners[tag, column] = own
            # a repeated index leaves a witness in no column
            if np.count_nonzero(owners < count) == count:
                return column, tag, owners
    return own, 0, own[None]


def accept_row_blocks(
    circuit: QuantumCircuit, witness_indices: np.ndarray
) -> Iterator[AcceptBlock]:
    """The accept rows of U|w, 0...0⟩ for witness basis indices w, as
    :class:`AcceptBlock` blocks of at most ``WITNESS_CHUNK`` columns.

    A witness bit on a fixed wire (:func:`_fixed_wires`) is a function of
    every label the witness reaches, so witnesses that differ only there
    reach disjoint rows and share a column (:func:`_fold`): each carries
    its class index above bit n of its labels, where runs and relabels
    never act. Where nothing folds, the blocks are consecutive runs of the
    witnesses, one column each. A block starts at the head of ``work[1]``
    on the distinct labels |w, 0...0⟩ of its witnesses, so :func:`_evolve`
    carries only the rows they reach. The run matrices and the work buffers
    are made once.
    """
    n = circuit.total_qubits
    low = n - 1 - circuit.accept_qubit
    witness = np.asarray(witness_indices, dtype=np.int64)
    if not len(witness):
        return
    steps = list(_steps(circuit))
    # the fold only narrows the runs' GEMMs, and a cone without a run has none
    runs = any(not isinstance(step, Gate) for step in steps)
    fixed = sum(1 << (circuit.witness_qubits - 1 - w)
                for w in _fixed_wires(steps, circuit.witness_qubits)) if runs else 0
    column, tag, owners = _fold(witness, fixed)
    start = witness << circuit.ancilla_qubits
    columns = owners.shape[1]
    firsts = range(0, columns, WITNESS_CHUNK)
    # each chunk of columns takes a slice of the witnesses: where nothing
    # folded, the columns are the witnesses in order
    cuts, height = [*firsts, columns], min(WITNESS_CHUNK, columns)
    if columns < len(witness):
        order = np.argsort(column, kind="stable")
        start, column = (tag << n | start)[order], column[order]
        cuts = np.searchsorted(column, cuts).tolist()
        height = max(hi - lo for lo, hi in zip(cuts, cuts[1:]))
    work = _work(steps, height, min(WITNESS_CHUNK, columns), n)
    for first, lo, hi in zip(firsts, cuts, cuts[1:]):
        width = min(WITNESS_CHUNK, columns - first)
        labels, row = np.unique(start[lo:hi], return_inverse=True)
        block = work[1, :len(labels) * width].reshape(len(labels), width)
        block[...] = 0
        block[row, column[lo:hi] - first] = 1
        labels, block = _evolve(steps, labels, block, n, work)
        high = labels >> low  # the accept bit, then the bits above it
        accept = high >> 1 << low | labels & ((1 << low) - 1)
        yield AcceptBlock(np.where(high & 1, accept, -1), block,
                          owners[:, first:first + width])


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
    # ceil(log2(block_size)) bits, in exact integers
    width = max(1, (block_size - 1).bit_length())
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

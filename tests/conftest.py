"""Shared fixtures and independent brute-force oracles.

Every oracle here is implemented from first principles with a different
algorithm than the library code it checks: dense entry-by-entry embeddings
and bitwise scatters for gate application and Hamiltonian assembly,
exhaustive DAG traversal for weft, a Temperley-Lieb diagram-algebra
evaluation and a 2^c state sum with union-find loop counts for the bracket,
and simulated controlled-U Hadamard-test circuits for the outcome probabilities
of the amplitude sampler.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from qparam.circuits import (
    Gate,
    QuantumCircuit,
    acceptance_probability,
    accept_row_blocks,
    hadamard_test_circuit,
)
from qparam.states import StateVector


@pytest.fixture
def rng():
    return np.random.default_rng(20260824)


def random_unitary(rng, dim: int) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(rng, dim: int) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2


def random_state(rng, num_qubits: int) -> np.ndarray:
    v = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return v / np.linalg.norm(v)


def bits_state(bits: str) -> StateVector:
    """The basis state |bits⟩, qubit 0 first."""
    return StateVector.basis(len(bits), int(bits, 2))


def embed_oracle(matrix: np.ndarray, wires, n: int) -> np.ndarray:
    """Full 2^n unitary for a gate matrix on the given wires.

    Built entry-by-entry from bit manipulation (wire 0 = MSB), independent of
    the library's transpose-based kernel.
    """
    wires = list(wires)
    s = len(wires)
    rest = [q for q in range(n) if q not in wires]
    full = np.zeros((2**n, 2**n), dtype=complex)
    for x in range(2**n):
        lx = 0
        for q in wires:
            lx = (lx << 1) | ((x >> (n - 1 - q)) & 1)
        rx = tuple((x >> (n - 1 - q)) & 1 for q in rest)
        for ly in range(2**s):
            if matrix[ly, lx] == 0:
                continue
            y = 0
            for pos, q in enumerate(wires):
                y |= ((ly >> (s - 1 - pos)) & 1) << (n - 1 - q)
            for pos, q in enumerate(rest):
                y |= rx[pos] << (n - 1 - q)
            full[y, x] = matrix[ly, lx]
    return full


def hamiltonian_oracle(h) -> np.ndarray:
    """Full 2^n matrix of a local Hamiltonian: its embedded terms summed."""
    full = np.zeros((2**h.n, 2**h.n), dtype=complex)
    return sum((embed_oracle(t.block, t.qubits, h.n) for t in h.terms), full)


def circuit_unitary_oracle(circuit: QuantumCircuit) -> np.ndarray:
    """Product of explicitly embedded gate unitaries."""
    n = circuit.total_qubits
    full = np.eye(2**n, dtype=complex)
    for gate in circuit.gates:
        full = embed_oracle(gate.local_matrix(), gate.wires, n) @ full
    return full


def evolve_oracle(circuit: QuantumCircuit, states: np.ndarray) -> np.ndarray:
    """U applied to the columns of a (2^n, W) array, one gate at a time.

    Each gate scatters every basis index x to the indices y that differ from
    x only on the gate's wires (wire 0 = MSB), by bit manipulation with no
    transposes, so it reaches qubit counts where the dense unitary of
    :func:`circuit_unitary_oracle` does not fit.
    """
    n = circuit.total_qubits
    x = np.arange(2**n)
    out = np.array(states, dtype=complex)
    for gate in circuit.gates:
        wires = gate.wires
        s = len(wires)
        matrix = gate.local_matrix()
        lx = np.zeros_like(x)
        cleared = x.copy()
        for q in wires:
            lx = (lx << 1) | ((x >> (n - 1 - q)) & 1)
            cleared &= ~(1 << (n - 1 - q))
        new = np.zeros_like(out)
        for ly in range(2**s):
            y = cleared.copy()
            for pos, q in enumerate(wires):
                y |= ((ly >> (s - 1 - pos)) & 1) << (n - 1 - q)
            np.add.at(new, y, matrix[ly, lx][:, None] * out)
        out = new
    return out


def dag_metrics_oracle(circuit: QuantumCircuit) -> tuple[int, int]:
    """(weft, depth) by memoized longest-path search over the gate DAG."""
    gates = circuit.gates
    preds: list[set[int]] = [set() for _ in gates]
    last_on_wire: dict[int, int] = {}
    for idx, gate in enumerate(gates):
        for w in gate.wires:
            if w in last_on_wire:
                preds[idx].add(last_on_wire[w])
            last_on_wire[w] = idx

    @lru_cache(maxsize=None)
    def best(idx: int, weighted: bool) -> int:
        gate = gates[idx]
        own = (1 if gate.is_weft_gate() else 0) if weighted else 1
        if not preds[idx]:
            return own
        return own + max(best(p, weighted) for p in preds[idx])

    if not gates:
        return 0, 0
    weft = max(best(i, True) for i in range(len(gates)))
    depth = max(best(i, False) for i in range(len(gates)))
    return weft, depth


def random_circuit(rng, total_qubits: int, num_gates: int,
                   classical_only: bool = False) -> QuantumCircuit:
    one_q = ["H", "X", "Y", "Z", "S", "SDG", "T"]
    gates = []
    for _ in range(num_gates):
        if classical_only:
            kind = rng.choice(["X", "CX", "TOFFOLI"])
        else:
            kind = rng.choice(one_q + ["CX", "CZ", "SWAP", "TOFFOLI", "UNITARY"])
        if kind in one_q or (classical_only and kind == "X"):
            q = int(rng.integers(total_qubits))
            gates.append(Gate(kind, targets=(q,)))
        elif kind in ("CX", "CZ"):
            a, b = rng.choice(total_qubits, size=2, replace=False)
            gates.append(Gate(kind, controls=(int(a),), targets=(int(b),)))
        elif kind == "SWAP":
            a, b = rng.choice(total_qubits, size=2, replace=False)
            gates.append(Gate(kind, targets=(int(a), int(b))))
        elif kind == "TOFFOLI":
            if total_qubits < 3:
                q = int(rng.integers(total_qubits))
                gates.append(Gate("X", targets=(q,)))
                continue
            nc = int(rng.integers(2, min(4, total_qubits)))
            picked = rng.choice(total_qubits, size=nc + 1, replace=False)
            gates.append(
                Gate("TOFFOLI", controls=tuple(int(x) for x in picked[:-1]),
                     targets=(int(picked[-1]),))
            )
        else:  # UNITARY
            size = int(rng.integers(1, min(3, total_qubits) + 1))
            picked = rng.choice(total_qubits, size=size, replace=False)
            gates.append(
                Gate("UNITARY", targets=tuple(int(x) for x in picked),
                     matrix=random_unitary(rng, 2**size))
            )
    accept = int(rng.integers(total_qubits))
    return QuantumCircuit(total_qubits, 0, tuple(gates), accept)


def all_kinds_circuit(rng, witness: int, ancilla: int, accept: int,
                      num_random: int = 12) -> QuantumCircuit:
    """Random gates plus one gate of each of the twelve kinds, shuffled.

    Among the fixed gates are Y, a TOFFOLI with three controls and UNITARY
    blocks on one, two and three wires; needs at least four qubits.
    """
    total = witness + ancilla

    def pick(count):
        return tuple(int(x) for x in rng.choice(total, size=count, replace=False))

    gates = list(random_circuit(rng, total, num_random).gates)
    gates += [Gate(name, targets=pick(1))
              for name in ("H", "X", "Y", "Z", "S", "SDG", "T")]
    for name in ("CX", "CZ"):
        control, target = pick(2)
        gates.append(Gate(name, controls=(control,), targets=(target,)))
    gates.append(Gate("SWAP", targets=pick(2)))
    *controls, target = pick(4)
    gates.append(Gate("TOFFOLI", controls=tuple(controls), targets=(target,)))
    for size in (1, 2, 3):
        gates.append(Gate("UNITARY", targets=pick(size),
                          matrix=random_unitary(rng, 2**size)))
    order = rng.permutation(len(gates))
    return QuantumCircuit(witness, ancilla, tuple(gates[i] for i in order), accept)


def accept_projected_oracle(circuit: QuantumCircuit) -> np.ndarray:
    """Π₁·U: the oracle unitary with the rows whose accept qubit reads 0
    zeroed. Column ``w << ancilla_qubits`` belongs to witness w."""
    n = circuit.total_qubits
    full = circuit_unitary_oracle(circuit)
    for x in range(2**n):
        if not (x >> (n - 1 - circuit.accept_qubit)) & 1:
            full[x] = 0
    return full


def accept_projected_columns(circuit: QuantumCircuit,
                             witness_indices: np.ndarray) -> np.ndarray:
    """The library's accept rows of U|w, 0...0⟩ for each witness w, as the
    columns of one (2^(total-1), W) array: each block's classes unfolded,
    every witness's entries, those of its block column on its class's
    rows, scattered into its own zeroed column."""
    shift = circuit.total_qubits - 1
    out = np.zeros((2**shift, len(witness_indices)), dtype=complex)
    for labels, block, owners in accept_row_blocks(circuit, witness_indices):
        rows = np.flatnonzero(labels >= 0)
        # the witness that each entry of a row belongs to, by the row's class
        witness = owners[labels[rows] >> shift]
        row = np.broadcast_to(labels[rows, None] & (2**shift - 1), witness.shape)
        owned = witness < len(witness_indices)
        out[row[owned], witness[owned]] = block[rows][owned]
    return out


def hadamard_circuit_probabilities(unitary, prep):
    """(p_re, p_im): the probability that the simulated Hadamard-test circuit
    with a controlled-U measures 0, p₀ = 1 − Pr[accept], for each part."""
    probabilities = []
    for part in ("real", "imag"):
        circuit = hadamard_test_circuit(unitary, part=part, prep=prep)
        probabilities.append(1.0 - acceptance_probability(
            circuit, StateVector.zero(circuit.witness_qubits)
        ))
    return tuple(probabilities)


# --- Temperley-Lieb diagram-algebra bracket oracle ------------------------

def _tl_identity(strands: int):
    return frozenset(frozenset({("t", i), ("b", i)}) for i in range(strands))


def _tl_cupcap(strands: int, i: int):
    """e_i: cup joining tops i-1,i and cap joining bottoms i-1,i."""
    pairs = {frozenset({("t", i - 1), ("t", i)}),
             frozenset({("b", i - 1), ("b", i)})}
    for j in range(strands):
        if j not in (i - 1, i):
            pairs.add(frozenset({("t", j), ("b", j)}))
    return frozenset(pairs)


def _tl_compose(d1, d2, strands: int):
    """Glue d1's bottom to d2's top; returns (pairing, closed loop count)."""
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        parent[find(a)] = find(b)

    def reg(x):
        parent.setdefault(x, x)

    def tag1(p):
        return ("T", p[1]) if p[0] == "t" else ("M", p[1])

    def tag2(p):
        return ("M", p[1]) if p[0] == "t" else ("B", p[1])

    for pair in d1:
        a, b = tuple(pair)
        reg(tag1(a)), reg(tag1(b))
        union(tag1(a), tag1(b))
    for pair in d2:
        a, b = tuple(pair)
        reg(tag2(a)), reg(tag2(b))
        union(tag2(a), tag2(b))
    classes: dict = {}
    for x in parent:
        classes.setdefault(find(x), []).append(x)
    loops = 0
    pairs = set()
    for members in classes.values():
        boundary = [m for m in members if m[0] in ("T", "B")]
        if not boundary:
            loops += 1
            continue
        assert len(boundary) == 2
        out = []
        for kind, i in boundary:
            out.append(("t", i) if kind == "T" else ("b", i))
        pairs.add(frozenset(out))
    return frozenset(pairs), loops


def tl_bracket(strands: int, word, a_value: complex) -> complex:
    """Kauffman bracket of the plat closure via the Temperley-Lieb algebra.

    Each crossing expands to A·identity + A^{-1}·e_i (sign-reversed for
    negative letters); the element is reduced after each multiplication and
    the plat caps close the result. Single loop normalized to 1.
    """
    a = complex(a_value)
    delta = -(a**2) - a ** (-2)
    element = {_tl_identity(strands): 1.0 + 0.0j}
    for g in word:
        i = abs(g)
        if g > 0:
            letter = {_tl_identity(strands): a, _tl_cupcap(strands, i): 1 / a}
        else:
            letter = {_tl_identity(strands): 1 / a, _tl_cupcap(strands, i): a}
        out: dict = {}
        for d1, c1 in element.items():
            for d2, c2 in letter.items():
                composed, loops = _tl_compose(d1, d2, strands)
                out[composed] = out.get(composed, 0.0) + c1 * c2 * delta**loops
        element = out
    total = 0.0 + 0.0j
    for diagram, coeff in element.items():
        parent = {}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(a, b):
            parent.setdefault(a, a)
            parent.setdefault(b, b)
            parent[find(a)] = find(b)

        for pair in diagram:
            a_pt, b_pt = tuple(pair)
            union(a_pt, b_pt)
        for j in range(0, strands, 2):  # plat caps on both sides
            union(("t", j), ("t", j + 1))
            union(("b", j), ("b", j + 1))
        loops = len({find(x) for x in parent})
        total += coeff * delta ** (loops - 1)
    return total


# --- State-sum bracket oracle ----------------------------------------------

class _UnionFind:
    def __init__(self):
        self.parent: dict[int, int] = {}

    def make(self, x: int):
        self.parent[x] = x

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int):
        self.parent[self.find(a)] = self.find(b)

    def classes(self) -> int:
        return len({self.find(x) for x in self.parent})


def state_sum_bracket(diagram, a_value: complex) -> complex:
    """Kauffman bracket of a plat-closed diagram as a sum over all 2^c
    smoothings, counting each state's loops with a union-find over arcs.
    Single loop normalized to 1."""
    c = len(diagram.crossings)
    a = complex(a_value)
    delta = -(a**2) - a ** (-2)
    total = 0.0 + 0.0j
    for choice in range(2**c):
        uf = _UnionFind()
        arcs = []
        next_id = 0
        for _ in range(diagram.strands):
            uf.make(next_id)
            arcs.append(next_id)
            next_id += 1
        for j in range(0, diagram.strands, 2):
            uf.union(arcs[j], arcs[j + 1])
        exponent = 0
        for bit, (i, sign) in enumerate(diagram.crossings):
            if (choice >> bit) & 1 == 0:  # vertical smoothing
                exponent += sign
            else:  # cup-cap smoothing
                exponent -= sign
                uf.union(arcs[i - 1], arcs[i])
                uf.make(next_id)
                uf.make(next_id + 1)
                uf.union(next_id, next_id + 1)
                arcs[i - 1], arcs[i] = next_id, next_id + 1
                next_id += 2
        for j in range(0, diagram.strands, 2):
            uf.union(arcs[j], arcs[j + 1])
        total += a**exponent * delta ** (uf.classes() - 1)
    return total

import json
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    accept_projected_columns,
    accept_projected_oracle,
    all_kinds_circuit,
    bits_state,
    circuit_unitary_oracle,
    dag_metrics_oracle,
    evolve_oracle,
    random_circuit,
    random_state,
    random_unitary,
)
from qparam import circuits
from qparam.circuits import (
    MONOMIAL_GATES,
    WITNESS_CHUNK,
    Gate,
    QuantumCircuit,
    REJECT,
    accept_light_cone,
    accept_row_blocks,
    acceptance_probability,
    circuit_metrics,
    decode_weight_witness,
    encode_weight_witness,
    hadamard_test_circuit,
    one_hot_block_decode,
    prepare_classical_weight_state,
    project_weight_k,
    simulate,
    _steps,
)
from qparam.errors import InvalidInputError
from qparam.states import StateVector
from qparam.weightenum import WeightEnumeration

# the 4-point discrete Fourier transform on wires 3 (local MSB) and 1
DFT4 = np.array([[1, 1, 1, 1], [1, 1j, -1, -1j],
                 [1, -1, 1, -1], [1, -1j, -1, 1j]]) / 2
UNITARY_GATE_JSON = """{"name": "UNITARY", "targets": [3, 1], "matrix": [
    [[0.5, 0], [0.5, 0], [0.5, 0], [0.5, 0]],
    [[0.5, 0], [0, 0.5], [-0.5, 0], [0, -0.5]],
    [[0.5, 0], [-0.5, 0], [0.5, 0], [-0.5, 0]],
    [[0.5, 0], [0, -0.5], [-0.5, 0], [0, 0.5]]]}"""


class TestGate:
    def test_unknown_name_rejected(self):
        with pytest.raises(InvalidInputError):
            Gate("Q", targets=(0,))

    def test_duplicate_wires_rejected(self):
        with pytest.raises(InvalidInputError):
            Gate("CX", controls=(1,), targets=(1,))

    def test_toffoli_needs_two_controls(self):
        with pytest.raises(InvalidInputError):
            Gate("TOFFOLI", controls=(0,), targets=(1,))

    def test_non_unitary_block_rejected(self):
        with pytest.raises(InvalidInputError):
            Gate("UNITARY", targets=(0,), matrix=np.array([[1, 0], [0, 2.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_unitary_rejected(self, bad):
        # max|U†U − I| is NaN for such a matrix, and NaN > tol is False
        m = np.array([[bad, 0], [0, 1]], dtype=complex)
        with pytest.raises(InvalidInputError):
            Gate("UNITARY", targets=(0,), matrix=m)
        with pytest.raises(InvalidInputError):
            hadamard_test_circuit(m)

    def test_json_roundtrip(self):
        gate = Gate.from_json(json.loads(UNITARY_GATE_JSON))
        assert (gate.name, gate.controls, gate.targets) == ("UNITARY", (), (3, 1))
        assert np.array_equal(gate.matrix, DFT4)


class TestStateVector:
    @pytest.mark.parametrize("make", [
        lambda: StateVector.basis(2, 4),
    ], ids=["basis-index-out-of-range"])
    def test_invalid_request_rejected(self, make):
        with pytest.raises(InvalidInputError):
            make()


class TestSimulate:
    def test_empty_circuit_appends_ancillas(self):
        c = QuantumCircuit(1, 2, (), 0)
        out = simulate(c, bits_state("1"))
        expected = np.zeros(8, dtype=complex)
        expected[0b100] = 1.0
        assert np.allclose(out.amplitudes, expected)

    def test_x_flips(self):
        c = QuantumCircuit(1, 0, (Gate("X", targets=(0,)),), 0)
        out = simulate(c, StateVector.zero(1))
        assert np.allclose(out.amplitudes, [0, 1])

    def test_against_matrix_product_oracle(self, rng):
        # [DERIVED] dense product of explicitly embedded gate unitaries
        for _ in range(10):
            c = random_circuit(rng, 4, 5)
            psi = random_state(rng, 4)
            out = simulate(c, StateVector(4, psi))
            expected = circuit_unitary_oracle(c) @ psi
            assert np.allclose(out.amplitudes, expected, atol=1e-10)

    def test_scatter_oracle_matches_dense_oracle(self, rng):
        # the two independent oracles agree, so either can check the engine
        for _ in range(5):
            c = all_kinds_circuit(rng, 3, 2, int(rng.integers(5)))
            states = rng.normal(size=(32, 3)) + 1j * rng.normal(size=(32, 3))
            assert np.allclose(evolve_oracle(c, states),
                               circuit_unitary_oracle(c) @ states, atol=1e-12)

    def test_norm_preserved(self, rng):
        c = random_circuit(rng, 3, 12)
        out = simulate(c, StateVector(3, random_state(rng, 3)))
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-10)

    def test_wrong_input_size_rejected(self):
        c = QuantumCircuit(2, 0, (), 0)
        with pytest.raises(InvalidInputError):
            simulate(c, StateVector.zero(3))


class TestAcceptProjectedColumns:
    @pytest.mark.parametrize("accept", [3, 8], ids=["witness", "ancilla"])
    def test_against_unitary_oracle(self, rng, accept):
        # [DERIVED] columns of the dense product of embedded gate unitaries
        c = all_kinds_circuit(rng, 8, 1, accept)
        expected = accept_projected_oracle(c)
        assert WITNESS_CHUNK < 130  # the largest block spans two chunks
        for count in (1, 5, 130):
            witnesses = rng.choice(2**8, size=count, replace=False)
            got = accept_projected_columns(c, witnesses)
            assert got.shape == (2**8, count)
            reads_one = (np.arange(2**9) >> (8 - accept)) & 1 == 1
            assert np.all(expected[~reads_one] == 0)
            assert np.allclose(
                got, expected[reads_one][:, witnesses << 1], atol=1e-10
            )


class TestAcceptLightCone:
    def test_keeps_exactly_the_backward_cone(self):
        gates = (
            Gate("H", targets=(4,)),  # wire 4 never meets the cone
            Gate("H", targets=(3,)),  # joins only through the CX after it
            Gate("H", targets=(2,)),  # joins only through the CZ after it
            Gate("CX", controls=(1,), targets=(3,)),  # meets it by its control
            Gate("H", targets=(1,)),  # before the CX into the accept wire
            Gate("CZ", controls=(2,), targets=(1,)),
            Gate("CX", controls=(1,), targets=(0,)),
            Gate("H", targets=(1,)),  # after the CX: never reaches wire 0
            Gate("SWAP", targets=(2, 4)),
            Gate("T", targets=(0,)),
        )
        circuit = QuantumCircuit(3, 2, gates, 0)
        cone = accept_light_cone(circuit)
        assert cone.gates == tuple(gates[i] for i in (1, 2, 3, 4, 5, 6, 9))
        assert (cone.witness_qubits, cone.ancilla_qubits, cone.accept_qubit) == (3, 2, 0)

    def test_untouched_accept_wire_has_an_empty_cone(self, rng):
        circuit = QuantumCircuit(4, 1, random_circuit(rng, 4, 10).gates, 4)
        assert accept_light_cone(circuit).gates == ()


def _u(rng, *wires):
    return Gate("UNITARY", targets=wires, matrix=random_unitary(rng, 2 ** len(wires)))


# (witness, ancilla, accept, gates(rng)): runs on wires in every order and
# place, each of which the engine gathers into its (2^s, cosets, W) layout,
# on either side of the witness/ancilla split
ENGINE_CASES = {
    "descending-nonadjacent": (9, 3, 4, lambda rng: (
        Gate("H", targets=(0,)), Gate("CX", controls=(0,), targets=(7,)),
        _u(rng, 9, 3), Gate("T", targets=(3,)), _u(rng, 11, 4, 1),
        Gate("SWAP", targets=(1, 10)), _u(rng, 2, 8), Gate("X", targets=(5,)),
    )),
    "dense-back-to-back": (6, 2, 7, lambda rng: (
        Gate("X", targets=(2,)), _u(rng, 5, 1), _u(rng, 7, 0, 3),
        Gate("H", targets=(6,)), Gate("H", targets=(2,)), _u(rng, 3, 4),
        Gate("TOFFOLI", controls=(0, 5), targets=(7,)),
    )),
    "ends-dense": (5, 3, 2, lambda rng: (
        Gate("CZ", controls=(6,), targets=(1,)), _u(rng, 4, 6),
        Gate("Y", targets=(7,)), Gate("S", targets=(0,)), _u(rng, 7, 2, 5),
    )),
    "monomial-only": (6, 2, 6, lambda rng: (
        Gate("X", targets=(0,)), Gate("CX", controls=(0,), targets=(6,)),
        Gate("SWAP", targets=(3, 7)), Gate("T", targets=(3,)),
        Gate("Y", targets=(5,)), Gate("TOFFOLI", controls=(5, 3, 1), targets=(2,)),
    )),
    "no-gates": (4, 2, 1, lambda rng: ()),
    "one-qubit": (1, 0, 0, lambda rng: (
        Gate("H", targets=(0,)), Gate("T", targets=(0,)), _u(rng, 0),
    )),
    "accept-on-ancilla": (4, 3, 5, lambda rng: (
        _u(rng, 0, 6), Gate("CX", controls=(6,), targets=(5,)), _u(rng, 5, 2),
        Gate("H", targets=(5,)), _u(rng, 3, 1, 4),
    )),
    # the CX and T go out ahead of the run opened on wire 4, which then
    # takes every later gate on wires 4, 0 and 1; the H on wire 1 joins it
    # behind the CX, which touched wire 1 before it
    "fused-past-held-gates": (4, 2, 1, lambda rng: (
        Gate("H", targets=(4,)), Gate("CX", controls=(1,), targets=(2,)),
        Gate("T", targets=(2,)), _u(rng, 0, 4), Gate("H", targets=(0,)),
        Gate("H", targets=(1,)), Gate("S", targets=(4,)),
        Gate("CX", controls=(4,), targets=(1,)),
    )),
    # a run whose wires arrive in descending order, and a 4-wire UNITARY
    # that stays a step of its own between two 1-wire H runs
    "descending-run-and-wide-gate": (3, 3, 0, lambda rng: (
        Gate("H", targets=(5,)), Gate("CX", controls=(5,), targets=(2,)),
        Gate("Y", targets=(2,)), _u(rng, 1), Gate("H", targets=(3,)),
        _u(rng, 4, 0, 3, 1), Gate("H", targets=(0,)),
    )),
    # the first run is one H deep in the register with no monomial gate
    # before it; the UNITARY cannot join it, so it is a second run
    "deep-one-wire-run-first": (8, 4, 11, lambda rng: (
        Gate("H", targets=(10,)), _u(rng, 3, 7, 11),
        Gate("CX", controls=(10,), targets=(2,)), Gate("H", targets=(11,)),
    )),
    # no dense run touches an ancilla, which only copies witness bits, so
    # the rows a block reaches stay a strict subset of the register's
    "support-stays-partial": (4, 5, 7, lambda rng: (
        Gate("H", targets=(1,)), Gate("CX", controls=(1,), targets=(5,)),
        _u(rng, 3, 0), Gate("TOFFOLI", controls=(0, 3), targets=(7,)),
        Gate("SWAP", targets=(6, 8)), _u(rng, 2, 1, 3), Gate("T", targets=(7,)),
        Gate("CX", controls=(2,), targets=(6,)),
    )),
    # an H on every wire fills the support mid-circuit; the later steps run
    # on every row
    "support-fills-mid-circuit": (3, 4, 5, lambda rng: (
        Gate("CX", controls=(0,), targets=(4,)),
        *(Gate("H", targets=(q,)) for q in (6, 2, 4, 0, 5, 1, 3)),
        Gate("TOFFOLI", controls=(1, 6), targets=(5,)), _u(rng, 5, 2),
        Gate("S", targets=(3,)), _u(rng, 0, 6, 4),
    )),
    # the accept wire is an ancilla that no gate touches, so it reads 0 on
    # every reachable row and no label is kept as an accept row
    "idle-ancilla-accept": (3, 3, 4, lambda rng: (
        _u(rng, 0, 2), Gate("CX", controls=(0,), targets=(3,)),
        Gate("H", targets=(5,)), _u(rng, 3, 1),
    )),
}


def _shape(gates):
    """The steps of an 8-wire circuit of the gates: each monomial gate as
    itself and each run as its wire list."""
    circuit = QuantumCircuit(8, 0, gates, 0)
    return [step if isinstance(step, Gate) else step[0] for step in _steps(circuit)]


class TestSteps:
    def test_monomial_gates_go_out_ahead_of_the_run(self, rng):
        h = [Gate("H", targets=(q,)) for q in range(8)]
        cx = Gate("CX", controls=(1,), targets=(2,))
        t, x = Gate("T", targets=(0,)), Gate("X", targets=(4,))
        wide = _u(rng, 4, 5, 6, 7)
        # the CX misses the run on wire 0, so it goes out ahead of it; the
        # run then takes the T, the H on wire 3 and the H on wire 1, behind
        # the CX; the 4-wire UNITARY is a run of its own, and the X on one
        # of its wires closes it
        assert _shape([h[0], cx, t, h[3], h[1], wide, x]) == [
            cx, [0, 3, 1], [4, 5, 6, 7], x]

    def test_monomial_gates_join_a_run_only_on_its_wires(self):
        h, s = Gate("H", targets=(0,)), Gate("S", targets=(0,))
        cz = Gate("CZ", controls=(1,), targets=(0,))
        cx = Gate("CX", controls=(0,), targets=(1,))
        # the S joins; the CZ would widen the run to wire 1, so it closes it
        assert _shape([h, s, cz, cx]) == [[0], cz, cx]

    def test_runs_fill_up_to_three_wires(self):
        gates = [Gate("H", targets=(q,)) for q in (2, 0, 1, 3)]
        assert _shape(gates) == [[2, 0, 1], [3]]

    def test_monomial_gates_outside_runs_pass_in_order(self):
        gates = [Gate("X", targets=(0,)), Gate("CZ", controls=(0,), targets=(1,)),
                 Gate("SWAP", targets=(1, 2))]
        assert _shape(gates) == gates


def _steps_circuit(circuit: QuantumCircuit) -> QuantumCircuit:
    """The circuit rebuilt from its steps: each monomial gate as itself and
    each run as a UNITARY on its wires, the first wire the local MSB."""
    return replace(circuit, gates=tuple(
        step if isinstance(step, Gate)
        else Gate("UNITARY", targets=tuple(step[0]), matrix=step[1])
        for step in _steps(circuit)))


class TestStepOrderAgainstOracle:
    """[DERIVED] The steps, embedded one by one and multiplied, give the
    circuit's unitary; this checks the order and the run matrices apart
    from the engine that applies them."""

    @pytest.mark.parametrize("case", list(ENGINE_CASES))
    def test_engine_cases(self, rng, case):
        witness, ancilla, accept, gates = ENGINE_CASES[case]
        c = QuantumCircuit(witness, ancilla, gates(rng), accept)
        if c.total_qubits <= 9:
            assert np.allclose(circuit_unitary_oracle(_steps_circuit(c)),
                               circuit_unitary_oracle(c), rtol=0, atol=1e-12)
        else:
            # a dense 2^12 unitary does not fit: compare on 8 random columns
            states = np.stack([random_state(rng, c.total_qubits)
                               for _ in range(8)], axis=1)
            assert np.allclose(evolve_oracle(_steps_circuit(c), states),
                               evolve_oracle(c, states), rtol=0, atol=1e-12)

    def test_random_circuits(self, rng):
        for _ in range(60):
            c = random_circuit(rng, int(rng.integers(3, 8)), int(rng.integers(1, 60)))
            assert np.allclose(circuit_unitary_oracle(_steps_circuit(c)),
                               circuit_unitary_oracle(c), rtol=0, atol=1e-12)


@pytest.mark.parametrize("case", list(ENGINE_CASES))
class TestEngineAgainstScatterOracle:
    """[DERIVED] :func:`evolve_oracle` on the same columns."""

    def _circuit(self, rng, case):
        witness, ancilla, accept, gates = ENGINE_CASES[case]
        return QuantumCircuit(witness, ancilla, gates(rng), accept)

    def test_simulate(self, rng, case):
        c = self._circuit(rng, case)
        psi = random_state(rng, c.witness_qubits)
        padded = np.zeros((2**c.total_qubits, 1), dtype=complex)
        padded[:: 2**c.ancilla_qubits, 0] = psi
        out = simulate(c, StateVector(c.witness_qubits, psi))
        assert np.allclose(out.amplitudes, evolve_oracle(c, padded)[:, 0],
                           atol=1e-10)

    def _assert_columns_match(self, c, witnesses):
        n = c.total_qubits
        count = len(witnesses)
        basis = np.zeros((2**n, count), dtype=complex)
        basis[witnesses << c.ancilla_qubits, np.arange(count)] = 1.0
        reads_one = (np.arange(2**n) >> (n - 1 - c.accept_qubit)) & 1 == 1
        got = accept_projected_columns(c, witnesses)
        assert got.shape == (2 ** (n - 1), count)
        assert np.allclose(got, evolve_oracle(c, basis)[reads_one], atol=1e-10)

    def test_accept_projected_columns(self, rng, case):
        c = self._circuit(rng, case)
        count = min(2**c.witness_qubits, 2 * WITNESS_CHUNK + 3)
        witnesses = rng.choice(2**c.witness_qubits, size=count, replace=False)
        self._assert_columns_match(c, witnesses)

    def test_repeated_witness_indices(self, rng, case):
        # unsorted, every witness at least twice, blocks of 64 and 6 columns
        c = self._circuit(rng, case)
        half = rng.integers(2**c.witness_qubits, size=WITNESS_CHUNK // 2 + 3)
        self._assert_columns_match(c, rng.permutation(np.concatenate([half, half])))

    def test_dense_steps_act_on_the_top_wires(self, rng, case, monkeypatch):
        # each fused run is one GEMM on the wires 0..s-1 of a (2^s, L·W)
        # view of the block, where both transposes of apply_gate_matrix are
        # views
        c = self._circuit(rng, case)
        calls = []
        apply = circuits.apply_gate_matrix

        def recording(amplitudes, num_qubits, wires, matrix, out=None):
            if sys._getframe(1).f_code is circuits._evolve.__code__:
                calls.append((num_qubits, tuple(wires), amplitudes.ndim))
            return apply(amplitudes, num_qubits, wires, matrix, out=out)

        monkeypatch.setattr(circuits, "apply_gate_matrix", recording)
        simulate(c, StateVector.zero(c.witness_qubits))
        list(accept_row_blocks(c, np.arange(2)))
        runs = [len(step[0]) for step in _steps(c) if not isinstance(step, Gate)]
        assert bool(runs) == any(g.name not in MONOMIAL_GATES for g in c.gates)
        assert calls == [(s, tuple(range(s)), 2) for s in runs] * 2


def test_blocks_hold_only_the_rows_their_columns_reach(monkeypatch):
    # 12 wires, 3 of them witness wires, and one dense gate, an H on witness
    # wire 1: the 8 witness columns reach at most 2·2^3 basis rows, so no
    # GEMM may carry all 2^12 of them
    gates = (
        Gate("CX", controls=(0,), targets=(5,)), Gate("H", targets=(1,)),
        Gate("TOFFOLI", controls=(1, 2), targets=(9,)),
        Gate("SWAP", targets=(5, 11)), Gate("T", targets=(9,)),
        Gate("CX", controls=(11,), targets=(4,)),
    )
    circuit = QuantumCircuit(3, 9, gates, 4)
    columns, held = 8, []
    # witness wires 0 and 2 are fixed, so the 8 witnesses share 2 columns
    (width,) = (b.block.shape[1] for b in accept_row_blocks(circuit, np.arange(8)))
    apply = circuits.apply_gate_matrix

    def recording(amplitudes, num_qubits, wires, matrix, out=None):
        if sys._getframe(1).f_code is circuits._evolve.__code__:
            held.append(amplitudes.size // width)
        return apply(amplitudes, num_qubits, wires, matrix, out=out)

    monkeypatch.setattr(circuits, "apply_gate_matrix", recording)
    got = accept_projected_columns(circuit, np.arange(columns))
    assert len(held) == 1 and held[0] <= 2 * 2**3
    reads_one = (np.arange(2**12) >> (12 - 1 - 4)) & 1 == 1
    basis = np.zeros((2**12, columns), dtype=complex)
    basis[np.arange(columns) << 9, np.arange(columns)] = 1.0
    assert np.allclose(got, evolve_oracle(circuit, basis)[reads_one], atol=1e-12)


def test_wide_register_costs_the_rows_reached_not_2_to_the_n():
    # 20 wires, 2 of them witness wires: an H on each witness wire, a CX
    # chain q→q+1, and after every even q an H on q+1 and a T on q. The
    # one column reaches 2^11 basis rows (32 KiB), 2^10 of them accept
    # rows; neither a map over all 2^20 basis rows nor a zeroed block of
    # all 2^19 accept rows (8 MiB) may be built on the way
    gates = [Gate("H", targets=(0,)), Gate("H", targets=(1,))]
    for q in range(1, 19):
        gates.append(Gate("CX", controls=(q,), targets=(q + 1,)))
        if q % 2 == 0:
            gates += [Gate("H", targets=(q + 1,)), Gate("T", targets=(q,))]
    circuit = QuantumCircuit(2, 18, tuple(gates), 19)
    tracemalloc.start()
    try:
        ((labels, block, _),) = accept_row_blocks(circuit, np.array([0]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    labels, block = labels[labels >= 0], block[labels >= 0]
    assert block.shape == (2**10, 1) and labels.shape == (2**10,)
    assert len(np.unique(labels)) == 2**10 and 0 <= labels.min() <= labels.max() < 2**19
    # the last CX copies wire 18, which an H left uniform, into the accept wire
    assert np.sum(np.abs(block) ** 2) == pytest.approx(0.5, abs=1e-12)
    assert peak < 2**20

def _fixed(circuit: QuantumCircuit) -> list[int]:
    return circuits._fixed_wires(list(_steps(circuit)), circuit.witness_qubits)


class TestFixedWires:
    """The fixed-wire pass on hand-built circuits of 3 witness wires (0-2)
    and 2 ancillas (3, 4)."""

    @staticmethod
    def fixed(*gates, accept=4):
        return _fixed(QuantumCircuit(3, 2, gates, accept))

    def test_controls_and_phases_keep_a_wire_fixed(self):
        assert self.fixed(
            Gate("CX", controls=(0,), targets=(3,)),
            Gate("TOFFOLI", controls=(0, 1), targets=(4,)),
            Gate("CZ", controls=(1,), targets=(2,)), Gate("T", targets=(2,)),
            Gate("S", targets=(0,)), Gate("H", targets=(3,)), Gate("H", targets=(4,)),
        ) == [0, 1, 2]

    def test_flips_keep_a_wire_fixed(self):
        assert self.fixed(Gate("X", targets=(0,)), Gate("Y", targets=(1,)),
                          Gate("CX", controls=(2,), targets=(1,)),
                          Gate("H", targets=(3,))) == [0, 1, 2]

    def test_cx_or_toffoli_from_a_wire_a_later_run_mixes_unfixes(self):
        assert self.fixed(
            Gate("CX", controls=(3,), targets=(0,)),
            Gate("TOFFOLI", controls=(4, 2), targets=(1,)),
            Gate("H", targets=(3,)), Gate("H", targets=(4,)),
        ) == [2]
        # after the run the control's bit no longer changes, so the
        # target's starting bit stays a function of the two
        assert self.fixed(Gate("H", targets=(3,)),
                          Gate("CX", controls=(3,), targets=(0,))) == [0, 1, 2]

    def test_swap_onto_a_later_run_unfixes(self):
        # SWAP(1, 4) goes out ahead of the run on wire 3, which it misses
        assert self.fixed(Gate("SWAP", targets=(0, 3)), Gate("H", targets=(3,)),
                          Gate("SWAP", targets=(1, 4))) == [1, 2]
        # a SWAP of two witness wires exchanges their supports
        assert self.fixed(Gate("SWAP", targets=(0, 1)),
                          Gate("H", targets=(0,))) == [0, 2]

    def test_a_run_off_the_support_keeps_the_wire_fixed(self, rng):
        assert self.fixed(Gate("CX", controls=(0,), targets=(3,)), _u(rng, 3, 4),
                          Gate("SWAP", targets=(1, 2)), _u(rng, 4)) == [0, 1, 2]
        assert self.fixed(_u(rng, 3, 1)) == [0, 2]

    def test_the_accept_wire_can_be_a_witness_wire(self, rng):
        # witness wire 1 only controls, so it stays fixed though it is the
        # accept wire; with wire 2 the 8 witnesses fold into 2 columns
        c = QuantumCircuit(3, 2, (
            Gate("H", targets=(0,)), Gate("CX", controls=(1,), targets=(3,)),
            _u(rng, 3, 0), Gate("TOFFOLI", controls=(2, 3), targets=(4,)),
            _u(rng, 4, 0),
        ), 1)
        assert _fixed(c) == [1, 2]
        assert sum(b.block.shape[1] for b in accept_row_blocks(c, np.arange(8))) == 2
        expected = accept_projected_oracle(c)
        reads_one = (np.arange(2**5) >> 3) & 1 == 1
        got = accept_projected_columns(c, np.arange(8))
        assert np.allclose(got, expected[reads_one][:, np.arange(8) << 2], atol=1e-12)


def _dense_off_some_witness_wires(rng) -> QuantumCircuit:
    """A random circuit of 3-6 witness wires and 0-3 ancillas whose dense
    gates keep off some witness wires, so its cone often has fixed ones."""
    witness, ancilla = int(rng.integers(3, 7)), int(rng.integers(0, 4))
    total = witness + ancilla
    dense = [q for q in range(total) if q >= witness or rng.random() < 0.3]
    gates = []
    for gate in random_circuit(rng, total, 16).gates:
        if gate.name in MONOMIAL_GATES:
            gates.append(gate)
        elif dense:
            gates.append(_u(rng, *rng.choice(dense, min(len(dense), 2),
                                             replace=False).tolist()))
    return QuantumCircuit(witness, ancilla, tuple(gates), int(rng.integers(total)))


def test_no_block_holds_more_than_2_to_the_n_labels(rng, monkeypatch):
    # random cones whose dense gates keep off some witness wires; a label
    # of the evolved blocks carries its class above bit n, and the class is
    # a function of the bits below, so no block holds more labels than 2^n
    evolve, held, folded = circuits._evolve, [], []

    def recording(steps, rows, block, num_qubits, work):
        rows, block = evolve(steps, rows, block, num_qubits, work)
        held.append((len(rows), len(np.unique(rows & (2**num_qubits - 1)))))
        return rows, block

    monkeypatch.setattr(circuits, "_evolve", recording)
    for trial in range(40):
        c = _dense_off_some_witness_wires(rng)
        total = c.total_qubits
        held.clear()
        blocks = list(accept_row_blocks(c, np.arange(2**c.witness_qubits)))
        folded.append(any(len(b.owners) > 1 for b in blocks))
        # every label is distinct and so is its part below bit n
        assert all(rows == low <= 2**total for rows, low in held)
    assert sum(folded) >= 10  # the classes were there to count


def _gemm_calls(monkeypatch, run) -> list:
    """(num_qubits, wires, shape) of each GEMM that :func:`_evolve` makes
    while ``run()`` runs."""
    calls, apply = [], circuits.apply_gate_matrix

    def recording(amplitudes, num_qubits, wires, matrix, out=None):
        if sys._getframe(1).f_code is circuits._evolve.__code__:
            calls.append((num_qubits, tuple(wires), amplitudes.shape))
        return apply(amplitudes, num_qubits, wires, matrix, out=out)

    monkeypatch.setattr(circuits, "apply_gate_matrix", recording)
    run()
    monkeypatch.setattr(circuits, "apply_gate_matrix", apply)
    return calls


def _unfolded_blocks(circuit: QuantumCircuit, witnesses: np.ndarray) -> None:
    """The evolution without the fold: one column per witness, in blocks of
    ``WITNESS_CHUNK`` witnesses in order."""
    n, steps = circuit.total_qubits, list(_steps(circuit))
    work = circuits._work(steps, WITNESS_CHUNK, WITNESS_CHUNK, n)
    for start in range(0, len(witnesses), WITNESS_CHUNK):
        chunk = witnesses[start:start + WITNESS_CHUNK] << circuit.ancilla_qubits
        labels, row = np.unique(chunk, return_inverse=True)
        block = np.zeros((len(labels), len(chunk)), dtype=complex)
        block[row, np.arange(len(chunk))] = 1
        circuits._evolve(steps, labels, block, n, work)


class TestFoldedGemms:
    """The GEMMs of the folded blocks against those of one column per
    witness, as the engine made them before the fold."""

    def test_a_cone_with_no_fixed_wire_makes_the_same_calls(self, rng, monkeypatch):
        c = QuantumCircuit(7, 2, (
            *(Gate("H", targets=(q,)) for q in range(7)), _u(rng, 7, 0, 3),
            Gate("CX", controls=(7,), targets=(8,)), _u(rng, 8, 5),
            Gate("TOFFOLI", controls=(1, 2), targets=(8,)), _u(rng, 6, 8, 4),
        ), 8)
        assert _fixed(c) == []
        witnesses = np.arange(2**7)
        folded = _gemm_calls(monkeypatch, lambda: list(accept_row_blocks(c, witnesses)))
        unfolded = _gemm_calls(monkeypatch, lambda: _unfolded_blocks(c, witnesses))
        assert len(folded) == 12 and folded == unfolded  # 6 runs, 2 blocks

    def test_three_fixed_wires_of_six_take_8x_fewer_gemm_columns(self, rng,
                                                                  monkeypatch):
        # wires 3-5 only control or flip: the 64 witnesses share 8 columns,
        # on the same rows
        c = QuantumCircuit(6, 3, (
            Gate("H", targets=(0,)), Gate("CX", controls=(3,), targets=(6,)),
            _u(rng, 6, 1), Gate("TOFFOLI", controls=(4, 5), targets=(7,)),
            Gate("X", targets=(4,)), _u(rng, 7, 2, 8), Gate("SWAP", targets=(3, 5)),
            Gate("CX", controls=(5,), targets=(8,)), _u(rng, 8, 0, 6),
        ), 8)
        assert _fixed(c) == [3, 4, 5]
        witnesses = np.arange(2**6)
        folded = _gemm_calls(monkeypatch, lambda: list(accept_row_blocks(c, witnesses)))
        unfolded = _gemm_calls(monkeypatch, lambda: _unfolded_blocks(c, witnesses))
        assert [call[:2] for call in folded] == [call[:2] for call in unfolded]
        assert all(s == 8 * f for (_, _, (_, f)), (_, _, (_, s)) in zip(folded, unfolded))

    def test_a_repeated_index_takes_a_slot_of_its_class(self, rng):
        # witness wires 2 and 3 only control or flip, so the 16 witnesses
        # fall in 4 classes of 4 and share 4 columns; with witness 5 asked
        # for twice more its class, 01, holds 6 witnesses, so 6 columns,
        # and every copy reads the same values
        c = QuantumCircuit(4, 2, (
            Gate("H", targets=(0,)), Gate("CX", controls=(3,), targets=(4,)),
            _u(rng, 4, 1), Gate("X", targets=(2,)), _u(rng, 5, 0, 4),
        ), 5)
        assert _fixed(c) == [2, 3]
        witnesses = np.array([5, *range(16), 5])
        assert [b.block.shape[1] for b in accept_row_blocks(c, witnesses)] == [6]
        assert [b.block.shape[1] for b in accept_row_blocks(c, np.arange(16))] == [4]
        reads_one = np.arange(2**6) & 1 == 1
        expected = accept_projected_oracle(c)[reads_one][:, witnesses << 2]
        assert np.allclose(accept_projected_columns(c, witnesses), expected, atol=1e-12)


def _pattern_fold(witness: np.ndarray, fixed: int) -> tuple:
    """The fold by patterns that the rank fold replaced: a witness's column
    is the rank of its bits off ``fixed`` among the witnesses' distinct such
    bits, and nothing folds where no two share a column or an index
    repeats."""
    count = len(witness)
    own = np.arange(count)
    if fixed:
        mixed, column = np.unique(witness & ~fixed, return_inverse=True)
        if len(mixed) < count:
            classes, tag = np.unique(witness & fixed, return_inverse=True)
            owners = np.full((len(classes), len(mixed)), count)
            owners[tag, column] = own
            if np.count_nonzero(owners < count) == count:
                return column, tag, owners
    return own, 0, own[None]


class TestRankFold:
    """:func:`circuits._fold` gives each witness the column of its rank
    among its class's witnesses, in the order they are given."""

    def test_the_full_set_folds_as_the_patterns_did(self, rng):
        for k in range(1, 9):
            witness = np.arange(2**k)
            for fixed in {0, 2**k - 1, *rng.integers(2**k, size=6).tolist()}:
                got, expected = circuits._fold(witness, fixed), _pattern_fold(witness, fixed)
                for a, b in zip(got, expected):
                    assert np.array_equal(a, np.broadcast_to(b, np.shape(a)))

    def test_weight_k_sets_take_as_many_columns_as_the_largest_class(self, rng):
        for trial in range(300):
            n = int(rng.integers(1, 11))
            basis = WeightEnumeration(n, int(rng.integers(n + 1))).indices()
            witness = basis
            if trial % 2:  # unsorted, with repeated indices
                repeats = rng.choice(basis, size=int(rng.integers(1, len(basis) + 2)))
                witness = rng.permutation(np.concatenate([basis, repeats]))
            fixed = int(rng.integers(2**n))
            column, tag, owners = circuits._fold(witness, fixed)
            classes, sizes = np.unique(witness & fixed, return_counts=True)
            assert owners.shape == (len(classes), sizes.max())
            assert np.array_equal(classes[tag], witness & fixed)
            assert np.array_equal(owners[tag, column], np.arange(len(witness)))
            for c, size in enumerate(sizes):  # in the order given, pads last
                assert owners[c, :size].tolist() == np.flatnonzero(tag == c).tolist()
                assert (owners[c, size:] == len(witness)).all()
            assert owners.shape[1] <= _pattern_fold(witness, fixed)[2].shape[1]
            if not trial % 2:
                assert owners.shape[1] <= len(np.unique(witness & ~fixed))

    def test_qmak_makes_the_gemm_calls_of_the_fold_by_patterns(self, rng, monkeypatch):
        from qparam.estimators import qmak_decide

        fold, folded = circuits._fold, 0
        for trial in range(40):
            c = _dense_off_some_witness_wires(rng)
            k = c.witness_qubits
            traces = []
            ranked = _gemm_calls(monkeypatch, lambda: traces.append(qmak_decide(c, k).trace))
            monkeypatch.setattr(circuits, "_fold", _pattern_fold)
            patterned = _gemm_calls(monkeypatch,
                                    lambda: traces.append(qmak_decide(c, k).trace))
            monkeypatch.setattr(circuits, "_fold", fold)
            assert ranked == patterned and traces[0] == traces[1]
            blocks = accept_row_blocks(accept_light_cone(c), np.arange(2**k))
            folded += any(len(b.owners) > 1 and b.block.shape[0] for b in blocks)
        assert folded >= 10  # the classes were there to fold


class TestAcceptance:
    def test_x_on_accept(self):
        c = QuantumCircuit(1, 0, (Gate("X", targets=(0,)),), 0)
        assert acceptance_probability(c, StateVector.zero(1)) == pytest.approx(1.0)

    def test_h_on_accept(self):
        c = QuantumCircuit(1, 0, (Gate("H", targets=(0,)),), 0)
        assert acceptance_probability(c, StateVector.zero(1)) == pytest.approx(0.5)

    def test_against_projector_oracle(self, rng):
        for _ in range(5):
            c = random_circuit(rng, 3, 6)
            psi = random_state(rng, 3)
            out = circuit_unitary_oracle(c) @ psi
            mask = np.array(
                [(x >> (3 - 1 - c.accept_qubit)) & 1 for x in range(8)],
                dtype=bool,
            )
            expected = float(np.sum(np.abs(out[mask]) ** 2))
            assert acceptance_probability(
                c, StateVector(3, psi)
            ) == pytest.approx(expected, abs=1e-10)


class TestMetrics:
    def test_no_weft_gates(self):
        c = QuantumCircuit(
            2, 0, (Gate("H", targets=(0,)), Gate("CX", controls=(0,), targets=(1,))), 0
        )
        assert circuit_metrics(c).weft == 0

    def test_single_toffoli(self):
        c = QuantumCircuit(
            3, 0, (Gate("TOFFOLI", controls=(0, 1), targets=(2,)),), 2
        )
        m = circuit_metrics(c)
        assert m.weft == 1
        assert m.depth == 1
        assert m.size == 1

    def test_chained_toffolis(self):
        # [DERIVED] exhaustive path enumeration over the DAG
        c = QuantumCircuit(
            5, 0,
            (Gate("TOFFOLI", controls=(0, 1), targets=(2,)),
             Gate("TOFFOLI", controls=(2, 3), targets=(4,))),
            4,
        )
        assert circuit_metrics(c).weft == 2

    def test_parallel_toffolis_weft_one(self):
        c = QuantumCircuit(
            6, 0,
            (Gate("TOFFOLI", controls=(0, 1), targets=(2,)),
             Gate("TOFFOLI", controls=(3, 4), targets=(5,))),
            5,
        )
        assert circuit_metrics(c).weft == 1
        assert circuit_metrics(c).depth == 1

    def test_against_dag_oracle(self, rng):
        for _ in range(30):
            c = random_circuit(rng, 5, int(rng.integers(1, 20)))
            m = circuit_metrics(c)
            weft, depth = dag_metrics_oracle(c)
            assert m.weft == weft
            assert m.depth == depth
            assert m.size == len(c.gates)

    def test_weft_invariant_under_small_gate_insertion(self, rng):
        c = random_circuit(rng, 5, 12)
        base = circuit_metrics(c).weft
        gates = list(c.gates)
        pos = int(rng.integers(len(gates) + 1))
        gates.insert(pos, Gate("H", targets=(int(rng.integers(5)),)))
        padded = QuantumCircuit(5, 0, tuple(gates), c.accept_qubit)
        assert circuit_metrics(padded).weft == base


class TestProjectWeightK:
    def test_weight_k_basis_state_fixed(self):
        state = bits_state("0110")
        projected, prob = project_weight_k(state, 2)
        assert prob == pytest.approx(1.0)
        assert np.allclose(projected.amplitudes, state.amplitudes)

    def test_wrong_weight_gives_flagged_zero(self):
        projected, prob = project_weight_k(bits_state("0111"), 2)
        assert prob == 0.0
        assert np.allclose(projected.amplitudes, 0)

    def test_probability_is_amplitude_sum(self, rng):
        # [DERIVED] direct amplitude sum
        psi = random_state(rng, 5)
        _, prob = project_weight_k(StateVector(5, psi), 2)
        expected = sum(
            abs(psi[x]) ** 2 for x in range(32) if bin(x).count("1") == 2
        )
        assert prob == pytest.approx(expected, abs=1e-12)

    def test_idempotent(self, rng):
        psi = random_state(rng, 4)
        once, _ = project_weight_k(StateVector(4, psi), 2)
        twice, prob = project_weight_k(once, 2)
        assert prob == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(once.amplitudes, twice.amplitudes, atol=1e-12)


def random_weight_k_state(rng, n, k):
    enum = WeightEnumeration(n, k)
    amps = np.zeros(2**n, dtype=complex)
    values = rng.normal(size=enum.dim) + 1j * rng.normal(size=enum.dim)
    values /= np.linalg.norm(values)
    for i, x in enumerate(enum.indices()):
        amps[x] = values[i]
    return StateVector(n, amps)


class TestWitnessCompression:
    def test_rank_zero_string(self):
        out = encode_weight_witness(4, 2, bits_state("0011"))
        assert out.num_qubits == 3
        assert np.allclose(out.amplitudes, [1, 0, 0, 0, 0, 0, 0, 0])

    def test_uniform_superposition(self):
        enum = WeightEnumeration(4, 2)
        amps = np.zeros(16, dtype=complex)
        for x in enum.indices():
            amps[x] = 1 / np.sqrt(6)
        out = encode_weight_witness(4, 2, StateVector(4, amps))
        assert np.allclose(out.amplitudes[:6], 1 / np.sqrt(6))
        assert np.allclose(out.amplitudes[6:], 0)

    def test_amplitude_transport(self, rng):
        # [DERIVED] componentwise check via the rank table
        state = random_weight_k_state(rng, 5, 2)
        out = encode_weight_witness(5, 2, state)
        enum = WeightEnumeration(5, 2)
        for r, x in enumerate(enum.indices()):
            assert out.amplitudes[r] == pytest.approx(state.amplitudes[x])

    def test_off_support_rejected(self):
        with pytest.raises(InvalidInputError):
            encode_weight_witness(4, 2, bits_state("0111"))

    def test_wrong_qubit_count_rejected(self):
        with pytest.raises(InvalidInputError):
            encode_weight_witness(4, 2, bits_state("011"))

    def test_decode_rank_zero(self):
        compressed = StateVector.basis(3, 0)
        out = decode_weight_witness(4, 2, compressed)
        assert np.allclose(out.amplitudes, bits_state("0011").amplitudes)

    def test_roundtrip_and_inner_products(self, rng):
        for _ in range(20):
            a = random_weight_k_state(rng, 6, 3)
            b = random_weight_k_state(rng, 6, 3)
            ea = encode_weight_witness(6, 3, a)
            eb = encode_weight_witness(6, 3, b)
            back = decode_weight_witness(6, 3, ea)
            assert np.allclose(back.amplitudes, a.amplitudes, atol=1e-12)
            assert np.vdot(ea.amplitudes, eb.amplitudes) == pytest.approx(
                np.vdot(a.amplitudes, b.amplitudes), abs=1e-10)

    def test_padded_amplitude_rejected(self):
        bad = StateVector.basis(3, 7)  # index 7 >= C(4,2) = 6
        with pytest.raises(InvalidInputError):
            decode_weight_witness(4, 2, bad)


class TestClassicalWeightState:
    def test_identity_generator(self):
        gen = QuantumCircuit(2, 0, (), 0)
        out = prepare_classical_weight_state(4, 2, gen, [2, 0, 3, 1])
        assert np.allclose(out.amplitudes, StateVector.zero(4).amplitudes)

    def test_single_x_routed(self):
        gen = QuantumCircuit(1, 0, (Gate("X", targets=(0,)),), 0)
        out = prepare_classical_weight_state(4, 1, gen, [3, 0, 1, 2])
        assert np.allclose(out.amplitudes, bits_state("0001").amplitudes)

    def test_against_index_permutation_oracle(self, rng):
        # [DERIVED] permute each basis index bitwise and compare amplitudes
        gen = random_circuit(rng, 2, 4)
        perm = [int(x) for x in rng.permutation(5)]
        out = prepare_classical_weight_state(5, 2, gen, perm)
        core = simulate(gen, StateVector.zero(2)).amplitudes
        expected = np.zeros(32, dtype=complex)
        for x in range(4):
            bits = [(x >> 1) & 1, x & 1] + [0, 0, 0]
            y = 0
            for src, bit in enumerate(bits):
                y |= bit << (5 - 1 - perm[src])
            expected[y] = core[x]
        assert np.allclose(out.amplitudes, expected, atol=1e-10)

    def test_invalid_permutation_rejected(self):
        gen = QuantumCircuit(1, 0, (), 0)
        with pytest.raises(InvalidInputError):
            prepare_classical_weight_state(3, 1, gen, [0, 0, 2])

    def test_generator_width_mismatch_rejected(self):
        gen = QuantumCircuit(2, 0, (), 0)
        with pytest.raises(InvalidInputError):
            prepare_classical_weight_state(3, 1, gen, [0, 1, 2])


class TestOneHotDecode:
    def test_single_block(self):
        assert one_hot_block_decode(1, 4, "0100") == "01"

    def test_two_hot_rejects(self):
        assert one_hot_block_decode(1, 4, "0011") == REJECT

    def test_all_zero_rejects(self):
        assert one_hot_block_decode(1, 4, "0000") == REJECT

    def test_three_blocks_of_eight(self, rng):
        # [DERIVED] exhaustive position check per block
        for _ in range(10):
            positions = rng.integers(0, 8, size=3)
            bits = "".join(
                "".join("1" if i == p else "0" for i in range(8))
                for p in positions
            )
            expected = "".join(format(int(p), "03b") for p in positions)
            assert one_hot_block_decode(3, 8, bits) == expected

    def test_exhaustive_small_blocks(self):
        for size in range(2, 9):
            width = max(1, int(np.ceil(np.log2(size))))
            for value in range(2**size):
                bits = format(value, f"0{size}b")
                out = one_hot_block_decode(1, size, bits)
                if bits.count("1") == 1:
                    assert out == format(bits.index("1"), f"0{width}b")
                else:
                    assert out == REJECT

    def test_wrong_length_rejected(self):
        with pytest.raises(InvalidInputError):
            one_hot_block_decode(2, 4, "0100")


class TestHadamardTest:
    def test_identity_real(self):
        c = hadamard_test_circuit(np.eye(2), part="real")
        p0 = 1 - acceptance_probability(c, StateVector.zero(c.witness_qubits))
        assert p0 == pytest.approx(1.0, abs=1e-10)

    def test_z_on_zero_real(self):
        z = np.diag([1.0, -1.0]).astype(complex)
        c = hadamard_test_circuit(z, part="real")
        p0 = 1 - acceptance_probability(c, StateVector.zero(c.witness_qubits))
        assert p0 == pytest.approx(1.0, abs=1e-10)

    def test_random_pairs(self, rng):
        # [DERIVED] direct inner-product oracle, both parts
        for _ in range(50):
            u = random_unitary(rng, 8)
            prep = random_circuit(rng, 3, 4)
            psi = simulate(prep, StateVector.zero(3)).amplitudes
            q = psi.conj() @ u @ psi
            for part, target in (("real", q.real), ("imag", q.imag)):
                c = hadamard_test_circuit(u, part=part, prep=prep)
                p0 = 1 - acceptance_probability(
                    c, StateVector.zero(c.witness_qubits)
                )
                assert p0 == pytest.approx((1 + target) / 2, abs=1e-10)

    def test_non_unitary_rejected(self):
        with pytest.raises(InvalidInputError):
            hadamard_test_circuit(np.ones((2, 2)))

    def test_bad_part_rejected(self):
        with pytest.raises(InvalidInputError):
            hadamard_test_circuit(np.eye(2), part="both")


class TestCircuitJson:
    def test_roundtrip(self):
        # one gate of each of the twelve kinds
        c = QuantumCircuit.from_json(json.loads("""{
            "witness_qubits": 3, "ancilla_qubits": 2, "accept_qubit": 4,
            "gates": [
                {"name": "H", "targets": [0]}, {"name": "X", "targets": [1]},
                {"name": "Y", "targets": [2]}, {"name": "Z", "targets": [3]},
                {"name": "S", "targets": [4]}, {"name": "SDG", "targets": [0]},
                {"name": "T", "targets": [1]},
                {"name": "CX", "controls": [0], "targets": [2]},
                {"name": "CZ", "controls": [1], "targets": [3]},
                {"name": "SWAP", "targets": [4, 0]},
                {"name": "TOFFOLI", "controls": [2, 3], "targets": [0]},
                %s
            ]}""" % UNITARY_GATE_JSON))
        expected = QuantumCircuit(3, 2, (
            Gate("H", targets=(0,)), Gate("X", targets=(1,)),
            Gate("Y", targets=(2,)), Gate("Z", targets=(3,)),
            Gate("S", targets=(4,)), Gate("SDG", targets=(0,)),
            Gate("T", targets=(1,)), Gate("CX", (0,), (2,)),
            Gate("CZ", (1,), (3,)), Gate("SWAP", targets=(4, 0)),
            Gate("TOFFOLI", (2, 3), (0,)),
            Gate("UNITARY", targets=(3, 1), matrix=DFT4),
        ), 4)
        assert len({g.name for g in c.gates}) == 12
        assert np.array_equal(circuit_unitary_oracle(c),
                              circuit_unitary_oracle(expected))

"""How a gate is read: the exact refusal for every malformed gate shape, by
every way of building one, and the same circuit from the JSON reader and
from the field-by-field constructors.

The refusal table pins each message byte for byte through ``Gate(...)``,
``Gate.from_json``, ``QuantumCircuit.from_json`` and the CLI (exit 3), so
that any rewrite of the gate checks keeps them. A few circuits with two bad
gates pin which refusal comes first: the first bad gate's, in reading order.
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from qparam.circuits import Gate, QuantumCircuit, circuit_metrics
from qparam.cli import main
from qparam.errors import InvalidInputError
from qparam.estimators import decide_hamming_weight_qcs_exact, qmak_decide
from qparam.linalg import matrix_from_json, matrix_to_json

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

X = matrix_to_json(np.array([[0.0, 1.0], [1.0, 0.0]]))
ONE_QUBIT = ("H", "X", "Y", "Z", "S", "SDG", "T")
# each name's well-formed gate on the 3 wires of WIDTH
VALID = {
    **{name: {"name": name, "targets": [0]} for name in ONE_QUBIT},
    "CX": {"name": "CX", "controls": [0], "targets": [1]},
    "CZ": {"name": "CZ", "controls": [0], "targets": [1]},
    "SWAP": {"name": "SWAP", "targets": [0, 1]},
    "TOFFOLI": {"name": "TOFFOLI", "controls": [0, 1], "targets": [2]},
    "UNITARY": {"name": "UNITARY", "targets": [0], "matrix": X},
}
WIDTH = 3
BUILDS = "builds"
UNITARY_REFUSAL = "UNITARY needs targets and a matrix"
NOT_UNITARY = "matrix is not unitary within 1e-10"


def _count_refusal(name):
    if name in ONE_QUBIT:
        return f"{name} takes exactly one target"
    if name == "TOFFOLI":
        return "TOFFOLI needs at least two controls and one target"
    if name == "UNITARY":
        return UNITARY_REFUSAL
    return f"{name}: bad wire counts"


def _with(gate, **fields):
    out = dict(gate, **fields)
    return {key: value for key, value in out.items() if value is not None}


def _wires(gate):
    return tuple(gate.get("controls", [])) + tuple(gate["targets"])


def _cases():
    """(id, gate JSON, refusal by the JSON readers, refusal by ``Gate(...)``).

    ``Gate(...)`` builds an out-of-range gate, since a gate does not know
    the circuit's width; a bool or float wire is refused by the JSON
    readers only (None: no constructor case)."""
    cases = []
    for name, gate in VALID.items():
        controls, targets = gate.get("controls", []), gate["targets"]
        count = _count_refusal(name)
        # one control too few where one is needed, else one too many
        fewer = controls[:-1] if controls else [2]
        cases.append((f"{name}-controls", _with(gate, controls=fewer), count, count))
        more = targets + [2] if name != "TOFFOLI" else []
        if name == "SWAP":
            more = targets[:1]
        if name == "UNITARY":
            more = []
        cases.append((f"{name}-targets", _with(gate, targets=more), count, count))
        if name == "UNITARY":
            cases.append(("UNITARY-no-matrix", _with(gate, matrix=None),
                          UNITARY_REFUSAL, UNITARY_REFUSAL))
        else:
            no_matrix = f"gate {name} takes no matrix"
            cases.append((f"{name}-matrix", _with(gate, matrix=X),
                          no_matrix, no_matrix))
        wires = _wires(gate)
        dup = _with(gate, targets=targets[:-1] + [wires[0]]) if len(wires) > 1 \
            else _with(gate, targets=[0, 0])
        invalid = f"gate {name}: invalid wires {_wires(dup)}"
        cases.append((f"{name}-duplicate", dup, invalid, invalid))
        negative = _with(gate, targets=targets[:-1] + [-1])
        invalid = f"gate {name}: invalid wires {_wires(negative)}"
        cases.append((f"{name}-negative", negative, invalid, invalid))
        for kind, wire in (("bool", True), ("float", 1.0)):
            # a Python caller's wires are its own business; JSON's must be ints
            bad = _with(gate, targets=targets[:-1] + [wire])
            cases.append((f"{name}-{kind}", bad,
                          f"gate wire must be an integer, got {wire!r}", None))
        outside = _with(gate, targets=targets[:-1] + [WIDTH])
        cases.append((f"{name}-out-of-range", outside,
                      f"gate {name} wires {_wires(outside)} out of range for "
                      f"{WIDTH} qubits", BUILDS))
    unitary = VALID["UNITARY"]
    four = matrix_to_json(np.eye(4))
    cases.append(("UNITARY-shape", _with(unitary, matrix=four),
                  "UNITARY matrix shape (4, 4) does not fit 1 targets",
                  "UNITARY matrix shape (4, 4) does not fit 1 targets"))
    for bad in (float("nan"), float("inf")):
        held = [[[bad, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        cases.append((f"UNITARY-{bad}", _with(unitary, matrix=held),
                      "matrix parts must be finite", NOT_UNITARY))
    stretched = matrix_to_json(np.diag([1.0, 2.0]))
    cases.append(("UNITARY-not-unitary", _with(unitary, matrix=stretched),
                  NOT_UNITARY, NOT_UNITARY))
    cases.append(("unknown-name", {"name": "Q", "targets": [0]},
                  "unknown gate name 'Q'", "unknown gate name 'Q'"))
    return cases


CASES = _cases()
IDS = [case[0] for case in CASES]
BUILT = [case for case in CASES if case[3] is not None]


def _circuit(*gates):
    return {"witness_qubits": WIDTH, "ancilla_qubits": 0, "accept_qubit": 0,
            "gates": list(gates)}


def _refusal(build):
    with pytest.raises(InvalidInputError) as info:
        build()
    return str(info.value)


def _constructed(gate):
    """``Gate(...)`` on the fields of a gate JSON, its matrix as an array."""
    matrix = gate.get("matrix")
    if matrix is not None:
        pairs = np.array(matrix, dtype=float)
        matrix = pairs[..., 0] + 1j * pairs[..., 1]
    return Gate(gate["name"], tuple(gate.get("controls", ())),
                tuple(gate["targets"]), matrix)


@pytest.mark.parametrize("case", BUILT, ids=[case[0] for case in BUILT])
def test_gate_constructor_refusal(case):
    _, gate, _, message = case
    if message is BUILDS:
        assert _constructed(gate).targets[-1] == WIDTH
    else:
        assert _refusal(lambda: _constructed(gate)) == message


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_gate_from_json_refusal(case):
    _, gate, message, _ = case
    if case[3] is BUILDS:
        assert Gate.from_json(gate).targets[-1] == WIDTH
    else:
        assert _refusal(lambda: Gate.from_json(gate)) == message


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_circuit_from_json_refusal(case):
    _, gate, message, _ = case
    assert _refusal(lambda: QuantumCircuit.from_json(_circuit(gate))) == message


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_cli_refusal(case, capsys, tmp_path):
    _, gate, message, _ = case
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps(_circuit(gate)))
    assert main(["weft", "--input", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


NON_UNITARY = {"name": "UNITARY", "targets": [1],
               "matrix": matrix_to_json(np.diag([1.0, 2.0]))}
BAD_PARTS = {"name": "UNITARY", "targets": [1], "matrix": [[[0, 0], ["1", 0]],
                                                           [[1, 0], [0, 0]]]}
OUTSIDE = {"name": "X", "targets": [WIDTH]}
UNKNOWN = {"name": "Q", "targets": [0]}


@pytest.mark.parametrize("gates, message", [
    ([OUTSIDE, UNKNOWN], "unknown gate name 'Q'"),
    ([NON_UNITARY, UNKNOWN], NOT_UNITARY),
    ([UNKNOWN, NON_UNITARY], "unknown gate name 'Q'"),
    ([VALID["UNITARY"], NON_UNITARY, BAD_PARTS], NOT_UNITARY),
    ([BAD_PARTS, NON_UNITARY], "matrix parts must be numbers, got ['str']"),
    ([NON_UNITARY, OUTSIDE], NOT_UNITARY),
    ([VALID["H"], OUTSIDE, dict(OUTSIDE, targets=[WIDTH + 1])],
     f"gate X wires ({WIDTH},) out of range for {WIDTH} qubits"),
    ([{"name": "H", "targets": [0], "matrix": [[[1, 0, 0]]]}, UNKNOWN],
     "matrix JSON must be equal rows of [re, im] pairs"),
    ([{"name": "UNITARY", "targets": [0, 0], "matrix": [[[1, 0, 0]]]}],
     "matrix JSON must be equal rows of [re, im] pairs"),
    ([VALID["X"], {"name": "X", "targets": ["0"]}, UNKNOWN],
     "gate wire must be an integer, got '0'"),
], ids=["outside-then-unknown", "non-unitary-then-unknown",
        "unknown-then-non-unitary", "non-unitary-then-bad-parts",
        "bad-parts-then-non-unitary", "non-unitary-then-outside",
        "first-outside", "named-gate-bad-matrix-first",
        "matrix-read-before-wires", "string-wire-first"])
def test_first_bad_gate_in_reading_order_is_refused(gates, message):
    assert _refusal(lambda: QuantumCircuit.from_json(_circuit(*gates))) == message


@pytest.mark.parametrize("document, message", [
    (dict(_circuit(UNKNOWN), accept_qubit=WIDTH), "unknown gate name 'Q'"),
    (dict(_circuit(UNKNOWN), accept_qubit="0"), "unknown gate name 'Q'"),
    (dict(_circuit(NON_UNITARY), accept_qubit=1.5), NOT_UNITARY),
    (dict(_circuit(OUTSIDE), accept_qubit=WIDTH), f"accept qubit {WIDTH} out of range"),
    (dict(_circuit(OUTSIDE), accept_qubit=None), "accept_qubit must be an integer, got None"),
    (dict(_circuit(OUTSIDE), witness_qubits=-WIDTH), "circuit needs at least one qubit"),
    (dict(_circuit(UNKNOWN), witness_qubits=0.5), "witness_qubits must be an integer, got 0.5"),
], ids=["gate-before-accept-range", "gate-before-accept-type",
        "unitarity-before-accept-type", "accept-range-before-wires",
        "accept-type-before-wires", "width-before-wires", "width-type-first"])
def test_circuit_fields_and_gates_refused_in_order(document, message):
    assert _refusal(lambda: QuantumCircuit.from_json(document)) == message


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import workloads

    return workloads


def _field_by_field(data):
    """The circuit of a circuit JSON built by the constructors, each matrix
    read on its own."""
    gates = tuple(
        Gate(g["name"], tuple(g.get("controls", ())), tuple(g["targets"]),
             matrix_from_json(g["matrix"]) if "matrix" in g else None)
        for g in data["gates"])
    return QuantumCircuit(data["witness_qubits"], data["ancilla_qubits"], gates,
                          data["accept_qubit"])


def test_reader_and_constructors_give_the_same_circuit(workloads):
    rng = np.random.default_rng(31)
    for _ in range(100):
        data = workloads.random_circuit(rng, 6, 12, 60)
        read, built = QuantumCircuit.from_json(data), _field_by_field(data)
        assert (read.witness_qubits, read.ancilla_qubits, read.accept_qubit) == (
            built.witness_qubits, built.ancilla_qubits, built.accept_qubit)
        assert len(read.gates) == len(built.gates) == 60
        for a, b in zip(read.gates, built.gates):
            assert (a.name, a.controls, a.targets, a.wires) == (
                b.name, b.controls, b.targets, b.wires)
            if b.matrix is None:
                assert a.matrix is None
            else:
                assert a.matrix.dtype == b.matrix.dtype
                assert a.matrix.tobytes() == b.matrix.tobytes()
        for decide in (lambda c: qmak_decide(c, 6),
                       lambda c: decide_hamming_weight_qcs_exact(c, 3, 0.2, 0.8),
                       circuit_metrics):
            assert json.dumps(decide(read).to_json()) == json.dumps(
                decide(built).to_json())

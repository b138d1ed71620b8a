"""Seeded fuzz of the CLI input documents.

Each case starts from a valid document for one command that reads one
(every such command has a seed document) and applies one to
three mutations: drop a field or list item, or put in its place None, a
bool, a string, NaN, ±Inf, 10^400, 2^70, a negative number or a value of
the wrong shape. Whatever the input, a run must end with a documented exit
code (0-4), print no traceback, write strict JSON or nothing to stdout, and
exit 1 only with a NO verdict.
"""
import copy
import json
import math

import numpy as np
import pytest

from qparam.cli import COMMANDS, main
from qparam.linalg import matrix_to_json

Z = matrix_to_json(np.diag([1.0, -1.0]))
H = matrix_to_json(np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2))
BRAID = {"strands": 4, "word": [1, -2, 3, 2]}
CIRCUIT = {
    "witness_qubits": 2, "ancilla_qubits": 1, "accept_qubit": 2,
    "gates": [
        {"name": "H", "targets": [0]},
        {"name": "UNITARY", "targets": [1], "matrix": H},
        {"name": "TOFFOLI", "controls": [0, 1], "targets": [2]},
    ],
}

HAMILTONIAN = {
    "n": 3, "locality": 1, "a": 0.0, "b": 1.0,
    "terms": [{"qubits": [1], "matrix": Z}, {"qubits": [2], "matrix": Z}],
}
GAP = {
    "witness_qubits": 2, "ancilla_qubits": 1, "accept_qubit": 2,
    "gates": [{"name": "TOFFOLI", "controls": [0, 1], "targets": [2]},
              {"name": "X", "targets": [0]}],
    "classical_only": True,
}
# 3 qubits in the weight-2 sector; rank register of 2 qubits, rank 3 padding
STATE = {"num_qubits": 3,
         "amplitudes": [[0.0, 0.0]] * 3 + [[0.6, 0.0], [0.0, 0.0], [0.0, 0.8],
                                           [0.0, 0.0], [0.0, 0.0]]}
RANKS = {"num_qubits": 2,
         "amplitudes": [[0.6, 0.0], [0.0, 0.0], [0.0, 0.8], [0.0, 0.0]]}

# (argv after the command and --input, valid document); a command's place
# here keys its mutation stream, so new commands go last
SEEDS = {
    "amp-estimate": (["--tau", "0.2", "--seed", "1"], {
        "unitary": Z,
        "prep": {"witness_qubits": 1, "ancilla_qubits": 0, "accept_qubit": 0,
                 "gates": [{"name": "H", "targets": [0]}]},
    }),
    "gapp-exact": ([], GAP),
    "ham-decide": (["--k", "1"], HAMILTONIAN),
    "jones": (["--k", "5", "--tau", "0.2", "--seed", "1"], BRAID),
    "jones-exact": (["--k", "7"], BRAID),
    "qmak-decide": (["--k", "2"], CIRCUIT),
    "wqcs-decide": (["--k", "1", "--a", "0.1", "--b", "0.9"], CIRCUIT),
    "encode-witness": (["--k", "2"], STATE),
    "decode-witness": (["--k", "2", "--n", "3"], RANKS),
    "hwqcs-decide": (["--k", "1", "--a", "0.1", "--b", "0.9"], CIRCUIT),
    "gapp-estimate": (["--tau", "0.2", "--seed", "1"], GAP),
    "weft": ([], CIRCUIT),
    "ham-min": (["--k", "2"], HAMILTONIAN),
}

VALUES = [None, True, False, "", "1", float("nan"), float("inf"),
          float("-inf"), 10**400, 2**70, -1, -2**70, -0.5, [], [[]], {},
          [1, 2, 3], {"x": 1}]

CASES_PER_COMMAND = 450


def slots(node):
    """Every (container, key) pair in a JSON tree, parents first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield node, key
        if isinstance(child, (dict, list)):
            yield from slots(child)


def mutate(document, rng):
    document = copy.deepcopy(document)
    for _ in range(int(rng.integers(1, 4))):
        found = list(slots(document))
        if not found:
            break
        parent, key = found[int(rng.integers(len(found)))]
        kind = int(rng.integers(3))
        if kind == 0:
            del parent[key]
        elif kind == 1:
            parent[key] = copy.deepcopy(VALUES[int(rng.integers(len(VALUES)))])
        else:  # one level too deep or too shallow
            value = parent[key]
            parent[key] = value[0] if isinstance(value, list) and value else [value]
    return document


def refuse_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def test_every_document_command_is_fuzzed():
    takes_input = {name for name, command in COMMANDS.items()
                   if any(flag == "--input" for flag, _ in command.flags)}
    assert sorted(SEEDS) == sorted(takes_input)


@pytest.mark.parametrize("command", sorted(SEEDS))
def test_mutated_documents_end_cleanly(capsys, tmp_path, command):
    rng = np.random.default_rng([20261018, list(SEEDS).index(command)])
    extra, valid = SEEDS[command]
    path = tmp_path / "in.json"
    for case in range(CASES_PER_COMMAND):
        document = valid if case == 0 else mutate(valid, rng)
        path.write_text(json.dumps(document))
        code = main([command, "--input", str(path), *extra])
        captured = capsys.readouterr()
        where = f"{command} case {case}: {json.dumps(document)[:300]}"
        assert code in (0, 1, 2, 3, 4), where
        assert "Traceback" not in captured.err, where
        if code in (3, 4):
            assert captured.out == "", where
            assert captured.err.startswith("error:"), where
            continue
        report = json.loads(captured.out, parse_constant=refuse_constant)
        if code == 1:
            assert report["result"]["verdict"] == "NO", where

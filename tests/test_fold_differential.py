"""[DERIVED] The circuit deciders on circuits of the benchmark's own
generator (``perfbench/workloads.random_circuit``) against the Gram matrix of
the witnesses' accept columns, unfolded to one column per witness by
:func:`accept_projected_columns` from the accept qubit's light cone, which
the tests of ``TestAcceptLightCone`` check against the whole circuit.

The tests import ``perfbench/workloads.py`` and write nothing under
``perfbench/``.
"""
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import accept_projected_columns
from qparam import circuits, estimators
from qparam.circuits import QuantumCircuit, accept_light_cone, accept_row_blocks
from qparam.decision import THRESHOLD_TOL, Verdict, threshold_verdict
from qparam.estimators import (
    QMAK_NO_TRACE,
    QMAK_YES_TRACE,
    decide_hamming_weight_qcs_exact,
    decide_weight_qcs_exact,
    qmak_decide,
    qmak_operator,
)
from qparam.weightenum import WeightEnumeration

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# thresholds about the middle of the values the generator's circuits reach,
# so both verdicts and the band between them occur
A, B = 0.4, 0.6
CIRCUITS = 100


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import workloads

    return workloads


def _gram(circuit: QuantumCircuit, witness: np.ndarray) -> np.ndarray:
    phi = accept_projected_columns(accept_light_cone(circuit), witness)
    phi = phi[phi.any(axis=1)]  # a row no column reaches adds nothing
    return phi.conj().T @ phi


def _fixed_count(circuit: QuantumCircuit) -> int:
    steps = list(circuits._steps(accept_light_cone(circuit)))
    return len(circuits._fixed_wires(steps, circuit.witness_qubits))


@pytest.mark.parametrize("k", [3, 4])
def test_slice_deciders_match_the_unfolded_gram(workloads, k):
    # the benchmark's wqcs and hwqcs shape: 10 witness wires of 12, 60 gates
    rng = np.random.default_rng(3200 + k)
    basis = WeightEnumeration(10, k).indices()
    verdicts = set()
    for _ in range(CIRCUITS):
        c = QuantumCircuit.from_json(workloads.random_circuit(rng, 10, 12, 60))
        gram = _gram(c, basis)
        lam_max, accept = np.linalg.eigvalsh(gram)[-1], np.diag(gram).real
        wqcs = decide_weight_qcs_exact(c, k, A, B)
        hwqcs = decide_hamming_weight_qcs_exact(c, k, A, B)
        assert abs(wqcs.max_acceptance - lam_max) <= 1e-12
        assert np.max(np.abs(np.array(list(hwqcs.table.values())) - accept)) <= 1e-12
        assert wqcs.verdict is threshold_verdict(lam_max, A, B, THRESHOLD_TOL,
                                                 yes_high=True)
        assert hwqcs.verdict is threshold_verdict(accept.max(), A, B, THRESHOLD_TOL,
                                                  yes_high=True)
        verdicts |= {wqcs.verdict, hwqcs.verdict}
    assert len(verdicts) >= 2


def test_qmak_operator_matches_the_unfolded_gram(workloads):
    # the benchmark's qmak shape: 6 witness wires of 12, 60 gates
    rng = np.random.default_rng(3206)
    for _ in range(CIRCUITS):
        c = QuantumCircuit.from_json(workloads.random_circuit(rng, 6, 12, 60))
        gram = _gram(c, np.arange(2**6))
        q, trace = qmak_operator(c, 6)
        assert np.max(np.abs(q - gram)) <= 1e-12
        reference = np.trace(gram).real
        assert abs(trace - reference) <= 1e-12
        assert qmak_decide(c, 6).verdict is Verdict.of(reference >= QMAK_YES_TRACE,
                                                       reference <= QMAK_NO_TRACE)


def test_repeated_indices_on_one_to_three_fixed_wires(workloads):
    # circuits whose cone has 1-3 fixed witness wires, on the weight-3
    # witnesses and 40 repeats of them, unsorted: the per-class Gram blocks,
    # assembled by the members table, and the column norms against the
    # unfolded Gram matrix
    rng = np.random.default_rng(3207)
    basis = WeightEnumeration(10, 3).indices()
    kept, folded = 0, 0
    while kept < CIRCUITS:
        c = QuantumCircuit.from_json(workloads.random_circuit(rng, 10, 12, 60))
        if not 1 <= _fixed_count(c) <= 3:
            continue
        kept += 1
        witness = rng.permutation(np.concatenate([basis, rng.choice(basis, 40)]))
        count = len(witness)
        gram = _gram(c, witness)
        cone = accept_light_cone(c)
        blocks = accept_row_blocks(cone, witness)
        columns, members = estimators._class_columns(blocks, c.total_qubits - 1)
        folded += members.shape[1] < count
        got = np.zeros((count + 1, count + 1), dtype=complex)  # the pads' row last
        got[members[:, :, None], members[:, None, :]] = estimators._gram(columns)
        assert np.max(np.abs(got[:-1, :-1] - gram)) <= 1e-12
        norms = estimators._column_norms(accept_row_blocks(cone, witness),
                                         c.total_qubits - 1, count)
        assert np.max(np.abs(norms - np.diag(gram).real)) <= 1e-12
    assert folded >= CIRCUITS // 2

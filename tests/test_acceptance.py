"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criterion 7's braid population (every braid with <= 8 crossings on <= 6
strands) is astronomically large, so it is covered by a fixed-seed random
sample drawn across all strand counts, word lengths, and levels.
"""
import json
import math
from math import comb

import numpy as np
import pytest

from conftest import (dag_metrics_oracle, hamiltonian_oracle, random_circuit,
                      random_hermitian)
from qparam.circuits import (
    QuantumCircuit,
    acceptance_probability,
    circuit_metrics,
    decode_weight_witness,
    encode_weight_witness,
    one_hot_block_decode,
    REJECT,
)
from qparam.cli import main
from qparam.estimators import (
    GapInstance,
    decide_hamming_weight_qcs_exact,
    decide_weight_qcs_exact,
    estimate_amplitude,
    estimate_gap,
    exact_gap,
    qmak_operator,
)
from qparam.hamiltonian import (
    LocalHamiltonian,
    LocalTerm,
    restrict_to_weight,
)
from qparam.jones import BraidWord, estimate_jones, jones_exact, jones_via_path_model
from qparam.linalg import matrix_to_json, min_eigenvalue
from qparam.states import StateVector
from qparam.weightenum import WeightEnumeration
from test_circuits import random_weight_k_state
from test_estimators import accept_verifier, reject_verifier
from test_hamiltonian import random_two_local, sum_z
from test_jones import random_braid


def announce(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_weight_restriction_correctness(capsys):
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(4, 11))
        k = int(rng.integers(1, 4))
        h = random_two_local(rng, n, num_terms=int(rng.integers(2, 7)))
        idx = list(WeightEnumeration(n, k).indices())
        sub = hamiltonian_oracle(h)[np.ix_(idx, idx)]
        oracle = float(np.linalg.eigvalsh(sub)[0])
        lam = min_eigenvalue(restrict_to_weight(h, k))
        worst = max(worst, abs(lam - oracle))
    exact_ok = True
    for n in range(2, 9):
        for k in range(n + 1):
            lam = min_eigenvalue(restrict_to_weight(sum_z(n), k))
            exact_ok = exact_ok and lam == pytest.approx(n - 2 * k, abs=1e-12)
    ok = worst <= 1e-8 and exact_ok
    announce(capsys, 1, ok,
             f"50 random 2-local instances, worst |Δλ_min| = {worst:.2e}; "
             f"sum-of-Z spectrum exact: {exact_ok}")


def test_criterion_2_xp_scaling_witness(capsys):
    z = np.diag([1.0, -1.0]).astype(complex)
    checked = 0
    ok = True
    for n in range(1, 25):
        h = LocalHamiltonian(n, 1, 0.0, 1.0, (LocalTerm((0,), z),))
        for k in range(0, min(4, n) + 1):
            restricted = restrict_to_weight(h, k)
            ok = ok and restricted.shape == (comb(n, k), comb(n, k))
            ok = ok and WeightEnumeration(n, k).dim == comb(n, k)
            checked += 1
    announce(capsys, 2, ok,
             f"H_ε dimension equals C(n,k) on all {checked} pairs "
             f"with n ≤ 24, k ≤ 4")


def test_criterion_3_estimator_coverage(capsys):
    from conftest import random_unitary

    rng = np.random.default_rng(103)
    tau, delta = 0.05, 0.025
    failures = 0
    trials = 0
    for u_index in range(5):
        u = random_unitary(rng, 8)
        exact = u[0, 0]
        for rep in range(80):
            report = estimate_amplitude(
                u, None, tau, delta, seed=1000 * u_index + rep
            )
            trials += 1
            if abs(report.value - exact) > tau * math.sqrt(2):
                failures += 1
    fraction = failures / trials
    coverage_ok = fraction <= 0.07

    instance = GapInstance(
        6,
        QuantumCircuit.from_json({
            "witness_qubits": 6, "ancilla_qubits": 1, "accept_qubit": 6,
            "gates": [
                {"name": "CX", "controls": [0], "targets": [6]},
                {"name": "TOFFOLI", "controls": [1, 2], "targets": [6]},
            ],
        }),
    )
    exact = exact_gap(instance)
    values = [estimate_gap(instance, 0.5, 0.2, seed=s).value
              for s in range(10_000)]
    mean = float(np.mean(values))
    stderr = float(np.std(values)) / math.sqrt(len(values))
    unbiased_ok = abs(mean - exact) <= 3 * stderr + 1e-9
    ok = coverage_ok and unbiased_ok
    announce(capsys, 3, ok,
             f"amplitude failure fraction {fraction:.3f} (≤ 0.07) over "
             f"{trials} trials; gap mean {mean:.3f} vs exact {exact} "
             f"within 3 SE ({3 * stderr:.3f})")


def test_criterion_4_qmak_identity(capsys):
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(30):
        k = int(rng.integers(1, 4))
        ancillas = int(rng.integers(1, 8 - k + 1))
        total = k + ancillas
        verifier = QuantumCircuit(
            k, ancillas, random_circuit(rng, total, 8).gates,
            int(rng.integers(total)),
        )
        _, trace = qmak_operator(verifier, k)
        mixed = sum(
            acceptance_probability(verifier, StateVector.basis(k, w))
            for w in range(2**k)
        ) / 2**k
        worst = max(worst, abs(mixed - trace / 2**k))
    separation_ok = True
    for k in (1, 2, 3):
        _, t_complete = qmak_operator(accept_verifier(k), k)
        _, t_sound = qmak_operator(reject_verifier(k), k)
        separation_ok = separation_ok and (
            t_complete / 2**k >= (2 / 3) * 2**-k
            and t_sound / 2**k <= (1 / 3) * 2**-k
        )
    ok = worst <= 1e-9 and separation_ok
    announce(capsys, 4, ok,
             f"30 verifiers, worst |Pr − 2^-k·Tr(Q)| = {worst:.2e}; "
             f"complete/sound separation holds: {separation_ok}")


def test_criterion_5_witness_gadget_roundtrips(capsys):
    rng = np.random.default_rng(105)
    worst_round = 0.0
    worst_inner = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 13))
        k = int(rng.integers(1, min(4, n) + 1))
        a = random_weight_k_state(rng, n, k)
        b = random_weight_k_state(rng, n, k)
        ea, eb = encode_weight_witness(n, k, a), encode_weight_witness(n, k, b)
        back = decode_weight_witness(n, k, ea)
        worst_round = max(
            worst_round, float(np.max(np.abs(back.amplitudes - a.amplitudes)))
        )
        worst_inner = max(worst_inner, abs(np.vdot(ea.amplitudes, eb.amplitudes)
                                           - np.vdot(a.amplitudes, b.amplitudes)))
    onehot_ok = True
    for size in range(1, 9):
        width = max(1, math.ceil(math.log2(size))) if size > 1 else 1
        for value in range(2**size):
            bits = format(value, f"0{size}b")
            out = one_hot_block_decode(1, size, bits)
            if bits.count("1") == 1:
                onehot_ok = onehot_ok and out == format(
                    bits.index("1"), f"0{width}b"
                )
            else:
                onehot_ok = onehot_ok and out == REJECT
    ok = worst_round <= 1e-10 and worst_inner <= 1e-10 and onehot_ok
    announce(capsys, 5, ok,
             f"100 roundtrips: worst amplitude error {worst_round:.2e}, "
             f"worst inner-product error {worst_inner:.2e}; exhaustive "
             f"one-hot decode correct: {onehot_ok}")


def test_criterion_6_weft_metric(capsys):
    rng = np.random.default_rng(106)
    mismatches = 0
    for _ in range(100):
        circuit = random_circuit(rng, 6, int(rng.integers(1, 26)))
        metrics = circuit_metrics(circuit)
        weft, depth = dag_metrics_oracle(circuit)
        if metrics.weft != weft or metrics.depth != depth:
            mismatches += 1
    announce(capsys, 6, mismatches == 0,
             f"100 random circuits (≤ 25 gates): {mismatches} mismatches "
             f"against DAG longest-path enumeration")


def test_criterion_7_jones_end_to_end(capsys):
    rng = np.random.default_rng(107)
    worst = 0.0
    braids = 0
    for _ in range(120):
        braid = random_braid(rng, max_strands=6, max_len=8)
        braids += 1
        for k in (5, 7, 8):
            dev = abs(jones_via_path_model(braid, k) - jones_exact(braid, k))
            worst = max(worst, dev)
    exact_ok = worst <= 1e-6

    braid = BraidWord(6, (1, -3, 5, 2, -4, 1))
    hits = 0
    for seed in range(100):
        report = estimate_jones(braid, 5, 0.1, 0.025, seed=seed)
        if abs(report.value - jones_exact(braid, 5)) <= report.bound:
            hits += 1
    sampled_ok = hits >= 93
    ok = exact_ok and sampled_ok
    announce(capsys, 7, ok,
             f"{braids} sampled braids × k ∈ {{5,7,8}}: worst pipeline "
             f"deviation {worst:.2e} (≤ 1e-6); sampled bound held in "
             f"{hits}/100 trials (≥ 93)")


def test_criterion_8_exact_slice_deciders(capsys):
    rng = np.random.default_rng(108)
    violations = 0
    for _ in range(30):
        n = int(rng.integers(3, 7))
        k = int(rng.integers(1, 3))
        if k > n:
            k = n
        circuit = QuantumCircuit(
            n, 1, random_circuit(rng, n + 1, 7).gates, int(rng.integers(n + 1))
        )
        quantum = decide_weight_qcs_exact(circuit, k, 0.0, 1.0)
        classical = decide_hamming_weight_qcs_exact(circuit, k, 0.0, 1.0)
        enum = WeightEnumeration(n, k)
        idx = list(enum.indices())
        for _ in range(30):
            v = rng.normal(size=enum.dim) + 1j * rng.normal(size=enum.dim)
            v /= np.linalg.norm(v)
            amps = np.zeros(2**n, dtype=complex)
            amps[idx] = v
            p = acceptance_probability(circuit, StateVector(n, amps))
            if p > quantum.max_acceptance + 1e-9:
                violations += 1
        for p in classical.table.values():
            if p > quantum.max_acceptance + 1e-9:
                violations += 1
    announce(capsys, 8, violations == 0,
             f"30 shared instances: λ_max dominated every Rayleigh quotient "
             f"and basis acceptance ({violations} violations)")


def test_criterion_9_cli_determinism(capsys, tmp_path):
    braid_path = tmp_path / "braid.json"
    braid_path.write_text(json.dumps({"strands": 4, "word": [1, -2, 3, -2]}))
    amp_path = tmp_path / "amp.json"
    amp_path.write_text(json.dumps({"unitary": matrix_to_json(np.eye(4))}))
    gap_path = tmp_path / "gap.json"
    gap_path.write_text(json.dumps({
        "witness_qubits": 4, "ancilla_qubits": 1, "accept_qubit": 4,
        "gates": [{"name": "TOFFOLI", "controls": [0, 1], "targets": [4]}],
        "classical_only": True,
    }))
    commands = [
        ["jones", "--input", str(braid_path), "--k", "5",
         "--tau", "0.1", "--seed", "31"],
        ["amp-estimate", "--input", str(amp_path),
         "--tau", "0.1", "--delta", "0.05", "--seed", "32"],
        ["gapp-estimate", "--input", str(gap_path),
         "--tau", "0.2", "--delta", "0.1", "--seed", "33"],
    ]
    ok = True
    for argv in commands:
        outputs = set()
        for _ in range(3):
            code = main(list(argv))
            out = capsys.readouterr().out
            assert code == 0
            outputs.add(out.encode())
        ok = ok and len(outputs) == 1
    announce(capsys, 9, ok,
             "3 CLI commands × 3 runs each: byte-identical JSON reports")

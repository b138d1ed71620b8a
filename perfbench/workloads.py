"""Seeded request mixes for the benchmark workloads, and their references.

A workload is a fixed list of request shapes (command, instance size and
flags). The seed draws only the instance contents, so every seed gives a mix
with the same cost profile. ``build_plan`` writes each instance as a CLI JSON
file and returns the request list: the argv that the program receives and a
reference for checking its report.

References are computed here, before any timing starts, by routes that do not
go through the code under test: a vectorised weight-k restriction plus
``scipy.sparse.linalg.eigsh`` for Hamiltonians, a batched tensordot
statevector simulator for the circuit deciders, an integer bit-parallel
evaluator for gap instances and direct numpy products for amplitudes. The one
exception is the Jones value, which comes from ``jones_via_path_model`` (the
path-model pipeline) and is checked against both the bracket command and the
sampled estimate.
"""
from __future__ import annotations

import json
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

ONE_Q = ("H", "X", "Y", "Z", "S", "SDG", "T")

# Request shapes per workload, in mix order. The first shape of each command
# is its warm-up request. Every shape runs once per pass of the mix. The
# counts put the median (rank 9.5 of 20 in latency order) and the 90th
# percentile (rank 17.1) inside blocks of one shape, so that neither
# percentile sits on the step between two request sizes.
MIXES = {
    "ham-slice": (
        [("ham-decide", {"n": 14, "k": 3, "terms": 14})] * 4
        + [("ham-decide", {"n": 16, "k": 3, "terms": 16})] * 10
        + [("ham-decide", {"n": 18, "k": 4, "terms": 12})] * 5
        + [("ham-decide", {"n": 15, "k": 4, "terms": 15})] * 1
    ),
    "circuit-witness": (
        [("weft", {"witness": 6, "qubits": 12, "gates": 60})] * 5
        + [("qmak-decide", {"k": 6, "qubits": 12, "gates": 60})] * 9
        + [("qmak-decide",
            {"k": 7, "qubits": 12, "gates": 60, "dark_accept": True})] * 1
        + [("wqcs-decide", {"n": 10, "k": 3, "qubits": 12, "gates": 60})] * 2
        + [("hwqcs-decide", {"n": 10, "k": 3, "qubits": 12, "gates": 60})] * 2
        + [("hwqcs-decide", {"n": 10, "k": 4, "qubits": 12, "gates": 60})] * 1
    ),
    "jones-sampling": (
        [("gapp-exact", {"path_bits": 17})] * 2
        + [("gapp-estimate", {"path_bits": 16})] * 2
        + [("jones", {"strands": 10, "crossings": 12, "k": 7})] * 8
        + [("jones-exact", {"strands": 8, "crossings": 12, "k": 7})] * 3
        + [("amp-estimate", {"qubits": 8})] * 4
        + [("jones", {"strands": 12, "crossings": 12, "k": 7})] * 1
    ),
}

# Flags of the sampled commands; delta <= 1e-3 keeps each bound's failure
# probability negligible, so no seed yields a spurious failure.
AMP_FLAGS = ("--tau", "0.02", "--delta", "0.001")
GAPP_FLAGS = ("--tau", "0.01", "--delta", "0.001")
JONES_FLAGS = ("--tau", "0.02", "--delta", "0.001")


# --- instance generators -------------------------------------------------

def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def matrix_json(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def matrix_unjson(data) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in data])


def random_hamiltonian(rng, n: int, terms: int) -> list:
    out = []
    for _ in range(terms):
        qubits = sorted(int(q) for q in rng.choice(n, size=2, replace=False))
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        block = (m + m.conj().T) / 4
        out.append({"qubits": qubits, "matrix": matrix_json(block)})
    return out


def random_gate(rng, allowed: list[int], kinds=None) -> dict:
    kinds = kinds or ONE_Q + ("CX", "CZ", "SWAP", "TOFFOLI", "UNITARY")
    kind = str(rng.choice(kinds))
    if kind in ONE_Q:
        return {"name": kind, "targets": [int(rng.choice(allowed))]}
    if kind in ("CX", "CZ"):
        a, b = (int(x) for x in rng.choice(allowed, size=2, replace=False))
        return {"name": kind, "controls": [a], "targets": [b]}
    if kind == "SWAP":
        return {"name": kind,
                "targets": [int(x) for x in rng.choice(allowed, 2, replace=False)]}
    if kind == "TOFFOLI":
        picked = [int(x) for x in rng.choice(allowed, size=3, replace=False)]
        return {"name": kind, "controls": picked[:2], "targets": picked[2:]}
    size = int(rng.integers(1, 4))
    return {"name": "UNITARY",
            "targets": [int(x) for x in rng.choice(allowed, size, replace=False)],
            "matrix": matrix_json(random_unitary(rng, 2**size))}


def random_circuit(rng, witness: int, total: int, gates: int,
                   dark_accept: bool = False, kinds=None) -> dict:
    """A circuit JSON; with ``dark_accept`` the accept wire is never touched,
    so the acceptance probability is exactly 0."""
    accept = total - 1 if dark_accept else int(rng.integers(total))
    allowed = [q for q in range(total) if not (dark_accept and q == accept)]
    return {
        "witness_qubits": witness,
        "ancilla_qubits": total - witness,
        "accept_qubit": accept,
        "gates": [random_gate(rng, allowed, kinds) for _ in range(gates)],
    }


def random_braid(rng, strands: int, crossings: int) -> dict:
    letters = rng.integers(1, strands, size=crossings)
    signs = rng.choice([-1, 1], size=crossings)
    return {"strands": strands, "word": [int(x) for x in letters * signs]}


# --- independent reference routes ----------------------------------------

def weight_basis(n: int, k: int) -> np.ndarray:
    """Weight-k basis indices (qubit 0 = MSB), increasing."""
    out = np.fromiter(
        (sum(1 << (n - 1 - q) for q in c) for c in combinations(range(n), k)),
        dtype=np.int64, count=comb(n, k),
    )
    return np.sort(out)


def restricted_hamiltonian(n: int, k: int, terms: list) -> sp.csr_matrix:
    """Weight-k restriction by vectorised bit surgery and COO summation."""
    basis = weight_basis(n, k)
    dim = len(basis)
    rows, cols, vals = [], [], []
    ranks = np.arange(dim)
    for term in terms:
        qubits = term["qubits"]
        block = matrix_unjson(term["matrix"])
        s = len(qubits)
        shifts = [n - 1 - q for q in qubits]
        local = np.zeros(dim, dtype=np.int64)
        cleared = basis.copy()
        for shift in shifts:
            local = (local << 1) | ((basis >> shift) & 1)
            cleared &= ~(1 << shift)
        for iy in range(2**s):
            y = cleared.copy()
            for pos, shift in enumerate(shifts):
                y |= ((iy >> (s - 1 - pos)) & 1) << shift
            pos = np.minimum(np.searchsorted(basis, y), dim - 1)
            inside = basis[pos] == y
            v = block[local[inside], iy]
            keep = v != 0
            rows.append(ranks[inside][keep])
            cols.append(pos[inside][keep])
            vals.append(v[keep])
    coo = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim),
    )
    return coo.tocsr()


def reference_lambda_min(n: int, k: int, terms: list) -> float:
    h = restricted_hamiltonian(n, k, terms)
    v0 = np.ones(h.shape[0]) / np.sqrt(h.shape[0])
    vals = spla.eigsh(h, k=1, which="SA", tol=0, v0=v0,
                      return_eigenvectors=False)
    return float(vals[0])


def _gate_matrix(gate: dict) -> np.ndarray:
    name = gate["name"]
    if name == "UNITARY":
        return matrix_unjson(gate["matrix"])
    if name == "TOFFOLI":
        dim = 2 ** (len(gate["controls"]) + 1)
        m = np.eye(dim, dtype=complex)
        m[[dim - 2, dim - 1]] = m[[dim - 1, dim - 2]]
        return m
    s = 1 / np.sqrt(2)
    fixed = {
        "H": [[s, s], [s, -s]], "X": [[0, 1], [1, 0]], "Y": [[0, -1j], [1j, 0]],
        "Z": [[1, 0], [0, -1]], "S": [[1, 0], [0, 1j]], "SDG": [[1, 0], [0, -1j]],
        "T": [[1, 0], [0, np.exp(1j * np.pi / 4)]],
        "CX": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
        "CZ": np.diag([1, 1, 1, -1]),
        "SWAP": [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
    }
    return np.asarray(fixed[name], dtype=complex)


def accept_projected_block(circuit: dict, witness_indices: np.ndarray) -> np.ndarray:
    """Columns Π₁·U|w,0…0⟩ for all witnesses at once, shape (2^total, W).

    The state block is a tensor with one axis per wire and a trailing witness
    axis; each gate is one tensordot over its wires.
    """
    w = circuit["witness_qubits"]
    total = w + circuit["ancilla_qubits"]
    count = len(witness_indices)
    block = np.zeros((2**total, count), dtype=complex)
    block[witness_indices << circuit["ancilla_qubits"], np.arange(count)] = 1.0
    state = block.reshape([2] * total + [count])
    for gate in circuit["gates"]:
        wires = list(gate.get("controls", [])) + list(gate["targets"])
        s = len(wires)
        g = _gate_matrix(gate).reshape([2] * (2 * s))
        state = np.tensordot(g, state, axes=(list(range(s, 2 * s)), wires))
        # tensordot puts the gate's output axes first; move them back
        state = np.moveaxis(state, list(range(s)), wires)
    index = [slice(None)] * (total + 1)
    index[circuit["accept_qubit"]] = 0
    state = state.copy()
    state[tuple(index)] = 0.0
    return state.reshape(2**total, count)


def reference_gram(circuit: dict, k: int) -> np.ndarray:
    """Gram matrix of accept-projected outputs over the weight-k witnesses."""
    phi = accept_projected_block(circuit, weight_basis(circuit["witness_qubits"], k))
    return phi.conj().T @ phi


def reference_weft(circuit: dict) -> dict:
    """Weft, depth and size by a per-wire longest-path sweep."""
    total = circuit["witness_qubits"] + circuit["ancilla_qubits"]
    weft, depth = [0] * total, [0] * total
    for gate in circuit["gates"]:
        wires = list(gate.get("controls", [])) + list(gate["targets"])
        heavy = gate["name"] == "TOFFOLI" or (
            gate["name"] == "UNITARY" and len(gate["targets"]) >= 3)
        w = max(weft[q] for q in wires) + int(heavy)
        d = max(depth[q] for q in wires) + 1
        for q in wires:
            weft[q], depth[q] = w, d
    return {"weft": max(weft), "depth": max(depth), "size": len(circuit["gates"])}


def reference_gap(instance: dict) -> int:
    """(#accepting − #rejecting) paths, with each wire an integer bit-vector."""
    p = instance["witness_qubits"]
    total = p + instance["ancilla_qubits"]
    paths = np.arange(2**p, dtype=np.int64)
    wires = [(paths >> (p - 1 - q)) & 1 if q < p else np.zeros_like(paths)
             for q in range(total)]
    for gate in instance["gates"]:
        t = gate["targets"][0]
        flip = np.ones_like(paths)
        for c in gate.get("controls", []):
            flip = flip & wires[c]
        wires[t] = wires[t] ^ flip
    accepted = int(wires[instance["accept_qubit"]].sum())
    return 2 * accepted - 2**p


def reference_amplitude(unitary: np.ndarray, prep: dict) -> complex:
    """⟨ψ|U|ψ⟩ with ψ the product state that the one-qubit prep layer makes."""
    psi = np.ones(1, dtype=complex)
    per_wire = [np.eye(2, dtype=complex) for _ in range(prep["witness_qubits"])]
    for gate in prep["gates"]:
        q = gate["targets"][0]
        per_wire[q] = _gate_matrix(gate) @ per_wire[q]
    for m in per_wire:
        psi = np.kron(psi, m[:, 0])
    return complex(np.vdot(psi, unitary @ psi))


def reference_jones(braid: dict, k: int) -> complex:
    from qparam.jones import BraidWord, jones_via_path_model

    return jones_via_path_model(BraidWord(braid["strands"], tuple(braid["word"])), k)


# --- plan construction ---------------------------------------------------

def derived_seed(seed: int, index: int) -> int:
    """The estimator ``--seed`` of request ``index`` under workload ``seed``."""
    return int(np.random.SeedSequence([seed, index, 1]).generate_state(1, np.uint64)[0]
               >> 1)


def _slice_thresholds(value: float, want_yes: bool) -> tuple[float, float]:
    """Thresholds (a, b) that put ``value`` clearly on the wanted side."""
    if want_yes:
        return value - 0.3, value - 0.05
    return value + 0.05, value + 0.3


def _make_request(command: str, shape: dict, rng, index: int, seed: int) -> tuple:
    """(instance JSON, extra argv, reference) for one request shape."""
    want_yes = index % 2 == 0
    if command == "ham-decide":
        n, k = shape["n"], shape["k"]
        terms = random_hamiltonian(rng, n, shape["terms"])
        lam = reference_lambda_min(n, k, terms)
        a, b = (lam + 0.05, lam + 0.3) if want_yes else (lam - 0.3, lam - 0.05)
        instance = {"n": n, "locality": 2, "a": a, "b": b, "terms": terms}
        ref = {"lambda_min": lam, "dim": comb(n, k),
               "verdict": "YES" if want_yes else "NO"}
        return instance, ["--k", str(k)], ref
    if command == "weft":
        circuit = random_circuit(rng, shape["witness"], shape["qubits"], shape["gates"])
        return circuit, [], reference_weft(circuit)
    if command == "qmak-decide":
        k = shape["k"]
        circuit = random_circuit(rng, k, shape["qubits"], shape["gates"],
                                 dark_accept=shape.get("dark_accept", False))
        phi = accept_projected_block(circuit, np.arange(2**k))
        trace = float(np.vdot(phi, phi).real)
        verdict = "YES" if trace >= 2 / 3 else "NO" if trace <= 1 / 3 else \
            "PROMISE_VIOLATED"
        return circuit, ["--k", str(k)], {"trace": trace, "verdict": verdict}
    if command in ("wqcs-decide", "hwqcs-decide"):
        n, k = shape["n"], shape["k"]
        circuit = random_circuit(rng, n, shape["qubits"], shape["gates"])
        gram = reference_gram(circuit, k)
        lam_max = float(np.linalg.eigvalsh(gram)[-1])
        diag = np.real(np.diag(gram))
        ref = {"lambda_max": lam_max, "k": k}
        if command == "wqcs-decide":
            value = lam_max
        else:
            value = float(diag.max())
            strings = [format(int(x), f"0{n}b") for x in weight_basis(n, k)]
            ref["table"] = dict(zip(strings, (float(d) for d in diag)))
        ref["max_acceptance"] = value
        a, b = _slice_thresholds(value, want_yes)
        ref["verdict"] = "YES" if want_yes else "NO"
        return circuit, ["--k", str(k), "--a", repr(a), "--b", repr(b)], ref
    if command in ("jones", "jones-exact"):
        braid = random_braid(rng, shape["strands"], shape["crossings"])
        k = shape["k"]
        value = reference_jones(braid, k)
        argv = ["--k", str(k)]
        if command == "jones":
            argv += [*JONES_FLAGS, "--seed", str(derived_seed(seed, index))]
        return braid, argv, {"jones": [value.real, value.imag]}
    if command == "amp-estimate":
        q = shape["qubits"]
        unitary = random_unitary(rng, 2**q)
        prep = {"witness_qubits": q, "ancilla_qubits": 0, "accept_qubit": 0,
                "gates": [{"name": str(rng.choice(ONE_Q)), "targets": [w]}
                          for w in range(q) for _ in range(2)]}
        amp = reference_amplitude(unitary, prep)
        instance = {"unitary": matrix_json(unitary), "prep": prep}
        argv = [*AMP_FLAGS, "--seed", str(derived_seed(seed, index))]
        return instance, argv, {"amplitude": [amp.real, amp.imag]}
    if command in ("gapp-estimate", "gapp-exact"):
        p = shape["path_bits"]
        instance = random_circuit(rng, p, p + 4, 3 * p,
                                  kinds=("X", "CX", "TOFFOLI"))
        # accept on the AND of two wires, so about a quarter of paths accept
        controls = [int(x) for x in rng.choice(p + 3, size=2, replace=False)]
        instance["gates"].append(
            {"name": "TOFFOLI", "controls": controls, "targets": [p + 3]})
        instance["accept_qubit"] = p + 3
        instance["classical_only"] = True
        argv = []
        if command == "gapp-estimate":
            argv = [*GAPP_FLAGS, "--seed", str(derived_seed(seed, index))]
        return instance, argv, {"gap": reference_gap(instance)}
    raise ValueError(f"unknown command {command!r}")


def build_plan(workload: str, seed: int, workdir: Path, mix=None) -> dict:
    """Write the workload's instances under ``workdir`` and return the plan:
    requests in mix order, each with its argv and reference. ``mix``
    replaces the workload's own request shapes (the self-test's tiny ones)."""
    mix = mix or MIXES[workload]
    workdir.mkdir(parents=True, exist_ok=True)
    requests, warmup, seen = [], [], set()
    for index, (command, shape) in enumerate(mix):
        rng = np.random.default_rng([seed, index])
        instance, extra, ref = _make_request(command, shape, rng, index, seed)
        path = workdir / f"r{index:02d}-{command}.json"
        path.write_text(json.dumps(instance))
        requests.append({
            "id": index,
            "command": command,
            "shape": shape,
            "argv": [command, "--input", str(path), *extra],
            "ref": ref,
        })
        if command not in seen:
            seen.add(command)
            warmup.append(index)
    return {"workload": workload, "seed": seed, "requests": requests,
            "warmup": warmup}

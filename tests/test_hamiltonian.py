import json
import os
import subprocess
import sys
from dataclasses import replace
from math import comb
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import hamiltonian_oracle, random_hermitian, random_state
from qparam.circuits import apply_gate_matrix
from qparam.decision import Verdict
from qparam.errors import InvalidInputError
from qparam.hamiltonian import (
    RESTRICT_ENTRY_LIMIT,
    LocalHamiltonian,
    LocalTerm,
    decide_weight_k_local_hamiltonian,
    expectation_value,
    restrict_to_weight,
)
from qparam.linalg import min_eigenvalue
from qparam.states import StateVector
from qparam.weightenum import WeightEnumeration

Z = np.diag([1.0, -1.0]).astype(complex)


def sum_z(n, a=0.0, b=1.0):
    terms = tuple(LocalTerm((i,), Z) for i in range(n))
    return LocalHamiltonian(n, 1, a, b, terms)


def random_two_local(rng, n, num_terms=5, a=0.0, b=1.0):
    terms = []
    for _ in range(num_terms):
        i, j = sorted(rng.choice(n, size=2, replace=False))
        terms.append(LocalTerm((int(i), int(j)), random_hermitian(rng, 4)))
    return LocalHamiltonian(n, 2, a, b, tuple(terms))


def random_mixed_local(rng, n, num_terms=8):
    """Terms on random supports of one, two and three qubits."""
    terms = []
    for t in range(num_terms):
        size = (2, 3, 1)[t % 3]
        qubits = sorted(int(q) for q in rng.choice(n, size=size, replace=False))
        terms.append(LocalTerm(tuple(qubits), random_hermitian(rng, 2**size)))
    return LocalHamiltonian(n, 3, 0.0, 1.0, tuple(terms))


def frustration_free(rng, n, k, num_terms, a=0.5, b=1.0):
    """Two-local rank-1 or rank-2 projectors that all annihilate one random
    weight-k basis state, so the weight-k λ_min is exactly 0."""
    x = np.zeros(n, dtype=int)
    x[rng.choice(n, size=k, replace=False)] = 1
    terms = []
    for _ in range(num_terms):
        i, j = sorted(int(q) for q in rng.choice(n, size=2, replace=False))
        vecs = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        vecs[2 * x[i] + x[j]] = 0  # orthogonal to the state's local pattern
        q, _ = np.linalg.qr(vecs[:, : int(rng.integers(1, 3))])
        terms.append(LocalTerm((i, j), q @ q.conj().T))
    return LocalHamiltonian(n, 2, a, b, tuple(terms))


def sector_vector(rng, n, idx):
    """A random 2^n vector supported on the given basis indices."""
    out = np.zeros(2**n, dtype=complex)
    out[idx] = rng.normal(size=len(idx)) + 1j * rng.normal(size=len(idx))
    return out


class TestConstruction:
    def test_non_hermitian_block_rejected(self):
        with pytest.raises(InvalidInputError):
            LocalTerm((0,), np.array([[0, 1], [0, 0]], dtype=complex))

    def test_unsorted_support_rejected(self):
        with pytest.raises(InvalidInputError):
            LocalTerm((1, 0), np.eye(4))

    def test_locality_enforced(self):
        term = LocalTerm((0, 1), np.eye(4))
        with pytest.raises(InvalidInputError):
            LocalHamiltonian(4, 1, 0.0, 1.0, (term,))

    def test_thresholds_enforced(self):
        with pytest.raises(InvalidInputError):
            sum_z(4, a=1.0, b=1.0)

    def test_json_roundtrip(self):
        # a complex 2-local term and a 1-local term, as [re, im] pairs
        data = json.loads("""{
            "n": 5, "locality": 2, "a": -0.5, "b": 0.25,
            "terms": [
                {"qubits": [1, 4], "matrix": [
                    [[0.5, 0], [0, 0], [0, 0], [0, -2]],
                    [[0, 0], [-1, 0], [3, 0.5], [0, 0]],
                    [[0, 0], [3, -0.5], [0, 0], [0, 0]],
                    [[0, 2], [0, 0], [0, 0], [1.5, 0]]]},
                {"qubits": [2], "matrix": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]}
            ]}""")
        h = LocalHamiltonian.from_json(data)
        assert (h.n, h.locality, h.a, h.b) == (5, 2, -0.5, 0.25)
        assert [t.qubits for t in h.terms] == [(1, 4), (2,)]
        block = np.array([[0.5, 0, 0, -2j], [0, -1, 3 + 0.5j, 0],
                          [0, 3 - 0.5j, 0, 0], [2j, 0, 0, 1.5]])
        assert np.array_equal(h.terms[0].block, block)
        assert np.array_equal(h.terms[1].block, Z)


class TestAssembleFull:
    """The full 2^n matrix that the restriction tests compare against."""

    def test_z_on_qubit_zero_is_most_significant(self):
        h = LocalHamiltonian(2, 1, 0.0, 1.0, (LocalTerm((0,), Z),))
        assert np.allclose(hamiltonian_oracle(h), np.diag([1, 1, -1, -1]))

    def test_linearity(self):
        h1 = LocalHamiltonian(2, 1, 0.0, 1.0, (LocalTerm((0,), Z),))
        h2 = LocalHamiltonian(2, 1, 0.0, 1.0, (LocalTerm((1,), Z),))
        both = LocalHamiltonian(
            2, 1, 0.0, 1.0, (LocalTerm((0,), Z), LocalTerm((1,), Z))
        )
        assert np.allclose(
            hamiltonian_oracle(both), hamiltonian_oracle(h1) + hamiltonian_oracle(h2)
        )

    def test_against_kronecker_oracle(self, rng):
        # [DERIVED] independent tensor-embedding oracle
        h = random_two_local(rng, 6)
        expected = np.zeros((64, 64), dtype=complex)
        for term in h.terms:
            i, j = term.qubits
            ops = [np.eye(2, dtype=complex)] * 6
            # expand the two-qubit block over the pair (i, j) via basis ops
            for bi in range(2):
                for bj in range(2):
                    for ci in range(2):
                        for cj in range(2):
                            coeff = term.block[2 * bi + bj, 2 * ci + cj]
                            if coeff == 0:
                                continue
                            factors = [np.eye(2, dtype=complex)] * 6
                            ei = np.zeros((2, 2), dtype=complex)
                            ei[bi, ci] = 1
                            ej = np.zeros((2, 2), dtype=complex)
                            ej[bj, cj] = 1
                            factors[i] = ei
                            factors[j] = ej
                            kron = factors[0]
                            for f in factors[1:]:
                                kron = np.kron(kron, f)
                            expected += coeff * kron
        assert np.allclose(hamiltonian_oracle(h), expected, atol=1e-10)


class TestRestrictToWeight:
    def test_sum_z_weight_one(self):
        # diagonal and weight-uniform: every entry n - 2k
        r = restrict_to_weight(sum_z(4), 1)
        assert np.allclose(r.toarray(), 2 * np.eye(4))

    def test_weight_zero(self):
        r = restrict_to_weight(sum_z(4), 0)
        assert r.shape == (1, 1)
        assert r[0, 0] == pytest.approx(4.0)

    def test_against_submatrix_oracle(self, rng):
        # [DERIVED] brute-force submatrix of the full assembly
        h = random_two_local(rng, 8)
        idx = list(WeightEnumeration(8, 2).indices())
        sub = hamiltonian_oracle(h)[np.ix_(idx, idx)]
        assert np.allclose(restrict_to_weight(h, 2).toarray(), sub, atol=1e-10)

    def test_hermitian_output(self, rng):
        r = restrict_to_weight(random_two_local(rng, 7), 3)
        assert np.max(np.abs(r - r.conj().T)) < 1e-12

    def test_dimension_is_binomial(self):
        assert restrict_to_weight(sum_z(6), 3).shape == (20, 20)

    def test_three_local_against_submatrix_oracle(self, rng):
        # [DERIVED] brute-force submatrix of the full assembly
        h = random_mixed_local(rng, 9)
        idx = list(WeightEnumeration(9, 4).indices())
        sub = hamiltonian_oracle(h)[np.ix_(idx, idx)]
        restricted = restrict_to_weight(h, 4)
        assert sp.issparse(restricted)
        assert np.allclose(restricted.toarray(), sub, atol=1e-10)

    def test_weight_n(self, rng):
        # the one all-ones state: its diagonal entry of the full matrix
        h = random_mixed_local(rng, 6)
        restricted = restrict_to_weight(h, 6)
        assert restricted.shape == (1, 1)
        assert restricted[0, 0] == pytest.approx(hamiltonian_oracle(h)[-1, -1])

    def test_sparse_sector_bilinear_form(self, rng):
        n, k = 14, 6
        h = random_mixed_local(rng, n, num_terms=9)
        idx = WeightEnumeration(n, k).indices()
        restricted = restrict_to_weight(h, k)
        assert sp.issparse(restricted)
        assert restricted.shape == (comb(n, k), comb(n, k))
        assert abs(restricted - restricted.conj().T).max() < 1e-12
        for _ in range(3):
            psi = sector_vector(rng, n, idx)
            phi = sector_vector(rng, n, idx)
            # ⟨ψ|H|φ⟩ by applying each term to the full 2^n vector
            expected = sum(
                np.vdot(psi, apply_gate_matrix(phi, n, t.qubits, t.block))
                for t in h.terms
            )
            got = np.vdot(psi[idx], restricted @ phi[idx])
            assert got == pytest.approx(expected, abs=1e-9)

    def test_entry_limit_admits_n40_k4_with_60_pair_terms(self):
        # the basis plus four candidate entries per state and term
        assert comb(40, 4) * (1 + 60 * 4) <= RESTRICT_ENTRY_LIMIT

    def test_mixed_supports_sharing_a_pair_stay_hermitian(self, rng):
        # [DERIVED] brute-force submatrix of the full assembly. A 0-local
        # (1×1) term, 1-, 2- and 3-local terms, three terms on the pair (1, 4)
        # and a 3-local term over it, all at scale 1e6: the shared entries
        # must sum to S at (r, c) and conj(S) at (c, r)
        supports = [(), (2,), (0,), (1, 4), (1, 4), (1, 4), (0, 3),
                    (1, 2, 4), (0, 3, 5)]
        terms = tuple(LocalTerm(q, random_hermitian(rng, 2 ** len(q)) * 1e6)
                      for q in supports)
        h = LocalHamiltonian(7, 3, 0.0, 1.0, terms)
        idx = list(WeightEnumeration(7, 3).indices())
        restricted = restrict_to_weight(h, 3)
        assert (restricted != restricted.conj().T).nnz == 0
        sub = hamiltonian_oracle(h)[np.ix_(idx, idx)]
        assert np.allclose(restricted.toarray(), sub, rtol=0, atol=1e-6)

    def test_entries_that_sum_to_zero_are_not_stored(self):
        # at weight 2 the four Z terms cancel on every state
        assert restrict_to_weight(sum_z(4), 2).nnz == 0

    def test_no_terms_give_the_zero_matrix(self):
        restricted = restrict_to_weight(LocalHamiltonian(6, 2, 0.0, 1.0, ()), 2)
        assert sp.isspmatrix_csr(restricted)
        assert restricted.shape == (comb(6, 2), comb(6, 2))
        assert restricted.nnz == 0

    def test_admitted_boundary_peaks_under_320_mib(self):
        # the boundary of the test above: C(40, 4) = 91390 states and about
        # 1.1 million stored entries. The child reports its own peak RSS,
        # VmHWM in KiB, as in test_widest_qmak_peaks_under_128_mib
        script = (
            "import re\n"
            "import numpy as np\n"
            "from qparam.hamiltonian import LocalHamiltonian, LocalTerm, restrict_to_weight\n"
            "rng = np.random.default_rng(40)\n"
            "terms = []\n"
            "for _ in range(60):\n"
            "    i, j = sorted(int(q) for q in rng.choice(40, size=2, replace=False))\n"
            "    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))\n"
            "    terms.append(LocalTerm((i, j), (a + a.conj().T) / 2))\n"
            "r = restrict_to_weight(LocalHamiltonian(40, 2, 0.0, 1.0, tuple(terms)), 4)\n"
            "status = open('/proc/self/status').read()\n"
            "print(r.shape[0], r.nnz, re.search(r'VmHWM:\\s*(\\d+) kB', status)[1])\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(src)})
        assert done.returncode == 0, done.stderr
        dim, nnz, peak_kib = map(int, done.stdout.split())
        assert dim == comb(40, 4)
        assert nnz > 10**6
        assert peak_kib < 320 * 1024


class TestExpectationValue:
    def test_z_on_zero_state(self):
        h = LocalHamiltonian(3, 1, 0.0, 1.0, (LocalTerm((0,), Z),))
        assert expectation_value(h, StateVector.zero(3)) == pytest.approx(1.0)

    def test_z_on_plus_state(self):
        h = LocalHamiltonian(2, 1, 0.0, 1.0, (LocalTerm((0,), Z),))
        amps = np.zeros(4, dtype=complex)
        amps[0] = amps[2] = 1 / np.sqrt(2)  # |+>|0>
        assert expectation_value(h, StateVector(2, amps)) == pytest.approx(0.0)

    def test_against_dense_oracle(self, rng):
        h = random_two_local(rng, 6)
        psi = random_state(rng, 6)
        expected = (psi.conj() @ hamiltonian_oracle(h) @ psi).real
        assert expectation_value(h, StateVector(6, psi)) == pytest.approx(
            expected, abs=1e-10
        )

    def test_restriction_preserves_expectation(self, rng):
        # ⟨ψ|H|ψ⟩ = ⟨ψ_ε|H_ε|ψ_ε⟩ for states supported on the sector
        h = random_two_local(rng, 7)
        enum = WeightEnumeration(7, 3)
        idx = list(enum.indices())
        restricted = restrict_to_weight(h, 3)
        for _ in range(100):
            compressed = rng.normal(size=enum.dim) + 1j * rng.normal(size=enum.dim)
            compressed /= np.linalg.norm(compressed)
            full = np.zeros(2**7, dtype=complex)
            full[idx] = compressed
            lhs = expectation_value(h, StateVector(7, full))
            rhs = (compressed.conj() @ restricted @ compressed).real
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_qubit_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            expectation_value(sum_z(4), StateVector.zero(3))


class TestDecide:
    def test_yes(self):
        d = decide_weight_k_local_hamiltonian(sum_z(4, a=2.5, b=3.5), 1)
        assert d.verdict is Verdict.YES
        assert d.lambda_min == pytest.approx(2.0)

    def test_no(self):
        d = decide_weight_k_local_hamiltonian(sum_z(4, a=0.5, b=1.5), 1)
        assert d.verdict is Verdict.NO

    def test_promise_violated(self):
        d = decide_weight_k_local_hamiltonian(sum_z(4, a=1.5, b=2.5), 1)
        assert d.verdict is Verdict.PROMISE_VIOLATED

    def test_against_full_spectrum_oracle(self, rng):
        for _ in range(5):
            h = random_two_local(rng, 8)
            idx = list(WeightEnumeration(8, 2).indices())
            sub = hamiltonian_oracle(h)[np.ix_(idx, idx)]
            lam = float(np.linalg.eigvalsh(sub)[0])
            straddling = LocalHamiltonian(
                8, 2, lam + 0.1, lam + 0.2, h.terms
            )
            d = decide_weight_k_local_hamiltonian(straddling, 2)
            assert d.verdict is Verdict.YES
            assert d.lambda_min == pytest.approx(lam, abs=1e-8)

    def test_large_entries_keep_the_restriction_hermitian(self, rng):
        # entries (r, c) and (c, r) sum the same terms in different orders;
        # at scale 1e6 a sum built in both orders missed the 1e-12 Hermitian
        # tolerance in about a third of these instances
        idx = list(WeightEnumeration(6, 3).indices())
        for _ in range(30):
            h = random_two_local(rng, 6, num_terms=12)
            h = replace(h, terms=tuple(replace(t, block=t.block * 1e6) for t in h.terms))
            restricted = restrict_to_weight(h, 3)
            assert (restricted != restricted.conj().T).nnz == 0
            lam = float(np.linalg.eigvalsh(hamiltonian_oracle(h)[np.ix_(idx, idx)])[0])
            d = decide_weight_k_local_hamiltonian(h, 3)
            assert d.lambda_min == pytest.approx(lam, rel=1e-9)

    def test_terms_off_hermitian_within_tolerance_sum_to_hermitian(self):
        # each block is 0.9e-12 off Hermitian, which LocalTerm admits; forty
        # of them on one pair would put 3.6e-11 between entries (r, c) and (c, r)
        block = np.zeros((4, 4), dtype=complex)
        block[1, 2], block[2, 1] = 1.0, 1.0 + 0.9e-12
        h = LocalHamiltonian(2, 2, -39.0, -38.0, (LocalTerm((0, 1), block),) * 40)
        d = decide_weight_k_local_hamiltonian(h, 1)
        assert d.verdict is Verdict.YES
        assert d.lambda_min == pytest.approx(-40.0, abs=1e-12)

    def test_lambda_min_bits_do_not_depend_on_blas_threads(self):
        # dims 3060 and 15504: OpenBLAS threads its vector dots above 10000
        # entries, which changes their last bits with the thread count
        script = (
            "import numpy as np\n"
            "from qparam.hamiltonian import LocalHamiltonian, LocalTerm, restrict_to_weight\n"
            "from qparam.linalg import min_eigenvalue\n"
            "rng = np.random.default_rng(3060)\n"
            "for n, k in ((18, 4), (20, 5)):\n"
            "    terms = []\n"
            "    for _ in range(n):\n"
            "        i, j = sorted(int(q) for q in rng.choice(n, size=2, replace=False))\n"
            "        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))\n"
            "        terms.append(LocalTerm((i, j), (a + a.conj().T) / 2))\n"
            "    h = LocalHamiltonian(n, 2, 0.0, 1.0, tuple(terms))\n"
            "    print(min_eigenvalue(restrict_to_weight(h, k), mode='iterative').hex())\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        bits = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads}
            done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                  text=True, timeout=120, env=env)
            assert done.returncode == 0, done.stderr
            bits.append(done.stdout.split())
        assert len(bits[0]) == 2
        assert bits[0] == bits[1]

    def test_frustration_free_sectors_decide_yes(self, rng):
        # λ_min = 0 exactly: a singular sector whose null space the Lanczos
        # iteration must keep
        for _ in range(30):
            n = int(rng.integers(12, 19))
            k = int(rng.integers(2, 4))
            h = frustration_free(rng, n, k, int(rng.integers(n, 2 * n)))
            lam = min_eigenvalue(restrict_to_weight(h, k), mode="iterative")
            assert lam == pytest.approx(0.0, abs=1e-10)
            d = decide_weight_k_local_hamiltonian(h, k)
            assert d.lambda_min == pytest.approx(0.0, abs=1e-10)
            assert d.verdict is Verdict.YES


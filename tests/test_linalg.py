import numpy as np
import pytest
import scipy.sparse as sp

from conftest import random_hermitian
from qparam import linalg
from qparam.errors import ConvergenceError, InvalidInputError
from qparam.linalg import (
    full_spectrum,
    is_hermitian,
    matrix_from_json,
    matrix_to_json,
    min_eigenvalue,
)


class CountingCSR(sp.csr_matrix):
    """A CSR matrix that counts its products with vectors."""

    matvecs = 0

    def __matmul__(self, other):
        if isinstance(other, np.ndarray) and other.ndim == 1:
            self.matvecs += 1
        return super().__matmul__(other)


def random_sector(rng, dim: int, kind: str):
    """A sparse Hermitian matrix of about ``dim`` rows with a chosen low
    spectrum: random, a degenerate ground state, a cluster of lowest
    eigenvalues δ apart, or real entries. One random permutation of rows and
    columns interleaves the blocks."""
    def block(size):
        a = sp.random(size, size, density=min(1.0, 4 / size), dtype=complex,
                      random_state=rng,
                      data_rvs=lambda k: rng.normal(size=k) + 1j * rng.normal(size=k))
        return (a + a.conj().T) / 2 + sp.diags(rng.normal(size=size))
    if kind == "random":
        m = block(dim)
    elif kind == "real":
        m = block(dim).real
    elif kind == "degenerate":
        m = sp.block_diag([block(dim // 2)] * 2)
    else:  # clustered
        delta = 10.0 ** -rng.integers(2, 6)
        a = block(dim // 3)
        m = sp.block_diag([a, a + delta * sp.identity(dim // 3),
                           a + 2 * delta * sp.identity(dim // 3)])
    perm = rng.permutation(m.shape[0])
    return sp.csr_matrix(m)[perm][:, perm]


class TestMinEigenvalue:
    def test_identity(self):
        assert min_eigenvalue(np.eye(2)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert min_eigenvalue(np.diag([3.0, -2.0])) == pytest.approx(-2.0)

    def test_iterative_matches_dense(self, rng):
        # [DERIVED] dense full diagonalization oracle
        for _ in range(10):
            m = random_hermitian(rng, 6)
            dense = min_eigenvalue(m, mode="dense")
            iterative = min_eigenvalue(m, mode="iterative")
            assert iterative == pytest.approx(dense, abs=1e-8)

    def test_sparse_input(self, rng):
        m = random_hermitian(rng, 40)
        sparse = sp.csr_matrix(m)
        assert min_eigenvalue(sparse, mode="iterative") == pytest.approx(
            min_eigenvalue(m, mode="dense"), abs=1e-8
        )

    def test_rayleigh_bound(self, rng):
        m = random_hermitian(rng, 8)
        lam = min_eigenvalue(m)
        for _ in range(100):
            v = rng.normal(size=8) + 1j * rng.normal(size=8)
            quotient = (v.conj() @ m @ v).real / (v.conj() @ v).real
            assert lam <= quotient + 1e-9

    @pytest.mark.parametrize("kind", ["random", "real", "degenerate", "clustered"])
    def test_iterative_matches_dense_on_sparse_sectors(self, rng, kind):
        # [DERIVED] dense lowest-eigenvalue oracle; 4 × 30 sectors
        for _ in range(30):
            m = random_sector(rng, int(rng.integers(3, 240)), kind)
            assert min_eigenvalue(m, mode="iterative") == pytest.approx(
                min_eigenvalue(m, mode="dense"), abs=1e-10
            )

    @pytest.mark.parametrize("steps", [1, 2])
    def test_iterative_stops_on_breakdown(self, rng, steps):
        # c·I has every vector as an eigenvector; B ⊗ I_m has two eigenvalues,
        # so the Krylov space of any start vector has that many dimensions
        for _ in range(5):
            m = int(rng.integers(2, 60))
            if steps == 1:
                matrix = rng.normal() * sp.identity(2 * m)
            else:
                b = random_hermitian(rng, 2)
                matrix = sp.kron(b, sp.identity(m))
            counted = CountingCSR(matrix)
            lam = min_eigenvalue(counted, mode="iterative")
            assert counted.matvecs == steps
            assert lam == pytest.approx(min_eigenvalue(matrix.toarray()), abs=1e-10)

    def test_iterative_keeps_an_isolated_zero(self):
        m = np.diag([0.0] + [1.0] * 99)
        assert min_eigenvalue(m, mode="iterative") == pytest.approx(0.0, abs=1e-10)

    def test_iterative_keeps_a_zero_block(self, rng):
        # 0 ⊕ (positive definite): the null space is one vector
        a = rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30))
        m = sp.block_diag([np.zeros((1, 1)), a @ a.conj().T + np.eye(30)]).tocsr()
        assert min_eigenvalue(m, mode="iterative") == pytest.approx(0.0, abs=1e-10)

    def test_iterative_finds_a_reflection_odd_ground_state(self):
        # path adjacency: the reflection-odd ground state is orthogonal to every
        # reflection-even start vector, such as all-ones
        dim = 100
        path = sp.diags([np.ones(dim - 1), np.ones(dim - 1)], [-1, 1]).tocsr()
        assert min_eigenvalue(path, mode="iterative") == pytest.approx(
            2 * np.cos(dim * np.pi / (dim + 1)), abs=1e-10
        )

    def test_iterative_on_zero_matrix(self):
        zero = sp.csr_matrix((50, 50), dtype=complex)
        assert min_eigenvalue(zero, mode="iterative") == pytest.approx(0.0, abs=1e-12)

    def test_iterative_is_bit_identical(self, rng):
        m = sp.csr_matrix(random_hermitian(rng, 60))
        values = {min_eigenvalue(m, mode="iterative").hex() for _ in range(4)}
        assert len(values) == 1

    @pytest.mark.parametrize("empty", [(), (0,), (3,), (7,), (0, 1, 4, 6, 7),
                                       tuple(range(8))])
    def test_row_sum_scale_reads_empty_rows_as_zero(self, rng, empty):
        # [DERIVED] dense row sums; rows without stored entries first, in the
        # middle, last and everywhere
        dense = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        dense[list(empty)] = 0
        expected = np.abs(dense).sum(axis=1).max()
        assert linalg._max_row_sum(sp.csr_matrix(dense)) == pytest.approx(expected)
        assert linalg._max_row_sum(dense) == pytest.approx(expected)

    def test_non_hermitian_rejected(self):
        with pytest.raises(InvalidInputError):
            min_eigenvalue(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_unknown_mode_rejected(self):
        with pytest.raises(InvalidInputError):
            min_eigenvalue(np.eye(2), mode="magic")

    def test_non_square_rejected(self):
        with pytest.raises(InvalidInputError, match="square"):
            min_eigenvalue(np.zeros((2, 3)))

    def test_non_convergence_carries_best_estimate(self, monkeypatch):
        # with a zero tolerance only an exact breakdown stops the loop, and the
        # path adjacency's Krylov space from a generic start never has one
        monkeypatch.setattr(linalg, "LANCZOS_TOL", 0.0)
        dim = 20
        path = sp.diags([np.ones(dim - 1), np.ones(dim - 1)], [-1, 1]).tocsr()
        with pytest.raises(ConvergenceError, match="within 200 iterations") as info:
            min_eigenvalue(path, mode="iterative")
        assert info.value.best_estimate == pytest.approx(
            2 * np.cos(dim * np.pi / (dim + 1)), abs=1e-10
        )


class TestFullSpectrum:
    def test_diag(self):
        assert np.allclose(full_spectrum(np.diag([1.0, 0.0])), [0.0, 1.0])

    def test_pauli_x(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        assert np.allclose(full_spectrum(x), [-1.0, 1.0])

    def test_sum_equals_trace(self, rng):
        # [DERIVED] trace computation
        m = random_hermitian(rng, 4)
        assert np.sum(full_spectrum(m)) == pytest.approx(
            np.trace(m).real, abs=1e-8
        )

    def test_permutation_invariance(self, rng):
        m = random_hermitian(rng, 6)
        perm = rng.permutation(6)
        permuted = m[np.ix_(perm, perm)]
        assert np.allclose(full_spectrum(m), full_spectrum(permuted))

    def test_stack_gives_each_matrix_its_spectrum(self, rng):
        stack = np.array([random_hermitian(rng, 5) for _ in range(3)])
        spectra = full_spectrum(stack)
        assert spectra.shape == (3, 5)
        for m, spectrum in zip(stack, spectra):
            assert np.allclose(spectrum, full_spectrum(m))

    def test_stack_with_one_non_hermitian_matrix_is_refused(self, rng):
        stack = np.array([random_hermitian(rng, 4) for _ in range(3)])
        stack[1, 0, 3] += 1e-6
        with pytest.raises(InvalidInputError, match="not Hermitian"):
            full_spectrum(stack)

    def test_stack_of_non_square_matrices_is_refused(self):
        with pytest.raises(InvalidInputError, match="square matrix"):
            full_spectrum(np.zeros((2, 3, 4)))


class TestSerialization:
    def test_roundtrip(self, rng):
        m = random_hermitian(rng, 3)
        assert np.allclose(matrix_from_json(matrix_to_json(m)), m)

    def test_malformed_rejected(self):
        with pytest.raises(InvalidInputError):
            matrix_from_json([[1, 2], [3]])

    @pytest.mark.parametrize("data", [
        [[[10**400, 0]]], [[[0, -(10**400)]]], [[[True, False]]],
        [[[1.0, 0.0], [False, 1]]], [[["1", 0]]], [[[None, 0]]],
        [[[1, 2, 3]]], [[[1]]], [[[1, [2]]]], [[[1, 0]], [[1, 0], [0, 0]]],
        [[[float("nan"), 0]]], [[[0, float("inf")]]], [], [[]], "ab", 5,
    ], ids=["huge-int", "huge-negative-int", "bools", "one-bool", "string",
            "null", "triple", "single", "nested", "ragged", "nan", "inf",
            "empty", "empty-row", "string-document", "number-document"])
    def test_bad_parts_rejected(self, data):
        with pytest.raises(InvalidInputError):
            matrix_from_json(data)

    def test_int_parts_and_exact_bits(self):
        got = matrix_from_json([[[1, -0.0], [2**60, 0.1]]])
        assert got.dtype == complex and got.shape == (1, 2)
        assert got[0, 0] == 1 and np.signbit(got[0, 0].imag)
        assert got[0, 1] == complex(2**60, 0.1)

    def test_is_hermitian(self, rng):
        assert is_hermitian(random_hermitian(rng, 5))
        assert not is_hermitian(np.array([[0, 1j], [1j, 0]]))

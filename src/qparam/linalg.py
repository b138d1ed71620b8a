"""Hermitian eigenvalue solvers, matrix (de)serialization and JSON field checks.

Matrices are plain numpy arrays (or scipy sparse matrices where noted).
The smallest eigenvalue comes from a three-term Lanczos loop on H itself
from a fixed start vector or, as the reference the tests compare against,
from a dense solver that computes only that eigenvalue.

scipy is imported only by :func:`min_eigenvalue`, which needs its
eigensolvers, so the commands that never call it start without scipy's
import time.
"""
from __future__ import annotations

import sys
from array import array
from functools import reduce
from itertools import chain
from operator import iadd

import numpy as np

from .errors import ConvergenceError, InvalidInputError

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-10
LANCZOS_TOL = 1e-10
LANCZOS_START_KEY = 0x51A7  # fixed start; all-ones can miss a ground state
LANCZOS_CHECK_STEPS = 10  # Lanczos steps between Ritz-value checks


def _is_sparse(matrix) -> bool:
    """Whether ``matrix`` is a scipy sparse matrix. None can exist before
    ``scipy.sparse`` is loaded, so the check never imports it."""
    sparse = sys.modules.get("scipy.sparse")
    return sparse is not None and sparse.issparse(matrix)


def _as_operator(matrix):
    """The matrix as a CSR or complex array; a dense one may also be a
    stack of square matrices, shape (..., d, d)."""
    if _is_sparse(matrix):
        return matrix.tocsr()
    out = np.asarray(matrix, dtype=complex)
    if out.ndim < 2 or out.shape[-1] != out.shape[-2]:
        raise InvalidInputError(f"expected a square matrix, got shape {out.shape}")
    return out


def is_hermitian(matrix) -> bool:
    m = _as_operator(matrix)
    if _is_sparse(m):
        diff = m - m.conj().T
        return abs(diff).max() <= HERMITIAN_TOL if diff.nnz else True
    return bool(np.max(np.abs(m - m.conj().swapaxes(-1, -2))) <= HERMITIAN_TOL)


def require_hermitian(matrix):
    m = _as_operator(matrix)
    if not is_hermitian(m):
        raise InvalidInputError("matrix is not Hermitian within tolerance")
    return m


def require_unitary(matrix) -> np.ndarray:
    """The matrix as a complex array, if max|U†U − I| <= ``UNITARY_TOL``.

    Written as ``<=`` so that NaN and Inf entries fail the check.
    """
    m = np.asarray(matrix, dtype=complex)
    with np.errstate(invalid="ignore"):  # Inf entries give NaN products
        error = np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))
    if not error <= UNITARY_TOL:
        raise InvalidInputError(f"matrix is not unitary within {UNITARY_TOL:g}")
    return m


def _real_dot(x: np.ndarray, y: np.ndarray) -> float:
    """Re⟨x, y⟩ of complex vectors by numpy's own summation, not BLAS, whose
    threaded dot changes the last bits with the thread count."""
    return float(np.einsum("i,i->", x.view(float), y.view(float)))


def _max_row_sum(m) -> float:
    """max_i Σ_j |m_ij|, for a CSR matrix from its stored entries by
    ``indptr``, with no absolute-valued copy of the matrix."""
    if not _is_sparse(m):
        return float(np.abs(m).sum(axis=1).max())
    # reduceat gives an empty segment the next entry, not 0, so only the rows
    # that store entries are summed; an empty row's sum is the initial 0
    starts = m.indptr[:-1][np.diff(m.indptr) > 0]
    sums = np.add.reduceat(np.abs(m.data[: m.indptr[-1]]), starts)
    return float(sums.max(initial=0.0))


def min_eigenvalue(matrix, mode: str = "dense") -> float:
    """Smallest eigenvalue of a Hermitian matrix.

    ``mode="iterative"`` runs a three-term Lanczos loop without
    reorthogonalisation from a fixed generic complex vector, so calls on a
    sparse matrix repeat bit for bit at any BLAS thread count (a dense one
    goes through BLAS for ``m @ v``). Every ``LANCZOS_CHECK_STEPS`` steps,
    and at once if β ≈ 0 (the Krylov space is invariant and the Ritz values
    are exact), it takes the lowest Ritz value θ of the tridiagonal matrix
    with its vector s, and returns θ once β·|s_last| <= ``LANCZOS_TOL``·σ,
    σ = max absolute row sum + 1. ``mode="dense"``, also used at dim <= 2,
    computes the lowest eigenvalue only. The two agree to 1e-10.
    """
    from scipy.linalg import eigh, eigh_tridiagonal

    m = require_hermitian(matrix)
    dim = m.shape[0]
    if mode not in ("dense", "iterative"):
        raise InvalidInputError(f"unknown mode {mode!r}")
    if mode == "dense" or dim <= 2:
        dense = m.toarray() if _is_sparse(m) else m
        vals = eigh(dense, eigvals_only=True, subset_by_index=[0, 0])
        return float(vals[0])
    limit = LANCZOS_TOL * (_max_row_sum(m) + 1.0)
    rng = np.random.Generator(np.random.Philox(key=LANCZOS_START_KEY))
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.sqrt(_real_dot(v, v))
    v_prev, beta = np.zeros_like(v), 0.0
    alphas, betas = [], []
    steps = 10 * dim
    for step in range(1, steps + 1):
        w = m @ v
        alpha = _real_dot(v, w)
        w -= alpha * v
        w -= beta * v_prev
        beta = np.sqrt(_real_dot(w, w))
        alphas.append(alpha)
        if beta <= limit or step % LANCZOS_CHECK_STEPS == 0 or step == steps:
            vals, vecs = eigh_tridiagonal(alphas, betas, select="i",
                                          select_range=(0, 0))
            theta = float(vals[0])
            if beta * abs(vecs[-1, 0]) <= limit:
                return theta
        betas.append(beta)
        w /= beta
        v_prev, v = v, w
    raise ConvergenceError(
        f"Lanczos iteration did not converge within {steps} iterations",
        best_estimate=theta,
    )


def full_spectrum(matrix) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, ascending; of a stack of
    them, shape (..., d, d), each matrix's along the last axis."""
    m = require_hermitian(matrix)
    dense = m.toarray() if _is_sparse(m) else m
    return np.linalg.eigvalsh(dense)


def json_int(value, what: str) -> int:
    """An integer field of input JSON; floats, strings and bools are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidInputError(f"{what} must be an integer, got {value!r}")
    return value


def json_finite(value, what: str) -> float:
    """A real-number field of input JSON; strings, bools, NaN, Inf and
    integers beyond the float range are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max:
        raise InvalidInputError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def matrix_to_json(matrix) -> list:
    """Row-major nested lists of [re, im] pairs, for an array of any shape;
    a scalar is one pair. The one writer of complex numbers to JSON."""
    m = np.asarray(matrix, dtype=complex)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def matrix_from_json(data) -> np.ndarray:
    """A complex matrix from row-major nested lists of [re, im] pairs; the
    one reader of complex numbers from JSON (a state is a one-row matrix).

    Every part must be a finite JSON number: bools, strings, NaN, Inf,
    integers beyond the float range and entries that are not pairs are
    refused.
    """
    try:
        rows = list(data)
        entries = list(chain.from_iterable(rows))
        # one pass per check over flat lists: numpy's nested-list parsing
        # costs more than all of them together on a 256×256 matrix
        parts = reduce(iadd, entries, [])
        shape = (len(rows), len(rows[0]), 2)
    except (TypeError, IndexError) as exc:
        raise InvalidInputError(f"malformed matrix JSON: {exc}") from exc
    if set(map(len, rows)) != {shape[1]} or set(map(len, entries)) != {2}:
        raise InvalidInputError("matrix JSON must be equal rows of [re, im] pairs")
    kinds = set(map(type, parts))
    if not kinds <= {int, float}:
        names = sorted(kind.__name__ for kind in kinds - {int, float})
        raise InvalidInputError(f"matrix parts must be numbers, got {names}")
    try:
        pairs = np.frombuffer(array("d", parts)).reshape(shape)
    except OverflowError as exc:
        raise InvalidInputError(f"matrix part out of float range: {exc}") from exc
    if not np.isfinite(pairs).all():
        raise InvalidInputError("matrix parts must be finite")
    return pairs.view(complex)[..., 0]

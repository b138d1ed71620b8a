"""Ranking and unranking of fixed-Hamming-weight bitstrings.

The order is lexicographic on the bitstrings (equivalently, increasing as
unsigned integers), and ranks are computed with binomial-coefficient prefix
sums, so both directions run in O(n). The whole basis in rank order is one
increasing ``int64`` array, so a basis index is ranked by binary search.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations
from math import comb

import numpy as np

from .errors import InvalidInputError, require_within

# basis indices are int64, so qubit 0 (bit n - 1) must stay below the sign bit
INDEX_BITS = 63


def rank_weight_string(n: int, k: int, bitstring: str) -> int:
    """Position of ``bitstring`` in the lexicographic order of weight-k strings."""
    if len(bitstring) != n:
        raise InvalidInputError(f"expected a string of length {n}, got {len(bitstring)}")
    if any(c not in "01" for c in bitstring):
        raise InvalidInputError(f"not a bitstring: {bitstring!r}")
    if bitstring.count("1") != k:
        raise InvalidInputError(
            f"expected Hamming weight {k}, got {bitstring.count('1')}"
        )
    rank = 0
    remaining = k
    for i, c in enumerate(bitstring):
        if c == "1":
            # strings that agree so far but have 0 here
            rank += comb(n - 1 - i, remaining)
            remaining -= 1
    return rank


def unrank_weight_string(n: int, k: int, index: int) -> str:
    """Inverse of :func:`rank_weight_string`."""
    dim = comb(n, k)
    if not 0 <= index < dim:
        raise InvalidInputError(f"index {index} out of range [0, {dim})")
    bits = []
    remaining = k
    for i in range(n):
        if remaining == 0:
            bits.append("0")
            continue
        zeros_here = comb(n - 1 - i, remaining)
        if index < zeros_here:
            bits.append("0")
        else:
            bits.append("1")
            index -= zeros_here
            remaining -= 1
    return "".join(bits)


@dataclass(frozen=True)
class WeightEnumeration:
    """Bijection between weight-k strings of length n and {0, ..., C(n,k)-1},
    for n up to ``INDEX_BITS``."""

    n: int
    k: int
    dim: int = field(init=False)

    def __post_init__(self):
        if not 0 <= self.k <= self.n:
            raise InvalidInputError(f"need 0 <= k <= n, got k={self.k}, n={self.n}")
        # before C(n, k): at n = 10^6 that alone takes seconds
        require_within(self.n, INDEX_BITS, "basis index bits")
        object.__setattr__(self, "dim", comb(self.n, self.k))

    def strings(self):
        """All weight-k strings in rank order."""
        return (unrank_weight_string(self.n, self.k, i) for i in range(self.dim))

    def indices(self) -> np.ndarray:
        """All weight-k basis indices (qubit 0 = MSB) in rank order.

        An increasing ``int64`` array of length ``dim``, built from the
        k-subsets of qubit positions: ``itertools.combinations`` lists them
        lexicographically, which is decreasing integer order, so the summed
        bit weights are reversed.
        """
        weights = np.int64(1) << np.arange(self.n - 1, -1, -1, dtype=np.int64)
        positions = np.fromiter(
            chain.from_iterable(combinations(range(self.n), self.k)),
            dtype=np.intp, count=self.dim * self.k,
        ).reshape(self.dim, self.k)
        return weights[positions].sum(axis=1)[::-1].copy()

"""Ranking and unranking of fixed-Hamming-weight bitstrings.

The order is lexicographic on the bitstrings (equivalently, increasing as
unsigned integers). The whole basis in rank order is one increasing ``int64``
array, so a basis index is ranked by binary search.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations
from math import comb

import numpy as np

from .errors import InvalidInputError, require_within

# basis indices are int64, so qubit 0 (bit n - 1) must stay below the sign bit
INDEX_BITS = 63


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
        """All weight-k strings in rank order: the bits of :meth:`indices`,
        qubit 0 first (a leading 1 keeps the width n, so n = 0 gives "")."""
        return (format(1 << self.n | i, "b")[1:] for i in self.indices().tolist())

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

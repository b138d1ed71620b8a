"""Ranking and unranking of fixed-Hamming-weight bitstrings.

The order is lexicographic on the bitstrings (equivalently, increasing as
unsigned integers). The whole basis in rank order is one increasing ``int64``
array, so a basis index is ranked by binary search.
"""
from __future__ import annotations

from dataclasses import dataclass, field
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
        """All weight-k strings in rank order: :func:`bit_strings` of
        :meth:`indices`."""
        return bit_strings(self.indices(), self.n)

    def indices(self) -> np.ndarray:
        """All weight-k basis indices (qubit 0 = MSB) in rank order.

        An increasing ``int64`` array of length ``dim``, merged one weight at
        a time. Over bits 0..m-1 the weight-j list is increasing, and its
        first C(t, j) entries are those below 2^t; so it is, for each top bit
        t < m in turn, the first C(t, j-1) entries of the weight-(j-1) list
        with bit t set. Weight k over n bits needs weight j over n-k+j bits.
        """
        n, k = self.n, self.k
        out = np.zeros(1, dtype=np.int64)
        for j in range(1, k + 1):
            merged, at = np.empty(comb(n - k + j, j), dtype=np.int64), 0
            for t in range(j - 1, n - k + j):
                size = comb(t, j - 1)
                np.bitwise_or(out[:size], 1 << t, out=merged[at:at + size])
                at += size
            out = merged
        return out


def bit_strings(indices: np.ndarray, n: int):
    """The n-bit strings of basis indices, qubit 0 first (a leading 1 keeps
    the width n, so n = 0 gives "")."""
    return (format(1 << n | i, "b")[1:] for i in indices.tolist())

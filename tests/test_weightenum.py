from math import comb

import numpy as np
import pytest

from qparam.errors import InvalidInputError, ResourceError
from qparam.weightenum import (
    INDEX_BITS,
    WeightEnumeration,
    rank_weight_string,
    unrank_weight_string,
)


class TestRank:
    def test_lexicographic_minimum(self):
        assert rank_weight_string(4, 2, "0011") == 0

    def test_lexicographic_maximum(self):
        assert rank_weight_string(4, 2, "1100") == 5

    def test_middle_value_against_enumeration(self):
        # [DERIVED] exhaustive enumeration of weight-2 strings of length 4
        ordered = sorted(
            format(x, "04b") for x in range(16) if bin(x).count("1") == 2
        )
        assert ordered.index("0110") == 2
        assert rank_weight_string(4, 2, "0110") == 2

    def test_wrong_length_rejected(self):
        with pytest.raises(InvalidInputError):
            rank_weight_string(4, 2, "00110")

    def test_wrong_weight_rejected(self):
        with pytest.raises(InvalidInputError):
            rank_weight_string(4, 2, "0111")

    def test_non_bitstring_rejected(self):
        with pytest.raises(InvalidInputError):
            rank_weight_string(4, 2, "0a11")


class TestUnrank:
    def test_first(self):
        assert unrank_weight_string(4, 2, 0) == "0011"

    def test_last(self):
        assert unrank_weight_string(4, 2, 5) == "1100"

    def test_middle_value_against_enumeration(self):
        # [DERIVED] exhaustive enumeration
        assert unrank_weight_string(4, 2, 3) == "1001"

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidInputError):
            unrank_weight_string(4, 2, 6)
        with pytest.raises(InvalidInputError):
            unrank_weight_string(4, 2, -1)


class TestRoundtrip:
    def test_exhaustive_up_to_16(self):
        # every weight class of every length up to 16, in both directions
        for n in range(1, 17):
            counters = [0] * (n + 1)
            for x in range(2**n):
                bits = format(x, f"0{n}b")
                k = bits.count("1")
                rank = rank_weight_string(n, k, bits)
                assert rank == counters[k]  # ranks ascend with the integers
                assert unrank_weight_string(n, k, rank) == bits
                counters[k] += 1


class TestWeightEnumeration:
    def test_dim(self):
        assert WeightEnumeration(6, 2).dim == 15

    def test_strings_are_sorted_and_complete(self):
        enum = WeightEnumeration(5, 3)
        strings = list(enum.strings())
        assert strings == sorted(strings)
        assert len(set(strings)) == enum.dim
        assert all(s.count("1") == 3 for s in strings)

    def test_indices_match_strings(self):
        enum = WeightEnumeration(5, 2)
        assert [int(s, 2) for s in enum.strings()] == list(enum.indices())

    def test_indices_match_unrank_for_every_rank(self):
        for n, k in [(1, 0), (1, 1), (6, 0), (6, 6), (7, 3), (10, 4), (12, 9)]:
            indices = WeightEnumeration(n, k).indices()
            assert isinstance(indices, np.ndarray)
            assert indices.dtype == np.int64
            assert indices.tolist() == [
                int(unrank_weight_string(n, k, r), 2) for r in range(comb(n, k))
            ]

    def test_indices_at_the_int64_limit(self):
        n = INDEX_BITS
        assert WeightEnumeration(n, 1).indices().tolist() == [
            1 << i for i in range(n)
        ]
        with pytest.raises(ResourceError):
            WeightEnumeration(n + 1, 1)

    def test_extreme_weights(self):
        assert list(WeightEnumeration(4, 0).strings()) == ["0000"]
        assert list(WeightEnumeration(4, 4).strings()) == ["1111"]

    def test_invalid_k_rejected(self):
        with pytest.raises(InvalidInputError):
            WeightEnumeration(4, 5)

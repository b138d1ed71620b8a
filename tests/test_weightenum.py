import numpy as np
import pytest

from qparam.errors import InvalidInputError, ResourceError
from qparam.weightenum import INDEX_BITS, WeightEnumeration


def brute_force(n: int, k: int) -> list[int]:
    """[DERIVED] the weight-k indices: ascending range(2^n) with popcount k."""
    return [x for x in range(2**n) if x.bit_count() == k]


def rank_of(n: int, k: int, bitstring: str) -> int:
    """Rank of a string: its position in the one order, ``strings()``."""
    return list(WeightEnumeration(n, k).strings()).index(bitstring)


def unrank(n: int, k: int, rank: int) -> str:
    return list(WeightEnumeration(n, k).strings())[rank]


class TestRank:
    def test_lexicographic_minimum(self):
        assert rank_of(4, 2, "0011") == 0

    def test_lexicographic_maximum(self):
        assert rank_of(4, 2, "1100") == 5

    def test_middle_value_against_enumeration(self):
        # [DERIVED] exhaustive enumeration of weight-2 strings of length 4
        ordered = sorted(
            format(x, "04b") for x in range(16) if bin(x).count("1") == 2
        )
        assert ordered.index("0110") == 2
        assert rank_of(4, 2, "0110") == 2


class TestUnrank:
    def test_first(self):
        assert unrank(4, 2, 0) == "0011"

    def test_last(self):
        assert unrank(4, 2, 5) == "1100"

    def test_middle_value_against_enumeration(self):
        # [DERIVED] exhaustive enumeration
        assert unrank(4, 2, 3) == "1001"


class TestRoundtrip:
    def test_exhaustive_up_to_16(self):
        # every weight class of every length up to 16 partitions range(2^n):
        # each integer x sits at its rank among the integers of its weight
        for n in range(17):
            x = np.arange(2**n, dtype=np.int64)
            weight = np.zeros_like(x)
            for bit in range(n):
                weight += (x >> bit) & 1
            for k in range(n + 1):
                assert np.array_equal(WeightEnumeration(n, k).indices(),
                                      x[weight == k])


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
        # rank r unranks to the r-th entry of the brute-force list
        for n, k in [(0, 0), (1, 0), (1, 1), (6, 0), (6, 6), (7, 3), (10, 4), (12, 9)]:
            indices = WeightEnumeration(n, k).indices()
            assert isinstance(indices, np.ndarray)
            assert indices.dtype == np.int64
            assert indices.tolist() == brute_force(n, k)

    def test_strings_match_brute_force(self):
        # n = 0 included: its one string is "", though format(0, "00b") is "0"
        for n in range(13):
            for k in range(n + 1):
                expected = ["".join(str(x >> (n - 1 - q) & 1) for q in range(n))
                            for x in brute_force(n, k)]
                assert list(WeightEnumeration(n, k).strings()) == expected

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
        assert list(WeightEnumeration(INDEX_BITS, INDEX_BITS).strings()) == [
            "1" * INDEX_BITS
        ]

    def test_invalid_k_rejected(self):
        with pytest.raises(InvalidInputError):
            WeightEnumeration(4, 5)

import cmath
import itertools
import json
import math

import numpy as np
import pytest

from conftest import hadamard_circuit_probabilities, state_sum_bracket, tl_bracket
from qparam import jones
from qparam.circuits import Gate, QuantumCircuit
from qparam.errors import InvalidInputError, ResourceError
from qparam.estimators import sample_amplitude
from qparam.jones import (
    BraidWord,
    PathModel,
    ajl_braid_unitary,
    estimate_jones,
    jones_exact,
    jones_from_amplitude,
    jones_via_path_model,
    kauffman_bracket,
    plat_amplitude,
    plat_closure,
    writhe,
)

TREFOIL = BraidWord(4, (-2, -2, -2))


def random_braid(rng, max_strands=6, max_len=8):
    strands = int(rng.choice(range(2, max_strands + 1, 2)))
    length = int(rng.integers(0, max_len + 1))
    word = tuple(
        int(rng.choice([1, -1])) * int(rng.integers(1, strands))
        for _ in range(length)
    )
    return BraidWord(strands, word)


class TestBraidWord:
    def test_odd_strands_rejected(self):
        with pytest.raises(InvalidInputError):
            BraidWord(3, (1,))

    def test_letter_out_of_range_rejected(self):
        with pytest.raises(InvalidInputError):
            BraidWord(4, (4,))
        with pytest.raises(InvalidInputError):
            BraidWord(4, (0,))

    def test_json_roundtrip(self):
        braid = BraidWord.from_json(json.loads('{"strands": 4, "word": [-2, -2, -2]}'))
        assert braid == TREFOIL


class TestWrithe:
    def test_empty(self):
        assert writhe(BraidWord(4, ())) == 0

    def test_positive(self):
        assert writhe(BraidWord(4, (1, 1, 1))) == 3

    def test_cancelling(self):
        assert writhe(BraidWord(4, (1, -2, 1, -2))) == 0


class TestKauffmanBracket:
    A_GENERIC = cmath.exp(-1j * math.pi / 10) * cmath.exp(0.17j)

    def test_unknot_normalized_to_one(self):
        diagram = plat_closure(BraidWord(2, ()))
        assert kauffman_bracket(diagram, self.A_GENERIC) == pytest.approx(1.0)

    def test_two_unlink_is_delta(self):
        a = self.A_GENERIC
        diagram = plat_closure(BraidWord(4, ()))
        assert kauffman_bracket(diagram, a) == pytest.approx(-a**2 - a**-2)

    def test_against_diagram_algebra_oracle(self, rng):
        # [DERIVED] Temperley-Lieb diagram-algebra skein evaluation
        for _ in range(25):
            braid = random_braid(rng, max_len=6)
            lhs = kauffman_bracket(plat_closure(braid), self.A_GENERIC)
            rhs = tl_bracket(braid.strands, braid.word, self.A_GENERIC)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_against_state_sum_oracle(self, rng):
        # [DERIVED] sum over all 2^c smoothings with union-find loop counts
        for _ in range(40):
            braid = random_braid(rng, max_strands=8, max_len=14)
            diagram = plat_closure(braid)
            lhs = kauffman_bracket(diagram, self.A_GENERIC)
            assert lhs == pytest.approx(
                state_sum_bracket(diagram, self.A_GENERIC), abs=1e-9
            )

    def test_entry_limit(self, monkeypatch):
        # the first matching alone exceeds the bound: refused before it is built
        huge = plat_closure(BraidWord(jones.BRACKET_ENTRY_LIMIT + 2, ()))
        with pytest.raises(ResourceError):
            kauffman_bracket(huge, self.A_GENERIC)
        # each crossing at an even position doubles the matchings: 8 strands
        # hold 1, 2, 4 and then 8 matchings, i.e. 8, 16, 32 and 64 entries,
        # with 3, 2, 1 and 0 crossings left: 32, 48, 64 and 64 entry steps
        diagram = plat_closure(BraidWord(8, (2, 4, 6)))
        monkeypatch.setattr(jones, "BRACKET_ENTRY_LIMIT", 64)
        kauffman_bracket(diagram, self.A_GENERIC)
        monkeypatch.setattr(jones, "BRACKET_ENTRY_LIMIT", 63)
        with pytest.raises(ResourceError):
            kauffman_bracket(diagram, self.A_GENERIC)
        monkeypatch.setattr(jones, "BRACKET_ENTRY_LIMIT", 8)
        kauffman_bracket(plat_closure(BraidWord(8, ())), self.A_GENERIC)


class TestJonesExact:
    def test_unknot(self):
        assert jones_exact(BraidWord(2, ()), 5) == pytest.approx(1.0)

    def test_two_unlink(self):
        t = cmath.exp(2j * math.pi / 5)
        expected = -(t**0.5) - t**-0.5
        assert jones_exact(BraidWord(4, ()), 5) == pytest.approx(expected)

    def test_trefoil(self):
        t = cmath.exp(2j * math.pi / 5)
        expected = -(t**-4) + t**-3 + t**-1
        assert jones_exact(TREFOIL, 5) == pytest.approx(expected, abs=1e-9)

    def test_invalid_level_rejected(self):
        # 10^400 is past the float range of the angles π/(2k)
        for k in (6, 10**400):
            with pytest.raises(InvalidInputError):
                jones_exact(TREFOIL, k)
            with pytest.raises(InvalidInputError):
                estimate_jones(TREFOIL, k, 0.1, 0.1, seed=1)

    def test_long_braids_match_path_model(self, rng):
        # [DERIVED] path-model pipeline, well past 16 crossings
        for strands in (4, 6, 8):
            length = int(rng.integers(40, 61))
            word = tuple(int(rng.choice([1, -1])) * int(rng.integers(1, strands))
                         for _ in range(length))
            braid = BraidWord(strands, word)
            for k in (5, 7, 8):
                assert jones_exact(braid, k) == pytest.approx(
                    jones_via_path_model(braid, k), abs=1e-8
                )

    @pytest.mark.parametrize("strands", [16, 18, 20])
    def test_wide_braids_match_path_model(self, rng, strands):
        # [DERIVED] path-model pipeline on the height-1 sector, 60 crossings
        for k in (5, 7, 8):
            word = rng.integers(1, strands, size=60) * rng.choice([-1, 1], size=60)
            braid = BraidWord(strands, tuple(int(g) for g in word))
            assert jones_exact(braid, k) == pytest.approx(
                jones_via_path_model(braid, k), abs=1e-8
            )


def walk_heights(model):
    """Heights 0..strands of each basis walk, decoded from its step mask."""
    ups = (model.basis[:, None] >> np.arange(model.strands)) & 1
    return np.hstack([np.ones((model.dim, 1), dtype=np.int64),
                      1 + np.cumsum(2 * ups - 1, axis=1)])


class TestPathModelLimit:
    def test_identity_block_stays_under_4096_squared(self):
        assert (4096 * 4097 + jones.PATH_LETTER_ENTRIES
                > jones.PATH_MODEL_WORK_LIMIT)
        # 16 strands at k=7: 6714 walks in the full model, 1341 in the sector
        with pytest.raises(ResourceError):
            ajl_braid_unitary(BraidWord(16, ()), 7)
        assert PathModel(16, 7, closed=True, letters=60).dim == 1341

    def test_work_limit(self, monkeypatch):
        # 4 strands at k=5, step by step: the full model holds 1, 2, 3 and 5
        # walks, the sector 1, 2, 2 and 2 (the prefix 1,2,3,4 cannot return)
        monkeypatch.setattr(jones, "PATH_LETTER_ENTRIES", 0)
        # sector: 2 walks × (mask + 1 column) × (3 letters + 1)
        monkeypatch.setattr(jones, "PATH_MODEL_WORK_LIMIT", 16)
        assert PathModel(4, 5, closed=True, letters=3).dim == 2
        with pytest.raises(ResourceError):
            PathModel(4, 5, closed=True, letters=4)
        # full: 5 walks × (mask + 5 columns) × (1 letter + 1)
        monkeypatch.setattr(jones, "PATH_MODEL_WORK_LIMIT", 60)
        assert PathModel(4, 5, letters=1).dim == 5
        monkeypatch.setattr(jones, "PATH_MODEL_WORK_LIMIT", 59)
        with pytest.raises(ResourceError):
            PathModel(4, 5, letters=1)
        # the letter cost alone refuses a long word at the first step
        monkeypatch.setattr(jones, "PATH_LETTER_ENTRIES", 10)
        monkeypatch.setattr(jones, "PATH_MODEL_WORK_LIMIT", 12 * 101 - 1)
        with pytest.raises(ResourceError):
            PathModel(2, 5, closed=True, letters=100)
        monkeypatch.setattr(jones, "PATH_MODEL_WORK_LIMIT", 12 * 101)
        PathModel(2, 5, closed=True, letters=100)

    def test_more_steps_than_mask_bits_refused(self):
        # refused by the mask width before any work bound is reached
        with pytest.raises(ResourceError, match="^strands .* exceeds limit 63$"):
            PathModel(64, 5, closed=True)
        with pytest.raises(ResourceError, match="^strands .* exceeds limit 63$"):
            PathModel(2**70, 5, closed=True)


class TestPathModel:
    def test_basis_walks_stay_in_range(self):
        model = PathModel(6, 5)
        heights = walk_heights(model)
        assert heights.shape == (model.dim, 7)
        assert (heights[:, 0] == 1).all()
        assert ((1 <= heights) & (heights <= 4)).all()
        assert (np.abs(np.diff(heights, axis=1)) == 1).all()

    @pytest.mark.parametrize("strands, k", [(2, 5), (6, 5), (8, 7), (10, 8),
                                            (12, 31)])
    def test_basis_matches_brute_force_walks(self, strands, k):
        # [DERIVED] every ±1 step sequence, kept if it stays in 1..k-1 (and,
        # for the closed sector, ends at height 1)
        walks = set()
        for steps in itertools.product((1, -1), repeat=strands):
            heights = (1,) + tuple(1 + np.cumsum(steps))
            if min(heights) >= 1 and max(heights) <= k - 1:
                walks.add(heights)
        for closed in (False, True):
            model = PathModel(strands, k, closed=closed)
            want = {w for w in walks if not closed or w[-1] == 1}
            assert model.dim == len(want)
            assert (np.diff(model.basis) > 0).all()
            assert set(map(tuple, walk_heights(model).tolist())) == want

    def test_cap_walk_in_basis(self):
        model = PathModel(4, 7)
        assert model.cap_walk() in model.basis

    def test_odd_strands_rejected(self):
        with pytest.raises(InvalidInputError):
            PathModel(3, 7)

    # all steps down leaves 1..k-1 at once; all steps up passes k-1 = 4,
    # and its mask lies above every walk of the basis
    @pytest.mark.parametrize("walk", [0b0000, 0b1111], ids=["below", "above"])
    def test_index_of_absent_walk_rejected(self, walk):
        with pytest.raises(ValueError, match="not in the path model"):
            PathModel(4, 5).index(walk)

    def test_identity_braid(self):
        rho = ajl_braid_unitary(BraidWord(4, ()), 5)
        assert np.allclose(rho, np.eye(rho.shape[0]))

    def test_generator_inverse(self):
        lhs = ajl_braid_unitary(BraidWord(4, (2, -2)), 5)
        assert np.allclose(lhs, np.eye(lhs.shape[0]), atol=1e-10)

    def test_braid_relation(self):
        # [DERIVED] matrix computation of sigma1 sigma2 sigma1 = sigma2 sigma1 sigma2
        lhs = ajl_braid_unitary(BraidWord(4, (1, 2, 1)), 7)
        rhs = ajl_braid_unitary(BraidWord(4, (2, 1, 2)), 7)
        assert np.allclose(lhs, rhs, atol=1e-10)

    def test_homomorphism(self, rng):
        braid = random_braid(rng, max_len=8)
        if len(braid.word) < 2:
            braid = BraidWord(4, (1, 2, -3, 2))
        split = len(braid.word) // 2
        left = BraidWord(braid.strands, braid.word[:split])
        right = BraidWord(braid.strands, braid.word[split:])
        k = 7
        assert np.allclose(
            ajl_braid_unitary(braid, k),
            ajl_braid_unitary(left, k) @ ajl_braid_unitary(right, k),
            atol=1e-9,
        )

    def test_plat_amplitude_is_cap_entry_of_braid_unitary(self, rng):
        for strands in (4, 6, 8, 10, 12):
            for k in (5, 7, 8):
                braid = random_braid(rng, max_strands=strands, max_len=14)
                braid = BraidWord(strands, braid.word)
                model = PathModel(strands, k)
                cap = model.index(model.cap_walk())
                entry = ajl_braid_unitary(braid, k)[cap, cap]
                sign = (-1) ** (strands // 2 - 1)
                assert abs(plat_amplitude(braid, k) - sign * entry) <= 1e-12

    def test_unitarity(self, rng):
        braid = random_braid(rng)
        rho = ajl_braid_unitary(braid, 5)
        v = rng.normal(size=rho.shape[0]) + 1j * rng.normal(size=rho.shape[0])
        assert np.linalg.norm(rho @ v) == pytest.approx(
            np.linalg.norm(v), abs=1e-10
        )


class TestRescaling:
    def test_identity_scaling(self):
        assert jones_from_amplitude(0.3, 0, 1, 5) == pytest.approx(0.3)

    def test_direct_formula(self):
        q = 0.2 + 0.1j
        expected = q * cmath.exp(-9j * math.pi * 6 / 10) * 2 * math.cos(math.pi / 5)
        assert jones_from_amplitude(q, 3, 2, 5) == pytest.approx(expected)

    def test_pipeline_matches_bracket_on_unlink(self):
        braid = BraidWord(4, ())
        assert jones_via_path_model(braid, 5) == pytest.approx(
            jones_exact(braid, 5), abs=1e-8
        )

    def test_end_to_end_random(self, rng):
        # [DERIVED] bracket oracle across braids and levels
        for _ in range(20):
            braid = random_braid(rng)
            for k in (5, 7, 8):
                assert jones_via_path_model(braid, k) == pytest.approx(
                    jones_exact(braid, k), abs=1e-6
                )

    def test_markov_stability(self, rng):
        # appending sigma_i sigma_i^-1 leaves the exact amplitude unchanged
        braid = random_braid(rng, max_len=5)
        i = int(rng.integers(1, braid.strands))
        padded = BraidWord(braid.strands, braid.word + (i, -i))
        assert plat_amplitude(padded, 5) == pytest.approx(
            plat_amplitude(braid, 5), abs=1e-9
        )

    def test_unlink_magnitude(self):
        for n in (1, 2, 3):
            for k in (5, 7, 8):
                v = jones_exact(BraidWord(2 * n, ()), k)
                expected = (2 * math.cos(math.pi / k)) ** (n - 1)
                assert abs(v) == pytest.approx(expected, abs=1e-9)


class TestEstimateJones:
    def test_single_unknot(self):
        report = estimate_jones(BraidWord(2, ()), 5, 0.05, 0.025, seed=4)
        assert abs(report.value - 1.0) <= report.bound

    def test_two_unlink(self):
        braid = BraidWord(4, ())
        report = estimate_jones(braid, 5, 0.05, 0.025, seed=8)
        assert abs(report.value - jones_exact(braid, 5)) <= report.bound

    def test_coverage_on_random_braid(self, rng):
        # [DERIVED] bracket oracle; the reported bound must hold w.h.p.
        braid = BraidWord(4, (1, -2, 3, -2, 1))
        exact = jones_exact(braid, 5)
        hits = 0
        for seed in range(40):
            report = estimate_jones(braid, 5, 0.08, 0.025, seed=seed)
            if abs(report.value - exact) <= report.bound:
                hits += 1
        assert hits / 40 >= 0.9

    def test_matches_padded_hadamard_route(self, rng):
        # [DERIVED] Hadamard-test circuits on (-1)^{n-1}ρ(b) padded with the
        # identity to a power of two, the cap walk prepared by X gates: they
        # measure 0 with probability (1 + Re q)/2 and (1 + Im q)/2 for the
        # plat amplitude q, and the estimate is the sampler's on that q
        for seed in range(24):
            braid = random_braid(rng, max_strands=8, max_len=10)
            k = int(rng.choice([5, 7, 8]))
            n = braid.strands // 2
            rho = ajl_braid_unitary(braid, k)
            d = rho.shape[0]
            num_sys = max(1, math.ceil(math.log2(d)))
            padded = np.eye(2**num_sys, dtype=complex)
            padded[:d, :d] = (-1) ** (n - 1) * rho
            model = PathModel(braid.strands, k)
            cap = model.index(model.cap_walk())
            prep = QuantumCircuit(num_sys, 0, tuple(
                Gate("X", targets=(q,)) for q in range(num_sys)
                if (cap >> (num_sys - 1 - q)) & 1
            ), 0)
            q = plat_amplitude(braid, k)
            p_re, p_im = hadamard_circuit_probabilities(padded, prep)
            assert abs(p_re - (1 + q.real) / 2) <= 1e-12
            assert abs(p_im - (1 + q.imag) / 2) <= 1e-12
            sampled = sample_amplitude(q, 0.05, 0.01, seed)
            report = estimate_jones(braid, k, 0.05, 0.01, seed=seed)
            assert report.value == jones_from_amplitude(
                sampled.value, writhe(braid), n, k
            )
            assert report.samples == sampled.samples

    def test_deterministic_given_seed(self):
        a = estimate_jones(TREFOIL, 5, 0.1, 0.05, seed=77)
        b = estimate_jones(TREFOIL, 5, 0.1, 0.05, seed=77)
        assert a == b

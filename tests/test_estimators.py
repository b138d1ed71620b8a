import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    accept_projected_oracle,
    all_kinds_circuit,
    bits_state,
    hadamard_circuit_probabilities,
    random_circuit,
    random_unitary,
)
from qparam import circuits, estimators
from qparam.circuits import (
    Gate,
    QuantumCircuit,
    accept_light_cone,
    accept_projected_columns,
    acceptance_probability,
    simulate,
)
from qparam.decision import Verdict
from qparam.errors import InvalidInputError, ResourceError
from qparam.estimators import (
    SAMPLE_LIMIT,
    GapInstance,
    amplify_gap,
    decide_hamming_weight_qcs_exact,
    decide_weight_qcs_exact,
    estimate_amplitude,
    estimate_amplitude_multiplicative,
    estimate_gap,
    exact_gap,
    qmak_decide,
    qmak_operator,
    rng_stream,
    sample_amplitude,
    sample_count,
)
from qparam.states import StateVector
from qparam.weightenum import WeightEnumeration


class TestRngStream:
    def test_seeds_above_63_bits_are_distinct(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = [rng_stream(seed, 0).random(4).tolist()
                     for seed in (2**63, 2**63 + 1, 2**64 - 1)]
        assert len({tuple(d) for d in draws}) == 3

    @pytest.mark.parametrize("seed", [0, 1, 12345, 2**63 - 1])
    def test_stream_of_63_bit_seeds_kept(self, seed):
        # the key the generator was built from before seeds were range-checked
        old = np.random.Generator(np.random.Philox(key=[seed, 1]))
        assert rng_stream(seed, 1).random(4).tolist() == old.random(4).tolist()

    @pytest.mark.parametrize("seed", [-1, -1000, 2**64, 2**64 + 1])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(InvalidInputError):
            rng_stream(seed, 0)


class TestSampleCount:
    def test_reference_value(self):
        # [DERIVED] ceil(2·ln(40)/0.01)
        assert sample_count(0.1, 0.05) == 738

    def test_monotone_in_delta(self):
        assert sample_count(0.1, 0.025) >= sample_count(0.1, 0.05)

    def test_exact_boundary(self):
        # [DERIVED] ceil(2·ln(e²)/1) = 4
        assert sample_count(1.0, 2 / math.e**2) == 4

    @pytest.mark.parametrize("tau, delta", [
        (0.0, 0.1), (0.1, 1.5), (math.nan, 0.1), (math.inf, 0.1),
        (-math.inf, 0.1), (0.1, math.nan),
    ], ids=["zero-tau", "delta-above-one", "nan-tau", "inf-tau", "minus-inf-tau",
            "nan-delta"])
    def test_invalid_rejected(self, tau, delta):
        with pytest.raises(InvalidInputError):
            sample_count(tau, delta)

    def test_limit_admits_largest_benchmark_schedule(self):
        # [DERIVED] ceil(2·ln(2000)/1e-4)
        assert sample_count(0.01, 0.001) == 152019 <= SAMPLE_LIMIT

    @pytest.mark.parametrize("tau, delta", [(1e-5, 0.025), (1e-200, 0.5),
                                            (0.1, 1e-320)])
    def test_over_limit_refused(self, tau, delta):
        with pytest.raises(ResourceError):
            sample_count(tau, delta)


class TestSampleAmplitude:
    @pytest.mark.parametrize("q", [0.3 + 0.4j, -0.9 + 0.05j, 0.5 - 0.999j],
                             ids=["inside", "near-minus-one", "near-minus-i"])
    def test_each_part_is_one_binomial_count(self, q):
        # [DERIVED] z ~ Binomial(m, p₀) zeros on the part's stream give the
        # mean (2z − m)/m of m outcomes ±1
        seed, m = 11, sample_count(0.05, 0.01)
        parts = []
        for stream, part in enumerate((q.real, q.imag)):
            zeros = rng_stream(seed, stream).binomial(m, (1 + part) / 2)
            parts.append((2 * zeros - m) / m)
        report = sample_amplitude(q, 0.05, 0.01, seed)
        assert report.value == complex(*parts)
        assert (report.samples, report.bound) == (m, 0.05 * math.sqrt(2))

    @pytest.mark.parametrize("q, value", [
        (1 - 1j, 1 - 1j), (-1 + 1j, -1 + 1j),
        (complex(1 + 4e-16, -1 - 4e-16), 1 - 1j),
        (complex(-1 - 4e-16, 1 + 4e-16), -1 + 1j),
    ], ids=["plus-one", "minus-one", "a-hair-beyond-plus-one",
            "a-hair-beyond-minus-one"])
    def test_certain_outcomes_give_exact_parts(self, q, value):
        # p₀ is clamped into [0, 1], where the binomial is defined
        assert sample_amplitude(q, 0.05, 0.01, seed=3).value == value

    def test_memory_does_not_grow_with_samples(self):
        # one count per part, where m draws would hold 8m bytes (121 MB here)
        tau = delta = 1e-3
        assert SAMPLE_LIMIT // 2 < sample_count(tau, delta) <= SAMPLE_LIMIT
        tracemalloc.start()
        try:
            sample_amplitude(0.3 + 0.4j, tau, delta, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestEstimateAmplitude:
    def test_identity(self):
        report = estimate_amplitude(np.eye(2), None, 0.05, 0.025, seed=1)
        assert abs(report.value - 1.0) <= 0.05 * math.sqrt(2)

    def test_x_on_zero(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        report = estimate_amplitude(x, None, 0.05, 0.025, seed=2)
        assert abs(report.value) <= 0.05 * math.sqrt(2)

    def test_coverage_against_exact_oracle(self, rng):
        # [DERIVED] exact amplitude; failure fraction within the stated bound
        tau, delta = 0.1, 0.025
        failures = 0
        trials = 200
        u = random_unitary(rng, 8)
        exact = u[0, 0]
        for seed in range(trials):
            report = estimate_amplitude(u, None, tau, delta, seed=seed)
            if abs(report.value - exact) > tau * math.sqrt(2):
                failures += 1
        assert failures / trials <= 2 * delta + 0.03

    def test_deterministic_given_seed(self):
        u = np.diag([1.0, 1j]).astype(complex)
        a = estimate_amplitude(u, None, 0.1, 0.1, seed=99)
        b = estimate_amplitude(u, None, 0.1, 0.1, seed=99)
        assert a == b
        assert a.to_json() == b.to_json()

    def test_matches_hadamard_circuit_route(self, rng, monkeypatch):
        # [DERIVED] simulated controlled-U Hadamard-test circuits measure 0
        # with probability (1 + Re q)/2 and (1 + Im q)/2 for the q = ⟨ψ|U|ψ⟩
        # handed to the sampler, and the estimate is the sampler's on that q
        amplitudes = []

        def spy(q, *args):
            amplitudes.append(q)
            return sample_amplitude(q, *args)

        monkeypatch.setattr(estimators, "sample_amplitude", spy)
        for seed in range(24):
            qubits = int(rng.integers(2, 4))
            u = random_unitary(rng, 2**qubits)
            prep = random_circuit(rng, qubits, 4) if seed % 2 else None
            report = estimate_amplitude(u, prep, 0.03, 0.01, seed=seed)
            (q,) = amplitudes
            amplitudes.clear()
            p_re, p_im = hadamard_circuit_probabilities(u, prep)
            assert abs(p_re - (1 + q.real) / 2) <= 1e-12
            assert abs(p_im - (1 + q.imag) / 2) <= 1e-12
            assert report == sample_amplitude(q, 0.03, 0.01, seed)

    def test_report_schema(self):
        report = estimate_amplitude(np.eye(2), None, 0.1, 0.1, seed=0)
        data = report.to_json()
        assert data["samples"] == sample_count(0.1, 0.1)
        assert data["mode"] == "additive"
        assert isinstance(data["value"], list)


class TestMultiplicative:
    def test_identity_relative_error(self):
        report = estimate_amplitude_multiplicative(
            np.eye(2), None, epsilon=0.1, delta=0.01, lower_bound=0.5, seed=5
        )
        assert abs(report.value - 1.0) <= 0.1
        assert not report.warning

    def test_warning_when_assertion_false(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        report = estimate_amplitude_multiplicative(
            x, None, epsilon=0.2, delta=0.05, lower_bound=0.5, seed=6
        )
        assert report.warning

    def test_relative_error_on_random_unitaries(self, rng):
        # [DERIVED] exact amplitude oracle
        hits = 0
        trials = 40
        done = 0
        while done < trials:
            u = random_unitary(rng, 4)
            q = u[0, 0]
            if abs(q) < 0.3:
                continue
            report = estimate_amplitude_multiplicative(
                u, None, epsilon=0.05, delta=0.025, lower_bound=0.3, seed=done
            )
            if abs(report.value - q) <= 0.05 * abs(q):
                hits += 1
            done += 1
        assert hits / trials >= 0.9

    def test_invalid_lower_bound(self):
        with pytest.raises(InvalidInputError):
            estimate_amplitude_multiplicative(
                np.eye(2), None, 0.1, 0.1, lower_bound=0.0, seed=0
            )

    @pytest.mark.parametrize("name", ["epsilon", "lower_bound"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_factor_refused_by_name(self, name, bad):
        args = {"epsilon": 0.1, "lower_bound": 0.5, name: bad}
        with pytest.raises(InvalidInputError, match=name.replace("_", " ")):
            estimate_amplitude_multiplicative(np.eye(2), None, delta=0.1, seed=0,
                                              **args)


def always_accept(p):
    return GapInstance(p, QuantumCircuit(p, 1, (Gate("X", targets=(p,)),), p))


def always_reject(p):
    return GapInstance(p, QuantumCircuit(p, 1, (), p))


def parity(p):
    gates = tuple(Gate("CX", controls=(i,), targets=(p,)) for i in range(p))
    return GapInstance(p, QuantumCircuit(p, 1, gates, p))


class TestExactGap:
    def test_always_accept(self):
        assert exact_gap(always_accept(3)) == 8

    def test_always_reject(self):
        assert exact_gap(always_reject(3)) == -8

    def test_parity(self):
        assert exact_gap(parity(4)) == 0

    def test_against_simulation_oracle(self, rng):
        # [DERIVED] acceptance of each basis path via the statevector engine
        instances = [GapInstance(4, random_circuit(rng, 4, 8, classical_only=True))]
        # three ancillas that start at zero; Toffolis with three and two controls
        gates = (
            Gate("TOFFOLI", controls=(0, 1, 2), targets=(3,)),
            Gate("X", targets=(4,)),
            Gate("CX", controls=(1,), targets=(4,)),
            Gate("TOFFOLI", controls=(2, 4), targets=(5,)),
            Gate("CX", controls=(3,), targets=(5,)),
            Gate("X", targets=(0,)),
            Gate("TOFFOLI", controls=(0, 5), targets=(1,)),
        )
        for accept in (1, 5):
            instances.append(GapInstance(3, QuantumCircuit(3, 3, gates, accept)))
        for instance in instances:
            p, total = instance.path_bits, instance.predicate.total_qubits
            evaluated = instance.evaluate(np.arange(2**p))
            gap = 0
            for x in range(2**p):
                out = simulate(instance.predicate, StateVector.basis(p, x))
                probs = np.abs(out.amplitudes) ** 2
                accept = 0.0
                for idx in range(out.amplitudes.size):
                    if (idx >> (total - 1 - instance.predicate.accept_qubit)) & 1:
                        accept += probs[idx]
                assert accept in (pytest.approx(0.0), pytest.approx(1.0))
                assert evaluated[x] == (accept > 0.5)
                gap += 1 if accept > 0.5 else -1
            assert exact_gap(instance) == gap

    def test_resource_limit(self):
        with pytest.raises(ResourceError):
            exact_gap(always_accept(21))

    def test_non_classical_gate_rejected(self):
        circuit = QuantumCircuit(2, 0, (Gate("H", targets=(0,)),), 1)
        with pytest.raises(InvalidInputError):
            GapInstance(2, circuit)

    def test_path_bits_must_match_predicate_witness(self):
        circuit = QuantumCircuit(2, 1, (Gate("X", targets=(2,)),), 2)
        with pytest.raises(InvalidInputError):
            GapInstance(3, circuit)


class TestEstimateGap:
    def test_always_accept_is_exact(self):
        report = estimate_gap(always_accept(5), 0.3, 0.1, seed=3)
        assert report.value == pytest.approx(32.0)

    def test_parity_within_bound(self):
        ok = 0
        for seed in range(50):
            report = estimate_gap(parity(6), 0.4, 0.1, seed=seed)
            if abs(report.value) <= 0.4 * 64:
                ok += 1
        assert ok / 50 >= 0.9

    def test_random_predicate_against_oracle(self, rng):
        # [DERIVED] exact_gap oracle at a loose tolerance, high confidence
        instance = GapInstance(
            10, random_circuit(rng, 10, 15, classical_only=True)
        )
        exact = exact_gap(instance)
        ok = 0
        for seed in range(100):
            report = estimate_gap(instance, 0.25, 0.05, seed=seed)
            if abs(report.value - exact) <= 0.25 * 1024:
                ok += 1
        assert ok / 100 >= 0.95

    def test_unbiased(self):
        instance = parity(6)
        instance = GapInstance(
            6,
            QuantumCircuit(
                6, 1,
                (Gate("CX", controls=(0,), targets=(6,)),
                 Gate("TOFFOLI", controls=(1, 2), targets=(6,))),
                6,
            ),
        )
        exact = exact_gap(instance)
        values = [
            estimate_gap(instance, 0.5, 0.2, seed=s).value for s in range(2000)
        ]
        mean = np.mean(values)
        stderr = np.std(values) / math.sqrt(len(values))
        assert abs(mean - exact) <= 3 * stderr + 1e-9


def accept_verifier(k, ancillas=1):
    total = k + ancillas
    return QuantumCircuit(
        k, ancillas, (Gate("X", targets=(total - 1,)),), total - 1
    )


def reject_verifier(k, ancillas=1):
    return QuantumCircuit(k, ancillas, (), k + ancillas - 1)


class TestQmak:
    def test_always_accept_operator(self):
        q, trace = qmak_operator(accept_verifier(2), 2)
        assert np.allclose(q, np.eye(4), atol=1e-12)
        assert trace == pytest.approx(4.0)

    def test_always_reject_operator(self):
        q, trace = qmak_operator(reject_verifier(2), 2)
        assert np.allclose(q, 0)
        assert trace == pytest.approx(0.0)

    def test_psd_with_eigenvalues_in_unit_interval(self, rng):
        # [DERIVED] full-spectrum oracle
        for _ in range(5):
            verifier = QuantumCircuit(
                2, 1, random_circuit(rng, 3, 6).gates, 2
            )
            q, trace = qmak_operator(verifier, 2)
            vals = np.linalg.eigvalsh(q)
            assert vals[0] >= -1e-10
            assert vals[-1] <= 1 + 1e-10
            assert trace == pytest.approx(np.sum(vals), abs=1e-9)

    def test_decide_yes_no(self):
        assert qmak_decide(accept_verifier(1), 1).verdict is Verdict.YES
        assert qmak_decide(reject_verifier(1), 1).verdict is Verdict.NO

    def test_trace_between_thresholds_violates_promise(self):
        # accepts witness 1 with probability 1/2 and witness 0 never: Tr(Q) = 1/2
        verifier = QuantumCircuit(1, 2, (
            Gate("H", targets=(1,)),
            Gate("TOFFOLI", controls=(0, 1), targets=(2,)),
        ), 2)
        decision = qmak_decide(verifier, 1)
        assert decision.trace == pytest.approx(0.5)
        assert decision.verdict is Verdict.PROMISE_VIOLATED

    def test_accept_probability_identity(self, rng):
        for _ in range(5):
            verifier = QuantumCircuit(2, 1, random_circuit(rng, 3, 5).gates, 1)
            decision = qmak_decide(verifier, 2)
            _, trace = qmak_operator(verifier, 2)
            assert decision.accept_probability == pytest.approx(
                trace / 4, abs=1e-9
            )

    def test_resource_limit(self):
        with pytest.raises(ResourceError):
            qmak_operator(accept_verifier(3, ancillas=10), 3)

    @pytest.mark.parametrize("decide", [
        lambda verifier: qmak_operator(verifier, 12),
        lambda verifier: decide_weight_qcs_exact(verifier, 6, 0.1, 0.9),
        lambda verifier: decide_hamming_weight_qcs_exact(verifier, 6, 0.1, 0.9),
    ], ids=["qmak", "wqcs", "hwqcs"])
    def test_qubit_limit_comes_before_the_witness_basis(self, monkeypatch, decide):
        # the 2^k or C(n, k) witness indices of a circuit past the limit are
        # never built: at 40 witness qubits that alone takes terabytes
        def unbuilt(*args, **kwargs):
            raise AssertionError("witness basis built before the qubit limit")

        verifier = reject_verifier(12)  # 13 qubits
        monkeypatch.setattr(np, "arange", unbuilt)
        monkeypatch.setattr(WeightEnumeration, "indices", unbuilt)
        with pytest.raises(ResourceError, match="^circuit qubits 13 exceeds limit 12$"):
            decide(verifier)

    @pytest.mark.parametrize("accept", [1, 4], ids=["witness", "ancilla"])
    def test_trace_is_sum_of_witness_acceptances(self, rng, accept):
        # [DERIVED] per-witness acceptance from the dense oracle unitary
        verifier = all_kinds_circuit(rng, 3, 2, accept)
        _, trace = qmak_operator(verifier, 3)
        phi = accept_projected_oracle(verifier)
        oracle = sum(np.linalg.norm(phi[:, w << 2]) ** 2 for w in range(8))
        simulated = sum(
            acceptance_probability(verifier, StateVector.basis(3, w))
            for w in range(8)
        )
        assert trace == pytest.approx(oracle, abs=1e-10)
        assert trace == pytest.approx(simulated, abs=1e-10)


class TestAmplifyGap:
    def test_single_repetition(self):
        assert amplify_gap(0.7, 1) == pytest.approx(0.7)

    def test_half_is_fixed_point(self):
        for r in (1, 5, 21):
            assert amplify_gap(0.5, r) == pytest.approx(0.5)

    def test_binomial_tail_value(self):
        # [DERIVED] direct binomial sum
        expected = sum(
            math.comb(11, j) * 0.75**j * 0.25 ** (11 - j) for j in range(6, 12)
        )
        assert amplify_gap(0.75, 11) == pytest.approx(expected)

    def test_strictly_amplifies(self):
        assert amplify_gap(0.6, 21) > 0.6

    def test_monotone_in_p(self):
        values = [amplify_gap(p, 9) for p in np.linspace(0.05, 0.95, 10)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_even_repetitions_rejected(self):
        with pytest.raises(InvalidInputError):
            amplify_gap(0.7, 4)

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(InvalidInputError):
            amplify_gap(1.5, 3)


class TestSliceDeciders:
    def test_copy_witness_yes(self):
        circuit = QuantumCircuit(
            2, 1, (Gate("CX", controls=(0,), targets=(2,)),), 2
        )
        decision = decide_weight_qcs_exact(circuit, 1, 0.1, 0.9)
        assert decision.verdict is Verdict.YES
        assert decision.max_acceptance == pytest.approx(1.0)

    def test_always_reject_no(self):
        circuit = QuantumCircuit(2, 1, (), 2)
        decision = decide_weight_qcs_exact(circuit, 1, 0.1, 0.9)
        assert decision.verdict is Verdict.NO
        assert decision.max_acceptance == pytest.approx(0.0)

    @pytest.mark.parametrize("decide", [
        decide_weight_qcs_exact, decide_hamming_weight_qcs_exact,
    ], ids=["wqcs", "hwqcs"])
    def test_acceptance_between_thresholds_violates_promise(self, decide):
        # witness 10 is accepted with probability 1/2, witness 01 never
        circuit = QuantumCircuit(2, 2, (
            Gate("H", targets=(2,)),
            Gate("TOFFOLI", controls=(0, 2), targets=(3,)),
        ), 3)
        decision = decide(circuit, 1, 0.1, 0.9)
        assert decision.max_acceptance == pytest.approx(0.5)
        assert decision.verdict is Verdict.PROMISE_VIOLATED

    def test_lambda_max_dominates_random_witnesses(self, rng):
        # [DERIVED] random-witness Rayleigh oracle
        from qparam.circuits import acceptance_probability

        circuit = QuantumCircuit(5, 1, random_circuit(rng, 6, 8).gates, 5)
        decision = decide_weight_qcs_exact(circuit, 2, 0.0, 1.0)
        enum = WeightEnumeration(5, 2)
        idx = list(enum.indices())
        best_sampled = 0.0
        for _ in range(200):
            v = rng.normal(size=enum.dim) + 1j * rng.normal(size=enum.dim)
            v /= np.linalg.norm(v)
            amps = np.zeros(32, dtype=complex)
            amps[idx] = v
            p = acceptance_probability(circuit, StateVector(5, amps))
            best_sampled = max(best_sampled, p)
            assert p <= decision.max_acceptance + 1e-9
        assert best_sampled <= decision.max_acceptance + 1e-9

    def test_hamming_decider_table(self):
        circuit = QuantumCircuit(
            3, 1, (Gate("CX", controls=(0,), targets=(3,)),), 3
        )
        decision = decide_hamming_weight_qcs_exact(circuit, 1, 0.1, 0.9)
        assert decision.verdict is Verdict.YES
        assert decision.table["100"] == pytest.approx(1.0)
        assert decision.table["001"] == pytest.approx(0.0)

    @pytest.mark.parametrize("accept", [2, 5], ids=["witness", "ancilla"])
    def test_hamming_table_is_per_string_acceptance(self, rng, accept):
        # [DERIVED] per-string acceptance from the dense oracle unitary
        circuit = all_kinds_circuit(rng, 5, 1, accept)
        decision = decide_hamming_weight_qcs_exact(circuit, 2, 0.0, 1.0)
        assert list(decision.table) == list(WeightEnumeration(5, 2).strings())
        phi = accept_projected_oracle(circuit)
        for bits, value in decision.table.items():
            column = phi[:, int(bits, 2) << 1]
            assert value == pytest.approx(
                np.linalg.norm(column) ** 2, abs=1e-10
            )
            assert value == pytest.approx(
                acceptance_probability(circuit, bits_state(bits)),
                abs=1e-10,
            )
        assert decision.max_acceptance == max(decision.table.values())

    def test_superposition_dominates_basis(self, rng):
        for _ in range(5):
            circuit = QuantumCircuit(4, 1, random_circuit(rng, 5, 6).gates, 4)
            quantum = decide_weight_qcs_exact(circuit, 2, 0.0, 1.0)
            classical = decide_hamming_weight_qcs_exact(circuit, 2, 0.0, 1.0)
            assert classical.max_acceptance <= quantum.max_acceptance + 1e-9

    def test_bad_thresholds_rejected(self):
        circuit = QuantumCircuit(2, 1, (), 2)
        with pytest.raises(InvalidInputError):
            decide_weight_qcs_exact(circuit, 1, 0.9, 0.1)


def wires_shifted(gates, by):
    return tuple(replace(g, controls=tuple(w + by for w in g.controls),
                         targets=tuple(w + by for w in g.targets)) for g in gates)


class TestAcceptLightCone:
    """The deciders evolve the accept qubit's backward light cone only; the
    Gram matrix of the whole circuit's columns is the reference."""

    @staticmethod
    def assert_deciders_match_unpruned(circuit, k):
        n = circuit.witness_qubits
        phi = accept_projected_columns(circuit, np.arange(2**n))
        full = phi.conj().T @ phi
        q, trace = qmak_operator(circuit, n)
        assert np.max(np.abs(q - full)) <= 1e-12
        assert abs(trace - np.trace(full).real) <= 1e-12
        enum = WeightEnumeration(n, k)
        gram = full[np.ix_(enum.indices(), enum.indices())]
        lam_max = np.linalg.eigvalsh(gram)[-1]
        assert abs(decide_weight_qcs_exact(circuit, k, 0.0, 1.0).max_acceptance
                   - lam_max) <= 1e-12
        table = decide_hamming_weight_qcs_exact(circuit, k, 0.0, 1.0).table
        assert list(table) == list(enum.strings())
        assert np.max(np.abs(np.array(list(table.values()))
                             - np.diag(gram).real)) <= 1e-12
        return trace

    @pytest.mark.parametrize("accept", [2, 5], ids=["witness", "ancilla"])
    def test_deciders_match_the_unpruned_columns(self, rng, accept):
        dropped = 0
        for trial in range(12):
            if trial % 2:
                circuit = all_kinds_circuit(rng, 4, 2, accept)
            else:
                gates = random_circuit(rng, 6, 10).gates
                circuit = QuantumCircuit(4, 2, gates, accept)
            dropped += len(circuit.gates) - len(accept_light_cone(circuit).gates)
            self.assert_deciders_match_unpruned(circuit, 2)
        assert dropped > 0  # the cone cut something, so the check is not vacuous

    @pytest.mark.parametrize("accept, shift, trace", [(0, 1, 4.0), (4, 0, 0.0)],
                             ids=["witness", "ancilla"])
    def test_empty_cone(self, rng, accept, shift, trace):
        # the gates act on wires 1-3 or 0-2 and never on the accept wire,
        # which then reads its own witness bit, or 0 for an ancilla
        gates = wires_shifted(random_circuit(rng, 3, 10).gates, shift)
        circuit = QuantumCircuit(3, 2, gates, accept)
        assert accept_light_cone(circuit).gates == ()
        assert self.assert_deciders_match_unpruned(circuit, 1) == trace

    def test_dense_gates_outside_the_cone_are_not_applied(self, monkeypatch):
        # H and UNITARY act on wire 0 only, which never meets the accept wire
        circuit = QuantumCircuit(2, 1, (
            Gate("H", targets=(0,)),
            Gate("CX", controls=(1,), targets=(2,)),
            Gate("UNITARY", targets=(0,), matrix=np.array([[0, 1j], [1j, 0]])),
            Gate("H", targets=(0,)),
        ), 2)
        applied = []
        apply = circuits.apply_gate_matrix

        def counting(*args):
            applied.append(args[2])
            return apply(*args)

        monkeypatch.setattr(circuits, "apply_gate_matrix", counting)
        assert qmak_decide(circuit, 2).trace == pytest.approx(2.0)
        assert applied == []
        accept_projected_columns(circuit, np.arange(4))
        assert len(applied) == 3

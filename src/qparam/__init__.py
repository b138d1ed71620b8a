"""Parameterized quantum complexity toolkit.

Weight-restricted local-Hamiltonian minimization, fixed-weight witness
gadgets, statevector circuit simulation with weft metrics, Monte-Carlo
amplitude/gap estimators, exact slice deciders, and the path-model
Jones-polynomial pipeline — all with exact brute-force oracles at desk scale.
"""
from .circuits import (
    CircuitMetrics,
    Gate,
    QuantumCircuit,
    REJECT,
    accept_projected_columns,
    acceptance_probability,
    circuit_metrics,
    decode_weight_witness,
    encode_weight_witness,
    hadamard_test_circuit,
    one_hot_block_decode,
    prepare_classical_weight_state,
    project_weight_k,
    simulate,
)
from .decision import Verdict
from .errors import ConvergenceError, InvalidInputError, ResourceError
from .estimators import (
    EstimateReport,
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
    sample_amplitude,
    sample_count,
)
from .hamiltonian import (
    LocalHamiltonian,
    LocalTerm,
    decide_weight_k_local_hamiltonian,
    expectation_value,
    restrict_to_weight,
)
from .jones import (
    BraidWord,
    LinkDiagram,
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
from .linalg import full_spectrum, min_eigenvalue
from .states import StateVector
from .weightenum import (
    WeightEnumeration,
    rank_weight_string,
    unrank_weight_string,
)

__version__ = "0.1.0"

"""Entanglement witnesses and measurement schedules for symmetric multi-qubit states."""

from .linalg import (
    DenseOperator,
    StateVector,
    hermitian_eig,
    identity,
    kron,
    kron_power,
    min_eig,
    op_power,
    partial_trace,
    partial_transpose,
    pauli,
    pauli_string,
    schmidt_max_sq,
)
from .symmetric import (
    collective_j,
    collective_power,
    dicke,
    is_permutation_invariant,
    permute_qubits,
    symmetrize,
    w_state,
)
from .compiler import (
    LocalTerm,
    PauliClass,
    PauliPolynomial,
    Schedule,
    Setting,
    canned_decomposition,
    compile_operator,
    mermin_decomposition,
    mermin_operator,
    pauli_decompose,
    settings_upper_bound,
    symmetrized_product_to_powers,
)
from .witnesses import (
    CATALOG_NAMES,
    BasisTerm,
    NoiseModel,
    WitnessSpec,
    catalog,
    expectation,
    fidelity_bound,
    fidelity_curves,
    noise_tolerance,
    nonwhite_noise_state,
    projector_witness,
    wi2_witness,
    wi3_witness,
)
from .optimize import (
    BisepResult,
    OptimizationError,
    PptProblem,
    PptResult,
    QScanResult,
    SolverConfig,
    SolverReport,
    WitnessOptimizationProblem,
    collective_power_basis,
    max_bisep_all,
    max_bisep_seesaw,
    max_ppt,
    max_ppt_all,
    max_symmetric_product,
    optimize_witness,
    q_scan,
)
from .counts import (
    CountRecord,
    CountsDataset,
    EvaluationResult,
    evaluate_counts,
    evaluate_witness_counts,
    simulate_counts,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

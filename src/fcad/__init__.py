"""Capacities of the fully correlated two-qubit amplitude damping channel."""

from .capacities import (
    CapacityPoint,
    InequalityReport,
    SymmetrizationReport,
    ZeroSubspaceWeightError,
    c1,
    c1_lower_bounds,
    c1_via_optimization,
    c_ad1,
    c_ad1_search,
    capacity_point,
    ce_capacity,
    ensemble_a,
    ensemble_b,
    entanglement_B,
    p_opt,
    q_capacity,
    verify_entangled_pair_inequality,
    verify_state_splitting_inequality,
    verify_symmetrization_chain,
)
from .channels import (
    EtaOutOfRangeError,
    QuantumChannel,
    apply,
    check_composition,
    complementary_output,
    compose,
    degrading_map,
    fc_channel,
)
from .covariance import (
    SymmetryOp,
    check_covariance,
    check_degradability,
    check_kraus_commutation,
    symmetry_ops,
)
from .entropy import (
    DomainError,
    Ensemble,
    coherent_info,
    entropy_exchange,
    entropy_exchange_purified,
    h2,
    holevo,
    mutual_info,
    vn_entropy,
)
from .optimizer import OptimResult, SimplexPoint, maximize_1d, maximize_simplex, scan_simplex
from .qmat import (
    DimensionMismatchError,
    NonHermitianError,
    NotDensityMatrixError,
    basis_state,
    hermitian_eigenvalues,
    kron,
    max_abs_diff,
    partial_trace,
    purify,
    random_density,
    random_pure,
)

__version__ = "0.1.0"

"""Submodular maximization from pairwise (k-wise) information.

Greedy strategies that only ever evaluate the objective on sets of size at
most two, curvature-based approximation guarantees, a post-hoc performance
certificate computable from pairwise queries alone, and brute-force
verification oracles.
"""

from .algorithms import (
    ALGORITHMS,
    PAIRWISE_ALGORITHMS,
    RunTrace,
    Selection,
    audit_trace,
    brute_force_optimal,
    greedy_full,
    greedy_k_wise_optimistic,
    greedy_optimistic,
    greedy_pessimistic,
    greedy_uninformed,
    run_algorithm,
    trace_from_dict,
)
from .bounds import (
    BoundReport,
    alphas_k_wise,
    alphas_optimistic,
    alphas_pessimistic,
    bound_from_alphas,
    k_cardinality_curvature,
    k_marginal_curvature,
    post_hoc_bound,
    traditional_curvature,
)
from .data import (
    District,
    KernelConfig,
    build_coverage_instance,
    kernel_probability,
    load_districts,
    save_districts,
    serialize_districts,
)
from .errors import (
    BudgetExceeded,
    CardinalityTooLarge,
    DuplicateElement,
    DuplicateId,
    EmptyInput,
    GridMismatch,
    InstanceTooLarge,
    InvalidAlpha,
    InvalidArgument,
    InvalidCurvature,
    MalformedSpec,
    NegativeDemand,
    NonFiniteValue,
    PairsubError,
    ParseError,
    TraceMismatch,
    UnknownElement,
)
from .functions import (
    AdversarialSpec,
    ModularSpec,
    ProbabilisticCoverageSpec,
    WeightedCoverageSpec,
    build_adversarial,
    build_modular,
    build_oracle,
    build_probabilistic_coverage,
    build_weighted_coverage,
    instance_from_dict,
    load_instance,
    spec_from_dict,
)
from .oracles import (
    CountingOracle,
    EstimateCache,
    QueryCounts,
    SetFunctionOracle,
    k_wise_upper_estimate,
)
from .verify import (
    ALL_CHECKS,
    VerificationReport,
    check_marginal_lower_bound,
    check_monotone,
    check_nemhauser_inequality,
    check_normalized,
    check_pairwise_redundancy_bound,
    check_submodular,
    check_supermodularity_of_conditioning,
)

__version__ = "0.1.0"

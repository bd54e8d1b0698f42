"""Nonlocal doubly nonlinear diffusion on finite random walk spaces."""

from .errors import (
    AsymmetricWeights,
    CompatibilityViolated,
    EmptyStencil,
    EmptyZ,
    InvalidExponent,
    InvalidParameter,
    IsolatedNode,
    MissingValues,
    NldiffError,
    NonlinearCase,
    NotConnected,
    NumericalFailure,
    RangeInfeasible,
    SolverDiverged,
    TooLarge,
    WeightOutOfRange,
)
from .evolution import (
    CompatibilityReport,
    EvolutionProblem,
    MildSolution,
    StrongResidualReport,
    compatibility_check,
    dtn_apply,
    dtn_evolve,
    mild_solve,
    refine_and_compare,
    resolvent_dynamical,
    resolvent_static_boundary,
    strong_residual,
)
from .flux import (
    LerayLionsFlux,
    NonlocalOperator,
    custom_flux,
    divergence,
    neumann_n1,
    neumann_n2,
    p_laplacian_flux,
    pairing_identity,
    weighted_flux,
)
from .monotone import (
    MonotoneGraph,
    make_hele_shaw,
    make_identity,
    make_obstacle,
    make_power,
    make_stefan,
    make_zero,
)
from .oracle import (
    DenseInstance,
    dense_gp_oracle,
    linear_evolution_oracle,
    schur_dtn_oracle,
)
from .space import (
    DomainPartition,
    FiniteRandomWalkSpace,
    estimate_poincare_constant,
    from_kernel_grid,
    from_weighted_graph,
    interaction,
    is_m_connected,
    m_boundary,
    m_closure,
    poincare_ratio,
)
from .stationary import (
    RangeReport,
    SolutionPair,
    StationaryProblem,
    VerificationReport,
    check_range,
    contraction_gap,
    energy_report,
    solve_approximate,
    solve_gp,
    verify_solution,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

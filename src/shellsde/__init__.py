"""Numerical laboratory for stochastic inviscid shell models.

Builds and validates conservative interaction algebras (GOY, Sabra and a
scalar ladder preset), simulates the nonlinear and auxiliary linear SDE
systems with pathwise Girsanov ledgers, solves the closed second-moment
equation through its symmetric rate matrix, and simulates the associated
jump chain.  The three routes to the second moments cross-validate each
other, and the mass lost by the truncated chain quantifies anomalous
dissipation.
"""
from .algebra import (
    BilinearMap,
    CoefficientTable,
    IdentityGramError,
    Interaction,
    JumpRates,
    MalformedModelError,
    ModelSpec,
    ValidationReport,
    build_goy,
    build_novikov,
    build_sabra,
    jump_rates,
    validate_model,
)
from .chain import (
    ChainCaps,
    ChainTrajectory,
    simulate_chain,
    survival_curve,
)
from .modelio import load_model, spec_from_dict
from .moments import (
    DecayConstants,
    QMatrix,
    build_qmatrix,
    decay_constants,
    smallness_threshold_goy_sabra,
    solve_forward,
)
from .noise import fill_slab
from .sde import EnsembleStats, Stepper, run_ensemble

__version__ = "0.1.0"

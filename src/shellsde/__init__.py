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
    embed_complex,
    ito_correction,
    jump_rates,
    lift_real,
    validate_model,
)
from .chain import (
    ChainCaps,
    ChainTrajectory,
    IncrementDistribution,
    increment_distribution,
    simulate_chain,
    survival_curve,
    visit_statistics,
)
from .modelio import load_model, save_model, spec_from_dict, spec_to_dict
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

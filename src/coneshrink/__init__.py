"""Ends of self-shrinking mean-curvature-flow solutions asymptotic to
isoparametric cones: series coefficients, regularization corrections,
singular integration, continuation, and geometry export."""

from .catalog import (
    COT_SUM,
    EQ030_LITERAL,
    CurvatureProfile,
    IsoparametricFamily,
    builtin_catalog,
    curvature_antiderivative,
    curvature_derivative,
    make_family,
    mean_curvature,
    minimal_distance,
)
from .errors import ConeShrinkError
from .geometry import (
    asymptotic_check,
    export_mesh,
    export_profile,
    shrinker_residual,
)
from .ivp import (
    Run,
    SolutionProfile,
    SolverConfig,
    continue_phi,
    energy_residual,
    epsilon_convergence_study,
    integrate_gamma,
    read_profile_csv,
    solve,
    to_d_profile,
    write_profile_csv,
)
from .series import (
    EpsilonPolynomial,
    FormalSeries,
    compute_coefficients,
    compute_epsilon_corrections,
    evaluate_truncated,
    gevrey_diagnostics,
)

__version__ = "0.1.0"

__all__ = [
    "COT_SUM",
    "EQ030_LITERAL",
    "ConeShrinkError",
    "CurvatureProfile",
    "EpsilonPolynomial",
    "FormalSeries",
    "IsoparametricFamily",
    "Run",
    "SolutionProfile",
    "SolverConfig",
    "asymptotic_check",
    "builtin_catalog",
    "compute_coefficients",
    "compute_epsilon_corrections",
    "continue_phi",
    "curvature_antiderivative",
    "curvature_derivative",
    "energy_residual",
    "epsilon_convergence_study",
    "evaluate_truncated",
    "export_mesh",
    "export_profile",
    "gevrey_diagnostics",
    "integrate_gamma",
    "make_family",
    "mean_curvature",
    "minimal_distance",
    "read_profile_csv",
    "shrinker_residual",
    "solve",
    "to_d_profile",
    "write_profile_csv",
]

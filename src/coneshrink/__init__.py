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
    cone_profile,
    export_mesh,
    export_profile,
    shrinker_residual,
)
from .ivp import (
    SolutionProfile,
    SolverConfig,
    continue_phi,
    energy_residual,
    epsilon_convergence_study,
    gamma_rhs,
    integrate_gamma,
    read_profile_csv,
    to_d_profile,
    write_profile_csv,
)
from .jets import (
    Jet,
    PartitionMultiIndex,
    arctan_term_at_zero,
    compose,
    enumerate_partitions,
)
from .series import (
    EpsilonPolynomial,
    FormalSeries,
    compute_coefficients,
    compute_epsilon_corrections,
    evaluate_truncated,
    gevrey_diagnostics,
    series_from_json,
    series_to_json,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

"""The package's supported names: ``coneshrink.__all__`` is this list, a
star import binds exactly these names and no submodule, and README's
Library section lists the same names."""

import re
import types
from pathlib import Path

import coneshrink

SUPPORTED = [
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

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_is_the_supported_list():
    assert coneshrink.__all__ == SUPPORTED
    assert all(hasattr(coneshrink, name) for name in SUPPORTED)


def test_star_import_binds_no_submodule():
    namespace = {}
    exec("from coneshrink import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(SUPPORTED)
    assert not [name for name, value in namespace.items()
                if isinstance(value, types.ModuleType)]


def test_readme_lists_the_supported_names():
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    paragraph = library.split("The supported names", 1)[1].split("\n\n", 1)[0]
    assert sorted(re.findall(r"`(\w+)`", paragraph)) == sorted(SUPPORTED)

import math

import pytest
from hypothesis import settings

from coneshrink import CurvatureProfile, compute_coefficients, make_family
from coneshrink.ivp import SolverConfig, continue_phi, integrate_gamma, to_d_profile

# every property test draws the same examples on every run: the seed comes
# from each test function (and no example database is replayed)
settings.register_profile("coneshrink", derandomize=True, deadline=None)
settings.load_profile("coneshrink")

# reference families used throughout
FAM1 = dict(g=1, m_minus=1, m_plus=1, n=2, theta1=math.pi / 4)
FAM2 = dict(g=2, m_minus=1, m_plus=1, n=3, theta1=math.pi / 6)


@pytest.fixture(scope="session")
def fam1():
    return make_family(**FAM1)


@pytest.fixture(scope="session")
def fam2():
    return make_family(**FAM2)


@pytest.fixture(scope="session")
def series1(fam1):
    return compute_coefficients(CurvatureProfile(fam1), 36)


@pytest.fixture(scope="session")
def series2(fam2):
    return compute_coefficients(CurvatureProfile(fam2), 36)


@pytest.fixture(scope="session")
def solved1(fam1, series1):
    """Direct tol=1e-10 solve of the reference g=1 family."""
    return integrate_gamma(CurvatureProfile(fam1), series1, SolverConfig(tol=1e-10))


@pytest.fixture(scope="session")
def dside1(solved1):
    return to_d_profile(solved1)


@pytest.fixture(scope="session")
def continued1(dside1):
    return continue_phi(dside1, config=SolverConfig(tol=1e-10))

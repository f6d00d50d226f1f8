import math

import pytest
from hypothesis import settings

from coneshrink import CurvatureProfile, SolverConfig, make_family, solve

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
def run1(fam1):
    """Direct tol=1e-10 solve of the reference g=1 family from its K=36
    series, continued to the default target."""
    return solve(CurvatureProfile(fam1), SolverConfig(tol=1e-10), K=36)


@pytest.fixture(scope="session")
def run2(fam2):
    """The same solve of the g=2 family."""
    return solve(CurvatureProfile(fam2), SolverConfig(tol=1e-10), K=36)


@pytest.fixture(scope="session")
def series1(run1):
    return run1.series


@pytest.fixture(scope="session")
def series2(run2):
    return run2.series


@pytest.fixture(scope="session")
def solved1(run1):
    return run1.s_side


@pytest.fixture(scope="session")
def dside1(run1):
    return run1.d_side


@pytest.fixture(scope="session")
def continued1(run1):
    return run1.end


@pytest.fixture(scope="session")
def continued2(run2):
    return run2.end

import tracemalloc

import pytest

from vixsabr import CapSpec, McConfig, SabrParams


@pytest.fixture(scope="session")
def params():
    """Default parameter set used throughout the numerical studies."""
    return SabrParams(beta=0.5, rho=-0.7, omega=1.0, v0=0.1)


@pytest.fixture(scope="session")
def caps(params):
    return CapSpec.from_params(params, vol_cap=2.0, drift_cap=1.0)


@pytest.fixture(scope="session")
def mc_default():
    return McConfig()


@pytest.fixture
def traced_peak():
    """A function of fn: the peak bytes that tracemalloc sees while fn() runs."""
    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak

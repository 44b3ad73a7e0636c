import numpy as np
import pytest
from hypothesis import settings

# CI runs with --hypothesis-profile=ci: the same examples on every run, so a
# property test that fails there fails again on a rerun.
settings.register_profile("ci", derandomize=True)


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)

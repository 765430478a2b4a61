import numpy as np
import pytest


@pytest.fixture
def rng():
    # a fresh generator per test: its draws do not depend on which tests ran first
    return np.random.default_rng(20240613)

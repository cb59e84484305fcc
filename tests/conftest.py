import numpy as np
import pytest

from etaforge.asymptotics import RadiusLadder
from etaforge.experiments import BUDGETS


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def quick():
    return BUDGETS["quick"]


@pytest.fixture
def standard():
    return BUDGETS["standard"]


@pytest.fixture
def short_ladder():
    # plenty for single-term models; keeps unit tests fast
    return RadiusLadder(4.0, 4096.0, 16)

"""Fixtures shared by several test modules."""

import numpy as np
import pytest

from wallhopper.model import Scenario
from wallhopper.planner import plan_jump


@pytest.fixture(scope="session")
def benchmark_plan():
    """The benchmark jump (0.2, 2.5, -6) -> (0.2, 4, -4) with the default
    scenario, weights and integrator, planned once per session."""
    return plan_jump(np.array([0.2, 2.5, -6.0]), np.array([0.2, 4.0, -4.0]), Scenario())

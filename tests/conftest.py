"""Fixtures shared by several test modules."""

import json
from pathlib import Path

import numpy as np
import pytest
from scipy import optimize

from wallhopper import integrator
from wallhopper.model import Scenario
from wallhopper.planner import JumpPlan, plan_jump

TRACK_PLAN = Path(__file__).resolve().parent.parent / "perfbench" / "track_plan.json"


@pytest.fixture(scope="session")
def benchmark_plan():
    """The benchmark jump (0.2, 2.5, -6) -> (0.2, 4, -4) with the default
    scenario, weights and integrator, planned once per session."""
    return plan_jump(np.array([0.2, 2.5, -6.0]), np.array([0.2, 4.0, -4.0]), Scenario())


@pytest.fixture(scope="session")
def frozen_track_plan():
    """The benchmark jump as stored in perfbench/track_plan.json (read only):
    numbers checked against it do not move when the planner does."""
    d = json.loads(TRACK_PLAN.read_text())
    arrays = {k: np.array(d[k], dtype=float) for k in
              ("f_leg", "rope_left", "rope_right", "states", "positions", "p0",
               "p_target", "rest_state")}
    return JumpPlan(t_f=float(d["t_f"]), **arrays)


@pytest.fixture
def substep_calls(monkeypatch):
    """The shapes of the states passed to integrator.substep_arrays, the
    array binding of a step, in call order: a single real state stepped on
    Python floats adds none."""
    calls = []
    substep = integrator.substep_arrays

    def counted(x, *args, **kwargs):
        calls.append(np.shape(x))
        return substep(x, *args, **kwargs)

    monkeypatch.setattr(integrator, "substep_arrays", counted)
    return calls


@pytest.fixture
def bvls_step():
    """scipy's BVLS as the oracle for solvers.box_step: the minimiser d of
    |r + J d| over lower <= d <= upper, fixed variables left at 0."""
    def step(J, r, lower, upper):
        free = lower < upper             # lsq_linear rejects equal bounds
        d = np.zeros(J.shape[1])
        d[free] = optimize.lsq_linear(J[:, free], -r, bounds=(lower[free], upper[free]),
                                      method="bvls").x
        return d
    return step

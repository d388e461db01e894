"""Energy accounting: the plan's own estimate against the energy measured
on its open-loop replay."""

import dataclasses

import pytest

from wallhopper.energy import jump_energy, plan_energy_estimate
from wallhopper.model import Scenario
from wallhopper.simulator import run_episode

SCEN = Scenario()


@pytest.fixture(scope="module")
def replay(benchmark_plan):
    return run_episode(benchmark_plan, SCEN, controller="open_loop")


def test_plan_estimate_matches_replay(benchmark_plan, replay):
    estimate = plan_energy_estimate(benchmark_plan, SCEN)
    measured = jump_energy(replay, SCEN)
    assert estimate.hoist == pytest.approx(measured.hoist, abs=0.2)
    assert estimate.kinetic == pytest.approx(measured.kinetic, rel=1e-8)
    assert estimate.total == pytest.approx(measured.total, abs=0.2)


def test_trace_without_lift_off_rejected(replay):
    events = {k: v for k, v in replay.events.items() if k != "lift_off"}
    with pytest.raises(ValueError, match="lift-off"):
        jump_energy(dataclasses.replace(replay, events=events), SCEN)

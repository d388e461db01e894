"""One wall model: the planner, the simulator and the stability code read
the wall from the scenario's wall_normal, through the geometry in
model.py, and the planner and the simulator run without the stability
stack."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wallhopper
from wallhopper import model, stability
from wallhopper.integrator import IntegratorConfig
from wallhopper.model import Ellipsoid, Scenario
from wallhopper.planner import PlannerWeights, ShootingProblem, obstacle_min_x, wall_gap
from wallhopper.stability import contact_geometry

TILTED_NORMAL = np.array([0.6, 0.0, 0.8])
OBSTACLE = Ellipsoid(center=np.array([-0.5, 2.5, -6.0]),
                     semi_axes=np.array([1.5, 1.5, 0.87]))


def test_planner_and_simulator_skip_the_stability_stack():
    env = {**os.environ, "PYTHONPATH": str(Path(wallhopper.__file__).parents[1])}
    code = ("import sys\n"
            "import wallhopper.planner, wallhopper.mpc, wallhopper.simulator\n"
            "print(sorted(m for m in ('wallhopper.stability', 'wallhopper.polytopes')"
            " if m in sys.modules))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


def test_stability_reexports_the_model_tangent_frame():
    assert stability.tangent_frame is model.tangent_frame


def test_tangent_frame_cross_is_np_cross():
    rng = np.random.default_rng(5)
    for n in [TILTED_NORMAL, np.array([0.0, 1.0, 0.0]), *rng.normal(size=(20, 3))]:
        n = n / np.linalg.norm(n)
        t1, t2 = model.tangent_frame(n)
        assert np.array_equal(t2, np.cross(n, t1))


def test_tilted_wall_normal_is_the_contact_normal_everywhere():
    scen = Scenario(wall_normal=TILTED_NORMAL * 2.0)      # normalised on construction
    n = TILTED_NORMAL
    np.testing.assert_allclose(scen.wall_normal, n, rtol=0, atol=1e-15)
    cs = contact_geometry(np.array([1.5, 2.5, -6.0]), scen)
    np.testing.assert_array_equal(cs.contact_normal, scen.wall_normal)
    prob = ShootingProblem([1.0, 2.5, -6.0], [1.0, 4.0, -4.0], scen, PlannerWeights(),
                           IntegratorConfig())
    np.testing.assert_array_equal(-prob.leg_rows[0], scen.wall_normal)
    f_leg = (prob.initial_guess() * prob.scale)[0:3]
    np.testing.assert_allclose(f_leg / np.linalg.norm(f_leg), n, rtol=0, atol=1e-15)


class TestWallGap:
    def test_flat_wall_is_the_normal_offset(self):
        scen = Scenario(wall_normal=TILTED_NORMAL)
        pos = np.array([[1.0, 2.0, -3.0], [0.03, 0.0, 0.0], [-1.0, 4.0, 2.0]])
        np.testing.assert_allclose(wall_gap(pos, scen, 1.0),
                                   pos @ TILTED_NORMAL - scen.wall_offset, rtol=1e-15)
        assert wall_gap(np.array([scen.wall_offset, 1.0, -2.0]), Scenario(), 1.0) == 0.0

    def test_bump_is_the_obstacle_bound(self):
        scen = Scenario(obstacle=OBSTACLE)
        ys = np.linspace(0.0, 5.0, 11)
        pos = np.column_stack([np.full(11, 1.2), ys, np.full(11, -6.0)])
        bound = obstacle_min_x(ys, -6.0, OBSTACLE, 1.0, scen.wall_offset)
        np.testing.assert_array_equal(wall_gap(pos, scen, 1.0), 1.2 - bound)
        # Clear of the flat wall at the apex, yet inside the bump's clearance.
        assert wall_gap(np.array([1.2, 2.5, -6.0]), scen, 1.0) == pytest.approx(
            1.2 - (-0.5 + 1.5 + 1.0))

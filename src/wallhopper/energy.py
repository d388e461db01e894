"""Energy accounting for a jump: lift-off kinetic energy plus hoist work.

The hoist term integrates |f_r * l_dot| for both ropes over the flight;
winding and unwinding both cost motor work, hence the absolute value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Scenario, jacobian_arrays
from .planner import JumpPlan
from .simulator import PHASE_FLIGHT, SimTrace


@dataclass(frozen=True)
class EnergyReport:
    kinetic: float       # 1/2 m |p_dot(t_th)|^2 (J)
    hoist: float         # integral of |f_rl*l1_dot| + |f_rr*l2_dot| (J)

    def __post_init__(self):
        if self.kinetic < 0.0 or self.hoist < 0.0:
            raise ValueError("energy terms must be non-negative")

    @property
    def total(self) -> float:
        return self.kinetic + self.hoist


def jump_energy(trace: SimTrace, scenario: Scenario) -> EnergyReport:
    """Energy spent over a recorded episode.

    The kinetic term is evaluated at lift-off; the hoist term by
    trapezoidal quadrature of the rope power magnitude over the flight.
    """
    if "lift_off" not in trace.events:
        raise ValueError("trace has no lift-off event")
    t_lift = trace.events["lift_off"]
    i_lift = int(np.searchsorted(trace.times, t_lift - 1e-12))
    i_lift = min(i_lift, trace.times.size - 1)
    v_lift = trace.velocities[i_lift]
    kinetic = 0.5 * scenario.mass * float(v_lift @ v_lift)

    mask = trace.phase == PHASE_FLIGHT
    if np.count_nonzero(mask) >= 2:
        t = trace.times[mask]
        power = (np.abs(trace.inputs[mask, 0] * trace.states[mask, 4])
                 + np.abs(trace.inputs[mask, 1] * trace.states[mask, 5]))
        hoist = float(np.trapezoid(power, t))
    else:
        hoist = 0.0
    return EnergyReport(kinetic=kinetic, hoist=hoist)


def plan_energy_estimate(plan: JumpPlan, scenario: Scenario) -> EnergyReport:
    """Energy of a plan evaluated on its own knot grid (no simulation)."""
    x0 = plan.states[0]
    A = jacobian_arrays(x0[0], x0[1], x0[2], scenario.d_a)
    v0 = A @ x0[3:]
    kinetic = 0.5 * scenario.mass * float(v0 @ v0)
    # Each knot holds its rope forces; |f l_dot| is integrated over the knot
    # by the trapezoid over the rates at its two ends.
    f = np.column_stack([plan.rope_left, plan.rope_right])
    power = np.abs(f * plan.states[:-1, 4:]) + np.abs(f * plan.states[1:, 4:])
    hoist = float(np.sum(power) * (0.5 * plan.dt))
    return EnergyReport(kinetic=kinetic, hoist=hoist)

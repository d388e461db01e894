"""Regenerate the frozen plan of the ``track`` workload.

    PYTHONPATH=src python3 perfbench/make_track_plan.py

Plans the ROADMAP benchmark jump with the default Scenario, PlannerWeights
and IntegratorConfig and stores the plan as plain JSON arrays (floats
written with repr, so they read back bit for bit) in track_plan.json.
"""

import json
from pathlib import Path

import numpy as np

from wallhopper.model import Scenario
from wallhopper.planner import plan_jump

OUT = Path(__file__).resolve().parent / "track_plan.json"
P0 = [0.2, 2.5, -6.0]
P_TG = [0.2, 4.0, -4.0]


def main():
    plan = plan_jump(np.array(P0), np.array(P_TG), Scenario())
    data = {k: np.asarray(getattr(plan, k)).tolist() for k in
            ("f_leg", "rope_left", "rope_right", "t_f", "states", "positions",
             "p0", "p_target", "rest_state")}
    data["solve_info"] = {k: plan.solve_info[k] for k in ("status", "n_iter", "objective")}
    OUT.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {OUT.name}: terminal error {plan.terminal_error:.3e} m, "
          f"{plan.solve_info['n_iter']} iterations")


if __name__ == "__main__":
    main()

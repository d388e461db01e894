"""Episode simulator: open-loop replay against the plan, the recorded
trace, each recorded step against one integrator step, one stepping call
per stretch under one held input, wall crossings, reproducibility and
error handling of the robustness batch, its shared undisturbed flight
against one run_episode per run, the landing episode's phases and events,
the MPC ticks (one per plan knot, with the seconds of their steps)
recorded in the trace, aborts at a non-finite state, measurement noise,
the landing damping and the input checks."""

import json

import numpy as np
import pytest

from wallhopper import integrator, mpc, simulator, solvers
from wallhopper.model import Scenario, jacobian_arrays
from wallhopper.simulator import (
    DisturbanceSpec,
    EpisodeAborted,
    NoiseSpec,
    batch_robustness,
    critically_damped_gain,
    landing_episode,
    run_episode,
)

SCEN = Scenario()


def cartesian_velocity(x):
    """p_dot = A_d @ (psi_dot, l1_dot, l2_dot)."""
    return jacobian_arrays(x[0], x[1], x[2], SCEN.d_a) @ x[3:]


def nan_on_step(monkeypatch, n):
    """Make the simulator's n-th step, counted across its
    simulator.rollout_arrays calls, end on a NaN state."""
    real, steps = simulator.rollout_arrays, [0]

    def stepped(x, us, *args, **kwargs):
        states = real(x, us, *args, **kwargs)
        first, steps[0] = steps[0], steps[0] + len(us)
        if first < n <= steps[0]:
            states[n - first] = np.nan
        return states

    monkeypatch.setattr(simulator, "rollout_arrays", stepped)


def nan_where(monkeypatch, hit):
    """Make every step of simulator.rollout_arrays for which hit(u) holds
    end on a NaN state, whichever call it is in.  u is the step's row of
    the stepped inputs: its external force u[2:5] is the plan's leg force
    on the thrust step, the disturbance on a flight step that feels one,
    and zero otherwise."""
    real = simulator.rollout_arrays

    def stepped(x, us, *args, **kwargs):
        states = real(x, us, *args, **kwargs)
        for i, u in enumerate(us):
            if hit(u):
                states[i + 1] = np.nan
        return states

    monkeypatch.setattr(simulator, "rollout_arrays", stepped)


def serial_draws(plan, n_runs, seed, n_intervals=10, noise=None):
    """The robustness batch's draws, in its rng order: per run its interval,
    DisturbanceSpec and NoiseSpec (None without noise)."""
    rng = np.random.default_rng(seed)
    window = plan.t_f / n_intervals
    draws = []
    for run in range(n_runs):
        interval = run % n_intervals
        amp = rng.uniform(*simulator.AMPLITUDE)
        vec = rng.normal(size=3)
        vec[2] = -abs(vec[2])
        nv = np.linalg.norm(vec)
        vec = vec / nv * amp if nv > 0 else np.array([0.0, 0.0, -amp])
        t_start = interval * window + rng.uniform(
            0.0, max(window - DisturbanceSpec.duration, 0.0))
        run_noise = None
        if noise is not None:
            run_noise = NoiseSpec(noise.sigma, seed=int(rng.integers(2 ** 31)))
        draws.append((interval, DisturbanceSpec("impulsive", vec, t_start=t_start),
                      run_noise))
    return draws


def serial_batch(plan, n_runs, seed, controller="open_loop", n_intervals=10,
                 noise=None, mpc_cfg=None, scenario=SCEN):
    """The robustness batch flown one run_episode per run from rest: per run
    (interval, trace, aborted), the trace of an aborted run its
    EpisodeAborted's."""
    runs = []
    for interval, spec, run_noise in serial_draws(plan, n_runs, seed, n_intervals, noise):
        try:
            trace, aborted = run_episode(plan, scenario, controller=controller,
                                         disturbance=spec, noise=run_noise,
                                         mpc_cfg=mpc_cfg), False
        except EpisodeAborted as exc:
            trace, aborted = exc.trace, True
        runs.append((interval, trace, aborted))
    return runs


def serial_stats(runs, n_intervals, seed):
    """batch_robustness's statistics of serial_batch's runs, without the
    step and tick counts."""
    per_interval = [[] for _ in range(n_intervals)]
    for interval, trace, aborted in runs:
        if not aborted:
            per_interval[interval].append(trace.landing_error_norm)
    return {"n_runs": len(runs), "failures": sum(a for _, _, a in runs),
            "wall_crossings": sum("wall_crossing" in t.events for _, t, a in runs if not a),
            "seed": seed,
            "intervals": [{"interval": i, "n": len(e),
                           "mean_error": float(np.mean(e)) if e else np.nan,
                           "std_error": float(np.std(e)) if e else np.nan}
                          for i, e in enumerate(per_interval)]}


class TestOpenLoopReplay:
    @pytest.mark.parametrize("dt_sim", [1e-3, 5e-4])
    def test_ends_on_the_plan(self, benchmark_plan, dt_sim):
        # The plan's knot interval is no multiple of dt_sim; the simulator
        # must still end the flight at t_th + t_f, on the plan's last knot.
        plan = benchmark_plan
        trace = run_episode(plan, SCEN, controller="open_loop", dt_sim=dt_sim)
        assert trace.events["lift_off"] == pytest.approx(SCEN.t_th, abs=1e-12)
        assert trace.times[-1] == pytest.approx(SCEN.t_th + plan.t_f, abs=1e-12)
        assert np.linalg.norm(trace.positions[-1] - plan.positions[-1]) < 1e-8
        assert trace.landing_error_norm == pytest.approx(plan.terminal_error, abs=1e-8)

    def test_inputs_walk_the_schedule(self, frozen_track_plan):
        # Step 0 of the plan's schedule over the thrust, then step k + 1
        # over tick k; the last row repeats the last step's input.
        plan = frozen_track_plan
        u, dt = plan.schedule(SCEN.t_th)
        trace = run_episode(plan, SCEN, controller="open_loop")
        thrust = trace.phase == simulator.PHASE_THRUST
        assert thrust.sum() == round(dt[0] / 1e-3)
        np.testing.assert_array_equal(trace.inputs[thrust],
                                      np.broadcast_to(u[0], (thrust.sum(), 6)))
        flight = trace.inputs[~thrust]
        np.testing.assert_array_equal(flight[:-1], np.repeat(u[1:], round(dt[1] / 1e-3), axis=0))
        np.testing.assert_array_equal(flight[-1], u[-1])

    def test_trace_velocities(self, benchmark_plan):
        # Flight rows of a run, and the contact rows of a landing, whose
        # states carry the rates of the normal settling motion.
        run = run_episode(benchmark_plan, SCEN, controller="open_loop", dt_sim=0.005)
        land = landing_episode(benchmark_plan, SCEN.with_(d_w=0.22),
                               controller="open_loop", dt_sim=0.005)
        contact = np.flatnonzero(land.phase == simulator.PHASE_CONTACT)
        assert contact.size and np.any(land.states[contact, 3:] != 0.0)
        for trace, rows in ((run, range(0, run.times.size, 7)), (land, contact[::7])):
            for i in rows:
                v = cartesian_velocity(trace.states[i])
                np.testing.assert_allclose(trace.velocities[i], v, rtol=1e-12, atol=1e-12)


def step_lengths(plan, n_rows, dt_sim=1e-3):
    """The length of the step each of an episode's first n_rows rows starts:
    the thrust's and each tick's steps divide its schedule step, and the
    hold steps dt_sim."""
    _, dt = plan.schedule(SCEN.t_th)
    lengths = [[h] * n for n, h in (simulator._substeps(d, dt_sim) for d in dt.tolist())]
    lengths.append([dt_sim] * round(simulator.MAX_HOLD / dt_sim))
    return np.concatenate(lengths)[:n_rows]


class TestStretches:
    """Each stretch under one held input (the thrust, a tick, a control
    period of the hold) is one simulator.rollout_arrays call; every step it
    records is one plain integrator step."""

    CONSTANT = DisturbanceSpec("constant", [0.0, 0.0, -20.0])

    def assert_rows_are_steps(self, plan, trace):
        # Row i + 1 of the flight and the hold is step_arrays from row i
        # under row i's input with its force added, bit for bit.
        stepped = trace.inputs.copy()
        stepped[:, 2:5] += trace.disturbance
        rows = np.flatnonzero(np.isin(trace.phase[1:],
                                      [simulator.PHASE_FLIGHT, simulator.PHASE_HOLD]))
        h = step_lengths(plan, rows[-1] + 1)
        cfg = integrator.IntegratorConfig(n_sub=1)
        expected = np.array([integrator.step_arrays(trace.states[i], stepped[i], h[i], cfg, SCEN)
                             for i in rows])
        np.testing.assert_array_equal(expected.view(np.uint64),
                                      trace.states[rows + 1].view(np.uint64))

    @pytest.mark.parametrize("controller", ["open_loop", "mpc"])
    @pytest.mark.parametrize("disturbance", [None, CONSTANT])
    def test_run_rows_are_steps(self, frozen_track_plan, controller, disturbance):
        trace = run_episode(frozen_track_plan, SCEN, controller=controller,
                            disturbance=disturbance)
        self.assert_rows_are_steps(frozen_track_plan, trace)

    def test_window_opening_inside_a_tick(self, frozen_track_plan):
        plan = frozen_track_plan
        pulse = DisturbanceSpec("impulsive", [10.0, -20.0, -30.0], t_start=2.5 * plan.dt,
                                duration=0.1)
        trace = run_episode(plan, SCEN, controller="open_loop", disturbance=pulse)
        felt = np.any(trace.disturbance != 0.0, axis=1)
        first = np.flatnonzero(felt)[0]
        # The window opens and closes between two rows of one tick.
        assert np.array_equal(trace.inputs[first - 1], trace.inputs[first])
        last = np.flatnonzero(felt)[-1]
        assert np.array_equal(trace.inputs[last], trace.inputs[last + 1])
        self.assert_rows_are_steps(plan, trace)

    @pytest.mark.parametrize("d_w, event", [(0.22, "early_touch_down"),
                                            (0.4, "no_touch_down")])
    def test_landing_rows_are_steps(self, frozen_track_plan, d_w, event):
        trace = landing_episode(frozen_track_plan, SCEN.with_(d_w=d_w), controller="open_loop")
        assert event in trace.events
        self.assert_rows_are_steps(frozen_track_plan, trace)

    def stretches(self, monkeypatch):
        """The number of steps of each simulator.rollout_arrays call."""
        real, calls = simulator.rollout_arrays, []

        def counted(x, us, *args, **kwargs):
            calls.append(len(us))
            return real(x, us, *args, **kwargs)

        monkeypatch.setattr(simulator, "rollout_arrays", counted)
        return calls

    def test_one_call_per_stretch(self, frozen_track_plan, monkeypatch):
        plan = frozen_track_plan
        _, dt = plan.schedule(SCEN.t_th)
        per_step = [simulator._substeps(d, 1e-3)[0] for d in dt]
        calls = self.stretches(monkeypatch)
        run_episode(plan, SCEN, controller="open_loop")
        assert calls == per_step
        # No touch-down: the hold adds one call per control period, the last
        # one short.
        calls.clear()
        trace = landing_episode(plan, SCEN.with_(d_w=0.4), controller="open_loop")
        n_hold, period = round(simulator.MAX_HOLD / 1e-3), per_step[-1]
        assert calls == per_step + [period] * (n_hold // period) + [n_hold % period]
        assert np.count_nonzero(trace.phase == simulator.PHASE_HOLD) == n_hold + 1
        # An early touch-down ends the flight in its tick's call, whose
        # remaining steps are dropped.
        calls.clear()
        trace = landing_episode(plan, SCEN.with_(d_w=0.22), controller="open_loop")
        assert calls == per_step[:len(calls)] and len(calls) < len(per_step)
        flown = np.count_nonzero(np.isin(trace.phase, [simulator.PHASE_THRUST,
                                                        simulator.PHASE_FLIGHT]))
        assert sum(calls[:-1]) < flown < sum(calls)


class TestWallCrossing:
    def test_recorded_as_event(self, benchmark_plan):
        # A push towards the wall takes the CoM through the wall plane; the
        # run goes on and its first sample behind the plane is the event.
        push = DisturbanceSpec("impulsive", [-50.0, 0.0, 0.0], t_start=0.1)
        trace = run_episode(benchmark_plan, SCEN, controller="open_loop",
                            disturbance=push)
        t_cross = trace.events["wall_crossing"]
        behind = trace.positions @ SCEN.wall_normal < 0.0
        i = int(np.argmax(behind))
        assert behind[i] and trace.times[i] == t_cross
        assert trace.events["lift_off"] < t_cross < trace.events["horizon_end"]
        assert np.all(np.isfinite(trace.states)) and np.all(np.isfinite(trace.e_a))

    def test_absent_without_crossing(self, benchmark_plan):
        trace = run_episode(benchmark_plan, SCEN, controller="open_loop")
        assert np.all(trace.positions @ SCEN.wall_normal > 0.0)
        assert "wall_crossing" not in trace.events

    def test_robustness_batch_counts_crossings(self, benchmark_plan):
        # Seed 105 has runs that cross psi = 0 between two samples and one
        # that samples it within 1e-6 rad; all are landing errors.
        stats = batch_robustness(benchmark_plan, 10, SCEN, seed=105,
                                 controller="open_loop")
        assert stats["failures"] == 0
        assert stats["wall_crossings"] >= 1
        errors = [iv["mean_error"] for iv in stats["intervals"]]
        assert [iv["n"] for iv in stats["intervals"]] == [1] * 10
        assert np.all(np.isfinite(errors))

    def test_seed_without_abort_unchanged(self, frozen_track_plan):
        # Seed 7 has two crossing runs and no sample near psi = 0; these are
        # its interval errors on the frozen track plan (the tolerance covers
        # plans that differ by ~1e-6 with the number of BLAS threads).
        stats = batch_robustness(frozen_track_plan, 10, SCEN, seed=7,
                                 controller="open_loop")
        expected = [1.360001257537986, 1.143623088386833, 0.8504264596610528,
                    0.8537440041216698, 0.5409647413206845, 0.545305021711369,
                    0.4268741894699399, 0.26132331435611533, 0.1793959404193871,
                    0.02637840144892977]
        assert stats["failures"] == 0
        np.testing.assert_allclose([iv["mean_error"] for iv in stats["intervals"]],
                                   expected, rtol=1e-5)


class TestBatchRobustness:
    def run(self, plan, n_runs=4):
        return batch_robustness(plan, n_runs, SCEN, seed=5, controller="open_loop",
                                n_intervals=4)

    def test_fixed_seed_bit_identical(self, benchmark_plan):
        a, b = self.run(benchmark_plan), self.run(benchmark_plan)
        assert repr(a) == repr(b)
        assert a["failures"] == 0
        assert all(iv["n"] == 1 for iv in a["intervals"])

    @pytest.mark.parametrize("error", [ZeroDivisionError, RuntimeError])
    def test_code_errors_propagate(self, benchmark_plan, monkeypatch, error):
        def broken(*args, **kwargs):
            raise error("injected")

        monkeypatch.setattr(simulator, "rollout_arrays", broken)
        with pytest.raises(error, match="injected"):
            self.run(benchmark_plan)

    @pytest.mark.parametrize("n_intervals", [0, -1])
    def test_no_interval_rejected(self, benchmark_plan, n_intervals):
        with pytest.raises(ValueError, match="n_intervals"):
            batch_robustness(benchmark_plan, 4, SCEN, controller="open_loop",
                             n_intervals=n_intervals)

    def abort_run(self, plan, monkeypatch, run):
        """The batch with run `run` aborted in its window: the NaN is keyed to
        the run's own disturbance force, not to a call count."""
        draws = serial_draws(plan, 4, seed=5, n_intervals=4)
        assert [i for i, _, _ in draws] == [0, 1, 2, 3]
        vector = draws[run][1].vector
        nan_where(monkeypatch, lambda u: np.array_equal(u[2:5], vector))
        stats = self.run(plan)
        assert stats["failures"] == 1
        assert [iv["n"] for iv in stats["intervals"]] == [int(r != run) for r in range(4)]
        assert np.all(np.isfinite([iv["mean_error"] for iv in stats["intervals"]
                                   if iv["n"]]))
        return draws

    def test_non_finite_state_counted(self, benchmark_plan, monkeypatch):
        self.abort_run(benchmark_plan, monkeypatch, 1)

    def test_shared_flight_abort_counted(self, benchmark_plan, monkeypatch):
        # Run 3's window opens last, so run 3 flies the shared flight from
        # which the others start: they are scored all the same.
        draws = self.abort_run(benchmark_plan, monkeypatch, 3)
        assert max(range(4), key=lambda r: draws[r][1].t_start) == 3

    def test_abort_before_lift_off(self, benchmark_plan, monkeypatch):
        # The shared flight aborts in the thrust, before its first tick: no
        # run can start from it, so each flies from rest and aborts at its
        # own first step.
        nan_where(monkeypatch, lambda u: np.array_equal(u[2:5], benchmark_plan.f_leg))
        stats = self.run(benchmark_plan)
        assert stats["failures"] == 4 and stats["steps"] == 4
        assert all(iv["n"] == 0 for iv in stats["intervals"])


class TestSharedPrefix:
    """batch_robustness flies the undisturbed flight its runs share once;
    each run must still equal its own run_episode from rest, bit for bit."""

    META = ("controller", "dt_sim", "disturbance", "noise", "n_iter", "status",
            "degraded", "error")

    @pytest.fixture
    def compare(self, monkeypatch):
        """Asserts per-run and batch equality; returns the batch's stats."""
        def compare(plan, n_runs, seed, controller="open_loop", n_intervals=10,
                    noise=None, mpc_cfg=None, scenario=SCEN):
            shared, runs = [], simulator._robustness_runs

            def kept(*args):
                for run in runs(*args):
                    shared.append(run)
                    yield run

            monkeypatch.setattr(simulator, "_robustness_runs", kept)
            stats = batch_robustness(plan, n_runs, scenario, seed=seed, noise=noise,
                                     controller=controller, n_intervals=n_intervals,
                                     mpc_cfg=mpc_cfg)
            serial = serial_batch(plan, n_runs, seed, controller, n_intervals, noise,
                                  mpc_cfg, scenario)
            self.check(shared, serial, stats, n_intervals, seed)
            return stats
        return compare

    def check(self, shared, serial, stats, n_intervals, seed):
        for (i, a, a_abort, _, _), (j, b, b_abort) in zip(shared, serial, strict=True):
            assert (i, a_abort) == (j, b_abort)
            for name in ("times", "states", "positions", "velocities", "inputs",
                         "disturbance", "phase", "e_a"):
                np.testing.assert_array_equal(getattr(a, name), getattr(b, name),
                                              err_msg=name)
            assert a.events == b.events
            assert set(a.meta) == set(b.meta)
            for key in set(self.META) & set(a.meta):
                np.testing.assert_array_equal(a.meta[key], b.meta[key], err_msg=key)
        stats = dict(stats)
        counts = {"steps": stats.pop("steps"), "ticks": stats.pop("ticks")}
        expected = serial_stats(serial, n_intervals, seed)
        assert json.dumps(stats, sort_keys=True) == json.dumps(expected, sort_keys=True)
        assert counts == {"steps": sum(s for _, _, _, s, _ in shared),
                          "ticks": sum(k for _, _, _, _, k in shared)}

    # Seed 105 has runs that cross the wall plane.
    @pytest.mark.parametrize("seed", [1, 7, 105])
    def test_open_loop(self, frozen_track_plan, compare, seed):
        stats = compare(frozen_track_plan, 10, seed)
        assert stats["ticks"] == 0 and stats["steps"] < 10 * 1040
        assert stats["wall_crossings"] >= (seed == 105)

    def test_long_windows(self, frozen_track_plan, compare):
        # Windows of t_f / 4 outlast the impulse, so each start gets a
        # random offset inside its window.
        compare(frozen_track_plan, 8, 5, n_intervals=4)

    def test_mpc(self, frozen_track_plan, compare):
        # The seed-7 counts: 6,650 steps and 200 ticks, against 10 x 1,040
        # steps and 10 x 30 ticks flown from rest.
        stats = compare(frozen_track_plan, 10, 7, controller="mpc",
                             mpc_cfg=mpc.MpcConfig(n_horizon=2))
        assert (stats["steps"], stats["ticks"]) == (6650, 200)

    def test_mpc_warm_start(self, frozen_track_plan, compare):
        # On the plan's own model the undisturbed ticks command no deviation,
        # so a lost warm start would not show.  A 10 % heavier robot makes
        # every tick deviate: a run starting at tick k needs tick k-1's
        # solution for its warm start and its smoothing term.
        trace = run_episode(frozen_track_plan, SCEN.with_(mass=5.5), controller="mpc",
                            mpc_cfg=mpc.MpcConfig(n_horizon=2))
        assert np.all(trace.inputs[100:1000:33, 5] != 0.0)
        compare(frozen_track_plan, 4, 7, controller="mpc",
                mpc_cfg=mpc.MpcConfig(n_horizon=2), scenario=SCEN.with_(mass=5.5))

    def test_open_loop_counts(self, frozen_track_plan):
        stats = batch_robustness(frozen_track_plan, 10, SCEN, seed=7,
                                 controller="open_loop")
        assert (stats["steps"], stats["ticks"]) == (6650, 0)

    def test_noise_flies_every_run_from_rest(self, frozen_track_plan, compare):
        stats = compare(frozen_track_plan, 3, 7, controller="mpc", noise=NoiseSpec(),
                        mpc_cfg=mpc.MpcConfig(n_horizon=2))
        assert (stats["steps"], stats["ticks"]) == (3 * 1040, 3 * 30)

    def test_shared_flight_aborts_undisturbed(self, frozen_track_plan, compare,
                                              monkeypatch):
        # A fault at the tick-20 input without force (its u[2:5] is zero):
        # the shared flight aborts there before its own window opens; the
        # runs still match their serial runs, which meet the same fault.
        u20 = frozen_track_plan.schedule(SCEN.t_th)[0][21]
        assert not np.any(u20[2:5])
        nan_where(monkeypatch, lambda u: np.array_equal(u, u20))
        stats = compare(frozen_track_plan, 10, 7)
        assert 0 < stats["failures"] < 10


class TestLandingEpisode:
    def land(self, plan, d_w, **kwargs):
        return landing_episode(plan, SCEN.with_(d_w=d_w), controller="open_loop",
                               **kwargs)

    def test_no_touch_down(self, benchmark_plan):
        # The benchmark jump stays at n.p < 0.29 m and never clears d_w = 0.4 m.
        trace = self.land(benchmark_plan, 0.4)
        ev = trace.events
        assert "no_touch_down" in ev and "settled" not in ev
        assert ev["no_touch_down"] == pytest.approx(ev["horizon_end"] + simulator.MAX_HOLD,
                                                    abs=1e-9)
        assert trace.meta["touch_down"] is False
        assert trace.phase[-1] == simulator.PHASE_HOLD

    def test_delayed_touch_down(self, benchmark_plan):
        trace = self.land(benchmark_plan, 0.2)
        ev = trace.events
        assert ev["delayed_touch_down"] == pytest.approx(ev["horizon_end"] + 1e-3, abs=1e-12)
        assert set(trace.phase) == {simulator.PHASE_THRUST, simulator.PHASE_FLIGHT,
                                    simulator.PHASE_HOLD, simulator.PHASE_CONTACT}
        assert trace.meta["touch_down"] is True and trace.meta["early"] is False

    def test_early_touch_down(self, benchmark_plan):
        trace = self.land(benchmark_plan, 0.22)
        ev = trace.events
        assert ev["early_touch_down"] == pytest.approx(0.975, abs=1e-3)
        assert "horizon_end" not in ev
        assert simulator.PHASE_HOLD not in trace.phase
        assert trace.meta["early"] is True

    @pytest.mark.parametrize("d_w, touch", [(0.2, "delayed_touch_down"),
                                            (0.22, "early_touch_down")])
    def test_settled_after_settle_time(self, benchmark_plan, d_w, touch):
        trace = self.land(benchmark_plan, d_w)
        ev = trace.events
        assert ev["settled"] == pytest.approx(ev[touch] + simulator.SETTLE_TIME, abs=1e-9)
        contact = trace.phase == simulator.PHASE_CONTACT
        assert np.count_nonzero(contact) == 3000
        assert trace.times[contact][0] == ev[touch]

    def test_contact_velocity_is_the_normal_rate(self, benchmark_plan):
        # The contact phase steps the normal gap s by semi-implicit Euler,
        # s += s_dot dt: each row's velocity is the position difference to
        # the row before over dt, along the wall normal.
        trace = self.land(benchmark_plan, 0.22)
        contact = np.flatnonzero(trace.phase == simulator.PHASE_CONTACT)
        v = trace.velocities[contact[1:]]
        dp = np.diff(trace.positions[contact], axis=0) / 1e-3
        np.testing.assert_allclose(v, dp, rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(v[:, 1:], 0.0, rtol=0.0, atol=1e-15)
        assert np.max(np.abs(v[:, 0])) > 1e-3

    def test_meta_shares_run_episode_keys(self, benchmark_plan):
        run = run_episode(benchmark_plan, SCEN, controller="open_loop")
        land = self.land(benchmark_plan, 0.22)
        assert set(run.meta) < set(land.meta)
        assert all(land.meta[k] == v for k, v in run.meta.items())

    def test_unknown_controller_rejected(self, benchmark_plan):
        with pytest.raises(ValueError, match="controller"):
            landing_episode(benchmark_plan, SCEN, controller="openloop")

    def test_disturbance_acts_in_the_hold(self, frozen_track_plan):
        # A constant force still acts after t_f: the landing is the one under
        # an impulsive window over the flight [0, t_f) until horizon_end, and
        # differs after it.  Under the window the hold ends in a delayed
        # touch-down at d_w 0.3; the force held on pulls the CoM down past
        # the wheel plane instead.
        plan, vector = frozen_track_plan, np.array([0.0, 0.0, -20.0])
        const = self.land(plan, 0.3, disturbance=DisturbanceSpec("constant", vector))
        window = self.land(plan, 0.3, disturbance=DisturbanceSpec(
            "impulsive", vector, t_start=0.0, duration=plan.t_f))
        t_end = const.events["horizon_end"]
        assert window.events["horizon_end"] == t_end
        for name in ("times", "states", "inputs", "disturbance", "phase"):
            np.testing.assert_array_equal(getattr(const, name)[const.times < t_end],
                                          getattr(window, name)[window.times < t_end],
                                          err_msg=name)
        hold = const.phase == simulator.PHASE_HOLD
        np.testing.assert_array_equal(const.disturbance[hold],
                                      np.broadcast_to(vector, (hold.sum(), 3)))
        assert not np.any(window.disturbance[window.phase == simulator.PHASE_HOLD])
        assert "no_touch_down" in const.events and "delayed_touch_down" in window.events
        assert not np.array_equal(const.e_a, window.e_a)

    def test_disturbance_acts_in_contact(self, frozen_track_plan):
        # A constant force still acts after touch-down: its normal part n.F
        # moves the landing impedance's gap by the critically damped step
        # response to n.F / K, and the wheels hold the lateral part.  Under
        # a window that closes at touch-down the landing is the same up to
        # it and feels no force after it.
        plan, vector = frozen_track_plan, np.array([-10.0, 0.0, 0.0])
        const = self.land(plan, 0.22, disturbance=DisturbanceSpec("constant", vector))
        t_td = const.events["delayed_touch_down"]
        window = self.land(plan, 0.22, disturbance=DisturbanceSpec(
            "impulsive", vector, t_start=0.0, duration=t_td - const.events["lift_off"]))
        assert window.events == const.events
        np.testing.assert_array_equal(window.phase, const.phase)
        contact = const.phase == simulator.PHASE_CONTACT
        for name in ("times", "states", "inputs", "disturbance"):
            np.testing.assert_array_equal(getattr(const, name)[~contact],
                                          getattr(window, name)[~contact], err_msg=name)
        np.testing.assert_array_equal(const.disturbance[contact],
                                      np.broadcast_to(vector, (contact.sum(), 3)))
        assert not np.any(window.disturbance[contact])
        n, K = SCEN.wall_normal, simulator.LANDING_STIFFNESS
        dp = const.positions[contact] - window.positions[contact]
        gap = dp @ n
        np.testing.assert_allclose(dp, gap[:, None] * n, rtol=0.0, atol=1e-12)
        tau = np.sqrt(K / SCEN.mass) * (const.times[contact] - t_td)
        step = float(n @ vector) / K * (1.0 - np.exp(-tau) * (1.0 + tau))
        np.testing.assert_allclose(gap, step, rtol=0.0, atol=3e-4)

    def test_non_finite_state_aborts(self, benchmark_plan, monkeypatch):
        nan_on_step(monkeypatch, 100)
        with pytest.raises(EpisodeAborted) as err:
            self.land(benchmark_plan, 0.2)
        trace = err.value.trace
        assert "aborted" in trace.events
        assert trace.times.size == 100
        assert np.all(np.isnan(trace.e_a))


class TestTickMeta:
    KEYS = ("tick_s", "step_s", "n_iter", "status", "degraded")

    def test_one_entry_per_tick(self, frozen_track_plan):
        meta = run_episode(frozen_track_plan, SCEN, controller="mpc").meta
        n_ticks = mpc.TrackingController(frozen_track_plan, SCEN).n_ticks
        assert all(meta[key].shape == (n_ticks,) for key in self.KEYS)
        assert np.all(meta["tick_s"] > 0.0)
        assert not np.any(meta["degraded"])
        assert "tick_s" not in run_episode(frozen_track_plan, SCEN,
                                           controller="open_loop").meta

    def test_abort_keeps_the_ticks_flown(self, frozen_track_plan, monkeypatch):
        # Step 100 is the 50th flight step: the rows before it and the
        # ticks that started them stay in the trace.
        nan_on_step(monkeypatch, 100)
        with pytest.raises(EpisodeAborted, match="non-finite") as err:
            run_episode(frozen_track_plan, SCEN, controller="mpc")
        trace = err.value.trace
        assert trace.times.size == 100 and "aborted" in trace.events
        assert np.all(np.isnan(trace.e_a))
        n_thrust = round(SCEN.t_th / 1e-3)
        steps_per_tick = round(frozen_track_plan.dt / 1e-3)
        n_ticks = -(-(100 - n_thrust) // steps_per_tick)
        assert np.count_nonzero(trace.phase == simulator.PHASE_FLIGHT) == 100 - n_thrust
        assert all(trace.meta[key].shape == (n_ticks,) for key in self.KEYS)
        assert np.all(trace.meta["tick_s"] > 0.0)

    def test_degraded_tick_recorded(self, frozen_track_plan, monkeypatch):
        calls = []

        def third_fails(problem):
            calls.append(None)
            if len(calls) == 3:
                raise RuntimeError("injected")
            return solvers.solve_nlp(problem)

        monkeypatch.setattr(mpc, "solve_nlp", third_fails)
        meta = run_episode(frozen_track_plan, SCEN, controller="mpc").meta
        np.testing.assert_array_equal(np.flatnonzero(meta["degraded"]), [2])
        assert (meta["status"][2], meta["n_iter"][2]) == ("failed", 0)
        assert meta["step_s"][2] == 0.0

    def test_step_seconds_lie_within_the_tick(self, frozen_track_plan):
        # Under -20 N the MPC steps on most ticks, with rope bounds active
        # on some; a tick that makes no step spends no time in one.
        meta = run_episode(frozen_track_plan, SCEN, controller="mpc",
                           disturbance=DisturbanceSpec("constant", [0.0, 0.0, -20.0])).meta
        stepped = meta["n_iter"] > 0
        assert 0 < np.count_nonzero(stepped) < stepped.size
        assert np.all(meta["step_s"][~stepped] == 0.0)
        assert np.all(meta["step_s"][stepped] > 0.0)
        assert np.all(meta["step_s"] < meta["tick_s"])


class TestMeasurementNoise:
    """MPC episodes on the frozen plan with noise on the measured rates."""

    @pytest.fixture(scope="class")
    def clean(self, frozen_track_plan):
        return run_episode(frozen_track_plan, SCEN, controller="mpc")

    def test_zero_sigma_is_noise_free(self, frozen_track_plan, clean):
        trace = run_episode(frozen_track_plan, SCEN, controller="mpc",
                            noise=NoiseSpec(sigma=[0.0, 0.0, 0.0]))
        assert trace.meta["noise"]
        np.testing.assert_array_equal(trace.states, clean.states)

    def test_seeded_noise_reproduces_and_moves_the_landing(self, frozen_track_plan,
                                                           clean):
        a, b = (run_episode(frozen_track_plan, SCEN, controller="mpc",
                            noise=NoiseSpec(seed=3)) for _ in range(2))
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        assert clean.landing_error_norm == pytest.approx(0.195e-3, abs=0.001e-3)
        assert a.landing_error_norm == pytest.approx(22.9e-3, abs=0.1e-3)


class TestLandingDamping:
    def test_critically_damped(self):
        K, m = 60.0, 5.0
        D = critically_damped_gain(K, m)
        # m s^2 + D s + K has a double root.
        assert D * D == pytest.approx(4.0 * K * m, rel=1e-15)

    def test_contact_phase_is_critically_damped(self, benchmark_plan):
        trace = landing_episode(benchmark_plan, SCEN.with_(d_w=0.22),
                                controller="open_loop")
        assert trace.meta["stiffness"] == simulator.LANDING_STIFFNESS
        assert trace.meta["damping"] == critically_damped_gain(
            simulator.LANDING_STIFFNESS, SCEN.mass)

    @pytest.mark.parametrize("K, m", [(0.0, 5.0), (60.0, 0.0), (-1.0, 5.0), (60.0, -2.0)])
    def test_non_positive_rejected(self, K, m):
        with pytest.raises(ValueError):
            critically_damped_gain(K, m)

    # critically_damped_gain(nan, 5.0) once returned NaN.
    @pytest.mark.parametrize("K, m", [(np.nan, 5.0), (60.0, np.nan), (np.inf, 5.0),
                                      (60.0, np.inf)])
    def test_non_finite_rejected(self, K, m):
        with pytest.raises(ValueError, match="finite and positive"):
            critically_damped_gain(K, m)


class TestDisturbanceSpec:
    def test_force_at(self):
        # The force acts over [t_start, t_start + duration) from lift-off,
        # always when constant, and never for kind none: None when none acts.
        vector = np.array([1.0, -2.0, 3.0])
        pulse = DisturbanceSpec("impulsive", vector, t_start=0.25, duration=0.5)
        for t in (0.25, 0.5, np.nextafter(0.75, 0.0)):
            assert pulse.force_at(t) is pulse.vector
        for t in (0.0, np.nextafter(0.25, 0.0), 0.75, 2.0):
            assert pulse.force_at(t) is None
        constant = DisturbanceSpec("constant", vector)
        for t in (0.0, 0.25, 10.0):
            assert constant.force_at(t) is constant.vector
        for spec in (DisturbanceSpec(), DisturbanceSpec("none", vector, t_start=0.25)):
            for t in (0.0, 0.25, 0.5):
                assert spec.force_at(t) is None

    def test_rows_record_the_force_at_their_time(self, frozen_track_plan):
        # Every row after the thrust, the last one included, records
        # force_at of its time from lift-off, although no step follows the
        # last row.
        vector = np.array([3.0, -4.0, -20.0])
        for spec in (DisturbanceSpec("constant", vector),
                     DisturbanceSpec("impulsive", vector, t_start=0.5, duration=1.0)):
            trace = run_episode(frozen_track_plan, SCEN, controller="open_loop",
                                disturbance=spec)
            felt = [phase != simulator.PHASE_THRUST and spec.force_at(t) is not None
                    for t, phase in zip(trace.times - trace.events["lift_off"], trace.phase)]
            assert felt[-1]
            np.testing.assert_array_equal(trace.disturbance,
                                          np.where(np.array(felt)[:, None], vector, 0.0))


class TestInputValidation:
    BAD_DT = [0.0, -1e-3, np.nan, np.inf]

    @pytest.mark.parametrize("dt_sim", BAD_DT)
    def test_episode_rejects_bad_dt_sim(self, frozen_track_plan, dt_sim):
        # dt_sim = -1e-3 once ran one 33 ms step per tick: 32 rows, not 1,041.
        with pytest.raises(ValueError, match="dt_sim"):
            run_episode(frozen_track_plan, SCEN, controller="open_loop", dt_sim=dt_sim)
        with pytest.raises(ValueError, match="dt_sim"):
            landing_episode(frozen_track_plan, SCEN, controller="open_loop",
                            dt_sim=dt_sim)

    @pytest.mark.parametrize("dt_sim", BAD_DT)
    @pytest.mark.parametrize("n_runs", [0, 2])
    def test_batch_rejects_bad_dt_sim(self, frozen_track_plan, dt_sim, n_runs):
        with pytest.raises(ValueError, match="dt_sim"):
            batch_robustness(frozen_track_plan, n_runs, SCEN, controller="open_loop",
                             dt_sim=dt_sim)

    # n_runs = -3 once returned statistics of -3 runs; a float count raised
    # TypeError from range.
    @pytest.mark.parametrize("kwargs", [{"n_runs": -3}, {"n_runs": 2.0}, {"n_runs": np.nan},
                                        {"n_intervals": 4.0}, {"n_intervals": 2.5}])
    def test_batch_rejects_bad_counts(self, frozen_track_plan, kwargs):
        args = {"n_runs": 2, **kwargs}
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            batch_robustness(frozen_track_plan, scenario=SCEN, controller="open_loop",
                             **args)

    # A negative or fractional seed once failed only when an episode started.
    @pytest.mark.parametrize("seed", [-1, 2.5, np.nan, "3"])
    def test_noise_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            NoiseSpec(seed=seed)

    def test_good_dt_sim_row_count(self, frozen_track_plan):
        trace = run_episode(frozen_track_plan, SCEN, controller="open_loop")
        assert trace.times.size == 1041

    # On the frozen plan a NaN sigma degraded 29 of 30 MPC ticks, a NaN
    # t_start switched the disturbance off for good and a 2-vector raised
    # IndexError inside the dynamics kernel.
    @pytest.mark.parametrize("sigma", [[np.nan, 0.2, 0.2], [0.01, -0.2, 0.2],
                                       [0.01, 0.2], [[0.01, 0.2, 0.2]], 0.1])
    def test_noise_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            NoiseSpec(sigma=sigma)

    @pytest.mark.parametrize("kwargs", [{"t_start": np.nan}, {"duration": np.nan},
                                        {"t_start": -0.1}, {"duration": -0.1}])
    def test_disturbance_window_rejected(self, kwargs):
        with pytest.raises(ValueError, match="window"):
            DisturbanceSpec("impulsive", [0.0, 0.0, -20.0], **kwargs)

    @pytest.mark.parametrize("vector", [[0.0, -20.0], [0.0, 0.0, 0.0, -20.0],
                                        [0.0, np.nan, -20.0], [[0.0, 0.0, -20.0]]])
    def test_disturbance_vector_rejected(self, vector):
        with pytest.raises(ValueError, match="vector"):
            DisturbanceSpec("constant", vector)

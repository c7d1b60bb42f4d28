import math
import pathlib
from dataclasses import replace

import numpy as np
import pytest

from dustlab import _integrate, _model_rhs, detector, simulate
from dustlab.core import (TRIGGERS, FieldState, GaussianDensity, HubbleVelocity,
                          NumericalSettings, UniformDensity, load_scenario, trigger_rows,
                          validate_scenario)
from dustlab.detector import (BRACKET_REL_WIDTH, NEWTON_TRIALS, BlowupEvent, EscapeStatus,
                              Trigger, _held, bracket_event, escape_report, scan_step,
                              slab_roots, trigger_marker_index)
from dustlab.errors import DustLabError
from dustlab.functional import proof_chain_report
from dustlab.riccati import BlowupCertificate, Case, check_blowup_conditions

from conftest import (FAST, make_ball, make_slab, neighbour_gaps, step_row,
                      uniform_slab_chart, uniform_slab_div_crossing)

SETTINGS = NumericalSettings()
SCENARIOS = pathlib.Path(__file__).parents[1] / "scenarios"


def state(x, w=None, rho=None, t=0.0):
    x = np.asarray(x, dtype=float)
    k = x.size
    return FieldState(time=t, positions=x,
                      velocities=np.zeros(k),
                      densities=np.full(k, 0.5) if rho is None else np.asarray(rho, float),
                      eig_radial=np.zeros(k) if w is None else np.asarray(w, float),
                      masses=np.full(k, 1.0 / k))


def scan(st):
    """scan_step on the per-step row of a state."""
    return scan_step(step_row(st), SETTINGS)


class TestScanStep:
    def test_quiescent_step_no_trigger(self):
        assert scan(state([-0.4, 0.4], t=0.1)) == []

    def test_crossing_trigger_and_index(self):
        nxt = state([-0.5, -0.5 + 1e-14, 0.5], t=0.1)
        (trig,) = scan(nxt)
        assert trig is Trigger.SHELL_CROSSING
        assert trigger_marker_index(nxt, trig) == 0

    def test_divergence_trigger(self):
        nxt = state([-0.5, 0.5], w=[0.0, -2e8], t=0.1)
        (trig,) = scan(nxt)
        assert trig is Trigger.DIVERGENCE_THRESHOLD
        assert trigger_marker_index(nxt, trig) == 1

    def test_density_trigger(self):
        nxt = state([-0.5, 0.5], rho=[2e12, 0.5], t=0.1)
        (trig,) = scan(nxt)
        assert trig is Trigger.DENSITY_THRESHOLD
        assert trigger_marker_index(nxt, trig) == 0

    def test_priority_order(self):
        # all three conditions hold: crossing comes first
        nxt = state([-0.5, -0.5 + 1e-14], w=[-2e8, 0.0], rho=[2e12, 0.5], t=0.1)
        assert scan(nxt) == [Trigger.SHELL_CROSSING, Trigger.DIVERGENCE_THRESHOLD,
                             Trigger.DENSITY_THRESHOLD]

    @pytest.mark.parametrize("name", ["uniform_collapse_1d", "uniform_ball_n3"])
    def test_each_accepted_row_is_judged_once(self, monkeypatch, name):
        """The run calls scan_step once per accepted step, on the step's new
        row, up to the first that holds a trigger; no row before it holds
        one, so the row before a step needs no second judgement."""
        steps, scans, bracketed = [], [], []
        step, scan_step, bracket = (_integrate.DormandPrince.step, detector.scan_step,
                                    detector.bracket_event)

        def stepped(self):
            step(self)
            steps.append(self.t)

        def scanned(row, settings):
            scans.append((row.time, scan_step(row, settings)))
            return scans[-1][1]

        def bracketed_event(*args):
            bracketed.append(len(steps))
            return bracket(*args)

        monkeypatch.setattr(_integrate.DormandPrince, "step", stepped)
        monkeypatch.setattr(detector, "scan_step", scanned)
        monkeypatch.setattr(detector, "bracket_event", bracketed_event)
        traj = simulate(load_scenario(SCENARIOS / f"{name}.yaml"))
        assert traj.event is not None
        (accepted,) = bracketed  # the run's accepted steps, before the bracket's
        assert [time for time, _ in scans] == steps[:accepted]
        assert all(held == [] for _, held in scans[:-1])
        assert scans[-1][1]
        assert traj.times[1:accepted].tolist() == steps[:accepted - 1]

    def test_radial_origin_gap_counts(self):
        k = 2

        def shell(r0):
            return FieldState(time=0.0, positions=np.array([r0, 0.5]),
                              velocities=np.zeros(k), densities=np.full(k, 0.5),
                              eig_radial=np.zeros(k), eig_tangential=np.zeros(k),
                              masses=np.full(k, 0.5), dimension=3)

        assert scan(shell(0.2)) == []
        assert scan(shell(1e-14)) == [Trigger.SHELL_CROSSING]


def test_trigger_table_matches_the_row():
    # trigger_rows holds each marker's gap (the tests' reference, +inf for
    # the slab's last marker), rho and |div u|; each trigger's column is the
    # extreme of its row, found at the event's marker, and its threshold a
    # setting
    shell = FieldState(time=0.0, positions=np.array([0.2, 0.5, 0.6]),
                       velocities=np.zeros(3), densities=np.array([0.5, 2.0, 1.0]),
                       eig_radial=np.array([0.1, -3.0, 0.2]),
                       eig_tangential=np.array([0.0, 0.4, -0.1]),
                       masses=np.full(3, 1.0 / 3), dimension=3)
    slab = state([-0.5, 0.1, 0.5], w=[0.3, -4.0, 1.0], rho=[0.5, 0.7, 3.0])
    for st, pad in ((slab, [np.inf]), (shell, [])):
        rows = trigger_rows(np.empty((3, 3)), st.dimension)(st.positions, st.densities,
                                                            st.div_u())
        gaps = np.concatenate((neighbour_gaps(st.positions, st.dimension), pad))
        assert rows.tobytes() == np.array([gaps, st.densities, abs(st.div_u())]).tobytes()
        row = step_row(st)
        for trigger, rule in TRIGGERS.items():
            values = rows[rule.row]
            extreme = values.min() if rule.below else values.max()
            assert getattr(row, rule.column) == extreme
            assert values[trigger_marker_index(st, trigger)] == extreme
            assert hasattr(SETTINGS, rule.threshold)
    assert list(TRIGGERS) == list(Trigger)


def shipped_collapse(**settings):
    """uniform_collapse_1d with the given settings replaced."""
    sc = load_scenario(SCENARIOS / "uniform_collapse_1d.yaml")
    return replace(sc, settings=replace(sc.settings, **settings))


def dense_collapse():
    """uniform_collapse_1d at density 1e145 (rho_blowup_threshold 1e305):
    |div u| ~ rho t passes 1e8 at t ~ 1e-137."""
    return replace(shipped_collapse(rho_blowup_threshold=1e305),
                   density=UniformDensity(1e145, -1.0, 1.0))


class TestBracketing:
    @pytest.mark.parametrize("sc", [
        make_slab(rho0=0.5, v_sup=2.0, t_end=5.0, settings=FAST),
        # the density trigger fires inside a step of full length, so the
        # bracket's trials re-integrate with the run's stepper
        shipped_collapse(rho_blowup_threshold=1.0),
    ], ids=["slab", "bisected"])
    def test_collapse_bracket_width_and_consistency(self, sc):
        traj = simulate(sc)
        ev = traj.event
        assert ev is not None
        assert ev.t_hi - ev.t_lo <= BRACKET_REL_WIDTH * ev.t_hi
        assert ev.t_lo < ev.t_hi
        # the run's last row and state sit at the bracket's lower edge
        edge = traj.states[-1]
        assert edge.time == traj.times[-1] == ev.t_lo
        # trigger not yet holding at the edge state
        rule = TRIGGERS[ev.trigger]
        value = getattr(step_row(edge), rule.column)
        assert not rule.holds(value, getattr(sc.settings, rule.threshold))

    def test_bracket_is_relative_far_below_one(self):
        # a goal of 1e-8 absolute would leave the bracket ten times as wide as
        # its lower edge
        ev = simulate(dense_collapse()).event
        assert ev.trigger is Trigger.DIVERGENCE_THRESHOLD
        assert 0.0 < ev.t_hi - ev.t_lo <= BRACKET_REL_WIDTH * ev.t_hi

    def test_trigger_holding_at_the_lower_edge_is_refused(self):
        # the precondition is checked on the given row, before any
        # re-integration or reduction
        vs = validate_scenario(make_slab(rho0=0.5, t_end=1.0))
        y0, _, unpack, _ = _integrate.layout(vs)
        settings = replace(vs.scenario.settings, rho_blowup_threshold=0.1)

        def refused(*args):
            pytest.fail("the bracket re-integrated or reduced past a failed precondition")

        row = step_row(vs.initial)
        with pytest.raises(DustLabError, match="precondition: trigger already holds"):
            bracket_event(refused, refused, unpack, row, y0, row._replace(time=1.0), y0,
                          settings)

    def test_a_step_within_the_goal_re_integrates_nothing(self):
        # one trigger holds at the end of a step already within the goal
        # width: the marker is read from the judged state handed in, y_next
        t_next = 1.0 + 0.5 * BRACKET_REL_WIDTH
        y_prev, y_next, calls, unpacked = object(), object(), [], []

        def reintegrate(t0, y0, t1):
            calls.append((t0, t1))
            return y0

        def unpack(t, y):
            unpacked.append(y)
            return state([-0.5, 0.5], w=[0.0, -2e8], t=t)

        row = step_row(state([-0.5, 0.5]))
        row_prev, row_next = row._replace(time=1.0), row._replace(time=t_next, max_abs_div=2e8)
        event, row_lo, y_lo = bracket_event(reintegrate, None, unpack, row_prev, y_prev,
                                            row_next, y_next, SETTINGS)
        assert calls == []
        assert len(unpacked) == 1 and unpacked[0] is y_next
        assert event == BlowupEvent(t_lo=1.0, t_hi=t_next,
                                    trigger=Trigger.DIVERGENCE_THRESHOLD, marker_index=1)
        assert row_lo is row_prev and y_lo is y_prev

    @pytest.mark.parametrize("gap_time, trigger", [
        (0.62, Trigger.DIVERGENCE_THRESHOLD),  # the earliest, 2e-9 before the gap
        (0.62 - 2e-9, Trigger.SHELL_CROSSING),  # tied: priority decides
    ], ids=["earliest", "tie"])
    def test_every_trigger_at_the_step_end_brackets_the_earliest(self, gap_time, trigger):
        """A step that ends past a slab's collapse holds all three triggers;
        the bisection goes on past the width goal until one alone holds at
        t_hi, or until the midpoint no longer splits the bracket."""
        first = {"min_gap": gap_time, "max_abs_div": 0.62 - 2e-9, "max_density": 0.625}
        values = {"min_gap": (1.0, 0.0), "max_abs_div": (0.0, np.inf),
                  "max_density": (0.5, np.inf)}

        def reduce(t, y):
            row = step_row(state([-0.5, 0.5]))._replace(time=t)
            return row._replace(**{column: values[column][t >= first[column]]
                                   for column in first})

        def unpack(t, y):
            return state([-0.5, 0.5], w=[0.0, -2e8], rho=[0.5, 2e12], t=t)

        event, row_lo, _ = bracket_event(lambda t0, y0, t1: t1, reduce, unpack,
                                         reduce(0.0, None), 0.0, reduce(0.7, None), 0.7,
                                         SETTINGS)
        assert event.trigger is trigger
        assert event.t_lo < 0.62 - 2e-9 <= event.t_hi
        assert event.t_hi - event.t_lo <= BRACKET_REL_WIDTH * event.t_hi
        assert row_lo.time == event.t_lo

    # the fake step of 0 to 0.7 below: each trigger first holds at its time
    COLUMNS = {Trigger.SHELL_CROSSING: "min_gap", Trigger.DIVERGENCE_THRESHOLD: "max_abs_div",
               Trigger.DENSITY_THRESHOLD: "max_density"}
    VALUES = {"min_gap": (1.0, 0.0), "max_abs_div": (0.0, np.inf), "max_density": (0.5, np.inf)}

    def fake_bracket(self, first, roots):
        """bracket_event on a fake step from 0 to 0.7 on which trigger k
        first holds at first[k], with the proposal roots(trial times so
        far); returns the event, the triggers held at its t_hi and the
        trial times, one re-integration each."""
        trials = []

        def reduce(t, y):
            row = step_row(state([-0.5, 0.5]))._replace(time=t)
            return row._replace(**{self.COLUMNS[k]: self.VALUES[self.COLUMNS[k]][t >= time]
                                   for k, time in first.items()})

        def reintegrate(t0, y0, t1):
            trials.append(t1)
            return t1

        def unpack(t, y):
            return state([-0.5, 0.5], w=[0.0, -2e8], rho=[0.5, 2e12], t=t)

        event, _, _ = bracket_event(reintegrate, reduce, unpack, reduce(0.0, None), 0.0,
                                    reduce(0.7, None), 0.7, SETTINGS,
                                    roots and (lambda: roots(trials)))
        return event, _held(reduce(event.t_hi, None), SETTINGS), trials

    def assert_valid(self, event, held, root):
        assert event.t_lo < root <= event.t_hi
        assert event.t_hi - event.t_lo <= BRACKET_REL_WIDTH * event.t_hi
        assert held == [event.trigger]

    def test_newton_trials_close_a_tangent_root_in_two(self):
        # an exact proposal: one trial below the root, one above, and the
        # state at t_hi is the last trial's, not re-integrated
        first = {Trigger.SHELL_CROSSING: 0.63, Trigger.DIVERGENCE_THRESHOLD: 0.62,
                 Trigger.DENSITY_THRESHOLD: 0.625}
        event, held, trials = self.fake_bracket(first, lambda trials: first.values())
        self.assert_valid(event, held, 0.62)
        assert event.trigger is Trigger.DIVERGENCE_THRESHOLD
        assert trials == [event.t_lo, event.t_hi]

    def test_upper_trial_stops_short_of_the_next_trigger(self):
        # the gap holds 2e-9 after |div u|, under half the goal width: t_hi
        # is placed halfway between the two estimates, where one holds alone
        first = {Trigger.SHELL_CROSSING: 0.62 + 2e-9, Trigger.DIVERGENCE_THRESHOLD: 0.62}
        event, held, trials = self.fake_bracket(first, lambda trials: (*first.values(), 0.7))
        self.assert_valid(event, held, 0.62)
        assert event.t_hi == 0.62 + 1e-9 and len(trials) == 2

    @pytest.mark.parametrize("proposal, bisects", [
        (lambda trials: (math.nan, math.nan, math.nan), True),  # not finite
        (lambda trials: (-1.0, 5.0, math.inf), True),  # outside the step
        (lambda trials: (0.3, math.inf, math.inf), False),  # too early: every trial falls short
        (lambda trials: (0.65, math.inf, math.inf), False),  # too late: every trial holds
        (lambda trials: (0.61 + 0.01 * len(trials), math.inf, math.inf), False),  # either side
        (lambda trials: (0.62, 0.62 + 9e-9, 0.7), False),  # the gap estimated 9e-9 late
    ], ids=["nan", "outside", "early", "late", "drifting", "late-gap"])
    def test_a_wrong_proposal_still_closes_the_bracket(self, proposal, bisects):
        """Whatever roots() proposes, the midpoint takes over where a trial
        falls outside the bracket or the trials run out, and the bracket
        holds the earliest trigger alone at t_hi within the goal width; a
        proposal never inside it leaves bisection's bracket."""
        first = {Trigger.SHELL_CROSSING: 0.62 + 2e-9, Trigger.DIVERGENCE_THRESHOLD: 0.62,
                 Trigger.DENSITY_THRESHOLD: 0.625}
        bisected = self.fake_bracket(first, None)
        event, held, trials = self.fake_bracket(first, proposal)
        self.assert_valid(event, held, 0.62)
        assert len(trials) <= NEWTON_TRIALS + len(bisected[2])
        assert ((event, held, trials) == bisected) is bisects

    def test_threshold_robustness(self):
        # raising the divergence threshold 1e6 -> 1e8 moves the bracket by
        # less than 1e-4: the detected time is insensitive to the cutoff
        import dataclasses
        t_his = []
        for thr in (1e6, 1e8):
            settings = dataclasses.replace(FAST, div_blowup_threshold=thr)
            sc = make_slab(rho0=0.5, v_sup=2.0, t_end=5.0, settings=settings)
            t_his.append(simulate(sc).event.t_hi)
        assert abs(t_his[1] - t_his[0]) < 1e-4
        assert t_his[0] <= t_his[1]  # lower threshold fires no later


class TestSlabRoots:
    def test_tangent_roots_of_the_uniform_collapse(self):
        # at lambda = 0, v = 2 - t^2/2 and q = -t, and every marker moves as
        # x0 v/2: each margin's tangent root from t = 1.9 is the closed
        # form's, and lies after the trigger's exact time (the margins are
        # concave), |div u|'s within (t - t*)^2
        vs = validate_scenario(make_slab(rho0=0.5, t_end=5.0))
        s = vs.scenario.settings
        t = 1.9
        v, q = uniform_slab_chart(0.5, 0.0, 0.0, t)
        x0 = vs.initial.positions
        split = _integrate.layout(vs)[1]
        yv = split(np.concatenate((x0 * v / 2, x0 * q / 2, np.full(x0.size, v),
                                   np.full(x0.size, q))))
        fv = split(np.empty(4 * x0.size))
        _model_rhs(vs)(t, yv, fv)
        gap, div, density = slab_roots(s)(t, yv, fv)
        gap0, d = x0[1] - x0[0], s.div_blowup_threshold
        assert gap == pytest.approx(t - (gap0 * v / 2 - s.crossing_gap_threshold)
                                    / (gap0 * q / 2), rel=1e-12)
        assert div == pytest.approx(t - (v - abs(q) / d) / (q - 1 / d), rel=1e-12)
        assert density == pytest.approx(t - (v - 1 / s.rho_blowup_threshold) / q, rel=1e-12)
        exact = uniform_slab_div_crossing(0.5, 0.0, 0.0, d, 5.0)
        assert exact <= div <= exact + (t - exact) ** 2

    def test_earliest_root_over_the_markers(self):
        # a collapsing Gaussian slab, whose markers' roots all differ,
        # against a loop over the markers: min(t - m/m') over m' < 0
        sc = make_slab(density=GaussianDensity(1.0, 0.2, 0.4, -1.0, 1.0),
                       velocity=HubbleVelocity(-0.5), markers=16)
        vs = validate_scenario(sc)
        s = vs.scenario.settings
        y0, split, _, _ = _integrate.layout(vs)
        fv = split(np.empty(y0[0].size))
        _model_rhs(vs)(0.0, y0, fv)
        (_, x, _, v, q, _, _, _), (_, dx, _, dv, dq, _, _, _) = y0, fv
        d = s.div_blowup_threshold
        margins = (
            [(x[k + 1] - x[k] - s.crossing_gap_threshold, dx[k + 1] - dx[k])
             for k in range(x.size - 1)],
            [(v[k] - abs(q[k]) / d, dv[k] - np.sign(q[k]) * dq[k] / d) for k in range(x.size)],
            [(v[k] - 1.0 / s.rho_blowup_threshold, dv[k]) for k in range(x.size)])
        expected = tuple(min(0.0 - m / slope for m, slope in rows if slope < 0.0)
                         for rows in margins)
        assert slab_roots(s)(0.0, y0, fv) == expected
        assert len({0.0 - m / slope for m, slope in margins[2]}) == x.size

    def test_no_falling_margin_has_no_root(self):
        # an expanding slab: every margin rises, so no trigger has a root
        vs = validate_scenario(make_slab(rho0=0.5, velocity=HubbleVelocity(1.0)))
        y0, split, _, _ = _integrate.layout(vs)
        fv = split(np.empty(y0[0].size))
        _model_rhs(vs)(0.0, y0, fv)
        assert slab_roots(vs.scenario.settings)(0.0, y0, fv) == (math.inf,) * 3


class TestEscapeReport:
    def certificate_for(self, traj):
        vs = traj.validated
        return check_blowup_conditions(vs.total_mass, vs.v_sup, vs.lam,
                                       vs.dimension, vs.h0)

    def test_certificate_honored_on_collapse(self, uniform_collapse_traj):
        traj = uniform_collapse_traj
        rep = escape_report(traj, traj.validated.v_sup, self.certificate_for(traj))
        assert rep.status is EscapeStatus.CERTIFICATE_HONORED

    def test_certificate_honored_on_ball(self, ball_collapse_traj):
        traj = ball_collapse_traj
        rep = escape_report(traj, traj.validated.v_sup, self.certificate_for(traj))
        assert rep.status is EscapeStatus.CERTIFICATE_HONORED

    def test_escape_run_flags_hypothesis_violation(self):
        # strong expansion: certified (lambda=0 is CaseOne) but the support
        # escapes v_sup long before the bound -- the allowed alternative
        sc = make_slab(rho0=0.5, v_sup=2.0, velocity=HubbleVelocity(2.0),
                       t_end=3.0)
        traj = simulate(sc)
        rep = escape_report(traj, 2.0, self.certificate_for(traj))
        assert rep.status is EscapeStatus.HYPOTHESIS_VIOLATED
        # the escape lies in the first step the proof chain leaves unasserted,
        # between the row before it, still inside, and its own
        t_out = next(s.time for s in proof_chain_report(traj).steps if not s.hypothesis_ok)
        times = traj.times.tolist()
        bracket = f"[{times[times.index(t_out) - 1]:.6g}, {t_out:.6g}]"
        assert rep.message.startswith(f"at t in {bracket} before the bound")

    def test_no_prediction_without_certificate(self):
        sc = make_ball(n=3, rho0=0.5, lam=2.0, t_end=0.5)
        traj = simulate(sc)
        cert = self.certificate_for(traj)
        assert cert.t_bound is None
        rep = escape_report(traj, traj.validated.v_sup, cert)
        assert rep.status is EscapeStatus.NO_PREDICTION

    def test_no_prediction_with_an_event(self, uniform_collapse_traj):
        traj = uniform_collapse_traj
        rep = escape_report(traj, traj.validated.v_sup, None)
        message = f"event observed at t={traj.event.t_hi:.6g}"
        assert (rep.status, rep.message) == (EscapeStatus.NO_PREDICTION, message)

    def test_inconclusive_when_horizon_short(self):
        sc = make_slab(rho0=0.5, v_sup=2.0, t_end=1.0)
        traj = simulate(sc)
        assert traj.event is None
        rep = escape_report(traj, 2.0, self.certificate_for(traj))
        assert rep.status is EscapeStatus.INCONCLUSIVE

    # a certificate whose bound falls halfway to the collapse's event
    def early_bound(self, traj):
        return BlowupCertificate(Case.CASE_ONE, 0.5 * traj.event.t_hi, {}, None)

    def test_contradiction_on_a_late_event(self, uniform_collapse_traj):
        traj = uniform_collapse_traj
        rep = escape_report(traj, traj.validated.v_sup, self.early_bound(traj))
        assert rep.status is EscapeStatus.CONTRADICTION
        assert rep.message.startswith(f"event at t={traj.event.t_hi:.6g} after bound")

    def test_contradiction_on_a_late_event_far_below_one(self):
        # the event is at t ~ 1e-137: a tolerance of 1e-6 absolute on the
        # bound would honour any bound there
        traj = simulate(dense_collapse())
        rep = escape_report(traj, traj.validated.v_sup, self.early_bound(traj))
        assert rep.status is EscapeStatus.CONTRADICTION
        assert rep.message.startswith(f"event at t={traj.event.t_hi:.6g} after bound")

    def test_late_event_after_an_escape(self, uniform_collapse_traj):
        # v_sup below the initial support: the support has escaped at t = 0
        traj = uniform_collapse_traj
        rep = escape_report(traj, 1.0, self.early_bound(traj))
        assert rep.status is EscapeStatus.HYPOTHESIS_VIOLATED
        assert rep.message.startswith("at t in [0, 0] before the bound")
        assert "late event" in rep.message

    def test_contradiction_without_an_event(self, uniform_collapse_traj):
        # the same columns with no event: bounded support past the bound
        traj = uniform_collapse_traj
        cert = self.early_bound(traj)
        rep = escape_report(replace(traj, event=None), traj.validated.v_sup, cert)
        assert rep.status is EscapeStatus.CONTRADICTION
        assert rep.message.startswith(f"no event by t={traj.times[-1]:.6g} >= bound")

    def test_no_prediction_and_no_event(self, uniform_collapse_traj):
        traj = replace(uniform_collapse_traj, event=None)
        rep = escape_report(traj, traj.validated.v_sup, None)
        assert (rep.status, rep.message) == (EscapeStatus.NO_PREDICTION, "no event")

import pathlib
from dataclasses import replace

import numpy as np
import pytest

from dustlab import simulate
from dustlab.core import (TRIGGERS, FieldState, HubbleVelocity, NumericalSettings,
                          UniformDensity, load_scenario)
from dustlab.detector import (BRACKET_REL_WIDTH, EscapeStatus, Trigger, escape_report,
                              scan_step, trigger_marker_index)
from dustlab.functional import proof_chain_report
from dustlab.riccati import BlowupCertificate, Case, check_blowup_conditions

from conftest import FAST, make_ball, make_slab, step_row

SETTINGS = NumericalSettings()


def state(x, w=None, rho=None, t=0.0):
    x = np.asarray(x, dtype=float)
    k = x.size
    return FieldState(time=t, positions=x,
                      velocities=np.zeros(k),
                      densities=np.full(k, 0.5) if rho is None else np.asarray(rho, float),
                      eig_radial=np.zeros(k) if w is None else np.asarray(w, float),
                      masses=np.full(k, 1.0 / k))


def scan(prev, nxt):
    """scan_step on the per-step rows of two states."""
    return scan_step(step_row(prev), step_row(nxt), SETTINGS)


class TestScanStep:
    def test_quiescent_step_no_trigger(self):
        assert scan(state([-0.5, 0.5]), state([-0.4, 0.4], t=0.1)) is None

    def test_crossing_trigger_and_index(self):
        nxt = state([-0.5, -0.5 + 1e-14, 0.5], t=0.1)
        trig = scan(state([-0.5, 0.0, 0.5]), nxt)
        assert trig is Trigger.SHELL_CROSSING
        assert trigger_marker_index(nxt, trig) == 0

    def test_divergence_trigger(self):
        nxt = state([-0.5, 0.5], w=[0.0, -2e8], t=0.1)
        trig = scan(state([-0.5, 0.5]), nxt)
        assert trig is Trigger.DIVERGENCE_THRESHOLD
        assert trigger_marker_index(nxt, trig) == 1

    def test_density_trigger(self):
        nxt = state([-0.5, 0.5], rho=[2e12, 0.5], t=0.1)
        trig = scan(state([-0.5, 0.5]), nxt)
        assert trig is Trigger.DENSITY_THRESHOLD
        assert trigger_marker_index(nxt, trig) == 0

    def test_priority_order(self):
        # all three conditions newly hold: crossing wins
        nxt = state([-0.5, -0.5 + 1e-14], w=[-2e8, 0.0], rho=[2e12, 0.5], t=0.1)
        assert scan(state([-0.5, 0.5]), nxt) is Trigger.SHELL_CROSSING

    def test_already_holding_not_rescanned(self):
        prev = state([-0.5, 0.5], w=[0.0, -2e8])
        nxt = state([-0.5, 0.5], w=[0.0, -3e8], t=0.1)
        assert scan(prev, nxt) is None

    def test_radial_origin_gap_counts(self):
        k = 2

        def shell(r0):
            return FieldState(time=0.0, positions=np.array([r0, 0.5]),
                              velocities=np.zeros(k), densities=np.full(k, 0.5),
                              eig_radial=np.zeros(k), eig_tangential=np.zeros(k),
                              masses=np.full(k, 0.5), dimension=3)

        assert scan(shell(0.2), shell(1e-14)) is Trigger.SHELL_CROSSING


def test_trigger_table_matches_the_row():
    # each trigger's column is the extreme of its per-marker quantity, and
    # its threshold a setting
    shell = FieldState(time=0.0, positions=np.array([0.2, 0.5, 0.6]),
                       velocities=np.zeros(3), densities=np.array([0.5, 2.0, 1.0]),
                       eig_radial=np.array([0.1, -3.0, 0.2]),
                       eig_tangential=np.array([0.0, 0.4, -0.1]),
                       masses=np.full(3, 1.0 / 3), dimension=3)
    slab = state([-0.5, 0.1, 0.5], w=[0.3, -4.0, 1.0], rho=[0.5, 0.7, 3.0])
    for st in (slab, shell):
        row = step_row(st)
        for trigger, rule in TRIGGERS.items():
            values = rule.quantity(st.positions, st.div_u(), st.densities, st.dimension)
            extreme = values.min() if rule.below else values.max()
            assert getattr(row, rule.column) == extreme
            assert values[trigger_marker_index(st, trigger)] == extreme
            assert hasattr(SETTINGS, rule.threshold)
    assert list(TRIGGERS) == list(Trigger)


def shipped_collapse(**settings):
    """uniform_collapse_1d with the given settings replaced."""
    sc = load_scenario(pathlib.Path(__file__).parents[1] / "scenarios"
                       / "uniform_collapse_1d.yaml")
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
        # bracket bisects, re-integrating with the run's stepper
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
        # the escape is the first step the proof chain leaves unasserted
        t_out = next(s.time for s in proof_chain_report(traj).steps if not s.hypothesis_ok)
        assert f"escaped V_sup at t={t_out:.6g} " in rep.message

    def test_no_prediction_without_certificate(self):
        sc = make_ball(n=3, rho0=0.5, lam=2.0, t_end=0.5)
        traj = simulate(sc)
        cert = self.certificate_for(traj)
        assert cert.t_bound is None
        rep = escape_report(traj, traj.validated.v_sup, cert)
        assert rep.status is EscapeStatus.NO_PREDICTION

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
        assert rep.message.startswith("support escaped V_sup at t=0 before the bound")
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
        assert (rep.status, rep.message) == (EscapeStatus.NO_PREDICTION,
                                             "no prediction, no event")

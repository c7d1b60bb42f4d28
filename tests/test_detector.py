import math
import pathlib
from dataclasses import replace

import numpy as np
import pytest
import yaml

from click.testing import CliRunner

from dustlab import _integrate, _model_rhs, detector, geometry1d, simulate
from dustlab.cli import main
from dustlab.core import (TRIGGERS, FieldState, HubbleVelocity, NumericalSettings,
                          UniformDensity, load_scenario, scenario_from_dict, trigger_rows,
                          validate_scenario)
from dustlab.detector import (BRACKET_REL_WIDTH, BlowupEvent, EscapeStatus, Trigger,
                              bracket_event, escape_report, first_zeros, scan_step,
                              slab_event, earliest_roots, trigger_marker_index)
from dustlab.errors import ClosedFormMismatch, DustLabError
from dustlab.functional import proof_chain_report
from dustlab.riccati import BlowupCertificate, Case, check_blowup_conditions

from conftest import (FAST, GAUSSIAN_TABLE_SLAB, dormand_prince, flat, make_ball, make_slab,
                      neighbour_gaps, slab_16k, step_row, uniform_slab_div_crossing)

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
        one, so the row before a step needs no second judgement. A slab's
        event is in closed form: it brackets nothing, and no row holds."""
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
        if name == "uniform_collapse_1d":
            assert bracketed == [] and [time for time, _ in scans] == steps
            assert all(held == [] for _, held in scans)
            assert traj.times[1:].tolist() == steps and steps[-1] == traj.event.t_lo
            return
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
        # the density trigger, long before the collapse
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


def gaussian_slab(lam, **tolerances):
    """GAUSSIAN_TABLE_SLAB at lambda lam and the given tolerances, validated."""
    return validate_scenario(scenario_from_dict(dict(GAUSSIAN_TABLE_SLAB, **{"lambda": lam},
                                                     tolerances=tolerances)))


def zero_times(margin, lam):
    """The time of every marker's first zero of one trigger's margins
    (first_zeros', mapped back from sigma by numpy)."""
    sigma = first_zeros(*margin, lam)
    sigma = sigma.min(axis=0) if sigma.ndim > 1 else sigma
    r, x = math.sqrt(abs(lam)), 0.5 * math.sqrt(abs(lam)) * sigma
    with np.errstate(invalid="ignore", divide="ignore"):  # x >= 1 or inf: no zero
        if lam > 0:
            return np.where(x < 1.0, 2.0 / r * np.arctanh(x), np.inf)
        return np.where(np.isfinite(x), 2.0 / r * np.arctan(x), np.inf) if lam < 0 else sigma


def bisected_event(vs):
    """The first trigger of a slab by the tests' reference loop alone: it
    steps to t_end at rtol 1e-12 and bisects the first step that ends with
    a trigger held, each trial stepped from the lower edge, down to
    BRACKET_REL_WIDTH and until one trigger alone holds at hi, as
    bracket_event does. Returns lo, hi and {trigger: marker} of the triggers
    held at hi, in priority order."""
    s = vs.scenario.settings
    fun = flat(_model_rhs(vs), _integrate.layout(vs)[1])

    def held(y):
        x, _, v, q = np.split(y, 4)
        live = v > 0.0
        rows = (np.append(np.diff(x), np.inf),
                np.divide(1.0, v, out=np.full(v.shape, np.inf), where=live),
                np.abs(np.divide(q, v, out=np.full(v.shape, np.inf), where=live)))
        found = {}
        for trigger, rule in TRIGGERS.items():
            row = rows[rule.row]
            j = int(np.argmin(row) if rule.below else np.argmax(row))
            if rule.holds(row[j], getattr(s, rule.threshold)):
                found[trigger] = j
        return found

    def solve(t0, y0, t1):
        return dormand_prince(fun, t0, y0, t1, 1e-12, 1e-14)

    lo, y_lo = 0.0, np.array(vs.y0)
    for t, y, _, _ in solve(lo, y_lo, vs.scenario.t_end):
        if found := held(y):
            hi = t
            break
        lo, y_lo = t, y
    while (hi - lo > BRACKET_REL_WIDTH * hi or len(found) > 1) and lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        y = solve(lo, y_lo, mid)[-1][1]
        if now := held(y):
            hi, found = mid, now
        else:
            lo, y_lo = mid, y
    return lo, hi, found


class TestSlabRoots:
    def test_tangent_roots_of_the_uniform_collapse(self):
        # at lambda = 0, v = 2 - t^2/2 and q = -t, and every gap is gap0 v/2:
        # each trigger's root is the closed form's at every marker, and the
        # earliest one's lowest index is reported (every v is the same, the
        # gaps differ in the last bits); the tangent rule: a margin that
        # only touches 0 has no zero, one that falls from 0 has it at 0
        vs = validate_scenario(make_slab(rho0=0.5, t_end=5.0))
        s, gap = vs.scenario.settings, Trigger.SHELL_CROSSING
        gap0, d, rho = 2.0 / 40, s.div_blowup_threshold, s.rho_blowup_threshold
        exact = (2.0 * math.sqrt(1.0 - s.crossing_gap_threshold / gap0),
                 -1.0 / d + math.sqrt(1.0 / d ** 2 + 4.0), math.sqrt(4.0 - 2.0 / rho))
        roots = earliest_roots(geometry1d.trigger_margins(vs), 0.0)
        for (root, trigger, marker), expected, margin in zip(
                roots, exact, geometry1d.trigger_margins(vs)):
            times = zero_times(margin, 0.0)
            assert marker == int(np.argmin(times)) == (marker if trigger is gap else 0)
            assert root == times.min() == pytest.approx(expected, rel=4e-16)
            assert times == pytest.approx(np.full(times.size, expected), rel=1e-14)
        assert [trigger for _, trigger, _ in roots] == list(TRIGGERS)
        # 1 - t + t^2/4 touches 0 at t = 2; -t^2/2 falls from 0, and so does
        # it from 1e-300 below 0, which counts as 0; 1 + t^2 never reaches 0
        zeros = first_zeros(np.array([1.0, 0.0, -1e-300, 1.0]), np.array([-1.0, 0.0, 0.0, 0.0]),
                            np.array([0.5, -1.0, -1.0, 2.0]), 0.0)
        assert zeros.tolist() == [math.inf, 0.0, 0.0, math.inf]

    def test_earliest_root_over_the_markers(self):
        # a Gaussian slab with a velocity table, whose markers' roots all
        # differ, at lambda 0, 0.2 and -0.3, against the smallest root of each
        # marker's own margin found by numpy's polynomial roots in sigma
        for lam in (0.0, 0.2, -0.3):
            self.check_earliest_roots(lam)

    def check_earliest_roots(self, lam):
        margins = geometry1d.trigger_margins(gaussian_slab(lam))
        for (root, trigger, marker), margin in zip(earliest_roots(margins, lam), margins):
            zeros = first_zeros(*margin, lam)
            expected = []
            for c, b, k in zip(*(np.broadcast_to(m, zeros.shape).ravel() for m in margin)):
                quadratic = np.roots([0.5 * k + 0.25 * lam * c, b, c])
                real = [z.real for z in quadratic if abs(z.imag) <= 1e-12 * abs(z) and z.real >= 0]
                expected.append(min(real, default=np.inf))
            np.testing.assert_allclose(zeros.ravel(), expected, rtol=1e-9)
            times = zero_times(margin, lam)
            assert marker == int(np.argmin(times)) and root == pytest.approx(times.min(), rel=1e-15)
            assert len(set(times.tolist())) > 8

    def test_no_falling_margin_has_no_root(self):
        # an expanding slab whose background outweighs its mass (lambda v >
        # 1): every margin rises for ever, so no trigger has a root
        vs = validate_scenario(make_slab(rho0=0.5, lam=1.0, velocity=HubbleVelocity(1.0)))
        roots = earliest_roots(geometry1d.trigger_margins(vs), vs.lam)
        assert [root for root, _, _ in roots] == [math.inf] * 3
        assert slab_event(vs) is None


class TestSlabEvent:
    @pytest.mark.parametrize("threshold", [1e6, 1e8])
    def test_t_hi_within_4_ulp_of_the_crossing(self, threshold):
        sc = make_slab(rho0=0.5, t_end=5.0,
                       settings=replace(NumericalSettings(), div_blowup_threshold=threshold))
        event = simulate(sc).event
        exact = uniform_slab_div_crossing(0.5, 0.0, 0.0, threshold, 5.0)
        assert event.trigger is Trigger.DIVERGENCE_THRESHOLD and event.marker_index == 0
        assert event.t_lo < exact and abs(event.t_hi - exact) <= 4 * math.ulp(exact)

    @pytest.mark.parametrize("vs", [
        gaussian_slab(0.0),
        validate_scenario(make_slab(rho0=0.5, lam=0.37, settings=NumericalSettings())),
        gaussian_slab(0.2),
        gaussian_slab(-0.3),
        # near-tangent: rho starts 1e-6 below its threshold with u_x = 0 and
        # lambda < 0; the margin falls from its peak, just above 0, at t = 0
        validate_scenario(make_slab(rho0=0.5, lam=-0.3, settings=replace(
            NumericalSettings(), rho_blowup_threshold=0.5 * (1 + 1e-6)))),
    ], ids=["gaussian_table", "uniform-lam0.37", "gaussian-lam0.2", "gaussian-lam-0.3",
            "near_tangent-lam-0.3"])
    def test_event_against_a_bisection_run(self, vs):
        """The closed-form event has the trigger a run of the reference loop
        bisects, and its marker or one whose own root lies in that bracket,
        which holds the exact root."""
        event = simulate(vs).event
        lo, hi, held = bisected_event(vs)
        trigger, marker = next(iter(held.items()))
        roots = earliest_roots(geometry1d.trigger_margins(vs), vs.lam)
        root = next(root for root, found, _ in roots if found is trigger)
        assert event.trigger is trigger
        ties = zero_times(geometry1d.trigger_margins(vs)[list(TRIGGERS).index(trigger)], vs.lam)
        assert event.marker_index == marker or ties[event.marker_index] <= hi
        assert lo < root <= hi
        assert event.t_lo < root <= event.t_hi <= root * (1 + BRACKET_REL_WIDTH)

    def test_a_16384_marker_near_tie_keeps_the_divergence_trigger(self):
        """The benchmark's slab: its gap closes 1.8e-9 after |div u| passes
        1e8, inside the bracket width; the earliest root decides, and t_hi
        stays below the gap's root. The bracket, at most 1e-8 t_hi wide,
        holds the crossing t* = -1e-8 + sqrt(1e-16 + 4) of v = 2 - t^2/2 and
        |q/v| = 1e8, bisected independently, and the run's proof chain holds
        (verify exits 0)."""
        vs = validate_scenario(slab_16k())
        (gap, *_), (div, *_), _ = earliest_roots(geometry1d.trigger_margins(vs), 0.0)
        assert 0.0 < gap - div < 0.5 * BRACKET_REL_WIDTH * div
        traj = simulate(vs)
        event = traj.event
        assert (event.trigger, event.marker_index) == (Trigger.DIVERGENCE_THRESHOLD, 0)
        assert event.t_lo < div <= event.t_hi < gap
        exact = uniform_slab_div_crossing(0.5, 0.0, 0.0, 1e8, 2.5)
        assert exact == pytest.approx(-1e-8 + math.sqrt(1e-16 + 4.0), rel=1e-15)
        assert event.t_lo < exact <= event.t_hi
        assert event.t_hi - event.t_lo <= BRACKET_REL_WIDTH * event.t_hi
        assert proof_chain_report(traj).holds

    @staticmethod
    def shifted_roots(monkeypatch, shift):
        """detector.earliest_roots with every root r replaced by shift(r)."""
        roots = detector.earliest_roots

        def shifted(*args):
            return [(shift(root), *rest) for root, *rest in roots(*args)]

        monkeypatch.setattr(detector, "earliest_roots", shifted)

    @pytest.mark.parametrize("shift", [
        lambda r: math.nan,  # no root: the run steps to t_end
        lambda r: 10.0 * r,  # past t_end
        lambda r: 0.9 * r,  # early: the state does not hold by the cap
        lambda r: 1.1 * r,  # late: the run's rows hold before t_lo
    ], ids=["nan", "outside", "early", "late"])
    def test_a_wrong_root_is_refused(self, monkeypatch, shift):
        """A closed-form root that the run's own rows or the closed-form
        state contradict raises ClosedFormMismatch, never a wrong event."""
        self.shifted_roots(monkeypatch, shift)
        with pytest.raises(ClosedFormMismatch):
            simulate(shipped_collapse())

    @pytest.mark.parametrize("drift", [-0.2, 0.2], ids=["early", "late"])
    def test_a_drifting_root_still_brackets_the_crossing(self, monkeypatch, drift):
        """A root off by a fifth of the goal width either way still gives
        the trigger and marker, and a bracket within the goal width that
        holds the exact root: t_lo lies W/2 below the root, and the
        closed-form state decides t_hi."""
        sc = shipped_collapse()
        vs = validate_scenario(sc)
        _, (exact, *_), _ = earliest_roots(geometry1d.trigger_margins(vs), vs.lam)
        self.shifted_roots(monkeypatch, lambda r: r * (1 + drift * BRACKET_REL_WIDTH))
        event = simulate(sc).event
        assert (event.trigger, event.marker_index) == (Trigger.DIVERGENCE_THRESHOLD, 0)
        assert event.t_lo < exact <= event.t_hi
        assert event.t_hi - event.t_lo <= BRACKET_REL_WIDTH * event.t_hi

    def test_an_exact_root_closes_the_bracket_with_no_trial(self, monkeypatch):
        # the closed form places both edges: the stepper re-integrates
        # nothing, and the run's last row is t_lo
        def no_trial(*args):
            raise AssertionError("a slab run re-integrated")

        monkeypatch.setattr(_integrate.DormandPrince, "reintegrate", no_trial)
        traj = simulate(make_slab(rho0=0.5, t_end=5.0, settings=NumericalSettings()))
        exact = uniform_slab_div_crossing(0.5, 0.0, 0.0, SETTINGS.div_blowup_threshold, 5.0)
        event = traj.event
        assert (event.trigger, event.marker_index) == (Trigger.DIVERGENCE_THRESHOLD, 0)
        assert event.t_lo < exact <= event.t_hi and traj.times[-1] == event.t_lo
        assert event.t_hi - event.t_lo <= BRACKET_REL_WIDTH * event.t_hi

    def test_a_late_gap_root_moves_nothing(self, monkeypatch):
        # the 16384-marker near tie's gap root, 9e-9 late: |div u| decides
        # alone, and the event keeps every bit
        sc = make_slab(rho0=0.5, markers=16384, t_end=2.5, settings=NumericalSettings())
        expected = simulate(sc).event
        roots = detector.earliest_roots

        def late_gap(*args):
            found = roots(*args)
            found[0] = (found[0][0] + 9e-9, *found[0][1:])
            return found

        monkeypatch.setattr(detector, "earliest_roots", late_gap)
        assert simulate(sc).event == expected

    def test_the_mismatch_exits_3_with_a_message(self, monkeypatch, tmp_path):
        self.shifted_roots(monkeypatch, lambda r: 1.1 * r)
        result = CliRunner().invoke(main, ["simulate", "--scenario",
                                           str(SCENARIOS / "uniform_collapse_1d.yaml"),
                                           "--out", str(tmp_path)])
        assert result.exit_code == 3 and isinstance(result.exception, SystemExit)
        assert result.output.startswith("numeric failure: ShellCrossing holds on the run's row")

    @pytest.mark.parametrize("vs", [
        gaussian_slab(0.0), gaussian_slab(0.2), gaussian_slab(0.1),
        *(validate_scenario(replace(shipped_collapse(), lam=lam)) for lam in (0.2, -0.3, 0.05)),
    ], ids=["gaussian_table", "gaussian-lam0.2", "gaussian-lam0.1", "uniform-lam0.2",
            "uniform-lam-0.3", "uniform-lam0.05"])
    def test_t_end_at_the_root_keeps_the_event(self, vs):
        """t_end at the earliest root r1 itself: the event is the one a
        longer run finds, its t_hi a few ulp past t_end (the first double at
        which the closed-form state holds the trigger, plus its rounding),
        and its proof chain holds (verify exits 0). The run stops at t_lo,
        short of t_end, where its row would hold the trigger."""
        r1 = min(earliest_roots(geometry1d.trigger_margins(vs), vs.lam))[0]
        traj = simulate(replace(vs.scenario, t_end=r1))
        event = traj.event
        assert event == simulate(vs).event
        assert event.t_lo < r1 < event.t_hi <= r1 + 8 * math.ulp(r1)
        assert traj.times[-1] == event.t_lo and proof_chain_report(traj).holds

    def test_a_marker_past_its_collapse_is_refused(self, tmp_path):
        """At a loose abs_tol the run's row at t_lo reads a marker at v <= 0,
        which the reducer marks as infinite density and |div u|: the run
        raises ClosedFormMismatch there, not a row of negative densities,
        and the CLI exits 3 with the message and no traceback."""
        doc = dict(GAUSSIAN_TABLE_SLAB, **{"lambda": 0.2}, tolerances={"abs_tol": 1.0e-3})
        with pytest.raises(ClosedFormMismatch):
            simulate(scenario_from_dict(doc))
        path = tmp_path / "slab.yaml"
        path.write_text(yaml.safe_dump(doc))
        result = CliRunner().invoke(main, ["simulate", "--scenario", str(path),
                                           "--out", str(tmp_path / "out")])
        assert result.exit_code == 3 and isinstance(result.exception, SystemExit)
        assert result.output.startswith("numeric failure: DivergenceThreshold holds on the "
                                        "run's row at t=1.6942676938619115")
        assert "Traceback" not in result.output


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

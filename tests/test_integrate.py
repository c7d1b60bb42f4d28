"""The one stepper object of ``_integrate``, ``DormandPrince``, against the
reference loop ``conftest.dormand_prince``, compared with ``==``, and the
step limit it owns.

A stepper is built from a run's settings and started by ``start``. Its
``steps()`` must equal the reference loop after every accepted step (time,
state and RHS value), with as many RHS calls, and its ``reintegrate``, which
the event bracket and ``dustlab.sample`` use, must equal the loop's last
state, bit for bit, the loop's first step trying the step size the stepper
last proposed: a last-bit change moves event brackets and marker indices.
``dustlab.sample`` must equal the loop run from each requested time to the
next. The reference is the RK45 method that ``scipy.integrate``'s
``RK45`` and ``solve_ivp`` run, written out; the tests that held the stepper
to those keep their names. The program imports no scipy.
"""

import math
import os
import pathlib
import subprocess
import sys
import textwrap
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from dustlab import _integrate, _model_rhs, detector, sample, simulate
from dustlab.core import (SHELL_MAX_STEP, HubbleVelocity, NumericalSettings, StepRow,
                          Trigger, UniformDensity, load_scenario, scenario_from_dict,
                          validate_scenario)
from dustlab.errors import MaxStepsExceeded, NumericOverflow, StepUnderflow

from conftest import (FAST, GAUSSIAN_TABLE_SLAB, dormand_prince, flat, make_ball, make_slab,
                      slab_16k, solver_state)

ROOT = pathlib.Path(__file__).resolve().parent.parent

CRITERION_4_GRIDS = (np.arange(0.2, 1.0001, 0.05), np.arange(0.2, 1.0001, 0.025))


def model(sc):
    """The validated scenario, its force law on views, the views of its
    initial solver vector and the run's split."""
    vs = validate_scenario(sc)
    y0, split, _, _ = _integrate.layout(vs)
    return vs, _model_rhs(vs), y0, split


def step_cap(settings):
    """The settings' max_step as the reference loop takes it: math.inf for
    None, which is no cap."""
    return math.inf if settings.max_step is None else settings.max_step


def reference(vs, rhs, split, t0, y0, t1, h_abs=None):
    """The state at t1 > t0 of the reference loop from the flat solver vector
    y0 at t0, on rhs made flat, under the scenario's settings, and the step
    size it then proposes; its first step tries h_abs (None: the loop's
    estimate)."""
    s = vs.scenario.settings
    steps = dormand_prince(flat(rhs, split), t0, y0, t1, s.rel_tol, s.abs_tol, step_cap(s),
                           h_abs)
    _, y, _, h = steps[-1]
    return y, h


@pytest.mark.parametrize("sc, times", [
    (make_slab(rho0=0.5, t_end=1.0), CRITERION_4_GRIDS[0]),
    (make_slab(rho0=0.5, t_end=1.0), CRITERION_4_GRIDS[1]),
    (make_ball(n=3, rho0=0.5, velocity=HubbleVelocity(-0.3)), np.linspace(0.0, 1.5, 13)),
    # times closer together than one step of the run
    (make_ball(n=3, rho0=0.5, velocity=HubbleVelocity(-0.3)), np.linspace(0.0, 0.2, 201)),
], ids=["slab-coarse", "slab-fine", "ball", "ball-dense"])
def test_sample_equals_solve_ivp_t_eval(sc, times):
    """The state at each sample time is the reference loop's from the state
    at the time before (the initial state at time 0), its first step trying
    the step size the loop proposed at the end of the interval before (the
    loop's estimate on the first)."""
    vs, rhs, y0, split = model(sc)
    y, h = y0[0], None
    traj = sample(sc, times)
    assert traj.times.tolist() == times.tolist()
    t_prev = 0.0
    for t, state in zip(times.tolist(), traj.states):
        if t > t_prev:
            y, h = reference(vs, rhs, split, t_prev, y, t, h)
        assert solver_state(state)[1][0].tobytes() == y.tobytes()
        t_prev = t


@pytest.mark.parametrize("times", [[0.3, 0.1], [0.1, 0.1], [-0.1, 0.2], []])
def test_sample_rejects_times_out_of_order(times):
    with pytest.raises(ValueError):
        sample(make_slab(rho0=0.5, t_end=1.0), times)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("run", [simulate, lambda sc: sample(sc, [1e-200, 1.0])],
                         ids=["simulate", "sample"])
def test_a_run_past_a_double_raises_numeric_overflow(run):
    # sample once stepped on through infinities and NaNs to a StepUnderflow
    sc = shipped("uniform_collapse_1d", density=UniformDensity(1e300, -1.0, 1.0),
                 settings=NumericalSettings(rho_blowup_threshold=1e306))
    with pytest.raises(NumericOverflow):
        run(sc)


def test_a_sample_past_a_slab_collapse_raises_numeric_overflow():
    # the slab's chart steps on through v = 0 at t = 2, where rho = 1/v is
    # +inf; sample scans no triggers, so it refuses the state
    with pytest.raises(NumericOverflow, match="infinite density at t=3"):
        sample(make_slab(rho0=0.5, t_end=5.0), [1.0, 3.0])


# a slab at lambda != 0 and a contracting ball, stepped to t = 1.5
SLAB_AND_BALL = pytest.mark.parametrize("sc", [
    make_slab(rho0=0.5, lam=0.2, velocity=HubbleVelocity(-0.4), t_end=1.5),
    make_ball(n=3, rho0=0.8, velocity=HubbleVelocity(-0.5), t_end=1.5),
], ids=["slab", "ball"])


@SLAB_AND_BALL
def test_reintegration_equals_solve_ivp(sc):
    """Each re-integration of one stepper equals the reference loop whose
    first step tries the step size the loop proposed at the end of the
    re-integration before (the loop's estimate on the first), and ends
    proposing the same step size."""
    vs, rhs, y0, split = model(sc)
    stepper = _integrate.DormandPrince(rhs, split, y0[0].size, vs.scenario.settings)
    rng = np.random.default_rng(20261018)
    h = None
    for _ in range(10):
        t0 = float(rng.uniform(0.0, 1.0))
        t1 = t0 + float(10.0 ** rng.uniform(-9.0, -1.0))
        y, _ = reference(vs, rhs, split, 0.0, y0[0], t0)
        got = stepper.reintegrate(t0, split(y), t1)
        expected, h = reference(vs, rhs, split, t0, y, t1, h)
        assert got[0].tobytes() == expected.tobytes()
        assert stepper.h_abs == h


@SLAB_AND_BALL
def test_reintegrate_over_an_empty_interval(sc):
    """reintegrate(t, y, t) returns the views y themselves and takes no step:
    its one RHS call leaves fv as the RHS at y, as sample needs for a row at
    its start time. Checked on a new stepper and on one that has stepped."""
    vs, rhs, y0, split = model(sc)
    counted, calls = counting(rhs)
    stepper = _integrate.DormandPrince(counted, split, y0[0].size, vs.scenario.settings)
    y = y0
    for t_prev, t in ((0.0, 0.0), (0.0, 0.5)):
        y = stepper.reintegrate(t_prev, y, t)
        calls[0] = 0
        assert stepper.reintegrate(t, y, t) is y
        assert (stepper.t, calls[0]) == (t, 1)
        assert stepper.fv[0].tobytes() == flat(rhs, split)(t, y[0]).tobytes()


@SLAB_AND_BALL
def test_sample_at_time_zero_equals_the_first_row(sc):
    """Every column of a sample's row at time 0, the rate column m_div_rate
    included, equals simulate's first row."""
    got, expected = sample(sc, [0.0, 0.5]).columns, simulate(sc).columns
    for name, column, first in zip(StepRow._fields, got, expected):
        assert column[0] == first[0], name


class TestStepLimit:
    @staticmethod
    def limited(max_steps):
        # capped, as an uncapped slab reaches t_end in a few steps
        return make_slab(rho0=0.5, t_end=1.0,
                         settings=NumericalSettings(max_steps=max_steps, max_step=SHELL_MAX_STEP))

    def test_simulate_raises(self):
        with pytest.raises(MaxStepsExceeded, match="exceeded 5 accepted steps"):
            simulate(self.limited(5))

    def test_sample_raises(self):
        with pytest.raises(MaxStepsExceeded, match="exceeded 5 accepted steps"):
            sample(self.limited(5), [0.5, 1.0])

    def test_limit_counts_accepted_steps(self):
        # a run that needs exactly max_steps steps finishes
        steps = len(simulate(self.limited(500))) - 1
        assert len(simulate(self.limited(steps))) == steps + 1
        with pytest.raises(MaxStepsExceeded):
            simulate(self.limited(steps - 1))


class TestStepCap:
    """validate_scenario sets the step cap the settings leave open: none
    (None) for a slab, SHELL_MAX_STEP for shells; a cap the settings give
    holds for both."""

    def test_shipped_slab_is_not_capped(self):
        vs = validate_scenario(shipped("uniform_collapse_1d"))
        assert vs.scenario.settings.max_step is None
        traj = simulate(vs)
        assert traj.event is not None and len(traj) <= 10

    def test_revalidated_at_a_longer_horizon_stays_uncapped(self):
        """A validated slab re-validated at a longer t_end, as sweep
        re-validates its base scenario, runs the rows of the file loaded
        with that t_end: its old horizon is no step cap."""
        short = validate_scenario(shipped("uniform_collapse_1d", t_end=0.1))
        vs = validate_scenario(replace(short.scenario, t_end=5.0))
        assert vs.scenario.settings.max_step is None
        got, expected = simulate(vs), simulate(shipped("uniform_collapse_1d", t_end=5.0))
        assert np.array(got.columns).tobytes() == np.array(expected.columns).tobytes()
        assert got.event == expected.event

    def test_explicit_cap_holds_for_a_slab(self):
        sc = shipped("uniform_collapse_1d")
        vs = validate_scenario(replace(sc, settings=replace(sc.settings, max_step=0.01)))
        assert vs.scenario.settings.max_step == 0.01
        steps = np.diff(simulate(vs).times)
        assert steps.max() <= 0.01 * (1 + 1e-12)
        assert steps.size > 190

    def test_shipped_ball_keeps_the_shell_cap(self):
        vs = validate_scenario(shipped("uniform_ball_n3"))
        assert vs.scenario.settings.max_step == SHELL_MAX_STEP == 4e-3
        assert len(simulate(vs)) == 1333


# the settings as validation leaves them for shells, capped at SHELL_MAX_STEP
RESOLVED = NumericalSettings(max_step=SHELL_MAX_STEP)


def one_field(y):
    """The split of a system whose solver vector is one field."""
    return (y,)


def negative(t, yv, fv):
    """y' = -y on one_field's views."""
    return np.negative(yv[0], out=fv[0])


def counting(rhs):
    """rhs and a one-element list that counts its calls, whatever their form:
    views for the stepper, which writes stage derivatives into its stage
    block, flat vectors for the reference loop."""
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return rhs(*args)
    return counted, calls


def accepted(stepper):
    """Time, state and RHS value of a stepper's last accepted step."""
    return float(stepper.t), stepper.y.tobytes(), stepper.f.tobytes()


def loop_steps(fun, *args):
    """accepted()'s tuple after every step of the reference loop
    dormand_prince(fun, *args)."""
    return [(t, y.tobytes(), f.tobytes()) for t, y, f, _ in dormand_prince(fun, *args)]


def assert_matches_rk45(sc, t_bound):
    """Asserts bit-equal steps of the stepper and the reference loop, and
    equal RHS call counts; returns the number of accepted steps and of RHS
    calls."""
    vs, rhs, y0, split = model(sc)
    s = vs.scenario.settings
    ref_rhs, ref_calls = counting(flat(rhs, split))
    own_rhs, own_calls = counting(rhs)
    expected = loop_steps(ref_rhs, 0.0, y0[0], t_bound, s.rel_tol, s.abs_tol, step_cap(s))
    stepper = _integrate.DormandPrince(own_rhs, split, y0[0].size, s)
    stepper.start(0.0, y0, t_bound)
    got = [accepted(x) for x in stepper.steps()]
    assert len(got) == len(expected)
    for k, (mine, ref) in enumerate(zip(got, expected)):
        assert mine == ref, f"step {k} differs"
    assert own_calls == ref_calls
    return len(expected), ref_calls[0]


def shipped(name, **changes):
    return replace(load_scenario(ROOT / "scenarios" / f"{name}.yaml"), **changes)


class TestStepperMatchesRK45:
    @pytest.mark.parametrize("name, lam, t_bound", [
        ("uniform_collapse_1d", 0.0, 1.9),
        ("uniform_collapse_1d", 0.37, 1.9),
        ("uniform_ball_n3", 0.0, 2.0),
        ("uniform_ball_n3", 0.2, 2.0),
    ])
    def test_shipped_runs(self, name, lam, t_bound):
        # capped, so that the slab takes as many steps as the ball
        sc = shipped(name, lam=lam)
        sc = replace(sc, settings=replace(sc.settings, max_step=SHELL_MAX_STEP))
        steps, _ = assert_matches_rk45(sc, t_bound)
        assert steps > 400

    def test_rejected_step(self):
        # without the 4e-3 step cap the steps grow until one is rejected; at
        # lambda = 0 the slab's chart is a polynomial in t, which every step
        # solves exactly, so lambda = 0.37 (v = 1/lambda + a cosh(t sqrt(lambda)))
        # is stepped through its collapse near t = 3.33 to 4.5
        sc = shipped("uniform_collapse_1d", lam=0.37)
        sc = replace(sc, settings=replace(sc.settings, max_step=1e3))
        steps, calls = assert_matches_rk45(sc, 4.5)
        # two calls to start (f0 and the initial-step probe), six per attempt
        rejected = (calls - 2) // 6 - steps
        assert (steps, calls, rejected) == (86, 524, 1)

    def test_tiny_rel_tol_is_raised_with_a_warning(self):
        # both raise rel_tol 1e-16 to 100 machine epsilons and step alike
        y0 = np.ones(3)
        with pytest.warns(UserWarning) as ref:
            expected = loop_steps(lambda t, y: -y, 0.0, y0, 1.0, 1e-16, 1e-12)
        settings = NumericalSettings(rel_tol=1e-16, abs_tol=1e-12, max_step=np.inf)
        with pytest.warns(UserWarning, match="rel_tol 1e-16 is below 100 machine epsilons"):
            stepper = _integrate.DormandPrince(negative, one_field, y0.size, settings)
        assert len(ref) == 1
        assert stepper.rtol == 100 * np.finfo(float).eps
        stepper.start(0.0, (y0,), 1.0)
        assert [accepted(x) for x in stepper.steps()] == expected

    def test_empty_interval(self):
        # no step, and one RHS call for the initial state's f
        steps, calls = assert_matches_rk45(shipped("uniform_ball_n3"), 0.0)
        assert (steps, calls) == (0, 1)


@pytest.fixture
def counted(monkeypatch):
    """_integrate.DormandPrince replaced by a subclass that records each
    stepper built, and the start time of each start (a re-integration's
    too), re-integration and initial step size estimate
    (_integrate._initial_step)."""
    class Counted(_integrate.DormandPrince):
        built, starts, reintegrations, estimates = [], [], [], []

        def __init__(self, *args):
            self.built.append(self)
            super().__init__(*args)

        def start(self, *args):
            self.starts.append(args[0])
            super().start(*args)

        def reintegrate(self, *args):
            self.reintegrations.append(args[0])
            return super().reintegrate(*args)

    def initial_step(*args):
        Counted.estimates.append(args[1])
        return estimate(*args)

    estimate = _integrate._initial_step
    monkeypatch.setattr(_integrate, "_initial_step", initial_step)
    monkeypatch.setattr(_integrate, "DormandPrince", Counted)
    return Counted


def test_one_stepper_per_run(counted):
    """simulate, its event bracket included, and sample each build one
    DormandPrince and estimate its step size once, when it first starts: the
    run at t = 0, sample over its first interval. Every later
    re-integration keeps the step size the stepper last proposed."""
    def run(function, *args):
        for log in (counted.built, counted.starts, counted.reintegrations,
                    counted.estimates):
            log.clear()
        return function(*args)

    def started_once():
        return (len(counted.built), counted.starts, counted.estimates) == (1, [0.0], [0.0])

    # the ball's event step is shorter than the bracket's goal: the run's
    # start alone, as the bracket re-integrates nothing
    assert run(simulate, shipped("uniform_ball_n3")).event is not None
    assert started_once() and counted.reintegrations == []
    # a slab's event is in closed form: the run steps to its lower edge and
    # re-integrates nothing, for a collapse and for an early density trigger
    assert run(simulate, shipped("uniform_collapse_1d")).event is not None
    assert started_once() and counted.reintegrations == []
    early = make_slab(rho0=0.5, settings=replace(FAST, rho_blowup_threshold=1.0))
    assert run(simulate, early).event is not None
    assert started_once() and counted.reintegrations == []
    # each re-integration starts the stepper; the estimate over the empty
    # interval at time 0 is 0, no step size to keep, so the first interval
    # that is not empty estimates again
    run(sample, shipped("uniform_collapse_1d"), [0.0, 0.5, 1.0])
    assert len(counted.built) == 1
    assert counted.starts == counted.reintegrations == [0.0, 0.0, 0.5]
    assert counted.estimates == [0.0, 0.0]


def test_each_vector_is_split_once(monkeypatch, counted):
    """simulate splits each vector once, when it is made: the initial
    state, the seven stage rows and the stage-argument vector of its one
    stepper when it is built, and the new state of every trial step. A
    start or re-integration splits nothing, no vector is split twice, and
    every RHS value, the bracket's lower edge included, is written into a
    row of the stepper's block."""
    split_args = []
    splitter = _integrate.splitter

    def counting_splitter(n, dimension):
        split = splitter(n, dimension)

        def recorded(y):
            split_args.append(y)
            return split(y)
        return recorded

    monkeypatch.setattr(_integrate, "splitter", counting_splitter)
    # a density trigger long before the collapse; the run re-integrates nothing
    vs = validate_scenario(make_slab(rho0=0.5,
                                     settings=replace(FAST, rho_blowup_threshold=1.0)))
    outs = []
    rhs = _model_rhs(vs)

    def recorded(t, yv, fv):
        outs.append(fv[0])
        return rhs(t, yv, fv)

    assert _integrate.run_characteristics(vs, recorded).event is not None
    (stepper,) = counted.built
    reintegrations = len(counted.reintegrations)
    assert counted.starts == [0.0, *counted.reintegrations] and reintegrations <= 6
    # every RHS call of the stepper writes into its block: two for the start
    # (f0 and the initial-step probe), one per re-integration (f0), none
    # here, and six per trial step
    assert all(out.base is stepper._K for out in outs)
    trials, rest = divmod(len(outs) - 2 - reintegrations, 6)
    assert rest == 0 and trials >= reintegrations
    assert len(split_args) == 1 + 8 + trials
    assert sum(y.base is stepper._K for y in split_args) == 7
    # every split vector is alive in split_args, so distinct vectors have
    # distinct addresses
    addresses = {y.__array_interface__["data"][0] for y in split_args}
    assert len(addresses) == len(split_args)


@pytest.mark.parametrize("sc", [shipped("uniform_collapse_1d"), slab_16k()],
                         ids=["uniform_collapse_1d", "slab_16k"])
def test_a_cold_slab_steps_straight_to_the_lower_edge(monkeypatch, counted, sc):
    """A cold uniform slab's chart is a polynomial in t (v = v0 - t^2/2,
    q = -t), which a step solves to rounding, and its event is in closed
    form: the run steps toward the event's t_lo as its end and reaches it in
    four accepted steps, no rejected one (six RHS calls each after the
    start's two) and no re-integration, the step size estimated once."""
    log = []

    class Logged(counted):
        def __init__(self, fun, *args):
            def logged(*rhs_args):
                log.append("rhs")
                return fun(*rhs_args)
            super().__init__(logged, *args)

        def reintegrate(self, *args):
            log.append("trial")
            return super().reintegrate(*args)

        def step(self):
            super().step()
            log.append("step")

    monkeypatch.setattr(_integrate, "DormandPrince", Logged)
    traj = simulate(sc)
    assert traj.event.trigger is Trigger.DIVERGENCE_THRESHOLD
    assert log == ["rhs"] * 2 + (["rhs"] * 6 + ["step"]) * 4
    assert traj.times[-1] == traj.event.t_lo and counted.estimates == [0.0]


@pytest.mark.parametrize("name", ["uniform_collapse_1d", "uniform_ball_n3"])
def test_bisected_edge_row_equals_a_reduction_with_a_new_rhs(monkeypatch, name):
    """A density trigger inside a step of full length makes a shell bracket
    move the lower edge; a slab steps to its closed-form t_lo. The run's last
    row, whose rate is the RHS the stepper holds, equals bit for bit the row
    reduced at the edge state with an explicit RHS call into a new vector."""
    moved = []
    bracket = detector.bracket_event

    def recorded(reintegrate, reduce, unpack, row_prev, *args):
        event, row_lo, y_lo = bracket(reintegrate, reduce, unpack, row_prev, *args)
        moved.append(row_lo is not row_prev)
        return event, row_lo, y_lo

    monkeypatch.setattr(detector, "bracket_event", recorded)
    sc = shipped(name)
    vs = validate_scenario(replace(sc, settings=replace(sc.settings,
                                                        rho_blowup_threshold=1.0)))
    traj = simulate(vs)
    assert moved == ([] if vs.dimension == 1 else [True])
    edge = traj.states[-1]
    assert edge.time == traj.event.t_lo
    _, y, split, reduce = solver_state(edge)
    f = split(np.empty_like(y[0]))
    _model_rhs(vs)(edge.time, y, f)
    last = np.array([column[-1] for column in traj.columns])
    assert np.array(reduce(edge.time, y, f)).tobytes() == last.tobytes()


@pytest.mark.parametrize("name, markers, bound", [
    ("uniform_collapse_1d", 4096, 21),
    ("uniform_ball_n3", 2048, 26),
], ids=["uniform_collapse_1d-4096", "uniform_ball_n3-2048"])  # a new bound keeps the id
def test_peak_memory_in_solver_vectors(name, markers, bound):
    """The traced allocation peak of simulate up to its event, in solver
    vectors of 8 bytes per field and marker: the stage block and its three
    work vectors are 10 of them."""
    sc = shipped(name, marker_count=markers)
    vs = validate_scenario(sc)
    vector = 8 * (4 if vs.dimension == 1 else 5) * vs.initial.masses.size
    tracemalloc.start()
    try:
        traj = simulate(sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.event is not None
    assert peak <= bound * vector, f"peak {peak / vector:.1f} solver vectors"


def test_step_underflow():
    """An RHS that turns NaN past t = 0.5 rejects every step that reaches
    past it, so the step size collapses there."""
    def rhs(t, yv, fv):
        f = negative(t, yv, fv)
        if t > 0.5:
            f[:] = np.nan
        return f

    with pytest.raises(StepUnderflow, match=r"^step size collapsed at t=0\.5$"):
        stepper = _integrate.DormandPrince(rhs, one_field, 3, RESOLVED)
        stepper.start(0.0, (np.ones(3),), 1.0)
        for _ in stepper.steps():
            pass


def test_restart_backward_in_time_raises():
    stepper = _integrate.DormandPrince(negative, one_field, 3, NumericalSettings())
    with pytest.raises(ValueError, match="only integrates forward in time"):
        stepper.start(1.0, (np.ones(3),), 0.5)


def test_interval_shorter_than_the_smallest_step_is_stepped():
    """An interval of 4 ulp at t = 1 is below the smallest step, 10 ulp of t:
    the step is raised to that and clipped to t_bound, not refused with a
    StepUnderflow."""
    t_bound = 1.0
    for _ in range(4):
        t_bound = math.nextafter(t_bound, 2.0)
    stepper = _integrate.DormandPrince(negative, one_field, 3, RESOLVED)
    stepper.start(1.0, (np.ones(3),), t_bound)
    assert [s.t for s in stepper.steps()] == [t_bound]


def test_an_error_norm_whose_squares_overflow_is_rejected():
    """y' = 0, except a one-off 1e300 in the derivative at the first trial's
    new state (row 6, which only the error estimate weighs): the scaled
    error stays finite, but its squares overflow, which raises under the
    run's guard. The trial must be rejected as one of infinite error, and
    the step shrunk by the smallest factor, 0.2, is accepted."""
    spike = [1e300]

    def rhs(t, yv, fv):
        fv[0][...] = 0.0
        if t > 0.0 and fv is stepper.fv and spike:
            fv[0][...] = spike.pop()
        return fv[0]

    stepper = _integrate.DormandPrince(rhs, one_field, 4, replace(FAST, max_step=SHELL_MAX_STEP))
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        stepper.start(0.0, (np.ones(4),), 1.0)
        h_first = stepper.h_abs
        stepper.step()
    assert not spike
    assert stepper.t == h_first * 0.2
    assert stepper.y.tolist() == [1.0] * 4


@SLAB_AND_BALL
@pytest.mark.parametrize("keep_states", [False, True])
def test_first_state_is_the_validated_initial_state(sc, keep_states):
    """The first state of simulate, and of sample from time 0, is
    vs.initial itself, not a second copy, and its masses are the ones every
    state of the run shares."""
    vs = validate_scenario(sc)
    traj = simulate(vs, keep_states=keep_states)
    assert traj.states[0] is vs.initial
    assert all(state.masses is vs.initial.masses for state in traj.states)
    assert traj.masses is vs.initial.masses
    sampled = sample(vs, [0.0, 0.5])
    assert sampled.states[0] is vs.initial
    assert all(state.masses is vs.initial.masses for state in sampled.states)


def test_the_first_row_reads_the_validated_initial_state():
    """vs.h0, which the certificate starts from, is the first row's h bit
    for bit, and vs.initial's extremes are the first row's, on a slab whose
    chart moves rho and u_x by an ulp."""
    vs = validate_scenario(scenario_from_dict(GAUSSIAN_TABLE_SLAB))
    init, first = vs.initial, simulate(vs).columns
    assert vs.h0 == first.h[0]
    assert init.densities.max() == first.max_density[0]
    assert init.densities.min() == first.min_density[0]
    assert np.abs(init.div_u()).max() == first.max_abs_div[0] == np.nextafter(0.4, 1.0)


@SLAB_AND_BALL
def test_the_validated_solver_vector_is_read_only(sc):
    """vs.y0, the solver vector every run of vs starts from, is read-only,
    and so is every array of vs.initial, its unpack: the fields it shares,
    a slab's rho and u_x unpacked from v and q, and the masses every state
    and the force law share; simulate through a bracketed event, sample,
    and a re-validation of vs.scenario (sweep's path) leave or build the
    same bytes."""
    vs = validate_scenario(replace(sc, t_end=5.0))
    before = vs.y0.tobytes()
    assert not vs.y0.flags.writeable
    assert _integrate.layout(vs)[0][0] is vs.y0
    arrays = [f.name for f in fields(vs.initial)
              if isinstance(getattr(vs.initial, f.name), np.ndarray)]
    assert len(arrays) == (5 if vs.dimension == 1 else 6)
    for name in arrays:
        with pytest.raises(ValueError, match="read-only"):
            getattr(vs.initial, name)[0] = 0.0
    assert simulate(vs).event is not None
    sample(vs, [0.0, 0.5])
    assert vs.y0.tobytes() == before
    assert validate_scenario(vs.scenario).y0.tobytes() == before


def test_runtime_does_not_import_scipy(tmp_path):
    # no file of the package names scipy, and simulate and verify run to
    # exit 0 in a fresh interpreter without importing it
    assert not [path for path in (ROOT / "src" / "dustlab").rglob("*")
                if path.is_file() and b"scipy" in path.read_bytes()]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    code = textwrap.dedent("""
        import sys
        from dustlab.cli import main
        for command in ("simulate", "verify"):
            try:
                main([command, "--scenario", sys.argv[1], "--out", sys.argv[2] + command])
            except SystemExit as stop:
                assert stop.code == 0, (command, stop.code)
        assert "scipy" not in sys.modules, "scipy was imported"
    """)
    result = subprocess.run([sys.executable, "-c", code,
                             str(ROOT / "scenarios" / "uniform_ball_n3.yaml"),
                             str(tmp_path) + os.sep], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr

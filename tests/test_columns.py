"""Per-step columns against per-state loops.

The functions prefixed ``loop_`` are the per-state implementations the
column code replaced: each recomputes its sums from the stored marker
states. The columns, the proof chain and trajectory.csv must equal them
exactly (==, NaN in the same places), because the reductions keep the same
expressions and summation order.
"""

import csv
import inspect
import math

import numpy as np
import pytest

from dustlab import detector, simulate
from dustlab.cli import _fmt, _write_trajectory_csv
from dustlab.core import NumericalSettings, support_volume
from dustlab.functional import (NEAR_SINGULAR_FRACTION, RESIDUAL_FLOOR,
                                ProofChainStep, proof_chain_report)

from conftest import (derivatives, make_ball, make_slab, slab_div_rate,
                      support_volume_upper)


# ---------------------------------------------------------------------------
# Reference: per-state loops over traj.states
# ---------------------------------------------------------------------------


class HypothesisViolated(Exception):
    """Support volume exceeded the assumed bound; the inequality is not asserted."""


def loop_volume(state):
    return float(support_volume(state.positions[0], state.positions[-1], state.dimension))


def loop_volume_upper(state):
    return support_volume_upper(loop_volume(state), state.densities, state.masses,
                                state.dimension)


def loop_total_mass(state):
    return float(np.sum(state.masses))


def loop_h(state):
    return float(np.sum(state.masses * state.div_u()))


def loop_cs_divergence(state):
    m = state.masses
    d = state.div_u()
    big = loop_total_mass(state) * float(np.sum(m * d * d))
    small = float(np.sum(m * d)) ** 2
    return big - small


def loop_cs_density(state, v_sup):
    vol = loop_volume_upper(state)
    if vol > v_sup * (1 + 1e-12):
        raise HypothesisViolated(f"support volume {vol:g} exceeds v_sup {v_sup:g}")
    mass = loop_total_mass(state)
    return v_sup * float(np.sum(state.masses * state.densities)) - mass * mass


def loop_div_rate(state, lam):
    if state.eig_tangential is None:
        return slab_div_rate(state, lam)
    _, _, _, dl1, dl2 = derivatives(state, lam)
    return dl1 + (state.dimension - 1) * dl2


def loop_gaps(state):
    pos = state.positions
    if state.dimension > 1:
        pos = np.concatenate(([0.0], pos))
    return np.diff(pos)


def loop_transport(traj, step):
    a, b = traj.states[step], traj.states[step + 1]
    dt = b.time - a.time
    dh = (loop_h(b) - loop_h(a)) / dt
    lam = traj.validated.lam
    rate = 0.5 * (float(np.sum(a.masses * loop_div_rate(a, lam)))
                  + float(np.sum(b.masses * loop_div_rate(b, lam))))
    return abs(dh - rate)


def loop_riccati(traj, step, v_sup):
    a, b = traj.states[step], traj.states[step + 1]
    for st in (a, b):
        vol = loop_volume_upper(st)
        if vol > v_sup * (1 + 1e-12):
            raise HypothesisViolated(f"support volume {vol:g} exceeds v_sup {v_sup:g}")
    mass = loop_total_mass(a)
    n = traj.validated.dimension
    lam = traj.validated.lam
    dt = b.time - a.time
    h_a, h_b = loop_h(a), loop_h(b)
    h_mid = 0.5 * (h_a + h_b)
    return (h_b - h_a) / dt + h_mid**2 / (mass * n) + mass**2 / v_sup - lam * mass


def loop_riccati_pointwise(traj, i, v_sup):
    """The Riccati residual of state i from its own rate sum, sum m D(div u)/Dt."""
    st = traj.states[i]
    vol = loop_volume_upper(st)
    if vol > v_sup * (1 + 1e-12):
        raise HypothesisViolated(f"support volume {vol:g} exceeds v_sup {v_sup:g}")
    mass = loop_total_mass(st)
    lam = traj.validated.lam
    rate = float(np.sum(st.masses * loop_div_rate(st, lam)))
    return (rate + loop_h(st)**2 / (mass * traj.validated.dimension) + mass**2 / v_sup
            - lam * mass)


def loop_diagnostics_row(traj, i):
    st = traj.states[i]
    v_sup = traj.validated.v_sup
    try:
        cs_rho = loop_cs_density(st, v_sup)
    except HypothesisViolated:
        cs_rho = math.nan
    if i == 0:
        riccati = math.nan
    else:
        try:
            riccati = loop_riccati(traj, i - 1, v_sup)
        except HypothesisViolated:
            riccati = math.nan
    return [st.time, loop_h(st), loop_total_mass(st), loop_volume(st),
            loop_cs_divergence(st), cs_rho, riccati, float(np.min(st.densities)),
            float(np.max(st.densities)), float(np.max(np.abs(st.div_u())))]


def loop_proof_chain_steps(traj, v_sup):
    cutoff = math.inf
    if traj.event is not None:
        cutoff = (1.0 - NEAR_SINGULAR_FRACTION) * traj.event.t_lo
    steps = []
    for i in range(len(traj.states) - 1):
        b = traj.states[i + 1]
        hypothesis_ok = True
        cs_div = loop_cs_divergence(b)
        try:
            cs_rho = loop_cs_density(b, v_sup)
            ric = loop_riccati(traj, i, v_sup)
        except HypothesisViolated:
            hypothesis_ok = False
            cs_rho = math.nan
            ric = math.nan
        try:
            pointwise = loop_riccati_pointwise(traj, i + 1, v_sup)
        except HypothesisViolated:
            pointwise = math.nan
        steps.append(ProofChainStep(time=b.time, transport_residual=loop_transport(traj, i),
                                    cs_divergence_margin=cs_div, cs_density_margin=cs_rho,
                                    riccati_residual=ric, riccati_pointwise=pointwise,
                                    hypothesis_ok=hypothesis_ok,
                                    informational=b.time > cutoff))
    return steps


def loop_worst(traj, v_sup):
    """The report's worst margins and first violation, from loop_ steps: the
    pointwise Riccati residual on every step whose end state is inside v_sup,
    the margins off the near-singular window."""
    worst_div, worst_rho, worst_ric, first = math.inf, math.inf, -math.inf, None
    for s, st in zip(loop_proof_chain_steps(traj, v_sup), traj.states[1:]):
        h = loop_h(st)
        mass = loop_total_mass(st)
        tol = RESIDUAL_FLOOR * max(1.0, h * h, mass * mass)
        violated = False
        if not math.isnan(s.riccati_pointwise):
            worst_ric = max(worst_ric, s.riccati_pointwise)
            violated = s.riccati_pointwise > tol
        if not s.informational:
            worst_div = min(worst_div, s.cs_divergence_margin)
            violated = violated or s.cs_divergence_margin < -tol
            if s.hypothesis_ok:
                worst_rho = min(worst_rho, s.cs_density_margin)
                violated = violated or s.cs_density_margin < -tol
        if violated and first is None:
            first = s.time
    return worst_div, worst_rho, worst_ric, first


# ---------------------------------------------------------------------------


def same(a, b):
    """Exact equality, with NaN equal to NaN."""
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return a == b and type(a) is type(b)


def equilibrium_slab():
    lam = 0.5
    return make_slab(rho0=lam, lam=lam, v_sup=2.0, t_end=2.0, settings=NumericalSettings())


def escape_slab():
    """Support escapes v_sup early: hypothesis NaNs in the columns' checks."""
    from dustlab.core import HubbleVelocity
    return make_slab(rho0=0.5, v_sup=2.0, velocity=HubbleVelocity(2.0), t_end=1.0)


@pytest.fixture(scope="module")
def equilibrium_slab_traj():
    return simulate(equilibrium_slab(), keep_states=True)


@pytest.fixture(scope="module")
def escape_slab_traj():
    return simulate(escape_slab(), keep_states=True)


RUNS = ["uniform_collapse_traj", "ball_collapse_traj", "equilibrium_slab_traj",
        "escape_slab_traj"]


@pytest.fixture(params=RUNS)
def traj(request):
    traj = request.getfixturevalue(request.param)
    assert len(traj.states) == len(traj)
    return traj


class TestColumnsEqualLoops:
    def test_every_column(self, traj):
        c = traj.columns
        expected = {
            "time": [st.time for st in traj.states],
            "h": [loop_h(st) for st in traj.states],
            "m_div2": [float(np.sum(st.masses * st.div_u() * st.div_u()))
                       for st in traj.states],
            "m_rho": [float(np.sum(st.masses * st.densities)) for st in traj.states],
            "volume": [loop_volume(st) for st in traj.states],
            "volume_upper": [loop_volume_upper(st) for st in traj.states],
            "m_div_rate": [float(np.sum(st.masses * loop_div_rate(st, traj.validated.lam)))
                           for st in traj.states],
            "min_gap": [float(np.min(loop_gaps(st))) for st in traj.states],
            "max_abs_div": [float(np.max(np.abs(st.div_u()))) for st in traj.states],
            "max_density": [float(np.max(st.densities)) for st in traj.states],
            "min_density": [float(np.min(st.densities)) for st in traj.states],
        }
        assert set(expected) == set(c._fields)
        for name, values in expected.items():
            column = getattr(c, name)
            assert column.shape == (len(traj),)
            np.testing.assert_array_equal(column, values, err_msg=name, strict=True)

    def test_every_proof_chain_step(self, traj):
        v_sup = traj.validated.v_sup
        report = proof_chain_report(traj)
        expected = loop_proof_chain_steps(traj, v_sup)
        assert len(report.steps) == len(expected) == len(traj) - 1
        for got, want in zip(report.steps, expected):
            for field in ProofChainStep._fields:
                assert same(getattr(got, field), getattr(want, field)), (field, got, want)
        worst = (report.worst_cs_divergence, report.worst_cs_density,
                 report.worst_riccati, report.first_violation_time)
        assert all(same(a, b) for a, b in zip(worst, loop_worst(traj, v_sup)))

    def test_every_csv_row(self, traj, tmp_path):
        _write_trajectory_csv(tmp_path, traj)
        with open(tmp_path / "trajectory.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        expected = [[_fmt(v) for v in loop_diagnostics_row(traj, i)]
                    for i in range(len(traj))]
        assert rows[1:] == expected
        assert len(rows) == len(traj) + 1


class TestStoredStates:
    @pytest.mark.parametrize("make", [equilibrium_slab, escape_slab,
                                      lambda: make_slab(rho0=0.5, v_sup=2.0, t_end=5.0),
                                      lambda: make_ball(n=3, rho0=0.5, t_end=10.0)])
    def test_default_run_keeps_first_and_last_state(self, make, monkeypatch):
        scans = []
        scan_step = detector.scan_step

        def counted(*args):
            scans.append(args)
            return scan_step(*args)

        monkeypatch.setattr(detector, "scan_step", counted)
        traj = simulate(make())
        accepted = len(scans)
        monkeypatch.undo()
        full = simulate(make(), keep_states=True)

        assert len(traj.states) <= 3
        # one row per accepted step plus the initial row; a run that ends in
        # an event drops the triggering step and adds the bracket's lower edge
        if traj.event is None:
            assert len(traj) == accepted + 1
        else:
            # the rule run_characteristics uses: the bisection moved the
            # lower edge past the last accepted step before the trigger
            edge = traj.event.t_lo > scans[-1][0].time
            assert traj.states[-1].time == traj.event.t_lo
            assert len(traj) == accepted + edge
        assert len(full.states) == len(full) == len(traj)
        for a, b in zip(traj.columns, full.columns):
            np.testing.assert_array_equal(a, b, strict=True)
        for kept, st in ((traj.states[0], full.states[0]), (traj.states[-1], full.states[-1])):
            assert kept.time == st.time
            np.testing.assert_array_equal(kept.positions, st.positions, strict=True)
            np.testing.assert_array_equal(kept.densities, st.densities, strict=True)

    def test_acceptance_fixtures_keep_every_state(self, acceptance_runs_1d,
                                                  acceptance_runs_radial):
        for _, traj in acceptance_runs_1d + acceptance_runs_radial:
            assert len(traj.states) == len(traj)

    def test_state_iterating_tests_ask_for_every_state(self):
        import test_acceptance
        import test_geometry1d
        for test in (test_acceptance.TestCriterion7EquilibriumFixture.test_criterion_7,
                     test_geometry1d.TestIntegrateSlab
                     .test_hubble_expansion_no_event_density_decays):
            assert "keep_states=True" in inspect.getsource(test), test.__qualname__

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from dustlab import sample
from dustlab.core import FieldState, HubbleVelocity, validate_scenario
from dustlab.functional import (RESIDUAL_FLOOR, _cs_density, _cs_divergence,
                                _inside, _tolerance, proof_chain_report, row,
                                step_row)
from conftest import make_ball, make_slab


def slab_state(x, u=None, w=None, m=None, rho=None):
    x = np.asarray(x, dtype=float)
    k = x.size
    return FieldState(
        time=0.0, positions=x,
        velocities=np.zeros(k) if u is None else np.asarray(u, float),
        densities=np.full(k, 0.5) if rho is None else np.asarray(rho, float),
        eig_radial=np.zeros(k) if w is None else np.asarray(w, float),
        masses=np.full(k, 1.0 / k) if m is None else np.asarray(m, float))


def cs_divergence(state):
    """M * integral of (div u)^2 dmu  minus  (integral of div u dmu)^2."""
    row = step_row(state)
    return _cs_divergence(float(np.sum(state.masses)), row.h, row.m_div2)


def cs_density(state, v_sup):
    """v_sup * integral of rho^2 dx  minus  M^2."""
    return _cs_density(v_sup, float(np.sum(state.masses)), step_row(state).m_rho)


class TestFunctionalValues:
    def test_h_zero_for_cold_start(self):
        st = slab_state([-0.5, 0.5])
        assert step_row(st).h == 0.0

    def test_h_hubble_slab_is_rate_times_mass(self):
        vs = validate_scenario(make_slab(rho0=0.5, velocity=HubbleVelocity(0.7),
                                         v_sup=10.0))
        st = slab_state(vs.positions, u=vs.velocities, w=vs.eig_radial,
                        m=vs.masses, rho=vs.densities)
        assert step_row(st).h == pytest.approx(0.7 * st.masses.sum(), rel=1e-13)

    def test_h_hubble_ball_is_n_rate_times_mass(self):
        vs = validate_scenario(make_ball(n=3, velocity=HubbleVelocity(0.7),
                                         v_sup=100.0))
        st = FieldState(time=0.0, positions=vs.positions,
                        velocities=vs.velocities, densities=vs.densities,
                        eig_radial=vs.eig_radial,
                        eig_tangential=vs.eig_tangential, masses=vs.masses,
                        dimension=3)
        assert step_row(st).h == pytest.approx(3 * 0.7 * st.masses.sum(), rel=1e-13)

    def test_support_volume_slab(self):
        assert step_row(slab_state([-1.0, 1.0])).volume == pytest.approx(2.0)


@pytest.mark.parametrize("with_rate", [False, True], ids=["no-rate", "rate"])
def test_row_sums_equal_one_dimensional_reductions(with_rate):
    """row reduces its weighted products as the rows of one block; each sum
    must equal np.add.reduce of that product alone, bit for bit, across the
    sizes where the pairwise summation changes shape (8-way unrolling,
    blocks of 128, buffers of 8192)."""
    rng = np.random.default_rng(20261018)
    sizes = [1, 2, 7, 8, 9, 127, 128, 129, 1000, 8191, 8192, 8193, 16384, 40_000]
    sizes += rng.integers(1, 40_001, 6).tolist()
    for n in sizes:
        masses = rng.uniform(0.1, 2.0, n)
        positions = np.sort(rng.uniform(0.1, 2.0, n))
        densities = rng.uniform(0.1, 2.0, n)
        div = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
        rate = rng.normal(size=n) if with_rate else None
        got = row(0.0, positions, densities, div, masses, 3, rate)
        md = masses * div
        expected = [np.add.reduce(md), np.add.reduce(md * div),
                    np.add.reduce(masses * densities),
                    np.add.reduce(masses * rate) if with_rate else math.nan]
        assert (np.array([got.h, got.m_div2, got.m_rho, got.m_div_rate]).tobytes()
                == np.array(expected).tobytes()), n


class TestCauchySchwarz:
    def test_divergence_margin_hand_case(self):
        # two markers, m = 1/2 each, div = +/-1:
        # M * sum(m d^2) - (sum m d)^2 = 1*1 - 0 = 1
        st = slab_state([-0.5, 0.5], w=[1.0, -1.0])
        assert cs_divergence(st) == pytest.approx(1.0)

    def test_divergence_equality_for_constant_div(self):
        st = slab_state([-0.5, 0.0, 0.5], w=[0.3, 0.3, 0.3],
                        m=[0.2, 0.5, 0.3])
        assert cs_divergence(st) == pytest.approx(0.0, abs=1e-15)

    def test_density_margin_uniform_saturates(self):
        # uniform rho on full support with v_sup = volume: equality
        vs = validate_scenario(make_slab(rho0=0.5, v_sup=2.0))
        st = slab_state(vs.positions, m=vs.masses, rho=vs.densities)
        assert cs_density(st, 2.0) == pytest.approx(0.0, abs=1e-14)

    def test_density_margin_slack_for_larger_bound(self):
        vs = validate_scenario(make_slab(rho0=0.5, v_sup=4.0))
        st = slab_state(vs.positions, m=vs.masses, rho=vs.densities)
        # v_sup * int rho^2 - M^2 = 4*0.5 - 1 = 1
        assert cs_density(st, 4.0) == pytest.approx(1.0)

    def test_density_check_raises_when_support_escapes(self):
        st = slab_state([-1.0, 1.0])
        # the density margin is asserted only while the support fits in v_sup
        assert not _inside(step_row(st).volume_upper, 1.5)

    @given(w=st.lists(st.floats(-5, 5), min_size=2, max_size=8),
           m=st.lists(st.floats(0.01, 2.0), min_size=8, max_size=8))
    @hyp_settings(max_examples=100, deadline=None)
    def test_divergence_margin_never_negative(self, w, m):
        k = len(w)
        x = np.linspace(-1.0, 1.0, k)
        state = slab_state(x, w=w, m=m[:k])
        margin = cs_divergence(state)
        assert margin >= -1e-12 * max(1.0, abs(margin))

    @given(rho=st.lists(st.floats(0.01, 3.0), min_size=4, max_size=4))
    @hyp_settings(max_examples=100, deadline=None)
    def test_density_margin_never_negative_with_matched_weights(self, rho):
        # weights m_j = rho_j dV_j for equal cells dV = v_sup / k
        k = len(rho)
        v_sup = 2.0
        dv = v_sup / k
        x = np.linspace(-1.0 + dv / 2, 1.0 - dv / 2, k)
        state = slab_state(x, rho=rho, m=np.asarray(rho) * dv)
        margin = cs_density(state, v_sup)
        assert margin >= -1e-12 * max(1.0, abs(margin))


@pytest.fixture(scope="module")
def sampled():
    sc = make_slab(rho0=0.5, t_end=1.0)
    return sample(sc, np.arange(0.0, 1.0001, 0.05))


def max_transport_residual(traj):
    return max(s.transport_residual for s in proof_chain_report(traj).steps)


class TestStepResiduals:
    def test_transport_residual_small_on_smooth_run(self, sampled):
        for s in proof_chain_report(sampled).steps:
            assert s.transport_residual < 2e-3

    def test_transport_residual_second_order(self):
        sc = make_slab(rho0=0.5, t_end=1.0)
        coarse = sample(sc, np.arange(0.2, 1.0001, 0.05))
        fine = sample(sc, np.arange(0.2, 1.0001, 0.025))
        assert 3.5 <= max_transport_residual(coarse) / max_transport_residual(fine) <= 4.5

    def test_riccati_residual_nonpositive_on_collapse(self, sampled):
        mass = sampled.validated.total_mass
        for s, h in zip(proof_chain_report(sampled).steps, sampled.columns.h[1:]):
            assert s.hypothesis_ok
            assert s.riccati_residual <= RESIDUAL_FLOOR * max(1.0, h * h, mass * mass)

    def test_riccati_residual_not_asserted_on_escape(self):
        sc = make_slab(rho0=0.5, v_sup=2.0, velocity=HubbleVelocity(2.0),
                       t_end=0.5)
        traj = sample(sc, [0.0, 0.2, 0.4])
        step = proof_chain_report(traj).steps[1]
        assert not step.hypothesis_ok
        assert math.isnan(step.riccati_residual)


class TestProofChainReport:
    def test_collapse_run_holds(self, uniform_collapse_traj):
        report = proof_chain_report(uniform_collapse_traj)
        assert report.holds
        assert report.worst_cs_divergence >= -1e-6
        assert report.worst_cs_density >= -1e-6
        assert report.worst_riccati <= 1e-6
        assert "all inequalities hold" in report.summary_text()

    def test_ball_run_holds(self, ball_collapse_traj):
        report = proof_chain_report(ball_collapse_traj)
        assert report.holds
        assert report.worst_riccati <= 1e-6

    def test_near_singular_window_marked_informational(self, uniform_collapse_traj):
        report = proof_chain_report(uniform_collapse_traj)
        cutoff = 0.99 * uniform_collapse_traj.event.t_lo
        for s in report.steps:
            assert s.informational == (s.time > cutoff)
        assert any(s.informational for s in report.steps)

    def test_raised_h_is_the_first_violation(self, uniform_collapse_traj):
        # raising H on one row makes the Riccati residual of the step into it
        # exceed the tolerance; no earlier step changes
        traj = uniform_collapse_traj
        b = int(np.searchsorted(traj.times, 0.5 * traj.event.t_lo))
        h = traj.columns.h.copy()
        h[b] += 1e-3
        report = proof_chain_report(replace(traj, columns=traj.columns._replace(h=h)))
        step = report.steps[b - 1]
        assert step.hypothesis_ok and not step.informational
        assert step.riccati_residual > _tolerance(traj.validated.total_mass, h[b])
        assert not report.holds
        assert report.first_violation_time == traj.times[b]
        assert (f"FIRST VIOLATION at t={traj.times[b]:.9g}"
                in report.summary_text())

    def test_equilibrium_residuals_identically_zero(self):
        lam = 0.5
        sc = make_slab(rho0=lam, lam=lam, v_sup=2.0, t_end=1.0)
        traj = sample(sc, np.linspace(0.0, 1.0, 9))
        report = proof_chain_report(traj)
        assert report.holds
        for s in report.steps:
            assert abs(s.riccati_residual) < 1e-10
            assert abs(s.transport_residual) < 1e-10
            assert abs(s.cs_divergence_margin) < 1e-10

    def test_escape_run_flags_hypothesis(self):
        sc = make_slab(rho0=0.5, v_sup=2.0, velocity=HubbleVelocity(2.0),
                       t_end=1.0)
        traj = sample(sc, np.linspace(0.0, 1.0, 11))
        report = proof_chain_report(traj)
        assert any(not s.hypothesis_ok for s in report.steps)
        assert all(math.isnan(s.riccati_residual)
                   for s in report.steps if not s.hypothesis_ok)

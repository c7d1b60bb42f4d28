import numpy as np
import pytest

from dustlab import sample, simulate
from dustlab.core import (FieldState, HubbleVelocity, NumericalSettings, Trigger,
                          validate_scenario)
from dustlab.detector import BRACKET_REL_WIDTH

from conftest import (derivatives, make_slab, slab_div_rate, uniform_slab_chart,
                      uniform_slab_div_crossing)


def two_marker_state(x=(-0.5, 0.5), m=(0.5, 0.5)):
    x = np.array(x, dtype=float)
    n = x.size
    return FieldState(time=0.0, positions=x, velocities=np.zeros(n),
                      densities=np.full(n, 0.5), eig_radial=np.zeros(n),
                      masses=np.array(m, dtype=float))


class TestSlabForce:
    def test_symmetric_pair_equal_and_opposite(self):
        st = two_marker_state()
        f0, f1 = derivatives(st)[1]
        assert f0 == pytest.approx(-f1)
        assert f0 > 0  # left marker pulled right

    def test_single_marker_no_self_force(self):
        st = FieldState(time=0.0, positions=np.array([0.3]),
                        velocities=np.zeros(1), densities=np.ones(1),
                        eig_radial=np.zeros(1), masses=np.ones(1))
        assert derivatives(st)[1][0] == 0.0

    def test_uniform_slab_continuum_limit(self):
        # continuum force for uniform rho0 on [-1,1] is -rho0 * x
        vs = validate_scenario(make_slab(rho0=0.5, markers=1000))
        force = derivatives(vs.initial)[1]
        for j in (10, 500, 990):
            expected = -0.5 * vs.initial.positions[j]
            assert force[j] == pytest.approx(expected, rel=1e-2)


class TestSlabRhs:
    def test_equilibrium_marker(self):
        # rho = lambda, w = 0: dv = q = 0 and dq = lambda v - 1 = 0
        lam = 0.7
        st = two_marker_state()
        st = FieldState(time=0.0, positions=st.positions,
                        velocities=st.velocities,
                        densities=np.full(2, lam),
                        eig_radial=np.zeros(2), masses=st.masses)
        _, _, dv, dq = derivatives(st, lam)
        np.testing.assert_allclose(dq, 0.0, atol=1e-15)
        np.testing.assert_allclose(dv, 0.0, atol=1e-15)
        np.testing.assert_allclose(slab_div_rate(st, lam), 0.0, atol=1e-15)

    def test_vacuum_characteristic_burgers_decay(self):
        # the chart holds v = 1/rho, so the vacuum is its limit rho -> 0:
        # at rho = 1e-300, D(div u)/Dt = rho (dq - w dv) is -w^2
        st = FieldState(time=0.0, positions=np.array([-0.5, 0.5]),
                        velocities=np.zeros(2), densities=np.full(2, 1e-300),
                        eig_radial=np.array([2.0, -3.0]),
                        masses=np.array([0.0, 0.0]))
        np.testing.assert_allclose(slab_div_rate(st), [-4.0, -9.0])

    def test_uniform_collapse_matches_pointwise_oracle(self):
        # uniform state: every marker's v = 1/rho follows v'' = -1, so at
        # t = 1 it is v0 - 1/2 and w = q/v = -1/v (uniform_slab_chart)
        sc = make_slab(rho0=0.5, t_end=1.0, settings=NumericalSettings())
        traj = simulate(sc)
        assert traj.event is None
        v, q = uniform_slab_chart(0.5, 0.0, 0.0, 1.0)
        st = traj.states[-1]
        np.testing.assert_allclose(st.densities, 1.0 / v, rtol=1e-13)
        np.testing.assert_allclose(st.eig_radial, q / v, rtol=1e-13)


class TestIntegrateSlab:
    def test_static_equilibrium_constant(self):
        lam = 0.5
        sc = make_slab(rho0=lam, lam=lam, v_sup=2.0, t_end=2.0)
        traj = simulate(sc)
        assert traj.event is None
        st = traj.states[-1]
        vs = traj.validated
        np.testing.assert_allclose(st.positions, vs.initial.positions, atol=1e-12)
        np.testing.assert_allclose(st.densities, vs.initial.densities, atol=1e-12)
        np.testing.assert_allclose(st.velocities, 0.0, atol=1e-12)

    def test_uniform_collapse_blows_up_before_bound(self):
        # over the 11-point lambda grid of the sweep, 0 to 0.6: the exact
        # first time |div u| passes its threshold lies in the event's
        # bracket, on the same trigger and marker, and lambda >= 0.48 does
        # not collapse by t_end; at lambda = 0 the collapse is at t = 2, below
        # the certified bound pi/2/sqrt(1/2) = 2.2214
        for k in range(11):
            lam = 0.06 * k
            sc = make_slab(rho0=0.5, lam=lam, v_sup=2.0, t_end=5.0)
            event = simulate(sc).event
            exact = uniform_slab_div_crossing(0.5, 0.0, lam, sc.settings.div_blowup_threshold,
                                              sc.t_end)
            if exact is None:
                assert event is None, lam
                continue
            assert (event.trigger, event.marker_index) == (Trigger.DIVERGENCE_THRESHOLD, 0), lam
            assert event.t_lo < exact <= event.t_hi, lam
            assert event.t_hi - event.t_lo <= BRACKET_REL_WIDTH * event.t_hi, lam
            if lam == 0.0:
                assert event.t_hi < 2.2215

    def test_hubble_expansion_no_event_density_decays(self):
        sc = make_slab(rho0=0.5, v_sup=100.0, velocity=HubbleVelocity(2.0),
                       t_end=1.0)
        traj = simulate(sc, keep_states=True)
        assert traj.event is None
        assert len(traj.states) == len(traj)
        rho_max = np.array([st.densities.max() for st in traj.states])
        assert np.all(np.diff(rho_max) < 0)


class TestSlabInvariants:
    def test_characteristic_identity_every_step(self, uniform_collapse_traj):
        # dw/dt == -(w^2 + rho - lambda) exactly along every marker
        traj = uniform_collapse_traj
        lam = traj.validated.lam
        rel_tol = traj.validated.scenario.settings.rel_tol
        for st in traj.states:
            dw = slab_div_rate(st, lam)
            resid = np.abs(dw + st.eig_radial**2 + st.densities - lam)
            assert np.max(resid) <= 10 * rel_tol * max(
                1.0, float(np.max(np.abs(dw))))

    def test_mass_conservation_and_positivity(self, uniform_collapse_traj):
        traj = uniform_collapse_traj
        m0 = traj.masses.sum()
        for st in traj.states:
            assert st.masses.sum() == m0  # weights are fixed, identically
            assert np.all(st.densities > 0)

    def test_order_preserved_until_event(self, uniform_collapse_traj):
        for st in uniform_collapse_traj.states:
            assert np.all(np.diff(st.positions) > 0)

    def test_galilean_shift_leaves_internal_fields(self):
        from dustlab.core import UniformVelocity
        sc = make_slab(rho0=0.5, v_sup=50.0, t_end=1.0)
        sc_shift = make_slab(rho0=0.5, v_sup=50.0, t_end=1.0,
                             velocity=UniformVelocity(3.0))
        times = np.linspace(0.0, 1.0, 11)
        a = sample(sc, times)
        b = sample(sc_shift, times)
        for sa, sb in zip(a.states, b.states):
            np.testing.assert_allclose(sb.densities, sa.densities, rtol=1e-8)
            np.testing.assert_allclose(sb.eig_radial, sa.eig_radial,
                                       rtol=1e-8, atol=1e-10)
            np.testing.assert_allclose(sb.positions, sa.positions + 3.0 * sa.time,
                                       rtol=1e-8, atol=1e-9)

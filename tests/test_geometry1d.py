import numpy as np
import pytest
from scipy.integrate import solve_ivp

from dustlab import sample, simulate
from dustlab.core import (FieldState, HubbleVelocity, NumericalSettings,
                          validate_scenario)

from conftest import derivatives, make_slab


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
        st = FieldState(time=0.0, positions=vs.positions,
                        velocities=vs.velocities, densities=vs.densities,
                        eig_radial=vs.eig_radial, masses=vs.masses)
        force = derivatives(st)[1]
        for j in (10, 500, 990):
            expected = -0.5 * vs.positions[j]
            assert force[j] == pytest.approx(expected, rel=1e-2)


class TestSlabRhs:
    def test_equilibrium_marker(self):
        lam = 0.7
        st = two_marker_state()
        st = FieldState(time=0.0, positions=st.positions,
                        velocities=st.velocities,
                        densities=np.full(2, lam),
                        eig_radial=np.zeros(2), masses=st.masses)
        _, _, drho, dw = derivatives(st, lam)
        np.testing.assert_allclose(dw, 0.0, atol=1e-15)
        np.testing.assert_allclose(drho, 0.0, atol=1e-15)

    def test_vacuum_characteristic_burgers_decay(self):
        st = FieldState(time=0.0, positions=np.array([-0.5, 0.5]),
                        velocities=np.zeros(2), densities=np.zeros(2),
                        eig_radial=np.array([2.0, -3.0]),
                        masses=np.array([0.0, 0.0]))
        _, _, _, dw = derivatives(st)
        np.testing.assert_allclose(dw, [-4.0, -9.0])

    def test_uniform_collapse_matches_pointwise_oracle(self):
        # uniform state: every marker follows rho' = -rho w, w' = -w^2 - rho
        sc = make_slab(rho0=0.5, t_end=1.0, settings=NumericalSettings())
        traj = simulate(sc)
        assert traj.event is None
        sol = solve_ivp(lambda t, y: [-y[0] * y[1], -y[1] ** 2 - y[0]],
                        (0.0, 1.0), [0.5, 0.0], method="DOP853",
                        rtol=1e-12, atol=1e-14)
        rho_ref, w_ref = sol.y[0, -1], sol.y[1, -1]
        st = traj.states[-1]
        np.testing.assert_allclose(st.densities, rho_ref, rtol=1e-8)
        np.testing.assert_allclose(st.eig_radial, w_ref, rtol=1e-8, atol=1e-10)


class TestIntegrateSlab:
    def test_static_equilibrium_constant(self):
        lam = 0.5
        sc = make_slab(rho0=lam, lam=lam, v_sup=2.0, t_end=2.0)
        traj = simulate(sc)
        assert traj.event is None
        st = traj.states[-1]
        vs = traj.validated
        np.testing.assert_allclose(st.positions, vs.positions, atol=1e-12)
        np.testing.assert_allclose(st.densities, vs.densities, atol=1e-12)
        np.testing.assert_allclose(st.velocities, 0.0, atol=1e-12)

    def test_uniform_collapse_blows_up_before_bound(self):
        # homologous collapse at t=2; certified bound pi/2/sqrt(1/2) = 2.2214
        sc = make_slab(rho0=0.5, v_sup=2.0, t_end=5.0)
        traj = simulate(sc)
        assert traj.event is not None
        assert traj.event.t_hi == pytest.approx(2.0, abs=1e-4)
        assert traj.event.t_hi < 2.2215

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
            _, _, _, dw = derivatives(st, lam)
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

from dataclasses import replace

import numpy as np
import pytest

from dustlab import _integrate, radial, simulate
from dustlab.core import (FieldState, HubbleVelocity, NumericalSettings, Trigger,
                          ball_volume, unit_sphere_area, validate_scenario)

from conftest import (cold_ball_fall_time, cold_ball_free_fall, derivatives, flat, make_ball,
                      masked_shell_rhs, step_row)


def shell_state(r, m, n=3, u=None, rho=None):
    r = np.asarray(r, dtype=float)
    k = r.size
    return FieldState(time=0.0, positions=r,
                      velocities=np.zeros(k) if u is None else np.asarray(u, float),
                      densities=np.full(k, 0.5) if rho is None else np.asarray(rho, float),
                      eig_radial=np.zeros(k), eig_tangential=np.zeros(k),
                      masses=np.asarray(m, dtype=float), dimension=n)


class TestEnclosedMass:
    """The mass a shell's force sees, read off -Phi_r = -m_enc/(sigma r^(N-1))
    at lambda = 0."""

    @staticmethod
    def enclosed(st):
        return -derivatives(st)[1] * unit_sphere_area(3) * st.positions**2

    def test_strictly_inside(self):
        # where the inner shells sit does not matter, only that they are inside
        a = self.enclosed(shell_state([0.2, 0.5, 0.9], [1.0, 2.0, 4.0]))
        b = self.enclosed(shell_state([0.1, 0.3, 0.9], [1.0, 2.0, 4.0]))
        assert a[2] == pytest.approx(1.0 + 2.0 + 2.0, rel=1e-14)
        assert b[2] == pytest.approx(a[2], rel=1e-14)

    def test_half_weight_at_exact_radius(self):
        st = shell_state([0.2, 0.5, 0.9], [1.0, 2.0, 4.0])
        # inside + half of the shell's own mass
        np.testing.assert_allclose(self.enclosed(st), [0.5, 1.0 + 1.0, 3.0 + 2.0],
                                   rtol=1e-14)


class TestRadialForce:
    def test_uniform_ball_continuum_limit(self):
        # uniform rho0 in N=3: Phi_r = rho0 r / 3, force = -rho0 r / 3
        vs = validate_scenario(make_ball(n=3, rho0=0.6, markers=2000))
        force = derivatives(shell_state(vs.initial.positions, vs.initial.masses, n=3))[1]
        for j in (50, 1000, 1990):
            expected = -0.6 * vs.initial.positions[j] / 3.0
            assert force[j] == pytest.approx(expected, rel=1e-3)

    def test_uniform_equilibrium_force_exactly_zero(self):
        # lambda == rho0: the background term cancels self-gravity shell by
        # shell thanks to volume-median marker placement
        lam = 0.5
        vs = validate_scenario(make_ball(n=3, rho0=lam, lam=lam))
        st = shell_state(vs.initial.positions, vs.initial.masses, n=3)
        assert np.max(np.abs(derivatives(st, lam)[1])) < 1e-14

    def test_center_shell_zero_force(self):
        st = shell_state([0.0, 0.5], [0.1, 0.9])
        assert derivatives(st)[1][0] == 0.0


class TestRadialRhs:
    def test_tangential_eigenvalue_is_velocity_over_radius(self):
        vs = validate_scenario(make_ball(n=2, velocity=HubbleVelocity(-0.4),
                                         v_sup=100.0))
        np.testing.assert_allclose(vs.initial.eig_tangential,
                                   vs.initial.velocities / vs.initial.positions, rtol=1e-13)

    def test_uniform_equilibrium_all_rates_zero(self):
        lam = 0.7
        vs = validate_scenario(make_ball(n=2, rho0=lam, lam=lam))
        st = shell_state(vs.initial.positions, vs.initial.masses, n=2,
                         rho=np.full(vs.initial.positions.size, lam))
        dr, du, drho, dl1, dl2 = derivatives(st, lam)
        np.testing.assert_allclose(du, 0.0, atol=1e-14)
        np.testing.assert_allclose(drho, 0.0, atol=1e-14)
        np.testing.assert_allclose(dl1, 0.0, atol=1e-14)
        np.testing.assert_allclose(dl2, 0.0, atol=1e-14)


class TestCenterShell:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_shell_at_origin_takes_the_center_limit(self, n):
        # Phi_r/r -> 0 and dl2 = dl1 = -l1^2 - (rho - lambda) at r = 0, in
        # every dimension and without a floating-point warning
        lam = 0.2
        st = replace(shell_state([0.0, 0.5, 0.9], [1.0, 1.0, 1.0], n=n),
                     eig_radial=np.array([-0.3, -0.2, -0.1]),
                     eig_tangential=np.array([-0.3, -0.2, -0.1]))
        with np.errstate(all="raise"):
            _, du, _, dl1, dl2 = derivatives(st, lam)
        assert du[0] == 0.0
        assert dl1[0] == -0.3 * 0.3 - (0.5 - lam)
        assert dl2[0] == dl1[0]
        assert np.all(np.isfinite(dl1)) and np.all(np.isfinite(dl2))

    @pytest.mark.parametrize("n, r0", [(2, 1e-310), (2, 1e-160), (3, 1e-200),
                                       (3, 1e-140), (4, 1e-90)])
    def test_tiny_radius_takes_the_center_limit(self, n, r0):
        # (N-1) Phi_r/r ~ m/(sigma r^N) overflows at these radii; the shell's
        # eigenvalue rates take the center limit instead of +-inf, in the
        # model closure, which patches the shell, as in the masked reference
        lam = 0.2
        vs = validate_scenario(make_ball(n=n, lam=lam, markers=8,
                                         velocity=HubbleVelocity(-0.3)))
        _, split, unpack, _ = _integrate.layout(vs)
        y = vs.y0.copy()  # vs.y0 is read-only
        y[0] = r0
        state = unpack(0.0, split(y))
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            expected = masked_shell_rhs(vs, y)
            got = flat(radial.model_rhs(vs), split)(0.0, y)
        assert np.all(np.isfinite(expected))
        assert got.tobytes() == expected.tobytes()
        _, _, _, dl1, dl2 = np.split(got, 5)
        l1, rho = state.eig_radial[0], state.densities[0]
        assert dl1[0] == -l1 * l1 - (rho - lam)
        assert dl2[0] == dl1[0]


class TestIntegrateRadial:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_homologous_collapse_matches_scale_factor_oracle(self, n):
        # uniform cold collapse stays uniform: every shell follows the closed-
        # form free fall r = r0 R(t), with l1 = l2 = R'/R and rho = rho0/R^N
        rho0 = 0.5
        sc = make_ball(n=n, rho0=rho0, t_end=1.5, settings=NumericalSettings())
        traj = simulate(sc)
        assert traj.event is None
        radius, speed = cold_ball_free_fall(n, rho0, 1.5)
        st = traj.states[-1]
        np.testing.assert_allclose(st.densities, rho0 / radius ** n, rtol=1e-11)
        np.testing.assert_allclose(st.eig_radial, speed / radius, rtol=1e-11)
        np.testing.assert_allclose(st.eig_tangential, speed / radius, rtol=1e-11)
        np.testing.assert_allclose(st.positions, radius * traj.validated.initial.positions,
                                   rtol=1e-11)

    @pytest.mark.parametrize("n, rho0", [(n, rho0) for n in (2, 3, 4) for rho0 in (0.5, 0.8)])
    def test_density_trigger_brackets_the_free_fall_time(self, n, rho0):
        # rho = rho0/R^N passes the threshold at R_thr = (rho0/threshold)^(1/N),
        # at the closed-form fall time, which must lie in the event's bracket
        # widened by 10 rel_tol t_hi
        settings = NumericalSettings()
        traj = simulate(make_ball(n=n, rho0=rho0, t_end=10.0, settings=settings))
        event = traj.event
        assert event.trigger is Trigger.DENSITY_THRESHOLD
        exact = cold_ball_fall_time(n, rho0, (rho0 / settings.rho_blowup_threshold) ** (1 / n))
        slack = 10 * settings.rel_tol * event.t_hi
        assert event.t_lo - slack <= exact <= event.t_hi + slack

    def test_isotropy_preserved_from_uniform_hubble_start(self):
        sc = make_ball(n=3, rho0=0.4, velocity=HubbleVelocity(-0.3), t_end=1.0)
        traj = simulate(sc)
        st = traj.states[-1]
        np.testing.assert_allclose(st.eig_radial, st.eig_tangential, rtol=1e-7)
        # rho stays uniform across shells under homologous flow
        assert np.ptp(st.densities) / st.densities.mean() < 1e-7

    def test_static_equilibrium_ball(self):
        lam = 0.5
        sc = make_ball(n=3, rho0=lam, lam=lam, v_sup=ball_volume(3, 1.0) * 1.5,
                       t_end=2.0)
        traj = simulate(sc)
        assert traj.event is None
        st = traj.states[-1]
        np.testing.assert_allclose(st.positions, traj.validated.initial.positions,
                                   atol=1e-11)
        np.testing.assert_allclose(st.velocities, 0.0, atol=1e-11)


class TestShellInvariants:
    def test_order_and_positivity(self, ball_collapse_traj):
        for st in ball_collapse_traj.states:
            assert np.all(st.positions > 0)
            assert np.all(np.diff(st.positions) > 0)
            assert np.all(st.densities > 0)

    def test_tangential_identity_along_flow(self, ball_collapse_traj):
        # l2 = u/r is exact along each shell (both sides evolve consistently)
        for st in ball_collapse_traj.states:
            np.testing.assert_allclose(st.eig_tangential,
                                       st.velocities / st.positions,
                                       rtol=1e-7, atol=1e-9)

    def test_support_volume_formula(self):
        st = shell_state([0.2, 1.0], [0.5, 0.5], n=3)
        assert step_row(st).volume == pytest.approx(4 * np.pi / 3)
        st2 = shell_state([0.5], [1.0], n=2)
        assert step_row(st2).volume == pytest.approx(np.pi * 0.25)

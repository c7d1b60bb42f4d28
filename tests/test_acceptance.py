"""Acceptance gate: the nine release criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v` (the per-criterion lines are
printed unconditionally). Every criterion is asserted at its stated
tolerance; the session-scoped fixtures in conftest provide the 22 slab and
20 radial certified collapse runs shared by criteria 2 and 3.
"""

import math

import numpy as np
import pytest

from dustlab import sample, simulate
from dustlab.core import (HubbleVelocity, NumericalSettings, ball_volume,
                          validate_scenario)
from dustlab.functional import proof_chain_report
from dustlab.riccati import (Case, RiccatiParams, blowup_time_upper_bound,
                             chae_tadmor_bounds, check_blowup_conditions,
                             integrate_comparison_ode)

from conftest import comparison_solution, derivatives, make_ball, make_slab, step_row

DRAWS_PER_REGIME = 1000


def report(criterion, ok, detail, capsys):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} -- {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def certificate_for(vs):
    return check_blowup_conditions(vs.total_mass, vs.v_sup, vs.lam,
                                   vs.dimension, vs.h0)


def all_runs(acceptance_runs_1d, acceptance_runs_radial):
    return acceptance_runs_1d + acceptance_runs_radial


class TestCriterion1ClosedFormVsOracle:
    def _draw_params(self, rng, regime):
        mass = rng.uniform(0.5, 1.6)
        n = int(rng.integers(1, 4))
        a = 1.0 / (mass * n)
        if regime == "b>0":
            b = rng.uniform(0.2, 2.0)
            h0 = rng.uniform(-3.0, 3.0)
        elif regime == "b=0":
            b = 0.0
            h0 = rng.uniform(-3.0, -0.1)
        else:  # b<0 certified
            b = -rng.uniform(0.2, 2.0)
            c = math.sqrt(-b / a)
            h0 = -c * (1.0 + rng.uniform(0.05, 2.0))
        return RiccatiParams(a=a, b=b, h0=h0)

    def test_criterion_1(self, capsys):
        rng = np.random.default_rng(20260824)
        worst = 0.0
        for regime in ("b>0", "b=0", "b<0"):
            for _ in range(DRAWS_PER_REGIME):
                p = self._draw_params(rng, regime)
                t_exact = blowup_time_upper_bound(p)
                path = integrate_comparison_ode(p, until=2.0 * t_exact + 1.0)
                err = abs(path.pole_time - t_exact) / max(1.0, t_exact)
                worst = max(worst, err)
        spot1 = blowup_time_upper_bound(RiccatiParams(1.0, 1.0, 0.0))
        spot2 = blowup_time_upper_bound(RiccatiParams(1.0, -1.0, -2.0))
        ok = (worst <= 1e-6
              and abs(spot1 - math.pi / 2) < 1e-12
              and abs(spot2 - 0.5 * math.log(3.0)) < 1e-12)
        report(1, ok,
               f"closed form vs oracle on {3 * DRAWS_PER_REGIME} draws: "
               f"worst |dT|/max(1,T) = {worst:.3e} (<= 1e-6); "
               f"spot T(1,1,0,1,0)={spot1:.12f} (pi/2), "
               f"T(1,1,2,1,-2)={spot2:.12f} (ln3/2)", capsys)


class TestCriterion2CertificateSoundness:
    def test_criterion_2(self, acceptance_runs_1d, acceptance_runs_radial, capsys):
        runs = all_runs(acceptance_runs_1d, acceptance_runs_radial)
        slacks = []
        failures = []
        for vs, traj in runs:
            cert = certificate_for(vs)
            if cert.t_bound is None:
                failures.append(f"no certificate for lam={vs.lam}")
                continue
            if traj.event is None:
                failures.append(f"no event by t={traj.times[-1]:g} "
                                f"(bound {cert.t_bound:g}, lam={vs.lam})")
                continue
            if traj.event.t_hi > cert.t_bound + 1e-6:
                failures.append(f"event {traj.event.t_hi:g} after bound {cert.t_bound:g}")
            bad_support = any(step_row(st).volume_upper > vs.v_sup * (1 + 1e-12)
                              for st in traj.states)
            if bad_support:
                failures.append(f"support escaped v_sup={vs.v_sup:g} (lam={vs.lam})")
            slacks.append(cert.t_bound - traj.event.t_hi)
        slacks = np.array(slacks)
        ok = not failures and len(runs) >= 40
        report(2, ok,
               f"{len(acceptance_runs_1d)} slab + {len(acceptance_runs_radial)} radial "
               f"certified runs, all events within bound and support within v_sup; "
               f"slack min/median/max = {slacks.min():.3f}/"
               f"{np.median(slacks):.3f}/{slacks.max():.3f}"
               + ("" if ok else f"; failures: {failures}"), capsys)


class TestCriterion3ProofChain:
    def test_criterion_3(self, acceptance_runs_1d, acceptance_runs_radial, capsys):
        worst_div = math.inf
        worst_rho = math.inf
        worst_ric = -math.inf
        violations = 0
        for vs, traj in all_runs(acceptance_runs_1d, acceptance_runs_radial):
            rep = proof_chain_report(traj)
            if not rep.holds:
                violations += 1
            worst_div = min(worst_div, rep.worst_cs_divergence)
            worst_rho = min(worst_rho, rep.worst_cs_density)
            worst_ric = max(worst_ric, rep.worst_riccati)
        ok = (violations == 0 and worst_div >= -1e-6 and worst_rho >= -1e-6
              and worst_ric <= 1e-6)
        report(3, ok,
               f"proof chain on all runs: worst cs_divergence {worst_div:.3e} "
               f"(>= -1e-6), worst cs_density {worst_rho:.3e} (>= -1e-6), "
               f"worst riccati {worst_ric:.3e} (<= +1e-6)", capsys)


class TestCriterion4TransportConvergence:
    def test_criterion_4(self, capsys):
        sc = make_slab(rho0=0.5, t_end=1.0)
        coarse = sample(sc, np.arange(0.2, 1.0001, 0.05))
        fine = sample(sc, np.arange(0.2, 1.0001, 0.025))
        rc = max(s.transport_residual for s in proof_chain_report(coarse).steps)
        rf = max(s.transport_residual for s in proof_chain_report(fine).steps)
        ratio = rc / rf
        ok = 3.5 <= ratio <= 4.5
        report(4, ok,
               f"transport residual halving ratio {ratio:.3f} in [3.5, 4.5] "
               f"(residual {rc:.3e} -> {rf:.3e})", capsys)


class TestCriterion5CharacteristicIdentity:
    @staticmethod
    def _v_closed_form(t, lam, v0, s0):
        # v = 1/rho obeys v'' = lam v - 1 exactly along each marker,
        # a consequence of drho/dt = -rho w and dw/dt = -w^2 - rho + lam
        if lam == 0.0:
            return v0 + s0 * t - 0.5 * t * t
        rt = math.sqrt(lam)
        return ((v0 - 1.0 / lam) * np.cosh(rt * t)
                + (s0 / rt) * np.sinh(rt * t) + 1.0 / lam)

    def test_criterion_5(self, acceptance_runs_1d, capsys):
        worst = 0.0
        tol = 10.0 * max(vs.scenario.settings.rel_tol for vs, _ in acceptance_runs_1d)
        for vs, traj in acceptance_runs_1d:
            v0 = 1.0 / vs.initial.densities
            s0 = vs.initial.eig_radial / vs.initial.densities
            for st in traj.states:
                v_ref = self._v_closed_form(st.time, vs.lam, v0, s0)
                err = np.max(np.abs(1.0 / st.densities - v_ref)
                             / np.maximum(1.0, np.abs(v_ref)))
                worst = max(worst, err)
        ok = worst <= tol
        report(5, ok,
               f"1-D characteristic identity via the exact invariant "
               f"(1/rho)'' = lam/rho - 1: worst residual {worst:.3e} "
               f"<= 10*rel_tol = {tol:.1e}, every marker, every step", capsys)


def comparison_exceedance(trajectory, params: RiccatiParams) -> float:
    """max over accepted steps of H(t) - y(t) for t before the pole.

    Nonpositive (within tolerance) whenever H(0) <= y(0) and the support
    volume hypothesis holds: the simulated functional must stay below the
    comparison solution. Raises NoCertificateError if y does not blow up.
    """
    t_pole = blowup_time_upper_bound(params)
    worst = -math.inf
    for t, h in zip(trajectory.times.tolist(), trajectory.columns.h.tolist()):
        if t >= t_pole:
            break
        worst = max(worst, h - comparison_solution(params, t))
    return worst


class TestCriterion6ComparisonProperty:
    def test_criterion_6(self, uniform_collapse_traj, capsys):
        traj = uniform_collapse_traj
        vs = traj.validated
        cert = certificate_for(vs)
        params = RiccatiParams.from_macroscopic(vs.total_mass, vs.v_sup,
                                                vs.lam, vs.dimension, vs.h0)
        exceed = comparison_exceedance(traj, params)
        t_ref = (math.pi / 2) / math.sqrt(0.5)
        ok = (abs(cert.t_bound - t_ref) < 1e-12
              and exceed <= 1e-6
              and traj.event is not None
              and traj.event.t_hi <= t_ref)
        report(6, ok,
               f"canonical run (M=1, v_sup=2, lam=0): T_bound={cert.t_bound:.6f} "
               f"(= pi/2/sqrt(0.5)), max H(t)-y(t) = {exceed:.3e} (<= 1e-6), "
               f"event at {traj.event.t_hi:.6f} <= {t_ref:.4f}", capsys)


class TestCriterion7EquilibriumFixture:
    def test_criterion_7(self, capsys):
        lam = 0.5
        settings = NumericalSettings()
        fixtures = [
            make_slab(rho0=lam, lam=lam, v_sup=2.0, t_end=2.0, settings=settings),
            make_ball(n=3, rho0=lam, lam=lam, v_sup=ball_volume(3, 1.0),
                      t_end=2.0, settings=settings),
        ]
        worst_h = worst_force = worst_ric = 0.0
        ok = True
        for sc in fixtures:
            traj = simulate(sc, keep_states=True)
            ok = ok and traj.event is None
            for st in traj.states:
                worst_h = max(worst_h, abs(step_row(st).h))
                worst_force = max(worst_force, float(np.max(np.abs(derivatives(st, lam)[1]))))
            rep = proof_chain_report(traj)
            worst_ric = max(worst_ric,
                            max(abs(s.riccati_residual) for s in rep.steps))
        ok = ok and worst_h < 1e-10 and worst_force < 1e-10 and worst_ric < 1e-10
        report(7, ok,
               f"equilibrium slab+ball (rho = lam = {lam}, exact fill): "
               f"max |H| = {worst_h:.2e}, max |force| = {worst_force:.2e}, "
               f"max |riccati residual| = {worst_ric:.2e} (all < 1e-10)", capsys)


class TestCriterion8SweepBoundary:
    def test_criterion_8(self, capsys):
        lam_cases = {lam: check_blowup_conditions(1.0, 1.0, lam, 1, h0=0.0).case
                     for lam in (0.0, 0.5, 0.9, 0.999, 1.0, 1.001, 2.0)}
        lam_ok = (all(c is Case.CASE_ONE for lam, c in lam_cases.items() if lam < 1.0)
                  and all(c is Case.NO_CERTIFICATE
                          for lam, c in lam_cases.items() if lam >= 1.0))
        h0_cases = {h0: check_blowup_conditions(1.0, 1.0, 2.0, 1, h0=h0).case
                    for h0 in (-2.0, -1.5, -1.001, -1.0, -0.999, -0.5, 0.0)}
        h0_ok = (all(c is Case.CASE_TWO for h0, c in h0_cases.items() if h0 < -1.0)
                 and all(c is Case.NO_CERTIFICATE
                         for h0, c in h0_cases.items() if h0 >= -1.0))
        ok = lam_ok and h0_ok
        report(8, ok,
               "certificate flips exactly at lambda = 1 (M=1, v_sup=1, CaseOne "
               "for lambda < 1 only) and exactly at h0 = -1 (lambda=2, N=1, "
               "CaseTwo for h0 < -1 only, strict)", capsys)


class TestCriterion9PointwiseBound:
    def test_criterion_9(self, capsys):
        sc = make_slab(rho0=0.5, velocity=HubbleVelocity(-1.0), t_end=2.0,
                       settings=NumericalSettings())
        vs = validate_scenario(sc)
        bounds = chae_tadmor_bounds(vs.initial.densities, vs.initial.eig_radial, 1)
        traj = simulate(vs)
        ok = (bounds.size == vs.initial.masses.size
              and all(b == pytest.approx(1.0) for b in bounds)
              and traj.event is not None
              and traj.event.t_hi <= 1.0 + 1e-6)
        report(9, ok,
               f"uniform slab with w0 = -1, lam = 0: every marker's pointwise "
               f"bound = 1 = -N/w0; event at t={traj.event.t_hi:.6f} <= 1 + 1e-6 "
               f"(self-gravity accelerates collapse past the vacuum bound)", capsys)

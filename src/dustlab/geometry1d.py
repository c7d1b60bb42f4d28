"""Force law of 1-D slab dust, exact along Lagrangian characteristics.

Along every characteristic rho' = -rho w and w' = -w^2 - rho + lambda (w =
u_x, an equality). In v = 1/rho and q = v' = w/rho the system is linear, and
a collapse is a regular zero of v:

    dx/dt = u,   du/dt = -Phi_x(x),   dv/dt = q,   dq/dt = lambda v - 1

The symmetric kernel |x - y|/2, with the background anchored at the center
of mass, gives Phi_x = (M_left - M_right)/2 - lambda (x - x_cm), a marker's
own mass split half-left/half-right. Until the first trigger (M_left -
M_right)/2 is constant and x_cm moves uniformly, so each v, q and gap obeys
z'' = lambda z + k: model_rhs writes the derivatives into the views of the
solver vector [x, u, v, q], and trigger_margins and flow give the closed
form, whose event detector.slab_event reads. u_x is a scalar: the initial
vorticity is zero.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ValidatedScenario, splitter


def _half_mass_difference(masses):
    """(M_left - M_right)/2 per marker, half-self: cum - m/2 - (total - cum
    + m/2), and the total mass as a 0-d array."""
    total = np.array(masses.sum())
    return np.cumsum(masses) - 0.5 * masses - 0.5 * total, total


def model_rhs(vs: ValidatedScenario):
    """rhs(t, yv, fv): (dx, du, dv, dq) at the views yv of the solver vector
    (core.splitter's), written into the views fv and returned as f = fv[0].
    -Phi_x takes the markers in index (= sorted) order."""
    masses = vs.initial.masses
    phi_x, total = _half_mass_difference(masses)
    force = -phi_x  # at lambda = 0
    background = vs.lam != 0.0
    # 0-d: no Python scalar to resolve per call; x_cm is scratch
    lam, one, x_cm = np.array(vs.lam), np.array(1.0), np.empty(())

    def rhs(t, yv, fv):
        _, x, u, v, q, _, _, _ = yv
        f, dx, du, dv, dq, _, _, _ = fv
        dx[...] = u
        if background:
            # -(phi_x - lam (x - x_cm)) is lam (x - x_cm) - phi_x, bit for
            # bit; du holds m x while x_cm is summed from it
            np.add.reduce(np.multiply(masses, x, out=du), out=x_cm)
            np.divide(x_cm, total, out=x_cm)
            np.subtract(x, x_cm, out=du)
            du *= lam
            du -= phi_x
        else:
            du[...] = force
        dv[...] = q
        np.subtract(np.multiply(lam, v, out=dq), one, out=dq)
        return f

    return rhs


def trigger_margins(vs: ValidatedScenario):
    """Per trigger of core.TRIGGERS, in order, the margins m of vs.y0's
    markers (m < 0 where it holds) as (m0, m1, k): m(0), m'(0) and m'' =
    lambda m + k. Gap x[j+1] - x[j] - gap_thr; |div u| v + q/div_thr (row 0)
    and v - q/div_thr (row 1); density v - 1/rho_thr."""
    s, lam = vs.scenario.settings, vs.lam
    _, x, u, v, q, *_ = splitter(vs.initial.masses.size, 1)(vs.y0)
    d, sign = s.div_blowup_threshold, np.array([[1.0], [-1.0]])
    dq = lam * v - 1.0
    return ((np.diff(x) - s.crossing_gap_threshold, np.diff(u),
             lam * s.crossing_gap_threshold - np.diff(_half_mass_difference(vs.initial.masses)[0])),
            (v + sign * (q / d), q + sign * (dq / d), -1.0),
            (v - 1.0 / s.rho_blowup_threshold, q, lam / s.rho_blowup_threshold - 1.0))


def flow(lam, t, z0, z1, k=0.0):
    """z(t) = z0 C + z1 S + k P on scalars, from z(0) = z0, z'(0) = z1 along
    z'' = lam z + k: (C, S, P) = (1, t, t^2/2) at lam = 0, else (cosh(r t),
    sinh(r t)/r, 2 sinh(r t/2)^2/r^2) with r = sqrt(|lam|), cos and sin for
    cosh and sinh at lam < 0, by libm."""
    if lam == 0.0:
        return z0 + z1 * t + k * (0.5 * t * t)
    r = math.sqrt(abs(lam))
    cosine, sine = (math.cosh, math.sinh) if lam > 0 else (math.cos, math.sin)
    return z0 * cosine(r * t) + z1 * sine(r * t) / r + k * 2.0 * (sine(0.5 * r * t) / r) ** 2

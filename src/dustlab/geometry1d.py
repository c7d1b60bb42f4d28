"""Force law of 1-D slab dust, exact along Lagrangian characteristics.

Along every characteristic rho' = -rho w and w' = -w^2 - rho + lambda (w =
u_x; equality, not inequality). In the deformation v = 1/rho and its rate
q = v' = w/rho the system is linear, and a collapse is a regular zero of v:

    dx/dt = u,   du/dt = -Phi_x(x),   dv/dt = q,   dq/dt = lambda v - 1

The 1-D Poisson gauge: Phi has a harmonic (linear) freedom, fixed by the
symmetric kernel |x - y|/2 and by anchoring the background term at the
center of mass, so Phi_x = (M_left - M_right)/2 - lambda (x - x_cm). A
marker's own mass splits half-left/half-right (zero self-force), the
continuum limit of the sgn kernel.

This module holds the force law only, in one function: model_rhs writes
these derivatives, -Phi_x among them, into the views of the solver vector
[x, u, v, q] that _integrate runs. In 1-D the zero-initial-vorticity
hypothesis is automatic: the velocity gradient is a scalar.
"""

from __future__ import annotations

import numpy as np

from .core import ValidatedScenario


def model_rhs(vs: ValidatedScenario):
    """rhs(t, yv, fv): the time derivatives (dx, du, dv, dq) at the eight
    views yv of the solver vector [x, u, v, q] (_integrate.splitter's),
    written into the views fv of an output vector, which is returned as the
    one array f = fv[0]. The run constants depend on the masses alone and
    are computed once; -Phi_x takes the markers in index (= sorted) order."""
    masses = vs.initial.masses
    total = np.array(masses.sum())
    # (M_left - M_right)/2 with the half-self convention: cum - m/2 - (total - cum + m/2)
    phi_x = np.cumsum(masses) - 0.5 * masses - 0.5 * total
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

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

This module holds the force law only: model_rhs, these derivatives on the
views of the solver vector [x, u, v, q] that _integrate runs, is its one
form. In 1-D the zero-initial-vorticity hypothesis is automatic: the
velocity gradient is a scalar and has no antisymmetric part.
"""

from __future__ import annotations

import numpy as np

from .core import ValidatedScenario


def _force_constants(masses):
    """Run constants of the slab force law, which depend on the masses alone:
    the masses, the total mass (0-d), the self-gravity part of Phi_x, and a
    0-d scratch for the center of mass."""
    total = masses.sum()
    # (M_left - M_right)/2 with the half-self convention: cum - m/2 - (total - cum + m/2)
    phi_x = np.cumsum(masses) - 0.5 * masses - 0.5 * total
    return masses, np.array(total), phi_x, np.empty(())


def _forces(constants, positions, lam, out):
    """-Phi_x at every marker at lambda = lam, a 0-d array, markers taken in
    index (= sorted) order, written into out, which is returned."""
    masses, total, phi_x, x_cm = constants
    # -(phi_x - lam (x - x_cm)) is lam (x - x_cm) - phi_x, bit for bit; out
    # holds m x while x_cm is summed from it
    np.add.reduce(np.multiply(masses, positions, out=out), out=x_cm)
    x_cm /= total
    np.subtract(positions, x_cm, out=out)
    out *= lam
    out -= phi_x
    return out


def model_rhs(vs: ValidatedScenario):
    """rhs(t, yv, fv): the time derivatives (dx, du, dv, dq) at the views
    yv of the solver vector [x, u, v, q], written into the views fv of an
    output vector, which is returned as the one array f = fv[0], with the
    run constants computed once."""
    constants = _force_constants(vs.initial.masses)
    force = -constants[2]  # -Phi_x, the force at lambda = 0
    background = vs.lam != 0.0
    lam, one = np.array(vs.lam), np.array(1.0)  # 0-d: no Python scalar to resolve per call

    def rhs(t, yv, fv):
        _, x, u, v, q, _, _, _, _ = yv
        f, dx, du, dv, dq, _, _, _, _ = fv
        dx[...] = u
        if background:
            _forces(constants, x, lam, du)
        else:
            du[...] = force
        dv[...] = q
        np.subtract(np.multiply(lam, v, out=dq), one, out=dq)
        return f

    return rhs

"""Force law of 1-D slab dust, exact along Lagrangian characteristics.

Along every characteristic the 1-D system closes exactly:

    dx/dt   = u
    du/dt   = -Phi_x(x)
    drho/dt = -rho w
    dw/dt   = -w^2 - rho + lambda          (w = u_x; equality, not inequality)

The 1-D Poisson gauge: Phi has a harmonic (linear) freedom, fixed by the
symmetric kernel |x - y|/2 and by anchoring the background term at the
center of mass, so Phi_x = (M_left - M_right)/2 - lambda (x - x_cm). A
marker's own mass splits half-left/half-right (zero self-force), the
continuum limit of the sgn kernel.

This module holds the force law only: model_rhs, these derivatives on the
solver vector [x, u, rho, w] that _integrate runs, is its one form. In 1-D
the zero-initial-vorticity hypothesis is automatic: the velocity gradient is
a scalar and has no antisymmetric part.
"""

from __future__ import annotations

import numpy as np

from .core import ValidatedScenario


def _force_constants(masses):
    """Run constants of the slab force law, which depend on the masses alone:
    the total mass, the self-gravity part of Phi_x and its negation (the
    force when lambda = 0)."""
    total = masses.sum()
    # (M_left - M_right)/2 with the half-self convention: cum - m/2 - (total - cum + m/2)
    phi_x = np.cumsum(masses) - 0.5 * masses - 0.5 * total
    return total, phi_x, -phi_x


def _forces(masses, constants, positions, lam, out):
    """-Phi_x at every marker, markers taken in index (= sorted) order,
    written into out, which is returned."""
    total, phi_x, force = constants
    if lam == 0.0:
        out[:] = force
        return out
    # -(phi_x - lam (x - x_cm)) is lam (x - x_cm) - phi_x, bit for bit; out
    # holds m x while x_cm is summed from it
    x_cm = np.add.reduce(np.multiply(masses, positions, out=out)) / total
    np.subtract(positions, x_cm, out=out)
    out *= lam
    out -= phi_x
    return out


def model_rhs(vs: ValidatedScenario):
    """rhs(t, y, out=None): the time derivatives (dx, du, drho, dw) on the
    solver vector [x, u, rho, w], with the run constants computed once. With
    out, the derivative is written into out, which is returned; without it,
    into a new vector."""
    masses = vs.masses
    lam = vs.lam
    lam_0d = np.array(lam)  # NumPy resolves a Python scalar operand anew on every call
    n = masses.size
    constants = _force_constants(masses)

    def rhs(t, y, out=None):
        x, u, rho, w = y[:n], y[n:2 * n], y[2 * n:3 * n], y[3 * n:]
        f = np.empty(4 * n) if out is None else out
        f[:n] = u
        _forces(masses, constants, x, lam, f[n:2 * n])
        np.multiply(rho, w, out=f[2 * n:3 * n])
        dw = np.multiply(w, w, out=f[3 * n:])
        # -(a * b) is (-a) * b, bit for bit: drho and dw negated in one call
        rates = f[2 * n:]
        np.negative(rates, out=rates)
        dw -= rho
        dw += lam_0d  # kept at lam = 0: -0.0 + 0.0 is +0.0
        return f

    return rhs

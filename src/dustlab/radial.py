"""Lagrangian shell solver for radially symmetric dust in N >= 2 dimensions.

The velocity gradient has eigenvalues du/dr (simple) and u/r (multiplicity
N-1), exactly evolved along a shell:

    dr/dt       = u
    du/dt       = -Phi_r
    drho/dt     = -rho (l1 + (N-1) l2)
    dl1/dt      = -l1^2 - Phi_rr
    dl2/dt      = -l2^2 - Phi_r / r

with the radial Poisson field (no 4 pi: dimensionless normalization
Delta Phi = rho - lambda, sigma the unit-sphere surface measure)

    Phi_r(r)  = m_enc(r) / (sigma r^(N-1)) - lambda r / N
    Phi_rr    = (rho - lambda) - (N-1) Phi_r / r.

(Phi = Phi_rho - lambda |x|^2 / (2N): the radial particular solution for
the -lambda source.) model_rhs writes these derivatives on the views of the
solver vector [r, u, rho, l1, l2]; _centre_rates patches shells near r = 0.
"""

from __future__ import annotations

import numpy as np

from .core import ValidatedScenario, unit_sphere_area

# floor of sigma r^(N-1) (of the product: sigma is 2.4e-38 at N = 100), and
# the |r| up to which a shell counts as at the center; keeps trial RK stages
# finite if a radius touches zero
_R_FLOOR = 1e-300


def _centre_rates(r, rho, l1, l2, m_enc, sigma, lam, n):
    """du, dl1 and dl2 of shells at or near the center, with the floor and
    limits model_rhs's law leaves out: Phi_r is odd in r, so trial stages
    that cross r=0 stay finite, and 0 at r=0, where sigma r^(N-1) is floored."""
    area = np.maximum(sigma * np.abs(r) ** (n - 1), _R_FLOOR)
    phi_r = np.sign(r) * m_enc / area - lam * r / n
    center = np.abs(r) <= _R_FLOOR
    du = np.where(center, 0.0, -phi_r)
    with np.errstate(over="ignore"):
        phi_r_over_r = phi_r / np.where(r == 0.0, _R_FLOOR, r)
        tangential = (n - 1) * phi_r_over_r
    # a radius so small that (N-1) Phi_r/r overflows is taken at the center,
    # as r=0 is: Phi_r/r -> 0 and, since the tangential direction degenerates
    # into the radial one there (removable singularity), l2 continued by l1
    tiny = np.isinf(tangential)
    phi_r_over_r[tiny] = tangential[tiny] = 0.0
    dl1 = -l1 * l1 - ((rho - lam) - tangential)
    dl2 = np.where(center | tiny, dl1, -l2 * l2 - phi_r_over_r)
    return du, dl1, dl2


def model_rhs(vs: ValidatedScenario):
    """rhs(t, yv, fv): the time derivatives (dr, du, drho, dl1, dl2) at the
    views yv of the solver vector [r, u, rho, l1, l2], written into the
    views fv of an output vector, which is returned as the one array f =
    fv[0], with the run constants and a scratch block of three shell fields
    made once."""
    masses = vs.initial.masses
    n_dim = vs.dimension
    n = masses.size
    nm1 = n_dim - 1
    # the enclosed mass of every shell (half-self convention)
    m_enc = np.cumsum(masses) - 0.5 * masses
    sigma = unit_sphere_area(n_dim)
    # twice the larger of two radii, so that no rounding above it reaches a
    # limit: the radius where sigma r^(N-1) reaches its floor, and the one
    # where the largest m_enc/(sigma r^N), the size of Phi_r/r, reaches 1e300
    r_unmasked = 2.0 * max((_R_FLOOR / sigma) ** (1.0 / nm1),
                           (float(m_enc[-1]) * _R_FLOOR / sigma) ** (1.0 / n_dim))
    background = vs.lam != 0.0
    # the scalar operands as 0-d arrays: NumPy resolves a Python scalar
    # operand anew on every call
    lam, sigma_0d, nm1_0d, n_dim_0d = (np.array(vs.lam), np.array(sigma),
                                       np.array(float(nm1)), np.array(float(n_dim)))
    # what dl1 and dl2 subtract, (rho - lam) - (N-1) Phi_r/r then Phi_r/r,
    # and one term at a time
    scratch = np.empty(3 * n)
    sub, term = scratch[:2 * n], scratch[2 * n:]
    sub_l1, phi_r_over_r = scratch[:n], scratch[n:2 * n]

    def rhs(t, yv, fv):
        _, r, u, rho, l1, l2, _, l12 = yv
        f, dr, du, drho, dl1, dl2, rates, dl12 = fv
        near = None
        # the smallest radius, or the first NaN; r[argmin] costs less than
        # r.min() on a few dozen shells
        if not r[r.argmin()] > r_unmasked:
            # shells at or below r_unmasked, NaN too, run the law below at
            # r = 1 on a copy; _centre_rates then overwrites du, dl1 and dl2
            near = np.flatnonzero(~(r > r_unmasked))
            r_near, r = r[near], r.copy()
            r[near] = 1.0
        # _centre_rates with its floor and limits dropped, which change no
        # value above r_unmasked, and with the lambda terms dropped at lambda =
        # 0, where they are exact no-ops (x - 0.0 = x, and 0.0 r = 0 for the
        # finite r > 0 of a step that can be accepted). Fields next to each
        # other share one call: l1^2 with l2^2, negations, subtractions.
        dr[...] = u
        # sigma r^(N-1) is held where Phi_r/r goes next
        phi_r = np.divide(m_enc, np.multiply(sigma_0d, r ** nm1, out=phi_r_over_r), out=du)
        if background:
            phi_r -= np.divide(np.multiply(lam, r, out=term), n_dim_0d, out=term)
        np.divide(phi_r, r, out=phi_r_over_r)
        np.subtract(np.subtract(rho, lam, out=term) if background else rho,
                    np.multiply(nm1_0d, phi_r_over_r, out=sub_l1), out=sub_l1)
        np.multiply(rho, np.add(l1, np.multiply(nm1_0d, l2, out=term), out=term), out=drho)
        np.multiply(l12, l12, out=dl12)
        # -(a * b) is (-a) * b, bit for bit: du = -Phi_r, drho, dl1 and dl2
        # negated in one call
        np.negative(rates, out=rates)
        np.subtract(dl12, sub, out=dl12)
        if near is not None:
            du[near], dl1[near], dl2[near] = _centre_rates(
                r_near, rho[near], l1[near], l2[near], m_enc[near], sigma, vs.lam, n_dim)
        return f

    return rhs

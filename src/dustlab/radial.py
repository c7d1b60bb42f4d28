"""Lagrangian shell solver for radially symmetric dust in N >= 2 dimensions.

Under radial symmetry the velocity gradient has eigenvalue du/dr (radial,
simple) and u/r (tangential, multiplicity N-1), and their evolution along a
shell is exact:

    dr/dt       = u
    du/dt       = -Phi_r
    drho/dt     = -rho (l1 + (N-1) l2)
    dl1/dt      = -l1^2 - Phi_rr
    dl2/dt      = -l2^2 - Phi_r / r

with the radial Poisson field (no 4 pi: dimensionless normalization
Delta Phi = rho - lambda, sigma the unit-sphere surface measure)

    Phi_r(r)  = m_enc(r) / (sigma r^(N-1)) - lambda r / N
    Phi_rr    = (rho - lambda) - (N-1) Phi_r / r.

The background decomposition Phi = Phi_rho - lambda |x|^2 / (2N) is the
unique radially symmetric particular solution for the -lambda source.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _integrate
from .core import (Geometry, Trajectory, ValidatedScenario, unit_sphere_area,
                   validate_scenario)
from .errors import CrossedShells, EmptyState, ValidationError, ZeroRadius

# floor of r^(N-1), and the |r| up to which a shell counts as at the center;
# keeps trial RK stages finite if a radius touches zero
_R_FLOOR = 1e-300


@dataclass(frozen=True)
class ShellState:
    time: float
    positions: np.ndarray  # radii, strictly increasing
    velocities: np.ndarray
    densities: np.ndarray
    eig_radial: np.ndarray  # l1 = du/dr
    eig_tangential: np.ndarray  # l2 = u/r
    masses: np.ndarray
    dimension: int
    lam: float = 0.0

    include_origin_gap = True

    def div_u(self):
        return self.eig_radial + (self.dimension - 1) * self.eig_tangential

    def support_volume(self):
        n = self.dimension
        return float(unit_sphere_area(n) * self.positions[-1] ** n / n)

    def support_volume_upper(self):
        """Ball volume through the outer shell plus half that shell's cell
        volume (m/rho); exact for uniform density thanks to volume-median
        shell placement, an upper support estimate otherwise."""
        rho = self.densities[-1]
        if rho <= 0.0:
            return self.support_volume()
        return float(self.support_volume() + 0.5 * self.masses[-1] / rho)


def _check_state(state: ShellState):
    if state.positions.size == 0:
        raise EmptyState("shell state has no shells")
    if np.any(state.positions < 0):
        raise ZeroRadius("negative shell radius")
    if np.any(np.diff(state.positions) <= 0):
        raise CrossedShells("shell radii are not strictly increasing")


def enclosed_mass(state: ShellState, r: float) -> float:
    """Mass strictly inside radius r, plus half of any shell at exactly r."""
    inside = state.masses[state.positions < r].sum()
    at = 0.5 * state.masses[state.positions == r].sum()
    return float(inside + at)


def _shell_constants(masses, n):
    """Run constants of the shell force law, which depend on the masses and
    N alone: the enclosed mass of every shell (half-self convention), sigma,
    and the radius above which no floor or mask of _phi_r and _derivatives
    acts. State functions and the model RHS both take them from here."""
    m_enc = np.cumsum(masses) - 0.5 * masses
    # twice the (N-1)-th root of the floor, so that no rounding of r^(N-1)
    # for a larger radius can reach the floor
    r_unmasked = 2.0 * _R_FLOOR ** (1.0 / (n - 1))
    return m_enc, unit_sphere_area(n), r_unmasked


def _phi_r(constants, radii, lam, n):
    """Radial potential gradient at every shell, half-self-mass convention.

    Odd in r (field of the enclosed mass mirrored through the origin) so
    trial integrator stages that momentarily cross r=0 stay finite-valued;
    zero at r=0 in every dimension, where r^(N-1) is floored.
    """
    m_enc, sigma, _ = constants
    r_pow = np.maximum(np.abs(radii) ** (n - 1), _R_FLOOR)
    grad = np.sign(radii) * m_enc / (sigma * r_pow)
    return grad - lam * radii / n


def radial_force(state: ShellState, at_shell: int) -> float:
    """-Phi_r at the shell; a shell at r=0 feels zero force by symmetry."""
    _check_state(state)
    if state.positions[at_shell] == 0.0:
        return 0.0
    constants = _shell_constants(state.masses, state.dimension)
    return float(-_phi_r(constants, state.positions, state.lam,
                         state.dimension)[at_shell])


def radial_rhs(state: ShellState):
    """Time derivatives (dr, du, drho, dl1, dl2) of all shell fields."""
    _check_state(state)
    n = state.dimension
    phi_r = _phi_r(_shell_constants(state.masses, n), state.positions,
                   state.lam, n)
    return _derivatives(state.positions, state.velocities, state.densities,
                        state.eig_radial, state.eig_tangential, phi_r,
                        state.lam, n)


def _derivatives(r, u, rho, l1, l2, phi_r, lam, n):
    center = np.abs(r) <= _R_FLOOR
    phi_r_over_r = phi_r / np.where(r == 0.0, _R_FLOOR, r)
    # at the exact center the tangential direction degenerates into the
    # radial one (removable singularity); continue l2 by l1 there
    phi_rr = (rho - lam) - (n - 1) * phi_r_over_r
    du = np.where(center, 0.0, -phi_r)
    dl1 = -l1 * l1 - phi_rr
    dl2 = -l2 * l2 - phi_r_over_r
    dl2 = np.where(center, dl1, dl2)
    drho = -rho * (l1 + (n - 1) * l2)
    return u, du, drho, dl1, dl2


def _make_model(vs: ValidatedScenario):
    masses = vs.masses
    lam = vs.lam
    n_dim = vs.dimension
    n = masses.size
    constants = _shell_constants(masses, n_dim)
    m_enc, sigma, r_unmasked = constants
    nm1 = n_dim - 1

    def rhs(t, y):
        r, u, rho, l1, l2 = (y[:n], y[n:2 * n], y[2 * n:3 * n],
                             y[3 * n:4 * n], y[4 * n:])
        # the smallest radius, or the first NaN; r[argmin] costs less than
        # r.min() on a few dozen shells
        if not r[r.argmin()] > r_unmasked:
            # a shell at or near the center: the masked arithmetic of radial_rhs
            phi_r = _phi_r(constants, r, lam, n_dim)
            return np.concatenate(_derivatives(r, u, rho, l1, l2, phi_r, lam, n_dim))
        # _phi_r and _derivatives with their floors and masks dropped, which
        # change no value here. A new vector on every call: RK45 keeps the
        # last one as its derivative at the current state and retries
        # rejected steps from it.
        phi_r = m_enc / (sigma * r ** nm1) - lam * r / n_dim
        phi_r_over_r = phi_r / r
        f = np.empty(5 * n)
        f[:n] = u
        f[n:2 * n] = -phi_r
        f[2 * n:3 * n] = -rho * (l1 + nm1 * l2)
        f[3 * n:4 * n] = -l1 * l1 - ((rho - lam) - nm1 * phi_r_over_r)
        f[4 * n:] = -l2 * l2 - phi_r_over_r
        return f

    def unpack(t, y, copy=True):
        if copy:
            y = y.copy()
        return ShellState(time=float(t), positions=y[:n], velocities=y[n:2 * n],
                          densities=y[2 * n:3 * n], eig_radial=y[3 * n:4 * n],
                          eig_tangential=y[4 * n:], masses=masses, dimension=n_dim,
                          lam=lam)

    def div_rate(f):
        return f[3 * n:4 * n] + (n_dim - 1) * f[4 * n:]

    y0 = np.concatenate((vs.positions, vs.velocities, vs.densities,
                         vs.eig_radial, vs.eig_tangential))
    return rhs, y0, unpack, div_rate


def integrate_radial(scenario, keep_states: bool = False) -> Trajectory:
    """Adaptive RK4(5) integration to t_end or the first detector event.
    keep_states=True keeps every accepted state, not just the first and last."""
    vs = validate_scenario(scenario)
    if vs.geometry is not Geometry.RADIALND:
        raise ValidationError([("BadGeometry", "geometry",
                                "integrate_radial needs a RadialND scenario")])
    return _integrate.run_characteristics(vs, *_make_model(vs), keep_states=keep_states)

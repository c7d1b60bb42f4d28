"""Exact Lagrangian characteristic solver for 1-D slab dust.

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

In 1-D the zero-initial-vorticity hypothesis is automatic: the velocity
gradient is a scalar and has no antisymmetric part.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _integrate
from .core import Geometry, Trajectory, ValidatedScenario, validate_scenario
from .errors import CrossedMarkers, EmptyState, ValidationError


@dataclass(frozen=True)
class SlabFieldState:
    time: float
    positions: np.ndarray
    velocities: np.ndarray
    densities: np.ndarray
    eig_radial: np.ndarray  # w = u_x per marker
    masses: np.ndarray
    lam: float = 0.0

    include_origin_gap = False
    eig_tangential = None
    dimension = 1

    def div_u(self):
        return self.eig_radial

    def support_volume(self):
        return float(self.positions[-1] - self.positions[0])

    def support_volume_upper(self):
        """Marker extent plus the boundary half-cells (cell width m/rho);
        exact for uniform density, an upper support estimate otherwise."""
        extent = self.support_volume()
        lo, hi = self.densities[0], self.densities[-1]
        if lo <= 0.0 or hi <= 0.0:
            return extent
        return float(extent + 0.5 * self.masses[0] / lo
                     + 0.5 * self.masses[-1] / hi)

    @property
    def center_of_mass(self):
        return float(np.sum(self.masses * self.positions) / np.sum(self.masses))


def _force_constants(masses):
    """Run constants of the slab force law, which depend on the masses alone:
    the total mass, the self-gravity part of Phi_x and its negation (the
    force when lambda = 0). State functions and the model RHS both take them
    from here."""
    total = masses.sum()
    # (M_left - M_right)/2 with the half-self convention: cum - m/2 - (total - cum + m/2)
    phi_x = np.cumsum(masses) - 0.5 * masses - 0.5 * total
    return total, phi_x, -phi_x


def _forces(masses, constants, positions, lam):
    """-Phi_x at every marker, markers taken in index (= sorted) order."""
    total, phi_x, force = constants
    if lam == 0.0:
        return force
    x_cm = (masses * positions).sum() / total
    return -(phi_x - lam * (positions - x_cm))


def _check_state(state: SlabFieldState):
    if state.positions.size == 0:
        raise EmptyState("slab state has no markers")
    if np.any(np.diff(state.positions) <= 0):
        raise CrossedMarkers("marker positions are not strictly increasing")


def slab_force(state: SlabFieldState, at_marker: int) -> float:
    _check_state(state)
    return float(_forces(state.masses, _force_constants(state.masses),
                         state.positions, state.lam)[at_marker])


def slab_rhs(state: SlabFieldState):
    """Time derivatives (dx, du, drho, dw) of all marker fields."""
    _check_state(state)
    du = _forces(state.masses, _force_constants(state.masses), state.positions,
                 state.lam)
    w = state.eig_radial
    rho = state.densities
    return state.velocities, du, -rho * w, -w * w - rho + state.lam


def _make_model(vs: ValidatedScenario):
    masses = vs.masses
    lam = vs.lam
    n = masses.size
    constants = _force_constants(masses)

    def rhs(t, y):
        # a new vector on every call: RK45 keeps the last one as its
        # derivative at the current state and retries rejected steps from it
        x, u, rho, w = y[:n], y[n:2 * n], y[2 * n:3 * n], y[3 * n:]
        f = np.empty(4 * n)
        f[:n] = u
        f[n:2 * n] = _forces(masses, constants, x, lam)
        f[2 * n:3 * n] = -rho * w
        f[3 * n:] = -w * w - rho + lam
        return f

    def unpack(t, y, copy=True):
        if copy:
            y = y.copy()
        return SlabFieldState(time=float(t), positions=y[:n], velocities=y[n:2 * n],
                              densities=y[2 * n:3 * n], eig_radial=y[3 * n:],
                              masses=masses, lam=lam)

    def div_rate(f):
        return f[3 * n:]

    y0 = np.concatenate((vs.positions, vs.velocities, vs.densities, vs.eig_radial))
    return rhs, y0, unpack, div_rate


def integrate_slab(scenario, keep_states: bool = False) -> Trajectory:
    """Adaptive RK4(5) integration to t_end or the first detector event.
    keep_states=True keeps every accepted state, not just the first and last."""
    vs = validate_scenario(scenario)
    if vs.geometry is not Geometry.SLAB1D:
        raise ValidationError([("BadGeometry", "geometry",
                                "integrate_slab needs a Slab1D scenario")])
    return _integrate.run_characteristics(vs, *_make_model(vs), keep_states=keep_states)


def sample_slab(scenario, times) -> Trajectory:
    """States at the requested times via dense sampling (no event scan)."""
    vs = validate_scenario(scenario)
    return _integrate.sample_states(vs, *_make_model(vs), times)

import functools
import math
from dataclasses import replace

import numpy as np
import pytest

from dustlab import _integrate, _model_rhs, functional, simulate
from dustlab.core import (GaussianDensity, Geometry, HubbleVelocity,
                          NumericalSettings, Scenario, UniformDensity,
                          UniformVelocity, ball_volume, unit_sphere_area,
                          validate_scenario)
from dustlab.riccati import RiccatiParams, blowup_time_upper_bound

FAST = NumericalSettings(rel_tol=1e-9, abs_tol=1e-11)


def make_slab(rho0=0.5, lam=0.0, v_sup=None, velocity=None, markers=40,
              t_end=8.0, density=None, settings=FAST):
    density = density or UniformDensity(rho0, -1.0, 1.0)
    lo, hi = density.support
    return Scenario(geometry=Geometry.SLAB1D, dimension=1, lam=lam,
                    v_sup=v_sup if v_sup is not None else hi - lo,
                    density=density, velocity=velocity or UniformVelocity(0.0),
                    marker_count=markers, t_end=t_end, settings=settings)


def make_ball(n=3, rho0=0.5, lam=0.0, v_sup=None, velocity=None, markers=40,
              t_end=10.0, density=None, settings=FAST):
    density = density or UniformDensity(rho0, 0.0, 1.0)
    _, radius = density.support
    return Scenario(geometry=Geometry.RADIALND, dimension=n, lam=lam,
                    v_sup=v_sup if v_sup is not None else ball_volume(n, radius),
                    density=density, velocity=velocity or UniformVelocity(0.0),
                    marker_count=markers, t_end=t_end, settings=settings)


MARKER_FIELDS = ("positions", "velocities", "densities", "eig_radial",
                 "eig_tangential", "masses")


@functools.lru_cache(maxsize=None)
def _validated(dimension, lam):
    sc = make_slab(lam=lam) if dimension == 1 else make_ball(n=dimension, lam=lam)
    return validate_scenario(sc)


def derivatives(state, lam=0.0):
    """The force law at a FieldState, under its own masses and dimension and
    the background constant lam: model_rhs(vs) of its geometry at the
    _integrate.layout vector of a scenario whose markers are replaced by the
    state's, split into one array per field, (dx, du, drho, dw) or (dr, du,
    drho, dl1, dl2)."""
    vs = replace(_validated(state.dimension, lam),
                 **{name: getattr(state, name) for name in MARKER_FIELDS})
    y0, split, _, _ = _integrate.layout(vs)
    rhs = flat(_model_rhs(vs), split)
    return np.split(rhs(0.0, y0[0]), 4 if vs.dimension == 1 else 5)


def flat(rhs, split):
    """rhs(t, yv, fv) on flat solver vectors, as scipy's RK45 calls a
    right-hand side: flat_rhs(t, y, out=None) splits y and out (a new vector
    without it), delegates, and returns out."""
    def flat_rhs(t, y, out=None):
        out = np.empty_like(y) if out is None else out
        return rhs(t, split(y), split(out))

    return flat_rhs


def support_volume_upper(volume, densities, masses, dimension: int):
    """The support volume plus half the cell volume (m/rho) of each boundary
    marker: both ends of the slab, the outer shell of a ball. Exact for
    uniform density (shells sit at their volume medians), an upper support
    estimate otherwise."""
    rho, m = densities, masses
    slab = dimension == 1
    if rho[-1] <= 0.0 or (slab and rho[0] <= 0.0):
        return volume
    if slab:
        volume += 0.5 * m[0] / rho[0]
    return float(volume + 0.5 * m[-1] / rho[-1])


class BeyondBlowup(Exception):
    """Comparison solution evaluated at or past its pole."""


def comparison_solution(params: RiccatiParams, t):
    """Closed-form y(t) of a comparison ODE that blows up, the only kind the
    certificates use; raises NoCertificateError for one that does not, and
    BeyondBlowup at or past the pole."""
    a, b, h0 = params.a, params.b, params.h0
    t = np.asarray(t, dtype=float)
    t_pole = blowup_time_upper_bound(params)
    if np.any(t >= t_pole):
        raise BeyondBlowup(f"t >= pole time {t_pole:g}")
    c = params.equilibrium()
    if c is None:
        k = math.sqrt(a * b)
        theta0 = math.atan(h0 * math.sqrt(a / b))
        out = math.sqrt(b / a) * np.tan(theta0 - k * t)
    elif c == 0:
        out = h0 / (1.0 + a * h0 * t)
    else:
        z0 = (h0 - c) / (h0 + c)
        z = z0 * np.exp(-2.0 * a * c * t)
        out = c * (1.0 + z) / (1.0 - z)
    if out.ndim == 0:
        return float(out)
    return out


def step_row(state):
    """The StepRow of a FieldState, by the run's reducer on the views of the
    solver vector of its fields; the rate column is NaN."""
    fields = [state.positions, state.velocities, state.densities, state.eig_radial]
    if state.dimension > 1:
        fields.append(state.eig_tangential)
    split = _integrate.splitter(state.masses.size, state.dimension)
    reduce = functional.reducer(state.masses, state.dimension)
    return reduce(state.time, split(np.concatenate(fields)))


# the floor of r^(N-1) in the masked shell arithmetic
R_FLOOR = 1e-300


def masked_shell_rhs(vs, y):
    """The shell derivatives on the solver vector y by the masked arithmetic
    of the shell force law, every field of every shell at once: Phi_r odd in
    r with r^(N-1) floored, du = 0 at |r| <= R_FLOOR, and Phi_r/r -> 0 with
    dl2 = dl1 where r = 0 or (N-1) Phi_r/r overflows. The model closure must
    give its bytes on every vector."""
    n, lam = vs.dimension, vs.lam
    r, u, rho, l1, l2 = np.split(y, 5)
    m_enc = np.cumsum(vs.masses) - 0.5 * vs.masses
    r_pow = np.maximum(np.abs(r) ** (n - 1), R_FLOOR)
    phi_r = np.sign(r) * m_enc / (unit_sphere_area(n) * r_pow) - lam * r / n
    center = np.abs(r) <= R_FLOOR
    du = np.where(center, 0.0, -phi_r)
    with np.errstate(over="ignore"):
        phi_r_over_r = phi_r / np.where(r == 0.0, R_FLOOR, r)
        tangential = (n - 1) * phi_r_over_r
    tiny = np.isinf(tangential)
    phi_r_over_r[tiny] = tangential[tiny] = 0.0
    center |= tiny
    dl1 = -l1 * l1 - ((rho - lam) - tangential)
    dl2 = -l2 * l2 - phi_r_over_r
    dl2 = np.where(center, dl1, dl2)
    drho = -rho * (l1 + (n - 1) * l2)
    return np.concatenate((u, du, drho, dl1, dl2))


def collapse_scenarios_1d():
    """Contracting slab scenarios certified by condition (1) or (2)."""
    out = []
    for rho0 in (0.3, 0.5, 0.8, 1.0):
        for lam_frac in (0.0, 0.4):
            for vel in (UniformVelocity(0.0), HubbleVelocity(-0.5)):
                out.append(make_slab(rho0=rho0, lam=lam_frac * rho0, velocity=vel))
    for amp in (0.5, 1.0):
        for vel in (UniformVelocity(0.0), HubbleVelocity(-0.5)):
            out.append(make_slab(density=GaussianDensity(amp, 0.0, 0.5, -1.0, 1.0),
                                 velocity=vel))
    # condition (2): lambda above M/v_sup, strongly contracting start
    out.append(make_slab(rho0=0.5, lam=0.8, velocity=HubbleVelocity(-1.0)))
    out.append(make_slab(rho0=0.8, lam=1.0, velocity=HubbleVelocity(-1.0)))
    return out


def collapse_scenarios_radial():
    out = []
    for n in (2, 3):
        for rho0 in (0.3, 0.5, 0.8, 1.2):
            for vel in (UniformVelocity(0.0), HubbleVelocity(-0.5)):
                out.append(make_ball(n=n, rho0=rho0, velocity=vel))
        out.append(make_ball(n=n, rho0=0.5, lam=0.2, velocity=UniformVelocity(0.0)))
        out.append(make_ball(n=n, density=GaussianDensity(1.0, 0.0, 0.5, 0.0, 1.0),
                             velocity=UniformVelocity(0.0)))
    return out


def simulate_all_states(sc):
    """simulate with every accepted state kept, for checks that iterate them."""
    traj = simulate(sc, keep_states=True)
    assert len(traj.states) == len(traj)
    return traj


@pytest.fixture(scope="session")
def uniform_collapse_traj():
    """Canonical uniform 1-D collapse at default (tight) tolerances."""
    sc = make_slab(rho0=0.5, v_sup=2.0, t_end=5.0, settings=NumericalSettings())
    return simulate_all_states(sc)


@pytest.fixture(scope="session")
def ball_collapse_traj():
    sc = make_ball(n=3, rho0=0.5, t_end=10.0, settings=NumericalSettings())
    return simulate_all_states(sc)


@pytest.fixture(scope="session")
def acceptance_runs_1d():
    return [(validate_scenario(sc), simulate_all_states(sc)) for sc in collapse_scenarios_1d()]


@pytest.fixture(scope="session")
def acceptance_runs_radial():
    return [(validate_scenario(sc), simulate_all_states(sc))
            for sc in collapse_scenarios_radial()]

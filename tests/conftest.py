import functools
import importlib.util
import math
import pathlib
import warnings
from dataclasses import replace

import numpy as np
import pytest
import yaml

from dustlab import _integrate, _model_rhs, simulate
from dustlab.core import (GaussianDensity, Geometry, HubbleVelocity,
                          NumericalSettings, Scenario, UniformDensity,
                          UniformVelocity, ball_volume, scenario_from_dict,
                          unit_sphere_area, validate_scenario)
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


@functools.lru_cache(maxsize=None)
def _validated(dimension, lam):
    sc = make_slab(lam=lam) if dimension == 1 else make_ball(n=dimension, lam=lam)
    return validate_scenario(sc)


def solver_vector(state):
    """The solver vector of a state's fields: [x, u, v, q] in the slab's
    chart, v = 1/rho and q = w v, and [r, u, rho, l1, l2] for shells."""
    if state.dimension == 1:
        v = 1.0 / state.densities
        return np.concatenate([state.positions, state.velocities, v, state.eig_radial * v])
    return np.concatenate([state.positions, state.velocities, state.densities,
                           state.eig_radial, state.eig_tangential])


def solver_state(state, lam=0.0):
    """The scenario of a FieldState (its markers and solver vector in place
    of _validated's), the views of that solver vector and the run's split
    and reducer. A state that validation or a run unpacked holds its
    positions as a view of its solver vector, which is used: the slab's
    chart holds v = 1/rho and q = w v, and the state's rho and w give v and
    q back only to within an ulp. Any other state gets solver_vector's."""
    y = solver_vector(state)
    base = state.positions.base
    if base is not None and base.size == y.size:
        y = base
    vs = replace(_validated(state.dimension, lam), y0=y, initial=state)
    y0, split, _, reduce = _integrate.layout(vs)
    return vs, y0, split, reduce


def derivatives(state, lam=0.0):
    """The force law at a FieldState, under its own masses and dimension and
    the background constant lam: model_rhs(vs) of its geometry at its
    solver vector (solver_state's), split into one array per field, (dx,
    du, dv, dq) or (dr, du, drho, dl1, dl2)."""
    vs, y0, split, _ = solver_state(state, lam)
    rhs = flat(_model_rhs(vs), split)
    return np.split(rhs(0.0, y0[0]), 4 if vs.dimension == 1 else 5)


def slab_div_rate(state, lam=0.0):
    """D(div u)/Dt = D(q/v)/Dt = rho (dq - w dv) of a slab state, from the
    force law in the chart [x, u, v, q]."""
    _, _, dv, dq = derivatives(state, lam)
    return (dq - state.eig_radial * dv) * state.densities


def flat(rhs, split):
    """rhs(t, yv, fv) on flat solver vectors, as the reference loop
    dormand_prince calls a right-hand side: flat_rhs(t, y, out=None) splits
    y and out (a new vector without it), delegates, and returns out."""
    def flat_rhs(t, y, out=None):
        out = np.empty_like(y) if out is None else out
        return rhs(t, split(y), split(out))

    return flat_rhs


# The 5(4) pair of Dormand & Prince (1980), J. Comput. Appl. Math. 6:19-26:
# stage nodes, stage coefficients, fifth-order weights, and the error weights
# (fifth minus fourth order, the seventh on the derivative at the new state)
DP_NODES = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
DP_STAGES = (
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
)
DP_WEIGHTS = np.array([35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
DP_ERROR = np.array([-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525,
                     1 / 40])


def rms(x):
    """The RMS norm, sqrt(x.x) / sqrt(n)."""
    return np.sqrt(x.dot(x)) / x.size ** 0.5


def dormand_prince(fun, t0, y0, t_bound, rtol, atol, max_step=math.inf, h_abs=None):
    """The explicit Runge-Kutta 5(4) method of Dormand & Prince with local
    extrapolation, written out as one loop: the reference that
    tests/test_integrate.py holds _integrate.DormandPrince to, bit for bit.

    fun(t, y) returns the derivative at the flat vector y as a new array.
    An rtol below 100 machine epsilons is raised to that, with a warning.
    The first step tries h_abs, by default Hairer, Norsett & Wanner's
    estimate (Solving ODEs I, Sec. II.4). A step is accepted when the RMS
    norm of its error estimate over atol + max(|y|, |y_new|) rtol is below
    1. The next step is the last one times 0.9 err^(-1/5), clipped to [0.2,
    10], and to at most 1 right after a rejection. A step is capped at
    max_step, raised to 10 ulp of t, and clipped to end exactly at t_bound.
    The stage sums are np.dot on the transposed rows of one (7 x n) stage
    block. Returns [(t, y, f, h)] after every accepted step, f being fun's
    value at y and h the step size proposed for the next step; [] when t0
    == t_bound.
    """
    eps100 = 100 * np.finfo(float).eps
    if rtol < eps100:
        warnings.warn(f"rtol {rtol:g} is below 100 machine epsilons", UserWarning)
        rtol = eps100
    t, y, f = t0, y0, fun(t0, y0)
    interval = t_bound - t0
    if interval == 0.0:
        return []
    if h_abs is None:
        # Hairer's first step, from one explicit Euler probe
        scale = atol + np.abs(y) * rtol
        d0, d1 = rms(y / scale), rms(f / scale)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, interval)
        d2 = rms((fun(t0 + h0, y + h0 * f) - f) / scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / 5)
        h_abs = min(100 * h0, h1, interval, max_step)

    K = np.empty((7, y0.size))
    accepted = []
    while t < t_bound:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                raise RuntimeError(f"step size below 10 ulp at t={t:g}")
            t_new = min(t + h_abs, t_bound)
            h = h_abs = t_new - t
            K[0] = f
            for s, (c, a) in enumerate(zip(DP_NODES[1:], DP_STAGES), start=1):
                K[s] = fun(t + c * h, y + np.dot(K[:s].T, a) * h)
            y_new = y + h * np.dot(K[:6].T, DP_WEIGHTS)
            f_new = K[6] = fun(t + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err = rms(np.dot(K.T, DP_ERROR) * h / scale)
            if err < 1:
                factor = 10 if err == 0 else min(10, 0.9 * err ** (-1 / 5))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** (-1 / 5))
            rejected = True
        t, y, f = t_new, y_new, f_new
        accepted.append((t, y, f, h_abs))
    return accepted


def collapse_doc(density, velocity=None, **tolerances):
    """The document of scenarios/uniform_collapse_1d.yaml at another uniform
    density and velocity profile, with the given tolerances."""
    return {"geometry": "slab1d", "dimension": 1, "lambda": 0.0, "v_sup": 2.0,
            "marker_count": 64, "t_end": 5.0, "tolerances": tolerances,
            "initial_profile": {
                "density": {"kind": "uniform", "value": density, "support": [-1.0, 1.0]},
                "velocity": velocity or {"kind": "zero"}}}


# Slabs with a threshold at the profile's own rho or |u_x|, which the run's
# first row reads back from its chart v0 = 1/rho, q0 = u_x v0 one ulp above
# it: validation must reject them, naming the field. At DENSITY_BELOW_EDGE
# the row reads one ulp below the profile's rho and exactly the threshold,
# so no trigger holds there and the scenario is valid.
TRIGGER_EDGES = {
    "density": collapse_doc(0.7966215562922652, rho_blowup_threshold=0.7966215562922652),
    "velocity": collapse_doc(0.7, {"kind": "hubble", "rate": -1.71556773836097},
                             div_blowup_threshold=1.71556773836097),
}
DENSITY_BELOW_EDGE = collapse_doc(0.45696728054958985,
                                  rho_blowup_threshold=0.4569672805495898)

# A Gaussian slab with a tabulated velocity, whose rho and u_x read back from
# the chart v0 = 1/rho, q0 = u_x v0 are an ulp off the profile's at some
# markers: there |u_x| = 0.4 reads 0.4000000000000001
GAUSSIAN_TABLE_SLAB = dict(collapse_doc(None), initial_profile={
    "density": {"kind": "gaussian", "amplitude": 0.37, "center": 0.0, "width": 0.45,
                "support": [-1.0, 1.0]},
    "velocity": {"kind": "table", "x": [-1.0, 0.0, 1.0], "values": [0.3, -0.1, 0.2]}})


def slab_16k():
    """The benchmark's 16384-marker slab, dustbench/inputs.py's
    SLAB_16K_YAML: uniform_collapse_1d at t_end 2.5."""
    path = pathlib.Path(__file__).resolve().parents[1] / "dustbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return scenario_from_dict(yaml.safe_load(inputs.SLAB_16K_YAML))


def first_row(vs):
    """The run's first row: the run's reducer on vs.y0, the solver vector
    vs.initial unpacks (the trigger columns do not read the RHS, left at
    zero)."""
    y0, split, _, reduce = _integrate.layout(vs)
    return reduce(0.0, y0, split(np.zeros_like(y0[0])))


def neighbour_gaps(positions, dimension: int):
    """Gaps between neighbouring markers, a shell's first one to the origin:
    the reference of core.trigger_rows' gap row, which pads the slab's with
    +inf for its last marker."""
    if dimension > 1:
        positions = np.concatenate(([0.0], positions))
    return np.diff(positions)


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


def uniform_slab_chart(rho0, w0, lam, t):
    """v = 1/rho and q = v' at time t along every characteristic of a
    uniform slab, in closed form: v'' = lam v - 1 from v0 = 1/rho0 and q0 =
    w0 v0, so v = v0 + q0 S + (lam v0 - 1) P and q = q0 cosh(s t) + (lam v0 -
    1) S with S = sinh(s t)/s, P = 2 sinh(s t/2)^2/lam and s = sqrt(lam) for
    lam > 0: no terms of size 1/lam or cosh(s t) cancel as v nears 0 (at
    rho0 = 0.5 at rest, v is within 7 eps of a 50-digit value near its zero
    for lam in [0.001, 0.42]). v = v0 + q0 t - t^2/2 at lam = 0."""
    v0 = 1.0 / rho0
    q0 = w0 * v0
    if lam == 0.0:
        return v0 + q0 * t - 0.5 * t * t, q0 - t
    s = math.sqrt(lam)
    sh, p = math.sinh(s * t) / s, 2.0 * math.sinh(0.5 * s * t) ** 2 / lam
    return v0 + q0 * sh + (lam * v0 - 1.0) * p, q0 * math.cosh(s * t) + (lam * v0 - 1.0) * sh


def uniform_slab_div_crossing(rho0, w0, lam, threshold, t_end):
    """The first time at which |div u| = |q/v| of a uniform slab passes
    threshold (or v reaches 0), by bisection of the closed form down to
    adjacent doubles; None if it does not by t_end. |q/v| grows monotonically
    toward the collapse, so the first double at which it holds is returned."""
    def holds(t):
        v, q = uniform_slab_chart(rho0, w0, lam, t)
        return v <= 0.0 or abs(q) > threshold * v

    if not holds(t_end):
        return None
    lo, hi = 0.0, t_end
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if holds(mid) else (mid, hi)
    return hi


def cold_ball_fall_time(n, rho0, radius):
    """The time at which every shell of a cold uniform N-ball of density
    rho0 has fallen to the fraction radius of its start, in closed form.
    Each shell keeps its enclosed mass, rho0 |B_1| r0^N, so r = r0 R with
    R'' = -(rho0/N) R^(1-N), R(0) = 1 and R'(0) = 0: at N = 2 t =
    sqrt(pi/rho0) erf(sqrt(ln(1/R))); at N = 3, with R = cos^2 eta, t = (eta
    + sin eta cos eta) / sqrt(2 rho0/3); at N = 4 t = (2/sqrt(rho0)) sqrt(1
    - R^2)."""
    if n == 2:
        return math.sqrt(math.pi / rho0) * math.erf(math.sqrt(math.log(1.0 / radius)))
    if n == 3:
        eta = math.acos(math.sqrt(radius))
        return (eta + math.sqrt(radius * (1.0 - radius))) / math.sqrt(2.0 * rho0 / 3.0)
    if n == 4:
        return 2.0 / math.sqrt(rho0) * math.sqrt(1.0 - radius * radius)
    raise ValueError(f"no closed form at N = {n}")


def cold_ball_free_fall(n, rho0, t):
    """R and R' at time t of cold_ball_fall_time's free fall, before the
    collapse: R by bisection of the fall time down to adjacent doubles, R'
    from the energy R'^2/2 = (rho0/N) (R^(2-N) - 1)/(N - 2), the limit
    (rho0/2) ln(1/R) at N = 2. Along every shell l1 = l2 = R'/R and rho =
    rho0/R^N."""
    lo, hi = 0.0, 1.0  # the fall time decreases with R
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if cold_ball_fall_time(n, rho0, mid) > t else (lo, mid)
    potential = math.log(1.0 / hi) if n == 2 else (hi ** (2 - n) - 1.0) / (n - 2)
    return hi, -math.sqrt(2.0 * rho0 / n * potential)


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


def step_row(state, lam=0.0):
    """The StepRow of a FieldState, by the run's reducer on the views of its
    solver vector (solver_state's), with the rate column from the RHS there:
    _model_rhs under the state's masses and dimension and the background
    constant lam, written into a new vector."""
    vs, y, split, reduce = solver_state(state, lam)
    f = split(np.empty_like(y[0]))
    _model_rhs(vs)(state.time, y, f)
    return reduce(state.time, y, f)


# the floor of sigma r^(N-1) in the masked shell arithmetic
R_FLOOR = 1e-300


def masked_shell_rhs(vs, y):
    """The shell derivatives on the solver vector y by the masked arithmetic
    of the shell force law, every field of every shell at once: Phi_r odd in
    r with sigma r^(N-1) floored, du = 0 at |r| <= R_FLOOR, and Phi_r/r -> 0 with
    dl2 = dl1 where r = 0 or (N-1) Phi_r/r overflows. The model closure must
    give its bytes on every vector."""
    n, lam = vs.dimension, vs.lam
    r, u, rho, l1, l2 = np.split(y, 5)
    masses = vs.initial.masses
    m_enc = np.cumsum(masses) - 0.5 * masses
    area = np.maximum(unit_sphere_area(n) * np.abs(r) ** (n - 1), R_FLOOR)
    phi_r = np.sign(r) * m_enc / area - lam * r / n
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

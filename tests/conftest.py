import numpy as np
import pytest

from dustlab import simulate
from dustlab.core import (GaussianDensity, Geometry, HubbleVelocity,
                          NumericalSettings, Scenario, UniformDensity,
                          ZeroVelocity, ball_volume, validate_scenario)

FAST = NumericalSettings(rel_tol=1e-9, abs_tol=1e-11)


def make_slab(rho0=0.5, lam=0.0, v_sup=None, velocity=None, markers=40,
              t_end=8.0, density=None, settings=FAST):
    density = density or UniformDensity(rho0, -1.0, 1.0)
    lo, hi = density.support
    return Scenario(geometry=Geometry.SLAB1D, dimension=1, lam=lam,
                    v_sup=v_sup if v_sup is not None else hi - lo,
                    density=density, velocity=velocity or ZeroVelocity(),
                    marker_count=markers, t_end=t_end, settings=settings)


def make_ball(n=3, rho0=0.5, lam=0.0, v_sup=None, velocity=None, markers=40,
              t_end=10.0, density=None, settings=FAST):
    density = density or UniformDensity(rho0, 0.0, 1.0)
    _, radius = density.support
    return Scenario(geometry=Geometry.RADIALND, dimension=n, lam=lam,
                    v_sup=v_sup if v_sup is not None else ball_volume(n, radius),
                    density=density, velocity=velocity or ZeroVelocity(),
                    marker_count=markers, t_end=t_end, settings=settings)


def collapse_scenarios_1d():
    """Contracting slab scenarios certified by condition (1) or (2)."""
    out = []
    for rho0 in (0.3, 0.5, 0.8, 1.0):
        for lam_frac in (0.0, 0.4):
            for vel in (ZeroVelocity(), HubbleVelocity(-0.5)):
                out.append(make_slab(rho0=rho0, lam=lam_frac * rho0, velocity=vel))
    for amp in (0.5, 1.0):
        for vel in (ZeroVelocity(), HubbleVelocity(-0.5)):
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
            for vel in (ZeroVelocity(), HubbleVelocity(-0.5)):
                out.append(make_ball(n=n, rho0=rho0, velocity=vel))
        out.append(make_ball(n=n, rho0=0.5, lam=0.2, velocity=ZeroVelocity()))
        out.append(make_ball(n=n, density=GaussianDensity(1.0, 0.0, 0.5, 0.0, 1.0),
                             velocity=ZeroVelocity()))
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

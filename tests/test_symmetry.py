"""The symmetries of pressureless Euler-Poisson, on slab runs.

Translating the slab, x -> x + d, or reflecting it, x -> -x, leaves its
force law as it was: the symmetric kernel's gravity and the background term
lambda (x - x_cm) depend on differences of positions alone. A reflected run
maps marker i to n - 1 - i. Time scaling, t -> t/s, u -> s u, rho -> s^2 rho
and lambda -> s^2 lambda with positions and v_sup fixed, scales M by s^2,
H(0) by s^3 and every time by 1/s, so a run whose density threshold scales
by s^2, divergence threshold by s and step cap by 1/s fires at its event
time over s. Each transformed run must give the same trigger and the same
certificate case, its event times and certified bound times s within 1e-6
relative of the untransformed run's, and under translation and reflection
the mapped marker and marker positions (within 1e-6) at the event. (A
uniform ball collapses homologously and its shells tie for the marker, so
the ball is not checked here.)
"""

import functools
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dustlab import simulate
from dustlab.core import (GaussianDensity, Geometry, Scenario, UniformVelocity,
                          load_scenario, validate_scenario)
from dustlab.riccati import check_blowup_conditions

ROOT = Path(__file__).resolve().parent.parent
MARKERS = 64
LAMBDAS = (0.0, 0.37)
REL = 1e-6


def outcome(sc):
    """The event of a scenario's run, its certificate and the marker
    positions at the event's lower edge."""
    vs = validate_scenario(sc)
    cert = check_blowup_conditions(vs.total_mass, vs.v_sup, vs.lam, vs.dimension, vs.h0)
    traj = simulate(sc)
    return traj.event, cert, traj.states[-1].positions


def gaussian_slab(lam, shift=0.0, mirror=1.0):
    """A Gaussian slab at rest whose peak sits off the centre of its
    support, moved by shift, or reflected about 0 for mirror = -1."""
    return Scenario(geometry=Geometry.SLAB1D, dimension=1, lam=lam, v_sup=2.0,
                    density=GaussianDensity(1.0, mirror * 0.3 + shift, 0.5,
                                            -1.0 + shift, 1.0 + shift),
                    velocity=UniformVelocity(0.0), marker_count=MARKERS, t_end=8.0)


def time_scaled(lam, s):
    """The shipped uniform slab collapse at lambda = lam, time-scaled by s."""
    sc = load_scenario(ROOT / "scenarios" / "uniform_collapse_1d.yaml")
    st = sc.settings
    return replace(sc, lam=lam * s * s, t_end=sc.t_end / s,
                   density=replace(sc.density, value=sc.density.value * s * s),
                   settings=replace(st, max_step=st.max_step / s,
                                    rho_blowup_threshold=st.rho_blowup_threshold * s * s,
                                    div_blowup_threshold=st.div_blowup_threshold * s))


@functools.lru_cache(maxsize=None)
def reference(kind, lam):
    return outcome(gaussian_slab(lam) if kind == "gaussian" else time_scaled(lam, 1.0))


def assert_covariant(got, expected, s=1.0):
    (event, cert, _), (ref_event, ref_cert, _) = got, expected
    assert event.trigger == ref_event.trigger
    assert math.isclose(s * event.t_lo, ref_event.t_lo, rel_tol=REL)
    assert math.isclose(s * event.t_hi, ref_event.t_hi, rel_tol=REL)
    assert cert.case == ref_cert.case
    assert math.isclose(s * cert.t_bound, ref_cert.t_bound, rel_tol=REL)


@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize("shift", [0.25, 1024.0])
def test_translation(lam, shift):
    got = outcome(gaussian_slab(lam, shift=shift))
    expected = reference("gaussian", lam)
    assert_covariant(got, expected)
    assert got[0].marker_index == expected[0].marker_index
    np.testing.assert_allclose(got[2] - shift, expected[2], rtol=0, atol=REL)


@pytest.mark.parametrize("lam", LAMBDAS)
def test_reflection(lam):
    got = outcome(gaussian_slab(lam, mirror=-1.0))
    expected = reference("gaussian", lam)
    assert_covariant(got, expected)
    assert got[0].marker_index == MARKERS - 1 - expected[0].marker_index
    np.testing.assert_allclose(-got[2][::-1], expected[2], rtol=0, atol=REL)
    # the marker is off the centre, so the map is not the identity
    assert got[0].marker_index != expected[0].marker_index


@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize("s", [2.0, 1024.0, 2.0 ** -10])
def test_time_scaling(lam, s):
    assert_covariant(outcome(time_scaled(lam, s)), reference("uniform", lam), s)

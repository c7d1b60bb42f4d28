"""The model RHS each geometry hands the integrator (the ``rhs`` closure of
``model_rhs``, the one form of its force law) against a reference state
function, compared bit for bit on seeded random states. The slab's reference
is its formula evaluated with temporaries. The shells' is the masked
arithmetic of ``radial._phi_r`` and ``radial._derivatives``, which the
closure falls back to when a shell is at or near the centre and which its
fast path must equal everywhere else.

The closures compute their run constants (and the shells' scratch) once.
Called as rhs(t, yv, fv) on the views the run's split makes, they write the
derivative into the vector fv splits, a row of the stepper's stage block,
and return it; the flat form scipy's RK45 calls (conftest.flat) splits a
new vector and returns it, which the caller may keep. The shell closure
drops the centre masks when every radius is clear of the floor and of
overflow. None of that may change a bit.
"""

from dataclasses import replace

import numpy as np
import pytest

from dustlab import _integrate, _model_rhs, geometry1d
from dustlab.core import validate_scenario

from conftest import flat, make_ball, make_slab, masked_shell_rhs

MARKERS = 24
LAMBDAS = (0.0, 0.37)


def model(vs, rng):
    """The scenario with seeded unequal masses, model_rhs of its geometry,
    and the run's split."""
    vs = replace(vs, masses=rng.uniform(0.2, 1.0, vs.masses.size))
    return vs, _model_rhs(vs), _integrate.layout(vs)[1]


def slab_formula(vs, y):
    """The slab derivatives, -Phi_x = -(Phi_x - lam (x - x_cm)) among them,
    evaluated with temporaries."""
    masses, lam = vs.masses, vs.lam
    x, u, rho, w = np.split(y, 4)
    total = masses.sum()
    phi_x = np.cumsum(masses) - 0.5 * masses - 0.5 * total
    force = -(phi_x - lam * (x - (masses * x).sum() / total))
    return np.concatenate((u, force, -rho * w, -w * w - rho + lam))


def slab_vector(rng):
    x = np.sort(rng.uniform(-1.5, 1.5, MARKERS))
    return np.concatenate((x, rng.normal(size=MARKERS),
                           rng.uniform(0.1, 2.0, MARKERS), rng.normal(size=MARKERS)))


def shell_vector(rng, inner=None):
    r = np.sort(rng.uniform(0.05, 1.5, MARKERS))
    if inner is not None:
        r[0] = inner
    return np.concatenate((r, rng.normal(size=MARKERS),
                           rng.uniform(0.1, 2.0, MARKERS), rng.normal(size=MARKERS),
                           rng.normal(size=MARKERS)))


def centred_shell_vector(rng):
    # a shell at the centre sends the shell closure down its masked path
    return shell_vector(rng, inner=0.0)


def cases():
    for lam in LAMBDAS:
        yield pytest.param(make_slab(lam=lam, markers=MARKERS), slab_vector,
                           slab_formula, id=f"slab-lam{lam}")
        for n in (2, 3, 4):
            ball = make_ball(n=n, lam=lam, markers=MARKERS)
            yield pytest.param(ball, shell_vector, masked_shell_rhs,
                               id=f"ball{n}-lam{lam}")
            yield pytest.param(ball, centred_shell_vector, masked_shell_rhs,
                               id=f"ball{n}-lam{lam}-centre")


@pytest.mark.parametrize("scenario, vector, reference", cases())
def test_closure_matches_state_function_bit_for_bit(scenario, vector, reference):
    rng = np.random.default_rng(20261018)
    vs, rhs, split = model(validate_scenario(scenario), rng)
    rhs = flat(rhs, split)
    with np.errstate(all="raise"):
        for _ in range(5):
            y = vector(rng)
            expected = reference(vs, y)
            assert rhs(0.0, y).tobytes() == expected.tobytes()


@pytest.mark.parametrize("scenario, vector, reference", cases())
def test_each_call_returns_a_new_vector(scenario, vector, reference):
    rng = np.random.default_rng(7)
    _, rhs, split = model(validate_scenario(scenario), rng)
    rhs = flat(rhs, split)
    y1, y2 = vector(rng), vector(rng)
    f1 = rhs(0.0, y1)
    kept = f1.copy()
    f2 = rhs(0.0, y2)
    assert not np.shares_memory(f1, f2)
    assert not np.shares_memory(f1, y1) and not np.shares_memory(f2, y2)
    assert f1.tobytes() == kept.tobytes()


@pytest.mark.parametrize("scenario, vector, reference", cases())
def test_out_receives_the_same_bytes(scenario, vector, reference):
    """Each row of a (7 x size) stage block, holding stale values and split
    once into its views, as the stepper passes it: the call on row s's
    views returns that row, writes the derivative there and nowhere else (no
    silent copy takes the writes), and leaves y and the other rows as they
    were. One closure, called on state after state, gives each state the
    bytes a fresh closure gives it: its scratch carries nothing from one
    call to the next."""
    rng = np.random.default_rng(11)
    vs, rhs, split = model(validate_scenario(scenario), rng)
    with np.errstate(all="raise"):
        for _ in range(3):
            y = vector(rng)
            kept = y.copy()
            yv = split(y)
            expected = flat(_model_rhs(vs), split)(0.0, y)
            block = rng.normal(size=(7, y.size))
            rows = [split(row) for row in block]
            for s in range(7):
                stale = block.copy()
                out = rows[s][0]
                assert rhs(0.0, yv, rows[s]) is out
                assert out.tobytes() == expected.tobytes()
                others = np.arange(7) != s
                assert block[others].tobytes() == stale[others].tobytes()
                assert y.tobytes() == kept.tobytes()


@pytest.mark.parametrize("lam", [0.37, -1.3])
def test_slab_force_equals_its_formula(lam):
    """_forces builds -Phi_x in place; it must equal -(Phi_x - lam (x - x_cm))
    evaluated with temporaries, bit for bit."""
    rng = np.random.default_rng(5)
    masses = rng.uniform(0.2, 1.0, MARKERS)
    constants = geometry1d._force_constants(masses)
    phi_x = constants[2]
    total = masses.sum()
    for _ in range(5):
        x = np.sort(rng.uniform(-1.5, 1.5, MARKERS))
        expected = -(phi_x - lam * (x - (masses * x).sum() / total))
        got = geometry1d._forces(constants, x, np.array(lam), np.empty(MARKERS))
        assert got.tobytes() == expected.tobytes()

"""The model RHS each geometry hands the integrator (the ``rhs`` closure of
``model_rhs``, the one form of its force law) against a reference state
function, compared bit for bit on seeded random states. The slab's reference
is its formula evaluated with temporaries. The shells' is
``conftest.masked_shell_rhs``, the masked arithmetic of every field of every
shell at once, on radii clear of the origin, with a shell at the centre, and
with radii on both sides of it, as trial stages that cross r = 0 have them.

The closures compute their run constants (and the shells' scratch) once.
Called as rhs(t, yv, fv) on the views the run's split makes, they write the
derivative into the vector fv splits, a row of the stepper's stage block,
and return it; the flat form the reference loop calls (conftest.flat) splits a
new vector and returns it, which the caller may keep. The shell closure runs
one law without the reference's floor and masks on every shell, then
overwrites du, dl1 and dl2 of the few shells at or below the radius where
those could act. None of that may change a bit, nor which floating-point
errors a call raises.
"""

import functools
from dataclasses import replace

import numpy as np
import pytest

from dustlab import _integrate, _model_rhs, geometry1d
from dustlab.core import MAX_DIMENSION, validate_scenario

from conftest import flat, make_ball, make_slab, masked_shell_rhs

MARKERS = 24
LAMBDAS = (0.0, 0.37)
# radii at or next to r = 0: zeros of both signs, a subnormal, and radii at
# which (N-1) Phi_r/r overflows in some dimension
NEAR_ORIGIN = (0.0, -0.0, 1e-310, -1e-310, 1e-160, -1e-200, 1e-90, -1e-90)
# every floating-point error, then those a run raises on (dustlab.simulate)
GUARDS = (dict(all="raise"), dict(over="raise", divide="raise", invalid="raise"))


def model(vs, rng):
    """The scenario with seeded unequal masses, model_rhs of its geometry,
    and the run's split."""
    masses = rng.uniform(0.2, 1.0, vs.initial.masses.size)
    vs = replace(vs, initial=replace(vs.initial, masses=masses))
    return vs, _model_rhs(vs), _integrate.layout(vs)[1]


def slab_formula(vs, y):
    """The slab derivatives in the chart [x, u, v, q], -Phi_x = -(Phi_x -
    lam (x - x_cm)) and dq = lam v - 1 among them, evaluated with
    temporaries."""
    masses, lam = vs.initial.masses, vs.lam
    x, u, v, q = np.split(y, 4)
    total = masses.sum()
    phi_x = np.cumsum(masses) - 0.5 * masses - 0.5 * total
    force = -(phi_x - lam * (x - (masses * x).sum() / total))
    return np.concatenate((u, force, q, lam * v - 1.0))


def slab_vector(rng):
    # v = 1/rho of either sign: a step may end past a marker's collapse
    x = np.sort(rng.uniform(-1.5, 1.5, MARKERS))
    return np.concatenate((x, rng.normal(size=MARKERS),
                           rng.uniform(-0.5, 10.0, MARKERS), rng.normal(size=MARKERS)))


def shell_vector(rng, inner=None, low=0.05):
    r = np.sort(rng.uniform(low, 1.5, MARKERS))
    if inner is not None:
        r[0] = inner
    return np.concatenate((r, rng.normal(size=MARKERS),
                           rng.uniform(0.1, 2.0, MARKERS), rng.normal(size=MARKERS),
                           rng.normal(size=MARKERS)))


def centred_shell_vector(rng):
    # a shell at the centre sends the shell closure down its masked path
    return shell_vector(rng, inner=0.0)


def crossing_shell_vector(rng):
    # radii on both sides of the origin, where Phi_r is continued oddly, and
    # up to three shells at or next to it
    y = shell_vector(rng, low=-0.3)
    k = rng.integers(4)
    y[rng.choice(MARKERS, k, replace=False)] = rng.choice(NEAR_ORIGIN, k)
    return y


def cases():
    for lam in LAMBDAS:
        yield pytest.param(make_slab(lam=lam, markers=MARKERS), slab_vector,
                           slab_formula, id=f"slab-lam{lam}")
        for n in (2, 3, 4, MAX_DIMENSION):
            ball = make_ball(n=n, lam=lam, markers=MARKERS)
            yield pytest.param(ball, shell_vector, masked_shell_rhs,
                               id=f"ball{n}-lam{lam}")
            yield pytest.param(ball, centred_shell_vector, masked_shell_rhs,
                               id=f"ball{n}-lam{lam}-centre")
            yield pytest.param(ball, crossing_shell_vector, masked_shell_rhs,
                               id=f"ball{n}-lam{lam}-crossing")


def outcome(fn, *args):
    """Whether fn(*args) raises a FloatingPointError under each of GUARDS,
    and the bytes it returns with every floating-point error ignored."""
    raised = []
    for guard in GUARDS:
        try:
            with np.errstate(**guard):
                fn(*args)
            raised.append(False)
        except FloatingPointError:
            raised.append(True)
    with np.errstate(all="ignore"):
        return raised, fn(*args).tobytes()


@pytest.mark.parametrize("scenario, vector, reference", cases())
def test_closure_matches_state_function_bit_for_bit(scenario, vector, reference):
    rng = np.random.default_rng(20261018)
    vs, rhs, split = model(validate_scenario(scenario), rng)
    rhs = flat(rhs, split)
    for _ in range(5):
        y = vector(rng)
        assert outcome(rhs, 0.0, y) == outcome(reference, vs, y)


@pytest.mark.parametrize("scenario, vector, reference", cases())
def test_each_call_returns_a_new_vector(scenario, vector, reference):
    rng = np.random.default_rng(7)
    _, rhs, split = model(validate_scenario(scenario), rng)
    rhs = flat(rhs, split)
    y1, y2 = vector(rng), vector(rng)
    # which errors a call raises is the first test's concern
    with np.errstate(all="ignore"):
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
    call to the next. Which errors a call raises is the first test's
    concern."""
    rng = np.random.default_rng(11)
    vs, rhs, split = model(validate_scenario(scenario), rng)
    with np.errstate(all="ignore"):
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


def test_guard_sees_every_shell_beside_the_centre():
    """A shell at the centre does not hide a floating-point error elsewhere:
    with shell 0 at r = 0, shell 5's drho = -rho (l1 + (N-1) l2) overflows,
    and the closure raises under a run's guard, as the reference does."""
    vs = validate_scenario(make_ball(n=3, lam=0.2, markers=8))
    yv, split, _, _ = _integrate.layout(vs)
    _, r, _, rho, l1, _, _, _ = yv
    r[0], rho[5], l1[5] = 0.0, 1e300, 1e10
    for rhs in (flat(_model_rhs(vs), split), lambda t, y: masked_shell_rhs(vs, y)):
        with pytest.raises(FloatingPointError), np.errstate(**GUARDS[1]):
            rhs(0.0, yv[0])


def high_dimension_centre_cases():
    """The N = 100 cases with shells at or across the centre, and a shell at
    r = 0 or at 1e-160 in N = 76, the first N where sigma 1e-300 underflows."""
    for param in cases():
        if param.id.startswith("ball100-") and param.id.endswith(("-centre", "-crossing")):
            yield param
    for lam in LAMBDAS:
        for inner in (0.0, 1e-160):
            yield pytest.param(make_ball(n=76, lam=lam, markers=MARKERS),
                               functools.partial(shell_vector, inner=inner),
                               masked_shell_rhs, id=f"ball76-lam{lam}-inner{inner:g}")


@pytest.mark.parametrize("scenario, vector, reference", high_dimension_centre_cases())
def test_high_dimension_centre_rates_are_finite(scenario, vector, reference):
    """sigma r^(N-1) is floored as a product, so where sigma is tiny a
    shell at or next to the centre still gets finite rates under a run's
    guard, in the closure and in the reference."""
    rng = np.random.default_rng(20261018)
    vs, rhs, split = model(validate_scenario(scenario), rng)
    for _ in range(5):
        y = vector(rng)
        for fn in (flat(rhs, split), lambda t, y: reference(vs, y)):
            with np.errstate(**GUARDS[1]):
                assert np.all(np.isfinite(fn(0.0, y)))


@pytest.mark.parametrize("lam", LAMBDAS)
def test_floor_radius_bounds_the_law_at_tiny_mass(lam):
    """A uniform N = 100 ball has a total mass near 1e-40, so the radius
    where sigma r^(N-1) reaches its floor, 2.2e-3, bounds where the law
    runs unpatched (the one where Phi_r/r reaches 1e300 rounds to 0, and
    1e-300^(1/(N-1)) is 9.3e-4): a shell at r = 2e-3 needs the floor, and
    gets the reference's bytes."""
    vs = validate_scenario(make_ball(n=MAX_DIMENSION, lam=lam, markers=MARKERS))
    yv, split, _, _ = _integrate.layout(vs)
    yv[1][0] = 2e-3
    y = yv[0]
    assert outcome(flat(_model_rhs(vs), split), 0.0, y) == outcome(masked_shell_rhs, vs, y)


@pytest.mark.parametrize("lam", [0.37, -1.3])
def test_slab_force_equals_its_formula(lam):
    """model_rhs builds -Phi_x in place, in the du view of its output; it
    must equal -(Phi_x - lam (x - x_cm)) evaluated with temporaries, bit for
    bit."""
    rng = np.random.default_rng(5)
    vs, rhs, split = model(validate_scenario(make_slab(lam=lam, markers=MARKERS)), rng)
    masses = vs.initial.masses
    total = masses.sum()
    phi_x = np.cumsum(masses) - 0.5 * masses - 0.5 * total
    for _ in range(5):
        y = slab_vector(rng)
        x = y[:MARKERS]
        expected = -(phi_x - lam * (x - (masses * x).sum() / total))
        fv = split(np.empty_like(y))
        rhs(0.0, split(y), fv)
        _, _, du, _, _, _, _, _ = fv
        assert du.tobytes() == expected.tobytes()

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from dustlab import _integrate, sample
from dustlab.core import (FieldState, HubbleVelocity, StepRow, divergence,
                          support_volume, validate_scenario)
from dustlab.functional import (RESIDUAL_FLOOR, _cs_density, _cs_divergence,
                                _inside, _tolerance, proof_chain_report, reducer)
from dustlab.errors import NumericOverflow
from conftest import (make_ball, make_slab, neighbour_gaps, step_row,
                      support_volume_upper)


def slab_state(x, u=None, w=None, m=None, rho=None):
    x = np.asarray(x, dtype=float)
    k = x.size
    return FieldState(
        time=0.0, positions=x,
        velocities=np.zeros(k) if u is None else np.asarray(u, float),
        densities=np.full(k, 0.5) if rho is None else np.asarray(rho, float),
        eig_radial=np.zeros(k) if w is None else np.asarray(w, float),
        masses=np.full(k, 1.0 / k) if m is None else np.asarray(m, float))


def cs_divergence(state):
    """M * integral of (div u)^2 dmu  minus  (integral of div u dmu)^2."""
    row = step_row(state)
    return _cs_divergence(float(np.sum(state.masses)), row.h, row.m_div2)


def cs_density(state, v_sup):
    """v_sup * integral of rho^2 dx  minus  M^2."""
    return _cs_density(v_sup, float(np.sum(state.masses)), step_row(state).m_rho)


class TestFunctionalValues:
    def test_h_zero_for_cold_start(self):
        st = slab_state([-0.5, 0.5])
        assert step_row(st).h == 0.0

    def test_h_hubble_slab_is_rate_times_mass(self):
        vs = validate_scenario(make_slab(rho0=0.5, velocity=HubbleVelocity(0.7),
                                         v_sup=10.0))
        st = vs.initial
        assert step_row(st).h == pytest.approx(0.7 * st.masses.sum(), rel=1e-13)

    def test_h_hubble_ball_is_n_rate_times_mass(self):
        vs = validate_scenario(make_ball(n=3, velocity=HubbleVelocity(0.7),
                                         v_sup=100.0))
        st = vs.initial
        assert step_row(st).h == pytest.approx(3 * 0.7 * st.masses.sum(), rel=1e-13)

    def test_support_volume_slab(self):
        assert step_row(slab_state([-1.0, 1.0])).volume == pytest.approx(2.0)


def reference_row(time, positions, densities, div, masses, dimension, div_rate):
    """The per-step scalars by core's helpers, the tests' neighbour_gaps and
    one ufunc reduction per column: the formula functional.reducer must
    equal bit for bit."""
    block = np.empty((4, masses.size))
    md = np.multiply(masses, div, out=block[0])
    np.multiply(md, div, out=block[1])
    np.multiply(masses, densities, out=block[2])
    np.multiply(masses, div_rate, out=block[3])
    h, m_div2, m_rho, rate = np.add.reduce(block, axis=1).tolist()
    volume = float(support_volume(positions[0], positions[-1], dimension))
    return StepRow(
        time=time,
        h=h,
        m_div2=m_div2,
        m_rho=m_rho,
        volume=volume,
        volume_upper=support_volume_upper(volume, densities, masses, dimension),
        m_div_rate=rate,
        min_gap=float(np.minimum.reduce(neighbour_gaps(positions, dimension))),
        max_abs_div=float(np.maximum.reduce(np.abs(div))),
        max_density=float(np.maximum.reduce(densities)),
        min_density=float(np.minimum.reduce(densities)),
    )


def solver_vector(rng, n, dimension):
    """Seeded marker fields in the solver vector's layout, and a derivative
    vector f in the same layout."""
    lo = -1.5 if dimension == 1 else 0.05
    positions = np.sort(rng.uniform(lo, 1.5, n))
    fields = 4 if dimension == 1 else 5
    y = np.concatenate((positions, rng.normal(size=n), rng.uniform(0.1, 2.0, n),
                        rng.normal(size=(fields - 3) * n)))
    return y, rng.normal(size=fields * n)


def flat_reducer(masses, dimension):
    """The run's reducer on flat solver vectors y and f, split by the run's
    split."""
    reduce = reducer(masses, dimension)
    split = _integrate.splitter(masses.size, dimension)
    return lambda time, y, f: reduce(time, split(y), split(f))


def row_of(reduce, y, f):
    return np.array(reduce(0.25, y, f)).tobytes()


def chart_fields(y, f, n):
    """rho, div u and D(div u)/Dt of the slab's chart [x, u, v, q] and of
    its RHS f: 1/v, q/v and rho (dq - div dv)."""
    v, q, dv, dq = y[2 * n:3 * n], y[3 * n:], f[2 * n:3 * n], f[3 * n:]
    rho, div = 1.0 / v, q / v
    return rho, div, (dq - div * dv) * rho


def expected_row(y, f, masses, dimension):
    n = masses.size
    if dimension == 1:
        rho, div, rate = chart_fields(y, f, n)
    else:
        rho = y[2 * n:3 * n]
        div = divergence(y[3 * n:4 * n], y[4 * n:], dimension)
        rate = divergence(f[3 * n:4 * n], f[4 * n:], dimension)
    return np.array(reference_row(0.25, y[:n], rho, div, masses,
                                  dimension, rate)).tobytes()


# a seeded RHS vector, and the zero RHS, whose rate column must read 0
# however the scratch row that holds the rate was last written
RATE_SCALES = pytest.mark.parametrize("rate_scale", [1.0, 0.0], ids=["rate", "zero-rate"])


@pytest.mark.parametrize("dimension", [1, 2, 3, 4])
@RATE_SCALES
def test_reducer_equals_the_reference_row(dimension, rate_scale):
    """The run's reducer against reference_row, bit for bit, on seeded slab
    and shell states, calling one reducer on many states as a run does."""
    rng = np.random.default_rng(20261019 + dimension)
    for n in (2, 3, 8, 9, 48, 64, 129, 1000):
        masses = rng.uniform(0.2, 1.0, n)
        reduce = flat_reducer(masses, dimension)
        for _ in range(3):
            y, f = solver_vector(rng, n, dimension)
            f *= rate_scale
            assert row_of(reduce, y, f) == expected_row(y, f, masses, dimension), n


@pytest.mark.parametrize("dimension", [1, 3])
@pytest.mark.parametrize("edge", [0, -1])
@pytest.mark.parametrize("value", [0.0, -0.5])
def test_reducer_at_a_boundary_density_at_most_zero(dimension, edge, value):
    """A boundary density <= 0 leaves the upper support estimate at the
    marker extent (support_volume_upper's early return); a shell's inner
    density is not a boundary. In the slab's chart the field is v = 1/rho,
    and v <= 0 is a marker at or past its singularity: its row holds +inf
    rho and |div u|, NaN sums and the gap, with no division by that v under
    a run's guard."""
    rng = np.random.default_rng(3)
    n = 16
    y, f = solver_vector(rng, n, dimension)
    masses = rng.uniform(0.2, 1.0, n)
    y[2 * n + (edge % n)] = value
    reduce = flat_reducer(masses, dimension)
    if dimension == 1:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            got = reduce(0.25, y, f)
        assert (got.max_density, got.max_abs_div) == (math.inf, math.inf)
        assert got.min_gap == np.min(np.diff(y[:n]))
        assert all(map(math.isnan, (got.h, got.m_div2, got.m_rho, got.volume,
                                    got.volume_upper, got.m_div_rate, got.min_density)))
        return
    assert row_of(reduce, y, f) == expected_row(y, f, masses, dimension)
    got = reduce(0.25, y, f)
    assert (got.volume_upper == got.volume) == (edge == -1)


@RATE_SCALES
def test_row_sums_equal_one_dimensional_reductions(rate_scale):
    """The reducer reduces its weighted products as the rows of one block;
    each sum must equal np.add.reduce of that product alone, bit for bit,
    across the sizes where the pairwise summation changes shape (8-way
    unrolling, blocks of 128, buffers of 8192)."""
    rng = np.random.default_rng(20261018)
    sizes = [1, 2, 7, 8, 9, 127, 128, 129, 1000, 8191, 8192, 8193, 16384, 40_000]
    sizes += rng.integers(1, 40_001, 6).tolist()
    for n in sizes:
        masses = rng.uniform(0.1, 2.0, n)
        positions = np.sort(rng.uniform(0.1, 2.0, n))
        v = rng.uniform(0.5, 10.0, n)
        q = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 3.0, n) * v
        y = np.concatenate((positions, np.zeros(n), v, q))
        f = np.concatenate((np.zeros(2 * n), rng.normal(size=2 * n) * rate_scale))
        got = flat_reducer(masses, 1)(0.0, y, f)
        densities, div, rate = chart_fields(y, f, n)
        md = masses * div
        expected = [np.add.reduce(md), np.add.reduce(md * div),
                    np.add.reduce(masses * densities),
                    np.add.reduce(masses * rate)]
        assert (np.array([got.h, got.m_div2, got.m_rho, got.m_div_rate]).tobytes()
                == np.array(expected).tobytes()), n


class TestCauchySchwarz:
    def test_divergence_margin_hand_case(self):
        # two markers, m = 1/2 each, div = +/-1:
        # M * sum(m d^2) - (sum m d)^2 = 1*1 - 0 = 1
        st = slab_state([-0.5, 0.5], w=[1.0, -1.0])
        assert cs_divergence(st) == pytest.approx(1.0)

    def test_divergence_equality_for_constant_div(self):
        st = slab_state([-0.5, 0.0, 0.5], w=[0.3, 0.3, 0.3],
                        m=[0.2, 0.5, 0.3])
        assert cs_divergence(st) == pytest.approx(0.0, abs=1e-15)

    def test_density_margin_uniform_saturates(self):
        # uniform rho on full support with v_sup = volume: equality
        vs = validate_scenario(make_slab(rho0=0.5, v_sup=2.0))
        st = vs.initial
        assert cs_density(st, 2.0) == pytest.approx(0.0, abs=1e-14)

    def test_density_margin_slack_for_larger_bound(self):
        vs = validate_scenario(make_slab(rho0=0.5, v_sup=4.0))
        st = vs.initial
        # v_sup * int rho^2 - M^2 = 4*0.5 - 1 = 1
        assert cs_density(st, 4.0) == pytest.approx(1.0)

    def test_density_check_raises_when_support_escapes(self):
        st = slab_state([-1.0, 1.0])
        # the density margin is asserted only while the support fits in v_sup
        assert not _inside(step_row(st).volume_upper, 1.5)

    @given(w=st.lists(st.floats(-5, 5), min_size=2, max_size=8),
           m=st.lists(st.floats(0.01, 2.0), min_size=8, max_size=8))
    @hyp_settings(max_examples=100, deadline=None)
    def test_divergence_margin_never_negative(self, w, m):
        k = len(w)
        x = np.linspace(-1.0, 1.0, k)
        state = slab_state(x, w=w, m=m[:k])
        margin = cs_divergence(state)
        assert margin >= -1e-12 * max(1.0, abs(margin))

    @given(rho=st.lists(st.floats(0.01, 3.0), min_size=4, max_size=4))
    @hyp_settings(max_examples=100, deadline=None)
    def test_density_margin_never_negative_with_matched_weights(self, rho):
        # weights m_j = rho_j dV_j for equal cells dV = v_sup / k
        k = len(rho)
        v_sup = 2.0
        dv = v_sup / k
        x = np.linspace(-1.0 + dv / 2, 1.0 - dv / 2, k)
        state = slab_state(x, rho=rho, m=np.asarray(rho) * dv)
        margin = cs_density(state, v_sup)
        assert margin >= -1e-12 * max(1.0, abs(margin))


@pytest.fixture(scope="module")
def sampled():
    sc = make_slab(rho0=0.5, t_end=1.0)
    return sample(sc, np.arange(0.0, 1.0001, 0.05))


def max_transport_residual(traj):
    return max(s.transport_residual for s in proof_chain_report(traj).steps)


class TestStepResiduals:
    def test_transport_residual_small_on_smooth_run(self, sampled):
        for s in proof_chain_report(sampled).steps:
            assert s.transport_residual < 2e-3

    def test_transport_residual_second_order(self):
        sc = make_slab(rho0=0.5, t_end=1.0)
        coarse = sample(sc, np.arange(0.2, 1.0001, 0.05))
        fine = sample(sc, np.arange(0.2, 1.0001, 0.025))
        assert 3.5 <= max_transport_residual(coarse) / max_transport_residual(fine) <= 4.5

    def test_riccati_residual_nonpositive_on_collapse(self, sampled):
        mass = sampled.validated.total_mass
        for s, h in zip(proof_chain_report(sampled).steps, sampled.columns.h[1:]):
            assert s.hypothesis_ok
            assert s.riccati_residual <= RESIDUAL_FLOOR * max(1.0, h * h, mass * mass)

    def test_riccati_residual_not_asserted_on_escape(self):
        sc = make_slab(rho0=0.5, v_sup=2.0, velocity=HubbleVelocity(2.0),
                       t_end=0.5)
        traj = sample(sc, [0.0, 0.2, 0.4])
        step = proof_chain_report(traj).steps[1]
        assert not step.hypothesis_ok
        assert math.isnan(step.riccati_residual)


class TestProofChainReport:
    def test_collapse_run_holds(self, uniform_collapse_traj):
        report = proof_chain_report(uniform_collapse_traj)
        assert report.holds
        assert report.worst_cs_divergence >= -1e-6
        assert report.worst_cs_density >= -1e-6
        assert report.worst_riccati <= 1e-6
        assert "all inequalities hold" in report.summary_text()

    def test_ball_run_holds(self, ball_collapse_traj):
        report = proof_chain_report(ball_collapse_traj)
        assert report.holds
        assert report.worst_riccati <= 1e-6

    def test_near_singular_window_marked_informational(self, uniform_collapse_traj):
        report = proof_chain_report(uniform_collapse_traj)
        cutoff = 0.99 * uniform_collapse_traj.event.t_lo
        for s in report.steps:
            assert s.informational == (s.time > cutoff)
        assert any(s.informational for s in report.steps)

    def test_raised_h_is_the_first_violation(self, uniform_collapse_traj):
        # raising |H| on one row (H < 0 in a collapse) makes its Cauchy-Schwarz
        # divergence margin, M sum m div^2 - H^2, fall below the tolerance
        # off the near-singular window; no earlier step changes
        traj = uniform_collapse_traj
        b = len(traj) // 2
        h = traj.columns.h.copy()
        assert h[b] < 0
        h[b] -= 1e-3
        report = proof_chain_report(replace(traj, columns=traj.columns._replace(h=h)))
        step = report.steps[b - 1]
        assert step.hypothesis_ok and not step.informational
        assert step.cs_divergence_margin < -_tolerance(traj.validated.total_mass, h[b])
        assert not report.holds
        assert report.first_violation_time == traj.times[b]
        assert (f"FIRST VIOLATION at t={traj.times[b]:.9g}"
                in report.summary_text())

    @pytest.mark.parametrize("inside_window", [False, True])
    def test_raised_rate_is_the_first_violation(self, uniform_collapse_traj, inside_window):
        # raising m_div_rate on one row to twice the tolerance past the
        # Riccati bound is a violation at that row, in the near-singular
        # window too, where the finite-difference columns are not asserted
        traj = uniform_collapse_traj
        b = len(traj) - 1 if inside_window else len(traj) // 2
        mass, h = traj.validated.total_mass, traj.columns.h[b]
        tol = _tolerance(mass, h)
        before = proof_chain_report(traj)
        assert before.holds
        rate = traj.columns.m_div_rate.copy()
        rate[b] += 2 * tol - before.steps[b - 1].riccati_pointwise
        report = proof_chain_report(replace(traj, columns=traj.columns._replace(m_div_rate=rate)))
        step = report.steps[b - 1]
        assert step.informational == inside_window
        assert step.riccati_pointwise > tol
        assert report.steps[:b - 1] == before.steps[:b - 1]
        assert report.worst_riccati == step.riccati_pointwise
        assert report.first_violation_time == traj.times[b]

    def test_infinite_term_raises_numeric_overflow(self, uniform_collapse_traj):
        # an infinite column value makes M sum m div^2 - H^2 infinite without
        # the OverflowError that float ** 2 raises on a large finite value
        traj = uniform_collapse_traj
        m_div2 = traj.columns.m_div2.copy()
        m_div2[3] = np.inf
        with pytest.raises(NumericOverflow, match="not finite in double precision"):
            proof_chain_report(replace(traj, columns=traj.columns._replace(m_div2=m_div2)))

    def test_equilibrium_residuals_identically_zero(self):
        lam = 0.5
        sc = make_slab(rho0=lam, lam=lam, v_sup=2.0, t_end=1.0)
        traj = sample(sc, np.linspace(0.0, 1.0, 9))
        report = proof_chain_report(traj)
        assert report.holds
        for s in report.steps:
            assert abs(s.riccati_residual) < 1e-10
            assert abs(s.transport_residual) < 1e-10
            assert abs(s.cs_divergence_margin) < 1e-10

    def test_escape_run_flags_hypothesis(self):
        sc = make_slab(rho0=0.5, v_sup=2.0, velocity=HubbleVelocity(2.0),
                       t_end=1.0)
        traj = sample(sc, np.linspace(0.0, 1.0, 11))
        report = proof_chain_report(traj)
        assert any(not s.hypothesis_ok for s in report.steps)
        assert all(math.isnan(s.riccati_residual)
                   for s in report.steps if not s.hypothesis_ok)

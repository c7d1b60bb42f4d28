import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from dustlab.errors import NoCertificateError, NoPoleInHorizon
from dustlab.riccati import (ORACLE_ABS_TOL, ORACLE_REL_TOL,
                             BlowupCertificate, Case, ComparisonPath,
                             RiccatiParams, blowup_time_upper_bound,
                             chae_tadmor_bounds,
                             check_blowup_conditions, integrate_comparison_ode)

from conftest import BeyondBlowup, comparison_solution


# ---------------------------------------------------------------------------
# Reference: the oracle with a tableau-loop Cash-Karp step
# ---------------------------------------------------------------------------
#
# integrate_comparison_ode writes the Cash-Karp step once, inline in its
# loop, for both the y and the w = 1/y chart. This is the loop form it
# replaced: the right-hand side through one closure per chart, the stages
# and weighted sums through zip over the tableau, the step control through
# min/max, and the crossing search in a loop of its own. The inline step
# keeps every operation in the same order: each stage adds the terms
# (h*a_ij)*k_j left to right, both weighted sums run in tableau order with
# the zero weights kept (0*inf is NaN, which rejects the step), each
# `x if x > y else y` picks the operand that max(y, x) picks, NaN included,
# and b w w - (-a) is b w w + a exactly. So brackets and times must be
# equal (==).

LOOP_C = (0.0, 1 / 5, 3 / 10, 3 / 5, 1.0, 7 / 8)
LOOP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (3 / 10, -9 / 10, 6 / 5),
    (-11 / 54, 5 / 2, -70 / 27, 35 / 27),
    (1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096),
)
LOOP_B5 = (37 / 378, 0.0, 250 / 621, 125 / 594, 0.0, 512 / 1771)
LOOP_B4 = (2825 / 27648, 0.0, 18575 / 48384, 13525 / 55296, 277 / 14336, 1 / 4)


def loop_ck_step(f, t, y, h):
    """One Cash-Karp step through the right-hand side f: (y5, error_estimate)."""
    k = [f(t, y)]
    for i in range(1, 6):
        yi = y
        for aij, kj in zip(LOOP_A[i], k):
            yi += h * aij * kj
        k.append(f(t + LOOP_C[i] * h, yi))
    y5 = y + h * sum(b * ki for b, ki in zip(LOOP_B5, k))
    y4 = y + h * sum(b * ki for b, ki in zip(LOOP_B4, k))
    return y5, abs(y5 - y4)


@dataclass
class Crossing:
    """The step that carried w across 0, from (t, w) over h, its bracket
    [t + lo_h, t + hi_h] and the search's trial count."""
    f: object
    t: float
    w: float
    h: float
    lo_h: float
    hi_h: float
    trials: int


def loop_comparison_ode(params, until, rejected, crossings):
    """The oracle's step control, chart switch and pole bracketing around
    loop_ck_step.

    Appends (t, factor) for every rejected step to ``rejected``, with the
    shrink factor before its 0.2 floor (NaN for a non-finite step), and the
    Crossing to ``crossings``.
    """
    a, b, h0 = params.a, params.b, params.h0
    s = max(math.sqrt(abs(b)) / math.sqrt(a), abs(h0))
    rate = math.sqrt(a * abs(b)) + a * abs(h0)
    t_scale = 1.0 if rate <= 1.0 else max(1.0 / rate, sys.float_info.min)

    def f_y(t, y):
        return -a * y * y - b

    def f_w(t, w):  # w = 1/y
        return b * w * w + a

    f, w_tol = f_y, None  # w_tol: the absolute tolerance once in the w chart
    t, u = 0.0, h0
    h = 0.01 * t_scale
    times = [t]
    while t < until:
        h = min(h, until - t)
        u_new, err = loop_ck_step(f, t, u, h)
        if w_tol is None:
            tol = ORACLE_ABS_TOL * s + ORACLE_REL_TOL * max(abs(u), abs(u_new))
        else:
            tol = w_tol
        if not math.isfinite(u_new) or err > tol:
            factor = 0.9 * (tol / err) ** 0.2 if math.isfinite(u_new) else math.nan
            rejected.append((t, factor))
            h *= max(0.2, factor) if math.isfinite(u_new) else 0.2
            if h < 1e-15 * max(t_scale, t):
                raise NoPoleInHorizon("step underflow before the pole", np.array(times))
            continue
        if w_tol is not None and u_new >= 0.0:
            # Newton on the trial length, aimed a quarter width past the
            # root; the midpoint where the slope is not positive, the Newton
            # point is not inside the bracket, or the last two trials did not
            # halve the bracket
            lo_h, hi_h = 0.0, h
            width = 1e-13 * (t + h)
            spans = [math.inf, math.inf, hi_h - lo_h]
            trial, w_trial, trials = h, u_new, 0
            while hi_h - lo_h > width:
                slope = f(t, w_trial)
                mid = 0.5 * (lo_h + hi_h)
                if slope > 0 and spans[-1] <= 0.5 * spans[-3]:
                    shift = -width / 4 if w_trial >= 0.0 else width / 4
                    newton = trial - w_trial / slope + shift
                    trial = newton if lo_h < newton < hi_h else mid
                else:
                    trial = mid
                trials += 1
                w_trial, _ = loop_ck_step(f, t, u, trial)
                if w_trial >= 0.0:
                    hi_h = trial
                else:
                    lo_h = trial
                spans.append(hi_h - lo_h)
            crossings.append(Crossing(f, t, u, h, lo_h, hi_h, trials))
            return ComparisonPath(np.array(times), (t + lo_h, t + hi_h))
        t += h
        u = u_new
        times.append(t)
        h *= 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * (tol / err) ** 0.2))
        if w_tol is None and u < -2.0 * s:
            u = 1.0 / u
            f, w_tol = f_w, ORACLE_REL_TOL * abs(u)
    raise NoPoleInHorizon(f"no pole before t={until:g}", np.array(times))


def bisect_crossing(crossing):
    """The crossing bracketed by bisection alone, from the same step:
    (lo, hi, trials)."""
    c = crossing
    lo_h, hi_h, trials = 0.0, c.h, 0
    while hi_h - lo_h > 1e-13 * (c.t + c.h):
        trials += 1
        mid = 0.5 * (lo_h + hi_h)
        if loop_ck_step(c.f, c.t, c.w, mid)[0] >= 0.0:
            hi_h = mid
        else:
            lo_h = mid
    return c.t + lo_h, c.t + hi_h, trials


class TestConditions:
    def test_case_one_when_lambda_below_ratio(self):
        cert = check_blowup_conditions(mass=1.0, v_sup=2.0, lam=0.0, n=1, h0=5.0)
        assert cert.case is Case.CASE_ONE
        assert cert.t_bound is not None

    def test_case_two_requires_strong_contraction(self):
        # M=1, v_sup=1, lambda=2, N=1: threshold = sqrt(2*1 - 1) = 1
        assert RiccatiParams.from_macroscopic(1.0, 1.0, 2.0, 1, 0.0).equilibrium() == 1.0
        cert = check_blowup_conditions(1.0, 1.0, 2.0, 1, h0=-1.0)
        assert cert.case is Case.NO_CERTIFICATE
        assert cert.t_bound is None
        cert = check_blowup_conditions(1.0, 1.0, 2.0, 1, h0=-2.0)
        assert cert.case is Case.CASE_TWO
        assert cert.threshold_case2 == pytest.approx(1.0)

    def test_threshold_strictness_at_exact_value(self):
        cert = check_blowup_conditions(1.0, 1.0, 2.0, 1, h0=-1.0 - 1e-12)
        assert cert.case is Case.CASE_TWO
        cert = check_blowup_conditions(1.0, 1.0, 2.0, 1, h0=-1.0 + 1e-12)
        assert cert.case is Case.NO_CERTIFICATE

    def test_boundary_case_flagged(self):
        cert = check_blowup_conditions(1.0, 1.0, 1.0, 1, h0=-0.5)
        assert cert.case is Case.BOUNDARY
        assert "boundary" in cert.note
        cert = check_blowup_conditions(1.0, 1.0, 1.0, 1, h0=0.5)
        assert cert.case is Case.NO_CERTIFICATE

    def test_threshold_undefined_below_ratio(self):
        assert RiccatiParams.from_macroscopic(1.0, 1.0, 0.5, 3, 0.0).equilibrium() is None

    def test_boundary_equilibrium_is_positive_zero(self):
        # -b/a would give -0.0 at b = 0, and the certificate would print it
        c = RiccatiParams(a=0.5, b=0.0, h0=0.0).equilibrium()
        assert c == 0.0 and math.copysign(1.0, c) == 1.0
        cert = check_blowup_conditions(1.0, 1.0, 1.0, 2, h0=-0.5)
        assert cert.case is Case.BOUNDARY
        assert math.copysign(1.0, cert.threshold_case2) == 1.0

    def test_seeded_lambda_at_ratio_follows_sign_of_b(self):
        # lambda at M/v_sup and one ulp either side, h0 near 0 and near +-c:
        # nothing raises, the case follows sign(b), and exactly the certified
        # draws carry a bound, finite and positive
        rng = np.random.default_rng(20261020)
        for _ in range(200):
            n = int(rng.integers(1, 4))
            mass, v_sup = rng.uniform(0.5, 4.0), rng.uniform(0.5, 8.0)
            ratio = mass / v_sup
            c = RiccatiParams.from_macroscopic(
                mass, v_sup, math.nextafter(ratio, math.inf), n, 0.0).equilibrium()
            h0s = (0.0, 1e-12, -1e-12, c, -c, math.nextafter(-c, math.inf),
                   math.nextafter(-c, -math.inf), -c * (1 + 1e-9), -c * (1 - 1e-9),
                   -c * rng.uniform(0.5, 2.0))
            for lam in (math.nextafter(ratio, -math.inf), ratio,
                        math.nextafter(ratio, math.inf)):
                for h0 in h0s:
                    cert = check_blowup_conditions(mass, v_sup, lam, n, h0)
                    b = RiccatiParams.from_macroscopic(mass, v_sup, lam, n, h0).b
                    assert (cert.threshold_case2 is None) == (b > 0)
                    if b > 0:
                        expected = Case.CASE_ONE
                    elif h0 < -cert.threshold_case2:
                        expected = Case.BOUNDARY if b == 0 else Case.CASE_TWO
                    else:
                        expected = Case.NO_CERTIFICATE
                    assert cert.case is expected
                    assert (cert.t_bound is None) == (cert.case is Case.NO_CERTIFICATE)
                    if cert.t_bound is not None:
                        assert math.isfinite(cert.t_bound) and cert.t_bound > 0

    def test_blows_up_is_the_exact_decision(self):
        """blows_up() against the decision in exact rational arithmetic, on
        seeded log-uniform magnitudes of a, b and h0 from 1e-300 to 1e300,
        where b/a under- or overflows for a quarter of the draws. A draw
        lands within rounding of the boundary a h0^2 = -b with probability
        near 1e-15, so the two must agree on every one."""
        rng = np.random.default_rng(20261018)
        exponents = rng.uniform(-300.0, 300.0, (20_000, 3)).tolist()
        signs = rng.choice((-1.0, 0.0, 1.0), (20_000, 2)).tolist()
        for (ea, eb, eh), (sb, sh) in zip(exponents, signs):
            p = RiccatiParams(a=10.0 ** ea, b=sb * 10.0 ** eb, h0=sh * 10.0 ** eh)
            exact = p.b > 0 or (p.h0 < 0 and
                                Fraction(p.a) * Fraction(p.h0) ** 2 > -Fraction(p.b))
            assert p.blows_up() == exact, p

    def test_underflowing_b_over_a_certifies_nothing(self):
        # b/a = -1e-240 underflowed to 0 and gave c = 0, so h0 = -1e-200 was
        # certified (CaseTwo, t_bound 1e80); c is sqrt(1e-240)/sqrt(1e120) = 1e-180
        cert = check_blowup_conditions(1e-120, 1.0, 2e-120, 1, -1e-200)
        assert cert.case is Case.NO_CERTIFICATE and cert.t_bound is None
        assert cert.threshold_case2 == pytest.approx(1e-180, rel=1e-15)

    def test_underflowing_a_times_b_certifies_nothing(self):
        # b = 1/v_sup - lambda is the smallest subnormal and a = 1/8, so a b
        # underflows to 0 and the bound divides by sqrt(a b) = 0
        v_sup = 1e308
        lam = math.nextafter(1.0 / v_sup, 0.0)
        params = RiccatiParams.from_macroscopic(1.0, v_sup, lam, 8, -1.0)
        assert params.b > 0 and params.a * params.b == 0.0
        with pytest.raises(ZeroDivisionError):
            blowup_time_upper_bound(params)
        cert = check_blowup_conditions(1.0, v_sup, lam, 8, -1.0)
        assert cert.case is Case.NO_CERTIFICATE and cert.t_bound is None

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            check_blowup_conditions(0.0, 1.0, 0.0, 1, 0.0)
        with pytest.raises(ValueError):
            RiccatiParams(a=-1.0, b=0.0, h0=0.0)

    @pytest.mark.parametrize("a,b,h0", [(1.0, 0.5, math.nan), (1.0, 0.5, math.inf),
                                        (1.0, -0.5, -math.inf), (math.nan, 0.5, 0.0),
                                        (math.inf, 0.5, 0.0), (1.0, math.nan, -1.0)])
    def test_non_finite_params_rejected(self, a, b, h0):
        # a NaN h0 would make the oracle reject every step forever
        with pytest.raises(ValueError, match="finite"):
            RiccatiParams(a=a, b=b, h0=h0)


SIGNS = st.sampled_from((-1.0, 0.0, 1.0))


class TestTimeBound:
    def test_cold_uniform_spot_value(self):
        # a=1, b=1/2, h0=0: T = (pi/2)/sqrt(1/2) = pi/sqrt(2)
        p = RiccatiParams(a=1.0, b=0.5, h0=0.0)
        assert blowup_time_upper_bound(p) == pytest.approx(math.pi / math.sqrt(2))

    def test_b_zero_spot_value(self):
        p = RiccatiParams(a=1.0, b=0.0, h0=-2.0)
        assert blowup_time_upper_bound(p) == pytest.approx(0.5)

    def test_b_negative_spot_value(self):
        # a=1, b=-1, c=1, h0=-2: T = arcoth(2) = 0.5 ln 3
        p = RiccatiParams(a=1.0, b=-1.0, h0=-2.0)
        assert blowup_time_upper_bound(p) == pytest.approx(0.5 * math.log(3.0))

    @pytest.mark.parametrize("v_sup, lam, case", [(2.0, 0.0, Case.CASE_ONE),
                                                  (1.0, 2.0, Case.CASE_TWO)])
    def test_very_negative_h0_keeps_the_bound(self, v_sup, lam, case):
        # T ~ 1/(a |h0|) = 1e-17; atan(x) + pi/2 and log((z+1)/(z-1))
        # rounded it to 0
        cert = check_blowup_conditions(1.0, v_sup, lam, 1, -1e17)
        assert cert.case is case
        assert cert.t_bound == pytest.approx(1e-17, rel=1e-12, abs=0.0)

    @given(mass=st.floats(-300, 300), v_sup=st.floats(-300, 300),
           lam=st.floats(-300, 300), h0=st.floats(-300, 300),
           signs=st.tuples(SIGNS, SIGNS), n=st.integers(1, 3))
    @hyp_settings(max_examples=200, deadline=None, derandomize=True)
    def test_certificate_is_finite_or_absent(self, mass, v_sup, lam, h0, signs, n):
        """Over magnitudes 1e-300 to 1e300 nothing raises, and a certificate
        carries a finite positive bound or none at all."""
        cert = check_blowup_conditions(10.0 ** mass, 10.0 ** v_sup, signs[0] * 10.0 ** lam,
                                       n, signs[1] * 10.0 ** h0)
        assert (cert.t_bound is None) == (cert.case is Case.NO_CERTIFICATE)
        if cert.t_bound is not None:
            assert 0 < cert.t_bound < math.inf

    def test_no_bound_without_blowup(self):
        with pytest.raises(NoCertificateError):
            blowup_time_upper_bound(RiccatiParams(a=1.0, b=0.0, h0=1.0))
        with pytest.raises(NoCertificateError):
            blowup_time_upper_bound(RiccatiParams(a=1.0, b=-1.0, h0=-0.5))

    def test_bound_decreases_with_lambda_in_case_one(self):
        # smaller lambda -> larger b -> faster blowup
        bounds = []
        for lam in (0.0, 0.2, 0.4):
            cert = check_blowup_conditions(1.0, 2.0, lam, 1, h0=0.0)
            bounds.append(cert.t_bound)
        assert bounds[0] < bounds[1] < bounds[2]

    def test_boundary_continuity(self):
        # as b -> 0- and 0+, T should approach the rational-case value -1/(a h0)
        h0 = -2.0
        t_mid = blowup_time_upper_bound(RiccatiParams(1.0, 0.0, h0))
        for b in (1e-8, -1e-8):
            t = blowup_time_upper_bound(RiccatiParams(1.0, b, h0))
            assert t == pytest.approx(t_mid, rel=1e-6)


class TestComparisonSolution:
    def test_initial_value(self):
        for b in (0.7, 0.0, -0.7):
            p = RiccatiParams(a=1.0, b=b, h0=-2.0)
            assert comparison_solution(p, 0.0) == pytest.approx(-2.0)

    def test_tangent_midpoint(self):
        # a=b=1, h0=0: T = pi/2, and y(T/2) = tan(-pi/4) = -1
        p = RiccatiParams(a=1.0, b=1.0, h0=0.0)
        assert comparison_solution(p, math.pi / 4) == pytest.approx(-1.0)

    def test_rational_spot_value(self):
        # a=1, b=0, h0=-2: y(t) = -2/(1-2t); y(0.25) = -4
        p = RiccatiParams(a=1.0, b=0.0, h0=-2.0)
        assert comparison_solution(p, 0.25) == pytest.approx(-4.0)

    def test_beyond_pole_raises(self):
        p = RiccatiParams(a=1.0, b=0.0, h0=-2.0)
        with pytest.raises(BeyondBlowup):
            comparison_solution(p, 0.5)

    def test_bounded_branch_approaches_equilibrium(self):
        # only ODEs that blow up have a closed form here
        p = RiccatiParams(a=1.0, b=-1.0, h0=0.5)
        assert not p.blows_up()
        with pytest.raises(NoCertificateError):
            comparison_solution(p, 50.0)

    def test_vectorized(self):
        p = RiccatiParams(a=1.0, b=0.0, h0=-2.0)
        ts = np.array([0.0, 0.25])
        np.testing.assert_allclose(comparison_solution(p, ts), [-2.0, -4.0])

    @given(b=st.floats(0.1, 5.0), h0=st.floats(-3.0, 3.0),
           frac=st.floats(0.05, 0.95))
    @hyp_settings(max_examples=150, deadline=None)
    def test_closed_form_satisfies_ode(self, b, h0, frac):
        p = RiccatiParams(a=1.0, b=b, h0=h0)
        t = frac * blowup_time_upper_bound(p)
        eps = 1e-6 * max(1.0, t)
        y_m, y_0, y_p = (comparison_solution(p, t - eps),
                         comparison_solution(p, t),
                         comparison_solution(p, t + eps))
        lhs = (y_p - y_m) / (2 * eps)
        rhs = -p.a * y_0**2 - p.b
        assert lhs == pytest.approx(rhs, rel=1e-4, abs=1e-4 * max(1.0, abs(rhs)))


class TestOracle:
    def test_bracket_contains_closed_form(self):
        # the last is the benchmark atlas pool's member 645 (CaseTwo, N = 2),
        # whose first two Newton trials leave the bracket: the midpoint is
        # taken, as the tableau loop takes it, bit for bit
        for a, b, h0 in ((1.0, 0.5, 0.0), (1.0, 0.0, -2.0), (1.0, -1.0, -2.0),
                         (0.25, 2.0, 1.5),
                         (0.1382980048736796, -2.557673026212869, -14.765074826023517)):
            p = RiccatiParams(a=a, b=b, h0=h0)
            t_exact = blowup_time_upper_bound(p)
            path = integrate_comparison_ode(p, until=2 * t_exact + 1.0)
            assert_matches_loop(p, 2 * t_exact + 1.0)
            lo, hi = path.pole_bracket
            assert hi - lo < 1e-8
            assert lo - 1e-9 <= t_exact <= hi + 1e-9

    def test_no_pole_reported_for_bounded_branch(self):
        p = RiccatiParams(a=1.0, b=-1.0, h0=0.5)
        with pytest.raises(NoPoleInHorizon) as exc:
            integrate_comparison_ode(p, until=10.0)
        assert exc.value.times[-1] == pytest.approx(10.0)

    def test_bracket_contains_a_bound_far_below_one(self):
        # a slab of density 1e100 on [-0.5, 0.5] at rest with v_sup = 1: the
        # pole at 1.57e-50 lies far below an absolute step floor of 1e-15
        p = RiccatiParams.from_macroscopic(1e100, 1.0, 0.0, 1, 0.0)
        t_bound = blowup_time_upper_bound(p)
        lo, hi = integrate_comparison_ode(p, until=10.0 * t_bound + 1.0).pole_bracket
        # the bracket is the crossing alone, 1e-13 relative wide; it excludes
        # the integration error, so it need not contain t_bound
        assert abs(0.5 * (lo + hi) - t_bound) <= 1e-6 * t_bound
        assert hi - lo <= 1e-8 * t_bound

    def test_no_pole_when_horizon_too_short(self):
        p = RiccatiParams(a=1.0, b=0.5, h0=0.0)  # pole at pi/sqrt(2) ~ 2.22
        with pytest.raises(NoPoleInHorizon):
            integrate_comparison_ode(p, until=1.0)

    @pytest.mark.parametrize("until", [math.inf, math.nan])
    def test_non_finite_horizon_raises(self, until):
        # an infinite horizon would never end the loop
        with pytest.raises(ValueError, match="until must be finite"):
            integrate_comparison_ode(RiccatiParams(a=1.0, b=0.0, h0=-1e-320), until)

    def test_pole_time_is_the_bracket_midpoint(self):
        p = RiccatiParams(a=1.0, b=0.5, h0=0.0)
        path = integrate_comparison_ode(p, until=5.0)
        assert path.pole_time == pytest.approx(
            0.5 * sum(path.pole_bracket))


def oracle_outcome(oracle, params, until):
    """(pole_bracket, times), or ("no pole", times) when the oracle raises
    NoPoleInHorizon."""
    try:
        path = oracle(params, until)
    except NoPoleInHorizon as exc:
        return "no pole", exc.times.tolist()
    return path.pole_bracket, path.times.tolist()


def assert_matches_loop(params, until):
    """Asserts bit-equal outcomes; returns the outcome, the reference's
    rejected steps and its crossings."""
    rejected, crossings = [], []
    expected = oracle_outcome(lambda p, u: loop_comparison_ode(p, u, rejected, crossings),
                              params, until)
    assert oracle_outcome(integrate_comparison_ode, params, until) == expected
    return expected, rejected, crossings


def assert_crossing_searched(crossings):
    """One crossing, searched in 1 to 6 trials and in no more than bisection
    takes, whose bracket holds w's sign change under one step from the
    crossing step's start and overlaps the bracket that bisection alone
    finds from the same step."""
    assert len(crossings) == 1
    c = crossings[0]
    assert 1 <= c.trials <= 6
    assert loop_ck_step(c.f, c.t, c.w, c.lo_h)[0] < 0.0
    assert loop_ck_step(c.f, c.t, c.w, c.hi_h)[0] >= 0.0
    lo, hi, trials = bisect_crossing(c)
    assert c.trials <= trials
    assert max(lo, c.t + c.lo_h) <= min(hi, c.t + c.hi_h)


class TestOracleMatchesTableauLoop:
    @pytest.mark.parametrize("regime", ["b>0", "b=0", "b<0"])
    def test_seeded_draws(self, regime):
        rng = np.random.default_rng(20261018)
        for _ in range(30):
            a = 1.0 / rng.uniform(0.5, 4.8)
            if regime == "b>0":
                b, h0 = rng.uniform(0.2, 2.0), rng.uniform(-3.0, 3.0)
            elif regime == "b=0":
                b, h0 = 0.0, rng.uniform(-3.0, -0.1)
            else:  # certified: h0 below the unstable equilibrium
                b = -rng.uniform(0.2, 2.0)
                h0 = -math.sqrt(-b / a) * (1.0 + rng.uniform(0.05, 2.0))
            p = RiccatiParams(a=a, b=b, h0=h0)
            _, _, crossings = assert_matches_loop(p, 10.0 * blowup_time_upper_bound(p) + 1.0)
            assert_crossing_searched(crossings)

    @pytest.mark.parametrize("case", [Case.CASE_ONE, Case.BOUNDARY, Case.CASE_TWO])
    def test_seeded_atlas_range_draws(self, case):
        # the benchmark atlas's ranges; the first draw takes its corner M = 4,
        # N = 3, where a = 1/(MN) = 1/12. A reordered product in one stage
        # (h * (a32 * k2) for h * a32 * k2) moves the accepted times on about
        # 1 draw in 200 (4 of the atlas pool's 768 certified draws), so each
        # case takes 256 draws: at this seed it moves draws 28, 206 and 252
        # of CaseOne and 220 of CaseTwo
        rng = np.random.default_rng(20261019)
        for i in range(256):
            n = 3 if i == 0 else int(rng.integers(1, 4))
            mass = 4.0 if i == 0 else rng.uniform(0.5, 4.0)
            v_sup = rng.uniform(0.5, 8.0)
            ratio = mass / v_sup
            if case is Case.CASE_ONE:
                lam, h0 = ratio * rng.uniform(0.0, 0.95), mass * rng.uniform(-3.0, 3.0)
            elif case is Case.BOUNDARY:
                lam, h0 = ratio, -mass * rng.uniform(0.05, 3.0)
            else:
                lam = ratio * rng.uniform(1.05, 3.0)
                c = RiccatiParams.from_macroscopic(mass, v_sup, lam, n, 0.0).equilibrium()
                h0 = -c * rng.uniform(1.05, 4.0)
            cert = check_blowup_conditions(mass, v_sup, lam, n, h0)
            assert cert.case is case
            outcome, _, crossings = assert_matches_loop(
                RiccatiParams.from_macroscopic(mass, v_sup, lam, n, h0),
                10.0 * cert.t_bound + 1.0)
            assert_crossing_searched(crossings)
            # the w = 1/y chart takes the pole in a few dozen steps; stepping
            # y far into its singular tail took about 450 per call
            assert len(outcome[1]) - 1 < 250

    @pytest.mark.parametrize("a,b,h0", [(1.0, 0.0, 0.0),    # y = 0 throughout
                                        (0.25, -1.0, 2.0)])  # h0 = +sqrt(|b|/a)
    def test_zero_error_growth_cap(self, a, b, h0):
        # every stage is exactly 0, so err = 0 and each step grows h by the cap
        outcome, rejected, _ = assert_matches_loop(RiccatiParams(a=a, b=b, h0=h0), 100.0)
        assert outcome[0] == "no pole" and not rejected
        steps = np.diff(outcome[1])[:-1]  # the last step is clipped to the horizon
        assert steps.tolist() == pytest.approx((steps[0] * 5.0 ** np.arange(steps.size)).tolist())

    def test_rejected_steps(self):
        _, rejected, _ = assert_matches_loop(RiccatiParams(a=1.0, b=0.5, h0=0.0), 5.0)
        assert rejected

    def test_pole_far_below_one(self):
        # pole at 1.57e-50: the first step and the step floor follow the
        # ODE's own time scale, and the crossing width 1e-13 (t + h) follows
        # the pole's
        p = RiccatiParams(a=1e-100, b=1e200, h0=0.0)
        outcome, _, crossings = assert_matches_loop(p, 1.0)
        assert outcome[0] != "no pole"
        lo, hi = outcome[0]
        assert_crossing_searched(crossings)
        assert hi - lo <= 1e-8 * blowup_time_upper_bound(p)
        # a first step of 0.01 / (1 + |b|) took 270 steps, most of them
        # growing h by the 5x cap
        assert len(outcome[1]) - 1 < 100

    def test_non_finite_step_underflow(self):
        # y^2 overflows: every trial from t = 0 is non-finite, and h shrinks
        # by 0.2 from 0.01 t_scale to below the floor 1e-15 t_scale
        outcome, rejected, _ = assert_matches_loop(RiccatiParams(a=1.0, b=0.5, h0=-1e200),
                                                   5.0)
        assert outcome[0] == "no pole" and outcome[1] == [0.0]
        assert len(rejected) == 19 and all(t == 0.0 and math.isnan(factor)
                                           for t, factor in rejected)

    @pytest.mark.parametrize("a,b,h0,until", [(1.0, -1.0, 0.5, 10.0),  # bounded branch
                                              (1.0, 0.5, 0.0, 1.0),  # horizon too short
                                              # a |h0| overflows, so the ODE's time
                                              # scale rounds to 0; the step floor
                                              # stays positive and the loop ends
                                              (1e10, 0.5, -1e300, 1.0)])
    def test_no_pole_in_horizon(self, a, b, h0, until):
        outcome, _, _ = assert_matches_loop(RiccatiParams(a=a, b=b, h0=h0), until)
        assert outcome[0] == "no pole"

    def test_shrink_factor_below_floor(self):
        # bounded branch from above: near t = 0.36 a rejected step's factor
        # 0.9 (tol/err)^0.2 is below the 0.2 floor
        outcome, rejected, _ = assert_matches_loop(RiccatiParams(a=0.12, b=-0.07, h0=3.0),
                                                   10.0)
        assert outcome[0] == "no pole"
        assert any(factor < 0.2 for _, factor in rejected)


def bounds(density, div0, n=1):
    return chae_tadmor_bounds(np.array(density, float), np.array(div0, float), n).tolist()


class TestPointwiseBound:
    def test_contracting_characteristic(self):
        assert bounds([1.0], [-2.0]) == pytest.approx([0.5])

    def test_expanding_characteristic_none(self):
        assert bounds([1.0], [1.0]) == []

    def test_vacuum_none(self):
        assert bounds([0.0], [-2.0]) == []

    def test_radial_divergence(self):
        # div u0 = l1 + (n-1) l2 = -1/3 - 2/3 = -1 -> bound = 3
        div0 = np.array([-1.0 / 3.0]) + 2 * np.array([-1.0 / 3.0])
        assert bounds([1.0], div0, n=3) == pytest.approx([3.0])

    def test_applicable_markers_in_marker_order(self):
        assert bounds([1.0, 0.0, 1.0, 1.0, 1.0], [-2.0, -2.0, 0.0, -4.0, 3.0]) == [0.5, 0.25]

"""Certificate engine: blowup conditions and analytic blowup-time upper
bounds from the closed-form comparison solutions.

The aggregate divergence functional obeys dH/dt <= -H^2/(MN) - M^2/V_sup
+ lambda M while the support volume stays within V_sup. Writing the
majorizing ODE as y' = -a y^2 - b with

    a = 1/(MN) > 0,       b = M(M/V_sup - lambda),

RiccatiParams decides the regime once, from the sign of b, which in IEEE
arithmetic is exactly the comparison of lambda with M/V_sup: b > 0 blows up
for any y(0) (CaseOne); b < 0 iff y(0) < -c, c = sqrt(|b|/a) (CaseTwo);
b = 0 is the boundary, c = 0. Closed forms:

    b > 0:  y = sqrt(b/a) tan(theta0 - sqrt(ab) t),  theta0 = atan(h0 sqrt(a/b))
            pole at T = (theta0 + pi/2)/sqrt(ab)
    b = 0:  y = h0/(1 + a h0 t), pole at -1/(a h0) for h0 < 0
    b < 0:  Moebius form z = (y-c)/(y+c): z(t) = z0 e^{-2act},
            pole where z = 1, i.e. T = ln(z0)/(2ac) = arcoth(-h0/c)/sqrt(a|b|)

checked against the oracle integrate_comparison_ode. The equality lambda =
M/V_sup with h0 < 0 is a boundary extension: the comparison ODE still blows up.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

import numpy as np

from .errors import NoCertificateError, NoPoleInHorizon

ORACLE_REL_TOL = 1e-10
ORACLE_ABS_TOL = 1e-12


@dataclass(frozen=True)
class RiccatiParams:
    a: float  # 1/(MN)
    b: float  # M(M/V_sup - lambda)
    h0: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.a, self.b, self.h0))):
            raise ValueError("a, b and h0 must be finite")
        if self.a <= 0:
            raise ValueError("quadratic coefficient a must be positive")

    @classmethod
    def from_macroscopic(cls, mass, v_sup, lam, n, h0) -> "RiccatiParams":
        return cls(a=1.0 / (mass * n), b=mass * (mass / v_sup - lam), h0=h0)

    def equilibrium(self) -> Optional[float]:
        """c = sqrt(|b|/a), the unstable equilibrium's magnitude, for b <= 0;
        None for b > 0. Computed as sqrt(|b|)/sqrt(a), as b/a can under- or
        overflow where neither root does; 0.0 - b keeps b = 0 from giving
        -0.0."""
        if self.b > 0:
            return None
        return math.sqrt(0.0 - self.b) / math.sqrt(self.a)

    def blows_up(self) -> bool:
        c = self.equilibrium()
        return c is None or self.h0 < -c


class Case(Enum):
    CASE_ONE = "CaseOne"
    CASE_TWO = "CaseTwo"
    BOUNDARY = "Boundary"
    NO_CERTIFICATE = "NoCertificate"


@dataclass(frozen=True)
class BlowupCertificate:
    case: Case
    t_bound: Optional[float]
    inputs: dict
    threshold_case2: Optional[float]
    note: str = ""


def check_blowup_conditions(mass, v_sup, lam, n, h0) -> BlowupCertificate:
    """Classify the certificate case from the sign of b = M(M/V_sup - lambda)
    and attach the analytic time bound.

    CaseOne: b > 0 (lambda < M/V_sup), no condition on h0.
    CaseTwo: b < 0 and h0 strictly below -threshold, threshold = sqrt(|b|/a).
    Boundary: b = 0 and h0 < 0 (threshold 0); flagged as a boundary
    extension of the strict theorem. Otherwise NoCertificate, and also when
    no finite positive bound can be computed: a or b over- or underflows,
    or the bound does.
    """
    if not (mass > 0 and v_sup > 0 and n >= 1 and math.isfinite(lam)
            and math.isfinite(h0)):
        raise ValueError("need M > 0, V_sup > 0, N >= 1 and finite lambda and h0")
    inputs = {"M": mass, "v_sup": v_sup, "lambda": lam, "N": n, "h0": h0}
    try:
        params = RiccatiParams.from_macroscopic(mass, v_sup, lam, n, h0)
    except ValueError:  # a or b over- or underflows
        return BlowupCertificate(Case.NO_CERTIFICATE, None, inputs, None)
    threshold = params.equilibrium()
    if not params.blows_up():
        return BlowupCertificate(Case.NO_CERTIFICATE, None, inputs, threshold)
    try:
        t_bound = blowup_time_upper_bound(params)
    except ZeroDivisionError:  # a divisor underflows, or -h0/c rounds to 1
        t_bound = math.inf
    if not 0 < t_bound < math.inf:  # an infinite, zero or NaN bound promises nothing
        return BlowupCertificate(Case.NO_CERTIFICATE, None, inputs, threshold)
    if params.b == 0:
        return BlowupCertificate(Case.BOUNDARY, t_bound, inputs, threshold,
                                 note="boundary extension, not literally the strict condition")
    case = Case.CASE_ONE if params.b > 0 else Case.CASE_TWO
    return BlowupCertificate(case, t_bound, inputs, threshold)


def blowup_time_upper_bound(params: RiccatiParams) -> float:
    """Pole time of y' = -a y^2 - b from y(0) = h0."""
    if not params.blows_up():
        raise NoCertificateError("y' = -a y^2 - b does not blow up from h0")
    a, b, h0 = params.a, params.b, params.h0
    c = params.equilibrium()
    if c is None:
        k = math.sqrt(a * b)
        x = h0 * math.sqrt(a / b)
        # atan(x) + pi/2 without the cancellation that gives 0 for x << -1
        return (math.atan(-1.0 / x) if x < 0 else math.atan(x) + 0.5 * math.pi) / k
    if c == 0:
        return -1.0 / (a * h0)
    z = -h0 / c  # > 1 by the strict threshold
    # arcoth z, without (z + 1)/(z - 1) rounding to 1 for z >> 1
    return 0.5 * math.log1p(2.0 / (z - 1.0)) / math.sqrt(-a * b)


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonPath:
    times: np.ndarray
    pole_bracket: Tuple[float, float]

    @property
    def pole_time(self) -> float:
        return 0.5 * (self.pole_bracket[0] + self.pole_bracket[1])


def integrate_comparison_ode(params: RiccatiParams, until: float) -> ComparisonPath:
    """Adaptive integration of y' = -a y^2 - b with pole bracketing.

    Steps a Cash-Karp 4(5) pair on y from h = 0.01 of the time scale, at the
    tolerance ORACLE_ABS_TOL s + ORACLE_REL_TOL |y|, until y < -2s, s =
    max(sqrt(|b|/a), |h0|); then w = 1/y (w' = a + b w^2, regular at the
    pole) at the absolute tolerance ORACLE_REL_TOL |w| at the switch; for b
    < 0, |w| <= 1/(2s) keeps w' >= 3a/4, so w rises through 0 once. Trials in
    the step that ends at w >= 0 bracket the crossing to 1e-13 (t + h):
    Newton on the length, aimed a quarter of that width past the root, or
    the midpoint when Newton leaves the bracket or two trials did not halve
    it. Raises NoPoleInHorizon if the pole is not reached by `until` or the
    step underflows, ValueError if `until` is not finite; `times` records
    the accepted steps. Both charts are q u^2 - r, (q, r) = (-a, b) for y and
    (b, -a) for w, in one loop body whose floating-point operations are those
    of tests/test_riccati.py's tableau loop, in order: bit for bit equal.
    """
    if not math.isfinite(until):
        raise ValueError(f"until must be finite, got {until!r}")
    a, b, h0 = params.a, params.b, params.h0
    # s is computed as equilibrium() computes c, so that b/a cannot overflow.
    # The ODE's time scale, 1/rate capped at 1, sets the first step (0.01 of
    # it) and the step floor (1e-15 of it or of t; float_info.min at least)
    s = max(math.sqrt(abs(b)) / math.sqrt(a), abs(h0))
    rate = math.sqrt(a * abs(b)) + a * abs(h0)
    t_scale = 1.0 if rate <= 1.0 else max(1.0 / rate, sys.float_info.min)
    isfinite = math.isfinite
    q, r = -a, b  # the chart's right-hand side is q u^2 - r
    abs_tol, rel_tol = ORACLE_ABS_TOL * s, ORACLE_REL_TOL
    w_chart = False
    # Cash-Karp embedded 5(4) tableau: stages a_ij, weights b5_j and b4_j
    a21 = 1 / 5
    a31, a32 = 3 / 40, 9 / 40
    a41, a42, a43 = 3 / 10, -9 / 10, 6 / 5
    a51, a52, a53, a54 = -11 / 54, 5 / 2, -70 / 27, 35 / 27
    a61, a62, a63, a64, a65 = (1631 / 55296, 175 / 512, 575 / 13824,
                               44275 / 110592, 253 / 4096)
    b51, b52, b53, b54, b55, b56 = (37 / 378, 0.0, 250 / 621, 125 / 594,
                                    0.0, 512 / 1771)
    b41, b42, b43, b44, b45, b46 = (2825 / 27648, 0.0, 18575 / 48384,
                                    13525 / 55296, 277 / 14336, 1 / 4)

    t, u = 0.0, h0  # u is y, then w from the switch on
    h = 0.01 * t_scale
    times = [t]
    add_time = times.append
    au = abs(u)
    hi_h = None  # the crossing lies in [t + lo_h, t + hi_h] once a step finds it
    while t < until:  # t stays put while the crossing is searched
        if hi_h is None:
            if until - t < h:  # the last step ends at the horizon
                h = until - t
        elif hi_h - lo_h > width:
            # Newton from the last trial (h, u_new), nudged across the root; the
            # midpoint for a slope <= 0 (NaN), a point outside or a slow bracket
            slope = q * u_new * u_new - r
            h = h - u_new / slope if slope > 0.0 else math.nan
            h += -nudge if u_new >= 0.0 else nudge
            if not (lo_h < h < hi_h and hi_h - lo_h <= 0.5 * span2):
                h = 0.5 * (lo_h + hi_h)
            span2, span1 = span1, hi_h - lo_h
        else:
            return ComparisonPath(np.array(times), (t + lo_h, t + hi_h))
        k1 = q * u * u - r
        ui = u + h * a21 * k1
        k2 = q * ui * ui - r
        ui = u + h * a31 * k1 + h * a32 * k2
        k3 = q * ui * ui - r
        ui = u + h * a41 * k1 + h * a42 * k2 + h * a43 * k3
        k4 = q * ui * ui - r
        ui = u + h * a51 * k1 + h * a52 * k2 + h * a53 * k3 + h * a54 * k4
        k5 = q * ui * ui - r
        ui = (u + h * a61 * k1 + h * a62 * k2 + h * a63 * k3 + h * a64 * k4
              + h * a65 * k5)
        k6 = q * ui * ui - r
        u_new = u + h * (b51 * k1 + b52 * k2 + b53 * k3 + b54 * k4 + b55 * k5
                         + b56 * k6)
        if hi_h is not None:
            if u_new >= 0.0:
                hi_h = h
            else:
                lo_h = h
            continue
        err = abs(u_new - (u + h * (b41 * k1 + b42 * k2 + b43 * k3 + b44 * k4
                                    + b45 * k5 + b46 * k6)))
        an = abs(u_new)
        tol = abs_tol + rel_tol * (an if an > au else au)
        # err > tol only for a finite u_new: an infinite one makes tol
        # infinite or NaN and a NaN one makes err NaN
        if err > tol or not isfinite(u_new):
            g = 0.9 * (tol / err) ** 0.2 if err > tol else 0.2
            h *= g if g > 0.2 else 0.2
            if h < 1e-15 * (t if t > t_scale else t_scale):
                raise NoPoleInHorizon("step underflow before the pole", np.array(times))
            continue
        if w_chart and u_new >= 0.0:
            # search the crossing; span2, span1: the bracket's widths 2 and 1 trials ago
            lo_h, hi_h, span2, span1 = 0.0, h, math.inf, math.inf
            width = 1e-13 * (t + h)
            nudge = 0.25 * width
            continue
        t += h
        u = u_new
        au = an
        add_time(t)
        g = 0.9 * (tol / err) ** 0.2 if err > 0.0 else 5.0
        h *= 5.0 if g > 5.0 else (g if g > 0.2 else 0.2)
        if not w_chart and u < -2.0 * s:
            u = 1.0 / u
            q, r = b, -a
            abs_tol, rel_tol = ORACLE_REL_TOL * abs(u), 0.0
            w_chart = True
    raise NoPoleInHorizon(f"no pole before t={until:g}", np.array(times))


# ---------------------------------------------------------------------------
# Pointwise bound
# ---------------------------------------------------------------------------


def chae_tadmor_bounds(densities, div0, n: int):
    """Per-characteristic blowup bounds -N/div(u0) for lambda = 0 flows, in
    marker order, of the markers that start non-vacuum with div(u0) < 0."""
    return -n / div0[(densities > 0) & (div0 < 0)]

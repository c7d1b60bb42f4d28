"""Blowup-event detection, event bracketing, and escape reporting.

A C^2 breakdown is detected through three redundant triggers, a marker gap
closing, |div u| or rho passing its threshold (core.TRIGGERS: column, row
of core.trigger_rows, threshold, direction and a priority order that keeps
classification deterministic). Along dust characteristics div u -> -inf and
rho -> +inf together at shell crossing, so the triggers guard each other.
The scan judges each accepted state once, by its core.StepRow. Only shells
bisect (bracket_event). A slab's event is in closed form (slab_event), from
each trigger's margin in the slab chart, where v = 1/rho has a regular zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import geometry1d
from .core import (TRIGGERS, NumericalSettings, StepRow, Trajectory, Trigger, inside, splitter,
                   trigger_rows)
from .errors import ClosedFormMismatch, DustLabError

BRACKET_REL_WIDTH = 1e-8


@dataclass(frozen=True)
class BlowupEvent:
    t_lo: float  # no trigger holds at t_lo
    t_hi: float  # and holds at t_hi
    trigger: Trigger
    marker_index: int


def trigger_marker_index(state, trigger: Trigger) -> int:
    """The marker at the extreme of the trigger's row of trigger_rows in state."""
    rule = TRIGGERS[trigger]
    rows = trigger_rows(np.empty((3, state.positions.size)), state.dimension)
    values = rows(state.positions, state.densities, state.div_u())[rule.row]
    return int(np.argmin(values) if rule.below else np.argmax(values))


def _held(row: StepRow, settings: NumericalSettings) -> list:
    """The triggers holding at row, in priority order."""
    return [trigger for trigger, rule in TRIGGERS.items()
            if rule.holds(getattr(row, rule.column), getattr(settings, rule.threshold))]


def scan_step(row: StepRow, settings: NumericalSettings) -> list:
    """The triggers holding at an accepted step's row, in priority order
    (apart from _held, which the bracket's trials call)."""
    return _held(row, settings)


def bracket_event(reintegrate, reduce, unpack, row_prev: StepRow, y_prev,
                  row_next: StepRow, y_next, settings: NumericalSettings):
    """Bisect the earliest trigger time within one accepted shell step.

    reintegrate(t0, y0, t1) -> y1 re-runs the solver on the views of solver
    vectors; reduce(t, y1) -> y1's StepRow; unpack(t, y) -> field state. No
    trigger may hold at row_prev (y_prev's row), and some holds at row_next.
    Midpoint trials, judged by _held, go on until the bracket is at most
    BRACKET_REL_WIDTH t_hi wide and one trigger alone holds at t_hi, or the
    midpoint no longer splits it (priority order decides). Returns the event,
    its marker read from the state at t_hi, and the row and state at its
    lower edge, row_prev and y_prev if no trial moved it."""
    if _held(row_prev, settings):
        raise DustLabError("bracket_event precondition: trigger already holds at row_prev")
    lo, hi, held = row_prev.time, row_next.time, _held(row_next, settings)
    row_lo, y_lo, y_hi = row_prev, y_prev, y_next
    while ((hi - lo > BRACKET_REL_WIDTH * abs(hi) or len(held) > 1)
           and lo < (mid := 0.5 * (lo + hi)) < hi):
        y_mid = reintegrate(lo, y_lo, mid)
        row_mid = reduce(mid, y_mid)
        if held_mid := _held(row_mid, settings):
            hi, held, y_hi = mid, held_mid, y_mid
        else:
            lo, row_lo, y_lo = mid, row_mid, y_mid
    idx = trigger_marker_index(unpack(hi, y_hi), held[0])
    return BlowupEvent(t_lo=lo, t_hi=hi, trigger=held[0], marker_index=idx), row_lo, y_lo


_HALF_WIDTH = 0.5 * (1 - 1e-3) * BRACKET_REL_WIDTH  # W/2 relative to r1


def first_zeros(m0, m1, k, lam):
    """sigma of each margin's first falling zero (m0, m1, k of
    geometry1d.trigger_margins), +inf if none: the margin has the sign of m0
    + m1 sigma + (k/2 + lam m0/4) sigma^2, sigma = t, (2/s) tanh(s t/2) at
    lam = s^2 or (2/w) tan(w t/2) at lam = -w^2 (k < 0: within half a
    period). Tangent rule: a margin with a discriminant <= 0 has no zero
    unless it falls from 0 at t = 0 (a < 0); m0 an ulp below 0 counts as 0."""
    c = np.maximum(m0, 0.0)
    a = 0.5 * k + 0.25 * lam * c
    disc = m1 * m1 - 4.0 * a * c
    zeros, sq = np.full(disc.shape, np.inf), np.sqrt(np.maximum(disc, 0.0))
    # the root where the quadratic falls, in the form that does not cancel
    np.divide(2.0 * c, sq - m1, out=zeros, where=(m1 < 0.0) & (disc > 0.0))
    np.divide(-m1 - sq, 2.0 * a, out=zeros, where=(m1 >= 0.0) & (a < 0.0))
    return zeros


def earliest_roots(margins, lam):
    """(t, trigger, marker) per trigger in priority order: the earliest zero
    of its margins (first_zeros', its time by libm on the scalar; +inf if
    none) and the lowest marker index with that zero."""
    r, roots = math.sqrt(abs(lam)), []
    for trigger, margin in zip(TRIGGERS, margins):
        zeros = first_zeros(*margin, lam)
        if zeros.ndim > 1:  # |div u|'s two rows, one per sign of q
            zeros = np.minimum.reduce(zeros)
        marker = int(np.argmin(zeros))
        t = float(zeros[marker])
        if lam > 0.0:
            t = 2.0 / r * math.atanh(0.5 * r * t) if 0.5 * r * t < 1.0 else math.inf
        elif lam < 0.0 and t < math.inf:
            t = 2.0 / r * math.atan(0.5 * r * t)
        roots.append((t, trigger, marker))
    return roots


def slab_event(vs):
    """The slab's first event in closed form, None if none by t_end. The
    trigger has the earliest root r1 (earliest_roots'; priority order decides an
    exact tie), r2 is the next one's, W = (1 - 1e-3) BRACKET_REL_WIDTH r1 and
    t_lo = r1 - W/2. t_hi: the first double >= r1 at which the trigger holds
    on the marker's closed-form state (geometry1d.flow, judged as a row), up
    to r1 + min(W/2, (r2 - r1)/2) (min(t_end, r2/2) at r1 = 0), plus the
    closed form's rounding (1.5 eps of its terms over the rate) within that
    cap, which may pass t_end. Not holding by it raises ClosedFormMismatch."""
    lam, s, t_end, n = vs.lam, vs.scenario.settings, vs.scenario.t_end, vs.initial.masses.size
    margins = geometry1d.trigger_margins(vs)
    (r1, trigger, marker), (r2, _, _), _ = sorted(earliest_roots(margins, lam),
                                                  key=lambda root: root[0])
    if not r1 <= t_end:
        return None
    rule, gap = TRIGGERS[trigger], trigger is Trigger.SHELL_CROSSING
    if gap:  # z = x[j+1] - x[j] - gap_thr
        z0, z1, k = (float(m[marker]) for m in margins[0])
    else:  # z = v, z' = q
        z0, z1, k = *(float(z[marker]) for z in splitter(n, 1)(vs.y0)[3:5]), -1.0

    def rate(t):
        return geometry1d.flow(lam, t, z1, lam * z0 + k)

    def holds(t):
        z = geometry1d.flow(lam, t, z0, z1, k)
        if gap:
            value = z + s.crossing_gap_threshold
        elif not z > 0.0:  # past the collapse, as the run's reducer reads it
            value = math.inf
        else:
            value = 1.0 / z if rule.column == "max_density" else abs(rate(t) / z)
        return rule.holds(value, getattr(s, rule.threshold))

    half = _HALF_WIDTH * r1
    lo = r1
    hi = cap = r1 + min(half or t_end, 0.5 * (r2 - r1))
    if holds(lo):
        hi = lo
    elif not holds(hi):
        raise ClosedFormMismatch(f"{trigger.value}: the closed form's root at t={r1!r} "
                                 f"does not hold by t={cap!r}")
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (lo, mid) if holds(mid) else (mid, hi)
    terms = geometry1d.flow(abs(lam), hi, abs(z0), abs(z1), abs(k))
    slack = 1.5 * math.ulp(1.0) * terms / abs(rate(hi)) if rate(hi) else math.inf
    return BlowupEvent(t_lo=r1 - half, t_hi=min(hi + slack, cap), trigger=trigger,
                       marker_index=marker)


# ---------------------------------------------------------------------------
# Escape reporting (Corollary-3 logic)
# ---------------------------------------------------------------------------


class EscapeStatus(Enum):
    CERTIFICATE_HONORED = "certificate honored"
    HYPOTHESIS_VIOLATED = "hypothesis violated: support escaped V_sup"
    CONTRADICTION = "CONTRADICTION -- investigate"
    INCONCLUSIVE = "horizon ended before the certified bound"
    NO_PREDICTION = "no prediction"


@dataclass(frozen=True)
class EscapeReport:
    status: EscapeStatus
    message: str


def escape_report(trajectory: Trajectory, v_sup: float, certificate) -> EscapeReport:
    """Reconcile a run against its analytic certificate: a certified run
    whose support stayed within v_sup must blow up by the bound; one whose
    support escaped first takes the escape corollary's alternative; one that
    did neither is a contradiction and must never occur."""
    event = trajectory.event
    times = trajectory.times
    # the proof chain's support-volume rule, on the upper support estimate;
    # the escape lies between the last row inside and the first outside (the
    # first row twice if the support starts outside)
    upper = trajectory.columns.volume_upper.tolist()
    out = next((k for k, u in enumerate(upper) if not inside(u, v_sup)), None)
    t_escape = None if out is None else float(times[out])

    if certificate is None or certificate.t_bound is None:
        observed = "no event" if event is None else f"event observed at t={event.t_hi:.6g}"
        return EscapeReport(EscapeStatus.NO_PREDICTION, observed)

    t_bound = certificate.t_bound
    if event is not None and event.t_hi <= t_bound * (1 + 1e-6):
        return EscapeReport(EscapeStatus.CERTIFICATE_HONORED,
                            f"event at t={event.t_hi:.6g} <= certified bound {t_bound:.6g}")
    if t_escape is not None and t_escape < t_bound:
        late = " --" if event is None else "; late event is"
        return EscapeReport(EscapeStatus.HYPOTHESIS_VIOLATED,
                            f"at t in [{times[max(out - 1, 0)]:.6g}, {t_escape:.6g}] before the "
                            f"bound {t_bound:.6g}{late} consistent with the escape corollary")
    if event is not None:
        return EscapeReport(EscapeStatus.CONTRADICTION,
                            f"event at t={event.t_hi:.6g} after bound {t_bound:.6g} "
                            "with support bounded throughout")
    if times[-1] < t_bound:
        return EscapeReport(EscapeStatus.INCONCLUSIVE,
                            f"run ended at t={times[-1]:.6g} < bound {t_bound:.6g}")
    return EscapeReport(EscapeStatus.CONTRADICTION,
                        f"no event by t={times[-1]:.6g} >= bound {t_bound:.6g} "
                        "with support bounded throughout")

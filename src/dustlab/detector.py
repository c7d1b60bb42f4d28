"""Blowup-event detection, event bracketing, and escape reporting.

A C^2 breakdown has no single observable; it is detected through three
redundant triggers, a marker gap closing, |div u| or rho passing its
threshold. Their table, core.TRIGGERS, fixes each one's column, its row of
core.trigger_rows, threshold and direction, and a priority order that keeps
classification deterministic when several fire within one step.

Along dust characteristics div u -> -inf and rho -> +inf together at shell
crossing, so the triggers guard each other; a step that ends past a slab
marker's singularity holds all three. The scan judges each accepted state
once, and the bracket each trial, by its row of per-step scalars
(core.StepRow); the event's marker is read from the judged state at t_hi.
A shell bracket bisects; a slab's aims its trials by Newton on each
trigger's margin in the slab chart, where v = 1/rho has a regular zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import TRIGGERS, NumericalSettings, StepRow, Trajectory, Trigger, inside, trigger_rows
from .errors import DustLabError

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
    """The triggers holding at an accepted step's row, in priority order."""
    # a name apart from _held, which the bracket's trials call: one call per accepted step
    return _held(row, settings)


def slab_roots(settings: NumericalSettings):
    """roots(t, yv, fv): per trigger, the earliest tangent root t - m/m' over
    the slab markers whose margin m falls (+inf if none), from the views yv
    of the chart [x, u, v, q] and fv of its RHS. m < 0 where the trigger
    holds, past a singularity too: gap x[k+1] - x[k] - gap_thr, |div u|
    v - |q|/div_thr, density v - 1/rho_thr."""
    gap_thr = settings.crossing_gap_threshold
    div_thr, rho_thr = settings.div_blowup_threshold, settings.rho_blowup_threshold

    def earliest(t, margin, slope):
        falling = slope < 0.0
        if not falling.any():
            return np.inf
        with np.errstate(over="ignore"):
            return t - float(np.max(margin[falling] / slope[falling]))

    def roots(t, yv, fv):
        _, x, _, v, q, _, _, _ = yv
        _, dx, _, dv, dq, _, _, _ = fv
        return (earliest(t, x[1:] - x[:-1] - gap_thr, dx[1:] - dx[:-1]),
                earliest(t, v - np.abs(q) / div_thr, dv - np.sign(q) * dq / div_thr),
                earliest(t, v - 1.0 / rho_thr, dv))

    return roots


NEWTON_TRIALS = 8  # per bracket, before it only bisects
_HALF_WIDTH = 0.5 * (1 - 1e-3) * BRACKET_REL_WIDTH  # W/2 relative to r1


def bracket_event(reintegrate, reduce, unpack, row_prev: StepRow, y_prev,
                  row_next: StepRow, y_next, settings: NumericalSettings, roots=None):
    """Bracket the earliest trigger time within one accepted step.

    States are the views of solver vectors (core.splitter's).
    reintegrate(t0, y0, t1) -> y1 re-runs the solver over a sub-interval;
    reduce(t, y1) -> y1's StepRow, with the rate from the RHS reintegrate
    left; unpack(t, y) -> field state. Precondition: no trigger holds at
    row_prev, y_prev's StepRow, and some at row_next, y_next's. Trials,
    judged by _held, go on until the bracket is at most BRACKET_REL_WIDTH
    t_hi wide and one trigger alone holds at t_hi, or the midpoint no longer
    splits it, where priority order decides. A trial is the midpoint unless
    roots() (slab_roots' at the state the solver holds at t_hi) gives r1 and
    r2, the two earliest trigger times: then it closes the bracket below at
    r1 - W/2, W just under the goal width, and puts t_hi at r1 + min(W/2,
    (r2 - r1)/2). A concave margin's tangent root lies past its root, which
    so ends inside. The midpoint replaces a trial outside (lo, hi) and all
    after NEWTON_TRIALS, as in riccati.integrate_comparison_ode. Returns the
    event, its marker read from the judged state at t_hi, and the row and
    state at its lower edge, row_prev and y_prev if none moved it.
    """
    if _held(row_prev, settings):
        raise DustLabError("bracket_event precondition: trigger already holds at row_prev")
    lo, hi, held = row_prev.time, row_next.time, _held(row_next, settings)
    row_lo, y_lo, y_hi = row_prev, y_prev, y_next
    trials = 0 if roots is None else NEWTON_TRIALS
    if trials:
        r1, r2 = sorted(roots())[:2]
    while hi - lo > BRACKET_REL_WIDTH * abs(hi) or len(held) > 1:
        mid = 0.5 * (lo + hi)
        if trials:
            half = _HALF_WIDTH * abs(r1)
            trial = r1 - half if r1 - half > lo else r1 + min(half, 0.5 * (r2 - r1))
            if lo < trial < hi:
                mid, trials = trial, trials - 1
        if not lo < mid < hi:
            break
        y_mid = reintegrate(lo, y_lo, mid)
        row_mid = reduce(mid, y_mid)
        if held_mid := _held(row_mid, settings):
            hi, held, y_hi = mid, held_mid, y_mid
            if trials:
                r1, r2 = sorted(roots())[:2]
        else:
            lo, row_lo, y_lo = mid, row_mid, y_mid
    idx = trigger_marker_index(unpack(hi, y_hi), held[0])
    return BlowupEvent(t_lo=lo, t_hi=hi, trigger=held[0], marker_index=idx), row_lo, y_lo


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
    """Reconcile a run against its analytic certificate.

    A certified run whose support stayed within v_sup must blow up by the
    certified bound; if instead the support escaped v_sup first, the outcome
    is the alternative allowed by the escape corollary. A certified run that
    neither blew up nor escaped is a contradiction and must never occur.
    """
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

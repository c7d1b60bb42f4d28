"""Blowup-event detection, bisection bracketing, and escape reporting.

A C^2 breakdown has no single observable; it is detected through three
redundant triggers, a marker gap closing, |div u| or rho passing its
threshold. Their table, core.TRIGGERS, fixes each one's column, its row of
core.trigger_rows, threshold and direction, and a priority order that keeps
classification deterministic when several fire within one step.

Along dust characteristics div u -> -inf and rho -> +inf together at shell
crossing, so the triggers guard each other; a step that ends past a slab
marker's singularity holds all three. The scan and the bisection read each
state's row of per-step scalars (core.StepRow), not its markers; only the
event's marker is picked from a full state.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .core import TRIGGERS, NumericalSettings, StepRow, Trajectory, Trigger, trigger_rows
from .errors import DustLabError
from .functional import _inside

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


# TRIGGERS as plain tuples: the scan of every accepted step unpacks them fastest
_SCAN = tuple((trigger, rule.column, rule.threshold, rule.holds)
              for trigger, rule in TRIGGERS.items())


def _held(row: StepRow, settings: NumericalSettings) -> list:
    """The triggers holding at row, in priority order."""
    return [trigger for trigger, column, threshold, holds in _SCAN
            if holds(getattr(row, column), getattr(settings, threshold))]


def scan_step(prev_row: StepRow, next_row: StepRow,
              settings: NumericalSettings) -> Optional[Trigger]:
    """First trigger (in priority order) holding at next_row but not prev_row."""
    return next((t for t in _held(next_row, settings) if t not in _held(prev_row, settings)),
                None)


def bracket_event(reintegrate, reduce, unpack, row_prev: StepRow, y_prev,
                  row_next: StepRow, settings: NumericalSettings):
    """Bisect the earliest trigger time within one accepted step.

    States are the views of solver vectors (_integrate.splitter's).
    reintegrate(t0, y0, t1) -> y1 re-runs the solver over a sub-interval;
    reduce(t, y1) -> y1's StepRow, with the rate from the RHS reintegrate
    left; unpack(t, y) -> field state. Precondition: no trigger holds at
    row_prev, y_prev's StepRow, and some at row_next. Bisection goes on
    until the bracket is narrower than BRACKET_REL_WIDTH t_hi and one
    trigger alone holds at t_hi, or the midpoint no longer splits it, where
    priority order decides. Returns the event and the row and state at its
    lower edge, row_prev and y_prev if none moved it.
    """
    if _held(row_prev, settings):
        raise DustLabError("bracket_event precondition: trigger already holds at row_prev")
    lo, hi, held = row_prev.time, row_next.time, _held(row_next, settings)
    row_lo, y_lo = row_prev, y_prev
    while hi - lo > BRACKET_REL_WIDTH * abs(hi) or len(held) > 1:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        y_mid = reintegrate(lo, y_lo, mid)
        row_mid = reduce(mid, y_mid)
        if held_mid := _held(row_mid, settings):  # free y_mid before the next re-integration
            hi, held, y_mid = mid, held_mid, None
        else:
            lo, row_lo, y_lo = mid, row_mid, y_mid
    y_hi = reintegrate(lo, y_lo, hi)
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
    out = next((k for k, u in enumerate(upper) if not _inside(u, v_sup)), None)
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

"""Blowup-event detection, bisection bracketing, and escape reporting.

A C^2 breakdown has no single observable; it is detected through three
redundant triggers, checked in fixed priority order so classification is
deterministic when several fire within one step:

  1. ShellCrossing      adjacent characteristic gap below crossing_gap_threshold
                        (a swap shows up as a negative gap);
  2. DivergenceThreshold |div u| exceeding div_blowup_threshold;
  3. DensityThreshold   rho exceeding rho_blowup_threshold.

Along dust characteristics div u -> -inf and rho -> +inf together at shell
crossing, so the triggers guard each other. Integration stops at the event;
there is no continuation past the singularity. The scan reads each
accepted step's row of per-step scalars (core.StepRow), not its markers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .core import NumericalSettings, StepRow, Trajectory
from .errors import DustLabError
from .functional import _inside

BRACKET_REL_WIDTH = 1e-8


class Trigger(Enum):
    SHELL_CROSSING = "ShellCrossing"
    DIVERGENCE_THRESHOLD = "DivergenceThreshold"
    DENSITY_THRESHOLD = "DensityThreshold"


@dataclass(frozen=True)
class BlowupEvent:
    t_lo: float  # the trigger does not hold at t_lo
    t_hi: float  # and holds at t_hi
    trigger: Trigger
    marker_index: int
    values_at_t_lo: object  # field state at the bracket's lower edge


def _crossing_holds(row: StepRow, settings):
    return row.min_gap < settings.crossing_gap_threshold


def _divergence_holds(row: StepRow, settings):
    return row.max_abs_div > settings.div_blowup_threshold


def _density_holds(row: StepRow, settings):
    return row.max_density > settings.rho_blowup_threshold


# each trigger's condition on a StepRow, in priority order
CONDITIONS = {
    Trigger.SHELL_CROSSING: _crossing_holds,
    Trigger.DIVERGENCE_THRESHOLD: _divergence_holds,
    Trigger.DENSITY_THRESHOLD: _density_holds,
}


def trigger_marker_index(state, trigger: Trigger) -> int:
    if trigger is Trigger.SHELL_CROSSING:
        return int(np.argmin(state.gaps()))
    if trigger is Trigger.DIVERGENCE_THRESHOLD:
        return int(np.argmax(np.abs(state.div_u())))
    return int(np.argmax(state.densities))


def scan_step(prev_row: StepRow, next_row: StepRow,
              settings: NumericalSettings) -> Optional[Trigger]:
    """First trigger (in priority order) holding at next_row but not prev_row."""
    for trig, holds in CONDITIONS.items():
        if holds(next_row, settings) and not holds(prev_row, settings):
            return trig
    return None


def bracket_event(reintegrate, reduce, unpack, t_prev, y_prev, t_next,
                  trigger: Trigger, settings: NumericalSettings):
    """Bisect the trigger time within one accepted step.

    reintegrate(t0, y0, t1) -> y1 re-runs the solver over a sub-interval;
    reduce(t, y) -> the StepRow the trigger conditions read; unpack(t, y) ->
    field state, as views of y. Precondition: the trigger holds at t_next
    and not at t_prev. Returns the event and the solver vector at its lower
    edge.
    """
    condition = CONDITIONS[trigger]

    def holds(t, y):
        return condition(reduce(t, y), settings)

    if holds(t_prev, y_prev):
        raise DustLabError("bracket_event precondition: trigger already holds at t_prev")
    lo, hi = t_prev, t_next
    y_lo = y_prev
    width_goal = BRACKET_REL_WIDTH * max(1.0, abs(t_next))
    # the bracket starts at most t_next wide, so 27 halvings reach the goal;
    # a gap above the goal is far wider than the ulps a midpoint rounds by
    while hi - lo > width_goal:
        mid = 0.5 * (lo + hi)
        y_mid = reintegrate(lo, y_lo, mid)
        if holds(mid, y_mid):
            hi = mid
        else:
            lo, y_lo = mid, y_mid
    state_lo = unpack(lo, y_lo)
    y_hi = reintegrate(lo, y_lo, hi)
    idx = trigger_marker_index(unpack(hi, y_hi), trigger)
    event = BlowupEvent(t_lo=lo, t_hi=hi, trigger=trigger,
                        marker_index=idx, values_at_t_lo=state_lo)
    return event, y_lo


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
    # the proof chain's support-volume rule, on the upper support estimate
    upper = trajectory.columns.volume_upper.tolist()
    t_escape = next((t for t, u in zip(times.tolist(), upper) if not _inside(u, v_sup)), None)

    certified = certificate is not None and certificate.t_bound is not None
    if not certified:
        if event is not None:
            return EscapeReport(EscapeStatus.NO_PREDICTION,
                               f"no prediction; event observed at t={event.t_hi:.6g}")
        return EscapeReport(EscapeStatus.NO_PREDICTION, "no prediction, no event")

    t_bound = certificate.t_bound
    tol = 1e-6
    if event is not None:
        if event.t_hi <= t_bound + tol:
            return EscapeReport(EscapeStatus.CERTIFICATE_HONORED,
                               f"event at t={event.t_hi:.6g} <= certified bound {t_bound:.6g}")
        if t_escape is not None and t_escape < t_bound:
            return EscapeReport(EscapeStatus.HYPOTHESIS_VIOLATED,
                               f"support escaped V_sup at t={t_escape:.6g} before the bound "
                               f"{t_bound:.6g}; late event is consistent with the escape corollary")
        return EscapeReport(EscapeStatus.CONTRADICTION,
                            f"event at t={event.t_hi:.6g} after bound {t_bound:.6g} "
                            "with support bounded throughout")
    # no event
    if t_escape is not None and t_escape < t_bound:
        return EscapeReport(EscapeStatus.HYPOTHESIS_VIOLATED,
                           f"support escaped V_sup at t={t_escape:.6g} before the bound "
                           f"{t_bound:.6g} -- consistent with the escape corollary")
    if times[-1] < t_bound:
        return EscapeReport(EscapeStatus.INCONCLUSIVE,
                           f"run ended at t={times[-1]:.6g} before the bound {t_bound:.6g}")
    return EscapeReport(EscapeStatus.CONTRADICTION,
                        f"no event by t={times[-1]:.6g} >= bound {t_bound:.6g} "
                        "with support bounded throughout")

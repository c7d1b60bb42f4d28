"""Shared adaptive Runge-Kutta driver for both geometries.

The solver vector of a run holds the marker fields one after another,
[positions, velocities, densities, eig_radial (, eig_tangential)], the last
only for shells (layout). The geometry modules supply the force law as
rhs(t, y) on that vector; everything else is common.

One loop (steps) steps an embedded RK4(5) pair for the run, for the
bracket's re-integration and for sample. The run reduces every accepted
state once to its row of per-step scalars (functional.step_row), scans each
accepted step's row for detector triggers, and localizes the first trigger
by bisection on re-integrated sub-steps. Deterministic for fixed settings.

Full marker states are kept for the first and the last row only, unless
keep_states=True asks for every one.
"""

from __future__ import annotations

from functools import partial

import numpy as np
from scipy.integrate import RK45

from . import detector, functional
from .core import FieldState, Trajectory, ValidatedScenario, divergence
from .errors import MaxStepsExceeded, StepUnderflow


def layout(vs: ValidatedScenario):
    """The solver vector of the initial markers, y0, and the two maps a run
    needs: unpack(t, y, copy=True) builds the FieldState of a solver vector,
    and div_rate(f) takes D(div u)/Dt per marker from an RHS value f."""
    masses, lam, dim = vs.masses, vs.lam, vs.dimension
    n = masses.size
    fields = [vs.positions, vs.velocities, vs.densities, vs.eig_radial]
    if dim > 1:
        fields.append(vs.eig_tangential)

    def unpack(t, y, copy=True):
        if copy:
            y = y.copy()
        return FieldState(time=float(t), positions=y[:n], velocities=y[n:2 * n],
                          densities=y[2 * n:3 * n], eig_radial=y[3 * n:4 * n],
                          eig_tangential=y[4 * n:] if dim > 1 else None,
                          masses=masses, dimension=dim, lam=lam)

    def div_rate(f):
        return divergence(f[3 * n:4 * n], f[4 * n:], dim)

    return np.concatenate(fields), unpack, div_rate


def steps(rhs, t0, y0, t_bound, settings):
    """scipy's RK45 on rhs(t, y) from (t0, y0) to t_bound under the
    settings: yields the stepper as built, then after every accepted step.
    Raises MaxStepsExceeded past settings.max_steps steps and StepUnderflow
    when the step size collapses. RK45 replaces stepper.y with a new array on
    every step and never writes into the old one, so stepper.y may be kept
    without a copy."""
    stepper = RK45(rhs, t0, y0, t_bound=t_bound, rtol=settings.rel_tol,
                   atol=settings.abs_tol, max_step=settings.max_step)
    yield stepper
    for _ in range(int(settings.max_steps)):
        if stepper.status != "running":
            return
        t_prev = stepper.t
        stepper.step()
        if stepper.status == "failed":
            raise StepUnderflow(f"step size collapsed at t={t_prev:g}")
        yield stepper
    if stepper.status == "running":
        raise MaxStepsExceeded(f"exceeded {settings.max_steps} accepted steps")


def reintegrate(rhs, settings, t0, y0, t1):
    """The solver vector at t1, stepped from (t0, y0) by a fresh loop."""
    if t1 <= t0:
        return np.array(y0, copy=True)
    for stepper in steps(rhs, t0, y0, t1, settings):
        pass
    return stepper.y


def run_characteristics(vs: ValidatedScenario, rhs,
                        keep_states: bool = False) -> Trajectory:
    """Integrate rhs(t, y), the characteristic system on the solver vector,
    to t_end or the first detector event."""
    settings = vs.settings
    y0, unpack, div_rate = layout(vs)

    def reduce(t, y, f):
        return functional.step_row(unpack(t, y, copy=False), div_rate(f))

    loop = steps(rhs, 0.0, y0, vs.t_end, settings)
    stepper = next(loop)
    # stepper.f is the RHS at stepper.y (first-same-as-last), so the rate
    # column costs no extra RHS evaluation
    rows = [reduce(0.0, stepper.y, stepper.f)]
    states = [unpack(0.0, stepper.y)]
    t_last, y_last = 0.0, stepper.y
    event = None
    edge = False
    for stepper in loop:
        row = reduce(stepper.t, stepper.y, stepper.f)
        trigger = detector.scan_step(rows[-1], row, settings)
        if trigger is not None:
            event, y_lo = detector.bracket_event(partial(reintegrate, rhs, settings),
                                                 unpack, t_last, y_last, stepper.t,
                                                 trigger, settings)
            edge = event.t_lo > rows[-1].time
            if edge:
                # the one state the stepper has no RHS value for
                rows.append(reduce(event.t_lo, y_lo, rhs(event.t_lo, y_lo)))
            break
        rows.append(row)
        t_last, y_last = stepper.t, stepper.y
        if keep_states:
            states.append(unpack(t_last, y_last))

    if edge:
        states.append(event.values_at_t_lo)
    elif not keep_states and len(rows) > 1:
        states.append(unpack(t_last, y_last))
    termination = "event" if event is not None else "t_end"
    return Trajectory.from_rows(vs, rows, states, event=event, termination=termination)


def sample_states(vs: ValidatedScenario, rhs, times) -> Trajectory:
    """States at the requested times from the steps' dense output, for
    fixed-step diagnostics such as convergence studies. Every sampled state
    is kept. No event scanning; the caller is responsible for staying inside
    the smooth interval."""
    times = np.asarray(times, dtype=float)
    if not (times.size and times[0] >= 0 and np.all(np.diff(times) > 0)):
        raise ValueError("sample times must be increasing and >= 0")
    y0, unpack, div_rate = layout(vs)
    states, rows = [], []
    loop = steps(rhs, 0.0, y0, float(times[-1]), vs.settings)
    next(loop)
    done = 0
    for stepper in loop:
        # all times in (t_old, t] in one call, as scipy's t_eval sampling
        # does: a 2-D np.dot can round differently from a 1-D one
        upto = np.searchsorted(times, stepper.t, side="right")
        if upto == done:
            continue
        ys = stepper.dense_output()(times[done:upto])
        for t, y in zip(times[done:upto], ys.T):
            st = unpack(t, y)
            states.append(st)
            rows.append(functional.step_row(st, div_rate(rhs(st.time, y))))
        done = upto
    return Trajectory.from_rows(vs, rows, states)

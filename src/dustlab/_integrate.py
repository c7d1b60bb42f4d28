"""Shared adaptive Runge-Kutta driver for both geometries.

A run's solver vector holds the marker fields one after another, [x, u,
v = 1/rho, q = w/rho] (slab) or [r, u, rho, l1, l2] (shells): only
core.splitter and core.unpacker know this order, and validation packs the
one at t = 0, vs.y0. Each vector is split into its eight views once, when it
is made; the force law rhs(t, yv, fv) writes the derivative at yv into fv.

A run steps one Dormand-Prince 5(4) stepper (DormandPrince), capped by
max_step alone (a slab's is None), reduces each accepted state once to its
row (functional.reducer) and scans the row once for triggers. A slab's event
is in closed form (detector.slab_event): the run steps to its t_lo, and a
row that holds a trigger raises ClosedFormMismatch. A shell run bisects its
first trigger (detector.bracket_event) with the same stepper. sample steps
from each requested time to the next; nothing is interpolated. A run holds
at most about 19 solver vectors on a large slab (tests/test_integrate.py
bounds it), keeps full marker states for its first row (vs.initial) and last
row only unless keep_states=True, and is deterministic for fixed settings.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from . import detector, functional
from .core import Trajectory, ValidatedScenario, splitter, unpacker
from .errors import ClosedFormMismatch, MaxStepsExceeded, StepUnderflow

# The 5(4) pair of Dormand & Prince (1980), J. Comput. Appl. Math. 6:19-26:
# nodes C, stage coefficients A, fifth-order weights B and error weights E
# (fifth minus fourth order, over all seven stages), in the double-precision
# values of the common RK45 tables.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_A = np.array([
    [0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
])
_B = np.array([35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_E = np.array([-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525,
               1 / 40])
_ERROR_EXPONENT = -1 / 5  # -1/(q+1) for the fourth-order error estimate
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_MIN_RTOL = 100 * np.finfo(float).eps


def _rms(x, sqrt_n):
    """sqrt(x.x)/sqrt(n), as np.linalg.norm(x) / n ** 0.5 evaluates it
    wherever x.x is finite; where it overflows, x is scaled by its largest
    magnitude first, so a finite x has a finite norm."""
    with np.errstate(over="ignore"):
        squares = x.dot(x)
    if squares == math.inf:
        big = np.maximum.reduce(np.abs(x))
        if big < math.inf:
            x = x / big
            return big * np.sqrt(x.dot(x)) / sqrt_n
    return np.sqrt(squares) / sqrt_n


def _initial_step(fun, t0, y0, f0, t_bound, max_step, rtol, atol, sqrt_n, scratch):
    """First step size for an error estimate of order 4: Hairer, Norsett &
    Wanner, Solving ODEs I, Sec. II.4 (one extra RHS evaluation). scratch
    holds a vector of y0's size and the views of two more, which it
    overwrites."""
    interval = abs(t_bound - t0)
    if interval == 0.0:
        return 0.0
    scale, y1v, f1v = scratch
    y1, f1 = y1v[0], f1v[0]
    # atol + |y0| rtol
    np.abs(y0, out=scale)
    scale *= rtol
    scale += atol
    d0 = _rms(np.divide(y0, scale, out=y1), sqrt_n)
    d1 = _rms(np.divide(f0, scale, out=y1), sqrt_n)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    # f1 = fun(t0 + h0, y0 + h0 f0)
    np.multiply(h0, f0, out=y1)
    y1 += y0
    fun(t0 + h0, y1v, f1v)
    f1 -= f0
    f1 /= scale
    d2 = _rms(f1, sqrt_n) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return float(min(100 * h0, h1, interval, max_step))


class DormandPrince:
    """Explicit Runge-Kutta 5(4) stepper of fun(t, yv, fv), forward in time,
    with local extrapolation, the error measured by the RMS norm of
    (err / (atol + max(|y|, |y_new|) rtol)), and the step scaled by
    0.9 err^(-1/5) clipped to [0.2, 10] (at most 1 right after a rejection).

    Every accepted time, state and RHS value equals bit for bit, with as many
    RHS calls, the tests' reference loop tests/conftest.py::dormand_prince's
    under the same rtol, atol, max_step and first step: the same np.dot stage
    sums on views of one (7 x n) stage block, the same step control in the
    same order. An rtol below 100 machine epsilons is raised, with a warning.
    The constructor builds, and does not start, a stepper for solver vectors
    of size doubles: the block (row 6 the derivative at the new state, copied
    to row 0 for the next step), a stage-sum vector that ends a step as its
    error estimate, and the error scale, all split once. restart(t0, y0,
    t_bound) starts it at any state's views, estimating the step size
    (_initial_step); reintegrate(t0, y0, t1) keeps the one last proposed.
    step() advances t by one accepted step, clipped to end at t_bound, and
    leaves y (a new array, never written to again, nor is y0) and f (the RHS
    at y, row 6, valid until the stepper next steps or starts), with their
    views yv and fv; it raises StepUnderflow below 10 ulp of t.
    """

    def __init__(self, fun, split, size, settings):
        self.fun, self.split = fun, split
        rtol = settings.rel_tol
        if rtol < _MIN_RTOL:
            warnings.warn(f"rel_tol {rtol:g} is below 100 machine epsilons; "
                          f"using {_MIN_RTOL:g}", stacklevel=2)
            rtol = _MIN_RTOL
        self.rtol, self.max_steps = rtol, settings.max_steps
        self.max_step = math.inf if settings.max_step is None else settings.max_step
        self._tol = np.array(rtol), np.array(settings.abs_tol)
        self._sqrt_n = size ** 0.5
        self._K = K = np.empty((7, size))
        self._rows = rows = tuple(split(row) for row in K)
        # each stage's row and the transposed views of its sum, built once
        self._stages = tuple((rows[s], K[:s].T, _A[s, :s], _C[s]) for s in range(1, 6))
        self._K_step = K[:6].T
        self._K_all = K.T
        self.f, self.fv = K[6], rows[6]
        self._sum = split(np.empty(size))  # a stage's argument, then the error estimate
        self._scale = np.empty(size)
        self._abs_y = np.empty(size)  # |y| of the current state
        self.h_abs = 0.0  # the step size the next step tries; 0 until one is estimated

    def restart(self, t0, y0, t_bound):
        """_seat() with the step size estimated anew, as a new stepper starts."""
        self.h_abs = 0.0
        self._seat(t0, y0, t_bound)

    def _seat(self, t0, y0, t_bound):
        """Stand at the views (t0, y0) toward t_bound, the RHS at y0 and |y0|
        in the stepper's buffers, keeping the step size (estimated if 0)."""
        if t_bound < t0:
            raise ValueError("the stepper only integrates forward in time")
        self.t, self.y, self.yv, self.t_bound = t0, y0[0], y0, t_bound
        self.fun(t0, y0, self.fv)
        if not self.h_abs:
            self.h_abs = _initial_step(self.fun, t0, self.y, self.f, t_bound, self.max_step,
                                       *self._tol, self._sqrt_n,
                                       (self._K[1], *self._rows[2:4]))
        np.abs(self.y, out=self._abs_y)

    def step(self):
        """One accepted step, retrying rejected ones."""
        t, t_bound = self.t, self.t_bound
        y, fun, split, K, f, fv = self.y, self.fun, self.split, self._K, self.f, self.fv
        wv, scale = self._sum, self._scale
        w = wv[0]
        (rtol, atol), abs_y, sqrt_n = self._tol, self._abs_y, self._sqrt_n
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = self.h_abs
        if h_abs > self.max_step:
            h_abs = self.max_step
        elif h_abs < min_step:
            h_abs = min_step
        K[0] = f
        rejected = False
        while True:
            if h_abs < min_step:
                raise StepUnderflow(f"step size collapsed at t={t:g}")
            t_new = t + h_abs
            if t_new > t_bound:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            h_array = np.array(h)
            for stage, k, a, c in self._stages:
                # y + (K[:s].T a) h
                k.dot(a, out=w)
                w *= h_array
                w += y
                fun(t + c * h, wv, stage)
            y_new = self._K_step.dot(_B)
            y_new *= h_array
            y_new += y
            yv_new = split(y_new)
            fun(t + h, yv_new, fv)
            # max(|y|, |y_new|) rtol + atol
            np.maximum(abs_y, np.abs(y_new, out=w), out=scale)
            scale *= rtol
            scale += atol
            err = self._K_all.dot(_E, out=w)
            err *= h_array
            err /= scale
            try:
                error_norm = math.sqrt(err.dot(err)) / sqrt_n
            except FloatingPointError:  # the squares overflow where errors raise
                error_norm = math.inf
            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        self.t, self.y, self.yv, self.h_abs = t_new, y_new, yv_new, h_abs
        np.abs(y_new, out=abs_y)

    def steps(self):
        """Steps to t_bound, yielding the stepper after each accepted one; stops
        once t == t_bound (exact: the last step is clipped to end there).
        Raises MaxStepsExceeded past max_steps steps, and what step() raises."""
        for _ in range(self.max_steps):
            if self.t == self.t_bound:
                return
            self.step()
            yield self
        if self.t != self.t_bound:
            raise MaxStepsExceeded(f"exceeded {self.max_steps} accepted steps")

    def reintegrate(self, t0, y0, t1):
        """The views of the solver vector at t1 >= t0, stepped from the views
        (t0, y0) (_seat): y0 itself when t1 == t0. fv is the RHS there."""
        self._seat(t0, y0, t1)
        for _ in self.steps():
            pass
        return self.yv


def layout(vs: ValidatedScenario):
    """The views of vs.y0 and the three maps a run needs: split
    (core.splitter's), unpack(t, yv) -> FieldState (core.unpacker's) and
    reduce(t, yv, fv) -> functional.StepRow with the RHS views fv."""
    masses, dim = vs.initial.masses, vs.dimension
    split = splitter(masses.size, dim)
    return split(vs.y0), split, unpacker(masses, dim), functional.reducer(masses, dim)


def run_characteristics(vs: ValidatedScenario, rhs,
                        keep_states: bool = False) -> Trajectory:
    """Integrate rhs(t, yv, fv), the characteristic system on the views of
    the solver vector, to t_end or the first detector event: a shell's
    bracketed in the step that holds it, a slab's in closed form, stepped
    to its t_lo."""
    settings = vs.scenario.settings
    y0, split, unpack, reduce = layout(vs)
    event = detector.slab_event(vs) if vs.dimension == 1 else None
    stepper = DormandPrince(rhs, split, y0[0].size, settings)
    stepper.restart(0.0, y0, event.t_lo if event else vs.scenario.t_end)
    rows = [reduce(0.0, y0, stepper.fv)]  # every rate is the RHS in stepper.fv
    states = [vs.initial]
    y_last = y0
    for _ in stepper.steps():
        row = reduce(stepper.t, stepper.yv, stepper.fv)
        if held := detector.scan_step(row, settings):
            if vs.dimension == 1:
                raise ClosedFormMismatch(f"{held[0].value} holds on the run's row at "
                                         f"t={row.time!r}, before the closed form's event")
            # the bracket re-integrates with the run's stepper, which steps no further
            event, row_lo, y_lo = detector.bracket_event(
                stepper.reintegrate, lambda t, y: reduce(t, y, stepper.fv), unpack,
                rows[-1], y_last, row, stepper.yv, settings)
            if row_lo is not rows[-1]:  # a trial moved the lower edge
                rows.append(row_lo)
                y_last = y_lo
            break
        rows.append(row)
        y_last = stepper.yv
        if keep_states:
            states.append(unpack(stepper.t, y_last))

    if len(states) < len(rows):  # the last state, unless every state is kept
        states.append(unpack(rows[-1].time, y_last))
    return Trajectory.from_rows(vs, rows, states, event=event)


def sample_states(vs: ValidatedScenario, rhs, times) -> Trajectory:
    """States at the requested times, each re-integrated from the one
    before (time 0 is the initial state) by one stepper, every one kept, for
    convergence studies. No event scan: the caller stays in the smooth part."""
    times = np.asarray(times, dtype=float)
    if not (times.size and times[0] >= 0 and np.all(np.diff(times) > 0)):
        raise ValueError("sample times must be increasing and >= 0")
    times = times.tolist()
    y, split, unpack, reduce = layout(vs)
    stepper = DormandPrince(rhs, split, y[0].size, vs.scenario.settings)
    states, rows = [], []
    for t_prev, t in zip([0.0, *times], times):
        y = stepper.reintegrate(t_prev, y, t)
        states.append(unpack(t, y) if t else vs.initial)
        rows.append(reduce(t, y, stepper.fv))
        if rows[-1].max_density == math.inf:  # a marker passed its singularity
            raise FloatingPointError(f"infinite density at t={t:g}")
    return Trajectory.from_rows(vs, rows, states)

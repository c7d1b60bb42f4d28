"""Shared adaptive Runge-Kutta driver for both geometries.

The solver vector of a run holds the marker fields one after another, [x,
u, v = 1/rho, q = w/rho] (slab) or [r, u, rho, l1, l2] (shells); splitter
alone knows this order. Each vector is split into its eight views once,
when it is made. The geometry modules supply the force law as rhs(t, yv,
fv), which writes the derivative at the views yv into the views fv.

A run steps through one Dormand-Prince 5(4) stepper (DormandPrince) and its
(7 x n) stage block, capped by the settings' max_step alone (a slab's is its
t_end, no cap: its chart is smooth through a collapse); steps() drives it to
the end time, and reintegrate carries a state from one time to a later one.
The run reduces every accepted state once to its row of per-step scalars
(functional.reducer), scans the row for triggers, and localizes the earliest
by bisection on sub-steps re-integrated by the same stepper; a slab step may
end past a marker's singularity, v <= 0. sample re-integrates from each
requested time to the next; nothing is interpolated. At its peak a run holds
about 16 solver vectors on a large slab (the block, its three work vectors,
the states in hand and the reducer's scratch block); tests/test_integrate.py
bounds it. Deterministic for fixed settings.

Full marker states are kept for the first and the last row only, unless
keep_states=True asks for every one. The first is vs.initial itself, and
every later one is unpacked from its solver vector.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from . import detector, functional
from .core import FieldState, Trajectory, ValidatedScenario
from .errors import MaxStepsExceeded, StepUnderflow

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

    Every accepted time and state and the RHS value equal those of the
    tests' reference, the plain loop tests/conftest.py::dormand_prince,
    bit for bit, under the same rtol, atol and max_step, with as many RHS
    calls: the stage sums are the same np.dot calls on views of one (7 x n)
    stage block, and the step control does the same floating-point
    operations in the same order (the step size and the tolerances held as
    0-d arrays, which round as floats do). An rtol below 100 machine
    epsilons is raised to that, with a warning, as there.
    DormandPrince(fun, split, size, settings) builds a stepper for solver
    vectors of size doubles, split by split, under the settings' rel_tol,
    abs_tol, max_step (a number, as validation sets it) and max_steps, and
    does not start it: the block, a stage-sum vector (which ends a step as
    its error estimate) and the error scale are built, and the rows and the
    stage-sum vector split, once, so a step allocates and splits only its
    new state. Row s of the block holds stage s's derivative: row 0 the
    derivative at the step's start, rows 1-5 the inner stages and row 6 the
    derivative at the new state (first same as last), each written there by
    fun(t, yv, fv=the row's views). The one copy per step is row 6 into row 0.
    restart(t0, y0, t_bound) starts it, the first time and every time after,
    from the views of any state, bit for bit as a new stepper would start.
    It writes the derivative at y0 into row 6 and uses rows 1-3 as scratch
    for the initial step size.
    step() advances t by one accepted step, which ends exactly at t_bound
    when it would pass it, and leaves y (a new array on every step, never
    written to again, nor is y0) and f (the RHS at y), with their views yv
    and fv. f is row 6 of the block, valid until the next step() or
    restart() writes the block again; a caller that keeps it longer copies
    it. step() needs t < t_bound and raises StepUnderflow when the step size
    falls below 10 ulp of t.
    """

    def __init__(self, fun, split, size, settings):
        self.fun, self.split = fun, split
        rtol = settings.rel_tol
        if rtol < _MIN_RTOL:
            warnings.warn(f"rel_tol {rtol:g} is below 100 machine epsilons; "
                          f"using {_MIN_RTOL:g}", stacklevel=2)
            rtol = _MIN_RTOL
        self.rtol, self.max_step, self.max_steps = rtol, settings.max_step, settings.max_steps
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

    def restart(self, t0, y0, t_bound):
        """Start again from the views (t0, y0) toward t_bound: the RHS at y0,
        the initial step size and |y0|, into the stepper's own buffers."""
        if t_bound < t0:
            raise ValueError("the stepper only integrates forward in time")
        self.t, self.y, self.yv, self.t_bound = t0, y0[0], y0, t_bound
        self.fun(t0, y0, self.fv)
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
        """Steps from where the stepper stands to its t_bound, yielding it
        after every accepted step, and stops once t == t_bound (exact, as the
        last step is clipped to end there; an empty interval takes no step).
        Raises MaxStepsExceeded past max_steps steps and StepUnderflow when
        the step size collapses. y (and its views yv) is a new array on every
        step and is never written to again, so it may be kept without a copy;
        f is overwritten by the next step."""
        for _ in range(self.max_steps):
            if self.t == self.t_bound:
                return
            self.step()
            yield self
        if self.t != self.t_bound:
            raise MaxStepsExceeded(f"exceeded {self.max_steps} accepted steps")

    def reintegrate(self, t0, y0, t1):
        """The views of the solver vector at t1 >= t0, stepped from the views
        (t0, y0) by restarting the stepper there: y0 itself when t1 == t0.
        fv is the RHS at the returned state."""
        self.restart(t0, y0, t1)
        for _ in self.steps():
            pass
        return self.yv


def splitter(n, dimension):
    """split(y): the eight views of a solver vector of n markers: y, its
    fields (x, u, v, q, None for the slab; r, u, rho, l1, l2 for shells),
    and y[n:] and y[3n:], which the shell force law writes in one call each."""
    shells = dimension > 1

    def split(y):
        return (y, y[:n], y[n:2 * n], y[2 * n:3 * n], y[3 * n:4 * n],
                y[4 * n:] if shells else None, y[n:], y[3 * n:])

    return split


def layout(vs: ValidatedScenario):
    """The views y0 of the solver vector of vs.initial's fields and the three
    maps a run needs: split, unpack(t, yv), the FieldState of a solver
    vector's views (no solver vector is written after it is published; a
    slab marker past its singularity, v <= 0, has rho = +inf and w = -inf),
    and reduce(t, yv, fv), its functional.StepRow with the RHS views fv."""
    init = vs.initial
    masses, dim = init.masses, init.dimension
    fields = [init.positions, init.velocities, init.densities, init.eig_radial]
    if dim > 1:
        fields.append(init.eig_tangential)
    else:
        fields[2] = v0 = 1.0 / init.densities
        fields[3] = init.eig_radial * v0
    split = splitter(masses.size, dim)

    def unpack(t, yv):
        rho, w = yv[3], yv[4]
        if dim == 1:  # rho and w hold v and q until here
            live = rho > 0.0
            w = np.divide(w, rho, out=np.full(rho.shape, -math.inf), where=live)
            rho = np.divide(1.0, rho, out=np.full(rho.shape, math.inf), where=live)
        return FieldState(time=float(t), positions=yv[1], velocities=yv[2],
                          densities=rho, eig_radial=w, eig_tangential=yv[5],
                          masses=masses, dimension=dim)

    return split(np.concatenate(fields)), split, unpack, functional.reducer(masses, dim)


def run_characteristics(vs: ValidatedScenario, rhs,
                        keep_states: bool = False) -> Trajectory:
    """Integrate rhs(t, yv, fv), the characteristic system on the views of
    the solver vector, to t_end or the first detector event."""
    settings = vs.scenario.settings
    y0, split, unpack, reduce = layout(vs)
    stepper = DormandPrince(rhs, split, y0[0].size, settings)
    stepper.restart(0.0, y0, vs.scenario.t_end)
    rows = [reduce(0.0, y0, stepper.fv)]  # every rate is the RHS in stepper.fv
    states = [vs.initial]
    y_last, y0 = y0, None  # y0 is freed once the run steps past it
    event = None
    for _ in stepper.steps():
        row = reduce(stepper.t, stepper.yv, stepper.fv)
        if detector.scan_step(rows[-1], row, settings) is not None:
            # the bracket restarts the run's stepper, which steps no further
            event, row_lo, y_lo = detector.bracket_event(
                stepper.reintegrate, lambda t, y: reduce(t, y, stepper.fv), unpack,
                rows[-1], y_last, row, settings)
            if row_lo is not rows[-1]:  # the bisection moved the lower edge
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
    before (time 0 is the initial state) by one stepper, for fixed-step
    diagnostics such as convergence studies. Every sampled state is kept.
    No event scanning; the caller is responsible for staying inside the
    smooth interval."""
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

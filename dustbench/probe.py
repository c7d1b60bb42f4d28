"""Host-speed probe: a fixed piece of work that uses no dustlab code.

On a shared host the speed of this process is not constant. In the 2-vCPU
sandbox the baseline was recorded on, a fixed 3 ms loop ran in one of two
modes (about 2.1 ms and 3.8 ms) that alternate every few tens of
milliseconds, and the share of time spent in the slow mode drifts over
minutes. Item times averaged over a 20 s run therefore moved by 10–30%
between runs of the same code, while CPU time tracked wall time exactly, so
the process was slowed, not descheduled.

The worker runs this probe between items, in proportion to the program time
it measures, so that the probe samples the same mix of fast and slow modes
as the items around it. ``slowdown`` turns the probe times into a
factor that rescales program time to the reference host speed, the speed at
which one probe takes ``REF_S``. The probe runs the kind of work dustlab
does (a Python loop, small numpy arrays, ``scipy.integrate.solve_ivp`` with a
Python right-hand side) and never calls into dustlab, so a change to the
program cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.integrate import solve_ivp

# mean probe time on the reference host (the sandbox of baseline.json)
REF_S = 0.028
SHARE = 0.1  # probe time per second of program time measured

_clock = time.perf_counter
_K = np.linspace(1.0, 2.0, 32)


def _rhs(t, y):
    return np.concatenate((y[32:], -_K * y[:32] - 0.01 * y[32:]))


def run() -> float:
    """Seconds one probe took."""
    t0 = _clock()
    total = 0.0
    for i in range(20000):
        total += (i * 0.5) ** 0.5
    sol = solve_ivp(_rhs, (0.0, 20.0), np.ones(64), rtol=1e-8, atol=1e-10)
    if not (sol.success and total > 0.0):
        raise RuntimeError("host-speed probe failed")
    return _clock() - t0


def slowdown(times) -> float:
    """How much slower than the reference host the probes ran (1.0 = as fast)."""
    return statistics.fmean(times) / REF_S

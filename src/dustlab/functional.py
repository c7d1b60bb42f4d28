"""Weighted divergence functional H(t) and the integral-inequality checks.

H = sum_j m_j div(u)_j is the exact Lagrangian quadrature of the total
divergence, the fixed weights m_j being the conserved mass measure; sum_j
m_j rho_j likewise quadratures the density square integral. Each accepted
state is reduced once, by the run's reducer, to core.StepRow; the checks
are expressions over those columns. Margins are oriented (large side minus
small side: nonnegative holds), and reported, never enforced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, compress
from typing import List, NamedTuple, Optional

import numpy as np

from .core import StepRow, Trajectory, inside, support_volume, trigger_rows
from .errors import NumericOverflow

RESIDUAL_FLOOR = 1e-6
NEAR_SINGULAR_FRACTION = 0.01  # last 1% before an event: the margins are not asserted


# ---------------------------------------------------------------------------
# Per-step reduction
# ---------------------------------------------------------------------------


def reducer(masses, dimension: int):
    """reduce(time, yv, fv): the StepRow of a solver vector from its eight
    views yv (core.splitter's) and those of its RHS, fv; a slab's rho = 1/v,
    div = q/v and D(div)/Dt = rho (dq - div dv). A slab run at a loose abs_tol
    can reach a marker at v <= 0: it reads +inf rho and |div u|, NaN sums.
    Built once per run with one (5 x n) scratch block: one np.add.reduce
    sums m rho, m div, m div^2 and m rate in rows 0-3, then core.trigger_rows
    fills rows 2-4, whose minima (rows 2-3) and maxima (rows 3-4) are the
    trigger and density columns. The volume is core.support_volume's; each
    row of a C-contiguous block reduces as its 1-D reduction does, so the
    sums and the upper support estimate equal tests/conftest.py's reference."""
    n = masses.size
    slab = dimension == 1
    nm1 = np.array(float(dimension - 1))  # 0-d: no Python scalar to resolve per call
    half_first, half_last = 0.5 * masses[0], 0.5 * masses[-1]
    block, slab_rho = np.empty((5, n)), np.empty(n)
    sums, minima, maxima = block[:4], block[2:4], block[3:5]
    m_rho, m_div, m_div2, m_rate, abs_div = block
    triggers = trigger_rows(block[2:], dimension)  # once the sums are taken

    def reduce(time, yv, fv):
        _, x, _, rho, e1, e2, _, _ = yv
        if slab:  # rho and e1 hold v and q
            if not rho[rho.argmin()] > 0.0:  # v <= 0 (or NaN): only the gap row is read
                min_gap = float(np.minimum.reduce(triggers(x, rho, e1)[0]))
                return StepRow(float(time), *[math.nan] * 6, min_gap, math.inf, math.inf, math.nan)
            div = np.divide(e1, rho, out=abs_div)  # until the sums are taken
            np.multiply(div, fv[3], out=m_rate)
            np.subtract(fv[4], m_rate, out=m_rate)
            rho = np.divide(1.0, rho, out=slab_rho)
            np.multiply(m_rate, rho, out=m_rate)
        else:  # held in the |div u| row until the sums are taken
            div = np.add(e1, np.multiply(nm1, e2, out=abs_div), out=abs_div)
            np.add(fv[4], np.multiply(nm1, fv[5], out=m_rate), out=m_rate)
        np.multiply(masses, rho, out=m_rho)
        np.multiply(masses, div, out=m_div)
        np.multiply(m_div, div, out=m_div2)  # m * d * d, evaluated left to right
        np.multiply(masses, m_rate, out=m_rate)
        sum_rho, h, sum_div2, rate = np.add.reduce(sums, axis=1).tolist()
        triggers(x, rho, div)
        min_gap, min_rho = np.minimum.reduce(minima, axis=1).tolist()
        max_rho, max_abs_div = np.maximum.reduce(maxima, axis=1).tolist()
        volume = upper = float(support_volume(x[0], x[-1], dimension))
        if slab:  # rho > 0 (v > 0)
            upper = float(upper + half_first / rho[0] + half_last / rho[-1])
        elif not rho[-1] <= 0.0:
            upper = float(upper + half_last / rho[-1])
        return StepRow(float(time), h, sum_div2, sum_rho, volume, upper,
                       rate, min_gap, max_abs_div, max_rho, min_rho)

    return reduce


# ---------------------------------------------------------------------------
# The inequality terms, on per-step scalars
# ---------------------------------------------------------------------------


def _cs_divergence(mass, h, m_div2):
    return mass * m_div2 - h**2


def _cs_density(v_sup, mass, m_rho):
    return v_sup * m_rho - mass * mass


def _tolerance(mass, h):
    return RESIDUAL_FLOOR * max(1.0, h * h, mass * mass)


def _riccati(dh, h, mass, n, lam, v_sup):
    """dH/dt + H^2/(M N) + M^2/v_sup - lam M, <= 0 where the inequality holds."""
    return dh + h**2 / (mass * n) + mass**2 / v_sup - lam * mass


class _Chain:
    """Every inequality term of a trajectory as lists of Python floats (libm
    pow and NumPy's x * x can round differently): per row (margins, pointwise
    residual, hypothesis flag) and per step i -> i+1. A term that is not
    finite where it is asserted raises NumericOverflow."""

    def __init__(self, trajectory: Trajectory):
        vs = trajectory.validated
        v_sup = vs.v_sup
        c = trajectory.columns
        self.mass = mass = vs.total_mass
        self.time = t = c.time.tolist()
        self.h = h = c.h.tolist()
        rate = c.m_div_rate.tolist()
        # judged on the upper support estimate (extent plus boundary half-cells): an
        # asserted inequality needs the whole continuum support inside v_sup
        self.inside = within = [inside(u, v_sup) for u in c.volume_upper.tolist()]
        both = [a and b for a, b in zip(within, within[1:])]  # at both ends of a step
        dh = [(h_b - h_a) / (t_b - t_a) for h_a, h_b, t_a, t_b in zip(h, h[1:], t, t[1:])]
        self.transport = [abs(d - 0.5 * (r_a + r_b)) for d, r_a, r_b in zip(dh, rate, rate[1:])]
        law = (mass, vs.dimension, vs.lam, v_sup)
        try:
            self.cs_div = [_cs_divergence(mass, hi, s2) for hi, s2 in zip(h, c.m_div2.tolist())]
            self.cs_rho = [_cs_density(v_sup, mass, r) if ok else math.nan
                           for r, ok in zip(c.m_rho.tolist(), within)]
            self.pointwise = [_riccati(r, hi, *law) if ok else math.nan
                              for r, hi, ok in zip(rate, h, within)]
            self.riccati = [_riccati(d, 0.5 * (h_a + h_b), *law) if ok else math.nan
                            for d, h_a, h_b, ok in zip(dh, h, h[1:], both)]
        except OverflowError as exc:  # float ** 2 raises where x * x gives inf
            raise NumericOverflow("a proof-chain term overflows a double") from exc
        terms = chain(self.cs_div, self.transport, compress(self.cs_rho, within),
                      compress(self.pointwise, within), compress(self.riccati, both))
        if not all(map(math.isfinite, terms)):
            raise NumericOverflow("a proof-chain term is not finite in double precision")


# ---------------------------------------------------------------------------
# Per-step diagnostics and the proof-chain report
# ---------------------------------------------------------------------------

DIAGNOSTIC_COLUMNS = ("time", "h_value", "total_mass", "support_volume",
                      "cs_divergence_margin", "cs_density_margin", "riccati_residual",
                      "min_density", "max_density", "max_abs_div")


def diagnostics_rows(trajectory: Trajectory) -> list:
    """One tuple per accepted step, in DIAGNOSTIC_COLUMNS order. The
    Riccati residual of row i pairs it with row i-1 and is NaN on the first
    row; margins that need the support hypothesis are NaN where it fails."""
    chain = _Chain(trajectory)
    c = trajectory.columns
    return list(zip(chain.time, chain.h, [chain.mass] * len(chain.time),
                    c.volume.tolist(), chain.cs_div, chain.cs_rho,
                    [math.nan] + chain.riccati, c.min_density.tolist(),
                    c.max_density.tolist(), c.max_abs_div.tolist()))


class ProofChainStep(NamedTuple):
    """One step a -> b of the proof chain at row b's time; a row of
    proof_chain.csv, whose header is _fields."""

    time: float
    transport_residual: float
    cs_divergence_margin: float
    cs_density_margin: float
    riccati_residual: float  # from the finite difference across the step
    riccati_pointwise: float  # at row b, from its rate column
    hypothesis_ok: bool
    informational: bool  # inside the near-singular window: only riccati_pointwise asserted


@dataclass(frozen=True)
class ProofChainReport:
    steps: List[ProofChainStep]
    worst_cs_divergence: float
    worst_cs_density: float
    worst_riccati: float
    first_violation_time: Optional[float]

    @property
    def holds(self) -> bool:
        return self.first_violation_time is None

    def summary_text(self) -> str:
        lines = [
            f"steps checked:        {sum(1 for s in self.steps if not s.informational)}",
            f"informational steps:  {sum(1 for s in self.steps if s.informational)}",
            f"worst cs divergence margin: {self.worst_cs_divergence:.6e}",
            f"worst cs density margin:    {self.worst_cs_density:.6e}",
            f"worst riccati pointwise:    {self.worst_riccati:.6e}",
        ]
        if self.first_violation_time is None:
            lines.append("proof chain: all inequalities hold within tolerance")
        else:
            lines.append(f"proof chain: FIRST VIOLATION at t={self.first_violation_time:.9g}")
        return "\n".join(lines)


def proof_chain_report(trajectory: Trajectory) -> ProofChainReport:
    """Verify the full inequality chain on every accepted step of a run: the
    Riccati inequality on row b's exact dH/dt, m_div_rate, wherever the
    support hypothesis holds at b (finite differences only reported); the
    Cauchy-Schwarz margins except in the last 1% before an event."""
    event = trajectory.event
    cutoff = math.inf if event is None else (1.0 - NEAR_SINGULAR_FRACTION) * event.t_lo

    chain = _Chain(trajectory)
    steps: List[ProofChainStep] = []
    worst_div = worst_rho = math.inf
    worst_ric = -math.inf
    first_violation = None
    for a in range(len(chain.time) - 1):
        b = a + 1
        time = chain.time[b]
        info = time > cutoff
        hypothesis_ok = chain.inside[a] and chain.inside[b]
        cs_div = chain.cs_div[b]
        cs_rho = chain.cs_rho[b] if hypothesis_ok else math.nan
        ric = chain.pointwise[b]
        steps.append(ProofChainStep(time, chain.transport[a], cs_div, cs_rho,
                                    chain.riccati[a], ric, hypothesis_ok, info))
        tol = _tolerance(chain.mass, chain.h[b])
        violated = ric > tol  # ric and cs_rho are NaN, never past tol, where not asserted
        worst_ric = max(worst_ric, ric) if chain.inside[b] else worst_ric
        if not info:
            worst_div = min(worst_div, cs_div)
            worst_rho = min(worst_rho, cs_rho) if hypothesis_ok else worst_rho
            violated = violated or cs_div < -tol or cs_rho < -tol
        if violated and first_violation is None:
            first_violation = time
    return ProofChainReport(steps, worst_div, worst_rho, worst_ric, first_violation)

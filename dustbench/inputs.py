"""Seeded input generation for the benchmark workloads (standard library only).

Every input the program receives is drawn from a fixed, finite pool, so that
each one has a verdict recorded in ``reference.json``; ``--seed`` chooses
which pool members a run uses and in which order. The parent process builds
the inputs and hands them to the worker as JSON.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("shipped_scenarios", "lambda_sweep", "certificate_atlas", "slab_16k")

SHIPPED_SCENARIOS = ("uniform_collapse_1d", "equilibrium_slab", "uniform_ball_n3",
                     "hubble_escape_1d")

# Both sweep bases are uniform rho0 = 0.5 filling v_sup exactly, so
# M / v_sup = 0.5 and the grid runs from 0 to 1.2 * M / v_sup = 0.6.
SWEEP_SCENARIOS = ("uniform_collapse_1d", "uniform_ball_n3")
SWEEP_LAMBDA_MAX = 0.6
SWEEP_POINTS = 11
SWEEP_JITTERS = 8  # choices per interior point, each shifts it by under 1/4 spacing

ATLAS_CASES = ("CaseOne", "CaseTwo", "Boundary", "NoCertificate")
ATLAS_POOL = 1024
ATLAS_ROUND = 512  # draws per run, an equal share of each case

SLAB_16K_YAML = """\
# uniform_collapse_1d at 16384 markers; analytic collapse at t = sqrt(2/rho0) = 2
geometry: slab1d
dimension: 1
lambda: 0.0
v_sup: 2.0
marker_count: 16384
t_end: 2.5
initial_profile:
  density: {kind: uniform, value: 0.5, support: [-1.0, 1.0]}
  velocity: {kind: zero}
"""


def sweep_lambda(k: int, jitter) -> float:
    """Grid point k of 0..10; interior points move by jitter index 0..7."""
    offset = 0.0 if jitter is None else (jitter - 3.5) / 16.0
    return SWEEP_LAMBDA_MAX * (k + offset) / (SWEEP_POINTS - 1)


def sweep_pool():
    """Every (scenario, k, jitter) point the sweep can run."""
    for name in SWEEP_SCENARIOS:
        for k in range(SWEEP_POINTS):
            interior = 0 < k < SWEEP_POINTS - 1
            for jitter in (range(SWEEP_JITTERS) if interior else (None,)):
                yield sweep_item(name, k, jitter)


def sweep_item(name, k, jitter):
    tag = "e" if jitter is None else str(jitter)
    return {"key": f"{name}:{k}:{tag}", "scenario": name,
            "lam": sweep_lambda(k, jitter)}


def atlas_draw(i: int) -> dict:
    """Pool member i: (M, v_sup, lambda, N, H0) built to land in one case."""
    rng = random.Random(1_000_003 * i + 71)
    case = ATLAS_CASES[i % len(ATLAS_CASES)]
    n = rng.choice((1, 2, 3))
    mass = rng.uniform(0.5, 4.0)
    v_sup = rng.uniform(0.5, 8.0)
    ratio = mass / v_sup
    if case == "CaseOne":
        lam = ratio * rng.uniform(0.0, 0.95)
        h0 = mass * rng.uniform(-3.0, 3.0)
    elif case == "Boundary":
        lam = mass / v_sup  # the program's own test is lam == M / v_sup
        h0 = -mass * rng.uniform(0.05, 3.0)
    else:
        lam = ratio * rng.uniform(1.05, 3.0)
        threshold = math.sqrt(lam * mass**2 * n - mass**3 * n / v_sup)
        if case == "CaseTwo":
            h0 = -threshold * rng.uniform(1.05, 4.0)
        else:
            h0 = threshold * rng.uniform(-0.95, 2.0)
    return {"key": str(i), "mass": mass, "v_sup": v_sup, "lam": lam, "n": n,
            "h0": h0}


def generate(workload: str, seed: int) -> dict:
    """The inputs of one run: its items, in the order one round runs them."""
    rng = random.Random(seed)
    if workload == "shipped_scenarios":
        items = [{"key": name, "scenario": name} for name in SHIPPED_SCENARIOS]
        rng.shuffle(items)
    elif workload == "lambda_sweep":
        items = []
        for name in SWEEP_SCENARIOS:
            for k in range(SWEEP_POINTS):
                interior = 0 < k < SWEEP_POINTS - 1
                items.append(sweep_item(name, k, rng.randrange(SWEEP_JITTERS)
                                        if interior else None))
    elif workload == "certificate_atlas":
        per_case = ATLAS_ROUND // len(ATLAS_CASES)
        chosen = []
        for c in range(len(ATLAS_CASES)):
            members = range(c, ATLAS_POOL, len(ATLAS_CASES))
            chosen.extend(rng.sample(members, per_case))
        rng.shuffle(chosen)
        items = [atlas_draw(i) for i in chosen]
    elif workload == "slab_16k":
        items = [{"key": "slab_16k"}]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, "seed": seed, "items": items}

"""dustlab benchmark: one workload, one seed, one line of JSON.

    python3 dustbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Each run starts the workload in fresh interpreters with OpenBLAS pinned to
one thread, so set-up time and peak RSS belong to that workload alone.

``--trace 0`` prints the end-to-end metrics: set-up time (median of several
fresh starts), items per second from a closed loop that runs whole rounds
of the workload's items for S seconds, and the worker's peak RSS. Both
times are rescaled to a reference host speed by the probes in probe.py
(items per second not on UNSCALED workloads). The detail line adds the
median and tail item latency with their sample counts, the failed ratio,
and the wall-clock figures before rescaling.
``--trace 1`` prints the per-layer metrics of a fixed amount of traced work
and the tracing overhead. Every item's verdict is checked against
``reference.json``; the last line of stdout is the result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_STARTS = 3  # fresh starts per run, the workload's own included
WORKER_TIMEOUT_S = 150
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
# slab_16k is bound by large-array memory traffic: over 36 items its time
# moved with the probe's by a log-log slope of 0.3, so rescaling it by the
# probe would add the probe's noise to a wall-clock rate that is steady.
UNSCALED = ("slab_16k",)


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def start_worker(mode: str, inputs_path: Path, result_path: Path):
    """Run one worker to completion; return seconds from spawn to ``ready``
    and the worker's result."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), mode, str(inputs_path), str(result_path)],
        stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT)
    killer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        line = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        proc.communicate()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
    return ready_s, json.loads(result_path.read_text())


def tail(values):
    """The highest ladder percentile with at least ten samples beyond it
    (nearest rank), or None when there are too few samples."""
    ordered = sorted(values)
    found = None
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p / 100 * len(ordered)))
        if len(ordered) - rank >= 10:
            found = {"percentile": p, "ms": ordered[rank - 1] * 1e3, "n": len(ordered),
                     "beyond": len(ordered) - rank}
    return found


def measure(workload: str, seed: int, seconds: int, trace: bool, workdir: Path):
    spec = inputs.generate(workload, seed)
    spec["seconds"] = seconds
    inputs_path = workdir / "inputs.json"
    inputs_path.write_text(json.dumps(spec))
    result_path = workdir / "result.json"

    starts = []  # (seconds to ready, host slowdown measured right after)
    if not trace:
        for _ in range(SETUP_STARTS - 1):
            ready_s, setup = start_worker("setup", inputs_path, workdir / "setup.json")
            starts.append((ready_s, setup["setup_slowdown"]))
    ready_s, result = start_worker("trace" if trace else "run", inputs_path, result_path)
    starts.append((ready_s, result["setup_slowdown"]))

    detail = {"workload": workload, "seed": seed, "items": result["attempted"],
              "rounds": result["rounds"], "failed": len(result["failures"]),
              "failed_ratio": len(result["failures"]) / result["attempted"],
              "failures": result["failures"][:5],
              "gate_selfcheck": {"verdicts": result["selfchecked"],
                                 "missed": result["selfcheck_missed"]},
              "outputs_identical": f"{result['files_identical']}/{result['files_compared']}"}
    if trace:
        metrics = {k: (v, unit) for k, (v, unit) in result["layers"].items()}
        detail.update(spans=result["spans"], hooks_missing=result["hooks_missing"])
    else:
        runs = result["latencies"]
        every_run = [t for times in runs.values() for t in times]
        slowdown = 1.0 if workload in UNSCALED else result["run_slowdown"]
        # Times rescaled to the reference host speed (see probe.py).
        metrics = {
            "setup_s": (statistics.median(s / f for s, f in starts), "s"),
            "items_per_s": (len(every_run) / sum(every_run) * slowdown, "1/s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
        # Whole rounds give every item the same number of runs. Taking each
        # item's own median first keeps the workload median from landing on
        # the fastest or slowest run of one item when items differ in cost.
        p50 = statistics.median(statistics.median(times) for times in runs.values())
        detail.update(setup_wall_s=[s for s, _ in starts],
                      setup_slowdown=[f for _, f in starts],
                      run_slowdown=result["run_slowdown"], rescaled=slowdown != 1.0,
                      probes=result["probes"], probe_s=result["probe_s"],
                      wall_items_per_s=len(every_run) / result["elapsed_s"],
                      elapsed_s=result["elapsed_s"],
                      distinct_items=len(runs), latency_n=len(every_run),
                      latency_p50_ms=p50 * 1e3, latency_tail=tail(every_run))
    correct = (not result["failures"] and not result["selfcheck_missed"]
               and result["selfchecked"] > 0)
    return correct, result["attempted"], len(result["failures"]), metrics, detail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in (ROOT / "src" / "dustlab" / "__init__.py", ROOT / "scenarios"):
        if not needed.exists():
            print(f"benchmark: {needed} is missing; run from a dustlab checkout",
                  file=sys.stderr)
            return 2
    workdir = ROOT / ".bench_build" / "dustbench" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        correct, attempted, failed, metrics, detail = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except RuntimeError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:18s} {name:28s} {value:14.6g} {unit}")
    print(json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload in a fresh interpreter; started by run.py, not by hand.

    worker.py MODE INPUTS.json RESULT.json

MODE is ``setup`` (import, load and validate, report ready, exit), ``run``
(closed loop of whole rounds for the given seconds, untraced) or ``trace``
(a fixed amount of work, first untraced and then traced). ``ready`` goes to
stdout when set-up ends; the result goes to RESULT.json. Every mode times
host-speed probes (probe.py) right after set-up, and ``run`` also between
items.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

clock = time.perf_counter

ROOT = Path(__file__).resolve().parent.parent
# traced work per run, in rounds: fixed so that layer totals compare across commits
TRACE_ROUNDS = {"shipped_scenarios": 2, "lambda_sweep": 1, "certificate_atlas": 2,
                "slab_16k": 1}
SETUP_PROBES = 12


class Loop:
    """Runs items, times the program calls only, and gates every verdict."""

    def __init__(self, workload, reference, gate):
        self.workload = workload
        self.reference = reference
        self.gate = gate
        self.attempted = 0
        self.latencies = {}  # item key -> seconds of each of its runs
        self.failures = []
        self.selfcheck_missed = []
        self.files_identical = 0
        self.files_compared = 0
        self.bytes_written = 0
        self.selfchecked = set()
        self.last_s = 0.0  # program time of the latest item

    def item(self, item, timed=True):
        self.attempted += 1
        self.workload.prepare(item)
        t0 = clock()
        try:
            result = self.workload.execute(item)
        except Exception as exc:  # an item that raises is a failed item, not a crash
            self.failures.append(f"{item['key']}: {type(exc).__name__}: {exc}")
            return
        finally:
            self.last_s = clock() - t0
            if timed:
                self.latencies.setdefault(item["key"], []).append(self.last_s)
        verdict, files, written = self.workload.verdict(item, result)
        del result  # a large trajectory must not outlive its item
        expected = self.reference.get(item["key"])
        if expected is None:
            self.failures.append(f"{item['key']}: no reference verdict")
            return
        bad = self.gate.compare(verdict, expected["verdict"])
        if bad:
            self.failures.append(f"{item['key']}: verdict differs in {bad}: {verdict}")
        if item["key"] not in self.selfchecked:
            self.selfchecked.add(item["key"])
            self.selfcheck_missed += self.gate.self_check(verdict)
        for name, digest in files.items():
            self.files_compared += 1
            self.files_identical += digest == expected.get("files", {}).get(name)
        self.bytes_written += written


def main(mode, inputs_path, result_path):
    t0 = clock()
    import dustlab.cli  # noqa: F401  (the import step is part of set-up)
    import_s = clock() - t0
    import dustlab
    src = ROOT / "src"
    if src not in Path(dustlab.__file__).resolve().parents:
        sys.exit(f"dustlab was imported from {dustlab.__file__}, not from {src}")

    import gate
    import probe
    import workloads

    spec = json.loads(Path(inputs_path).read_text())
    name, items = spec["workload"], spec["items"]
    workdir = Path(result_path).parent

    tracer = None
    if mode == "trace":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    workload = workloads.WORKLOADS[name](ROOT, workdir, items)
    if tracer is not None:
        tracer.uninstall()
    print("ready", flush=True)
    # the probes right after set-up give the host speed during set-up
    setup_probes = [probe.run() for _ in range(SETUP_PROBES)]
    result = {"setup_slowdown": probe.slowdown(setup_probes)}
    if mode == "setup":
        Path(result_path).write_text(json.dumps(result))
        return

    reference = json.loads((ROOT / "dustbench" / "reference.json").read_text())
    loop = Loop(workload, reference["verdicts"][name], gate)
    if mode == "run":
        loop.item(items[0], timed=False)  # warm-up
        probes = []
        owed = 0.0
        deadline = clock() + spec["seconds"]
        start = clock()
        rounds = 0
        while rounds == 0 or clock() < deadline:
            for item in items:
                loop.item(item)
                # probe in proportion to the program time just measured
                owed += probe.SHARE * loop.last_s
                while owed > 0.0:
                    probes.append(probe.run())
                    owed -= probes[-1]
            rounds += 1
        result["elapsed_s"] = clock() - start
        result["rounds"] = rounds
        result["probes"] = len(probes)
        result["probe_s"] = sum(probes)
        result["run_slowdown"] = probe.slowdown(probes)
    else:
        work = items * TRACE_ROUNDS[name]
        untraced = Loop(workload, loop.reference, gate)
        untraced.item(work[0], timed=False)  # warm-up, outside both passes
        t1 = clock()
        for item in work:
            untraced.item(item, timed=False)
        untraced_s = clock() - t1
        tracer.install()
        t2 = clock()
        for item in work:
            loop.item(item)
        traced_s = clock() - t2
        tracer.uninstall()
        tracer.write_spans(workdir.parent / f"spans-{name}.csv")
        layers = tracing.layer_metrics(tracer, import_s)
        layers["cli.bytes_written"] = (loop.bytes_written, "bytes")
        layers["cli.outputs_identical"] = (loop.files_identical, "count")
        layers["trace.untraced_s"] = (untraced_s, "s")
        layers["trace.traced_s"] = (traced_s, "s")
        layers["trace.overhead_s"] = (traced_s - untraced_s, "s")
        result["layers"] = layers
        result["spans"] = len(tracer.spans)
        result["hooks_missing"] = tracer.missing
        result["rounds"] = TRACE_ROUNDS[name]
        loop.attempted += untraced.attempted
        loop.failures += untraced.failures
        loop.selfcheck_missed += untraced.selfcheck_missed
    result.update(
        attempted=loop.attempted,
        latencies=loop.latencies,
        failures=loop.failures,
        selfcheck_missed=loop.selfcheck_missed,
        selfchecked=len(loop.selfchecked),
        files_identical=loop.files_identical,
        files_compared=loop.files_compared,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(*sys.argv[1:4])

"""Per-layer tracing from outside the program.

A traced run replaces module attributes of the ``dustlab`` package at the
points where they are looked up: every module that holds a reference to a
traced function (``from ... import`` included) gets the wrapper, and
``uninstall`` puts the originals back. Nothing in ``src/`` knows about it.

Spans (name, start, end, parent) are kept in memory and written out once,
at the end. A layer's self time is its spans' durations minus the time
covered by their direct child spans.
"""

from __future__ import annotations

import builtins
import csv
import sys
import time
from collections import Counter

import numpy as np

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, time in children]
        self._stack = []
        self.counts = Counter()
        self.history_bytes = 0  # largest stored trajectory, computed from array sizes
        self.missing = []  # hook targets this version of the program lacks
        self._patched = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, _clock(), 0.0, self._stack[-1] if self._stack else -1, 0.0])
        self._stack.append(sid)
        return sid

    def end(self, sid: int):
        t1 = _clock()
        self._stack.pop()
        span = self.spans[sid]
        span[2] = t1
        if span[3] >= 0:
            self.spans[span[3]][4] += t1 - span[1]

    def wrap(self, name: str, fn, count: str = None, after=None):
        def traced(*args, **kwargs):
            sid = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(sid)
            if count:
                self.counts[count] += 1
            if after is not None:
                after(result)
            return result
        return traced

    def self_times(self) -> Counter:
        out = Counter()
        for name, t0, t1, _, children in self.spans:
            out[name] += (t1 - t0) - children
        return out

    def write_spans(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "name", "start_s", "end_s", "parent"])
            for sid, (name, t0, t1, parent, _) in enumerate(self.spans):
                writer.writerow([sid, name, f"{t0:.9f}", f"{t1:.9f}", parent])

    # -- hooks ---------------------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        for modname, module in list(sys.modules.items()):
            if modname != "dustlab" and not modname.startswith("dustlab."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, replacement)

    def hook(self, modname: str, attr: str, make):
        module = sys.modules.get(f"dustlab.{modname}")
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{modname}.{attr}")
            return
        self._replace_everywhere(original, make(original))

    def install(self):
        """Wrap every layer entry point; call once, after ``import dustlab.cli``."""
        self.hook("core", "load_scenario", lambda f: self.wrap("core.load", f))
        self.hook("core", "validate_scenario",
                  lambda f: self.wrap("core.validate", f, count="core.validate_calls"))
        self.hook("_integrate", "run_characteristics", self._wrap_run)
        self.hook("detector", "scan_step",
                  lambda f: self.wrap("detector.scan", f, count="detector.scan_calls"))
        self.hook("detector", "bracket_event", self._wrap_bracket)
        self.hook("detector", "escape_report", lambda f: self.wrap("detector.escape", f))
        self.hook("functional", "proof_chain_report",
                  lambda f: self.wrap("functional.proof_chain", f, after=self._count_proof))
        self.hook("functional", "diagnostics_record",
                  lambda f: self.wrap("functional.diagnostics", f,
                                      count="functional.diagnostics_calls"))
        self.hook("riccati", "check_blowup_conditions",
                  lambda f: self.wrap("riccati.conditions", f))
        self.hook("riccati", "integrate_comparison_ode", self._wrap_oracle)
        for writer in ("_write_manifest", "_write_trajectory_csv", "_write_event",
                       "_write_marker_dump"):
            self.hook("cli", writer, lambda f: self.wrap("cli.write", f))
        # the CLI writes proof_chain.csv inline: time every file it opens
        cli = sys.modules["dustlab.cli"]
        self._patched.append((cli, "open", None))
        cli.open = self._traced_open

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            if original is None:
                delattr(module, attr)
            else:
                setattr(module, attr, original)
        self._patched.clear()

    # -- wrappers with extra bookkeeping -------------------------------------

    def _wrap_run(self, run):
        def run_characteristics(vs, rhs, *args, **kwargs):
            layer = rhs.__module__.rpartition(".")[2] + ".rhs"
            traced_rhs = self.wrap(layer, rhs, count=layer + "_calls")
            sid = self.begin("integrate.run")
            try:
                traj = run(vs, traced_rhs, *args, **kwargs)
            finally:
                self.end(sid)
            self.history_bytes = max(self.history_bytes, _history_bytes(traj))
            return traj
        return run_characteristics

    def _wrap_bracket(self, bracket):
        traced = self.wrap("detector.bracket", bracket, count="detector.brackets")

        def bracket_event(reintegrate, *args, **kwargs):
            def counted(*a, **kw):
                self.counts["detector.reintegrations"] += 1
                return reintegrate(*a, **kw)
            return traced(counted, *args, **kwargs)
        return bracket_event

    def _wrap_oracle(self, oracle):
        from dustlab.errors import NoPoleInHorizon

        def integrate_comparison_ode(*args, **kwargs):
            self.counts["riccati.oracle_calls"] += 1
            sid = self.begin("riccati.oracle")
            try:
                path = oracle(*args, **kwargs)
            except NoPoleInHorizon as exc:
                if exc.times is not None:
                    self.counts["riccati.oracle_steps"] += len(exc.times) - 1
                raise
            finally:
                self.end(sid)
            self.counts["riccati.oracle_steps"] += len(path.times) - 1
            return path
        return integrate_comparison_ode

    def _count_proof(self, report):
        self.counts["functional.proof_steps"] += len(report.steps)

    def _traced_open(self, *args, **kwargs):
        sid = self.begin("cli.write")
        try:
            fh = builtins.open(*args, **kwargs)
        except BaseException:
            self.end(sid)
            raise
        return _SpanFile(fh, self, sid)


class _SpanFile:
    """A file whose span ends when it is closed."""

    def __init__(self, fh, tracer, sid):
        self._fh, self._tracer, self._sid = fh, tracer, sid

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self._fh

    def __exit__(self, *exc):
        self.close()
        return False

    def close(self):
        if self._sid is not None:
            self._fh.close()
            self._tracer.end(self._sid)
            self._sid = None


def _history_bytes(traj) -> int:
    """Bytes of per-marker arrays held by the stored states (masses are shared)."""
    shared = id(traj.masses)
    total = 0
    for state in traj.states:
        for value in vars(state).values():
            if isinstance(value, np.ndarray) and id(value) != shared:
                total += value.nbytes
    return total


def layer_metrics(tracer: Tracer, import_s: float) -> dict:
    """Per-layer metrics (name -> (value, unit)) of one traced pass."""
    t = tracer.self_times()
    c = tracer.counts
    steps = c["detector.scan_calls"]
    rhs_calls = c["geometry1d.rhs_calls"] + c["radial.rhs_calls"]
    return {
        "import.dustlab_s": (import_s, "s"),
        "core.load_s": (float(t["core.load"]), "s"),
        "core.validate_s": (float(t["core.validate"]), "s"),
        "core.validate_calls": (c["core.validate_calls"], "count"),
        "geometry1d.rhs_s": (float(t["geometry1d.rhs"]), "s"),
        "geometry1d.rhs_calls": (c["geometry1d.rhs_calls"], "count"),
        "radial.rhs_s": (float(t["radial.rhs"]), "s"),
        "radial.rhs_calls": (c["radial.rhs_calls"], "count"),
        "integrate.self_s": (float(t["integrate.run"]), "s"),
        "integrate.steps_accepted": (steps, "count"),
        "integrate.rhs_per_step": (rhs_calls / steps if steps else 0.0, "count"),
        "integrate.history_mb": (tracer.history_bytes / 2**20, "MB"),
        "detector.scan_s": (float(t["detector.scan"]), "s"),
        "detector.scan_calls": (steps, "count"),
        "detector.bracket_s": (float(t["detector.bracket"]), "s"),
        "detector.bisections": (c["detector.reintegrations"] - c["detector.brackets"], "count"),
        "detector.escape_s": (float(t["detector.escape"]), "s"),
        "functional.proof_chain_s": (float(t["functional.proof_chain"]), "s"),
        "functional.proof_steps": (c["functional.proof_steps"], "count"),
        "functional.diagnostics_s": (float(t["functional.diagnostics"]), "s"),
        "functional.diagnostics_calls": (c["functional.diagnostics_calls"], "count"),
        "riccati.conditions_s": (float(t["riccati.conditions"]), "s"),
        "riccati.oracle_s": (float(t["riccati.oracle"]), "s"),
        "riccati.oracle_calls": (c["riccati.oracle_calls"], "count"),
        "riccati.oracle_steps": (c["riccati.oracle_steps"], "count"),
        "cli.write_s": (float(t["cli.write"]), "s"),
    }

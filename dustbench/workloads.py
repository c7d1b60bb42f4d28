"""What one item of each workload runs, and the verdict read from it.

``execute`` is the timed part: only calls into the program. ``verdict``
runs afterwards, untimed, and turns the result into the flat dict the gate
compares (see gate.FIELDS). Program functions are looked up through their
modules at call time, so the tracing hooks see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
from dataclasses import replace
from pathlib import Path

import yaml

import dustlab
import dustlab.cli
from dustlab import core, detector, functional, riccati
from dustlab.errors import NoPoleInHorizon

import gate
import inputs

# CLI outputs that ROADMAP keeps byte-identical; a difference is counted, not failed
COMPARED_FILES = ("trajectory.csv", "event.yaml", "certificate.yaml", "proof_chain.csv")


def _verdict(**fields):
    return {name: fields.get(name) for name in gate.FIELDS}


def _event_fields(event):
    if event is None:
        return {}
    return {"trigger": event.trigger.value, "marker": int(event.marker_index),
            "t_lo": float(event.t_lo), "t_hi": float(event.t_hi)}


class Workload:
    """One workload: set-up in the constructor, then ``execute`` per item."""

    def __init__(self, root: Path, workdir: Path, items):
        pass

    def prepare(self, item):
        """Untimed work before an item runs."""


class ShippedScenarios(Workload):
    """Each shipped scenario through ``dustlab simulate``, ``certify`` and
    ``verify``, run in-process as the installed ``dustlab`` command runs them."""

    def __init__(self, root: Path, workdir: Path, items):
        self.workdir = workdir
        self.paths = {}
        for item in items:
            path = root / "scenarios" / f"{item['scenario']}.yaml"
            core.validate_scenario(core.load_scenario(path))
            self.paths[item["key"]] = str(path)

    def _out(self, item) -> Path:
        return self.workdir / item["key"]

    def prepare(self, item):
        shutil.rmtree(self._out(item), ignore_errors=True)

    def execute(self, item):
        out = str(self._out(item))
        return [_run_cli([cmd, "--scenario", self.paths[item["key"]], "--out", out])
                for cmd in ("simulate", "certify", "verify")]

    def verdict(self, item, result):
        (sim_code, sim_text), (cert_code, _), (ver_code, _) = result
        out = self._out(item)
        cert = yaml.safe_load((out / "certificate.yaml").read_text())
        fields = {}
        if (out / "event.yaml").exists():
            event = yaml.safe_load((out / "event.yaml").read_text())
            fields = {"trigger": event["trigger"], "marker": event["marker_index"],
                      "t_lo": event["t_lo"], "t_hi": event["t_hi"]}
        oracle = cert.get("oracle_cross_check") or {}
        bracket = oracle.get("pole_bracket")
        status = sim_text.strip().splitlines()[-1]
        escape = next(s.name for s in detector.EscapeStatus if status.startswith(s.value + ":"))
        verdict = _verdict(case=cert["case"], t_bound=cert["t_bound"],
                           oracle_pole=0.5 * (bracket[0] + bracket[1]) if bracket else None,
                           escape=escape, holds=ver_code == 0,
                           exit=[sim_code, cert_code, ver_code], **fields)
        files = {}
        for name in COMPARED_FILES:
            path = out / name
            if path.exists():
                files[name] = hashlib.sha256(path.read_bytes()).hexdigest()
        written = sum(p.stat().st_size for p in out.iterdir())
        return verdict, files, written


def _run_cli(args):
    """(exit code, stdout) of one ``dustlab`` command."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            dustlab.cli.main.main(args=args, prog_name="dustlab", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue()


class LambdaSweep(Workload):
    """The body of ``dustlab sweep`` for one lambda grid point, without its CSV."""

    def __init__(self, root: Path, workdir: Path, items):
        self.bases = {name: core.load_scenario(root / "scenarios" / f"{name}.yaml")
                      for name in inputs.SWEEP_SCENARIOS}

    def execute(self, item):
        vs = core.validate_scenario(replace(self.bases[item["scenario"]], lam=item["lam"]))
        cert = riccati.check_blowup_conditions(vs.total_mass, vs.v_sup, vs.lam,
                                               vs.dimension, vs.h0)
        traj = dustlab.simulate(vs)
        return cert, traj, detector.escape_report(traj, vs.v_sup, cert)

    def verdict(self, item, result):
        cert, traj, report = result
        return _verdict(case=cert.case.value, t_bound=cert.t_bound,
                        escape=report.status.name, **_event_fields(traj.event)), {}, 0


class CertificateAtlas(Workload):
    """Certificate conditions plus the oracle cross-check that ``certify`` writes."""

    def execute(self, item):
        args = (item["mass"], item["v_sup"], item["lam"], item["n"], item["h0"])
        cert = riccati.check_blowup_conditions(*args)
        pole = None
        if cert.t_bound is not None:
            params = riccati.RiccatiParams.from_macroscopic(*args)
            try:
                pole = riccati.integrate_comparison_ode(
                    params, until=10.0 * cert.t_bound + 1.0).pole_time
            except NoPoleInHorizon:
                pass
        return cert, pole

    def verdict(self, item, result):
        cert, pole = result
        return _verdict(case=cert.case.value, t_bound=cert.t_bound, oracle_pole=pole), {}, 0


class Slab16k(Workload):
    """A large slab: simulate, the proof chain and the escape report."""

    def __init__(self, root: Path, workdir: Path, items):
        path = workdir / "slab_16k.yaml"
        path.write_text(inputs.SLAB_16K_YAML)
        self.vs = core.validate_scenario(core.load_scenario(path))

    def execute(self, item):
        vs = self.vs
        traj = dustlab.simulate(vs)
        proof = functional.proof_chain_report(traj)
        cert = riccati.check_blowup_conditions(vs.total_mass, vs.v_sup, vs.lam,
                                               vs.dimension, vs.h0)
        return cert, traj, proof, detector.escape_report(traj, vs.v_sup, cert)

    def verdict(self, item, result):
        cert, traj, proof, report = result
        return _verdict(case=cert.case.value, t_bound=cert.t_bound,
                        escape=report.status.name, holds=proof.holds,
                        **_event_fields(traj.event)), {}, 0


WORKLOADS = {
    "shipped_scenarios": ShippedScenarios,
    "lambda_sweep": LambdaSweep,
    "certificate_atlas": CertificateAtlas,
    "slab_16k": Slab16k,
}

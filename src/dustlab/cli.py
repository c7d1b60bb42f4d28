"""Command-line front door: simulate, certify, verify, and sweep.

Runs are seed-free and deterministic: a rerun reproduces every output file
byte for byte (timestamps only in the manifest). Time series are CSV with
17-significant-digit floats; certificates and reports YAML or plain text.
Exit codes: 0 success; 1 validation; 2 hypothesis violation (support
escaped V_sup); 3 numeric failure or proof-chain violation; 4
CONTRADICTION (certificate unsatisfied with bounded support).
"""

from __future__ import annotations

import contextlib
import csv
import datetime
import math
import sys
from dataclasses import replace
from pathlib import Path

import click
import numpy as np
import yaml

from . import __version__, functional, riccati, simulate
from .core import HubbleVelocity, load_scenario, validate_scenario
from .detector import EscapeStatus, escape_report
from .errors import DustLabError, NoPoleInHorizon, NumericFailure, ValidationError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_HYPOTHESIS = 2
EXIT_NUMERIC = 3
EXIT_CONTRADICTION = 4
# a sweep runs each grid point in full, so n past this is a typo; _parse_grid
# rejects it before np.linspace allocates n doubles (1e11 asks for 745 GiB)
MAX_GRID_POINTS = 100_000


def _fmt(x: float) -> str:
    return "" if math.isnan(x) else f"{x:.17g}"


def _write_csv(path: Path, header, rows):
    """A CSV file whose float cells go through _fmt; csv writes None as an
    empty cell and strings and booleans as they are."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_fmt(v) if isinstance(v, float) else v for v in row] for row in rows)


def _write_manifest(out: Path, command: str, scenario_path: str):
    out.mkdir(parents=True, exist_ok=True)
    doc = {
        "command": command,
        "scenario": str(scenario_path),
        "output_dir": str(out),
        "tool_version": __version__,
        "deterministic": True,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    (out / "manifest.yaml").write_text(yaml.safe_dump(doc, sort_keys=False))


def _load(scenario_path):
    try:
        return validate_scenario(load_scenario(scenario_path))
    except ValidationError as exc:
        click.echo(f"scenario invalid: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)


def _write_trajectory_csv(out: Path, traj):
    _write_csv(out / "trajectory.csv", functional.DIAGNOSTIC_COLUMNS,
               functional.diagnostics_rows(traj))


def _write_marker_dump(out: Path, traj, times):
    """Per-marker dump markers_t<step time, 17 significant digits>.csv of the
    accepted step nearest each requested time, each step at most once; needs
    keep_states=True. Times past the last accepted step get that step and
    are named on stderr."""
    traj_times = traj.times
    t_last = traj_times[-1]
    late = [t for t in times if t > t_last]
    if late:
        click.echo(f"snapshot times past the last accepted step t={t_last:.9g}, "
                   f"dumped at that step: {', '.join(f'{t:g}' for t in late)}", err=True)
    steps = dict.fromkeys(int(np.argmin(np.abs(traj_times - t))) for t in times)
    for i in steps:
        st = traj.states[i]
        header = ["position", "velocity", "density", "eig_radial", "mass_weight"]
        columns = [st.positions, st.velocities, st.densities, st.eig_radial, st.masses]
        if st.eig_tangential is not None:
            header.insert(4, "eig_tangential")
            columns.insert(4, st.eig_tangential)
        _write_csv(out / f"markers_t{_fmt(st.time)}.csv", header, zip(*columns))


def _write_event(out: Path, event):
    doc = {
        "trigger": event.trigger.value,
        "t_lo": float(event.t_lo),
        "t_hi": float(event.t_hi),
        "marker_index": int(event.marker_index),
    }
    (out / "event.yaml").write_text(yaml.safe_dump(doc, sort_keys=False))


# the closed form of the pole time in each case that certifies a bound
_FORMULAS = {riccati.Case.CASE_ONE: "arctan", riccati.Case.BOUNDARY: "rational",
             riccati.Case.CASE_TWO: "arcoth"}


def _certificate_doc(vs):
    cert = riccati.check_blowup_conditions(vs.total_mass, vs.v_sup, vs.lam,
                                           vs.dimension, vs.h0)
    doc = {
        "inputs": {k: float(v) if k != "N" else int(v) for k, v in cert.inputs.items()},
        "case": cert.case.value,
        "threshold_case2": cert.threshold_case2,
        "t_bound": cert.t_bound,
        # zero initial vorticity holds by construction: a 1x1 gradient has no
        # antisymmetric part, and a radial field u(r) x/r a symmetric gradient
        "initial_vorticity_zero": True,
        "vorticity_reason": ("1-D: condition automatic" if vs.dimension == 1
                             else "radial gradient is symmetric"),
    }
    if cert.note:
        doc["note"] = cert.note
    if cert.t_bound is not None:
        params = riccati.RiccatiParams.from_macroscopic(
            vs.total_mass, vs.v_sup, vs.lam, vs.dimension, vs.h0)
        doc["formula"] = _FORMULAS[cert.case]
        # a bound near the largest double would make the horizon overflow
        until = min(10.0 * cert.t_bound + 1.0, sys.float_info.max)
        try:
            path = riccati.integrate_comparison_ode(params, until=until)
            agree = abs(path.pole_time - cert.t_bound) <= 1e-6 * cert.t_bound
            doc["oracle_cross_check"] = {
                "pole_bracket": [float(path.pole_bracket[0]), float(path.pole_bracket[1])],
                "agrees": bool(agree),
            }
        except NoPoleInHorizon:
            doc["oracle_cross_check"] = {"pole_bracket": None, "agrees": False}
    if vs.lam == 0.0:
        bounds = riccati.chae_tadmor_bounds(vs.initial.densities, vs.initial.div_u(),
                                            vs.dimension)
        doc["chae_tadmor"] = {
            "applicable_markers": int(bounds.size),
            "min_bound": float(bounds.min()) if bounds.size else None,
        }
    return doc


def _parse_option(option, parse, text):
    """parse(text); on a ValueError, exit 1 naming the option."""
    try:
        return parse(text)
    except ValueError as exc:
        click.echo(f"invalid {option} {text!r}: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)


def _parse_times(spec: str):
    times = [float(s) for s in spec.split(",")] if spec else []
    if not all(math.isfinite(t) and t >= 0 for t in times):
        raise ValueError("times must be finite and non-negative")
    return times


def _parse_grid(spec: str):
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError("expected a:b:n")
    lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    if not (math.isfinite(lo) and math.isfinite(hi) and 1 <= n <= MAX_GRID_POINTS):
        raise ValueError(f"a and b must be finite and n from 1 to {MAX_GRID_POINTS}")
    return np.linspace(lo, hi, n)


@contextlib.contextmanager
def _numeric_failure_exits():
    """A numeric failure of the run or of its proof chain inside exits 3."""
    try:
        yield
    except NumericFailure as exc:
        click.echo(f"numeric failure: {exc}", err=True)
        sys.exit(EXIT_NUMERIC)


_ESCAPE_EXIT = {
    EscapeStatus.CERTIFICATE_HONORED: EXIT_OK,
    EscapeStatus.NO_PREDICTION: EXIT_OK,
    EscapeStatus.INCONCLUSIVE: EXIT_OK,
    EscapeStatus.HYPOTHESIS_VIOLATED: EXIT_HYPOTHESIS,
    EscapeStatus.CONTRADICTION: EXIT_CONTRADICTION,
}


@click.group()
def main():
    """Dust-collapse laboratory: simulation, proof-chain verification,
    and analytic blowup certificates."""


_scenario_opt = click.option("--scenario", "scenario_path", required=True,
                             type=click.Path(exists=True, dir_okay=False))
_out_opt = click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))


@main.command("simulate")
@_scenario_opt
@_out_opt
@click.option("--snapshot-times", default="", help="comma-separated times for per-marker dumps")
def simulate_cmd(scenario_path, out_dir, snapshot_times):
    """Run one scenario and write trajectory, diagnostics, and any event."""
    times = _parse_option("--snapshot-times", _parse_times, snapshot_times)
    out = Path(out_dir)
    _write_manifest(out, "simulate", scenario_path)
    vs = _load(scenario_path)
    with _numeric_failure_exits():
        # marker snapshots need every state; all else reads the per-step columns
        traj = simulate(vs, keep_states=bool(times))
        _write_trajectory_csv(out, traj)
    if times:
        _write_marker_dump(out, traj, times)
    if traj.event is not None:
        _write_event(out, traj.event)
        click.echo(f"event: {traj.event.trigger.value} at "
                   f"t in [{traj.event.t_lo:.9g}, {traj.event.t_hi:.9g}]")
    else:
        click.echo(f"no event; reached t={traj.times[-1]:.9g}")
    cert = riccati.check_blowup_conditions(vs.total_mass, vs.v_sup, vs.lam,
                                           vs.dimension, vs.h0)
    report = escape_report(traj, vs.v_sup, cert)
    click.echo(f"{report.status.value}: {report.message}")
    sys.exit(_ESCAPE_EXIT[report.status])


@main.command()
@_scenario_opt
@_out_opt
def certify(scenario_path, out_dir):
    """Evaluate the blowup conditions and write the certificate document."""
    out = Path(out_dir)
    _write_manifest(out, "certify", scenario_path)
    vs = _load(scenario_path)
    doc = _certificate_doc(vs)
    (out / "certificate.yaml").write_text(yaml.safe_dump(doc, sort_keys=False))
    click.echo(f"case: {doc['case']}; t_bound: "
               + (_fmt(doc["t_bound"]) if doc["t_bound"] is not None else "none"))
    sys.exit(EXIT_OK)


@main.command()
@_scenario_opt
@_out_opt
def verify(scenario_path, out_dir):
    """Run a scenario and verify the full inequality chain step by step."""
    out = Path(out_dir)
    _write_manifest(out, "verify", scenario_path)
    vs = _load(scenario_path)
    with _numeric_failure_exits():
        traj = simulate(vs)
        report = functional.proof_chain_report(traj)
    _write_csv(out / "proof_chain.csv", functional.ProofChainStep._fields, report.steps)
    (out / "report.txt").write_text(report.summary_text() + "\n")
    click.echo(report.summary_text())
    hypothesis_violations = sum(1 for s in report.steps if not s.hypothesis_ok)
    if hypothesis_violations:
        click.echo(f"HypothesisViolated on {hypothesis_violations} steps "
                   "(support exceeded V_sup; inequalities not asserted there)")
    sys.exit(EXIT_OK if report.holds else EXIT_NUMERIC)


@main.command()
@_scenario_opt
@_out_opt
@click.option("--lambda-grid", "lambda_grid", default=None, help="a:b:n grid over lambda")
@click.option("--h0-grid", "h0_grid", default=None, help="a:b:n grid over H(0)")
def sweep(scenario_path, out_dir, lambda_grid, h0_grid):
    """One certify+simulate row per grid point along lambda or H(0)."""
    if (lambda_grid is None) == (h0_grid is None):
        click.echo("provide exactly one of --lambda-grid / --h0-grid", err=True)
        sys.exit(EXIT_VALIDATION)
    if lambda_grid is not None:
        axis, grid = "lambda", _parse_option("--lambda-grid", _parse_grid, lambda_grid)
    else:
        axis, grid = "h0", _parse_option("--h0-grid", _parse_grid, h0_grid)
    out = Path(out_dir)
    _write_manifest(out, "sweep", scenario_path)
    base = _load(scenario_path)

    rows = []
    any_contradiction = False
    for value in grid:
        scenario = base.scenario
        if axis == "lambda":
            scenario = replace(scenario, lam=float(value))
        else:
            # retarget H(0) = h0 through the Hubble rate: H = N * rate * M
            rate = float(value) / (base.dimension * base.total_mass)
            scenario = replace(scenario, velocity=HubbleVelocity(rate=rate))
        try:
            vs = validate_scenario(scenario)
            cert = riccati.check_blowup_conditions(vs.total_mass, vs.v_sup, vs.lam,
                                                   vs.dimension, vs.h0)
            traj = simulate(vs)
            rep = escape_report(traj, vs.v_sup, cert)
            rows.append((axis, float(value), cert.case.value, cert.t_bound,
                         traj.event.t_hi if traj.event else None,
                         float(traj.columns.volume.max()), rep.status.value))
            any_contradiction |= rep.status is EscapeStatus.CONTRADICTION
        except DustLabError as exc:
            rows.append((axis, float(value), "", None, None, None, f"error: {exc}"))

    _write_csv(out / "sweep.csv", ("axis", "value", "case", "t_bound", "event_time",
                                   "support_volume_max", "status"), rows)
    click.echo(f"{len(rows)} rows -> {out / 'sweep.csv'}")
    sys.exit(EXIT_CONTRADICTION if any_contradiction else EXIT_OK)


if __name__ == "__main__":
    main()

import csv
import math
import os
import pathlib

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from dustlab import functional, riccati
from dustlab.core import load_scenario, validate_scenario
from dustlab.detector import BRACKET_REL_WIDTH
from dustlab.cli import (EXIT_CONTRADICTION, EXIT_HYPOTHESIS, EXIT_NUMERIC,
                         EXIT_OK, EXIT_VALIDATION, MAX_GRID_POINTS, main)

from conftest import GAUSSIAN_TABLE_SLAB, TRIGGER_EDGES, uniform_slab_div_crossing

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture
def runner():
    return CliRunner()


def write_yaml(path, doc):
    path.write_text(yaml.safe_dump(doc))
    return str(path)


BALL = {"geometry": "radialnd", "dimension": 3, "v_sup": 5.0, "initial_profile": {
    "density": {"kind": "uniform", "value": 0.5, "support": [0.0, 1.0]},
    "velocity": {"kind": "zero"}}}

TOO_LARGE = 10**400  # 401 digits; a double ends near 1.8e308
# what validation prints for each TRIGGER_EDGES input: the row's value an
# ulp past the threshold, each as the shortest repr that reads back the same
EDGE_MESSAGES = {
    "density": "initial density 0.7966215562922653 exceeds rho_blowup_threshold "
               "0.7966215562922652",
    "velocity": "initial |div u| 1.7155677383609702 exceeds div_blowup_threshold "
                "1.71556773836097",
}


def fast_scenario(tmp_path, **overrides):
    doc = {
        "geometry": "slab1d", "dimension": 1, "lambda": 0.0, "v_sup": 2.0,
        "marker_count": 16, "t_end": 5.0,
        "initial_profile": {
            "density": {"kind": "uniform", "value": 0.5, "support": [-1.0, 1.0]},
            "velocity": {"kind": "zero"},
        },
        "tolerances": {"rel_tol": 1e-8, "abs_tol": 1e-10},
    }
    doc.update(overrides)
    return write_yaml(tmp_path / "scenario.yaml", doc)


class TestSimulate:
    def test_equilibrium_no_event(self, runner, tmp_path):
        path = write_yaml(tmp_path / "eq.yaml", {
            "geometry": "slab1d", "lambda": 0.5, "v_sup": 2.0,
            "marker_count": 16, "t_end": 1.0,
            "initial_profile": {
                "density": {"kind": "uniform", "value": 0.5, "support": [-1.0, 1.0]},
                "velocity": {"kind": "zero"}},
        })
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--scenario", path, "--out", str(out)])
        assert result.exit_code == EXIT_OK, result.output
        # the status line names its status once
        assert result.output.splitlines()[-1] == "no prediction: no event"
        assert (out / "manifest.yaml").exists()
        assert (out / "trajectory.csv").exists()
        assert not (out / "event.yaml").exists()

    def test_collapse_writes_event_and_snapshots(self, runner, tmp_path):
        path = fast_scenario(tmp_path)
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--scenario", path,
                                      "--out", str(out),
                                      "--snapshot-times", "0.0,1.0"])
        assert result.exit_code == EXIT_OK, result.output
        event = yaml.safe_load((out / "event.yaml").read_text())
        assert event["t_hi"] == pytest.approx(2.0, abs=1e-3)
        assert event["t_hi"] >= event["t_lo"]
        snaps = sorted(out.glob("markers_t*.csv"))
        assert len(snaps) == 2
        with open(out / "trajectory.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["h_value"]) == 0.0
        assert float(rows[0]["total_mass"]) == pytest.approx(1.0)
        assert "certificate honored" in result.output

    def test_invalid_scenario_exit_1(self, runner, tmp_path):
        path = fast_scenario(tmp_path, v_sup=1.0)  # support 2 > v_sup
        result = runner.invoke(main, ["simulate", "--scenario", path,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == EXIT_VALIDATION
        assert "invalid" in result.output

    @pytest.mark.parametrize("overrides, field", [
        ({"initial_profile": {"density": "uniform", "velocity": {"kind": "zero"}}},
         "density"),
        ({"marker_count": 1e300}, "marker_count"),
        ({"geometry": "radialnd", "dimension": 400, "initial_profile": {
            "density": {"kind": "uniform", "value": 0.5, "support": [0.0, 1.0]},
            "velocity": {"kind": "zero"}}}, "dimension"),
    ], ids=["density-not-a-mapping", "marker-count-1e300", "dimension-400"])
    def test_out_of_range_input_exit_1_naming_the_field(self, runner, tmp_path,
                                                         overrides, field):
        # each of these once ended in a traceback from deep inside validation
        path = fast_scenario(tmp_path, **overrides)
        result = runner.invoke(main, ["simulate", "--scenario", path,
                                      "--out", str(tmp_path / "out")])
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == EXIT_VALIDATION
        assert f"[{field}]" in result.output

    @pytest.mark.parametrize("overrides, field", [
        ({"marker_count": TOO_LARGE}, "marker_count"),
        ({**BALL, "dimension": TOO_LARGE}, "dimension"),
        ({"v_sup": TOO_LARGE}, "v_sup"),
        ({"t_end": TOO_LARGE}, "t_end"),
        ({"lambda": TOO_LARGE}, "lambda"),
        ({"tolerances": {"rel_tol": TOO_LARGE}}, "rel_tol"),
        ({"tolerances": {"max_steps": TOO_LARGE}}, "max_steps"),
        ({"initial_profile": {
            "density": {"kind": "uniform", "value": TOO_LARGE, "support": [-1.0, 1.0]},
            "velocity": {"kind": "zero"}}}, "density"),
        ({"initial_profile": {
            "density": {"kind": "uniform", "value": 0.5, "support": [-1.0, TOO_LARGE]},
            "velocity": {"kind": "zero"}}}, "density"),
    ], ids=["marker_count", "dimension", "v_sup", "t_end", "lambda", "rel_tol",
            "max_steps", "density.value", "density.support"])
    def test_integer_too_large_for_a_double_exit_1_naming_the_field(
            self, runner, tmp_path, overrides, field):
        # each of these once ended in OverflowError: int too large to convert
        # to float
        path = fast_scenario(tmp_path, **overrides)
        result = runner.invoke(main, ["simulate", "--scenario", path,
                                      "--out", str(tmp_path / "out")])
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == EXIT_VALIDATION
        assert f"[{field}]" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("line, broken", [
        ("v_sup: 2.0", "v_sup: [2.0"),
        ("marker_count: 16", "marker_count: " + "9" * 5000),
    ], ids=["unclosed-list", "5000-digit-integer"])
    def test_unreadable_file_exit_1_naming_it(self, runner, tmp_path, line, broken):
        # both once ended in a traceback from inside the YAML parser; the
        # second in Python's limit on the digits of an integer string
        path = pathlib.Path(fast_scenario(tmp_path))
        text = path.read_text()
        assert line in text
        path.write_text(text.replace(line, broken))
        result = runner.invoke(main, ["simulate", "--scenario", str(path),
                                      "--out", str(tmp_path / "out")])
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == EXIT_VALIDATION
        assert "[scenario]" in result.output
        assert str(path) in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("value", [1e150, 1e160, 1e200, 1e250, 1e300])
    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_dense_slab_exit_3(self, runner, tmp_path, command, value):
        # density 1e150-1e250 once ended in OverflowError from the proof
        # chain's H**2, and the initial step's norm overflowed from 1e145
        path = fast_scenario(tmp_path, initial_profile={
            "density": {"kind": "uniform", "value": value, "support": [-1.0, 1.0]},
            "velocity": {"kind": "zero"}}, tolerances={"rho_blowup_threshold": 1e305})
        result = runner.invoke(main, [command, "--scenario", path,
                                      "--out", str(tmp_path / "out")])
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == EXIT_NUMERIC
        assert "numeric failure" in result.output

    def test_missing_key_exit_1_naming_it(self, runner, tmp_path):
        path = pathlib.Path(fast_scenario(tmp_path))
        doc = yaml.safe_load(path.read_text())
        del doc["v_sup"]
        write_yaml(path, doc)
        result = runner.invoke(main, ["simulate", "--scenario", str(path),
                                      "--out", str(tmp_path / "out")])
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == EXIT_VALIDATION
        assert "MissingKey[v_sup]" in result.output

    @pytest.mark.parametrize("line, written, field", [
        ("lambda: 0.0", "lambda: yes", "lambda"),
        ("v_sup: 2.0", 'v_sup: "2.0"', "v_sup"),
        ("t_end: 5.0", "t_end: 5.0 s", "t_end"),
        ("  rel_tol: 1.0e-08", "  rel_tol: true", "tolerances.rel_tol"),
        ("  abs_tol: 1.0e-10", "  abs_tol: 1e-10", "tolerances.abs_tol"),
        ("    value: 0.5", "    value: null", "initial_profile.density.value"),
        ("    - 1.0", "    - no", "initial_profile.density.support"),
    ], ids=["lambda-yes", "v_sup-string", "t_end-unit", "rel_tol-true",
            "abs_tol-without-a-dot", "density.value-null", "density.support-no"])
    def test_boolean_or_string_for_a_number_exit_1_naming_the_field(
            self, runner, tmp_path, line, written, field):
        # lambda: yes was read as 1.0, rel_tol: true ran at rtol True and
        # v_sup: "2.0" was read as 2.0; YAML reads 1e-10 (no dot) as a string
        path = pathlib.Path(fast_scenario(tmp_path))
        text = path.read_text()
        assert line + "\n" in text
        path.write_text(text.replace(line + "\n", written + "\n"))
        for command in ("certify", "simulate"):
            result = runner.invoke(main, [command, "--scenario", str(path),
                                          "--out", str(tmp_path / command)])
            assert isinstance(result.exception, SystemExit)
            assert result.exit_code == EXIT_VALIDATION
            assert f"NotANumber[{field}]: must be a number" in result.output
            assert "Traceback" not in result.output

    def test_misspelt_gaussian_slab_is_not_certified(self, runner, tmp_path):
        # spelt right, lambda 0.7 and a bump centred at 0.4 certify nothing;
        # misspelt, the loader once read lambda 0 and center 0 and certified
        # CaseOne with t_bound 2.03
        doc = yaml.safe_load(pathlib.Path(fast_scenario(tmp_path)).read_text())
        density = {"kind": "gaussian", "amplitude": 1.0, "center": 0.4, "width": 0.5,
                   "support": [-1.0, 1.0]}
        doc["lambda"], doc["initial_profile"]["density"] = 0.7, density
        path = write_yaml(tmp_path / "right.yaml", doc)
        result = runner.invoke(main, ["certify", "--scenario", path,
                                      "--out", str(tmp_path / "right")])
        assert result.exit_code == EXIT_OK, result.output
        assert result.output.startswith("case: NoCertificate; t_bound: none")
        doc["lamda"], density["centre"] = doc.pop("lambda"), density.pop("center")
        path = write_yaml(tmp_path / "misspelt.yaml", doc)
        result = runner.invoke(main, ["certify", "--scenario", path,
                                      "--out", str(tmp_path / "misspelt")])
        assert result.exit_code == EXIT_VALIDATION
        assert "UnknownKey[lamda]" in result.output

    def test_escape_scenario_exit_2(self, runner, tmp_path):
        result = runner.invoke(main, [
            "simulate", "--scenario", str(SCENARIOS / "hubble_escape_1d.yaml"),
            "--out", str(tmp_path / "out")])
        assert result.exit_code == EXIT_HYPOTHESIS
        status = result.output.splitlines()[-1]
        assert status.startswith("hypothesis violated: support escaped V_sup: at t in [0, ")
        assert status.count("escaped") == 1

    @pytest.mark.parametrize("command", ["certify", "simulate", "verify"])
    @pytest.mark.parametrize("field", sorted(TRIGGER_EDGES))
    def test_trigger_at_the_first_row_exit_1(self, runner, tmp_path, command, field):
        """A threshold that the profile meets but the run's first row passes
        is a validation failure of every command, not a traceback; its
        message prints both values in full, so it shows why."""
        path = write_yaml(tmp_path / "edge.yaml", TRIGGER_EDGES[field])
        result = runner.invoke(main, [command, "--scenario", path, "--out", str(tmp_path / "out")])
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == EXIT_VALIDATION
        assert f"TriggerAtStart[{field}]: {EDGE_MESSAGES[field]}" in result.output
        assert "Traceback" not in result.output

    # 5.0, a whole-number float from YAML, once printed "exceeded 5.0 accepted steps"
    @pytest.mark.parametrize("max_steps", [5, 5.0])
    def test_step_limit_exit_3(self, runner, tmp_path, max_steps):
        # capped, as an uncapped slab reaches its event in a few steps
        path = fast_scenario(tmp_path, tolerances={"max_steps": max_steps, "max_step": 4e-3})
        result = runner.invoke(main, ["simulate", "--scenario", path,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == EXIT_NUMERIC
        assert "exceeded 5 accepted steps" in result.output

    @pytest.mark.parametrize("times", ["0.1,abc", "0.1,,0.5", "nan"])
    def test_malformed_snapshot_times_exit_1(self, runner, tmp_path, times):
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--scenario", fast_scenario(tmp_path),
                                      "--out", str(out), "--snapshot-times", times])
        assert result.exit_code == EXIT_VALIDATION
        assert "--snapshot-times" in result.output
        assert not out.exists()  # parsed before the run and any file write

    def test_snapshot_times_outside_the_run(self, runner, tmp_path):
        path = fast_scenario(tmp_path)  # event near t = 2
        out = tmp_path / "out"
        args = ["simulate", "--scenario", path, "--out", str(out), "--snapshot-times"]
        result = runner.invoke(main, args + ["1.0,5.0,7.0,-3"])
        assert result.exit_code == EXIT_VALIDATION
        assert "non-negative" in result.output
        assert not out.exists()
        result = runner.invoke(main, args + ["1.0,5.0,7.0"])
        assert result.exit_code == EXIT_OK, result.output
        # 5 and 7 both get the last accepted step, written once
        assert len(list(out.glob("markers_t*.csv"))) == 2
        assert "past the last accepted step" in result.stderr
        assert result.stderr.rstrip().endswith(": 5, 7")
        assert "past the last" not in result.stdout

    def test_subnormal_slab_density_exit_1(self, runner, tmp_path):
        # the slab's chart steps v = 1/rho, which a subnormal density overflows
        path = fast_scenario(tmp_path, initial_profile={
            "density": {"kind": "uniform", "value": 1e-310, "support": [-1.0, 1.0]},
            "velocity": {"kind": "zero"}})
        result = runner.invoke(main, ["simulate", "--scenario", path,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == EXIT_VALIDATION, result.output
        assert "NotFinite[density]" in result.output

    def test_snapshot_steps_a_microsecond_apart_get_two_files(self, runner, tmp_path):
        # both steps once rounded to markers_t2.720698.csv, and one dump was
        # lost; the ball's steps near its collapse are ~1e-10 apart (the
        # slab's chart steps over its collapse)
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "simulate", "--scenario", str(SCENARIOS / "uniform_ball_n3.yaml"),
            "--out", str(out), "--snapshot-times", "2.7206978,2.7206981"])
        assert result.exit_code == EXIT_OK, result.output
        names = sorted(p.name for p in out.glob("markers_t*.csv"))
        assert len(names) == 2
        # each name holds its step's time to 17 significant digits, as the
        # trajectory's time column does
        with open(out / "trajectory.csv") as fh:
            step_times = {row["time"] for row in csv.DictReader(fh)}
        for name in names:
            assert name.removeprefix("markers_t").removesuffix(".csv") in step_times

    def test_snapshot_at_zero_is_the_validated_initial_state(self, runner, tmp_path):
        # a ball's dump has the tangential eigenvalue column, which the slab's
        # lacks; each column is the validated state's, bit for bit through %.17g
        path = SCENARIOS / "uniform_ball_n3.yaml"
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--scenario", str(path),
                                      "--out", str(out), "--snapshot-times", "0"])
        assert result.exit_code == EXIT_OK, result.output
        with open(out / "markers_t0.csv") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["position", "velocity", "density", "eig_radial",
                          "eig_tangential", "mass_weight"]
        initial = validate_scenario(load_scenario(path)).initial
        fields = (initial.positions, initial.velocities, initial.densities,
                  initial.eig_radial, initial.eig_tangential, initial.masses)
        for column, field in zip(np.array(rows, dtype=float).T, fields, strict=True):
            assert column.tobytes() == field.tobytes()

    def test_marker_dump_at_time_zero_is_the_first_row(self, runner, tmp_path):
        # markers_t0.csv and trajectory.csv's first row read one state, even
        # where the slab's chart moves the profile's u_x = -0.4 by an ulp
        path = write_yaml(tmp_path / "slab.yaml", GAUSSIAN_TABLE_SLAB)
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--scenario", path,
                                      "--out", str(out), "--snapshot-times", "0"])
        assert result.exit_code == EXIT_OK, result.output
        with open(out / "markers_t0.csv") as fh:
            markers = {name: np.array(column, dtype=float)
                       for name, *column in zip(*csv.reader(fh))}
        with open(out / "trajectory.csv") as fh:
            first = next(csv.DictReader(fh))
        assert float(first["max_density"]) == markers["density"].max()
        assert float(first["min_density"]) == markers["density"].min()
        assert float(first["max_abs_div"]) == np.abs(markers["eig_radial"]).max() > 0.4
        # and certify exits 0 on it, its oracle cross-check agreeing
        assert_pole_agrees(certify_doc(runner, tmp_path / "certify", path))

    def test_deterministic_rerun(self, runner, tmp_path):
        path = fast_scenario(tmp_path, t_end=1.0)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            result = runner.invoke(main, ["simulate", "--scenario", path,
                                          "--out", str(out)])
            assert result.exit_code == EXIT_OK
            outs.append((out / "trajectory.csv").read_text())
        assert outs[0] == outs[1]


# lambda within rounding of M/v_sup: the slab's lambda compares below M/v_sup,
# the ball's above it; both once ended certify and simulate in a traceback.
# The dense slab (density 1e145) collapses at t ~ 1e-137, inside its bound
# 5e-73: an event and a certificate far below t = 1
LAMBDA_AT_RATIO = {
    "slab": ("CaseOne", {
        "geometry": "slab1d", "dimension": 1, "lambda": 0.4532365679503687,
        "v_sup": 8.543, "marker_count": 16, "t_end": 5.0,
        "initial_profile": {
            "density": {"kind": "uniform", "value": 1.936, "support": [-1.0, 1.0]},
            "velocity": {"kind": "zero"}}}),
    "ball": ("CaseTwo", {
        "geometry": "radialnd", "dimension": 3, "lambda": 0.5246803880924926,
        "v_sup": 5.325, "marker_count": 16, "t_end": 5.0,
        "initial_profile": {
            "density": {"kind": "uniform", "value": 0.667, "support": [0.0, 1.0]},
            "velocity": {"kind": "hubble", "rate": -0.3}}}),
    "dense-slab": ("CaseOne", {
        "geometry": "slab1d", "dimension": 1, "lambda": 0.0, "v_sup": 2.0,
        "marker_count": 64, "t_end": 5.0, "tolerances": {"rho_blowup_threshold": 1e305},
        "initial_profile": {
            "density": {"kind": "uniform", "value": 1e145, "support": [-1.0, 1.0]},
            "velocity": {"kind": "zero"}}}),
}


def dense_slab_scenario(tmp_path):
    """A slab of density 1e100 on [-0.5, 0.5] at rest: t_bound 1.57e-50."""
    return fast_scenario(tmp_path, v_sup=1.0, initial_profile={
        "density": {"kind": "uniform", "value": 1e100, "support": [-0.5, 0.5]},
        "velocity": {"kind": "zero"}}, tolerances={"rho_blowup_threshold": 1e200})


def certify_doc(runner, tmp_path, path):
    """The certificate.yaml that `certify` writes for the scenario at path."""
    out = tmp_path / "out"
    result = runner.invoke(main, ["certify", "--scenario", path, "--out", str(out)])
    assert result.exit_code == EXIT_OK, result.output
    return yaml.safe_load((out / "certificate.yaml").read_text())


def assert_pole_agrees(doc):
    """The oracle's pole is within 1e-6 relative of t_bound, and its bracket
    at most 1e-8 relative wide."""
    t_bound = doc["t_bound"]
    lo, hi = doc["oracle_cross_check"]["pole_bracket"]
    assert doc["oracle_cross_check"]["agrees"] is True
    assert abs(0.5 * (lo + hi) - t_bound) <= 1e-6 * t_bound
    assert hi - lo <= 1e-8 * t_bound


class TestLambdaAtRatio:
    @pytest.mark.parametrize("command", ["certify", "simulate"])
    @pytest.mark.parametrize("name", sorted(LAMBDA_AT_RATIO))
    def test_exits_0(self, runner, tmp_path, name, command):
        case, doc = LAMBDA_AT_RATIO[name]
        path = write_yaml(tmp_path / f"{name}.yaml", doc)
        result = runner.invoke(main, [command, "--scenario", path,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == EXIT_OK, result.output
        if command == "certify":
            assert result.output.startswith(f"case: {case}; t_bound: ")
            # the slab's t_bound is 2.1e8, the dense slab's 5e-73: the
            # oracle's tolerance, first step, step floor and crossing width
            # all follow the ODE's own scale
            assert_pole_agrees(yaml.safe_load(
                (tmp_path / "out" / "certificate.yaml").read_text()))
        else:
            assert "certificate honored" in result.output


class TestCertify:
    def test_case_one_certificate_document(self, runner, tmp_path):
        path = fast_scenario(tmp_path)
        out = tmp_path / "out"
        result = runner.invoke(main, ["certify", "--scenario", path, "--out", str(out)])
        assert result.exit_code == EXIT_OK, result.output
        doc = yaml.safe_load((out / "certificate.yaml").read_text())
        assert doc["case"] == "CaseOne"
        # M=1, v_sup=2, N=1, h0=0: T = (pi/2) / sqrt(1/2)
        assert doc["t_bound"] == pytest.approx(2.221441469, abs=1e-8)
        assert doc["formula"] == "arctan"
        assert doc["oracle_cross_check"]["agrees"] is True
        lo, hi = doc["oracle_cross_check"]["pole_bracket"]
        # bracket is tight to the oracle's own tolerance (~1e-10 relative)
        assert lo - 1e-8 <= doc["t_bound"] <= hi + 1e-8
        assert doc["initial_vorticity_zero"] is True
        # lambda = 0: per-characteristic bounds section present, but a cold
        # start has no contracting characteristics
        assert doc["chae_tadmor"]["applicable_markers"] == 0
        # each shipped scenario with a certificate is in case one, and its
        # oracle cross-check agrees
        for name in ("uniform_collapse_1d", "uniform_ball_n3", "hubble_escape_1d"):
            shipped = certify_doc(runner, tmp_path / name, str(SCENARIOS / f"{name}.yaml"))
            assert shipped["case"] == "CaseOne"
            assert_pole_agrees(shipped)

    @pytest.mark.parametrize("overrides, reason", [
        ({}, "1-D: condition automatic"),
        (BALL, "radial gradient is symmetric"),
    ], ids=["slab", "ball"])
    def test_vorticity_keys(self, runner, tmp_path, overrides, reason):
        out = tmp_path / "out"
        result = runner.invoke(main, ["certify", "--scenario",
                                      fast_scenario(tmp_path, **overrides), "--out", str(out)])
        assert result.exit_code == EXIT_OK, result.output
        doc = yaml.safe_load((out / "certificate.yaml").read_text())
        assert doc["initial_vorticity_zero"] is True
        assert doc["vorticity_reason"] == reason

    def test_chae_tadmor_bound_for_contracting_start(self, runner, tmp_path):
        path = fast_scenario(tmp_path, initial_profile={
            "density": {"kind": "uniform", "value": 0.5, "support": [-1.0, 1.0]},
            "velocity": {"kind": "hubble", "rate": -2.0}})
        out = tmp_path / "out"
        result = runner.invoke(main, ["certify", "--scenario", path, "--out", str(out)])
        assert result.exit_code == EXIT_OK
        doc = yaml.safe_load((out / "certificate.yaml").read_text())
        assert doc["chae_tadmor"]["applicable_markers"] == 16
        assert doc["chae_tadmor"]["min_bound"] == pytest.approx(0.5)

    def test_infinite_bound_skips_oracle(self, runner, tmp_path):
        # lambda = M/v_sup with a Hubble rate so small that the Boundary
        # bound -1/(a h0) overflows to inf: no bound, so no certificate
        path = fast_scenario(tmp_path, **{"lambda": 0.5, "initial_profile": {
            "density": {"kind": "uniform", "value": 0.5, "support": [-1.0, 1.0]},
            "velocity": {"kind": "hubble", "rate": -1e-320}}})
        out = tmp_path / "out"
        result = runner.invoke(main, ["certify", "--scenario", path, "--out", str(out)])
        assert result.exit_code == EXIT_OK, result.output
        doc = yaml.safe_load((out / "certificate.yaml").read_text())
        assert doc["case"] == "NoCertificate"
        assert doc["t_bound"] is None
        assert "oracle_cross_check" not in doc

    def test_long_boundary_bound_agrees(self, runner, tmp_path):
        # lambda = M/v_sup with a Hubble rate of -1e-7: Boundary, t_bound 1e7.
        # An absolute tolerance of 1e-12 against |y| ~ 1e-7 put the pole
        # 1.8e-6 relative past the bound
        doc = certify_doc(runner, tmp_path, fast_scenario(tmp_path, **{
            "lambda": 0.5, "initial_profile": {
                "density": {"kind": "uniform", "value": 0.5, "support": [-1.0, 1.0]},
                "velocity": {"kind": "hubble", "rate": -1e-7}}}))
        assert doc["case"] == "Boundary" and doc["t_bound"] == pytest.approx(1e7)
        assert_pole_agrees(doc)

    def test_horizon_past_the_largest_double_is_capped(self, runner, tmp_path):
        # Boundary with a Hubble rate of -1e-308: t_bound = -1/(a h0) is about
        # 1e308, finite, but the oracle's horizon 10 t_bound + 1 overflows;
        # capped at the largest double, the oracle ends without a pole
        path = fast_scenario(tmp_path, **{"lambda": 0.5, "initial_profile": {
            "density": {"kind": "uniform", "value": 0.5, "support": [-1.0, 1.0]},
            "velocity": {"kind": "hubble", "rate": -1.0e-308}}})
        out = tmp_path / "out"
        result = runner.invoke(main, ["certify", "--scenario", path, "--out", str(out)])
        assert result.exit_code == EXIT_OK, result.output
        doc = yaml.safe_load((out / "certificate.yaml").read_text())
        assert doc["case"] == "Boundary" and 1e307 < doc["t_bound"] < 1e309
        assert doc["oracle_cross_check"] == {"pole_bracket": None, "agrees": False}

    def test_overflowing_coefficient_certifies_nothing(self, runner, tmp_path):
        # M = 2e200 makes b = M(M/v_sup - lambda) overflow to inf
        path = fast_scenario(tmp_path, initial_profile={
            "density": {"kind": "uniform", "value": 1e200, "support": [-1.0, 1.0]},
            "velocity": {"kind": "zero"}}, tolerances={"rho_blowup_threshold": 1e300})
        out = tmp_path / "out"
        result = runner.invoke(main, ["certify", "--scenario", path, "--out", str(out)])
        assert result.exit_code == EXIT_OK, result.output
        doc = yaml.safe_load((out / "certificate.yaml").read_text())
        assert (doc["case"], doc["t_bound"]) == ("NoCertificate", None)
        assert "t_bound: none" in result.output

    def test_bound_far_below_one_is_cross_checked(self, runner, tmp_path):
        # density 1e100 at rest: CaseOne with t_bound 1.57e-50
        doc = certify_doc(runner, tmp_path, dense_slab_scenario(tmp_path))
        assert doc["case"] == "CaseOne"
        assert_pole_agrees(doc)

    @pytest.mark.parametrize("shift, agrees", [(0.0, True), (1e-5, False), (-1e-5, False)])
    @pytest.mark.parametrize("dense", [True, False], ids=["t_bound-1.57e-50", "t_bound-2.22"])
    def test_agreement_is_relative(self, runner, tmp_path, monkeypatch, dense, shift, agrees):
        # an oracle whose pole sits `shift` relative off the closed form
        def moved_oracle(params, until):
            pole = riccati.blowup_time_upper_bound(params) * (1.0 + shift)
            return riccati.ComparisonPath(np.zeros(1), (pole, pole))

        monkeypatch.setattr(riccati, "integrate_comparison_ode", moved_oracle)
        path = dense_slab_scenario(tmp_path) if dense else fast_scenario(tmp_path)
        doc = certify_doc(runner, tmp_path, path)
        assert doc["oracle_cross_check"]["agrees"] is agrees

    def test_no_certificate_case(self, runner, tmp_path):
        path = fast_scenario(tmp_path, **{"lambda": 2.0, "v_sup": 4.0})
        out = tmp_path / "out"
        result = runner.invoke(main, ["certify", "--scenario", path, "--out", str(out)])
        assert result.exit_code == EXIT_OK
        doc = yaml.safe_load((out / "certificate.yaml").read_text())
        assert doc["case"] == "NoCertificate"
        assert doc["t_bound"] is None
        assert "t_bound: none" in result.output


class TestVerify:
    def test_collapse_proof_chain(self, runner, tmp_path):
        # uncapped, as a slab runs by default, and capped at 4e-3, where the
        # finite-difference residual also stays within the floor off the window
        for max_step, min_rows in ((None, 2), (4e-3, 11)):
            tolerances = {"rel_tol": 1e-8, "abs_tol": 1e-10}
            if max_step is not None:
                tolerances["max_step"] = max_step
            path = fast_scenario(tmp_path, tolerances=tolerances)
            out = tmp_path / f"out{max_step}"
            result = runner.invoke(main, ["verify", "--scenario", path, "--out", str(out)])
            assert result.exit_code == EXIT_OK, result.output
            assert "all inequalities hold" in result.output
            assert (out / "report.txt").exists()
            with open(out / "proof_chain.csv") as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) >= min_rows
            for r in rows:  # asserted inside the window too
                assert float(r["riccati_pointwise"]) <= 1e-6
            if max_step is not None:
                for r in rows:
                    if r["informational"] == "False":
                        assert float(r["riccati_residual"]) <= 1e-6

    def test_escape_run_reports_hypothesis_steps(self, runner, tmp_path):
        result = runner.invoke(main, [
            "verify", "--scenario", str(SCENARIOS / "hubble_escape_1d.yaml"),
            "--out", str(tmp_path / "out")])
        assert result.exit_code == EXIT_OK
        assert "HypothesisViolated" in result.output


    def test_violated_chain_exit_3(self, runner, tmp_path, monkeypatch):
        # a negative floor makes every tolerance negative, so the first
        # asserted step whose margins are not strictly positive violates it
        monkeypatch.setattr(functional, "RESIDUAL_FLOOR", -1e-6)
        result = runner.invoke(main, ["verify", "--scenario", fast_scenario(tmp_path),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == EXIT_NUMERIC, result.output
        assert "FIRST VIOLATION" in result.output


class TestSweep:
    def test_lambda_grid_flips_certificate(self, runner, tmp_path):
        # M=1, v_sup=2: certificate boundary at lambda = 0.5
        path = fast_scenario(tmp_path, t_end=3.0)
        out = tmp_path / "out"
        result = runner.invoke(main, ["sweep", "--scenario", path,
                                      "--out", str(out),
                                      "--lambda-grid", "0.0:1.0:5"])
        assert result.exit_code == EXIT_OK, result.output
        with open(out / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        cases = [r["case"] for r in rows]
        assert cases[0] == "CaseOne" and cases[1] == "CaseOne"
        # lambda = 0.5 sits exactly on the boundary; the cold start h0 = 0
        # does not qualify for the boundary extension (it needs h0 < 0)
        assert cases[2] == "NoCertificate"
        assert cases[3] == "NoCertificate" and cases[4] == "NoCertificate"

    def test_h0_grid_flips_certificate(self, runner, tmp_path):
        # lambda=2, M=1, v_sup=1 (support [-0.5, 0.5]): threshold |h0| = 1
        path = fast_scenario(tmp_path, t_end=1.0, v_sup=1.0, initial_profile={
            "density": {"kind": "uniform", "value": 1.0, "support": [-0.5, 0.5]},
            "velocity": {"kind": "zero"}}, **{"lambda": 2.0})
        out = tmp_path / "out"
        result = runner.invoke(main, ["sweep", "--scenario", path,
                                      "--out", str(out),
                                      "--h0-grid", "-2.0:0.0:5"])
        assert result.exit_code == EXIT_OK, result.output
        with open(out / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        cases = [r["case"] for r in rows]
        assert cases[0] == "CaseTwo"      # h0 = -2
        assert cases[1] == "CaseTwo"      # h0 = -1.5
        assert cases[2] == "NoCertificate"  # h0 = -1 exactly (strict)
        assert cases[3] == "NoCertificate"
        assert cases[4] == "NoCertificate"

    def test_h0_grid_rows_that_fail_validation(self, runner, tmp_path):
        # H(0) = -1e12 and -5e11 give |div u| past div_blowup_threshold at
        # t = 0: those rows carry the error and leave the number cells empty
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "sweep", "--h0-grid", "-1e12:-2:3", "--scenario",
            str(SCENARIOS / "uniform_collapse_1d.yaml"), "--out", str(out)])
        assert result.exit_code == EXIT_OK, result.output
        assert (out / "sweep.csv").read_bytes() == (
            b"axis,value,case,t_bound,event_time,support_volume_max,status\r\n"
            b"h0,-1000000000000,,,,,error: TriggerAtStart[velocity]: initial |div u| "
            b"1000000000000.0 exceeds div_blowup_threshold 100000000.0\r\n"
            b"h0,-500000000001,,,,,error: TriggerAtStart[velocity]: initial |div u| "
            b"500000000001.0 exceeds div_blowup_threshold 100000000.0\r\n"
            b"h0,-2,CaseOne,0.48060196634497671,0.47213594499957973,1.96875,"
            b"certificate honored\r\n")
        # H(0) = -2 is the Hubble rate -2 (M = 1): v = 2 - 4t - t^2/2, whose
        # root is sqrt(20) - 4; the event's t_hi lies within the bracket width
        # after the exact time |div u| passes 1e8, just before that root
        event_time = float((out / "sweep.csv").read_bytes().split(b"\r\n")[3].split(b",")[4])
        exact = uniform_slab_div_crossing(0.5, -2.0, 0.0, 1e8, 5.0)
        assert exact <= event_time <= exact + BRACKET_REL_WIDTH * event_time
        assert event_time < math.sqrt(20.0) - 4.0

    @pytest.mark.parametrize("option, grid", [("--lambda-grid", "0:1"),
                                              ("--lambda-grid", "0:1:-2"),
                                              ("--h0-grid", "0:1:x")])
    def test_malformed_grid_exit_1(self, runner, tmp_path, option, grid):
        out = tmp_path / "out"
        result = runner.invoke(main, ["sweep", "--scenario", fast_scenario(tmp_path),
                                      "--out", str(out), option, grid])
        assert result.exit_code == EXIT_VALIDATION
        assert option in result.output
        assert not out.exists()  # parsed before the run and any file write

    def test_grid_past_the_point_limit_exit_1(self, runner, tmp_path, monkeypatch):
        # rejected before np.linspace would allocate 8e11 bytes for it
        def linspace(*args):
            pytest.fail("the grid was allocated")

        monkeypatch.setattr(np, "linspace", linspace)
        out = tmp_path / "out"
        result = runner.invoke(main, ["sweep", "--scenario", fast_scenario(tmp_path),
                                      "--out", str(out), "--lambda-grid", "0:1:100000000000"])
        assert result.exit_code == EXIT_VALIDATION
        assert "--lambda-grid" in result.output
        assert f"n from 1 to {MAX_GRID_POINTS}" in result.output
        assert not out.exists()

    def test_requires_exactly_one_grid(self, runner, tmp_path):
        path = fast_scenario(tmp_path)
        result = runner.invoke(main, ["sweep", "--scenario", path,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == EXIT_VALIDATION


def run_command(runner, command, scenario, out):
    """The exit code of `dustlab command --scenario scenario --out out`."""
    return runner.invoke(main, [command, "--scenario", str(scenario),
                                "--out", str(out)]).exit_code


class TestOutputFiles:
    """Each command removes the outputs of its last run and creates its own
    afresh: an old file at an output path is replaced, never written through."""

    def test_an_old_file_is_replaced_not_written_through(self, runner, tmp_path):
        scenario, out = SCENARIOS / "uniform_collapse_1d.yaml", tmp_path / "out"
        assert run_command(runner, "simulate", scenario, out) == EXIT_OK
        links = {name: tmp_path / f"link_{name}" for name in ("manifest.yaml", "trajectory.csv")}
        for name, link in links.items():
            os.link(out / name, link)
        first = {name: link.read_bytes() for name, link in links.items()}
        for command in ("certify", "verify"):
            assert run_command(runner, command, scenario, out) == EXIT_OK
        # the link keeps simulate's manifest; the output path holds verify's
        assert links["manifest.yaml"].read_bytes() == first["manifest.yaml"]
        assert yaml.safe_load(first["manifest.yaml"])["command"] == "simulate"
        assert yaml.safe_load((out / "manifest.yaml").read_text())["command"] == "verify"
        # a rerun writes the same trajectory.csv bytes, into a new file
        assert run_command(runner, "simulate", scenario, out) == EXIT_OK
        assert (out / "trajectory.csv").read_bytes() == first["trajectory.csv"]
        assert not os.path.samefile(out / "trajectory.csv", links["trajectory.csv"])
        assert links["trajectory.csv"].read_bytes() == first["trajectory.csv"]

    def test_a_rerun_leaves_no_outputs_of_the_last_run(self, runner, tmp_path):
        doc = yaml.safe_load((SCENARIOS / "uniform_collapse_1d.yaml").read_text())
        out = tmp_path / "out"
        for command in ("simulate", "verify"):
            assert run_command(runner, command, SCENARIOS / "uniform_collapse_1d.yaml",
                               out) == EXIT_OK
        assert (out / "event.yaml").exists()
        # the collapse at t = 2 lies past t_end 1: no event, so no event.yaml
        short = write_yaml(tmp_path / "short.yaml", {**doc, "t_end": 1.0})
        assert run_command(runner, "simulate", short, out) == EXIT_OK
        assert not (out / "event.yaml").exists()
        with open(out / "trajectory.csv") as fh:
            assert float(list(csv.DictReader(fh))[-1]["time"]) == 1.0
        # a run that fails leaves none of its command's outputs either
        failing = fast_scenario(tmp_path, tolerances={"max_steps": 5, "max_step": 4e-3})
        for command, names in (("simulate", ("trajectory.csv",)),
                               ("verify", ("proof_chain.csv", "report.txt"))):
            assert all((out / name).exists() for name in names)
            assert run_command(runner, command, failing, out) == EXIT_NUMERIC
            assert not any((out / name).exists() for name in names)

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS.glob("*.yaml")), ids=lambda p: p.stem)
    def test_one_directory_holds_the_bytes_of_three(self, runner, tmp_path, scenario):
        # simulate, certify and verify into one directory, and each into its own
        commands = ("simulate", "certify", "verify")
        for command in commands:
            assert (run_command(runner, command, scenario, tmp_path / "shared")
                    == run_command(runner, command, scenario, tmp_path / command))

        def files(*dirs):
            return {p.name: p.read_bytes() for d in dirs for p in (tmp_path / d).iterdir()
                    if p.name != "manifest.yaml"}

        assert files("shared") == files(*commands)
        assert {"trajectory.csv", "certificate.yaml", "proof_chain.csv"} <= files("shared").keys()

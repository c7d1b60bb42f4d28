import copy
import math
import pathlib
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
import yaml

from dustlab import simulate
from dustlab.core import (MAX_DIMENSION, TRIGGERS, GaussianDensity, Geometry,
                          HubbleVelocity, NumericalSettings, Scenario,
                          TabulatedDensity, TabulatedVelocity, Trigger, UniformDensity,
                          UniformVelocity, ball_volume, load_scenario, scenario_from_dict,
                          support_volume, unit_sphere_area, validate_scenario)
from dustlab.detector import _held
from dustlab.errors import ValidationError

from conftest import (DENSITY_BELOW_EDGE, TRIGGER_EDGES, first_row, make_ball, make_slab,
                      neighbour_gaps)


ROOT = pathlib.Path(__file__).resolve().parent.parent


def codes(excinfo):
    return {v[0] for v in excinfo.value.violations}


class TestValidation:
    def test_uniform_slab_boundary_volume_is_valid(self):
        vs = validate_scenario(make_slab(rho0=0.5, v_sup=2.0))
        # the support fills v_sup: the volume validation compares is at its bound
        assert support_volume(*vs.scenario.density.support, vs.dimension) == 2.0
        assert vs.total_mass == pytest.approx(1.0)

    def test_negative_density_sample_rejected(self):
        density = TabulatedDensity(xs=(-1.0, 0.0, 1.0), values=(0.5, -0.1, 0.5))
        with pytest.raises(ValidationError) as exc:
            validate_scenario(make_slab(density=density, v_sup=2.0))
        assert "NegativeDensity" in codes(exc)

    def test_radial_dimension_one_rejected(self):
        sc = replace(make_ball(n=3), dimension=1)
        with pytest.raises(ValidationError) as exc:
            validate_scenario(sc)
        assert "BadDimension" in codes(exc)

    def test_volume_exceeding_bound_rejected(self):
        with pytest.raises(ValidationError) as exc:
            validate_scenario(make_slab(v_sup=1.0))
        assert "VolumeExceedsBound" in codes(exc)

    @pytest.mark.parametrize("n, radius", [(2, 1e200), (3, 1e300)])
    def test_support_volume_past_a_double_rejected(self, n, radius):
        # radius ** N overflows a double: the volume reads inf, past any finite v_sup
        sc = make_ball(n=n, v_sup=1.0, density=UniformDensity(0.5, 0.0, radius))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError) as exc:
                validate_scenario(sc)
        assert str(exc.value) == ("VolumeExceedsBound[v_sup]: "
                                  "initial support volume inf exceeds v_sup 1")

    def test_slab_dimension_forced_to_one(self):
        vs = validate_scenario(replace(make_slab(), dimension=3))
        assert vs.dimension == 1

    def test_marker_count_minimum(self):
        with pytest.raises(ValidationError) as exc:
            validate_scenario(make_slab(markers=1))
        assert "BadMarkerCount" in codes(exc)

    def test_idempotent(self):
        vs = validate_scenario(make_slab())
        assert validate_scenario(vs) is vs


class TestDiscretization:
    def test_mass_weights_match_quadrature_uniform(self):
        vs = validate_scenario(make_slab(rho0=0.5))
        assert vs.total_mass == pytest.approx(1.0, abs=1e-14)

    def test_mass_weights_match_quadrature_gaussian(self):
        density = GaussianDensity(1.0, 0.0, 0.5, -1.0, 1.0)
        vs = validate_scenario(make_slab(density=density, markers=400))
        # the integral of A exp(-x^2/(2 w^2)) over [-1, 1]
        amp, width = density.amplitude, density.width
        exact = amp * width * math.sqrt(2 * math.pi) * math.erf(1.0 / (width * math.sqrt(2)))
        assert vs.total_mass == pytest.approx(exact, rel=1e-5)

    def test_radial_mass_weights_match_quadrature(self):
        density = GaussianDensity(1.0, 0.0, 0.5, 0.0, 1.0)
        vs = validate_scenario(make_ball(n=3, density=density, markers=400))
        sigma = unit_sphere_area(3)
        # the integral of A exp(-r^2/(2 w^2)) sigma r^2 over [0, 1]
        amp, width = density.amplitude, density.width
        z = 1.0 / (width * math.sqrt(2))
        exact = amp * sigma * (width**3 * math.sqrt(math.pi / 2) * math.erf(z)
                               - width**2 * math.exp(-z * z))
        assert vs.total_mass == pytest.approx(exact, rel=1e-5)

    def test_uniform_ball_mass_exact(self):
        vs = validate_scenario(make_ball(n=3, rho0=0.5))
        assert vs.total_mass == pytest.approx(0.5 * ball_volume(3, 1.0), rel=1e-13)

    def test_tangential_eigenvalue_consistency(self):
        vs = validate_scenario(make_ball(n=3, velocity=HubbleVelocity(-0.7)))
        np.testing.assert_allclose(vs.initial.eig_tangential,
                                   vs.initial.velocities / vs.initial.positions, rtol=1e-12)

    def test_h0_hubble_slab(self):
        # H(0) = a0 * M for u = a0 x in 1-D
        vs = validate_scenario(make_slab(rho0=0.5, velocity=HubbleVelocity(0.3),
                                         v_sup=10.0))
        assert vs.h0 == pytest.approx(0.3 * vs.total_mass, rel=1e-13)

    def test_h0_hubble_ball(self):
        # div u = N a0, so H(0) = N a0 M
        vs = validate_scenario(make_ball(n=3, velocity=HubbleVelocity(0.3),
                                         v_sup=100.0))
        assert vs.h0 == pytest.approx(3 * 0.3 * vs.total_mass, rel=1e-13)


class TestScenarioFiles:
    def test_roundtrip_dict(self):
        sc = scenario_from_dict({
            "geometry": "slab1d",
            "lambda": 0.25,
            "v_sup": 2.0,
            "marker_count": 16,
            "t_end": 1.0,
            "initial_profile": {
                "density": {"kind": "uniform", "value": 0.5, "support": [-1, 1]},
                "velocity": {"kind": "hubble", "rate": -1.0},
            },
            "tolerances": {"rel_tol": 1e-8},
        })
        vs = validate_scenario(sc)
        assert vs.lam == 0.25
        assert vs.scenario.settings.rel_tol == 1e-8

    def test_load_example_scenarios(self, tmp_path):
        import pathlib
        root = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
        for name in ("uniform_collapse_1d.yaml", "equilibrium_slab.yaml",
                     "uniform_ball_n3.yaml", "hubble_escape_1d.yaml"):
            validate_scenario(load_scenario(root / name))

    def test_readme_example_loads(self):
        """The scenario document README.md shows under "Scenario files"
        loads and validates, and so does each profile its comments offer in
        place of the one it uses: the loader reads every key it shows."""
        readme = (ROOT / "README.md").read_text()
        example = readme.split("## Scenario files\n\n```yaml\n")[1].split("```")[0]
        doc = yaml.safe_load(example)
        validate_scenario(scenario_from_dict(doc))
        offered = dict(zip(("density", "velocity"), example.split("\n  velocity:")))
        kinds = set()
        for name, text in offered.items():
            for profile in re.findall(r"\{kind: [^}]*\}", text):
                alternative = copy.deepcopy(doc)
                alternative["initial_profile"][name] = yaml.safe_load(profile)
                validate_scenario(scenario_from_dict(alternative))
                kinds.add((name, alternative["initial_profile"][name]["kind"]))
        assert len(kinds) == 7  # every kind of both profiles

    def test_unknown_profile_kind(self):
        with pytest.raises(ValidationError):
            scenario_from_dict({
                "geometry": "slab1d", "v_sup": 1.0, "marker_count": 4,
                "t_end": 1.0,
                "initial_profile": {"density": {"kind": "blob"},
                                    "velocity": {"kind": "zero"}},
            })

    def test_tabulated_velocity_gradient(self):
        vel = TabulatedVelocity(xs=(-1.0, 0.0, 1.0), values=(1.0, 0.0, 2.0))
        np.testing.assert_allclose(vel.gradient([-0.5, 0.5]), [-1.0, 2.0])


def slab_doc(**overrides):
    doc = {
        "geometry": "slab1d", "lambda": 0.0, "v_sup": 2.0, "marker_count": 16,
        "t_end": 1.0,
        "initial_profile": {
            "density": {"kind": "uniform", "value": 0.5, "support": [-1.0, 1.0]},
            "velocity": {"kind": "zero"},
        },
    }
    doc.update(overrides)
    return doc


def with_density(density, **overrides):
    doc = slab_doc(**overrides)
    doc["initial_profile"]["density"] = density
    return doc


def rejected_fields(doc):
    """The fields a ValidationError names for a scenario document."""
    with pytest.raises(ValidationError) as exc:
        validate_scenario(scenario_from_dict(doc))
    return {v[1] for v in exc.value.violations}


class TestInputHardening:
    @pytest.mark.parametrize("key,value", [
        ("v_sup", float("nan")), ("v_sup", float("inf")),
        ("t_end", float("nan")), ("t_end", float("inf")),
        ("lambda", float("nan")), ("lambda", float("-inf")),
    ])
    def test_non_finite_scalar_rejected(self, key, value):
        assert key in rejected_fields(slab_doc(**{key: value}))

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_non_finite_hubble_rate_rejected(self, rate):
        doc = slab_doc(v_sup=100.0)
        doc["initial_profile"]["velocity"] = {"kind": "hubble", "rate": rate}
        assert "velocity" in rejected_fields(doc)

    @pytest.mark.parametrize("name", ["rel_tol", "abs_tol", "max_step",
                                      "div_blowup_threshold", "rho_blowup_threshold",
                                      "crossing_gap_threshold", "max_steps"])
    def test_non_finite_tolerance_rejected(self, name):
        assert name in rejected_fields(slab_doc(tolerances={name: float("nan")}))

    def test_fractional_marker_count_rejected(self):
        assert "marker_count" in rejected_fields(slab_doc(marker_count=2.7))

    def test_dimension_limit_is_accepted(self):
        doc = slab_doc(geometry="radialnd", dimension=MAX_DIMENSION)
        doc["initial_profile"]["density"]["support"] = [0.0, 1.0]
        vs = validate_scenario(scenario_from_dict(doc))
        assert vs.dimension == MAX_DIMENSION
        assert "dimension" in rejected_fields(dict(doc, dimension=MAX_DIMENSION + 1))

    def test_whole_float_marker_count_accepted(self):
        vs = validate_scenario(scenario_from_dict(slab_doc(marker_count=16.0)))
        assert vs.scenario.marker_count == 16 and vs.initial.masses.size == 16

    @pytest.mark.parametrize("tolerances,profile,field", [
        ({"crossing_gap_threshold": 0.5}, None, "marker_count"),
        ({"div_blowup_threshold": 1.0}, {"kind": "hubble", "rate": -2.0}, "velocity"),
        ({"rho_blowup_threshold": 0.1}, None, "density"),
    ])
    def test_trigger_holding_at_start_rejected(self, tolerances, profile, field):
        doc = slab_doc(tolerances=tolerances)
        if profile is not None:
            doc["initial_profile"]["velocity"] = profile
        with pytest.raises(ValidationError) as exc:
            validate_scenario(scenario_from_dict(doc))
        assert ("TriggerAtStart", field) in {v[:2] for v in exc.value.violations}

    def test_origin_gap_counts_at_start(self):
        # 8 shells: origin gap 0.0992, smallest gap between shells 0.107
        sc = make_ball(n=3, markers=8,
                       settings=NumericalSettings(crossing_gap_threshold=0.103))
        with pytest.raises(ValidationError) as exc:
            validate_scenario(sc)
        assert ("TriggerAtStart", "marker_count") in {v[:2] for v in exc.value.violations}

    @pytest.mark.parametrize("width", [0.0, -0.5, float("nan"), float("inf")])
    def test_bad_gaussian_width_rejected_without_warning(self, width):
        doc = slab_doc()
        doc["initial_profile"]["density"] = {"kind": "gaussian", "amplitude": 1.0,
                                             "width": width, "support": [-1.0, 1.0]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rejected_fields(doc) == {"density.width"}

    @pytest.mark.parametrize("density", [
        {"kind": "uniform", "value": 0.5, "support": [float("nan"), 1.0]},
        {"kind": "uniform", "value": 0.5, "support": [-1.0, float("inf")]},
        {"kind": "table", "x": [-1.0, float("inf")], "values": [0.5, 0.5]},
    ], ids=["nan-support", "inf-support", "inf-table-x"])
    def test_non_finite_support_rejected_without_warning(self, density):
        doc = slab_doc()
        doc["initial_profile"]["density"] = density
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError) as exc:
                validate_scenario(scenario_from_dict(doc))
        assert [v[:2] for v in exc.value.violations] == [("NotFinite", "density")]

    @pytest.mark.parametrize("profile", ["density", "velocity"])
    @pytest.mark.parametrize("x", [[1.0, -1.0, 0.0], [-1.0, -1.0, 1.0], [0.0]],
                             ids=["unsorted", "repeated", "single"])
    def test_table_x_must_be_strictly_increasing(self, profile, x):
        doc = slab_doc()
        doc["initial_profile"][profile] = {"kind": "table", "x": x,
                                           "values": [0.5] * len(x)}
        assert rejected_fields(doc) == {f"{profile}.x"}

    @pytest.mark.parametrize("profile", ["density", "velocity"])
    def test_table_needs_one_value_per_x(self, profile):
        doc = slab_doc()
        doc["initial_profile"][profile] = {"kind": "table", "x": [-1.0, 0.0, 1.0],
                                           "values": [0.5, 0.5]}
        assert rejected_fields(doc) == {f"{profile}.values"}

    def test_table_profiles_load_from_yaml_and_run(self, tmp_path):
        from dustlab import simulate
        path = tmp_path / "table.yaml"
        path.write_text(
            "geometry: slab1d\n"
            "v_sup: 2.0\n"
            "marker_count: 16\n"
            "t_end: 0.5\n"
            "initial_profile:\n"
            "  density: {kind: table, x: [-1.0, 0.0, 1.0], values: [0.4, 0.6, 0.4]}\n"
            "  velocity: {kind: table, x: [-1.0, 1.0], values: [0.2, -0.2]}\n")
        sc = load_scenario(path)
        assert isinstance(sc.density, TabulatedDensity)
        assert isinstance(sc.velocity, TabulatedVelocity)
        traj = simulate(sc)
        assert traj.event is None
        assert traj.validated.total_mass == pytest.approx(1.0, rel=1e-2)
        np.testing.assert_allclose(traj.validated.initial.eig_radial, -0.2)


def uniform(lo, hi):
    return {"kind": "uniform", "value": 0.5, "support": [lo, hi]}


class TestRejectedInputs:
    @pytest.mark.parametrize("doc,code,field", [
        (slab_doc(v_sup=0), "BadVolumeBound", "v_sup"),
        (slab_doc(t_end=-1), "BadHorizon", "t_end"),
        (slab_doc(tolerances={"rel_tol": 0}), "BadSettings", "rel_tol"),
        (slab_doc(tolerances={"max_steps": 0}), "BadSettings", "max_steps"),
        (with_density(uniform(-0.5, 1.0), geometry="radialnd", dimension=3, v_sup=100.0),
         "BadSupport", "density"),
        (with_density(uniform(1.0, 1.0)), "BadSupport", "density"),
        # positive on the last of 4 markers only (x = 0.75)
        (with_density({"kind": "table", "x": [-1.0, 0.5, 1.0], "values": [0.0, 0.0, 1.0]},
                      marker_count=4), "NegativeDensity", "density"),
        # a positive mass at a subnormal density, whose v0 = 1/rho0 in the
        # slab's chart overflows; and a normal one whose q0 = u_x v0 does
        (with_density({"kind": "uniform", "value": 1e-310, "support": [-1.0, 1.0]}),
         "NotFinite", "density"),
        (slab_doc(tolerances={"div_blowup_threshold": 1e9}, initial_profile={
            "density": {"kind": "uniform", "value": 1e-305, "support": [-1.0, 1.0]},
            "velocity": {"kind": "hubble", "rate": -1e7}}), "NotFinite", "density"),
        # a boolean or a string where a number is read, named by its path
        (with_density({"kind": "gaussian", "amplitude": "1", "width": 0.5,
                       "support": [-1.0, 1.0]}),
         "NotANumber", "initial_profile.density.amplitude"),
        (with_density({"kind": "table", "x": [-1.0, 1.0], "values": [0.5, False]}),
         "NotANumber", "initial_profile.density.values"),
        # a key the loader does not read, named by its path
        (slab_doc(lamda=0.7), "UnknownKey", "lamda"),
        (slab_doc(tolerances={"reltol": 1e-8}), "UnknownKey", "tolerances.reltol"),
        (with_density({"kind": "gaussian", "amplitude": 1.0, "centre": 0.4, "width": 0.5,
                       "support": [-1.0, 1.0]}), "UnknownKey", "initial_profile.density.centre"),
        (slab_doc(initial_profile={"density": uniform(-1.0, 1.0), "velocity": {"kind": "zero"},
                                   "velocities": {"kind": "zero"}}),
         "UnknownKey", "initial_profile.velocities"),
        (slab_doc(initial_profile={"density": uniform(-1.0, 1.0),
                                   "velocity": {"kind": "zero", "rate": -1.0}}),
         "UnknownKey", "initial_profile.velocity.rate"),
        # a value not of the shape read there, named by its path
        (with_density({"kind": "uniform", "value": 0.5, "support": [-1.0, 0.0, 1.0]}),
         "BadProfile", "initial_profile.density.support"),
        (with_density({"kind": "table", "x": 1.0, "values": [0.5]}),
         "BadProfile", "initial_profile.density.x"),
        (slab_doc(initial_profile="x"), "NotAMapping", "initial_profile"),
        (slab_doc(tolerances=[]), "NotAMapping", "tolerances"),
    ], ids=["v_sup-zero", "t_end-negative", "rel_tol-zero", "max_steps-zero",
            "radial-lo-negative", "empty-support", "one-positive-marker",
            "slab-subnormal-density", "slab-chart-rate-overflows", "gaussian-amplitude-string",
            "table-value-false", "lamda", "reltol", "centre", "velocities", "rate-of-zero",
            "support-of-three", "table-x-number", "initial-profile-string", "tolerances-list"])
    def test_rejected_naming_code_and_field(self, doc, code, field):
        with pytest.raises(ValidationError) as exc:
            validate_scenario(scenario_from_dict(doc))
        assert [v[:2] for v in exc.value.violations] == [(code, field)]
        assert f"{code}[{field}]" in str(exc.value)

    @pytest.mark.parametrize("changes, fields", [
        ({"lam": True, "settings": NumericalSettings(rel_tol=True)}, ["lambda", "rel_tol"]),
        ({"v_sup": True}, ["v_sup"]),
        ({"t_end": False}, ["t_end"]),
        ({"settings": NumericalSettings(max_step=True)}, ["max_step"]),
        ({"marker_count": True}, ["marker_count"]),
        ({"density": UniformDensity(0.5, -1.0, True)}, ["density"]),
    ], ids=["lambda-and-rel_tol", "v_sup", "t_end", "max_step", "marker_count", "support"])
    def test_library_boolean_for_a_number_names_the_field(self, changes, fields):
        """A library-made scenario is checked as a loaded one: a boolean is
        not a number, though Python counts it as one."""
        sc = replace(scenario_from_dict(slab_doc()), **changes)
        with pytest.raises(ValidationError) as exc:
            validate_scenario(sc)
        assert [v[1] for v in exc.value.violations] == fields

    def test_missing_v_sup_key(self):
        doc = slab_doc()
        del doc["v_sup"]
        with pytest.raises(ValidationError, match=r"^MissingKey\[v_sup\]: required key is missing$"):
            scenario_from_dict(doc)

    def test_missing_nested_key_names_its_path(self):
        doc = slab_doc()
        del doc["initial_profile"]["density"]["value"]
        with pytest.raises(ValidationError,
                           match=r"^MissingKey\[initial_profile\.density\.value\]"):
            scenario_from_dict(doc)

    def test_unknown_velocity_kind(self):
        doc = slab_doc()
        doc["initial_profile"]["velocity"] = {"kind": "swirl"}
        with pytest.raises(ValidationError,
                           match=r"BadProfile\[velocity\]: unknown velocity kind 'swirl'"):
            scenario_from_dict(doc)

    def test_top_level_list(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- geometry: slab1d\n- v_sup: 2.0\n")
        with pytest.raises(ValidationError,
                           match=r"BadScenarioFile\[scenario\]: expected a mapping at top level"):
            load_scenario(path)

    def test_uniform_velocity_loads(self):
        doc = slab_doc()
        doc["initial_profile"]["velocity"] = {"kind": "uniform", "value": 0.3}
        assert scenario_from_dict(doc).velocity == UniformVelocity(0.3)



def random_doc(rng, geometry):
    """A seeded slab or shell document: a uniform or tabulated density of
    0.01 to 1000 and a Hubble or tabulated velocity, on 2 to 64 markers."""
    shells = geometry == "radialnd"
    lo, hi = 0.0 if shells else -float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.1, 3.0))
    xs = np.linspace(lo, hi, 5).tolist()
    if rng.random() < 0.5:
        density = {"kind": "uniform", "value": float(10 ** rng.uniform(-2, 3)),
                   "support": [lo, hi]}
    else:
        density = {"kind": "table", "x": xs, "values": (10 ** rng.uniform(-2, 3, 5)).tolist()}
    if rng.random() < 0.5:
        velocity = {"kind": "hubble", "rate": float(rng.normal() * 10 ** rng.uniform(-2, 2))}
    else:
        velocity = {"kind": "table", "x": xs, "values": rng.normal(size=5).tolist()}
    return {"geometry": geometry, "dimension": int(rng.integers(2, 6)) if shells else 1,
            "lambda": 0.0, "v_sup": 1e300, "marker_count": int(rng.integers(2, 65)),
            "t_end": 1.0, "initial_profile": {"density": density, "velocity": velocity}}


class TestTriggersAtTheFirstRow:
    """Validation checks each trigger on vs.initial, the unpack of the
    solver vector the run's first row reads (a slab's rho and u_x back from
    its chart v0 = 1/rho, q0 = u_x v0), so it rejects an input exactly when
    that row holds a trigger."""

    @pytest.mark.parametrize("field", sorted(TRIGGER_EDGES))
    def test_threshold_at_the_profile_value_rejected(self, field):
        doc = copy.deepcopy(TRIGGER_EDGES[field])
        rule = next(rule for rule in TRIGGERS.values() if rule.field == field)
        threshold = doc["tolerances"][rule.threshold]
        # the document's rho or |u_x| is the threshold; vs.initial and the
        # first row read the chart's value, one ulp above it
        vs = validate_scenario(scenario_from_dict(dict(doc, tolerances={})))
        state = vs.initial.densities if field == "density" else np.abs(vs.initial.div_u())
        assert threshold < state.max() == getattr(first_row(vs), rule.column)
        with pytest.raises(ValidationError) as exc:
            validate_scenario(scenario_from_dict(doc))
        assert [v[:2] for v in exc.value.violations] == [("TriggerAtStart", field)]

    def test_threshold_below_the_profile_value_accepted_and_runs(self):
        sc = scenario_from_dict(copy.deepcopy(DENSITY_BELOW_EDGE))
        threshold = sc.settings.rho_blowup_threshold
        assert sc.density.value > threshold
        traj = simulate(sc)
        assert traj.columns.max_density[0] == threshold
        assert traj.event.trigger is Trigger.DENSITY_THRESHOLD

    @pytest.mark.parametrize("geometry", ["slab1d", "radialnd"])
    def test_rejected_exactly_when_the_first_row_holds_a_trigger(self, geometry):
        """vs.initial's extreme of each quantity is the first row's; each
        threshold at it and one ulp to either side, on seeded inputs."""
        rng = np.random.default_rng(20261020)
        for _ in range(25):
            vs = validate_scenario(scenario_from_dict(random_doc(rng, geometry)))
            init, row = vs.initial, first_row(vs)
            extremes = {"min_gap": neighbour_gaps(init.positions, init.dimension).min(),
                        "max_abs_div": np.abs(init.div_u()).max(),
                        "max_density": init.densities.max()}
            for rule in TRIGGERS.values():
                edge = getattr(row, rule.column)
                assert extremes[rule.column] == edge, (geometry, rule.column)
                for threshold in (edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)):
                    if not threshold > 0:  # a zero |div u|
                        continue
                    settings = replace(vs.scenario.settings,
                                       **{rule.threshold: float(threshold)})
                    held = [("TriggerAtStart", TRIGGERS[t].field) for t in _held(row, settings)]
                    try:
                        validate_scenario(replace(vs.scenario, settings=settings))
                        rejected = []
                    except ValidationError as exc:
                        rejected = [v[:2] for v in exc.violations]
                    assert rejected == held, (geometry, rule.column, threshold, edge)

import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from dustlab.core import (MAX_DIMENSION, GaussianDensity, Geometry,
                          HubbleVelocity, NumericalSettings, Scenario,
                          TabulatedDensity, TabulatedVelocity, UniformDensity,
                          UniformVelocity, ball_volume, load_scenario, scenario_from_dict,
                          unit_sphere_area, validate_scenario)
from dustlab.errors import ValidationError

from conftest import make_ball, make_slab


def codes(excinfo):
    return {v[0] for v in excinfo.value.violations}


class TestValidation:
    def test_uniform_slab_boundary_volume_is_valid(self):
        vs = validate_scenario(make_slab(rho0=0.5, v_sup=2.0))
        assert vs.initial_volume == pytest.approx(2.0)
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
        exact, _ = quad(lambda x: density(x), -1.0, 1.0)
        assert vs.total_mass == pytest.approx(exact, rel=1e-5)

    def test_radial_mass_weights_match_quadrature(self):
        density = GaussianDensity(1.0, 0.0, 0.5, 0.0, 1.0)
        vs = validate_scenario(make_ball(n=3, density=density, markers=400))
        sigma = unit_sphere_area(3)
        exact, _ = quad(lambda r: density(r) * sigma * r**2, 0.0, 1.0)
        assert vs.total_mass == pytest.approx(exact, rel=1e-4)

    def test_uniform_ball_mass_exact(self):
        vs = validate_scenario(make_ball(n=3, rho0=0.5))
        assert vs.total_mass == pytest.approx(0.5 * ball_volume(3, 1.0), rel=1e-13)

    def test_tangential_eigenvalue_consistency(self):
        vs = validate_scenario(make_ball(n=3, velocity=HubbleVelocity(-0.7)))
        np.testing.assert_allclose(vs.eig_tangential,
                                   vs.velocities / vs.positions, rtol=1e-12)

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
        assert vs.scenario.marker_count == 16 and vs.masses.size == 16

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
        np.testing.assert_allclose(traj.validated.eig_radial, -0.2)


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
    ], ids=["v_sup-zero", "t_end-negative", "rel_tol-zero", "max_steps-zero",
            "radial-lo-negative", "empty-support", "one-positive-marker"])
    def test_rejected_naming_code_and_field(self, doc, code, field):
        with pytest.raises(ValidationError) as exc:
            validate_scenario(scenario_from_dict(doc))
        assert [v[:2] for v in exc.value.violations] == [(code, field)]
        assert f"{code}[{field}]" in str(exc.value)

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


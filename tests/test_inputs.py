"""Any scenario document ends cleanly: it is rejected with a ValidationError,
or it runs to a finite, classified outcome with the exit code simulate and
verify give it (0 done, 2 support escaped, 3 numeric failure or a failed
proof chain). No other exception, no RuntimeWarning and no exit 4."""

import copy
import math
import warnings

import numpy as np
from hypothesis import example, given, settings as hyp_settings
from hypothesis import strategies as st

from dustlab import simulate
from dustlab.cli import _ESCAPE_EXIT, EXIT_NUMERIC, EXIT_OK
from dustlab.core import scenario_from_dict, validate_scenario
from dustlab.detector import escape_report
from dustlab.errors import NumericFailure, ValidationError
from dustlab.functional import diagnostics_rows, proof_chain_report
from dustlab.riccati import check_blowup_conditions

from conftest import TRIGGER_EDGES

# the slab whose proof chain overflowed a double: density 1e150 on [-1, 1]
DENSE_SLAB = {
    "geometry": "slab1d", "dimension": 1, "lambda": 0.0, "v_sup": 2.0,
    "marker_count": 64, "t_end": 5.0,
    "initial_profile": {"density": {"kind": "uniform", "value": 1.0e150,
                                    "support": [-1.0, 1.0]},
                        "velocity": {"kind": "zero"}},
    "tolerances": {"rho_blowup_threshold": 1.0e305},
}

WRONG = st.sampled_from([None, "x", "", [], [1.0], [-1.0, 0.0, 1.0], {}, {"kind": "uniform"},
                         True, -1, 0, 0.5, float("nan"), float("inf"), -float("inf"), 10**400])

# paths into a document, each a list of keys
PATHS = [["geometry"], ["dimension"], ["lambda"], ["v_sup"], ["marker_count"], ["t_end"],
         ["tolerances"], ["tolerances", "rel_tol"], ["tolerances", "max_steps"],
         ["tolerances", "max_step"], ["tolerances", "crossing_gap_threshold"],
         ["initial_profile"], ["initial_profile", "density"],
         ["initial_profile", "density", "kind"], ["initial_profile", "density", "value"],
         ["initial_profile", "density", "support"], ["initial_profile", "velocity"],
         ["initial_profile", "velocity", "kind"], ["initial_profile", "velocity", "rate"]]


@st.composite
def documents(draw):
    radial = draw(st.booleans())
    extent = draw(st.sampled_from([1.0, 1.0, 1.0e3, 1.0e10, 1.0e308]))
    density = 10.0 ** draw(st.integers(-3, 300))
    doc = {
        "geometry": "radialnd" if radial else "slab1d",
        "dimension": draw(st.sampled_from([2, 3, 5, 100])) if radial else 1,
        "lambda": draw(st.sampled_from([0.0, 0.3, -1.0])),
        "v_sup": draw(st.sampled_from([2.0, 1.0e3, 1.0e300])),
        "marker_count": draw(st.integers(2, 12)),
        "t_end": draw(st.sampled_from([0.05, 0.5])),
        "initial_profile": {
            "density": {"kind": "uniform", "value": density,
                        "support": [0.0 if radial else -extent, extent]},
            "velocity": draw(st.sampled_from([{"kind": "zero"},
                                              {"kind": "hubble", "rate": -1.0},
                                              {"kind": "hubble", "rate": 1.0e6}])),
        },
        # raised thresholds, up to past what a density times |div u| can reach
        "tolerances": {"rho_blowup_threshold": 10.0 ** draw(st.integers(12, 308)),
                       "div_blowup_threshold": 10.0 ** draw(st.integers(8, 200))},
    }
    # at times the density itself, a boundary that powers of ten never reach
    if draw(st.booleans()):
        doc["tolerances"]["rho_blowup_threshold"] = density
    # extreme counts and dimensions, most of them rejected
    if draw(st.booleans()):
        doc["marker_count"] = draw(st.sampled_from([0, 1, -3, 2.5, 1_000_001, 2**60, 10**400]))
    if draw(st.booleans()):
        doc["dimension"] = draw(st.sampled_from([0, 1, 101, 400, 1.0e300, 2.0]))
    # a wrong type somewhere in the tree
    if draw(st.booleans()):
        *parents, key = draw(st.sampled_from(PATHS))
        node = doc
        for parent in parents:
            node = node.get(parent) if isinstance(node, dict) else None
        if isinstance(node, dict):
            node[key] = draw(WRONG)
    return doc


def exit_codes(doc):
    """The exit codes of simulate and verify on doc, run in-process; None
    when the document is rejected."""
    try:
        vs = validate_scenario(scenario_from_dict(copy.deepcopy(doc)))
    except ValidationError:
        return None
    try:
        traj = simulate(vs)
        diagnostics_rows(traj)
        report = proof_chain_report(traj)
    except NumericFailure:
        return EXIT_NUMERIC, EXIT_NUMERIC
    for column in traj.columns:
        assert np.all(np.isfinite(column)), doc
    if traj.event is not None:
        assert math.isfinite(traj.event.t_hi)
    cert = check_blowup_conditions(vs.total_mass, vs.v_sup, vs.lam, vs.dimension, vs.h0)
    escape = escape_report(traj, vs.v_sup, cert).status
    return _ESCAPE_EXIT[escape], EXIT_OK if report.holds else EXIT_NUMERIC


@hyp_settings(max_examples=40, deadline=None, derandomize=True)
@given(documents())
@example(DENSE_SLAB)
@example(TRIGGER_EDGES["density"])
def test_any_document_ends_cleanly(doc):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        codes = exit_codes(doc)
    assert codes is None or set(codes) <= {0, 2, 3}, (doc, codes)

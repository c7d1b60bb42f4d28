"""Lagrangian simulation and analytic blowup certification for
pressureless self-gravitating dust with a background constant."""

import numpy as np

from . import _integrate, geometry1d, radial
from .core import (FieldState, Geometry, NumericalSettings, Scenario,
                   Trajectory, ValidatedScenario, load_scenario, validate_scenario)
from .errors import NumericOverflow

__version__ = "0.1.0"


def _model_rhs(vs):
    """The characteristic system of the scenario's geometry on its solver vector."""
    return (geometry1d if vs.dimension == 1 else radial).model_rhs(vs)


def _guarded(integrate, scenario, *args) -> Trajectory:
    """integrate(vs, rhs, *args) on the validated scenario; a value that
    overflows, divides by zero or turns NaN in it raises NumericOverflow."""
    vs = validate_scenario(scenario)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return integrate(vs, _model_rhs(vs), *args)
    except (FloatingPointError, OverflowError) as exc:
        raise NumericOverflow(f"the run left the range of a double: {exc}") from exc


def simulate(scenario, keep_states: bool = False) -> Trajectory:
    """Integrate a scenario in its own geometry to t_end or the first event:
    per-step columns for every accepted step, full marker states for the
    first and last (every one with keep_states=True). A value that
    overflows, divides by zero or turns NaN raises NumericOverflow."""
    return _guarded(_integrate.run_characteristics, scenario, keep_states)


def sample(scenario, times) -> Trajectory:
    """States at the requested times, each stepped from the one before,
    every one kept; no event scan, so the times must stay inside the smooth
    interval. A run that leaves the range of a double raises NumericOverflow,
    as simulate does."""
    return _guarded(_integrate.sample_states, scenario, times)

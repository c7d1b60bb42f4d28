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


def simulate(scenario, keep_states: bool = False) -> Trajectory:
    """Integrate a scenario in its own geometry to t_end or the first event.

    The trajectory holds per-step columns for every accepted step; full
    marker states only for the first and last step, or for every step with
    keep_states=True. A value that overflows, divides by zero or turns NaN
    anywhere in the run raises NumericOverflow.
    """
    vs = validate_scenario(scenario)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return _integrate.run_characteristics(vs, _model_rhs(vs), keep_states=keep_states)
    except (FloatingPointError, OverflowError) as exc:
        raise NumericOverflow(f"the run left the range of a double: {exc}") from exc


def sample(scenario, times) -> Trajectory:
    """States at the requested times, each stepped from the one before,
    every one kept; no event scan, so the times must stay inside the smooth
    interval."""
    vs = validate_scenario(scenario)
    return _integrate.sample_states(vs, _model_rhs(vs), times)

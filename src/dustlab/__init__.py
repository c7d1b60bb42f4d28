"""Lagrangian simulation and analytic blowup certification for
pressureless self-gravitating dust with a background constant."""

from .core import (Geometry, LagrangianMarker, NumericalSettings, Scenario,
                   Trajectory, ValidatedScenario, initial_vorticity_satisfied,
                   load_scenario, validate_scenario)
from .geometry1d import integrate_slab
from .radial import integrate_radial

__version__ = "0.1.0"


def simulate(scenario, keep_states: bool = False) -> Trajectory:
    """Integrate a validated scenario in its own geometry.

    The trajectory holds per-step columns for every accepted step; full
    marker states only for the first and last step, or for every step with
    keep_states=True.
    """
    vs = validate_scenario(scenario)
    if vs.geometry is Geometry.SLAB1D:
        return integrate_slab(vs, keep_states=keep_states)
    return integrate_radial(vs, keep_states=keep_states)

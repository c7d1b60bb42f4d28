"""The one stepping loop of ``_integrate`` against scipy's ``solve_ivp``,
compared with ``==``, and the step limit it owns.

``dustlab.sample`` must equal ``solve_ivp(..., t_eval=times)`` and the
bracket's re-integration must equal ``solve_ivp(...).y[:, -1]``, bit for bit:
a last-bit change moves event brackets and marker indices. A stepper of
dustlab's own is to be held to the same reference.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from dustlab import _integrate, _model_rhs, sample, simulate
from dustlab.core import HubbleVelocity, NumericalSettings, validate_scenario
from dustlab.errors import MaxStepsExceeded

from conftest import make_ball, make_slab

CRITERION_4_GRIDS = (np.arange(0.2, 1.0001, 0.05), np.arange(0.2, 1.0001, 0.025))


def model(sc):
    vs = validate_scenario(sc)
    return vs, _model_rhs(vs)


def reference(vs, rhs, t0, y0, t1, **kwargs):
    s = vs.settings
    return solve_ivp(rhs, (t0, t1), y0, method="RK45", rtol=s.rel_tol,
                     atol=s.abs_tol, max_step=s.max_step, **kwargs)


def solver_vector(state):
    fields = [state.positions, state.velocities, state.densities, state.eig_radial]
    if state.eig_tangential is not None:
        fields.append(state.eig_tangential)
    return np.concatenate(fields)


@pytest.mark.parametrize("sc, times", [
    (make_slab(rho0=0.5, t_end=1.0), CRITERION_4_GRIDS[0]),
    (make_slab(rho0=0.5, t_end=1.0), CRITERION_4_GRIDS[1]),
    (make_ball(n=3, rho0=0.5, velocity=HubbleVelocity(-0.3)), np.linspace(0.0, 1.5, 13)),
    # several times per step, interpolated in one call
    (make_ball(n=3, rho0=0.5, velocity=HubbleVelocity(-0.3)), np.linspace(0.0, 0.2, 201)),
], ids=["slab-coarse", "slab-fine", "ball", "ball-dense"])
def test_sample_equals_solve_ivp_t_eval(sc, times):
    vs, rhs = model(sc)
    y0, _, _ = _integrate.layout(vs)
    ref = reference(vs, rhs, 0.0, y0, float(times[-1]), t_eval=times)
    traj = sample(sc, times)
    assert traj.times.tolist() == ref.t.tolist()
    for k, state in enumerate(traj.states):
        assert solver_vector(state).tobytes() == ref.y[:, k].tobytes()


@pytest.mark.parametrize("times", [[0.3, 0.1], [0.1, 0.1], [-0.1, 0.2], []])
def test_sample_rejects_times_out_of_order(times):
    with pytest.raises(ValueError):
        sample(make_slab(rho0=0.5, t_end=1.0), times)


@pytest.mark.parametrize("sc", [
    make_slab(rho0=0.5, lam=0.2, velocity=HubbleVelocity(-0.4), t_end=1.5),
    make_ball(n=3, rho0=0.8, velocity=HubbleVelocity(-0.5), t_end=1.5),
], ids=["slab", "ball"])
def test_reintegration_equals_solve_ivp(sc):
    vs, rhs = model(sc)
    y0, _, _ = _integrate.layout(vs)
    rng = np.random.default_rng(20261018)
    for _ in range(10):
        t0 = float(rng.uniform(0.0, 1.0))
        t1 = t0 + float(10.0 ** rng.uniform(-9.0, -1.0))
        y = reference(vs, rhs, 0.0, y0, t0).y[:, -1]
        got = _integrate.reintegrate(rhs, vs.settings, t0, y, t1)
        assert got.tobytes() == reference(vs, rhs, t0, y, t1).y[:, -1].tobytes()


class TestStepLimit:
    @staticmethod
    def limited(max_steps):
        return make_slab(rho0=0.5, t_end=1.0,
                         settings=NumericalSettings(max_steps=max_steps))

    def test_simulate_raises(self):
        with pytest.raises(MaxStepsExceeded, match="exceeded 5 accepted steps"):
            simulate(self.limited(5))

    def test_sample_raises(self):
        with pytest.raises(MaxStepsExceeded, match="exceeded 5 accepted steps"):
            sample(self.limited(5), [0.5, 1.0])

    def test_limit_counts_accepted_steps(self):
        # a run that needs exactly max_steps steps finishes
        steps = len(simulate(self.limited(500))) - 1
        assert len(simulate(self.limited(steps))) == steps + 1
        with pytest.raises(MaxStepsExceeded):
            simulate(self.limited(steps - 1))

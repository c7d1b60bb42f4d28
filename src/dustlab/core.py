"""Domain types, initial-data profiles, and scenario validation.

A scenario describes pressureless self-gravitating dust in a 1-D slab or a
radially symmetric ball: geometry, dimension N, background constant lambda,
the assumed volume bound v_sup, and the initial density/velocity profiles.
Validation discretizes the initial data into Lagrangian markers whose fixed
mass weights are midpoint quadratures of the density over each marker's
initial cell, so the total mass is conserved by construction.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, NamedTuple, Optional

import numpy as np
import yaml

from .errors import ValidationError


class Geometry(Enum):
    SLAB1D = "slab1d"
    RADIALND = "radialnd"


def unit_sphere_area(n: int) -> float:
    """Surface measure of the unit (n-1)-sphere, sigma = 2 pi^(n/2) / Gamma(n/2)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def ball_volume(n: int, radius: float) -> float:
    return unit_sphere_area(n) * radius**n / n


def support_volume(lo, hi, dimension: int):
    """Volume of the support [lo, hi]: its length for the slab (dimension 1),
    the ball of radius hi for shells (N >= 2)."""
    if dimension == 1:
        return hi - lo
    return ball_volume(dimension, hi)


def divergence(eig_radial, eig_tangential, dimension: int):
    """div u per marker from the velocity-gradient eigenvalues: u_x for the
    slab, du/dr + (N-1) u/r for shells."""
    if dimension == 1:
        return eig_radial
    return eig_radial + (dimension - 1) * eig_tangential


_ORIGIN = np.zeros(1)


def neighbour_gaps(positions, dimension: int):
    """Gaps between neighbouring markers; shells include the gap to the
    origin. A swap shows up as a negative gap."""
    if dimension > 1:
        positions = np.concatenate((_ORIGIN, positions))
    return positions[1:] - positions[:-1]  # np.diff's arithmetic without its call overhead


# ---------------------------------------------------------------------------
# Initial profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniformDensity:
    value: float
    lo: float
    hi: float

    @property
    def support(self):
        return (self.lo, self.hi)

    def __call__(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.value)


@dataclass(frozen=True)
class GaussianDensity:
    """Gaussian bump truncated to [lo, hi] (density is zero outside)."""

    amplitude: float
    center: float
    width: float
    lo: float
    hi: float

    @property
    def support(self):
        return (self.lo, self.hi)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return self.amplitude * np.exp(-0.5 * ((x - self.center) / self.width) ** 2)


@dataclass(frozen=True)
class TabulatedDensity:
    """Sampled density, linearly interpolated; support is the sample range."""

    xs: tuple
    values: tuple

    @property
    def support(self):
        return (self.xs[0], self.xs[-1])

    def __call__(self, x):
        return np.interp(np.asarray(x, dtype=float), self.xs, self.values)


@dataclass(frozen=True)
class UniformVelocity:
    value: float

    def __call__(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.value)

    def gradient(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class HubbleVelocity:
    """u = rate * x (slab) or rate * r (radial)."""

    rate: float

    def __call__(self, x):
        return self.rate * np.asarray(x, dtype=float)

    def gradient(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.rate)


@dataclass(frozen=True)
class TabulatedVelocity:
    xs: tuple
    values: tuple

    def __call__(self, x):
        return np.interp(np.asarray(x, dtype=float), self.xs, self.values)

    def gradient(self, x):
        xs = np.asarray(self.xs)
        vs = np.asarray(self.values)
        slopes = np.diff(vs) / np.diff(xs)
        idx = np.clip(np.searchsorted(xs, np.asarray(x, dtype=float), side="right") - 1,
                      0, len(slopes) - 1)
        return slopes[idx]


# ---------------------------------------------------------------------------
# Settings and marker/state types
# ---------------------------------------------------------------------------


# Upper limits of the discretization. sigma = 2 pi^(N/2)/Gamma(N/2) overflows
# past N = 343 (Gamma(172) > 1e308). Validation samples the density at
# 4 marker_count + 1 points. A run's traced peak is about 17 solver vectors
# of 4 (slab) or 5 (shell) doubles per marker, the stepper's stage block 7 of
# them: about 520 MB (slab) or 670 MB (shells) at the limit.
MAX_DIMENSION = 100
MAX_MARKERS = 1_000_000


def _finite(value) -> bool:
    # compared, not converted: an integer too large for a double is not finite
    return isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max


def _float(value) -> float:
    """float(value), except that an integer too large for a double becomes
    +-inf, as a literal such as 1e400 does, and fails validation by name."""
    if isinstance(value, numbers.Integral) and not _finite(value):
        return math.inf if value > 0 else -math.inf
    return float(value)


def _whole(value) -> bool:
    """An integer, or a float with an integer value (YAML may give 16.0)."""
    if isinstance(value, bool) or not _finite(value):
        return False
    return isinstance(value, numbers.Integral) or float(value).is_integer()


@dataclass(frozen=True)
class NumericalSettings:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    div_blowup_threshold: float = 1e8
    rho_blowup_threshold: float = 1e12
    crossing_gap_threshold: float = 1e-12
    max_steps: int = 500_000
    # Step cap keeps the midpoint finite differences used by the proof-chain
    # residuals second-order-accurate below the 1e-6 reporting floor.
    max_step: float = 4e-3

    def check(self):
        bad = []
        for name in ("rel_tol", "abs_tol", "div_blowup_threshold",
                     "rho_blowup_threshold", "crossing_gap_threshold", "max_step"):
            if not _finite(getattr(self, name)):
                bad.append(("NotFinite", name, "must be a finite number"))
            elif getattr(self, name) <= 0:
                bad.append(("BadSettings", name, "must be strictly positive"))
        if not _whole(self.max_steps):
            bad.append(("BadSettings", "max_steps", "must be a whole number that fits a double"))
        elif self.max_steps <= 0:
            bad.append(("BadSettings", "max_steps", "must be strictly positive"))
        return bad


@dataclass(frozen=True)
class FieldState:
    """All marker fields at one time. dimension 1 is the slab (positions x,
    eig_radial w = u_x); N >= 2 are radial shells (positions r, eig_radial
    du/dr, eig_tangential u/r with multiplicity N-1)."""

    time: float
    positions: np.ndarray  # strictly increasing
    velocities: np.ndarray
    densities: np.ndarray
    eig_radial: np.ndarray
    masses: np.ndarray
    eig_tangential: Optional[np.ndarray] = None
    dimension: int = 1

    def div_u(self):
        return divergence(self.eig_radial, self.eig_tangential, self.dimension)


@dataclass(frozen=True)
class Scenario:
    geometry: Geometry
    dimension: int
    lam: float
    v_sup: float
    density: object
    velocity: object
    marker_count: int
    t_end: float
    settings: NumericalSettings = field(default_factory=NumericalSettings)


@dataclass(frozen=True)
class ValidatedScenario:
    """Normalized scenario plus its initial marker discretization."""

    scenario: Scenario
    positions: np.ndarray
    velocities: np.ndarray
    densities: np.ndarray
    eig_radial: np.ndarray
    eig_tangential: Optional[np.ndarray]
    masses: np.ndarray
    initial_volume: float
    total_mass: float
    h0: float

    @property
    def dimension(self):
        return self.scenario.dimension

    @property
    def lam(self):
        return self.scenario.lam

    @property
    def v_sup(self):
        return self.scenario.v_sup


def _volume_median_radii(edges: np.ndarray, n: int) -> np.ndarray:
    """Radius splitting each shell [r_i, r_{i+1}] into equal volumes.

    Placing the marker at the volume median (rather than the arithmetic
    midpoint) makes the enclosed mass at the marker exact for uniform
    density, so the uniform self-gravitating equilibrium has exactly zero
    discrete force.
    """
    lo = edges[:-1] ** n
    hi = edges[1:] ** n
    return (0.5 * (lo + hi)) ** (1.0 / n)


def _profile_violations(name: str, profile) -> list:
    """Shape checks on a profile's own parameters, made before it is sampled.

    A Gaussian needs a finite width > 0 (width 0 divides by zero); a table
    needs at least two strictly increasing x, which np.interp assumes, and
    one value per x.
    """
    if isinstance(profile, GaussianDensity):
        if not (_finite(profile.width) and profile.width > 0):
            return [("BadProfile", f"{name}.width",
                     f"must be a finite number > 0, got {profile.width!r}")]
    elif isinstance(profile, (TabulatedDensity, TabulatedVelocity)):
        xs = np.asarray(profile.xs, dtype=float)
        if xs.size < 2 or not np.all(np.diff(xs) > 0):
            return [("BadTable", f"{name}.x",
                     "must be strictly increasing, with at least 2 entries")]
        if len(profile.values) != xs.size:
            return [("BadTable", f"{name}.values",
                     f"needs one value per x: {len(profile.values)} values, {xs.size} x")]
    return []


def validate_scenario(raw) -> ValidatedScenario:
    """Check all scenario invariants and build the marker discretization.

    Idempotent: a ValidatedScenario passes through unchanged.
    Raises ValidationError carrying every violation found.
    """
    if isinstance(raw, ValidatedScenario):
        return raw

    violations = []
    s = raw
    if s.geometry is Geometry.SLAB1D and s.dimension != 1:
        s = replace(s, dimension=1)  # forced to 1 for the slab
    if not _whole(s.dimension):
        violations.append(("BadDimension", "dimension",
                           f"must be a whole number that fits a double, got {s.dimension!r}"))
    elif s.geometry is Geometry.RADIALND and s.dimension < 2:
        violations.append(("BadDimension", "dimension",
                           f"radial geometry needs dimension >= 2, got {s.dimension}"))
    elif s.dimension > MAX_DIMENSION:
        violations.append(("BadDimension", "dimension",
                           f"at most {MAX_DIMENSION}, got {s.dimension!r}"))
    if not _whole(s.marker_count):
        violations.append(("BadMarkerCount", "marker_count",
                           f"must be a whole number that fits a double, got {s.marker_count!r}"))
    elif s.marker_count < 2:
        violations.append(("BadMarkerCount", "marker_count", "need at least 2 markers"))
    elif s.marker_count > MAX_MARKERS:
        violations.append(("BadMarkerCount", "marker_count",
                           f"at most {MAX_MARKERS} markers, got {s.marker_count!r}"))
    for name, value in (("v_sup", s.v_sup), ("t_end", s.t_end), ("lambda", s.lam)):
        if not _finite(value):
            violations.append(("NotFinite", name, f"must be a finite number, got {value!r}"))
    if _finite(s.v_sup) and s.v_sup <= 0:
        violations.append(("BadVolumeBound", "v_sup", "must be strictly positive"))
    if _finite(s.t_end) and s.t_end <= 0:
        violations.append(("BadHorizon", "t_end", "must be strictly positive"))
    violations.extend(s.settings.check())
    density_bad = _profile_violations("density", s.density)
    violations += density_bad + _profile_violations("velocity", s.velocity)

    if not density_bad:  # a malformed profile has no meaningful support
        lo, hi = s.density.support
        if not (_finite(lo) and _finite(hi)):
            violations.append(("NotFinite", "density", f"support [{lo:g}, {hi:g}] is not finite"))
        else:
            if s.geometry is Geometry.RADIALND and lo < 0:
                violations.append(("BadSupport", "density", "radial support must have lo >= 0"))
            if hi <= lo:
                violations.append(("BadSupport", "density", "empty support"))
            elif not _finite(hi - lo):
                violations.append(("BadSupport", "density",
                                   f"support [{lo:g}, {hi:g}] is wider than a double holds"))

    if violations:
        raise ValidationError(violations)
    s = replace(s, dimension=int(s.dimension), marker_count=int(s.marker_count),
                settings=replace(s.settings, max_steps=int(s.settings.max_steps)))

    # Density non-negativity on a fine sample of the support.
    grid = np.linspace(lo, hi, max(4 * s.marker_count + 1, 101))
    rho_grid = np.asarray(s.density(grid), dtype=float)
    if not np.all(np.isfinite(rho_grid)):
        violations.append(("NotFinite", "density", "density samples are not all finite"))
    elif np.any(rho_grid < 0):
        bad = grid[np.argmin(rho_grid)]
        violations.append(("NegativeDensity", "density",
                           f"density sample {rho_grid.min():g} < 0 near x={bad:g}"))

    try:
        initial_volume = support_volume(lo, hi, s.dimension)
    except OverflowError:  # hi ** N past a double exceeds any finite v_sup
        initial_volume = math.inf
    if initial_volume > s.v_sup * (1 + 1e-12):
        violations.append(("VolumeExceedsBound", "v_sup",
                           f"initial support volume {initial_volume:g} exceeds v_sup {s.v_sup:g}"))

    if violations:
        raise ValidationError(violations)

    edges = np.linspace(lo, hi, s.marker_count + 1)
    if s.geometry is Geometry.SLAB1D:
        pos = 0.5 * (edges[:-1] + edges[1:])
        cell_vol = np.diff(edges)
    else:
        n = s.dimension
        pos = _volume_median_radii(edges, n)
        cell_vol = unit_sphere_area(n) * np.diff(edges**n) / n

    rho = np.asarray(s.density(pos), dtype=float)
    masses = rho * cell_vol

    # Vacuum cells carry no mass measure and are not represented by markers.
    keep = masses > 0
    pos, rho, masses = pos[keep], rho[keep], masses[keep]
    if pos.size < 2:
        raise ValidationError([("NegativeDensity", "density",
                                "fewer than 2 markers with positive mass")])

    vel = np.asarray(s.velocity(pos), dtype=float)
    eig1 = np.asarray(s.velocity.gradient(pos), dtype=float)
    if not (np.all(np.isfinite(vel)) and np.all(np.isfinite(eig1))):
        raise ValidationError([("NotFinite", "velocity",
                                "velocity or its gradient is not finite at the markers")])
    eig2 = None
    if s.geometry is Geometry.RADIALND:
        eig2 = np.where(pos > 0, vel / np.where(pos > 0, pos, 1.0), eig1)
    div0 = divergence(eig1, eig2, s.dimension)

    _check_triggers_at_start(s, pos, rho, div0)

    total_mass = float(masses.sum())
    h0 = float(np.sum(masses * div0))
    return ValidatedScenario(
        scenario=s,
        positions=pos,
        velocities=vel,
        densities=rho,
        eig_radial=eig1,
        eig_tangential=eig2,
        masses=masses,
        initial_volume=initial_volume,
        total_mass=total_mass,
        h0=h0,
    )


def _check_triggers_at_start(s: Scenario, pos, rho, div0):
    """Reject initial data on which a blowup trigger already holds.

    The detector fires when a trigger goes from not holding to holding, so a
    run that starts with one held could never report it. Each trigger of
    TRIGGERS is checked on the extreme of its quantity over the markers.
    """
    violations = []
    for rule in TRIGGERS.values():
        values = rule.quantity(pos, div0, rho, s.dimension)
        value = np.min(values) if rule.below else np.max(values)
        limit = getattr(s.settings, rule.threshold)
        if rule.holds(value, limit):
            verb = "is below" if rule.below else "exceeds"
            violations.append(("TriggerAtStart", rule.field,
                               f"initial {rule.name} {value:g} {verb} {rule.threshold} {limit:g}"))
    if violations:
        raise ValidationError(violations)


# ---------------------------------------------------------------------------
# Diagnostics and trajectory containers
# ---------------------------------------------------------------------------


class StepRow(NamedTuple):
    """Per-step scalars of one state, reduced once when the step is accepted.

    Trajectory.columns is a StepRow whose fields are arrays over the
    accepted steps. Sums run over markers with the fixed mass weights m_j.
    """

    time: float
    h: float  # H = sum m div(u)
    m_div2: float  # sum m div(u)^2
    m_rho: float  # sum m rho
    volume: float  # support volume of the marker extent
    volume_upper: float  # upper support estimate (adds the boundary half-cells)
    m_div_rate: float  # sum m D(div u)/Dt; NaN where no RHS was evaluated
    min_gap: float  # smallest gap between neighbours (origin included for radial)
    max_abs_div: float
    max_density: float
    min_density: float


class Trigger(Enum):
    SHELL_CROSSING = "ShellCrossing"
    DIVERGENCE_THRESHOLD = "DivergenceThreshold"
    DENSITY_THRESHOLD = "DensityThreshold"


class TriggerRule(NamedTuple):
    """A blowup trigger: the StepRow column the scan reads, its per-marker quantity
    from (positions, div u, densities, dimension), the threshold it holds below
    (operator.lt) or above (operator.gt), and the field and name validation reports."""

    column: str
    quantity: Callable
    threshold: str
    holds: Callable
    field: str
    name: str

    @property
    def below(self) -> bool:
        return self.holds is operator.lt


# in priority order, which decides between triggers that first hold in one step
TRIGGERS = {
    Trigger.SHELL_CROSSING: TriggerRule(
        "min_gap", lambda x, div, rho, n: neighbour_gaps(x, n),
        "crossing_gap_threshold", operator.lt, "marker_count", "marker gap"),
    Trigger.DIVERGENCE_THRESHOLD: TriggerRule(
        "max_abs_div", lambda x, div, rho, n: np.abs(div),
        "div_blowup_threshold", operator.gt, "velocity", "|div u|"),
    Trigger.DENSITY_THRESHOLD: TriggerRule(
        "max_density", lambda x, div, rho, n: rho,
        "rho_blowup_threshold", operator.gt, "density", "density"),
}


@dataclass
class Trajectory:
    """One run: a column of per-step scalars for every accepted step, the
    full marker states that were kept, and the event that ended it, if any.

    ``states`` holds the first and the last state, unless the run was made
    with ``keep_states=True``; then it holds every state and ``states[i]``
    belongs to row i of ``columns``.
    """

    validated: ValidatedScenario
    columns: StepRow
    states: list
    event: object = None  # detector.BlowupEvent when one fired

    @classmethod
    def from_rows(cls, validated, rows, states, event=None):
        return cls(validated, StepRow(*map(np.array, zip(*rows))), states, event)

    @property
    def masses(self):
        return self.validated.masses

    @property
    def times(self):
        return self.columns.time

    def __len__(self):
        return len(self.columns.time)


# ---------------------------------------------------------------------------
# Scenario file ingestion (YAML; one document per scenario)
# ---------------------------------------------------------------------------

_DENSITY_KINDS = {"uniform", "gaussian", "table"}
_VELOCITY_KINDS = {"zero", "uniform", "hubble", "table"}


def _profile_kind(name: str, spec):
    """The kind of a profile mapping; any other value names the profile."""
    if not isinstance(spec, dict):
        raise ValidationError([("BadProfile", name,
                                f"must be a mapping with a kind, got {spec!r}")])
    return spec.get("kind")


def _build_density(spec: dict):
    kind = _profile_kind("density", spec)
    if kind == "uniform":
        lo, hi = spec["support"]
        return UniformDensity(value=_float(spec["value"]), lo=_float(lo), hi=_float(hi))
    if kind == "gaussian":
        lo, hi = spec["support"]
        return GaussianDensity(amplitude=_float(spec["amplitude"]),
                               center=_float(spec.get("center", 0.0)),
                               width=_float(spec["width"]), lo=_float(lo), hi=_float(hi))
    if kind == "table":
        return TabulatedDensity(xs=tuple(_float(v) for v in spec["x"]),
                                values=tuple(_float(v) for v in spec["values"]))
    raise ValidationError([("BadProfile", "density",
                            f"unknown density kind {kind!r}, expected one of {sorted(_DENSITY_KINDS)}")])


def _build_velocity(spec: dict):
    kind = _profile_kind("velocity", spec)
    if kind == "zero":
        return UniformVelocity(0.0)
    if kind == "uniform":
        return UniformVelocity(value=_float(spec["value"]))
    if kind == "hubble":
        return HubbleVelocity(rate=_float(spec["rate"]))
    if kind == "table":
        return TabulatedVelocity(xs=tuple(_float(v) for v in spec["x"]),
                                 values=tuple(_float(v) for v in spec["values"]))
    raise ValidationError([("BadProfile", "velocity",
                            f"unknown velocity kind {kind!r}, expected one of {sorted(_VELOCITY_KINDS)}")])


class _Document(dict):
    """A mapping of a scenario document that knows its dotted path, so that a
    missing key is a ValidationError naming it (initial_profile.density.value)."""

    def __init__(self, mapping, path=""):
        super().__init__(mapping)
        self.path = path

    def __getitem__(self, key):
        value = super().__getitem__(key)
        return _Document(value, f"{self.path}{key}.") if isinstance(value, dict) else value

    def __missing__(self, key):
        raise ValidationError([("MissingKey", f"{self.path}{key}", "required key is missing")])


def scenario_from_dict(doc: dict) -> Scenario:
    if isinstance(doc, dict):
        doc = _Document(doc)
    try:
        geometry = Geometry(str(doc["geometry"]).lower())
        settings = NumericalSettings(**doc.get("tolerances", {}))
        return Scenario(
            geometry=geometry,
            dimension=doc.get("dimension", 1),
            lam=_float(doc.get("lambda", 0.0)),
            v_sup=_float(doc["v_sup"]),
            density=_build_density(doc["initial_profile"]["density"]),
            velocity=_build_velocity(doc["initial_profile"]["velocity"]),
            marker_count=doc["marker_count"],
            t_end=_float(doc["t_end"]),
            settings=settings,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError([("BadScenarioFile", "scenario", str(exc))]) from exc


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        try:
            doc = yaml.safe_load(fh)
        except (yaml.YAMLError, ValueError) as exc:
            # ValueError: an integer past Python's digit limit for str -> int
            raise ValidationError([("BadScenarioFile", "scenario",
                                    f"cannot read {path}: {exc}")]) from exc
    if not isinstance(doc, dict):
        raise ValidationError([("BadScenarioFile", "scenario", "expected a mapping at top level")])
    return scenario_from_dict(doc)

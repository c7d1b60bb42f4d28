"""Domain types, initial-data profiles, and scenario validation.

A scenario describes pressureless self-gravitating dust in a 1-D slab or a
radially symmetric ball: geometry, dimension N, background constant lambda,
the assumed volume bound v_sup, and the initial density/velocity profiles.
Validation discretizes the initial data into Lagrangian markers whose fixed
mass weights are midpoint quadratures of the density over each marker's
initial cell, so the total mass is conserved by construction.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import sys
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import Callable, NamedTuple, Optional

import numpy as np
import yaml

from .errors import ValidationError


class Geometry(Enum):
    SLAB1D = "slab1d"
    RADIALND = "radialnd"


@functools.cache  # once per dimension: the reducer reads it on every shell row
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


def inside(volume: float, v_sup: float) -> bool:
    """The support-volume hypothesis: volume within v_sup, up to 1e-12 relative."""
    return not volume > v_sup * (1 + 1e-12)


def trigger_rows(out, dimension: int):
    """rows(positions, rho, div) writes each marker's gap, rho and |div u|,
    the rows the triggers read (TriggerRule.row), into the (3 x n) block out
    and returns it; the views of out are taken once. A slab marker's gap is
    to the next (+inf for the last), a shell's to the one inside it (the
    origin for the first); a swap shows up as a negative gap."""
    gap, rho_row, abs_div = out
    slab = dimension == 1
    inner, edge = (gap[:-1], -1) if slab else (gap[1:], 0)

    def rows(positions, rho, div):
        np.subtract(positions[1:], positions[:-1], out=inner)  # np.diff without its call overhead
        gap[edge] = math.inf if slab else positions[0]
        np.copyto(rho_row, rho)
        np.abs(div, out=abs_div)
        return out

    return rows


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
        slopes = np.diff(self.values) / np.diff(self.xs)
        idx = np.clip(np.searchsorted(self.xs, np.asarray(x, dtype=float), side="right") - 1,
                      0, len(slopes) - 1)
        return slopes[idx]


# ---------------------------------------------------------------------------
# Settings and marker/state types
# ---------------------------------------------------------------------------


# Upper limits of the discretization: sigma = 2 pi^(N/2)/Gamma(N/2) overflows
# past N = 343, and a run's peak of about 19 (slab) or 17 (shell) solver
# vectors is about 610 MB (slab) or 680 MB (shells) at the marker limit.
MAX_DIMENSION = 100
MAX_MARKERS = 1_000_000
SHELL_MAX_STEP = 4e-3  # the step cap of shells when the settings give none


def _finite(value) -> bool:
    # compared, not converted (an integer past a double is not finite); a bool is no number
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _whole(value) -> bool:
    """An integer, or a float with an integer value (YAML may give 16.0)."""
    return _finite(value) and (isinstance(value, numbers.Integral)
                               or float(value).is_integer())


@dataclass(frozen=True)
class NumericalSettings:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    div_blowup_threshold: float = 1e8
    rho_blowup_threshold: float = 1e12
    crossing_gap_threshold: float = 1e-12
    max_steps: int = 500_000
    # Step cap, None for none; if None, validate_scenario keeps it for a slab
    # and sets SHELL_MAX_STEP for shells, whose event marker moves with the step sequence.
    max_step: Optional[float] = None

    def check(self):
        bad = []
        for name in ("rel_tol", "abs_tol", "div_blowup_threshold", "rho_blowup_threshold",
                     "crossing_gap_threshold") + ("max_step",) * (self.max_step is not None):
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
        """div u per marker: u_x for the slab, du/dr + (N-1) u/r for shells."""
        if self.dimension == 1:
            return self.eig_radial
        return self.eig_radial + (self.dimension - 1) * self.eig_tangential


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
    """Normalized scenario plus its initial marker discretization: y0 is the
    run's solver vector at t = 0 (read-only), and initial its FieldState
    (unpacker's), whose masses every later state shares. initial is the
    run's first state (Trajectory.states[0] is this object)."""

    scenario: Scenario
    y0: np.ndarray
    initial: FieldState
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


def splitter(n, dimension):
    """split(y): the eight views of a solver vector of n markers: y, its
    fields (x, u, v = 1/rho, q = u_x v, None for the slab; r, u, rho, l1, l2
    for shells), and y[n:] and y[3n:] (the shell force law's). This order is
    known here alone."""
    shells = dimension > 1

    def split(y):
        return (y, y[:n], y[n:2 * n], y[2 * n:3 * n], y[3 * n:4 * n],
                y[4 * n:] if shells else None, y[n:], y[3 * n:])

    return split


def unpacker(masses, dimension: int):
    """unpack(t, yv): the FieldState of a solver vector's views yv, judged
    first by their row (a slab's v > 0), sharing their positions, velocities
    and shell fields; no solver vector is written after it is published."""
    def unpack(t, yv):
        rho, w = yv[3], yv[4]
        if dimension == 1:  # rho and w hold v and q until here
            w, rho = w / rho, 1.0 / rho
        return FieldState(time=float(t), positions=yv[1], velocities=yv[2],
                          densities=rho, eig_radial=w, eig_tangential=yv[5],
                          masses=masses, dimension=dimension)

    return unpack


def _profile_violations(name: str, profile) -> list:
    """Shape checks on a profile's own parameters, before it is sampled: a
    Gaussian's finite width > 0, a table's two or more strictly increasing x
    (as np.interp assumes) with one value each."""
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
    # a max_step left None stays None (no cap) for a slab and gets the shells'
    # default; a given one is checked > 0
    default_cap = None if s.geometry is Geometry.SLAB1D else SHELL_MAX_STEP
    s = replace(s, dimension=int(s.dimension), marker_count=int(s.marker_count),
                settings=replace(s.settings, max_steps=int(s.settings.max_steps),
                                 max_step=s.settings.max_step or default_cap))

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
    if not inside(initial_volume, s.v_sup):
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
        power = edges**n
        # markers at the shells' volume medians, not midpoints: the enclosed
        # mass at a marker is exact for uniform density, so the uniform
        # self-gravitating equilibrium has exactly zero discrete force
        pos = (0.5 * (power[:-1] + power[1:])) ** (1.0 / n)
        cell_vol = unit_sphere_area(n) * np.diff(power) / n

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
    if s.geometry is Geometry.RADIALND:
        eig2 = np.where(pos > 0, vel / np.where(pos > 0, pos, 1.0), eig1)
        fields = pos, vel, rho, eig1, eig2
    else:  # the run steps the slab's chart v = 1/rho and q = u_x v (geometry1d)
        with np.errstate(over="ignore"):
            if not (np.isfinite(v0 := 1.0 / rho).all() and np.isfinite(q0 := eig1 * v0).all()):
                raise ValidationError([("NotFinite", "density", "1/density or u_x/density "
                                        "overflows a double at a marker")])
        fields = pos, vel, v0, q0
    y0 = np.concatenate(fields)
    y0.flags.writeable = False
    initial = unpacker(masses, s.dimension)(0.0, splitter(masses.size, s.dimension)(y0))
    for array in (masses, initial.densities, initial.eig_radial):  # the rest view y0
        array.flags.writeable = False
    # no trigger may hold at the start: the detector fires when one starts to
    # hold, so a run could never report it. Each is checked as the run's
    # first row checks it, on its row of trigger_rows from the unpacked state
    rows = trigger_rows(np.empty((3, masses.size)), s.dimension)(
        initial.positions, initial.densities, initial.div_u())
    for rule in TRIGGERS.values():  # violations is empty here
        value = rows[rule.row].min() if rule.below else rows[rule.row].max()
        limit = getattr(s.settings, rule.threshold)
        if rule.holds(value, limit):
            verb = "is below" if rule.below else "exceeds"
            violations.append(("TriggerAtStart", rule.field,
                               f"initial {rule.name} {float(value)!r} {verb} "
                               f"{rule.threshold} {float(limit)!r}"))
    if violations:
        raise ValidationError(violations)
    return ValidatedScenario(scenario=s, y0=y0, initial=initial, total_mass=float(masses.sum()),
                             h0=float(np.sum(masses * initial.div_u())))


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
    m_div_rate: float  # sum m D(div u)/Dt, from the stepper's own RHS at the state
    min_gap: float  # smallest gap between neighbours (origin included for radial)
    max_abs_div: float
    max_density: float
    min_density: float


class Trigger(Enum):
    SHELL_CROSSING = "ShellCrossing"
    DIVERGENCE_THRESHOLD = "DivergenceThreshold"
    DENSITY_THRESHOLD = "DensityThreshold"


class TriggerRule(NamedTuple):
    """A blowup trigger: the StepRow column the scan reads, its row of
    trigger_rows, the threshold it holds below (operator.lt) or above
    (operator.gt), and the field and name validation reports."""

    column: str
    row: int
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
        "min_gap", 0, "crossing_gap_threshold", operator.lt, "marker_count", "marker gap"),
    Trigger.DIVERGENCE_THRESHOLD: TriggerRule(
        "max_abs_div", 2, "div_blowup_threshold", operator.gt, "velocity", "|div u|"),
    Trigger.DENSITY_THRESHOLD: TriggerRule(
        "max_density", 1, "rho_blowup_threshold", operator.gt, "density", "density"),
}


@dataclass
class Trajectory:
    """One run: a column of per-step scalars for every accepted step, the
    kept marker states (the first and the last, or with keep_states=True
    every one, states[i] of row i) and the event that ended it, if any."""

    validated: ValidatedScenario
    columns: StepRow
    states: list
    event: object = None  # detector.BlowupEvent when one fired

    @classmethod
    def from_rows(cls, validated, rows, states, event=None):
        return cls(validated, StepRow(*map(np.array, zip(*rows))), states, event)

    @property
    def masses(self):
        return self.validated.initial.masses

    @property
    def times(self):
        return self.columns.time

    def __len__(self):
        return len(self.columns.time)


# ---------------------------------------------------------------------------
# Scenario file ingestion (YAML; one document per scenario)
# ---------------------------------------------------------------------------

# each kind of each profile: the keys it reads besides kind, and the profile
# it builds from their values in that order
_PROFILES = {
    "density": {
        "uniform": (("value", "support"), lambda value, support: UniformDensity(value, *support)),
        "gaussian": (("amplitude", "center", "width", "support"),
                     lambda a, c, w, support: GaussianDensity(a, c, w, *support)),
        "table": (("x", "values"), TabulatedDensity)},
    "velocity": {"zero": ((), lambda: UniformVelocity(0.0)),
                 "uniform": (("value",), UniformVelocity),
                 "hubble": (("rate",), HubbleVelocity),
                 "table": (("x", "values"), TabulatedVelocity)},
}
# the keys of every other mapping of a scenario document, by its dotted path
_KEYS = {"": ("geometry", "dimension", "lambda", "v_sup", "marker_count", "t_end",
              "initial_profile", "tolerances"),
         "initial_profile.": ("density", "velocity"),
         "tolerances.": tuple(f.name for f in fields(NumericalSettings))}


def _number(value, path: str) -> float:
    """value, a number but not a boolean (else NotANumber naming path), as a
    float; an integer too large for a double is +-inf, as the literal 1e400 is."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError([("NotANumber", path, f"must be a number, got {value!r}")])
    if isinstance(value, numbers.Integral) and not _finite(value):
        return math.inf if value > 0 else -math.inf
    return float(value)


class _Document(dict):
    """A mapping of a scenario document that knows its dotted path, so that a
    missing key (initial_profile.density.value), a key the loader does not
    read and a value not of the shape read there are ValidationErrors naming it."""

    def __init__(self, mapping, path=""):
        super().__init__(mapping)
        self.path = path
        self.reads(*_KEYS.get(path, self))  # a profile's keys are read with its kind

    def __getitem__(self, key):
        value, path = super().__getitem__(key), f"{self.path}{key}"
        if path + "." in _KEYS and not isinstance(value, dict):
            raise ValidationError([("NotAMapping", path, f"must be a mapping, got {value!r}")])
        return _Document(value, path + ".") if isinstance(value, dict) else value

    def __missing__(self, key):
        raise ValidationError([("MissingKey", f"{self.path}{key}", "required key is missing")])

    def reads(self, *keys):
        """Raise UnknownKey unless every key of self is one of keys."""
        unknown = [("UnknownKey", f"{self.path}{key}", f"expected one of {list(keys)}")
                   for key in self if key not in keys]
        if unknown:
            raise ValidationError(unknown)

    def number(self, key, default=None):
        """self[key] (default, if not None, when key is absent) as _number reads
        it; a support, x or values as a tuple of such numbers."""
        value, path = self[key] if default is None or key in self else default, self.path + key
        if key in ("support", "x", "values"):
            if not isinstance(value, (list, tuple)) or key == "support" and len(value) != 2:
                raise ValidationError([("BadProfile", path, "must be a list of numbers"
                                        f"{' [lo, hi]' * (key == 'support')}, got {value!r}")])
            return tuple(_number(v, path) for v in value)
        return _number(value, path)


def _profile(name: str, spec):
    """The profile that spec, a mapping with a kind, builds (see _PROFILES)."""
    kinds = _PROFILES[name]
    if not isinstance(spec, dict):
        raise ValidationError([("BadProfile", name,
                                f"must be a mapping with a kind, got {spec!r}")])
    kind = spec.get("kind")
    if not (isinstance(kind, str) and kind in kinds):
        raise ValidationError([("BadProfile", name, f"unknown {name} kind {kind!r}, "
                                f"expected one of {sorted(kinds)}")])
    keys, build = kinds[kind]
    spec.reads("kind", *keys)
    return build(*(spec.number(key, 0.0 if key == "center" else None) for key in keys))


def scenario_from_dict(doc: dict) -> Scenario:
    try:
        doc = _Document(doc)
        tolerances = doc["tolerances"] if "tolerances" in doc else {}
        return Scenario(
            geometry=Geometry(str(doc["geometry"]).lower()),
            dimension=doc.get("dimension", 1),
            lam=doc.number("lambda", 0.0),
            v_sup=doc.number("v_sup"),
            density=_profile("density", doc["initial_profile"]["density"]),
            velocity=_profile("velocity", doc["initial_profile"]["velocity"]),
            marker_count=doc["marker_count"],
            t_end=doc.number("t_end"),
            # ** fails on a value that is not a mapping
            settings=NumericalSettings(**{key: value if key == "max_steps" else
                                          tolerances.number(key)
                                          for key, value in dict(**tolerances).items()}),
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

"""Scenario configuration: physical constants, geometry, and algorithm knobs.

Powers cross the boundary in dBm (keys carry a _dbm suffix) and are converted
to watts here; all internal arithmetic is in watts.  A flat ``key = value``
text file can override any default, see load_scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .channel import REF_DISTANCE, RwpParams, rwp_distance_grid, ue_radius_range
from .system import PowerModel


class ParseError(Exception):
    """Scenario file syntax or schema problem; message carries the line number."""


class ValidationError(ValueError):
    """A configuration invariant is violated; message names the invariant."""


def is_integer(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)  # bool subclasses int


def is_real(v) -> bool:
    return isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)


def dbm_to_watts(v: float) -> float:
    return 10.0 ** (v / 10.0) * 1e-3


def db_to_linear(v: float) -> float:
    return 10.0 ** (v / 10.0)


def _least_distance(a, b) -> float:
    """Least distance between two placement regions, each (lo, hi, radius):
    the points whose z lies in [lo_z, hi_z] and whose (x, y) lies within
    radius of the rectangle [lo, hi] in x and y.  A node is a point (lo =
    hi, radius 0), the user disc its centre with the disc radius, a
    placement box its corners with radius 0."""
    (lo_a, hi_a, r_a), (lo_b, hi_b, r_b) = a, b
    gap = np.maximum(np.maximum(np.subtract(lo_a, hi_b), np.subtract(lo_b, hi_a)), 0.0)  # per axis
    return math.hypot(max(math.hypot(gap[0], gap[1]) - r_a - r_b, 0.0), gap[2])


@dataclass
class ScenarioConfig:
    # counts
    n: int = 8            # BS antennas
    m: int = 25           # reflecting elements
    k: int = 4            # UEs
    q: int = 3            # jammers
    b: int = 4            # interferers
    n_jam: int = 8        # antennas per jammer

    # powers (dBm at the boundary)
    p_max_dbm: float = 27.0
    p_j_dbm: float = 10.0
    p_i_dbm: float = 10.0
    noise_dbm: float = -105.0
    p_dc_dbm: float = -20.0   # 10 uW per element
    p_sc_dbm: float = -20.0   # 10 uW per element
    a_max_db: float = 40.0    # maximum amplification gain A_max^2 in dB
    eta1: float = 0.9         # harvesting efficiency
    xi: float = 1.1           # reciprocal amplifier efficiency

    # geometry (meters)
    bs_pos: tuple = (30.0, 0.0, 5.0)
    ris_pos: tuple = (0.0, 40.0, 10.0)
    ue_center: tuple = (30.0, 150.0, 0.0)
    ue_radius: float = 20.0
    jammer_box_min: tuple = (40.0, 80.0, 0.0)
    jammer_box_max: tuple = (60.0, 100.0, 0.0)
    interferer_box_min: tuple = (-50.0, 200.0, 0.0)
    interferer_box_max: tuple = (50.0, 220.0, 0.0)

    # path loss
    alpha_bu: float = 2.75
    alpha_br: float = 2.2
    alpha_ru: float = 2.2
    alpha_ju: float = 2.5
    alpha_jr: float = 2.5
    alpha_iu: float = 2.7
    zeta0_db: float = 0.0     # reference path loss at 1 m, net of antenna gains

    # RWP mobility / fading
    rwp_b: tuple = (735.0 / 72.0, -1190.0 / 72.0, 455.0 / 72.0)
    rwp_upsilon: tuple = (1.0, 3.0, 5.0)
    m_nakagami: float = 1.0

    # imperfect CSI (0 = ideal estimates; sweeps probe 0.05-0.2)
    e_mse: float = 0.0

    # algorithm
    r_max: int = 50
    i_max: int = 15
    varsigma: float = 1e-3
    varsigma1: float = 1e-3
    heldout: int = 100

    # harness
    trials: int = 500
    seed: int = 20240

    def __post_init__(self):
        self.validate()

    def validate(self):
        """Reject counts that are not integers, other values (tuple entries
        included) that are not finite real numbers (a bool is neither), dB
        values that are 0 or overflow in linear units, points without 3
        coordinates, boxes whose max lies below their min, out-of-range
        values, a user-distance density the sampler cannot invert, and linked
        nodes that can come closer than the path-loss reference distance."""
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(f.default, int):
                if not is_integer(v):
                    raise ValidationError(f"{f.name} must be an integer, got {v!r}")
            elif not all(is_real(x) and math.isfinite(x) for x in np.asarray(v, dtype=object).ravel()):
                raise ValidationError(f"{f.name} must be a finite real number or numbers, got {v!r}")
            elif f.name.endswith(("_dbm", "_db")):
                try:
                    linear = (dbm_to_watts if f.name.endswith("_dbm") else db_to_linear)(float(v))
                except OverflowError:
                    linear = math.inf
                if not 0.0 < linear < math.inf:
                    raise ValidationError(f"{f.name} = {v} is {linear} in linear units in floating point")
        for name, floor in (("n", 1), ("m", 1), ("k", 1), ("n_jam", 1), ("q", 0), ("b", 0),
                            ("r_max", 1), ("i_max", 1), ("trials", 1), ("heldout", 1), ("seed", 0)):
            if getattr(self, name) < floor:
                raise ValidationError(f"count {name} must be {'positive' if floor else 'nonnegative'}")
        for name in ("bs_pos", "ris_pos", "ue_center", "jammer_box_min", "jammer_box_max",
                     "interferer_box_min", "interferer_box_max"):
            if np.shape(getattr(self, name)) != (3,):
                raise ValidationError(f"{name} must have 3 coordinates, got {getattr(self, name)!r}")
        for box in ("jammer_box", "interferer_box"):
            lo, hi = getattr(self, f"{box}_min"), getattr(self, f"{box}_max")
            if any(b < a for a, b in zip(lo, hi)):
                raise ValidationError(f"{box}_max {hi} lies below {box}_min {lo}")
        for name in ("alpha_bu", "alpha_br", "alpha_ru", "alpha_ju", "alpha_jr", "alpha_iu"):
            v = getattr(self, name)
            if not (1.5 <= v <= 6.0):
                raise ValidationError(f"path-loss exponent {name} = {v} outside [1.5, 6]")
        if self.e_mse < 0:
            raise ValidationError("e_mse must be nonnegative")
        if not (0 < self.eta1 <= 1):
            raise ValidationError("eta1 must lie in (0, 1]")
        if self.xi < 1:
            raise ValidationError("xi must be >= 1")
        if self.a_max_db < 0:
            raise ValidationError("a_max_db must be nonnegative (A_max >= 1)")
        if len(self.rwp_b) != len(self.rwp_upsilon):
            raise ValidationError("rwp_b and rwp_upsilon must have equal length")
        if self.m_nakagami < 0.5:
            raise ValidationError("m_nakagami must be >= 0.5")
        if self.ue_radius <= 0:
            raise ValidationError("ue_radius must be positive")
        if self.varsigma <= 0 or self.varsigma1 <= 0:
            raise ValidationError("convergence tolerances must be positive")
        # the CDF that sample_rwp_distance inverts on its grid must reach a
        # positive mass and never fall: no negative density between points
        mass = rwp_distance_grid(self.rwp_b, self.rwp_upsilon, *ue_radius_range(self.ue_radius))[1]
        if not (mass[-1] > 0.0 and np.all(np.diff(mass) >= 0.0)):
            raise ValidationError("rwp_b, rwp_upsilon: the user-distance density must have positive "
                                  "mass on the user disc and no negative value on the sampler's grid")
        # every link's path loss needs its two ends at least REF_DISTANCE apart
        regions = {"bs_pos": (self.bs_pos, self.bs_pos, 0.0), "ris_pos": (self.ris_pos, self.ris_pos, 0.0),
                   "user disc": (self.ue_center, self.ue_center, self.ue_radius),
                   "jammer box": (self.jammer_box_min, self.jammer_box_max, 0.0),
                   "interferer box": (self.interferer_box_min, self.interferer_box_max, 0.0)}
        links = [("bs_pos", "ris_pos"), ("bs_pos", "user disc"), ("ris_pos", "user disc")]
        if self.q:
            links += [("jammer box", "user disc"), ("jammer box", "ris_pos")]
        if self.b:
            links.append(("interferer box", "user disc"))
        for a, b in links:
            gap = _least_distance(regions[a], regions[b])
            if gap < REF_DISTANCE:
                raise ValidationError(f"{a} and {b} can come {gap:.3g} m close, below the "
                                      f"{REF_DISTANCE:g} m path-loss reference distance")

    # derived quantities -------------------------------------------------
    @property
    def p_jam_w(self) -> float:
        return dbm_to_watts(self.p_j_dbm)

    @property
    def p_int_w(self) -> float:
        return dbm_to_watts(self.p_i_dbm)

    def power_model(self) -> PowerModel:
        """The model's six constants; the only place they are converted to watts."""
        return PowerModel(
            p_max=dbm_to_watts(self.p_max_dbm), eta1=self.eta1, xi=self.xi,
            p_static=dbm_to_watts(self.p_dc_dbm) + dbm_to_watts(self.p_sc_dbm),
            a_max=float(np.sqrt(db_to_linear(self.a_max_db))),
            noise=dbm_to_watts(self.noise_dbm),
        )

    def rwp_params(self) -> RwpParams:
        """Theorem-style power-law parameters for the BS-to-UE-disc link."""
        bs, center = np.asarray(self.bs_pos, dtype=float), np.asarray(self.ue_center, dtype=float)
        d_xy = float(np.linalg.norm((bs - center)[:2]))
        dz = abs(float(bs[2] - center[2]))
        d_lo = float(np.hypot(max(d_xy - self.ue_radius, 0.0), dz))
        d_hi = float(np.hypot(d_xy + self.ue_radius, dz))
        return RwpParams(
            b_coeffs=np.array(self.rwp_b), upsilon=np.array(self.rwp_upsilon),
            m_nakagami=self.m_nakagami, alpha=self.alpha_bu,
            d_lower=d_lo, d_upper=d_hi, p_t=1.0, n_f=self.n,
        )


def paper_profile(**overrides) -> ScenarioConfig:
    """Full-scale scenario (counts and powers of the reference simulations), validated once."""
    return ScenarioConfig(**overrides)


def desk_profile(**overrides) -> ScenarioConfig:
    """Reduced-scale profile for CI runtime: fewer nodes, fewer trials; validated once."""
    base = dict(n=4, k=2, q=1, b=2, m=8, n_jam=4, trials=50)
    base.update(overrides)
    return ScenarioConfig(**base)


PROFILES = {"paper": paper_profile, "desk": desk_profile}


def load_scenario(path: str, profile: str = "paper") -> ScenarioConfig:
    """Parse a flat ``key = value`` scenario file over the named profile.

    Keys are case-insensitive and match the ScenarioConfig field names; a
    value is read as the type of its field's default (comma-separated floats
    for tuple fields).  '#' starts a comment.
    Raises ParseError (with line number) on syntax/unknown keys, and
    ValidationError for a profile not in PROFILES (before reading) or a violated invariant.
    """
    if profile not in PROFILES:
        raise ValidationError(f"profile must be one of {tuple(PROFILES)}, got {profile!r}")
    schema = {f.name.lower(): f for f in fields(ScenarioConfig)}
    overrides = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
            key, _, value = line.partition("=")
            key = key.strip().lower()
            value = value.strip()
            if key not in schema:
                raise ParseError(f"line {lineno}: unknown key {key!r}")
            name, kind = schema[key].name, type(schema[key].default)
            try:
                if kind is tuple:
                    overrides[name] = tuple(float(v) for v in value.split(","))
                else:
                    overrides[name] = kind(value)
            except ValueError as exc:
                raise ParseError(f"line {lineno}: bad value for {name!r}: {value!r}") from exc
    return PROFILES[profile](**overrides)

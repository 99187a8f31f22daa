"""Path loss, LOS probability, shadowing, and slice selection.

Each model is one function of numbers: the horizontal or 3D distance, the
two heights, the carrier and the environment in; a float or an array out.
No geometry or carrier record stands between a caller and a formula, and
the one record left, `LogDistance`, is a measured row resolved to numbers.
Every log-distance loss is referred to the one distance D0_M = 1 m: its
Lambda_0 is the loss there, and a row that reports none takes the Friis
loss at 1 m.
The link-loss sampler composes n links from what the caller evaluates with
them: (LOS, NLOS) pairs of path losses, shadowing stds and Nakagami m give
path loss, plus dB-normal shadowing, plus small-scale fading expressed as
a dB penalty, with the LOS/NLOS state drawn per link from a LOS
probability.

Unit conventions worth calling out:
  * In the building-statistics LOS probability the horizontal distance
    enters in kilometres, so that sqrt(varsigma * xi) (xi in buildings per
    km^2) is dimensionally consistent.
  * `log` in every 3GPP-style expression is base 10 and the carrier enters
    in GHz (the 40*pi*f/3 idiom presumes both).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import DomainError, ModelGapError, check_count, check_number
from .numerics import sample_fading, sample_shadowing_db

SPEED_OF_LIGHT = 299_792_458.0
# the 3GPP 40*pi*f/3 idiom embeds c = 3e8; the breakpoint uses the same
_C_3GPP = 3.0e8
MAX_MODELED_ALTITUDE_M = 300.0
# the lowest ground antenna of the 3GPP ground fits: the breakpoint and
# log10 of the antenna height break down under it
MIN_ANTENNA_HEIGHT_M = 1.0
# reference distance of every log-distance loss, m: Lambda_0 is the loss here
D0_M = 1.0


# ---------------------------------------------------------------------------
# Environment and propagation slices
# ---------------------------------------------------------------------------

# (varsigma, xi, omega) of the four building-statistics environments
ENV_PRESETS = {
    "suburban": (0.1, 750.0, 8.0),
    "urban": (0.3, 500.0, 15.0),
    "dense_urban": (0.5, 300.0, 20.0),
    "highrise": (0.5, 300.0, 50.0),
}

# environment kind -> (ground ceiling, obstructed ceiling) of the slices, m
SLICE_CEILINGS_M = {
    **dict.fromkeys(("suburban", "rural", "open"), (10.0, 40.0)),
    **dict.fromkeys(("urban", "dense_urban", "highrise"), (22.5, 100.0)),
}


@dataclass(frozen=True)
class Environment:
    """Built-environment statistics driving LOS probability and slices.

    varsigma: fraction of land covered by buildings; xi: buildings per km^2;
    omega: Rayleigh scale of building heights (m). The mean building height
    defaults to the Rayleigh mean omega sqrt(pi/2).
    """

    kind: str
    varsigma: float
    xi: float
    omega: float
    mean_building_height_m: Optional[float] = None
    street_width_m: float = 20.0

    def __post_init__(self):
        if self.kind not in SLICE_CEILINGS_M:
            raise DomainError(f"unknown environment kind {self.kind!r}")
        check_number(self.varsigma, "varsigma", minimum=0.0, maximum=1.0)
        if self.mean_building_height_m is None:
            object.__setattr__(self, "mean_building_height_m",
                               self.omega * math.sqrt(math.pi / 2.0))
        # omega is checked before the mean height it derives
        for name in ("xi", "omega", "mean_building_height_m", "street_width_m"):
            check_number(getattr(self, name), name, above=0.0)


def preset_environment(name: str) -> Environment:
    """The environment of the ENV_PRESETS row `name`."""
    return Environment(name, *ENV_PRESETS[name])


suburban = functools.partial(preset_environment, "suburban")
urban = functools.partial(preset_environment, "urban")
dense_urban = functools.partial(preset_environment, "dense_urban")
highrise = functools.partial(preset_environment, "highrise")


class PropagationSlice(Enum):
    GROUND = "ground"
    OBSTRUCTED = "obstructed"
    HIGH_ALTITUDE = "high_altitude"


def slice_of(h_uav_m: float, env: Environment) -> PropagationSlice:
    """Altitude band for the aerial node; boundaries go to the higher slice."""
    check_number(h_uav_m, "h_uav_m", minimum=0.0, maximum=MAX_MODELED_ALTITUDE_M)
    ground, obstructed = SLICE_CEILINGS_M[env.kind]
    if h_uav_m < ground:
        return PropagationSlice.GROUND
    if h_uav_m < obstructed:
        return PropagationSlice.OBSTRUCTED
    return PropagationSlice.HIGH_ALTITUDE


# ---------------------------------------------------------------------------
# Elementary path-loss laws
# ---------------------------------------------------------------------------

def free_space_pl_db(d_3d_m, frequency_hz: float, eta: float = 2.0):
    """Generalized free-space loss 10 eta log10(4 pi d / lambda); eta=2
    reproduces Friis; d must be finite (NaN fails its guard, inf does not)."""
    check_number(frequency_hz, "frequency_hz", above=0.0)
    check_number(eta, "path-loss exponent eta", above=0.0)
    d = np.asarray(d_3d_m, dtype=float)
    if not np.all(d > 0.0):
        raise DomainError("free-space loss needs d_3d > 0")
    out = 10.0 * eta * np.log10(4.0 * np.pi * d / (SPEED_OF_LIGHT / frequency_hz))
    return float(out) if out.ndim == 0 else out


def free_space_reference_loss_db(frequency_hz: float) -> float:
    """Friis loss 20 log10(4 pi D0_M / lambda) at the reference distance."""
    check_number(frequency_hz, "frequency_hz", above=0.0)
    return 20.0 * math.log10(4.0 * math.pi * D0_M / (SPEED_OF_LIGHT / frequency_hz))


def log_distance_pl_db(d_3d_m, lambda0_db: float, eta: float):
    """Lambda_0 + 10 eta log10(d/D0_M), d at least D0_M; a hot kernel: d must
    be finite (NaN fails its guard, inf does not)."""
    check_number(lambda0_db, "lambda0_db")
    check_number(eta, "path-loss exponent eta", above=0.0)
    d = np.asarray(d_3d_m, dtype=float)
    if not np.all(d >= D0_M):
        raise DomainError(f"log-distance model needs d >= d0 ({D0_M} m)")
    out = lambda0_db + 10.0 * eta * np.log10(d / D0_M)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# LOS probability models
# ---------------------------------------------------------------------------

def _building_index(d_h_m, env: Environment):
    """Index m = floor(d_h sqrt(varsigma xi) - 1) of the last building a ray
    of ground length d_h crosses; m < 0 means it crosses none."""
    return np.floor(d_h_m / 1000.0 * math.sqrt(env.varsigma * env.xi) - 1.0).astype(int)


# entries of m whose factors are built at once, so the scratch is at most
# _CLEARANCE_BLOCK x (max m + 1): a table of m = 0..M takes memory linear in M
_CLEARANCE_BLOCK = 128


def _clearance_products(m, h_hi, h_lo, env: Environment):
    """prod_{n=0..m} P[building n is below the ray], one per entry of the
    1-d integer array m (1 where m < 0); the ray height at building n is
    interpolated between the endpoint heights. The ray-height fraction
    (n + 0.5) / (m + 1) depends on m, so each entry is its own product; a
    row is padded with 1.0 past its m, which leaves the product exact."""
    out = np.ones(m.shape)
    for lo in range(0, m.size, _CLEARANCE_BLOCK):
        mb = m[lo:lo + _CLEARANCE_BLOCK, None]
        mmax = int(mb.max())
        if mmax < 0:
            continue
        n = np.arange(mmax + 1)[None, :]
        frac = (n + 0.5) / np.maximum(mb + 1.0, 1.0)
        ray_h = h_hi - frac * (h_hi - h_lo)
        factors = 1.0 - np.exp(-ray_h ** 2 / (2.0 * env.omega ** 2))
        factors = np.where(n <= mb, factors, 1.0)
        out[lo:lo + _CLEARANCE_BLOCK] = np.prod(factors, axis=1)
    return out


def _p_los_building_heights(d_h_m, h_hi, h_lo, env: Environment):
    """Building-statistics LOS probability with ray heights interpolated
    between the two endpoint heights; symmetric in the endpoints.

    d_h enters in km so sqrt(varsigma * xi) is dimensionless per km.
    """
    d_h = np.asarray(d_h_m, dtype=float)
    scalar = d_h.ndim == 0
    d_h = np.atleast_1d(d_h)
    out = _clearance_products(_building_index(d_h, env), h_hi, h_lo, env)
    return float(out[0]) if scalar else out


class BuildingPlosTable:
    """Building P_LOS between two fixed endpoint heights, as a lookup.

    The probability depends on distance only through the building index m,
    so the products for m = 0..M are computed once, M growing to the
    largest m looked up, and each link is a table read; every read equals
    `_p_los_building_heights` exactly.
    """

    def __init__(self, h_hi: float, h_lo: float, env: Environment):
        self.h_hi, self.h_lo, self.env = h_hi, h_lo, env
        self._rows = np.ones(1)   # row m + 1 holds m; row 0 is m = -1

    def __call__(self, d_h_m: np.ndarray) -> np.ndarray:
        m = _building_index(d_h_m, self.env)
        top = int(m.max(initial=-1))
        if top >= self._rows.size - 1:
            products = _clearance_products(np.arange(top + 1), self.h_hi,
                                           self.h_lo, self.env)
            self._rows = np.concatenate(([1.0], products))
        return self._rows[np.maximum(m, -1) + 1]


def p_los_building(d_h_m, h_uav_m: float, h_g_m: float, env: Environment):
    """LOS probability from building statistics for a descending ray."""
    check_number(h_g_m, "h_g_m", minimum=0.0)
    if not check_number(h_uav_m, "h_uav_m") > h_g_m:
        raise DomainError("building-statistics LOS model needs h_uav > h_g")
    if not np.all(np.asarray(d_h_m) >= 0.0):
        raise DomainError("d_h_m must be >= 0")
    return _p_los_building_heights(d_h_m, h_uav_m, h_g_m, env)


def obstructed_plos_auxiliaries(h_uav_m: float):
    """(d_1, p_1) auxiliaries of the obstructed-slice LOS probability."""
    lg = math.log10(check_number(h_uav_m, "h_uav_m", above=0.0))
    d1 = max(1350.8 * lg - 1602.0, 18.0)
    p1 = max(15021.0 * lg - 16053.0, 1000.0)
    return d1, p1


def p_los_3gpp(d_h_m, h_uav_m: float, slice_: PropagationSlice):
    """Slice-specific LOS probability of the 3GPP-style model family."""
    check_number(h_uav_m, "h_uav_m", minimum=0.0)
    d_h = np.asarray(d_h_m, dtype=float)
    if not np.all(d_h >= 0.0):
        raise DomainError("d_h_m must be >= 0")
    if slice_ is PropagationSlice.GROUND:
        out = np.where(d_h <= 10.0, 1.0, np.exp(-(d_h - 10.0) / 1000.0))
    elif slice_ is PropagationSlice.OBSTRUCTED:
        d1, p1 = obstructed_plos_auxiliaries(h_uav_m)
        with np.errstate(divide="ignore", invalid="ignore"):
            far = d1 / d_h + np.exp(-d_h / p1) * (1.0 - d1 / d_h)
        out = np.where(d_h <= d1, 1.0, far)
    else:   # HIGH_ALTITUDE
        out = np.ones_like(d_h)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# 3GPP-style rural-macro path loss
# ---------------------------------------------------------------------------

def rma_breakpoint_m(h_uav_m: float, h_g_m: float, f_c_ghz: float):
    """Breakpoint distance d2 = 2 pi h_uav h_g f_c / c; checks all three."""
    check_number(h_uav_m, "h_uav_m", above=0.0)
    check_number(h_g_m, "h_g_m", above=0.0)
    check_number(f_c_ghz, "f_c_ghz", above=0.0)
    return 2.0 * math.pi * h_uav_m * h_g_m * (f_c_ghz * 1e9) / _C_3GPP


def rma_ground_los_db(d_3d_m, h_uav_m: float, h_g_m: float, f_c_ghz: float):
    """Ground-slice LOS loss, continuous across the breakpoint.

    Below d2 this is Lambda_1; above, Lambda_2 = Lambda_1(d2) + 40 log10(d/d2).
    """
    d = np.asarray(d_3d_m, dtype=float)
    d2 = rma_breakpoint_m(h_uav_m, h_g_m, f_c_ghz)

    def lam1(dd):
        return (20.0 * np.log10(40.0 * np.pi * dd * f_c_ghz / 3.0)
                + min(0.03 * h_uav_m ** 1.72, 10.0) * np.log10(dd)
                - min(0.044 * h_uav_m ** 1.72, 14.77)
                + 0.002 * dd * math.log10(h_uav_m))

    out = np.where(d <= d2, lam1(d), lam1(d2) + 40.0 * np.log10(d / d2))
    return float(out) if out.ndim == 0 else out


def rma_ground_nlos_db(d_3d_m, h_uav_m: float, h_g_m: float, f_c_ghz: float,
                       env: Environment):
    """Ground-slice NLOS loss: max of the LOS loss and the NLOS fit."""
    d = np.asarray(d_3d_m, dtype=float)
    los = rma_ground_los_db(d, h_uav_m, h_g_m, f_c_ghz)  # checks the numbers
    w = env.street_width_m
    h_b = env.mean_building_height_m
    nlos = (161.04 - 7.1 * math.log10(w) + 7.5 * math.log10(h_b)
            - (24.37 - 3.7 * (h_b / h_g_m) ** 2) * math.log10(h_g_m)
            + (43.42 - 3.1 * math.log10(h_g_m)) * (np.log10(d) - 3.0)
            + 20.0 * math.log10(f_c_ghz)
            - (3.2 * math.log10(11.75 * h_uav_m) ** 2 - 4.97))
    out = np.maximum(los, nlos)
    return float(out) if out.ndim == 0 else out


def aerial_los_db(d_3d_m, h_uav_m: float, f_c_ghz: float):
    """Obstructed/high-altitude slice LOS loss; a hot kernel: d must be finite."""
    check_number(h_uav_m, "h_uav_m", above=0.0)
    check_number(f_c_ghz, "f_c_ghz", above=0.0)
    d = np.asarray(d_3d_m, dtype=float)
    if not np.all(d > 0.0):
        raise DomainError("aerial loss needs d_3d > 0")
    slope = max(23.9 - 1.8 * math.log10(h_uav_m), 20.0)
    out = slope * np.log10(d) + 20.0 * math.log10(40.0 * np.pi * f_c_ghz / 3.0)
    return float(out) if out.ndim == 0 else out


def aerial_nlos_db(d_3d_m, h_uav_m: float, f_c_ghz: float):
    """Obstructed/high-altitude NLOS loss, never below the LOS loss; finite d."""
    los = aerial_los_db(d_3d_m, h_uav_m, f_c_ghz)  # checks the input first
    d = np.asarray(d_3d_m, dtype=float)
    nlos = (-12.0 + (35.0 - 5.3 * math.log10(h_uav_m)) * np.log10(d)
            + 20.0 * math.log10(40.0 * np.pi * f_c_ghz / 3.0))
    out = np.maximum(los, nlos)
    return float(out) if out.ndim == 0 else out


# stated validity windows for the ground-slice fits
RMA_GROUND_LOS_RANGE_M = (10.0, 10_000.0)
RMA_GROUND_NLOS_RANGE_M = (10.0, 5_000.0)
RMA_GROUND_RANGE_M = {True: RMA_GROUND_LOS_RANGE_M, False: RMA_GROUND_NLOS_RANGE_M}


def _check_range(d_h, lo, hi, what):
    d_h = np.asarray(d_h)
    if np.any(d_h < lo) or np.any(d_h > hi):
        raise DomainError(f"{what} valid for {lo} m <= d_h <= {hi} m")


def slice_pl_db(d_3d_m, h_uav_m, h_g_m, f_c_ghz, env: Environment, los: bool,
                slice_: PropagationSlice):
    """3GPP-style loss per slice over an array of d_3d; callers apply the windows."""
    if slice_ is PropagationSlice.GROUND:
        if los:
            return rma_ground_los_db(d_3d_m, h_uav_m, h_g_m, f_c_ghz)
        return rma_ground_nlos_db(d_3d_m, h_uav_m, h_g_m, f_c_ghz, env)
    return (aerial_los_db if los else aerial_nlos_db)(d_3d_m, h_uav_m, f_c_ghz)


def pl_3gpp_rural_db(d_h_m, h_uav_m: float, h_g_m: float, f_c_ghz: float,
                     env: Environment, los: bool, slice_: PropagationSlice):
    """Slice-appropriate 3GPP-style path loss at horizontal distance d_h,
    raising DomainError outside the ground-slice windows."""
    check_number(h_g_m, "h_g_m", above=0.0)
    if slice_ is PropagationSlice.GROUND:
        _check_range(d_h_m, *RMA_GROUND_RANGE_M[los],
                     what=f"ground-slice {'LOS' if los else 'NLOS'}")
    return slice_pl_db(np.hypot(d_h_m, h_uav_m - h_g_m), h_uav_m, h_g_m,
                       f_c_ghz, env, los, slice_)


# ---------------------------------------------------------------------------
# Shadowing table
# ---------------------------------------------------------------------------

def shadowing_sigma_db(slice_: PropagationSlice, los: bool, d_h_m,
                       h_uav_m: float, h_g_m: float, f_c_ghz: float):
    """Large-scale fading standard deviation per the model table (array d_h
    ok); the ground LOS law steps at the breakpoint of h_uav, h_g and f_c."""
    check_number(h_uav_m, "h_uav_m", minimum=0.0)
    if slice_ is PropagationSlice.GROUND:
        if not los:
            return 8.0
        d2 = rma_breakpoint_m(h_uav_m, h_g_m, f_c_ghz)
        out = np.where(np.asarray(d_h_m) <= d2, 4.0, 6.0)
        return float(out) if out.ndim == 0 else out
    if los:     # one LOS law over both aerial slices
        return 4.2 * math.exp(-0.00046 * h_uav_m)
    if slice_ is PropagationSlice.HIGH_ALTITUDE:
        raise ModelGapError("no NLOS shadowing model at high altitude")
    return 6.0


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------

def averaged_pl_db(pl_los_db, pl_nlos_db, p_los):
    """P_LOS-weighted loss, on dB values as the model is written."""
    p = np.asarray(p_los, dtype=float)
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise DomainError("LOS probability must be in [0, 1]")
    out = p * np.asarray(pl_los_db) + (1.0 - p) * np.asarray(pl_nlos_db)
    return float(out) if np.ndim(out) == 0 else out


# Measured log-distance parameterizations, one entry per source row.
# Ranges are (lo, hi); a preset with a range never picks a value silently:
# the constructor below requires an explicit choice inside the range.
MEASURED_LOG_DISTANCE_ROWS = {
    "suburban_open_wideband": {"eta": (2.54, 3.037), "lambda0_db": (21.9, 34.9),
                               "sigma_db": (2.79, 5.3)},
    "suburban_open_narrowband": {"eta": (2.2, 2.6)},
    "open_field_2ghz": {"eta": 2.01},
    "urban_high_sigma": {"eta": 4.1, "sigma_db": 5.24},
    "suburban_low_eta": {"eta": (2.0, 2.25)},
    "l_band_968mhz": {"f_ghz": 0.968, "eta": 1.6, "lambda0_db": 102.3},
    "c_band_5060mhz": {"f_ghz": 5.06, "eta": 1.9, "lambda0_db": 113.9},
    "l_band_968mhz_alt": {"f_ghz": 0.968, "eta": 1.7, "lambda0_db": (98.2, 99.4),
                          "sigma_db": (2.6, 3.1)},
    "c_band_5060mhz_alt": {"f_ghz": 5.06, "eta": (1.5, 2.0),
                           "lambda0_db": (110.4, 116.7), "sigma_db": (2.9, 3.2)},
    "over_sea": {"eta": (1.4, 2.46), "lambda0_db": (19.0, 129.0)},
    "mountains": {"eta": (1.0, 1.8), "lambda0_db": (96.1, 123.9), "sigma_db": (2.2, 3.9)},
    "urban_los_28ghz": {"f_ghz": 28.0, "eta": 2.1, "sigma_db": 3.6},
    "urban_nlos_28ghz": {"f_ghz": 28.0, "eta": 3.4, "sigma_db": 9.7},
    "urban_los_38ghz": {"f_ghz": 38.0, "eta": (1.9, 2.0), "sigma_db": (1.8, 4.4)},
    "urban_nlos_38ghz": {"f_ghz": 38.0, "eta": (2.2, 2.8), "sigma_db": (4.1, 10.8)},
    "urban_los_73ghz": {"f_ghz": 73.0, "eta": 2.0, "sigma_db": (4.2, 5.2)},
    "urban_nlos_73ghz": {"f_ghz": 73.0, "eta": (3.3, 3.5), "sigma_db": (7.6, 7.9)},
}


def _resolve_preset_field(row, name, field, explicit):
    spec = row.get(field)
    if spec is None:
        return explicit
    if isinstance(spec, tuple):
        if explicit is None:
            raise DomainError(
                f"preset {name!r} gives a range {spec} for {field}; pick a value")
        if not spec[0] <= explicit <= spec[1]:
            raise DomainError(
                f"{field}={explicit} outside the measured range {spec} of {name!r}")
        return explicit
    if explicit is not None and explicit != spec:
        raise DomainError(f"preset {name!r} fixes {field}={spec}")
    return spec


@dataclass(frozen=True)
class LogDistance:
    """A measured log-distance row with every value resolved; evaluate it as
    `log_distance_pl_db(d, row.lambda0_db, row.eta)`."""

    frequency_hz: float
    eta: float
    lambda0_db: float
    sigma_db: float

    def __post_init__(self):
        for name in ("frequency_hz", "eta"):
            check_number(getattr(self, name), name, above=0.0)
        check_number(self.lambda0_db, "lambda0_db")
        check_number(self.sigma_db, "sigma_db", minimum=0.0)


def log_distance_from_preset(name: str, frequency_hz: float = None, *,
                             eta: float = None, lambda0_db: float = None,
                             sigma_db: float = None) -> LogDistance:
    """Resolve a measured row, requiring explicit picks wherever the source
    reports a range; a row without Lambda_0 takes the Friis loss at D0_M."""
    row = MEASURED_LOG_DISTANCE_ROWS.get(name)
    if row is None:
        raise DomainError(f"unknown measured preset {name!r}")
    if frequency_hz is None:
        if "f_ghz" not in row:
            raise DomainError(f"preset {name!r} needs an explicit carrier frequency")
        frequency_hz = row["f_ghz"] * 1e9
    eta = _resolve_preset_field(row, name, "eta", eta)
    lambda0_db = _resolve_preset_field(row, name, "lambda0_db", lambda0_db)
    sigma_db = _resolve_preset_field(row, name, "sigma_db", sigma_db) or 0.0
    if lambda0_db is None:
        lambda0_db = free_space_reference_loss_db(frequency_hz)
    return LogDistance(frequency_hz, eta, lambda0_db, sigma_db)


def sample_link_loss_db(pl_db, sigma_db, p_los: float, rng: np.random.Generator,
                        fading_m: tuple[int, int], n: int):
    """Draw n links' total loss H = PL + X_LS - 10 log10(X_SS) and LOS flags.

    `pl_db`, `sigma_db` and `fading_m` are (LOS, NLOS) pairs, each a tuple
    or list of two, of path loss and shadowing std in dB, from whichever
    model the caller evaluates, and of the integer Nakagami m; each loss
    must be finite. `p_los` is the LOS probability. The LOS uniforms are
    drawn first, then per state, LOS first, the shadowing normals and the
    fading gains. Returns (loss_db, los_flag), arrays of n.
    """
    for name, pair in (("pl_db", pl_db), ("sigma_db", sigma_db),
                       ("fading_m", fading_m)):
        if not isinstance(pair, (tuple, list)) or len(pair) != 2:
            raise DomainError(f"{name} must be a (LOS, NLOS) pair")
    for pl in pl_db:
        check_number(pl, "pl_db")
    check_number(p_los, "p_los", minimum=0.0, maximum=1.0)
    for m in fading_m:
        check_count(m, "fading_m", 1)
    check_count(n, "n", 0)
    flags = rng.random(n) < p_los
    loss = np.empty(n, dtype=float)
    for state, pl, sigma, m in ((True, pl_db[0], sigma_db[0], fading_m[0]),
                                (False, pl_db[1], sigma_db[1], fading_m[1])):
        idx = np.nonzero(flags == state)[0]
        if idx.size == 0:
            continue
        shad = sample_shadowing_db(sigma, rng, idx.size)
        fade_db = -10.0 * np.log10(sample_fading(m, rng, idx.size))
        loss[idx] = pl + shad + fade_db
    return loss, flags

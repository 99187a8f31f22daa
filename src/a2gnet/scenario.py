"""Scenario files: a validated YAML tree drives every CLI run.

All model parameters live in the file; the command line only overrides the
seed and output directory. Unknown keys are rejected with their full path
so a typo like `bs_densty` fails loudly, and bounded numbers (list items
too) name the offending path, e.g. `run.altitudes_m[2]`. NaN and infinite
numbers are rejected everywhere, and so is a key repeated within one
mapping.

The schema states what each run reads. A field's `read_when` conditions
name the keys that switch it off (`aue.phi_b_deg` is read only under
`aue.antenna: cone`), and a sweep never reads the key its axis varies.
`aue.bandwidth_mhz` has the one "or" rule: the noise from density reads it,
and so does a rate target. A file that sets a key the run would not read
is rejected after the type and bound checks, naming both keys; null counts
as unset. The canonical form from `serialize_scenario` leaves those keys
out, so it holds exactly what the run reads.

An `environment` block names a preset and overrides only the keys its
command's model reads; an override keeps the preset's mean building
height unless the file sets it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional

import yaml

from .abs_net import MAX_RADIUS_M
from .aue_net import COVERAGE_MIN_TRIALS, capacity_coefficients, mean_site_count
from .channel import (ENV_PRESETS, MAX_MODELED_ALTITUDE_M, MIN_ANTENNA_HEIGHT_M,
                      SLICE_CEILINGS_M)
from .errors import BoundError, DomainError, ScenarioError, check_number
from .heightmap import FLOAT_FMT, MAX_SURFACE_M, synthetic_cells
from .mapsim import MAST_M
from .numerics import db_to_linear

@dataclass(frozen=True)
class Field:
    kind: type = float
    default: Any = None
    required: bool = False
    choices: tuple = None
    minimum: Any = None            # inclusive bounds for numbers
    maximum: Any = None
    above: Any = None              # strict lower bound, for logs and divisors
    below: Any = None              # strict upper bound
    item_kind: type = float        # for list fields
    schema: dict = None            # for nested blocks
    # (dotted path, allowed values) conditions on the parsed document; the
    # run reads the key only when every one holds
    read_when: tuple = ()


# every power, gain, loss and target in dB lies within +-DB_LIMIT, which
# keeps each link-budget product finite; a K past about 110 dB is beyond
# scipy's noncentral chi-square and exits 1 as a model error
DB_LIMIT = 150.0
# well above any aerial platform (stratospheric ones fly near 20 km)
MAX_PLATFORM_ALTITUDE_M = 1e5
# beyond the radio horizon of a UE at the highest modeled altitude (70 km)
MAX_RANGE_M = 1e5
# the top of the EHF band; no bandwidth is wider than its carrier
MAX_FREQUENCY_GHZ = 300.0
# 1 MHz, below any cellular carrier; a subnormal carrier has an infinite
# wavelength, and its free-space loss is the log of 0
MIN_FREQUENCY_GHZ = 1e-3
MAX_BANDWIDTH_MHZ = MAX_FREQUENCY_GHZ * 1e3
# an ultra-dense layout with about 10 m between base stations, and
# between buildings
MAX_BS_DENSITY_PER_KM2 = 1e4
MAX_BUILDINGS_PER_KM2 = 1e4
# the Poisson mean of sites per AUE snapshot, density times the area of
# aue.region_radius_m: a snapshot's site arrays grow with it (about 200 MB
# over 16 trials at this mean), and density and radius each at their own
# ceiling would give 3e8
MAX_MEAN_SITES = 5e4
# a rate target past 50 b/s/Hz needs an SINR target past DB_LIMIT
MAX_SPECTRAL_EFFICIENCY = 50.0
# no beam is wider than the full circle
MAX_BEAMWIDTH_DEG = 360.0
# the sector pattern's 12 (angle / beamwidth)^2 overflows under about
# 1e-150 degrees; a thousandth of a degree is far narrower than any sector
MIN_SECTOR_BEAMWIDTH_DEG = 1e-3
# the cone's gain 29000 / phi_b^2 stays within DB_LIMIT; a subnormal
# opening angle squares to 0
MIN_CONE_BEAMWIDTH_DEG = math.sqrt(29000.0
                                   / db_to_linear(DB_LIMIT, "DB_LIMIT"))
# path-loss exponents run from 2 in free space to about 6 in dense cover;
# every exponent key shares this stated ceiling past both
MAX_PATH_LOSS_EXPONENT = 10.0
# a capacity quadrature converges well before 10^5 nodes, and the nodes
# stay a few MB
MAX_CAPACITY_NODES = 10 ** 5
# Monte Carlo trials of an aerial-UE run: far below 2**32, the trial keys
# RngStream.child_generators takes; the SINR matrix holds 8 bytes per trial
# and evaluated point (80 MB per point here), and 1e7 trials put a coverage
# estimate's 95% interval within +-3.1e-4
MAX_TRIALS = 10 ** 7
# anchor points on one localization circle: the search grid holds 441
# distances per anchor and an LM Jacobian costs about 1 us per anchor, so at
# this ceiling a grid is 3.5 MB and a Jacobian about 1 ms
MAX_ANCHOR_POINTS = 1000
# solves in one localize campaign, n_users times trials_per_user: each keeps
# two errors (about 80 bytes of lists and arrays) and takes under 1 ms at 3-5
# anchors, so a campaign at this ceiling holds 80 MB and runs for minutes
MAX_LOCALIZE_SOLVES = 10 ** 6
# solves in one localize run, its (altitude, radius, m_points) campaigns
# together: a solve takes 0.3-0.6 ms (the shipped run and the bench), so a
# run at this ceiling takes one to two hours; the shipped run makes 3000
MAX_LOCALIZE_RUN_SOLVES = 10 ** 7
# rays one mapsim run casts, sites x heights x strided cells: los_mask takes
# 3 us a ray at one height and 1.0-1.6 us at 7-28 heights (2-core Xeon, the
# shipped city at stride 1), so a run at this ceiling casts for 2-5 minutes,
# its LOS masks hold a byte a ray (100 MB), and the height-independent part
# of its link budgets 32 bytes a (site, cell) link (3.2 GB at one height);
# the shipped run casts 31500 rays, and 504000 at stride 1
MAX_MAPSIM_RAYS = 10 ** 8
# altitude trials of one aue-coverage run, altitudes_m times n_trials: a
# trial takes about 54 us at the default 5 sites per km^2 (2-core Xeon; more
# at a higher density) and an altitude's samples go once its rows are kept,
# so a run at this ceiling takes about 1.5 hours; the shipped run draws 20000
MAX_COVERAGE_TRIALS = 10 ** 8
# (altitude, threshold) rows of one aue-coverage table, altitudes_m times
# thresholds_db: a row takes about 12 us (half to estimate, half to write)
# and 280 bytes at the peak whatever n_trials is, so a table at this ceiling
# takes about a second and peaks near 30 MB; the shipped one has 30 rows
MAX_COVERAGE_ROWS = 10 ** 5
# SINR compares of one aue-coverage run, altitudes_m times thresholds_db
# times n_trials: each row is one pass over its altitude's samples, about
# 1 ns a compare at 10^5-10^7 trials (2-core Xeon), so a run at this ceiling
# compares for about 2 minutes on top of its trials; the shipped run makes
# 60000
MAX_COVERAGE_COMPARES = 10 ** 11
# point trials of one aue-sweep run, grid times n_trials: the SINR matrix
# holds 8 bytes per unit (80 MB here, one point at MAX_TRIALS) and a unit
# takes 18-30 us at the default density, so a run at this ceiling takes 3-5
# minutes; the shipped run evaluates 14000
MAX_SWEEP_TRIALS = 10 ** 7
# cells of one channel table, altitudes_m times distances_m: a cell takes
# 24-35 us and about 650 bytes at the peak (its row and CSV text), so a table
# at this ceiling takes a few seconds and peaks near 65 MB; the shipped one
# has 48 cells
MAX_CHANNEL_CELLS = 10 ** 5
# rows of one abs-design table, one per altitude: a row takes about 0.2 ms
# and 0.5 kB at the peak, so a table at this ceiling takes about 20 s and
# peaks near 50 MB; the shipped one has 6 rows
MAX_ABS_ROWS = 10 ** 5


# every environment key, bounded once: building P_LOS and the synthetic
# city read the building statistics, the 3GPP slices the slice keys
_ENV_FIELDS = {
    "kind": Field(kind=str, choices=tuple(SLICE_CEILINGS_M)),
    "varsigma": Field(minimum=0.0, maximum=1.0),
    "xi": Field(above=0.0, maximum=MAX_BUILDINGS_PER_KM2),
    # heights, the Rayleigh scale included, within the modelled envelope
    "omega": Field(above=0.0, maximum=MAX_MODELED_ALTITUDE_M),
    "mean_building_height_m": Field(above=0.0, maximum=MAX_MODELED_ALTITUDE_M),
    "street_width_m": Field(above=0.0),
}
_BUILDING_KEYS = ("varsigma", "xi", "omega")
_SLICE_KEYS = ("kind", "mean_building_height_m", "street_width_m")


def _env_schema(keys, default_preset="urban", read_when=()):
    return Field(kind=dict, read_when=read_when, schema={
        "preset": Field(kind=str, default=default_preset,
                        choices=tuple(ENV_PRESETS)),
        **{key: f for key, f in _ENV_FIELDS.items() if key in keys},
    })


def _db(default, read_when=()):
    return Field(default=default, minimum=-DB_LIMIT, maximum=DB_LIMIT,
                 read_when=read_when)


_FREQUENCY_GHZ = Field(default=1.8, minimum=MIN_FREQUENCY_GHZ,
                       maximum=MAX_FREQUENCY_GHZ)
_BANDWIDTH_MHZ = Field(default=20.0, above=0.0, maximum=MAX_BANDWIDTH_MHZ)
_DOWNTILT_DEG = Field(default=8.0, minimum=-90.0, maximum=90.0)


def _sector_beamwidth(default):
    # no narrower than the floor the pattern stays finite over
    return Field(default=default, minimum=MIN_SECTOR_BEAMWIDTH_DEG,
                 maximum=MAX_BEAMWIDTH_DEG)


_NOISE_FROM_DENSITY = (("aue.noise_override_dbm", (None,)),)
_CONE = (("aue.antenna", ("cone",)),)
_OMNI = (("aue.antenna", ("omni",)),)
_COVERAGE_SWEEP = (("sweep.metric", ("coverage",)),)
_CAPACITY_SWEEP = (("sweep.metric", ("capacity",)),)

_AUE_BLOCK = {
    "frequency_ghz": _FREQUENCY_GHZ,
    "bs_density_per_km2": Field(default=5.0, above=0.0,
                                maximum=MAX_BS_DENSITY_PER_KM2),
    "bs_height_m": Field(default=30.0, minimum=0.0,
                         maximum=MAX_MODELED_ALTITUDE_M),
    "p_tx_dbm": _db(43.0),
    # N = N0 F B reads it, and so does a rate target (see _unread)
    "bandwidth_mhz": replace(_BANDWIDTH_MHZ, read_when=_NOISE_FROM_DENSITY),
    # thermal noise kT is -174 dBm/Hz at 290 K; -200 is under 1 K, and -100
    # far above any receiver's (its noise figure carries the rest)
    "noise_density_dbm_hz": Field(default=-174.0, minimum=-200.0,
                                  maximum=-100.0,
                                  read_when=_NOISE_FROM_DENSITY),
    "noise_figure_db": _db(9.0, _NOISE_FROM_DENSITY),
    "noise_override_dbm": _db(None),
    "eta_los": Field(default=2.0, above=0.0, maximum=MAX_PATH_LOSS_EXPONENT),
    "eta_nlos": Field(default=3.5, above=0.0, maximum=MAX_PATH_LOSS_EXPONENT),
    "nlos_excess_db": _db(20.0),
    "fading_m_los": Field(kind=int, default=3, minimum=1),
    "fading_m_nlos": Field(kind=int, default=1, minimum=1),
    "region_radius_m": Field(default=3000.0, above=0.0, maximum=MAX_RANGE_M),
    "antenna": Field(kind=str, default="omni", choices=("omni", "cone")),
    "phi_b_deg": Field(default=60.0, minimum=MIN_CONE_BEAMWIDTH_DEG,
                       maximum=180.0, read_when=_CONE),
    "phi_t_deg": Field(default=0.0, minimum=0.0, maximum=180.0,
                       read_when=_CONE),
    "omni_gain_dbi": _db(2.15, _OMNI),
    "sector_max_gain_dbi": _db(16.0),
    "sector_downtilt_deg": _DOWNTILT_DEG,
    "sector_beamwidth_deg": _sector_beamwidth(65.0),
    "sector_elevation_beamwidth_deg": _sector_beamwidth(6.0),
    "sector_sidelobe_floor_db": Field(default=20.0, above=0.0,
                                      maximum=DB_LIMIT),
    "environment": _env_schema(_BUILDING_KEYS),
}

# only a coverage sweep reads an SINR target; a phi_b sweep fits a cone
_AUE_SWEEP_BLOCK = {
    **_AUE_BLOCK,
    "threshold_db": _db(0.0, (*_COVERAGE_SWEEP,
                              ("aue.target_rate_mbps", (None,)))),
    # at most MAX_SPECTRAL_EFFICIENCY times bandwidth_mhz (checked below)
    "target_rate_mbps": Field(default=None, above=0.0,
                              read_when=_COVERAGE_SWEEP),
    "omni_gain_dbi": _db(2.15, (*_OMNI, ("sweep.axis",
                                         ("altitude", "density", "phi_t")))),
}

SCHEMAS: Dict[str, dict] = {
    "channel-table": {
        "channel": Field(kind=dict, schema={
            "frequency_ghz": _FREQUENCY_GHZ,
            # the 3GPP ground fits start at a 1 m terminal; under it the
            # (h_b / h_g)^2 term of the NLOS fit overflows
            "h_g_m": Field(default=30.0, minimum=MIN_ANTENNA_HEIGHT_M,
                           maximum=MAX_MODELED_ALTITUDE_M),
            # the ground fits' breakpoint and log10 of the altitude break
            # down under the same 1 m terminal
            "altitudes_m": Field(kind=list, default=[1.5, 30.0, 150.0],
                                 minimum=MIN_ANTENNA_HEIGHT_M,
                                 maximum=MAX_MODELED_ALTITUDE_M),
            "distances_m": Field(kind=list,
                                 default=[50.0, 100.0, 200.0, 500.0, 1000.0],
                                 minimum=0.0, maximum=MAX_RANGE_M),
            "environment": _env_schema((*_BUILDING_KEYS, *_SLICE_KEYS)),
        }),
    },
    "aue-coverage": {
        "aue": Field(kind=dict, schema=_AUE_BLOCK),
        "run": Field(kind=dict, schema={
            "altitudes_m": Field(kind=list, default=[30.0, 60.0, 120.0],
                                 minimum=0.0, maximum=MAX_MODELED_ALTITUDE_M),
            "thresholds_db": Field(kind=list, default=[0.0],
                                   minimum=-DB_LIMIT, maximum=DB_LIMIT),
            "n_trials": Field(kind=int, default=2000, minimum=1,
                              maximum=MAX_TRIALS),
        }),
    },
    "aue-sweep": {
        "aue": Field(kind=dict, schema=_AUE_SWEEP_BLOCK),
        "sweep": Field(kind=dict, schema={
            "axis": Field(kind=str, required=True,
                          choices=("altitude", "density", "phi_b", "phi_t")),
            # bounded by the axis's own key (checked below)
            "grid": Field(kind=list, required=True),
            "uav_h_m": Field(default=150.0, minimum=0.0,
                             maximum=MAX_MODELED_ALTITUDE_M),
            "metric": Field(kind=str, default="capacity",
                            choices=("capacity", "coverage")),
            "n_trials": Field(kind=int, default=2000, minimum=1,
                              maximum=MAX_TRIALS),
            "k_nodes": Field(kind=int, default=200, minimum=50,
                             maximum=MAX_CAPACITY_NODES,
                             read_when=_CAPACITY_SWEEP),
            "t_max_db": _db(None, _CAPACITY_SWEEP),
        }),
    },
    "abs-design": {
        "abs": Field(kind=dict, schema={
            "k0_db": _db(0.0),
            "k90_db": _db(15.0),
            # path-loss exponents from free space up to a stated ceiling
            "eta0": Field(default=3.5, minimum=2.0,
                          maximum=MAX_PATH_LOSS_EXPONENT),
            "eta90": Field(default=2.0, minimum=2.0,
                           maximum=MAX_PATH_LOSS_EXPONENT),
            "antenna_gain_db": _db(0.0),
            "noise_dbm": _db(-92.0),
            "threshold_db": _db(0.0),
            # under about 1.1e-16, 1 - epsilon rounds to 1 and the required
            # power is infinite; 1e-12 keeps four digits of 1 - epsilon
            "epsilon": Field(default=0.05, minimum=1e-12, below=1.0),
            # a sub-metre disc underflows the required power; the ceiling is
            # abs_net.coverage_radius's search cap
            "r_c_m": Field(default=500.0, minimum=1.0, maximum=MAX_RADIUS_M),
            "altitudes_m": Field(kind=list,
                                 default=[50.0, 100.0, 200.0, 400.0, 800.0],
                                 minimum=0.0, maximum=MAX_PLATFORM_ALTITUDE_M),
        }),
    },
    "localize": {
        "localize": Field(kind=dict, schema={
            "m_points": Field(kind=list, item_kind=int, default=[3, 4],
                              minimum=3, maximum=MAX_ANCHOR_POINTS),
            "radii_m": Field(kind=list, default=[120.0], above=0.0,
                             maximum=MAX_RANGE_M),
            "altitudes_m": Field(kind=list, default=[200.0], above=0.0,
                                 maximum=MAX_PLATFORM_ALTITUDE_M),
            # at most MAX_LOCALIZE_SOLVES with trials_per_user (checked below)
            "n_users": Field(kind=int, default=100, minimum=1,
                             maximum=MAX_LOCALIZE_SOLVES),
            "user_area_radius_m": Field(default=200.0, above=0.0,
                                        maximum=MAX_RANGE_M),
            "trials_per_user": Field(kind=int, default=1, minimum=1,
                                     maximum=MAX_LOCALIZE_SOLVES),
            "state_mode": Field(kind=str, default="independent",
                                choices=("independent", "common", "los", "nlos")),
            # shadowing sigma a exp(-b theta) dB: a positive, b >= 0
            "a_los": Field(default=10.0, above=0.0, maximum=DB_LIMIT),
            # at 20/rad the zenith sigma is e^(-10 pi) < 1e-13 of a_los
            "b_los": Field(default=2.0, minimum=0.0, maximum=20.0),
            "a_nlos": Field(default=30.0, above=0.0, maximum=DB_LIMIT),
            # the same ceiling: a faster decay leaves no NLOS shadowing
            "b_nlos": Field(default=1.7, minimum=0.0, maximum=20.0),
            # LOS probability 1/(1 + a_o exp(-b_o (theta - a_o))): a_o >= 0
            # keeps it in [0, 1], b_o >= 0 keeps it rising with elevation,
            # and a_o is also the elevation in degrees where it turns
            "a_o": Field(default=47.0, minimum=0.0, maximum=90.0),
            # at 100/degree the 10-90% LOS step is 2 ln 9 / 100 < 0.05 deg
            "b_o": Field(default=20.0, minimum=0.0, maximum=100.0),
            # the range inversion 10^(loss / (10 eta)) overflows as eta -> 0;
            # no path loss grows slower than with distance itself
            "eta_los": Field(default=2.0, minimum=1.0,
                             maximum=MAX_PATH_LOSS_EXPONENT),
            "eta_nlos": Field(default=3.0, minimum=1.0,
                              maximum=MAX_PATH_LOSS_EXPONENT),
        }),
    },
    "mapsim": {
        "mapsim": Field(kind=dict, schema={
            "heightmap": Field(kind=str, default=None),
            "synthetic": Field(kind=dict, read_when=(
                ("mapsim.heightmap", (None,)),), schema={
                "extent_m": Field(default=480.0, above=0.0,
                                  maximum=MAX_RANGE_M),
                # a whole number of cells spans extent_m (checked below)
                "cellsize_m": Field(default=4.0, above=0.0),
                "min_height_m": Field(default=4.0, minimum=0.0,
                                      maximum=MAX_MODELED_ALTITUDE_M),
                "environment": _env_schema(_BUILDING_KEYS, "dense_urban"),
            }),
            "sites_csv": Field(kind=str, default=None),
            "auto_sites": Field(kind=dict, read_when=(
                ("mapsim.sites_csv", (None,)),), schema={
                # the automatic layout has 9 positions
                "count": Field(kind=int, default=5, minimum=1, maximum=9),
                "p_tx_dbm": _db(46.0),
                # a site on bare ground is still a ground terminal
                "mast_m": Field(default=5.0, minimum=MIN_ANTENNA_HEIGHT_M,
                                maximum=MAX_MODELED_ALTITUDE_M),
                "downtilt_deg": _DOWNTILT_DEG,
                "max_gain_dbi": _db(16.0),
                "beamwidth_deg": _sector_beamwidth(65.0),
            }),
            # the ground fits break down under a 1 m terminal, as for
            # channel.altitudes_m
            "heights_m": Field(kind=list, default=[1.5, 20.0, 60.0, 150.0],
                               minimum=MIN_ANTENNA_HEIGHT_M,
                               maximum=MAX_MODELED_ALTITUDE_M),
            "threshold_db": _db(-6.0),
            "stride": Field(kind=int, default=4, minimum=1),
            "frequency_ghz": _FREQUENCY_GHZ,
            "bandwidth_mhz": _BANDWIDTH_MHZ,
            "noise_figure_db": _db(9.0),
            "pl_model": Field(kind=str, default="threegpp",
                              choices=("threegpp", "free_space")),
            "emit_rasters": Field(kind=bool, default=True),
            # LOS comes from the map; the free-space loss has no environment
            "environment": _env_schema(_SLICE_KEYS, "dense_urban", (
                ("mapsim.pl_model", ("threegpp",)),)),
        }),
    },
}

# the command names, in the order of SCHEMAS
COMMANDS = tuple(SCHEMAS)

# the bounds of a site CSV's columns (cli._load_sites reads it; x and y lie
# on its map, and the bearing is any finite angle): each column takes those
# of its mapsim.auto_sites twin, and roof_h those of the map cell an automatic
# site stands on, with the antenna MAST_M above it no lower than a ground
# antenna
_AUTO_SITES = SCHEMAS["mapsim"]["mapsim"].schema["auto_sites"].schema
SITE_CSV_FIELDS = {
    "roof_h": Field(minimum=MIN_ANTENNA_HEIGHT_M - MAST_M,
                    maximum=MAX_SURFACE_M),
    "p_tx_dbm": _AUTO_SITES["p_tx_dbm"],
    "tilt_deg": _AUTO_SITES["downtilt_deg"],
    "max_gain_dbi": _AUTO_SITES["max_gain_dbi"],
    "beamwidth_deg": _AUTO_SITES["beamwidth_deg"],
}

# the work of a run past which it is rejected, one row per ceiling: (the
# key named, its ceiling, the message, the count of work units in the key's
# block); a run breaking several is named by the first
_WORK_CEILINGS = {
    "aue-coverage": (
        ("run.altitudes_m", MAX_COVERAGE_TRIALS,
         "times n_trials gives more than {:g} trials per run",
         lambda b: len(b["altitudes_m"]) * b["n_trials"]),
        ("run.thresholds_db", MAX_COVERAGE_ROWS,
         "times altitudes_m gives more than {:g} rows per table",
         lambda b: len(b["altitudes_m"]) * len(b["thresholds_db"])),
        ("run.thresholds_db", MAX_COVERAGE_COMPARES,
         "times altitudes_m and n_trials gives more than {:g} compares per run",
         lambda b: len(b["altitudes_m"]) * len(b["thresholds_db"])
         * b["n_trials"])),
    "aue-sweep": (
        ("sweep.grid", MAX_SWEEP_TRIALS,
         "times n_trials gives more than {:g} trials per run",
         lambda b: len(b["grid"]) * b["n_trials"]),),
    "channel-table": (
        ("channel.altitudes_m", MAX_CHANNEL_CELLS,
         "times distances_m gives more than {:g} cells per table",
         lambda b: len(b["altitudes_m"]) * len(b["distances_m"])),),
    "abs-design": (
        ("abs.altitudes_m", MAX_ABS_ROWS, "gives more than {:g} rows per table",
         lambda b: len(b["altitudes_m"])),),
    "localize": (
        ("localize.n_users", MAX_LOCALIZE_SOLVES,
         "times trials_per_user gives more than {:g} solves per campaign",
         lambda b: b["n_users"] * b["trials_per_user"]),
        ("localize.radii_m", MAX_LOCALIZE_RUN_SOLVES,
         "times altitudes_m, m_points, n_users and trials_per_user gives "
         "more than {:g} solves per run",
         lambda b: len(b["altitudes_m"]) * len(b["radii_m"])
         * len(b["m_points"]) * b["n_users"] * b["trials_per_user"])),
}

# the key whose bounds each sweep axis's grid values take
_SWEEP_AXIS_KEYS = {"altitude": ("sweep", "uav_h_m"),
                    "density": ("aue", "bs_density_per_km2"),
                    "phi_b": ("aue", "phi_b_deg"),
                    "phi_t": ("aue", "phi_t_deg")}

_TOP_LEVEL = {
    "command": Field(kind=str, required=True, choices=COMMANDS),
    # the master seed of numerics.RngStream is a 64-bit integer
    "seed": Field(kind=int, default=0, minimum=0, maximum=2 ** 64 - 1),
    "output": Field(kind=str, default=None),
}


@dataclass
class Scenario:
    command: str
    seed: int
    output: Optional[str]
    params: Dict[str, Any] = field(default_factory=dict)


def _coerce(value, f: Field, path: str):
    if value is None:
        # null stands for "unset" only where unset is the default
        if f.default is None and not f.required:
            return None
        raise ScenarioError("must not be null", path)
    if f.kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ScenarioError("expected a number", path)
        try:    # float() of an integer past the float range overflows
            return check_number(float(value), path)
        except (OverflowError, DomainError):
            raise ScenarioError("must be a finite number", path) from None
    if f.kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ScenarioError("expected an integer", path)
        return int(value)
    if f.kind is bool:
        if not isinstance(value, bool):
            raise ScenarioError("expected true/false", path)
        return value
    if f.kind is str:
        if not isinstance(value, str):
            raise ScenarioError("expected a string", path)
        if f.choices and value not in f.choices:
            raise ScenarioError(
                f"must be one of {', '.join(map(str, f.choices))}", path)
        return value
    if f.kind is list:
        if not isinstance(value, list) or not value:
            raise ScenarioError("expected a nonempty list", path)
        item = Field(kind=f.item_kind, required=True)
        return [_coerce(v, item, f"{path}[{i}]") for i, v in enumerate(value)]
    raise ScenarioError("unsupported field kind", path)  # pragma: no cover


def check_bounds(value, f: Field, path: str):
    """Reject a number (or each item of a list) outside the bounds of f,
    naming path."""
    if isinstance(value, list):
        for i, item in enumerate(value):
            check_bounds(item, f, f"{path}[{i}]")
        return
    if value is None or isinstance(value, str):
        return
    try:
        check_number(value, path, f.minimum, f.above, f.maximum, f.below)
    except BoundError as exc:
        raise ScenarioError(exc.rule, path) from None


def _validate_value(value, f: Field, path: str):
    value = _coerce(value, f, path)
    check_bounds(value, f, path)
    return value


def validate_seed(value) -> int:
    """Check a command-line seed override as the scenario file's seed is
    checked."""
    return _validate_value(value, _TOP_LEVEL["seed"], "seed")


def _validate_block(data, schema: dict, path: str):
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ScenarioError("expected a mapping", path)
    out = {}
    for key in data:
        if key not in schema:
            raise ScenarioError(f"unknown key {key!r}", f"{path}.{key}" if path else key)
    for key, f in schema.items():
        sub_path = f"{path}.{key}" if path else key
        if f.schema is not None:
            out[key] = _validate_block(data.get(key), f.schema, sub_path)
            continue
        if key in data:
            out[key] = _validate_value(data[key], f, sub_path)
        elif f.required:
            raise ScenarioError("missing required key", sub_path)
        else:
            out[key] = f.default
    return out


def _lookup(tree, path: str):
    """The value at a dotted path, None where any part is missing."""
    for key in path.split("."):
        if not isinstance(tree, dict):
            return None
        tree = tree.get(key)
    return tree


def _unread(doc: dict, schema: dict, swept: str, path: str = ""):
    """Yield (path, reason) for each key of the parsed document that the
    run does not read; a block that is not read is not walked into."""
    for key, f in schema.items():
        sub_path = f"{path}.{key}" if path else key
        off = [cond for cond, allowed in f.read_when
               if _lookup(doc, cond) not in allowed]
        if sub_path == swept:
            off.append("sweep.axis")
        # T = 2^(R/B) - 1 reads the bandwidth whatever the noise model
        if sub_path == "aue.bandwidth_mhz" and \
                _lookup(doc, "aue.target_rate_mbps") is not None:
            off = []
        if off:
            yield sub_path, f"not read when {off[0]} is {_lookup(doc, off[0])}"
        elif f.schema is not None:
            yield from _unread(doc, f.schema, swept, sub_path)


def _swept_key(doc: dict) -> str:
    """The dotted key a sweep's axis varies; a sweep never reads it."""
    if doc["command"] != "aue-sweep":
        return None
    return ".".join(_SWEEP_AXIS_KEYS[doc["sweep"]["axis"]])


class _UniqueKeyLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """A safe loader that rejects a key repeated within one mapping, where
    the plain loader keeps the last. Merge keys (`<<`) keep their meaning:
    a key set beside them overrides the merged one. It parses with libyaml
    where PyYAML was built with it (several times faster on long lists)."""

    def construct_mapping(self, node, deep=False):
        if isinstance(node, yaml.MappingNode):
            seen = set()
            for key_node, _ in node.value:
                if not isinstance(key_node, yaml.ScalarNode) or \
                        key_node.tag == "tag:yaml.org,2002:merge":
                    continue
                key = self.construct_object(key_node)
                if key in seen:
                    raise ScenarioError(f"duplicate key {key!r} on line "
                                        f"{key_node.start_mark.line + 1}")
                seen.add(key)
        return super().construct_mapping(node, deep=deep)


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate a scenario document."""
    try:
        raw = yaml.load(text, Loader=_UniqueKeyLoader)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"not valid YAML: {exc}")
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be a key-value mapping")
    command = raw.get("command")
    if command is None:
        raise ScenarioError("missing required key", "command")
    if command not in COMMANDS:
        raise ScenarioError(f"must be one of {', '.join(COMMANDS)}", "command")
    schema = SCHEMAS[command]
    doc = _validate_block(raw, {**_TOP_LEVEL, **schema}, "")
    params = {key: doc[key] for key in schema}
    aue = params.get("aue")
    if (aue is not None and aue.get("target_rate_mbps") is not None
            and aue["target_rate_mbps"]
            > MAX_SPECTRAL_EFFICIENCY * aue["bandwidth_mhz"]):
        raise ScenarioError(f"must be at most {MAX_SPECTRAL_EFFICIENCY:g} "
                            "times bandwidth_mhz", "aue.target_rate_mbps")
    if command == "aue-sweep":
        sweep = params["sweep"]
        block, key = _SWEEP_AXIS_KEYS[sweep["axis"]]
        check_bounds(sweep["grid"], schema[block].schema[key], "sweep.grid")
        if sweep["metric"] == "coverage" and sweep["n_trials"] < COVERAGE_MIN_TRIALS:
            raise ScenarioError(f"must be at least {COVERAGE_MIN_TRIALS} "
                                "for metric coverage", "sweep.n_trials")
        if sweep["axis"] == "phi_t" and aue["antenna"] != "cone":
            raise ScenarioError("a tilt sweep needs aue.antenna cone",
                                "sweep.axis")
        if sweep["metric"] == "capacity" and sweep["t_max_db"] is not None:
            try:
                capacity_coefficients(sweep["k_nodes"],
                                      db_to_linear(sweep["t_max_db"],
                                                   "sweep.t_max_db"))
            except DomainError as exc:
                raise ScenarioError(str(exc), "sweep.t_max_db") from exc
    if aue is not None:
        density = aue["bs_density_per_km2"]
        if command == "aue-sweep" and params["sweep"]["axis"] == "density":
            density = max(params["sweep"]["grid"])
        if mean_site_count(density, aue["region_radius_m"]) > MAX_MEAN_SITES:
            raise ScenarioError(
                f"times the area of aue.region_radius_m gives a mean of more "
                f"than {MAX_MEAN_SITES:g} sites per snapshot",
                "aue.bs_density_per_km2")
    for key, ceiling, message, count in _WORK_CEILINGS.get(command, ()):
        if count(params[key.split(".")[0]]) > ceiling:
            raise ScenarioError(message.format(ceiling), key)
    if command == "mapsim":
        b = params["mapsim"]
        syn = b["synthetic"]
        try:
            n = synthetic_cells(syn["extent_m"], syn["cellsize_m"])
        except DomainError as exc:
            raise ScenarioError(str(exc), "mapsim.synthetic.cellsize_m") from exc
        if b["heightmap"] is None:
            # a site CSV holds at least one site
            check_mapsim_rays(b["auto_sites"]["count"]
                              if b["sites_csv"] is None else 1,
                              b["heights_m"], n, n, b["stride"])
        # a height names its raster and its summary row as it prints
        printed = set()
        for i, h in enumerate(b["heights_m"]):
            name = FLOAT_FMT % h
            if name in printed:
                raise ScenarioError(f"prints as {name}, as an earlier height "
                                    "does: their rasters and summary rows "
                                    "would collide", f"mapsim.heights_m[{i}]")
            printed.add(name)
    for path, reason in _unread(doc, schema, _swept_key(doc)):
        if _lookup(raw, path) is not None:
            raise ScenarioError(reason, path)
    return Scenario(command=command, seed=doc["seed"], output=doc["output"],
                    params=params)


def check_mapsim_rays(sites: int, heights, nrows: int, ncols: int,
                      stride: int):
    """Reject a mapsim run on an nrows x ncols map that casts more than
    MAX_MAPSIM_RAYS rays, naming mapsim.heights_m."""
    ny, nx = -(-nrows // stride), -(-ncols // stride)
    if sites * len(heights) * ny * nx > MAX_MAPSIM_RAYS:
        raise ScenarioError(
            f"times {sites} site(s) and {ny} x {nx} cells at stride {stride} "
            f"gives more than {MAX_MAPSIM_RAYS:g} rays per run",
            "mapsim.heights_m")


def _read_only(tree: dict, unread: set, path: str = "") -> dict:
    out = {}
    for key, value in tree.items():
        sub_path = f"{path}.{key}" if path else key
        if sub_path not in unread:
            out[key] = (_read_only(value, unread, sub_path)
                        if isinstance(value, dict) else value)
    return out


def serialize_scenario(s: Scenario) -> str:
    """Canonical YAML for a validated scenario (parse-stable): the keys the
    run reads, and no other."""
    doc = {"command": s.command, "seed": s.seed}
    if s.output is not None:
        doc["output"] = s.output
    doc.update(s.params)
    unread = {path for path, _ in _unread(doc, SCHEMAS[s.command],
                                          _swept_key(doc))}
    return yaml.safe_dump(_read_only(doc, unread), sort_keys=True,
                          default_flow_style=False)


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ScenarioError(f"{path} is not UTF-8 text: {exc.reason} "
                                f"at byte {exc.start}") from exc
    return parse_scenario(text)

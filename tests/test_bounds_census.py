"""Census of the library's input checks.

Every float field of each public record, and every float parameter of each
public function, is fed NaN, +inf, -inf and, where the model states a
bound, a value just past it; each must raise a DomainError whose message
names it. Counts are fed those and a non-integer and a bool, and a
(LOS, NLOS) pair of counts is fed each in either place. A dB value
converted to a linear ratio is also fed +-1e308, whose ratio overflows. The
tables below are checked against what `dataclasses.fields` and
`inspect.signature` find, so a new record or parameter cannot miss the
census.
"""

import dataclasses
import importlib
import inspect
import math
import pkgutil
import re

import numpy as np
import pytest

import a2gnet
from a2gnet import abs_net as ab
from a2gnet import aue_net as au
from a2gnet import channel as ch
from a2gnet import localization as loc
from a2gnet import mapsim as ms
from a2gnet.antenna_geometry import ConeUav, OmniUav, Position3D, SectorAntenna
from a2gnet.errors import DomainError
from a2gnet.heightmap import (BuildingStats, HeightMap, building_stats,
                              synthetic_cells, synthetic_city)
from a2gnet.numerics import (
    RngStream,
    chebyshev_capacity_nodes,
    dbm_to_watt,
    inv_marcum_q,
    marcum_q,
    nakagami_power_cdf,
    sample_fading,
    sample_shadowing_db,
)


def under(bound):
    """The value just past an inclusive lower bound."""
    return math.nextafter(bound, -math.inf)


def over(bound):
    """The value just past an inclusive upper bound."""
    return math.nextafter(bound, math.inf)


URBAN = ch.urban()
PROF = ab.urban_abs_profile()
CFG = au.AueNetworkConfig()
HM = HeightMap(np.zeros((4, 4)), cellsize=10.0)
SITE = Position3D(0.0, 0.0, 10.0)
GRID = ms.SinrGrid(sinr_db=np.zeros((1, 1)), serving=np.zeros((1, 1), int),
                   x=np.zeros(1), y=np.zeros(1), ue_height_m=1.5,
                   los_any=np.ones((1, 1), bool))
GROUND, OBSTRUCTED = ch.PropagationSlice.GROUND, ch.PropagationSlice.OBSTRUCTED


def gen():
    return RngStream(1).child_generator()


# record: (valid arguments, {float field: values just past its bounds})
RECORDS = {
    Position3D: ({"x": 0.0, "y": 0.0, "h": 10.0},
                 {"x": (), "y": (), "h": (under(0.0),)}),
    SectorAntenna: ({"elevation_beamwidth_3db": 0.1},
                    {"electrical_tilt": (), "max_gain_dbi": (),
                     "beamwidth_3db": (0.0,), "sidelobe_floor_db": (0.0,),
                     "elevation_beamwidth_3db": (0.0,)}),
    OmniUav: ({}, {"gain_dbi": ()}),
    ConeUav: ({"phi_b_deg": 60.0},
              {"phi_b_deg": (0.0, over(180.0)), "phi_t": ()}),
    au.AueNetworkConfig: ({}, {
        "frequency_hz": (0.0,), "bs_density_per_km2": (0.0,),
        "bs_height_m": (under(0.0),), "p_tx_w": (0.0,),
        "noise_w": (under(0.0),), "threshold_t": (under(0.0),),
        "eta_los": (0.0,), "eta_nlos": (0.0,), "nlos_excess_db": (),
        "aue_ratio_rho": (under(0.0), over(1.0)), "region_radius_m": (0.0,)}),
    ch.Environment: ({"kind": "urban", "varsigma": 0.3, "xi": 500.0,
                      "omega": 15.0},
                     {"varsigma": (under(0.0), over(1.0)), "xi": (0.0,),
                      "omega": (0.0,), "mean_building_height_m": (0.0,),
                      "street_width_m": (0.0,)}),
    ch.LogDistance: ({"frequency_hz": 2e9, "eta": 2.0, "lambda0_db": 40.0,
                      "sigma_db": 0.0},
                     {"frequency_hz": (0.0,), "eta": (0.0,), "lambda0_db": (),
                      "sigma_db": (under(0.0),)}),
    HeightMap: ({"heights": np.zeros((2, 2)), "cellsize": 1.0},
                {"cellsize": (0.0,), "xllcorner": (), "yllcorner": (),
                 "nodata_value": ()}),
    loc.AnchorPlan: ({"m_points": 3, "radius_m": 100.0, "h_abs_m": 100.0},
                     {"radius_m": (0.0,), "h_abs_m": (0.0,)}),
    loc.ElevationChannel: ({}, {
        "a_los": (0.0,), "a_nlos": (0.0,), "eta_los": (0.0,),
        "eta_nlos": (0.0,), "b_los": (under(0.0),), "b_nlos": (under(0.0),),
        "a_o": (under(0.0),), "b_o": (under(0.0),)}),
    loc.LocalizationScenario: ({}, {"user_area_radius_m": (0.0,)}),
    ab.AbsProfile: ({"k0": 1.0, "k90": 10.0, "eta0": 3.0, "eta90": 2.0}, {
        "k0": (under(0.0),), "k90": (under(1.0),), "eta0": (under(2.0),),
        "eta90": (under(2.0),), "antenna_gain": (0.0,), "noise_w": (0.0,),
        "threshold_t": (0.0,)}),
    ms.SectorSite: ({"position": SITE}, {"p_tx_dbm": (), "azimuth0": ()}),
    ms.MapSimConfig: ({"env": URBAN}, {
        "frequency_hz": (0.0,), "bandwidth_hz": (0.0,), "noise_figure_db": ()}),
}

# dB values whose linear ratio overflows a float
HUGE_DB = (-1e308, 1e308)

# dB fields a record converts when a property is read: (record, valid
# arguments, field, property)
DB_PROPERTIES = [(OmniUav, {}, "gain_dbi", "gain_linear"),
                 (SectorAntenna, {}, "max_gain_dbi", "elevation_beamwidth")]

# records that a run returns, not reads
OUTPUT_RECORDS = {au.Estimate,
                  ab.CoverageRadius, loc.MultilaterationResult,
                  ms.SinrGrid, BuildingStats}

_OUTAGE = {"h_abs_m": 100.0, "p_tx_w": 1.0, "prof": PROF}
_DESIGN = {"h_abs_m": 100.0, "r_c_m": 500.0, "epsilon": 0.05, "prof": PROF}
_DESIGN_PAST = {"h_abs_m": (under(0.0),), "r_c_m": (0.0,),
                "epsilon": (0.0, 1.0)}
_GROUND = {"h_uav_m": 5.0, "h_g_m": 30.0, "f_c_ghz": 2.0}
_GROUND_PAST = {"h_uav_m": (0.0,), "h_g_m": (0.0,), "f_c_ghz": (0.0,)}
_AERIAL = {"d_3d_m": 100.0, "h_uav_m": 50.0, "f_c_ghz": 2.0}
_AERIAL_PAST = {"h_uav_m": (0.0,), "f_c_ghz": (0.0,)}
_TRIALS = {"cfg": CFG, "n_trials": 1, "rng": RngStream(1)}

# (function, valid arguments, {float parameter: values just past its
# bounds}): a function appears once per set of parameters a call reads
FUNCTIONS = [
    (ab.urban_abs_profile, {},
     {"k0_db": HUGE_DB, "k90_db": HUGE_DB, "eta0": (under(2.0),),
      "eta90": (under(2.0),)}),
    (ab.outage, {**_OUTAGE, "r_m": 100.0}, {"h_abs_m": (under(0.0),), "p_tx_w": (0.0,)}),
    (ab.required_power, _DESIGN, _DESIGN_PAST),
    (ab.power_gain, _DESIGN, _DESIGN_PAST),
    (ab.design_rows, {"altitudes": [100.0], "r_c_m": 500.0, "epsilon": 0.05,
                      "prof": PROF},
     {"r_c_m": (0.0,), "epsilon": (0.0, 1.0)}),
    (ab.mean_disc_outage, {**_OUTAGE, "r_c_m": 500.0},
     {"h_abs_m": (under(0.0),), "p_tx_w": (0.0,), "r_c_m": (0.0,)}),
    (ab.sum_rate, {**_OUTAGE, "r_c_m": 500.0, "n_bar": 10.0, "w_hz": 1e6},
     {"h_abs_m": (under(0.0),), "p_tx_w": (0.0,), "r_c_m": (0.0,),
      "n_bar": (under(0.0),), "w_hz": (under(0.0),)}),
    (ab.coverage_radius, {**_OUTAGE, "epsilon": 0.05},
     {"h_abs_m": (under(0.0),), "p_tx_w": (0.0,), "epsilon": (0.0, 1.0)}),
    (ab.optimize_altitude, {"metric": "power_gain", "prof": PROF,
                            "grid": [100.0], "r_c_m": 500.0, "epsilon": 0.05},
     {"r_c_m": (0.0,), "epsilon": (0.0, 1.0)}),
    (ab.optimize_altitude, {"metric": "coverage_radius", "prof": PROF,
                            "grid": [100.0], "p_tx_w": 1.0, "epsilon": 0.05},
     {"p_tx_w": (0.0,)}),
    (au.mean_site_count, {"bs_density_per_km2": 5.0, "region_radius_m": 1e3},
     {"bs_density_per_km2": (under(0.0),), "region_radius_m": (under(0.0),)}),
    (au.sinr_samples, {**_TRIALS, "uav_h": 30.0}, {"uav_h": (under(0.0),)}),
    (au.coverage_probability_mc, {**_TRIALS, "uav_h": 30.0, "n_trials": 100},
     {"uav_h": (under(0.0),)}),
    (au.coverage_from_samples, {"sinr": np.ones(3), "threshold": 1.0},
     {"threshold": (under(0.0),)}),
    (au.capacity, {**_TRIALS, "uav_h": 30.0, "k_nodes": 50, "t_max": 10.0},
     {"uav_h": (under(0.0),), "t_max": (1e-10,)}),
    (au.capacity_coefficients, {"k_nodes": 50, "t_max": 10.0},
     {"t_max": (1e-10,)}),
    (au.ase, {**_TRIALS, "uav_h": 30.0, "k_nodes": 50},
     {"uav_h": (under(0.0),)}),
    (au.sweep, {**_TRIALS, "axis": "density", "grid": [5.0], "uav_h": 30.0,
                "k_nodes": 50, "t_max": 10.0},
     {"uav_h": (under(0.0),), "t_max": (1e-10,)}),
    (ch.slice_of, {"h_uav_m": 50.0, "env": URBAN},
     {"h_uav_m": (under(0.0), over(ch.MAX_MODELED_ALTITUDE_M))}),
    (ch.free_space_pl_db, {"d_3d_m": 100.0, "frequency_hz": 2e9, "eta": 2.0},
     {"frequency_hz": (0.0,), "eta": (0.0,)}),
    (ch.free_space_reference_loss_db, {"frequency_hz": 2e9},
     {"frequency_hz": (0.0,)}),
    (ch.log_distance_pl_db, {"d_3d_m": 100.0, "lambda0_db": 40.0, "eta": 2.0},
     {"lambda0_db": (), "eta": (0.0,)}),
    (ch.p_los_building, {"d_h_m": 100.0, "h_uav_m": 100.0, "h_g_m": 1.5,
                         "env": URBAN},
     {"h_uav_m": (under(0.0),), "h_g_m": (under(0.0),)}),
    (ch.obstructed_plos_auxiliaries, {"h_uav_m": 50.0}, {"h_uav_m": (0.0,)}),
    (ch.p_los_3gpp, {"d_h_m": 100.0, "h_uav_m": 50.0, "slice_": OBSTRUCTED},
     {"h_uav_m": (under(0.0),)}),
    (ch.rma_breakpoint_m, _GROUND, _GROUND_PAST),
    (ch.rma_ground_los_db, {**_GROUND, "d_3d_m": 100.0}, _GROUND_PAST),
    (ch.rma_ground_nlos_db, {**_GROUND, "d_3d_m": 100.0, "env": URBAN},
     _GROUND_PAST),
    (ch.aerial_los_db, _AERIAL, _AERIAL_PAST),
    (ch.aerial_nlos_db, _AERIAL, _AERIAL_PAST),
    (ch.pl_3gpp_rural_db, {**_GROUND, "d_h_m": 100.0, "env": URBAN,
                           "los": True, "slice_": GROUND}, _GROUND_PAST),
    (ch.shadowing_sigma_db, {**_GROUND, "slice_": GROUND, "los": True,
                             "d_h_m": 100.0},
     {"h_uav_m": (under(0.0),), "h_g_m": (0.0,), "f_c_ghz": (0.0,)}),
    (ch.log_distance_from_preset, {"name": "open_field_2ghz",
                                   "frequency_hz": 2e9, "eta": 2.01,
                                   "lambda0_db": 40.0, "sigma_db": 1.0},
     {"frequency_hz": (0.0,), "eta": (2.0,), "lambda0_db": (),
      "sigma_db": (under(0.0),)}),
    (ch.sample_link_loss_db, {"pl_db": (100.0, 120.0), "sigma_db": (4.0, 6.0),
                              "p_los": 0.5, "rng": gen(), "fading_m": (1, 1),
                              "n": 3},
     {"p_los": (under(0.0), over(1.0))}),
    (building_stats, {"hm": HM, "min_building_height_m": 4.0},
     {"min_building_height_m": ()}),
    (synthetic_cells, {"extent_m": 100.0, "cellsize_m": 10.0},
     {"extent_m": (0.0,), "cellsize_m": (0.0,)}),
    (synthetic_city, {"extent_m": 100.0, "cellsize_m": 10.0,
                      "env": URBAN, "rng": gen(),
                      "min_height_m": 0.0},
     {"extent_m": (0.0,), "cellsize_m": (0.0,),
      "min_height_m": (under(0.0),)}),
    (loc.sample_rss_distance, {"true_d_m": 100.0, "theta_rad": 0.5,
                               "ch": loc.ElevationChannel(), "rng": gen()},
     {"true_d_m": (0.0,), "theta_rad": ()}),
    (loc.multilaterate, {"anchors": [Position3D(100.0, 0.0, 50.0),
                                     Position3D(0.0, 100.0, 50.0),
                                     Position3D(-100.0, 0.0, 50.0)],
                         "d_hat": [120.0, 130.0, 140.0],
                         "search_radius_m": 100.0},
     {"search_radius_m": (0.0,)}),
    (ms.site_on_roof, {"hm": HM, "x": 5.0, "y": 5.0, "mast_m": 5.0},
     {"x": (under(0.0), over(40.0)), "y": (under(0.0), over(40.0)),
      "mast_m": ()}),
    (ms.SinrGrid.coverage_fraction, {"self": GRID, "threshold_db": -6.0},
     {"threshold_db": ()}),
    (dbm_to_watt, {"p_dbm": 30.0}, {"p_dbm": HUGE_DB}),
    (marcum_q, {"a": 1.0, "b": 1.0}, {"a": (under(0.0),), "b": (under(0.0),)}),
    (inv_marcum_q, {"a": 1.0, "p": 0.5},
     {"a": (under(0.0),), "p": (0.0, over(1.0))}),
    (sample_shadowing_db, {"sigma_db": 1.0, "rng": gen()},
     {"sigma_db": (under(0.0),)}),
]

# (record or function, valid arguments, {count: its least value})
COUNTS = [
    (sample_fading, {"m": 1, "rng": gen(), "n": 1}, {"m": 1}),
    (au.AueNetworkConfig, {}, {"fading_m_los": 1, "fading_m_nlos": 1}),
    (RngStream, {"master_seed": 1, "stream_index": 0},
     {"master_seed": 0, "stream_index": 0}),
    (loc.AnchorPlan, {"m_points": 3, "radius_m": 100.0, "h_abs_m": 100.0},
     {"m_points": 3}),
    (loc.LocalizationScenario, {}, {"n_users": 1}),
    (chebyshev_capacity_nodes, {"k": 4}, {"k": 1}),
    (nakagami_power_cdf, {"omega": 1.0, "m": 2}, {"m": 1}),
    (au.sinr_samples, {**_TRIALS, "uav_h": 30.0}, {"n_trials": 1}),
    (au.coverage_probability_mc, {**_TRIALS, "uav_h": 30.0},
     {"n_trials": au.COVERAGE_MIN_TRIALS}),
    (au.capacity, {**_TRIALS, "uav_h": 30.0, "k_nodes": 50},
     {"n_trials": 1, "k_nodes": 50}),
    (au.ase, {**_TRIALS, "uav_h": 30.0, "k_nodes": 50},
     {"n_trials": 1, "k_nodes": 50}),
    (au.capacity_coefficients, {"k_nodes": 50, "t_max": None},
     {"k_nodes": 50}),
    (au.sweep, {**_TRIALS, "axis": "density", "grid": [5.0], "uav_h": 30.0,
                "k_nodes": 50}, {"n_trials": 1, "k_nodes": 50}),
    (ch.sample_link_loss_db, {"pl_db": (100.0, 120.0), "sigma_db": (4.0, 6.0),
                              "p_los": 0.5, "rng": gen(), "n": 3,
                              "fading_m": (1, 1)},
     {"n": 0, "fading_m": 1}),
    (loc.run_campaign, {"scenario": loc.LocalizationScenario(n_users=1),
                        "plan": loc.AnchorPlan(3, 100.0, 100.0),
                        "ch": loc.ElevationChannel(), "rng": RngStream(1)},
     {"trials_per_user": 1}),
    (ms.sinr_grids, {"sites": [ms.SectorSite(SITE)], "hm": HM,
                     "heights": [1.5], "cfg": ms.MapSimConfig(URBAN),
                     "stride": 1},
     {"stride": 1}),
]

# the annotation of a (LOS, NLOS) pair of counts
PAIR = "tuple[int, int]"

# counts a run reads from checked keys or ignores, with the reason
UNCHECKED_COUNTS = {
    ("run_scenario", "threads"): "accepted and ignored: runs are serial",
    ("sample_fading", "n"): "hot kernel: its callers pass a checked count",
    ("check_mapsim_rays", "sites"): "parse-time ceiling on checked keys",
    ("check_mapsim_rays", "nrows"): "parse-time ceiling on checked keys",
    ("check_mapsim_rays", "ncols"): "parse-time ceiling on checked keys",
    ("check_mapsim_rays", "stride"): "parse-time ceiling on checked keys",
}


def _public(kind):
    """Each public record or function that an a2gnet module defines."""
    for info in pkgutil.iter_modules(a2gnet.__path__):
        module = importlib.import_module(f"a2gnet.{info.name}")
        for name, obj in vars(module).items():
            if not name.startswith("_") and kind(obj) \
                    and getattr(obj, "__module__", None) == module.__name__:
                yield obj


def _public_callables():
    """Each public function, and each public method of a public class,
    that an a2gnet module defines."""
    yield from _public(inspect.isfunction)
    for cls in _public(inspect.isclass):
        for name, member in vars(cls).items():
            if isinstance(member, (staticmethod, classmethod)):
                member = member.__func__
            if not name.startswith("_") and inspect.isfunction(member):
                yield member


def _annotated(names_types, kind):
    return {name for name, annotation in names_types if annotation == kind}


def _record_fields(record, kind):
    return _annotated(((f.name, f.type.replace("Optional[float]", "float"))
                       for f in dataclasses.fields(record)), kind)


def _params(fn, kind):
    return _annotated(((p.name, p.annotation) for p in
                       inspect.signature(fn).parameters.values()), kind)


def _cases(table, kind):
    for target, kwargs, bounds in table:
        for name, past in bounds.items():
            if kind == "int":   # past holds the least count
                past = (2.5, True, past - 1) + (
                    (2 ** 64,) if (target, name) == (RngStream, "master_seed")
                    else ())
            for value in (math.nan, math.inf, -math.inf, *past):
                yield pytest.param(target, kwargs, name, value,
                                   id=f"{target.__name__}-{name}={value!r}")


def _float_cases():
    yield from _cases([(record, kwargs, past)
                       for record, (kwargs, past) in RECORDS.items()], "float")
    yield from _cases(FUNCTIONS, "float")


def _assert_named(target, kwargs, name, value):
    with pytest.raises(DomainError) as exc:
        target(**{**kwargs, name: value})
    assert re.search(rf"\b{re.escape(name)}\b", str(exc.value)), str(exc.value)


@pytest.mark.parametrize("target, kwargs, name, value", _float_cases())
def test_bad_float_raises_naming_it(target, kwargs, name, value):
    _assert_named(target, kwargs, name, value)


@pytest.mark.parametrize("target, kwargs, name, value", _cases(COUNTS, "int"))
def test_bad_count_raises_naming_it(target, kwargs, name, value):
    valid = kwargs.get(name)
    if isinstance(valid, tuple):    # a (LOS, NLOS) pair: fed in each place
        for i in range(len(valid)):
            _assert_named(target, kwargs, name,
                          valid[:i] + (value,) + valid[i + 1:])
    else:
        _assert_named(target, kwargs, name, value)


@pytest.mark.parametrize("record, kwargs, name, prop, value", [
    pytest.param(record, kwargs, name, prop, value,
                 id=f"{record.__name__}.{prop}-{name}={value!r}")
    for record, kwargs, name, prop in DB_PROPERTIES for value in HUGE_DB])
def test_huge_db_raises_naming_it(record, kwargs, name, prop, value):
    _assert_named(lambda **kw: getattr(record(**kw), prop), kwargs, name,
                  value)


def test_every_input_record_is_in_the_census():
    found = {record for record in _public(dataclasses.is_dataclass)
             if _record_fields(record, "float")}
    assert found - OUTPUT_RECORDS == set(RECORDS)
    for record, (kwargs, past) in RECORDS.items():
        assert set(past) == _record_fields(record, "float"), record
        record(**kwargs)


def test_every_float_parameter_is_in_the_census():
    probed = {}
    for fn, kwargs, past in FUNCTIONS:
        probed.setdefault(fn, set()).update(past)
    found = {fn: _params(fn, "float") for fn in _public_callables()}
    assert {fn: names for fn, names in found.items() if names} == probed


def test_every_count_is_in_the_census():
    probed = {(target.__name__, name) for target, _, least in COUNTS
              for name in least}
    found = {(fn.__name__, name) for fn in _public(inspect.isfunction)
             for kind in ("int", PAIR) for name in _params(fn, kind)}
    found |= {(record.__name__, name) for record in RECORDS
              for name in _record_fields(record, "int")}
    found |= {("RngStream", name) for name in _record_fields(RngStream, "int")}
    assert found - set(UNCHECKED_COUNTS) == probed

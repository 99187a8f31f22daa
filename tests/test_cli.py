import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

import a2gnet

from a2gnet import abs_net, aue_net
from a2gnet import channel as ch
from a2gnet import localization as loc
from a2gnet import mapsim as ms
from a2gnet.cli import (SITE_CSV_COLUMNS, _aue_config, _environment, _fmt,
                        _sinr_target, _write_csv, main, run_scenario)
from a2gnet.errors import DomainError, ScenarioError
from a2gnet.heightmap import MAX_SYNTHETIC_CELLS, HeightMap, save_ascii_grid
from a2gnet.numerics import dbm_to_watt
from a2gnet.scenario import (_ENV_FIELDS, _TOP_LEVEL, SCHEMAS, load_scenario,
                             parse_scenario, serialize_scenario)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

MINIMAL_CHANNEL = """
command: channel-table
seed: 7
"""

AUE_TABLE_IV = """
command: aue-coverage
seed: 11
aue:
  frequency_ghz: 1.8
  bandwidth_mhz: 20
  noise_density_dbm_hz: -174
  noise_figure_db: 9
run:
  altitudes_m: [30, 90]
  thresholds_db: [0.0, 6.0]
  n_trials: 150
"""

LOCALIZE_TABLE_VI = """
command: localize
seed: 3
localize:
  m_points: [3]
  radii_m: [120]
  altitudes_m: [200]
  n_users: 25
"""

MAPSIM_SMALL = """
command: mapsim
seed: 5
mapsim:
  synthetic:
    extent_m: 200
    cellsize_m: 5
  auto_sites:
    count: 2
  heights_m: [1.5, 40]
  stride: 4
"""

SWEEP_ALTITUDE = """
command: aue-sweep
sweep:
  axis: altitude
  grid: [60]
"""

# the only run that reads an SINR target
SWEEP_COVERAGE = SWEEP_ALTITUDE + "  metric: coverage\n"

# base scenario for each block, or key, whose bounds test_bound_validation
# checks; top-level keys are checked on MINIMAL_CHANNEL
BOUNDED_BASES = {"mapsim": MAPSIM_SMALL, "run": AUE_TABLE_IV, "aue": AUE_TABLE_IV,
                 "sweep": SWEEP_ALTITUDE, "localize": LOCALIZE_TABLE_VI,
                 "channel": "command: channel-table\nchannel: {h_g_m: 30}\n",
                 "abs": "command: abs-design\nabs: {r_c_m: 500}\n",
                 "aue.threshold_db": SWEEP_COVERAGE,
                 "aue.target_rate_mbps": SWEEP_COVERAGE}


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# bounds whose breach used to reach the models, exiting 1 with a message
# that did not name the key, or exit 0 and write rows
MODEL_BOUNDS = [
    ("environment", {"varsigma": 2}, "channel.environment.varsigma"),
    ("environment", {"preset": "suburban", "varsigma": -0.1},
     "channel.environment.varsigma"),
    ("environment", {"xi": 0}, "channel.environment.xi"),
    ("environment", {"preset": "suburban", "omega": 0},
     "channel.environment.omega"),
    ("environment", {"omega": -5}, "aue.environment.omega"),
    ("synthetic", {"environment": {"xi": -1}},
     "mapsim.synthetic.environment.xi"),
    ("environment", {"preset": "suburban", "kind": "foo"},
     "channel.environment.kind"),
    ("sector_beamwidth_deg", 0, "aue.sector_beamwidth_deg"),
    ("sector_sidelobe_floor_db", 0, "aue.sector_sidelobe_floor_db"),
    ("sector_elevation_beamwidth_deg", 0, "aue.sector_elevation_beamwidth_deg"),
    ("bs_height_m", -10, "aue.bs_height_m"),
    ("auto_sites", {"beamwidth_deg": 0}, "mapsim.auto_sites.beamwidth_deg"),
    ("synthetic", {"cellsize_m": 0}, "mapsim.synthetic.cellsize_m"),
    ("synthetic", {"extent_m": -100}, "mapsim.synthetic.extent_m"),
    ("synthetic", {"extent_m": 100, "cellsize_m": 500},
     "mapsim.synthetic.cellsize_m"),
    ("a_o", -1, "localize.a_o"),
    ("b_o", -20, "localize.b_o"),
]

# bounds whose breach at +-1e300 ended in a raw OverflowError or
# ZeroDivisionError, or exited 0 with warnings or nonsense rows
OVERFLOW_BOUNDS = [
    ("p_tx_dbm", 151, "aue.p_tx_dbm"),
    ("noise_density_dbm_hz", -201, "aue.noise_density_dbm_hz"),
    ("noise_density_dbm_hz", -99, "aue.noise_density_dbm_hz"),
    ("noise_figure_db", 151, "aue.noise_figure_db"),
    ("noise_override_dbm", -151, "aue.noise_override_dbm"),
    ("threshold_db", 151, "aue.threshold_db"),
    ("omni_gain_dbi", 151, "aue.omni_gain_dbi"),
    ("sector_max_gain_dbi", 151, "aue.sector_max_gain_dbi"),
    ("nlos_excess_db", -151, "aue.nlos_excess_db"),
    ("sector_sidelobe_floor_db", 151, "aue.sector_sidelobe_floor_db"),
    ("sector_downtilt_deg", 91, "aue.sector_downtilt_deg"),
    ("sector_downtilt_deg", -91, "aue.sector_downtilt_deg"),
    ("phi_t_deg", -1, "aue.phi_t_deg"),
    ("phi_t_deg", 181, "aue.phi_t_deg"),
    ("frequency_ghz", 301, "aue.frequency_ghz"),
    ("bandwidth_mhz", 3.1e5, "aue.bandwidth_mhz"),
    ("bs_density_per_km2", 2e4, "aue.bs_density_per_km2"),
    ("bs_height_m", 301, "aue.bs_height_m"),
    ("region_radius_m", 2e5, "aue.region_radius_m"),
    ("target_rate_mbps", 0, "aue.target_rate_mbps"),
    # past 50 times bandwidth_mhz; aue-coverage, which never read the
    # target, used to take it with exit 0
    ("target_rate_mbps", 1e300, "aue.target_rate_mbps"),
    ("thresholds_db", [0, 151], "run.thresholds_db[1]"),
    ("t_max_db", 151, "sweep.t_max_db"),
    ("frequency_ghz", 301, "channel.frequency_ghz"),
    ("h_g_m", 301, "channel.h_g_m"),
    ("distances_m", [50, 2e5], "channel.distances_m[1]"),
    ("radii_m", [2e5], "localize.radii_m[0]"),
    ("altitudes_m", [2e5], "localize.altitudes_m[0]"),
    ("user_area_radius_m", 2e5, "localize.user_area_radius_m"),
    ("a_nlos", 151, "localize.a_nlos"),
    ("a_los", 151, "localize.a_los"),
    ("a_o", 91, "localize.a_o"),
    ("eta_nlos", 0.5, "localize.eta_nlos"),
    ("threshold_db", 151, "mapsim.threshold_db"),
    ("noise_figure_db", 151, "mapsim.noise_figure_db"),
    ("frequency_ghz", 301, "mapsim.frequency_ghz"),
    ("bandwidth_mhz", 3.1e5, "mapsim.bandwidth_mhz"),
    ("auto_sites", {"p_tx_dbm": 151}, "mapsim.auto_sites.p_tx_dbm"),
    ("auto_sites", {"max_gain_dbi": -151}, "mapsim.auto_sites.max_gain_dbi"),
    ("auto_sites", {"mast_m": 301}, "mapsim.auto_sites.mast_m"),
    ("auto_sites", {"mast_m": -1}, "mapsim.auto_sites.mast_m"),
    ("auto_sites", {"downtilt_deg": 91}, "mapsim.auto_sites.downtilt_deg"),
    ("synthetic", {"min_height_m": 301}, "mapsim.synthetic.min_height_m"),
    ("synthetic", {"extent_m": 2e5}, "mapsim.synthetic.extent_m"),
    # a cell that does not divide the extent gave a 90 m map
    ("synthetic", {"extent_m": 100, "cellsize_m": 30},
     "mapsim.synthetic.cellsize_m"),
]


def _bounded_doc(key, value, path):
    """The base scenario of path's block with key set to value."""
    block = path.split(".")[0]
    base = BOUNDED_BASES.get(path, BOUNDED_BASES.get(block, MINIMAL_CHANNEL))
    doc = yaml.safe_load(base)
    (doc.setdefault(block, {}) if "." in path else doc)[key] = value
    return doc


class TestParsing:
    def test_minimal_gets_defaults(self):
        s = parse_scenario(MINIMAL_CHANNEL)
        assert s.command == "channel-table"
        assert s.seed == 7
        assert s.params["channel"]["frequency_ghz"] == 1.8
        assert s.params["channel"]["environment"]["preset"] == "urban"

    def test_misspelled_key_named_in_error(self):
        bad = AUE_TABLE_IV.replace("aue:\n", "aue:\n  bs_densty: 4\n")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(bad)
        assert "bs_densty" in str(err.value)

    def test_unknown_top_level_key(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(MINIMAL_CHANNEL + "extra_block: {}\n")
        assert "extra_block" in str(err.value)

    def test_missing_command(self):
        with pytest.raises(ScenarioError):
            parse_scenario("seed: 3\n")

    def test_unknown_command(self):
        with pytest.raises(ScenarioError):
            parse_scenario("command: fly\n")

    def test_bad_types_rejected(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario("command: aue-coverage\nrun:\n  n_trials: soon\n")
        assert "run.n_trials" in str(err.value)

    def test_choice_validation(self):
        text = ("command: aue-sweep\nsweep:\n  axis: speed\n  grid: [1]\n")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        assert "sweep.axis" in str(err.value)

    @pytest.mark.parametrize("key,value,path", [
        ("stride", 0, "mapsim.stride"),
        ("stride", -2, "mapsim.stride"),
        ("auto_sites", {"count": 12}, "mapsim.auto_sites.count"),
        ("auto_sites", {"count": 0}, "mapsim.auto_sites.count"),
        ("altitudes_m", [30, 5000], "run.altitudes_m[1]"),
        ("altitudes_m", [-1], "run.altitudes_m[0]"),
        ("uav_h_m", 301, "sweep.uav_h_m"),
        ("grid", [60, 120, 450], "sweep.grid[2]"),
        ("trials_per_user", 0, "localize.trials_per_user"),
        ("distances_m", [50, -50], "channel.distances_m[1]"),
        ("altitudes_m", [1.5, 400], "channel.altitudes_m[1]"),
        ("altitudes_m", [-1], "channel.altitudes_m[0]"),
        ("n_trials", 0, "run.n_trials"),
        ("n_trials", 0, "sweep.n_trials"),
        ("k_nodes", 49, "sweep.k_nodes"),
        ("m_points", [3, 2], "localize.m_points[1]"),
        ("n_users", 0, "localize.n_users"),
        ("altitudes_m", [0], "channel.altitudes_m[0]"),
        ("h_g_m", 0, "channel.h_g_m"),
        ("h_g_m", -5, "channel.h_g_m"),
        ("frequency_ghz", 0, "channel.frequency_ghz"),
        ("frequency_ghz", 0, "mapsim.frequency_ghz"),
        ("bandwidth_mhz", 0, "mapsim.bandwidth_mhz"),
        ("heights_m", [0], "mapsim.heights_m[0]"),
        ("heights_m", [1.5, 400], "mapsim.heights_m[1]"),
        ("frequency_ghz", 0, "aue.frequency_ghz"),
        ("bandwidth_mhz", 0, "aue.bandwidth_mhz"),
        ("bs_density_per_km2", 0, "aue.bs_density_per_km2"),
        ("region_radius_m", -1, "aue.region_radius_m"),
        ("eta_los", 0, "aue.eta_los"),
        ("eta_nlos", -2, "aue.eta_nlos"),
        # a subnormal carrier or cone angle ended in a raw ValueError or
        # ZeroDivisionError
        ("frequency_ghz", 1e-4, "aue.frequency_ghz"),
        ("phi_b_deg", 1e-323, "aue.phi_b_deg"),
        ("phi_b_deg", 0, "aue.phi_b_deg"),
        ("phi_b_deg", 181, "aue.phi_b_deg"),
        ("fading_m_los", 0, "aue.fading_m_los"),
        ("fading_m_nlos", 0, "aue.fading_m_nlos"),
        ("epsilon", 0, "abs.epsilon"),
        ("epsilon", 1, "abs.epsilon"),
        ("epsilon", 1e-17, "abs.epsilon"),
        ("r_c_m", 0, "abs.r_c_m"),
        ("r_c_m", 1e-300, "abs.r_c_m"),
        ("r_c_m", 2e6, "abs.r_c_m"),
        ("altitudes_m", [100, -1], "abs.altitudes_m[1]"),
        ("altitudes_m", [2e5], "abs.altitudes_m[0]"),
        ("eta0", 1.9, "abs.eta0"),
        ("eta90", 11, "abs.eta90"),
        ("k0_db", -151, "abs.k0_db"),
        ("noise_dbm", 151, "abs.noise_dbm"),
        ("radii_m", [120, 0], "localize.radii_m[1]"),
        ("altitudes_m", [0], "localize.altitudes_m[0]"),
        ("user_area_radius_m", 0, "localize.user_area_radius_m"),
        ("a_los", -1, "localize.a_los"),
        ("a_nlos", 0, "localize.a_nlos"),
        ("b_los", -0.5, "localize.b_los"),
        ("b_nlos", -1, "localize.b_nlos"),
        ("eta_los", 0, "localize.eta_los"),
        ("eta_nlos", -3, "localize.eta_nlos"),
        ("seed", -1, "seed"),
        ("seed", 2 ** 64, "seed"),
        ("seed", 1.5, "seed"),
        ("seed", None, "seed"),
        ("n_trials", None, "run.n_trials"),
        ("output", 3, "output"),
        ("altitudes_m", [30, None], "run.altitudes_m[1]"),
        ("m_points", [3, True], "localize.m_points[1]"),
        ("m_points", [3, 4.0], "localize.m_points[1]"),
        *MODEL_BOUNDS,
        *OVERFLOW_BOUNDS,
        # the ground fits wrote inf and 6047 dB losses at 5e-324 and 1e-300 m
        ("altitudes_m", [math.nextafter(1.0, 0.0)], "channel.altitudes_m[0]"),
        # a 1e-300 m map height read coverage 0 through an overflow
        ("heights_m", [1.5, math.nextafter(1.0, 0.0)], "mapsim.heights_m[1]"),
    ])
    def test_bound_validation(self, key, value, path):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(yaml.safe_dump(_bounded_doc(key, value, path)))
        assert path in str(err.value)

    @pytest.mark.parametrize("extent,cellsize", [(1e5, 4.0), (4097.0, 1.0),
                                                 (1e5, 5e-324)])
    def test_synthetic_cell_count_capped(self, extent, cellsize):
        # a 1e5 m city at 4 m cells asked for a 5 GB raster, and a
        # subnormal cell ended in a raw OverflowError
        doc = _bounded_doc("synthetic", {"extent_m": extent,
                                         "cellsize_m": cellsize},
                           "mapsim.synthetic")
        with pytest.raises(ScenarioError, match="4096 cells a side") as err:
            parse_scenario(yaml.safe_dump(doc))
        assert "mapsim.synthetic.cellsize_m" in str(err.value)

    def test_synthetic_cell_cap_inclusive(self):
        doc = _bounded_doc("synthetic", {"extent_m": 8192, "cellsize_m": 2},
                           "mapsim.synthetic")
        syn = parse_scenario(yaml.safe_dump(doc)).params["mapsim"]["synthetic"]
        assert syn["extent_m"] / syn["cellsize_m"] == MAX_SYNTHETIC_CELLS

    def test_cellsize_equal_to_extent_accepted(self):
        doc = _bounded_doc("synthetic", {"extent_m": 100, "cellsize_m": 100},
                           "mapsim.synthetic")
        assert parse_scenario(yaml.safe_dump(doc)).params["mapsim"][
            "synthetic"]["cellsize_m"] == 100

    @pytest.mark.parametrize("metric,n_trials,ok", [
        ("coverage", 99, False), ("coverage", 100, True),
        ("capacity", 20, True)])
    def test_coverage_sweep_trials(self, metric, n_trials, ok):
        # the coverage estimator needs 100 trials; capacity runs on fewer
        doc = yaml.safe_load(SWEEP_ALTITUDE)
        doc["sweep"].update(metric=metric, n_trials=n_trials)
        if ok:
            parse_scenario(yaml.safe_dump(doc))
            return
        with pytest.raises(ScenarioError) as err:
            parse_scenario(yaml.safe_dump(doc))
        assert "sweep.n_trials" in str(err.value)

    @pytest.mark.parametrize("preset", ["urban", "dense_urban"])
    @pytest.mark.parametrize("key", ["street_width_m", "mean_building_height_m"])
    def test_environment_lengths_positive(self, preset, key):
        # a preset override of 0 reached math.log10
        env = {"preset": preset, key: 0}
        doc = {"command": "channel-table", "channel": {"environment": env}}
        with pytest.raises(ScenarioError) as err:
            parse_scenario(yaml.safe_dump(doc))
        assert f"channel.environment.{key}" in str(err.value)

    @pytest.mark.parametrize("env,expected", [
        # a block that sets every key replaces the whole preset; the mean
        # building height follows omega only where the file states it
        ({"preset": "suburban", "kind": "urban", "varsigma": 0.3, "xi": 500,
          "omega": 15, "mean_building_height_m": 15 * math.sqrt(math.pi / 2),
          "street_width_m": 12},
         ch.Environment("urban", 0.3, 500.0, 15.0, 15 * math.sqrt(math.pi / 2), 12.0)),
        # a preset override replaces only the keys it names, and keeps the
        # preset's mean building height under a new omega
        ({"preset": "dense_urban", "omega": 30},
         ch.Environment("dense_urban", 0.5, 300.0, 30.0,
                        ch.dense_urban().mean_building_height_m, 20.0)),
    ])
    def test_environment_block(self, env, expected):
        s = parse_scenario(yaml.safe_dump(
            {"command": "channel-table", "channel": {"environment": env}}))
        assert _environment(s.params["channel"]["environment"]) == expected

    def test_localize_frequency_key_is_unknown(self):
        # RSS range inversion does not depend on the carrier
        with pytest.raises(ScenarioError) as err:
            parse_scenario(LOCALIZE_TABLE_VI + "  frequency_ghz: 2.0\n")
        assert "localize.frequency_ghz" in str(err.value)

    def test_altitude_bounds_inclusive(self):
        parse_scenario("command: aue-coverage\nrun:\n  altitudes_m: [0, 300]\n")
        # only an altitude axis reads the grid as heights
        parse_scenario("command: aue-sweep\nsweep:\n  axis: density\n"
                       "  grid: [40, 360]\n")

    @pytest.mark.parametrize("axis,grid,path", [
        ("phi_b", [60, 0], "sweep.grid[1]"),
        ("phi_b", [181], "sweep.grid[0]"),
        ("phi_t", [-10], "sweep.grid[0]"),
        ("phi_t", [0, 190], "sweep.grid[1]"),
        ("density", [0], "sweep.grid[0]"),
        ("density", [2e4], "sweep.grid[0]"),
    ])
    def test_sweep_grid_bounded_by_axis_key(self, axis, grid, path):
        # each axis bounds its grid as its aue key; a phi_b or density of 0
        # exited 1 without naming the key
        doc = {"command": "aue-sweep", "aue": {"antenna": "cone"},
               "sweep": {"axis": axis, "grid": grid}}
        with pytest.raises(ScenarioError) as err:
            parse_scenario(yaml.safe_dump(doc))
        assert path in str(err.value)

    def test_round_trip_fixpoint(self):
        for text in (MINIMAL_CHANNEL, AUE_TABLE_IV, LOCALIZE_TABLE_VI,
                     MAPSIM_SMALL):
            s1 = parse_scenario(text)
            dumped = serialize_scenario(s1)
            s2 = parse_scenario(dumped)
            assert s2 == s1
            assert serialize_scenario(s2) == dumped


class TestRunners:
    def test_channel_table_end_to_end(self, tmp_path):
        s = parse_scenario(MINIMAL_CHANNEL)
        paths = run_scenario(s, tmp_path)
        text = paths[0].read_text().splitlines()
        assert text[0] == ("h_uav_m,d_h_m,slice,p_los_building,p_los_3gpp,"
                           "pl_los_db,pl_nlos_db,pl_avg_db,sigma_los_db,"
                           "sigma_nlos_db")
        assert len(text) > 1

    def test_channel_table_zero_distance_writes_nan(self, tmp_path):
        # d_3d = 0 at h = h_g has no finite loss
        s = parse_scenario("command: channel-table\nchannel:\n  h_g_m: 30\n"
                           "  altitudes_m: [30]\n  distances_m: [0]\n")
        row = run_scenario(s, tmp_path)[0].read_text().splitlines()[1]
        assert row.split(",")[5:8] == ["nan", "nan", "nan"]

    def test_aue_coverage_table_iv_params(self, tmp_path):
        s = parse_scenario(AUE_TABLE_IV)
        paths = run_scenario(s, tmp_path)
        lines = paths[0].read_text().splitlines()
        assert lines[0] == "h_m,threshold_db,p_cov,ci95"
        assert len(lines) == 1 + 2 * 2
        p_cov = float(lines[1].split(",")[2])
        assert 0.0 <= p_cov <= 1.0

    def test_localize_table_vi_params(self, tmp_path):
        s = parse_scenario(LOCALIZE_TABLE_VI)
        paths = run_scenario(s, tmp_path)
        lines = paths[0].read_text().splitlines()
        assert lines[0] == "h_m,R_m,M,mean_err_m,p50_m,p90_m"
        row = lines[1].split(",")
        assert row[0] == "200" and row[2] == "3"

    def test_mapsim_emits_summary_and_rasters(self, tmp_path):
        s = parse_scenario(MAPSIM_SMALL)
        paths = run_scenario(s, tmp_path)
        names = sorted(p.name for p in paths)
        assert "mapsim_summary.csv" in names
        assert any(n.startswith("sinr_h") and n.endswith(".asc") for n in names)

    def test_abs_design_schema(self, tmp_path):
        s = parse_scenario("command: abs-design\nabs:\n  altitudes_m: [100, 300]\n")
        paths = run_scenario(s, tmp_path)
        lines = paths[0].read_text().splitlines()
        assert lines[0] == "h_m,r_c_m,p_req_w,power_gain,sum_rate_gain"
        assert len(lines) == 3

    def test_phi_t_sweep_reads_degrees(self, tmp_path):
        # each point equals a run with aue.phi_t_deg at that value; the grid
        # was read in radians
        sweep = {"command": "aue-sweep", "seed": 1, "aue": {"antenna": "cone"},
                 "sweep": {"axis": "phi_t", "grid": [0, 30], "n_trials": 40}}
        lines = run_scenario(parse_scenario(yaml.safe_dump(sweep)),
                             tmp_path / "phi_t")[0].read_text().splitlines()
        for i, line in enumerate(lines[1:]):
            x = line.split(",")[0]
            fixed = {**sweep, "aue": {"antenna": "cone", "phi_t_deg": float(x)},
                     "sweep": {**sweep["sweep"], "axis": "altitude",
                               "grid": [150]}}
            ref = run_scenario(parse_scenario(yaml.safe_dump(fixed)),
                               tmp_path / str(i))[0].read_text().splitlines()
            assert line.split(",")[1:] == ref[1].split(",")[1:]
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "30"]

    def test_sweep_runner(self, tmp_path):
        text = ("command: aue-sweep\nseed: 2\n"
                "sweep:\n  axis: density\n  grid: [5, 20]\n  n_trials: 120\n")
        s = parse_scenario(text)
        paths = run_scenario(s, tmp_path)
        lines = paths[0].read_text().splitlines()
        assert lines[0] == "x,metric,ci95"
        assert len(lines) == 3


def _aue_block(base=AUE_TABLE_IV, **values):
    doc = yaml.safe_load(base)
    doc["aue"] = values
    return parse_scenario(yaml.safe_dump(doc)).params["aue"]


class TestAueConfig:
    """The CLI works out the noise power N and the target T once."""

    def test_threshold_from_rate(self):
        # T = 2^(R/B) - 1 from a rate target, else from the dB target; a file
        # with both is rejected (TestUnreadKeys)
        block = _aue_block(SWEEP_COVERAGE, target_rate_mbps=20)
        assert _sinr_target(block) == 2.0 ** 1.0 - 1.0
        assert _sinr_target(_aue_block(SWEEP_COVERAGE, threshold_db=6)) == \
            10.0 ** 0.6

    def test_only_coverage_sweep_has_target(self, monkeypatch, tmp_path):
        seen = []

        def stop(cfg, *args, **kwargs):
            seen.append(cfg)
            raise _Captured

        monkeypatch.setattr(aue_net, "sweep", stop)
        doc = yaml.safe_load(SWEEP_COVERAGE)
        doc["aue"] = {"threshold_db": 6}
        for text in (yaml.safe_dump(doc), SWEEP_ALTITUDE):
            with pytest.raises(_Captured):
                run_scenario(parse_scenario(text), tmp_path)
        assert [cfg.threshold_t for cfg in seen] == [10.0 ** 0.6, 1.0]

    def test_noise_override(self):
        # the override replaces density * noise figure * bandwidth
        cfg = _aue_config(_aue_block(noise_override_dbm=-90))
        assert cfg.noise_w == dbm_to_watt(-90.0)
        cfg = _aue_config(_aue_block(noise_density_dbm_hz=-170,
                                     noise_figure_db=3, bandwidth_mhz=10))
        assert cfg.noise_w == dbm_to_watt(-170.0) * 10.0 ** 0.3 * 1e7

    def test_largest_rate_is_finite(self):
        # at 50 b/s/Hz T is 2^50 - 1; 1e300 raised OverflowError
        block = _aue_block(SWEEP_COVERAGE, target_rate_mbps=1000,
                           bandwidth_mhz=20)
        assert _sinr_target(block) == 2.0 ** 50 - 1.0


class _Captured(Exception):
    pass


class TestLibraryDefaults:
    """A scenario that sets nothing builds each model from the library's
    own defaults: the library and the command line give the same numbers."""

    def _capture(self, monkeypatch, tmp_path, module, name, command):
        seen = []

        def stop(*args, **kwargs):
            seen.append(args)
            raise _Captured

        monkeypatch.setattr(module, name, stop)
        with pytest.raises(_Captured):
            run_scenario(parse_scenario(f"command: {command}\n"), tmp_path)
        return seen[0]

    def test_aue(self, monkeypatch, tmp_path):
        _, cfg, _, _ = self._capture(monkeypatch, tmp_path, aue_net,
                                     "sinr_samples", "aue-coverage")
        assert cfg == aue_net.AueNetworkConfig()

    def test_abs_profile(self, monkeypatch, tmp_path):
        *_, prof = self._capture(monkeypatch, tmp_path, abs_net,
                                 "design_rows", "abs-design")
        assert prof == abs_net.urban_abs_profile()

    def test_localize(self, monkeypatch, tmp_path):
        scen, _, chan, _ = self._capture(monkeypatch, tmp_path, loc,
                                         "run_campaign", "localize")
        assert scen == loc.LocalizationScenario()
        assert chan == loc.ElevationChannel()

    def test_mapsim_auto_sites(self, monkeypatch, tmp_path):
        sites, hm, _, cfg = self._capture(monkeypatch, tmp_path, ms,
                                          "sinr_grids", "mapsim")
        # the mapsim block's environment defaults to the dense-urban preset
        assert cfg == ms.MapSimConfig(env=ch.dense_urban())
        assert sites == [ms.site_on_roof(hm, s.position.x, s.position.y)
                         for s in sites]


def _numeric_leaves(schema, path=()):
    for key, f in schema.items():
        if f.schema is not None:
            # an environment block is walked over every environment key:
            # one that the block does not take is rejected as unknown
            sub = ({**_ENV_FIELDS, **f.schema} if key == "environment"
                   else f.schema)
            yield from _numeric_leaves(sub, (*path, key))
        elif f.kind in (int, float) or (f.kind is list
                                        and f.item_kind in (int, float)):
            yield (*path, key), f


def _past_bounds(f):
    """NaN, +-inf and a value just past each of the field's bounds."""
    integral = int in (f.kind, f.item_kind)
    values = [math.nan, math.inf, -math.inf]
    if f.minimum is not None:
        values.append(f.minimum - 1 if integral
                      else math.nextafter(f.minimum, -math.inf))
    if f.maximum is not None:
        values.append(f.maximum + 1 if integral
                      else math.nextafter(f.maximum, math.inf))
    values += [v for v in (f.above, f.below) if v is not None]
    return [[v] if f.kind is list else v for v in values]


# the smallest valid scenario of each command
_WALK_BASES = {command: {"command": command} for command in SCHEMAS}
_WALK_BASES["aue-sweep"] = yaml.safe_load(SWEEP_ALTITUDE)
_SCHEMA_WALK = [(command, path, value)
                for command, schema in SCHEMAS.items()
                for path, f in _numeric_leaves({**_TOP_LEVEL, **schema})
                for value in _past_bounds(f)]


@pytest.mark.parametrize("command,path,value", _SCHEMA_WALK, ids=[
    f"{command}:{'.'.join(path)}={value!r}"
    for command, path, value in _SCHEMA_WALK])
def test_schema_walk_exit_code(tmp_path, capsys, command, path, value):
    # every numeric leaf rejects NaN, +-inf and each breach of its bounds
    # when the file is parsed: exit 2, the key named, no traceback
    doc = yaml.safe_load(yaml.safe_dump(_WALK_BASES[command]))
    node = doc
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    scn = tmp_path / "walk.yaml"
    scn.write_text(yaml.safe_dump(doc))
    assert main(["--scenario", str(scn), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert ".".join(path) in err and "Traceback" not in err


def _reference_write_csv(path, header, rows):
    """The CSV writer one value and one write at a time, each value through
    `_fmt`."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return path


def test_write_csv_matches_per_value_writer(tmp_path):
    rows = [[1.5, np.float64(2.25), -0.0, 0.0, math.nan, -math.nan,
             math.inf, -math.inf, None],
            [7, np.int64(-3), True, False, "urban", 10 ** 9, 123456789012,
             -(10 ** 12), np.int64(2 ** 62)],
            [1e-300, 5e-324, 1.7976931348623157e308, 0.1 + 0.2, 1e9, 1e16,
             np.float64(math.nan), np.float32(0.1), np.float64(-math.inf)]]
    expected = _reference_write_csv(tmp_path / "ref.csv", ["a", "b"], rows)
    got = _write_csv(tmp_path / "new.csv", ["a", "b"], rows)
    assert got.read_bytes() == expected.read_bytes()
    empty = _write_csv(tmp_path / "empty.csv", ["a"], [])
    assert empty.read_bytes() == b"a\n"
    assert got.read_text().splitlines()[2].split(",")[5:7] == [
        "1000000000", "123456789012"]


def _reference_abs_design(s, out_dir):
    """The abs-design table one altitude at a time: the power and its gain
    from the per-altitude library calls, the sum-rate gain from a
    one-altitude design_rows call."""
    b = s.params["abs"]
    prof = abs_net.urban_abs_profile(
        k0_db=b["k0_db"], k90_db=b["k90_db"], eta0=b["eta0"], eta90=b["eta90"],
        antenna_gain=10.0 ** (b["antenna_gain_db"] / 10.0),
        noise_w=dbm_to_watt(b["noise_dbm"]),
        threshold_t=10.0 ** (b["threshold_db"] / 10.0))
    rows = []
    for h in b["altitudes_m"]:
        p_req = abs_net.required_power(h, b["r_c_m"], b["epsilon"], prof)
        gain = abs_net.power_gain(h, b["r_c_m"], b["epsilon"], prof)
        [(_, _, srg)] = abs_net.design_rows([h], b["r_c_m"], b["epsilon"],
                                            prof)
        rows.append([h, b["r_c_m"], p_req, gain, srg])
    return _reference_write_csv(out_dir / "abs_design.csv",
                                ["h_m", "r_c_m", "p_req_w", "power_gain",
                                 "sum_rate_gain"], rows)


class TestAbsDesignRows:
    """The shared design rows write the bytes the per-altitude loop writes."""

    def _check(self, s, tmp_path):
        expected = _reference_abs_design(s, tmp_path).read_bytes()
        assert run_scenario(s, tmp_path / "rows")[0].read_bytes() == expected

    def test_shipped_scenario(self, tmp_path):
        self._check(load_scenario(SCENARIOS / "abs_design.yaml"), tmp_path)

    @pytest.mark.parametrize("epsilon", [0.01, 0.05, 0.1])
    @pytest.mark.parametrize("r_c", [250, 500, 1000])
    def test_bench_grid(self, r_c, epsilon, tmp_path):
        self._check(parse_scenario(yaml.safe_dump(
            {"command": "abs-design",
             "abs": {"epsilon": epsilon, "r_c_m": r_c,
                     "altitudes_m": _geom_grid(50, 1600, 12)}})), tmp_path)


def _reference_channel_table(s, out_dir):
    """The channel table one scalar cell at a time, each out-of-window or
    undefined entry caught as a DomainError and written as nan."""
    block = s.params["channel"]
    env = _environment(block["environment"])
    f_ghz = block["frequency_ghz"]
    h_g = block["h_g_m"]
    rows = []
    for h in block["altitudes_m"]:
        slice_ = ch.slice_of(h, env)
        for d_h in block["distances_m"]:
            # the descending-ray form: the table takes the heights as they come
            p_build = ch.p_los_building(d_h, max(h, h_g), min(h, h_g), env)
            p_3gpp = ch.p_los_3gpp(d_h, h, slice_)
            cells = []
            for los in (True, False):
                try:
                    cells.append(ch.pl_3gpp_rural_db(d_h, h, h_g, f_ghz, env,
                                                     los, slice_))
                except DomainError:
                    cells.append(float("nan"))
            pl_l, pl_n = cells
            avg = (ch.averaged_pl_db(pl_l, pl_n, float(p_3gpp))
                   if not (math.isnan(pl_l) or math.isnan(pl_n)) else float("nan"))
            for los in (True, False):
                try:
                    cells.append(ch.shadowing_sigma_db(slice_, los, d_h, h,
                                                       h_g_m=h_g, f_c_ghz=f_ghz))
                except DomainError:
                    cells.append(float("nan"))
            rows.append([h, d_h, slice_.value, float(p_build), float(p_3gpp),
                         pl_l, pl_n, avg] + cells[2:])
    return _reference_write_csv(out_dir / "channel_table.csv",
                                ["h_uav_m", "d_h_m", "slice", "p_los_building",
                                 "p_los_3gpp", "pl_los_db", "pl_nlos_db",
                                 "pl_avg_db", "sigma_los_db", "sigma_nlos_db"],
                                rows)


def _geom_grid(lo, hi, n):
    """The benchmark's log-spaced grid: 4 significant digits."""
    return [float("%.4g" % (lo * (hi / lo) ** (k / (n - 1)))) for k in range(n)]


# d_h = 0 at h = h_g (no loss) and at h != h_g (aerial loss at d_3d = |h - h_g|);
# 5, 6000 and 12000 m fall outside the ground-slice windows; 150 and 300 m
# are high-altitude, whose NLOS sigma the model leaves undefined
EDGE_CHANNEL = {"h_g_m": 30.0, "altitudes_m": [1.5, 15.0, 30.0, 150.0, 300.0],
                "distances_m": [0.0, 5.0, 10.0, 500.0, 5000.0, 6000.0, 10000.0,
                                12000.0]}


class TestChannelTableArray:
    """The array table writes the bytes the per-cell loop writes."""

    def _check(self, channel, tmp_path):
        s = parse_scenario(yaml.safe_dump({"command": "channel-table",
                                           "channel": channel}))
        ref = _reference_channel_table(s, tmp_path)
        expected = ref.read_bytes()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = run_scenario(s, tmp_path / "array")[0].read_bytes()
        assert got == expected
        return got.decode().splitlines()[1:]

    @pytest.mark.parametrize("h_g", [1.5, 30.0, 100.0])
    @pytest.mark.parametrize("preset", ["suburban", "urban", "dense_urban",
                                        "highrise"])
    def test_bench_grid_byte_identical(self, preset, h_g, tmp_path):
        self._check({"frequency_ghz": 1.8, "h_g_m": h_g,
                     "altitudes_m": _geom_grid(1.5, 300, 40),
                     "distances_m": _geom_grid(20, 5000, 40),
                     "environment": {"preset": preset}}, tmp_path)

    def test_edge_cells(self, tmp_path):
        rows = {(float(r[0]), float(r[1])): r[5:]
                for r in (line.split(",") for line in
                          self._check(EDGE_CHANNEL, tmp_path))}
        assert rows[30.0, 0.0][:3] == ["nan", "nan", "nan"]
        assert all(v != "nan" for v in rows[150.0, 0.0][:4])
        for d_h in (0.0, 5.0, 12000.0):
            assert rows[1.5, d_h][:3] == ["nan", "nan", "nan"]
        assert rows[1.5, 6000.0][0] != "nan" and rows[1.5, 6000.0][1] == "nan"
        assert all(rows[300.0, d][4] == "nan" for d in EDGE_CHANNEL["distances_m"])

    def test_building_column_is_p_los_building(self, tmp_path):
        # UE heights below, at and above h_g = 30 m
        channel = {"h_g_m": 30.0, "altitudes_m": [1.5, 10.0, 30.0, 150.0],
                   "distances_m": [0.0, 120.0, 500.0, 2500.0]}
        s = parse_scenario(yaml.safe_dump({"command": "channel-table",
                                           "channel": channel}))
        env = _environment(s.params["channel"]["environment"])
        rows = [line.split(",") for line in run_scenario(s, tmp_path)[0]
                .read_text().splitlines()[1:]]
        assert len(rows) == 16
        for row in rows:
            h, d_h = float(row[0]), float(row[1])
            assert row[3] == _fmt(float(ch.p_los_building(d_h, h, 30.0, env)))
        assert len({row[3] for row in rows}) > 4


class TestDeterminism:
    def test_same_seed_identical_bytes(self, tmp_path):
        s = parse_scenario(AUE_TABLE_IV)
        a = run_scenario(s, tmp_path / "a")[0]
        b = run_scenario(s, tmp_path / "b")[0]
        assert sha(a) == sha(b)

    def test_thread_count_invariance(self, tmp_path):
        s = parse_scenario(AUE_TABLE_IV)
        a = run_scenario(s, tmp_path / "t1", threads=1)[0]
        b = run_scenario(s, tmp_path / "t4", threads=4)[0]
        assert sha(a) == sha(b)

    def test_seed_changes_output(self, tmp_path):
        s1 = parse_scenario(AUE_TABLE_IV)
        s2 = parse_scenario(AUE_TABLE_IV)
        s2.seed = 999
        a = run_scenario(s1, tmp_path / "a")[0]
        b = run_scenario(s2, tmp_path / "b")[0]
        assert sha(a) != sha(b)

    def test_float_formatting_nine_digits(self, tmp_path):
        s = parse_scenario("command: abs-design\nabs:\n  altitudes_m: [123.456]\n")
        lines = run_scenario(s, tmp_path)[0].read_text().splitlines()
        for token in lines[1].split(","):
            digits = token.split("e")[0].replace("-", "").replace(".", "")
            assert len(digits.lstrip("0")) <= 9


class TestMainEntry:
    def test_full_cli_flow(self, tmp_path, capsys):
        scn = tmp_path / "run.yaml"
        scn.write_text(LOCALIZE_TABLE_VI)
        code = main(["--scenario", str(scn), "--out", str(tmp_path / "out"),
                     "--seed", "17"])
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out and out[0].endswith("localize.csv")

    def test_threads_flag_is_gone(self, tmp_path, capsys):
        # runs are serial; the flag that was accepted and ignored is refused
        scn = tmp_path / "run.yaml"
        scn.write_text(MINIMAL_CHANNEL)
        with pytest.raises(SystemExit) as exc:
            main(["--scenario", str(scn), "--out", str(tmp_path / "out"),
                  "--threads", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("out,taken,named", [
        ("file", "file", "file"), ("file/sub", "file", "file/sub"),
        ("out", "out/channel_table.csv/", "out/channel_table.csv")])
    def test_unwritable_output_exit_code(self, tmp_path, capsys, out, taken,
                                         named):
        # a regular file on the output path raised a raw FileExistsError or
        # NotADirectoryError from mkdir, and a directory where the table
        # goes a raw IsADirectoryError
        scn = tmp_path / "run.yaml"
        scn.write_text(MINIMAL_CHANNEL)
        if taken.endswith("/"):
            (tmp_path / taken).mkdir(parents=True)
        else:
            (tmp_path / taken).write_text("")
        assert main(["--scenario", str(scn), "--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("scenario error: output: [Errno ")
        assert err[0].endswith(f": '{tmp_path / named}'")

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_seed_override_bound_exit_code(self, tmp_path, capsys, seed):
        # the override went unchecked: RngStream rejected it with exit 1
        # and no key, or a run that draws nothing wrote its tables
        scn = tmp_path / "run.yaml"
        scn.write_text(MINIMAL_CHANNEL)
        assert main(["--scenario", str(scn), "--out", str(tmp_path),
                     "--seed", seed]) == 2
        assert "seed:" in capsys.readouterr().err

    def test_largest_seed_accepted(self, tmp_path):
        # a synthetic city draws on RngStream(seed, 1000)
        scn = tmp_path / "run.yaml"
        scn.write_text(f"command: mapsim\nseed: {2 ** 64 - 1}\nmapsim:\n"
                       "  synthetic: {extent_m: 100, cellsize_m: 10}\n"
                       "  auto_sites: {count: 1}\n  heights_m: [40]\n"
                       "  emit_rasters: false\n")
        assert main(["--scenario", str(scn), "--out", str(tmp_path)]) == 0

    def test_parse_failure_exit_code(self, tmp_path, capsys):
        scn = tmp_path / "bad.yaml"
        scn.write_text("command: localize\nlocalize:\n  radius: 5\n")
        assert main(["--scenario", str(scn)]) == 2
        assert "radius" in capsys.readouterr().err

    @pytest.mark.parametrize("text,path", [
        ("command: aue-coverage\naue:\n  bs_density_per_km2: .nan\n",
         "aue.bs_density_per_km2"),
        ("command: channel-table\nchannel:\n  distances_m: [.nan]\n",
         "channel.distances_m[0]"),
        ("command: channel-table\nchannel:\n  frequency_ghz: .inf\n",
         "channel.frequency_ghz"),
        ("command: aue-coverage\nrun:\n  thresholds_db: [0, -.inf]\n",
         "run.thresholds_db[1]"),
        # an integer past the float range
        ("command: channel-table\nchannel:\n  h_g_m: 1" + "0" * 400 + "\n",
         "channel.h_g_m"),
    ])
    def test_non_finite_number_exit_code(self, tmp_path, capsys, text, path):
        # NaN passed every bound and reached the Poisson draw as a raw
        # ValueError; inf reached the models as a number
        scn = tmp_path / "bad.yaml"
        scn.write_text(text)
        assert main(["--scenario", str(scn), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert path in err and "finite" in err

    @pytest.mark.parametrize("key", ["k0_db", "k90_db", "eta0", "eta90",
                                     "antenna_gain_db", "noise_dbm",
                                     "threshold_db", "r_c_m", "altitudes_m"])
    def test_abs_overflow_exit_code(self, tmp_path, capsys, key):
        # 1e300 ended in a raw OverflowError; eta90 exited 1 without naming
        # the key, and the altitude wrote a row after an overflow warning
        value = "[1.0e+300]" if key == "altitudes_m" else "1.0e+300"
        scn = tmp_path / "bad.yaml"
        scn.write_text(f"command: abs-design\nabs:\n  {key}: {value}\n")
        assert main(["--scenario", str(scn), "--out", str(tmp_path)]) == 2
        assert f"abs.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,path", MODEL_BOUNDS)
    def test_model_bound_exit_code(self, tmp_path, capsys, key, value, path):
        scn = tmp_path / "bad.yaml"
        scn.write_text(yaml.safe_dump(_bounded_doc(key, value, path)))
        assert main(["--scenario", str(scn), "--out", str(tmp_path)]) == 2
        assert path in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,path", [
        ("sector_beamwidth_deg", 1e-320, "aue.sector_beamwidth_deg"),
        ("sector_elevation_beamwidth_deg", 1e-320,
         "aue.sector_elevation_beamwidth_deg"),
        ("auto_sites", {"beamwidth_deg": 1e-320},
         "mapsim.auto_sites.beamwidth_deg")])
    def test_subnormal_beamwidth_exit_code(self, tmp_path, capsys, key, value,
                                           path):
        # the sector pattern's 12 (angle / beamwidth)^2 overflowed, with
        # exit 0 and RuntimeWarnings
        scn = tmp_path / "bad.yaml"
        scn.write_text(yaml.safe_dump(_bounded_doc(key, value, path)))
        assert main(["--scenario", str(scn), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: must be at least 0.001" in err

    def test_altitude_floor_writes_finite_losses(self, tmp_path):
        # the lowest altitude the ground fits take, as h_g_m's floor
        scn = tmp_path / "run.yaml"
        scn.write_text("command: channel-table\nchannel:\n"
                       "  altitudes_m: [1.0]\n")
        assert main(["--scenario", str(scn), "--out", str(tmp_path)]) == 0
        rows = [line.split(",") for line in
                (tmp_path / "channel_table.csv").read_text().splitlines()[1:]]
        assert len(rows) == 5
        assert all(math.isfinite(float(v)) for row in rows for v in row[5:8])

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["--scenario", str(tmp_path / "nope.yaml")]) == 2

    def test_non_utf8_file_exit_code(self, tmp_path, capsys):
        # byte 0xff ended in a raw UnicodeDecodeError with exit 1
        scn = tmp_path / "run.yaml"
        scn.write_bytes(b"command: channel-table\nseed: \xff\n")
        assert main(["--scenario", str(scn), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "not UTF-8" in err and "Traceback" not in err

    def test_t_max_below_every_node_exit_code(self, tmp_path, capsys):
        # -100 dB lies below the smallest of K = 200 nodes (about -46 dB):
        # the sweep kept no node and wrote a capacity of 0 on every row,
        # and later exited 1 without naming the key
        scn = tmp_path / "run.yaml"
        scn.write_text("command: aue-sweep\nsweep:\n  axis: altitude\n"
                       "  grid: [60]\n  n_trials: 100\n  t_max_db: -100\n")
        assert main(["--scenario", str(scn), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "sweep.t_max_db: " in err and "Traceback" not in err
        assert not (tmp_path / "aue_sweep.csv").exists()

    @pytest.mark.parametrize("k_nodes", [50, 200])
    def test_t_max_at_first_node(self, tmp_path, capsys, k_nodes):
        # the smallest t_max_db whose linear value reaches the first node
        # parses; one ulp below it is named at parse time (exit 2)
        t0 = aue_net.capacity_coefficients(k_nodes, None)[0][0]
        at = 10.0 * math.log10(t0)
        while 10.0 ** (at / 10.0) < t0:
            at = math.nextafter(at, math.inf)
        while 10.0 ** (math.nextafter(at, -math.inf) / 10.0) >= t0:
            at = math.nextafter(at, -math.inf)
        assert -47.0 < at < -34.0
        doc = yaml.safe_load(SWEEP_ALTITUDE)
        doc["sweep"].update(k_nodes=k_nodes, n_trials=5, t_max_db=at)
        parse_scenario(yaml.safe_dump(doc))
        doc["sweep"]["t_max_db"] = math.nextafter(at, -math.inf)
        scn = tmp_path / "run.yaml"
        scn.write_text(yaml.safe_dump(doc))
        assert main(["--scenario", str(scn), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "sweep.t_max_db: " in err and "no node is left" in err

    def test_tilt_sweep_of_omni_exit_code(self, tmp_path, capsys):
        # the default omni antenna passed parsing, then exited 1 with a
        # model error that named no key
        scn = tmp_path / "run.yaml"
        scn.write_text("command: aue-sweep\nsweep:\n  axis: phi_t\n"
                       "  grid: [10]\n  n_trials: 5\n")
        assert main(["--scenario", str(scn), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "sweep.axis: " in err and "aue.antenna cone" in err
        assert not (tmp_path / "aue_sweep.csv").exists()

    @pytest.mark.parametrize("block,code,named", [
        ("  heightmap: nope.asc\n", 2, "mapsim.heightmap"),
        ("  heightmap: bad.asc\n", 2, "mapsim.heightmap"),
        ("  synthetic: {extent_m: 100, cellsize_m: 5}\n"
         "  sites_csv: nope.csv\n", 2, "mapsim.sites_csv"),
        ("  synthetic: {extent_m: 100, cellsize_m: 0}\n", 2,
         "mapsim.synthetic.cellsize_m"),
        ("  heightmap: holed.asc\n  auto_sites: {count: 1}\n", 2,
         "mapsim.auto_sites"),
    ])
    def test_bad_mapsim_input_exit_code(self, tmp_path, capsys, monkeypatch,
                                        block, code, named):
        (tmp_path / "bad.asc").write_text("ncols 2\nnrows 1\ncellsize 10\n"
                                          "1 oops\n")
        # a no-data block under the map centre, where one auto site goes
        holed = np.zeros((40, 40))
        holed[18:23, 18:23] = np.nan
        save_ascii_grid(HeightMap(holed, cellsize=10.0), tmp_path / "holed.asc")
        scn = tmp_path / "run.yaml"
        scn.write_text("command: mapsim\nmapsim:\n" + block)
        monkeypatch.chdir(tmp_path)  # the file names are relative
        assert main(["--scenario", str(scn), "--out", str(tmp_path)]) == code
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and named in err[0]

    def _mapsim_exit(self, tmp_path, capsys, monkeypatch, block):
        """Exit code and stderr lines of a mapsim run on `block`."""
        scn = tmp_path / "run.yaml"
        scn.write_text("command: mapsim\nmapsim:\n" + block
                       + "  heights_m: [1.5]\n  emit_rasters: false\n")
        monkeypatch.chdir(tmp_path)  # the file names are relative
        code = main(["--scenario", str(scn), "--out", str(tmp_path)])
        return code, capsys.readouterr().err.strip().splitlines()

    @pytest.mark.parametrize("line", ["cellsize nan", "cellsize inf",
                                      "xllcorner nan", "ncols inf",
                                      "ncols 4.5", "nrows 0"])
    def test_bad_heightmap_header_exit_code(self, tmp_path, capsys,
                                            monkeypatch, line):
        # a non-finite cell size or corner ended in a raw IndexError from
        # surface_at, ncols inf in a raw OverflowError, and ncols 4.5 was
        # read as 4
        header = {"ncols": "ncols 4", "nrows": "nrows 4",
                  "xllcorner": "xllcorner 0", "yllcorner": "yllcorner 0",
                  "cellsize": "cellsize 10"}
        header[line.split()[0]] = line
        (tmp_path / "city.asc").write_text(
            "\n".join(header.values()) + "\n" + "0 0 0 0\n" * 4)
        code, err = self._mapsim_exit(tmp_path, capsys, monkeypatch,
                                      "  heightmap: city.asc\n"
                                      "  auto_sites: {count: 1}\n")
        assert code == 2
        assert len(err) == 1 and "mapsim.heightmap: " in err[0]
        assert line.split()[0] in err[0] and "line " in err[0]

    @pytest.mark.parametrize("column,value", [
        ("p_tx_dbm", "inf"), ("roof_h", "nan"), ("azimuth0_deg", "nan"),
        ("x", "nan"), ("beamwidth_deg", "-inf")])
    def test_non_finite_site_value_exit_code(self, tmp_path, capsys,
                                             monkeypatch, column, value):
        # inf power or a nan roof or bearing exited 0 with coverage 0, and
        # a nan x exited 1 about the map edge without naming the file
        row = dict(zip(SITE_CSV_COLUMNS,
                       ["50", "50", "0", "46", "0", "8", "16", "65"]))
        row[column] = value
        (tmp_path / "sites.csv").write_text(
            ",".join(row) + "\n" + ",".join(row.values()) + "\n")
        code, err = self._mapsim_exit(
            tmp_path, capsys, monkeypatch,
            "  synthetic: {extent_m: 100, cellsize_m: 10}\n"
            "  sites_csv: sites.csv\n")
        assert code == 2
        assert len(err) == 1 and "mapsim.sites_csv: " in err[0]
        assert f"line 2: {column} must be a finite number" in err[0]

    @pytest.mark.parametrize("column,value,why", [
        ("p_tx_dbm", "1e308", "must be at most 150"),
        ("max_gain_dbi", "-1e308", "must be at least -150"),
        ("beamwidth_deg", "1e-320", "must be at least 0.001"),
        ("beamwidth_deg", "361", "must be at most 360"),
        ("tilt_deg", "-90.5", "must be at least -90"),
        ("roof_h", "1e308", "must be at most 10000"),
        # the mast would stand under the 1 m floor of the ground fits
        ("roof_h", "-4.5", "must be at least -4"),
        ("x", "500", "500.0 lies off the map"),
        ("y", "-1e308", "-1e+308 lies off the map")])
    def test_site_value_out_of_bounds_exit_code(self, tmp_path, capsys,
                                                monkeypatch, column, value,
                                                why):
        # power, gain or roof at 1e308 and a subnormal beamwidth exited 0
        # with RuntimeWarnings; a site off the 100 m map exited 1 with a
        # message that named neither the file nor the line
        good = ["50", "50", "0", "46", "0", "8", "16", "65"]
        row = dict(zip(SITE_CSV_COLUMNS, good))
        row[column] = value
        (tmp_path / "sites.csv").write_text(
            ",".join(row) + "\n" + ",".join(good) + "\n"
            + ",".join(row.values()) + "\n")
        code, err = self._mapsim_exit(
            tmp_path, capsys, monkeypatch,
            "  synthetic: {extent_m: 100, cellsize_m: 10}\n"
            "  sites_csv: sites.csv\n")
        assert code == 2
        assert len(err) == 1 and "mapsim.sites_csv: " in err[0]
        assert f"line 3: {column}: {why}" in err[0]
        assert not (tmp_path / "mapsim_summary.csv").exists()

    _SITE_HEADER = ("x,y,roof_h,p_tx_dbm,azimuth0_deg,tilt_deg,max_gain_dbi,"
                    "beamwidth_deg\n")
    _SITE_ROW = "50,50,0,46,0,8,16,65\n"

    @pytest.mark.parametrize("text,message", [
        ("x,y,roof_h,p_tx_dbm,azimuth0_deg,tilt_deg,max_gain_dbi\n"
         "50,50,0,46,0,8,16\n",
         "site CSV missing columns ['beamwidth_deg']"),
        (_SITE_HEADER + _SITE_ROW + "50,50,0,46,nan,8,16,65\n",
         "site CSV line 3: azimuth0_deg must be a finite number, not 'nan'"),
        (_SITE_HEADER + _SITE_ROW + "50,50,0,1e308,0,8,16,65\n",
         "line 3: p_tx_dbm: must be at most 150.0"),
        (_SITE_HEADER + _SITE_ROW + "500,50,0,46,0,8,16,65\n",
         "line 3: x: 500.0 lies off the map, outside [0, 100]"),
        (_SITE_HEADER, "site CSV holds no sites"),
        # every value of every row is checked finite before any bound
        (_SITE_HEADER + "50,50,0,1e308,0,8,16,65\n50,50,0,46,0,8,inf,65\n",
         "site CSV line 3: max_gain_dbi must be a finite number, not 'inf'"),
    ], ids=["missing_column", "non_finite", "out_of_bound", "off_map",
            "no_rows", "non_finite_after_out_of_bound"])
    def test_site_csv_message(self, tmp_path, capsys, monkeypatch, text,
                              message):
        (tmp_path / "sites.csv").write_text(text)
        code, err = self._mapsim_exit(
            tmp_path, capsys, monkeypatch,
            "  synthetic: {extent_m: 100, cellsize_m: 10}\n"
            "  sites_csv: sites.csv\n")
        assert code == 2
        assert err == ["scenario error: mapsim.sites_csv: cannot read "
                       f"'sites.csv': {message}"]

    def test_site_csv_field_over_csv_limit_exit_code(self, tmp_path, capsys,
                                                     monkeypatch):
        # the csv module's own error ended in a raw traceback, exit 1
        (tmp_path / "sites.csv").write_text(
            self._SITE_HEADER + "1" * 200000 + ",50,0,46,0,8,16,65\n")
        code, err = self._mapsim_exit(
            tmp_path, capsys, monkeypatch,
            "  synthetic: {extent_m: 100, cellsize_m: 10}\n"
            "  sites_csv: sites.csv\n")
        assert code == 2
        assert err == ["scenario error: mapsim.sites_csv: cannot read "
                       "'sites.csv': field larger than field limit (131072)"]

    def test_missing_site_csv_message(self, tmp_path, capsys, monkeypatch):
        code, err = self._mapsim_exit(
            tmp_path, capsys, monkeypatch,
            "  synthetic: {extent_m: 100, cellsize_m: 10}\n"
            "  sites_csv: nope.csv\n")
        assert code == 2
        assert err == ["scenario error: mapsim.sites_csv: cannot read "
                       "'nope.csv': [Errno 2] No such file or directory: "
                       "'nope.csv'"]

    @pytest.mark.parametrize("value", ["1e308", "1e6"])
    def test_heightmap_value_out_of_bounds_exit_code(self, tmp_path, capsys,
                                                     monkeypatch, value):
        # a 1e308 m cell exited 0 with RuntimeWarnings from _blocked and a
        # tower that blocked nothing
        rows = [["0"] * 20 for _ in range(20)]
        rows[12][7] = value
        (tmp_path / "city.asc").write_text(
            "ncols 20\nnrows 20\ncellsize 10\n"
            + "".join(" ".join(r) + "\n" for r in rows))
        code, err = self._mapsim_exit(tmp_path, capsys, monkeypatch,
                                      "  heightmap: city.asc\n"
                                      "  auto_sites: {count: 1}\n")
        assert code == 2
        assert len(err) == 1 and "mapsim.heightmap: " in err[0]
        assert "line 16: " in err[0] and "column 8" in err[0]

    def test_auto_site_under_antenna_floor_exit_code(self, tmp_path, capsys,
                                                     monkeypatch):
        # on ground at -5 m the 5 m mast stood at 0 m, where the ground fit
        # took log10 of a zero breakpoint
        (tmp_path / "city.asc").write_text(
            "ncols 10\nnrows 10\ncellsize 10\n"
            + "".join(" ".join(["-5"] * 10) + "\n" for _ in range(10)))
        code, err = self._mapsim_exit(tmp_path, capsys, monkeypatch,
                                      "  heightmap: city.asc\n"
                                      "  auto_sites: {count: 1}\n")
        assert code == 2
        assert len(err) == 1 and "mapsim.auto_sites: " in err[0]
        assert "stands at 0 m, under the ground fits' 1 m floor" in err[0]

    @pytest.mark.parametrize("shape", [(2, 20), (20, 2)])
    def test_auto_sites_on_non_square_map(self, tmp_path, capsys, monkeypatch,
                                          shape):
        # the map's x extent placed both coordinates: on a 20 x 2-cell map
        # the sites fell off it, and the run exited 1 with a model error
        save_ascii_grid(HeightMap(np.zeros(shape), cellsize=10.0,
                                  xllcorner=100.0, yllcorner=-50.0),
                        tmp_path / "city.asc")
        placed = []
        sinr_grids = ms.sinr_grids

        def record(sites, *args, **kwargs):
            placed.extend((s.position.x, s.position.y) for s in sites)
            return sinr_grids(sites, *args, **kwargs)

        monkeypatch.setattr(ms, "sinr_grids", record)
        code, _ = self._mapsim_exit(tmp_path, capsys, monkeypatch,
                                    "  heightmap: city.asc\n"
                                    "  auto_sites: {count: 5}\n")
        assert code == 0
        width, height = 10.0 * shape[1], 10.0 * shape[0]
        assert placed == [(100.0 + width * fx, -50.0 + height * fy)
                          for fx, fy in ((0.25, 0.25), (0.75, 0.25),
                                         (0.25, 0.75), (0.75, 0.75),
                                         (0.5, 0.5))]

    def test_map_height_below_floor_exit_code(self, tmp_path, capsys):
        # exited 0 with coverage 0 at 1e-300 m and 1 at 0.5 m
        scn = tmp_path / "run.yaml"
        scn.write_text("command: mapsim\nmapsim:\n"
                       "  synthetic: {extent_m: 100, cellsize_m: 10}\n"
                       "  heights_m: [1.0e-300, 0.5, 1.0, 1.5]\n")
        assert main(["--scenario", str(scn), "--out", str(tmp_path)]) == 2
        assert "mapsim.heights_m[0]: " in capsys.readouterr().err
        assert not (tmp_path / "mapsim_summary.csv").exists()


# scipy is most of the package's start-up time (scipy.stats alone about half
# a second and 20 MB) and is imported on first use; only the abs-design,
# coverage-radius and localization paths use it
_NO_SCIPY = ("bad = [m for m in sys.modules if m.split('.')[0] == 'scipy']; "
             "assert not bad, bad")


def _run_fresh(code, *args):
    """Run `code` in a fresh interpreter on this package; returns its
    stdout."""
    src = str(Path(a2gnet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env=env, check=True, stdout=subprocess.PIPE,
                          text=True).stdout


def test_import_does_not_load_scipy():
    # no scipy module at all, so not scipy.stats, the costliest one
    _run_fresh("import sys, a2gnet, a2gnet.cli; " + _NO_SCIPY)


def test_import_loads_only_the_modules_asked_for():
    # the package re-exported every module's names, so any import of it
    # loaded all eleven modules and PyYAML
    _run_fresh("import sys, a2gnet; "
               "loaded = [m for m in sys.modules if m.startswith('a2gnet.')]; "
               "assert not loaded, loaded")
    _run_fresh("import sys, a2gnet.channel; "
               "loaded = sorted(m for m in sys.modules "
               "if m.split('.')[0] == 'a2gnet'); "
               "assert loaded == ['a2gnet', 'a2gnet.channel', 'a2gnet.errors', "
               "'a2gnet.limits', 'a2gnet.numerics'], loaded; "
               "assert 'yaml' not in sys.modules")


def test_leaf_module_loads_nothing_else():
    # the schema reads the models' limits from it without loading a model
    _run_fresh("import sys, a2gnet.limits; "
               "loaded = sorted(m for m in sys.modules "
               "if m.split('.')[0] in ('a2gnet', 'numpy', 'yaml')); "
               "assert loaded == ['a2gnet', 'a2gnet.limits'], loaded")


# What a fresh interpreter has run of the package, printed as JSON after
# `code`: a model module that cli binds lazily stays a stand-in, a subclass
# of the module type, until its first attribute lookup runs it.
_FOOTPRINT = (
    "import json, types\n"
    "ran = {m: type(v) is types.ModuleType for m, v in sys.modules.items()\n"
    "       if m.split('.')[0] == 'a2gnet'}\n"
    "print(json.dumps({'ran': sorted(m for m in ran if ran[m]),\n"
    "                  'stand_ins': sorted(m for m in ran if not ran[m]),\n"
    "                  'numpy.random': 'numpy.random' in sys.modules}))\n")

_PARSER_MODULES = ["a2gnet", "a2gnet.cli", "a2gnet.errors", "a2gnet.limits",
                   "a2gnet.numerics", "a2gnet.scenario"]
_MODEL_MODULES = ["a2gnet.abs_net", "a2gnet.antenna_geometry",
                  "a2gnet.aue_net", "a2gnet.channel", "a2gnet.heightmap",
                  "a2gnet.localization", "a2gnet.mapsim"]
# the model modules a command's run executes: its own and what they import
_COMMAND_MODULES = {
    "abs-design": ["abs_net"],
    "aue-coverage": ["antenna_geometry", "aue_net", "channel"],
    "aue-sweep": ["antenna_geometry", "aue_net", "channel"],
    "channel-table": ["channel"],
    "localize": ["antenna_geometry", "localization"],
    "mapsim": ["antenna_geometry", "channel", "heightmap", "mapsim"],
}


def _footprint(code, *args):
    return json.loads(_run_fresh("import sys\n" + code + _FOOTPRINT,
                                 *args).splitlines()[-1])


def test_cli_import_runs_only_the_parser():
    # cli imported every model module, and numerics numpy.random
    assert _footprint("import a2gnet.cli\n") == {
        "ran": _PARSER_MODULES, "stand_ins": _MODEL_MODULES,
        "numpy.random": False}


@pytest.mark.parametrize("name", sorted(p.stem
                                        for p in SCENARIOS.glob("*.yaml")))
def test_shipped_run_loads_only_its_command_modules(tmp_path, name):
    path = SCENARIOS / f"{name}.yaml"
    command = load_scenario(path).command
    got = _footprint("import a2gnet.cli as cli, a2gnet.scenario as sc\n"
                     "cli.run_scenario(sc.load_scenario(sys.argv[2]), "
                     "sys.argv[1])\n", tmp_path, path)
    ran = _PARSER_MODULES + [f"a2gnet.{m}" for m in _COMMAND_MODULES[command]]
    assert got["ran"] == sorted(ran)
    assert got["stand_ins"] == sorted(set(_MODEL_MODULES) - set(ran))
    if command == "channel-table":  # it draws nothing and loads no scipy
        assert not got["numpy.random"]


def test_mapsim_and_aue_runs_do_not_load_scipy(tmp_path):
    aue_tiny = AUE_TABLE_IV.replace("n_trials: 150", "n_trials: 10")
    code = ("import sys, a2gnet.cli as cli, a2gnet.scenario as sc\n"
            "for i, text in enumerate(sys.argv[2:]):\n"
            "    cli.run_scenario(sc.parse_scenario(text), f'{sys.argv[1]}/{i}')\n"
            + _NO_SCIPY)
    _run_fresh(code, tmp_path, MAPSIM_SMALL, aue_tiny)
    assert (tmp_path / "0" / "mapsim_summary.csv").is_file()
    assert (tmp_path / "1" / "aue_coverage.csv").is_file()


def test_abs_design_and_channel_table_runs_load_only_scipy_special(tmp_path):
    # the disc outage average is a fixed Gauss-Legendre sum, not scipy's quad
    shipped = Path(__file__).resolve().parents[1] / "scenarios"
    code = ("import sys, a2gnet.cli as cli, a2gnet.scenario as sc\n"
            "for i, path in enumerate(sys.argv[2:]):\n"
            "    cli.run_scenario(sc.load_scenario(path), f'{sys.argv[1]}/{i}')\n"
            "assert 'scipy.special' in sys.modules\n"
            "bad = [m for m in ('scipy.integrate', 'scipy.optimize') "
            "if m in sys.modules]\n"
            "assert not bad, bad\n")
    _run_fresh(code, tmp_path, shipped / "abs_design.yaml",
               shipped / "channel_table.yaml")
    assert (tmp_path / "0" / "abs_design.csv").is_file()
    assert (tmp_path / "1" / "channel_table.csv").is_file()


# the solver's MINPACK binding, then the package it was loaded without
_OPTIMIZE_AFTER = (
    "import numpy as np, scipy.optimize\n"
    "from a2gnet import numerics\n"
    "assert scipy.optimize._minpack._lmder is numerics.minpack._lmder\n"
    "fit = scipy.optimize.least_squares(lambda x: x - [1.0, 2.0], [0.0, 0.0],"
    " method='lm')\n"
    "assert np.allclose(fit.x, [1.0, 2.0]), fit.x\n"
    "assert callable(scipy.optimize.leastsq)\n")


def test_localize_run_loads_minpack_without_scipy_optimize(tmp_path):
    # the solver needs one compiled function; the scipy.optimize package
    # init loaded sparse, linalg and the minimizers for it
    tiny = LOCALIZE_TABLE_VI.replace("n_users: 25", "n_users: 2")
    code = ("import sys, a2gnet.cli as cli, a2gnet.scenario as sc\n"
            "cli.run_scenario(sc.parse_scenario(sys.argv[2]), sys.argv[1])\n"
            "bad = [m for m in sys.modules if m.startswith('scipy.optimize')]\n"
            "assert not bad, bad\n" + _OPTIMIZE_AFTER)
    _run_fresh(code, tmp_path, tiny)
    assert (tmp_path / "localize.csv").is_file()


def test_localize_run_reuses_an_imported_scipy_optimize(tmp_path):
    tiny = LOCALIZE_TABLE_VI.replace("n_users: 25", "n_users: 2")
    code = ("import sys, scipy.optimize, a2gnet.cli as cli, a2gnet.scenario as sc\n"
            "cli.run_scenario(sc.parse_scenario(sys.argv[2]), sys.argv[1])\n"
            "from a2gnet import localization\n"
            "assert localization.minpack._lmder is "
            "scipy.optimize._minpack._lmder\n" + _OPTIMIZE_AFTER)
    _run_fresh(code, tmp_path, tiny)
    assert (tmp_path / "localize.csv").is_file()

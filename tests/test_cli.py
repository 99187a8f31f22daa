import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import a2gnet

from a2gnet.cli import main, run_scenario
from a2gnet.errors import ScenarioError
from a2gnet.heightmap import HeightMap, save_ascii_grid
from a2gnet.scenario import parse_scenario, serialize_scenario

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

# base scenario for each block whose bounds test_bound_validation checks
BOUNDED_BASES = {"mapsim": MAPSIM_SMALL, "run": AUE_TABLE_IV,
                 "sweep": SWEEP_ALTITUDE, "localize": LOCALIZE_TABLE_VI,
                 "channel": "command: channel-table\nchannel: {h_g_m: 30}\n"}


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


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
    ])
    def test_bound_validation(self, key, value, path):
        block = path.split(".")[0]
        doc = yaml.safe_load(BOUNDED_BASES[block])
        doc[block][key] = value
        with pytest.raises(ScenarioError) as err:
            parse_scenario(yaml.safe_dump(doc))
        assert path in str(err.value)

    def test_localize_frequency_key_is_unknown(self):
        # RSS range inversion does not depend on the carrier
        with pytest.raises(ScenarioError) as err:
            parse_scenario(LOCALIZE_TABLE_VI + "  frequency_ghz: 2.0\n")
        assert "localize.frequency_ghz" in str(err.value)

    def test_altitude_bounds_inclusive(self):
        parse_scenario("command: aue-coverage\nrun:\n  altitudes_m: [0, 300]\n")
        # only an altitude axis reads the grid as heights
        parse_scenario("command: aue-sweep\nsweep:\n  axis: phi_b\n"
                       "  grid: [40, 360]\n")

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

    def test_sweep_runner(self, tmp_path):
        text = ("command: aue-sweep\nseed: 2\n"
                "sweep:\n  axis: density\n  grid: [5, 20]\n  n_trials: 120\n")
        s = parse_scenario(text)
        paths = run_scenario(s, tmp_path)
        lines = paths[0].read_text().splitlines()
        assert lines[0] == "x,metric,ci95"
        assert len(lines) == 3


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
                     "--seed", "17", "--threads", "2"])
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out and out[0].endswith("localize.csv")

    def test_parse_failure_exit_code(self, tmp_path, capsys):
        scn = tmp_path / "bad.yaml"
        scn.write_text("command: localize\nlocalize:\n  radius: 5\n")
        assert main(["--scenario", str(scn)]) == 2
        assert "radius" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["--scenario", str(tmp_path / "nope.yaml")]) == 2

    @pytest.mark.parametrize("block,code,named", [
        ("  heightmap: nope.asc\n", 2, "mapsim.heightmap"),
        ("  heightmap: bad.asc\n", 2, "mapsim.heightmap"),
        ("  synthetic: {extent_m: 100, cellsize_m: 5}\n"
         "  sites_csv: nope.csv\n", 2, "mapsim.sites_csv"),
        ("  synthetic: {extent_m: 100, cellsize_m: 0}\n", 1, "cellsize_m"),
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


def test_import_does_not_load_scipy_stats():
    # scipy.stats costs about half a second and 20 MB at start-up
    src = str(Path(a2gnet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, a2gnet, a2gnet.cli; "
            "assert 'scipy.stats' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)

"""A scenario file sets only what its run reads.

Keys that a run would not read are rejected when the file is parsed, the
canonical form leaves them out, and a run of the canonical form reads every
key it holds. Repeated keys are rejected too.
"""

import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from a2gnet.aue_net import mean_site_count
from a2gnet import cli
from a2gnet.cli import SITE_CSV_COLUMNS, main, run_scenario
from a2gnet.errors import ScenarioError
from a2gnet.heightmap import (MAX_SURFACE_M, HeightMap, load_ascii_grid,
                              save_ascii_grid)
from a2gnet import mapsim as ms
from a2gnet.scenario import (_SWEEP_AXIS_KEYS, _TOP_LEVEL, _WORK_CEILINGS,
                             MAX_ABS_ROWS, MAX_ANCHOR_POINTS,
                             MAX_CHANNEL_CELLS, MAX_COVERAGE_COMPARES,
                             MAX_COVERAGE_ROWS, MAX_COVERAGE_TRIALS,
                             MAX_LOCALIZE_RUN_SOLVES,
                             MAX_LOCALIZE_SOLVES, MAX_MAPSIM_RAYS,
                             MAX_MEAN_SITES, MAX_RANGE_M, MAX_SWEEP_TRIALS,
                             SCHEMAS,
                             SITE_CSV_FIELDS, parse_scenario,
                             serialize_scenario)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def _doc(command, **blocks):
    return {"command": command, **blocks}


def _sweep(axis="altitude", metric="capacity", grid=(60,), aue=None, **keys):
    doc = _doc("aue-sweep", sweep={"axis": axis, "grid": list(grid),
                                   "metric": metric, **keys})
    if aue is not None:
        doc["aue"] = aue
    return doc


def _coverage(**aue):
    return _doc("aue-coverage", aue=aue)


def _mapsim(**keys):
    return _doc("mapsim", mapsim=keys)


_CONE = {"antenna": "cone"}
_OVERRIDE = {"noise_override_dbm": -90}

# (document, key path, what the message names besides the key)
UNREAD = [
    # no command reads the aerial-user ratio; aue-coverage reads
    # run.thresholds_db, never a target of its own
    (_coverage(aue_ratio_rho=0.9), "aue.aue_ratio_rho", "unknown key"),
    (_sweep(aue={"aue_ratio_rho": 0.9}), "aue.aue_ratio_rho", "unknown key"),
    (_coverage(threshold_db=40), "aue.threshold_db", "unknown key"),
    (_coverage(target_rate_mbps=10), "aue.target_rate_mbps", "unknown key"),
    # a capacity sweep integrates over every target
    (_sweep(aue={"threshold_db": 6}), "aue.threshold_db",
     "sweep.metric is capacity"),
    (_sweep(aue={"target_rate_mbps": 10}), "aue.target_rate_mbps",
     "sweep.metric is capacity"),
    # a coverage sweep has no quadrature
    (_sweep(metric="coverage", k_nodes=100), "sweep.k_nodes",
     "sweep.metric is coverage"),
    (_sweep(metric="coverage", t_max_db=30), "sweep.t_max_db",
     "sweep.metric is coverage"),
    # the rate target used to win over the dB target silently
    (_sweep(metric="coverage",
            aue={"threshold_db": 6, "target_rate_mbps": 10}),
     "aue.threshold_db", "aue.target_rate_mbps is 10"),
    # the key the axis varies
    (_sweep(uav_h_m=100), "sweep.uav_h_m", "sweep.axis is altitude"),
    (_sweep("density", grid=[5], aue={"bs_density_per_km2": 5}),
     "aue.bs_density_per_km2", "sweep.axis is density"),
    (_sweep("phi_b", aue={**_CONE, "phi_b_deg": 60}), "aue.phi_b_deg",
     "sweep.axis is phi_b"),
    (_sweep("phi_t", grid=[10], aue={**_CONE, "phi_t_deg": 10}),
     "aue.phi_t_deg", "sweep.axis is phi_t"),
    # a phi_b sweep fits a cone whatever the antenna
    (_sweep("phi_b", aue={"omni_gain_dbi": 2}), "aue.omni_gain_dbi",
     "sweep.axis is phi_b"),
    # the antenna and the noise model
    *[(make(aue), path, named)
      for make in (lambda aue: _coverage(**aue), lambda aue: _sweep(aue=aue))
      for aue, path, named in [
          ({"phi_b_deg": 10}, "aue.phi_b_deg", "aue.antenna is omni"),
          ({"phi_t_deg": 10}, "aue.phi_t_deg", "aue.antenna is omni"),
          ({**_CONE, "omni_gain_dbi": 2}, "aue.omni_gain_dbi",
           "aue.antenna is cone"),
          ({**_OVERRIDE, "noise_density_dbm_hz": -170},
           "aue.noise_density_dbm_hz", "aue.noise_override_dbm is -90"),
          ({**_OVERRIDE, "noise_figure_db": 5}, "aue.noise_figure_db",
           "aue.noise_override_dbm is -90"),
          ({**_OVERRIDE, "bandwidth_mhz": 10}, "aue.bandwidth_mhz",
           "aue.noise_override_dbm is -90")]],
    # only a rate target reads the bandwidth beside a fixed noise power
    (_sweep(metric="coverage", n_trials=100,
            aue={**_OVERRIDE, "bandwidth_mhz": 10, "threshold_db": 3}),
     "aue.bandwidth_mhz", "aue.noise_override_dbm is -90"),
    # the map and the sites come from a file or are generated
    (_mapsim(heightmap="city.asc", synthetic={"extent_m": 100}),
     "mapsim.synthetic", "mapsim.heightmap is city.asc"),
    (_mapsim(sites_csv="sites.csv", auto_sites={"count": 2}),
     "mapsim.auto_sites", "mapsim.sites_csv is sites.csv"),
    (_mapsim(pl_model="free_space", environment={"preset": "urban"}),
     "mapsim.environment", "mapsim.pl_model is free_space"),
]


def _case_id(case):
    return f"{case[0]['command']}:{case[1]}:{case[2]}"


class TestUnreadKeys:
    @pytest.mark.parametrize("doc,path,named", UNREAD,
                             ids=[_case_id(c) for c in UNREAD])
    def test_exit_code(self, tmp_path, capsys, doc, path, named):
        scn = tmp_path / "run.yaml"
        scn.write_text(yaml.safe_dump(doc))
        assert main(["--scenario", str(scn), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: " in err and named in err and "Traceback" not in err

    @pytest.mark.parametrize("doc", [
        _sweep(aue={"target_rate_mbps": None}),
        _sweep(metric="coverage", n_trials=100, t_max_db=None),
        _mapsim(heightmap="city.asc", synthetic=None),
        _mapsim(pl_model="free_space", environment=None),
    ])
    def test_null_is_unset(self, doc):
        parse_scenario(yaml.safe_dump(doc))

    def test_bound_checked_first(self):
        # a value out of bounds is named as such even where it is not read
        with pytest.raises(ScenarioError, match="must be at most 150"):
            parse_scenario(yaml.safe_dump(_coverage(antenna="cone",
                                                    omni_gain_dbi=151)))

    def test_canonical_form_leaves_unread_keys_out(self):
        s = parse_scenario(yaml.safe_dump(_sweep(
            "phi_b", metric="coverage", grid=[60], n_trials=100,
            aue={"target_rate_mbps": 10, "noise_override_dbm": -90})))
        canon = yaml.safe_load(serialize_scenario(s))
        for key in ("threshold_db", "noise_density_dbm_hz", "noise_figure_db",
                    "phi_b_deg", "phi_t_deg", "omni_gain_dbi"):
            assert key not in canon["aue"]
        assert "k_nodes" not in canon["sweep"]
        assert "t_max_db" not in canon["sweep"]
        assert canon["aue"]["target_rate_mbps"] == 10
        assert parse_scenario(serialize_scenario(s)) == s

    @pytest.mark.parametrize("doc,read", [
        (_coverage(), True),
        (_coverage(**_OVERRIDE), False),
        (_sweep(aue=dict(_OVERRIDE)), False),
        (_sweep(metric="coverage", n_trials=100, aue=dict(_OVERRIDE)), False),
        (_sweep(metric="coverage", n_trials=100,
                aue={**_OVERRIDE, "target_rate_mbps": 10}), True),
    ])
    def test_bandwidth_read_by_noise_or_rate(self, doc, read):
        # N = N0 F B and T = 2^(R/B) - 1 read the bandwidth; a fixed noise
        # power and no rate target leave it unread
        canon = yaml.safe_load(serialize_scenario(
            parse_scenario(yaml.safe_dump(doc))))
        assert ("bandwidth_mhz" in canon["aue"]) == read
        doc["aue"]["bandwidth_mhz"] = 10
        if read:
            parse_scenario(yaml.safe_dump(doc))
        else:
            with pytest.raises(ScenarioError) as exc:
                parse_scenario(yaml.safe_dump(doc))
            assert exc.value.path == "aue.bandwidth_mhz"


class TestDuplicateKeys:
    @pytest.mark.parametrize("text,key,line", [
        # the second block replaced the first, and the default altitudes
        # were written
        ("command: abs-design\nabs:\n  altitudes_m: [50]\nabs:\n"
         "  r_c_m: 400\n", "'abs'", 4),
        ("command: aue-coverage\naue:\n  p_tx_dbm: 43\n  antenna: omni\n"
         "  p_tx_dbm: 46\n", "'p_tx_dbm'", 5),
        ("command: channel-table\nseed: 1\nseed: 2\n", "'seed'", 3),
    ])
    def test_exit_code(self, tmp_path, capsys, text, key, line):
        scn = tmp_path / "run.yaml"
        scn.write_text(text)
        assert main(["--scenario", str(scn), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"duplicate key {key} on line {line}" in err
        assert "Traceback" not in err

    def test_same_key_in_two_mappings(self):
        s = parse_scenario("command: mapsim\nmapsim:\n"
                           "  environment: {preset: urban}\n"
                           "  synthetic:\n"
                           "    environment: {preset: highrise}\n")
        assert s.params["mapsim"]["environment"]["preset"] == "urban"
        assert s.params["mapsim"]["synthetic"]["environment"]["preset"] == \
            "highrise"

    def test_merge_key_keeps_its_meaning(self):
        # a key beside << overrides the merged one; it is no duplicate
        s = parse_scenario("command: mapsim\nmapsim:\n"
                           "  synthetic:\n"
                           "    environment: &env {preset: urban}\n"
                           "  environment:\n    <<: *env\n"
                           "    preset: highrise\n")
        b = s.params["mapsim"]
        assert b["synthetic"]["environment"]["preset"] == "urban"
        assert b["environment"]["preset"] == "highrise"
        # a merged key that nothing overrides is kept
        s = parse_scenario("command: mapsim\nmapsim:\n"
                           "  synthetic:\n"
                           "    environment: &env {preset: urban}\n"
                           "  environment:\n    <<: *env\n"
                           "    street_width_m: 25\n")
        assert s.params["mapsim"]["environment"]["preset"] == "urban"
        assert s.params["mapsim"]["environment"]["street_width_m"] == 25


def _env_block(command, block):
    """The environment schema at block (a key tuple) of command."""
    schema = SCHEMAS[command]
    for key in block:
        schema = schema[key].schema
    return schema["environment"].schema


def _with_env(doc, block, env):
    node = doc
    for key in block:
        node = node.setdefault(key, {})
    node["environment"] = env
    return doc


# each environment block, with the command that reads it
ENV_BLOCKS = [("channel-table", ("channel",)), ("aue-coverage", ("aue",)),
              ("mapsim", ("mapsim",)), ("mapsim", ("mapsim", "synthetic")),
              ("aue-sweep", ("aue",))]


@pytest.mark.parametrize("command,block", ENV_BLOCKS)
@pytest.mark.parametrize("missing", ["kind", "varsigma", "xi", "omega"])
def test_custom_environment_names_its_block(tmp_path, capsys, command, block,
                                            missing):
    # `custom` was a preset that had to set kind, varsigma, xi and omega;
    # it is gone, and whichever of those keys the block takes and sets, the
    # file is rejected at the block's own preset (mapsim has two blocks)
    env = {"preset": "custom", "kind": "urban", "varsigma": 0.3, "xi": 500,
           "omega": 15}
    del env[missing]
    env = {k: v for k, v in env.items() if k in _env_block(command, block)}
    doc = _with_env(_sweep() if command == "aue-sweep" else _doc(command),
                    block, env)
    scn = tmp_path / "run.yaml"
    scn.write_text(yaml.safe_dump(doc))
    assert main(["--scenario", str(scn), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    path = f"{'.'.join(block)}.environment.preset"
    assert f"{path}: must be one of suburban, urban, dense_urban, highrise" \
        in err and "Traceback" not in err


# an in-bound value of every environment key besides the preset
_IN_BOUND_ENV = {"kind": "urban", "varsigma": 0.3, "xi": 500, "omega": 15,
                 "mean_building_height_m": 18, "street_width_m": 12}
# the keys each block no longer takes: its command's model never read them
REMOVED_ENV_KEYS = [(command, block, key) for command, block in ENV_BLOCKS
                    for key in _IN_BOUND_ENV
                    if key not in _env_block(command, block)]


@pytest.mark.parametrize("command,block,key", REMOVED_ENV_KEYS, ids=[
    f"{command}:{'.'.join(block)}.{key}"
    for command, block, key in REMOVED_ENV_KEYS])
def test_removed_environment_key_exit_code(tmp_path, capsys, command, block,
                                           key):
    # a value the run used to accept and ignore
    doc = _with_env(_sweep() if command == "aue-sweep" else _doc(command),
                    block, {"preset": "urban", key: _IN_BOUND_ENV[key]})
    scn = tmp_path / "run.yaml"
    scn.write_text(yaml.safe_dump(doc))
    assert main(["--scenario", str(scn), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"{'.'.join(block)}.environment.{key}: unknown key {key!r}" in err


def test_environment_key_counts():
    # besides its preset, each of the 5 blocks took the same 6 keys: 18
    # are kept and 12 removed
    assert len(ENV_KEYS) == 5 + 18 and len(REMOVED_ENV_KEYS) == 12


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.yaml")),
                         ids=lambda p: p.name)
def test_shipped_scenario_round_trips(path):
    s = parse_scenario(path.read_text(encoding="utf-8"))
    canon = serialize_scenario(s)
    again = parse_scenario(canon)     # holds no key that parsing rejects
    assert again == s
    assert serialize_scenario(again) == canon


# ---------------------------------------------------------------------------
# A run of the canonical form reads every key it holds
# ---------------------------------------------------------------------------

class _Reads(dict):
    """A params tree that records the dotted path of each key read."""

    def __init__(self, tree, seen, path=""):
        super().__init__({k: _Reads(v, seen, f"{path}{k}.")
                          if isinstance(v, dict) else v
                          for k, v in tree.items()})
        self._seen, self._path = seen, path

    def __getitem__(self, key):
        self._seen.add(self._path + key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self._seen.add(self._path + key)
        return super().get(key, default)

    def items(self):
        self._seen.update(self._path + k for k in self)
        return super().items()


def _leaves(tree, path=""):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{path}{key}.")
        else:
            yield path + key


_TINY_RUN = {"altitudes_m": [60], "thresholds_db": [0], "n_trials": 5}
_TINY_CITY = {"synthetic": {"extent_m": 100, "cellsize_m": 10},
              "auto_sites": {"count": 1}, "heights_m": [40], "stride": 5,
              "emit_rasters": False}
# preset overrides of every key each block takes
_BUILDING_ENV = {"preset": "highrise", "varsigma": 0.3, "xi": 500, "omega": 15}
_FULL_ENV = {**_BUILDING_ENV, "kind": "urban", "mean_building_height_m": 12,
             "street_width_m": 15}
_SLICE_ENV = {"preset": "urban", "kind": "suburban",
              "mean_building_height_m": 12, "street_width_m": 15}

# one base per branch of the runners
READ_BASES = {
    "channel-table": _doc("channel-table", channel={
        "altitudes_m": [30], "distances_m": [100]}),
    "channel-table-override": _doc("channel-table", channel={
        "altitudes_m": [30], "distances_m": [100],
        "environment": _FULL_ENV}),
    "aue-coverage-omni": _doc("aue-coverage", run=_TINY_RUN),
    "aue-coverage-cone-override": _doc(
        "aue-coverage", run=_TINY_RUN,
        aue={**_CONE, **_OVERRIDE, "environment": _BUILDING_ENV}),
    "capacity-altitude-t-max": _sweep(n_trials=5, t_max_db=30),
    "capacity-density": _sweep("density", grid=[5], n_trials=5),
    "capacity-phi-b-cone": _sweep("phi_b", aue=dict(_CONE), n_trials=5),
    "capacity-phi-b-omni": _sweep("phi_b", n_trials=5),
    "capacity-phi-t": _sweep("phi_t", grid=[10], aue=dict(_CONE), n_trials=5),
    "coverage-threshold": _sweep(metric="coverage", n_trials=100,
                                 aue={"threshold_db": 3}),
    "coverage-rate-override": _sweep(
        metric="coverage", n_trials=100,
        aue={"target_rate_mbps": 10, **_OVERRIDE}),
    "abs-design": _doc("abs-design", abs={"altitudes_m": [100]}),
    "localize": _doc("localize", localize={
        "m_points": [3], "n_users": 2, "state_mode": "common"}),
    "mapsim-synthetic-auto": _mapsim(**_TINY_CITY),
    "mapsim-environment-override": _mapsim(**{
        **_TINY_CITY, "environment": _SLICE_ENV,
        "synthetic": {**_TINY_CITY["synthetic"],
                      "environment": _BUILDING_ENV}}),
    "mapsim-free-space": _mapsim(**_TINY_CITY, pl_model="free_space"),
    "mapsim-files": _mapsim(heightmap="city.asc", sites_csv="sites.csv",
                            heights_m=[40], stride=5),
}


@pytest.mark.parametrize("name", READ_BASES)
def test_run_reads_every_canonical_key(tmp_path, monkeypatch, name):
    city = HeightMap(np.full((10, 10), 3.0), cellsize=10.0)
    save_ascii_grid(city, tmp_path / "city.asc")
    # a site on the roof at (50, 50), its mast MAST_M above it
    (tmp_path / "sites.csv").write_text(",".join(SITE_CSV_COLUMNS)
                                        + "\n50,50,3,46,0,8,16,65\n")
    monkeypatch.chdir(tmp_path)
    s = parse_scenario(yaml.safe_dump(READ_BASES[name]))
    canon = yaml.safe_load(serialize_scenario(s))
    s = parse_scenario(serialize_scenario(s))
    seen = set()
    s.params = _Reads(s.params, seen)
    run_scenario(s, tmp_path / "out")
    keys = set(_leaves({k: canon[k] for k in SCHEMAS[s.command]}))
    assert keys - seen == set()


# ---------------------------------------------------------------------------
# Each key an environment block takes changes its run's output
# ---------------------------------------------------------------------------

# small runs whose outputs move with the environment: a 15 m altitude lies
# in the ground slice of an urban kind and above that of a suburban one,
# and 1.5 m users see NLOS links through the ground slice's fit
_ENV_RUNS = {
    "channel-table": _doc("channel-table", channel={
        "altitudes_m": [1.5, 15, 60], "distances_m": [50, 500]}),
    "aue-coverage": _doc("aue-coverage", run={
        "altitudes_m": [60], "thresholds_db": [-10, 0, 10],
        "n_trials": 100}),
    "aue-sweep": _sweep(n_trials=20),
    "mapsim": _mapsim(**{**_TINY_CITY, "heights_m": [1.5, 15], "stride": 1,
                         "emit_rasters": True}),
}
# two far-apart in-bound values of each key
_FAR_APART = {"preset": ("suburban", "highrise"), "kind": ("urban", "suburban"),
              "varsigma": (0.05, 0.8), "xi": (20, 5000), "omega": (3, 100),
              "mean_building_height_m": (5, 40), "street_width_m": (5, 40)}
ENV_KEYS = [(command, block, key) for command, block in ENV_BLOCKS
            for key in _env_block(command, block)]


@pytest.mark.parametrize("command,block,key", ENV_KEYS, ids=[
    f"{command}:{'.'.join(block)}.{key}" for command, block, key in ENV_KEYS])
def test_environment_key_moves_output(tmp_path, command, block, key):
    outputs = []
    for i, value in enumerate(_FAR_APART[key]):
        doc = yaml.safe_load(yaml.safe_dump(_ENV_RUNS[command]))
        _with_env(doc, block, {key: value})
        paths = run_scenario(parse_scenario(yaml.safe_dump(doc)),
                             tmp_path / str(i))
        outputs.append([path.read_bytes() for path in paths])
    assert outputs[0] != outputs[1]


# ---------------------------------------------------------------------------
# The site count of an AUE snapshot has a ceiling
# ---------------------------------------------------------------------------

def _densest(radius_m):
    """The largest density whose mean site count in the disc is at most
    MAX_MEAN_SITES."""
    d = MAX_MEAN_SITES / (math.pi * (radius_m / 1e3) ** 2)
    while mean_site_count(d, radius_m) > MAX_MEAN_SITES:
        d = math.nextafter(d, 0.0)
    while mean_site_count(math.nextafter(d, math.inf), radius_m) \
            <= MAX_MEAN_SITES:
        d = math.nextafter(d, math.inf)
    return d


_AT_CEILING = _densest(3000.0)
_ABOVE_CEILING = math.nextafter(_AT_CEILING, math.inf)
# the radius that holds MAX_MEAN_SITES sites at the default 5 per km^2
_CEILING_RADIUS_M = 1e3 * math.sqrt(MAX_MEAN_SITES / (5.0 * math.pi))


class TestSiteCeiling:
    @pytest.mark.parametrize("make", [
        lambda d: _coverage(bs_density_per_km2=d),
        lambda d: _sweep(aue={"bs_density_per_km2": d}),
        lambda d: _sweep("density", grid=[5, d, 1]),
    ], ids=["coverage", "sweep", "density-axis"])
    def test_density_at_and_above(self, make):
        assert _AT_CEILING > 1000.0  # the shipped files sit at 5 per km^2
        parse_scenario(yaml.safe_dump(make(_AT_CEILING)))
        with pytest.raises(ScenarioError, match="sites per snapshot") as exc:
            parse_scenario(yaml.safe_dump(make(_ABOVE_CEILING)))
        assert exc.value.path == "aue.bs_density_per_km2"

    def test_region_radius_counts(self):
        parse_scenario(yaml.safe_dump(_coverage(
            region_radius_m=0.999 * _CEILING_RADIUS_M)))
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(yaml.safe_dump(_coverage(
                region_radius_m=1.001 * _CEILING_RADIUS_M)))
        assert exc.value.path == "aue.bs_density_per_km2"

    def test_exit_code(self, tmp_path, capsys):
        scn = tmp_path / "run.yaml"
        scn.write_text(yaml.safe_dump(_coverage(bs_density_per_km2=1e4)))
        assert main(["--scenario", str(scn), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "aue.bs_density_per_km2: " in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# The trial count of an AUE run has a ceiling
# ---------------------------------------------------------------------------

_TRIAL_KEYS = [("aue-coverage", "run", lambda n: _doc("aue-coverage",
                                                      run={"n_trials": n})),
               ("aue-sweep", "sweep", lambda n: _sweep(n_trials=n))]


class TestTrialCeiling:
    @pytest.mark.parametrize("command,block,make", _TRIAL_KEYS,
                             ids=[c for c, _, _ in _TRIAL_KEYS])
    def test_trial_keys_fit_child_generators(self, command, block, make):
        # every trial index is a key of RngStream.child_generators; 10^12
        # trials used to end in a raw numpy allocation traceback (the schema
        # walk in test_cli checks the exit code just past the ceiling)
        ceiling = SCHEMAS[command][block].schema["n_trials"].maximum
        assert ceiling is not None and ceiling < 2 ** 32
        parse_scenario(yaml.safe_dump(make(ceiling)))
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(yaml.safe_dump(make(10 ** 12)))
        assert exc.value.path == f"{block}.n_trials"


# ---------------------------------------------------------------------------
# The anchor and solve counts of a localize run have ceilings
# ---------------------------------------------------------------------------

def _localize(**keys):
    return _doc("localize", localize=keys)


class TestLocalizeCeilings:
    # parse-only: nothing is run and no search grid is built

    @pytest.mark.parametrize("keys,path", [
        (dict(m_points=[3, MAX_ANCHOR_POINTS + 1]), "localize.m_points[1]"),
        (dict(m_points=[10 ** 8]), "localize.m_points[0]"),
        (dict(n_users=10 ** 12), "localize.n_users"),
        (dict(trials_per_user=10 ** 12), "localize.trials_per_user"),
    ])
    def test_count_above_its_ceiling(self, keys, path):
        with pytest.raises(ScenarioError, match="must be at most") as exc:
            parse_scenario(yaml.safe_dump(_localize(**keys)))
        assert exc.value.path == path

    def test_counts_at_their_ceilings(self):
        parse_scenario(yaml.safe_dump(_localize(
            m_points=[MAX_ANCHOR_POINTS], n_users=MAX_LOCALIZE_SOLVES)))
        parse_scenario(yaml.safe_dump(_localize(
            trials_per_user=MAX_LOCALIZE_SOLVES, n_users=1)))

    def test_solves_per_campaign(self):
        users = 1000
        at = MAX_LOCALIZE_SOLVES // users
        parse_scenario(yaml.safe_dump(_localize(n_users=users,
                                                trials_per_user=at)))
        with pytest.raises(ScenarioError, match="solves per campaign") as exc:
            parse_scenario(yaml.safe_dump(_localize(n_users=users,
                                                    trials_per_user=at + 1)))
        assert exc.value.path == "localize.n_users"

    def test_solves_per_run(self):
        # every campaign within its own ceiling: 4e13 solves in all
        with pytest.raises(ScenarioError, match="solves per run") as exc:
            parse_scenario(yaml.safe_dump(_localize(
                m_points=[3, 4], radii_m=[50.0 + k for k in range(20000)],
                altitudes_m=[100.0 + k for k in range(1000)],
                n_users=1000, trials_per_user=1000)))
        assert exc.value.path == "localize.radii_m"
        radii = MAX_LOCALIZE_RUN_SOLVES // MAX_LOCALIZE_SOLVES
        at = dict(m_points=[3], n_users=1000,
                  trials_per_user=MAX_LOCALIZE_SOLVES // 1000)
        parse_scenario(yaml.safe_dump(_localize(
            radii_m=[100.0] * radii, **at)))
        with pytest.raises(ScenarioError, match="solves per run") as exc:
            parse_scenario(yaml.safe_dump(_localize(
                radii_m=[100.0] * radii, altitudes_m=[100.0, 200.0], **at)))
        assert exc.value.path == "localize.radii_m"

    def test_shipped_run_far_inside(self):
        b = parse_scenario((SCENARIOS / "localize.yaml").read_text()).params[
            "localize"]
        solves = (len(b["altitudes_m"]) * len(b["radii_m"])
                  * len(b["m_points"]) * b["n_users"] * b["trials_per_user"])
        assert solves * 1000 <= MAX_LOCALIZE_RUN_SOLVES

    def test_exit_code(self, tmp_path, capsys):
        scn = tmp_path / "run.yaml"
        scn.write_text(yaml.safe_dump(_localize(n_users=10 ** 4,
                                                trials_per_user=10 ** 4)))
        assert main(["--scenario", str(scn), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "localize.n_users: " in err and "Traceback" not in err
        assert not (tmp_path / "localize.csv").exists()


# ---------------------------------------------------------------------------
# The rays of a mapsim run have a ceiling
# ---------------------------------------------------------------------------

class TestMapsimRayCeiling:
    # nothing here casts a ray

    def test_many_heights_on_a_large_city(self):
        # 9 sites x 10^5 heights x (4096 / 4)^2 cells: about 1e12 rays
        heights = ", ".join(str(1.5 + k * 1e-3) for k in range(10 ** 5))
        text = ("command: mapsim\nmapsim:\n"
                "  synthetic: {extent_m: 16384, cellsize_m: 4}\n"
                "  auto_sites: {count: 9}\n"
                f"  heights_m: [{heights}]\n")
        with pytest.raises(ScenarioError, match="rays per run") as exc:
            parse_scenario(text)
        assert exc.value.path == "mapsim.heights_m"

    @pytest.mark.parametrize("sites_csv", [False, True])
    def test_at_and_above(self, sites_csv):
        # 1000 cells a side at stride 4: 250^2 strided cells
        heights = MAX_MAPSIM_RAYS // 250 ** 2
        block = {"synthetic": {"extent_m": 4000, "cellsize_m": 4}}
        if sites_csv:   # one site at least
            block["sites_csv"] = "sites.csv"
        else:
            block["auto_sites"] = {"count": 1}
        parse_scenario(yaml.safe_dump(_mapsim(
            **block, heights_m=[10.0] * heights)))
        with pytest.raises(ScenarioError, match="rays per run") as exc:
            parse_scenario(yaml.safe_dump(_mapsim(
                **block, heights_m=[10.0] * (heights + 1))))
        assert exc.value.path == "mapsim.heights_m"

    def test_shipped_run_far_inside(self):
        b = parse_scenario((SCENARIOS / "mapsim_city.yaml").read_text()).params[
            "mapsim"]
        n = b["synthetic"]["extent_m"] / b["synthetic"]["cellsize_m"]
        # at stride 1
        assert b["auto_sites"]["count"] * len(b["heights_m"]) * n * n * 100 \
            <= MAX_MAPSIM_RAYS

    def test_file_heightmap_exits_before_a_cast(self, tmp_path, capsys,
                                                monkeypatch):
        def no_cast(*args):
            raise AssertionError("a ray was cast")

        monkeypatch.setattr(ms, "los_mask", no_cast)
        save_ascii_grid(HeightMap(np.full((100, 100), 3.0), cellsize=2.0),
                        tmp_path / "city.asc")
        heights = MAX_MAPSIM_RAYS // (9 * 100 * 100) + 1
        scn = tmp_path / "run.yaml"
        scn.write_text(yaml.safe_dump(_mapsim(
            heightmap=str(tmp_path / "city.asc"), stride=1,
            auto_sites={"count": 9}, heights_m=[10.0] * heights)))
        assert main(["--scenario", str(scn), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "mapsim.heights_m: " in err and "Traceback" not in err
        assert not (tmp_path / "mapsim_summary.csv").exists()


# ---------------------------------------------------------------------------
# The work of an aue, channel-table or abs-design run has a ceiling
# ---------------------------------------------------------------------------

# (command, its ceiling, the list key named, the work units of one entry)
_WORK = [("aue-coverage", MAX_COVERAGE_TRIALS, "run.altitudes_m", 10 ** 7),
         ("aue-sweep", MAX_SWEEP_TRIALS, "sweep.grid", 10 ** 6),
         ("channel-table", MAX_CHANNEL_CELLS, "channel.altitudes_m", 100),
         ("abs-design", MAX_ABS_ROWS, "abs.altitudes_m", 1)]


def _work_doc(command, path, per, entries):
    """A `command` run whose list key `path` holds `entries` entries of
    `per` work units each, as YAML text."""
    block, key = path.split(".")
    doc = (_sweep(n_trials=per) if command == "aue-sweep"
           else _doc(command, **{block: {}}))
    doc[block][key] = [60.0] * entries
    if command == "aue-coverage":
        doc[block]["n_trials"] = per
    elif command == "channel-table":
        doc[block]["distances_m"] = [100.0] * per
    # libyaml's emitter: the pure-Python one takes seconds on 10^5 entries
    return yaml.dump(doc, Dumper=getattr(yaml, "CSafeDumper", yaml.SafeDumper))


class TestWorkCeilings:
    # parse-only: nothing is run

    @pytest.mark.parametrize("command,ceiling,path,per", _WORK,
                             ids=[c for c, _, _, _ in _WORK])
    def test_at_and_above(self, command, ceiling, path, per):
        assert ceiling % per == 0
        parse_scenario(_work_doc(command, path, per, ceiling // per))
        with pytest.raises(ScenarioError,
                           match=re.escape(f"more than {ceiling:g} ")) as exc:
            parse_scenario(_work_doc(command, path, per, ceiling // per + 1))
        assert exc.value.path == path

    @pytest.mark.parametrize("command,ceiling,path,per", _WORK,
                             ids=[c for c, _, _, _ in _WORK])
    def test_exit_code(self, tmp_path, capsys, monkeypatch, command, ceiling,
                       path, per):
        def no_run(*args):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli, "run_scenario", no_run)
        scn = tmp_path / "run.yaml"
        scn.write_text(_work_doc(command, path, per, ceiling // per + 1))
        assert main(["--scenario", str(scn), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"scenario error: {path}: ")

    @pytest.mark.parametrize("name", ["aue_coverage", "aue_beamwidth_sweep",
                                      "channel_table", "abs_design"])
    def test_shipped_run_far_inside(self, name):
        s = parse_scenario((SCENARIOS / f"{name}.yaml").read_text())
        for path, ceiling, _, count in _WORK_CEILINGS[s.command]:
            assert count(s.params[path.split(".")[0]]) * 100 <= ceiling


# ---------------------------------------------------------------------------
# The thresholds of an aue-coverage run multiply its rows and compares
# ---------------------------------------------------------------------------

def _thresholds_doc(thresholds, n_trials):
    """A one-altitude aue-coverage run of `thresholds` thresholds, each a
    row of n_trials compares, as YAML text."""
    doc = _doc("aue-coverage", run={"altitudes_m": [60.0], "n_trials": n_trials,
                                    "thresholds_db": [0.0] * thresholds})
    return yaml.dump(doc, Dumper=getattr(yaml, "CSafeDumper", yaml.SafeDumper))


# (ceiling, n_trials, the message's unit): a row per threshold, n_trials
# compares per row
_THRESHOLD_CEILINGS = [(MAX_COVERAGE_ROWS, 1, "rows per table"),
                       (MAX_COVERAGE_COMPARES, 10 ** 7, "compares per run")]


class TestThresholdCeilings:
    # parse-only: nothing is run

    @pytest.mark.parametrize("ceiling,per,unit", _THRESHOLD_CEILINGS,
                             ids=["rows", "compares"])
    def test_at_and_above(self, ceiling, per, unit):
        assert ceiling % per == 0
        parse_scenario(_thresholds_doc(ceiling // per, per))
        with pytest.raises(ScenarioError, match=re.escape(
                f"more than {ceiling:g} {unit}")) as exc:
            parse_scenario(_thresholds_doc(ceiling // per + 1, per))
        assert exc.value.path == "run.thresholds_db"

    def test_exit_code(self, tmp_path, capsys, monkeypatch):
        def no_run(*args):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli, "run_scenario", no_run)
        scn = tmp_path / "run.yaml"
        scn.write_text(_thresholds_doc(MAX_COVERAGE_COMPARES // 10 ** 7 + 1,
                                       10 ** 7))
        assert main(["--scenario", str(scn), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert (len(err) == 1
                and err[0].startswith("scenario error: run.thresholds_db: "))

    def test_shipped_run_parses(self):
        run = parse_scenario(
            (SCENARIOS / "aue_coverage.yaml").read_text()).params["run"]
        assert (len(run["altitudes_m"]), len(run["thresholds_db"]),
                run["n_trials"]) == (10, 3, 2000)


# ---------------------------------------------------------------------------
# In-bound values never end in a traceback
# ---------------------------------------------------------------------------

# sizes that keep one run to milliseconds; the rest take their bounds
_SIZE_CAPS = {
    # a coverage sweep needs 100 trials
    "run.n_trials": (1, 50), "sweep.n_trials": (1, 120),
    "sweep.k_nodes": (50, 2000), "localize.n_users": (1, 2),
    "localize.trials_per_user": (1, 2), "localize.m_points": (3, 5),
    "mapsim.stride": (1, 40), "mapsim.auto_sites.count": (1, 3),
    # at most about 30 sites per snapshot
    "aue.bs_density_per_km2": (1e-3, 10.0),
    "aue.region_radius_m": (100.0, 1000.0),
}
# sizes whose defaults are past their caps are always drawn
_ALWAYS_SET = ("run.n_trials", "sweep.n_trials", "localize.n_users",
               "mapsim.auto_sites.count", "aue.region_radius_m")
_MAX_ITEMS = 3
# a localize run solves once per list entry combination, user and trial
_MAX_ITEMS_LOCALIZE = 2
_OMIT = object()


def _number(f, path):
    integral = f.kind is int or f.item_kind is int
    lo, hi = _SIZE_CAPS.get(path, (None, None))
    big = sys.float_info.max
    lo = lo if lo is not None else next(
        (v for v in (f.minimum, f.above) if v is not None), -big)
    hi = hi if hi is not None else next(
        (v for v in (f.maximum, f.below) if v is not None), big)
    if integral:
        return st.integers(int(math.ceil(lo)), int(min(hi, 10 ** 6)))
    return st.floats(lo, hi, exclude_min=lo == f.above,
                     exclude_max=hi == f.below, allow_nan=False)


def _leaf(f, path, max_items):
    if f.kind is str:
        # the file-name keys are left to the file tests
        return st.sampled_from(f.choices) if f.choices else st.just(_OMIT)
    if f.kind is bool:
        return st.booleans()
    if f.kind is list:
        return st.lists(_number(f, path), min_size=1, max_size=max_items)
    return _number(f, path)


def _block(schema, max_items, path=""):
    """A strategy for a block: every leaf drawn in its bounds, or left out."""
    parts = {}
    for key, f in schema.items():
        sub_path = f"{path}.{key}" if path else key
        if f.schema is not None:
            parts[key] = _block(f.schema, max_items, sub_path)
        elif sub_path in _ALWAYS_SET:
            parts[key] = _leaf(f, sub_path, max_items)
        else:
            parts[key] = st.one_of(st.just(_OMIT),
                                   _leaf(f, sub_path, max_items))
    return st.fixed_dictionaries(parts).map(
        lambda d: {k: v for k, v in d.items() if v is not _OMIT})


@st.composite
def _scenario(draw, command):
    doc = draw(_block({"seed": _TOP_LEVEL["seed"], **SCHEMAS[command]},
                      _MAX_ITEMS_LOCALIZE if command == "localize"
                      else _MAX_ITEMS))
    doc["command"] = command
    if command == "mapsim":
        # a city of at most 40 cells a side
        cells = draw(st.integers(1, 40))
        cellsize = draw(st.sampled_from([1.0, 2.5, 4.0, 10.0]))
        doc["mapsim"]["synthetic"].update(extent_m=cells * cellsize,
                                          cellsize_m=cellsize)
    if command == "aue-sweep":
        # the grid takes the bounds of the key its axis varies
        axis = draw(st.sampled_from(sorted(_SWEEP_AXIS_KEYS)))
        block, key = _SWEEP_AXIS_KEYS[axis]
        f = SCHEMAS[command][block].schema[key]
        doc["sweep"].update(axis=axis, grid=draw(st.lists(
            _number(f, f"{block}.{key}"), min_size=1, max_size=_MAX_ITEMS)))
    return doc


_NAMED_KEY = re.compile(r"^scenario error: [A-Za-z_][\w.\[\]]*: ", re.M)


@pytest.mark.parametrize("command", SCHEMAS)
# an overflow inside a model is a defect even when the run exits 0
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=st.data())
def test_in_bound_values_never_raise(tmp_path, capsys, command, data):
    doc = data.draw(_scenario(command))
    scn = tmp_path / "fuzz.yaml"
    scn.write_text(yaml.safe_dump(doc))
    code = main(["--scenario", str(scn), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert code in (0, 1) or (code == 2 and _NAMED_KEY.search(err)), err


@st.composite
def _height_map(draw):
    """At most 12 cells a side: each height within +-MAX_SURFACE_M, on
    about half the maps some cells no-data, the corner within
    +-MAX_RANGE_M."""
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    height = st.floats(-MAX_SURFACE_M, MAX_SURFACE_M)
    if draw(st.booleans()):
        height = st.one_of(height, st.just(math.nan))
    heights = draw(st.lists(height, min_size=rows * cols,
                            max_size=rows * cols))
    corner = st.floats(-MAX_RANGE_M, MAX_RANGE_M)
    return HeightMap(np.reshape(heights, (rows, cols)),
                     cellsize=draw(st.sampled_from([1.0, 2.5, 4.0, 10.0])),
                     xllcorner=draw(corner), yllcorner=draw(corner))


def _site_row(extent):
    """A site-CSV row on the map: each column within the bounds of its
    mapsim.auto_sites twin, the azimuth any finite angle."""
    x0, x1, y0, y1 = extent
    columns = {"x": st.floats(x0, x1), "y": st.floats(y0, y1),
               "azimuth0_deg": st.floats(allow_nan=False, allow_infinity=False),
               **{column: _number(f, None)
                  for column, f in SITE_CSV_FIELDS.items()}}
    return st.fixed_dictionaries(columns)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=st.data())
def test_in_bound_files_never_raise(tmp_path, capsys, data):
    # a mapsim run on a generated heightmap, site CSV or both
    doc = data.draw(_scenario("mapsim"))
    block = doc["mapsim"]
    use_map, use_sites = data.draw(st.sampled_from(
        [(True, True), (True, False), (False, True)]))
    if use_map:
        save_ascii_grid(data.draw(_height_map()), tmp_path / "city.asc")
        extent = load_ascii_grid(tmp_path / "city.asc").extent
        block["heightmap"] = str(tmp_path / "city.asc")
        del block["synthetic"]
    else:
        side = block["synthetic"]["extent_m"]
        extent = (0.0, side, 0.0, side)
    if use_sites:
        rows = data.draw(st.lists(_site_row(extent), min_size=1, max_size=3))
        (tmp_path / "sites.csv").write_text("\n".join(
            [",".join(SITE_CSV_COLUMNS)]
            + [",".join(repr(row[c]) for c in SITE_CSV_COLUMNS)
               for row in rows]) + "\n")
        block["sites_csv"] = str(tmp_path / "sites.csv")
        del block["auto_sites"]
    scn = tmp_path / "fuzz.yaml"
    scn.write_text(yaml.safe_dump(doc))
    code = main(["--scenario", str(scn), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert code in (0, 1) or (code == 2 and _NAMED_KEY.search(err)), err

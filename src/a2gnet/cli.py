"""Command-line front end: run a scenario file, emit CSV tables and rasters.

Every run is reproducible: identical seeds give byte-identical outputs,
because all Monte Carlo work is keyed per work unit. Runs are serial.
CSV and raster floats print as `heightmap.FLOAT_FMT`, `%.9g`. In a CSV, NaN
of either sign prints as `nan`, infinities as `inf` and `-inf`, None as
`nan`, integers in full (booleans as 1 and 0), text as it is.

The channel table evaluates each altitude in one array pass over its
distances through `channel.slice_pl_db`. A cell outside a ground-slice fit
window, or at d_3d = 0, prints nan, and so does the high-altitude NLOS
sigma, which the model leaves undefined.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import abs_net, aue_net, localization as loc, mapsim as ms
from . import channel as ch
from .antenna_geometry import ConeUav, OmniUav, Position3D, SectorAntenna
from .errors import DomainError, ModelGapError, ScenarioError, check_number
from .heightmap import (FLOAT_FMT, HeightMap, load_ascii_grid, save_ascii_grid,
                        synthetic_city)
from .numerics import RngStream, db_to_linear, dbm_to_watt
from .scenario import (SITE_CSV_FIELDS, Scenario, check_bounds,
                       check_mapsim_rays, load_scenario, validate_seed)


def _fmt(value) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "nan"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return FLOAT_FMT % value


def _write_csv(path: Path, header, rows):
    # a plain float is the common cell: FLOAT_FMT prints nan and inf as _fmt
    # does
    lines = [",".join(header)]
    lines += [",".join([FLOAT_FMT % v if type(v) is float else _fmt(v)
                        for v in row]) for row in rows]
    lines.append("")  # the file ends with a newline
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
    return path


def _environment(block) -> ch.Environment:
    return replace(ch.preset_environment(block["preset"]),
                   **{k: v for k, v in block.items()
                      if k != "preset" and v is not None})


def _aue_config(block) -> aue_net.AueNetworkConfig:
    if block["antenna"] == "omni":
        uav = OmniUav(block["omni_gain_dbi"])
    else:
        uav = ConeUav(phi_b_deg=block["phi_b_deg"],
                      phi_t=math.radians(block["phi_t_deg"]))
    sector = SectorAntenna(
        electrical_tilt=math.radians(block["sector_downtilt_deg"]),
        max_gain_dbi=block["sector_max_gain_dbi"],
        beamwidth_3db=math.radians(block["sector_beamwidth_deg"]),
        sidelobe_floor_db=block["sector_sidelobe_floor_db"],
        elevation_beamwidth_3db=math.radians(
            block["sector_elevation_beamwidth_deg"]))
    # the config holds what the SINR reads: the total noise power N; only a
    # coverage sweep adds a target (_sinr_target)
    if block["noise_override_dbm"] is not None:
        noise_w = dbm_to_watt(block["noise_override_dbm"])
    else:
        noise_w = (dbm_to_watt(block["noise_density_dbm_hz"])
                   * db_to_linear(block["noise_figure_db"],
                                  "aue.noise_figure_db")
                   * (block["bandwidth_mhz"] * 1e6))
    return aue_net.AueNetworkConfig(
        frequency_hz=block["frequency_ghz"] * 1e9,
        bs_density_per_km2=block["bs_density_per_km2"],
        bs_height_m=block["bs_height_m"],
        p_tx_w=dbm_to_watt(block["p_tx_dbm"]),
        noise_w=noise_w,
        uav=uav,
        sector=sector,
        env=_environment(block["environment"]),
        eta_los=block["eta_los"],
        eta_nlos=block["eta_nlos"],
        nlos_excess_db=block["nlos_excess_db"],
        fading_m_los=block["fading_m_los"],
        fading_m_nlos=block["fading_m_nlos"],
        region_radius_m=block["region_radius_m"],
    )


def _sinr_target(block) -> float:
    """The linear SINR target T of a coverage sweep; a rate target R enters
    through T = 2^(R/B) - 1."""
    if block["target_rate_mbps"] is not None:
        return 2.0 ** (block["target_rate_mbps"] * 1e6
                       / (block["bandwidth_mhz"] * 1e6)) - 1.0
    return db_to_linear(block["threshold_db"], "aue.threshold_db")


# ---------------------------------------------------------------------------
# Command runners
# ---------------------------------------------------------------------------

def _run_channel_table(s: Scenario, out_dir: Path):
    block = s.params["channel"]
    env = _environment(block["environment"])
    f_ghz = block["frequency_ghz"]
    h_g = block["h_g_m"]
    d_h = np.array(block["distances_m"])
    rows = []
    for h in block["altitudes_m"]:
        slice_ = ch.slice_of(h, env)
        name = slice_.value
        ground = slice_ is ch.PropagationSlice.GROUND
        d_3d = np.hypot(d_h, h - h_g)
        p_3gpp = ch.p_los_3gpp(d_h, h, slice_)
        pl, sigma = [], []
        for los, (lo, hi) in ch.RMA_GROUND_RANGE_M.items():
            no_loss = (d_3d == 0.0) | (ground & ((d_h < lo) | (d_h > hi)))
            loss = ch.slice_pl_db(np.where(no_loss, 1.0, d_3d), h, h_g, f_ghz,
                                  env, los, slice_)
            pl.append(np.where(no_loss, np.nan, loss))
            try:
                sigma.append(ch.shadowing_sigma_db(slice_, los, d_h, h, h_g,
                                                   f_ghz))
            except ModelGapError:
                sigma.append(np.nan)
        columns = np.broadcast_arrays(
            d_h, ch._p_los_building_heights(d_h, max(h, h_g), min(h, h_g), env),
            p_3gpp, *pl, ch.averaged_pl_db(*pl, p_3gpp), *sigma)
        rows += [[h, d, name, *rest]
                 for d, *rest in zip(*(c.tolist() for c in columns))]
    return [_write_csv(out_dir / "channel_table.csv",
                       ["h_uav_m", "d_h_m", "slice", "p_los_building",
                        "p_los_3gpp", "pl_los_db", "pl_nlos_db", "pl_avg_db",
                        "sigma_los_db", "sigma_nlos_db"], rows)]


def _run_aue_coverage(s: Scenario, out_dir: Path):
    cfg = _aue_config(s.params["aue"])
    run = s.params["run"]
    rows = []
    for i, h in enumerate(run["altitudes_m"]):
        sinr = aue_net.sinr_samples(h, cfg, run["n_trials"],
                                    RngStream(s.seed, i))
        for t_db in run["thresholds_db"]:
            est = aue_net.coverage_from_samples(
                sinr, db_to_linear(t_db, "run.thresholds_db"))
            rows.append([h, t_db, est.value, est.ci95])
    return [_write_csv(out_dir / "aue_coverage.csv",
                       ["h_m", "threshold_db", "p_cov", "ci95"], rows)]


def _run_aue_sweep(s: Scenario, out_dir: Path):
    cfg = _aue_config(s.params["aue"])
    sw = s.params["sweep"]
    t_max = None
    if sw["metric"] == "coverage":
        cfg = replace(cfg, threshold_t=_sinr_target(s.params["aue"]))
    elif sw["t_max_db"] is not None:
        t_max = db_to_linear(sw["t_max_db"], "sweep.t_max_db")
    grid = sw["grid"]
    if sw["axis"] == "phi_t":    # degrees in the file, as aue.phi_t_deg
        grid = [math.radians(x) for x in grid]
    points = aue_net.sweep(cfg, sw["axis"], grid, uav_h=sw["uav_h_m"],
                           n_trials=sw["n_trials"], rng=RngStream(s.seed, 0),
                           metric=sw["metric"], k_nodes=sw["k_nodes"],
                           t_max=t_max)
    rows = [[x, p.value, p.ci95] for x, p in zip(sw["grid"], points)]
    return [_write_csv(out_dir / "aue_sweep.csv", ["x", "metric", "ci95"], rows)]


def _run_abs_design(s: Scenario, out_dir: Path):
    b = s.params["abs"]
    prof = abs_net.urban_abs_profile(
        k0_db=b["k0_db"], k90_db=b["k90_db"], eta0=b["eta0"], eta90=b["eta90"],
        antenna_gain=db_to_linear(b["antenna_gain_db"], "abs.antenna_gain_db"),
        noise_w=dbm_to_watt(b["noise_dbm"]),
        threshold_t=db_to_linear(b["threshold_db"], "abs.threshold_db"))
    rows = [[h, b["r_c_m"], *row] for h, row in zip(
        b["altitudes_m"],
        abs_net.design_rows(b["altitudes_m"], b["r_c_m"], b["epsilon"], prof))]
    return [_write_csv(out_dir / "abs_design.csv",
                       ["h_m", "r_c_m", "p_req_w", "power_gain",
                        "sum_rate_gain"], rows)]


def _run_localize(s: Scenario, out_dir: Path):
    b = s.params["localize"]
    chan = loc.ElevationChannel(
        a_los=b["a_los"], b_los=b["b_los"], a_nlos=b["a_nlos"],
        b_nlos=b["b_nlos"], a_o=b["a_o"], b_o=b["b_o"],
        eta_los=b["eta_los"], eta_nlos=b["eta_nlos"])
    scen = loc.LocalizationScenario(n_users=b["n_users"],
                                    user_area_radius_m=b["user_area_radius_m"])
    rows = []
    task = 0
    for h in b["altitudes_m"]:
        for radius in b["radii_m"]:
            for m in b["m_points"]:
                plan = loc.AnchorPlan(m, radius, h)
                res = loc.run_campaign(scen, plan, chan,
                                       RngStream(s.seed, task),
                                       trials_per_user=b["trials_per_user"],
                                       state_mode=b["state_mode"])
                rows.append([h, radius, m, res.mean_error_m, res.p50_m,
                             res.p90_m])
                task += 1
    return [_write_csv(out_dir / "localize.csv",
                       ["h_m", "R_m", "M", "mean_err_m", "p50_m", "p90_m"],
                       rows)]


# the automatic sites' positions as fractions of the map's width and height:
# quarter points first, centre fifth; a lone site takes the centre
_AUTO_SITE_FRACTIONS = ((0.25, 0.25), (0.75, 0.25), (0.25, 0.75), (0.75, 0.75),
                        (0.5, 0.5), (0.5, 0.25), (0.5, 0.75), (0.25, 0.5),
                        (0.75, 0.5))


def _auto_site_positions(width, height, count):
    if count == 1:
        return [(width / 2, height / 2)]
    return [(width * fx, height * fy)
            for fx, fy in _AUTO_SITE_FRACTIONS[:count]]


def _read_input(load, path, key):
    """Load the file a scenario key names; a failure names the key."""
    try:
        return load(path)
    except (OSError, ValueError, csv.Error) as exc:
        raise ScenarioError(f"cannot read {path!r}: {exc}", key) from exc


# a site CSV's columns, one site per row, in the order their values are read
SITE_CSV_COLUMNS = ("x", "y", "roof_h", "p_tx_dbm", "azimuth0_deg", "tilt_deg",
                    "max_gain_dbi", "beamwidth_deg")


def _sector_antenna(tilt_deg, max_gain_dbi, beamwidth_deg) -> SectorAntenna:
    return SectorAntenna(electrical_tilt=math.radians(tilt_deg),
                         max_gain_dbi=max_gain_dbi,
                         beamwidth_3db=math.radians(beamwidth_deg))


def _load_sites(path, hm: HeightMap):
    """The sites of a site CSV, each MAST_M above its row's roof_h. Every
    value of every row must be a finite number; then each row's columns must
    lie within SITE_CSV_FIELDS and its position on the map."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = set(SITE_CSV_COLUMNS) - set(reader.fieldnames or [])
        if missing:
            raise ScenarioError(f"site CSV missing columns {sorted(missing)}")
        for row in reader:
            vals = {}
            for k in SITE_CSV_COLUMNS:
                try:    # a DomainError is a ValueError
                    vals[k] = check_number(float(row[k]), k)
                except (TypeError, ValueError):
                    raise ScenarioError(f"site CSV line {reader.line_num}: {k} "
                                        f"must be a finite number, not {row[k]!r}")
            rows.append((reader.line_num, vals))
    if not rows:
        raise ScenarioError("site CSV holds no sites")
    x0, x1, y0, y1 = hm.extent
    for line, vals in rows:
        for column, f in SITE_CSV_FIELDS.items():
            check_bounds(vals[column], f, f"line {line}: {column}")
        for column, lo, hi in (("x", x0, x1), ("y", y0, y1)):
            if not lo <= vals[column] <= hi:
                raise ScenarioError(f"{vals[column]:g} lies off the map, "
                                    f"outside [{lo:g}, {hi:g}]",
                                    f"line {line}: {column}")
    return [ms.SectorSite(
        position=Position3D(v["x"], v["y"], v["roof_h"] + ms.MAST_M),
        p_tx_dbm=v["p_tx_dbm"], azimuth0=math.radians(v["azimuth0_deg"]),
        antenna=_sector_antenna(v["tilt_deg"], v["max_gain_dbi"],
                                v["beamwidth_deg"]))
        for _, v in rows]


def _run_mapsim(s: Scenario, out_dir: Path):
    b = s.params["mapsim"]
    env = _environment(b["environment"])
    if b["heightmap"] is not None:
        hm = _read_input(load_ascii_grid, b["heightmap"], "mapsim.heightmap")
    else:
        syn = b["synthetic"]
        hm = synthetic_city(syn["extent_m"], syn["cellsize_m"],
                            _environment(syn["environment"]),
                            RngStream(s.seed, 1000).child_generator(),
                            min_height_m=syn["min_height_m"])
    if b["sites_csv"] is not None:
        sites = _read_input(lambda path: _load_sites(path, hm),
                            b["sites_csv"], "mapsim.sites_csv")
    else:
        auto = b["auto_sites"]
        x0, x1, y0, y1 = hm.extent
        ant = _sector_antenna(auto["downtilt_deg"], auto["max_gain_dbi"],
                              auto["beamwidth_deg"])
        try:
            sites = [ms.site_on_roof(hm, x0 + px, y0 + py, mast_m=auto["mast_m"],
                                     p_tx_dbm=auto["p_tx_dbm"], antenna=ant)
                     for px, py in _auto_site_positions(
                         x1 - x0, y1 - y0, auto["count"])]
        except DomainError as exc:
            raise ScenarioError(str(exc), "mapsim.auto_sites") from exc
    check_mapsim_rays(len(sites), b["heights_m"], hm.nrows, hm.ncols,
                      b["stride"])
    cfg = ms.MapSimConfig(frequency_hz=b["frequency_ghz"] * 1e9,
                          bandwidth_hz=b["bandwidth_mhz"] * 1e6,
                          noise_figure_db=b["noise_figure_db"],
                          env=env, pl_model=b["pl_model"])
    written = []
    rows = []
    grids = ms.sinr_grids(sites, hm, b["heights_m"], cfg, stride=b["stride"])
    for h in b["heights_m"]:
        # next() rather than zip(), which keeps its last tuple and so would
        # hold this grid while the next one is built
        grid = next(grids)
        rows.append([h, grid.coverage_fraction(b["threshold_db"]),
                     grid.p_los_any])
        if b["emit_rasters"]:
            path = out_dir / f"sinr_h{_fmt(h)}.asc"
            save_ascii_grid(HeightMap(heights=grid.sinr_db[::-1, :],
                                      cellsize=hm.cellsize * b["stride"],
                                      xllcorner=hm.xllcorner,
                                      yllcorner=hm.yllcorner), path)
            written.append(path)
        del grid  # written: the next height's grid is built without it
    written.insert(0, _write_csv(
        out_dir / "mapsim_summary.csv",
        ["h_m", "coverage_fraction", "p_los_any"], rows))
    return written


_RUNNERS = {
    "channel-table": _run_channel_table,
    "aue-coverage": _run_aue_coverage,
    "aue-sweep": _run_aue_sweep,
    "abs-design": _run_abs_design,
    "localize": _run_localize,
    "mapsim": _run_mapsim,
}


def run_scenario(s: Scenario, out_dir, threads: int = 1):
    """Execute a validated scenario; returns the list of written paths.

    A runner reads its input files through _read_input, so an OSError left
    is the output's: a ScenarioError naming `output`. `threads` has no
    effect: runs are serial (a pool made them slower)."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        return _RUNNERS[s.command](s, out)
    except OSError as exc:
        raise ScenarioError(str(exc), "output") from exc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="a2gnet",
        description="Air-to-ground channel and UAV network performance runs")
    parser.add_argument("--scenario", required=True, help="scenario YAML path")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed")
    parser.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
        if args.seed is not None:
            scenario.seed = validate_seed(args.seed)
    except (ScenarioError, OSError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    out_dir = args.out or scenario.output or "."
    try:
        paths = run_scenario(scenario, out_dir)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"model error in {scenario.command}: {exc}", file=sys.stderr)
        return 1
    for p in paths:
        print(p)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

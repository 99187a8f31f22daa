"""Benchmark workloads: scenario documents generated from a seed.

Each workload mirrors shipped files under `scenarios/`, scaled so that one
repetition of all its scenarios takes about 1-2 s on a 2-core box and a
run can report the median of several repetitions. `size="tiny"` keeps the
same structure at a few milliseconds per repetition for the benchmark's own
tests.
"""

from __future__ import annotations

import math

import yaml

WORKLOADS = ("aue_mc", "localize", "mapsim", "analytic")

# Seeds of the shipped scenario files each workload mirrors.
SHIPPED_SEEDS = {"aue_mc": 42, "localize": 42, "mapsim": 12}

# Workloads with no random input: their scenarios do not depend on the seed.
SEED_FREE = ("analytic",)

# mapsim averages this many cities per repetition: the cost of one city
# depends on where its random roofs put the sites, and averaging keeps the
# run-to-run spread across seeds inside the study_s bound.
MAPSIM_CITIES = 3

_AUE_LINK = {"frequency_ghz": 1.8, "bandwidth_mhz": 20,
             "noise_density_dbm_hz": -174, "noise_figure_db": 9,
             "bs_density_per_km2": 5, "p_tx_dbm": 43}


def _geom_grid(lo, hi, n):
    """n log-spaced values from lo to hi, rounded to 4 significant digits."""
    if n == 1:
        return [float(lo)]
    return [float("%.4g" % (lo * (hi / lo) ** (k / (n - 1)))) for k in range(n)]


def _aue_mc(seed, tiny):
    trials = 20 if tiny else 150
    altitudes = [30, 150] if tiny else [5, 15, 30, 60, 90, 120, 150, 200, 250, 300]
    grid = [60, 120] if tiny else [40, 60, 80, 100, 120, 140, 160]
    coverage = {"command": "aue-coverage", "seed": seed, "aue": dict(_AUE_LINK),
                "run": {"altitudes_m": altitudes, "thresholds_db": [-6, 0, 6],
                        "n_trials": trials}}
    sweep = {"command": "aue-sweep", "seed": seed, "aue": {"antenna": "cone"},
             "sweep": {"axis": "phi_b", "grid": grid, "uav_h_m": 150,
                       "metric": "capacity", "n_trials": trials,
                       "t_max_db": 30}}
    return [("coverage", coverage), ("beamwidth", sweep)]


def _localize(seed, tiny):
    block = {"m_points": [3, 4], "radii_m": [50, 80, 120, 160, 200],
             "altitudes_m": [200], "n_users": 7, "trials_per_user": 3}
    if tiny:
        block.update(m_points=[3], radii_m=[50, 200], n_users=2,
                     trials_per_user=1)
    return [("campaign", {"command": "localize", "seed": seed,
                          "localize": block})]


def _mapsim(seed, tiny):
    out = []
    for i in range(1 if tiny else MAPSIM_CITIES):
        block = {
            "synthetic": {"extent_m": 160 if tiny else 480, "cellsize_m": 4,
                          "min_height_m": 4,
                          "environment": {"preset": "dense_urban"}},
            "auto_sites": {"count": 2 if tiny else 5, "p_tx_dbm": 46},
            "heights_m": [1.5, 60] if tiny else [1.5, 10, 20, 30, 60, 100, 150],
            "stride": 10 if tiny else 24,
        }
        out.append((f"city{i}", {"command": "mapsim", "seed": seed + 1000 * i,
                                 "mapsim": block}))
    return out


def _analytic(seed, tiny):
    radii = [500] if tiny else [250, 500, 1000]
    epsilons = [0.05] if tiny else [0.01, 0.05, 0.1]
    altitudes = _geom_grid(50, 1600, 2 if tiny else 12)
    out = []
    for r_c in radii:
        for eps in epsilons:
            out.append((f"abs_r{r_c}_e{eps}",
                        {"command": "abs-design", "seed": 0,
                         "abs": {"epsilon": eps, "r_c_m": r_c,
                                 "altitudes_m": altitudes}}))
    n = 4 if tiny else 40
    out.append(("channel_table",
                {"command": "channel-table", "seed": 0,
                 "channel": {"frequency_ghz": 1.8, "h_g_m": 30,
                             "altitudes_m": _geom_grid(1.5, 300, n),
                             "distances_m": _geom_grid(20, 5000, n)}}))
    return out


_BUILDERS = {"aue_mc": _aue_mc, "localize": _localize, "mapsim": _mapsim,
             "analytic": _analytic}


def scenario_texts(workload: str, seed: int, size: str = "bench"):
    """[(label, YAML text)] of the workload's scenarios for this seed."""
    if size not in ("bench", "tiny"):
        raise ValueError(f"unknown size {size!r}")
    docs = _BUILDERS[workload](seed, size == "tiny")
    return [(label, yaml.safe_dump(doc, sort_keys=False)) for label, doc in docs]


def raster_shape(params: dict):
    """(nrows, ncols) of the SINR rasters a mapsim scenario writes."""
    syn = params["synthetic"]
    n = int(round(syn["extent_m"] / syn["cellsize_m"]))
    k = math.ceil(n / params["stride"])
    return k, k

"""Output checks: every written row against reference rows, or invariants.

A point is one output row: a CSV data row or one line of an SINR raster.
With reference rows for the run's seed, each row must match the recorded
one: LOS-derived fractions exactly, other numbers within REL_TOL. Without
them the check is partial: row counts, grid echo columns, finite values and
probabilities in [0, 1].
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from workloads import raster_shape

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Loose enough for a scipy Marcum Q swap (3.3e-13 absolute, 7.1e-8 on the
# inverse round trip) and the 9-digit CSV rounding; far tighter than one
# Monte Carlo trial moving a 200-trial fraction by 5e-3.
REL_TOL = 1e-6
ABS_TOL = 1e-12

# Map-derived LOS decisions are booleans: any change is a bug, not noise.
EXACT_COLUMNS = ("p_los_any", "coverage_fraction")

ASC_HEADER_LINES = 6

_PROB = "prob"
_NONNEG = "nonneg"
_POSITIVE = "positive"
_FINITE = "finite"
_OPTIONAL = "finite_or_nan"
_TEXT = "text"

COLUMN_RULES = {
    "p_cov": _PROB, "coverage_fraction": _PROB, "p_los_any": _PROB,
    "p_los_building": _PROB, "p_los_3gpp": _PROB,
    "ci95": _NONNEG, "metric": _NONNEG,
    "mean_err_m": _NONNEG, "p50_m": _NONNEG, "p90_m": _NONNEG,
    "p_req_w": _POSITIVE, "power_gain": _POSITIVE, "sum_rate_gain": _POSITIVE,
    "pl_los_db": _OPTIONAL, "pl_nlos_db": _OPTIONAL, "pl_avg_db": _OPTIONAL,
    "sigma_los_db": _OPTIONAL, "sigma_nlos_db": _OPTIONAL,
    "slice": _TEXT,
}


def load_reference(workload: str, seed: int, seed_free: bool):
    """{'<label>/<file>': lines} recorded for this seed, or None."""
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        return None
    seeds = json.loads(path.read_text(encoding="utf-8"))["seeds"]
    return seeds.get("any" if seed_free else str(seed))


def read_lines(path) -> list:
    return Path(path).read_text(encoding="utf-8").splitlines()


def _split(fname: str, lines: list):
    """(header lines, column names or None, data rows as cell lists)."""
    if fname.endswith(".asc"):
        return (lines[:ASC_HEADER_LINES], None,
                [line.split() for line in lines[ASC_HEADER_LINES:]])
    columns = lines[0].split(",") if lines else []
    return lines[:1], columns, [line.split(",") for line in lines[1:]]


def _float(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _cell_matches(column, got: str, want: str) -> bool:
    if got == want:
        return True
    if column in EXACT_COLUMNS:
        return False
    a, b = _float(got), _float(want)
    if a is None or b is None:
        return False
    if math.isnan(a) and math.isnan(b):
        return True
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def compare(fname: str, lines: list, ref_lines: list):
    """(points, misses) of an output file against its reference lines."""
    header, columns, rows = _split(fname, lines)
    ref_header, _, ref_rows = _split(fname, ref_lines)
    points = max(len(rows), len(ref_rows))
    if header != ref_header:
        return points, points
    misses = points - min(len(rows), len(ref_rows))
    for row, ref in zip(rows, ref_rows):
        if len(row) != len(ref) or not all(
                _cell_matches(columns[j] if columns else None, got, want)
                for j, (got, want) in enumerate(zip(row, ref))):
            misses += 1
    return points, misses


def _value_ok(rule: str, cell: str) -> bool:
    if rule == _TEXT:
        return bool(cell)
    v = _float(cell)
    if v is None:
        return False
    if rule == _OPTIONAL:
        return math.isnan(v) or math.isfinite(v)
    if not math.isfinite(v):
        return False
    if rule == _PROB:
        return 0.0 <= v <= 1.0
    if rule == _NONNEG:
        return v >= 0.0
    if rule == _POSITIVE:
        return v > 0.0
    return True


def _grid_keys(s, fname: str):
    """Leading columns each row must echo, in order, for a scenario."""
    p = s.params
    if s.command == "aue-coverage":
        return [(h, t) for h in p["run"]["altitudes_m"]
                for t in p["run"]["thresholds_db"]]
    if s.command == "aue-sweep":
        return [(x,) for x in p["sweep"]["grid"]]
    if s.command == "localize":
        b = p["localize"]
        return [(h, r, m) for h in b["altitudes_m"] for r in b["radii_m"]
                for m in b["m_points"]]
    if s.command == "abs-design":
        return [(h, p["abs"]["r_c_m"]) for h in p["abs"]["altitudes_m"]]
    if s.command == "channel-table":
        b = p["channel"]
        return [(h, d) for h in b["altitudes_m"] for d in b["distances_m"]]
    if s.command == "mapsim" and fname == "mapsim_summary.csv":
        return [(h,) for h in p["mapsim"]["heights_m"]]
    raise ValueError(f"no grid for {s.command} {fname}")


def expected_files(s) -> dict:
    """{file name: data rows} a scenario must write."""
    if s.command == "mapsim":
        b = s.params["mapsim"]
        nrows, _ = raster_shape(b)
        out = {"mapsim_summary.csv": len(b["heights_m"])}
        out.update({f"sinr_h{'%.9g' % h}.asc": nrows for h in b["heights_m"]})
        return out
    name = {"aue-coverage": "aue_coverage.csv", "aue-sweep": "aue_sweep.csv",
            "localize": "localize.csv", "abs-design": "abs_design.csv",
            "channel-table": "channel_table.csv"}[s.command]
    return {name: len(_grid_keys(s, name))}


def invariants(s, fname: str, lines: list):
    """(points, misses) from structural checks alone (no reference)."""
    header, columns, rows = _split(fname, lines)
    if fname.endswith(".asc"):
        nrows, ncols = raster_shape(s.params["mapsim"])
        points = max(nrows, len(rows))
        shape = [line.split()[1] for line in header[:2]]
        if shape != [str(ncols), str(nrows)]:
            return points, points
        bad = sum(1 for row in rows
                  if len(row) != ncols or not all(_value_ok(_FINITE, c) for c in row))
        return points, bad + points - min(nrows, len(rows))
    keys = _grid_keys(s, fname)
    points = max(len(keys), len(rows))
    misses = points - min(len(keys), len(rows))
    for row, key in zip(rows, keys):
        ok = len(row) == len(columns) and all(
            _float(c) is not None and math.isclose(_float(c), k, rel_tol=1e-9)
            for c, k in zip(row, key))
        ok = ok and all(_value_ok(COLUMN_RULES.get(col, _FINITE), cell)
                        for col, cell in zip(columns[len(key):], row[len(key):]))
        misses += not ok
    return points, misses


def check_rep(scenarios, outputs: dict, reference):
    """(points, misses) of one repetition.

    scenarios: [(label, Scenario)]; outputs: {label: written paths, or None
    when the study raised}; reference: {'<label>/<file>': lines} or None.
    """
    points = misses = 0
    for label, s in scenarios:
        paths = outputs.get(label)
        written = {Path(p).name: p for p in paths or ()}
        for fname, n_rows in expected_files(s).items():
            key = f"{label}/{fname}"
            want = reference[key] if reference is not None and key in reference else None
            if paths is None or fname not in written:
                n = n_rows if want is None else len(_split(fname, want)[2])
                points += n
                misses += n
                continue
            lines = read_lines(written[fname])
            if reference is not None:
                n, bad = compare(fname, lines, want or [])
            else:
                n, bad = invariants(s, fname, lines)
            points += n
            misses += bad
    return points, misses

"""Surface heightmaps: ESRI ASCII grid I/O, exact line-of-sight, statistics.

The surface is the bilinear interpolation of cell-center heights (clamped
beyond the border ring). Within one bilinear patch the surface along a 3D
segment is quadratic in the path parameter, so the LOS test evaluates the
exact minimum of segment-minus-surface per patch interval instead of
sampling; no dip between sample points can be missed. `los_mask` casts
every ray from a list of sites to a raster of cells at a list of UE
heights in one call, heights x sites x cells. A ray's patches do not
depend on its height, so the geometry is built once per (site, cell) ray
and the clearance evaluated once per height: the integer crossings of a
batch of rays, from any of the sites, become one flat array of ray-patch
intervals (Amanatides & Woo 1987) with each patch's surface polynomial
and its ray's site height, and then, per height, each interval's
clearance minimum is taken in closed form and a ray is clear when none of
its intervals is blocked. It reads a grid padded with one ring of edge
heights, whose patches over the border ring are the clamped surface, so
it needs no clamp branches. A loaded grid's heights lie within
+-MAX_SURFACE_M.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import Environment
from .errors import DomainError, GridParseError, check_number
from .limits import FLOAT_FMT, MAX_SURFACE_M

_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize",
                "nodata_value")


@dataclass
class HeightMap:
    """Uniform raster of surface heights (buildings and terrain), meters.

    heights[0, :] is the northernmost row, per the ASCII grid convention.
    Internally no-data cells are NaN; they serialize back to nodata_value.
    Treat heights as read-only: los_mask caches a padded copy of them.
    """

    heights: np.ndarray
    cellsize: float
    xllcorner: float = 0.0
    yllcorner: float = 0.0
    nodata_value: float = -9999.0

    def __post_init__(self):
        self.heights = np.asarray(self.heights, dtype=float)
        if self.heights.ndim != 2 or self.heights.size == 0:
            raise DomainError("heightmap needs a nonempty 2-D grid")
        check_number(self.cellsize, "cellsize", above=0.0)
        for name in ("xllcorner", "yllcorner", "nodata_value"):
            check_number(getattr(self, name), name)

    @property
    def nrows(self) -> int:
        return self.heights.shape[0]

    @property
    def ncols(self) -> int:
        return self.heights.shape[1]

    @property
    def extent(self):
        """(xmin, xmax, ymin, ymax) of the outer raster boundary."""
        return (self.xllcorner, self.xllcorner + self.ncols * self.cellsize,
                self.yllcorner, self.yllcorner + self.nrows * self.cellsize)

    def contains(self, x, y) -> bool:
        x0, x1, y0, y1 = self.extent
        return bool(np.all((x0 <= x) & (x <= x1) & (y0 <= y) & (y <= y1)))

    def cell_centers(self):
        """(x, y) coordinate vectors of cell centers (y ascending)."""
        x = self.xllcorner + (np.arange(self.ncols) + 0.5) * self.cellsize
        y = self.yllcorner + (np.arange(self.nrows) + 0.5) * self.cellsize
        return x, y

    @functools.cached_property
    def _padded_grid(self):
        # rows flipped so index increases with y, plus an edge ring that
        # also takes the no-data of the cell one further in, as the clamped
        # surface_at patch reads it
        g = self.heights[::-1, :]
        padded = np.pad(g, 1, mode="edge")
        padded[np.isnan(np.pad(g, 1, mode="reflect"))] = np.nan
        return padded

    def surface_at(self, x, y):
        """Bilinear surface heights at world coordinate arrays x, y; a hot
        kernel: x and y must be finite (NaN ends in an IndexError), so its
        callers check them first."""
        u = (np.asarray(x, dtype=float) - self.xllcorner) / self.cellsize - 0.5
        v = (np.asarray(y, dtype=float) - self.yllcorner) / self.cellsize - 0.5
        u = np.clip(u, 0.0, self.ncols - 1.0)
        v = np.clip(v, 0.0, self.nrows - 1.0)
        j = np.minimum(np.floor(u), self.ncols - 2.0)
        i = np.minimum(np.floor(v), self.nrows - 2.0)
        fu = u - j
        fv = v - i
        g = self._padded_grid   # padded index k + 1 holds grid index k
        i, j = i.astype(np.intp) + 1, j.astype(np.intp) + 1
        return (g[i, j] * (1 - fu) * (1 - fv) + g[i, j + 1] * fu * (1 - fv)
                + g[i + 1, j] * (1 - fu) * fv + g[i + 1, j + 1] * fu * fv)


# ---------------------------------------------------------------------------
# ESRI ASCII grid I/O
# ---------------------------------------------------------------------------

def load_ascii_grid(path) -> HeightMap:
    """Parse an ESRI ASCII grid; parse errors carry the line number.

    Every height other than no-data lies within +-MAX_SURFACE_M."""
    header = {}
    rows = []
    lines = []
    expected_cols = None
    with open(path, "r", encoding="utf-8-sig") as fh:    # BOM or none
        lineno = 0
        for raw in fh:
            lineno += 1
            line = raw.strip()
            if not line:
                continue
            parts = line.split()
            key = parts[0].lower()
            if key in _HEADER_KEYS and len(parts) == 2 and not rows:
                try:
                    value = float(parts[1])
                except ValueError:
                    value = math.nan
                count = key in ("ncols", "nrows")
                if not (value > 0 and value.is_integer() if count
                        else math.isfinite(value)):
                    raise GridParseError(
                        f"{key} must be a "
                        f"{'positive integer' if count else 'finite number'},"
                        f" not {parts[1]!r}", lineno)
                header[key] = value
                continue
            try:
                row = [float(tok) for tok in parts]
            except ValueError:
                raise GridParseError("non-numeric height value", lineno)
            if expected_cols is None:
                for need in ("ncols", "nrows", "cellsize"):
                    if need not in header:
                        raise GridParseError(f"missing header key {need!r}", lineno)
                expected_cols = int(header["ncols"])
            if len(row) != expected_cols:
                raise GridParseError(
                    f"expected {expected_cols} columns, found {len(row)}", lineno)
            rows.append(row)
            lines.append(lineno)
    if expected_cols is None:
        raise GridParseError("no data rows found")
    if len(rows) != int(header["nrows"]):
        raise GridParseError(
            f"expected {int(header['nrows'])} rows, found {len(rows)}")
    heights = np.array(rows, dtype=float)
    nodata = header.get("nodata_value", -9999.0)
    heights[heights == nodata] = np.nan
    beyond = np.argwhere(np.abs(heights) > MAX_SURFACE_M)
    if beyond.size:
        r, c = beyond[0]
        raise GridParseError(f"height {heights[r, c]:g} in column {c + 1} is "
                             f"beyond +-{MAX_SURFACE_M:g} m", lines[r])
    return HeightMap(heights=heights, cellsize=header["cellsize"],
                     xllcorner=header.get("xllcorner", 0.0),
                     yllcorner=header.get("yllcorner", 0.0),
                     nodata_value=nodata)


def save_ascii_grid(hm: HeightMap, path) -> None:
    """Write hm as an ESRI ASCII grid, each float as FLOAT_FMT and each NaN
    height as the no-data value."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"ncols {hm.ncols}\n")
        fh.write(f"nrows {hm.nrows}\n")
        fh.write(f"xllcorner {FLOAT_FMT % hm.xllcorner}\n")
        fh.write(f"yllcorner {FLOAT_FMT % hm.yllcorner}\n")
        fh.write(f"cellsize {FLOAT_FMT % hm.cellsize}\n")
        fh.write(f"NODATA_value {FLOAT_FMT % hm.nodata_value}\n")
        filled = np.where(np.isnan(hm.heights), hm.nodata_value, hm.heights)
        for row in filled:
            fh.write(" ".join(FLOAT_FMT % v for v in row) + "\n")


# ---------------------------------------------------------------------------
# Exact line-of-sight over the bilinear surface
# ---------------------------------------------------------------------------

# Most ray-patch intervals one los_mask batch holds, and most rays it
# screens at a time; it bounds the memory of a cast. On a 2-core Xeon the
# mapsim_city scenario at stride 1 (then one cast per site over 7 heights)
# took 0.96-1.28 s at 2**14, 0.85-0.97 s at 2**15 and 1.19-1.90 s at 2**13,
# at 47-50 MB peak RSS for each (4 runs each, in-process); a bench mapsim
# city's 125 rays, 5 sites x 25 cells, take two batches at 2**14.
_BATCH_INTERVALS = 1 << 14


def los_mask(sites, x, y, heights, hm: HeightMap) -> np.ndarray:
    """LOS from each of the Position3D sites to every cell (x, y) at every
    UE height, as booleans shaped (len(heights), len(sites)) + cells.

    x and y broadcast together to the cells' shape; heights is a nonempty
    1-D sequence of finite UE heights. A ray is clear iff the open segment
    clears the bilinear surface everywhere. Endpoints at or below the
    surface count as obstructed, and a ray over a no-data patch is
    obstructed. Exact per patch: the clearance is quadratic in t on each
    interval, so its minimum is evaluated in closed form. The surface and
    grid coordinates are taken once per cell and site, the ray-patch
    geometry is built once per (site, cell) ray that is open at any
    height, with the rays of every site in the same batches, and each
    height's clearance is evaluated on it; so many heights over one raster
    cost no more memory than booleans of the result's shape.
    """
    hs = np.asarray(heights, dtype=float)
    if hs.ndim != 1 or hs.size == 0:
        raise DomainError("heights must be a nonempty 1-D sequence")
    # NaN and inf clear every surface test: rejected once, before any ray
    if not np.isfinite(hs).all():
        raise DomainError("heights must be finite")
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float),
                               np.asarray(y, dtype=float))
    n_cells = x.size
    px = np.concatenate([x.ravel(), [a.x for a in sites]])  # the sites last
    py = np.concatenate([y.ravel(), [a.y for a in sites]])
    if not hm.contains(px, py):
        raise DomainError("line-of-sight endpoints must lie inside the map")
    surface = hm.surface_at(px, py)
    site_h = np.array([a.h for a in sites], dtype=float)
    clear = np.empty((hs.size, len(sites)) + x.shape, dtype=bool)
    # the rays, site-major: flat[k, site * n_cells + cell]
    flat = clear.reshape(hs.size, len(sites) * n_cells)
    # written so that a NaN surface (next to no-data) does not block
    np.logical_not((site_h <= surface[n_cells:])[:, None]
                   | (hs[:, None, None] <= surface[:n_cells]),
                   out=flat.reshape(hs.size, len(sites), n_cells))

    inv = 1.0 / hm.cellsize
    u = (px - hm.xllcorner) * inv - 0.5
    v = (py - hm.yllcorner) * inv - 0.5
    # a ray has at most 2 + ncols + nrows parameters
    step = max(1, _BATCH_INTERVALS // (2 + hm.ncols + hm.nrows))
    for c in range(0, flat.shape[1], _BATCH_INTERVALS):
        open_rays = np.flatnonzero(
            flat[:, c:c + _BATCH_INTERVALS].any(axis=0)) + c
        for s in range(0, open_rays.size, step):
            b = open_rays[s:s + step]
            site, cell = np.divmod(b, n_cells)
            ua, va = u[n_cells + site], v[n_cells + site]
            ub, vb = u[cell], v[cell]
            ts = np.sort(np.hstack([np.tile([0.0, 1.0], (b.size, 1)),
                                    _crossings(ua, ub), _crossings(va, vb)]),
                         axis=1)
            ha = site_h[site]
            geometry = _geometry(ua, va, ub - ua, vb - va, ha, ts,
                                 hm._padded_grid)
            for k, h in enumerate(hs.tolist()):
                flat[k, b[_blocked(h - ha, geometry)]] = False
    return clear


def _crossings(p0, p1):
    """Parameters in [0,1] where p0 + t (p1-p0) crosses an integer, one row
    per ray padded with 1. Rounding is monotone, so a crossing at the very
    end reads exactly 0 or 1 and, like the padding, adds only zero-width
    intervals."""
    dp = p1 - p0
    k0 = np.ceil(np.minimum(p0, p1))
    n = np.where(dp == 0.0, 0.0, np.floor(np.maximum(p0, p1)) - k0 + 1)
    cols = np.arange(n.max(initial=0))
    ok = cols < n[:, None]
    return np.divide(k0[:, None] + cols - p0[:, None], dp[:, None],
                     out=np.ones(ok.shape), where=ok)


# _geometry runs in stages (_patches, _surface) so that each stage's
# interval arrays are freed when it returns. A batch's peak memory is what
# the allocator hands back to the OS after the batch and faults in again
# on the next: when each height built its own geometry, the mapsim_city
# scenario at stride 1 took 820k minor page faults with one stage and 432k
# with three.
def _geometry(u0, v0, du, dv, h0, ts, g):
    """The height-independent part of a batch's rays from (u0, v0) at
    height h0, per interval between each ray's sorted parameters ts: its
    ray, its ray's start height, start t_lo and span, whether its patch
    touches no-data, the surface s(tau) = c0 + c1 tau + c2 tau^2 along it
    (tau = t - t_lo) as c0 and c1 with the clearance's curvature g2 = -c2,
    the term g2 span^2, and the convex intervals with their g2 and span."""
    t_lo, t_hi = ts[:, :-1], ts[:, 1:]
    keep = ~(t_hi - t_lo < 1e-15)
    ray = np.nonzero(keep)[0]
    t_lo, t_hi = t_lo[keep], t_hi[keep]
    nodata, c0, c1, c2 = _surface(u0[ray], v0[ray], du[ray], dv[ray], t_lo,
                                  t_hi, g)
    span = t_hi - t_lo
    g2 = -c2
    conv = np.flatnonzero(g2 > 0)
    return (ray, h0[ray], t_lo, span, nodata, c0, c1, g2 * span * span,
            conv, g2[conv], span[conv])


def _blocked(dz, geometry):
    """The batch's rays, with repeats, that have an interval over no-data
    or with a clearance minimum <= 0 (or NaN), when each ray climbs the
    finite dz from its start: the clearance is g(tau) = g0 + g1 tau + g2 tau^2."""
    ray, h0, t_lo, span, nodata, c0, c1, g2_span2, conv, g2c, span_c = geometry
    dz = dz[ray]
    g0 = h0 + t_lo * dz - c0
    g1 = dz - c1
    gmin = np.minimum(g0, g0 + g1 * span + g2_span2)
    # convex clearance: an interior vertex can dip lower. A vertex that
    # overflows (g2 subnormal) lies far outside (0, span) either way.
    with np.errstate(over="ignore"):
        tv = -g1[conv] / (2.0 * g2c)
    inside = (0.0 < tv) & (tv < span_c)
    sel, tv = conv[inside], tv[inside]
    gmin[sel] = np.minimum(gmin[sel],
                           g0[sel] + g1[sel] * tv + g2c[inside] * tv * tv)

    return ray[nodata | ~(gmin > 0.0)]    # a NaN clearance blocks


def _surface(u0, v0, du, dv, t_lo, t_hi, g):
    """Per interval, whether its patch touches no-data, and the bilinear
    surface along the segment, s(tau) = c0 + c1 tau + c2 tau^2 with
    tau = t - t_lo, as (nodata, c0, c1, c2)."""
    h00, h10, h01, h11, fu0, fv0 = _patches(u0, v0, du, dv, t_lo, t_hi, g)
    nodata = np.isnan(h00) | np.isnan(h10) | np.isnan(h01) | np.isnan(h11)
    bx = h10 - h00
    by = h01 - h00
    bxy = h11 - h10 - h01 + h00
    c0 = h00 + bx * fu0 + by * fv0 + bxy * fu0 * fv0
    c1 = bx * du + by * dv + bxy * (fu0 * dv + fv0 * du)
    c2 = bxy * du * dv
    return nodata, c0, c1, c2


def _patches(u0, v0, du, dv, t_lo, t_hi, g):
    """Corner heights of each interval's patch and the interval's start
    within it (fu0, fv0)."""
    tm = 0.5 * (t_lo + t_hi)
    # patch (i, j) spans padded corners [i+1, j+1] .. [i+2, j+2]; over the
    # border ring j or i is -1 or the last index
    j = np.floor(u0 + tm * du)
    i = np.floor(v0 + tm * dv)
    fu0 = u0 + t_lo * du - j
    fv0 = v0 + t_lo * dv - i
    ncols = g.shape[1]
    k = (i.astype(np.intp) + 1) * ncols + j.astype(np.intp) + 1
    flat = g.ravel()
    return (flat[k], flat[k + 1], flat[k + ncols], flat[k + ncols + 1],
            fu0, fv0)


# ---------------------------------------------------------------------------
# Building statistics
# ---------------------------------------------------------------------------

@dataclass
class BuildingStats:
    rayleigh_scale_m: Optional[float]
    mean_height_m: Optional[float]
    n_building_cells: int


def building_stats(hm: HeightMap, min_building_height_m: float = 4.0) -> BuildingStats:
    """ML Rayleigh scale, mean and count of the building cells' heights:
    the finite heights of at least min_building_height_m."""
    check_number(min_building_height_m, "min_building_height_m")
    vals = hm.heights[np.isfinite(hm.heights)]
    vals = vals[vals >= min_building_height_m]
    if vals.size == 0:
        return BuildingStats(None, None, 0)
    scale = math.sqrt(float(np.mean(vals ** 2)) / 2.0)
    return BuildingStats(scale, float(np.mean(vals)), vals.size)


# ---------------------------------------------------------------------------
# Synthetic city generator
# ---------------------------------------------------------------------------

# most cells per side of a synthetic city: one float64 raster of 4096^2
# cells is about 134 MB
MAX_SYNTHETIC_CELLS = 4096


def synthetic_cells(extent_m: float, cellsize_m: float) -> int:
    """Cells per side of a synthetic city; the cell size must divide the
    extent, so that the map spans exactly extent_m, in at most
    MAX_SYNTHETIC_CELLS cells."""
    check_number(extent_m, "extent_m", above=0.0)
    check_number(cellsize_m, "cellsize_m", above=0.0)
    cells = extent_m / cellsize_m
    # checked before round(), which overflows on an infinite ratio
    if cells > MAX_SYNTHETIC_CELLS + 0.5:
        raise DomainError(f"a {cellsize_m:g} m cell makes more than "
                          f"{MAX_SYNTHETIC_CELLS} cells a side over the "
                          f"{extent_m:g} m extent")
    n = round(cells)
    if not math.isclose(n * cellsize_m, extent_m, rel_tol=1e-9):
        raise DomainError(f"a {cellsize_m:g} m cell does not divide the "
                          f"{extent_m:g} m extent")
    return n


def synthetic_city(extent_m: float, cellsize_m: float, env: Environment,
                   rng: np.random.Generator,
                   min_height_m: float = 0.0) -> HeightMap:
    """Manhattan-grid city: square buildings on a regular lattice.

    Lattice pitch and footprint follow env's building statistics: xi
    buildings/km^2 fixes the pitch 1000/sqrt(xi), varsigma the footprint
    fraction, and heights draw from Rayleigh(omega) floored at
    min_height_m. Streets are at height zero.
    """
    check_number(min_height_m, "min_height_m", minimum=0.0)
    varsigma, xi, omega = env.varsigma, env.xi, env.omega
    n = synthetic_cells(extent_m, cellsize_m)
    heights = np.zeros((n, n))
    pitch = 1000.0 / math.sqrt(xi)
    side = pitch * math.sqrt(varsigma)
    n_blocks = max(int(extent_m // pitch), 1)
    for bi in range(n_blocks):
        for bj in range(n_blocks):
            cx = (bi + 0.5) * pitch
            cy = (bj + 0.5) * pitch
            h = max(rng.rayleigh(omega), min_height_m)
            j0 = int((cx - side / 2) / cellsize_m)
            j1 = int(math.ceil((cx + side / 2) / cellsize_m))
            i0 = int((cy - side / 2) / cellsize_m)
            i1 = int(math.ceil((cy + side / 2) / cellsize_m))
            if j0 >= n or i0 >= n:
                continue
            rows = slice(max(n - i1, 0), max(n - i0, 0))
            heights[rows, max(j0, 0):min(j1, n)] = h
    return HeightMap(heights=heights, cellsize=cellsize_m)

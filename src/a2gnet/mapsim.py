"""Semi-deterministic map-based downlink simulator.

LOS/NLOS comes from ray casting against the heightmap; path loss then
follows the slice-appropriate statistical model (`channel.slice_pl_db`).
Everything is deterministic: no shadowing is drawn and no Monte Carlo is
involved, so rasters are bit-reproducible. `sinr_grids` is the one entry
point, over a list of UE heights (one height is a one-entry list); the CLI
reads site files and places the sites. A run casts every ray in one
`los_mask` call, heights x sites x cells, and builds the height-independent
part of every link budget once; each height is then one stacked pass over
all sites, on its own contiguous slice of the LOS masks, with their powers
and antenna fields as arrays, and its grid is built only when the caller
reaches it. Every ground UE has the gain UE_GAIN_DBI, and the
noise is NOISE_DENSITY_DBM_HZ over the config's bandwidth plus its noise
figure: no scenario key sets either constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Iterator, Sequence

import numpy as np

from . import channel as ch
from .antenna_geometry import (SECTOR_OFFSETS, Position3D, SectorAntenna,
                               azimuth_attenuation_db, sector_gain_db)
from .errors import DomainError, check_count, check_number
from .heightmap import HeightMap, los_mask
from .numerics import db_to_linear

MAST_M = 5.0                   # default mast height above the roof, m
NOISE_DENSITY_DBM_HZ = -174.0  # thermal noise density at 290 K
UE_GAIN_DBI = 2.15             # every ground UE: a half-wave dipole
# path-loss exponents of the free-space model under LOS and NLOS
FREE_SPACE_ETA = {True: 2.0, False: 3.5}


@dataclass(frozen=True)
class SectorSite:
    """Three-sector site; position is the mast top (roof + mast)."""

    position: Position3D
    p_tx_dbm: float = 46.0
    azimuth0: float = 0.0      # first sector bearing, rad (0 = north)
    antenna: SectorAntenna = field(default_factory=SectorAntenna)

    def __post_init__(self):
        check_number(self.p_tx_dbm, "p_tx_dbm")
        check_number(self.azimuth0, "azimuth0")

    @property
    def sector_azimuths(self) -> np.ndarray:
        return self.azimuth0 + SECTOR_OFFSETS


def site_on_roof(hm: HeightMap, x: float, y: float, mast_m: float = MAST_M,
                 **site_kwargs) -> SectorSite:
    """Place a site on the surface at (x, y), mast_m above the roof."""
    for value, name in ((x, "x"), (y, "y"), (mast_m, "mast_m")):
        check_number(value, name)
    x0, x1, y0, y1 = hm.extent
    for value, name, lo, hi in ((x, "x", x0, x1), (y, "y", y0, y1)):
        if not lo <= value <= hi:
            raise DomainError(f"{name} {float(value)!r} lies off the map, "
                              f"outside [{lo:g}, {hi:g}]")
    roof = float(hm.surface_at(x, y))
    if math.isnan(roof):
        raise DomainError(f"no roof height at ({x:g}, {y:g}): no-data cells")
    if roof + mast_m < ch.MIN_ANTENNA_HEIGHT_M:
        raise DomainError(f"the antenna at ({x:g}, {y:g}) stands at "
                          f"{roof + mast_m:g} m, under the ground fits' "
                          f"{ch.MIN_ANTENNA_HEIGHT_M:g} m floor")
    return SectorSite(position=Position3D(x, y, roof + mast_m), **site_kwargs)


@dataclass(frozen=True)
class MapSimConfig:
    """Radio configuration for the map simulator.

    pl_model 'threegpp' uses the slice-aware statistical family with the
    map deciding LOS and `env` (no default) setting the slices; 'free_space'
    applies the generalized Friis law with the exponents in FREE_SPACE_ETA.
    Distances outside each formula's validity window are clamped into it
    (the map geometry can place users arbitrarily close); aloft, d_3d is at
    least 1 m.
    """

    env: ch.Environment
    frequency_hz: float = 1.8e9
    bandwidth_hz: float = 20e6
    noise_figure_db: float = 9.0
    pl_model: str = "threegpp"

    def __post_init__(self):
        if self.pl_model not in ("threegpp", "free_space"):
            raise DomainError(f"unknown path-loss model {self.pl_model!r}")
        for name in ("frequency_hz", "bandwidth_hz"):
            check_number(getattr(self, name), name, above=0.0)
        check_number(self.noise_figure_db, "noise_figure_db")

    @property
    def noise_dbm(self) -> float:
        return (NOISE_DENSITY_DBM_HZ
                + 10.0 * math.log10(self.bandwidth_hz) + self.noise_figure_db)


def _path_loss_db(cfg: MapSimConfig, d_3d, ue_h: float, site_h, los: bool):
    """Vectorized slice-appropriate loss at one UE height, over d_3d with
    one row per site (clamped into the formula's window) and site_h the
    sites' heights. Free space and the aerial slices do not read the site
    height: one call covers every site. The ground-slice fits do, and take
    one call per site."""
    if cfg.pl_model == "free_space":
        return ch.free_space_pl_db(
            np.maximum(d_3d, ch.SPEED_OF_LIGHT / cfg.frequency_hz),
            cfg.frequency_hz, FREE_SPACE_ETA[los])
    f_c_ghz = cfg.frequency_hz / 1e9
    slice_ = ch.slice_of(ue_h, cfg.env)
    if slice_ is not ch.PropagationSlice.GROUND:
        return ch.slice_pl_db(np.maximum(d_3d, 1.0), ue_h, None, f_c_ghz,
                              cfg.env, los, slice_)
    d3 = np.clip(d_3d, *ch.RMA_GROUND_RANGE_M[los])
    return np.stack([ch.slice_pl_db(row, ue_h, h_g, f_c_ghz, cfg.env, los,
                                    slice_) for row, h_g in zip(d3, site_h)])


# antenna fields of SectorAntenna that the sector pattern reads
_PATTERN_FIELDS = ("electrical_tilt", "max_gain_dbi", "beamwidth_3db",
                   "sidelobe_floor_db", "elevation_beamwidth")


class _Links:
    """Links from some sites to the points (x, y), one row per site, with
    the part of their budget that does not depend on the UE height built
    once: the horizontal distance and each sector's azimuth attenuation.
    The sites' positions, powers and antenna fields are column arrays."""

    def __init__(self, sites: Sequence[SectorSite], x, y):
        def column(values, ndim=3):
            return np.array(values, dtype=float).reshape(
                (-1,) + (1,) * (ndim - 1))

        self.site_h = [s.position.h for s in sites]   # floats, for the fits
        self.h = column(self.site_h, 2)
        self.p_tx = column([s.p_tx_dbm for s in sites])
        self.antenna = SimpleNamespace(**{
            f: column([getattr(s.antenna, f) for s in sites])
            for f in _PATTERN_FIELDS})
        dx = x - column([s.position.x for s in sites], 2)
        dy = y - column([s.position.y for s in sites], 2)
        self.d_h = np.hypot(dx, dy)                   # (sites, points)
        bearings = np.array([s.sector_azimuths for s in sites])[:, :, None]
        self.a_az = azimuth_attenuation_db(
            self.antenna, np.arctan2(dx, dy)[:, None] - bearings)

    def rx_dbm(self, cfg: MapSimConfig, ue_h: float, los):
        """P_rx = P_tx + G_tx + G_rx - PL from each sector at UE height
        ue_h, shaped (sites, 3, points); los has one row per site."""
        dz = ue_h - self.h
        d_3d = np.hypot(self.d_h, dz)
        pl = np.where(los, _path_loss_db(cfg, d_3d, ue_h, self.site_h, True),
                      _path_loss_db(cfg, d_3d, ue_h, self.site_h, False))
        el = np.arctan2(dz, self.d_h)[:, None]
        return (self.p_tx + sector_gain_db(self.antenna, self.a_az, el)
                + UE_GAIN_DBI - pl[:, None])


@dataclass
class SinrGrid:
    """Raster result: SINR (dB), serving sector and LOS per evaluated cell."""

    sinr_db: np.ndarray
    serving: np.ndarray          # flat sector index site*3+k, -1 outside
    x: np.ndarray
    y: np.ndarray
    ue_height_m: float
    los_any: np.ndarray          # LOS to at least one site

    def coverage_fraction(self, threshold_db: float = -6.0) -> float:
        check_number(threshold_db, "threshold_db")
        vals = self.sinr_db[np.isfinite(self.sinr_db)]
        if vals.size == 0:
            return 0.0
        return float(np.mean(vals >= threshold_db))

    @property
    def p_los_any(self) -> float:
        """Fraction of cells with LOS to at least one site."""
        return float(np.mean(self.los_any))


# (site, cell) links one stacked budget pass evaluates: it bounds a
# height's temporaries, as _BATCH_INTERVALS bounds a cast's. A bench mapsim
# city's 5 sites x 25 cells and the shipped city's 5 x 900 at stride 4 take
# one pass; at stride 1 its 14400 cells take one pass per site.
_PASS_LINKS = 1 << 14


def sinr_grids(sites: Sequence[SectorSite], hm: HeightMap,
               heights: Sequence[float], cfg: MapSimConfig,
               stride: int) -> Iterator[SinrGrid]:
    """SINR, serving-sector and LOS rasters at every stride-th cell center,
    one grid per UE height, in order.

    All sectors of all sites transmit; the serving sector maximizes SINR
    (equivalently received power), ties to the lowest flat index. Cells
    whose evaluation point sits at or below the surface are obstructed for
    every link, which puts them in outage rather than excluding them. The
    call casts every site's rays to every cell at every height in one
    los_mask call and returns an iterator that builds each height's grid
    when it is reached, from the links' height-independent part built
    once: a consumer that drops each grid holds one at a time.
    """
    check_count(len(sites), "site count", 1)
    check_count(len(heights), "height count", 1)
    check_count(stride, "stride", 1)
    xs, ys = (c[::stride] for c in hm.cell_centers())
    xx, yy = np.meshgrid(xs, ys)
    hs = np.asarray(heights, dtype=float)
    # (heights, sites, ny, nx): los[k] is one height's contiguous masks
    los = los_mask([site.position for site in sites], xx, yy, hs, hm)
    step = max(1, _PASS_LINKS // xx.size)
    passes = [(slice(s, s + step), _Links(sites[s:s + step], xx.ravel(),
                                          yy.ravel()))
              for s in range(0, len(sites), step)]
    return (_height_grid(passes, cfg, xs, ys, h, los[k])
            for k, h in enumerate(hs.tolist()))


def _height_grid(passes, cfg, xs, ys, ue_height_m, los):
    """One height's SinrGrid from each site's LOS raster."""
    n = los[0].size
    rx = np.concatenate([
        links.rx_dbm(cfg, ue_height_m, los[rows].reshape(-1, n))
        for rows, links in passes]).reshape((-1,) + los.shape[1:])
    rx_lin = 10.0 ** (rx / 10.0)                   # (sectors, ny, nx)
    total = np.sum(rx_lin, axis=0)
    noise = db_to_linear(cfg.noise_dbm, "noise_figure_db")
    serving = np.argmax(rx_lin, axis=0)
    best = np.take_along_axis(rx_lin, serving[None], axis=0)[0]
    sinr = best / (total - best + noise)
    return SinrGrid(sinr_db=10.0 * np.log10(np.maximum(sinr, 1e-30)),
                    serving=serving, x=xs, y=ys, ue_height_m=ue_height_m,
                    los_any=np.logical_or.reduce(los))

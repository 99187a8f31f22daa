"""Semi-deterministic map-based downlink simulator.

LOS/NLOS comes from ray casting against the heightmap; path loss then
follows the slice-appropriate statistical model (`channel.slice_pl_db`).
Everything is deterministic: no shadowing is drawn and no Monte Carlo is
involved, so rasters are bit-reproducible. `sinr_grids` is the one entry
point, over a list of UE heights (one height is a one-entry list); the CLI
reads site files and places the sites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from . import channel as ch
from .antenna_geometry import (SECTOR_OFFSETS, Position3D, SectorAntenna,
                               bs_gain_db)
from .errors import DomainError
from .heightmap import HeightMap, los_mask

MAST_M = 5.0               # default mast height above the roof, m
# path-loss exponents of the free-space model under LOS and NLOS
FREE_SPACE_ETA = {True: 2.0, False: 3.5}


@dataclass(frozen=True)
class SectorSite:
    """Three-sector site; position is the mast top (roof + mast)."""

    position: Position3D
    p_tx_dbm: float = 46.0
    azimuth0: float = 0.0      # first sector bearing, rad (0 = north)
    antenna: SectorAntenna = field(default_factory=SectorAntenna)

    @property
    def sector_azimuths(self) -> np.ndarray:
        return self.azimuth0 + SECTOR_OFFSETS


def site_on_roof(hm: HeightMap, x: float, y: float, mast_m: float = MAST_M,
                 **site_kwargs) -> SectorSite:
    """Place a site on the surface at (x, y), mast_m above the roof."""
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
    noise_density_dbm_hz: float = -174.0
    noise_figure_db: float = 9.0
    ue_gain_dbi: float = 2.15
    pl_model: str = "threegpp"

    def __post_init__(self):
        if self.pl_model not in ("threegpp", "free_space"):
            raise DomainError(f"unknown path-loss model {self.pl_model!r}")

    @property
    def noise_dbm(self) -> float:
        return (self.noise_density_dbm_hz
                + 10.0 * math.log10(self.bandwidth_hz) + self.noise_figure_db)


def _path_loss_db(cfg: MapSimConfig, d_3d, ue_h, site_h, los):
    """Vectorized slice-appropriate loss for one site (scalar heights)."""
    if cfg.pl_model == "free_space":
        return ch.free_space_pl_db(
            np.maximum(d_3d, ch.SPEED_OF_LIGHT / cfg.frequency_hz),
            cfg.frequency_hz, FREE_SPACE_ETA[los])
    slice_ = ch.slice_of(ue_h, cfg.env)
    if slice_ is ch.PropagationSlice.GROUND:
        d3 = np.clip(d_3d, *ch.RMA_GROUND_RANGE_M[los])
    else:
        d3 = np.maximum(d_3d, 1.0)
    return ch.slice_pl_db(d3, ue_h, site_h, cfg.frequency_hz / 1e9, cfg.env,
                          los, slice_)


def _rx_dbm(site: SectorSite, cfg: MapSimConfig, x, y, ue_h: float, los):
    """P_rx = P_tx + G_tx + G_rx - PL from each sector of one site, one row
    per sector, vectorized over points; the path loss and the angles are
    computed once, and the pattern takes every sector's azimuths from its
    bearing in one call."""
    dx = x - site.position.x
    dy = y - site.position.y
    d_h = np.hypot(dx, dy)
    d_3d = np.hypot(d_h, ue_h - site.position.h)
    pl = np.where(
        los,
        _path_loss_db(cfg, d_3d, ue_h, site.position.h, True),
        _path_loss_db(cfg, d_3d, ue_h, site.position.h, False))
    az = np.arctan2(dx, dy)
    el = np.arctan2(ue_h - site.position.h, d_h)
    off_boresight = az - site.sector_azimuths.reshape((3,) + (1,) * az.ndim)
    return (site.p_tx_dbm + bs_gain_db(site.antenna, off_boresight, el)
            + cfg.ue_gain_dbi - pl)


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
        vals = self.sinr_db[np.isfinite(self.sinr_db)]
        if vals.size == 0:
            return 0.0
        return float(np.mean(vals >= threshold_db))

    @property
    def p_los_any(self) -> float:
        """Fraction of cells with LOS to at least one site."""
        return float(np.mean(self.los_any))


def sinr_grids(sites: Sequence[SectorSite], hm: HeightMap,
               heights: Sequence[float], cfg: MapSimConfig,
               stride: int = 1) -> List[SinrGrid]:
    """SINR, serving-sector and LOS rasters at cell centers (optionally
    strided), one grid per UE height.

    All sectors of all sites transmit; the serving sector maximizes SINR
    (equivalently received power), ties to the lowest flat index. Cells
    whose evaluation point sits at or below the surface are obstructed for
    every link, which puts them in outage rather than excluding them. Each
    site's rays to every cell at every height are cast in one los_mask call.
    """
    if len(sites) == 0:
        raise DomainError("need at least one site")
    if len(heights) == 0:
        raise DomainError("height list must be nonempty")
    xs, ys = (c[::stride] for c in hm.cell_centers())
    xx, yy = np.meshgrid(xs, ys)
    hs = np.asarray(heights, dtype=float)
    masks = [los_mask(site.position, xx, yy, hs[:, None, None], hm)
             for site in sites]                       # each (heights, ny, nx)
    return [_height_grid(sites, cfg, xs, ys, h, [mask[k] for mask in masks])
            for k, h in enumerate(hs.tolist())]


def _height_grid(sites, cfg, xs, ys, ue_height_m, masks):
    """One height's SinrGrid from the LOS raster of each site."""
    xx, yy = np.meshgrid(xs, ys)
    rx = np.concatenate([_rx_dbm(site, cfg, xx, yy, ue_height_m, mask)
                         for site, mask in zip(sites, masks)])  # (sectors, ny, nx)
    rx_lin = 10.0 ** (rx / 10.0)
    total = np.sum(rx_lin, axis=0)
    noise = 10.0 ** (cfg.noise_dbm / 10.0)
    serving = np.argmax(rx_lin, axis=0)
    best = np.take_along_axis(rx_lin, serving[None], axis=0)[0]
    sinr = best / (total - best + noise)
    return SinrGrid(sinr_db=10.0 * np.log10(np.maximum(sinr, 1e-30)),
                    serving=serving, x=xs, y=ys, ue_height_m=ue_height_m,
                    los_any=np.logical_or.reduce(masks))

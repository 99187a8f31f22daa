"""Aerial-UE performance under a Poisson field of sector base stations.

Monte Carlo trials are independent work units keyed by (seed, trial index),
so estimates are bit-exact for any evaluation order. Each trial deploys a
fresh HPPP snapshot and draws one LOS uniform and one fading gain per LOS
state for each base station (shared by its three co-sited sectors); a
deterministic evaluation then sets the LOS states, associates the UE with
the strongest mean received power, and forms the SINR against the sum of
all remaining sectors plus noise. Sweep points, and the ground and aerial
users of the area spectral efficiency, are evaluated on each trial's one
draw, and building P_LOS is read from a table built once per UE height.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .antenna_geometry import (
    ConeUav,
    OmniUav,
    SectorAntenna,
    UavAntenna,
    bs_gain_db,
    uav_gain_linear,
)
from .channel import (
    BuildingPlosTable,
    Carrier,
    Environment,
    free_space_reference_loss_db,
    urban,
)
from .errors import DomainError
from .numerics import (
    FadingModel,
    Nakagami,
    RngLike,
    RngStream,
    as_generator,
    chebyshev_capacity_nodes,
    sample_fading,
)


def _default_sector() -> SectorAntenna:
    # downtilted macro sector; three of these at 120 degree spacing per site.
    # The 6 degree elevation beamwidth with 8 degree downtilt keeps the whole
    # sky in the sidelobe region, so links to an elevated UE ride G_m.
    return SectorAntenna(azimuth=0.0, electrical_tilt=math.radians(8.0),
                         max_gain_dbi=16.0, beamwidth_3db=math.radians(65.0),
                         sidelobe_floor_db=20.0,
                         elevation_beamwidth_3db=math.radians(6.0))


@dataclass(frozen=True)
class AueNetworkConfig:
    """Scenario knobs for the aerial-UE coverage/capacity analysis.

    Exactly one of threshold_t (linear SINR) and target_rate_bps should be
    set; the rate converts through T = 2^(R/BW) - 1. `aue_ratio_rho` is the
    fraction of users that are aerial in the area-spectral-efficiency mix.
    """

    frequency_hz: float = 1.8e9
    bs_density_per_km2: float = 5.0
    bs_height_m: float = 30.0
    p_tx_w: float = 20.0
    bw_hz: float = 20e6
    noise_density_w_per_hz: float = 3.98107170553497e-21   # -174 dBm/Hz
    noise_figure_db: float = 9.0
    noise_override_w: Optional[float] = None
    threshold_t: Optional[float] = 1.0
    target_rate_bps: Optional[float] = None
    uav: UavAntenna = field(default_factory=OmniUav)
    sector: SectorAntenna = field(default_factory=_default_sector)
    env: Environment = field(default_factory=urban)
    eta_los: float = 2.0
    eta_nlos: float = 3.5
    lambda0_los_db: Optional[float] = None    # None -> free-space at d0
    lambda0_nlos_db: Optional[float] = None   # None -> free-space + excess
    nlos_excess_db: float = 20.0              # urban extra blockage loss
    d0_m: float = 1.0
    fading_los: FadingModel = field(default_factory=lambda: Nakagami(3))
    fading_nlos: FadingModel = field(default_factory=lambda: Nakagami(1))
    aue_ratio_rho: float = 0.5
    region_radius_m: float = 3000.0

    def __post_init__(self):
        if self.bs_density_per_km2 <= 0:
            raise DomainError("BS density must be positive")
        if not 0.0 <= self.aue_ratio_rho <= 1.0:
            raise DomainError("aue_ratio_rho must be in [0, 1]")
        if self.region_radius_m <= 0:
            raise DomainError("region radius must be positive")

    @property
    def threshold(self) -> float:
        if self.threshold_t is not None:
            return self.threshold_t
        if self.target_rate_bps is not None:
            return 2.0 ** (self.target_rate_bps / self.bw_hz) - 1.0
        raise DomainError("set threshold_t or target_rate_bps")

    @property
    def noise_w(self) -> float:
        if self.noise_override_w is not None:
            return self.noise_override_w
        return (self.noise_density_w_per_hz
                * 10.0 ** (self.noise_figure_db / 10.0) * self.bw_hz)

    def reference_loss_db(self, los: bool) -> float:
        explicit = self.lambda0_los_db if los else self.lambda0_nlos_db
        if explicit is not None:
            return explicit
        ref = free_space_reference_loss_db(Carrier(self.frequency_hz), self.d0_m)
        return ref if los else ref + self.nlos_excess_db


@dataclass
class NetworkSnapshot:
    """One HPPP realization: site coordinates plus per-site sector bearings."""

    xy: np.ndarray               # (n, 2) site positions, m
    height_m: float
    sector_azimuth: np.ndarray   # (n, 3) bearings, rad

    @property
    def n_sites(self) -> int:
        return int(self.xy.shape[0])


def deploy_hppp(cfg: AueNetworkConfig, rng: RngLike) -> NetworkSnapshot:
    """Draw a Poisson number of sites uniformly in the simulation disc."""
    gen = as_generator(rng)
    area_km2 = math.pi * cfg.region_radius_m ** 2 / 1e6
    n = int(gen.poisson(cfg.bs_density_per_km2 * area_km2))
    radius = cfg.region_radius_m * np.sqrt(gen.random(n))
    angle = gen.uniform(0.0, 2.0 * math.pi, n)
    xy = np.column_stack([radius * np.sin(angle), radius * np.cos(angle)])
    rotation = gen.uniform(0.0, 2.0 * math.pi, n)
    sector_azimuth = rotation[:, None] + np.array([0.0, 2.0, 4.0]) * math.pi / 3.0
    return NetworkSnapshot(xy=xy, height_m=cfg.bs_height_m,
                           sector_azimuth=sector_azimuth)


@dataclass(frozen=True)
class SnapshotSinr:
    sinr: float
    serving_site: int     # -1 when nothing is received
    serving_sector: int
    los_serving: bool


@dataclass(frozen=True)
class LinkDraw:
    """Per-site random numbers of one snapshot: a LOS uniform, then a fading
    gain under each LOS state (one site's three sectors share them)."""

    los_u: np.ndarray
    fading_los: np.ndarray
    fading_nlos: np.ndarray


def draw_links(snap: NetworkSnapshot, cfg: AueNetworkConfig,
               rng: RngLike) -> LinkDraw:
    gen = as_generator(rng)
    n = snap.n_sites
    return LinkDraw(gen.random(n), sample_fading(cfg.fading_los, gen, n),
                    sample_fading(cfg.fading_nlos, gen, n))


def p_los_table(uav_h: float, bs_h: float, env: Environment) -> BuildingPlosTable:
    """Building P_LOS lookup for links between a UE at uav_h and sites at bs_h."""
    return BuildingPlosTable(max(uav_h, bs_h), min(uav_h, bs_h), env)


def evaluate_sinr(uav_xyh, snap: NetworkSnapshot, links: LinkDraw,
                  cfg: AueNetworkConfig, p_los: BuildingPlosTable,
                  aim_cone_at_serving: bool = False) -> SnapshotSinr:
    """SINR of a UE at (x, y, h) on one drawn snapshot; no randomness.

    A site is in LOS when its uniform falls below its building P_LOS, read
    from `p_los`, the table for this UE height and the snapshot's site
    height. The UE associates by the largest fade-free mean power and the
    SINR applies the drawn fading. With `aim_cone_at_serving` a conical UE antenna is
    re-pointed at the site that serves under an omni antenna before gains
    are applied.
    """
    x, y, h = uav_xyh
    if snap.n_sites == 0:
        return SnapshotSinr(0.0, -1, -1, False)

    dx = snap.xy[:, 0] - x
    dy = snap.xy[:, 1] - y
    d_h = np.hypot(dx, dy)
    dz = snap.height_m - h
    d_3d = np.hypot(d_h, dz)
    elevation_from_bs = np.arctan2(-dz, d_h)          # toward the UE
    az_from_bs = np.arctan2(-dx, -dy)
    az_from_uav = np.arctan2(dx, dy)
    el_from_uav = np.arctan2(dz, d_h)

    los = links.los_u < p_los(d_h)

    eta = np.where(los, cfg.eta_los, cfg.eta_nlos)
    lam0 = np.where(los, cfg.reference_loss_db(True), cfg.reference_loss_db(False))
    d = np.maximum(d_3d, cfg.d0_m)
    pl_db = lam0 + 10.0 * eta * np.log10(d / cfg.d0_m)

    bs_gain = 10.0 ** (bs_gain_db(cfg.sector,
                                  az_from_bs[:, None] - snap.sector_azimuth,
                                  elevation_from_bs[:, None]) / 10.0)  # (n, 3)
    fading = np.where(los, links.fading_los, links.fading_nlos)

    path_gain = 10.0 ** (-pl_db / 10.0)

    uav_ant = cfg.uav
    if aim_cone_at_serving and isinstance(uav_ant, ConeUav):
        mean_omni = cfg.p_tx_w * np.max(bs_gain, axis=1) * path_gain
        site0 = int(np.argmax(mean_omni))
        phi_t = 0.5 * math.pi + el_from_uav[site0]  # tilt from nadir
        uav_ant = replace(uav_ant, phi_t=float(phi_t),
                          tilt_azimuth=float(az_from_uav[site0]))

    g_uav = uav_gain_linear(uav_ant, az_from_uav, el_from_uav)

    # one effective transmitter per site: its strongest sector toward the UE
    # (the theory SINR carries a single P_Tx G Lambda X term per BS)
    sector = np.argmax(bs_gain, axis=1)
    site_gain = bs_gain[np.arange(snap.n_sites), sector]
    mean_rx = cfg.p_tx_w * site_gain * g_uav * path_gain   # (n,)
    if not np.any(mean_rx > 0.0):
        return SnapshotSinr(0.0, -1, -1, False)
    site = int(np.argmax(mean_rx))
    rx = mean_rx * fading
    signal = rx[site]
    interference = float(np.sum(rx)) - signal
    sinr = signal / (interference + cfg.noise_w)
    return SnapshotSinr(float(sinr), site, int(sector[site]), bool(los[site]))


def snapshot_sinr(uav_xyh, snap: NetworkSnapshot, cfg: AueNetworkConfig,
                  rng: RngLike, aim_cone_at_serving: bool = False) -> SnapshotSinr:
    """SINR of a UE at (x, y, h) against one snapshot: draws the snapshot's
    LOS uniforms and fading gains from `rng`, then evaluates them."""
    table = p_los_table(uav_xyh[2], snap.height_m, cfg.env)
    return evaluate_sinr(uav_xyh, snap, draw_links(snap, cfg, rng), cfg, table,
                         aim_cone_at_serving)


# ---------------------------------------------------------------------------
# Monte Carlo estimators
# ---------------------------------------------------------------------------

def _sinr_matrix(draw_cfg: AueNetworkConfig,
                 points: Sequence[Tuple[float, AueNetworkConfig]],
                 n_trials: int, rng: RngStream,
                 aim_cone_at_serving: bool = False) -> np.ndarray:
    """(points x trials) SINR of a UE at the region center.

    Trial i deploys and draws once, on `rng.child_generator(i)` under
    `draw_cfg`, and every (UE height, config) point is evaluated on that
    draw; the point configs must draw as `draw_cfg` does (same density,
    region, site height and fading laws).
    """
    if n_trials < 1:
        raise DomainError("need at least one trial")
    tables = [p_los_table(h, draw_cfg.bs_height_m, point_cfg.env)
              for h, point_cfg in points]
    out = np.empty((len(points), n_trials))
    for i in range(n_trials):
        gen = rng.child_generator(i)
        snap = deploy_hppp(draw_cfg, gen)
        links = draw_links(snap, draw_cfg, gen)
        for k, ((h, point_cfg), table) in enumerate(zip(points, tables)):
            out[k, i] = evaluate_sinr((0.0, 0.0, h), snap, links, point_cfg,
                                      table, aim_cone_at_serving).sinr
    return out


def sinr_samples(uav_h: float, cfg: AueNetworkConfig, n_trials: int,
                 rng: RngStream,
                 aim_cone_at_serving: bool = False) -> np.ndarray:
    """n_trials independent SINR draws for a UE at the region center."""
    return _sinr_matrix(cfg, [(uav_h, cfg)], n_trials, rng,
                        aim_cone_at_serving)[0]


@dataclass(frozen=True)
class CoverageEstimate:
    estimate: float
    ci95: float
    n_trials: int


def coverage_from_samples(sinr: np.ndarray, threshold: float) -> CoverageEstimate:
    """Fraction of SINR samples above the threshold, with a normal CI."""
    p = float(np.mean(sinr > threshold))
    ci = 1.96 * math.sqrt(max(p * (1.0 - p), 1e-12) / sinr.size)
    return CoverageEstimate(p, ci, sinr.size)


def _check_coverage_trials(n_trials: int):
    if n_trials < 100:
        raise DomainError("coverage estimation needs n_trials >= 100")


def coverage_probability_mc(uav_h: float, cfg: AueNetworkConfig, n_trials: int,
                            rng: RngStream,
                            threshold: float = None) -> CoverageEstimate:
    """Fraction of trials with SINR above the target, with a normal CI."""
    _check_coverage_trials(n_trials)
    t = cfg.threshold if threshold is None else threshold
    return coverage_from_samples(sinr_samples(uav_h, cfg, n_trials, rng), t)


@dataclass(frozen=True)
class CapacityEstimate:
    bps_hz: float
    ci95: float
    n_trials: int


def _capacity_coefficients(k_nodes: int, t_max: float = None):
    """Nodes t_n and coefficients w_n / (1 + t_n) / ln 2 of the capacity
    quadrature; with t_max set, nodes above it are dropped."""
    if k_nodes < 50:
        raise DomainError("capacity quadrature needs K >= 50 nodes")
    t, w = chebyshev_capacity_nodes(k_nodes)
    if t_max is not None:
        keep = t <= t_max
        t, w = t[keep], w[keep]
    return t, w / (1.0 + t) / math.log(2.0)


def _capacity_from_samples(sinr: np.ndarray, t: np.ndarray,
                           coeff: np.ndarray) -> CapacityEstimate:
    # the quadrature applied per sample; its spread gives the CI
    per_sample = (sinr[:, None] > t[None, :]) @ coeff
    mean = float(np.mean(per_sample))
    ci = 1.96 * float(np.std(per_sample)) / math.sqrt(sinr.size)
    return CapacityEstimate(mean, ci, sinr.size)


def capacity_from_pcov(pcov: Callable[[float], float], k_nodes: int,
                       t_max: float = None) -> float:
    """Quadrature (1/ln 2) sum w_n P_cov(t_n) / (1 + t_n) over the nodes.

    With t_max set, nodes above it are dropped, bounding the integral at
    ln(1 + t_max)/ln 2 when P_cov is identically one.
    """
    t, coeff = _capacity_coefficients(k_nodes, t_max)
    return float(np.sum(coeff * np.array([pcov(tn) for tn in t])))


def capacity(uav_h: float, cfg: AueNetworkConfig, n_trials: int,
             rng: RngStream, k_nodes: int = 200, t_max: float = None,
             aim_cone_at_serving: bool = False) -> CapacityEstimate:
    """Monte Carlo capacity via the coverage quadrature.

    The same SINR draws feed the empirical coverage at every node (common
    random numbers), which is exactly the quadrature applied per sample, so
    a per-sample spread gives the confidence interval.
    """
    t, coeff = _capacity_coefficients(k_nodes, t_max)
    sinr = sinr_samples(uav_h, cfg, n_trials, rng,
                        aim_cone_at_serving=aim_cone_at_serving)
    return _capacity_from_samples(sinr, t, coeff)


def ase(cfg: AueNetworkConfig, uav_h: float, n_trials: int, rng: RngStream,
        k_nodes: int = 200) -> float:
    """Area spectral efficiency lambda[(1-rho) R(1.5) + rho R(h)].

    Ground users always carry the 2.15 dBi omni antenna; both rates come
    from the same trial draws.
    """
    t, coeff = _capacity_coefficients(k_nodes)
    points = [(1.5, replace(cfg, uav=OmniUav())), (uav_h, cfg)]
    r_ground, r_aerial = (_capacity_from_samples(row, t, coeff).bps_hz
                          for row in _sinr_matrix(cfg, points, n_trials, rng))
    rho = cfg.aue_ratio_rho
    return cfg.bs_density_per_km2 * ((1.0 - rho) * r_ground + rho * r_aerial)


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepPoint:
    x: float
    value: float
    ci95: float


_SWEEP_AXES = ("altitude", "density", "phi_b", "phi_t")


def _cfg_for(cfg: AueNetworkConfig, axis: str, x: float) -> AueNetworkConfig:
    if axis == "altitude":
        return cfg
    if axis == "density":
        return replace(cfg, bs_density_per_km2=float(x))
    if axis == "phi_b":
        base = cfg.uav if isinstance(cfg.uav, ConeUav) else ConeUav(phi_b_deg=60.0)
        return replace(cfg, uav=replace(base, phi_b_deg=float(x)))
    if axis == "phi_t":
        if not isinstance(cfg.uav, ConeUav):
            raise DomainError("tilt sweep needs a conical UE antenna")
        return replace(cfg, uav=replace(cfg.uav, phi_t=float(x)))
    raise DomainError(f"unknown sweep axis {axis!r}")


def sweep(cfg: AueNetworkConfig, axis: str, grid: Sequence[float], uav_h: float,
          n_trials: int, rng: RngStream, metric: str = "capacity",
          k_nodes: int = 200, t_max: float = None) -> List[SweepPoint]:
    """Evaluate capacity or coverage across one swept parameter.

    Every grid point reuses the same per-trial streams (common random
    numbers), so a single-point sweep equals the direct metric call and
    cross-point orderings are paired comparisons. Each trial is drawn once
    and evaluated at every grid point, except on the density axis, where
    the Poisson mean changes and each point draws its own trials.
    """
    if axis not in _SWEEP_AXES:
        raise DomainError(f"unknown sweep axis {axis!r}")
    if len(grid) == 0:
        raise DomainError("sweep grid must be nonempty")
    if metric == "coverage":
        _check_coverage_trials(n_trials)
        threshold = cfg.threshold      # no axis changes the target
    elif metric == "capacity":
        t, coeff = _capacity_coefficients(k_nodes, t_max)
    else:
        raise DomainError(f"unknown sweep metric {metric!r}")

    points = [(float(x) if axis == "altitude" else uav_h, _cfg_for(cfg, axis, x))
              for x in grid]
    if axis == "density":
        sinr = np.vstack([_sinr_matrix(point[1], [point], n_trials, rng)
                          for point in points])
    else:
        sinr = _sinr_matrix(cfg, points, n_trials, rng)

    out = []
    for x, row in zip(grid, sinr):
        if metric == "coverage":
            est = coverage_from_samples(row, threshold)
            out.append(SweepPoint(float(x), est.estimate, est.ci95))
        else:
            est = _capacity_from_samples(row, t, coeff)
            out.append(SweepPoint(float(x), est.bps_hz, est.ci95))
    return out

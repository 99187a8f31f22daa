"""Aerial-UE performance under a Poisson field of sector base stations.

Monte Carlo trials are independent work units keyed by (seed, trial index),
so estimates are bit-exact for any evaluation order. Each trial draws on its
own generator a Poisson site count, one run of uniforms (each site's radius,
angle, sector rotation and LOS uniform), and one fading gain per LOS state
for each base station (shared by its three co-sited sectors); a
deterministic evaluation then sets the LOS states, associates the UE with
the strongest mean received power, and forms the SINR against the sum of
all remaining sectors plus noise.

Trials are drawn and evaluated in blocks of 16. A block's generators are
seeded in one vectorized pass (`RngStream.child_generators`), each
bit-identical to the trial's `child_generator`; per trial only the draws
run, and the site geometry of a whole block is built once, on flat arrays,
by the helper `deploy_hppp` uses for one snapshot. A block is evaluated in
two stages: the site stage (chosen sector, LOS state, path gain and
elevation of every site) depends on the UE height and the network, the UE
stage (UE antenna gain, association and SINR) on the UE antenna as well. Sweep
points, and the ground and aerial users of the area spectral efficiency,
are evaluated on each trial's one draw; points that differ only in the UE
antenna share one site stage per block, and building P_LOS is read from a
table built once per UE height. A single snapshot is a block of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Sequence, Tuple

import numpy as np

from .antenna_geometry import (
    SECTOR_OFFSETS,
    ConeUav,
    OmniUav,
    SectorAntenna,
    UavAntenna,
    bs_gain_db,
    uav_gain_linear,
)
from .channel import (
    BuildingPlosTable,
    Environment,
    free_space_reference_loss_db,
    log_distance_pl_db,
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
    dbm_to_watt,
    sample_fading,
)

# reference distance of the log-distance loss, m; closer links read the
# loss at D0_M
D0_M = 1.0


def _default_sector() -> SectorAntenna:
    # downtilted macro sector; three of these at 120 degree spacing per site.
    # The 6 degree elevation beamwidth with 8 degree downtilt keeps the whole
    # sky in the sidelobe region, so links to an elevated UE ride G_m.
    return SectorAntenna(elevation_beamwidth_3db=math.radians(6.0))


@dataclass(frozen=True)
class AueNetworkConfig:
    """Scenario knobs for the aerial-UE coverage/capacity analysis.

    The link budget is what the SINR reads: `noise_w`, the total noise
    power over the signal bandwidth (W), and `threshold_t`, the linear SINR
    target (a rate target R converts through T = 2^(R/B) - 1 before it
    gets here). The defaults are the CLI's: 43 dBm, and -174 dBm/Hz with a
    9 dB noise figure over 20 MHz. `aue_ratio_rho` is the fraction of users
    that are aerial in the area-spectral-efficiency mix.
    """

    frequency_hz: float = 1.8e9
    bs_density_per_km2: float = 5.0
    bs_height_m: float = 30.0
    p_tx_w: float = dbm_to_watt(43.0)
    noise_w: float = dbm_to_watt(-174.0) * 10.0 ** (9.0 / 10.0) * 20e6
    threshold_t: float = 1.0
    uav: UavAntenna = field(default_factory=OmniUav)
    sector: SectorAntenna = field(default_factory=_default_sector)
    env: Environment = field(default_factory=urban)
    eta_los: float = 2.0
    eta_nlos: float = 3.5
    nlos_excess_db: float = 20.0              # urban extra blockage loss
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

    def reference_loss_db(self, los: bool) -> float:
        """Free-space loss at D0_M, plus the NLOS excess when not in LOS."""
        ref = free_space_reference_loss_db(self.frequency_hz, D0_M)
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


def mean_site_count(bs_density_per_km2: float,
                    region_radius_m: float) -> float:
    """Mean site count of the simulation disc: the Poisson mean per snapshot."""
    area_km2 = math.pi * region_radius_m ** 2 / 1e6
    return bs_density_per_km2 * area_km2


def _sites_from_uniforms(cfg: AueNetworkConfig,
                         u: np.ndarray) -> NetworkSnapshot:
    """Sites uniform in the simulation disc: rows 0-2 of `u` hold each
    site's radius, angle and sector-rotation uniform. 2 pi u equals numpy's
    uniform(0, 2 pi) on the same double bit for bit."""
    radius = cfg.region_radius_m * np.sqrt(u[0])
    angle = 2.0 * math.pi * u[1]
    xy = np.column_stack([radius * np.sin(angle), radius * np.cos(angle)])
    rotation = 2.0 * math.pi * u[2]
    return NetworkSnapshot(xy=xy, height_m=cfg.bs_height_m,
                           sector_azimuth=rotation[:, None] + SECTOR_OFFSETS)


def deploy_hppp(cfg: AueNetworkConfig, rng: RngLike) -> NetworkSnapshot:
    """Draw a Poisson number of sites uniformly in the simulation disc."""
    gen = as_generator(rng)
    lam = mean_site_count(cfg.bs_density_per_km2, cfg.region_radius_m)
    n = int(gen.poisson(lam))
    return _sites_from_uniforms(cfg, gen.random(3 * n).reshape(3, n))


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


@dataclass(frozen=True)
class _Point:
    """One network point: a UE height and its config, with the building
    P_LOS table toward sites at `bs_h` built once for it. Only the site
    stage reads it, so the UE antenna of its config is never read."""

    h: float
    cfg: AueNetworkConfig
    p_los: BuildingPlosTable


def _point(h: float, cfg: AueNetworkConfig, bs_h: float) -> _Point:
    return _Point(h, cfg, BuildingPlosTable(max(h, bs_h), min(h, bs_h), cfg.env))


@dataclass(frozen=True)
class _SiteBlock:
    """The sites of consecutive trials as flat arrays, trial j owning
    entries starts[j]:ends[j], with the horizontal geometry toward a UE at
    (x, y); (row, col) place each site in a (trials x max sites) matrix."""

    starts: np.ndarray
    ends: np.ndarray
    row: np.ndarray
    col: np.ndarray
    height_m: float
    sector_azimuth: np.ndarray   # (n, 3)
    links: LinkDraw
    d_h: np.ndarray
    az_from_bs: np.ndarray
    az_from_uav: np.ndarray


def _site_block(counts: np.ndarray, sites: NetworkSnapshot, links: LinkDraw,
                x: float, y: float) -> _SiteBlock:
    """Block of the flat `sites` and `links`, trial j owning the next
    counts[j] entries."""
    ends = np.cumsum(counts)
    starts = ends - counts
    row = np.repeat(np.arange(counts.size), counts)
    dx = sites.xy[:, 0] - x
    dy = sites.xy[:, 1] - y
    return _SiteBlock(
        starts, ends, row, np.arange(row.size) - starts[row], sites.height_m,
        sites.sector_azimuth, links,
        np.hypot(dx, dy), np.arctan2(-dx, -dy), np.arctan2(dx, dy))


def _strongest(block: _SiteBlock, power: np.ndarray):
    """Flat index of each trial's strongest site (the first on ties) and its
    power; a trial without sites reads index starts[j] and power -inf."""
    n_trials = block.starts.size
    padded = np.full((n_trials, int(block.col.max(initial=0)) + 1), -np.inf)
    padded[block.row, block.col] = power
    col = np.argmax(padded, axis=1)
    return block.starts + col, padded[np.arange(n_trials), col]


@dataclass(frozen=True)
class _SiteStage:
    """A block seen from one network point, before the UE antenna: per site
    the chosen sector, the transmit power times its gain, the LOS state,
    path gain, elevation seen from the UE and the fading of its LOS state."""

    sector: np.ndarray
    tx_gain: np.ndarray
    los: np.ndarray
    path_gain: np.ndarray
    el_from_uav: np.ndarray
    fading: np.ndarray


def _site_stage(block: _SiteBlock, point: _Point) -> _SiteStage:
    """Site stage of `block` for a UE at the point's height. A site is in
    LOS when its uniform falls below its building P_LOS."""
    cfg = point.cfg
    d_h = block.d_h
    dz = block.height_m - point.h

    # one effective transmitter per site: its strongest sector toward the UE
    # (the theory SINR carries a single P_Tx G Lambda X term per BS); only
    # the chosen sector's gain leaves dB
    gain_db = bs_gain_db(cfg.sector,
                         block.az_from_bs[:, None] - block.sector_azimuth,
                         np.arctan2(-dz, d_h)[:, None])
    sector = np.argmax(gain_db, axis=1)
    site_gain = 10.0 ** (gain_db[np.arange(sector.size), sector] / 10.0)
    del gain_db

    los = block.links.los_u < point.p_los(d_h)
    d = np.maximum(np.hypot(d_h, dz), D0_M)
    pl_db = np.where(
        los, log_distance_pl_db(d, cfg.reference_loss_db(True), cfg.eta_los, D0_M),
        log_distance_pl_db(d, cfg.reference_loss_db(False), cfg.eta_nlos, D0_M))
    return _SiteStage(sector, cfg.p_tx_w * site_gain, los,
                      10.0 ** (-pl_db / 10.0), np.arctan2(dz, d_h),
                      np.where(los, block.links.fading_los,
                               block.links.fading_nlos))


def _ue_stage(block: _SiteBlock, stage: _SiteStage, cfg: AueNetworkConfig):
    """SINR on every trial of `block` for a UE carrying `cfg.uav`.

    Each trial's UE associates by the largest fade-free mean power and its
    SINR applies the drawn fading; a trial with no site, or no positive mean
    power, reads 0. Returns the per-trial SINR and flat serving index (-1
    when nothing is received).
    """
    g_uav = uav_gain_linear(cfg.uav, block.az_from_uav, stage.el_from_uav)
    mean_rx = stage.tx_gain * g_uav * stage.path_gain

    serving, best = _strongest(block, mean_rx)
    served = best > 0.0
    serving = np.where(served, serving, -1)
    rx = mean_rx * stage.fading
    # each trial sums its own slice: summing padded rows would regroup the
    # pairwise sum and move the last bits
    total = np.array([np.sum(rx[a:b]) for a, b
                      in zip(block.starts[served], block.ends[served])])
    signal = rx[serving[served]]
    sinr = np.zeros(block.starts.size)
    sinr[served] = signal / (total - signal + cfg.noise_w)
    return sinr, serving


def snapshot_sinr(uav_xyh, snap: NetworkSnapshot, cfg: AueNetworkConfig,
                  rng: RngLike) -> SnapshotSinr:
    """SINR of a UE at (x, y, h) against one snapshot: draws the snapshot's
    LOS uniforms and fading gains from `rng`, then evaluates them."""
    x, y, h = uav_xyh
    block = _site_block(np.array([snap.n_sites]), snap,
                        draw_links(snap, cfg, rng), x, y)
    stage = _site_stage(block, _point(h, cfg, snap.height_m))
    sinr, serving = _ue_stage(block, stage, cfg)
    site = int(serving[0])
    if site < 0:
        return SnapshotSinr(0.0, -1, -1, False)
    return SnapshotSinr(float(sinr[0]), site, int(stage.sector[site]),
                        bool(stage.los[site]))


# ---------------------------------------------------------------------------
# Monte Carlo estimators
# ---------------------------------------------------------------------------

# trials evaluated together: enough to amortize the per-call numpy overhead,
# few enough that a block's site arrays stay a few thousand entries long
_BLOCK_TRIALS = 16


def _draw_block(cfg: AueNetworkConfig, rng: RngStream, trials: range):
    """Site counts, flat sites and flat link draws of consecutive trials.

    Trial i draws on `rng.child_generator(i)` in the order `deploy_hppp`
    then `draw_links` would: its site count, one run of 4n uniforms (n
    radius, then n angle, n rotation and n LOS uniforms), then the LOS and
    the NLOS fading gains. The block's generators are seeded in one pass by
    `rng.child_generators`, bit-identical to `child_generator`.
    """
    lam = mean_site_count(cfg.bs_density_per_km2, cfg.region_radius_m)
    counts, uniforms, fading_los, fading_nlos = [], [], [], []
    for gen in rng.child_generators(trials):
        n = int(gen.poisson(lam))
        counts.append(n)
        uniforms.append(gen.random(4 * n).reshape(4, n))
        fading_los.append(sample_fading(cfg.fading_los, gen, n))
        fading_nlos.append(sample_fading(cfg.fading_nlos, gen, n))
    u = np.concatenate(uniforms, axis=1)
    links = LinkDraw(u[3], np.concatenate(fading_los),
                     np.concatenate(fading_nlos))
    return np.array(counts), _sites_from_uniforms(cfg, u), links


def _sinr_matrix(draw_cfg: AueNetworkConfig,
                 points: Sequence[Tuple[float, AueNetworkConfig]],
                 n_trials: int, rng: RngStream) -> np.ndarray:
    """(points x trials) SINR of a UE at the region center.

    Trial i deploys and draws once, on `rng.child_generator(i)` under
    `draw_cfg`, and every (UE height, config) point is evaluated on that
    draw; the point configs must draw as `draw_cfg` does (same density,
    region, site height and fading laws). Trials are drawn and evaluated in
    blocks of `_BLOCK_TRIALS`. Each block runs one site stage per distinct
    (height, config without its UE antenna), shared by the points that
    differ only in the antenna, and one UE stage per point.
    """
    if n_trials < 1:
        raise DomainError("need at least one trial")
    # the site stage never reads the UE antenna: key it without one
    keys = [(h, replace(point_cfg, uav=None)) for h, point_cfg in points]
    prepared = {key: _point(*key, draw_cfg.bs_height_m)
                for key in dict.fromkeys(keys)}
    out = np.empty((len(points), n_trials))
    for lo in range(0, n_trials, _BLOCK_TRIALS):
        hi = min(lo + _BLOCK_TRIALS, n_trials)
        block = _site_block(*_draw_block(draw_cfg, rng, range(lo, hi)),
                            0.0, 0.0)
        stages = {key: _site_stage(block, point)
                  for key, point in prepared.items()}
        for k, (key, (_, point_cfg)) in enumerate(zip(keys, points)):
            out[k, lo:hi] = _ue_stage(block, stages[key], point_cfg)[0]
    return out


def sinr_samples(uav_h: float, cfg: AueNetworkConfig, n_trials: int,
                 rng: RngStream) -> np.ndarray:
    """n_trials independent SINR draws for a UE at the region center."""
    return _sinr_matrix(cfg, [(uav_h, cfg)], n_trials, rng)[0]


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


COVERAGE_MIN_TRIALS = 100   # fewest trials a coverage estimate accepts


def _check_coverage_trials(n_trials: int):
    if n_trials < COVERAGE_MIN_TRIALS:
        raise DomainError(
            f"coverage estimation needs n_trials >= {COVERAGE_MIN_TRIALS}")


def coverage_probability_mc(uav_h: float, cfg: AueNetworkConfig, n_trials: int,
                            rng: RngStream) -> CoverageEstimate:
    """Fraction of trials with SINR above `cfg.threshold_t`, with a normal CI."""
    _check_coverage_trials(n_trials)
    return coverage_from_samples(sinr_samples(uav_h, cfg, n_trials, rng),
                                 cfg.threshold_t)


@dataclass(frozen=True)
class CapacityEstimate:
    bps_hz: float
    ci95: float
    n_trials: int


def _capacity_coefficients(k_nodes: int, t_max: float = None):
    """Nodes t_n and coefficients w_n / (1 + t_n) / ln 2 of the capacity
    quadrature; with t_max set, nodes above it are dropped, and a t_max
    below every node, which would leave a capacity of 0, is an error."""
    if k_nodes < 50:
        raise DomainError("capacity quadrature needs K >= 50 nodes")
    t, w = chebyshev_capacity_nodes(k_nodes)
    if t_max is not None:
        if not t[0] <= t_max:
            raise DomainError(
                f"t_max {t_max:.9g} lies below the smallest of the {k_nodes} "
                f"quadrature nodes ({t[0]:.9g}); no node is left")
        keep = t <= t_max
        t, w = t[keep], w[keep]
    return t, w / (1.0 + t) / math.log(2.0)


def _capacity_from_samples(sinr: np.ndarray, t: np.ndarray,
                           coeff: np.ndarray) -> CapacityEstimate:
    # the quadrature applied per sample; its spread gives the CI. A sample
    # scores the coefficients of the nodes strictly below its SINR, a prefix
    # of the ascending nodes, so it reads one prefix sum
    per_sample = np.concatenate(([0.0], np.cumsum(coeff)))[
        np.searchsorted(t, sinr, side="left")]
    mean = float(np.mean(per_sample))
    ci = 1.96 * float(np.std(per_sample)) / math.sqrt(sinr.size)
    return CapacityEstimate(mean, ci, sinr.size)


def capacity(uav_h: float, cfg: AueNetworkConfig, n_trials: int,
             rng: RngStream, k_nodes: int = 200,
             t_max: float = None) -> CapacityEstimate:
    """Monte Carlo capacity via the coverage quadrature.

    The same SINR draws feed the empirical coverage at every node (common
    random numbers), which is exactly the quadrature applied per sample, so
    a per-sample spread gives the confidence interval.
    """
    t, coeff = _capacity_coefficients(k_nodes, t_max)
    return _capacity_from_samples(sinr_samples(uav_h, cfg, n_trials, rng),
                                  t, coeff)


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
    if len(grid) == 0:
        raise DomainError("sweep grid must be nonempty")
    if metric == "coverage":
        _check_coverage_trials(n_trials)
        threshold = cfg.threshold_t    # no axis changes the target
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

import math
import tracemalloc
from collections import namedtuple
from dataclasses import replace

import numpy as np
import pytest

from a2gnet import aue_net as au
from a2gnet.antenna_geometry import (ConeUav, OmniUav, azimuth_attenuation_db,
                                     sector_gain_db, uav_gain_linear)
from a2gnet.channel import BuildingPlosTable, Environment, p_los_building
from a2gnet.errors import DomainError
from a2gnet.numerics import RngStream, nakagami_power_cdf

CFG = au.AueNetworkConfig()
# about 0.4 sites per trial: many trials draw no site
SPARSE = replace(CFG, bs_density_per_km2=0.5, region_radius_m=500.0)
# environment whose building field never blocks: m < 0 for every distance
FREE_ENV = Environment(kind="urban", varsigma=1e-9, xi=1e-6, omega=15.0,
                       mean_building_height_m=18.8, street_width_m=20.0)


def reference_draw(cfg, gen):
    """Per-trial reference of one trial's draw, in the numpy calls the
    shipped outputs were drawn with: site count, radius, angle and rotation
    uniforms, then LOS uniforms, then LOS and NLOS fading. Returns each
    site's offset (x, y) from the UE at the region center, its sector
    bearings and its link draws."""
    area_km2 = math.pi * cfg.region_radius_m ** 2 / 1e6
    n = int(gen.poisson(cfg.bs_density_per_km2 * area_km2))
    radius = cfg.region_radius_m * np.sqrt(gen.random(n))
    angle = gen.uniform(0.0, 2.0 * math.pi, n)
    rotation = gen.uniform(0.0, 2.0 * math.pi, n)
    offsets = np.array([0.0, 2.0, 4.0]) * math.pi / 3.0
    return (radius * np.sin(angle), radius * np.cos(angle),
            rotation[:, None] + offsets, gen.random(n),
            gen.gamma(cfg.fading_m_los, 1 / cfg.fading_m_los, n),
            gen.gamma(cfg.fading_m_nlos, 1 / cfg.fading_m_nlos, n))


def block_counts(block):
    return block.ends - block.starts


def fixed_sites_sinr(h, x, y, sector_azimuth, cfg, rng, n_trials):
    """SINR and flat serving index on n_trials trials of the same sites at
    offsets (x, y) from the UE, each trial drawing its LOS uniforms and
    fading gains on `rng.child_generator(i)`."""
    n = len(x)
    draws = []
    for i in range(n_trials):
        gen = rng.child_generator(i)
        draws.append((gen.random(n),
                      gen.gamma(cfg.fading_m_los, 1 / cfg.fading_m_los, n),
                      gen.gamma(cfg.fading_m_nlos, 1 / cfg.fading_m_nlos, n)))
    block = au._site_block(
        np.full(n_trials, n), np.tile(x, n_trials), np.tile(y, n_trials),
        cfg.bs_height_m, cfg.sector, np.tile(sector_azimuth, (n_trials, 1)),
        *(np.concatenate(d) for d in zip(*draws)))
    return au._ue_stage(block, site_stage(block, h, cfg), cfg)


def site_stage(block, h, cfg):
    """The site stage of `block` for a UE at height h under cfg."""
    table = BuildingPlosTable(h, cfg.bs_height_m, cfg.env)
    return au._site_stage(block, h, cfg, table)


def building_plos(h, cfg):
    """The direct building P_LOS between a UE at h and cfg's sites."""
    return lambda d_h: p_los_building(d_h, h, cfg.bs_height_m, cfg.env)


SINGLE_BS = dict(x=[0.0], y=[500.0],
                 sector_azimuth=[[0.0, 2 * math.pi / 3, 4 * math.pi / 3]])


def expected_snr(cfg, d_h, h_uav, los=True):
    # independent transcription of the single-link budget (sidelobe level)
    d3 = math.hypot(d_h, h_uav - cfg.bs_height_m)
    pl = cfg.reference_loss_db(los) + 10 * (cfg.eta_los if los else cfg.eta_nlos) \
        * math.log10(d3 / au.D0_M)
    g_bs = cfg.sector.max_gain_dbi - cfg.sector.sidelobe_floor_db
    g_ue = 2.15
    p_rx = cfg.p_tx_w * 10 ** ((g_bs + g_ue - pl) / 10)
    return p_rx / cfg.noise_w


class TestConfig:
    def test_noise_matches_first_principles(self):
        # -174 dBm/Hz + 10 log10(20 MHz) + 9 dB = -92 dBm (= -122 dBW)
        assert 10 * math.log10(CFG.noise_w) + 30 == pytest.approx(-92.0, abs=0.02)

    @pytest.mark.parametrize("key, value", [
        ("region_radius_m", 1e300),       # a raw OverflowError squaring it
        ("bs_density_per_km2", 1e300),    # numpy's "lam value too large"
        ("bs_density_per_km2", 3.3e17),   # mean about 9.3e18
    ])
    def test_mean_site_count_past_numpy_named(self, key, value):
        match = "^bs_density_per_km2 times the area of region_radius_m"
        with pytest.raises(DomainError, match=match):
            au.AueNetworkConfig(**{key: value})
        cfg = {"bs_density_per_km2": 5.0, "region_radius_m": 3000.0, key: value}
        with pytest.raises(DomainError, match=match):
            au.mean_site_count(**cfg)

    def test_mean_site_count_up_to_numpy_limit(self):
        # the largest mean numpy's Poisson sampler takes passes
        radius = 1e6 / math.sqrt(math.pi)        # a disc of about 1e6 km^2
        area = math.pi * radius ** 2 / 1e6
        density = au._POISSON_LAM_MAX / area
        while density * area > au._POISSON_LAM_MAX:
            density = math.nextafter(density, 0.0)
        mean = au.mean_site_count(density, radius)
        assert mean == density * area
        np.random.default_rng(1).poisson(mean)
        with pytest.raises(ValueError, match="lam value too large"):
            np.random.default_rng(1).poisson(math.nextafter(
                au._POISSON_LAM_MAX, math.inf))
        with pytest.raises(DomainError):
            au.mean_site_count(density * 1.001, radius)


class TestDeploy:
    def test_poisson_mean_count(self):
        rng = RngStream(11, 0)
        counts = np.concatenate([
            block_counts(au._draw_block(CFG, rng, range(lo, lo + 1000)))
            for lo in range(0, 10_000, 1000)])
        assert np.mean(counts) == pytest.approx(5 * math.pi * 9, abs=1.5)

    def test_determinism(self):
        a = au._draw_block(CFG, RngStream(3, 4), range(1))
        b = au._draw_block(CFG, RngStream(3, 4), range(1))
        for name in ("d_h", "a_az", "az_from_uav", "los_u",
                     "fading_los", "fading_nlos"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_sparse_limit_empty(self):
        cfg = replace(CFG, bs_density_per_km2=1e-9)
        counts = block_counts(au._draw_block(cfg, RngStream(1, 0), range(200)))
        assert np.mean(counts) == 0

    def test_positions_inside_region(self):
        block = au._draw_block(CFG, RngStream(8, 0), range(1))
        assert block.d_h.size > 0
        assert np.all(block.d_h <= CFG.region_radius_m)


class TestSnapshotSinr:
    def test_single_bs_no_fading_is_snr(self):
        cfg = replace(CFG, env=FREE_ENV, fading_m_los=1)
        # average over fading draws recovers the fade-free SNR (unit mean)
        vals, _ = fixed_sites_sinr(60.0, cfg=cfg, rng=RngStream(21, 0),
                                   n_trials=4000, **SINGLE_BS)
        assert np.mean(vals) == pytest.approx(expected_snr(cfg, 500.0, 60.0),
                                              rel=0.05)

    def test_two_equidistant_bs_no_noise_symmetry(self):
        cfg = replace(CFG, env=FREE_ENV, noise_w=1e-30)
        # exact symmetry needs identical draws, so compare the fade-free
        # mean ratio instead: both links share geometry, so mean powers are
        # equal and mean SINR over many draws sits near 0 dB
        vals, _ = fixed_sites_sinr(
            60.0, [0.0, 0.0], [500.0, -500.0],
            np.zeros((2, 3)) + np.array([0.0, 2.1, 4.2]), cfg,
            RngStream(22, 0), 4000)
        # X1/X2 ratio of unit-mean exponentials: median is exactly 1
        assert np.median(vals) == pytest.approx(1.0, abs=0.1)

    def test_empty_snapshot(self):
        sinr, serving = fixed_sites_sinr(60.0, [], [], np.empty((0, 3)), CFG,
                                         RngStream(1), 1)
        assert sinr.tolist() == [0.0] and serving.tolist() == [-1]

    def test_serving_invariant_under_power_scaling(self):
        block = au._draw_block(CFG, RngStream(31, 0), range(20))
        served = []
        for cfg in (CFG, replace(CFG, p_tx_w=CFG.p_tx_w * 10)):
            stage = site_stage(block, 90.0, cfg)
            _, serving = au._ue_stage(block, stage, cfg)
            served.append((serving, stage.sector[serving]))
        (site_a, sector_a), (site_b, sector_b) = served
        assert np.all(site_a >= 0)
        assert np.array_equal(site_a, site_b)
        assert np.array_equal(sector_a, sector_b)

    def test_mean_sinr_lower_at_high_altitude(self):
        s30 = au.sinr_samples(30.0, CFG, 800, RngStream(33, 0))
        s150 = au.sinr_samples(150.0, CFG, 800, RngStream(33, 1))
        assert np.mean(s150) < np.mean(s30)

    def test_cone_blind_when_lobe_empty(self):
        cfg = replace(CFG, uav=ConeUav(phi_b_deg=5.0))  # ~6.5 m footprint
        sinr = au.sinr_samples(150.0, cfg, 50, RngStream(34, 0))
        assert np.mean(sinr == 0.0) > 0.9


class TestCoverage:
    def test_tiny_threshold_full_coverage(self):
        est = au.coverage_probability_mc(60.0, replace(CFG, threshold_t=1e-12),
                                         300, RngStream(41, 0))
        assert est.value == 1.0

    def test_nonincreasing_in_threshold(self):
        sinr = au.sinr_samples(60.0, CFG, 1500, RngStream(42, 0))
        thresholds = [0.1, 0.5, 1.0, 4.0, 10.0]
        covs = [np.mean(sinr > t) for t in thresholds]
        assert all(b <= a for a, b in zip(covs, covs[1:]))

    def test_minimum_trials(self):
        with pytest.raises(DomainError):
            au.coverage_probability_mc(60.0, CFG, 50, RngStream(1, 0))

    def test_single_bs_nakagami_matches_closed_tail(self):
        m = 3
        cfg = replace(CFG, env=FREE_ENV, fading_m_los=m)
        snr = expected_snr(cfg, 500.0, 60.0)
        sinr, _ = fixed_sites_sinr(60.0, cfg=cfg, rng=RngStream(43, 0),
                                   n_trials=10_000, **SINGLE_BS)
        for t_db in [-5.0, 0.0, 5.0, 10.0, 15.0]:
            t = 10 ** (t_db / 10)
            closed = 1.0 - nakagami_power_cdf(t / snr, m)
            mc = float(np.mean(sinr > t))
            ci = 1.96 * math.sqrt(max(mc * (1 - mc), 1e-9) / sinr.size)
            assert abs(mc - closed) <= 3 * ci

    def test_reproducible(self):
        a = au.coverage_probability_mc(60.0, CFG, 200, RngStream(44, 0))
        b = au.coverage_probability_mc(60.0, CFG, 200, RngStream(44, 0))
        assert a == b


def quadrature(pcov, k_nodes, t_max=None):
    """(1/ln 2) sum w_n P_cov(t_n) / (1 + t_n) for a P_cov given in closed form."""
    t, coeff = au.capacity_coefficients(k_nodes, t_max)
    return float(np.sum(coeff * pcov(t)))


class TestCapacity:
    def test_injected_rational_pcov(self):
        # integral of 1/(1+t)^2 over [0, inf) is 1, so capacity is 1/ln 2
        value = quadrature(lambda t: 1.0 / (1.0 + t), k_nodes=400)
        assert value == pytest.approx(1.0 / math.log(2.0), abs=1e-2)

    def test_bounded_variant_with_unit_pcov(self):
        t_max = 1000.0
        value = quadrature(np.ones_like, k_nodes=4000, t_max=t_max)
        assert value == pytest.approx(math.log2(1.0 + t_max), rel=2e-2)

    def test_unbounded_unit_pcov_diverges_with_node_count(self):
        # the underlying integral diverges; the node sum keeps growing with
        # the reach of the largest node (about 6.6 b/s/Hz per decade of K)
        vals = [quadrature(np.ones_like, k_nodes=k) for k in (50, 500, 5000)]
        assert vals[0] < vals[1] < vals[2]
        assert vals[2] - vals[0] > 10.0

    def test_node_floor(self):
        with pytest.raises(DomainError):
            au.capacity(60.0, CFG, 100, RngStream(1, 0), k_nodes=10)

    @pytest.mark.parametrize("k_nodes", [50, 200, 4000])
    def test_t_max_below_every_node_rejected(self, k_nodes):
        # a bound below the smallest node would keep no node: capacity 0
        t, _ = au.capacity_coefficients(k_nodes, None)
        with pytest.raises(DomainError, match="t_max"):
            au.capacity_coefficients(k_nodes, float(np.nextafter(t[0], 0.0)))
        with pytest.raises(DomainError, match="t_max"):
            au.capacity_coefficients(k_nodes, 1e-10)
        kept, _ = au.capacity_coefficients(k_nodes, float(t[0]))
        assert kept.tolist() == [t[0]]

    def test_t_max_below_every_node_fails_before_any_trial(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("a trial was drawn")
        monkeypatch.setattr(RngStream, "child_generator", no_draw)
        with pytest.raises(DomainError, match="t_max"):
            au.capacity(60.0, CFG, 100, RngStream(1, 0), t_max=1e-10)
        with pytest.raises(DomainError, match="t_max"):
            au.sweep(CFG, "altitude", [60.0], uav_h=0.0, n_trials=100,
                     rng=RngStream(1, 0), t_max=1e-10)

    def test_interior_altitude_maximum(self):
        # street level and 300 m are both dominated by the low-altitude peak
        hs = [5.0, 15.0, 30.0, 60.0, 90.0, 120.0, 150.0, 200.0, 250.0, 300.0]
        caps = [au.capacity(h, CFG, 700, RngStream(46, i), t_max=1000.0)
                for i, h in enumerate(hs)]
        vals = [c.value for c in caps]
        best = int(np.argmax(vals))
        assert 0 < best < len(hs) - 1
        for edge in (0, len(hs) - 1):
            margin = vals[best] - vals[edge]
            assert margin > 3 * max(caps[best].ci95, caps[edge].ci95)

    @pytest.mark.parametrize("t_max", [None, 30.0])
    @pytest.mark.parametrize("k_nodes", [50, 200, 2000])
    def test_sorted_lookup_matches_matrix_form(self, k_nodes, t_max):
        # the (n x K) indicator matrix the lookup replaced; a sample scores
        # the nodes strictly below its SINR, so one exactly on a node does
        # not score that node
        t, coeff = au.capacity_coefficients(k_nodes, t_max)
        sinr = np.concatenate([
            [0.0, math.inf, t[0], t[-1], t[len(t) // 2]],
            np.nextafter(t[[0, -1]], math.inf),
            10.0 ** np.random.default_rng(k_nodes).uniform(-3, 4, 200)])
        expected = (sinr[:, None] > t[None, :]).astype(float) @ coeff
        est = au._capacity_from_samples(sinr, t, coeff)
        assert est.value == pytest.approx(float(np.mean(expected)), rel=1e-12)
        assert est.ci95 == pytest.approx(
            1.96 * float(np.std(expected)) / math.sqrt(sinr.size), rel=1e-12)
        per_sample = [au._capacity_from_samples(np.array([x]), t, coeff).value
                      for x in sinr[:7]]
        assert per_sample == pytest.approx(expected[:7].tolist(), rel=1e-12,
                                           abs=0.0)
        assert per_sample[0] == 0.0 and per_sample[2] == 0.0

    def test_matches_log2_mean_of_samples(self):
        sinr = au.sinr_samples(60.0, CFG, 800, RngStream(47, 0))
        direct = float(np.mean(np.log2(1.0 + np.minimum(sinr, 1000.0))))
        est = au.capacity(60.0, CFG, 800, RngStream(47, 0), k_nodes=2000,
                          t_max=1000.0)
        assert est.value == pytest.approx(direct, rel=0.02)


class TestAse:
    def test_rho_limits_and_linearity(self):
        rng = RngStream(51, 0)
        a0 = au.ase(replace(CFG, aue_ratio_rho=0.0), 90.0, 300, rng, k_nodes=100)
        a1 = au.ase(replace(CFG, aue_ratio_rho=1.0), 90.0, 300, rng, k_nodes=100)
        ah = au.ase(replace(CFG, aue_ratio_rho=0.5), 90.0, 300, rng, k_nodes=100)
        assert ah == pytest.approx(0.5 * (a0 + a1), rel=1e-12)

    def test_rho_zero_is_ground_rate_density(self):
        rng = RngStream(52, 0)
        ground = au.capacity(1.5, replace(CFG, uav=OmniUav()), 300, rng, k_nodes=100)
        a0 = au.ase(replace(CFG, aue_ratio_rho=0.0), 90.0, 300, rng, k_nodes=100)
        assert a0 == pytest.approx(CFG.bs_density_per_km2 * ground.value, rel=1e-12)


class TestSweep:
    def test_single_point_equals_direct_call(self):
        pts = au.sweep(CFG, "altitude", [90.0], uav_h=0.0, n_trials=200,
                       rng=RngStream(61, 0))
        direct = au.capacity(90.0, CFG, 200, RngStream(61, 0))
        assert len(pts) == 1
        assert pts[0].value == direct.value
        assert pts[0].ci95 == direct.ci95

    def test_density_tail_decreasing(self):
        pts = au.sweep(CFG, "density", [20.0, 50.0, 100.0], uav_h=60.0,
                       n_trials=500, rng=RngStream(62, 0))
        vals = [p.value for p in pts]
        assert vals[0] > vals[1] > vals[2]

    def test_beamwidth_optimum_beats_omni(self):
        pts = au.sweep(CFG, "phi_b", [60.0, 100.0, 120.0, 140.0], uav_h=150.0,
                       n_trials=600, rng=RngStream(63, 0))
        best = max(pts, key=lambda p: p.value)
        omni = au.capacity(150.0, CFG, 600, RngStream(63, 0))
        assert best.value - omni.value > 3 * max(best.ci95, omni.ci95)

    def test_tilt_sweep_requires_cone(self):
        with pytest.raises(DomainError):
            au.sweep(CFG, "phi_t", [0.0, 0.2], uav_h=150.0, n_trials=100,
                     rng=RngStream(64, 0))
        cfg = replace(CFG, uav=ConeUav(phi_b_deg=100.0))
        pts = au.sweep(cfg, "phi_t", [0.0, 0.3], uav_h=150.0, n_trials=100,
                       rng=RngStream(64, 1))
        assert len(pts) == 2

    def test_invalid_axis_and_grid(self):
        with pytest.raises(DomainError):
            au.sweep(CFG, "speed", [1.0], uav_h=60.0, n_trials=100,
                     rng=RngStream(65, 0))
        with pytest.raises(DomainError):
            au.sweep(CFG, "altitude", [], uav_h=60.0, n_trials=100,
                     rng=RngStream(65, 1))


def reference_sweep(cfg, axis, grid, uav_h, n_trials, rng, metric):
    # one full Monte Carlo run per grid point, each on the same streams
    out = []
    for x in grid:
        point_cfg = au._cfg_for(cfg, axis, x)
        h = float(x) if axis == "altitude" else uav_h
        if metric == "coverage":
            out.append(au.coverage_probability_mc(h, point_cfg, n_trials, rng))
        else:
            out.append(au.capacity(h, point_cfg, n_trials, rng, t_max=1000.0))
    return out


class TestSharedDraws:
    """Trial-major evaluation against per-point and per-snapshot loops."""

    CONE = replace(CFG, uav=ConeUav(phi_b_deg=100.0))

    @pytest.mark.parametrize("metric", ["capacity", "coverage"])
    @pytest.mark.parametrize("axis,grid,cfg", [
        ("altitude", [5.0, 60.0, 150.0], CFG),
        ("density", [2.0, 5.0, 20.0], CFG),
        ("phi_b", [40.0, 90.0, 140.0], CFG),
        ("phi_t", [0.0, 0.3], CONE),
    ])
    def test_sweep_equals_per_point_loop(self, axis, grid, cfg, metric):
        rng = RngStream(81, 2)
        pts = au.sweep(cfg, axis, grid, uav_h=120.0, n_trials=100, rng=rng,
                       metric=metric, t_max=1000.0)
        assert pts == reference_sweep(cfg, axis, grid, 120.0, 100, rng, metric)

    def test_draw_order(self):
        # site count, radius, angle and rotation uniforms, then LOS
        # uniforms, then LOS and NLOS fading: the order and the numpy calls
        # the shipped outputs were drawn with (the block draw scales
        # random() by 2 pi where they called uniform(0, 2 pi))
        block = au._draw_block(CFG, RngStream(85, 0), range(3, 4))
        ref = RngStream(85, 0).child_generator(3)
        x, y, sector_azimuth, los_u, fading_los, fading_nlos = \
            reference_draw(CFG, ref)
        assert block_counts(block).tolist() == [x.size] and x.size > 0
        assert block.height_m == CFG.bs_height_m
        assert np.array_equal(block.d_h, np.hypot(x, y))
        assert np.array_equal(block.a_az, azimuth_attenuation(CFG, x, y,
                                                              sector_azimuth))
        assert np.array_equal(block.az_from_uav, np.arctan2(x, y))
        assert np.array_equal(block.los_u, los_u)
        assert np.array_equal(block.fading_los, fading_los)
        assert np.array_equal(block.fading_nlos, fading_nlos)

    @pytest.mark.parametrize("h,cfg", [(1.5, CFG), (90.0, CFG), (200.0, CONE)])
    def test_samples_equal_per_snapshot_loop(self, h, cfg):
        # reference: one raw-numpy draw and one site-by-site evaluation per
        # trial
        rng = RngStream(82, 0)
        direct = [evaluate_sinr(h, reference_draw(cfg, rng.child_generator(i)),
                                cfg, building_plos(h, cfg)).sinr
                  for i in range(60)]
        assert np.array_equal(au.sinr_samples(h, cfg, 60, rng), direct)

    def test_ase_equals_two_capacity_runs(self):
        rng = RngStream(83, 0)
        cfg = replace(CFG, aue_ratio_rho=0.3)
        ground = au.capacity(1.5, replace(cfg, uav=OmniUav()), 200, rng,
                             k_nodes=100).value
        aerial = au.capacity(90.0, cfg, 200, rng, k_nodes=100).value
        rho = cfg.aue_ratio_rho
        expected = cfg.bs_density_per_km2 * ((1.0 - rho) * ground + rho * aerial)
        assert au.ase(cfg, 90.0, 200, rng, k_nodes=100) == expected

    @pytest.mark.parametrize("kwargs", [
        dict(metric="coverage", n_trials=99),
        dict(metric="capacity", n_trials=200, k_nodes=49),
        dict(metric="capacity", n_trials=0),
    ])
    def test_sweep_fails_before_any_trial(self, monkeypatch, kwargs):
        def no_draw(*args):
            raise AssertionError("a trial was drawn")
        # every trial draws on its own child generator
        monkeypatch.setattr(RngStream, "child_generator", no_draw)
        with pytest.raises(DomainError):
            au.sweep(CFG, "phi_b", [60.0, 120.0], uav_h=150.0,
                     rng=RngStream(84, 0), **kwargs)


class TestBlockDraw:
    """The one-pass block draw against the per-trial raw-numpy reference."""

    @pytest.mark.parametrize("cfg", [
        CFG, SPARSE,
        replace(CFG, fading_m_los=5, fading_m_nlos=1),
        replace(SPARSE, fading_m_los=1, fading_m_nlos=2),
    ], ids=["nakagami", "sparse", "m5-rayleigh", "sparse-rayleigh-m2"])
    def test_block_equals_per_trial_draws(self, cfg):
        rng = RngStream(87, 1)
        trials = range(5, 42)
        block = au._draw_block(cfg, rng, trials)
        draws = [reference_draw(cfg, rng.child_generator(i)) for i in trials]
        x, y, sector_azimuth, los_u, fading_los, fading_nlos = (
            np.concatenate(d) for d in zip(*draws))
        assert block_counts(block).tolist() == [d[0].size for d in draws]
        assert block.height_m == cfg.bs_height_m
        for got, ref in [
                (block.d_h, np.hypot(x, y)),
                (block.a_az, azimuth_attenuation(cfg, x, y, sector_azimuth)),
                (block.az_from_uav, np.arctan2(x, y)),
                (block.los_u, los_u),
                (block.fading_los, fading_los),
                (block.fading_nlos, fading_nlos)]:
            assert got.shape == ref.shape
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))

    def test_sparse_block_holds_empty_trials(self):
        block = au._draw_block(SPARSE, RngStream(87, 1), range(5, 42))
        counts = block_counts(block)
        assert 0 < np.count_nonzero(counts == 0) < counts.size
        assert block.d_h.size == block.row.size == counts.sum()


def azimuth_attenuation(cfg, x, y, sector_azimuth):
    """Each sector's azimuth attenuation toward a UE at offset (-x, -y)."""
    return azimuth_attenuation_db(cfg.sector,
                                  np.arctan2(-x, -y)[:, None] - sector_azimuth)


Served = namedtuple("Served", "sinr serving_site serving_sector los_serving")
NOT_SERVED = Served(0.0, -1, -1, False)


def evaluate_sinr(h, draw, cfg, p_los):
    """Per-trial reference: the SINR of one drawn trial for a UE at height h
    above the region center, site by site."""
    x, y, sector_azimuth, los_u, fading_los, fading_nlos = draw
    n_sites = x.size
    if n_sites == 0:
        return NOT_SERVED

    d_h = np.hypot(x, y)
    dz = cfg.bs_height_m - h
    d_3d = np.hypot(d_h, dz)
    elevation_from_bs = np.arctan2(-dz, d_h)          # toward the UE
    az_from_uav = np.arctan2(x, y)
    el_from_uav = np.arctan2(dz, d_h)

    los = los_u < p_los(d_h)

    eta = np.where(los, cfg.eta_los, cfg.eta_nlos)
    lam0 = np.where(los, cfg.reference_loss_db(True), cfg.reference_loss_db(False))
    d = np.maximum(d_3d, au.D0_M)
    pl_db = lam0 + 10.0 * eta * np.log10(d / au.D0_M)

    bs_gain = 10.0 ** (sector_gain_db(
        cfg.sector, azimuth_attenuation(cfg, x, y, sector_azimuth),
        elevation_from_bs[:, None]) / 10.0)  # (n, 3)
    fading = np.where(los, fading_los, fading_nlos)

    path_gain = 10.0 ** (-pl_db / 10.0)

    g_uav = uav_gain_linear(cfg.uav, az_from_uav, el_from_uav)

    sector = np.argmax(bs_gain, axis=1)
    site_gain = bs_gain[np.arange(n_sites), sector]
    mean_rx = cfg.p_tx_w * site_gain * g_uav * path_gain   # (n,)
    if not np.any(mean_rx > 0.0):
        return NOT_SERVED
    site = int(np.argmax(mean_rx))
    rx = mean_rx * fading
    signal = rx[site]
    interference = float(np.sum(rx)) - signal
    sinr = signal / (interference + cfg.noise_w)
    return Served(float(sinr), site, int(sector[site]), bool(los[site]))


def reference_matrix(draw_cfg, points, n_trials, rng):
    """Per-trial reference for `_sinr_matrix`, also returning every
    (point, trial) result in full."""
    results = [[] for _ in points]
    for i in range(n_trials):
        draw = reference_draw(draw_cfg, rng.child_generator(i))
        for out, (h, cfg) in zip(results, points):
            out.append(evaluate_sinr(h, draw, cfg, building_plos(h, cfg)))
    return results


# cones whose axis is aimed off nadir, toward north, at a fixed tilt: they
# reach sites that the same cone pointing straight down does not
TILTED = ConeUav(phi_b_deg=60.0, phi_t=math.radians(70.0))
SPARSE_TILTED = ConeUav(phi_b_deg=80.0, phi_t=math.radians(60.0))


class TestBatchedKernel:
    """The block evaluator against the per-trial reference, bit for bit."""

    @pytest.mark.parametrize("cfg,points", [
        (CFG, [(1.5, replace(CFG, uav=OmniUav())), (30.0, CFG), (150.0, CFG)]),
        (CFG, [(120.0, replace(CFG, uav=ConeUav(phi_b_deg=d)))
               for d in (40.0, 100.0, 160.0)]),
        (replace(CFG, uav=TILTED),
         [(h, replace(CFG, uav=TILTED)) for h in (60.0, 200.0)]),
        (SPARSE, [(1.5, SPARSE), (90.0, SPARSE)]),
        (replace(SPARSE, uav=SPARSE_TILTED),
         [(90.0, replace(SPARSE, uav=SPARSE_TILTED))]),
        (CFG, [(150.0, replace(CFG, uav=ConeUav(phi_b_deg=5.0)))]),
    ], ids=["omni", "cone", "aimed", "sparse", "sparse-aimed", "blind"])
    @pytest.mark.parametrize("block", [None, 1, 1000])
    def test_matrix_equals_per_trial_reference(self, monkeypatch, cfg, points,
                                               block):
        if block is not None:
            monkeypatch.setattr(au, "_BLOCK_TRIALS", block)
        rng = RngStream(91, 0)
        n = 37       # not a multiple of the block size
        got = au._sinr_matrix(cfg, points, n, rng)
        ref = reference_matrix(cfg, points, n, rng)
        assert np.array_equal(got, [[r.sinr for r in row] for row in ref])

    def test_cases_reach_their_edges(self):
        # the sparse region leaves some trials empty and the 5 degree cone
        # sees no site on most trials
        rng = RngStream(91, 0)
        sparse = reference_matrix(SPARSE, [(90.0, SPARSE)], 37, rng)[0]
        assert 0 < sum(r.serving_site < 0 for r in sparse) < 37
        blind_cfg = replace(CFG, uav=ConeUav(phi_b_deg=5.0))
        blind = reference_matrix(CFG, [(150.0, blind_cfg)], 37, rng)[0]
        assert sum(r.serving_site < 0 for r in blind) > 30

    @pytest.mark.parametrize("cfg,tilted", [
        (CFG, False), (replace(CFG, uav=ConeUav(phi_b_deg=60.0)), True),
        (SPARSE, False), (replace(CFG, uav=ConeUav(phi_b_deg=5.0)), False)])
    def test_snapshot_equals_per_trial_reference(self, cfg, tilted):
        # serving site, sector and LOS state too
        if tilted:    # pointing down from 75 m, the 60 degree cone sees no site
            cfg = replace(cfg, uav=replace(cfg.uav, phi_t=math.radians(70.0)))
        rng = RngStream(92, 0)
        block = au._draw_block(cfg, rng, range(30))
        stage = site_stage(block, 75.0, cfg)
        sinr, serving = au._ue_stage(block, stage, cfg)
        served = 0
        for i in range(30):
            expected = evaluate_sinr(
                75.0, reference_draw(cfg, rng.child_generator(i)), cfg,
                building_plos(75.0, cfg))
            site = int(serving[i])
            got = NOT_SERVED if site < 0 else Served(
                float(sinr[i]), site - int(block.starts[i]),
                int(stage.sector[site]), bool(stage.los[site]))
            assert got == expected
            served += expected.serving_site >= 0
        assert served > 0 or not tilted

    def test_memory_stays_bounded(self):
        # blocks keep the flat site arrays small; one pass over all 2000
        # trials of a point would hold about 280k sites per array
        tracemalloc.start()
        try:
            au.sinr_samples(60.0, au.AueNetworkConfig(), 2000, RngStream(1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestEmptySamples:
    # each ended in a raw ZeroDivisionError
    def test_coverage_names_sinr(self):
        with pytest.raises(DomainError, match="^sinr sample count must be "):
            au.coverage_from_samples(np.array([]), 1.0)

    def test_capacity_names_sinr(self):
        t, coeff = au.capacity_coefficients(50, None)
        with pytest.raises(DomainError, match="^sinr sample count must be "):
            au._capacity_from_samples(np.array([]), t, coeff)

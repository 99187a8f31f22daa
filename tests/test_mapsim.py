import math

import numpy as np
import pytest

from a2gnet import channel as ch
from a2gnet import mapsim as ms
from a2gnet.antenna_geometry import Position3D, SectorAntenna
from a2gnet.cli import run_scenario
from a2gnet.errors import DomainError, ScenarioError
from a2gnet.heightmap import HeightMap, los_check, los_mask, synthetic_city
from a2gnet.numerics import RngStream
from a2gnet.scenario import parse_scenario

FLAT = HeightMap(np.zeros((40, 40)), cellsize=10.0)


def flat_cfg(**kw):
    return ms.MapSimConfig(env=ch.urban(), **kw)


def p_los_vs_altitude(sites, hm, heights, stride=1):
    """Fraction of cells with LOS to at least one site, per height, from
    rays cast on their own: the reference for `SinrGrid.p_los_any`."""
    xx, yy = np.meshgrid(*(c[::stride] for c in hm.cell_centers()))
    out = []
    for h in heights:
        masks = [los_mask(site.position, xx, yy, float(h), hm) for site in sites]
        out.append((float(h), float(np.mean(np.logical_or.reduce(masks)))))
    return out


def received_power_dbm(site, sector, ue, hm, cfg):
    """One sector's P_tx + G_tx + G_rx - PL toward one point, its LOS from
    the single-ray check."""
    los = los_check(site.position, ue, hm)
    return float(ms._rx_dbm(site, cfg, ue.x, ue.y, ue.h, los)[sector])


class TestReceivedPower:
    def test_additive_budget(self):
        # isotropic-equivalent check: zero out gains via antenna fields
        site = ms.SectorSite(position=Position3D(200, 200, 30),
                             p_tx_dbm=43.0,
                             antenna=SectorAntenna(max_gain_dbi=0.0,
                                                   electrical_tilt=0.0,
                                                   sidelobe_floor_db=1e-9))
        cfg = flat_cfg(pl_model="free_space", ue_gain_dbi=0.0)
        ue = Position3D(300.0, 200.0, 1.5)
        d3 = math.hypot(100.0, 28.5)
        lam = ch.SPEED_OF_LIGHT / cfg.frequency_hz
        pl = 20 * math.log10(4 * math.pi * d3 / lam)
        got = received_power_dbm(site, 0, ue, FLAT, cfg)
        assert got == pytest.approx(43.0 - pl, abs=1e-9)

    def test_radially_nonincreasing_on_flat_map(self):
        site = ms.site_on_roof(FLAT, 200.0, 200.0, p_tx_dbm=46.0)
        cfg = flat_cfg()
        powers = [received_power_dbm(site, 0, Position3D(200.0, 200.0 + d, 1.5),
                                     FLAT, cfg)
                  for d in np.linspace(20.0, 180.0, 15)]
        assert all(b <= a + 1e-9 for a, b in zip(powers, powers[1:]))

    def test_blocked_cell_loses_power(self):
        grid = np.zeros((40, 40))
        grid[20, 22] = 40.0  # wall east of center
        hm = HeightMap(grid, cellsize=10.0)
        site = ms.SectorSite(position=Position3D(200, 195, 30),
                             azimuth0=math.pi / 2)
        cfg = flat_cfg()
        clear = received_power_dbm(site, 0, Position3D(215, 195, 1.5), hm, cfg)
        blocked = received_power_dbm(site, 0, Position3D(245, 195, 1.5), hm, cfg)
        # LOS -> NLOS transition behind the wall costs far more than the
        # extra 30 m of distance would
        assert blocked < clear - 10.0


class TestPathLossClamps:
    """mapsim clamps d_3d into the ground-slice windows and to 1 m aloft,
    where `pl_3gpp_rural_db` would raise; inside, the two agree."""

    CFG = flat_cfg()
    SITE_H = 30.0

    def _pl(self, d_3d, ue_h, los):
        return ms._path_loss_db(self.CFG, np.asarray(d_3d, dtype=float), ue_h,
                                self.SITE_H, los)

    def _ref(self, d_3d, ue_h, los):
        d_h = math.sqrt(d_3d ** 2 - (ue_h - self.SITE_H) ** 2)
        # the link form recovers this d_3d exactly from (d_h, heights)
        assert np.hypot(d_h, ue_h - self.SITE_H) == d_3d
        return ch.pl_3gpp_rural_db(d_h, ue_h, self.SITE_H, 1.8, self.CFG.env,
                                   los, ch.slice_of(ue_h, self.CFG.env))

    @pytest.mark.parametrize("ue_h", [1.5, 60.0, 150.0])
    @pytest.mark.parametrize("los", [True, False])
    def test_inside_windows_matches_link_api(self, ue_h, los):
        d_3d = np.array([130.0, 300.0, 2000.0, 4900.0])
        assert self._pl(d_3d, ue_h, los).tolist() == [
            self._ref(d, ue_h, los) for d in d_3d]

    @pytest.mark.parametrize("los", [True, False])
    def test_ground_clamps_below_window(self, los):
        at_bound = ch.slice_pl_db(10.0, 1.5, self.SITE_H, 1.8, self.CFG.env, los,
                                  ch.PropagationSlice.GROUND)
        assert self._pl([0.5, 3.0, 9.99], 1.5, los).tolist() == [at_bound] * 3

    def test_ground_nlos_clamps_above_window(self):
        far = self._pl([5000.0, 6000.0, 9000.0], 1.5, False)
        assert far.tolist() == [far[0]] * 3
        assert far[0] == self._ref(5000.0, 1.5, False)
        # the LOS window reaches 10 km
        assert self._pl([6000.0], 1.5, True)[0] == self._ref(6000.0, 1.5, True)

    @pytest.mark.parametrize("los", [True, False])
    def test_aloft_clamps_to_one_metre(self, los):
        near = self._pl([0.0, 0.3, 1.0], 60.0, los)
        fn = ch.aerial_los_db if los else ch.aerial_nlos_db
        assert near.tolist() == [fn(1.0, 60.0, 1.8)] * 3


class TestSinrGrid:
    def test_single_sector_is_snr(self):
        # one site, one dominant sector: SINR within the serving sector's
        # footprint equals P/(other sectors + noise); with the other two
        # sectors pointing away their leakage is bounded by the floor
        site = ms.site_on_roof(FLAT, 200.0, 200.0, p_tx_dbm=46.0)
        cfg = flat_cfg()
        grid = ms.sinr_grid([site], FLAT, 1.5, cfg, stride=2)
        assert np.all(np.isfinite(grid.sinr_db))
        assert grid.serving.shape == grid.sinr_db.shape

    def test_two_symmetric_sectors_zero_db_midpoint(self):
        # two identical sites equidistant from the midpoint, no noise
        a = ms.SectorSite(position=Position3D(100, 200, 30))
        b = ms.SectorSite(position=Position3D(300, 200, 30))
        cfg = flat_cfg(noise_density_dbm_hz=-400.0)
        grid = ms.sinr_grid([a, b], FLAT, 1.5, cfg)
        ix = int(np.argmin(np.abs(grid.x - 200.0)))
        iy = int(np.argmin(np.abs(grid.y - 200.0)))
        # the two sites' best sectors mirror each other; their powers at the
        # midpoint are equal so SINR is interference-limited at <= 0 dB and
        # exactly 0 dB once same-site leakage is negligible
        assert grid.sinr_db[iy, ix] == pytest.approx(0.0, abs=0.5)

    def test_serving_invariant_under_uniform_power_boost(self):
        sites = [ms.site_on_roof(FLAT, 120.0, 150.0),
                 ms.site_on_roof(FLAT, 280.0, 230.0)]
        cfg = flat_cfg()
        base = ms.sinr_grid(sites, FLAT, 1.5, cfg, stride=2)
        boosted_sites = [ms.SectorSite(position=s.position,
                                       p_tx_dbm=s.p_tx_dbm + 3.0,
                                       azimuth0=s.azimuth0,
                                       antenna=s.antenna) for s in sites]
        boosted = ms.sinr_grid(boosted_sites, FLAT, 1.5, cfg, stride=2)
        assert np.array_equal(base.serving, boosted.serving)

    def test_bit_reproducible(self):
        sites = [ms.site_on_roof(FLAT, 120.0, 150.0)]
        cfg = flat_cfg()
        a = ms.sinr_grid(sites, FLAT, 20.0, cfg, stride=2)
        b = ms.sinr_grid(sites, FLAT, 20.0, cfg, stride=2)
        assert np.array_equal(a.sinr_db, b.sinr_db)

    def test_serving_tie_break_lowest_index(self):
        # two co-located identical sites produce exact power ties; the
        # serving raster must always pick the first site's sectors
        a = ms.SectorSite(position=Position3D(200, 200, 30))
        b = ms.SectorSite(position=Position3D(200, 200, 30))
        grid = ms.sinr_grid([a, b], FLAT, 1.5, flat_cfg(), stride=4)
        assert np.all(grid.serving <= 2)

    def test_needs_sites(self):
        with pytest.raises(DomainError):
            ms.sinr_grid([], FLAT, 1.5, flat_cfg())


class TestCoverageCurves:
    def setup_method(self):
        self.env = ch.dense_urban()
        self.city = synthetic_city(480.0, 4.0, self.env, RngStream(12),
                                   min_height_m=4.0)
        pts = [(120, 120), (360, 120), (120, 360), (360, 360), (240, 240)]
        self.sites = [ms.site_on_roof(self.city, float(x), float(y),
                                      p_tx_dbm=46.0) for x, y in pts]
        self.cfg = ms.MapSimConfig(env=self.env)

    def test_huge_threshold_margin_gives_full_coverage(self):
        curve = ms.coverage_vs_altitude(self.sites, self.city, [20.0],
                                        self.cfg, threshold_db=-300.0,
                                        stride=6)
        assert curve[0][1] == 1.0

    def test_peak_near_rooftop_and_decay_aloft(self):
        heights = [1.5, 10.0, 20.0, 30.0, 60.0, 150.0]
        curve = ms.coverage_vs_altitude(self.sites, self.city, heights,
                                        self.cfg, stride=6)
        cov = dict(curve)
        best_h = max(cov, key=cov.get)
        mean_roof = 25.2
        assert best_h <= 1.5 * mean_roof
        rooftop = cov[20.0]
        assert rooftop - cov[150.0] >= 0.1

    def test_p_los_nondecreasing_above_rooftops(self):
        # heights all above the tallest structure: clearing can only improve
        top = float(np.nanmax(self.city.heights))
        heights = [top + 5.0, top + 30.0, top + 80.0, top + 150.0]
        fracs = [f for _, f in p_los_vs_altitude(self.sites, self.city,
                                                 heights, stride=6)]
        assert all(b >= a - 1e-12 for a, b in zip(fracs, fracs[1:]))

    def test_empty_heights_rejected(self):
        with pytest.raises(DomainError):
            ms.coverage_vs_altitude(self.sites, self.city, [], self.cfg)

    def test_grid_los_fraction_matches_reference(self):
        # p_los_vs_altitude casts the rays on its own: the reference path
        heights = [1.5, 20.0, 60.0, 150.0]
        ref = p_los_vs_altitude(self.sites, self.city, heights, stride=6)
        for h, p_ref in ref:
            grid = ms.sinr_grid(self.sites, self.city, h, self.cfg, stride=6)
            assert grid.p_los_any == p_ref
            assert grid.los_any.shape == grid.sinr_db.shape


class TestCastOnce:
    def test_cli_casts_each_ray_once(self, tmp_path, monkeypatch):
        batches = []
        real = ms.los_mask

        def counting(a, x, y, h, hm):
            x, y, h = np.broadcast_arrays(x, y, h)
            batches.append([(a.x, a.y, a.h, *b)
                            for b in zip(x.ravel(), y.ravel(), h.ravel())])
            return real(a, x, y, h, hm)

        monkeypatch.setattr(ms, "los_mask", counting)
        text = ("command: mapsim\nseed: 5\nmapsim:\n"
                "  synthetic: {extent_m: 200, cellsize_m: 5}\n"
                "  auto_sites: {count: 2}\n"
                "  heights_m: [1.5, 40]\n  stride: 4\n")
        run_scenario(parse_scenario(text), tmp_path)
        # one batch per (site, height); 2 sites x (40 cells / stride 4)^2
        # x 2 heights rays
        assert len(batches) == 2 * 2
        rays = [ray for batch in batches for ray in batch]
        assert len(rays) == 2 * 10 * 10 * 2
        assert len(set(rays)) == len(rays)


class TestSiteCsv:
    def test_round_trip(self, tmp_path):
        sites = [ms.site_on_roof(FLAT, 100.0, 120.0, p_tx_dbm=43.0),
                 ms.SectorSite(position=Position3D(300, 50, 25),
                               p_tx_dbm=46.0, azimuth0=math.radians(30))]
        p = tmp_path / "sites.csv"
        ms.save_sites_csv(sites, p)
        roof_h = float(p.read_text().splitlines()[2].split(",")[2])
        assert roof_h == 25.0 - ms.MAST_M
        back = ms.load_sites_csv(p)
        assert len(back) == 2
        assert back[0].position.x == 100.0
        assert back[1].azimuth0 == pytest.approx(math.radians(30))
        assert back[1].position.h == pytest.approx(25.0)

    @pytest.mark.parametrize("value", ["nan", "-inf", "oops", ""])
    def test_bad_value_names_line_and_column(self, tmp_path, value):
        p = tmp_path / "bad.csv"
        p.write_text(",".join(ms.SITE_CSV_COLUMNS) + "\n"
                     + "50,50,0,46,0,8,16,65\n"
                     + f"50,50,0,46,{value},8,16,65\n")
        with pytest.raises(ScenarioError,
                           match="line 3: azimuth0_deg must be a finite"):
            ms.load_sites_csv(p)

    def test_missing_column_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x,y\n1,2\n")
        with pytest.raises(ScenarioError):
            ms.load_sites_csv(p)

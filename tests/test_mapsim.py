import math
import weakref

import numpy as np
import pytest

from a2gnet import channel as ch
from a2gnet import mapsim as ms
from a2gnet.antenna_geometry import (Position3D, SectorAntenna,
                                     azimuth_attenuation_db, sector_gain_db)
from a2gnet.cli import SITE_CSV_COLUMNS, _load_sites, run_scenario
from a2gnet.errors import DomainError, ScenarioError
from a2gnet.heightmap import HeightMap, los_mask, synthetic_city
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
        masks = [los_mask([site.position], xx, yy, [h], hm)[0, 0]
                 for site in sites]
        out.append((float(h), float(np.mean(np.logical_or.reduce(masks)))))
    return out


def reference_path_loss_db(cfg, d_3d, ue_h, site_h, los):
    """The slice loss from one site with the windows applied: the form
    that `ms._path_loss_db` evaluates for many sites at once."""
    if cfg.pl_model == "free_space":
        return ch.free_space_pl_db(
            np.maximum(d_3d, ch.SPEED_OF_LIGHT / cfg.frequency_hz),
            cfg.frequency_hz, ms.FREE_SPACE_ETA[los])
    slice_ = ch.slice_of(ue_h, cfg.env)
    if slice_ is ch.PropagationSlice.GROUND:
        d3 = np.clip(d_3d, *ch.RMA_GROUND_RANGE_M[los])
    else:
        d3 = np.maximum(d_3d, 1.0)
    return ch.slice_pl_db(d3, ue_h, site_h, cfg.frequency_hz / 1e9, cfg.env,
                          los, slice_)


def reference_rx_dbm(site, cfg, x, y, ue_h, los):
    """P_rx = P_tx + G_tx + G_rx - PL from each sector of one site, one row
    per sector, at one UE height: the per-site budget that `ms._Links`
    stacks over sites."""
    dx = x - site.position.x
    dy = y - site.position.y
    d_h = np.hypot(dx, dy)
    d_3d = np.hypot(d_h, ue_h - site.position.h)
    site_h = site.position.h
    pl = np.where(los, reference_path_loss_db(cfg, d_3d, ue_h, site_h, True),
                  reference_path_loss_db(cfg, d_3d, ue_h, site_h, False))
    az = np.arctan2(dx, dy)
    el = np.arctan2(ue_h - site.position.h, d_h)
    off_boresight = az - site.sector_azimuths.reshape((3,) + (1,) * az.ndim)
    gain = sector_gain_db(site.antenna,
                          azimuth_attenuation_db(site.antenna, off_boresight), el)
    return site.p_tx_dbm + gain + ms.UE_GAIN_DBI - pl


def received_power_dbm(site, sector, ue, hm, cfg):
    """One sector's P_tx + G_tx + G_rx - PL toward one point, its LOS from
    a one-ray cast."""
    los = los_mask([site.position], ue.x, ue.y, [ue.h], hm)[0, 0]
    links = ms._Links([site], np.array([ue.x]), np.array([ue.y]))
    rx = links.rx_dbm(cfg, ue.h, np.reshape(los, (1, 1)))
    return float(rx[0, sector, 0])


class TestReceivedPower:
    def test_additive_budget(self):
        # zero out the sector gain via antenna fields; the UE adds its
        # constant UE_GAIN_DBI
        site = ms.SectorSite(position=Position3D(200, 200, 30),
                             p_tx_dbm=43.0,
                             antenna=SectorAntenna(max_gain_dbi=0.0,
                                                   electrical_tilt=0.0,
                                                   sidelobe_floor_db=1e-9))
        cfg = flat_cfg(pl_model="free_space")
        ue = Position3D(300.0, 200.0, 1.5)
        d3 = math.hypot(100.0, 28.5)
        lam = ch.SPEED_OF_LIGHT / cfg.frequency_hz
        pl = 20 * math.log10(4 * math.pi * d3 / lam)
        got = received_power_dbm(site, 0, ue, FLAT, cfg)
        assert got == pytest.approx(43.0 + ms.UE_GAIN_DBI - pl, abs=1e-9)

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
        return ms._path_loss_db(self.CFG, np.asarray(d_3d, dtype=float)[None],
                                ue_h, [self.SITE_H], los)[0]

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
        [grid] = ms.sinr_grids([site], FLAT, [1.5], cfg, stride=2)
        assert np.all(np.isfinite(grid.sinr_db))
        assert grid.serving.shape == grid.sinr_db.shape

    def test_two_symmetric_sectors_zero_db_midpoint(self):
        # two identical sites equidistant from the midpoint, no noise
        a = ms.SectorSite(position=Position3D(100, 200, 30))
        b = ms.SectorSite(position=Position3D(300, 200, 30))
        # -174 dBm/Hz and a -226 dB noise figure: -400 dBm/Hz
        cfg = flat_cfg(noise_figure_db=-226.0)
        [grid] = ms.sinr_grids([a, b], FLAT, [1.5], cfg, stride=1)
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
        [base] = ms.sinr_grids(sites, FLAT, [1.5], cfg, stride=2)
        boosted_sites = [ms.SectorSite(position=s.position,
                                       p_tx_dbm=s.p_tx_dbm + 3.0,
                                       azimuth0=s.azimuth0,
                                       antenna=s.antenna) for s in sites]
        [boosted] = ms.sinr_grids(boosted_sites, FLAT, [1.5], cfg, stride=2)
        assert np.array_equal(base.serving, boosted.serving)

    def test_bit_reproducible(self):
        sites = [ms.site_on_roof(FLAT, 120.0, 150.0)]
        cfg = flat_cfg()
        [a] = ms.sinr_grids(sites, FLAT, [20.0], cfg, stride=2)
        [b] = ms.sinr_grids(sites, FLAT, [20.0], cfg, stride=2)
        assert np.array_equal(a.sinr_db, b.sinr_db)

    def test_serving_tie_break_lowest_index(self):
        # two co-located identical sites produce exact power ties; the
        # serving raster must always pick the first site's sectors
        a = ms.SectorSite(position=Position3D(200, 200, 30))
        b = ms.SectorSite(position=Position3D(200, 200, 30))
        [grid] = ms.sinr_grids([a, b], FLAT, [1.5], flat_cfg(), stride=4)
        assert np.all(grid.serving <= 2)

    def test_needs_sites(self):
        with pytest.raises(DomainError):
            ms.sinr_grids([], FLAT, [1.5], flat_cfg(), stride=1)

    @pytest.mark.parametrize("x, y, message", [
        (1e6, 200.0, r"^x 1000000\.0 lies off the map, outside \[0, 400\]$"),
        (200.0, -0.5, r"^y -0.5 lies off the map, outside \[0, 400\]$")])
    def test_site_off_the_map_rejected(self, x, y, message):
        with pytest.raises(DomainError, match=message):
            ms.site_on_roof(FLAT, x, y)
        ms.site_on_roof(FLAT, 400.0, 0.0)   # the map's edge is on it

    def test_just_off_the_map_shows_the_value(self):
        # %g printed 400, which reads as on the map's edge
        x = math.nextafter(400.0, math.inf)
        with pytest.raises(DomainError, match=r"^x 400\.00000000000006 lies "):
            ms.site_on_roof(FLAT, x, 200.0)


class TestCoverageCurves:
    def setup_method(self):
        self.env = ch.dense_urban()
        self.city = synthetic_city(480.0, 4.0, self.env, RngStream(12).child_generator(),
                                   min_height_m=4.0)
        pts = [(120, 120), (360, 120), (120, 360), (360, 360), (240, 240)]
        self.sites = [ms.site_on_roof(self.city, float(x), float(y),
                                      p_tx_dbm=46.0) for x, y in pts]
        self.cfg = ms.MapSimConfig(env=self.env)

    def test_huge_threshold_margin_gives_full_coverage(self):
        [grid] = ms.sinr_grids(self.sites, self.city, [20.0], self.cfg,
                               stride=6)
        assert grid.coverage_fraction(threshold_db=-300.0) == 1.0

    def test_peak_near_rooftop_and_decay_aloft(self):
        heights = [1.5, 10.0, 20.0, 30.0, 60.0, 150.0]
        cov = {g.ue_height_m: g.coverage_fraction()
               for g in ms.sinr_grids(self.sites, self.city, heights, self.cfg,
                                      stride=6)}
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
            ms.sinr_grids(self.sites, self.city, [], self.cfg, stride=1)

    def test_grid_los_fraction_matches_reference(self):
        # p_los_vs_altitude casts the rays on its own: the reference path
        heights = [1.5, 20.0, 60.0, 150.0]
        ref = p_los_vs_altitude(self.sites, self.city, heights, stride=6)
        grids = ms.sinr_grids(self.sites, self.city, heights, self.cfg,
                              stride=6)
        for (h, p_ref), grid in zip(ref, grids, strict=True):
            assert grid.ue_height_m == h
            assert grid.p_los_any == p_ref
            assert grid.los_any.shape == grid.sinr_db.shape


def reference_rasters(sites, hm, h, cfg, stride):
    """(sinr_db, serving, los_any) at one height from a los_mask cast and an
    _rx_dbm budget per site: the per-height form that sinr_grids batches."""
    xx, yy = np.meshgrid(*(c[::stride] for c in hm.cell_centers()))
    masks = [los_mask([site.position], xx, yy, [h], hm)[0, 0]
             for site in sites]
    rx = np.concatenate([reference_rx_dbm(site, cfg, xx, yy, h, mask)
                         for site, mask in zip(sites, masks)])
    rx_lin = 10.0 ** (rx / 10.0)
    total = np.sum(rx_lin, axis=0)
    serving = np.argmax(rx_lin, axis=0)
    best = np.take_along_axis(rx_lin, serving[None], axis=0)[0]
    sinr = best / (total - best + 10.0 ** (cfg.noise_dbm / 10.0))
    return (10.0 * np.log10(np.maximum(sinr, 1e-30)), serving,
            np.logical_or.reduce(masks))


def holed_city(seed):
    """A 30 x 30 dense-urban city with a few no-data blocks, and three
    sites on roofs that have data."""
    gen = RngStream(seed).child_generator()
    city = synthetic_city(120.0, 4.0, ch.dense_urban(), RngStream(seed, 1).child_generator(),
                          min_height_m=4.0)
    for r, c in gen.integers(0, 29, size=(3, 2)):
        city.heights[r:r + 2, c:c + 2] = np.nan
    sites = []
    while len(sites) < 3:
        x, y = gen.uniform(2.0, 118.0, size=2)
        try:
            sites.append(ms.site_on_roof(city, float(x), float(y)))
        except DomainError:     # a roof next to no-data
            continue
    return city, sites


class TestSinrGridsDifferential:
    """sinr_grids, one cast per site over every height, against the
    per-height, per-site reference, bit for bit."""

    # 1.5 m and 8 m are under most roofs of a dense-urban city
    HEIGHTS = [1.5, 8.0, 25.0, 70.0, 150.0]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("pl_model", ["threegpp", "free_space"])
    @pytest.mark.parametrize("stride", [1, 3, 7])
    def test_equals_per_height_casts(self, seed, pl_model, stride):
        city, sites = holed_city(seed)
        assert np.isnan(city.heights).any()
        cfg = ms.MapSimConfig(env=ch.dense_urban(), pl_model=pl_model)
        grids = list(ms.sinr_grids(sites, city, self.HEIGHTS, cfg,
                                   stride=stride))
        assert [g.ue_height_m for g in grids] == self.HEIGHTS
        for h, grid in zip(self.HEIGHTS, grids):
            sinr_db, serving, los_any = reference_rasters(sites, city, h, cfg,
                                                          stride)
            assert np.array_equal(grid.sinr_db, sinr_db)
            assert np.array_equal(grid.serving, serving)
            assert np.array_equal(grid.los_any, los_any)
        # the heights under the roofs are partly obstructed
        assert 0 < grids[0].los_any.sum() < grids[0].los_any.size

    @pytest.mark.parametrize("pl_model", ["threegpp", "free_space"])
    @pytest.mark.parametrize("links", [1 << 14, 150])
    def test_site_csv_rows_differ(self, tmp_path, monkeypatch, pl_model,
                                  links):
        # every row has its own power, bearing, tilt, gain, beamwidth and
        # mast height; at 150 links each of the 100-cell sites takes its
        # own pass, at 2**14 all four share one
        monkeypatch.setattr(ms, "_PASS_LINKS", links)
        city, _ = holed_city(7)
        p = tmp_path / "sites.csv"
        p.write_text(",".join(SITE_CSV_COLUMNS) + "\n"
                     + "20,30,12,46,0,8,16,65\n"
                     + "90,25,30,40,35,-2.5,18,90\n"
                     + "60,95,3,43,200,14,12,40\n"
                     + "100,100,45,49,300,0,21,120\n")
        sites = _load_sites(p, city)
        assert len({(s.p_tx_dbm, s.antenna, s.position.h)
                    for s in sites}) == 4
        cfg = ms.MapSimConfig(env=ch.dense_urban(), pl_model=pl_model)
        grids = ms.sinr_grids(sites, city, self.HEIGHTS, cfg, stride=3)
        serving_sites = set()
        for h, grid in zip(self.HEIGHTS, grids, strict=True):
            sinr_db, serving, los_any = reference_rasters(sites, city, h, cfg,
                                                          3)
            assert np.array_equal(grid.sinr_db, sinr_db)
            assert np.array_equal(grid.serving, serving)
            assert np.array_equal(grid.los_any, los_any)
            serving_sites.update((serving // 3).ravel().tolist())
        assert len(serving_sites) == 4

    def test_one_height_form(self):
        city, sites = holed_city(4)
        cfg = flat_cfg()
        [one] = ms.sinr_grids(sites, city, [8.0], cfg, stride=2)
        _, many = ms.sinr_grids(sites, city, [30.0, 8.0], cfg, stride=2)
        assert np.array_equal(one.sinr_db, many.sinr_db)
        assert np.array_equal(one.serving, many.serving)
        assert np.array_equal(one.los_any, many.los_any)

    def test_needs_heights(self):
        with pytest.raises(DomainError):
            ms.sinr_grids([ms.site_on_roof(FLAT, 200.0, 200.0)], FLAT, [],
                          flat_cfg(), stride=1)


class TestCastOnce:
    def test_cli_casts_each_ray_once(self, tmp_path, monkeypatch):
        batches = []
        real = ms.los_mask

        def counting(sites, x, y, heights, hm):
            batches.append([(a.x, a.y, a.h, *b, h) for h in heights
                            for a in sites for b in zip(x.ravel(), y.ravel())])
            return real(sites, x, y, heights, hm)

        monkeypatch.setattr(ms, "los_mask", counting)
        text = ("command: mapsim\nseed: 5\nmapsim:\n"
                "  synthetic: {extent_m: 200, cellsize_m: 5}\n"
                "  auto_sites: {count: 2}\n"
                "  heights_m: [1.5, 40]\n  stride: 4\n")
        run_scenario(parse_scenario(text), tmp_path)
        # one batch for every site and height; 2 sites x (40 cells /
        # stride 4)^2 x 2 heights rays
        assert len(batches) == 1
        rays = [ray for batch in batches for ray in batch]
        assert len(rays) == 2 * 10 * 10 * 2
        assert len(set(rays)) == len(rays)


def count_calls(monkeypatch, *targets):
    """Wrap each (module, name) to count its calls: {name: count}."""
    calls = dict.fromkeys((name for _, name in targets), 0)
    for module, name in targets:
        def counting(*args, _real=getattr(module, name), _name=name, **kw):
            calls[_name] += 1
            return _real(*args, **kw)
        monkeypatch.setattr(module, name, counting)
    return calls


class TestWorkCounts:
    """A sinr_grids call casts once for every site, and evaluates the path
    loss once per (height, LOS state) where the formula does not read the
    site height: per-site calls would fail here, not only in the bench."""

    TARGETS = ((ms, "los_mask"), (ch, "slice_pl_db"), (ch, "free_space_pl_db"))

    def _counts(self, monkeypatch, heights, pl_model="threegpp"):
        city, sites = holed_city(5)
        calls = count_calls(monkeypatch, *self.TARGETS)
        cfg = ms.MapSimConfig(env=ch.dense_urban(), pl_model=pl_model)
        grids = list(ms.sinr_grids(sites, city, heights, cfg, stride=3))
        assert len(grids) == len(heights) and len(sites) == 3
        return calls

    def test_aerial_slices_one_call_per_height_and_state(self, monkeypatch):
        # obstructed and high-altitude slices of the dense-urban preset
        calls = self._counts(monkeypatch, [25.0, 70.0, 150.0])
        assert calls == {"los_mask": 1, "slice_pl_db": 3 * 2,
                         "free_space_pl_db": 0}

    def test_ground_slice_one_call_per_site(self, monkeypatch):
        # the ground fits read the site height
        calls = self._counts(monkeypatch, [1.5, 8.0])
        assert calls == {"los_mask": 1, "slice_pl_db": 2 * 2 * 3,
                         "free_space_pl_db": 0}

    def test_free_space_one_call_per_height_and_state(self, monkeypatch):
        calls = self._counts(monkeypatch, [1.5, 70.0], "free_space")
        assert calls == {"los_mask": 1, "slice_pl_db": 0,
                         "free_space_pl_db": 2 * 2}

    def test_pass_per_site_chunk(self, monkeypatch):
        # 100 cells a site at stride 3: a 250-link budget takes 2 sites a
        # pass, so 2 passes, each with one call per (height, LOS state)
        monkeypatch.setattr(ms, "_PASS_LINKS", 250)
        calls = self._counts(monkeypatch, [70.0])
        assert calls == {"los_mask": 1, "slice_pl_db": 2 * 2,
                         "free_space_pl_db": 0}


class TestOneGridAtATime:
    def test_cli_holds_one_grid(self, tmp_path, monkeypatch):
        # each grid is written and dropped before the next is built; a list
        # of grids held every height's (17 B a cell each)
        made = []           # weak references: a grid lives while one resolves
        seen = []

        class Counted(ms.SinrGrid):
            def __init__(self, *args, **kwargs):
                seen.append(sum(ref() is not None for ref in made))
                super().__init__(*args, **kwargs)
                made.append(weakref.ref(self))

        monkeypatch.setattr(ms, "SinrGrid", Counted)
        text = ("command: mapsim\nseed: 5\nmapsim:\n"
                "  synthetic: {extent_m: 200, cellsize_m: 5}\n"
                "  auto_sites: {count: 2}\n"
                "  heights_m: [1.5, 20, 40, 150]\n  stride: 4\n")
        written = run_scenario(parse_scenario(text), tmp_path)
        assert seen == [0, 0, 0, 0]
        assert len(written) == 1 + 4

    def test_builds_each_grid_when_reached(self):
        city, sites = holed_city(6)
        cfg = ms.MapSimConfig(env=ch.dense_urban())
        grids = ms.sinr_grids(sites, city, [1.5, 60.0], cfg, stride=3)
        assert next(grids).ue_height_m == 1.5
        assert next(grids).ue_height_m == 60.0
        assert next(grids, None) is None


class TestSiteCsv:
    def test_round_trip(self, tmp_path):
        # each row's site stands MAST_M above its roof_h, angles in degrees
        sites = [ms.site_on_roof(FLAT, 100.0, 120.0, p_tx_dbm=43.0),
                 ms.SectorSite(position=Position3D(300, 50, 25),
                               p_tx_dbm=46.0, azimuth0=math.radians(30),
                               antenna=SectorAntenna(
                                   electrical_tilt=math.radians(-2.5),
                                   max_gain_dbi=18.0,
                                   beamwidth_3db=math.radians(90)))]
        p = tmp_path / "sites.csv"
        p.write_text(",".join(SITE_CSV_COLUMNS) + "\n"
                     + "100,120,0,43,0,8,16,65\n"
                     + f"300,50,{25.0 - ms.MAST_M},46,30,-2.5,18,90\n")
        assert _load_sites(p, FLAT) == sites

    @pytest.mark.parametrize("value", ["nan", "-inf", "oops", ""])
    def test_bad_value_names_line_and_column(self, tmp_path, value):
        p = tmp_path / "bad.csv"
        p.write_text(",".join(SITE_CSV_COLUMNS) + "\n"
                     + "50,50,0,46,0,8,16,65\n"
                     + f"50,50,0,46,{value},8,16,65\n")
        with pytest.raises(ScenarioError,
                           match="line 3: azimuth0_deg must be a finite"):
            _load_sites(p, FLAT)

    def test_missing_column_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x,y\n1,2\n")
        with pytest.raises(ScenarioError):
            _load_sites(p, FLAT)

    def test_byte_order_mark_loads(self, tmp_path):
        # spreadsheets export UTF-8 CSV with a BOM, which read as part of
        # the first column's name: "missing columns ['x']"
        text = (",".join(SITE_CSV_COLUMNS) + "\n" + "100,120,0,43,0,8,16,65\n"
                + "300,50,20,46,30,-2.5,18,90\n")
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes()[:3] == b"\xef\xbb\xbf"
        assert _load_sites(marked, FLAT) == _load_sites(plain, FLAT)

    def test_just_off_the_map_shows_the_value(self, tmp_path):
        p = tmp_path / "sites.csv"
        x = math.nextafter(400.0, math.inf)
        p.write_text(",".join(SITE_CSV_COLUMNS) + "\n"
                     + f"{x!r},50,0,46,0,8,16,65\n")
        with pytest.raises(ScenarioError, match=r"line 2: x: 400\.00000000000006 "
                                                r"lies off the map, outside "
                                                r"\[0, 400\]$"):
            _load_sites(p, FLAT)

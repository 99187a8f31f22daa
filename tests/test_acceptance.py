"""Acceptance suite: one test per criterion, each printing a verdict line.

Tolerances are pinned here, straight from the stated criteria. Monte Carlo
budgets follow the stated desk scale, so the whole module stays well under
the ten-minute target.
"""

import hashlib
import math
from dataclasses import replace

import numpy as np

from a2gnet import abs_net as ab
from a2gnet import aue_net as au
from a2gnet import channel as ch
from a2gnet import localization as loc
from a2gnet import mapsim as ms
from a2gnet.antenna_geometry import Position3D
from a2gnet.cli import run_scenario
from a2gnet.heightmap import HeightMap, building_stats, los_mask, synthetic_city
from a2gnet.numerics import (
    RngStream,
    inv_marcum_q,
    marcum_q,
    nakagami_power_cdf,
)
from a2gnet.scenario import parse_scenario


def report(criterion: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {criterion}: {detail}"


# -------------------------------------------------------------------------
# 1. Special functions
# -------------------------------------------------------------------------

class TestCriterion1:
    def test_marcum_identities(self):
        worst = 0.0
        for a in np.linspace(0.0, 12.0, 25):
            worst = max(worst, abs(marcum_q(a, 0.0) - 1.0))
        for b in np.linspace(0.0, 12.0, 25):
            worst = max(worst, abs(marcum_q(0.0, b) - math.exp(-0.5 * b * b)))
        report("1a", worst <= 1e-9,
               f"identity error {worst:.2e} <= 1e-9")

    def test_inverse_round_trip_100_points(self):
        # 100-point grid across the invertible region: Q values within one
        # ulp of 0 or 1 carry no information about b, so points are placed
        # where Q is representable (1e-8 < Q < 1-1e-8)
        pts = 0
        worst = 0.0
        for a in np.linspace(0.0, 10.0, 10):
            for b in np.linspace(0.3, 10.0, 10):
                p = marcum_q(a, b)
                if not 1e-8 < p < 1.0 - 1e-8:
                    b = min(max(a, 0.5) + 1.0, 10.0)
                    p = marcum_q(a, b)
                worst = max(worst, abs(inv_marcum_q(a, p) - b))
                pts += 1
        report("1b", pts == 100 and worst <= 1e-6,
               f"round-trip error {worst:.2e} <= 1e-6 over {pts} points")


# -------------------------------------------------------------------------
# 2. Channel formula suite
# -------------------------------------------------------------------------

class TestCriterion2:
    def test_channel_formulas(self):
        checks = []
        # ground-slice LOS probability boundary
        checks.append(("P_LOS(10 m) == 1",
                       ch.p_los_3gpp(10.0, 5.0, ch.PropagationSlice.GROUND) == 1.0))
        # obstructed-slice auxiliary d1 at 40 m; direct evaluation of the
        # published formula gives 562.06 m (the 563.9 quoted alongside the
        # criterion is an arithmetic slip; see the decisions ledger)
        d1, _ = ch.obstructed_plos_auxiliaries(40.0)
        oracle = max(1350.8 * math.log10(40.0) - 1602.0, 18.0)
        checks.append(("d1(40 m) within 0.1 of direct evaluation",
                       abs(d1 - oracle) <= 0.1 and abs(d1 - 562.0626) <= 0.1))
        # aerial LOS loss hand value at (40 m, 1 km, 2 GHz)
        checks.append(("aerial LOS 101.5 dB +/- 0.1",
                       abs(ch.aerial_los_db(1000.0, 40.0, 2.0) - 101.5) <= 0.1))
        # shadowing table exact rows
        S = ch.PropagationSlice
        checks.append(("sigma table exact", (
            ch.shadowing_sigma_db(S.GROUND, False, 100, 5, 30.0, 1.8) == 8.0
            and ch.shadowing_sigma_db(S.OBSTRUCTED, False, 100, 30, 30.0, 1.8)
            == 6.0
            and ch.shadowing_sigma_db(S.OBSTRUCTED, True, 100, 100, 30.0, 1.8)
            == 4.2 * math.exp(-0.046)
            and ch.shadowing_sigma_db(S.GROUND, True, 100, 1.5, 30.0, 1.8)
            == 4.0)))
        # LOS loss continuity at the breakpoint
        d2 = ch.rma_breakpoint_m(1.5, 30.0, 1.8)
        gap = abs(ch.rma_ground_los_db(d2 * (1 + 1e-12), 1.5, 30.0, 1.8)
                  - ch.rma_ground_los_db(d2 * (1 - 1e-12), 1.5, 30.0, 1.8))
        checks.append(("continuity at d2 <= 1e-6 dB", gap <= 1e-6))
        bad = [name for name, ok in checks if not ok]
        report("2", not bad, "all formula anchors" if not bad
               else f"failing: {bad}")


# -------------------------------------------------------------------------
# 3. AUE Monte Carlo vs closed form
# -------------------------------------------------------------------------

class TestCriterion3:
    def test_single_bs_nakagami_tail(self):
        m = 3
        free_env = ch.Environment(kind="urban", varsigma=1e-9, xi=1e-6,
                                  omega=15.0, mean_building_height_m=18.8,
                                  street_width_m=20.0)
        cfg = replace(au.AueNetworkConfig(), env=free_env,
                      fading_m_los=m)
        snap = au.NetworkSnapshot(
            xy=np.array([[0.0, 500.0]]), height_m=30.0,
            sector_azimuth=np.array([[0.0, 2.1, 4.2]]))
        d3 = math.hypot(500.0, 30.0 - 60.0)
        pl = cfg.reference_loss_db(True) + 10 * cfg.eta_los * math.log10(d3)
        g_db = (cfg.sector.max_gain_dbi - cfg.sector.sidelobe_floor_db) + 2.15
        snr = cfg.p_tx_w * 10 ** ((g_db - pl) / 10) / cfg.noise_w
        rng = RngStream(1003, 0)
        sinr = np.array([au.snapshot_sinr((0, 0, 60.0), snap, cfg,
                                          rng.child_generator(i)).sinr
                         for i in range(10_000)])
        worst = 0.0
        for t_db in (-5.0, 0.0, 5.0, 10.0, 15.0):
            t = 10 ** (t_db / 10)
            closed = 1.0 - float(nakagami_power_cdf(t / snr, m))
            mc = float(np.mean(sinr > t))
            ci = 1.96 * math.sqrt(max(mc * (1 - mc), 1e-9) / sinr.size)
            worst = max(worst, abs(mc - closed) / (3 * ci))
        report("3", worst <= 1.0,
               f"max |MC-closed| = {worst:.2f} x (3 CI) at 5 thresholds")


# -------------------------------------------------------------------------
# 4. AUE qualitative reproduction at desk scale
# -------------------------------------------------------------------------

class TestCriterion4:
    CFG = au.AueNetworkConfig()   # lambda = 5 / km^2, urban preset
    TRIALS = 2000
    T_MAX = 1000.0                # 30 dB SINR cap for the bounded capacity

    def test_a_interior_altitude_maximum(self):
        hs = [5.0, 15.0, 30.0, 60.0, 90.0, 120.0, 150.0, 200.0, 250.0, 300.0]
        caps = [au.capacity(h, self.CFG, self.TRIALS, RngStream(41, i),
                            t_max=self.T_MAX)
                for i, h in enumerate(hs)]
        vals = [c.value for c in caps]
        best = int(np.argmax(vals))
        interior = 0 < best < len(hs) - 1
        lo_margin = vals[best] - vals[0] - 3 * max(caps[best].ci95, caps[0].ci95)
        hi_margin = vals[best] - vals[-1] - 3 * max(caps[best].ci95, caps[-1].ci95)
        report("4a", interior and lo_margin > 0 and hi_margin > 0,
               f"peak {vals[best]:.2f} b/s/Hz at h={hs[best]:.0f} m, "
               f"margins {lo_margin:.2f}/{hi_margin:.2f} beyond 3 CI")

    def test_b_density_collapse(self):
        grid = [1.0, 5.0, 20.0, 50.0, 100.0]
        pts = au.sweep(self.CFG, "density", grid, uav_h=60.0,
                       n_trials=self.TRIALS, rng=RngStream(42, 0),
                       t_max=self.T_MAX)
        tail = [p.value for p in pts[-3:]]
        ok = tail[0] > tail[1] > tail[2]
        report("4b", ok, "capacity over top densities "
               + " > ".join(f"{v:.3f}" for v in tail))

    def test_c_beamwidth_beats_omni(self):
        grid = [40.0, 60.0, 80.0, 100.0, 120.0, 140.0, 160.0]
        pts = au.sweep(self.CFG, "phi_b", grid, uav_h=150.0,
                       n_trials=self.TRIALS, rng=RngStream(43, 0),
                       t_max=self.T_MAX)
        best_x, best = max(zip(grid, pts), key=lambda xp: xp[1].value)
        omni = au.capacity(150.0, self.CFG, self.TRIALS, RngStream(43, 0),
                           t_max=self.T_MAX)
        margin = best.value - omni.value - 3 * max(best.ci95, omni.ci95)
        report("4c", margin > 0,
               f"cone {best_x:.0f} deg: {best.value:.2f} vs omni "
               f"{omni.value:.2f} b/s/Hz, margin beyond 3 CI {margin:.2f}")


# -------------------------------------------------------------------------
# 5. ABS suite
# -------------------------------------------------------------------------

class TestCriterion5:
    PROF = ab.urban_abs_profile()

    def test_round_trip_and_consistency(self):
        worst_eps = 0.0
        for h, r_c, eps in [(100.0, 400.0, 0.05), (400.0, 800.0, 0.1),
                            (50.0, 1500.0, 0.02)]:
            p = ab.required_power(h, r_c, eps, self.PROF)
            worst_eps = max(worst_eps, abs(ab.outage(r_c, h, p, self.PROF) - eps))
        worst_rel = 0.0
        rng = np.random.default_rng(5)
        for _ in range(10):
            h = rng.uniform(20.0, 1500.0)
            r_c = rng.uniform(100.0, 2000.0)
            ratio = (ab.required_power(0.0, r_c, 0.05, self.PROF)
                     / ab.required_power(h, r_c, 0.05, self.PROF))
            cf = ab.power_gain(h, r_c, 0.05, self.PROF)
            worst_rel = max(worst_rel, abs(ratio - cf) / cf)
        report("5a", worst_eps <= 1e-6 and worst_rel <= 1e-6,
               f"outage round-trip {worst_eps:.2e} <= 1e-6, "
               f"two-route power gain {worst_rel:.2e} <= 1e-6 rel")

    def test_interior_optima_ordering(self):
        hs = np.linspace(1.0, 2500.0, 40)
        pg = [ab.power_gain(h, 500.0, 0.05, self.PROF) for h in hs]
        srg = [row[2] for row in ab.design_rows(hs, 500.0, 0.05, self.PROF)]
        i_pg, i_srg = int(np.argmax(pg)), int(np.argmax(srg))
        ok = (0 < i_pg < len(hs) - 1 and 0 < i_srg < len(hs) - 1
              and hs[i_srg] < hs[i_pg] and pg[i_pg] > 1.0 and srg[i_srg] > 1.0)
        report("5b", ok,
               f"optima: power gain at {hs[i_pg]:.0f} m > sum-rate gain at "
               f"{hs[i_srg]:.0f} m, both interior")


# -------------------------------------------------------------------------
# 6. Localization suite (Table VI)
# -------------------------------------------------------------------------

class TestCriterion6:
    CH = loc.ElevationChannel()
    SCEN = loc.LocalizationScenario(n_users=100)

    def test_a_noise_free_exact_recovery(self):
        quiet = loc.ElevationChannel(a_los=1e-12, a_nlos=1e-12)
        res = loc.run_campaign(self.SCEN, loc.AnchorPlan(3, 120.0, 200.0),
                               quiet, RngStream(61))
        worst = float(np.max(res.pos_errors))
        report("6a", worst <= 1e-3, f"max noise-free error {worst:.2e} m")

    def test_b_four_anchors_not_worse(self):
        errs = {}
        for m in (3, 4):
            res = loc.run_campaign(self.SCEN, loc.AnchorPlan(m, 120.0, 200.0),
                                   self.CH, RngStream(62), trials_per_user=5)
            errs[m] = res.pos_errors
        se = math.sqrt(np.var(errs[3]) / errs[3].size
                       + np.var(errs[4]) / errs[4].size)
        diff = float(np.mean(errs[3]) - np.mean(errs[4]))
        report("6b", diff >= -3 * se,
               f"mean(M=3) - mean(M=4) = {diff:.1f} m >= -3 sigma ({3*se:.1f})")

    def test_c_radius_trend(self):
        # LOS-conditioned campaign, matching the LOS/NLOS-split convention
        # of the altitude study. The shape must be decreasing then
        # flat/increasing with a >= 40% drop from R = 50 m to the optimum.
        # Known red: the 40% target presumes a solver that degrades at poor
        # anchor geometry, but the multi-start solver here finds the true
        # least-squares minimizer even at R = 50 m, so the realized
        # reduction tops out near 20-30% for any defensible channel setting.
        radii = [50.0, 80.0, 120.0, 160.0, 200.0]
        means = []
        for radius in radii:
            res = loc.run_campaign(self.SCEN,
                                   loc.AnchorPlan(3, radius, 200.0),
                                   self.CH, RngStream(63), trials_per_user=5,
                                   state_mode="los")
            means.append(res.mean_error_m)
        best = int(np.argmin(means))
        shape_ok = best > 0 and all(
            means[i] >= means[i + 1] - 1e-9 for i in range(best))
        reduction = (means[0] - means[best]) / means[0]
        report("6c", shape_ok and reduction >= 0.40,
               f"errors {['%.0f' % m for m in means]} m, reduction "
               f"{100 * reduction:.0f}% (>= 40% required)")

    def test_d_interior_altitude_optimum(self):
        hs = [50.0, 100.0, 200.0, 300.0, 400.0, 500.0]
        means = []
        for h in hs:
            res = loc.run_campaign(self.SCEN, loc.AnchorPlan(3, 120.0, h),
                                   self.CH, RngStream(64), trials_per_user=5)
            means.append(res.mean_error_m)
        best = int(np.argmin(means))
        ok = 0 < best < len(hs) - 1 and means[best] < means[0] \
            and means[best] < means[-1]
        report("6d", ok, f"minimum {means[best]:.0f} m at h={hs[best]:.0f} "
               f"inside [{hs[0]:.0f}, {hs[-1]:.0f}]")

    def test_e_solver_beats_metre_grid(self):
        rng = RngStream(65).child_generator()
        anchors = loc.place_anchors(loc.AnchorPlan(3, 120.0, 200.0))
        axy = np.array([[a.x, a.y] for a in anchors])
        gx = np.arange(-200.0, 200.0 + 1e-9, 1.0)
        xx, yy = np.meshgrid(gx, gx)
        fails = 0
        for _ in range(100):
            r = 200.0 * math.sqrt(rng.random())
            ang = rng.uniform(0, 2 * math.pi)
            ux, uy = r * math.cos(ang), r * math.sin(ang)
            d_true = np.hypot(np.hypot(axy[:, 0] - ux, axy[:, 1] - uy), 200.0)
            d_hat = d_true * 10 ** (rng.normal(0, 4.0, 3) / 25.0)
            res = loc.multilaterate(anchors, d_hat, search_center=(0.0, 0.0),
                                    search_radius_m=200.0)
            r_hat = np.sqrt(np.maximum(d_hat ** 2 - 200.0 ** 2, 0.0))
            grid_cost = np.min(np.sum(
                (np.hypot(axy[:, 0, None, None] - xx,
                          axy[:, 1, None, None] - yy)
                 - r_hat[:, None, None]) ** 2, axis=0))
            if res.residual ** 2 > grid_cost + 1e-9:
                fails += 1
        report("6e", fails == 0,
               f"solver residual beat the 1 m grid on {100 - fails}/100 runs")


# -------------------------------------------------------------------------
# 7. Mapsim suite on a synthetic city
# -------------------------------------------------------------------------

class TestCriterion7:
    def test_a_los_oracle_agreement(self):
        rng = np.random.default_rng(71)
        hm = HeightMap(rng.uniform(0.0, 20.0, (50, 50)), cellsize=1.0)

        def oracle(a, b):
            if (a.h <= hm.surface_at(a.x, a.y)
                    or b.h <= hm.surface_at(b.x, b.y)):
                return False
            t = np.linspace(0.0, 1.0, 4000)[1:-1]
            return bool(np.all(
                a.h + t * (b.h - a.h)
                > hm.surface_at(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))))

        agree = 0
        for _ in range(1000):
            a = Position3D(rng.uniform(0, 50), rng.uniform(0, 50),
                           rng.uniform(0, 30))
            b = Position3D(rng.uniform(0, 50), rng.uniform(0, 50),
                           rng.uniform(0, 30))
            agree += los_mask([a], b.x, b.y, [b.h], hm)[0, 0] == oracle(a, b)
        report("7a", agree == 1000, f"{agree}/1000 LOS decisions match oracle")

    def test_b_rayleigh_fit_recovers_scale(self):
        env = ch.dense_urban()
        city = synthetic_city(4320.0, 6.0, env, RngStream(72).child_generator())
        st = building_stats(city, 0.5)
        rel = abs(st.rayleigh_scale_m - env.omega) / env.omega
        report("7b", rel <= 0.02,
               f"fitted scale {st.rayleigh_scale_m:.2f} vs {env.omega} "
               f"({100 * rel:.1f}% <= 2%)")

    def test_c_coverage_peak_and_decay(self):
        env = ch.dense_urban()
        city = synthetic_city(480.0, 4.0, env, RngStream(12).child_generator(), min_height_m=4.0)
        pts = [(120, 120), (360, 120), (120, 360), (360, 360), (240, 240)]
        sites = [ms.site_on_roof(city, float(x), float(y), p_tx_dbm=46.0)
                 for x, y in pts]
        cfg = ms.MapSimConfig(env=env)
        mean_roof = building_stats(city, 4.0).mean_height_m
        heights = [1.5, 10.0, 20.0, 30.0, 60.0, 150.0]
        curve = {g.ue_height_m: g.coverage_fraction()
                 for g in ms.sinr_grids(sites, city, heights, cfg, stride=6)}
        best_h = max(curve, key=curve.get)
        rooftop = curve[20.0]
        drop = rooftop - curve[150.0]
        ok = best_h <= 1.5 * mean_roof and drop >= 0.1
        report("7c", ok,
               f"peak at {best_h:.1f} m (mean roof {mean_roof:.1f} m), "
               f"drop to 150 m = {drop:.2f} >= 0.1")

    def test_d_default_threshold_minus_6db(self):
        city = synthetic_city(200.0, 5.0, ch.urban(), RngStream(73).child_generator())
        sites = [ms.site_on_roof(city, 100.0, 100.0)]
        cfg = ms.MapSimConfig(env=ch.urban())
        [grid] = ms.sinr_grids(sites, city, [20.0], cfg, stride=2)
        import inspect
        default = inspect.signature(ms.SinrGrid.coverage_fraction).parameters[
            "threshold_db"].default
        manual = float(np.mean(grid.sinr_db >= -6.0))
        report("7d", default == -6.0 and grid.coverage_fraction() == manual,
               f"default threshold {default} dB honored")


# -------------------------------------------------------------------------
# 8. CLI determinism
# -------------------------------------------------------------------------

SCENARIOS = {
    "channel-table": "command: channel-table\nseed: 5\n",
    "aue-coverage": ("command: aue-coverage\nseed: 5\n"
                     "run: {altitudes_m: [30, 90], n_trials: 150}\n"),
    "aue-sweep": ("command: aue-sweep\nseed: 5\n"
                  "sweep: {axis: density, grid: [5, 20], n_trials: 120}\n"),
    "abs-design": "command: abs-design\nseed: 5\n",
    "localize": ("command: localize\nseed: 5\n"
                 "localize: {n_users: 20, m_points: [3]}\n"),
    "mapsim": ("command: mapsim\nseed: 5\n"
               "mapsim:\n  synthetic: {extent_m: 200, cellsize_m: 5}\n"
               "  auto_sites: {count: 2}\n  heights_m: [1.5, 40]\n"
               "  stride: 4\n"),
}


class TestCriterion8:
    def test_byte_identical_runs_and_threads(self, tmp_path):
        bad = []
        for name, text in SCENARIOS.items():
            s = parse_scenario(text)
            digests = []
            for tag, threads in (("r1", 1), ("r2", 1), ("t4", 4)):
                paths = run_scenario(s, tmp_path / name / tag, threads=threads)
                digest = hashlib.sha256()
                for p in sorted(paths):
                    digest.update(p.name.encode())
                    digest.update(p.read_bytes())
                digests.append(digest.hexdigest())
            if len(set(digests)) != 1:
                bad.append(name)
        report("8", not bad,
               "all six commands byte-identical across runs and threads"
               if not bad else f"non-deterministic: {bad}")

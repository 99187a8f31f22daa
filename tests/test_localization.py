import dataclasses
import math
import sys
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize
from scipy.optimize._numdiff import approx_derivative

from a2gnet import localization as loc
from a2gnet.antenna_geometry import Position3D
from a2gnet.errors import DomainError
from a2gnet.numerics import RngStream

TABLE_CH = loc.ElevationChannel()
QUIET_CH = loc.ElevationChannel(a_los=1e-12, a_nlos=1e-12)


class TestAnchorPlan:
    def test_inter_distance_m4(self):
        plan = loc.AnchorPlan(4, 120.0, 200.0)
        assert plan.inter_anchor_distance_m == pytest.approx(169.71, abs=0.01)

    def test_inter_distance_m3(self):
        plan = loc.AnchorPlan(3, 120.0, 200.0)
        assert plan.inter_anchor_distance_m == pytest.approx(207.85, abs=0.01)

    def test_chord_approaches_arc(self):
        plan = loc.AnchorPlan(3600, 120.0, 200.0)
        arc = 2 * math.pi * 120.0 / 3600
        assert plan.inter_anchor_distance_m == pytest.approx(arc, rel=1e-5)

    def test_anchor_count_and_spacing(self):
        plan = loc.AnchorPlan(5, 80.0, 150.0)
        pts = loc.place_anchors(plan)
        assert len(pts) == 5
        for a, b in zip(pts, pts[1:]):
            chord = math.hypot(a.x - b.x, a.y - b.y)
            assert chord == pytest.approx(plan.inter_anchor_distance_m, rel=1e-12)
            assert a.h == plan.h_abs_m

    def test_too_few_anchors(self):
        with pytest.raises(DomainError):
            loc.AnchorPlan(2, 120.0, 200.0)

    @pytest.mark.parametrize("m", [3.5, 3.0, True, "3"])
    def test_anchor_count_must_be_an_integer(self, m):
        # 3.5 used to construct, and place_anchors then raised a raw
        # TypeError
        with pytest.raises(DomainError, match="m_points"):
            loc.AnchorPlan(m, 120.0, 200.0)

    def test_numpy_integer_count(self):
        assert len(loc.place_anchors(loc.AnchorPlan(np.int64(4), 1.0, 1.0))) == 4

    @pytest.mark.parametrize("radius, h, name", [
        (math.nan, 200.0, "radius_m"), (math.inf, 200.0, "radius_m"),
        (120.0, math.nan, "h_abs_m"), (120.0, math.inf, "h_abs_m"),
        (0.0, 200.0, "radius_m"), (120.0, -5.0, "h_abs_m")])
    def test_radius_and_altitude_positive_and_finite(self, radius, h, name):
        with pytest.raises(DomainError, match=name):
            loc.AnchorPlan(3, radius, h)


class TestElevationChannel:
    @pytest.mark.parametrize("name", [f.name for f in
                                      dataclasses.fields(loc.ElevationChannel)])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_constant_rejected(self, name, bad):
        # a NaN a_o or an infinite exponent ran a campaign without a word
        with pytest.raises(DomainError, match=name):
            loc.ElevationChannel(**{name: bad})

    def test_nlos_sigma_dominates(self):
        for theta in np.linspace(0.01, math.pi / 2, 50):
            assert TABLE_CH.sigma_db(theta, False) > TABLE_CH.sigma_db(theta, True)

    def test_sigma_decreasing(self):
        th = np.linspace(0.0, math.pi / 2, 50)
        for los in (True, False):
            s = TABLE_CH.sigma_db(th, los)
            assert np.all(np.diff(s) < 0)

    def test_p_los_monotone_in_bounds(self):
        th = np.linspace(0.0, math.pi / 2, 200)
        p = TABLE_CH.p_los(th)
        assert np.all((0 <= p) & (p <= 1))
        assert np.all(np.diff(p) >= 0)

    def test_sharp_transition_near_a_o(self):
        assert TABLE_CH.p_los(math.radians(44.0)) < 0.01
        assert TABLE_CH.p_los(math.radians(50.0)) > 0.99


class TestSampleRssDistance:
    def test_noise_free_inversion(self):
        d, los = loc.sample_rss_distance(250.0, 0.9, QUIET_CH, RngStream(1).child_generator())
        assert d == pytest.approx(250.0, abs=1e-6)

    def test_zero_mean_log_ratio(self):
        gen = RngStream(2).child_generator()
        logs = []
        for _ in range(100_000):
            d, _ = loc.sample_rss_distance(250.0, 0.8, TABLE_CH, gen,
                                           force_state=True)
            logs.append(math.log(d / 250.0))
        sigma = TABLE_CH.sigma_db(0.8, True) * math.log(10) / (10 * TABLE_CH.eta_los)
        assert abs(np.mean(logs)) < 3 * sigma / math.sqrt(len(logs))

    def test_state_follows_p_los(self):
        gen = RngStream(3).child_generator()
        theta = math.radians(47.1)
        states = [loc.sample_rss_distance(250.0, theta, TABLE_CH, gen)[1]
                  for _ in range(20_000)]
        assert np.mean(states) == pytest.approx(float(TABLE_CH.p_los(theta)), abs=0.01)

    def test_positive_distance_required(self):
        with pytest.raises(DomainError):
            loc.sample_rss_distance(0.0, 0.5, TABLE_CH, RngStream(1).child_generator())

    @pytest.mark.parametrize("d, theta, name", [
        (math.nan, 0.5, "true_d_m"), (math.inf, 0.5, "true_d_m"),
        (250.0, math.nan, "theta_rad")])
    def test_non_finite_input_rejected(self, d, theta, name):
        # NaN compared false with `<= 0` and drew (nan, False)
        with pytest.raises(DomainError, match=name):
            loc.sample_rss_distance(d, theta, TABLE_CH, RngStream(1).child_generator())


def square_anchors(h=200.0, r=120.0):
    return [Position3D(r, 0, h), Position3D(0, r, h),
            Position3D(-r, 0, h), Position3D(0, -r, h)]


class TestMultilaterate:
    def test_exact_recovery(self):
        anchors = square_anchors()
        true_xy = (43.0, -27.0)
        d = [math.hypot(math.hypot(a.x - true_xy[0], a.y - true_xy[1]), a.h)
             for a in anchors]
        res = loc.multilaterate(anchors, d)
        assert math.hypot(res.x - true_xy[0], res.y - true_xy[1]) <= 1e-3
        assert not res.ill_conditioned

    def test_short_range_clamp(self):
        anchors = square_anchors(h=200.0)
        d = [150.0, 210.0, 250.0, 220.0]  # first is below the altitude
        res = loc.multilaterate(anchors, d)
        assert math.isfinite(res.x) and math.isfinite(res.y)

    def test_collinear_flagged(self):
        anchors = [Position3D(-100, 0, 200), Position3D(0, 0, 200),
                   Position3D(100, 0, 200)]
        d = [230.0, 205.0, 230.0]
        res = loc.multilaterate(anchors, d)
        assert res.ill_conditioned

    def test_beats_one_meter_grid_search(self):
        rng = RngStream(10).child_generator()
        anchors = loc.place_anchors(loc.AnchorPlan(3, 120.0, 200.0))
        axy = np.array([[a.x, a.y] for a in anchors])
        gx = np.arange(-200.0, 200.0 + 1e-9, 1.0)
        xx, yy = np.meshgrid(gx, gx)
        for _ in range(100):
            r = 200.0 * math.sqrt(rng.random())
            ang = rng.uniform(0, 2 * math.pi)
            ux, uy = r * math.cos(ang), r * math.sin(ang)
            d_true = np.hypot(np.hypot(axy[:, 0] - ux, axy[:, 1] - uy), 200.0)
            d_hat = d_true * 10 ** (rng.normal(0, 3.0, 3) / 20.0)
            res = loc.multilaterate(anchors, d_hat,
                                    search_center=(0.0, 0.0),
                                    search_radius_m=200.0)
            r_hat = np.sqrt(np.maximum(d_hat ** 2 - 200.0 ** 2, 0.0))
            grid_cost = np.min(np.sum(
                (np.hypot(axy[:, 0, None, None] - xx,
                          axy[:, 1, None, None] - yy)
                 - r_hat[:, None, None]) ** 2, axis=0))
            assert res.residual ** 2 <= grid_cost + 1e-9

    def test_translation_equivariance(self):
        anchors = square_anchors()
        d = [230.0, 215.0, 250.0, 240.0]
        base = loc.multilaterate(anchors, d)
        dx, dy = 1500.0, -800.0
        shifted = [Position3D(a.x + dx, a.y + dy, a.h) for a in anchors]
        res = loc.multilaterate(shifted, d)
        assert res.x == pytest.approx(base.x + dx, abs=1e-5)
        assert res.y == pytest.approx(base.y + dy, abs=1e-5)

    def test_input_validation(self):
        anchors = square_anchors()
        with pytest.raises(DomainError):
            loc.multilaterate(anchors[:2], [100.0, 100.0])
        with pytest.raises(DomainError):
            loc.multilaterate(anchors, [100.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -230.0])
    def test_range_must_be_non_negative_and_finite(self, bad):
        # a non-finite range made every grid cost NaN and the solve end in a
        # TypeError; a negative one was squared into a positive range
        with pytest.raises(DomainError, match="d_hat"):
            loc.multilaterate(square_anchors(), [bad, 215.0, 250.0, 240.0])

    def test_overflowing_horizontal_range_named(self):
        # d_hat ** 2 overflowed, every grid cost was NaN and the solve ended
        # in a TypeError
        anchors = loc.place_anchors(loc.AnchorPlan(3, 100.0, 100.0))
        with pytest.raises(DomainError, match="^d_hat gives a horizontal"):
            loc.multilaterate(anchors, [1e300] * 3)
        assert math.isfinite(loc.multilaterate(anchors, [1e150] * 3).y)

    def test_campaign_without_a_finite_descent_keeps_the_grid_seed(self):
        # a 1e300 m user disc overflows every range: no descent ends at a
        # finite cost, and the solve falls back to its best grid seed
        with np.errstate(over="ignore", invalid="ignore"):
            res = loc.run_campaign(loc.LocalizationScenario(2, 1e300),
                                   loc.AnchorPlan(3, 100.0, 100.0),
                                   loc.ElevationChannel(), RngStream(1))
        assert res.pos_errors.shape == (2,)
        assert np.all(np.isfinite(res.pos_errors))

    @pytest.mark.parametrize("radius", [math.nan, math.inf, 0.0, -10.0])
    def test_search_radius_must_be_positive_and_finite(self, radius):
        # 0 searched a one-point grid, a negative radius a mirrored one
        with pytest.raises(DomainError, match="search_radius_m"):
            loc.multilaterate(square_anchors(), [230.0, 215.0, 250.0, 240.0],
                              search_radius_m=radius)

    def test_search_center_must_be_finite(self):
        with pytest.raises(DomainError, match="search_center"):
            loc.multilaterate(square_anchors(), [230.0, 215.0, 250.0, 240.0],
                              search_center=(0.0, math.nan))

    @pytest.mark.parametrize("anchor", [(math.nan, 0.0, 200.0),
                                        (0.0, math.inf, 200.0),
                                        (0.0, -120.0, math.nan)])
    def test_anchor_coordinates_must_be_finite(self, anchor):
        # a non-finite anchor made every grid cost NaN; Position3D now
        # rejects it when it is built, so no solve can be handed one
        name = "xyh"[[math.isfinite(v) for v in anchor].index(False)]
        with pytest.raises(DomainError, match=f"^{name} must be finite$"):
            Position3D(*anchor)


def _range_problem(rng):
    """One multilateration solve as the campaign poses it, or wider."""
    m = int(rng.integers(3, 7))
    scale = 10.0 ** rng.uniform(0.0, math.log10(300.0))
    axy = rng.uniform(-scale, scale, (m, 2))
    r_hat = np.abs(rng.normal(scale, scale / 2, m))
    x0 = rng.uniform(-scale, scale, 2)
    kind = rng.integers(4)
    if kind == 1:  # a grid start on an axis
        x0[rng.integers(2)] = 0.0
    elif kind == 2:  # both steps on the max(1, |x|) = 1 branch
        x0 = rng.uniform(-1.0, 1.0, 2)
    elif kind == 3:
        x0[:] = 0.0
    return x0, axy, r_hat


def _exact_range_problem(rng):
    """Ranges with no noise: most descents stop on the step test, xtol."""
    x0, axy, _ = _range_problem(rng)
    scale = np.max(np.abs(axy))
    true_xy = rng.uniform(-scale, scale, 2)
    return x0, axy, np.hypot(*(axy - true_xy).T)


def _collinear_problem(rng):
    """Anchors on one line: some descents stop on gtol or run out of maxfev."""
    x0, axy, r_hat = _range_problem(rng)
    axy[:, 1] = 0.0
    return x0, axy, r_hat


def _rows(axy):
    """The solver's anchor layout: x and y as two contiguous rows."""
    ax, ay = np.ascontiguousarray(axy.T)
    return ax, ay


def _numpy_residuals(xy, ax, ay, r_hat):
    """The residuals as numpy arrays: the reference for the float form."""
    return np.hypot(np.subtract(ax, xy[0]), np.subtract(ay, xy[1])) \
        - np.asarray(r_hat)


def _numpy_jacobian(xy, ax, ay, r_hat):
    """The forward-difference columns from three np.hypot calls over the
    anchor rows: the reference for the float form."""
    ax, ay, r_hat = (np.asarray(v, dtype=float) for v in (ax, ay, r_hat))
    x, y = xy.tolist()
    xh = x + loc._FD_REL_STEP * (1.0 if x >= 0 else -1.0) * max(1.0, abs(x))
    yh = y + loc._FD_REL_STEP * (1.0 if y >= 0 else -1.0) * max(1.0, abs(y))
    dx = ax - x
    dy = ay - y
    f0 = np.hypot(dx, dy) - r_hat
    return np.array(((np.hypot(ax - xh, dy) - r_hat - f0) / (xh - x),
                     (np.hypot(dx, ay - yh) - r_hat - f0) / (yh - y)))


def _least_squares_solve(x0, ax, ay, r_hat):
    """The reference descent: least_squares on scipy's own forward difference
    of the numpy residuals.

    x_scale="jac" is MINPACK's own scaling, least_squares' default since
    scipy 1.16; passing it keeps the reference the same on older scipy.
    """
    return optimize.least_squares(_numpy_residuals, x0,
                                  args=(ax, ay, r_hat), method="lm",
                                  xtol=1e-10, x_scale="jac")


def _reference_jacobian(xy, anchors_xy, r_hat):
    # one broadcast over the point and its two steps; one row per anchor
    x, y = xy.tolist()
    hx, hy = (loc._FD_REL_STEP * (1.0 if v >= 0 else -1.0) * max(1.0, abs(v))
              for v in (x, y))
    d = anchors_xy - [[[x, y]], [[x + hx, y]], [[x, y + hy]]]
    f = np.hypot(d[..., 0], d[..., 1]) - r_hat
    return (f[1:] - f[0]).T / [(x + hx) - x, (y + hy) - y]


def reference_multilaterate(anchors, d_hat, search_center=None,
                            search_radius_m=None):
    """The simple multilaterate: a grid of its own per call, and each
    descent through optimize.leastsq on the row-per-anchor Jacobian."""
    axy = np.array([[a.x, a.y] for a in anchors])
    heights = np.array([a.h for a in anchors])
    d_hat = np.asarray(d_hat, dtype=float)
    r_hat = np.sqrt(np.maximum(d_hat ** 2 - heights ** 2, 0.0))
    centered = axy - axy.mean(axis=0)
    svals = np.linalg.svd(centered, compute_uv=False)
    ill = bool(svals[-1] < 1e-9 * max(svals[0], 1.0))
    if search_center is None:
        cx, cy = axy.mean(axis=0)
    else:
        cx, cy = search_center
    if search_radius_m is None:
        spread = float(np.max(np.hypot(*(axy - [cx, cy]).T)))
        search_radius_m = max(float(np.max(r_hat)) + spread, 1.0)
    gx = np.linspace(cx - search_radius_m, cx + search_radius_m, 21)
    gy = np.linspace(cy - search_radius_m, cy + search_radius_m, 21)
    xx, yy = np.meshgrid(gx, gy)
    d_grid = np.hypot(axy[:, 0, None, None] - xx, axy[:, 1, None, None] - yy)
    cost_grid = np.sum((d_grid - r_hat[:, None, None]) ** 2, axis=0)

    def residuals(xy, anchors_xy, r):
        return np.hypot(anchors_xy[:, 0] - xy[0], anchors_xy[:, 1] - xy[1]) - r

    flat = np.argsort(cost_grid, axis=None)[:3]
    best_xy, best_cost = None, math.inf
    for idx in flat:
        iy, ix = np.unravel_index(idx, cost_grid.shape)
        x, _, info, _, _ = optimize.leastsq(
            residuals, [xx[iy, ix], yy[iy, ix]], args=(axy, r_hat),
            Dfun=_reference_jacobian, full_output=True, ftol=1e-8,
            xtol=1e-10, gtol=1e-8, maxfev=200)
        cost = float(np.sum(info["fvec"] ** 2))
        if cost < best_cost:
            best_cost, best_xy = cost, x
    grid_best = float(cost_grid.flat[flat[0]])
    if grid_best < best_cost:
        iy, ix = np.unravel_index(flat[0], cost_grid.shape)
        best_xy = np.array([xx[iy, ix], yy[iy, ix]])
        best_cost = grid_best
    return loc.MultilaterationResult(float(best_xy[0]), float(best_xy[1]),
                                     math.sqrt(best_cost), ill)


def reference_campaign(scenario, plan, ch, rng, trials_per_user=1,
                       state_mode="independent"):
    """run_campaign's draws, each user solved by the public multilaterate."""
    anchors = loc.place_anchors(plan)
    axy = np.array([[a.x, a.y] for a in anchors])
    pos_errors = []
    for u in range(scenario.n_users):
        for t in range(trials_per_user):
            gen = rng.child_generator(u, t)
            r = scenario.user_area_radius_m * math.sqrt(gen.random())
            ang = gen.uniform(0.0, 2.0 * math.pi)
            ux, uy = r * math.cos(ang), r * math.sin(ang)
            r_true = np.hypot(axy[:, 0] - ux, axy[:, 1] - uy)
            d_true = np.hypot(r_true, plan.h_abs_m)
            theta = np.arctan2(plan.h_abs_m, r_true)
            if state_mode == "common":
                forced = bool(gen.random() < float(ch.p_los(np.min(theta))))
            else:
                forced = {"los": True, "nlos": False}.get(state_mode)
            d_hat = np.array([loc.sample_rss_distance(
                float(d_true[i]), float(theta[i]), ch, gen,
                force_state=forced)[0] for i in range(plan.m_points)])
            est = loc.multilaterate(anchors, d_hat, search_center=(0.0, 0.0),
                                    search_radius_m=scenario.user_area_radius_m)
            pos_errors.append(math.hypot(est.x - ux, est.y - uy))
    return np.array(pos_errors)


class TestRangeJacobian:
    def test_solves_match_scipy_two_point(self):
        # the production descent against the reference: same iterates,
        # same residuals, same evaluation count, same final Jacobian. Noisy
        # ranges stop on ftol; the other two corpora reach xtol, gtol and
        # maxfev, so a change to any one of the four settings shows
        corpora = [(_range_problem, 2024, 1000), (_exact_range_problem, 7, 300),
                   (_collinear_problem, 7, 300)]
        for draw, seed, count in corpora:
            rng = RngStream(seed).child_generator()
            for _ in range(count):
                x0, axy, r_hat = draw(rng)
                ax, ay = _rows(axy)
                ref = _least_squares_solve(x0, ax, ay, r_hat)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    x, fvec, nfev = loc._lm_descent(x0, ax, ay, r_hat)
                np.testing.assert_array_equal(x, ref.x)
                np.testing.assert_array_equal(fvec, ref.fun)
                assert nfev == ref.nfev
                np.testing.assert_array_equal(
                    loc._range_jacobian(ref.x, ax, ay, r_hat), ref.jac.T)

    def test_campaign_matches_least_squares(self, monkeypatch):
        # at R = 50 m the three starts of most solves end apart, so the
        # pick of the best start is compared too
        scen = loc.LocalizationScenario(n_users=20)
        plan = loc.AnchorPlan(3, 50.0, 200.0)
        fast = loc.run_campaign(scen, plan, TABLE_CH, RngStream(50))

        def reference_descent(x0, ax, ay, r_hat):
            res = _least_squares_solve(x0, ax, ay, r_hat)
            return res.x, res.fun, res.nfev

        monkeypatch.setattr(loc, "_lm_descent", reference_descent)
        ref = loc.run_campaign(scen, plan, TABLE_CH, RngStream(50))
        np.testing.assert_array_equal(fast.pos_errors, ref.pos_errors)

    def test_each_evaluation_is_an_iteration_step(self, monkeypatch):
        # lmder counts its own calls as nfev and njev. scipy's C binding
        # evaluates the residuals once more, at x0, to size them; any other
        # call outside the iteration (a shape check, say) shows as a surplus
        calls = {"f": 0, "j": 0}
        infos = []
        residuals, jacobian = loc._range_residuals, loc._range_jacobian
        lmder = loc.minpack._lmder

        def counted_residuals(*args):
            calls["f"] += 1
            return residuals(*args)

        def counted_jacobian(*args):
            calls["j"] += 1
            return jacobian(*args)

        def recorded_lmder(*args):
            out = lmder(*args)
            infos.append(out[1])
            return out

        monkeypatch.setattr(loc, "_range_residuals", counted_residuals)
        monkeypatch.setattr(loc, "_range_jacobian", counted_jacobian)
        monkeypatch.setattr(loc, "minpack",
                            types.SimpleNamespace(_lmder=recorded_lmder))
        rng = RngStream(11).child_generator()
        for draw in (_range_problem, _exact_range_problem, _collinear_problem):
            for _ in range(50):
                x0, axy, r_hat = draw(rng)
                calls.update(f=0, j=0)
                _, _, nfev = loc._lm_descent(x0, *_rows(axy), r_hat)
                assert nfev == infos[-1]["nfev"]
                assert calls["f"] == nfev + 1
                assert calls["j"] == infos[-1]["njev"] >= 1

    def test_start_is_not_overwritten(self):
        # lmder iterates in place on a float64 start it is handed
        x0 = np.array([30.0, -20.0])
        axy = np.array([[120.0, 0.0], [0.0, 120.0], [-120.0, 0.0]])
        x, _, _ = loc._lm_descent(x0, *_rows(axy), np.array([90.0, 100.0, 110.0]))
        np.testing.assert_array_equal(x0, [30.0, -20.0])
        assert not np.array_equal(x, x0)

    coord = st.one_of(st.sampled_from([0.0, -0.0]),
                      st.floats(-1.0, 1.0),
                      st.floats(1.0, 1e4), st.floats(-1e4, -1.0))

    @settings(max_examples=300, deadline=None)
    @given(x=st.tuples(coord, coord),
           anchors=st.lists(st.tuples(st.floats(-300.0, 300.0),
                                      st.floats(-300.0, 300.0),
                                      st.floats(0.0, 600.0)),
                            min_size=3, max_size=6))
    def test_equals_scipy_forward_difference(self, x, anchors):
        xy = np.array(x)
        ax, ay = _rows(np.array([a[:2] for a in anchors]))
        r_hat = np.array([a[2] for a in anchors])
        ref = approx_derivative(_numpy_residuals, xy, method="2-point",
                                args=(ax, ay, r_hat))
        np.testing.assert_array_equal(loc._range_jacobian(xy, ax, ay, r_hat),
                                      ref.T)


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


# scales from 1e-300 to 1e300 in both signs, signed zeros, subnormals, the
# smallest normal, values just below overflow, infinities and NaN
_HYPOT_CORPUS = sorted({
    *(s * m * 10.0 ** e for e in range(-300, 301, 20) for m in (1.0, 3.7)
      for s in (1.0, -1.0)),
    0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320, sys.float_info.min,
    sys.float_info.max, -sys.float_info.max, 1.2e308, 8.98846567431158e307,
    math.inf, -math.inf}, key=repr) + [math.nan]


class TestFloatCallbacks:
    def test_complex_abs_is_libm_hypot(self):
        # the callbacks take hypot as abs(complex(dx, dy)): CPython computes
        # it with the C library's hypot, which np.hypot calls too. Where that
        # overflows, complex abs raises and np.hypot warns and gives inf
        pairs = [(a, b) for a in _HYPOT_CORPUS for b in _HYPOT_CORPUS]
        pairs += RngStream(3).child_generator().uniform(-1e3, 1e3, (20000, 2)).tolist()
        overflowed = 0
        for a, b in pairs:
            with np.errstate(over="ignore"):
                want = float(np.hypot(a, b))
            try:
                got = abs(complex(a, b))
            except OverflowError:
                overflowed += 1
                assert want == math.inf and math.isfinite(a) \
                    and math.isfinite(b)
                continue
            # NaN compares by kind: CPython returns its own quiet NaN
            assert (_bits(got) == _bits(want)
                    or (math.isnan(got) and math.isnan(want))), (a, b)
        assert overflowed > 0
        # math.hypot runs its own algorithm and differs in the last bit
        assert sum(_bits(math.hypot(a, b)) != _bits(np.hypot(a, b))
                   for a, b in pairs[-20000:]) > 0

    @pytest.mark.parametrize("m", range(3, 9))
    def test_callbacks_equal_numpy_forms(self, m):
        rng = RngStream(5, m).child_generator()
        for k in range(200):
            scale = 10.0 ** rng.uniform(-1.0, 4.0)
            ax, ay = rng.uniform(-scale, scale, (2, m))
            r_hat = np.abs(rng.normal(scale, scale / 2, m))
            xy = rng.uniform(-scale, scale, 2)
            if k % 4 == 1:
                xy[k % 2] = 0.0
            elif k % 4 == 2:
                xy = -np.abs(xy)
            elif k % 4 == 3:
                xy = np.array([0.0, -0.0]) if k % 8 == 3 else -np.abs(xy) / scale
            rows = (ax.tolist(), ay.tolist(), r_hat.tolist())
            assert _bits(loc._range_residuals(xy, *rows)) \
                == _bits(_numpy_residuals(xy, ax, ay, r_hat))
            assert _bits(loc._range_jacobian(xy, *rows)) \
                == _bits(_numpy_jacobian(xy, ax, ay, r_hat))

    def test_overflowing_hypot_returns_numpy_result(self):
        # |(1.3e308, 1.3e308)| overflows: complex abs would raise
        # OverflowError, and the callbacks give np.hypot's inf, and warn
        rows = ([1.3e308, 0.0, 10.0], [1.3e308, 10.0, 0.0], [5.0, 6.0, 7.0])
        xy = np.array([0.0, 1.0])
        for callback, reference in ((loc._range_residuals, _numpy_residuals),
                                    (loc._range_jacobian, _numpy_jacobian)):
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                got = callback(xy, *rows)
                want = reference(xy, *rows)
            assert _bits(got) == _bits(want)
            assert any(issubclass(w.category, RuntimeWarning)
                       and "overflow" in str(w.message) for w in seen)
        assert math.isnan(got[0][0])  # inf - inf in the x column
        with np.errstate(over="ignore"):
            assert loc._range_residuals(xy, *rows)[0] == math.inf


class TestSharedSearchGrid:
    @pytest.mark.parametrize("state_mode", ["independent", "common", "los",
                                            "nlos"])
    @pytest.mark.parametrize("radius", [50.0, 200.0])
    @pytest.mark.parametrize("m_points", [3, 4])
    def test_campaign_equals_per_user_multilaterate(self, m_points, radius,
                                                    state_mode):
        scen = loc.LocalizationScenario(n_users=6)
        plan = loc.AnchorPlan(m_points, radius, 200.0)
        res = loc.run_campaign(scen, plan, TABLE_CH, RngStream(70, m_points),
                               trials_per_user=2, state_mode=state_mode)
        pos = reference_campaign(scen, plan, TABLE_CH, RngStream(70, m_points),
                                 trials_per_user=2, state_mode=state_mode)
        np.testing.assert_array_equal(res.pos_errors, pos)

    def test_default_search_area_matches_reference(self):
        # no search radius: each call sizes its grid from its own ranges
        rng = RngStream(71).child_generator()
        for k in range(60):
            m = int(rng.integers(3, 7))
            h = rng.uniform(20.0, 300.0)
            anchors = [Position3D(*rng.uniform(-250.0, 250.0, 2), h)
                       for _ in range(m)]
            if k % 10 == 0:  # collinear: the conditioning flag is set
                anchors = [Position3D(a.x, 0.0, h) for a in anchors]
            d_hat = np.hypot(rng.uniform(0.0, 400.0, m), h) \
                * 10 ** (rng.normal(0.0, 3.0, m) / 20.0)
            center = None if k % 2 else tuple(rng.uniform(-50.0, 50.0, 2))
            got = loc.multilaterate(anchors, d_hat, search_center=center)
            want = reference_multilaterate(anchors, d_hat, search_center=center)
            assert got == want


class TestLocalizationError:
    def test_mixture_decomposition(self, monkeypatch):
        # one user at the center sees every anchor at the same elevation;
        # the mixed-state mean equals the P_LOS-weighted mix of the
        # conditional means. Range errors depend neither on the solver nor
        # on its draws, so a fixed estimate stands in for the 12,000 solves;
        # each solve's ranges miss the circle radius (the user lies within
        # 1e-6 m of the center) by its range error.
        h = 129.6  # elevation ~47.2 deg at R = 120 -> p_los ~ 0.5
        plan = loc.AnchorPlan(3, 120.0, h)
        errors = []

        def solve(grid, r_hat):
            errors.append(math.sqrt(np.sum((r_hat - plan.radius_m) ** 2)))
            return loc.MultilaterationResult(0.0, 0.0, 0.0)

        monkeypatch.setattr(loc, "_solve", solve)
        scen = loc.LocalizationScenario(n_users=1, user_area_radius_m=1e-6)
        p = float(TABLE_CH.p_los(math.atan2(h, 120.0)))
        assert 0.2 < p < 0.8
        runs = {}
        for mode in ("common", "los", "nlos"):
            errors.clear()
            loc.run_campaign(scen, plan, TABLE_CH, RngStream(55),
                             trials_per_user=4000, state_mode=mode)
            runs[mode] = np.array(errors)
        mixed = np.mean(runs["common"])
        expected = p * np.mean(runs["los"]) + (1 - p) * np.mean(runs["nlos"])
        se = np.std(runs["common"]) / math.sqrt(runs["common"].size)
        assert abs(mixed - expected) < 4 * se


class TestCampaign:
    SCEN = loc.LocalizationScenario(n_users=100)

    @pytest.mark.parametrize("n", [2.5, 2.0, 0, True])
    def test_user_count_must_be_an_integer(self, n):
        # 2.5 used to construct, and run_campaign then raised a raw TypeError
        with pytest.raises(DomainError, match="n_users"):
            loc.LocalizationScenario(n, 200.0)

    @pytest.mark.parametrize("trials", [1.5, 0])
    def test_trial_count_must_be_an_integer(self, trials):
        # 0 used to return empty errors with a mean of NaN
        plan = loc.AnchorPlan(3, 120.0, 200.0)
        with pytest.raises(DomainError, match="trials_per_user"):
            loc.run_campaign(self.SCEN, plan, TABLE_CH, RngStream(67),
                             trials_per_user=trials)

    @pytest.mark.parametrize("radius", [math.nan, math.inf, 0.0])
    def test_user_area_radius_positive_and_finite(self, radius):
        with pytest.raises(DomainError, match="user_area_radius_m"):
            loc.LocalizationScenario(5, radius)

    def test_noise_free_recovery(self):
        plan = loc.AnchorPlan(3, 120.0, 200.0)
        res = loc.run_campaign(self.SCEN, plan, QUIET_CH, RngStream(60))
        assert np.max(res.pos_errors) < 1e-3

    def test_more_anchors_more_accuracy(self):
        errs = {}
        for m in (3, 4):
            plan = loc.AnchorPlan(m, 120.0, 200.0)
            res = loc.run_campaign(self.SCEN, plan, TABLE_CH, RngStream(61),
                                   trials_per_user=5)
            errs[m] = res.pos_errors
        se = math.sqrt(np.var(errs[3]) / errs[3].size
                       + np.var(errs[4]) / errs[4].size)
        assert np.mean(errs[4]) <= np.mean(errs[3]) + 3 * se

    def test_interior_altitude_optimum(self):
        hs = [50.0, 100.0, 200.0, 300.0, 400.0, 500.0]
        means = []
        for h in hs:
            plan = loc.AnchorPlan(3, 120.0, h)
            res = loc.run_campaign(self.SCEN, plan, TABLE_CH, RngStream(62),
                                   trials_per_user=5)
            means.append(res.mean_error_m)
        best = int(np.argmin(means))
        assert 0 < best < len(hs) - 1
        assert means[best] < means[0] and means[best] < means[-1]

    def test_los_beats_nlos_at_every_altitude(self):
        for h in (100.0, 200.0, 400.0):
            plan = loc.AnchorPlan(3, 120.0, h)
            res_los = loc.run_campaign(self.SCEN, plan, TABLE_CH,
                                       RngStream(63), state_mode="los")
            res_nlos = loc.run_campaign(self.SCEN, plan, TABLE_CH,
                                        RngStream(63), state_mode="nlos")
            assert res_los.mean_error_m <= res_nlos.mean_error_m

    def test_deterministic(self):
        plan = loc.AnchorPlan(3, 120.0, 200.0)
        a = loc.run_campaign(self.SCEN, plan, TABLE_CH, RngStream(64))
        b = loc.run_campaign(self.SCEN, plan, TABLE_CH, RngStream(64))
        assert np.array_equal(a.pos_errors, b.pos_errors)

    def test_stats_fields(self):
        plan = loc.AnchorPlan(4, 120.0, 200.0)
        res = loc.run_campaign(self.SCEN, plan, TABLE_CH, RngStream(65))
        assert res.p50_m <= res.p90_m

    def test_unknown_mode_rejected(self):
        plan = loc.AnchorPlan(3, 120.0, 200.0)
        with pytest.raises(DomainError):
            loc.run_campaign(self.SCEN, plan, TABLE_CH, RngStream(66),
                             state_mode="sometimes")

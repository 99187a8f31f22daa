import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from a2gnet import abs_net as ab
from a2gnet.errors import DomainError
from a2gnet.numerics import RngStream

URBAN = ab.urban_abs_profile()
FLAT = ab.AbsProfile(k0=2.0, k90=2.0, eta0=3.0, eta90=3.0)
RAYLEIGH = ab.AbsProfile(k0=0.0, k90=0.0, eta0=3.0, eta90=3.0)


def _outage_oracle(r, h, p_tx, prof):
    # independent outage route: Marcum Q via scipy's noncentral chi-square
    from scipy import stats

    r = np.asarray(r, dtype=float)
    theta = np.arctan2(h, r)
    k = prof.k_of_theta(theta)
    eta = prof.eta_of_theta(theta)
    d = np.hypot(h, r)
    b_sq = (2.0 * prof.threshold_t * (1.0 + k) * d ** eta * prof.noise_w
            / (prof.antenna_gain * p_tx))
    return 1.0 - stats.ncx2.sf(b_sq, 2, 2.0 * k)


def _mean_disc_outage_quad(h, p_tx, r_c, prof):
    # the adaptive-quadrature disc average that the fixed rule replaced
    from scipy import integrate

    def f(r):
        return ab.outage(r, h, p_tx, prof) * 2.0 * r / r_c ** 2

    val, err = integrate.quad(f, 0.0, r_c, limit=100)
    if err > 1e-6:
        val = integrate.quad(f, 0.0, r_c, limit=500)[0]
    return min(1.0, max(0.0, val))


class TestOutage:
    def test_vanishes_with_power(self):
        assert ab.outage(500.0, 100.0, 1e12, URBAN) == pytest.approx(0.0, abs=1e-12)

    def test_rayleigh_closed_form(self):
        # K = 0 collapses the Marcum Q to exp(-b^2/2)
        p = 1e-3
        for r in [50.0, 300.0, 1000.0]:
            d = math.hypot(100.0, r)
            expected = 1.0 - math.exp(
                -RAYLEIGH.threshold_t * d ** 3 * RAYLEIGH.noise_w
                / (RAYLEIGH.antenna_gain * p))
            assert ab.outage(r, 100.0, p, RAYLEIGH) == pytest.approx(expected, rel=1e-10)

    def test_monotone_in_range(self):
        r = np.linspace(0.0, 3000.0, 120)
        out = ab.outage(r, 150.0, 1e-4, URBAN)
        assert np.all(np.diff(out) >= -1e-12)
        assert np.all((0.0 <= out) & (out <= 1.0))

    def test_monotone_in_power_gain_threshold(self):
        base = ab.outage(400.0, 150.0, 1e-4, URBAN)
        assert ab.outage(400.0, 150.0, 2e-4, URBAN) <= base
        more_gain = ab.AbsProfile(URBAN.k0, URBAN.k90, URBAN.eta0, URBAN.eta90,
                                  antenna_gain=2.0, noise_w=URBAN.noise_w,
                                  threshold_t=URBAN.threshold_t)
        assert ab.outage(400.0, 150.0, 1e-4, more_gain) <= base
        higher_t = ab.AbsProfile(URBAN.k0, URBAN.k90, URBAN.eta0, URBAN.eta90,
                                 antenna_gain=URBAN.antenna_gain,
                                 noise_w=URBAN.noise_w, threshold_t=4.0)
        assert ab.outage(400.0, 150.0, 1e-4, higher_t) >= base

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            ab.outage(100.0, 100.0, 0.0, URBAN)
        with pytest.raises(DomainError):
            ab.outage(-1.0, 100.0, 1.0, URBAN)


class TestRequiredPower:
    def test_rayleigh_prefactor(self):
        # (2K+2)/b^2 at K=0, eps=0.1 is 2 / (-2 ln 0.9)
        p = ab.required_power(0.0, 500.0, 0.1, RAYLEIGH)
        factor = 2.0 / (-2.0 * math.log(0.9))
        assert factor == pytest.approx(9.491, abs=1e-3)
        expected = (RAYLEIGH.noise_w * RAYLEIGH.threshold_t / RAYLEIGH.antenna_gain
                    * factor * 500.0 ** 3)
        assert p == pytest.approx(expected, rel=1e-9)

    def test_round_trip_outage(self):
        for h, r_c, eps in [(100.0, 400.0, 0.05), (500.0, 300.0, 0.2),
                            (50.0, 1500.0, 0.01)]:
            p = ab.required_power(h, r_c, eps, URBAN)
            assert ab.outage(r_c, h, p, URBAN) == pytest.approx(eps, abs=1e-6)

    def test_doubling_radius_at_fixed_theta(self):
        eta_c = URBAN.eta_of_theta(math.atan2(100.0, 500.0))
        ratio = (ab.required_power(200.0, 1000.0, 0.05, URBAN)
                 / ab.required_power(100.0, 500.0, 0.05, URBAN))
        assert ratio == pytest.approx(2.0 ** eta_c, rel=1e-12)

    def test_epsilon_validation(self):
        with pytest.raises(DomainError):
            ab.required_power(100.0, 500.0, 0.0, URBAN)
        with pytest.raises(DomainError):
            ab.required_power(100.0, 500.0, 1.0, URBAN)

    @pytest.mark.parametrize("prof,eps,match", [
        # 1 - 1e-17 rounds to 1, so b = 0: a ZeroDivisionError before
        (URBAN, 1e-17, "epsilon"),
        # scipy's quantile is NaN at K = 120 dB: a silent NaN before
        (ab.urban_abs_profile(k90_db=120.0), 0.05, "not finite"),
    ])
    def test_link_factor_errors(self, prof, eps, match):
        with pytest.raises(DomainError, match=match):
            ab.required_power(100.0, 500.0, eps, prof)
        with pytest.raises(DomainError, match=match):
            ab.power_gain(100.0, 500.0, eps, prof)


class TestPowerGain:
    def test_degenerate_profile_cosine_law(self):
        for h in [50.0, 200.0, 1000.0]:
            theta_c = math.atan2(h, 500.0)
            expected = math.cos(theta_c) ** 3.0
            assert ab.power_gain(h, 500.0, 0.05, FLAT) == pytest.approx(expected, rel=1e-12)
            assert expected <= 1.0

    def test_matches_required_power_ratio(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            h = rng.uniform(20.0, 1500.0)
            r_c = rng.uniform(100.0, 2000.0)
            ratio = (ab.required_power(0.0, r_c, 0.05, URBAN)
                     / ab.required_power(h, r_c, 0.05, URBAN))
            assert ab.power_gain(h, r_c, 0.05, URBAN) == pytest.approx(ratio, rel=1e-6)

    def test_urban_interior_maximum_above_one(self):
        hs = np.linspace(1.0, 2500.0, 60)
        gains = [ab.power_gain(h, 500.0, 0.05, URBAN) for h in hs]
        best = int(np.argmax(gains))
        assert 0 < best < len(hs) - 1
        assert gains[best] > 1.0
        assert gains[best] > gains[0] and gains[best] > gains[-1]


class TestSumRate:
    def test_no_outage_limit(self):
        # enormous power drives the mean outage to zero
        rate = ab.sum_rate(100.0, 1e9, 20.0, 20e6, 500.0, URBAN)
        assert rate == pytest.approx(20.0 * 20e6 * math.log2(2.0), rel=1e-9)

    def test_zero_users(self):
        assert ab.sum_rate(100.0, 1e-3, 0.0, 20e6, 500.0, URBAN) == 0.0

    def test_disc_average_matches_monte_carlo(self):
        h, p, r_c = 150.0, 3e-5, 500.0
        quad_value = ab.mean_disc_outage(h, p, r_c, URBAN)
        rng = RngStream(77).child_generator()
        r = r_c * np.sqrt(rng.random(1_000_000))
        mc = float(np.mean(_outage_oracle(r, h, p, URBAN)))
        assert quad_value == pytest.approx(mc, rel=5e-3)

    def test_disc_average_matches_adaptive_quad(self):
        # every disc of radius r_c, boundary outage epsilon and altitude h,
        # at the required power and 100x below and above it
        worst = 0.0
        for r_c, eps, h, scale in itertools.product(
                [50.0, 250.0, 500.0, 1000.0, 3000.0],
                [0.001, 0.01, 0.05, 0.2, 0.5],
                [0.0, 1.0, 10.0, 100.0, 500.0, 1000.0, 5000.0],
                [0.01, 1.0, 100.0]):
            p = ab.required_power(h, r_c, eps, URBAN) * scale
            worst = max(worst, abs(ab.mean_disc_outage(h, p, r_c, URBAN)
                                   - _mean_disc_outage_quad(h, p, r_c, URBAN)))
        assert worst <= 1e-10

    def test_non_finite_disc_average_rejected(self):
        # a NaN average is a model error, not an outage of 0
        with pytest.raises(DomainError):
            ab.mean_disc_outage(100.0, math.nan, 500.0, URBAN)


class TestSumRateGain:
    R_C, EPSILON = 500.0, 0.05

    def test_ground_equals_ground(self):
        [row] = ab.design_rows([0.0], self.R_C, self.EPSILON, URBAN)
        assert row[2] == pytest.approx(1.0, rel=1e-12)

    def test_interior_maximum_below_power_gain_optimum(self):
        hs = np.linspace(1.0, 2500.0, 40)
        srg = [row[2] for row in ab.design_rows(hs, self.R_C, self.EPSILON,
                                                URBAN)]
        pg = [ab.power_gain(h, self.R_C, self.EPSILON, URBAN) for h in hs]
        i_srg = int(np.argmax(srg))
        i_pg = int(np.argmax(pg))
        assert 0 < i_srg < len(hs) - 1
        assert srg[i_srg] > 1.0
        assert hs[i_srg] < hs[i_pg]

    def test_agreement_with_direct_monte_carlo(self):
        h = 300.0
        p_abs = ab.required_power(h, 500.0, 0.05, URBAN)
        p_tbs = ab.required_power(0.0, 500.0, 0.05, URBAN)
        rng = RngStream(78).child_generator()
        n = 400_000
        r = 500.0 * np.sqrt(rng.random(n))
        num = 1.0 - np.mean(_outage_oracle(r, h, p_abs, URBAN))
        den = 1.0 - np.mean(_outage_oracle(r, 0.0, p_tbs, URBAN))
        mc = num / den
        se = 3.0 * math.sqrt(2.0 * 0.05 * 0.95 / n)  # crude 3-sigma budget
        [row] = ab.design_rows([h], 500.0, 0.05, URBAN)
        assert abs(row[2] - mc) < se


def _reference_design_row(h, r_c, eps, prof):
    """One abs-design row from scratch, as the per-altitude functions once
    computed it: five link-factor solves and two disc outages."""
    def power(theta_c):
        eta = prof.eta_of_theta(theta_c)
        x = ab._link_factor(prof.k_of_theta(theta_c), eps)
        slant = r_c / math.cos(theta_c)
        return (prof.noise_w * prof.threshold_t / prof.antenna_gain
                * x * slant ** eta)

    theta_c = math.atan2(h, r_c)
    p_abs, p_tbs = power(theta_c), power(math.atan2(0.0, r_c))
    x0 = ab._link_factor(prof.k_of_theta(0.0), eps)
    x_c = ab._link_factor(prof.k_of_theta(theta_c), eps)
    eta0, eta_c = prof.eta_of_theta(0.0), prof.eta_of_theta(theta_c)
    gain = x0 / x_c * r_c ** (eta0 - eta_c) * math.cos(theta_c) ** eta_c
    num = 1.0 - ab.mean_disc_outage(h, p_abs, r_c, prof)
    den = 1.0 - ab.mean_disc_outage(0.0, p_tbs, r_c, prof)
    return p_abs, gain, num / den


class TestDesignRows:
    """The shared rows solve the ground side once and write the values the
    per-altitude formulas give, bit for bit."""

    ALTITUDES = [0.0, 1.0, 50.0, 123.456, 400.0, 1600.0]

    @pytest.mark.parametrize("prof", [FLAT, URBAN], ids=["flat", "urban"])
    @pytest.mark.parametrize("eps", [1e-12, 1e-6, 0.01, 0.05, 0.5])
    @pytest.mark.parametrize("r_c", [1.0, 37.5, 500.0, 1e4, 1e6])
    def test_equal_to_per_altitude_calls(self, r_c, eps, prof):
        rows = ab.design_rows(self.ALTITUDES, r_c, eps, prof)
        for h, row in zip(self.ALTITUDES, rows, strict=True):
            assert row == _reference_design_row(h, r_c, eps, prof)
            assert row[:2] == (ab.required_power(h, r_c, eps, prof),
                               ab.power_gain(h, r_c, eps, prof))
            # one altitude's row is its row among many
            assert ab.design_rows([h], r_c, eps, prof) == [row]

    def test_optimize_altitude_uses_the_same_values(self):
        rows = ab.design_rows(self.ALTITUDES, 500.0, 0.05, URBAN)
        for metric, column in (("power_gain", 1), ("sum_rate_gain", 2)):
            best = max((row[column], -h) for h, row in zip(self.ALTITUDES, rows))
            assert ab.optimize_altitude(metric, URBAN, self.ALTITUDES[::-1],
                                        r_c_m=500.0, epsilon=0.05) == (
                -best[1], best[0])

    def test_ground_side_solved_once(self, monkeypatch):
        counts = {"_link_factor": 0, "mean_disc_outage": 0}
        for name in counts:
            def counted(*args, _f=getattr(ab, name), _name=name):
                counts[_name] += 1
                return _f(*args)
            monkeypatch.setattr(ab, name, counted)
        ab.design_rows(self.ALTITUDES, 500.0, 0.05, URBAN)
        n = len(self.ALTITUDES)
        assert counts == {"_link_factor": n + 1, "mean_disc_outage": n + 1}
        for metric, outages in (("power_gain", 0), ("sum_rate_gain", n + 1)):
            counts.update(_link_factor=0, mean_disc_outage=0)
            ab.optimize_altitude(metric, URBAN, self.ALTITUDES, r_c_m=500.0,
                                 epsilon=0.05)
            assert counts == {"_link_factor": n + 1, "mean_disc_outage": outages}
        counts.update(_link_factor=0, mean_disc_outage=0)
        assert ab.design_rows([], 500.0, 0.05, URBAN) == []
        assert counts == {"_link_factor": 0, "mean_disc_outage": 0}

    def test_invalid_altitude_rejected(self):
        with pytest.raises(DomainError, match="h_abs"):
            ab.design_rows([100.0, -1.0], 500.0, 0.05, URBAN)


class TestCoverageRadius:
    def test_round_trip_with_required_power(self):
        for h, r_c in [(100.0, 400.0), (400.0, 800.0), (800.0, 300.0)]:
            p = ab.required_power(h, r_c, 0.05, URBAN)
            res = ab.coverage_radius(h, p, 0.05, URBAN)
            assert not res.no_coverage and not res.capped
            assert res.radius_m == pytest.approx(r_c, rel=5e-3)

    def test_interior_maximum_over_altitude(self):
        hs = np.linspace(10.0, 5000.0, 25)
        rads = [ab.coverage_radius(h, 1e-5, 0.05, URBAN).radius_m for h in hs]
        best = int(np.argmax(rads))
        assert 0 < best < len(hs) - 1
        assert rads[best] > rads[0] and rads[best] > rads[-1]

    def test_capped_flag(self):
        res = ab.coverage_radius(100.0, 1e12, 0.05, URBAN, r_max_m=10_000.0)
        assert res.capped and res.radius_m == 10_000.0

    def test_no_coverage_flag(self):
        res = ab.coverage_radius(5000.0, 1e-12, 0.05, URBAN)
        assert res.no_coverage and res.radius_m == 0.0

    def test_mutual_inverse_random_designs(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            h = rng.uniform(20.0, 1200.0)
            r_c = rng.uniform(100.0, 1500.0)
            eps = rng.uniform(0.01, 0.3)
            p = ab.required_power(h, r_c, eps, URBAN)
            res = ab.coverage_radius(h, p, eps, URBAN)
            assert res.radius_m == pytest.approx(r_c, rel=5e-3)


class TestOptimizeAltitude:
    def test_constant_metric_lowest_tie_break(self):
        grid = [300.0, 100.0, 200.0]
        h, val = ab.optimize_altitude("power_gain", FLAT, grid, r_c_m=1e9,
                                      epsilon=0.05)
        # degenerate: cos(theta_c) ~ 1 for all grid points at huge r_c
        assert h == 100.0

    def test_single_point(self):
        h, val = ab.optimize_altitude("power_gain", URBAN, [250.0],
                                      r_c_m=500.0, epsilon=0.05)
        assert h == 250.0
        assert val == pytest.approx(ab.power_gain(250.0, 500.0, 0.05, URBAN))

    def test_matches_exhaustive_scan(self):
        grid = np.linspace(10.0, 2500.0, 200)
        h, val = ab.optimize_altitude("power_gain", URBAN, grid,
                                      r_c_m=500.0, epsilon=0.05)
        brute = [(ab.power_gain(hh, 500.0, 0.05, URBAN), hh) for hh in grid]
        best_val, best_h = max(brute)
        assert h == best_h and val == pytest.approx(best_val)

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            ab.optimize_altitude("power_gain", URBAN, [], r_c_m=500.0,
                                 epsilon=0.05)

    def test_unknown_metric_rejected(self):
        with pytest.raises(DomainError):
            ab.optimize_altitude("outage", URBAN, [100.0])

    @pytest.mark.parametrize("metric, kwargs, missing", [
        ("power_gain", {}, "r_c_m and epsilon"),
        ("sum_rate_gain", {"p_tx_w": 1.0, "epsilon": 0.05}, "r_c_m"),
        ("coverage_radius", {"r_c_m": 500.0}, "p_tx_w and epsilon"),
        ("coverage_radius", {"epsilon": 0.05}, "p_tx_w"),
        ("coverage_radius", {"p_tx_w": 1.0}, "epsilon"),
    ], ids=["power_gain", "sum_rate_gain", "coverage_radius",
            "coverage_radius-no-p_tx_w", "coverage_radius-no-epsilon"])
    def test_missing_argument_named(self, metric, kwargs, missing):
        with pytest.raises(DomainError, match=f"^{metric} needs {missing}$"):
            ab.optimize_altitude(metric, URBAN, [100.0], **kwargs)


# each design entry point on one (altitude, radius, epsilon)
_DESIGN_CALLS = {
    "required_power": lambda h, r_c, eps: ab.required_power(h, r_c, eps, URBAN),
    "power_gain": lambda h, r_c, eps: ab.power_gain(h, r_c, eps, URBAN),
    "design_rows": lambda h, r_c, eps: ab.design_rows([h], r_c, eps, URBAN),
    "optimize_altitude": lambda h, r_c, eps: ab.optimize_altitude(
        "power_gain", URBAN, [h], r_c_m=r_c, epsilon=eps),
}


def _bad(name, h=200.0, r_c=500.0, epsilon=0.05):
    """A design with one bad input, named by the argument its error names."""
    bad = {"h_abs_m": h, "r_c_m": r_c, "epsilon": epsilon}[name]
    return pytest.param(h, r_c, epsilon, name, id=f"{name}={bad:g}")


_BAD_DESIGNS = ([_bad("h_abs_m", h=h) for h in (-50.0, math.nan, math.inf)]
                + [_bad("r_c_m", r_c=r_c)
                   for r_c in (0.0, -500.0, math.inf, math.nan)]
                + [_bad("epsilon", epsilon=eps) for eps in (0.0, 1.0, math.nan)])


@pytest.mark.parametrize("h,r_c,eps,name", _BAD_DESIGNS)
@pytest.mark.parametrize("call", list(_DESIGN_CALLS))
def test_bad_design_input_named(call, h, r_c, eps, name):
    # a negative or infinite altitude, a non-positive or infinite radius and
    # a NaN of each used to return numbers (a complex power gain at
    # r_c = -500, a finite power for a station at infinite height)
    with pytest.raises(DomainError, match=rf"^{name} must be "):
        _DESIGN_CALLS[call](h, r_c, eps)


@pytest.mark.parametrize("call, name", [
    (lambda: ab.coverage_radius(math.nan, 1e-5, 0.05, URBAN), "h_abs_m"),
    (lambda: ab.coverage_radius(100.0, math.nan, 0.05, URBAN), "p_tx_w"),
    (lambda: ab.coverage_radius(math.inf, 1e-5, 0.05, URBAN), "h_abs_m"),
    (lambda: ab.coverage_radius(100.0, math.inf, 0.05, URBAN), "p_tx_w"),
    (lambda: ab.outage(500.0, math.nan, 1.0, URBAN), "h_abs_m"),
    (lambda: ab.sum_rate(100.0, 1e-3, math.nan, 20e6, 500.0, URBAN), "n_bar"),
    (lambda: ab.optimize_altitude("coverage_radius", URBAN, [50.0, math.inf],
                                  p_tx_w=1e-5, epsilon=0.05), "h_abs_m"),
], ids=["radius_nan_h", "radius_nan_p", "radius_inf_h", "radius_inf_p",
        "outage_nan_h", "sum_rate_nan_n_bar", "optimize_inf_h"])
def test_non_finite_link_input_named(call, name):
    # these ended in scipy's raw ValueError (a NaN at the root bracket),
    # returned no_coverage or the capped 1e6 m radius, or returned NaN
    with pytest.raises(DomainError, match=rf"^{name} must be finite"):
        call()


class TestProfileValidation:
    def test_decreasing_k_rejected(self):
        with pytest.raises(DomainError):
            ab.AbsProfile(k0=5.0, k90=1.0, eta0=3.0, eta90=2.0)

    def test_increasing_eta_rejected(self):
        with pytest.raises(DomainError):
            ab.AbsProfile(k0=1.0, k90=5.0, eta0=2.0, eta90=3.0)

    def test_zenith_eta_floor(self):
        with pytest.raises(DomainError):
            ab.AbsProfile(k0=1.0, k90=5.0, eta0=3.0, eta90=1.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["k0", "k90", "eta0", "eta90",
                                      "antenna_gain", "noise_w",
                                      "threshold_t"])
    def test_non_finite_field_named(self, name, value):
        # antenna_gain = nan used to construct and give a NaN power, and
        # eta0 = inf a NaN power gain and an infinite power
        with pytest.raises(DomainError, match=f"^{name} must be finite$"):
            replace(URBAN, **{name: value})

    def test_urban_profile_checks_its_fields(self):
        with pytest.raises(DomainError, match="^antenna_gain must be finite$"):
            ab.urban_abs_profile(antenna_gain=math.nan)
        with pytest.raises(DomainError, match="^eta0 must be finite$"):
            ab.urban_abs_profile(eta0=math.inf)

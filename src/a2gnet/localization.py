"""RSS localization of ground users by aerial anchors.

Anchors circle the origin and users lie in a disc about it. An anchor
measures RSS, inverts the log-distance model of the drawn LOS/NLOS state
into a range estimate, and the user position comes from nonlinear least
squares on the horizontal ranges. Shadowing decays exponentially with
elevation angle, which is what makes an optimal anchor altitude exist: too
low means heavy NLOS noise, too high means a long link whose flat
RSS-distance curve amplifies every dB of error.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .antenna_geometry import Position3D
from .errors import DomainError, check_count, check_number
# optimize is unused here; bench/tracing.py proxies it on traced runs
from .numerics import RngStream, minpack, optimize, sample_shadowing_db


@dataclass(frozen=True)
class AnchorPlan:
    """Equally spaced anchor points on a circle about the origin at fixed
    altitude."""

    m_points: int
    radius_m: float
    h_abs_m: float

    def __post_init__(self):
        # multilateration in the plane needs at least 3 anchors
        check_count(self.m_points, "m_points", 3)
        check_number(self.radius_m, "radius_m", above=0.0)
        check_number(self.h_abs_m, "h_abs_m", above=0.0)

    @property
    def inter_anchor_distance_m(self) -> float:
        """Chord length between adjacent anchors, 2 R sin(pi/M)."""
        return 2.0 * self.radius_m * math.sin(math.pi / self.m_points)


def place_anchors(plan: AnchorPlan) -> List[Position3D]:
    """Anchor positions, counterclockwise from the +x axis."""
    out = []
    for i in range(plan.m_points):
        ang = 2.0 * math.pi * i / plan.m_points
        out.append(Position3D(plan.radius_m * math.cos(ang),
                              plan.radius_m * math.sin(ang), plan.h_abs_m))
    return out


@dataclass(frozen=True)
class ElevationChannel:
    """Elevation-angle channel for RSS ranging.

    sigma_j(theta) = a_j exp(-b_j theta) dB with theta in radians;
    P_LOS(theta) = 1 / (1 + a_o exp(-b_o (theta_deg - a_o))) with theta in
    degrees (a sharp LOS transition near a_o degrees for the defaults).
    eta_los/eta_nlos are the log-distance exponents used to invert RSS.
    """

    a_los: float = 10.0
    b_los: float = 2.0
    a_nlos: float = 30.0
    b_nlos: float = 1.7
    a_o: float = 47.0
    b_o: float = 20.0
    eta_los: float = 2.0
    eta_nlos: float = 3.0

    def __post_init__(self):
        for name in ("a_los", "a_nlos", "eta_los", "eta_nlos"):
            check_number(getattr(self, name), name, above=0.0)
        # a_o >= 0 keeps P_LOS in [0, 1], b_o >= 0 keeps it rising
        for name in ("b_los", "b_nlos", "a_o", "b_o"):
            check_number(getattr(self, name), name, minimum=0.0)

    def sigma_db(self, theta_rad, los: bool):
        """Shadowing std a exp(-b theta), dB; a hot kernel: theta finite."""
        a = self.a_los if los else self.a_nlos
        b = self.b_los if los else self.b_nlos
        return a * np.exp(-b * np.asarray(theta_rad, dtype=float))

    def p_los(self, theta_rad):
        """P_LOS at elevation theta, rad; a hot kernel: theta finite."""
        theta_deg = np.degrees(np.asarray(theta_rad, dtype=float))
        expo = np.clip(-self.b_o * (theta_deg - self.a_o), -700.0, 700.0)
        return 1.0 / (1.0 + self.a_o * np.exp(expo))


@dataclass(frozen=True)
class LocalizationScenario:
    """Users drawn uniformly in a disc about the origin."""

    n_users: int = 100
    user_area_radius_m: float = 200.0

    def __post_init__(self):
        check_count(self.n_users, "n_users", 1)
        check_number(self.user_area_radius_m, "user_area_radius_m", above=0.0)


def sample_rss_distance(true_d_m: float, theta_rad: float, ch: ElevationChannel,
                        rng: np.random.Generator,
                        force_state: Optional[bool] = None):
    """Draw one range estimate: (d_hat, los_flag).

    The RSS perturbation N(0, sigma_j^2) dB inverts through the same
    log-distance law that produced it, giving d_hat = d 10^(X / (10 eta_j)).
    """
    check_number(true_d_m, "true_d_m", above=0.0)
    check_number(theta_rad, "theta_rad")
    if force_state is None:
        los = bool(rng.random() < ch.p_los(theta_rad))
    else:
        los = bool(force_state)
    x_db = sample_shadowing_db(float(ch.sigma_db(theta_rad, los)), rng)
    eta = ch.eta_los if los else ch.eta_nlos
    return true_d_m * 10.0 ** (x_db / (10.0 * eta)), los


@dataclass(frozen=True)
class MultilaterationResult:
    x: float
    y: float
    residual: float
    ill_conditioned: bool = False


# The LM callbacks loop over the anchors on Python floats, not numpy arrays:
# at the 3-5 anchors of every shipped scenario that halves the cost of a
# call, the two forms cost the same near M = 8, and at M = 16 numpy is about
# 1.75x faster. Each hypot is abs(complex(dx, dy)), which CPython takes from
# the C library's hypot as np.hypot does, so every value is bit-equal to the
# numpy form; math.hypot runs its own algorithm and is not.
def _range_residuals(xy, ax, ay, r_hat):
    """|a_i - xy| - r_i for each anchor, as a list; the anchor rows and the
    ranges are sequences of floats."""
    x, y = xy.tolist()
    try:
        return [abs(complex(a - x, b - y)) - r
                for a, b, r in zip(ax, ay, r_hat)]
    except OverflowError:
        return _overflowed_residuals(x, y, ax, ay, r_hat)


def _overflowed_residuals(x, y, ax, ay, r_hat):
    """The residuals in numpy, for a point where a hypot of finite operands
    overflows: a complex abs raises OverflowError there, and np.hypot gives
    inf with a RuntimeWarning, as the callbacks always did."""
    return np.hypot(np.subtract(ax, x), np.subtract(ay, y)) - r_hat


_FD_REL_STEP = math.sqrt(sys.float_info.epsilon)
# MINPACK lmder settings, each the value least_squares(method="lm",
# xtol=1e-10) hands it for two unknowns; every shipped output was made with
# them. lmder has no defaults, so each is passed.
_LM_FTOL = 1e-8    # stop when a step cuts the cost by under this share
_LM_XTOL = 1e-10   # or moves the point by under this share: 20 nm at 200 m
_LM_GTOL = 1e-8    # or leaves the residuals this close to orthogonal to J
_LM_MAXFEV = 200   # least_squares' 100 evaluations per unknown
_LM_FACTOR = 100.0  # first step bound, factor * |x|: MINPACK's default
# the seed grid has _GRID_N x _GRID_N cells over the search square
_GRID_N = 21


def _range_jacobian(xy, ax, ay, r_hat):
    """Forward-difference Jacobian of `_range_residuals`, as scipy builds it,
    returned as its two columns (lmder's col_deriv layout: two lists of m).

    scipy's unbounded '2-point' scheme steps x_j by
    h_j = sqrt(eps) sign(x_j) max(1, |x_j|) with sign(0) = +1 and divides
    f(x + h_j e_j) - f(x) by (x_j + h_j) - x_j. Here each column is that
    difference anchor by anchor, in the same float64 arithmetic and order, so
    every entry equals scipy's bit for bit without its per-column overhead.
    """
    x, y = xy.tolist()
    xh = x + _FD_REL_STEP * (1.0 if x >= 0 else -1.0) * max(1.0, abs(x))
    yh = y + _FD_REL_STEP * (1.0 if y >= 0 else -1.0) * max(1.0, abs(y))
    sx, sy = xh - x, yh - y
    jx, jy = [], []
    try:
        for a, b, r in zip(ax, ay, r_hat):
            dx, dy = a - x, b - y
            f0 = abs(complex(dx, dy)) - r
            jx.append((abs(complex(a - xh, dy)) - r - f0) / sx)
            jy.append((abs(complex(dx, b - yh)) - r - f0) / sy)
    except OverflowError:
        f0 = _overflowed_residuals(x, y, ax, ay, r_hat)
        return [(_overflowed_residuals(xh, y, ax, ay, r_hat) - f0) / sx,
                (_overflowed_residuals(x, yh, ax, ay, r_hat) - f0) / sy]
    return [jx, jy]


def _lm_descent(x0, ax, ay, r_hat):
    """One Levenberg-Marquardt descent from x0: (x, residuals, nfev).

    This is the MINPACK lmder call that least_squares(method="lm") makes,
    made directly through scipy's private binding: no Python wrapper checks
    shapes by evaluating the residuals and the Jacobian, and no covariance
    or message is built. The binding is `numerics.minpack`, scipy's compiled
    `scipy.optimize._minpack` loaded without the `scipy.optimize` package.
    The Jacobian is still scipy's forward difference (`_range_jacobian`).
    The anchor rows and ranges go to the callbacks as lmder's extra
    arguments; lists of floats are their fast layout. lmder iterates in
    place, so it gets a copy of x0.
    """
    x, info, _ = minpack._lmder(
        _range_residuals, _range_jacobian, np.array(x0, dtype=float),
        (ax, ay, r_hat), 1, 1, _LM_FTOL, _LM_XTOL, _LM_GTOL, _LM_MAXFEV,
        _LM_FACTOR, None)
    return x, info["fvec"], info["nfev"]


@dataclass(frozen=True)
class _SearchGrid:
    """What a solve needs that does not depend on the ranges: the anchor
    coordinates as rows, and again as lists of floats for the LM callbacks,
    the conditioning flag of the anchor layout, the seed grid over the search
    square (flattened) and each anchor's distance to each grid point."""

    ax: np.ndarray
    ay: np.ndarray
    float_rows: tuple
    ill_conditioned: bool
    gx: np.ndarray
    gy: np.ndarray
    d_grid: np.ndarray


def _search_grid(axy, cx, cy, radius_m) -> _SearchGrid:
    centered = axy - axy.mean(axis=0)
    svals = np.linalg.svd(centered, compute_uv=False)
    ill = bool(svals[-1] < 1e-9 * max(svals[0], 1.0))
    xx, yy = np.meshgrid(np.linspace(cx - radius_m, cx + radius_m, _GRID_N),
                         np.linspace(cy - radius_m, cy + radius_m, _GRID_N))
    gx, gy = xx.ravel(), yy.ravel()
    ax, ay = np.ascontiguousarray(axy.T)
    d_grid = np.hypot(ax[:, None] - gx, ay[:, None] - gy)
    return _SearchGrid(ax, ay, (ax.tolist(), ay.tolist()), ill, gx, gy,
                       d_grid)


def _solve(grid: _SearchGrid, r_hat) -> MultilaterationResult:
    """Descend from the three best grid seeds and keep the best end point,
    or the best seed should no descent end finite and below it."""
    cost_grid = np.sum((grid.d_grid - r_hat[:, None]) ** 2, axis=0)
    flat = np.argsort(cost_grid)[:3]
    rows = (*grid.float_rows, r_hat.tolist())
    best_xy = None
    best_cost = math.inf
    for idx in flat:
        x, fvec, _ = _lm_descent((grid.gx[idx], grid.gy[idx]), *rows)
        cost = float(np.sum(fvec ** 2))
        if cost < best_cost:
            best_cost = cost
            best_xy = x
    grid_best = float(cost_grid[flat[0]])
    if best_xy is None or grid_best < best_cost:
        best_xy = (grid.gx[flat[0]], grid.gy[flat[0]])
        best_cost = grid_best
    return MultilaterationResult(float(best_xy[0]), float(best_xy[1]),
                                 math.sqrt(best_cost), grid.ill_conditioned)


def multilaterate(anchors: Sequence[Position3D], d_hat: Sequence[float],
                  search_center=None,
                  search_radius_m: float = None) -> MultilaterationResult:
    """Least-squares position from slant-range estimates.

    Horizontal ranges come from r_i = sqrt(d_i^2 - h_i^2), clamped to zero
    when noise drives d_i below the anchor altitude. The solver seeds local
    descent from the best cells of a grid over the search area and always
    returns a point at least as good as every grid seed.

    Every range estimate, the search center and radius must be finite (a
    Position3D anchor is), the ranges non-negative and the radius positive.

    Local descent is MINPACK's Levenberg-Marquardt, scipy's private `lmder`
    binding called directly (its compiled module alone, not the
    `scipy.optimize` package), with the ftol, xtol, gtol and maxfev that
    `least_squares(method="lm", xtol=1e-10)` uses. Its Jacobian is not
    analytic: `_range_jacobian` is scipy's forward difference computed in
    one pass. Both callbacks loop over the anchors on Python floats and take
    each hypot from the C library, as np.hypot does (faster than numpy up
    to about 8 anchors). So every iterate, residual and evaluation count
    equals a plain `least_squares` solve on scipy's own finite difference,
    which `TestRangeJacobian::test_solves_match_scipy_two_point` pins.
    `run_campaign` solves through the same path, with one search grid for
    all of its solves.
    """
    check_count(len(anchors), "anchor count", 3)
    if len(anchors) != len(d_hat):
        raise DomainError("one range estimate per anchor required")
    axy = np.array([[a.x, a.y] for a in anchors])
    heights = np.array([a.h for a in anchors])
    d_hat = np.asarray(d_hat, dtype=float)
    if not np.all(np.isfinite(d_hat) & (d_hat >= 0.0)):
        raise DomainError("d_hat must be non-negative and finite")
    with np.errstate(over="ignore"):
        r_hat = np.sqrt(np.maximum(d_hat ** 2 - heights ** 2, 0.0))
    if not np.all(np.isfinite(r_hat)):
        raise DomainError("d_hat gives a horizontal range past the float range")
    if search_center is None:
        cx, cy = axy.mean(axis=0)
    else:
        cx, cy = (check_number(c, "search_center") for c in search_center)
    if search_radius_m is None:
        spread = float(np.max(np.hypot(*(axy - [cx, cy]).T)))
        search_radius_m = max(float(np.max(r_hat)) + spread, 1.0)
    else:
        check_number(search_radius_m, "search_radius_m", above=0.0)
    return _solve(_search_grid(axy, cx, cy, search_radius_m), r_hat)


@dataclass
class CampaignResult:
    pos_errors: np.ndarray

    @property
    def mean_error_m(self) -> float:
        return float(np.mean(self.pos_errors))

    @property
    def p50_m(self) -> float:
        return float(np.median(self.pos_errors))

    @property
    def p90_m(self) -> float:
        return float(np.quantile(self.pos_errors, 0.9))


def run_campaign(scenario: LocalizationScenario, plan: AnchorPlan,
                 ch: ElevationChannel, rng: RngStream,
                 trials_per_user: int = 1,
                 state_mode: str = "independent") -> CampaignResult:
    """Localize uniformly placed users and aggregate the error statistics.

    state_mode: 'independent' draws a LOS state per anchor; 'common' draws
    one state per user (shared by all anchors); 'los'/'nlos' force it.
    Users are independent work units keyed by (seed, user, trial).
    """
    if state_mode not in ("independent", "common", "los", "nlos"):
        raise DomainError(f"unknown state mode {state_mode!r}")
    check_count(trials_per_user, "trials_per_user", 1)
    anchors = place_anchors(plan)
    axy = np.array([[a.x, a.y] for a in anchors])
    # every solve searches the user disc, so all share one grid
    grid = _search_grid(axy, 0.0, 0.0, scenario.user_area_radius_m)
    pos_errors = []
    for u in range(scenario.n_users):
        for t in range(trials_per_user):
            gen = rng.child_generator(u, t)
            r = scenario.user_area_radius_m * math.sqrt(gen.random())
            ang = gen.uniform(0.0, 2.0 * math.pi)
            ux, uy = r * math.cos(ang), r * math.sin(ang)
            r_true = np.hypot(grid.ax - ux, grid.ay - uy)
            d_true = np.hypot(r_true, plan.h_abs_m)
            theta = np.arctan2(plan.h_abs_m, r_true)
            if state_mode == "common":
                forced = bool(gen.random() < float(ch.p_los(np.min(theta))))
            elif state_mode == "los":
                forced = True
            elif state_mode == "nlos":
                forced = False
            else:
                forced = None
            d_hat = np.empty(plan.m_points)
            for i in range(plan.m_points):
                d_hat[i], _ = sample_rss_distance(
                    float(d_true[i]), float(theta[i]), ch, gen,
                    force_state=forced)
            r_hat = np.sqrt(np.maximum(d_hat ** 2 - plan.h_abs_m ** 2, 0.0))
            est = _solve(grid, r_hat)
            pos_errors.append(math.hypot(est.x - ux, est.y - uy))
    return CampaignResult(np.array(pos_errors))

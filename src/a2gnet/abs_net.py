"""Aerial-base-station design: outage, power, coverage, and altitude optima.

The link between an aerial base station at altitude h and a ground user at
horizontal range r is Rician with elevation-dependent K-factor and path-loss
exponent, each linear in elevation between its horizon and zenith values;
outage follows from the first-order Marcum Q-function. All angles
are radians, powers are watts, and K-factors are linear ratios.

A design study rates each altitude of one coverage disc (r_c, epsilon)
against a ground station serving the same disc. `design_rows` solves the
ground side once per disc: its boundary link factor (one inverse Marcum Q
solve), its required power and its mean disc outage. Each altitude then
costs one solve and one disc outage.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, check_count, check_number
from .limits import MAX_RADIUS_M
# integrate is unused here; bench/tracing.py proxies it on traced runs
from .numerics import (db_to_linear, dbm_to_watt, integrate, inv_marcum_q,
                       optimize, special)


# elevation angles of the horizon and zenith ends of every ramp, rad
_RAMP_THETA = (0.0, math.pi / 2)


@dataclass(frozen=True)
class AbsProfile:
    """Elevation-dependent channel profile plus link budget constants.

    The linear Rician K runs from k0 at the horizon to k90 at the zenith
    (nondecreasing), the path-loss exponent from eta0 to eta90
    (nonincreasing, eta90 >= 2), each linear in elevation. noise_w is the
    total noise power over the signal bandwidth.
    """

    k0: float
    k90: float
    eta0: float
    eta90: float
    antenna_gain: float = 1.0
    noise_w: float = dbm_to_watt(-92.0)
    threshold_t: float = 1.0           # 0 dB SNR target

    def __post_init__(self):
        check_number(self.k0, "k0", minimum=0.0)
        check_number(self.k90, "k90", minimum=self.k0)
        check_number(self.eta90, "eta90", minimum=2.0)
        check_number(self.eta0, "eta0", minimum=self.eta90)
        for name in ("antenna_gain", "noise_w", "threshold_t"):
            check_number(getattr(self, name), name, above=0.0)

    def k_of_theta(self, theta):
        """K at elevation theta, what np.interp returns; theta finite."""
        return np.interp(theta, _RAMP_THETA, (self.k0, self.k90))

    def eta_of_theta(self, theta):
        """Path-loss exponent at elevation theta, as k_of_theta."""
        return np.interp(theta, _RAMP_THETA, (self.eta0, self.eta90))


def urban_abs_profile(k0_db: float = 0.0, k90_db: float = 15.0,
                      eta0: float = 3.5, eta90: float = 2.0,
                      **kwargs) -> AbsProfile:
    """Documented urban default: eta 3.5 -> 2 and K 0 dB -> 15 dB over
    elevation, interpolated linearly in the linear K ratio."""
    return AbsProfile(db_to_linear(k0_db, "k0_db"),
                      db_to_linear(k90_db, "k90_db"), eta0, eta90, **kwargs)


# ---------------------------------------------------------------------------
# Outage and required power
# ---------------------------------------------------------------------------

def outage(r_m, h_abs_m: float, p_tx_w: float, prof: AbsProfile):
    """P_out(r, h, P) = 1 - Q1(sqrt(2K), sqrt(2T(1+K) d^eta N0 / (G P))),
    what numpy gives: an array for an array r, a numpy float for one r."""
    check_number(p_tx_w, "p_tx_w", above=0.0)
    check_number(h_abs_m, "h_abs_m", minimum=0.0)
    r = np.asarray(r_m, dtype=float)
    if not np.all(r >= 0.0):
        raise DomainError("r_m must be >= 0")
    theta = np.arctan2(h_abs_m, r)
    k = prof.k_of_theta(theta)
    eta = prof.eta_of_theta(theta)
    d = np.hypot(h_abs_m, r)
    arg = (2.0 * prof.threshold_t * (1.0 + k) * d ** eta * prof.noise_w
           / (prof.antenna_gain * p_tx_w))
    # 1 - Q1(a, b) is the noncentral chi-square CDF at b^2 with
    # noncentrality a^2, accurate also where outage is small.
    return special.chndtr(arg, 2.0, 2.0 * k)


def _link_factor(k: float, epsilon: float) -> float:
    """x = (2K + 2) / b^2 with b = Q1^-1(sqrt(2K), 1 - epsilon): the SNR a
    Rician link of factor K needs for outage epsilon, per unit threshold."""
    b_sq = inv_marcum_q(math.sqrt(2.0 * k), 1.0 - epsilon) ** 2
    if b_sq == 0.0:
        raise DomainError("epsilon too small: 1 - epsilon rounds to 1")
    x = (2.0 * k + 2.0) / b_sq
    if not math.isfinite(x):
        raise DomainError(f"link factor is not finite at K = {k:g}")
    return x


class _Disc:
    """One coverage disc (r_c, epsilon) under one profile, the one place
    the design functions check their inputs.

    A boundary is the disc's edge seen from one altitude: the tuple
    (theta_c, eta(theta_c), x), x the link factor at K(theta_c). The ground
    side, the boundary at altitude 0 and the delivered fraction of a ground
    station at its required power, is the same at every altitude: each is
    computed on first use and then shared.
    """

    def __init__(self, r_c_m: float, epsilon: float, prof: AbsProfile):
        check_number(r_c_m, "r_c_m", above=0.0)
        check_number(epsilon, "epsilon", above=0.0, below=1.0)
        self.r_c_m, self.epsilon, self.prof = r_c_m, epsilon, prof

    def boundary(self, h_abs_m: float):
        check_number(h_abs_m, "h_abs_m", minimum=0.0)
        theta_c = math.atan2(h_abs_m, self.r_c_m)
        eta = self.prof.eta_of_theta(theta_c)
        return theta_c, eta, _link_factor(self.prof.k_of_theta(theta_c),
                                          self.epsilon)

    def required_power(self, boundary) -> float:
        theta_c, eta, x = boundary
        prof = self.prof
        slant = self.r_c_m / math.cos(theta_c)  # = boundary link length
        return (prof.noise_w * prof.threshold_t / prof.antenna_gain
                * x * slant ** eta)

    @functools.cached_property
    def ground(self):
        return self.boundary(0.0)

    def power_gain(self, aerial) -> float:
        """x_0 x_theta^-1 r^(eta(0)-eta(theta_c)) cos(theta_c)^eta(theta_c)."""
        _, eta0, x0 = self.ground
        theta_c, eta_c, x_c = aerial
        return (x0 / x_c * self.r_c_m ** (eta0 - eta_c)
                * math.cos(theta_c) ** eta_c)

    def served(self, h_abs_m: float, p_tx_w: float) -> float:
        """1 - mean disc outage of a station at h transmitting p_tx_w."""
        return 1.0 - mean_disc_outage(h_abs_m, p_tx_w, self.r_c_m, self.prof)

    @functools.cached_property
    def ground_served(self) -> float:
        return self.served(0.0, self.required_power(self.ground))


def required_power(h_abs_m: float, r_c_m: float, epsilon: float,
                   prof: AbsProfile) -> float:
    """Transmit power achieving outage epsilon at the boundary of a disc of
    radius r_c served from altitude h_abs."""
    disc = _Disc(r_c_m, epsilon, prof)
    return disc.required_power(disc.boundary(h_abs_m))


def power_gain(h_abs_m: float, r_c_m: float, epsilon: float,
               prof: AbsProfile) -> float:
    """Required-power ratio ground/aerial for the same disc, closed form:
    x_0 x_theta^-1 r^(eta(0)-eta(theta_c)) cos(theta_c)^eta(theta_c)."""
    disc = _Disc(r_c_m, epsilon, prof)
    return disc.power_gain(disc.boundary(h_abs_m))


# ---------------------------------------------------------------------------
# Sum rate over the coverage disc
# ---------------------------------------------------------------------------

@functools.cache
def _disc_rule():
    """64-node Gauss-Legendre rule (Golub & Welsch 1969) moved from [-1, 1]
    to u = r / r_c in [0, 1], with the area density 2u folded into the
    weights. Built on first use: numpy.polynomial costs about 2 MB of RSS
    that runs without an abs-design study should not pay."""
    x, w = np.polynomial.legendre.leggauss(64)
    u = 0.5 * (x + 1.0)
    return u, w * u


def mean_disc_outage(h_abs_m: float, p_tx_w: float, r_c_m: float,
                     prof: AbsProfile) -> float:
    """Outage averaged over the disc with area-uniform density 2r/r_c^2,
    by a fixed 64-node Gauss-Legendre rule in one vectorized outage call."""
    check_number(r_c_m, "r_c_m", above=0.0)
    u, w = _disc_rule()
    val = float(w @ outage(r_c_m * u, h_abs_m, p_tx_w, prof))
    if not math.isfinite(val):
        raise DomainError("mean disc outage is not finite")
    return min(1.0, max(0.0, val))  # the rule can round just past [0, 1]


def sum_rate(h_abs_m: float, p_tx_w: float, n_bar: float, w_hz: float,
             r_c_m: float, prof: AbsProfile) -> float:
    """Average sum rate N_bar W log2(1+T) (1 - mean disc outage), bit/s."""
    check_number(n_bar, "n_bar", minimum=0.0)
    check_number(w_hz, "w_hz", minimum=0.0)
    p_out = mean_disc_outage(h_abs_m, p_tx_w, r_c_m, prof)
    return n_bar * w_hz * math.log2(1.0 + prof.threshold_t) * (1.0 - p_out)


def design_rows(altitudes: Sequence[float], r_c_m: float, epsilon: float,
                prof: AbsProfile):
    """[(required power, power gain, sum-rate gain)], one per altitude, for
    one disc: each altitude's boundary is solved once, and the ground side
    once for all of them."""
    disc = _Disc(r_c_m, epsilon, prof)
    rows = []
    for h in altitudes:
        aerial = disc.boundary(h)
        p_abs = disc.required_power(aerial)
        rows.append((p_abs, disc.power_gain(aerial),
                     disc.served(h, p_abs) / disc.ground_served))
    return rows


# ---------------------------------------------------------------------------
# Coverage radius and altitude optimization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoverageRadius:
    radius_m: float
    no_coverage: bool = False
    capped: bool = False


def coverage_radius(h_abs_m: float, p_tx_w: float, epsilon: float,
                    prof: AbsProfile) -> CoverageRadius:
    """Largest r up to MAX_RADIUS_M with outage(r) <= epsilon, found by
    Brent's method to 0.01 m; a radius at the cap is flagged `capped`."""
    check_number(epsilon, "epsilon", above=0.0, below=1.0)
    if outage(0.0, h_abs_m, p_tx_w, prof) > epsilon:
        return CoverageRadius(0.0, no_coverage=True)
    if outage(MAX_RADIUS_M, h_abs_m, p_tx_w, prof) <= epsilon:
        return CoverageRadius(MAX_RADIUS_M, capped=True)
    r = optimize.brentq(lambda rr: outage(rr, h_abs_m, p_tx_w, prof) - epsilon,
                        0.0, MAX_RADIUS_M, xtol=0.01)
    return CoverageRadius(float(r))


# each metric of optimize_altitude and the arguments it needs
_ALTITUDE_METRICS = {"power_gain": ("r_c_m", "epsilon"),
                     "sum_rate_gain": ("r_c_m", "epsilon"),
                     "coverage_radius": ("p_tx_w", "epsilon")}


def optimize_altitude(metric: str, prof: AbsProfile, grid: Sequence[float],
                      r_c_m: float = None, epsilon: float = None,
                      p_tx_w: float = None):
    """Grid argmax of a design metric over altitude; lowest-h tie-break.

    power_gain and sum_rate_gain need r_c_m and epsilon; coverage_radius
    needs p_tx_w and epsilon. Returns (h_best, metric_value).
    """
    if metric not in _ALTITUDE_METRICS:
        raise DomainError(f"unknown metric {metric!r}")
    given = {"r_c_m": r_c_m, "epsilon": epsilon, "p_tx_w": p_tx_w}
    missing = [name for name in _ALTITUDE_METRICS[metric]
               if given[name] is None]
    if missing:
        raise DomainError(f"{metric} needs {' and '.join(missing)}")
    grid = sorted(float(h) for h in grid)
    check_count(len(grid), "grid size", 1)

    if metric == "coverage_radius":
        values = [coverage_radius(h, p_tx_w, epsilon, prof).radius_m
                  for h in grid]
    elif metric == "sum_rate_gain":
        values = [row[2] for row in design_rows(grid, r_c_m, epsilon, prof)]
    else:  # the power gain needs no disc outage: only the boundaries
        disc = _Disc(r_c_m, epsilon, prof)
        values = [disc.power_gain(disc.boundary(h)) for h in grid]
    best = int(np.argmax(values))  # first occurrence = lowest altitude
    return grid[best], values[best]

"""Design an aerial base station: power, coverage radius, and altitude.

All quantities are closed-form or quadrature-based (no Monte Carlo), so the
script is instant and deterministic.
"""

import numpy as np

from a2gnet import abs_net as ab

PROF = ab.urban_abs_profile()   # eta 3.5 -> 2, K 0 -> 15 dB over elevation


def main():
    p_req = ab.required_power(200.0, 500.0, 0.05, PROF)
    print(f"Serving a 500 m disc from 200 m with 5% boundary outage needs "
          f"{1e3 * p_req:.2f} mW")
    print(f"  check: outage at the boundary = "
          f"{ab.outage(500.0, 200.0, p_req, PROF):.4f}\n")

    print("Power gain over a ground station for the same disc:")
    hs = np.linspace(50, 2500, 12)
    gains = [ab.power_gain(h, 500.0, 0.05, PROF) for h in hs]
    for h, g in zip(hs, gains):
        print(f"  h={h:6.0f} m: {10 * np.log10(g):6.2f} dB")
    h_pg, _ = ab.optimize_altitude("power_gain", PROF, hs, r_c_m=500.0,
                                   epsilon=0.05)
    h_sr, _ = ab.optimize_altitude("sum_rate_gain", PROF, hs, r_c_m=500.0,
                                   epsilon=0.05)
    print(f"\nOptimal altitudes: power gain at {h_pg:.0f} m, sum-rate gain at "
          f"{h_sr:.0f} m (capacity prefers flying lower)\n")

    print("Coverage radius with a fixed 10 uW budget:")
    for h in [100, 300, 600, 1000, 2000]:
        res = ab.coverage_radius(float(h), 1e-5, 0.05, PROF)
        note = " (no coverage)" if res.no_coverage else ""
        print(f"  h={h:5d} m: r_c = {res.radius_m:7.1f} m{note}")
    h_best, r_best = ab.optimize_altitude("coverage_radius", PROF,
                                          np.linspace(100, 3000, 30),
                                          p_tx_w=1e-5, epsilon=0.05)
    print(f"  -> best altitude {h_best:.0f} m covers r = {r_best:.0f} m")

    rate = ab.sum_rate(300.0, p_req, 20.0, 20e6, 500.0, PROF)
    print(f"\nAverage sum rate with 20 users in the disc at h=300 m: "
          f"{rate / 1e6:.1f} Mb/s")


if __name__ == "__main__":
    main()

"""Aerial-UE coverage and capacity under a Poisson network.

Reproduces the qualitative case studies: the altitude sweet spot, the
densification collapse, and the gain from a well-chosen conical antenna.
Runs in about a minute at the default trial counts.
"""

from a2gnet import aue_net as au
from a2gnet.numerics import RngStream

CFG = au.AueNetworkConfig()          # urban preset, 5 BS/km^2, 43 dBm
TRIALS = 800
T_MAX = 1000.0                       # 30 dB SINR cap for readable numbers


def altitude_story():
    print("Capacity vs altitude (omni UE antenna)")
    for i, h in enumerate([5, 15, 30, 60, 120, 300]):
        est = au.capacity(float(h), CFG, TRIALS, RngStream(1, i), t_max=T_MAX)
        cov = au.coverage_probability_mc(float(h), CFG, TRIALS, RngStream(2, i))
        bar = "#" * int(est.value * 8)
        print(f"  h={h:4d} m: {est.value:5.2f} b/s/Hz (+/-{est.ci95:.2f})  "
              f"P_cov(0 dB)={cov.value:.2f}  {bar}")
    print("  -> street level is clutter-limited, high altitude is"
          " interference-limited; the optimum sits just above the rooftops\n")


def density_story():
    print("Capacity vs base-station density at h = 60 m")
    grid = [1, 5, 20, 50, 100]
    pts = au.sweep(CFG, "density", grid, uav_h=60.0,
                   n_trials=TRIALS, rng=RngStream(3), t_max=T_MAX)
    for x, p in zip(grid, pts):
        print(f"  lambda={x:5.0f}/km^2: {p.value:5.2f} b/s/Hz (+/-{p.ci95:.2f})")
    print("  -> densification first helps the serving link, then the"
          " interference floor wins\n")


def beamwidth_story():
    print("Conical UE antenna at h = 150 m (aimed straight down)")
    omni = au.capacity(150.0, CFG, TRIALS, RngStream(4), t_max=T_MAX)
    print(f"  omni 2.15 dBi     : {omni.value:5.2f} b/s/Hz")
    grid = [40, 80, 120, 140, 160]
    pts = au.sweep(CFG, "phi_b", grid, uav_h=150.0,
                   n_trials=TRIALS, rng=RngStream(4), t_max=T_MAX)
    for x, p in zip(grid, pts):
        print(f"  cone {x:5.0f} deg   : {p.value:5.2f} b/s/Hz (+/-{p.ci95:.2f})")
    best_x, _ = max(zip(grid, pts), key=lambda xp: xp[1].value)
    print(f"  -> opening angle ~{best_x:.0f} deg keeps the serving site inside"
          " the lobe while blanking distant interferers\n")


def ase_story():
    print("Area spectral efficiency mixing ground and aerial users")
    for rho in [0.0, 0.5, 1.0]:
        from dataclasses import replace
        val = au.ase(replace(CFG, aue_ratio_rho=rho), 60.0, 400,
                     RngStream(5), k_nodes=100)
        print(f"  rho={rho:3.1f}: {val:7.2f} b/s/Hz/km^2")


if __name__ == "__main__":
    altitude_story()
    density_story()
    beamwidth_story()
    ase_story()

"""Walk through the air-to-ground channel catalog.

Prints the propagation slice, LOS probabilities, slice-appropriate path
loss, and shadowing levels as a UAV climbs from street level to 300 m, for
a ground station 500 m away.
"""

import math

import numpy as np

from a2gnet import channel as ch

ENV = ch.urban()
F_GHZ = 1.8
D_H = 500.0    # horizontal distance to the ground station, m
H_BS = 30.0    # ground station height, m


def describe(h_uav):
    slice_ = ch.slice_of(h_uav, ENV)
    p_build = (ch.p_los_building(D_H, h_uav, H_BS, ENV) if h_uav > H_BS
               else float("nan"))
    p_3gpp = ch.p_los_3gpp(D_H, h_uav, slice_)
    pl_los, pl_nlos = (ch.pl_3gpp_rural_db(D_H, h_uav, H_BS, F_GHZ, ENV, los,
                                           slice_) for los in (True, False))
    avg = ch.averaged_pl_db(pl_los, pl_nlos, float(p_3gpp))
    sigma = ch.shadowing_sigma_db(slice_, True, D_H, h_uav, H_BS, F_GHZ)
    return slice_, p_build, p_3gpp, pl_los, pl_nlos, avg, sigma


def main():
    print(f"Urban environment: varsigma={ENV.varsigma}, xi={ENV.xi}/km^2, "
          f"omega={ENV.omega} m; d_h = 500 m, f = {F_GHZ} GHz")
    print(f"{'h_uav':>6} {'slice':>14} {'P_los(bldg)':>12} {'P_los(3gpp)':>12} "
          f"{'PL_los':>8} {'PL_nlos':>8} {'PL_avg':>8} {'sigma_los':>9}")
    for h in [1.5, 10.0, 22.5, 40.0, 60.0, 100.0, 150.0, 300.0]:
        slice_, pb, p3, pl_l, pl_n, avg, sig = describe(h)
        pb_txt = f"{pb:12.3f}" if not math.isnan(pb) else " " * 11 + "-"
        print(f"{h:6.1f} {slice_.value:>14} {pb_txt} {p3:12.3f} "
              f"{pl_l:8.1f} {pl_n:8.1f} {avg:8.1f} {sig:9.2f}")

    print("\nMeasured log-distance rows expose their ranges and never pick "
          "silently:")
    spec = ch.log_distance_from_preset("l_band_968mhz")
    print(f"  l_band_968mhz: eta={spec.eta}, Lambda0={spec.lambda0_db} dB "
          f"-> PL(1 km) = "
          f"{ch.log_distance_pl_db(1000.0, spec.lambda0_db, spec.eta):.1f} dB")

    print("\nComposed link-loss sampler (PL + shadowing + fading), "
          "LOS state drawn per draw:")
    from a2gnet.numerics import RngStream

    h_uav = 60.0
    lambda0 = ch.free_space_reference_loss_db(F_GHZ * 1e9)
    pl = [ch.log_distance_pl_db(math.hypot(D_H, h_uav - H_BS), lambda0, eta)
          for eta in (2.0, 3.5)]
    p_los = ch.p_los_3gpp(D_H, h_uav, ch.slice_of(h_uav, ENV))
    loss, flags = ch.sample_link_loss_db(pl, (4.0, 6.0), p_los,
                                         RngStream(7).child_generator(),
                                         fading_m=(3, 3), n=20000)
    print(f"  mean loss {np.mean(loss):.1f} dB, LOS fraction "
          f"{np.mean(flags):.3f} (model {p_los:.3f})")


if __name__ == "__main__":
    main()

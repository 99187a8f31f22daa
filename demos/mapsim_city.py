"""Map-driven downlink study on a synthetic city.

Builds a Manhattan-grid city from dense-urban building statistics, raises
rooftop sector sites, and traces the coverage-vs-altitude curve that shows
the rooftop sweet spot and the interference collapse aloft.
"""

from a2gnet import channel as ch
from a2gnet import mapsim as ms
from a2gnet.heightmap import building_stats, save_ascii_grid, synthetic_city
from a2gnet.numerics import RngStream

ENV = ch.dense_urban()


def main():
    city = synthetic_city(480.0, 4.0, ENV, RngStream(12).child_generator(),
                          min_height_m=4.0)
    stats = building_stats(city, 4.0)
    print(f"Synthetic city: {city.ncols}x{city.nrows} cells at "
          f"{city.cellsize:.0f} m, mean building {stats.mean_height_m:.1f} m, "
          f"Rayleigh scale fit {stats.rayleigh_scale_m:.1f} m "
          f"(generator {ENV.omega})")

    pts = [(120, 120), (360, 120), (120, 360), (360, 360), (240, 240)]
    sites = [ms.site_on_roof(city, float(x), float(y), p_tx_dbm=46.0)
             for x, y in pts]
    print("Sites (mast = roof + 5 m):",
          ", ".join(f"{s.position.h:.1f} m" for s in sites))

    cfg = ms.MapSimConfig(env=ENV)
    print(f"Noise floor: {cfg.noise_dbm:.1f} dBm over "
          f"{cfg.bandwidth_hz / 1e6:.0f} MHz\n")

    heights = [1.5, 10.0, 20.0, 30.0, 60.0, 100.0, 150.0]
    grids = dict(zip(heights, ms.sinr_grids(sites, city, heights, cfg,
                                            stride=4)))
    print("Coverage at the -6 dB command-and-control threshold:")
    for h, grid in grids.items():
        frac = grid.coverage_fraction(-6.0)
        bar = "#" * int(frac * 40)
        print(f"  h={h:6.1f} m: {frac:5.2f}  "
              f"P(LOS to any site)={grid.p_los_any:.2f}  {bar}")
    print("  -> best service at rooftop level; at 150 m every site is "
          "visible and interference wins")

    raster = type(city)(heights=grids[20.0].sinr_db[::-1, :],
                        cellsize=city.cellsize * 4)
    save_ascii_grid(raster, "sinr_rooftop.asc")
    print("\nWrote sinr_rooftop.asc (ESRI ASCII raster of SINR at 20 m)")


if __name__ == "__main__":
    main()

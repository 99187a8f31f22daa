import numpy as np
import pytest

from a2gnet import channel as ch
from a2gnet.antenna_geometry import Position3D
from a2gnet.errors import DomainError, GridParseError
from a2gnet.heightmap import (
    HeightMap,
    building_stats,
    load_ascii_grid,
    los_check,
    save_ascii_grid,
    synthetic_city,
)
from a2gnet.numerics import RngStream


def sampled_los(a, b, hm, n=4000):
    """Dense-sampling reference: the segment clears surface_at everywhere."""
    if a.h <= hm.surface_at(a.x, a.y) or b.h <= hm.surface_at(b.x, b.y):
        return False
    t = np.linspace(0.0, 1.0, n)[1:-1]
    x = a.x + t * (b.x - a.x)
    y = a.y + t * (b.y - a.y)
    z = a.h + t * (b.h - a.h)
    return bool(np.all(z > hm.surface_at(x, y)))


class TestAsciiGridIO:
    def test_flat_two_by_two(self, tmp_path):
        p = tmp_path / "flat.asc"
        p.write_text("ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\n"
                     "cellsize 10\nNODATA_value -9999\n0 0\n0 0\n")
        hm = load_ascii_grid(p)
        assert hm.ncols == hm.nrows == 2
        assert np.all(hm.heights == 0.0)

    def test_column_mismatch_names_line(self, tmp_path):
        p = tmp_path / "bad.asc"
        p.write_text("ncols 3\nnrows 2\nxllcorner 0\nyllcorner 0\n"
                     "cellsize 10\nNODATA_value -9999\n1 2 3\n4 5\n")
        with pytest.raises(GridParseError) as err:
            load_ascii_grid(p)
        assert err.value.line == 8

    def test_non_numeric_named_line(self, tmp_path):
        p = tmp_path / "bad2.asc"
        p.write_text("ncols 2\nnrows 1\ncellsize 10\n1 oops\n")
        with pytest.raises(GridParseError) as err:
            load_ascii_grid(p)
        assert err.value.line == 4

    def test_row_count_checked(self, tmp_path):
        p = tmp_path / "short.asc"
        p.write_text("ncols 2\nnrows 3\ncellsize 10\n1 2\n3 4\n")
        with pytest.raises(GridParseError):
            load_ascii_grid(p)

    def test_synthetic_city_round_trips_bit_exact(self, tmp_path):
        city = synthetic_city(300.0, 3.0, ch.urban(), RngStream(7))
        p = tmp_path / "city.asc"
        save_ascii_grid(city, p, fmt="%.17g")
        back = load_ascii_grid(p)
        assert back.cellsize == city.cellsize
        assert np.array_equal(back.heights, city.heights)

    def test_nodata_round_trip(self, tmp_path):
        hm = HeightMap(np.array([[1.0, np.nan], [2.0, 3.0]]), cellsize=5.0)
        p = tmp_path / "nd.asc"
        save_ascii_grid(hm, p)
        back = load_ascii_grid(p)
        assert np.isnan(back.heights[0, 1])


class TestSurface:
    def test_bilinear_between_centers(self):
        hm = HeightMap(np.array([[0.0, 10.0], [0.0, 10.0]]), cellsize=10.0)
        # halfway between the two columns' centers
        assert hm.surface_at(10.0, 10.0) == pytest.approx(5.0)

    def test_clamped_outside_centers(self):
        hm = HeightMap(np.array([[0.0, 10.0], [0.0, 10.0]]), cellsize=10.0)
        assert hm.surface_at(0.0, 5.0) == pytest.approx(0.0)
        assert hm.surface_at(20.0, 5.0) == pytest.approx(10.0)


class TestLosCheck:
    def test_flat_map_clear(self):
        hm = HeightMap(np.zeros((20, 20)), cellsize=5.0)
        assert los_check(Position3D(3, 3, 2), Position3D(90, 90, 2), hm)

    def test_wall_blocks(self):
        grid = np.zeros((21, 21))
        grid[:, 10] = 30.0
        hm = HeightMap(grid, cellsize=5.0)
        assert not los_check(Position3D(10, 50, 2), Position3D(95, 50, 2), hm)
        assert los_check(Position3D(10, 50, 35), Position3D(95, 50, 35), hm)

    def test_endpoint_below_surface_obstructed(self):
        grid = np.zeros((5, 5))
        grid[2, 2] = 10.0
        hm = HeightMap(grid, cellsize=10.0)
        assert not los_check(Position3D(25, 25, 5), Position3D(5, 5, 20), hm)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        hm = HeightMap(rng.uniform(0, 15, (30, 30)), cellsize=2.0)
        for _ in range(100):
            a = Position3D(rng.uniform(0, 60), rng.uniform(0, 60),
                           rng.uniform(0, 25))
            b = Position3D(rng.uniform(0, 60), rng.uniform(0, 60),
                           rng.uniform(0, 25))
            assert los_check(a, b, hm) == los_check(b, a, hm)

    def test_outside_extent_rejected(self):
        hm = HeightMap(np.zeros((5, 5)), cellsize=10.0)
        with pytest.raises(DomainError):
            los_check(Position3D(-1, 0, 5), Position3D(10, 10, 5), hm)

    def test_matches_dense_sampling_oracle(self):
        rng = np.random.default_rng(3)
        hm = HeightMap(rng.uniform(0, 20, (50, 50)), cellsize=1.0)
        agree = 0
        for _ in range(1000):
            a = Position3D(rng.uniform(0, 50), rng.uniform(0, 50),
                           rng.uniform(0, 30))
            b = Position3D(rng.uniform(0, 50), rng.uniform(0, 50),
                           rng.uniform(0, 30))
            agree += los_check(a, b, hm) == sampled_los(a, b, hm)
        assert agree == 1000


def _border_ring_map(kind):
    rng = np.random.default_rng(21)
    shape = {"one_row": (1, 9), "one_col": (9, 1)}.get(kind, (6, 7))
    heights = rng.uniform(0, 20, shape)
    if kind == "nodata_edge":
        heights[0, 3] = np.nan   # on the edge
        heights[4, 1] = np.nan   # next to the edge: its clamped patch reads it
    return HeightMap(heights, cellsize=2.5, xllcorner=10.0, yllcorner=-20.0)


class TestLosBorderRing:
    """los_check against the sampling oracle where the walker reads the
    edge ring of its padded grid: the half-cell border ring, the first and
    last cell-center lines, one-row and one-column maps, and no-data cells
    at the edge."""

    @staticmethod
    def _ring(rng, n):
        # cell-center units: the map spans [-0.5, n - 0.5], the ring lies
        # outside the outermost centers
        if rng.random() < 0.5:
            return rng.uniform(-0.5, 0.0)
        return rng.uniform(n - 1.0, n - 0.5)

    def _rays(self, hm, rng):
        x0, y0, cs = hm.xllcorner, hm.yllcorner, hm.cellsize

        def point(u, v):
            return Position3D(x0 + (u + 0.5) * cs, y0 + (v + 0.5) * cs,
                              rng.uniform(0, 25))

        def anywhere(n):
            return rng.uniform(-0.5, n - 0.5)

        nc, nr = hm.ncols, hm.nrows
        for _ in range(150):  # both endpoints in the border ring
            yield (point(self._ring(rng, nc), anywhere(nr)),
                   point(anywhere(nc), self._ring(rng, nr)))
        for _ in range(150):  # one endpoint in a corner of the ring
            yield (point(self._ring(rng, nc), self._ring(rng, nr)),
                   point(anywhere(nc), anywhere(nr)))
        for _ in range(100):  # along the first or last cell-center line
            u = float(rng.choice([0.0, nc - 1.0]))
            v = float(rng.choice([0.0, nr - 1.0]))
            yield point(u, anywhere(nr)), point(u, anywhere(nr))
            yield point(anywhere(nc), v), point(anywhere(nc), v)

    @pytest.mark.parametrize("kind", ["square", "one_row", "one_col",
                                      "nodata_edge"])
    def test_matches_dense_sampling_oracle(self, kind):
        hm = _border_ring_map(kind)
        rng = np.random.default_rng(5)
        rays = list(self._rays(hm, rng))
        got = [los_check(a, b, hm) for a, b in rays]
        want = [sampled_los(a, b, hm) for a, b in rays]
        assert got == want
        assert 0 < sum(got) < len(got)


class TestBuildingStats:
    def test_empty_below_threshold(self):
        hm = HeightMap(np.full((10, 10), 2.0), cellsize=1.0)
        st = building_stats(hm, 4.0)
        assert st.n_building_cells == 0
        assert st.rayleigh_scale_m is None

    def test_rayleigh_ml_consistency(self):
        rng = RngStream(13).generator()
        hm = HeightMap(rng.rayleigh(10.0, (330, 330)), cellsize=1.0)
        st = building_stats(hm, 0.0)
        assert st.n_building_cells >= 100_000
        assert st.rayleigh_scale_m == pytest.approx(10.0, abs=0.2)

    def test_mean_is_arithmetic_mean(self):
        heights = np.array([[5.0, 1.0], [7.0, 9.0]])
        hm = HeightMap(heights, cellsize=1.0)
        st = building_stats(hm, 4.0)
        assert st.mean_height_m == pytest.approx((5 + 7 + 9) / 3)
        assert st.n_building_cells == 3


class TestSyntheticCity:
    def test_coverage_fraction_tracks_varsigma(self):
        env = ch.urban()  # varsigma 0.3
        city = synthetic_city(1200.0, 3.0, env, RngStream(5))
        frac = float(np.mean(city.heights > 0))
        assert frac == pytest.approx(env.varsigma, abs=0.1)

    def test_deterministic_under_seed(self):
        a = synthetic_city(300.0, 3.0, ch.urban(), RngStream(9))
        b = synthetic_city(300.0, 3.0, ch.urban(), RngStream(9))
        assert np.array_equal(a.heights, b.heights)

    def test_heights_follow_rayleigh_scale(self):
        env = ch.dense_urban()  # omega 20
        city = synthetic_city(4320.0, 6.0, env, RngStream(15))
        st = building_stats(city, 0.5)
        assert st.rayleigh_scale_m == pytest.approx(env.omega, rel=0.02)

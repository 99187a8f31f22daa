import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a2gnet import channel as ch
from a2gnet import heightmap
from a2gnet.antenna_geometry import Position3D
from a2gnet.errors import DomainError, GridParseError
from a2gnet.heightmap import (
    HeightMap,
    building_stats,
    load_ascii_grid,
    los_mask,
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


def one_ray(a, b, hm):
    """los_mask's decision for the one ray from a to b."""
    return los_mask([a], b.x, b.y, [b.h], hm)[0, 0]


def _patch_breakpoints(p0, p1):
    """Parameters in (0,1) where p(t) = p0 + t (p1-p0) crosses integers."""
    dp = p1 - p0
    if dp == 0.0:
        return []
    ks = range(math.ceil(min(p0, p1)), math.floor(max(p0, p1)) + 1)
    return [t for t in ((k - p0) / dp for k in ks) if 0.0 < t < 1.0]


def reference_los(a, b, hm):
    """Scalar reference walker: one ray, one patch interval at a time.

    True iff the open segment a-b clears the bilinear surface everywhere.
    Endpoints at or below the surface count as obstructed. Exact per patch:
    the clearance is quadratic in t on each interval, so its minimum is
    evaluated in closed form.
    """
    for p in (a, b):
        if not hm.contains(p.x, p.y):
            raise DomainError("line-of-sight endpoints must lie inside the map")
    if a.h <= hm.surface_at(a.x, a.y) or b.h <= hm.surface_at(b.x, b.y):
        return False

    inv = 1.0 / hm.cellsize
    u0 = (a.x - hm.xllcorner) * inv - 0.5
    u1 = (b.x - hm.xllcorner) * inv - 0.5
    v0 = (a.y - hm.yllcorner) * inv - 0.5
    v1 = (b.y - hm.yllcorner) * inv - 0.5

    ts = sorted(set([0.0, 1.0] + _patch_breakpoints(u0, u1)
                    + _patch_breakpoints(v0, v1)))

    g = hm._padded_grid
    du = u1 - u0
    dv = v1 - v0
    dz = b.h - a.h

    for t_lo, t_hi in zip(ts, ts[1:]):
        if t_hi - t_lo < 1e-15:
            continue
        tm = 0.5 * (t_lo + t_hi)
        # patch (i, j) spans padded corners [i+1, j+1] .. [i+2, j+2]; over
        # the border ring j or i is -1 or the last index
        j = math.floor(u0 + tm * du)
        i = math.floor(v0 + tm * dv)
        fu0 = u0 + t_lo * du - j
        fv0 = v0 + t_lo * dv - i

        h00 = g[i + 1, j + 1]
        h10 = g[i + 1, j + 2]
        h01 = g[i + 2, j + 1]
        h11 = g[i + 2, j + 2]
        if np.isnan(h00) or np.isnan(h10) or np.isnan(h01) or np.isnan(h11):
            return False  # no-data blocks by convention

        # surface along the segment: s(tau) = c0 + c1 tau + c2 tau^2 with
        # tau = t - t_lo, from the bilinear form
        bx = h10 - h00
        by = h01 - h00
        bxy = h11 - h10 - h01 + h00
        c0 = h00 + bx * fu0 + by * fv0 + bxy * fu0 * fv0
        c1 = bx * du + by * dv + bxy * (fu0 * dv + fv0 * du)
        c2 = bxy * du * dv
        # clearance g(tau) = z(tau) - s(tau)
        z0 = a.h + t_lo * dz
        g0 = z0 - c0
        g1 = dz - c1
        g2 = -c2
        span = t_hi - t_lo
        g_lo = g0
        g_hi = g0 + g1 * span + g2 * span * span
        gmin = min(g_lo, g_hi)
        if g2 > 0:  # convex clearance: interior vertex can dip lower
            tv = -g1 / (2.0 * g2)
            if 0.0 < tv < span:
                gmin = min(gmin, g0 + g1 * tv + g2 * tv * tv)
        if gmin <= 0.0:
            return False
    return True


class TestAsciiGridIO:
    def test_flat_two_by_two(self, tmp_path):
        p = tmp_path / "flat.asc"
        p.write_text("ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\n"
                     "cellsize 10\nNODATA_value -9999\n0 0\n0 0\n")
        hm = load_ascii_grid(p)
        assert hm.ncols == hm.nrows == 2
        assert np.all(hm.heights == 0.0)

    def test_byte_order_mark_loads(self, tmp_path):
        # a BOM before "ncols" failed as "line 1: non-numeric height value"
        text = ("ncols 3\nnrows 2\nxllcorner 5\nyllcorner -5\n"
                "cellsize 10\nNODATA_value -9999\n1 2 3\n4 -9999 6.5\n")
        plain, marked = tmp_path / "plain.asc", tmp_path / "marked.asc"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes()[:3] == b"\xef\xbb\xbf"
        a, b = load_ascii_grid(plain), load_ascii_grid(marked)
        assert np.array_equal(a.heights, b.heights, equal_nan=True)
        assert (a.xllcorner, a.yllcorner, a.cellsize, a.nodata_value) \
            == (b.xllcorner, b.yllcorner, b.cellsize, b.nodata_value)

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

    @pytest.mark.parametrize("key,value", [
        ("ncols", "inf"), ("ncols", "4.5"), ("ncols", "0"), ("nrows", "-2"),
        ("xllcorner", "nan"), ("yllcorner", "-inf"), ("cellsize", "nan"),
        ("cellsize", "inf"), ("nodata_value", "nan")])
    def test_bad_header_value_names_line(self, tmp_path, key, value):
        header = {"ncols": "2", "nrows": "2", "xllcorner": "0",
                  "yllcorner": "0", "cellsize": "10", "nodata_value": "-9999"}
        header[key] = value
        p = tmp_path / "bad.asc"
        p.write_text("".join(f"{k} {v}\n" for k, v in header.items())
                     + "0 0\n0 0\n")
        with pytest.raises(GridParseError, match=key) as err:
            load_ascii_grid(p)
        assert err.value.line == list(header).index(key) + 1

    @pytest.mark.parametrize("value", ["1e308", "-1e6", "10000.5", "inf"])
    def test_height_beyond_bound_names_line(self, tmp_path, value):
        # a 1e308 m cell exited 0 with overflow warnings from _blocked
        p = tmp_path / "tower.asc"
        p.write_text("ncols 3\nnrows 3\ncellsize 10\nNODATA_value -9999\n"
                     f"0 0 0\n0 {value} 0\n0 0 0\n")
        with pytest.raises(GridParseError, match="column 2") as err:
            load_ascii_grid(p)
        assert err.value.line == 6

    def test_heights_at_bound_and_far_nodata_load(self, tmp_path):
        top = heightmap.MAX_SURFACE_M
        p = tmp_path / "edge.asc"
        p.write_text("ncols 3\nnrows 1\ncellsize 10\nNODATA_value -3.4e38\n"
                     f"{top:.17g} {-top:.17g} -3.4e38\n")
        hm = load_ascii_grid(p)
        assert hm.heights[0, :2].tolist() == [top, -top]
        assert np.isnan(hm.heights[0, 2])

    @pytest.mark.parametrize("field,value", [
        ("cellsize", math.nan), ("cellsize", math.inf), ("cellsize", 0.0),
        ("xllcorner", math.nan), ("yllcorner", -math.inf)])
    def test_non_finite_geometry_rejected(self, field, value):
        with pytest.raises(DomainError):
            HeightMap(np.zeros((2, 2)), **{"cellsize": 10.0, field: value})

    def test_synthetic_city_round_trips_bit_exact(self, tmp_path):
        # save, load, save gives identical text: a raster the CLI reads back
        # is written again byte for byte
        city = synthetic_city(300.0, 3.0, ch.urban(), RngStream(7).child_generator())
        first, second = tmp_path / "city.asc", tmp_path / "again.asc"
        save_ascii_grid(city, first)
        back = load_ascii_grid(first)
        save_ascii_grid(back, second)
        assert back.cellsize == city.cellsize
        assert second.read_bytes() == first.read_bytes()

    def test_nodata_round_trip(self, tmp_path):
        hm = HeightMap(np.array([[1.0, np.nan], [2.0, 3.0]]), cellsize=5.0)
        p = tmp_path / "nd.asc"
        save_ascii_grid(hm, p)
        back = load_ascii_grid(p)
        assert np.isnan(back.heights[0, 1])


def reference_surface_at(hm, x, y):
    """Clamp-branch reference: the bilinear surface read from the unpadded
    bottom-up grid, each corner index clamped into the grid."""
    g = hm.heights[::-1, :]
    u = (np.asarray(x, dtype=float) - hm.xllcorner) / hm.cellsize - 0.5
    v = (np.asarray(y, dtype=float) - hm.yllcorner) / hm.cellsize - 0.5
    u = np.clip(u, 0.0, hm.ncols - 1.0)
    v = np.clip(v, 0.0, hm.nrows - 1.0)
    j0 = np.clip(np.floor(u).astype(int), 0, hm.ncols - 2) \
        if hm.ncols > 1 else np.zeros_like(u, dtype=int)
    i0 = np.clip(np.floor(v).astype(int), 0, hm.nrows - 2) \
        if hm.nrows > 1 else np.zeros_like(v, dtype=int)
    fu = u - j0
    fv = v - i0
    h00 = g[i0, j0]
    h10 = g[i0, np.minimum(j0 + 1, hm.ncols - 1)]
    h01 = g[np.minimum(i0 + 1, hm.nrows - 1), j0]
    h11 = g[np.minimum(i0 + 1, hm.nrows - 1),
            np.minimum(j0 + 1, hm.ncols - 1)]
    out = (h00 * (1 - fu) * (1 - fv) + h10 * fu * (1 - fv)
           + h01 * (1 - fu) * fv + h11 * fu * fv)
    return float(out) if np.ndim(out) == 0 else out


class TestSurface:
    def test_matches_clamp_reference_bit_for_bit(self):
        # 1-row and 1-column grids, no-data and infinite cells, cell
        # centres, borders, the outermost centre lines and points outside
        # the map
        rng = np.random.default_rng(214)
        shapes = [(1, 1), (1, 2), (2, 1), (1, 7), (7, 1), (2, 2), (5, 3), (11, 11)]
        n = 0
        for nrows, ncols in shapes:
            for bad in (None, np.nan, np.inf):
                heights = rng.uniform(0.0, 30.0, (nrows, ncols))
                if bad is not None:
                    heights[rng.random((nrows, ncols)) < 0.2] = bad
                    heights[rng.integers(nrows), rng.integers(ncols)] = bad
                hm = HeightMap(heights, cellsize=float(rng.uniform(1.0, 7.3)),
                               xllcorner=float(rng.uniform(-50, 50)),
                               yllcorner=float(rng.uniform(-50, 50)))
                u = np.concatenate([
                    np.arange(ncols) + 0.0, [-3.0, -0.5, 0.0, ncols - 1.0,
                                             ncols - 0.5, ncols + 2.0],
                    rng.uniform(-1.0, ncols, 40)])
                v = np.concatenate([
                    np.arange(nrows) + 0.0, [-3.0, -0.5, 0.0, nrows - 1.0,
                                             nrows - 0.5, nrows + 2.0],
                    rng.uniform(-1.0, nrows, 40)])
                uu, vv = np.meshgrid(u, v)
                x = hm.xllcorner + (uu + 0.5) * hm.cellsize
                y = hm.yllcorner + (vv + 0.5) * hm.cellsize
                with np.errstate(invalid="ignore"):  # inf * 0 reads NaN
                    got = hm.surface_at(x, y)
                    want = reference_surface_at(hm, x, y)
                    scalars = [hm.surface_at(x.flat[k], y.flat[k])
                               for k in (0, -1)]
                np.testing.assert_array_equal(got, want)  # NaN where NaN
                assert np.array_equal(np.signbit(got), np.signbit(want))
                np.testing.assert_array_equal(scalars, want.flat[[0, -1]])
                n += got.size
        assert n > 10_000

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
        assert one_ray(Position3D(3, 3, 2), Position3D(90, 90, 2), hm)

    def test_wall_blocks(self):
        grid = np.zeros((21, 21))
        grid[:, 10] = 30.0
        hm = HeightMap(grid, cellsize=5.0)
        assert not one_ray(Position3D(10, 50, 2), Position3D(95, 50, 2), hm)
        assert one_ray(Position3D(10, 50, 35), Position3D(95, 50, 35), hm)

    def test_endpoint_below_surface_obstructed(self):
        grid = np.zeros((5, 5))
        grid[2, 2] = 10.0
        hm = HeightMap(grid, cellsize=10.0)
        assert not one_ray(Position3D(25, 25, 5), Position3D(5, 5, 20), hm)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        hm = HeightMap(rng.uniform(0, 15, (30, 30)), cellsize=2.0)
        for _ in range(100):
            a = Position3D(rng.uniform(0, 60), rng.uniform(0, 60),
                           rng.uniform(0, 25))
            b = Position3D(rng.uniform(0, 60), rng.uniform(0, 60),
                           rng.uniform(0, 25))
            assert one_ray(a, b, hm) == one_ray(b, a, hm)

    def test_outside_extent_rejected(self):
        hm = HeightMap(np.zeros((5, 5)), cellsize=10.0)
        with pytest.raises(DomainError):
            one_ray(Position3D(-1, 0, 5), Position3D(10, 10, 5), hm)

    def test_matches_dense_sampling_oracle(self):
        rng = np.random.default_rng(3)
        hm = HeightMap(rng.uniform(0, 20, (50, 50)), cellsize=1.0)
        agree = 0
        for _ in range(1000):
            a = Position3D(rng.uniform(0, 50), rng.uniform(0, 50),
                           rng.uniform(0, 30))
            b = Position3D(rng.uniform(0, 50), rng.uniform(0, 50),
                           rng.uniform(0, 30))
            agree += one_ray(a, b, hm) == sampled_los(a, b, hm)
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
    """One-ray casts against the sampling oracle where the walker reads the
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
        got = [bool(one_ray(a, b, hm)) for a, b in rays]
        want = [sampled_los(a, b, hm) for a, b in rays]
        assert got == want
        assert 0 < sum(got) < len(got)


def _world(hm, u, v, h):
    """Position3D at cell-centre coordinates (u, v) of hm."""
    return Position3D(hm.xllcorner + (u + 0.5) * hm.cellsize,
                      hm.yllcorner + (v + 0.5) * hm.cellsize, h)


def _assert_matches_reference(hm, sites, x, y, heights):
    """los_mask from the sites to the cells (x, y) at the shared heights,
    over all cells and over each cell on its own, equals reference_los per
    (height, site, cell)."""
    with np.errstate(over="ignore"):  # the reference's vertex can overflow
        want = np.array([[[reference_los(a, Position3D(xj, yj, h), hm)
                           for xj, yj in zip(x, y)] for a in sites]
                         for h in heights], dtype=bool)
    assert np.array_equal(los_mask(sites, x, y, heights, hm), want)
    for j in range(len(x)):
        assert np.array_equal(los_mask(sites, x[j], y[j], heights, hm),
                              want[..., j])


def _random_map(rng):
    nrows, ncols = (int(n) for n in rng.integers(1, 12, 2))
    heights = rng.uniform(0.0, 20.0, (nrows, ncols))
    if rng.random() < 0.5:
        heights = np.round(heights)
    for _ in range(rng.integers(0, 3)):  # on the edge or one cell in
        r = int(rng.choice([0, 1, nrows - 2, nrows - 1])) % nrows
        c = int(rng.choice([0, 1, ncols - 2, ncols - 1])) % ncols
        if rng.random() < 0.5:
            r = int(rng.integers(nrows))
        else:
            c = int(rng.integers(ncols))
        heights[r, c] = np.nan
    return HeightMap(heights, cellsize=float(rng.uniform(1.0, 7.3)),
                     xllcorner=float(rng.uniform(-100, 100)),
                     yllcorner=float(rng.uniform(-100, 100)))


def _random_coord(rng, n):
    """Cell-centre units: border ring, first/middle/last centre line, map
    edge, a cell centre, or anywhere."""
    return [rng.uniform(-0.5, 0.0), rng.uniform(n - 1.0, n - 0.5), 0.0,
            (n - 1) / 2, n - 1.0, -0.5, n - 0.5, float(rng.integers(n)),
            rng.uniform(-0.5, n - 0.5)][rng.integers(9)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestLosMaskDifferential:
    """The batched kernel against the scalar reference walker, decision by
    decision; no decision may change and no NaN or 0/0 interval may warn."""

    def test_seeded_random_maps(self):
        rng = np.random.default_rng(606)
        n = 0
        for _ in range(30):
            hm = _random_map(rng)
            starts = [(_random_coord(rng, hm.ncols),
                       _random_coord(rng, hm.nrows)) for _ in range(2)]
            sites = [_world(hm, ua, va, float(rng.uniform(0.0, 25.0)))
                     for ua, va in starts]
            cells = []
            for _ in range(25):
                # anywhere, on a site's u or v line, or under the site
                kind = rng.integers(4)
                ua, va = starts[rng.integers(2)]
                u = ua if kind in (1, 3) else _random_coord(rng, hm.ncols)
                v = va if kind in (2, 3) else _random_coord(rng, hm.nrows)
                cells.append(_world(hm, u, v, 0.0))
            # a site's own height, whose rays to the cell under that site
            # have zero length, and a drawn one
            heights = [sites[rng.integers(2)].h, float(rng.choice(
                [rng.uniform(0.0, 25.0), rng.integers(0, 21)]))]
            _assert_matches_reference(hm, sites, [c.x for c in cells],
                                      [c.y for c in cells], heights)
            n += len(heights) * len(sites) * len(cells)
        assert n == 3000

    @staticmethod
    @st.composite
    def _case(draw):
        nrows, ncols = draw(st.integers(1, 11)), draw(st.integers(1, 11))
        height = st.one_of(st.integers(0, 20).map(float), st.floats(0.0, 20.0))
        heights = np.array(draw(st.lists(height, min_size=nrows * ncols,
                                         max_size=nrows * ncols)))
        heights = heights.reshape(nrows, ncols)
        edge_row = st.sampled_from([0, 1, nrows - 2, nrows - 1]).map(
            lambda r: r % nrows)
        edge_col = st.sampled_from([0, 1, ncols - 2, ncols - 1]).map(
            lambda c: c % ncols)
        nodata = st.one_of(st.tuples(edge_row, st.integers(0, ncols - 1)),
                           st.tuples(st.integers(0, nrows - 1), edge_col))
        for r, c in draw(st.lists(nodata, max_size=2)):
            heights[r, c] = np.nan
        corner = st.floats(-100.0, 100.0, allow_subnormal=False)
        hm = HeightMap(heights, cellsize=draw(st.floats(1.0, 7.3)),
                       xllcorner=draw(corner), yllcorner=draw(corner))

        def coord(n):
            return st.one_of(
                st.sampled_from([-0.5, 0.0, (n - 1) / 2, n - 1.0, n - 0.5]),
                st.floats(-0.5, 0.0), st.floats(n - 1.0, n - 0.5),
                st.floats(-0.5, n - 0.5))

        ua, va = draw(coord(ncols)), draw(coord(nrows))
        site = _world(hm, ua, va, draw(st.floats(0.0, 25.0)))
        x, y = [], []
        for kind in draw(st.lists(st.sampled_from(["free", "same_u", "same_v",
                                                   "same_point"]),
                                  min_size=1, max_size=20)):
            u = ua if kind in ("same_u", "same_point") else draw(coord(ncols))
            v = va if kind in ("same_v", "same_point") else draw(coord(nrows))
            cell = _world(hm, u, v, 0.0)
            x.append(cell.x)
            y.append(cell.y)
        heights = draw(st.lists(st.one_of(st.just(site.h), height,
                                          st.floats(0.0, 25.0)),
                                min_size=1, max_size=3))
        return hm, [site], x, y, heights

    @settings(max_examples=200, deadline=None)
    @given(case=_case())
    def test_property_matches_reference(self, case):
        _assert_matches_reference(*case)

    def test_subnormal_curvature_does_not_warn(self):
        # a subnormal height next to a tall one makes the clearance's
        # curvature subnormal, and its vertex overflows
        hm = HeightMap(np.array([[0.0], [20.0], [5e-320], [0.0]]),
                       cellsize=1.0)
        _assert_matches_reference(hm, [Position3D(0.5, 0.0, 25.0)], [0.0],
                                  [4.0], [25.0])

    def test_batches_match_single_batch(self, monkeypatch):
        city = synthetic_city(120.0, 2.0, ch.dense_urban(), RngStream(8).child_generator(),
                              min_height_m=4.0)
        site = Position3D(61.0, 59.0, city.surface_at(61.0, 59.0) + 5.0)
        xx, yy = np.meshgrid(*city.cell_centers())
        batches = []
        real = heightmap._geometry

        def counting(*args):
            batches.append(1)
            return real(*args)

        monkeypatch.setattr(heightmap, "_geometry", counting)
        monkeypatch.setattr(heightmap, "_BATCH_INTERVALS", 1 << 30)
        one = [los_mask([site], xx, yy, [h], city) for h in (1.5, 30.0)]
        assert len(batches) == 2
        monkeypatch.setattr(heightmap, "_BATCH_INTERVALS", 500)
        split = [los_mask([site], xx, yy, [h], city) for h in (1.5, 30.0)]
        assert len(batches) > 20
        for a, b in zip(split, one):
            assert np.array_equal(a, b)
            assert 0 < b.sum() < b.size


def _assert_cast_matches(hm, site, x, y, heights):
    """One los_mask cast from site over the heights equals reference_los
    per (height, cell) and the one-height casts; returns its (heights,)
    + cells booleans."""
    cast = los_mask([site], x, y, heights, hm)[:, 0]
    assert cast.shape == (len(heights),) + x.shape
    with np.errstate(over="ignore"):  # the reference's vertex can overflow
        want = [reference_los(site, Position3D(*e), hm)
                for h in heights for e in zip(x.ravel(), y.ravel(),
                                              np.full(x.size, h))]
    assert cast.ravel().tolist() == want
    for h, mask in zip(heights, cast):
        assert np.array_equal(mask, los_mask([site], x, y, [h], hm)[0, 0])
    return cast


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestMixedEarlyDecisions:
    """A multi-height cast whose rays from one (x, y) cell take different
    paths: closed at the endpoint at some heights and cast at others, or
    crossing no-data that only some cells' rays reach."""

    def test_endpoint_under_roof_at_low_heights_only(self):
        heights = np.zeros((8, 8))
        heights[2:5, 2:5] = 12.0
        heights[6, 6] = 20.0
        hm = HeightMap(heights, cellsize=3.0)
        site = Position3D(19.5, 4.5, 25.0)   # on the 20 m roof
        xx, yy = np.meshgrid(*hm.cell_centers())
        levels = np.array([0.0, 6.0, 12.0, 12.5, 30.0])
        cast = _assert_cast_matches(hm, site, xx, yy, levels)
        under = hm.surface_at(xx, yy) >= 6.0
        # closed at the endpoint at 6 m, cast and clear at 30 m
        assert np.any(under & ~cast[1] & cast[-1])
        assert not cast[0].any()
        assert 0 < cast[1].sum() < cast[-1].sum()

    def test_nodata_crossed_by_some_rays(self):
        heights = np.full((8, 8), 2.0)
        heights[3, 5] = np.nan
        hm = HeightMap(heights, cellsize=2.0, xllcorner=-7.0, yllcorner=4.0)
        site = _world(hm, 0.0, 0.0, 7.0)
        xx, yy = np.meshgrid(*hm.cell_centers())
        levels = np.array([1.5, 10.0, 50.0])
        cast = _assert_cast_matches(hm, site, xx, yy, levels)
        # over a 2 m plain only no-data blocks a ray from 7 m to 50 m
        assert 0 < cast[-1].sum() < cast[-1].size
        assert np.array_equal(cast[1], cast[-1])


class TestCastOverHeights:
    """One los_mask cast over a list of heights, as sinr_grids makes it."""

    HEIGHTS = np.array([1.5, 10.0, 20.0, 30.0, 60.0, 100.0, 150.0])

    def _city(self):
        city = synthetic_city(120.0, 2.0, ch.dense_urban(), RngStream(8).child_generator(),
                              min_height_m=4.0)
        site = Position3D(61.0, 59.0, city.surface_at(61.0, 59.0) + 5.0)
        return city, site, np.meshgrid(*city.cell_centers())

    @pytest.mark.parametrize("batch", [500, 1 << 30])
    def test_equals_one_height_casts(self, monkeypatch, batch):
        monkeypatch.setattr(heightmap, "_BATCH_INTERVALS", batch)
        city, site, (xx, yy) = self._city()
        cast = los_mask([site], xx, yy, self.HEIGHTS, city)
        assert cast.shape == (len(self.HEIGHTS), 1) + xx.shape
        for h, mask in zip(self.HEIGHTS, cast):
            assert np.array_equal(mask, los_mask([site], xx, yy, [h], city)[0])
        assert 0 < cast[0].sum() < cast[-1].sum() < cast[-1].size

    def test_holds_no_float_array_per_ray(self):
        # 120 x 120 cells at stride 1 and 7 heights: the endpoints, their
        # surface and grid coordinates as full (heights x cells) float
        # copies grew the peak by 8 MB over a one-height cast
        city = synthetic_city(240.0, 2.0, ch.dense_urban(), RngStream(3).child_generator(),
                              min_height_m=4.0)
        site = Position3D(121.0, 119.0, city.surface_at(121.0, 119.0) + 5.0)
        xx, yy = np.meshgrid(*city.cell_centers())

        def peak(heights):
            tracemalloc.start()
            try:
                los_mask([site], xx, yy, heights, city)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = peak(self.HEIGHTS[-1:])
        seven = peak(self.HEIGHTS)
        assert seven - one < self.HEIGHTS.size * xx.size * 8


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestMultiSiteCast:
    """One los_mask cast from many sites, as sinr_grids makes it, against
    one cast per site and the scalar reference walker, bit for bit."""

    HEIGHTS = np.array([1.5, 10.0, 30.0, 60.0])

    def _city(self):
        city = synthetic_city(120.0, 2.0, ch.dense_urban(),
                              RngStream(8).child_generator(), min_height_m=4.0)
        city.heights[20:24, 30:34] = np.nan              # a no-data patch
        sites = [Position3D(x, y, city.surface_at(x, y) + mast)
                 for x, y, mast in ((61.0, 59.0, 5.0), (17.0, 101.0, 12.0),
                                    (99.0, 23.0, 2.0), (40.0, 80.0, 30.0))]
        # the last stands under the surface: every ray from it is obstructed
        sites.append(Position3D(61.0, 59.0, city.surface_at(61.0, 59.0)))
        return city, sites, np.meshgrid(*city.cell_centers())

    @pytest.mark.parametrize("batch", [500, 1 << 30])
    def test_equals_one_cast_per_site(self, monkeypatch, batch):
        # at 500 the 3600 rays of a site take 8 screening blocks, and the
        # blocks and the 4-ray batches straddle sites
        monkeypatch.setattr(heightmap, "_BATCH_INTERVALS", batch)
        city, sites, (xx, yy) = self._city()
        cast = los_mask(sites, xx, yy, self.HEIGHTS, city)
        assert cast.shape == (len(self.HEIGHTS), len(sites)) + xx.shape
        for i, site in enumerate(sites):
            assert np.array_equal(cast[:, i:i + 1],
                                  los_mask([site], xx, yy, self.HEIGHTS, city))
        # the low heights under roofs, the rays over no-data and the buried
        # site are obstructed; others clear
        assert 0 < cast[0, 0].sum() < cast[-1, 0].sum() < xx.size
        assert not cast[:, -1].any()
        # rows flipped: the cell-centre rasters run south to north
        nodata = np.isnan(city.heights[::-1])
        assert nodata.sum() == 16 and not cast[:, :, nodata].any()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_reference_walker(self, seed):
        rng = np.random.default_rng(seed)
        hm = _random_map(rng)
        sites = [_world(hm, _random_coord(rng, hm.ncols),
                        _random_coord(rng, hm.nrows),
                        float(rng.uniform(0.0, 25.0))) for _ in range(3)]
        n, m = 30, 4
        u = rng.uniform(-0.5, hm.ncols - 0.5, n)
        v = rng.uniform(-0.5, hm.nrows - 0.5, n)
        x = hm.xllcorner + (u + 0.5) * hm.cellsize
        y = hm.yllcorner + (v + 0.5) * hm.cellsize
        h = rng.uniform(0.0, 30.0, m)
        # on the surface of the first two cells; 0 m over no-data, where a
        # NaN height is rejected
        h[:2] = np.nan_to_num(hm.surface_at(x[:2], y[:2]))
        cast = los_mask(sites, x, y, h, hm)
        assert cast.shape == (m, len(sites), n)
        with np.errstate(over="ignore"):  # the reference's vertex can overflow
            want = [[[reference_los(a, Position3D(x[j], y[j], h[k]), hm)
                      for j in range(n)] for a in sites] for k in range(m)]
        assert cast.tolist() == want


class TestBuildingStats:
    def test_empty_below_threshold(self):
        hm = HeightMap(np.full((10, 10), 2.0), cellsize=1.0)
        st = building_stats(hm, 4.0)
        assert st.n_building_cells == 0
        assert st.rayleigh_scale_m is None

    def test_rayleigh_ml_consistency(self):
        rng = RngStream(13).child_generator()
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
        city = synthetic_city(1200.0, 3.0, env, RngStream(5).child_generator())
        frac = float(np.mean(city.heights > 0))
        assert frac == pytest.approx(env.varsigma, abs=0.1)

    def test_deterministic_under_seed(self):
        a = synthetic_city(300.0, 3.0, ch.urban(), RngStream(9).child_generator())
        b = synthetic_city(300.0, 3.0, ch.urban(), RngStream(9).child_generator())
        assert np.array_equal(a.heights, b.heights)

    def test_heights_follow_rayleigh_scale(self):
        env = ch.dense_urban()  # omega 20
        city = synthetic_city(4320.0, 6.0, env, RngStream(15).child_generator())
        st = building_stats(city, 0.5)
        assert st.rayleigh_scale_m == pytest.approx(env.omega, rel=0.02)

    @pytest.mark.parametrize("extent,cellsize", [(100.0, 30.0), (100.0, 60.0),
                                                 (480.0, 7.0), (10.0, 25.0)])
    def test_cell_must_divide_extent(self, extent, cellsize):
        # round(extent / cellsize) cells silently gave a 90 m map for
        # (100, 30) and a 120 m one for (100, 60)
        with pytest.raises(DomainError):
            synthetic_city(extent, cellsize, ch.urban(), RngStream(1).child_generator())

    @pytest.mark.parametrize("extent,cellsize", [(480.0, 4.0), (0.3, 0.1),
                                                 (100.0, 100.0)])
    def test_map_spans_extent(self, extent, cellsize):
        city = synthetic_city(extent, cellsize, ch.urban(), RngStream(1).child_generator())
        x0, x1, y0, y1 = city.extent
        assert x1 - x0 == pytest.approx(extent) and y1 - y0 == pytest.approx(extent)


class TestNonFiniteHeights:
    FLAT = HeightMap(np.full((20, 20), 5.0), cellsize=5.0)
    SITE = Position3D(50.0, 50.0, 20.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejected_before_any_ray(self, monkeypatch, bad):
        # NaN and +inf endpoints read clear, after a RuntimeWarning
        def no_geometry(*args):
            raise AssertionError("a ray was cast")
        monkeypatch.setattr(heightmap, "_geometry", no_geometry)
        for h in ([bad], np.array([10.0, bad])):
            with pytest.raises(DomainError, match="^heights must be finite$"):
                los_mask([self.SITE], 20.0, 20.0, h, self.FLAT)


class TestHeightsList:
    @pytest.mark.parametrize("heights", [10.0, [[10.0]], []],
                             ids=["scalar", "2-D", "empty"])
    def test_nonempty_and_one_dimensional(self, monkeypatch, heights):
        def no_geometry(*args):
            raise AssertionError("a ray was cast")
        monkeypatch.setattr(heightmap, "_geometry", no_geometry)
        with pytest.raises(DomainError, match="^heights must be a nonempty"):
            los_mask([TestNonFiniteHeights.SITE], 20.0, 20.0, heights,
                     TestNonFiniteHeights.FLAT)

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a2gnet.antenna_geometry import (
    ConeUav,
    OmniUav,
    Position3D,
    SectorAntenna,
    _wrap_angle,
    bs_gain_db,
    uav_gain_linear,
)
from a2gnet.errors import DomainError


class TestPosition3D:
    def test_negative_height_rejected(self):
        with pytest.raises(DomainError):
            Position3D(0, 0, -1)


class TestSectorAntenna:
    def test_boresight_peak(self):
        ant = SectorAntenna(max_gain_dbi=16.0)
        assert bs_gain_db(ant, 0.0, -ant.electrical_tilt) == pytest.approx(16.0)

    def test_half_beamwidth_is_3db(self):
        ant = SectorAntenna(max_gain_dbi=16.0)
        g = bs_gain_db(ant, ant.beamwidth_3db / 2, -ant.electrical_tilt)
        assert g == pytest.approx(16.0 - 3.0, abs=0.1)

    def test_far_offset_hits_floor(self):
        ant = SectorAntenna(max_gain_dbi=16.0, sidelobe_floor_db=20.0)
        assert bs_gain_db(ant, math.pi / 2, -ant.electrical_tilt) == pytest.approx(-4.0)

    def test_bounded_everywhere(self):
        ant = SectorAntenna(max_gain_dbi=18.0, sidelobe_floor_db=25.0)
        az = np.linspace(-math.pi, math.pi, 73)
        el = np.linspace(-math.pi / 2, math.pi / 2, 37)
        g = bs_gain_db(ant, az[:, None], el[None, :])
        assert np.all(g <= 18.0 + 1e-12)
        assert np.all(g >= 18.0 - 25.0 - 1e-12)

    @settings(max_examples=300, deadline=None)
    @given(gain=st.floats(0.0, 25.0), floor=st.floats(1.0, 40.0),
           bw_deg=st.floats(10.0, 120.0), el_bw_deg=st.floats(2.0, 30.0),
           tilt_deg=st.floats(-10.0, 15.0), az=st.floats(-7.0, 7.0),
           beyond=st.floats(1.0, 10.0, exclude_min=True),
           above=st.booleans())
    def test_elevation_sidelobe_rides_side_gain(self, gain, floor, bw_deg,
                                                el_bw_deg, tilt_deg, az,
                                                beyond, above):
        # |el + electrical_tilt| > theta3 sqrt(floor/12) saturates the elevation
        # term, so the gain is G_m whatever the azimuth
        ant = SectorAntenna(max_gain_dbi=gain, sidelobe_floor_db=floor,
                            beamwidth_3db=math.radians(bw_deg),
                            elevation_beamwidth_3db=math.radians(el_bw_deg),
                            electrical_tilt=math.radians(tilt_deg))
        edge = ant.elevation_beamwidth * math.sqrt(floor / 12.0)
        el = (1.0 if above else -1.0) * beyond * edge - ant.electrical_tilt
        assert bs_gain_db(ant, az, el) == pytest.approx(gain - floor, abs=1e-9)


def same_bits(a, b):
    # equal bit patterns, -0.0 against +0.0 included; any NaN matches any NaN
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64)))


class TestWrapAngle:
    """The fmod wrap against the remainder form it replaced, bit for bit."""

    @staticmethod
    def remainder_wrap(a):
        return (np.asarray(a) + np.pi) % (2.0 * np.pi) - np.pi

    @pytest.mark.parametrize("lo,hi", [(-12.0, 4.0), (-1e3, 1e3),
                                       (-1e-300, 1e-300)])
    def test_random_angles(self, lo, hi):
        a = np.random.default_rng(7).uniform(lo, hi, 200_000)
        assert same_bits(_wrap_angle(a), self.remainder_wrap(a))

    def test_edges(self):
        k = np.arange(-3, 4) * np.pi
        a = np.concatenate([
            k, np.nextafter(k, np.inf), np.nextafter(k, -np.inf),
            [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, np.nan, np.inf,
             -np.inf]])
        with np.errstate(invalid="ignore"):
            got, ref = _wrap_angle(a), self.remainder_wrap(a)
            assert all(same_bits(_wrap_angle(x), self.remainder_wrap(x))
                       for x in a)
        assert same_bits(got, ref)
        assert np.isnan(got[-3:]).all()
        # rounding can land a remainder just below 0 on 2 pi, hence <= pi
        assert np.all(np.abs(got[:-3]) <= np.pi)


class TestUavAntenna:
    def test_cone_on_axis_gain(self):
        ant = ConeUav(phi_b_deg=60.0)
        g = uav_gain_linear(ant, 0.0, -math.pi / 2)
        assert g == pytest.approx(29000.0 / 3600.0, rel=1e-12)
        assert 10 * math.log10(g) == pytest.approx(9.06, abs=0.01)

    def test_cone_zero_outside_lobe(self):
        ant = ConeUav(phi_b_deg=60.0)
        edge = math.radians(60.0) / 2
        just_out = -math.pi / 2 + edge + 1e-6
        assert uav_gain_linear(ant, 0.0, just_out) == 0.0
        just_in = -math.pi / 2 + edge - 1e-6
        assert uav_gain_linear(ant, 0.0, just_in) > 0.0

    def test_omni_constant(self):
        ant = OmniUav(2.15)
        for az, el in [(0, 0), (1, -1), (3, 0.5)]:
            assert uav_gain_linear(ant, az, el) == pytest.approx(1.6406, abs=1e-3)

    def test_tilted_axis_points_at_target(self):
        # tilt 30 deg toward north: a direction 30 deg off nadir due north is
        # on-axis, and the one due south lies 60 deg off it
        ant = ConeUav(phi_b_deg=20.0, phi_t=math.radians(30))
        g = uav_gain_linear(ant, 0.0, math.radians(30) - math.pi / 2)
        assert g == pytest.approx(ant.gain_linear, rel=1e-12)
        assert uav_gain_linear(ant, math.pi, math.radians(30) - math.pi / 2) == 0.0
        assert uav_gain_linear(ant, math.pi / 2, math.radians(30) - math.pi / 2) == 0.0

    def test_cone_directivity_within_sphere_budget(self):
        # integral of gain over the sphere must not exceed 4 pi
        for phi_b in [30.0, 60.0, 90.0, 120.0, 180.0]:
            ant = ConeUav(phi_b_deg=phi_b)
            el = np.linspace(-math.pi / 2, math.pi / 2, 721)
            az = np.linspace(-math.pi, math.pi, 721)
            g = uav_gain_linear(ant, az[None, :], el[:, None])
            integrand = g * np.cos(el)[:, None]
            total = np.trapezoid(np.trapezoid(integrand, az, axis=1), el)
            assert total <= 4 * math.pi * 1.001

    def test_invalid_opening_angle(self):
        with pytest.raises(DomainError):
            ConeUav(phi_b_deg=0.0)
        with pytest.raises(DomainError):
            ConeUav(phi_b_deg=200.0)

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a2gnet import channel as ch
from a2gnet.channel import (
    PropagationSlice,
    averaged_pl_db,
    free_space_pl_db,
    log_distance_pl_db,
    p_los_3gpp,
    p_los_building,
    pl_3gpp_rural_db,
    sample_link_loss_db,
    shadowing_sigma_db,
    slice_of,
)
from a2gnet.errors import (
    ApplicabilityError,
    DomainError,
    ModelGapError,
    OutOfEnvelopeError,
)
from a2gnet.numerics import Nakagami, RngStream, sample_fading

F18 = 1.8e9
LAMBDA18 = 299792458.0 / F18


class TestEnvironment:
    def test_presets(self):
        envs = (ch.suburban(), ch.urban(), ch.dense_urban(), ch.highrise())
        assert [e.kind for e in envs] == list(ch.ENV_PRESETS)
        assert ch.urban() == ch.Environment("urban", 0.3, 500.0, 15.0)
        for env in envs:
            assert (env.varsigma, env.xi, env.omega) == ch.ENV_PRESETS[env.kind]
            assert env.mean_building_height_m == env.omega * math.sqrt(math.pi / 2)

    def test_mean_height_derived_only_when_unset(self):
        assert ch.Environment("open", 0.1, 10.0, 4.0).mean_building_height_m \
            == 4.0 * math.sqrt(math.pi / 2)
        assert ch.Environment("open", 0.1, 10.0, 4.0,
                              mean_building_height_m=7.0).mean_building_height_m == 7.0

    @pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan])
    @pytest.mark.parametrize("field", ["xi", "omega", "mean_building_height_m",
                                       "street_width_m"])
    def test_non_positive_or_non_finite_rejected(self, field, value):
        # a street width of 0 reached the ground NLOS fit as a raw
        # "math domain error"
        with pytest.raises(DomainError, match=field):
            replace(ch.urban(), **{field: value})

    def test_every_kind_has_slice_ceilings(self):
        assert set(ch.ENV_PRESETS) <= set(ch.SLICE_CEILINGS_M)
        with pytest.raises(DomainError):
            ch.Environment("foo", 0.1, 10.0, 4.0)


class TestSlices:
    def test_boundaries(self):
        sub, urb = ch.suburban(), ch.urban()
        assert slice_of(9, sub) is PropagationSlice.GROUND
        assert slice_of(10, sub) is PropagationSlice.OBSTRUCTED
        assert slice_of(40, sub) is PropagationSlice.HIGH_ALTITUDE
        assert slice_of(22.4, urb) is PropagationSlice.GROUND
        assert slice_of(22.5, urb) is PropagationSlice.OBSTRUCTED
        assert slice_of(100, urb) is PropagationSlice.HIGH_ALTITUDE
        assert slice_of(150, urb) is PropagationSlice.HIGH_ALTITUDE
        assert slice_of(300, urb) is PropagationSlice.HIGH_ALTITUDE

    def test_envelope_errors(self):
        urb = ch.urban()
        with pytest.raises(OutOfEnvelopeError):
            slice_of(-1, urb)
        with pytest.raises(OutOfEnvelopeError):
            slice_of(300.1, urb)


class TestFreeSpace:
    def test_unit_argument(self):
        assert free_space_pl_db(LAMBDA18 / (4 * math.pi), F18) == pytest.approx(
            0.0, abs=1e-12)

    def test_hand_value_1km(self):
        # 20 log10(4 pi 1000 / (c/1.8e9))
        expected = 20 * math.log10(4 * math.pi * 1000 / (299792458.0 / 1.8e9))
        assert free_space_pl_db(1000.0, F18) == pytest.approx(expected, abs=1e-12)
        assert free_space_pl_db(1000.0, F18) == pytest.approx(97.55, abs=0.01)

    def test_eta4_decade(self):
        d = LAMBDA18 / (4 * math.pi) * 10
        assert free_space_pl_db(d, F18, eta=4.0) == pytest.approx(40.0, abs=1e-10)

    def test_zero_distance_rejected(self):
        with pytest.raises(DomainError):
            free_space_pl_db(0.0, F18)

    @pytest.mark.parametrize("eta", [2.0, 3.5])
    def test_literal_formula(self, eta):
        d = np.array([0.7, 13.0, 2500.0])
        want = 10.0 * eta * np.log10(4.0 * np.pi * d / (299792458.0 / F18))
        assert free_space_pl_db(d, F18, eta).tobytes() == want.tobytes()
        assert free_space_pl_db(13.0, F18, eta) == want[1]

    @pytest.mark.parametrize("frequency_hz, eta, match", [
        (0.0, 2.0, "frequency"), (-1e9, 2.0, "frequency"),
        (math.nan, 2.0, "frequency"), (F18, 0.0, "exponent"),
        (F18, -2.0, "exponent")])
    def test_non_positive_parameters_rejected(self, frequency_hz, eta, match):
        with pytest.raises(DomainError, match=match):
            free_space_pl_db(100.0, frequency_hz, eta)


class TestLogDistance:
    def test_reference_point(self):
        assert log_distance_pl_db(10.0, 87.0, 3.0, d0_m=10.0) == 87.0

    def test_measured_row_968mhz(self):
        row = ch.log_distance_from_preset("l_band_968mhz", d0_m=1.0)
        assert (row.frequency_hz, row.eta, row.lambda0_db, row.d0_m,
                row.sigma_db) == (0.968e9, 1.6, 102.3, 1.0, 0.0)
        assert log_distance_pl_db(10.0, row.lambda0_db, row.eta, row.d0_m) \
            == pytest.approx(102.3 + 16.0, abs=1e-9)

    def test_measured_row_wideband(self):
        row = ch.log_distance_from_preset(
            "suburban_open_wideband", frequency_hz=2e9,
            eta=2.54, lambda0_db=21.9, sigma_db=2.79)
        assert log_distance_pl_db(100.0, row.lambda0_db, row.eta) \
            == pytest.approx(21.9 + 50.8, abs=1e-9)

    def test_row_without_lambda0_takes_friis_reference(self):
        row = ch.log_distance_from_preset("urban_los_28ghz", d0_m=5.0)
        assert row.lambda0_db == ch.free_space_reference_loss_db(28e9, 5.0)
        assert row.sigma_db == 3.6

    def test_preset_range_requires_pick(self):
        with pytest.raises(DomainError):
            ch.log_distance_from_preset("suburban_open_wideband", frequency_hz=2e9)
        with pytest.raises(DomainError):
            ch.log_distance_from_preset(
                "suburban_open_wideband", frequency_hz=2e9,
                eta=5.0, lambda0_db=21.9, sigma_db=3.0)

    @pytest.mark.parametrize("kwargs, match", [
        ({"frequency_hz": 0.0}, "frequency"), ({"d0_m": 0.0}, "reference"),
        ({"sigma_db": -1.0}, "sigma")])
    def test_preset_rejects_bad_values(self, kwargs, match):
        # the checks the row's carrier and its own constructor made
        with pytest.raises(DomainError, match=match):
            ch.log_distance_from_preset("open_field_2ghz",
                                        **{"frequency_hz": 2e9, **kwargs})

    def test_below_reference_rejected(self):
        with pytest.raises(DomainError):
            log_distance_pl_db(9.0, 80.0, 2.0, d0_m=10.0)

    @pytest.mark.parametrize("eta, d0, match", [
        (0.0, 1.0, "exponent"), (2.0, 0.0, "reference"),
        (2.0, -1.0, "reference")])
    def test_non_positive_parameters_rejected(self, eta, d0, match):
        with pytest.raises(DomainError, match=match):
            log_distance_pl_db(100.0, 80.0, eta, d0)

    def test_literal_formula(self):
        d = np.array([10.0, 37.5, 1234.0])
        want = 81.25 + 10.0 * 2.7 * np.log10(d / 10.0)
        assert log_distance_pl_db(d, 81.25, 2.7, 10.0).tobytes() == want.tobytes()

    def test_free_space_reference_literal(self):
        for f, d0 in ((F18, 1.0), (0.968e9, 10.0), (28e9, 0.5)):
            want = 20.0 * math.log10(4.0 * math.pi * d0 / (299792458.0 / f))
            assert ch.free_space_reference_loss_db(f, d0) == want

    def test_free_space_reference_matches_friis(self):
        lambda0 = ch.free_space_reference_loss_db(F18, 1.0)
        for d in [1.0, 5.0, 70.0, 1234.0, 99999.0]:
            assert log_distance_pl_db(d, lambda0, 2.0) == pytest.approx(
                free_space_pl_db(d, F18), abs=1e-9)


class TestPlosBuilding:
    URB = ch.urban()

    def test_empty_product_is_one(self):
        # m = floor(0.005*12.25 - 1) < 0
        assert p_los_building(5.0, 100.0, 1.5, self.URB) == 1.0

    def test_high_altitude_limit(self):
        assert p_los_building(500.0, 10000.0, 1.5, self.URB) > 0.999

    def test_urban_example_interior(self):
        p = p_los_building(500.0, 100.0, 1.5, self.URB)
        assert 0.0 < p < 1.0

    def test_monotone_in_distance(self):
        ps = p_los_building(np.linspace(20, 3000, 60), 100.0, 1.5, self.URB)
        assert np.all(np.diff(ps) <= 1e-12)
        assert np.all((0.0 <= ps) & (ps <= 1.0))

    def test_monotone_in_altitude(self):
        ps = [p_los_building(500.0, h, 1.5, self.URB)
              for h in np.linspace(5, 300, 40)]
        assert all(b >= a - 1e-12 for a, b in zip(ps, ps[1:]))

    def test_descending_ray_required(self):
        for h_uav in (1.5, 30.0):
            with pytest.raises(DomainError, match="h_uav > h_g"):
                p_los_building(100.0, h_uav, 30.0, self.URB)

    @pytest.mark.parametrize("env", (ch.urban(), ch.dense_urban()),
                             ids=lambda e: e.kind)
    def test_equals_the_heights_form(self, env):
        gen = np.random.default_rng(25)
        d_h = gen.uniform(0.0, 4000.0, 300)
        for h_uav, h_g in ((100.0, 1.5), (31.0, 30.0), (300.0, 25.0)):
            want = ch._p_los_building_heights(d_h, h_uav, h_g, env)
            assert p_los_building(d_h, h_uav, h_g, env).tobytes() == want.tobytes()
            assert p_los_building(d_h[7], h_uav, h_g, env) == want[7]


TABLE_ENVS = (ch.urban(), ch.dense_urban(), ch.highrise())


class TestBuildingPlosTable:
    """The per-height lookup against the direct product formula, bit for bit."""

    @pytest.mark.parametrize("env", TABLE_ENVS, ids=lambda e: e.kind)
    def test_seeded_random_links(self, env):
        gen = np.random.default_rng(20)
        for _ in range(40):
            h_hi, h_lo = sorted(gen.uniform(0.0, 300.0, 2), reverse=True)
            table = ch.BuildingPlosTable(h_hi, h_lo, env)
            for d_max in (3000.0, 500.0, 6000.0):   # grows, then reads back
                d_h = gen.uniform(0.0, d_max, 200)
                direct = ch._p_los_building_heights(d_h, h_hi, h_lo, env)
                assert np.array_equal(table(d_h), direct)

    @settings(max_examples=200, deadline=None)
    @given(h_a=st.floats(0.0, 300.0), h_b=st.floats(0.0, 300.0),
           env=st.sampled_from(TABLE_ENVS),
           d_h=st.lists(st.floats(0.0, 3000.0), min_size=1, max_size=30))
    def test_matches_direct_formula(self, h_a, h_b, env, d_h):
        # d_h = 0 and short links (m < 0) read 1 from both
        d_h = np.array([0.0, 1.0] + d_h)
        h_hi, h_lo = max(h_a, h_b), min(h_a, h_b)
        table = ch.BuildingPlosTable(h_hi, h_lo, env)
        direct = ch._p_los_building_heights(d_h, h_hi, h_lo, env)
        assert np.array_equal(table(d_h), direct)
        assert table(np.array([0.0]))[0] == 1.0


class TestClearanceBlocks:
    # sqrt(varsigma xi) = 100 buildings per km: a 20 km link reaches m = 1999
    DENSE = ch.Environment("urban", 1.0, 1e4, 20.0)

    def test_table_scratch_is_linear_in_buildings(self):
        # one (M+1) x (M+1) matrix read 132 MB here
        table = ch.BuildingPlosTable(100.0, 1.5, self.DENSE)
        tracemalloc.start()
        try:
            table(np.array([20000.0]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table._rows.size == 2001
        assert peak < 20e6

    def test_equal_across_block_boundary(self):
        # entries on both sides of each block edge, in one call and alone
        block = ch._CLEARANCE_BLOCK
        m = np.arange(2 * block + 3) - 1
        d_h = (m + 1.5) / 100.0 * 1000.0
        np.testing.assert_array_equal(ch._building_index(d_h, self.DENSE), m)
        batch = ch._p_los_building_heights(d_h, 120.0, 1.5, self.DENSE)
        alone = [ch._p_los_building_heights(d, 120.0, 1.5, self.DENSE)
                 for d in d_h]
        table = ch.BuildingPlosTable(120.0, 1.5, self.DENSE)
        assert np.array_equal(batch, alone)
        assert np.array_equal(table(d_h[::-1]), batch[::-1])
        assert batch[0] == 1.0


class TestPlos3gpp:
    def test_ground_boundary(self):
        assert p_los_3gpp(10.0, 5.0, PropagationSlice.GROUND) == 1.0

    def test_ground_e_minus_one(self):
        p = p_los_3gpp(1010.0, 5.0, PropagationSlice.GROUND)
        assert p == pytest.approx(math.exp(-1), rel=1e-12)

    def test_obstructed_auxiliaries_direct_evaluation(self):
        d1, p1 = ch.obstructed_plos_auxiliaries(40.0)
        assert d1 == pytest.approx(max(1350.8 * math.log10(40) - 1602.0, 18.0), abs=1e-9)
        assert d1 == pytest.approx(562.0626, abs=1e-3)
        assert p1 == pytest.approx(max(15021 * math.log10(40) - 16053.0, 1000.0), abs=1e-9)

    def test_obstructed_inside_d1(self):
        assert p_los_3gpp(500.0, 40.0, PropagationSlice.OBSTRUCTED) == 1.0

    def test_obstructed_far_form(self):
        d1, p1 = ch.obstructed_plos_auxiliaries(40.0)
        d = 2000.0
        expected = d1 / d + math.exp(-d / p1) * (1 - d1 / d)
        assert p_los_3gpp(d, 40.0, PropagationSlice.OBSTRUCTED) == pytest.approx(expected, rel=1e-12)

    def test_high_altitude_unity(self):
        assert p_los_3gpp(5000.0, 200.0, PropagationSlice.HIGH_ALTITUDE) == 1.0

    def test_bounds_and_monotonicity(self):
        for slc, h in [(PropagationSlice.GROUND, 5.0), (PropagationSlice.OBSTRUCTED, 30.0)]:
            ps = p_los_3gpp(np.linspace(1, 8000, 300), h, slc)
            assert np.all((0 <= ps) & (ps <= 1))
            assert np.all(np.diff(ps) <= 1e-12)

    def test_air_to_air_rejected(self):
        with pytest.raises(DomainError):
            p_los_3gpp(100.0, 100.0, PropagationSlice.AIR_TO_AIR)


class TestPl3gpp:
    URB = ch.urban()

    def test_aerial_los_hand_value(self):
        d_h = math.sqrt(1000.0**2 - 38.5**2)
        pl = pl_3gpp_rural_db(d_h, 40.0, 1.5, 2.0, self.URB, los=True,
                              slice_=PropagationSlice.OBSTRUCTED)
        direct = ch.aerial_los_db(1000.0, 40.0, 2.0)
        assert direct == pytest.approx(101.51, abs=0.1)
        assert pl == ch.aerial_los_db(np.hypot(d_h, 38.5), 40.0, 2.0)
        assert pl == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize("h_uav", [5.0, 60.0, 200.0])
    @pytest.mark.parametrize("los", [True, False])
    def test_takes_d_h_and_heights(self, h_uav, los):
        # d_3d is np.hypot(d_h, h_uav - h_g), as the channel table takes it
        d_h = np.array([12.0, 480.0, 3300.0])
        slice_ = slice_of(h_uav, self.URB)
        want = ch.slice_pl_db(np.hypot(d_h, h_uav - 30.0), h_uav, 30.0, 1.8,
                              self.URB, los, slice_)
        got = pl_3gpp_rural_db(d_h, h_uav, 30.0, 1.8, self.URB, los, slice_)
        assert got.tobytes() == want.tobytes()
        assert pl_3gpp_rural_db(480.0, h_uav, 30.0, 1.8, self.URB, los,
                                slice_) == want[1]

    def test_nlos_dominates_los(self):
        for d in [100.0, 500.0, 2000.0]:
            for h in [15.0, 40.0, 90.0]:
                assert ch.aerial_nlos_db(d, h, 2.0) >= ch.aerial_los_db(d, h, 2.0)

    @pytest.mark.parametrize("fn", [ch.aerial_los_db, ch.aerial_nlos_db])
    def test_aerial_rejects_nonpositive_distance(self, fn):
        for d in (0.0, -5.0, [100.0, 0.0]):
            with pytest.raises(DomainError):
                fn(d, 40.0, 2.0)

    def test_ground_continuity_at_breakpoint(self):
        h_uav, h_g, f = 1.5, 30.0, 1.8
        d2 = ch.rma_breakpoint_m(h_uav, h_g, f)
        assert 10.0 < d2 < 10_000.0
        below = ch.rma_ground_los_db(d2 * (1 - 1e-11), h_uav, h_g, f)
        above = ch.rma_ground_los_db(d2 * (1 + 1e-11), h_uav, h_g, f)
        assert abs(above - below) < 1e-6

    def test_ground_nlos_literal_transcription(self):
        # independent, literal re-transcription of the NLOS fit
        h_uav, h_g, f = 1.5, 30.0, 1.8
        env = self.URB
        d = 500.0
        los = ch.rma_ground_los_db(d, h_uav, h_g, f)
        w, hb = env.street_width_m, env.mean_building_height_m
        nlos_prime = (161.04 - 7.1 * math.log10(w) + 7.5 * math.log10(hb)
                      - (24.37 - 3.7 * (hb / h_g) ** 2) * math.log10(h_g)
                      + (43.42 - 3.1 * math.log10(h_g)) * (math.log10(d) - 3)
                      + 20 * math.log10(f)
                      - (3.2 * (math.log10(11.75 * h_uav)) ** 2 - 4.97))
        expected = max(los, nlos_prime)
        assert ch.rma_ground_nlos_db(d, h_uav, h_g, f, env) == pytest.approx(expected, abs=1e-12)

    def test_monotone_in_distance(self):
        d = np.linspace(30, 4000, 200)
        for fn in (lambda x: ch.rma_ground_los_db(x, 1.5, 30.0, 1.8),
                   lambda x: ch.rma_ground_nlos_db(x, 1.5, 30.0, 1.8, self.URB),
                   lambda x: ch.aerial_los_db(x, 40.0, 2.0),
                   lambda x: ch.aerial_nlos_db(x, 40.0, 2.0)):
            pl = fn(d)
            assert np.all(np.diff(pl) >= -1e-12)

    def test_applicability_windows(self):
        with pytest.raises(ApplicabilityError):
            pl_3gpp_rural_db(5.0, 5.0, 30.0, 1.8, self.URB,
                             los=True, slice_=PropagationSlice.GROUND)
        with pytest.raises(ApplicabilityError):
            pl_3gpp_rural_db(6000.0, 5.0, 30.0, 1.8, self.URB,
                             los=False, slice_=PropagationSlice.GROUND)
        with pytest.raises(ApplicabilityError):
            pl_3gpp_rural_db([100.0, 6000.0], 5.0, 30.0, 1.8, self.URB,
                             los=False, slice_=PropagationSlice.GROUND)
        # LOS window extends to 10 km
        pl_3gpp_rural_db(6000.0, 5.0, 30.0, 1.8, self.URB,
                         los=True, slice_=PropagationSlice.GROUND)

    def test_applicability_error_carries_bound(self):
        with pytest.raises(ApplicabilityError) as err:
            pl_3gpp_rural_db(5.0, 5.0, 30.0, 1.8, self.URB,
                             los=True, slice_=PropagationSlice.GROUND)
        assert (err.value.quantity, err.value.value, err.value.bound) \
            == ("d_h", 5.0, 10.0)


class TestShadowingTable:
    def test_table_rows(self):
        S = PropagationSlice
        assert shadowing_sigma_db(S.GROUND, False, 100, 5) == 8.0
        assert shadowing_sigma_db(S.OBSTRUCTED, False, 100, 30) == 6.0
        assert shadowing_sigma_db(S.OBSTRUCTED, True, 100, 100) == pytest.approx(4.011, abs=1e-3)
        assert shadowing_sigma_db(S.HIGH_ALTITUDE, True, 100, 200) == pytest.approx(
            4.2 * math.exp(-0.00046 * 200), rel=1e-12)

    def test_ground_los_breakpoint_split(self):
        d2 = ch.rma_breakpoint_m(1.5, 30.0, 1.8)
        S = PropagationSlice
        assert shadowing_sigma_db(S.GROUND, True, d2 - 1, 1.5, h_g_m=30.0, f_c_ghz=1.8) == 4.0
        assert shadowing_sigma_db(S.GROUND, True, d2 + 1, 1.5, h_g_m=30.0, f_c_ghz=1.8) == 6.0
        sigma = shadowing_sigma_db(S.GROUND, True, np.array([d2 - 1, d2, d2 + 1]), 1.5,
                                   h_g_m=30.0, f_c_ghz=1.8)
        assert sigma.tolist() == [4.0, 4.0, 6.0]
        assert type(shadowing_sigma_db(S.GROUND, True, d2, 1.5, h_g_m=30.0,
                                       f_c_ghz=1.8)) is float

    def test_model_gap(self):
        with pytest.raises(ModelGapError):
            shadowing_sigma_db(PropagationSlice.HIGH_ALTITUDE, False, 100, 200)


class TestAveragedPl:
    def test_trivials(self):
        assert averaged_pl_db(100.0, 120.0, 1.0) == 100.0
        assert averaged_pl_db(100.0, 120.0, 0.0) == 120.0
        assert averaged_pl_db(100.0, 120.0, 0.5) == 110.0

    def test_invalid_probability(self):
        with pytest.raises(DomainError):
            averaged_pl_db(100.0, 120.0, 1.5)


class TestSampleLinkLoss:
    PL = tuple(log_distance_pl_db(math.hypot(500.0, 98.5),
                                  ch.free_space_reference_loss_db(F18, 1.0), eta)
               for eta in (2.0, 3.5))

    def test_deterministic_when_degenerate(self):
        loss, flag = sample_link_loss_db(self.PL, (0.0, 0.0), 1.0, RngStream(1))
        assert flag is True
        assert loss == pytest.approx(self.PL[0], abs=1e-12)

    def test_zero_mean_shadowing(self):
        loss, _ = sample_link_loss_db(self.PL, (4.0, 4.0), 1.0, RngStream(2),
                                      n=100_000)
        assert abs(np.mean(loss - self.PL[0])) <= 0.05  # 3 sigma / sqrt(N) = 0.038

    def test_unit_mean_fading_in_linear_domain(self):
        loss, _ = sample_link_loss_db(self.PL, (0.0, 0.0), 1.0, RngStream(3),
                                      fading=Nakagami(2), n=200_000)
        gains = 10 ** (-(loss - self.PL[0]) / 10)
        assert np.mean(gains) == pytest.approx(1.0, abs=0.01)

    def test_los_flag_frequency(self):
        p = p_los_3gpp(800.0, 30.0, slice_of(30.0, ch.urban()))
        _, flags = sample_link_loss_db(self.PL, (0.0, 0.0), p, RngStream(4),
                                       n=100_000)
        assert np.mean(flags) == pytest.approx(p, abs=0.005)

    @pytest.mark.parametrize("fading_nlos", [None, Nakagami(1)])
    def test_replays_its_draw_order(self, fading_nlos):
        # the LOS uniforms, then per state, LOS first, the shadowing normals
        # and the fading gains, all on one generator
        pl, sigma, p, n = (95.0, 120.0), (4.0, 6.0), 0.4, 1000
        loss, flags = sample_link_loss_db(pl, sigma, p, RngStream(5),
                                          fading=Nakagami(3),
                                          fading_nlos=fading_nlos, n=n)
        gen = RngStream(5).generator()
        los = gen.random(n) < p
        want = np.empty(n)
        for state, model in ((True, Nakagami(3)),
                             (False, fading_nlos or Nakagami(3))):
            idx = np.nonzero(los == state)[0]
            shad = gen.normal(0.0, sigma[not state], idx.size)
            gains = sample_fading(model, gen, idx.size)
            want[idx] = pl[not state] + shad - 10.0 * np.log10(gains)
        assert 0 < los.sum() < n
        assert flags.tobytes() == los.tobytes()
        assert loss.tobytes() == want.tobytes()

    @pytest.mark.parametrize("p", [-0.1, 1.1, math.nan])
    def test_probability_outside_unit_interval(self, p):
        with pytest.raises(DomainError):
            sample_link_loss_db(self.PL, (0.0, 0.0), p, RngStream(6))

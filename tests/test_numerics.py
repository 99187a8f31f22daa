import math

import numpy as np
import pytest
from scipy import integrate, optimize, special, stats

from a2gnet import abs_net, localization, numerics
from a2gnet.errors import DomainError
from a2gnet.numerics import (
    RngStream,
    chebyshev_capacity_nodes,
    inv_marcum_q,
    marcum_q,
    nakagami_power_cdf,
    sample_fading,
    sample_shadowing_db,
)


def marcum_oracle(a, b):
    # Q1(a,b) is the survival of a noncentral chi-square with 2 dof
    return stats.ncx2.sf(b * b, 2, a * a)


def marcum_integral_oracle(a, b):
    # independent of the chi-square family: 1 - Q1(a,b) is the integral of
    # the Rician envelope density x exp(-(x^2+a^2)/2) I0(ax) over [0, b]
    def density(x):
        return x * math.exp(-0.5 * (x - a) ** 2) * special.i0e(a * x)

    cdf, _ = integrate.quad(density, 0.0, b, points=[a] if a < b else None,
                            limit=200, epsabs=1e-13)
    return 1.0 - cdf


class TestMarcumQ:
    def test_b_zero_identity(self):
        for a in [0.0, 0.3, 1.0, 2.5, 10.0, 30.0]:
            assert marcum_q(a, 0.0) == 1.0

    def test_a_zero_identity(self):
        for b in [0.1, 1.0, 3.0, 10.0]:
            assert abs(marcum_q(0.0, b) - math.exp(-0.5 * b * b)) <= 1e-15

    def test_q11_against_series_oracle(self):
        assert marcum_q(1.0, 1.0) == pytest.approx(marcum_oracle(1.0, 1.0), abs=1e-12)
        assert marcum_q(1.0, 1.0) == pytest.approx(0.733, abs=5e-4)

    def test_accuracy_grid_up_to_30(self):
        vals = [0.01, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 30.0]
        for a in vals:
            for b in vals:
                assert marcum_q(a, b) == pytest.approx(marcum_oracle(a, b), abs=1e-9)
                assert marcum_q(a, b) == pytest.approx(
                    marcum_integral_oracle(a, b), abs=1e-9)

    def test_monotone_in_a_and_b(self):
        grid = np.linspace(0.0, 10.0, 50)
        q = np.array([[marcum_q(a, b) for b in grid] for a in grid])
        assert np.all(np.diff(q, axis=0) >= -1e-12)  # nondecreasing in a
        assert np.all(np.diff(q, axis=1) <= 1e-12)   # nonincreasing in b

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            marcum_q(float("nan"), 1.0)
        with pytest.raises(DomainError):
            marcum_q(1.0, float("inf"))
        with pytest.raises(DomainError):
            marcum_q(-0.1, 1.0)

    def test_extreme_arguments_saturate(self):
        assert marcum_q(5.0, 50.0) == 0.0
        assert marcum_q(50.0, 5.0) == 1.0


class TestInvMarcumQ:
    def test_p_one(self):
        assert inv_marcum_q(1.7, 1.0) == 0.0

    def test_a_zero_closed_form(self):
        assert inv_marcum_q(0.0, 0.9) == pytest.approx(math.sqrt(-2 * math.log(0.9)), abs=1e-12)
        assert inv_marcum_q(0.0, 0.9) == pytest.approx(0.4590, abs=1e-4)

    def test_round_trip_example(self):
        # Q(1,1) = 0.73288, so the inverse at 0.733 sits just below 1
        assert inv_marcum_q(1.0, 0.733) == pytest.approx(1.0, abs=2e-3)

    def test_residual_contract(self):
        for a in [0.0, 0.5, 1.0, 3.0, 8.0]:
            for p in [0.999, 0.9, 0.5, 0.1, 1e-3, 1e-8]:
                b = inv_marcum_q(a, p)
                assert abs(marcum_q(a, b) - p) <= 1e-8

    def test_round_trip_identity_grid(self):
        # restricted to (a, b) whose Q value stays away from the saturated
        # ends: once Q rounds to 1.0 the inverse collapses to b = 0 by
        # definition, and within ~1e-8 of either end the inversion is
        # ill-conditioned (slope below 1e-7) so no solver can hold 1e-6 in b
        for a in np.linspace(0.0, 10.0, 10):
            for b in np.linspace(0.05, 10.0, 10):
                p = marcum_q(a, b)
                if 1e-8 < p < 1.0 - 1e-8:
                    assert inv_marcum_q(a, p) == pytest.approx(b, abs=1e-6)

    def test_domain_errors(self):
        for p in [0.0, -0.5, 1.0001, 5e-17, 1e-17]:
            with pytest.raises(DomainError):
                inv_marcum_q(1.0, p)
        # 1 - p rounds to 1 here, but the a == 0 closed form stays exact
        assert inv_marcum_q(0.0, 1e-17) == math.sqrt(-2.0 * math.log(1e-17))


class TestChebyshevNodes:
    def test_k1_node_and_weight(self):
        t, w = chebyshev_capacity_nodes(1)
        assert t[0] == pytest.approx(math.tan(math.pi / 4), abs=1e-15)
        assert w[0] == pytest.approx(math.pi ** 2 / 2, rel=1e-12)

    def test_count_and_positivity(self):
        t, w = chebyshev_capacity_nodes(64)
        assert len(t) == len(w) == 64
        assert np.all(t > 0) and np.all(w > 0)

    def test_quadrature_against_adaptive_oracle(self):
        # the rule approximates int_0^inf g(t) dt; apply it to f/(1+t)
        # with f(t) = 1/(1+t)^2
        t, w = chebyshev_capacity_nodes(200)
        est = np.sum(w / (1 + t) ** 3)
        oracle, err = integrate.quad(lambda x: 1.0 / (1 + x) ** 3, 0, np.inf)
        assert err < 1e-9
        assert est == pytest.approx(oracle, abs=1e-3)
        assert oracle == pytest.approx(0.5, abs=1e-12)

    def test_k_zero_rejected(self):
        with pytest.raises(DomainError):
            chebyshev_capacity_nodes(0)


class TestDbToLinear:
    @pytest.mark.parametrize("value_db", [-3000.0, -174.0, 0.0, 15.0, 3000.0])
    def test_is_the_power_of_ten(self, value_db):
        assert numerics.db_to_linear(value_db, "x") == 10.0 ** (value_db / 10.0)

    @pytest.mark.parametrize("value_db", [
        -1e308, math.nextafter(-3000.0, -math.inf),
        math.nextafter(3000.0, math.inf), 1e308])
    def test_past_the_range_names_the_field(self, value_db):
        with pytest.raises(DomainError, match=r"^gain_db must lie within"):
            numerics.db_to_linear(value_db, "gain_db")

    def test_integer_dbm_past_the_float_range_names_it(self):
        with pytest.raises(DomainError, match=r"^p_dbm must lie within"):
            numerics.dbm_to_watt(10 ** 400)


class TestFadingSamplers:
    def test_nakagami_m1_is_exponential_power(self):
        rng = RngStream(123, 0).child_generator()
        x = sample_fading(1, rng, 1_000_000)
        assert np.mean(x < 1.0) == pytest.approx(1 - math.exp(-1), abs=2e-3)

    def test_nakagami_m3_variance(self):
        rng = RngStream(123, 2).child_generator()
        x = sample_fading(3, rng, 1_000_000)
        assert np.var(x) == pytest.approx(1.0 / 3.0, abs=1e-2)

    @pytest.mark.parametrize("seed", range(5))
    def test_nakagami_m1_draws_the_exponential_bits(self, seed):
        # gamma(1, 1.0) is numpy's standard exponential, so m = 1 is
        # Rayleigh fading draw for draw, one at a time and in a block
        nak, ref = (RngStream(seed).child_generator() for _ in range(2))
        for _ in range(500):
            assert sample_fading(1, nak, 1)[0] == ref.exponential(1.0)
        assert np.array_equal(sample_fading(1, nak, 500),
                              ref.exponential(1.0, 500))

    def test_nakagami_cdf_matches_samples(self):
        rng = RngStream(11, 0).child_generator()
        x = sample_fading(3, rng, 400_000)
        for omega in [0.3, 1.0, 2.0]:
            assert np.mean(x < omega) == pytest.approx(
                nakagami_power_cdf(omega, 3), abs=4e-3)

    def test_invalid_models(self):
        for m in (0, 2.5, True):
            with pytest.raises(DomainError, match=r"^m "):
                sample_fading(m, RngStream(1).child_generator(), 1)


class TestShadowing:
    def test_sigma_zero_degenerate(self):
        x = sample_shadowing_db(0.0, RngStream(1).child_generator(), size=1000)
        assert np.all(x == 0.0)

    def test_sigma_zero_draws_nothing(self):
        gen = np.random.default_rng(5)
        assert sample_shadowing_db(0.0, gen) == 0.0
        assert np.array_equal(sample_shadowing_db(0.0, gen, size=3), np.zeros(3))
        assert gen.random() == np.random.default_rng(5).random()

    def test_sigma4_std(self):
        x = sample_shadowing_db(4.0, RngStream(2).child_generator(), size=1_000_000)
        assert np.std(x) == pytest.approx(4.0, abs=2e-2)

    def test_sigma8_mean_clt_bound(self):
        x = sample_shadowing_db(8.0, RngStream(3).child_generator(), size=1_000_000)
        assert abs(np.mean(x)) <= 0.03  # 3 sigma / sqrt(N) = 0.024

    def test_negative_sigma_rejected(self):
        with pytest.raises(DomainError):
            sample_shadowing_db(-1.0, RngStream(1).child_generator())


class TestRngStream:
    def test_exact_reproducibility(self):
        a = RngStream(42, 5).child_generator().normal(size=100)
        b = RngStream(42, 5).child_generator().normal(size=100)
        assert np.array_equal(a, b)

    def test_distinct_streams_uncorrelated(self):
        n = 100_000
        a = RngStream(42, 0).child_generator().normal(size=n)
        b = RngStream(42, 1).child_generator().normal(size=n)
        r = np.corrcoef(a, b)[0, 1]
        assert abs(r) < 0.01

    def test_child_generators_keyed(self):
        s = RngStream(9, 0)
        a = s.child_generator(3).normal(size=10)
        b = s.child_generator(3).normal(size=10)
        c = s.child_generator(4).normal(size=10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_seed_validation(self):
        with pytest.raises(DomainError):
            RngStream(-1, 0)
        with pytest.raises(DomainError):
            RngStream(1, -2)


@pytest.mark.filterwarnings("error")    # no uint64 wraparound warning
class TestChildGenerators:
    """The one-pass seeding against child_generator, state for state."""

    @pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1])
    # one stream word, then two and three
    @pytest.mark.parametrize("stream", [0, 2 ** 32, 2 ** 64 + 7])
    def test_equals_child_generator(self, seed, stream):
        s = RngStream(seed, stream)
        keys = [0, 1, 2 ** 32 - 1, 77, 1]
        gens = s.child_generators(keys)
        assert len(gens) == len(keys)
        for gen, key in zip(gens, keys):
            ref = s.child_generator(key)
            assert gen.bit_generator.state == ref.bit_generator.state
            assert gen.random() == ref.random()

    def test_block_of_trials(self):
        # the consecutive trial range a Monte Carlo block passes
        s = RngStream(87, 1)
        for key, gen in zip(range(5, 42), s.child_generators(range(5, 42))):
            ref = s.child_generator(key)
            assert gen.bit_generator.state == ref.bit_generator.state
            assert np.array_equal(gen.random(9), ref.random(9))

    def test_no_keys(self):
        assert RngStream(3).child_generators([]) == []

    @pytest.mark.parametrize("key", [-1, 2 ** 32, 2 ** 64])
    def test_key_outside_one_word(self, key):
        with pytest.raises(DomainError, match="2\\*\\*32"):
            RngStream(1).child_generators([0, key])


class TestLazyModule:
    # bench/tracing.py swaps localization.optimize and abs_net.integrate by
    # getattr/setattr on the module, so these must stay module attributes
    def test_bindings_resolve_to_scipy(self):
        assert numerics.special.chndtr is special.chndtr
        assert localization.minpack._lmder is optimize._minpack._lmder
        assert localization.optimize.least_squares is optimize.least_squares
        assert abs_net.integrate.quad is integrate.quad
        assert abs_net.optimize.brentq is optimize.brentq

    def test_lmder_takes_twelve_arguments(self):
        # localization calls scipy's private MINPACK binding positionally; a
        # scipy that moves or reorders it fails here, not inside a solve
        doc = localization.minpack._lmder.__doc__
        call = doc.split("=", 1)[1].strip().splitlines()[0]
        assert call == ("_lmder(fun, Dfun, x0, args, full_output, col_deriv, "
                        "ftol, xtol, gtol, maxfev, factor, diag)")

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            numerics.LazyModule("scipy.special").no_such_function

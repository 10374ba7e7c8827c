"""Tests for the deterministic kinetics and its scaling limit."""

import math

import numpy as np
import pytest

from qpcrkin.kinetics import (
    INVERSE_PRECISION,
    Kinetics,
    Precision,
    PrecisionError,
    inverse_profile,
    iterate_mean_map,
    limit_profile,
    mean_map,
)

V_GRID = [0.25, 0.5, 0.9, 1.0]


def profile_oracle(x, v, tol=1e-12):
    """Independent truncated-limit iteration used to freeze expected values."""
    b = 1.0 + v
    n = 0
    while x * x * b ** (1 - n) > tol:
        n += 1
    u = x / b ** n
    for _ in range(n):
        u = u + v * u / (1.0 + u)
    return u


# value of the profile at x=1, v=1, frozen from profile_oracle(1.0, 1.0)
PROFILE_AT_ONE_V1 = 0.6941607509454341


def kin(v):
    return Kinetics(v=v, K=1000.0)


class TestKinetics:
    def test_growth_factor(self):
        assert kin(0.5).b == 1.5
        assert kin(1.0).b == 2.0

    def test_from_exponent(self):
        k = Kinetics.from_exponent(0.5, 10)
        assert k.K == pytest.approx(1.5 ** 10)

    def test_from_exponent_overflow_names_v_and_m(self):
        # 1.5**2000 overflows a float: a ValueError, not an OverflowError
        with pytest.raises(ValueError, match=r"v=0\.5, m=2000"):
            Kinetics.from_exponent(0.5, 2000)

    @pytest.mark.parametrize("v", [0.0, -0.1, 1.5])
    def test_rejects_bad_efficiency(self, v):
        with pytest.raises(ValueError):
            Kinetics(v=v, K=1.0)

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            Kinetics(v=0.5, K=0.0)

    @pytest.mark.parametrize("K", [math.inf, math.nan])
    def test_rejects_non_finite_scale(self, K):
        with pytest.raises(ValueError, match="scale K must be finite and positive"):
            Kinetics(v=0.5, K=K)


class TestPrecision:
    @pytest.mark.parametrize("bad", [2.5, 3000.5, 0, 0.0, -3, math.inf, math.nan])
    def test_rejects_a_cap_that_is_not_a_positive_integer(self, bad):
        with pytest.raises(ValueError, match="max_iter"):
            Precision(tol=1e-8, max_iter=bad)

    def test_integer_valued_cap_is_kept_as_int(self):
        prec = Precision(tol=1e-8, max_iter=40.0)
        assert type(prec.max_iter) is int and prec.max_iter == 40
        assert inverse_profile(0.5, kin(0.5), prec) == inverse_profile(0.5, kin(0.5))


class TestMeanMap:
    def test_fixed_point_at_zero(self):
        assert mean_map(0.0, kin(0.7)) == 0.0

    def test_known_values(self):
        assert mean_map(1.0, kin(1.0)) == pytest.approx(1.5, abs=1e-15)
        assert mean_map(0.25, kin(0.5)) == pytest.approx(0.35, abs=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            mean_map(-0.5, kin(0.5))

    def test_array_input(self):
        x = np.array([0.0, 0.5, 2.0])
        out = mean_map(x, kin(0.5))
        assert out.shape == (3,)
        assert out[0] == 0.0


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize(
        "fn, name",
        [(mean_map, "density"), (limit_profile, "density"),
         (inverse_profile, "profile value")],
    )
    def test_typed_error_naming_the_argument(self, fn, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            fn(bad, kin(0.5))
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            fn(np.array([0.5, bad]), kin(0.5))


class TestIterate:
    def test_zero_iterations(self):
        assert iterate_mean_map(0.7, 0, kin(0.5)) == 0.7

    def test_two_cycles_v1(self):
        # f(1) = 1.5, f(1.5) = 1.5 + 1.5/2.5 = 2.1
        assert iterate_mean_map(1.0, 2, kin(1.0)) == pytest.approx(2.1, abs=1e-14)

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            iterate_mean_map(1.0, -1, kin(0.5))

    def test_monotone_in_x(self):
        k = kin(0.9)
        xs = np.linspace(0.0, 3.0, 50)
        ys = iterate_mean_map(xs, 4, k)
        assert np.all(np.diff(ys) > 0)


class TestLimitProfile:
    def test_zero(self):
        assert limit_profile(0.0, kin(0.5)) == 0.0

    def test_frozen_value_v1(self):
        got = limit_profile(1.0, kin(1.0), Precision(tol=1e-12))
        assert got == pytest.approx(PROFILE_AT_ONE_V1, abs=1e-11)

    @pytest.mark.parametrize("v", V_GRID)
    @pytest.mark.parametrize("x", [0.3, 1.0, 2.5])
    def test_matches_oracle(self, v, x):
        got = limit_profile(x, kin(v), Precision(tol=1e-12))
        assert got == pytest.approx(profile_oracle(x, v), abs=5e-12)

    def test_sandwich_small_x(self):
        got = limit_profile(0.1, kin(0.5))
        assert 0.09 <= got <= 0.1

    @pytest.mark.parametrize("v", V_GRID)
    def test_sandwich_unit_interval(self, v):
        xs = np.linspace(0.01, 0.99, 99)
        h = limit_profile(xs, kin(v))
        assert np.all(h <= xs)
        assert np.all(h >= xs - xs * xs)

    @pytest.mark.parametrize("v", V_GRID)
    def test_conjugacy_residual(self, v):
        # profile(x) equals the mean map applied to profile(x/b)
        k = kin(v)
        xs = np.linspace(0.05, 4.0, 80)
        prec = Precision(tol=1e-11)
        lhs = limit_profile(xs, k, prec)
        rhs = mean_map(limit_profile(xs / k.b, k, prec), k)
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    @pytest.mark.parametrize("v", V_GRID)
    def test_strictly_increasing(self, v):
        xs = np.linspace(0.0, 4.0, 200)
        h = limit_profile(xs, kin(v))
        assert np.all(np.diff(h) > 0)

    def test_truncation_decreases_with_depth(self):
        # f_n(x/b**n) decreases toward the limit as n grows
        v, x = 1.0, 1.0
        vals = []
        for n in [5, 10, 20, 40]:
            u = x / 2.0 ** n
            for _ in range(n):
                u = u + v * u / (1.0 + u)
            vals.append(u)
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] > limit_profile(x, kin(v)) - 1e-10

    def test_iterate_slope_below_linear_growth(self):
        # finite-difference slope of the n-fold iterate stays below b**n
        k = kin(0.8)
        n = 6
        xs = np.linspace(0.01, 2.0, 40)
        dx = 1e-7
        slope = (iterate_mean_map(xs + dx, n, k) - iterate_mean_map(xs, n, k)) / dx
        assert np.all(slope < k.b ** n)
        assert np.all(slope > 1.0)

    def test_perturbation_vanishing_at_scale(self):
        # iterates started at (x + delta/n)/b**n still converge to profile(x)
        k = kin(0.5)
        x, delta = 0.5, 0.4
        target = limit_profile(x, k, Precision(tol=1e-12))
        gaps = []
        for n in [8, 16, 32, 64]:
            u = (x + delta / n) / k.b ** n
            for _ in range(n):
                u = u + k.v * u / (1.0 + u)
            gaps.append(abs(u - target))
        # the perturbation delta/n * b**-n shrinks the gap like delta/n
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 2 * delta / 64

    def test_precision_unreachable(self):
        with pytest.raises(PrecisionError) as err:
            limit_profile(3.0, kin(0.5), Precision(tol=1e-10, max_iter=5))
        assert err.value.value is not None
        assert err.value.bound > 1e-10

    def test_array_matches_scalar(self):
        k = kin(0.5)
        xs = np.array([0.2, 1.0, 3.3])
        arr = limit_profile(xs, k)
        for xi, ai in zip(xs, arr):
            assert limit_profile(float(xi), k) == pytest.approx(ai, abs=1e-10)


class TestInverseProfile:
    def test_zero(self):
        assert inverse_profile(0.0, kin(0.5)) == 0.0

    @pytest.mark.parametrize("v", V_GRID)
    def test_round_trip_at_point(self, v):
        k = kin(v)
        x = 0.3
        y = limit_profile(x, k)
        assert inverse_profile(y, k) == pytest.approx(x, abs=2e-8)

    def test_forward_oracle_round_trip(self):
        k = kin(0.5)
        y = profile_oracle(2.0, 0.5)
        assert inverse_profile(y, k) == pytest.approx(2.0, abs=2e-8)

    def test_inverse_dominates_argument(self):
        k = kin(0.9)
        ys = np.linspace(0.01, 1.5, 30)
        g = inverse_profile(ys, k)
        assert np.all(g >= ys - 1e-12)

    @pytest.mark.parametrize("v", V_GRID)
    def test_inverse_functional_equation(self, v):
        # inverse(x) == inverse(mean_map(x)) / b
        k = kin(v)
        xs = np.linspace(0.05, 1.2, 25)
        lhs = inverse_profile(xs, k)
        rhs = inverse_profile(mean_map(xs, k), k) / k.b
        assert np.max(np.abs(lhs - rhs)) < 3e-8

    def test_non_convergence_raises(self):
        with pytest.raises(PrecisionError) as err:
            inverse_profile(0.8, kin(0.5), Precision(tol=1e-8, max_iter=3))
        assert err.value.bracket is not None

    def test_array_matches_scalar(self):
        k = kin(0.5)
        ys = np.array([0.05, 0.4, 0.9])
        arr = inverse_profile(ys, k)
        for yi, ai in zip(ys, arr):
            assert inverse_profile(float(yi), k) == pytest.approx(ai, abs=1e-8)

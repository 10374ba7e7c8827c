"""Certified stopping of the conjugacy limits H, G and phi at the cap."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpcrkin.kinetics import (
    INVERSE_PRECISION,
    PROFILE_PRECISION,
    Kinetics,
    Precision,
    PrecisionError,
    _certified_depth,
    _inverse_mean_map,
    _stop_bound,
    _stop_screen,
    inverse_profile,
    limit_profile,
)
from qpcrkin.limit_law import limit_mgf


def test_transform_cap_raises_typed_error():
    with pytest.raises(PrecisionError) as err:
        limit_mgf(5.0, 0.5, Precision(tol=1e-12, max_iter=5))
    assert 0.0 < err.value.value < 1.0
    assert err.value.bound > 1e-12
    # the bound holds: the full-precision transform lies within it
    assert abs(limit_mgf(5.0, 0.5) - err.value.value) <= err.value.bound


@pytest.mark.parametrize("v", [0.1, 0.5, 1.0])
def test_inverse_batch_equals_scalar_bitwise(v):
    k = Kinetics(v=v, K=1000.0)
    ys = np.array([0.0, 1e-6, 0.05, 0.4, 0.9, 2.5, 7.0])
    batch = inverse_profile(ys, k)
    for yi, gi in zip(ys, batch):
        assert inverse_profile(float(yi), k) == gi


def test_inverse_cap_bracket_holds_value():
    k = Kinetics(v=0.5, K=1000.0)
    ys = np.array([0.05, 0.8, 2.0])
    full = inverse_profile(ys, k, Precision(tol=1e-12))
    with pytest.raises(PrecisionError) as err:
        inverse_profile(ys, k, Precision(tol=1e-8, max_iter=12))
    lo, hi = err.value.bracket
    assert np.array_equal(lo, err.value.value)
    assert np.all(np.isfinite(hi)) and np.all(hi - lo > 1e-8)
    assert np.all(lo <= full) and np.all(full <= hi)


def _masked_inverse(y, kin, prec=INVERSE_PRECISION):
    """Reference G: every step runs over all elements, finished ones masked.

    Returns (g, bound, certified).
    """
    arr = np.asarray(y, dtype=float)
    b = kin.b
    u = arr
    g = np.zeros_like(arr)
    bound = np.full_like(arr, np.inf)
    todo = np.ones(arr.shape, dtype=bool)
    for n in range(prec.max_iter + 1):
        if n:
            u = np.where(todo, _inverse_mean_map(u, b), u)
        e = b ** (1 - n)
        gn = u * b ** n
        q = 4.0 * e * gn
        r = 2.0 * gn / (1.0 + np.sqrt(np.maximum(1.0 - q, 0.0)))
        g = np.where(todo, gn, g)
        bound = np.where(todo, np.where(q < 1.0, e * r * r, np.inf), bound)
        todo &= bound > prec.tol
        if not todo.any():
            return g, bound, True
    return g, bound, False


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


#: zeros of both signs, a tiny value, the rho range and saturated values
MIXED = np.array([0.0, -0.0, 1e-6, 0.01, 0.05, 0.051, 0.07, 0.1, 0.2, 0.35,
                  0.5, 0.9, 1.0, 1.7, 3.0, 7.5, 12.0, 30.0])


@pytest.mark.parametrize("v", [0.1, 0.25, 0.5, 0.9, 1.0])
def test_inverse_equals_masked_loop_bitwise(v):
    k = Kinetics(v=v, K=1000.0)
    rho_range = MIXED[4:12]
    for y in (MIXED, MIXED[::-1].reshape(3, 6), rho_range, rho_range[::-1],
              MIXED[-4:], np.empty(0)):
        g, _, ok = _masked_inverse(y, k)
        assert ok and _same_bits(inverse_profile(y, k), g)
    for y in (0.0, -0.0, 0.05, 30.0):
        g, _, _ = _masked_inverse(y, k)
        out = inverse_profile(y, k)
        assert isinstance(out, float) and _same_bits(out, g)


def test_inverse_certified_where_the_depth_estimate_rounds_up():
    # tol is exactly the bound after one step, so the reference certifies
    # y at n = 1; log(b*y**2/tol)/log(b) rounds to just above 1 and the
    # depth estimate reads 2, one step late
    k = Kinetics(v=0.25, K=1000.0)
    prec = Precision(tol=1e-38)
    assert _certified_depth(k.b * 1e-19 * 1e-19, k.b, prec.tol) == 2
    g, _, ok = _masked_inverse(1e-19, k, prec)
    assert ok and _same_bits(inverse_profile(1e-19, k, prec), g)


#: MIXED shuffled with repeated values: the window reorders it internally
SHUFFLED = np.random.default_rng(3).permutation(np.concatenate([MIXED, MIXED[::3]]))


@pytest.mark.parametrize("v", [0.25, 1.0])
def test_inverse_cap_equals_masked_loop(v):
    # the smallest values are certified before the cap, the largest not
    k = Kinetics(v=v, K=1000.0)
    prec = Precision(tol=1e-8, max_iter=30)
    g, bound, ok = _masked_inverse(MIXED, k, prec)
    assert not ok and (bound[:3] <= 1e-8).all() and (bound[-3:] > 1e-8).all()
    for y in (MIXED, SHUFFLED):
        g, bound, _ = _masked_inverse(y, k, prec)
        with pytest.raises(PrecisionError) as err:
            inverse_profile(y, k, prec)
        assert _same_bits(err.value.value, g)
        assert _same_bits(err.value.bound, bound)
        lo, hi = err.value.bracket
        assert _same_bits(lo, g) and _same_bits(hi, g + bound)


@st.composite
def _profile_values(draw):
    """Unsorted values with repeats, float neighbours and zeros of both signs."""
    base = draw(st.lists(
        st.one_of(st.floats(min_value=0.0, max_value=30.0),
                  st.floats(min_value=1e-12, max_value=1e-3),
                  st.sampled_from([0.0, -0.0])),
        min_size=1, max_size=12))
    values = []
    for y in base:
        values.append(y)
        kind = draw(st.sampled_from(["alone", "repeat", "up", "down"]))
        if kind == "repeat":
            values.append(y)
        elif kind == "up":
            values.append(float(np.nextafter(y, np.inf)))
        elif kind == "down" and y > 0.0:
            values.append(float(np.nextafter(y, 0.0)))
    return np.array(draw(st.permutations(values)))


def _inputs(values):
    """The values as a 1-d array, a 2-d array and a scalar."""
    shape = (2, -1) if values.size % 2 == 0 else (-1, 1)
    return values, values.reshape(shape), float(values[0])


@given(values=_profile_values(), v=st.sampled_from([0.1, 0.25, 0.5, 0.9, 1.0]))
@settings(max_examples=100, deadline=None)
def test_inverse_equals_masked_loop_on_any_order(values, v):
    k = Kinetics(v=v, K=1000.0)
    for y in _inputs(values):
        g, _, ok = _masked_inverse(y, k)
        out = inverse_profile(y, k)
        assert ok and _same_bits(out, g) and (type(out) is float) == (np.ndim(y) == 0)


def _plain_profile(x, kin, prec=PROFILE_PRECISION):
    """Reference H: the forward loop with a fresh array per step."""
    arr = np.asarray(x, dtype=float)
    b = kin.b
    xmax = float(arr.max())
    if xmax == 0.0:
        return np.zeros_like(arr)
    n = _certified_depth(b * xmax * xmax, b, prec.tol)
    u = arr * math.exp(-n * math.log(b))
    for _ in range(n):
        u = u + kin.v * u / (1.0 + u)
    return u


@given(values=_profile_values(), v=st.sampled_from([0.1, 0.25, 0.5, 0.9, 1.0]))
@settings(max_examples=100, deadline=None)
def test_profile_equals_plain_loop(values, v):
    k = Kinetics(v=v, K=1000.0)
    for x in _inputs(values):
        out = limit_profile(x, k)
        assert _same_bits(out, _plain_profile(x, k))
        assert isinstance(out, float) == (np.ndim(x) == 0)


@pytest.mark.parametrize("tol", [1e-38, 1e-12, 1e-8, 1e-4, 1.0])
@pytest.mark.parametrize("v", [0.1, 0.5, 1.0])
def test_screen_lets_through_every_element_that_stops(v, tol):
    # iterates within a few ulps of the exact threshold sqrt(tol/e) - tol
    # and of the screen itself, at every depth up to the cap
    b = 1.0 + v
    cap = 400
    screened = 0
    for n in range(cap + 1):
        e, scale = b ** (1 - n), b ** n
        lim = _stop_screen(e, scale, tol)
        if 32.0 * e * tol >= 1.0:
            assert lim == math.inf
            continue
        assert lim < math.inf
        edge = (math.sqrt(tol / e) - tol) / scale
        u = np.concatenate([edge + np.arange(-8, 9) * np.spacing(edge),
                            lim + np.arange(-8, 9) * np.spacing(lim),
                            edge * (1.0 + np.linspace(-4e-6, 4e-6, 33))])
        _, bound = _stop_bound(u, e, scale)
        stops = bound <= tol
        assert (u[stops] <= lim).all()
        # not vacuous: some iterates near the edge stop, the highest does not
        assert stops.any() and not stops[-1]
        screened += 1
    assert screened > 0


@pytest.mark.parametrize("v", [0.25, 0.5, 1.0])
def test_inverse_where_rounding_breaks_the_order(v):
    # neighbouring inputs whose iterates swap order under rounding; tol is
    # the later input's bound at that step, so it stops one step before the
    # earlier one and leaves from the middle of the window
    k = Kinetics(v=v, K=1000.0)
    ys = 0.3 + np.arange(2000) * np.spacing(0.3)
    u = ys
    for n in range(1, 200):
        u = _inverse_mean_map(u, k.b)
        e, scale = k.b ** (1 - n), k.b ** n
        _, bound = _stop_bound(u, e, scale)
        swapped = np.flatnonzero((np.diff(u) < 0.0) & (bound[1:] < bound[:-1])
                                 & (32.0 * e * bound[1:] < 1.0))
        if swapped.size:
            break
    i = swapped[0]
    prec = Precision(tol=float(bound[i + 1]))
    g, _, ok = _masked_inverse(ys[i:i + 2], k, prec)
    assert ok and _same_bits(inverse_profile(ys[i:i + 2], k, prec), g)


def test_inverse_of_a_value_beyond_the_float_range():
    # G(1e17) at v=1 exceeds every float: the inverse map's branch not
    # taken divides by zero there and must not be evaluated, and the
    # iterates overflow to inf, which certifies nothing; a RuntimeWarning
    # would fail here
    y = np.array([0.5, 2.0, 1e17])
    x = _inverse_mean_map(y, 2.0)
    assert np.all(np.isfinite(x)) and np.all(x <= y) and x[-1] > 0.5 * y[-1]
    with pytest.raises(PrecisionError) as err:
        inverse_profile(1e17, Kinetics(1.0, 10.0))
    assert err.value.bound == math.inf


@pytest.mark.parametrize("y", [1e155, 1e160, 1e300, np.finfo(float).max])
def test_inverse_of_a_value_whose_square_overflows(y):
    # (b - y)**2 overflows past about 1e154, which callers ignore; the map
    # still returns a finite value below y, and G fails with PrecisionError
    # at the cap, not with an inf - inf that a RuntimeWarning would fail here
    with np.errstate(over="ignore"):
        x = _inverse_mean_map(np.array([y, 0.5]), 1.5)
    assert np.all(np.isfinite(x)) and x[0] <= y and x[0] > 0.5 * y
    assert x[1] == _inverse_mean_map(np.array([0.5]), 1.5)[0]
    with pytest.raises(PrecisionError) as err:
        inverse_profile(y, Kinetics(0.5, 10.0))
    assert err.value.bound == math.inf


def test_unreachable_tolerance_is_a_precision_error():
    # c/tol overflows at tol=5e-324; the depth works with log(c) - log(tol)
    n = _certified_depth(2e12, 2.0, 5e-324)
    assert n == math.ceil((math.log(2e12) - math.log(5e-324)) / math.log(2.0))
    assert _certified_depth(math.inf, 2.0, 1e-8) == math.inf
    # that depth is past the one where 2**n overflows, which caps G too
    with pytest.raises(PrecisionError, match="within 1023 steps"):
        inverse_profile(1e6, Kinetics(1.0, 10.0), Precision(5e-324))

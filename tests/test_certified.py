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
    _SEED_BLOCK,
    _certified_depth,
    _cubic_coefficient,
    _inverse_mean_map,
    _log_depth,
    _stop_bound,
    _stop_screen,
    inverse_profile,
    limit_profile,
    mean_map,
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


def _constants(b):
    """c3 = (b+2)/(b**2 (b+1)), the cubic coefficient of H, and c3 + 2/b**2."""
    c3 = (b + 2.0) / (b * b * (b + 1.0))
    return c3, c3 + 2.0 / (b * b)


def _seed_and_bound(u, n, b):
    """Lower seed of G at step n from the backward iterate u, and its bound."""
    c3, kc = _constants(b)
    scale = b ** n
    # G <= r = scale*s where 4*b*u < 1, from G - g_n <= b**(1-n) * G**2
    q = 4.0 * b * u
    ok = q < 1.0
    s = np.where(ok, 2.0 * u / (1.0 + np.sqrt(np.maximum(1.0 - q, 0.0))), 0.0)
    cube = s * (s * scale) * s
    gn = u * scale
    return (np.where(ok, gn + gn * u / b - c3 * cube, gn),
            np.where(ok, kc * cube, np.inf))


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
        seed, bn = _seed_and_bound(u, n, b)
        g = np.where(todo, seed, g)
        bound = np.where(todo, bn, bound)
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


def test_inverse_of_many_values_equals_masked_loop_bitwise():
    # more values than one block of the closing seed evaluation
    k = Kinetics(v=0.5, K=1000.0)
    y = np.random.default_rng(5).uniform(0.0, 30.0, 3 * _SEED_BLOCK + 7)
    g, _, ok = _masked_inverse(y, k)
    assert ok and _same_bits(inverse_profile(y, k), g)


def test_inverse_certified_where_the_depth_estimate_rounds_up():
    # tol is exactly the bound after one step, so the reference certifies
    # y at n = 1; log(kc*y**3/tol)/log(b**2) rounds to just above 1 and the
    # depth estimate reads 2, one step late; the seed at n = 2 differs in
    # its last bits
    k, y = Kinetics(v=0.25, K=1000.0), 1.3e-18
    _, bound = _seed_and_bound(_inverse_mean_map(np.array([y]), k.b), 1, k.b)
    prec = Precision(tol=float(bound[0]))
    _, kc = _constants(k.b)
    assert _log_depth(math.log(kc) + 3.0 * math.log(y), k.b * k.b, prec.tol) == 2
    g, _, ok = _masked_inverse(y, k, prec)
    assert ok and _same_bits(inverse_profile(y, k, prec), g)
    u2 = _inverse_mean_map(_inverse_mean_map(np.array([y]), k.b), k.b)
    late, _ = _seed_and_bound(u2, 2, k.b)
    assert not _same_bits(late[0], g)


#: MIXED shuffled with repeated values: the window reorders it internally
SHUFFLED = np.random.default_rng(3).permutation(np.concatenate([MIXED, MIXED[::3]]))


@pytest.mark.parametrize("v", [0.25, 1.0])
def test_inverse_cap_equals_masked_loop(v):
    # the smallest values are certified before the cap, the largest not
    k = Kinetics(v=v, K=1000.0)
    prec = Precision(tol=1e-8, max_iter=15)
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
    c3, _ = _constants(b)
    gap = math.log(c3) + 3.0 * math.log(xmax) - math.log(prec.tol)
    n = max(math.ceil(gap / math.log(b * b)), 0)
    with np.errstate(divide="ignore"):
        u = np.exp(np.log(arr) - n * math.log(b))
    u = u * ((u * c3 - 1.0 / b) * u + 1.0)
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
    # iterates within a few ulps of the exact threshold rho - e*rho**2,
    # rho = (tol*b**(2n)/kc)**(1/3), and of both screen bounds, at every
    # depth up to the cap: all that stop are at or below lim, and all at
    # or below sure stop
    b = 1.0 + v
    c3, kc = _constants(b)
    cap = 400
    screened = 0
    for n in range(cap + 1):
        scale = b ** n
        e = b / scale
        lim, sure = _stop_screen(scale, b, tol, kc)
        rho = (tol * scale * scale / kc) ** (1.0 / 3.0)
        if 4.0 * e * rho >= 1.0:
            assert (lim, sure) == (math.inf, -math.inf)
            continue
        assert 0.0 < sure < lim < math.inf
        edge = rho * (1.0 - e * rho) / scale
        u = np.concatenate([edge + np.arange(-8, 9) * np.spacing(edge),
                            lim + np.arange(-8, 9) * np.spacing(lim),
                            sure + np.arange(-8, 9) * np.spacing(sure),
                            edge * (1.0 + np.linspace(-4e-6, 4e-6, 33))])
        _, bound = _stop_bound(u, scale, b, c3, kc)
        stops = bound <= tol
        assert (u[stops] <= lim).all() and stops[u <= sure].all()
        # not vacuous: some iterates above sure stop, the highest does not
        assert (stops & (u > sure)).any() and not stops[-1]
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
    _, kc = _constants(k.b)
    for n in range(1, 200):
        u = _inverse_mean_map(u, k.b)
        _, bound = _seed_and_bound(u, n, k.b)
        # the screen is on at tol = bound[1:]
        rho = (bound[1:] * k.b ** (2 * n) / kc) ** (1.0 / 3.0)
        swapped = np.flatnonzero((np.diff(u) < 0.0) & (bound[1:] < bound[:-1])
                                 & (4.0 * k.b ** (1 - n) * rho < 1.0))
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


SEED_VS = [0.05, 0.1, 0.25, 0.5, 0.9, 1.0]
#: x in (0, 4]; the deep reference is within about 1e-13 of H there
GRID = np.arange(1, 401) * 0.01
SLACK = 1e-12


def _first_order_profile(x, v, tol=1e-14):
    """Deep reference H: the identity seed x/b**n, tail at most b*x**2*b**(-n)."""
    b = 1.0 + v
    n = math.ceil(math.log(b * float(np.max(x)) ** 2 / tol) / math.log(b))
    u = x / b ** n
    for _ in range(n):
        u = u + v * u / (1.0 + u)
    return u


@pytest.mark.parametrize("v", SEED_VS)
def test_seed_brackets(v):
    b, x = 1.0 + v, GRID
    c3 = _cubic_coefficient(b)
    assert c3 == _constants(b)[0]
    h = _first_order_profile(x, v)
    cube = c3 * x ** 3
    # 0 <= x - H(x) <= x**2/b
    assert np.all(x - h >= -SLACK) and np.all(x - h <= x * x / b + SLACK)
    # 0 <= D(x) = H(x) - (x - x**2/b) <= c3*x**3, and c3 is nearly sharp
    d = h - (x - x * x / b)
    assert np.all(d >= -SLACK) and np.all(d <= cube + SLACK)
    assert np.max(d / cube) > 0.9
    # with w = x and u = H(w): G(u) - u - u**2/b lies in [-c3 w**3, 2 w**3/b**2]
    gap = x - h - h * h / b
    assert np.all(gap >= -cube - SLACK)
    assert np.all(gap <= 2.0 * x ** 3 / (b * b) + SLACK)


@pytest.mark.parametrize("tol", [1e-4, 1e-6, 1e-8, 1e-10])
@pytest.mark.parametrize("v", SEED_VS)
def test_profile_and_inverse_within_tolerance(v, tol):
    # H lies in [H, H + tol] and G in [G - tol, G], against the deep reference
    k = Kinetics(v=v, K=2.0)
    h = _first_order_profile(GRID, v)
    out = limit_profile(GRID, k, Precision(tol=tol))
    assert np.all(out >= h - SLACK) and np.all(out <= h + tol + SLACK)
    # G's slope is below 8 on H([0.01, 4]), so the reference is good to 1e-11 there
    g = inverse_profile(h, k, Precision(tol=tol))
    assert np.all(g <= GRID + 1e-11) and np.all(g >= GRID - tol - 1e-11)


@pytest.mark.parametrize("v, depth, steps",
                         [(0.1, 144, 124), (0.5, 33, 29), (1.0, 19, 17)])
def test_certified_depths(v, depth, steps):
    # H(4) at tol 1e-10 takes depth steps (272, 65, 39 with the identity
    # seed), and G(H(4)) at tol 1e-8 takes steps steps (224, 54, 32)
    k = Kinetics(v=v, K=2.0)
    y = limit_profile(4.0, k, Precision(tol=1e-10, max_iter=depth))
    with pytest.raises(PrecisionError, match=f"needs {depth} iterations"):
        limit_profile(4.0, k, Precision(tol=1e-10, max_iter=depth - 1))
    inverse_profile(y, k, Precision(tol=1e-8, max_iter=steps))
    with pytest.raises(PrecisionError):
        inverse_profile(y, k, Precision(tol=1e-8, max_iter=steps - 1))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("x", [1e100, 1e200, 1e300])
def test_profile_at_huge_arguments(x):
    # c3*x**3 and b**-n leave the float range here, their logs do not
    k = Kinetics(v=0.5, K=2.0)
    h = limit_profile(x, k)
    assert 0.0 < h < x and h == limit_profile(np.array([0.5, x]), k)[1]
    assert abs(limit_profile(k.b * x, k) - mean_map(h, k)) <= 1e-9
    if x == 1e100:
        assert round(h, 2) == 278.28
    # one step short of the certified depth: a finite bound above tol
    c3, _ = _constants(k.b)
    n = _log_depth(math.log(c3) + 3.0 * math.log(x), k.b * k.b, 1e-10)
    with pytest.raises(PrecisionError) as err:
        limit_profile(x, k, Precision(tol=1e-10, max_iter=n - 1))
    assert math.isfinite(err.value.value)
    assert 1e-10 < err.value.bound <= 1e-10 * k.b ** 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("x", [1e100, 1e200, 1e300])
def test_inverse_at_huge_arguments(x):
    k = Kinetics(v=0.5, K=2.0)
    y = limit_profile(x, k)
    if x < 1e300:
        assert inverse_profile(y, k) == pytest.approx(x, rel=1e-10)
    else:
        # b**n leaves the float range before the bound reaches tol
        with pytest.raises(PrecisionError) as err:
            inverse_profile(y, k)
        assert err.value.value == pytest.approx(x, rel=1e-10)
        assert 1e-8 < err.value.bound < math.inf
    # G(x) itself exceeds every float: the bound is inf, nothing is nan
    with pytest.raises(PrecisionError) as err:
        inverse_profile(x, k)
    assert err.value.bound == math.inf and not math.isnan(err.value.value)

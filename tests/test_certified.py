"""Certified stopping of the conjugacy limits H, G and phi at the cap."""

import functools
import math

import mpmath
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
    _PROFILE_DOMAIN,
    _ROUNDING,
    _SCREEN_VERTEX,
    _SEED_BLOCK,
    _SEED_ORDER,
    _inverse_coefficients,
    _inverse_mean_map,
    _log_depth,
    _profile_coefficients,
    _stop_bound,
    _stop_screen,
    _tail_depth,
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
    # inputs whose bounds are finite but above tol at the cap: the seed's
    # bound falls by b**d per step, so that holds for a cluster of inputs
    # at one step only
    k = Kinetics(v=0.5, K=1000.0)
    ys = np.array([0.77, 0.79, 0.8])
    full = inverse_profile(ys, k, Precision(tol=1e-12))
    with pytest.raises(PrecisionError) as err:
        inverse_profile(ys, k, Precision(tol=1e-8, max_iter=5))
    lo, hi = err.value.bracket
    assert np.array_equal(lo, err.value.value)
    assert np.all(np.isfinite(hi)) and np.all(hi - lo > 1e-8)
    assert np.all(lo <= full) and np.all(full <= hi)


D = _SEED_ORDER


def _constants(v):
    """The seeds' coefficients and remainder constants: (a, c_H, q, c_G)."""
    a, c_h = _profile_coefficients(v)
    q, c_g = _inverse_coefficients(v)
    return a, c_h, q, c_g


def _seed_and_bound(u, n, kin):
    """Lower seed of G at step n from the backward iterate u, and its bound."""
    b = kin.b
    _, _, q, c = _constants(kin.v)
    scale = b ** n
    # G <= r = scale*s where 4*b*u < 1, from G - g_n <= b**(1-n) * G**2;
    # the bound is 2c * r**(d+1) * b**(-d*n) = 2c * r * s**d
    t = 4.0 * b * u
    ok = t < 1.0
    s = np.where(ok, 2.0 * u / (1.0 + np.sqrt(np.maximum(1.0 - t, 0.0))), 0.0)
    tail = s * scale
    for _ in range(D):
        tail = tail * s
    bound = np.where(ok, tail * c * 2.0, np.inf)
    poly = u * q[D]
    for k in range(D - 1, 1, -1):
        poly = (poly + q[k]) * u
    gn = u * scale
    return np.where(ok, gn * (poly + 1.0) - tail * c, gn), bound


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
        seed, bn = _seed_and_bound(u, n, kin)
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
    # y at n = 1; log(2c*y**(d+1)/tol)/log(b**d) rounds to just above 1 and
    # the depth estimate reads 2, one step late; the seed at n = 2 differs
    # in its last bits
    k, y = Kinetics(v=0.25, K=1000.0), 1.3e-18
    _, bound = _seed_and_bound(_inverse_mean_map(np.array([y]), k.b), 1, k)
    prec = Precision(tol=float(bound[0]))
    c = _constants(k.v)[3]
    log_c = math.log(2.0 * c) + (D + 1) * math.log(y)
    assert _log_depth(log_c, k.b ** D, prec.tol) == 2
    g, _, ok = _masked_inverse(y, k, prec)
    assert ok and _same_bits(inverse_profile(y, k, prec), g)
    u2 = _inverse_mean_map(_inverse_mean_map(np.array([y]), k.b), k.b)
    late, _ = _seed_and_bound(u2, 2, k)
    assert not _same_bits(late[0], g)


#: MIXED shuffled with repeated values: the window reorders it internally
SHUFFLED = np.random.default_rng(3).permutation(np.concatenate([MIXED, MIXED[::3]]))


@pytest.mark.parametrize("v", [0.25, 1.0])
def test_inverse_cap_equals_masked_loop(v):
    # the smallest values are certified before the cap, the largest not
    k = Kinetics(v=v, K=1000.0)
    prec = Precision(tol=1e-8, max_iter=8)
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
    a, c, _, _ = _constants(kin.v)
    gap = math.log(2.0 * c) + (D + 1) * math.log(xmax) - math.log(prec.tol)
    # at least the depth that brings x/b**n into the seed's domain
    floor = math.ceil((math.log(xmax) - math.log(_PROFILE_DOMAIN)) / math.log(b))
    n = max(math.ceil(gap / math.log(b ** D)), floor, 0)
    with np.errstate(divide="ignore"):
        u = np.exp(np.log(arr) - n * math.log(b))
    # the upper seed P(u) + c*u**(d+1) by Horner
    t = u * c
    for k in range(D, 1, -1):
        t = (t + a[k]) * u
    u = u * (t + 1.0)
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
    # iterates within a few ulps of the exact threshold u = s - b*s**2 at
    # s = (tol/(2c*b**n))**(1/(d+1)), of both screen bounds and of the
    # vertex 1/(4b), at every depth up to the cap: all that stop are at or
    # below lim, and all at or below sure stop
    b = 1.0 + v
    _, _, q, c = _constants(v)
    uncapped = 0
    for n in range(401):
        scale = b ** n
        lim, sure = _stop_screen(scale, b, tol, c)
        assert 0.0 < sure < lim < math.inf
        s = (tol / (2.0 * c * scale)) ** (1.0 / (D + 1))
        vertex = 0.25 / b
        edge = s * (1.0 - b * s) if 4.0 * b * s < _SCREEN_VERTEX else vertex
        u = np.concatenate([edge + np.arange(-8, 9) * np.spacing(edge),
                            lim + np.arange(-8, 9) * np.spacing(lim),
                            sure + np.arange(-8, 9) * np.spacing(sure),
                            vertex + np.arange(-8, 9) * np.spacing(vertex),
                            edge * (1.0 + np.linspace(-4e-6, 4e-6, 33))])
        stops = _stop_bound(u, scale, b, q, c)[1] <= tol
        assert (u[stops] <= lim).all() and stops[u <= sure].all()
        assert stops.any() and not stops.all()
        if edge < vertex:
            # some iterates above sure stop, the highest near the edge does not
            assert (stops & (u > sure)).any() and not stops[-1]
            uncapped += 1
    assert uncapped > 0


@pytest.mark.parametrize("v", [0.25, 0.5, 1.0])
def test_inverse_where_rounding_breaks_the_order(v):
    # neighbouring inputs whose iterates swap order under rounding; tol is
    # the later input's bound at that step, so it stops one step before the
    # earlier one and leaves from the middle of the window
    k = Kinetics(v=v, K=1000.0)
    ys = 0.3 + np.arange(2000) * np.spacing(0.3)
    u = ys
    c = _constants(v)[3]
    for n in range(1, 200):
        u = _inverse_mean_map(u, k.b)
        _, bound = _seed_and_bound(u, n, k)
        # the screen's threshold is below its cap at tol = bound[1:]
        s = (bound[1:] / (2.0 * c * k.b ** n)) ** (1.0 / (D + 1))
        swapped = np.flatnonzero((np.diff(u) < 0.0) & (bound[1:] < bound[:-1])
                                 & (4.0 * k.b * s < _SCREEN_VERTEX))
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
    n = _log_depth(math.log(2e12), 2.0, 5e-324)
    assert n == math.ceil((math.log(2e12) - math.log(5e-324)) / math.log(2.0))
    assert _log_depth(math.inf, 2.0, 1e-8) == math.inf
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


@functools.lru_cache(maxsize=None)
def _exact_profile(v):
    """H on a grid in [0.001, 4] to about 1e-30, as (x, H(x)) pairs of mpf.

    The identity seed x0/b**N iterated forward is, after k steps, within
    x**2 * b**(-k-1) of H(x) at x = x0*b**(k-N), as 0 <= x - H(x) <= x**2/b
    and the mean map has slope in [1, b].  Five base points x0 in (4/b, 4]
    and the last steps of each run give H on the orbits x0*b**(-j).
    """
    with mpmath.workdps(50):
        vm = mpmath.mpf(v)
        b = 1 + vm
        span = int(mpmath.ceil(mpmath.log(4000) / mpmath.log(b)))
        n = span + int(mpmath.ceil(mpmath.log(mpmath.mpf(16) * 10 ** 30) / mpmath.log(b)))
        pairs = []
        for t in range(5):
            x0 = 4 * b ** (mpmath.mpf(-t) / 5)
            u = x0 / b ** n
            for k in range(1, n + 1):
                u = u + vm * u / (1 + u)
                if k >= n - span:
                    pairs.append((x0 * b ** (k - n), u))
    return tuple(pairs)


def _mp_poly(coef, x):
    """sum_k coef[k] x**k by Horner."""
    out = 0
    for c in reversed(coef):
        out = out * x + c
    return out


def _mp_mul(p, r):
    out = [mpmath.mpf(0)] * (len(p) + len(r) - 1)
    for i, pi in enumerate(p):
        for j, rj in enumerate(r):
            out[i + j] += pi * rj
    return out


def _mp_taylor(v):
    """The Taylor coefficients of H and G to degree d, exactly.

    a from the recursion of _profile_coefficients, and q by reverting P:
    the terms of sum_j q_j P**j up to degree d are those of the identity.
    """
    vm = mpmath.mpf(v)
    b = 1 + vm
    a = [mpmath.mpf(0), mpmath.mpf(1)]
    for k in range(2, D + 1):
        a.append(-sum(a[j] * a[k - j] * (b ** (k - j) - 1) for j in range(1, k))
                 / (b ** k - b))
    powers = [None, a]
    for j in range(2, D + 1):
        powers.append(_mp_mul(powers[-1], a)[:D + 1])
    q = [mpmath.mpf(0), mpmath.mpf(1)]
    for k in range(2, D + 1):
        q.append(-sum(q[j] * powers[j][k] for j in range(1, k)))
    return a, q


def _mp_defects(v):
    """Both defect polynomials, exactly, for the float coefficients a and q.

    N(s) = (1 + P(s))(P(b*s) - P(s)) - v*P(s) and (1 + x)**d (b*Q(x) -
    Q(f(x))) = b*Q*B**d - sum_j q_j x**j (b + x)**j B**(d-j), B = 1 + x.
    """
    a, _, q, _ = _constants(v)
    vm = mpmath.mpf(v)
    b = 1 + vm
    pa = [mpmath.mpf(c) for c in a]
    shifted = [c * (b ** k - 1) for k, c in enumerate(pa)]
    n = _mp_mul([1 + pa[0]] + pa[1:], shifted)
    n = [c - (vm * pa[k] if k <= D else 0) for k, c in enumerate(n)]
    pq = [mpmath.mpf(c) for c in q]
    one = [mpmath.mpf(1), mpmath.mpf(1)]
    power = [mpmath.mpf(1)]
    for _ in range(D):
        power = _mp_mul(power, one)
    s = [b * c for c in _mp_mul(pq, power)]
    for j in range(1, D + 1):
        term = [mpmath.mpf(0)] * j + [pq[j]]
        for _ in range(j):
            term = _mp_mul(term, [b, mpmath.mpf(1)])
        for _ in range(D - j):
            term = _mp_mul(term, one)
        s = [c - (term[k] if k < len(term) else 0) for k, c in enumerate(s)]
    return n, s


def _mp_constant(high, v, top):
    """The remainder constant of _remainder_constant without its rounding allowance."""
    b = 1 + mpmath.mpf(v)
    return sum(abs(h) * mpmath.mpf(top) ** j for j, h in enumerate(high)) / (b * (b ** D - 1))


@pytest.mark.parametrize("v", SEED_VS)
def test_seed_coefficients(v):
    b = 1.0 + v
    a, c_h, q, c_g = _constants(v)
    assert a[1] == 1.0 and q[1] == 1.0
    assert a[2] == pytest.approx(-1.0 / b, rel=1e-15)
    assert a[3] == pytest.approx((b + 2.0) / (b * b * (b + 1.0)), rel=1e-15)
    assert q[2] == pytest.approx(1.0 / b, rel=1e-15)
    # Q o P = id + O(w**(d+1)), in floats: the terms up to w**d cancel to
    # rounding, relative to the magnitudes that make them
    comp, size = np.zeros(D + 1), np.zeros(D + 1)
    power, mag = np.array([1.0]), np.array([1.0])
    for j in range(1, D + 1):
        power = np.convolve(power, a)[:D + 1]
        mag = np.convolve(mag, np.abs(a))[:D + 1]
        comp[:power.size] += q[j] * power
        size[:mag.size] += abs(q[j]) * mag
    assert comp[1] == 1.0
    assert np.all(np.abs(comp[2:]) <= 1e-12 * size[2:])
    with mpmath.workdps(50):
        # the float coefficients are the exact ones up to rounding
        exact_a, exact_q = _mp_taylor(v)
        for got, exact in ((a, exact_a), (q, exact_q)):
            scale = max(abs(c) for c in exact)
            assert all(abs(g - e) <= 1e-13 * scale for g, e in zip(got, exact))
        # the defects of the float coefficients vanish to order d: their low
        # coefficients are rounding
        n, s = _mp_defects(v)
        for poly in (n, s):
            scale = max(abs(c) for c in poly)
            assert all(abs(c) <= 1e-12 * scale for c in poly[1:D + 1])
        # each constant is the exact coefficient sum plus its rounding
        # allowance, which is at least _ROUNDING times the sum
        for got, high, top in ((c_h, n[D + 1:], _PROFILE_DOMAIN),
                               (c_g, s[D + 1:], 0.5 / (b * b))):
            exact = _mp_constant(high, v, top)
            assert exact * (1 + _ROUNDING / 2) <= got <= exact * (1 + 1e-9)


@pytest.mark.parametrize("v", SEED_VS)
def test_seed_brackets(v):
    # against H to 50 digits on (0, 4]: 0 <= x - H(x) <= x**2/b, G(u) >=
    # u + u**2/b, |H - P| <= c_H x**(d+1) on the seed domain x <= 1/4,
    # where P >= 0, and |G - Q| <= c_G G**(d+1) where G < 1/(2b).  P and Q
    # have the exact Taylor coefficients; the float ones differ by a
    # rounding of the seed's value (test_seed_coefficients)
    _, c_h, _, c_g = _constants(v)
    with mpmath.workdps(50):
        b = 1 + mpmath.mpf(v)
        pa, pq = _mp_taylor(v)
        worst_h = worst_g = 0
        for x, h in _exact_profile(v):
            assert 0 <= x - h <= x * x / b
            assert x >= h + h * h / b
            if x <= _PROFILE_DOMAIN:
                p = _mp_poly(pa, x)
                assert p >= 0
                worst_h = max(worst_h, abs(h - p) / (c_h * x ** (D + 1)))
            if x < 1 / (2 * b):
                worst_g = max(worst_g, abs(x - _mp_poly(pq, h)) / (c_g * x ** (D + 1)))
    # the brackets hold, and are within a factor 2 (H) and 20 (G) of sharp
    assert 0.5 < worst_h <= 1 and 0.05 < worst_g <= 1


@pytest.mark.parametrize("v", SEED_VS)
def test_profile_and_inverse_against_exact(v):
    # the certified results: H in [H, H + tol], G in [G - tol, G], and G(u)
    # >= u + u**2/b - tol, on the 50-digit grid of (0, 4]
    k = Kinetics(v=v, K=2.0)
    pairs = _exact_profile(v)
    x = np.array([float(p[0]) for p in pairs])
    h = np.array([float(p[1]) for p in pairs])
    out = limit_profile(x, k, Precision(tol=1e-10))
    assert np.all(out >= h - SLACK) and np.all(out <= h + 1e-10 + SLACK)
    g = inverse_profile(h, k, Precision(tol=1e-8))
    assert np.all(g <= x + 1e-11) and np.all(g >= x - 1e-8 - 1e-11)
    assert np.all(g >= h + h * h / k.b - 1e-8 - SLACK)


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
                         [(0.1, 53, 32), (0.5, 12, 8), (1.0, 7, 5)])
def test_certified_depths(v, depth, steps):
    # H(4) at tol 1e-10 takes depth steps (144, 33, 19 from the seeds of
    # degree 2, 272, 65, 39 from the identity), and G(H(4)) at tol 1e-8
    # takes steps steps (124, 29, 17; 224, 54, 32)
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
    # c*x**(d+1) and b**-n leave the float range here, their logs do not
    k = Kinetics(v=0.5, K=2.0)
    h = limit_profile(x, k)
    assert 0.0 < h < x and h == limit_profile(np.array([0.5, x]), k)[1]
    assert abs(limit_profile(k.b * x, k) - mean_map(h, k)) <= 1e-9
    if x == 1e100:
        assert round(h, 2) == 278.28
    # one step short of the certified depth: a finite bound above tol
    c = _constants(k.v)[1]
    n = _log_depth(math.log(2.0 * c) + (D + 1) * math.log(x), k.b ** D, 1e-10)
    with pytest.raises(PrecisionError) as err:
        limit_profile(x, k, Precision(tol=1e-10, max_iter=n - 1))
    assert math.isfinite(err.value.value)
    assert 1e-10 < err.value.bound <= 1e-10 * k.b ** D


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


@pytest.mark.parametrize("v", np.geomspace(1e-12, 1.0, 13))
def test_profile_seed_nonnegative_on_its_domain(v):
    # P(u) >= u*(1 - sum_{k>=2} |a_k| u**(k-1)) >= 0 for u <= 1/4, where
    # the telescoping lemma needs P >= 0, down to the smallest efficiencies
    a = _constants(v)[0]
    assert sum(abs(a[k]) * _PROFILE_DOMAIN ** (k - 1) for k in range(2, D + 1)) < 0.5


def test_inverse_first_tested_step_is_not_late():
    # y is so small that G(y) is y to a few parts in 1e3 and r_n barely
    # exceeds it, so y stops at the depth its own bound gives, past step 50
    # at tol 1e-60: testing from one step before that depth, as the skip
    # does, finds it, and a later start would not
    k = Kinetics(v=0.25, K=1000.0)
    prec = Precision(tol=1e-60)
    for y in (0.01, np.array([0.01, 0.02, 0.5])):
        g, bound, ok = _masked_inverse(y, k, prec)
        assert ok and _same_bits(inverse_profile(y, k, prec), g)
    c = _constants(k.v)[3]
    log_c = math.log(2.0 * c) + (D + 1) * math.log(0.01)
    n = _log_depth(log_c, k.b ** D, prec.tol)
    assert n > 50
    with pytest.raises(PrecisionError):
        inverse_profile(0.01, k, Precision(tol=1e-60, max_iter=n - 1))
    inverse_profile(0.01, k, Precision(tol=1e-60, max_iter=n + 1))


def test_profile_depth_reaches_the_seed_domain():
    # at tol 1 the tail bound alone would allow depth 2 for H(4) at v = 1;
    # the seed needs 4/b**n <= 1/4, depth 4, and short of it the bound is inf
    k = Kinetics(v=1.0, K=2.0)
    assert _same_bits(limit_profile(4.0, k, Precision(tol=1.0)),
                      _plain_profile(np.array(4.0), k, Precision(tol=1.0)))
    with pytest.raises(PrecisionError, match="needs 4 iterations") as err:
        limit_profile(4.0, k, Precision(tol=1.0, max_iter=3))
    assert err.value.bound == math.inf
    # the depth rule itself: the tail 4**9 * 2**(-8n) reaches 1 at n = 3,
    # the domain at n = 4, and the bound is inf short of the domain
    assert _tail_depth(1.0, 4.0, 2.0, 1.0, _PROFILE_DOMAIN, 3) == (4, 3, math.inf)
    assert _tail_depth(1.0, 4.0, 2.0, 1.0, _PROFILE_DOMAIN, 4) == (4, 4, pytest.approx(2.0 ** -14))

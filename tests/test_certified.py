"""Certified stopping of the conjugacy limits H, G and phi at the cap."""

import numpy as np
import pytest

from qpcrkin.kinetics import (
    INVERSE_PRECISION,
    Kinetics,
    Precision,
    PrecisionError,
    _certified_depth,
    _inverse_mean_map,
    inverse_profile,
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


@pytest.mark.parametrize("v", [0.25, 1.0])
def test_inverse_cap_equals_masked_loop(v):
    # the smallest values are certified before the cap, the largest not
    k = Kinetics(v=v, K=1000.0)
    prec = Precision(tol=1e-8, max_iter=30)
    g, bound, ok = _masked_inverse(MIXED, k, prec)
    assert not ok and (bound[:3] <= 1e-8).all() and (bound[-3:] > 1e-8).all()
    with pytest.raises(PrecisionError) as err:
        inverse_profile(MIXED, k, prec)
    assert _same_bits(err.value.value, g)
    assert _same_bits(err.value.bound, bound)
    lo, hi = err.value.bracket
    assert _same_bits(lo, g) and _same_bits(hi, g + bound)

"""Deterministic per-cycle kinetics and its scaling limit.

A PCR cycle replicates each molecule with probability v*K/(K + z), where z
is the current molecule count and K the Michaelis-Menten scale.  In density
units x = z/K the mean of one cycle is

    mean_map(x) = x + v*x/(1 + x)

and the whole deterministic theory of the reaction lives in the iterates of
that map: the saturation profile is the pointwise limit of n-fold iterates
applied to x/b**n with b = 1 + v, and its inverse G is the limit of b**n
times n-fold inverse iterates.  Both stop at a certified depth: after n
steps the tail is at most c * b**-n, with c = b*x**2 for the profile and
c = b*G**2 for G.  G learns its constant along the way, so each element
is tested at every step; a screen on the iterate reduces that test to one
comparison for the elements that cannot stop yet.  The transform in
qpcrkin.limit_law shares the rule, with b**3 in place of b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Kinetics",
    "Precision",
    "PrecisionError",
    "PROFILE_PRECISION",
    "INVERSE_PRECISION",
    "mean_map",
    "mean_map_deficit",
    "iterate_mean_map",
    "limit_profile",
    "inverse_profile",
    "limit_sequence",
]


@dataclass(frozen=True)
class Kinetics:
    """Reaction parameters: replication efficiency v and scale K.

    v is the per-molecule replication probability at vanishing density,
    0 < v <= 1.  K > 0 is the Michaelis-Menten constant of the enzymatic
    rate law; densities are molecule counts divided by K.
    """

    v: float
    K: float

    def __post_init__(self):
        if not 0.0 < self.v <= 1.0:
            raise ValueError(f"efficiency v must be in (0, 1], got {self.v}")
        if not self.K > 0.0:
            raise ValueError(f"scale K must be positive, got {self.K}")

    @property
    def b(self) -> float:
        """Per-cycle growth factor 1 + v of the low-density regime."""
        return 1.0 + self.v

    @classmethod
    def from_exponent(cls, v: float, m: int) -> "Kinetics":
        """Kinetics with K = (1+v)**m, so log_b(K) is the integer m."""
        return cls(v=v, K=(1.0 + v) ** m)


@dataclass(frozen=True)
class Precision:
    """Numerical stopping rule: absolute tolerance and iteration cap."""

    tol: float
    max_iter: int = 100_000

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


#: defaults quoted by the acceptance tolerances: profile to 1e-10, inverse to 1e-8
PROFILE_PRECISION = Precision(tol=1e-10)
INVERSE_PRECISION = Precision(tol=1e-8)


class PrecisionError(RuntimeError):
    """Requested tolerance not reachable within the iteration cap.

    Carries the value computed at the cap (``value``) together with its
    certified error bound (``bound``); the inverse profile also sets the
    ``bracket`` (value, value + bound) that holds the true inverse.
    """

    def __init__(self, message, value=None, bound=None, bracket=None):
        super().__init__(message)
        self.value = value
        self.bound = bound
        self.bracket = bracket


def _as_nonnegative_array(x, name):
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    if (arr < 0.0).any():
        raise ValueError(f"{name} must be nonnegative")
    return arr


def mean_map(x, kin: Kinetics):
    """One-cycle mean density map x + v*x/(1+x).  Accepts scalars or arrays."""
    arr = _as_nonnegative_array(x, "density")
    out = arr + kin.v * arr / (1.0 + arr)
    return float(out) if np.ndim(x) == 0 else out


def mean_map_deficit(x, kin: Kinetics):
    """Shortfall v*x**2/(1+x) of the mean map below linear growth b*x."""
    arr = _as_nonnegative_array(x, "density")
    out = kin.v * arr * arr / (1.0 + arr)
    return float(out) if np.ndim(x) == 0 else out


def iterate_mean_map(x, n: int, kin: Kinetics):
    """n-fold composition of the mean map, n >= 0."""
    if n < 0:
        raise ValueError("iteration count must be nonnegative")
    arr = _as_nonnegative_array(x, "density")
    v = kin.v
    for _ in range(n):
        arr = arr + v * arr / (1.0 + arr)
    return float(arr) if np.ndim(x) == 0 else arr


def _certified_depth(c: float, b: float, tol: float) -> int:
    """Smallest n >= 0 with c * b**-n <= tol.

    After n steps H, G and phi are within c * b**-n of their limits, for
    a c fixed by the argument (phi steps by b**3).  H and phi know c up
    front and raise PrecisionError past prec.max_iter; G learns c along
    the way and applies the same test to each open element at every step
    from the depth its smallest input allows.  It works with
    log(c) - log(tol), which stays finite where c/tol overflows; a c
    that overflowed to inf gives the depth inf, beyond every cap.
    """
    if c <= tol:
        return 0
    if c == math.inf:
        return math.inf
    return math.ceil((math.log(c) - math.log(tol)) / math.log(b))


def _inverse_mean_map(y, b: float):
    """Inverse of the mean map: the positive root of x**2 + (b-y)*x - y.

    With r = sqrt((b-y)**2 + 4y) it is 2y/((b-y) + r) for y <= b and
    ((y-b) + r)/2 above, so neither side cancels.  Where (b-y)**2
    overflows (y above about 1e154), r is y - b, and the high branch halves
    before it subtracts; both are exact otherwise.  Callers ignore overflow.
    """
    d = b - y
    r = np.sqrt(d * d + 4.0 * y)
    r = np.where(r < np.inf, r, -d)
    # each branch only on its own elements: where y is huge, d + r
    # rounds to 0 on the branch not taken
    low = d >= 0.0
    out = np.empty_like(r)
    np.divide(2.0 * y, d + r, out=out, where=low)
    np.subtract(0.5 * r, 0.5 * d, out=out, where=np.logical_not(low))
    return out


def limit_profile(x, kin: Kinetics, prec: Precision = PROFILE_PRECISION):
    """Saturation profile: limit of n-fold mean-map iterates of x/b**n.

    The returned value lies in [true value, true value + prec.tol]: the
    iterates fall monotonically and their tail after n steps is at most
    x**2 * b**(1-n), certified at the largest argument.  Scalars map to
    floats, arrays map elementwise.

    Raises PrecisionError when the certified depth exceeds prec.max_iter;
    the exception carries the best value and its tail bound.
    """
    arr = _as_nonnegative_array(x, "density")
    scalar = np.ndim(x) == 0
    if arr.size == 0:
        return arr.copy()
    xmax = float(arr.max())
    if xmax == 0.0:
        out = np.zeros_like(arr)
        return 0.0 if scalar else out

    v = kin.v
    b = 1.0 + v
    c = b * xmax * xmax
    n = _certified_depth(c, b, prec.tol)
    depth = min(n, prec.max_iter)
    # u + (v*u)/(1+u), in place on u and two scratch arrays
    u, w, t = np.empty_like(arr), np.empty_like(arr), np.empty_like(arr)
    np.multiply(arr, math.exp(-depth * math.log(b)), out=u)
    for _ in range(depth):
        np.add(u, 1.0, out=t)
        np.multiply(u, v, out=w)
        w /= t
        u += w
    if n > prec.max_iter:
        raise PrecisionError(
            f"profile needs {n} iterations for tol={prec.tol}, cap is {prec.max_iter}",
            value=float(u) if scalar else u,
            bound=c * b ** -depth,
        )
    return float(u) if scalar else u


def _stop_bound(u, e: float, scale: float):
    """Iterate g_n = scale*u of G and the bound e*r_n**2 it stops on.

    e = b**(1-n) and scale = b**n at step n; the bound is inf where
    q = 4*e*g_n >= 1 certifies nothing.  See inverse_profile.
    """
    gn = u * scale
    q = 4.0 * e * gn
    r = 2.0 * gn / (1.0 + np.sqrt(np.maximum(1.0 - q, 0.0)))
    return gn, np.where(q < 1.0, e * r * r, np.inf)


#: log of the largest float: b**n overflows past n = this / log(b)
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)

#: relative margin of the stop screen, far above the few ulps it must absorb
_SCREEN_MARGIN = 1e-6
#: the screen is off below this, where subnormal rounding could eat the margin
_SCREEN_TINY = 2.0 ** -1000


def _stop_screen(e: float, scale: float, tol: float) -> float:
    """Bound on the iterates u that can stop at a step of G; inf when off.

    At the step with e = b**(1-n) and scale = b**n, g = scale*u stops when
    its bound is at most tol (_stop_bound).  For q = 4*e*g < 1 the bound
    is r - g, r the smaller root of e*r**2 - r + g, so it is at most tol
    exactly when the parabola is at or below zero at g + tol, that is
    e*(g + tol)**2 <= tol or g <= sqrt(tol/e) - tol, as long as g + tol
    lies left of the vertex 1/(2*e); 32*e*tol < 1 ensures that.
    (r - g)/g rises with g, so an iterate above the threshold by the
    relative margin has a bound above tol by at least that margin.  The
    float bound and this threshold are off by a few ulps (about 1e-8
    where 1 - q cancels), so such an element cannot stop.  The screen is
    off when 32*e*tol >= 1 and where subnormal rounding could eat the
    margin.
    """
    if not 32.0 * e * tol < 1.0 or min(e, tol) < _SCREEN_TINY:
        return math.inf
    lim = (math.sqrt(tol) / math.sqrt(e) - tol) / scale * (1.0 + _SCREEN_MARGIN)
    return lim if lim >= _SCREEN_TINY else math.inf


def _inverse_map_below_b(u, b: float, d, t):
    """_inverse_mean_map of u <= b in place, on scratch arrays d and t.

    Only the 2y/((b-y) + r) branch, with the same float operations;
    2y is taken as (4y)/2, which is exact.
    """
    np.subtract(b, u, out=d)
    np.multiply(d, d, out=t)
    np.multiply(u, 4.0, out=u)
    np.add(t, u, out=t)
    np.sqrt(t, out=t)
    np.add(d, t, out=d)
    np.multiply(u, 0.5, out=u)
    np.divide(u, d, out=u)


# a G beyond the float range overflows g_n and its bound to inf, which
# certifies nothing and ends in PrecisionError at the cap
@np.errstate(over="ignore")
def inverse_profile(y, kin: Kinetics, prec: Precision = INVERSE_PRECISION):
    """Inverse G of the saturation profile, G(y) = lim b**n * f^{-n}(y).

    The iterates g_n = b**n * f^{-n}(y) rise to G, and x - H(x) <= b*x**2
    gives G - g_n <= e*G**2 with e = b**(1-n).  Once 4*e*g_n < 1 this
    certifies G <= r_n = 2*g_n / (1 + sqrt(1 - 4*e*g_n)), so the gap is
    at most r_n - g_n = e*r_n**2.  Each element is frozen at the first n
    where that bound is at most prec.tol: the result lies in
    [true value - prec.tol, true value], and batched and scalar calls
    agree bitwise.  Scalars map to floats, arrays map elementwise.

    Only open elements are iterated, in a window sorted by y.  A screen
    (_stop_screen) decides with one comparison per element which of them
    can stop at a step; only those go through the bound, so each stops
    with the same g_n and bound as if all were tested.  The map keeps the
    order, so stopped elements leave the window from the front; where
    rounding breaks the order, the window is compacted instead.  Once no
    open value exceeds b, the map runs in place.

    Raises PrecisionError when an element needs more than prec.max_iter
    steps, or more than the depth where b**n leaves the float range,
    with the iterates, their bounds and the bracket of G.
    """
    arr = _as_nonnegative_array(y, "profile value")
    scalar = np.ndim(y) == 0
    b, tol = kin.b, prec.tol
    # b**n must stay a finite float, so that depth caps the loop as well
    cap = min(prec.max_iter, math.floor(_LOG_FLOAT_MAX / math.log(b)) - 1)
    g = np.zeros(arr.size)
    bound = np.full(arr.size, np.inf)
    if not arr.size:
        return g.reshape(arr.shape)
    flat = arr.ravel()
    # the window u holds the open elements sorted by y, from positions open_
    open_ = np.argsort(flat, kind="stable")
    u = flat[open_]
    d, t = np.empty(u.size), np.empty(u.size)
    in_place = False
    # g_n >= y puts every bound at or above b**(1-n) * y**2, so no element
    # can be certified before the depth of the smallest positive y; zeros
    # stay zero under the map.  Testing starts one step early, a margin
    # against rounding.
    y_min = u.min(initial=np.inf, where=u > 0.0)
    first = 0
    if y_min < np.inf:
        first = min(_certified_depth(b * y_min * y_min, b, tol) - 1, cap)
    for n in range(cap + 1):
        if n:
            in_place = in_place or u.max() <= b
            if in_place:
                _inverse_map_below_b(u, b, d[:u.size], t[:u.size])
            else:
                u = _inverse_mean_map(u, b)
        if n < first:
            continue
        e = b ** (1 - n)
        scale = b ** n
        lim = _stop_screen(e, scale, tol) if n < cap else math.inf
        k = u.size
        if lim < math.inf:
            if u.min() > lim:
                continue
            # the bound runs up to the last element the screen lets through
            k -= (u[::-1] <= lim).argmax()
        gn, bn = _stop_bound(u[:k], e, scale)
        stop = bn <= tol
        if n == cap:
            g[open_], bound[open_] = gn, bn
            if stop.all():
                break
            g, bound = g.reshape(arr.shape), bound.reshape(arr.shape)
            raise PrecisionError(
                f"inverse not certified to tol={tol} within {cap} steps",
                value=float(g) if scalar else g,
                bound=float(bound) if scalar else bound,
                bracket=(g, g + bound),
            )
        j = np.count_nonzero(stop)
        if not j:
            continue
        # stopped elements leave from the front, unless rounding broke the order
        at = slice(j) if stop[:j].all() else np.flatnonzero(stop)
        g[open_[at]], bound[open_[at]] = gn[at], bn[at]
        if isinstance(at, slice):
            open_, u = open_[j:], u[j:]
        else:
            open_, u = np.delete(open_, at), np.delete(u, at)
        if not u.size:
            break
    g = g.reshape(arr.shape)
    return float(g) if scalar else g


@np.errstate(over="ignore")  # in _inverse_mean_map, which stays finite
def limit_sequence(x0: float, kin: Kinetics, n_lo: int, n_hi: int) -> np.ndarray:
    """Two-sided deterministic density sequence through x0 at index 0.

    Entry n is f^n(x0) for the mean map f: nonnegative indices iterate f
    forward from x0 and negative indices iterate its explicit inverse
    backward, so no limit is involved.  Returned in index order
    n_lo..n_hi inclusive.
    """
    if n_lo > n_hi:
        raise ValueError("n_lo must not exceed n_hi")
    if not x0 > 0.0:
        raise ValueError("x0 must be positive")

    b = 1.0 + kin.v
    out = np.empty(n_hi - n_lo + 1, dtype=float)

    x = float(x0)
    for n in range(-1, n_lo - 1, -1):
        x = float(_inverse_mean_map(x, b))
        if n <= n_hi:
            out[n - n_lo] = x

    if n_hi >= 0:
        x = float(x0)
        start = max(n_lo, 0)
        for _ in range(start):
            x = x + kin.v * x / (1.0 + x)
        for n in range(start, n_hi + 1):
            out[n - n_lo] = x
            x = x + kin.v * x / (1.0 + x)
    return out

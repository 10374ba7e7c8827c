"""Deterministic per-cycle kinetics and its scaling limit.

A PCR cycle replicates each molecule with probability v*K/(K + z), where z
is the current molecule count and K the Michaelis-Menten scale.  In density
units x = z/K the mean of one cycle is

    mean_map(x) = x + v*x/(1 + x)

and the whole deterministic theory of the reaction lives in the iterates of
that map: the saturation profile H is the pointwise limit of n-fold iterates
applied to x/b**n with b = 1 + v, and its inverse G is the limit of b**n
times n-fold inverse iterates.  Both start from their Taylor polynomials,
to third order for H and to second order for G, with c3 = (b+2)/(b**2
(b+1)) the cubic coefficient of H, and stop at a certified depth: after n
steps the tail is at most c * b**(-2n), with c = c3*x**3 for H and
c = (c3 + 2/b**2)*G**3 for G.  G learns its constant along the way, so
each element is tested at every step; a screen on the iterate reduces
that test to two comparisons for all but the elements within a relative
1e-6 of the threshold.  The transform in qpcrkin.limit_law shares the
rule, with b**3 in place of b**2.
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
    a c fixed by the argument and a base b that is the growth factor
    squared for H and G and cubed for phi.  H and phi know c up front and
    raise PrecisionError past prec.max_iter; G learns c along the way
    and applies the same test to each open element at every step from
    the depth its smallest input allows.  A c that overflowed to inf
    gives the depth inf, beyond every cap; H and G, whose c overflows
    long before their argument does, pass log(c) to _log_depth instead.
    """
    return 0 if c <= tol else _log_depth(math.log(c), b, tol)


def _log_depth(log_c: float, b: float, tol: float) -> int:
    """_certified_depth from log_c = log(c).

    It works with log(c) - log(tol), which stays finite where c or c/tol
    overflow; log_c = inf gives the depth inf.
    """
    gap = log_c - math.log(tol)
    if gap <= 0.0:
        return 0
    if gap == math.inf:
        return math.inf
    return math.ceil(gap / math.log(b))


def _cubic_coefficient(b: float) -> float:
    """c3 = (b+2)/(b**2 (b+1)), the coefficient of x**3 in H's Taylor series.

    H(x) = x - x**2/b + c3*x**3 + ..., from H(b*x) = f(H(x)).  With y = x/b,
    x - H(x) = b*(y - H(y)) + v*H(y)**2/(1 + H(y)) telescopes to
    0 <= x - H(x) <= x**2/b, and D(x) = H(x) - x + x**2/b =
    b*D(y) + v*(y**2 - H(y)**2/(1 + H(y))) to 0 <= D(x) <= c3*x**3, for
    every x >= 0.
    """
    return (b + 2.0) / (b * b * (b + 1.0))


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

    The iterates start from the upper seed P(u) = u - u**2/b + c3*u**3 at
    u = x/b**n, H's Taylor polynomial of order 3 (_cubic_coefficient):
    H(u) <= P(u) <= H(u) + c3*u**3, and the mean map is increasing with
    slope in [1, b], so after n steps the result lies in [H(x), H(x) +
    c3*x**3*b**(-2n)].  n is the certified depth of that tail at the
    largest argument, so the returned value lies in [true value, true
    value + prec.tol].  The depth and the start are taken in logs,
    log(c3) + 3*log(x) and exp(log(x) - n*log(b)), which stay finite for
    every float x.  Scalars map to floats, arrays map elementwise.

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
    c3 = _cubic_coefficient(b)
    log_c = math.log(c3) + 3.0 * math.log(xmax)
    n = _log_depth(log_c, b * b, prec.tol)
    depth = min(n, prec.max_iter)
    # u = exp(log(x) - depth*log(b)), zeros to zero, then P(u) by Horner as
    # u*(1 + u*(c3*u - 1/b)); the loop is u + (v*u)/(1+u), all in place on
    # u and two scratch arrays
    u, w, t = np.empty_like(arr), np.empty_like(arr), np.empty_like(arr)
    with np.errstate(divide="ignore"):
        np.log(arr, out=u)
    u -= depth * math.log(b)
    np.exp(u, out=u)
    np.multiply(u, c3, out=t)
    t -= 1.0 / b
    t *= u
    t += 1.0
    u *= t
    for _ in range(depth):
        np.add(u, 1.0, out=t)
        np.multiply(u, v, out=w)
        w /= t
        u += w
    if n > prec.max_iter:
        log_bound = log_c - depth * math.log(b * b)
        raise PrecisionError(
            f"profile needs {n} iterations for tol={prec.tol}, cap is {prec.max_iter}",
            value=float(u) if scalar else u,
            bound=math.exp(log_bound) if log_bound < _LOG_FLOAT_MAX else math.inf,
        )
    return float(u) if scalar else u


def _stop_bound(u, scale, b: float, c3: float, kc: float):
    """Lower seed of G at one step and the bound it stops on.

    At step n, u = f^{-n}(y) and scale = b**n; the iterate is g_n =
    scale*u, and where q = 4*b*u < 1, r_n = scale*s with s = 2*u/(1 +
    sqrt(1 - q)) bounds G from above.  The seed g_n + g_n*u/b -
    c3*r_n**3*b**(-2n) lies below G and within kc*r_n**3*b**(-2n) of it,
    kc = c3 + 2/b**2; r_n**3*b**(-2n) is formed as s*r_n*s, which stays
    in the float range.  Where q >= 1 nothing is certified: the value is
    g_n and the bound inf.  scale may be one float or one per element.
    See inverse_profile.
    """
    q = 4.0 * b * u
    ok = q < 1.0
    s = np.where(ok, (u + u) / (1.0 + np.sqrt(np.maximum(1.0 - q, 0.0))), 0.0)
    cube = s * (s * scale) * s
    gn = u * scale
    value = np.where(ok, gn + gn * u / b - c3 * cube, gn)
    return value, np.where(ok, kc * cube, np.inf)


#: log of the largest float: b**n overflows past n = this / log(b)
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)

#: relative margin of the stop screen, far above the few ulps it must absorb
_SCREEN_MARGIN = 1e-6
#: the screen is off below this, where subnormal rounding could eat the margin
_SCREEN_TINY = 2.0 ** -1000
#: elements per pass of G's closing seed evaluation, which bounds its arrays
_SEED_BLOCK = 4096


def _stop_screen(scale: float, b: float, tol: float, kc: float) -> tuple:
    """Bounds (lim, sure) on the iterates u of a step of G; (inf, -inf) when off.

    At the step with scale = b**n and e = b/scale, g = scale*u stops when
    its bound kc*r**3*b**(-2n) is at most tol (_stop_bound), that is when
    r <= rho = (tol*b**(2n)/kc)**(1/3).  For q = 4*e*g < 1, r is the
    smaller root of e*r**2 - r + g, and g = r - e*r**2 rises with r left
    of the vertex 1/(2*e), so r <= rho exactly when g <= rho - e*rho**2,
    as long as rho lies left of the vertex; 4*e*rho < 1 ensures that, and
    keeps 1 - q above 1/4 at the threshold, so the root does not cancel.
    r/g rises with g, so an iterate off the threshold by the relative
    margin has r off rho by at least that margin, and a bound off tol by
    three times it.  The float bound and this threshold are off by a few
    ulps, so an iterate above lim, the threshold widened by the margin,
    cannot stop, and one at or below sure, the threshold narrowed by it,
    stops.  Only those in between need the bound.  The screen is off when
    4*e*rho >= 1 and where subnormal rounding could eat the margin.
    """
    off = math.inf, -math.inf
    e = b / scale
    if min(e, tol) < _SCREEN_TINY:
        return off
    rho = (tol / kc) ** (1.0 / 3.0) * scale ** (2.0 / 3.0)
    if not 4.0 * e * rho < 1.0:
        return off
    edge = rho * (1.0 - e * rho) / scale
    sure = edge * (1.0 - _SCREEN_MARGIN)
    return (edge * (1.0 + _SCREEN_MARGIN), sure) if sure >= _SCREEN_TINY else off


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

    The iterates g_n = b**n * f^{-n}(y) rise to G, and x - H(x) <= x**2/b
    gives G - g_n <= e*G**2 with e = b**(1-n), a factor b**2 to spare, so
    once q = 4*e*g_n < 1, G <= r_n = 2*g_n / (1 + sqrt(1 - q)).  With
    w = G(u) and u = H(w), G(u) - u - u**2/b = (w - u)*(w + u)/b - D(w)
    lies in [-c3*w**3, 2*w**3/b**2] (_cubic_coefficient), so at
    u = f^{-n}(y) the lower seed g_n + g_n**2*b**(-n-1) - c3*r_n**3*b**(-2n)
    lies below G and within (c3 + 2/b**2)*r_n**3*b**(-2n) of it
    (_stop_bound).  Each element is frozen at the first n where that
    bound is at most prec.tol: the result lies in [true value - prec.tol,
    true value], and batched and scalar calls agree bitwise.  Scalars map
    to floats, arrays map elementwise.

    Only open elements are iterated, in a window sorted by y.  A screen
    (_stop_screen) decides with one comparison per element which of them
    can stop at a step, and with a second which of them surely stop; only
    the few in between go through the bound, so each stops at the same
    step as if all were tested.  The map keeps the order, so stopped
    elements leave the window from the front; where rounding breaks the
    order, the window is compacted instead.  Once no open value exceeds
    b, the map runs in place.  Seeds and bounds are formed in one pass at
    the end, from the iterate and the step at which each element stopped.

    Raises PrecisionError when an element needs more than prec.max_iter
    steps, or more than the depth where b**n leaves the float range,
    with the seeds, their bounds and the bracket of G.
    """
    arr = _as_nonnegative_array(y, "profile value")
    scalar = np.ndim(y) == 0
    b, tol = kin.b, prec.tol
    c3 = _cubic_coefficient(b)
    kc = c3 + 2.0 / (b * b)
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
    # r_n >= g_n >= y puts every bound at or above kc * y**3 * b**(-2n), so
    # no element can be certified before the depth of the smallest positive
    # y; zeros stay zero under the map.  Testing starts one step early, a
    # margin against rounding.
    y_min = u.min(initial=np.inf, where=u > 0.0)
    first = 0
    if y_min < np.inf:
        log_c = math.log(kc) + 3.0 * math.log(y_min)
        first = min(_log_depth(log_c, b * b, tol) - 1, cap)
    # until the end, g and bound hold each element's iterate and scale at
    # the step it stopped
    for n in range(cap + 1):
        if n:
            in_place = in_place or u.max() <= b
            if in_place:
                _inverse_map_below_b(u, b, d[:u.size], t[:u.size])
            else:
                u = _inverse_mean_map(u, b)
        if n < first:
            continue
        scale = b ** n
        if n == cap:
            g[open_], bound[open_] = u, scale
            break
        lim, sure = _stop_screen(scale, b, tol, kc)
        if u.min() > lim:
            continue
        # the bound runs on the elements up to the last one the screen lets
        # through that are not sure to stop
        k = u.size - (u[::-1] <= lim).argmax()
        stop = u[:k] <= sure
        if not stop.all():
            edge = np.flatnonzero(~stop)
            stop[edge] = _stop_bound(u[edge], scale, b, c3, kc)[1] <= tol
        j = np.count_nonzero(stop)
        if not j:
            continue
        # stopped elements leave from the front, unless rounding broke the order
        at = slice(j) if stop[:j].all() else np.flatnonzero(stop)
        g[open_[at]], bound[open_[at]] = u[at], scale
        if isinstance(at, slice):
            open_, u = open_[j:], u[j:]
        else:
            open_, u = np.delete(open_, at), np.delete(u, at)
        if not u.size:
            break
    for lo in range(0, g.size, _SEED_BLOCK):
        part = slice(lo, lo + _SEED_BLOCK)
        g[part], bound[part] = _stop_bound(g[part], bound[part], b, c3, kc)
    g, bound = g.reshape(arr.shape), bound.reshape(arr.shape)
    if not (bound <= tol).all():
        raise PrecisionError(
            f"inverse not certified to tol={tol} within {cap} steps",
            value=float(g) if scalar else g,
            bound=float(bound) if scalar else bound,
            bracket=(g, g + bound),
        )
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

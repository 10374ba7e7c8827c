"""Deterministic per-cycle kinetics and its scaling limit.

A PCR cycle replicates each molecule with probability v*K/(K + z), where z
is the current molecule count and K the Michaelis-Menten scale.  In density
units x = z/K the mean of one cycle is

    mean_map(x) = x + v*x/(1 + x)

and the whole deterministic theory of the reaction lives in the iterates of
that map: the saturation profile H is the pointwise limit of n-fold iterates
applied to x/b**n with b = 1 + v, and its inverse G is the limit of b**n
times n-fold inverse iterates.  Both start from their Taylor polynomials of
degree d = _SEED_ORDER, with coefficients computed per call from the
functional equations, and stop at a certified depth: after n steps the tail
is at most c * b**(-d*n), with c proportional to x**(d+1) for H and to
G**(d+1) for G.  One telescoping lemma bounds both remainders
(_remainder_constant).  G learns its constant along the way, so each
element is tested at every step; a screen on the iterate reduces that test
to one comparison for all but the elements within a relative 1e-6 of the
threshold.  The transform in qpcrkin.limit_law shares the rule: the same
order, the same coefficient recursion (_seed_coefficients) and the same
depth (_tail_depth).
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
    "iterate_mean_map",
    "limit_profile",
    "inverse_profile",
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
        try:
            scale = (1.0 + v) ** m
        except OverflowError:
            raise ValueError(
                f"K = (1+v)**m overflows a float at v={v}, m={m}") from None
        return cls(v=v, K=scale)


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


def iterate_mean_map(x, n: int, kin: Kinetics):
    """n-fold composition of the mean map, n >= 0."""
    if n < 0:
        raise ValueError("iteration count must be nonnegative")
    arr = _as_nonnegative_array(x, "density")
    v = kin.v
    for _ in range(n):
        arr = arr + v * arr / (1.0 + arr)
    return float(arr) if np.ndim(x) == 0 else arr


def _log_depth(log_c: float, b: float, tol: float) -> int:
    """Smallest n >= 0 with c * b**-n <= tol, from log_c = log(c).

    It works with log(c) - log(tol), which stays finite where c or c/tol
    overflow; log_c = inf gives the depth inf, beyond every cap.
    """
    gap = log_c - math.log(tol)
    if gap <= 0.0:
        return 0
    if gap == math.inf:
        return math.inf
    return math.ceil(gap / math.log(b))


def _tail_depth(c: float, x: float, b: float, tol: float, domain: float,
                cap=math.inf) -> tuple:
    """Certified depth of H and psi at x, the depth run under cap, and its tail.

    A seed within c*u**(d+1) of its limit at u = x/b**n, iterated n times
    by a map of slope at most b, is within c*x**(d+1)*b**(-d*n) of the
    limit at x.  Returns (n, depth, bound): n the smallest depth with that
    at most tol and with u at most domain, depth = min(n, cap), and that
    tail at depth; the bound is inf past the float range and where depth
    leaves u above domain, where the seed's bound does not hold.  All is
    taken in logs, so every finite x gets a depth.
    """
    d = _SEED_ORDER
    log_x = math.log(x) if x else -math.inf
    log_t = math.log(c) + (d + 1) * log_x
    floor = _log_depth(log_x, b, domain)
    n = max(_log_depth(log_t, b ** d, tol), floor)
    depth = min(n, cap)
    log_t = log_t - depth * math.log(b ** d) if depth >= floor else math.inf
    return n, depth, math.exp(log_t) if log_t < _LOG_FLOAT_MAX else math.inf


#: H, G and psi start from their Taylor polynomials of this degree d, so
#: their tails fall by b**d per step of depth
_SEED_ORDER = 8
#: rounding allowance on each computed defect coefficient, relative to the
#: magnitudes of the terms that make it; the coefficients that are exactly
#: 0 come out within about 1e-16 of them
_ROUNDING = 2.0 ** -44
#: H starts where x/b**n is at most this, where its Taylor polynomial is
#: nonnegative
_PROFILE_DOMAIN = 0.25


def _growth_gaps(v: float) -> list:
    """b**m - 1 for m = 0..d, with b = 1 + v, without the cancellation of small v."""
    log_b = math.log1p(v)
    return [math.expm1(m * log_b) for m in range(_SEED_ORDER + 1)]


def _remainder_constant(b: float, gap: float, high, size, top: float) -> float:
    """Constant c with |limit - seed| <= c * w**(d+1), from the seed's defect.

    Lemma.  If E = limit - seed obeys |E(y)| <= b*|E(phi(y))| +
    |R(phi(y))|, with |R(x)| <= sigma * x**(d+1) and phi**k(y) <= w/b**k
    for k >= 1, and b**k * E(phi**k(y)) -> 0, then summing b**(k-1) *
    sigma * (w/b**k)**(d+1) over k >= 1 gives |E(y)| <= sigma * w**(d+1) /
    (b (b**d - 1)).  For H: phi(x) = x/b, w = x, and R(s) = f(P(s)) -
    P(b*s) = -N(s)/(1 + P(s)); the inequality holds where P >= 0, since f
    has slope in [1, b] on [0, inf).  For G: phi is the inverse mean map,
    w = G(y), as G(phi(y)) = G(y)/b and G(x) >= x, and R(x) = b*Q(x) -
    Q(f(x)), a polynomial over (1 + x)**d, with E(y) = b*E(phi(y)) +
    R(phi(y)) exactly.  Both defect polynomials vanish to order d, and
    sigma bounds their quotient by x**(d+1) for 0 <= x <= top: high[j] is
    its coefficient of x**j, size[j] the sum of the magnitudes of the
    terms that make it, and each coefficient enters in magnitude plus the
    rounding allowance _ROUNDING * size[j].  gap is b**d - 1.  The bound
    is for the exact Taylor polynomials: their float coefficients shift a
    seed by about 1e-16 of its value, a rounding that, like the seed's and
    the loop's own, stays outside the certified bound.
    """
    sigma = sum((abs(h) + _ROUNDING * m) * top ** j
                for j, (h, m) in enumerate(zip(high, size)))
    return sigma / (b * gap)


def _seed_coefficients(b: float, e: list, g: list) -> tuple:
    """Taylor coefficients c_0..c_d of H or of M - 1, and their sums past d.

    H(b*x) = f(H(x)) reads (1 + H)(H(b*.) - H) = v*H, and M(y) = E exp(y*W)
    solves M(b*y) = (1-v)*M + v*M**2.  Matching the terms in x**k gives,
    from c_1 = 1, c_k (b**k - b) = sum_{j=1}^{k-1} c_j c_{k-j} g_{k-j},
    with g_i = -(b**i - 1) for H and g_i = v for M, where c_k = m_k/k!
    for the moments m_k of W.  e[k] = b**k - 1 (_growth_gaps).  Returns
    (c, high, size): high[i] is the same sum for k = d+1+i over j = k-d..d,
    and size[i] the sum of its terms' magnitudes.  For H these are the
    coefficients of N(s) = (1 + P(s))(P(b*s) - P(s)) - v*P(s) past degree
    d, up to sign; for M, high[0] / (b*e[d]) is c_{d+1}.
    """
    d = _SEED_ORDER
    c, cg = [0.0, 1.0], [0.0, g[1]]  # cg[k] = c_k g_k
    for k in range(2, d + 1):
        s = 0.0
        for j in range(1, k):
            s += c[j] * cg[k - j]
        c.append(s / (b * e[k - 1]))
        cg.append(c[k] * g[k])
    high, size = [], []
    for k in range(d + 1, 2 * d + 1):
        s = m = 0.0
        for j in range(k - d, d + 1):
            t = c[j] * cg[k - j]
            s += t
            m += abs(t)
        high.append(s)
        size.append(m)
    return c, high, size


def _profile_coefficients(v: float) -> tuple:
    """H's Taylor polynomial P of degree d and its remainder constant.

    Returns (a, c): a[k] = a_k for k = 0..d (_seed_coefficients), and c
    with |H(u) - P(u)| <= c*u**(d+1) for 0 <= u <= _PROFILE_DOMAIN, where
    P >= 0 (_remainder_constant).
    """
    e = _growth_gaps(v)
    a, high, size = _seed_coefficients(1.0 + v, e, [-x for x in e])
    return a, _remainder_constant(1.0 + v, e[_SEED_ORDER], high, size, _PROFILE_DOMAIN)


def _defect_weights() -> np.ndarray:
    """Integer weights W[j, i, k] of G's defect polynomial in q_j and v**i.

    With B = 1 + x, b = 1 + v and (b + x)**j = sum_i C(j, i) v**i
    B**(j-i), (1 + x)**d (b*Q(x) - Q(f(x))) = sum_j q_j x**j (b*B**d -
    (b + x)**j B**(d-j)) = sum_j q_j x**j (v*B**d - sum_{i=1}^j C(j, i)
    v**i B**(d-i)): every term carries a power of v, so nothing cancels
    for small v.  W[j, i, k] is the coefficient of q_j v**i x**k.
    """
    d = _SEED_ORDER
    w = np.zeros((d + 1, d + 1, 2 * d + 1))
    for j in range(1, d + 1):
        for m in range(d + 1):
            w[j, 1, j + m] += math.comb(d, m)
            for i in range(1, j + 1):
                w[j, i, j + m] -= math.comb(j, i) * math.comb(d - i, m)
    return w


#: _defect_weights, a constant of the seed degree; the magnitudes of its
#: terms of degree above d; and the powers 0..d
_DEFECT_WEIGHTS = _defect_weights()
_DEFECT_SIZES = np.abs(_DEFECT_WEIGHTS[:, :, _SEED_ORDER + 1:])
_DEGREES = np.arange(_SEED_ORDER + 1.0)


def _inverse_coefficients(v: float) -> tuple:
    """G's Taylor polynomial Q of degree d and its remainder constant.

    G(f(y)) = b*G(y) for f(y) = y*(b + y)/(1 + y).  Times (1 + x)**d,
    b*Q(x) - Q(f(x)) is the polynomial sum_j q_j (sum_i v**i W[j, i, :])
    (_defect_weights); its coefficient of x**k is q_k (b - b**k) plus
    terms in q_1..q_{k-1}, so setting it to 0 for k = 2..d gives q_k
    from q_1 = 1, with q_2 = 1/b.  Returns (q, c): q[k] = q_k for k =
    0..d, and c with |G(y) - Q(y)| <= c*G(y)**(d+1) wherever G(y) <
    1/(2b) (_remainder_constant on [0, 1/(2b**2)]).
    """
    d = _SEED_ORDER
    b = 1.0 + v
    e = _growth_gaps(v)
    powers = v ** _DEGREES
    rows = np.matmul(powers, _DEFECT_WEIGHTS)
    table = rows.tolist()
    q = [0.0, 1.0]
    for k in range(2, d + 1):
        s = 0.0
        for j in range(1, k):
            s += q[j] * table[j][k]
        q.append(s / (b * e[k - 1]))
    coef = np.array(q)
    high = (coef @ rows[:, d + 1:]).tolist()
    size = (np.abs(coef) @ np.matmul(powers, _DEFECT_SIZES)).tolist()
    return q, _remainder_constant(b, e[d], high, size, 0.5 / (b * b))


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

    The iterates start from the upper seed P(u) + c*u**(d+1) at u =
    x/b**n, where P is H's Taylor polynomial of degree d = _SEED_ORDER
    (_profile_coefficients) and |H - P| <= c*u**(d+1) while u is at most
    _PROFILE_DOMAIN, where P >= 0 (_remainder_constant).  The seed lies in
    [H(u), H(u) + 2c*u**(d+1)], and the mean map is increasing with slope
    in [1, b], so after n steps the result lies in [H(x), H(x) +
    2c*x**(d+1)*b**(-d*n)].  n is the certified depth of that tail at the
    largest argument, and at least the depth that brings it into the
    domain (_tail_depth), so the returned value lies in [true value, true
    value + prec.tol].  The depth and the start are taken in logs, log(2c)
    + (d+1)*log(x) and exp(log(x) - n*log(b)), which stay finite for every
    float x.  Scalars map to floats, arrays map elementwise.

    Raises PrecisionError when the certified depth exceeds prec.max_iter;
    the exception carries the best value and its tail bound, inf short of
    the domain.
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
    d = _SEED_ORDER
    a, c = _profile_coefficients(v)
    n, depth, bound = _tail_depth(2.0 * c, xmax, b, prec.tol, _PROFILE_DOMAIN, prec.max_iter)
    # u = exp(log(x) - depth*log(b)), zeros to zero, then the seed by Horner
    # as u*(1 + u*(a_2 + ... + u*(a_d + u*c))); the loop is u + (v*u)/(1+u),
    # all in place on u and two scratch arrays
    u, w, t = np.empty_like(arr), np.empty_like(arr), np.empty_like(arr)
    with np.errstate(divide="ignore"):
        np.log(arr, out=u)
    u -= depth * math.log(b)
    np.exp(u, out=u)
    np.multiply(u, c, out=t)
    for k in range(d, 1, -1):
        t += a[k]
        t *= u
    t += 1.0
    u *= t
    for _ in range(depth):
        np.add(u, 1.0, out=t)
        np.multiply(u, v, out=w)
        w /= t
        u += w
    if n > prec.max_iter:
        raise PrecisionError(
            f"profile needs {n} iterations for tol={prec.tol}, cap is {prec.max_iter}",
            value=float(u) if scalar else u, bound=bound,
        )
    return float(u) if scalar else u


def _stop_bound(u, scale, b: float, q: list, c: float):
    """Lower seed of G at one step and the bound it stops on.

    At step n, u = f^{-n}(y) and scale = b**n; the iterate is g_n =
    scale*u, and where t = 4*b*u < 1, r_n = scale*s with s = 2*u/(1 +
    sqrt(1 - t)) bounds G from above, and G(u) <= s < 1/(2b).  With Q
    G's Taylor polynomial (_inverse_coefficients) and |G - Q| <=
    c*G**(d+1) (_remainder_constant), G(y) = scale*G(u) lies within
    c*r_n**(d+1)*b**(-d*n) of scale*Q(u): the seed is scale*Q(u) minus
    that, and the bound twice that.  r_n**(d+1)*b**(-d*n) is formed as
    r_n*s*...*s, d factors s, which stays in the float range.  Where t >=
    1 nothing is certified: the value is g_n and the bound inf.  scale
    may be one float or one per element.  See inverse_profile.
    """
    t = 4.0 * b * u
    ok = t < 1.0
    s = np.where(ok, (u + u) / (1.0 + np.sqrt(np.maximum(1.0 - t, 0.0))), 0.0)
    tail = s * scale
    for _ in range(_SEED_ORDER):
        tail *= s
    tail *= c
    # Q(u)/u by Horner, as 1 + u*(q_2 + ... + u*q_d)
    poly = u * q[_SEED_ORDER]
    for k in range(_SEED_ORDER - 1, 1, -1):
        poly += q[k]
        poly *= u
    poly += 1.0
    gn = u * scale
    return np.where(ok, gn * poly - tail, gn), np.where(ok, tail + tail, np.inf)


#: log of the largest float: b**n overflows past n = this / log(b)
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)

#: relative margin of the stop screen, far above the few ulps it must absorb
_SCREEN_MARGIN = 1e-6
#: the screen is off below this, where subnormal rounding could eat the margin
_SCREEN_TINY = 2.0 ** -1000
#: largest 4*b*s at the screen's threshold; past it lim is the vertex 1/(4b)
_SCREEN_VERTEX = 1.99
#: elements per pass of G's closing seed evaluation, which bounds its arrays
_SEED_BLOCK = 4096


def _stop_screen(scale: float, b: float, tol: float, c: float) -> tuple:
    """Bounds (lim, sure) on the iterates u of a step of G; (inf, -inf) when off.

    At the step with scale = b**n, u stops when its bound
    2c*scale*s**(d+1) is at most tol (_stop_bound), that is when s <=
    s_top = (tol/(2c*scale))**(1/(d+1)).  For t = 4*b*u < 1, s is the
    smaller root of b*s**2 - s + u, and u = s - b*s**2 rises with s left
    of the vertex 1/(2b), where t = 1, so s <= s_top exactly when u <=
    s_top - b*s_top**2; with z = 4*b*s_top that threshold is z*(1 -
    z/4)/(4b), and 1 - t there is (1 - z/2)**2.  s/u rises with u, so an
    iterate off the threshold by the relative margin has s off s_top by
    at least that margin, and a bound off tol by d+1 times it.  While z <
    _SCREEN_VERTEX, sqrt(1 - t) stays above 0.005 at the threshold, so
    the root loses at most a few hundred ulps to cancellation, and the
    float bound and the threshold are off by far less than the margin: an
    iterate above lim, the threshold widened by the margin, cannot stop,
    and one at or below sure, the threshold narrowed by it, stops.  Only
    those in between need the bound.  From z = _SCREEN_VERTEX on, sure
    stays at that threshold and lim moves to 1/(4b), past which t >= 1
    and nothing stops.  The screen is off where subnormal rounding could
    eat the margin.
    """
    off = math.inf, -math.inf
    if min(b / scale, tol) < _SCREEN_TINY:
        return off
    d = _SEED_ORDER
    z = min(4.0 * b * (tol / (2.0 * c * scale)) ** (1.0 / (d + 1)), _SCREEN_VERTEX)
    edge = z * (1.0 - 0.25 * z) / (4.0 * b)
    sure = edge * (1.0 - _SCREEN_MARGIN)
    lim = (edge if z < _SCREEN_VERTEX else 0.25 / b) * (1.0 + _SCREEN_MARGIN)
    return (lim, sure) if sure >= _SCREEN_TINY else off


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
    once t = 4*e*g_n < 1, G <= r_n = 2*g_n / (1 + sqrt(1 - t)).  G's
    Taylor polynomial Q of degree d = _SEED_ORDER (_inverse_coefficients)
    errs by at most c*G**(d+1) there (_remainder_constant), so at u =
    f^{-n}(y) the lower seed b**n*Q(u) - c*r_n**(d+1)*b**(-d*n) lies below
    G and within 2c*r_n**(d+1)*b**(-d*n) of it (_stop_bound).  Each
    element is frozen at the first n where that bound is at most
    prec.tol: the result lies in [true value - prec.tol, true value], and
    batched and scalar calls agree bitwise.  Scalars map to floats, arrays
    map elementwise.

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
    q, c = _inverse_coefficients(kin.v)
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
    # r_n >= g_n >= y puts every bound at or above 2c * y**(d+1) * b**(-d*n),
    # so no element can be certified before the depth of the smallest
    # positive y; zeros stay zero under the map.  Testing starts one step
    # early, a margin against rounding.
    y_min = u.min(initial=np.inf, where=u > 0.0)
    first = 0
    if y_min < np.inf:
        log_c = math.log(2.0 * c) + (_SEED_ORDER + 1) * math.log(y_min)
        first = min(_log_depth(log_c, b ** _SEED_ORDER, tol) - 1, cap)
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
        lim, sure = _stop_screen(scale, b, tol, c)
        if u.min() > lim:
            continue
        # the bound runs on the elements up to the last one the screen lets
        # through that are not sure to stop
        k = u.size - (u[::-1] <= lim).argmax()
        stop = u[:k] <= sure
        if not stop.all():
            edge = np.flatnonzero(~stop)
            stop[edge] = _stop_bound(u[edge], scale, b, q, c)[1] <= tol
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
        g[part], bound[part] = _stop_bound(g[part], bound[part], b, q, c)
    g, bound = g.reshape(arr.shape), bound.reshape(arr.shape)
    if not (bound <= tol).all():
        raise PrecisionError(
            f"inverse not certified to tol={tol} within {cap} steps",
            value=float(g) if scalar else g,
            bound=float(bound) if scalar else bound,
            bracket=(g, g + bound),
        )
    return float(g) if scalar else g

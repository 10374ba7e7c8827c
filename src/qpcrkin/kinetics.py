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
(_remainder_constant).  Each call runs to one depth, which the largest
argument sets; G learns its constant along the way, so it tests the
largest element at every step and certifies all of them at the first step
that passes.  The transform in qpcrkin.limit_law shares the rule: the same
order, the same coefficient recursion (_seed_coefficients) and the same
depth (_tail_depth).  Only H's seed has a domain, where its polynomial is
nonnegative; the transform's seed bound holds at every argument, so its
depth comes from the tail alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qpcrkin.streams import _check_ints

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


def _check_efficiency(name: str, v) -> None:
    """Refuse an efficiency outside (0, 1]: NaN fails the comparison, True by its type."""
    if isinstance(v, (bool, np.bool_)) or not 0.0 < v <= 1.0:
        raise ValueError(f"efficiency {name} must be in (0, 1], got {v}")


def _check_open_unit(name: str, x) -> None:
    """Refuse a value outside (0, 1): NaN fails the comparison, True compares as 1."""
    if not 0.0 < x < 1.0:
        raise ValueError(f"{name} must be in (0, 1), got {x}")


@dataclass(frozen=True)
class Kinetics:
    """Reaction parameters: replication efficiency v and scale K.

    v is the per-molecule replication probability at vanishing density,
    0 < v <= 1.  K, finite and positive, is the Michaelis-Menten constant
    of the enzymatic rate law; densities are molecule counts divided by K.
    """

    v: float
    K: float

    def __post_init__(self):
        _check_efficiency("v", self.v)
        if not 0.0 < self.K < math.inf:
            raise ValueError(f"scale K must be finite and positive, got {self.K}")

    @property
    def b(self) -> float:
        """Per-cycle growth factor 1 + v of the low-density regime."""
        return 1.0 + self.v

    @classmethod
    def from_exponent(cls, v: float, m: int) -> "Kinetics":
        """Kinetics with K = (1+v)**m, so log_b(K) is the integer m."""
        _check_ints(m=m)
        try:
            scale = (1.0 + v) ** m
        except OverflowError:
            raise ValueError(
                f"K = (1+v)**m overflows a float at v={v}, m={m}") from None
        return cls(v=v, K=scale)


@dataclass(frozen=True)
class Precision:
    """Numerical stopping rule: absolute tolerance and integer iteration cap."""

    tol: float
    max_iter: int = 100_000

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        self.__dict__.update(_check_ints(1, max_iter=self.max_iter))


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
    """n-fold composition of the mean map, n an integer of at least 0."""
    _check_ints(0, n=n)
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


def _tail_depth(c: float, x: float, b: float, tol: float, domain: float | None = None,
                cap=math.inf) -> tuple:
    """Certified depth of H and psi at x, the depth run under cap, and its tail.

    A seed within c*u**(d+1) of its limit at u = x/b**n, iterated n times
    by a map of slope at most b, is within c*x**(d+1)*b**(-d*n) of the
    limit at x.  Returns (n, depth, bound): n the smallest depth with that
    at most tol, depth = min(n, cap), and that tail at depth; the bound is
    inf past the float range.  H's seed bound holds only where u is at
    most domain, so H passes one: then n also brings u there, and the
    bound is inf where depth leaves u above it.  psi's bound holds at
    every u, so psi passes none.  All is taken in logs, so every finite x
    gets a depth.
    """
    d = _SEED_ORDER
    log_x = math.log(x) if x else -math.inf
    log_t = math.log(c) + (d + 1) * log_x
    floor = _log_depth(log_x, b, domain) if domain is not None else 0
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
    1 nothing is certified: the value is g_n and the bound inf.  See
    inverse_profile.
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


def _stop_tail(u: float, scale: float, b: float, c: float) -> float:
    """_stop_bound's bound at one iterate, in Python floats.

    The same float operations in the same order, so the same bits as
    _stop_bound gives that iterate in an array.
    """
    t = 4.0 * b * u
    if not t < 1.0:
        return math.inf
    s = (u + u) / (1.0 + math.sqrt(1.0 - t))
    tail = s * scale
    for _ in range(_SEED_ORDER):
        tail *= s
    tail *= c
    return tail + tail


#: log of the largest float: b**n overflows past n = this / log(b)
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)
#: elements per pass of G's closing seed evaluation, which bounds its arrays
_SEED_BLOCK = 4096


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
    G and within 2c*r_n**(d+1)*b**(-d*n) of it (_stop_bound).  Every
    element runs to one depth: the first n at which every bound is at most
    prec.tol, so each result lies in [true value - prec.tol, true value].
    The bound rises with y, so the largest element sets that depth, and a
    value depends on the other elements only through it.  Scalars map to
    floats, arrays to arrays of their shape.

    Each step tests the bound of the largest element alone (_stop_tail);
    once it is at most prec.tol, the seeds and bounds of all elements are
    formed in blocks of _SEED_BLOCK, and the loop goes on if rounding left
    one of them above.  Once no value exceeds b, the map runs in place.

    Raises PrecisionError when the depth exceeds prec.max_iter, or the
    depth where b**n leaves the float range, with the seeds there, their
    bounds and the bracket of G.
    """
    arr = _as_nonnegative_array(y, "profile value")
    scalar = np.ndim(y) == 0
    if not arr.size:
        return np.zeros(arr.shape)
    b, tol = kin.b, prec.tol
    q, c = _inverse_coefficients(kin.v)
    # b**n must stay a finite float, so that depth caps the loop as well
    cap = min(prec.max_iter, math.floor(_LOG_FLOAT_MAX / math.log(b)) - 1)
    u = arr.flatten()
    top = int(u.argmax())
    d, t, g, bound = (np.empty(u.size) for _ in range(4))
    in_place = False
    for n in range(cap + 1):
        if n:
            in_place = in_place or u.max() <= b
            if in_place:
                _inverse_map_below_b(u, b, d, t)
            else:
                u = _inverse_mean_map(u, b)
        scale = b ** n
        if n < cap and _stop_tail(float(u[top]), scale, b, c) > tol:
            continue
        for lo in range(0, u.size, _SEED_BLOCK):
            part = slice(lo, lo + _SEED_BLOCK)
            g[part], bound[part] = _stop_bound(u[part], scale, b, q, c)
        if (bound <= tol).all():
            break
    g, bound = g.reshape(arr.shape), bound.reshape(arr.shape)
    if not (bound <= tol).all():
        raise PrecisionError(
            f"inverse not certified to tol={tol} within {cap} steps",
            value=float(g) if scalar else g,
            bound=float(bound) if scalar else bound,
            bracket=(g, g + bound),
        )
    return float(g) if scalar else g

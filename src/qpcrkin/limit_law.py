"""The scaled-growth limit of the constant-probability branching reference.

Normalizing the branching reference by b**n gives a positive martingale
whose almost-sure limit has mean 1 per starting molecule and variance
(1-v)/(1+v).  This module samples that limit by deep truncation, evaluates
its Laplace transform and characteristic function through the offspring
fixed-point recursion at a certified depth, inverts the latter for the
exact density and distribution function of the z-ancestor limit with
certified truncation bounds.  The recursion starts from the Taylor
polynomial of degree d = kinetics._SEED_ORDER of E exp(y*W), whose
moments follow exactly from the offspring equation by the coefficient
recursion of the profile H (kinetics._seed_coefficients), so its error
bound falls by b**d per step of depth, as H's does.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from qpcrkin import streams
from qpcrkin.kinetics import (
    _ROUNDING,
    _SEED_ORDER,
    Precision,
    PrecisionError,
    _as_nonnegative_array,
    _check_efficiency,
    _growth_gaps,
    _seed_coefficients,
    _tail_depth,
)
from qpcrkin.simulate import (
    _block_cycles,
    _block_streams,
    _read_metadata,
    _reading,
    _replacing,
)

__all__ = [
    "LimitEnsemble",
    "AncestorDensity",
    "AncestorCDF",
    "MGF_PRECISION",
    "DENSITY_PRECISION",
    "TRUNCATION_SCALE",
    "limit_variance",
    "sample_limit",
    "limit_mgf",
    "ancestor_density",
    "ancestor_cdf",
    "default_generations",
    "write_ensemble_csv",
    "read_ensemble_csv",
]

#: truncation rule: simulate until b**n_gen reaches this scale
TRUNCATION_SCALE = 10 ** 6

#: generation cap guarding absurd requests at tiny efficiencies
MAX_GENERATIONS = 100_000

MGF_PRECISION = Precision(tol=1e-12, max_iter=10_000)

#: absolute error allowed in an exact density value, and the cap on the
#: number of frequencies of its inversion grid
DENSITY_PRECISION = Precision(tol=1e-4, max_iter=2 ** 16)

#: the first segment of the distribution function's psi table holds one to
#: two blocks of this many frequencies, and the density's power table takes
#: one block at a time
FREQUENCY_BLOCK = 1024

#: the first segment of the density's psi table holds one to two blocks of
#: this many frequencies: most points of a likelihood scan stop there
DENSITY_BLOCK = 256


def limit_variance(v: float) -> float:
    """Variance of the scaled-growth limit per starting molecule."""
    return (1.0 - v) / (1.0 + v)


def default_generations(v: float) -> int:
    """Smallest depth whose growth factor reaches the truncation scale."""
    n = math.ceil(math.log(TRUNCATION_SCALE) / math.log1p(v))
    if n > MAX_GENERATIONS:
        raise ValueError(
            f"efficiency {v} needs {n} generations to reach the truncation "
            f"scale {TRUNCATION_SCALE}; the cap is {MAX_GENERATIONS}"
        )
    return n


@dataclass(frozen=True)
class LimitEnsemble:
    """Monte Carlo samples of the scaled-growth limit of z starting molecules.

    Raises ValueError for samples that are not finite and positive, for v
    outside (0, 1], for z or n_gen not an integer of at least 1, and for a
    seed that is not an integer.
    """

    samples: np.ndarray
    v: float
    z: int
    n_gen: int
    seed: int = 0

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", arr)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("samples must be a nonempty 1-d array")
        if not (np.isfinite(arr).all() and (arr > 0.0).all()):
            raise ValueError("limit samples must be finite and positive")
        _check_efficiency("v", self.v)
        self.__dict__.update(streams._check_ints(1, z=self.z, n_gen=self.n_gen))
        self.__dict__.update(streams._check_ints(seed=self.seed))
        if self.v == 1.0 and (arr != float(self.z)).any():
            raise ValueError("at efficiency 1 every sample must equal z")

    @property
    def count(self) -> int:
        return self.samples.size


def sample_limit(v: float, z: int = 1, count: int = 10 ** 4, seed: int = 0) -> LimitEnsemble:
    """Sample the scaled-growth limit by truncating at depth default_generations(v).

    Each sample runs an independent branching trajectory from z molecules
    for n_gen = default_generations(v) generations, the smallest depth
    with b**n_gen >= TRUNCATION_SCALE, and scales by b**n_gen.  Sample i
    is lane i of the runners' block layout (qpcrkin.streams) on
    streams.GROWTH_LIMIT, a purpose no trajectory uses: each generation
    draws one array binomial per block (simulate._block_cycles).  The
    last block draws only the remainder of count, so only whole blocks
    are prefix-stable: block k's samples do not depend on count once
    count fills block k.  z, count and seed must be integers (bools
    refused), z and count at least 1; ValueError names the one that is
    not, and is raised too where z*b**n_gen could overflow the int64
    counts.
    """
    _check_efficiency("v", v)
    streams._check_ints(1, z=z, count=count)
    n_gen = default_generations(v)
    # lanes are int64: keep the mean count z*b**n_gen 64-fold below
    # overflow, so the step needs no per-generation range check
    if math.log(z) + n_gen * math.log1p(v) > 57 * math.log(2.0):
        raise ValueError(f"z={z} at n_gen={n_gen} overflows the int64 molecule count")

    gens = _block_streams(streams.GROWTH_LIMIT, seed, count)
    y = np.full(count, z, dtype=np.int64)
    p = np.full(count, v)  # draw cuts every arg into block rows

    def step(y, draw, n):
        y += draw("binomial", y, p)
        return y

    for _ in _block_cycles(gens, y, n_gen, step):
        pass  # step advances y in place
    samples = y * math.exp(-n_gen * math.log1p(v))
    return LimitEnsemble(samples, v=v, z=z, n_gen=n_gen, seed=seed)


#: the transform seed is formed where |y| = |x|/b**n is at most this, so its
#: polynomial stays finite; beyond, its certified error exceeds the disk's
#: diameter and the seed starts at 1
_SEED_REACH = 1e30


def _transform_coefficients(v: float) -> tuple:
    """Taylor coefficients c_k = m_k/k! of E exp(y*W) and its remainder coefficient.

    Returns (c, r): c[k] for k = 0..d (kinetics._seed_coefficients with
    g_i = v; c[0] = 0 stands for M - 1), so m_2 = 2/b, and m_k tends to k!
    (the exponential law) as v goes to 0; and r = c_{d+1}, with the
    rounding allowance kinetics._ROUNDING.  For y on the nonpositive real
    axis or the imaginary axis, 1 + sum c_k y**k errs by at most
    r*|y|**(d+1).
    """
    b = 1.0 + v
    e = _growth_gaps(v)
    c, high, size = _seed_coefficients(b, e, [v] * (_SEED_ORDER + 1))
    return c, (high[0] + _ROUNDING * size[0]) / (b * e[_SEED_ORDER])


def _complement_iteration(x, v: float, c: list, depth: int, slope: bool = False):
    """The offspring map u -> (1-v)*u + v*u**2 applied depth times to P(x/b**depth).

    x = -s gives the Laplace transform E exp(-s W), x = i*omega the
    characteristic function E exp(i omega W); both satisfy the map's
    fixed-point equation.  The seed P is the Taylor polynomial 1 + sum
    c_k y**k of E exp(y W) of degree d, c = _transform_coefficients(v)[0],
    clamped radially onto the closed unit disk.  For y on the nonpositive
    real axis or the imaginary axis (W >= 0) P errs by at most
    c_{d+1}*|y|**(d+1) at every |y|; E exp(y W) lies in the disk, so the
    clamp cannot increase that error, and the map keeps the disk and has
    slope at most b on it.  So every depth gives a value within
    c_{d+1}*|x|**(d+1)*b**(-d*depth) of the transform.  Where |y| exceeds
    _SEED_REACH the polynomial would overflow; there that error already
    exceeds the disk's diameter, and the seed starts at 1 (y = 0).

    y is formed as x/|x| * exp(log|x| - depth*log(b)), as limit_profile
    forms its start, since b**-depth underflows where |x| is huge.  The
    loop runs on the complement w = 1 - u, as w -> w*(b - v*w), which
    keeps relative precision once x/b**depth underflows the spacing of
    floats near 1.  depth is one int for all of x.  With slope=True it
    also returns du/dx and d2u/dx2, carried along the same loop by forward
    differentiation: from -b**-depth * P'(y) and -b**(-2*depth) * P''(y),
    dw -> dw*(b - 2*v*w) and d2w -> d2w*(b - 2*v*w) - 2*v*dw**2.
    """
    b = 1.0 + v
    size = np.abs(x)
    with np.errstate(divide="ignore"):
        scaled = np.exp(np.log(size) - depth * math.log(b))
    y = x / np.where(size > 0.0, size, 1.0) * np.where(scaled <= _SEED_REACH, scaled, 0.0)
    d = _SEED_ORDER
    # in place throughout: the working set is w (with slope, dw and d2w)
    # and two scratch arrays; w = -(c_1 y + ... + c_d y**d) by Horner
    w = np.multiply(y, -c[d], out=np.empty_like(y))
    for k in range(d - 1, 0, -1):
        w -= c[k]
        w *= y
    # the clamp onto the unit disk: u = 1 - w to u/|u| where |u| > 1
    u = 1.0 - w
    out = np.abs(u) > 1.0
    w[out] = 1.0 - u[out] / np.abs(u[out])
    if slope:
        # dw/dx = -b**-depth * P'(y) and d2w/dx2 = -b**(-2*depth) * P''(y),
        # P' and P'' by Horner; the loop carries d2w/(2v), which saves a
        # multiply per step
        dw = np.full_like(y, d * c[d])
        d2w = np.full_like(y, d * (d - 1) * c[d])
        for k in range(d - 1, 0, -1):
            dw *= y
            dw += k * c[k]
            if k > 1:
                d2w *= y
                d2w += k * (k - 1) * c[k]
        scale = float(np.exp(-depth * math.log(b)))
        dw *= -scale
        d2w *= -scale * scale / (2.0 * v)
    vw, tmp = np.empty_like(w), np.empty_like(w)
    for _ in range(depth):
        # in place, w = w*(b - v*w), dw = dw*(b - 2*v*w) and, carried as
        # d2w/(2v), d2w = d2w*(b - 2*v*w) - 2*v*dw**2, from the old w and dw
        np.multiply(w, v, out=vw)
        np.subtract(b, vw, out=tmp)
        if slope:
            np.subtract(tmp, vw, out=vw)
        w *= tmp
        if slope:
            np.multiply(dw, dw, out=tmp)
            d2w *= vw
            d2w -= tmp
            dw *= vw
    np.subtract(1.0, w, out=w)
    if slope:
        np.negative(dw, out=dw)
        d2w *= -2.0 * v
        return w, dw, d2w
    return w


def limit_mgf(s, v: float, prec: Precision = MGF_PRECISION):
    """Laplace transform E[exp(-s * limit)] for one starting molecule, s >= 0.

    Evaluated as the n-fold offspring map u -> (1-v)*u + v*u**2 applied
    to the seed P(-s/b**n) of degree d (_complement_iteration), at one
    depth n.  The seed errs by at most c_{d+1} * (s/b**n)**(d+1) and the
    map's slope is at most b, so the result is within c_{d+1} * s**(d+1)
    * b**(-d*n) of the transform; n is the certified depth for prec.tol
    at the largest s (kinetics._tail_depth), finite for every finite s.  At
    v = 1 the limit is the constant 1 and the result is exp(-s), at depth
    0.  Scalars map to floats, arrays map elementwise.

    Raises PrecisionError when that depth exceeds prec.max_iter; the
    exception carries the value at the cap, in [-1, 1], and its error
    bound c_{d+1} * s**(d+1) * b**(-d*cap), formed in logs, inf only past
    the float range.
    """
    _check_efficiency("v", v)
    arr = _as_nonnegative_array(s, "s")
    scalar = np.ndim(s) == 0
    if arr.size == 0:
        return arr.copy()
    if v == 1.0:
        u = np.exp(-arr)
        return float(u) if scalar else u

    b = 1.0 + v
    smax = float(arr.max())
    c, r = _transform_coefficients(v)
    n, depth, bound = _tail_depth(r, smax, b, prec.tol, cap=prec.max_iter)
    u = _complement_iteration(-arr, v, c, depth)
    value = float(u) if scalar else u
    if n > prec.max_iter:
        raise PrecisionError(
            f"transform needs depth {n} for tol={prec.tol}, cap is {prec.max_iter}",
            value=value, bound=bound,
        )
    return value


#: one segment (end//2, end] of a psi table (_PsiTable)
_Segment = namedtuple("_Segment", "end om ps err depth m d e nxt")


class _PsiTable:
    """psi(w) = E exp(i w W) on w_j = j*h, j >= 1, for W(z), z <= z_max, at t <= t_max.

    The period is T = 4*max(z_max, t_max) + 8, h = 2*pi/T.  Segment ends
    halve down from the cap, [prec.max_iter, prec.max_iter//2, ...] while
    the last is at least twice the reader's first block, so the first
    segment holds one to two such blocks (or the whole cap) and every
    segment (end//2, end] holds its whole top octave [end*h/b, end*h].
    The distribution function's table (slope=False) starts from blocks of
    FREQUENCY_BLOCK; the density's (slope=True) from blocks of
    DENSITY_BLOCK, since most of its points stop there.  Iterating yields
    the segments from the bottom up, each built when a reader first
    reaches it and kept: its depth certified then, one kernel call at that
    depth gives psi at its frequencies om and one past the end, kept as
    nxt = psi((end+1)*h), each within err * om**(d+1), and M is the
    largest |psi| on its top octave's grid points.  With slope=True the
    same call carries psi' and psi'', of which only their largest moduli
    D and E on the top octave are kept (0 without slope).  Raises ValueError
    for v outside (0, 1] or z_max not an integer of at least 1, and
    PrecisionError when psi needs a depth beyond MGF_PRECISION.max_iter.
    At v = 1, W(z) = z and no reader iterates it.
    """

    def __init__(self, v: float, z_max: int, t_max: float, prec: Precision, slope: bool):
        _check_efficiency("v", v)
        self.z_max = streams._check_ints(1, z_max=z_max)["z_max"]
        self.v, self.t_max, self.prec, self.slope = v, t_max, prec, slope
        self.period = 4.0 * max(self.z_max, t_max) + 8.0
        self.h = 2.0 * math.pi / self.period
        first = DENSITY_BLOCK if slope else FREQUENCY_BLOCK
        self.ends = [prec.max_iter]
        while self.ends[0] >= 2 * first:
            self.ends.insert(0, self.ends[0] // 2)
        self._c, self._coef = _transform_coefficients(v)
        self._segments = []

    def __iter__(self):
        for k, end in enumerate(self.ends):
            if k == len(self._segments):
                self._segments.append(self._build(self.ends[k - 1] if k else 0, end))
            yield self._segments[k]

    def _build(self, start: int, end: int) -> _Segment:
        v, b, coef = self.v, 1.0 + self.v, self._coef
        # psi errs by at most coef * w**(d+1) * b**(-d*n) at depth n; each
        # segment keeps its share of a bound below prec.tol / 64
        top = end * self.h
        depth = _tail_depth(coef, top, b, math.pi * self.prec.tol / (64.0 * self.z_max * top))[0]
        if depth > MGF_PRECISION.max_iter:
            raise PrecisionError(f"characteristic function needs depth {depth} at "
                                 f"frequency {top:.4g}, cap is {MGF_PRECISION.max_iter}")
        err = coef * b ** (-_SEED_ORDER * depth)
        om = self.h * np.arange(start + 1, end + 2)
        ps = _complement_iteration(1j * om, v, self._c, depth, slope=self.slope)
        octave = slice(np.searchsorted(om, top / b), -1)
        d = e = 0.0
        if self.slope:
            ps, dps, d2ps = ps
            d, e = float(np.abs(dps[octave]).max()), float(np.abs(d2ps[octave]).max())
        return _Segment(end, om[:-1], ps[:-1], err, depth, float(np.abs(ps[octave]).max()),
                        d, e, complex(ps[-1]))


@dataclass(frozen=True)
class AncestorDensity:
    """Densities of the z-ancestor limit W(z) at given points, z = 1..z_max.

    values[z-1] and bounds[z-1] hold the density of W(z) at each point
    and its certified truncation bound.  The point that stopped last
    summed `points` frequencies, the highest at transform depth `depth`.
    """

    values: np.ndarray
    bounds: np.ndarray
    points: int
    depth: int


def ancestor_density(t, v: float, z_max: int,
                     prec: Precision = DENSITY_PRECISION) -> AncestorDensity:
    """Exact density of W(z) at each point of t, for every z = 1..z_max.

    W(z) is the growth limit of z ancestors, the sum of z independent
    copies of W, so its characteristic function is psi**z with
    psi(w) = E exp(i w W).  The density is the trapezoid sum

        f_z(t) ~ (h/pi) * (1/2 + sum_j Re(psi(w_j)**z * exp(-i w_j t)))

    on w_j = j*h, h = 2*pi/T, for every z at once: per block of
    FREQUENCY_BLOCK frequencies, a power table holds psi**z for z = 1..z_max,
    filled by in-place multiplies, and each point takes one real
    matrix-vector product of it with the interleaved cos and sin of w_j*t.
    psi comes from the segments of a psi table (_PsiTable), each at its own
    certified transform depth.  The full sum is sum_k f_z(t + k*T); the
    period T = 4*max(z_max, t) + 8 puts every aliased copy far out in the
    right tail of every candidate, and that term is not part of the bound.

    A point stops at the end of the first segment where all its bounds
    are at most prec.tol, so its value depends on the other points only
    through the period, which a point above z_max moves.  The density's
    psi table starts from blocks of DENSITY_BLOCK frequencies, so its first
    segment ends at 256 at DENSITY_PRECISION, where most scans stop.

    Bound.  With a_j = psi(w_j)**z, d_j = a_{j+1} - a_j, r = exp(-i h t)
    and Omega = N*h the top frequency, two summations by parts give what
    the sum leaves out as

        sum_{j>N} a_j r**j = a_N r**(N+1)/(1-r) + d_N r**(N+1)/(1-r)**2
                             + sum_{j>=N} (d_{j+1}-d_j) r**(j+2)/(1-r)**2,

    with 1/(1-r) = 1/2 - (i/2)*cot(h*t/2).  After one step, the value adds
    the first term and the bound holds the rest, sum_{j>=N} d_j
    r**(j+1)/(1-r), at most int_Omega^inf |(psi**z)'| times
    h / (2*pi*sin(h*t/2)), about 1/(pi*t).  After two, the value adds both
    terms and the bound holds the last sum: sum_{j>=N} |d_{j+1}-d_j| is at
    most h * int_Omega^inf |(psi**z)''|, at the weight
    (h/pi) / (4*sin(h*t/2)**2).  Each (z, point) keeps the value of the step
    whose bound is smaller, with that bound.  Both integrals follow from the
    top octave [Omega/b, Omega]: psi(b*w) = (1-v)*psi + v*psi**2,
    b*psi'(b*w) = psi'(w)*(1-v+2*v*psi) and b**2*psi''(b*w) =
    psi''(w)*(1-v+2*v*psi) + 2*v*psi'(w)**2 shrink |psi| by r1 = 1-v+v*M,
    |psi'| by q/b and |psi''| (beyond its psi'**2 source) by q/b**2 per
    octave, q = 1-v+2*v*M, where M, D and E are the largest |psi|, |psi'|
    and |psi''| on the octave's grid points (the derivatives from the same
    kernel loop by forward differentiation).  So the first integral is at
    most Omega*(v/b)*z*M**(z-1)*D*p/(1-p), p = r1**(z-1)*q, and for q < 1
    the second at most Omega*(v/b)*(z*M**(z-1)*E'*pA/(1-pA) +
    z*(z-1)*M**(z-2)*D**2*pB/(1-pB)), E' = E + 2*v*D**2/(q*(1-q)),
    pA = r1**(z-1)*q/b and pB = r1**(z-2)*q**2/b; each is inf where its
    octave sums diverge.  The transform error adds z*(h/pi) times the sum
    of psi's certified errors over the frequencies and z times psi(Omega)'s
    error at the weight h / (2*pi*sin(h*t/2)) of a_N; the second step adds
    z times the errors of psi(Omega) and psi(Omega+h) at the weight of d_N.
    Values are returned as computed, negative ones included.

    Raises PrecisionError when a point's bounds still exceed prec.tol at
    prec.max_iter frequencies, carrying every value and bound there, or
    when psi needs a depth beyond MGF_PRECISION.max_iter.
    """
    pts = np.atleast_1d(np.asarray(t, dtype=float))
    if pts.ndim != 1 or pts.size == 0:
        raise ValueError("t must be a scalar or a nonempty 1-d array")
    if not np.all(np.isfinite(pts)) or np.any(pts <= 0.0):
        raise ValueError("t must be positive and finite")
    table = _PsiTable(v, z_max, float(pts.max()), prec, slope=True)
    if v == 1.0:
        raise ValueError("density needs efficiency below 1; at v=1 the limit is the constant z")
    return _density_from(table, pts)


def _density_from(table: _PsiTable, pts: np.ndarray) -> AncestorDensity:
    """ancestor_density at the points pts, 0 < pts <= table.t_max, read off the table."""
    if not table.slope or float(pts.max()) > table.t_max:
        raise ValueError("the density needs a table with psi' up to its largest point")
    v, b, z_max, prec, h = table.v, 1.0 + table.v, table.z_max, table.prec, table.h
    z = np.arange(1.0, z_max + 1.0)
    # with r = exp(-i h t): 1/(1-r) = 1/2 - (i/2)cot(h t/2), |1-r| = 2 sin(h t/2)
    inv = 0.5 - 0.5j / np.tan(0.5 * h * pts)
    abel = h / (2.0 * math.pi * np.sin(0.5 * h * pts))
    abel2 = (h / math.pi) / (4.0 * np.sin(0.5 * h * pts) ** 2)

    sums = np.zeros((z_max, pts.size))
    values = np.empty_like(sums)
    bounds = np.empty_like(sums)
    todo = np.ones(pts.size, dtype=bool)
    psi_error = 0.0
    for seg in table:
        act = np.flatnonzero(todo)
        for lo in range(0, seg.om.size, FREQUENCY_BLOCK):
            om, ps = seg.om[lo:lo + FREQUENCY_BLOCK], seg.ps[lo:lo + FREQUENCY_BLOCK]
            psi_error += seg.err * float(np.sum(om ** (_SEED_ORDER + 1)))
            # powers[z-1] = ps**z, each row by one in-place multiply of the last
            powers = np.empty((z_max, ps.size), dtype=complex)
            powers[0] = ps
            for r in range(1, z_max):
                np.multiply(powers[r - 1], ps, out=powers[r])
            # Re(p * exp(-i w t)) = Re(p) cos(w t) + Im(p) sin(w t): one real
            # matrix-vector product per open point on the interleaved parts,
            # so a point's sum does not depend on the others
            parts = powers.view(float)
            phase = np.exp(1j * np.outer(pts[act], om))
            for j, wave in zip(act, phase):
                sums[:, j] += parts @ wave.view(float)
        # the value and bound of every open point at the end of the segment,
        # after one and after two summations by parts; each (z, point) keeps
        # the pair with the smaller bound.  a_N = psi(Omega)**z is the last
        # column of the power table, a_{N+1} the powers of seg.nxt
        top, m, d = float(seg.om[-1]), seg.m, seg.d
        a_n = powers[:, -1]
        d_n = np.cumprod(np.full(z_max, seg.nxt)) - a_n
        # the octave sums (ancestor_density) bounding int_Omega^inf of
        # |(psi**z)'| (tail) and of |(psi**z)''| (tail2)
        r1, q = 1.0 - v + v * m, 1.0 - v + 2.0 * v * m
        scale = top * (v / b) * z * m ** (z - 1.0)
        p = r1 ** (z - 1.0) * q
        tail = np.full(z_max, np.inf)
        ok = p < 1.0
        tail[ok] = scale[ok] * d * p[ok] / (1.0 - p[ok])
        tail2 = np.full(z_max, np.inf)
        if q < 1.0:
            pa = p / b
            tail2 = scale * (seg.e + 2.0 * v * d * d / (q * (1.0 - q))) * pa / (1.0 - pa)
            # the psi'**2 term of (psi**z)'', none at z = 1
            pb = pa[1:] * (q / r1)
            tail2[1:] += (top * (v / b) * d * d) * z[1:] * (z[1:] - 1.0) \
                * m ** (z[1:] - 2.0) * pb / (1.0 - pb)
        err_n = z * (seg.err * top ** (_SEED_ORDER + 1))
        err_next = z * (seg.err * (h * (seg.end + 1)) ** (_SEED_ORDER + 1))
        shared = (z * (h / math.pi) * psi_error)[:, None] + err_n[:, None] * abel[act]
        bound1 = shared + tail[:, None] * abel[act]
        bound2 = shared + (h * tail2 + err_n + err_next)[:, None] * abel2[act]
        # r**(N+1)/(1-r) and r**(N+1)/(1-r)**2, r/(1-r) = 1/(1-r) - 1
        step = np.exp(-1j * top * pts[act]) * (inv[act] - 1.0)
        value1 = (h / math.pi) * (0.5 + sums[:, act] + (a_n[:, None] * step).real)
        value2 = value1 + (h / math.pi) * (d_n[:, None] * (step * inv[act])).real
        two = bound2 < bound1
        values[:, act] = np.where(two, value2, value1)
        bounds[:, act] = np.where(two, bound2, bound1)
        todo[act] = ~np.all(bounds[:, act] <= prec.tol, axis=0)
        if not todo.any():
            return AncestorDensity(values, bounds, seg.end, seg.depth)
    raise PrecisionError(
        f"density bound {bounds[:, todo].max():.3g} above "
        f"tol={prec.tol} at the cap of {prec.max_iter} frequencies",
        value=values, bound=bounds,
    )


@dataclass(frozen=True)
class AncestorCDF:
    """Distribution function of the z-ancestor limit W(z) at given points.

    values holds P(W(z) <= t) at each point, each within the certified
    bound, which is one for all points and includes the interpolation
    term.  The sum took `points` frequencies, the highest at transform
    depth `depth`, and was tabulated on `grid` points of its period.
    """

    values: np.ndarray
    bound: float
    points: int
    depth: int
    grid: int


#: share of the tolerance left to the truncation of the frequency sum; the
#: rest goes to the interpolation between grid points
TRUNCATION_SHARE = 0.875

#: grid points per frequency allowed at the cap, 2**22 at DENSITY_PRECISION
GRID_PER_FREQUENCY = 64


def ancestor_cdf(t, v: float, z: int,
                 prec: Precision = DENSITY_PRECISION) -> AncestorCDF:
    """Exact distribution function of W(z) at each point of t.

    Integrating ancestor_density's trapezoid sum term by term from 0 gives

        F_z(t) ~ (h/pi) * (t/2 + sum_j Re(c_j * (1 - exp(-i w_j t))))

    with c_j = psi_j**z / (i w_j), on the same grid w_j = j*h, h = 2*pi/T,
    T = 4*max(z, t) + 8, psi_j = psi(w_j) from the same psi table
    (_PsiTable), segments and transform depths.  At t_k = k*T/M the sum
    over j is the discrete Fourier transform of c_1..c_N padded
    with zeros to length M, so one FFT tabulates F on a grid over the
    period, and each point takes the linear interpolation between its two
    grid neighbours.  M depends only on the period, v, z and prec, so a
    point's value depends on the others only through the period.

    Bound.  |1 - exp(-i w t)| <= 2, so the frequencies past the top
    Omega leave out at most (2h/pi) * sum_{j>N} |psi_j|**z / w_j.  On the
    k-th octave past Omega, (Omega*b**(k-1), Omega*b**k], |psi| is at most
    M*r**k with r = 1-v+v*M and M = max |psi| on the top octave's grid
    points (ancestor_density), and the octave holds at most
    (b-1)*Omega*b**(k-1)/h + 1 frequencies, each with 1/w_j at most
    1/(Omega*b**(k-1)); summed over k >= 1 that is at most
    ((b-1)*Omega/h + 1) * M**z * r**z / (Omega*(1 - r**z)).  The transform error
    adds z*(2h/pi) * sum_j err_j / w_j, err_j psi_j's certified error.
    Neither term depends on t, so one stop serves every point: the end of
    the first segment where their sum is at most TRUNCATION_SHARE*prec.tol.
    The sum's second derivative is at most (h/pi) * sum_j |psi_j|**z w_j
    in size, so linear interpolation on the grid errs by at most
    (T/M)**2/8 times that; M is the smallest power of two above N that
    keeps this term within the rest of prec.tol, and the bound is the sum
    of both terms.

    Aliasing.  The sum integrates sum_k f_z(t + k*T) from 0, which
    exceeds F_z(t) by sum_{k>=1} P(kT < W(z) <= kT + t) <= P(W(z) > T);
    the period puts that far out in the right tail, and it is not part of
    the bound.  Values are returned as computed, even slightly outside
    [0, 1].

    At v = 1, W(z) = z, so F is the step at z, exact with bound 0, no
    frequencies and no grid.  The grid is capped at
    GRID_PER_FREQUENCY*prec.max_iter points, checked on the predicted M
    before the FFT is taken.  Raises PrecisionError, carrying the values
    and the bound, when the bound exceeds prec.tol: the truncation still
    exceeds its share at prec.max_iter frequencies, or the interpolation
    needs a grid above the cap and the FFT grid at the cap misses
    prec.tol; or when psi needs a depth beyond MGF_PRECISION.max_iter.
    """
    pts = np.atleast_1d(_as_nonnegative_array(t, "t"))
    if pts.ndim != 1 or pts.size == 0:
        raise ValueError("t must be a scalar or a nonempty 1-d array")
    table = _PsiTable(v, z, float(pts.max()), prec, slope=False)
    return _cdf_from(table, pts, table.z_max)


def _cdf_from(table: _PsiTable, pts: np.ndarray, z: int) -> AncestorCDF:
    """ancestor_cdf of W(z) at the points pts, 0 <= pts <= table.t_max, read off the table."""
    if z not in range(1, table.z_max + 1) or float(pts.max()) > table.t_max:
        raise ValueError(f"a table for z <= {table.z_max}, t <= {table.t_max} cannot serve z={z}")
    v, b, prec, h, period = table.v, 1.0 + table.v, table.prec, table.h, table.period
    if v == 1.0:
        return AncestorCDF((pts >= z).astype(float), 0.0, 0, 0, 0)
    coefs = [np.zeros(1)]
    psi_error = curvature = 0.0
    for seg in table:
        pz = seg.ps ** z
        coefs.append(pz / (1j * seg.om))
        psi_error += seg.err * float(np.sum(seg.om ** _SEED_ORDER))
        curvature += float(np.sum(np.abs(pz) * seg.om))
        top, r = float(seg.om[-1]), 1.0 - v + v * seg.m
        rz = r ** z
        tail = (((b - 1.0) * top / h + 1.0) * seg.m ** z * rz / (top * (1.0 - rz))
                if rz < 1.0 else math.inf)
        truncation = (2.0 * h / math.pi) * (tail + z * psi_error)
        if truncation <= TRUNCATION_SHARE * prec.tol or seg.end == prec.max_iter:
            break
    # (T/M)**2/8 * (h/pi) * curvature <= (1 - TRUNCATION_SHARE) * prec.tol
    need = period * math.sqrt(h * curvature / (8.0 * math.pi * (1.0 - TRUNCATION_SHARE) * prec.tol))
    cap = GRID_PER_FREQUENCY * prec.max_iter
    grid = min(cap, 1 << max(seg.end.bit_length(), math.ceil(math.log2(need))))
    # c[j] = c_j at index j, padded by the FFT to the grid; only the grid
    # points up to the largest t are read
    c = np.concatenate(coefs)
    step = period / grid
    tk = step * np.arange(int(float(pts.max()) / step) + 2)
    sums = np.fft.fft(c, grid)[:tk.size].real
    values = np.interp(pts, tk, (h / math.pi) * (0.5 * tk + (float(c.real.sum()) - sums)))
    bound = truncation + step * step / 8.0 * (h / math.pi) * curvature
    if not bound <= prec.tol:
        raise PrecisionError(
            f"distribution bound {bound:.3g} above tol={prec.tol} with {seg.end} "
            f"frequencies (cap {prec.max_iter}) on a grid of {grid} points "
            f"(cap {cap})", value=values, bound=bound,
        )
    return AncestorCDF(values, bound, seg.end, seg.depth, grid)


def pointwise_density(samples, points) -> np.ndarray:
    """Gaussian kernel density of raw samples at arbitrary points.

    The bandwidth is 0.9*min(sd, IQR/1.34)*n**(-1/5) for n samples, and
    the sample axis is summed in chunks that bound the broadcast buffer.
    Nothing in the package calls it since the scan became exact
    (ancestor_density); it stays only for the benchmark harness, which
    binds it by name.  Raises ValueError for fewer than two samples or
    for samples without spread.
    """
    samples = np.asarray(samples, dtype=float)
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    if samples.size < 2:
        raise ValueError("need at least two samples")
    q75, q25 = np.percentile(samples, [75, 25])
    spread = min(samples.std(ddof=1), (q75 - q25) / 1.34)
    if spread <= 0.0:
        raise ValueError("sample spread is zero; the samples are a point mass")
    bw = 0.9 * spread * samples.size ** (-0.2)
    out = np.zeros(pts.size, dtype=float)
    step = max(1, 2 ** 22 // max(pts.size, 1))
    for start in range(0, samples.size, step):
        u = (pts[None, :] - samples[start : start + step, None]) / bw
        out += np.exp(-0.5 * u * u).sum(axis=0)
    return 1.0 / (samples.size * bw * math.sqrt(2.0 * math.pi)) * out


def write_ensemble_csv(ens: LimitEnsemble, path) -> None:
    """One sample per line, after a metadata comment."""
    with _replacing(path) as fh:
        fh.write(
            f"# v={ens.v:.17g} z={ens.z} n_gen={ens.n_gen} "
            f"count={ens.count} seed={ens.seed}\n"
        )
        fh.write("sample\n")
        for x in ens.samples:
            fh.write(f"{x:.17g}\n")


def read_ensemble_csv(path) -> LimitEnsemble:
    """Inverse of write_ensemble_csv.

    Every refusal is a ValueError naming the path: a metadata value that
    does not parse, a missing `sample` header line, a sample that is not
    a number (naming the line too), other than `count` samples, or
    samples that LimitEnsemble refuses.
    """
    samples = []
    with _reading(path) as fh:
        meta = _read_metadata(fh, {"v": float, "z": int, "n_gen": int, "count": int,
                                   "seed": int})
        if fh.readline().strip() != "sample":
            raise ValueError("second line is not the header 'sample'")
        for line_no, line in enumerate(fh, start=3):
            if line.strip():
                try:
                    samples.append(float(line))
                except ValueError:
                    raise ValueError(
                        f"line {line_no}: sample {line.strip()!r} is not a number"
                    ) from None
        if len(samples) != meta["count"]:
            raise ValueError(f"metadata says count={meta['count']}, "
                             f"file holds {len(samples)} samples")
        return LimitEnsemble(samples, v=meta["v"], z=meta["z"], n_gen=meta["n_gen"],
                             seed=meta["seed"])

"""The scaled-growth limit of the constant-probability branching reference.

Normalizing the branching reference by b**n gives a positive martingale
whose almost-sure limit has mean 1 per starting molecule and variance
(1-v)/(1+v).  This module samples that limit by deep truncation, evaluates
its Laplace transform and characteristic function through the offspring
fixed-point recursion at a certified depth, inverts the latter for the
exact density and distribution function of the z-ancestor limit with
certified truncation bounds, and estimates the density from samples.  The recursion starts from the
Taylor polynomial of order 4 of E exp(y*W), whose moments follow exactly
from the offspring equation, so its error bound falls by b**3 per step
of depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qpcrkin import streams
from qpcrkin.kinetics import (
    Precision,
    PrecisionError,
    _as_nonnegative_array,
    _certified_depth,
)

__all__ = [
    "LimitEnsemble",
    "DensityEstimate",
    "AncestorDensity",
    "AncestorCDF",
    "PointMassError",
    "MGF_PRECISION",
    "DENSITY_PRECISION",
    "TRUNCATION_SCALE",
    "BLOCK_SIZE",
    "limit_variance",
    "sample_limit",
    "limit_mgf",
    "limit_density",
    "ancestor_density",
    "ancestor_cdf",
    "default_generations",
    "write_ensemble_csv",
    "read_ensemble_csv",
    "write_density_csv",
]

#: truncation rule: simulate until b**n_gen reaches this scale
TRUNCATION_SCALE = 10 ** 6

#: generation cap guarding absurd requests at tiny efficiencies
MAX_GENERATIONS = 100_000

#: samples per Philox block: sample i is lane i % BLOCK_SIZE of block
#: i // BLOCK_SIZE.  The default ensemble size 10**4 is a multiple, so
#: no drawn lane is discarded.
BLOCK_SIZE = 1000

MGF_PRECISION = Precision(tol=1e-12, max_iter=10_000)

MIN_DENSITY_COUNT = 10 ** 4

#: absolute error allowed in an exact density value, and the cap on the
#: number of frequencies of its inversion grid
DENSITY_PRECISION = Precision(tol=1e-4, max_iter=2 ** 16)

#: top frequency of the first segment of an inversion grid
FIRST_FREQUENCY = 16.0

#: frequencies per kernel call of the inversion, which bounds its arrays
FREQUENCY_BLOCK = 1024


class PointMassError(ValueError):
    """Density requested for a degenerate (point-mass) distribution."""

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location


def limit_variance(v: float) -> float:
    """Variance of the scaled-growth limit per starting molecule."""
    return (1.0 - v) / (1.0 + v)


def default_generations(v: float) -> int:
    """Smallest depth whose growth factor reaches the truncation scale."""
    n = math.ceil(math.log(TRUNCATION_SCALE) / math.log1p(v))
    if n > MAX_GENERATIONS:
        raise ValueError(
            f"efficiency {v} needs {n} generations to reach the truncation "
            f"scale; enlarge count rather than the depth"
        )
    return n


@dataclass(frozen=True)
class LimitEnsemble:
    """Monte Carlo samples of the scaled-growth limit of z starting molecules."""

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
        if (arr <= 0.0).any():
            raise ValueError("limit samples must be positive")
        if self.v == 1.0 and (arr != float(self.z)).any():
            raise ValueError("at efficiency 1 every sample must equal z")

    @property
    def count(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class DensityEstimate:
    """Kernel density on a fixed grid."""

    grid: np.ndarray
    values: np.ndarray
    bandwidth: float

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", vals)
        if g.shape != vals.shape or g.ndim != 1 or g.size < 2:
            raise ValueError("grid and values must be matching 1-d arrays")
        if np.any(vals < 0.0):
            raise ValueError("density values must be nonnegative")
        mass = np.trapezoid(vals, g)
        if not 0.99 <= mass <= 1.01:
            raise ValueError(f"density mass {mass:.4f} outside [0.99, 1.01]")


def sample_limit(
    v: float,
    z: int = 1,
    count: int = 10 ** 4,
    seed: int = 0,
    n_gen: int | None = None,
    purpose: int = streams.GROWTH_LIMIT,
) -> LimitEnsemble:
    """Sample the scaled-growth limit by truncating at depth n_gen.

    Each sample runs an independent branching trajectory from z molecules
    for n_gen generations and scales by b**n_gen.  Sample i is lane
    i % BLOCK_SIZE of block i // BLOCK_SIZE; block k is the stream keyed
    (seed, purpose, replicate=k, aux=0) and advances all its lanes with
    one array binomial per generation.  Whole blocks are drawn and the
    result cut to count, so the first samples do not depend on count.
    n_gen defaults to the smallest depth with b**n_gen >= 10**6.
    """
    if not 0.0 < v <= 1.0:
        raise ValueError("efficiency must be in (0, 1]")
    if z < 1:
        raise ValueError("z must be at least 1")
    if count < 1:
        raise ValueError("count must be positive")
    if n_gen is None:
        n_gen = default_generations(v)
    else:
        if (1.0 + v) ** n_gen < TRUNCATION_SCALE:
            raise ValueError(
                f"n_gen={n_gen} leaves the growth factor below {TRUNCATION_SCALE}; "
                f"need at least {default_generations(v)}"
            )
        if n_gen > MAX_GENERATIONS:
            raise ValueError("n_gen beyond the generation cap")
    # lanes are int64: keep the mean count z*b**n_gen 64-fold below overflow
    if math.log(z) + n_gen * math.log1p(v) > 57 * math.log(2.0):
        raise ValueError(f"z={z} at n_gen={n_gen} overflows the int64 molecule count")

    scale = math.exp(-n_gen * math.log1p(v))
    blocks = -(-count // BLOCK_SIZE)
    out = np.empty((blocks, BLOCK_SIZE), dtype=float)
    pool = streams.ReusableStream()
    for k in range(blocks):
        binom = pool.reset(seed, purpose, k).binomial
        y = np.full(BLOCK_SIZE, z, dtype=np.int64)
        for _ in range(n_gen):
            y += binom(y, v)
        out[k] = y * scale
    return LimitEnsemble(out.ravel()[:count], v=v, z=z, n_gen=n_gen, seed=seed)


#: the transform kernel's seed is the Taylor polynomial of E exp(y*W) of
#: this order: its terms up to y**3, with remainder at most m_4 |y|**4/4!
_SEED_ORDER = 4


def _limit_moments(v: float) -> list:
    """Moments m_0..m_4 of the growth limit W, exact from the offspring equation.

    M(y) = E exp(y*W) solves M(b*y) = (1-v)*M(y) + v*M(y)**2.  Matching
    the terms in y**k/k! gives, from m_0 = m_1 = 1,

        m_k = v * sum_{j=1}^{k-1} C(k, j) * m_j * m_{k-j} / (b**k - b),

    so m_2 = 2/b, the variance is (1-v)/(1+v), and m_k tends to k!
    (the exponential law) as v goes to 0.
    """
    b = 1.0 + v
    m = [1.0, 1.0]
    for k in range(2, _SEED_ORDER + 1):
        # b**k - b, without the cancellation of small v
        gap = b * math.expm1((k - 1) * math.log1p(v))
        m.append(v * sum(math.comb(k, j) * m[j] * m[k - j] for j in range(1, k)) / gap)
    return m


def _remainder_coefficient(v: float) -> float:
    """m_4/4!: the seed P(y) errs by at most this times |y|**4."""
    return _limit_moments(v)[_SEED_ORDER] / math.factorial(_SEED_ORDER)


def _seed_depth(c: float, top: float, b: float, tol: float) -> int:
    """Certified kernel depth for arguments |x| <= top, c = m_4/4! * top**4.

    At depth n the seed errs by at most c * b**(-4n) (_complement_iteration),
    and the n steps of the map, Lipschitz with constant b on the closed
    unit disk, widen that to c * b**(-3n): the depth is the smallest n
    with that at most tol.  It is also at least the depth that brings
    top/b**n to 1/2, so the seed lies in the unit disk with room for
    rounding.
    """
    return max(_certified_depth(c, b ** 3, tol), _certified_depth(2.0 * top, b, 1.0))


def _complement_iteration(x, v: float, depth, slope: bool = False):
    """The offspring map u -> (1-v)*u + v*u**2 applied depth times to P(x/b**depth).

    x = -s gives the Laplace transform E exp(-s W), x = i*omega the
    characteristic function E exp(i omega W); both satisfy the map's
    fixed-point equation.  The seed P(y) = 1 + y + m_2 y**2/2 + m_3 y**3/6
    is the Taylor polynomial of E exp(y W) of order 4 (_limit_moments).
    For y on the nonpositive real axis or the imaginary axis it errs by
    at most m_4 |y|**4/4!, and for |y| <= 1 it lies in the closed unit
    disk, which the map keeps and on which its slope is at most b: with
    m_2 = 2/b and m_3 = 12/(b**2 (b+1)), |P(i t)|**2 = 1 - var t**2 -
    (3-b) t**4/(b**2 (b+1)) + m_3**2 t**6/36 <= 1 while t**2 <= (3-b)
    b**2 (b+1)/4, which is at least 1; and for 0 <= s <= 1, 1 - P(-s) =
    s (1 - s/b + m_3 s**2/6) >= 0 and P(-s) >= 1 - s - m_3 s**3/6 >= -1.
    Raises PrecisionError when some |x|/b**depth exceeds 1.

    It runs on the complement w = 1 - u, as w -> w*(b - v*w), which
    keeps relative precision once x/b**depth underflows the spacing of
    floats near 1.  depth is one int, or one per element of x in
    nondecreasing order: the deepest elements start first and the others
    join as their own depth remains.  With slope=True it also returns
    du/dx, carried along the same loop by forward differentiation.
    """
    b = 1.0 + v
    if np.ndim(depth) == 0:
        scale = math.exp(-depth * math.log(b))
        levels, parts = [depth], [...]
    else:
        scale = np.exp(-depth * math.log(b))
        starts = np.flatnonzero(np.diff(depth, prepend=-1))
        levels = depth[starts].tolist()
        parts = [slice(lo, None) for lo in starts.tolist()]
    y = np.asarray(x * scale)
    top = float(np.abs(y).max(initial=0.0))
    if not top <= 1.0:
        raise PrecisionError(
            f"transform argument reaches {top:.4g} at depth {np.max(depth)}; "
            f"the seed needs at most 1"
        )
    _, _, m2, m3, _ = _limit_moments(v)
    # in place throughout: the working set is w, dw and two scratch arrays;
    # w = -(y + m2/2 y**2 + m3/6 y**3) by Horner
    w = np.multiply(y, -m3 / 6.0, out=np.empty_like(y))
    w -= 0.5 * m2
    w *= y
    w -= 1.0
    w *= y
    dw = None
    if slope:
        # dw/dx = -scale * P'(y)
        dw = np.multiply(y, 0.5 * m3, out=np.empty_like(y))
        dw += m2
        dw *= y
        dw += 1.0
        dw *= -scale
    vw = y
    tmp = np.empty_like(w)
    for k in range(len(levels) - 1, -1, -1):
        part = parts[k]
        steps = levels[k] - (levels[k - 1] if k else 0)
        ws, vws, tmps = w[part], vw[part], tmp[part]
        dws = dw[part] if slope else None
        for _ in range(steps):
            # in place, w = w*(b - v*w) and dw = dw*(b - 2*v*w)
            np.multiply(ws, v, out=vws)
            np.subtract(b, vws, out=tmps)
            if slope:
                np.subtract(tmps, vws, out=vws)
                dws *= vws
            ws *= tmps
    np.subtract(1.0, w, out=w)
    if slope:
        np.negative(dw, out=dw)
        return w, dw
    return w


def limit_mgf(s, v: float, prec: Precision = MGF_PRECISION):
    """Laplace transform E[exp(-s * limit)] for one starting molecule, s >= 0.

    Evaluated as the n-fold offspring map u -> (1-v)*u + v*u**2 applied
    to the order-4 seed P(-s/b**n) (_complement_iteration), at one depth
    n.  The seed errs by at most m_4/4! * (s/b**n)**4 and the map's slope
    is at most b, so the result is within m_4/4! * s**4 * b**(-3n) of the
    transform; n is the certified depth for prec.tol at the largest s
    (_seed_depth).  At v = 1 the limit is the constant 1 and the result
    is exp(-s), at depth 0.  Scalars map to floats, arrays map
    elementwise.

    Raises PrecisionError when that depth exceeds prec.max_iter; the
    exception carries the value at the cap and its error bound.
    """
    if not 0.0 < v <= 1.0:
        raise ValueError("efficiency must be in (0, 1]")
    arr = _as_nonnegative_array(s, "s")
    scalar = np.ndim(s) == 0
    if arr.size == 0:
        return arr.copy()
    if v == 1.0:
        u = np.exp(-arr)
        return float(u) if scalar else u

    b = 1.0 + v
    smax = float(arr.max())
    # a product overflows to inf (depth inf, past every cap), where ** raises
    c = _remainder_coefficient(v) * (smax * smax) * (smax * smax)
    n = _seed_depth(c, smax, b, prec.tol)
    depth = min(n, prec.max_iter)
    u = _complement_iteration(-arr, v, depth)
    if n > prec.max_iter:
        raise PrecisionError(
            f"transform needs depth {n} for tol={prec.tol}, cap is {prec.max_iter}",
            value=float(u) if scalar else u,
            bound=c * b ** (-3 * depth) if c < math.inf else math.inf,
        )
    return float(u) if scalar else u


def _transform_pieces(h: float, v: float, z_max: int, prec: Precision,
                      slope: bool):
    """psi(w) = E exp(i w W) on w_j = j*h, j >= 1, piece by piece.

    Frequencies come in segments: j <= N0 (N0*h just reaches
    FIRST_FREQUENCY), then (N0*2**(k-1), N0*2**k], up to prec.max_iter.
    Yields (om, ps, dps, err, end) per piece of at most FREQUENCY_BLOCK
    frequencies: psi (and psi' with slope=True) at om, within err * om**4;
    end is None but at a segment's last piece, where it holds (frequencies
    so far, depth, M, D), M and D the largest |psi| and |psi'| on the
    segment's top octave [top/b, top].  The segment that ends at
    prec.max_iter is the last.  Raises PrecisionError when psi needs a
    depth beyond MGF_PRECISION.max_iter.
    """
    b = 1.0 + v
    ends = [min(math.ceil(FIRST_FREQUENCY / h), prec.max_iter)]
    while ends[-1] < prec.max_iter:
        ends.append(min(2 * ends[-1], prec.max_iter))
    coef = _remainder_coefficient(v)
    depths = {}

    def depth_of(k):
        # psi errs by at most coef * w**4 * b**(-3n) at depth n; each
        # segment keeps its share of a bound below prec.tol / 64.  A
        # segment's depth is certified when the scan first reaches it.
        if k not in depths:
            top = ends[k] * h
            depths[k] = _seed_depth(coef * top ** 4, top, b,
                                    math.pi * prec.tol / (64.0 * z_max * top))
        return depths[k]

    pieces = ((k, lo, min(lo + FREQUENCY_BLOCK, end))
              for k, end in enumerate(ends)
              for lo in range(ends[k - 1] if k else 0, end, FREQUENCY_BLOCK))

    m = d = 0.0
    pending = next(pieces)
    while True:
        # one kernel call over whole pieces, up to FREQUENCY_BLOCK
        # frequencies; a piece past the depth cap only ever comes first
        batch, pending = [pending], None
        for piece in pieces:
            if (piece[2] - batch[0][1] > FREQUENCY_BLOCK
                    or depth_of(piece[0]) > MGF_PRECISION.max_iter):
                pending = piece
                break
            batch.append(piece)
        last = batch[-1]
        if depth_of(last[0]) > MGF_PRECISION.max_iter:
            raise PrecisionError(
                f"characteristic function needs depth {depth_of(last[0])} at "
                f"frequency {h * last[2]:.4g}, cap is {MGF_PRECISION.max_iter}"
            )
        first = batch[0][1]
        omega = h * np.arange(first + 1, last[2] + 1)
        depth = np.concatenate([np.full(hi - lo, depth_of(k)) for k, lo, hi in batch])
        psi, dpsi = (_complement_iteration(1j * omega, v, depth, slope=True) if slope
                     else (_complement_iteration(1j * omega, v, depth), None))

        for k, lo, hi in batch:
            part = slice(lo - first, hi - first)
            om, ps, dps = omega[part], psi[part], dpsi[part] if slope else None
            top = om >= h * ends[k] / b
            if top.any():
                m = max(m, float(np.abs(ps[top]).max()))
                if slope:
                    d = max(d, float(np.abs(dps[top]).max()))
            end = (hi, depths[k], m, d) if hi == ends[k] else None
            yield om, ps, dps, coef * b ** (-3 * depths[k]), end
            if end:
                if hi == prec.max_iter:
                    return
                m = d = 0.0


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

    on w_j = j*h, h = 2*pi/T, for every z at once: per piece of
    frequencies, one table holds psi**z for z = 1..z_max, filled by
    in-place multiplies, and each point takes one real matrix-vector
    product of it with the interleaved cos and sin of w_j*t.  psi comes
    piece by piece, each segment at its own certified transform depth
    (_transform_pieces).  The full sum is sum_k f_z(t + k*T); the period
    T = 4*max(z_max, t) + 8 puts every aliased copy far out in the right
    tail of every candidate, and that term is not part of the bound.

    A point stops at the end of the first segment where all its bounds
    are at most prec.tol, so its value does not depend on the other
    points.

    Bound.  Summation by parts bounds what the sum leaves out past the
    top frequency Omega by (|psi(Omega)**z| + int_Omega^inf |(psi**z)'|)
    * h / (2*pi*sin(h*t/2)), about 1/(pi*t) times the bracket.  Both
    terms follow from the top octave [Omega/b, Omega]: psi(b*w) =
    (1-v)*psi + v*psi**2 and b*psi'(b*w) = psi'(w)*(1-v+2*v*psi) shrink
    |psi| by r = 1-v+v*M and |psi'| by q/b, q = 1-v+2*v*M, per octave,
    M = max |psi| on the octave's grid points (psi' from the same loop by
    forward differentiation), so the integral is at most
    Omega*(v/b)*z*M**(z-1)*D*p/(1-p) with p = r**(z-1)*q and D = max |psi'|
    there.  The transform error adds z*(h/pi) times the sum of psi's
    certified errors over the frequencies.  Values are returned as
    computed, negative ones included.

    Raises PrecisionError when a point's bounds still exceed prec.tol at
    prec.max_iter frequencies, carrying every value and bound there, or
    when psi needs a depth beyond MGF_PRECISION.max_iter.
    """
    pts = np.atleast_1d(np.asarray(t, dtype=float))
    if pts.ndim != 1 or pts.size == 0:
        raise ValueError("t must be a scalar or a nonempty 1-d array")
    if not np.all(np.isfinite(pts)) or np.any(pts <= 0.0):
        raise ValueError("t must be positive and finite")
    if not 0.0 < v < 1.0:
        raise ValueError(
            "density needs efficiency below 1; at v=1 the limit is the constant z"
        )
    if not float(z_max).is_integer():
        raise ValueError("z_max must be an integer")
    z_max = int(z_max)
    if z_max < 1:
        raise ValueError("z_max must be at least 1")

    b = 1.0 + v
    period = 4.0 * max(z_max, float(pts.max())) + 8.0
    h = 2.0 * math.pi / period
    z = np.arange(1.0, z_max + 1.0)
    abel = h / (2.0 * math.pi * np.sin(0.5 * h * pts))

    sums = np.zeros((z_max, pts.size))
    values = np.empty_like(sums)
    bounds = np.empty_like(sums)
    todo = np.ones(pts.size, dtype=bool)
    psi_error = 0.0
    for om, ps, _, err, end in _transform_pieces(h, v, z_max, prec, slope=True):
        om2 = om * om
        psi_error += err * float(om2 @ om2)
        # powers[z-1] = ps**z, each row by one in-place multiply of the last
        powers = np.empty((z_max, ps.size), dtype=complex)
        powers[0] = ps
        for r in range(1, z_max):
            np.multiply(powers[r - 1], ps, out=powers[r])
        # Re(p * exp(-i w t)) = Re(p) cos(w t) + Im(p) sin(w t): one real
        # matrix-vector product per open point on the interleaved parts,
        # so a point's sum does not depend on the others
        table = powers.view(float)
        act = np.flatnonzero(todo)
        phase = np.exp(1j * np.outer(pts[act], om))
        for j, wave in zip(act, phase):
            sums[:, j] += table @ wave.view(float)
        if end is None:
            continue

        # checkpoint at the end of a segment: the bound of every point
        points, depth, m, d = end
        p = (1.0 - v + v * m) ** (z - 1.0) * (1.0 - v + 2.0 * v * m)
        tail = np.full(z_max, np.inf)
        ok = p < 1.0
        tail[ok] = (om[-1] * (v / b) * d * z[ok] * m ** (z[ok] - 1.0)
                    * p[ok] / (1.0 - p[ok]))
        edge = np.abs(ps[-1]) ** z + tail
        bound = edge[:, None] * abel + (z * (h / math.pi) * psi_error)[:, None]
        values[:, todo] = (h / math.pi) * (0.5 + sums[:, todo])
        bounds[:, todo] = bound[:, todo]
        todo &= ~np.all(bound <= prec.tol, axis=0)
        if not todo.any():
            return AncestorDensity(values, bounds, points, depth)
    raise PrecisionError(
        f"density bound {bounds[:, todo].max():.3g} above "
        f"tol={prec.tol} at the cap of {prec.max_iter} frequencies",
        value=values, bound=bounds,
    )


@dataclass(frozen=True)
class AncestorCDF:
    """Distribution function of the z-ancestor limit W(z) at given points.

    values holds P(W(z) <= t) at each point, each within the certified
    bound, which is one for all points.  The sum took `points`
    frequencies, the highest at transform depth `depth`.
    """

    values: np.ndarray
    bound: float
    points: int
    depth: int


def ancestor_cdf(t, v: float, z: int,
                 prec: Precision = DENSITY_PRECISION) -> AncestorCDF:
    """Exact distribution function of W(z) at each point of t.

    Integrating ancestor_density's trapezoid sum term by term from 0 gives

        F_z(t) ~ (h/pi) * (t/2 + sum_j Re(psi_j**z * (1 - exp(-i w_j t)) / (i w_j)))

    on the same grid w_j = j*h, h = 2*pi/T, T = 4*max(z, t) + 8, with
    psi_j = psi(w_j) from the same segments, transform depths and kernel
    calls (_transform_pieces).  The sum over j is a Horner recursion in
    q = exp(-i h t), elementwise, so a point's value depends on the others
    only through the period.

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
    the first segment where the bound is at most prec.tol.

    Aliasing.  The sum integrates sum_k f_z(t + k*T) from 0, which
    exceeds F_z(t) by sum_{k>=1} P(kT < W(z) <= kT + t) <= P(W(z) > T);
    the period puts that far out in the right tail, and it is not part of
    the bound.  Values are returned as computed, even slightly outside
    [0, 1].

    At v = 1, W(z) = z, so F is the step at z, exact with bound 0 and no
    frequencies.  Raises PrecisionError when the bound still exceeds
    prec.tol at prec.max_iter frequencies, carrying the values and the
    bound there, or when psi needs a depth beyond MGF_PRECISION.max_iter.
    """
    pts = np.atleast_1d(_as_nonnegative_array(t, "t"))
    if pts.ndim != 1 or pts.size == 0:
        raise ValueError("t must be a scalar or a nonempty 1-d array")
    if not 0.0 < v <= 1.0:
        raise ValueError("efficiency must be in (0, 1]")
    if not float(z).is_integer():
        raise ValueError("z must be an integer")
    z = int(z)
    if z < 1:
        raise ValueError("z must be at least 1")
    if v == 1.0:
        return AncestorCDF((pts >= z).astype(float), 0.0, 0, 0)

    b = 1.0 + v
    period = 4.0 * max(z, float(pts.max())) + 8.0
    h = 2.0 * math.pi / period
    coefs = []
    psi_error = 0.0
    for om, ps, _, err, end in _transform_pieces(h, v, z, prec, slope=False):
        coefs.append(ps ** z / (1j * om))
        psi_error += err * float(np.sum(om * om * om))
        if end is None:
            continue
        points, depth, m, _ = end
        top, r = float(om[-1]), 1.0 - v + v * m
        rz = r ** z
        tail = (((b - 1.0) * top / h + 1.0) * m ** z * rz / (top * (1.0 - rz))
                if rz < 1.0 else math.inf)
        bound = (2.0 * h / math.pi) * (tail + z * psi_error)
        if bound <= prec.tol or points == prec.max_iter:
            break
    c = np.concatenate(coefs)
    q = np.exp(-1j * h * pts)
    acc = np.full(pts.size, c[-1])
    for cj in c[-2::-1]:
        acc *= q
        acc += cj
    acc *= q
    values = (h / math.pi) * (0.5 * pts + (float(c.real.sum()) - acc.real))
    if not bound <= prec.tol:
        raise PrecisionError(
            f"distribution bound {bound:.3g} above tol={prec.tol} at the cap "
            f"of {prec.max_iter} frequencies", value=values, bound=bound,
        )
    return AncestorCDF(values, bound, points, depth)


def _silverman_bandwidth(samples: np.ndarray) -> float:
    sd = samples.std(ddof=1)
    q75, q25 = np.percentile(samples, [75, 25])
    spread = min(sd, (q75 - q25) / 1.34)
    if spread <= 0.0:
        raise PointMassError(
            "sample spread is zero; distribution is a point mass",
            location=float(samples[0]),
        )
    return 0.9 * spread * samples.size ** (-0.2)


def _kde_values(samples: np.ndarray, bandwidth: float, points: np.ndarray) -> np.ndarray:
    norm = 1.0 / (samples.size * bandwidth * math.sqrt(2.0 * math.pi))
    out = np.zeros(points.size, dtype=float)
    # chunk the sample axis to bound the broadcast buffer
    step = max(1, 2 ** 22 // max(points.size, 1))
    for start in range(0, samples.size, step):
        block = samples[start : start + step, None]
        u = (points[None, :] - block) / bandwidth
        out += np.exp(-0.5 * u * u).sum(axis=0)
    return norm * out


def pointwise_density(samples, points) -> np.ndarray:
    """Gaussian kernel density of raw samples at arbitrary points.

    Same bandwidth rule as limit_density but without the grid and mass
    checks.  The likelihood scan no longer uses it (it evaluates the
    exact density, ancestor_density); it stays public for callers that
    bind it by name.
    """
    samples = np.asarray(samples, dtype=float)
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    if samples.size < 2:
        raise ValueError("need at least two samples")
    bw = _silverman_bandwidth(samples)
    return _kde_values(samples, bw, pts)


def _default_grid(samples: np.ndarray) -> np.ndarray:
    hi = samples.mean() + 6.0 * samples.std(ddof=1)
    return np.linspace(0.0, hi, 512)


def limit_density(ens: LimitEnsemble, grid: np.ndarray | None = None) -> DensityEstimate:
    """Gaussian kernel density of the ensemble.

    Bandwidth is 0.9*min(sd, IQR/1.34)*count**(-1/5); the default grid has
    512 points from 0 to mean + 6 sd.  Degenerate ensembles (efficiency 1)
    are refused with PointMassError since the law is a point mass at z.
    """
    if ens.count < MIN_DENSITY_COUNT:
        raise ValueError(f"need at least {MIN_DENSITY_COUNT} samples, got {ens.count}")
    if ens.v == 1.0:
        raise PointMassError(
            "limit at efficiency 1 is the constant z", location=float(ens.z)
        )
    bw = _silverman_bandwidth(ens.samples)
    g = _default_grid(ens.samples) if grid is None else np.asarray(grid, dtype=float)
    return DensityEstimate(g, _kde_values(ens.samples, bw, g), bw)


def write_ensemble_csv(ens: LimitEnsemble, path) -> None:
    """One sample per line, after a metadata comment."""
    with open(path, "w") as fh:
        fh.write(
            f"# v={ens.v:.17g} z={ens.z} n_gen={ens.n_gen} "
            f"count={ens.count} seed={ens.seed}\n"
        )
        fh.write("sample\n")
        for x in ens.samples:
            fh.write(f"{x:.17g}\n")


def read_ensemble_csv(path) -> LimitEnsemble:
    """Inverse of write_ensemble_csv."""
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("# "):
            raise ValueError("missing metadata header")
        meta = dict(item.split("=", 1) for item in header[2:].split())
        fh.readline()
        samples = np.array([float(line) for line in fh if line.strip()])
    return LimitEnsemble(
        samples,
        v=float(meta["v"]),
        z=int(meta["z"]),
        n_gen=int(meta["n_gen"]),
        seed=int(meta["seed"]),
    )


def write_density_csv(est: DensityEstimate, path) -> None:
    """Grid and density value per line, bandwidth in the metadata comment."""
    with open(path, "w") as fh:
        fh.write(f"# bandwidth={est.bandwidth:.17g}\n")
        fh.write("x,density\n")
        for x, y in zip(est.grid, est.values):
            fh.write(f"{x:.17g},{y:.17g}\n")

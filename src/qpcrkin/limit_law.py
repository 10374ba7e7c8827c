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
from dataclasses import dataclass

import numpy as np

from qpcrkin import streams
from qpcrkin.kinetics import (
    _ROUNDING,
    _SEED_ORDER,
    Precision,
    PrecisionError,
    _as_nonnegative_array,
    _growth_gaps,
    _seed_coefficients,
    _tail_depth,
)

__all__ = [
    "LimitEnsemble",
    "AncestorDensity",
    "AncestorCDF",
    "MGF_PRECISION",
    "DENSITY_PRECISION",
    "TRUNCATION_SCALE",
    "BLOCK_SIZE",
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

#: samples per Philox block: sample i is lane i % BLOCK_SIZE of block
#: i // BLOCK_SIZE.  The default ensemble size 10**4 is a multiple, so
#: no drawn lane is discarded.
BLOCK_SIZE = 1000

MGF_PRECISION = Precision(tol=1e-12, max_iter=10_000)

#: absolute error allowed in an exact density value, and the cap on the
#: number of frequencies of its inversion grid
DENSITY_PRECISION = Precision(tol=1e-4, max_iter=2 ** 16)

#: top frequency of the first segment of an inversion grid
FIRST_FREQUENCY = 16.0

#: frequencies per kernel call of the inversion, which bounds its arrays
FREQUENCY_BLOCK = 1024


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


def sample_limit(
    v: float,
    z: int = 1,
    count: int = 10 ** 4,
    seed: int = 0,
    n_gen: int | None = None,
) -> LimitEnsemble:
    """Sample the scaled-growth limit by truncating at depth n_gen.

    Each sample runs an independent branching trajectory from z molecules
    for n_gen generations and scales by b**n_gen.  Sample i is lane
    i % BLOCK_SIZE of block i // BLOCK_SIZE; block k is the stream keyed
    (seed, streams.GROWTH_LIMIT, replicate=k, aux=0), a purpose no
    trajectory uses, and advances all its lanes with one array binomial
    per generation.  Whole blocks are drawn and the result cut to count,
    so the first samples do not depend on count.
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
        if n_gen > MAX_GENERATIONS:
            raise ValueError("n_gen beyond the generation cap")
        if n_gen * math.log1p(v) < math.log(TRUNCATION_SCALE):
            raise ValueError(
                f"n_gen={n_gen} leaves the growth factor below {TRUNCATION_SCALE}; "
                f"need at least {default_generations(v)}"
            )
    # lanes are int64: keep the mean count z*b**n_gen 64-fold below overflow
    if math.log(z) + n_gen * math.log1p(v) > 57 * math.log(2.0):
        raise ValueError(f"z={z} at n_gen={n_gen} overflows the int64 molecule count")

    scale = math.exp(-n_gen * math.log1p(v))
    blocks = -(-count // BLOCK_SIZE)
    out = np.empty((blocks, BLOCK_SIZE), dtype=float)
    pool = streams.ReusableStream()
    for k in range(blocks):
        binom = pool.reset(seed, streams.GROWTH_LIMIT, k).binomial
        y = np.full(BLOCK_SIZE, z, dtype=np.int64)
        for _ in range(n_gen):
            y += binom(y, v)
        out[k] = y * scale
    return LimitEnsemble(out.ravel()[:count], v=v, z=z, n_gen=n_gen, seed=seed)


#: the transform kernel starts where |y| = |x|/b**n is at most this, so the
#: seed lies in the unit disk with room for rounding
_TRANSFORM_DOMAIN = 0.5


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


def _complement_iteration(x, v: float, c: list, depth, slope: bool = False):
    """The offspring map u -> (1-v)*u + v*u**2 applied depth times to P(x/b**depth).

    x = -s gives the Laplace transform E exp(-s W), x = i*omega the
    characteristic function E exp(i omega W); both satisfy the map's
    fixed-point equation.  The seed P is the Taylor polynomial 1 + sum
    c_k y**k of E exp(y W) of degree d, c = _transform_coefficients(v)[0],
    clamped radially onto the closed unit disk.  For y on the nonpositive
    real axis or the imaginary axis P errs by at most c_{d+1}*|y|**(d+1);
    E exp(y W) lies in the disk, so the clamp cannot increase that error,
    and the map keeps the disk and has slope at most b on it.  Raises
    PrecisionError when some |x|/b**depth exceeds 1.

    y is formed as x/|x| * exp(log|x| - depth*log(b)), as limit_profile
    forms its start, since b**-depth underflows where |x| is huge.  The
    loop runs on the complement w = 1 - u, as w -> w*(b - v*w), which
    keeps relative precision once x/b**depth underflows the spacing of
    floats near 1.  depth is one int, or one per element of x in
    nondecreasing order: the deepest elements start first and the others
    join as their own depth remains.  With slope=True it also returns
    du/dx, carried along the same loop by forward differentiation.
    """
    b = 1.0 + v
    if np.ndim(depth) == 0:
        levels, parts = [depth], [...]
    else:
        starts = np.flatnonzero(np.diff(depth, prepend=-1))
        levels = depth[starts].tolist()
        parts = [slice(lo, None) for lo in starts.tolist()]
    size = np.abs(x)
    with np.errstate(divide="ignore"):
        scaled = np.exp(np.log(size) - depth * math.log(b))
    top = float(scaled.max(initial=0.0))
    if not top <= 1.0:
        raise PrecisionError(
            f"transform argument reaches {top:.4g} at depth {np.max(depth)}; "
            f"the seed needs at most 1"
        )
    y = x / np.where(size > 0.0, size, 1.0) * scaled
    d = _SEED_ORDER
    # in place throughout: the working set is w, dw and two scratch arrays;
    # w = -(c_1 y + ... + c_d y**d) by Horner
    w = np.multiply(y, -c[d], out=np.empty_like(y))
    for k in range(d - 1, 0, -1):
        w -= c[k]
        w *= y
    # the clamp onto the unit disk: u = 1 - w to u/|u| where |u| > 1
    u = 1.0 - w
    out = np.abs(u) > 1.0
    w[out] = 1.0 - u[out] / np.abs(u[out])
    dw = None
    if slope:
        # dw/dx = -b**-depth * P'(y), P' by Horner
        dw = np.full_like(y, d * c[d])
        for k in range(d - 1, 0, -1):
            dw *= y
            dw += k * c[k]
        dw *= -np.exp(-depth * math.log(b))
    vw = y
    tmp = u
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
    to the seed P(-s/b**n) of degree d (_complement_iteration), at one
    depth n.  The seed errs by at most c_{d+1} * (s/b**n)**(d+1) and the
    map's slope is at most b, so the result is within c_{d+1} * s**(d+1)
    * b**(-d*n) of the transform; n is the certified depth for prec.tol
    at the largest s (kinetics._tail_depth), finite for every finite s.  At
    v = 1 the limit is the constant 1 and the result is exp(-s), at depth
    0.  Scalars map to floats, arrays map elementwise.

    Raises PrecisionError when that depth exceeds prec.max_iter; the
    exception carries the value at the cap and its error bound, formed
    in logs, inf where the cap leaves s/b**n above _TRANSFORM_DOMAIN.
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
    c, r = _transform_coefficients(v)
    n, depth, bound = _tail_depth(r, smax, b, prec.tol, _TRANSFORM_DOMAIN, prec.max_iter)
    u = _complement_iteration(-arr, v, c, depth)
    if n > prec.max_iter:
        raise PrecisionError(
            f"transform needs depth {n} for tol={prec.tol}, cap is {prec.max_iter}",
            value=float(u) if scalar else u, bound=bound,
        )
    return float(u) if scalar else u


def _transform_pieces(h: float, v: float, z_max: int, prec: Precision,
                      slope: bool):
    """psi(w) = E exp(i w W) on w_j = j*h, j >= 1, piece by piece.

    Frequencies come in segments: j <= N0 (N0*h just reaches
    FIRST_FREQUENCY), then (N0*2**(k-1), N0*2**k], up to prec.max_iter.
    Yields (om, ps, dps, err, end) per piece of at most FREQUENCY_BLOCK
    frequencies: psi (and psi' with slope=True) at om, within err * om**(d+1);
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
    c, coef = _transform_coefficients(v)
    depths = {}

    def depth_of(k):
        # psi errs by at most coef * w**(d+1) * b**(-d*n) at depth n; each
        # segment keeps its share of a bound below prec.tol / 64.  A
        # segment's depth is certified when the scan first reaches it.
        if k not in depths:
            top = ends[k] * h
            depths[k] = _tail_depth(coef, top, b, math.pi * prec.tol / (64.0 * z_max * top),
                                    _TRANSFORM_DOMAIN)[0]
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
        psi, dpsi = (_complement_iteration(1j * omega, v, c, depth, slope=True) if slope
                     else (_complement_iteration(1j * omega, v, c, depth), None))

        for k, lo, hi in batch:
            part = slice(lo - first, hi - first)
            om, ps, dps = omega[part], psi[part], dpsi[part] if slope else None
            top = om >= h * ends[k] / b
            if top.any():
                m = max(m, float(np.abs(ps[top]).max()))
                if slope:
                    d = max(d, float(np.abs(dps[top]).max()))
            end = (hi, depths[k], m, d) if hi == ends[k] else None
            yield om, ps, dps, coef * b ** (-_SEED_ORDER * depths[k]), end
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
        psi_error += err * float(np.sum(om ** (_SEED_ORDER + 1)))
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
        psi_error += err * float(np.sum(om ** _SEED_ORDER))
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

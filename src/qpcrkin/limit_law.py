"""The scaled-growth limit of the constant-probability branching reference.

Normalizing the branching reference by b**n gives a positive martingale
whose almost-sure limit has mean 1 per starting molecule and variance
(1-v)/(1+v).  This module samples that limit by deep truncation, evaluates
its Laplace transform through the offspring fixed-point recursion at a
certified depth, and estimates its density from samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qpcrkin import streams
from qpcrkin.kinetics import Precision, PrecisionError, _certified_depth

__all__ = [
    "LimitEnsemble",
    "DensityEstimate",
    "PointMassError",
    "MGF_PRECISION",
    "TRUNCATION_SCALE",
    "limit_variance",
    "sample_limit",
    "limit_mgf",
    "limit_density",
    "default_generations",
    "write_ensemble_csv",
    "read_ensemble_csv",
    "write_density_csv",
]

#: truncation rule: simulate until b**n_gen reaches this scale
TRUNCATION_SCALE = 10 ** 6

#: generation cap guarding absurd requests at tiny efficiencies
MAX_GENERATIONS = 100_000

MGF_PRECISION = Precision(tol=1e-12, max_iter=10_000)

MIN_DENSITY_COUNT = 10 ** 4


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
        if np.any(arr <= 0.0):
            raise ValueError("limit samples must be positive")
        if self.v == 1.0 and not np.all(arr == float(self.z)):
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
    stream_tag: int = 0,
) -> LimitEnsemble:
    """Sample the scaled-growth limit by truncating at depth n_gen.

    Each sample runs an independent branching trajectory from z molecules
    for n_gen generations and scales by b**n_gen; replicate i draws from
    its own stream.  n_gen defaults to the smallest depth with
    b**n_gen >= 10**6.
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

    scale = math.exp(-n_gen * math.log1p(v))
    out = np.empty(count, dtype=float)
    pool = streams.ReusableStream()
    for i in range(count):
        gen = pool.reset(seed, purpose, i, stream_tag)
        binom = gen.binomial
        y = z
        for _ in range(n_gen):
            y += binom(y, v)
        out[i] = y * scale
    return LimitEnsemble(out, v=v, z=z, n_gen=n_gen, seed=seed)


def limit_mgf(s, v: float, prec: Precision = MGF_PRECISION):
    """Laplace transform E[exp(-s * limit)] for one starting molecule, s >= 0.

    Evaluated as the n-fold offspring map u -> (1-v)*u + v*u**2 applied
    to exp(-s/b**n), at one depth n.  The seed exp(-x) errs by at most
    x**2 * var/2 with var = (1-v)/(1+v), and the map's slope is at most b,
    so the result is within s**2 * var/2 * b**-n of the transform; n is
    the certified depth for prec.tol (0 at v = 1, where the transform is
    exp(-s)).  Scalars map to floats, arrays map elementwise.

    Raises PrecisionError when that depth exceeds prec.max_iter; the
    exception carries the value at the cap and its error bound.
    """
    if not 0.0 < v <= 1.0:
        raise ValueError("efficiency must be in (0, 1]")
    arr = np.asarray(s, dtype=float)
    scalar = np.ndim(s) == 0
    if arr.size and np.any(arr < 0.0):
        raise ValueError("s must be nonnegative")
    if arr.size == 0:
        return arr.copy()

    b = 1.0 + v
    smax = float(arr.max())
    c = 0.5 * limit_variance(v) * smax * smax
    n = _certified_depth(c, b, prec.tol)
    depth = min(n, prec.max_iter)
    # Complement w = 1 - u keeps relative precision once s/b**n underflows
    # the spacing of floats near 1; the map is 1 - h(1 - w).
    w = -np.expm1(-arr * math.exp(-depth * math.log(b)))
    for _ in range(depth):
        w = b * w - v * w * w
    u = 1.0 - w
    if n > prec.max_iter:
        raise PrecisionError(
            f"transform needs depth {n} for tol={prec.tol}, cap is {prec.max_iter}",
            value=float(u) if scalar else u,
            bound=c * b ** -depth,
        )
    return float(u) if scalar else u


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
    checks; meant for likelihood evaluation at a handful of points.
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

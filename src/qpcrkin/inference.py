"""Copy-number and efficiency estimation from threshold-crossing data.

The observable side of the model: a trajectory is reduced to the first
cycle at which the density reaches a detection threshold rho, plus the
densities kappa_0, kappa_1, ... recorded from that cycle on.  Centering
the crossing cycle by round(log_b K) gives the offset tau, and the limit
identity kappa_j ~ H(W(z) * b**(tau+j)) turns each kappa into an
observation t_j = b**(-tau-j) * G(kappa_j) of the growth limit W(z).
For efficiency 1 the limit is the copy number itself and inversion is
exact up to rounding; below 1 the copy number sits behind the limit law
and is estimated either by a likelihood scan over integer z or by a
closed-form normal approximation.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import streams
from .kinetics import (
    INVERSE_PRECISION,
    Kinetics,
    Precision,
    inverse_profile,
)
from .simulate import Trajectory, densities
from .limit_law import limit_variance, pointwise_density, sample_limit

__all__ = [
    "MAX_KAPPAS",
    "MIN_PROFILE_COUNT",
    "NotDetectedError",
    "OutOfSupportError",
    "BoundaryWarning",
    "Observation",
    "EstimateReport",
    "hitting_time",
    "observe",
    "estimate_efficiency",
    "limit_observables",
    "limit_observables_batch",
    "invert_copies",
    "estimate_copies_normal",
    "copy_profile",
    "estimate_copies_mle",
    "estimate_from_trajectory",
    "write_report_json",
    "read_report_json",
]

# Later cycles drift away from the limit identities as saturation sets in,
# so estimation uses at most this many densities after the crossing.
MAX_KAPPAS = 5

# Floor on the per-candidate ensemble size in the likelihood scan.
MIN_PROFILE_COUNT = 1000


class NotDetectedError(RuntimeError):
    """No density in the trajectory reached the detection threshold."""


class OutOfSupportError(ValueError):
    """The observed value has vanishing density for every candidate."""

    def __init__(self, msg, point, nearest_z, nearest_sample):
        super().__init__(msg)
        self.point = point
        self.nearest_z = nearest_z
        self.nearest_sample = nearest_sample


class BoundaryWarning(UserWarning):
    """The likelihood scan peaked at the edge of the candidate range."""


def _log_scale_cycles(K: float, b: float) -> int:
    return round(math.log(K) / math.log(b))


@dataclass(frozen=True)
class Observation:
    """Detection data extracted from one trajectory.

    n_hit is the absolute crossing cycle and tau = n_hit - round(log_b K)
    its centered offset, negative in the usual regime where detection
    happens before the scale cycle.  kappas holds the densities at and
    after the crossing.
    """

    rho: float
    K: float
    n_hit: int
    tau: int
    kappas: np.ndarray
    v_known: float | None = None

    def __post_init__(self):
        arr = np.asarray(self.kappas, dtype=float)
        object.__setattr__(self, "kappas", arr)
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must be in (0, 1)")
        if self.K <= 1.0:
            raise ValueError("K must exceed 1")
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("kappas must be a nonempty 1-d sequence")
        if arr[0] < self.rho:
            raise ValueError("kappa_0 must be at least rho")
        if np.any(np.diff(arr) <= 0.0):
            raise ValueError("kappas must be strictly increasing")
        if self.n_hit < 0:
            raise ValueError("n_hit must be a cycle index")
        if self.v_known is not None:
            if not 0.0 < self.v_known <= 1.0:
                raise ValueError("v_known must be in (0, 1]")
            b = 1.0 + self.v_known
            if self.tau != self.n_hit - _log_scale_cycles(self.K, b):
                raise ValueError("tau inconsistent with n_hit and round(log_b K)")


def hitting_time(traj: Trajectory, rho: float) -> tuple[int, int]:
    """First cycle whose density reaches rho, absolute and centered.

    Returns (n_hit, tau) with tau = n_hit - round(log_b K).  Raises
    NotDetectedError when the trajectory never reaches the threshold.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must be in (0, 1)")
    x = densities(traj)
    hits = np.nonzero(x >= rho)[0]
    if hits.size == 0:
        raise NotDetectedError(
            f"density never reached {rho} within {traj.n_cycles} cycles"
        )
    n_hit = int(hits[0])
    kin = traj.kinetics
    return n_hit, n_hit - _log_scale_cycles(kin.K, kin.b)


def observe(
    traj: Trajectory,
    rho: float,
    v_known: float | None = None,
    max_kappas: int = MAX_KAPPAS,
) -> Observation:
    """Detection-time observation; tau is centred with v_known if given."""
    if max_kappas < 1:
        raise ValueError("max_kappas must be positive")
    n_hit, tau = hitting_time(traj, rho)
    if v_known is not None:
        if not 0.0 < v_known <= 1.0:
            raise ValueError("v_known must be in (0, 1]")
        tau = n_hit - _log_scale_cycles(traj.kinetics.K, 1.0 + v_known)
    x = densities(traj)
    kappas = x[n_hit : n_hit + max_kappas]
    return Observation(
        rho=rho, K=traj.kinetics.K, n_hit=n_hit, tau=tau,
        kappas=kappas, v_known=v_known,
    )


def estimate_efficiency(kappas) -> float:
    """Invert the one-cycle density relation for the efficiency.

    Each consecutive pair gives v_j = (kappa_{j+1} - kappa_j) *
    (1 + kappa_j) / kappa_j; the estimate is the mean over the pairs
    among the first MAX_KAPPAS values.
    """
    arr = np.asarray(kappas, dtype=float)[:MAX_KAPPAS]
    if arr.size < 2:
        raise ValueError("need at least two densities")
    if np.any(arr <= 0.0):
        raise ValueError("densities must be positive")
    pair = (arr[1:] - arr[:-1]) * (1.0 + arr[:-1]) / arr[:-1]
    return float(pair.mean())


def _resolve_v(obs: Observation, v: float | None) -> float:
    if v is None:
        v = obs.v_known
    if v is None:
        raise ValueError("efficiency unknown; pass v or set v_known")
    if not 0.0 < v <= 1.0:
        raise ValueError("efficiency must be in (0, 1]")
    return float(v)


def limit_observables_batch(
    observations,
    v: float | None = None,
    prec: Precision = INVERSE_PRECISION,
) -> list[np.ndarray]:
    """Recover t_j = b**(-tau-j) * G(kappa_j) for many observations at once.

    All kappas are inverted in a single vectorized call, which matters
    when processing thousands of replicates.  Only the first MAX_KAPPAS
    densities of each observation are used.
    """
    observations = list(observations)
    if not observations:
        return []
    vs = {_resolve_v(o, v) for o in observations}
    if len(vs) > 1:
        raise ValueError("observations mix different efficiencies")
    v_eff = vs.pop()
    kin = Kinetics(v=v_eff, K=observations[0].K)

    kappas = [o.kappas[:MAX_KAPPAS] for o in observations]
    sizes = [k.size for k in kappas]
    flat = np.concatenate(kappas)
    w = inverse_profile(flat, kin, prec)
    out = []
    start = 0
    for o, size in zip(observations, sizes):
        j = np.arange(size)
        scale = kin.b ** (-(o.tau + j).astype(float))
        out.append(w[start : start + size] * scale)
        start += size
    return out


def limit_observables(
    obs: Observation,
    v: float | None = None,
    prec: Precision = INVERSE_PRECISION,
) -> np.ndarray:
    """Recover the limit observables t_j for a single observation."""
    return limit_observables_batch([obs], v, prec)[0]


def invert_copies(obs: Observation, prec: Precision = INVERSE_PRECISION) -> int:
    """Exact copy-number inversion, valid only at efficiency 1.

    At v=1 the growth limit is the copy number itself, so each t_j equals
    z up to scale error; the mean over j is rounded to the nearest
    positive integer.
    """
    if obs.v_known != 1.0:
        raise ValueError("exact inversion requires v_known = 1")
    t = limit_observables(obs, prec=prec)
    return max(1, round(float(t.mean())))


def estimate_copies_normal(t, v: float, integer: bool = False):
    """Closed-form copy-number estimate from a normal approximation.

    Maximizes over real z the normal density with mean z and variance
    z*(1-v)/(1+v) at the observed t, which the score equation
    z**2 + s2*z - t**2 = 0 solves as sqrt(t**2 + s2**2/4) - s2/2.
    With integer=True the value is rounded and clamped to at least 1.
    """
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("t must be nonnegative")
    if not 0.0 < v <= 1.0:
        raise ValueError("efficiency must be in (0, 1]")
    s2 = limit_variance(v)
    z = np.sqrt(arr * arr + s2 * s2 / 4.0) - s2 / 2.0
    if integer:
        out = np.maximum(1, np.rint(z).astype(int))
        return int(out) if np.ndim(t) == 0 else out
    return float(z) if np.ndim(t) == 0 else z


def default_z_max(t: float) -> int:
    """Scan bound: the limit law concentrates near z, so 4t covers it."""
    return max(10, math.ceil(4.0 * float(t)))


def copy_profile(
    t,
    v: float,
    z_max: int | None = None,
    count: int = 10 ** 4,
    seed: int = 0,
    n_gen: int | None = None,
) -> np.ndarray:
    """Likelihood profile: density of the z-fold limit sum at t, z=1..z_max.

    Row z-1 holds the kernel-density value of the simulated law of the
    z-ancestor limit at each point of t.  Scalar t gives a flat profile
    of shape (z_max,).  Each candidate z draws its own ensemble from a
    stream tagged by z, so profiles are reproducible and candidates
    independent.
    """
    return _profile(t, v, z_max, count, seed, n_gen)[0]


def _nearest_samples(samples: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """The sample closest to each point (at least two samples)."""
    ordered = np.sort(samples)
    idx = np.clip(np.searchsorted(ordered, pts), 1, ordered.size - 1)
    lo, hi = ordered[idx - 1], ordered[idx]
    return np.where(pts - lo <= hi - pts, lo, hi)


def _profile(t, v, z_max, count, seed, n_gen) -> tuple[np.ndarray, np.ndarray]:
    """copy_profile and, in the same shape, each candidate's sample nearest t.

    Each candidate ensemble is drawn once and serves both the density and
    the out-of-support diagnosis.
    """
    pts = np.atleast_1d(np.asarray(t, dtype=float))
    scalar = np.ndim(t) == 0
    if np.any(pts <= 0.0):
        raise ValueError("t must be positive")
    if not 0.0 < v < 1.0:
        raise ValueError(
            "likelihood scan needs efficiency below 1; "
            "the limit law at v=1 is a point mass, use invert_copies"
        )
    if z_max is None:
        z_max = default_z_max(pts.max())
    if z_max < 1:
        raise ValueError("z_max must be at least 1")
    if count < MIN_PROFILE_COUNT:
        raise ValueError(f"count must be at least {MIN_PROFILE_COUNT}")

    prof = np.empty((z_max, pts.size), dtype=float)
    nearest = np.empty_like(prof)
    for z in range(1, z_max + 1):
        samples = sample_limit(
            v, z=z, count=count, seed=seed, n_gen=n_gen,
            purpose=streams.MLE_SAMPLING, stream_tag=z,
        ).samples
        prof[z - 1] = pointwise_density(samples, pts)
        nearest[z - 1] = _nearest_samples(samples, pts)
    return (prof[:, 0], nearest[:, 0]) if scalar else (prof, nearest)


def _scan(t, v, z_max, count, seed, n_gen) -> tuple[int, np.ndarray]:
    """Likelihood scan over z = 1..z_max: (maximizer, profile at t)."""
    prof, nearest = _profile(t, v, z_max, count, seed, n_gen)
    if not np.any(prof > 0.0):
        idx = int(np.argmin(np.abs(nearest - t)))
        nearest_z, nearest_sample = idx + 1, float(nearest[idx])
        raise OutOfSupportError(
            f"t={t} is outside the sampled support of every candidate; "
            f"closest sample {nearest_sample:.6g} at z={nearest_z}",
            point=float(t), nearest_z=nearest_z, nearest_sample=nearest_sample,
        )
    z_hat = int(np.argmax(prof)) + 1
    if z_hat == prof.size:
        warnings.warn(
            f"likelihood peaked at the scan boundary z_max={prof.size}",
            BoundaryWarning,
        )
    return z_hat, prof


def estimate_copies_mle(
    t: float,
    v: float,
    z_max: int | None = None,
    count: int = 10 ** 4,
    seed: int = 0,
    n_gen: int | None = None,
) -> int:
    """Maximum-likelihood copy number over the integer scan 1..z_max.

    Ties break toward the smaller candidate.  A peak at z_max triggers
    BoundaryWarning since the true maximizer may lie beyond the scan;
    if every candidate has vanishing density at t the scan aborts with
    OutOfSupportError carrying the nearest sampled value.
    """
    return _scan(t, v, z_max, count, seed, n_gen)[0]


@dataclass(frozen=True)
class EstimateReport:
    """Full output of the estimation pipeline for one trajectory."""

    z_hat_mle: int | None
    z_hat_normal: float
    v_hat: float | None
    t_values: np.ndarray
    tau: int
    kappas: np.ndarray
    settings: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "t_values", np.asarray(self.t_values, dtype=float))
        object.__setattr__(self, "kappas", np.asarray(self.kappas, dtype=float))
        if self.z_hat_mle is not None and self.z_hat_mle < 1:
            raise ValueError("z_hat_mle must be a positive integer")
        if self.z_hat_normal <= 0.0:
            raise ValueError("z_hat_normal must be positive")
        if np.any(self.t_values <= 0.0):
            raise ValueError("t_values must all be positive")


def estimate_from_trajectory(
    traj: Trajectory,
    rho: float,
    v_known: float | None = None,
    fit_efficiency: bool = False,
    run_mle: bool = False,
    mle_count: int = 10 ** 4,
    mle_seed: int = 0,
    z_max: int | None = None,
    max_kappas: int = MAX_KAPPAS,
    prec: Precision = INVERSE_PRECISION,
) -> EstimateReport:
    """Run the whole chain: detect, recover limit observables, estimate.

    The efficiency used for inversion, and for centring tau, is v_known
    when given, otherwise the fitted value (fit_efficiency=True).  At
    efficiency 1 the exact inversion fills z_hat_mle; below 1 the
    likelihood scan does, when run_mle is set.
    """
    obs = observe(traj, rho, v_known=v_known, max_kappas=max_kappas)
    v_hat = None
    if fit_efficiency and obs.kappas.size >= 2:
        v_hat = estimate_efficiency(obs.kappas)
    v_eff = v_known if v_known is not None else v_hat
    if v_eff is None:
        raise ValueError(
            "efficiency unavailable: pass v_known or enable fit_efficiency "
            "with at least two observed densities"
        )
    if not 0.0 < v_eff <= 1.0:
        raise ValueError(f"fitted efficiency {v_eff:.6g} outside (0, 1]")
    if v_known is None:
        tau = obs.n_hit - _log_scale_cycles(obs.K, 1.0 + v_eff)
        obs = replace(obs, tau=tau)

    t_values = limit_observables(obs, v=v_eff, prec=prec)
    t_mean = float(t_values.mean())
    z_normal = estimate_copies_normal(t_mean, v_eff)

    z_mle = None
    profile = None
    if v_eff == 1.0:
        z_mle = max(1, round(t_mean))
    elif run_mle:
        if z_max is None:
            z_max = default_z_max(t_mean)
        z_mle, profile = _scan(t_mean, v_eff, z_max, mle_count, mle_seed, None)

    settings = {
        "rho": rho,
        "K": traj.kinetics.K,
        "v_known": v_known,
        "fit_efficiency": fit_efficiency,
        "run_mle": run_mle,
        "mle_count": mle_count,
        "mle_seed": mle_seed,
        "z_max": z_max,
        "max_kappas": max_kappas,
    }
    diagnostics = {
        "t_spread": float(t_values.max() - t_values.min()),
        "mle_profile": None if profile is None else [float(p) for p in profile],
    }
    return EstimateReport(
        z_hat_mle=z_mle,
        z_hat_normal=float(z_normal),
        v_hat=v_hat,
        t_values=t_values,
        tau=obs.tau,
        kappas=obs.kappas,
        settings=settings,
        diagnostics=diagnostics,
    )


def write_report_json(report: EstimateReport, path) -> None:
    doc = {
        "z_hat_mle": report.z_hat_mle,
        "z_hat_normal": report.z_hat_normal,
        "v_hat": report.v_hat,
        "t_values": [float(t) for t in report.t_values],
        "tau": report.tau,
        "kappas": [float(k) for k in report.kappas],
        "settings": report.settings,
        "diagnostics": report.diagnostics,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def read_report_json(path) -> EstimateReport:
    with open(path) as fh:
        doc = json.load(fh)
    return EstimateReport(
        z_hat_mle=doc["z_hat_mle"],
        z_hat_normal=doc["z_hat_normal"],
        v_hat=doc["v_hat"],
        t_values=np.asarray(doc["t_values"], dtype=float),
        tau=doc["tau"],
        kappas=np.asarray(doc["kappas"], dtype=float),
        settings=doc["settings"],
        diagnostics=doc["diagnostics"],
    )

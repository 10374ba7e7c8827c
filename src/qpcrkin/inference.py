"""Copy-number and efficiency estimation from threshold-crossing data.

The observable side of the model: a trajectory is reduced to the first
cycle n_hit at which the density reaches a detection threshold rho, plus
the densities kappa_0 .. kappa_{MAX_KAPPAS-1} recorded from that cycle
on.  An Observation holds only these and K, what an experimenter sees;
the efficiency v is never part of it, and every inversion takes v as an
argument, known or fitted from the kappas.  The limit identity
kappa_j ~ H(W(z) * b**(n_hit+j) / K) turns each kappa into an
observation t_j = K * b**-(n_hit+j) * G(kappa_j) of the growth limit
W(z), scaled by K itself.  The centred offset tau = n_hit - round(log_b K)
is derived for reports only; it enters no estimate.
For efficiency 1 the limit is the copy number itself and inversion is
exact up to rounding; below 1 the copy number sits behind the limit law
and is estimated either by a likelihood scan over integer z, on the exact
density of the limit law, or by a closed-form normal approximation.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .kinetics import Kinetics, inverse_profile
from .simulate import Trajectory, _reading, _replacing, densities
from .limit_law import AncestorDensity, ancestor_density, limit_variance
from .streams import _is_int

__all__ = [
    "MAX_KAPPAS",
    "NotDetectedError",
    "OutOfSupportError",
    "BoundaryWarning",
    "Observation",
    "EstimateReport",
    "hitting_time",
    "observe",
    "observe_rows",
    "estimate_efficiency",
    "efficiency_rows",
    "limit_observables_batch",
    "limit_observables_rows",
    "estimate_copies_normal",
    "copy_profile",
    "estimate_from_trajectory",
    "write_report_json",
    "read_report_json",
]

# Later cycles drift away from the limit identities as saturation sets in,
# so estimation uses at most this many densities after the crossing.
MAX_KAPPAS = 5


class NotDetectedError(RuntimeError):
    """No density in the trajectory reached the detection threshold."""


class OutOfSupportError(ValueError):
    """Every candidate's density at the observed value is within its bound of 0.

    bound is the largest of the candidates' certified bounds at point.
    """

    def __init__(self, msg, point, bound):
        super().__init__(msg)
        self.point = point
        self.bound = bound


class BoundaryWarning(UserWarning):
    """The likelihood scan peaked at the edge of the candidate range."""


def _log_scale_cycles(K: float, b: float) -> int:
    return round(math.log(K) / math.log(b))


@dataclass(frozen=True)
class Observation:
    """Detection data extracted from one trajectory: only what is observed.

    n_hit is the absolute crossing cycle and kappas holds the densities
    at and after the crossing; with K they fix the limit observables
    t_j = K * b**-(n_hit+j) * G(kappa_j) for whichever efficiency the
    caller passes to limit_observables_batch.  The offset
    tau = n_hit - round(log_b K) enters no estimate; hitting_time and
    EstimateReport derive it for reference.
    """

    rho: float
    K: float
    n_hit: int
    kappas: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.kappas, dtype=float)
        object.__setattr__(self, "kappas", arr)
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must be in (0, 1)")
        if not (math.isfinite(self.K) and self.K > 1.0):
            raise ValueError("K must be finite and exceed 1")
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("kappas must be a nonempty 1-d sequence")
        if not np.isfinite(arr).all():
            raise ValueError("kappas must be finite")
        _check_kappa_rows(arr[None, :], self.rho)
        if not (_is_int(self.n_hit) and self.n_hit >= 0):
            raise ValueError("n_hit must be a cycle index, a nonnegative integer")


def _check_kappa_rows(kappas: np.ndarray, rho: float) -> None:
    """Each NaN-padded row starts at or above rho and increases strictly."""
    if (kappas[:, 0] < rho).any():
        raise ValueError("kappa_0 must be at least rho")
    # NaN padding compares false, so only pairs of observed densities count
    if (kappas[:, 1:] <= kappas[:, :-1]).any():
        raise ValueError("kappas must be strictly increasing")


def _crossings(x: np.ndarray, rho: float) -> np.ndarray:
    """First column at which each row of x reaches rho, -1 where none does."""
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must be in (0, 1)")
    reached = x >= rho
    return np.where(reached.any(axis=1), reached.argmax(axis=1), -1)


def _detected(n_hit, traj: Trajectory, rho: float) -> int:
    """traj's crossing cycle n_hit as an int; NotDetectedError where it is -1."""
    if n_hit < 0:
        raise NotDetectedError(
            f"density never reached {rho} within {traj.n_cycles} cycles"
        )
    return int(n_hit)


def observe_rows(x, rho: float) -> tuple:
    """Detection on many trajectories at once.

    x is a (rows, cycles + 1) density matrix.  Returns (n_hit, kappas):
    n_hit[i] is the first cycle at which row i reaches rho, -1 if it
    never does, and kappas[i] holds x[i, n_hit[i] : n_hit[i] + MAX_KAPPAS]
    padded with NaN, all NaN for a row that never reaches rho.
    """
    x = np.asarray(x, dtype=float)
    n_hit = _crossings(x, rho)
    detected = n_hit >= 0
    cols = n_hit[:, None] + np.arange(MAX_KAPPAS)
    # a column past the last cycle, or one of a row that never reaches
    # rho, reads an in-range column and is then set to NaN
    kappas = x[np.arange(x.shape[0])[:, None], np.minimum(cols, x.shape[1] - 1)]
    kappas[~detected[:, None] | (cols >= x.shape[1])] = np.nan
    _check_kappa_rows(kappas[detected], rho)
    return n_hit, kappas


def hitting_time(traj: Trajectory, rho: float) -> tuple[int, int]:
    """First cycle whose density reaches rho, absolute and centered.

    Returns (n_hit, tau) with tau = n_hit - round(log_b K).  Only the
    crossing is read, so unlike observe it accepts a trajectory that is
    flat after it.  Raises NotDetectedError when the trajectory never
    reaches the threshold.
    """
    n_hit = _detected(_crossings(densities(traj)[None, :], rho)[0], traj, rho)
    kin = traj.kinetics
    return n_hit, n_hit - _log_scale_cycles(kin.K, kin.b)


def observe(traj: Trajectory, rho: float) -> Observation:
    """Detection-time observation: row 0 of observe_rows for traj alone.

    Raises NotDetectedError as hitting_time does, and ValueError when the
    observed densities do not increase strictly.
    """
    n_hit, kappas = observe_rows(densities(traj)[None, :], rho)
    n_hit, row = _detected(n_hit[0], traj, rho), kappas[0]
    return Observation(rho=rho, K=traj.kinetics.K, n_hit=n_hit, kappas=row[~np.isnan(row)])


def efficiency_rows(kappas) -> np.ndarray:
    """estimate_efficiency of each NaN-padded row; NaN below two densities."""
    arr = np.asarray(kappas, dtype=float)[:, :MAX_KAPPAS]
    pair = (arr[:, 1:] - arr[:, :-1]) * (1.0 + arr[:, :-1]) / arr[:, :-1]
    n_pairs = np.count_nonzero(~np.isnan(pair), axis=1)
    total = np.nansum(pair, axis=1)
    return np.where(n_pairs > 0, total / np.maximum(n_pairs, 1), np.nan)


def estimate_efficiency(kappas) -> float:
    """Invert the one-cycle density relation for the efficiency.

    Each consecutive pair gives v_j = (kappa_{j+1} - kappa_j) *
    (1 + kappa_j) / kappa_j; the estimate is the mean over the pairs
    among the first MAX_KAPPAS values.  Raises ValueError unless those
    are finite, positive and strictly increasing, as the densities of an
    Observation are.
    """
    arr = np.asarray(kappas, dtype=float)[:MAX_KAPPAS]
    if arr.size < 2:
        raise ValueError("need at least two densities")
    if not np.isfinite(arr).all():
        raise ValueError("densities must be finite")
    if np.any(arr <= 0.0):
        raise ValueError("densities must be positive")
    if np.any(arr[1:] <= arr[:-1]):
        raise ValueError("densities must be strictly increasing")
    return float(efficiency_rows(arr[None, :])[0])


def limit_observables_rows(kappas, n_hit, kin: Kinetics) -> np.ndarray:
    """t_j = K * b**-(n_hit+j) * G(kappa_j) for each NaN-padded row of kappas.

    All observed kappas are inverted in one vectorized call with kin's
    efficiency and scale; n_hit holds one crossing cycle per row and
    padding stays NaN.  Only the first MAX_KAPPAS columns are used.
    """
    arr = np.asarray(kappas, dtype=float)[:, :MAX_KAPPAS]
    seen = ~np.isnan(arr)
    cycle = np.asarray(n_hit)[:, None] + np.arange(arr.shape[1])
    t = np.full(arr.shape, np.nan)
    t[seen] = inverse_profile(arr[seen], kin) * (
        kin.K * kin.b ** -cycle[seen].astype(float)
    )
    return t


def limit_observables_batch(observations, v: float) -> list[np.ndarray]:
    """Recover t_j = K * b**-(n_hit+j) * G(kappa_j) for many observations at once.

    The rows of limit_observables_rows at efficiency v, one per
    observation.  Only the first MAX_KAPPAS densities of each observation
    are used.  All observations must share one scale K.
    """
    observations = list(observations)
    if not observations:
        return []
    scales = {o.K for o in observations}
    if len(scales) > 1:
        raise ValueError("observations mix different scales K")
    kin = Kinetics(v=v, K=scales.pop())

    sizes = [min(o.kappas.size, MAX_KAPPAS) for o in observations]
    kappas = np.full((len(observations), max(sizes)), np.nan)
    for row, o, size in zip(kappas, observations, sizes):
        row[:size] = o.kappas[:size]
    n_hit = np.array([o.n_hit for o in observations])
    t = limit_observables_rows(kappas, n_hit, kin)
    return [row[:size] for row, size in zip(t, sizes)]


def estimate_copies_normal(t, v: float, integer: bool = False):
    """Closed-form copy-number estimate from a normal approximation.

    Maximizes over real z the normal density with mean z and variance
    z*(1-v)/(1+v) at the observed t, which the score equation
    z**2 + s2*z - t**2 = 0 solves as hypot(t, s2/2) - s2/2, which does
    not overflow for any finite t.  With integer=True the value is
    rounded and clamped to at least 1, and a rounded estimate of 2**63 or
    more, past the int64 range, raises ValueError.  At v=1, s2 = 0 and
    hypot(t, 0) == t, so the integer estimate is max(1, round(t)), the
    exact inversion, for every t in the int64 range.
    """
    arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(arr) & (arr >= 0.0)):
        raise ValueError("t must be finite and nonnegative")
    if not 0.0 < v <= 1.0:
        raise ValueError("efficiency must be in (0, 1]")
    s2 = limit_variance(v)
    z = np.hypot(arr, s2 / 2.0) - s2 / 2.0
    if integer:
        # floats below 2**63 round to integers below it
        if not np.all(z < 2.0 ** 63):
            raise ValueError(f"copy estimate {z.max():.4g} exceeds the int64 range")
        out = np.maximum(1, np.rint(z).astype(int))
        return int(out) if np.ndim(t) == 0 else out
    return float(z) if np.ndim(t) == 0 else z


def _resolve_z_max(t, z_max: int | None) -> int:
    """z_max, or by default max(10, 4 max(t)): the limit law concentrates near z."""
    if z_max is not None:
        return z_max
    return max(10, math.ceil(4.0 * float(np.max(t))))


def copy_profile(t, v: float, z_max: int | None = None) -> np.ndarray:
    """Likelihood profile: density of the z-fold limit sum at t, z=1..z_max.

    Row z-1 holds the exact density of the z-ancestor limit W(z) at each
    point of t, within limit_law.DENSITY_PRECISION.tol
    (limit_law.ancestor_density).  z_max defaults to max(10, 4 max(t)).
    Scalar t gives a flat profile of shape (z_max,).
    """
    values = ancestor_density(t, v, _resolve_z_max(t, z_max)).values
    return values[:, 0] if np.ndim(t) == 0 else values


def _scan(t, v, z_max) -> tuple[int, AncestorDensity]:
    """Likelihood scan over z = 1..z_max: (maximizer, densities at t).

    Ties break toward the smaller z.  A peak at z_max warns with
    BoundaryWarning, and t outside every candidate's certified support
    raises OutOfSupportError.
    """
    dens = ancestor_density(t, v, z_max)
    prof, bound = dens.values[:, 0], dens.bounds[:, 0]
    if np.all(np.abs(prof) <= bound):
        raise OutOfSupportError(
            f"t={t} is outside the support of every candidate: each density "
            f"is within its bound (at most {bound.max():.3g}) of 0",
            point=float(t), bound=float(bound.max()),
        )
    z_hat = int(np.argmax(prof)) + 1
    if z_hat == prof.size:
        warnings.warn(
            f"likelihood peaked at the scan boundary z_max={prof.size}",
            BoundaryWarning,
        )
    return z_hat, dens


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
        if self.z_hat_mle is not None and not (_is_int(self.z_hat_mle) and self.z_hat_mle >= 1):
            raise ValueError("z_hat_mle must be null or a positive integer")
        if isinstance(self.z_hat_normal, bool):
            raise ValueError("z_hat_normal must be a number, not a bool")
        if not (math.isfinite(self.z_hat_normal) and self.z_hat_normal > 0.0):
            raise ValueError("z_hat_normal must be finite and positive")
        # a fit is positive and clipped at 1; NaN fails the comparison too
        if self.v_hat is not None and not 0.0 < self.v_hat <= 1.0:
            raise ValueError("v_hat must be null or in (0, 1]")
        if not _is_int(self.tau):
            raise ValueError("tau must be an integer")
        if not (isinstance(self.settings, dict) and isinstance(self.diagnostics, dict)):
            raise ValueError("settings and diagnostics must be objects")
        if not np.all(np.isfinite(self.t_values) & (self.t_values > 0.0)):
            raise ValueError("t_values must all be finite and positive")
        if not np.all(np.isfinite(self.kappas)):
            raise ValueError("kappas must all be finite")


def estimate_from_trajectory(
    traj: Trajectory,
    rho: float,
    v_known: float | None = None,
    run_mle: bool = False,
    z_max: int | None = None,
) -> EstimateReport:
    """Run the whole chain: detect, recover limit observables, estimate.

    The efficiency used for inversion, and for the reported offset
    tau = n_hit - round(log_b K), is v_known when given.  Leaving v_known
    out fits the efficiency from the observed densities, which needs at
    least two of them; a fit above 1 is clipped to 1: v_hat reports the
    clipped value and diagnostics["v_hat_clipped_from"] the raw fit (None
    when not clipped).  At efficiency 1 the exact inversion fills
    z_hat_mle; below 1 the likelihood scan does, when run_mle is set, and
    the diagnostics record its profile, the certified bound of each
    value, and the number of frequencies and the transform depth of its
    inversion.
    """
    obs = observe(traj, rho)
    v_hat = v_raw = None
    if v_known is None:
        v_raw = estimate_efficiency(obs.kappas)
        v_eff = v_hat = min(v_raw, 1.0)
    elif 0.0 < v_known <= 1.0:
        v_eff = v_known
    else:
        raise ValueError(f"efficiency {v_known:.6g} outside (0, 1]")

    t_values = limit_observables_batch([obs], v_eff)[0]
    t_mean = float(t_values.mean())
    z_normal = estimate_copies_normal(t_mean, v_eff)

    z_mle = None
    dens = None
    if v_eff == 1.0:
        z_mle = estimate_copies_normal(t_mean, 1.0, integer=True)
    elif run_mle:
        z_max = _resolve_z_max(t_mean, z_max)
        z_mle, dens = _scan(t_mean, v_eff, z_max)

    settings = {
        "rho": rho,
        "K": traj.kinetics.K,
        "v_known": v_known,
        "fit_efficiency": v_known is None,
        "run_mle": run_mle,
        "z_max": z_max,
        "max_kappas": MAX_KAPPAS,
    }
    diagnostics = {
        "t_spread": float(t_values.max() - t_values.min()),
        "mle_profile": None if dens is None else dens.values[:, 0].tolist(),
        "mle_bound": None if dens is None else dens.bounds[:, 0].tolist(),
        "mle_points": None if dens is None else dens.points,
        "mle_depth": None if dens is None else dens.depth,
        "v_hat_clipped_from": v_raw if v_raw != v_hat else None,
    }
    return EstimateReport(
        z_hat_mle=z_mle,
        z_hat_normal=float(z_normal),
        v_hat=v_hat,
        t_values=t_values,
        tau=obs.n_hit - _log_scale_cycles(obs.K, 1.0 + v_eff),
        kappas=obs.kappas,
        settings=settings,
        diagnostics=diagnostics,
    )


def _json_fields(obj) -> dict:
    """obj's dataclass fields in order, arrays as lists; unlike asdict, no copies."""
    doc = {f.name: getattr(obj, f.name) for f in fields(obj)}
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in doc.items()}


def _read_json_fields(path, cls):
    """cls built from the JSON object at path, one key per dataclass field.

    Keys that are not fields are ignored.  Raises ValueError naming path
    when the file is not a JSON object, lacks a field, or holds a value
    cls refuses.
    """
    names = [f.name for f in fields(cls)]
    with _reading(path) as fh:
        doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
        missing = [name for name in names if name not in doc]
        if missing:
            raise ValueError(f"missing keys {missing}")
        return cls(**{name: doc[name] for name in names})


def write_report_json(report: EstimateReport, path) -> None:
    """Write a report as compact single-line JSON, one key per field.

    The encoder runs with allow_nan=False: a NaN or an infinity raises
    ValueError instead of writing NaN, which is not JSON.  The file is
    written whole or not at all (simulate._replacing).
    """
    with _replacing(path) as fh:
        fh.write(json.dumps(_json_fields(report), allow_nan=False) + "\n")


def read_report_json(path) -> EstimateReport:
    """Inverse of write_report_json."""
    return _read_json_fields(path, EstimateReport)

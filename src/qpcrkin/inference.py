"""Copy-number and efficiency estimation from threshold-crossing data.

The observable side of the model: a trajectory is reduced to the first
cycle at which the density reaches a detection threshold rho, plus the
densities kappa_0, kappa_1, ... recorded from that cycle on.  The limit
identity kappa_j ~ H(W(z) * b**(n_hit+j) / K) turns each kappa into an
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
from dataclasses import dataclass, field

import numpy as np

from .kinetics import Kinetics, inverse_profile
from .simulate import Trajectory, densities
from .limit_law import AncestorDensity, ancestor_density, limit_variance

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
    "limit_observables",
    "limit_observables_batch",
    "limit_observables_rows",
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
    """Detection data extracted from one trajectory.

    n_hit is the absolute crossing cycle and kappas holds the densities
    at and after the crossing; with K they fix the limit observables
    t_j = K * b**-(n_hit+j) * G(kappa_j) for whichever efficiency inverts
    them.  The offset tau = n_hit - round(log_b K) enters no estimate;
    hitting_time and EstimateReport derive it for reference.
    """

    rho: float
    K: float
    n_hit: int
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
        _check_kappa_rows(arr[None, :], self.rho)
        if self.n_hit < 0:
            raise ValueError("n_hit must be a cycle index")
        if self.v_known is not None and not 0.0 < self.v_known <= 1.0:
            raise ValueError("v_known must be in (0, 1]")


def _check_kappa_rows(kappas: np.ndarray, rho: float) -> None:
    """Each NaN-padded row starts at or above rho and increases strictly."""
    if (kappas[:, 0] < rho).any():
        raise ValueError("kappa_0 must be at least rho")
    # NaN padding compares false, so only pairs of observed densities count
    if (kappas[:, 1:] <= kappas[:, :-1]).any():
        raise ValueError("kappas must be strictly increasing")


def observe_rows(x, rho: float, max_kappas: int = MAX_KAPPAS) -> tuple:
    """Detection on many trajectories at once.

    x is a (rows, cycles + 1) density matrix.  Returns (n_hit, kappas):
    n_hit[i] is the first cycle at which row i reaches rho, -1 if it
    never does, and kappas[i] holds x[i, n_hit[i] : n_hit[i] + max_kappas]
    padded with NaN, all NaN for a row that never reaches rho.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must be in (0, 1)")
    if max_kappas < 1:
        raise ValueError("max_kappas must be positive")
    x = np.asarray(x, dtype=float)
    reached = x >= rho
    detected = reached.any(axis=1)
    n_hit = np.where(detected, reached.argmax(axis=1), -1)
    cols = n_hit[:, None] + np.arange(max_kappas)
    valid = detected[:, None] & (cols < x.shape[1])
    kappas = np.take_along_axis(x, np.where(valid, cols, 0), axis=1)
    kappas[~valid] = np.nan
    _check_kappa_rows(kappas[detected], rho)
    return n_hit, kappas


def hitting_time(traj: Trajectory, rho: float) -> tuple[int, int]:
    """First cycle whose density reaches rho, absolute and centered.

    Returns (n_hit, tau) with tau = n_hit - round(log_b K).  Raises
    NotDetectedError when the trajectory never reaches the threshold.
    """
    n_hit = _observe_one(traj, rho, 1)[0]
    kin = traj.kinetics
    return n_hit, n_hit - _log_scale_cycles(kin.K, kin.b)


def _observe_one(traj: Trajectory, rho: float, max_kappas: int) -> tuple:
    """observe_rows on one trajectory: (n_hit, kappas without padding)."""
    n_hit, kappas = observe_rows(densities(traj)[None, :], rho, max_kappas)
    if n_hit[0] < 0:
        raise NotDetectedError(
            f"density never reached {rho} within {traj.n_cycles} cycles"
        )
    row = kappas[0]
    return int(n_hit[0]), row[~np.isnan(row)]


def observe(
    traj: Trajectory,
    rho: float,
    v_known: float | None = None,
    max_kappas: int = MAX_KAPPAS,
) -> Observation:
    """Detection-time observation of a trajectory, efficiency v_known if known."""
    n_hit, kappas = _observe_one(traj, rho, max_kappas)
    return Observation(
        rho=rho, K=traj.kinetics.K, n_hit=n_hit, kappas=kappas, v_known=v_known,
    )


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
    among the first MAX_KAPPAS values.
    """
    arr = np.asarray(kappas, dtype=float)[:MAX_KAPPAS]
    if arr.size < 2:
        raise ValueError("need at least two densities")
    if np.any(arr <= 0.0):
        raise ValueError("densities must be positive")
    return float(efficiency_rows(arr[None, :])[0])


def _resolve_v(obs: Observation, v: float | None) -> float:
    if v is None:
        v = obs.v_known
    if v is None:
        raise ValueError("efficiency unknown; pass v or set v_known")
    if not 0.0 < v <= 1.0:
        raise ValueError("efficiency must be in (0, 1]")
    return float(v)


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


def limit_observables_batch(observations, v: float | None = None) -> list[np.ndarray]:
    """Recover t_j = K * b**-(n_hit+j) * G(kappa_j) for many observations at once.

    The rows of limit_observables_rows, one per observation.  Only the
    first MAX_KAPPAS densities of each observation are used.  All
    observations must share one efficiency and one scale K.
    """
    observations = list(observations)
    if not observations:
        return []
    vs = {_resolve_v(o, v) for o in observations}
    if len(vs) > 1:
        raise ValueError("observations mix different efficiencies")
    scales = {o.K for o in observations}
    if len(scales) > 1:
        raise ValueError("observations mix different scales K")
    kin = Kinetics(v=vs.pop(), K=scales.pop())

    sizes = [min(o.kappas.size, MAX_KAPPAS) for o in observations]
    kappas = np.full((len(observations), max(sizes)), np.nan)
    for row, o, size in zip(kappas, observations, sizes):
        row[:size] = o.kappas[:size]
    n_hit = np.array([o.n_hit for o in observations])
    t = limit_observables_rows(kappas, n_hit, kin)
    return [row[:size] for row, size in zip(t, sizes)]


def limit_observables(obs: Observation, v: float | None = None) -> np.ndarray:
    """Recover the limit observables t_j for a single observation."""
    return limit_observables_batch([obs], v)[0]


def invert_copies(obs: Observation) -> int:
    """Exact copy-number inversion, valid only at efficiency 1.

    At v=1 the growth limit is the copy number itself, so each t_j equals
    z up to scale error; the mean over j is rounded to the nearest
    positive integer, which is what estimate_copies_normal gives at v=1.
    """
    if obs.v_known != 1.0:
        raise ValueError("exact inversion requires v_known = 1")
    return estimate_copies_normal(limit_observables(obs).mean(), 1.0, integer=True)


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


def default_z_max(t: float) -> int:
    """Scan bound: the limit law concentrates near z, so 4t covers it."""
    return max(10, math.ceil(4.0 * float(t)))


def copy_profile(t, v: float, z_max: int | None = None) -> np.ndarray:
    """Likelihood profile: density of the z-fold limit sum at t, z=1..z_max.

    Row z-1 holds the exact density of the z-ancestor limit W(z) at each
    point of t, within limit_law.DENSITY_PRECISION.tol
    (limit_law.ancestor_density).  Scalar t gives a flat profile of shape
    (z_max,).
    """
    values = _profile(t, v, z_max).values
    return values[:, 0] if np.ndim(t) == 0 else values


def _profile(t, v, z_max) -> AncestorDensity:
    """ancestor_density at t over the candidates 1..z_max (default 4t)."""
    if z_max is None:
        z_max = default_z_max(np.max(t))
    return ancestor_density(t, v, z_max)


def _scan(t, v, z_max) -> tuple[int, AncestorDensity]:
    """Likelihood scan over z = 1..z_max: (maximizer, densities at t)."""
    dens = _profile(t, v, z_max)
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


def estimate_copies_mle(t: float, v: float, z_max: int | None = None) -> int:
    """Maximum-likelihood copy number over the integer scan 1..z_max.

    Ties break toward the smaller candidate.  A peak at z_max triggers
    BoundaryWarning since the true maximizer may lie beyond the scan;
    if every candidate's density at t is within its certified bound of 0
    the scan aborts with OutOfSupportError carrying that bound.
    """
    return _scan(t, v, z_max)[0]


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
    z_max: int | None = None,
) -> EstimateReport:
    """Run the whole chain: detect, recover limit observables, estimate.

    The efficiency used for inversion, and for the reported offset
    tau = n_hit - round(log_b K), is v_known when given, otherwise the
    fitted value (fit_efficiency=True).  At efficiency 1 the exact
    inversion fills z_hat_mle; below 1 the likelihood scan does, when
    run_mle is set, and the diagnostics record its profile, the
    certified bound of each value, and the number of frequencies and the
    transform depth of its inversion.
    """
    obs = observe(traj, rho, v_known=v_known)
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

    t_values = limit_observables(obs, v=v_eff)
    t_mean = float(t_values.mean())
    z_normal = estimate_copies_normal(t_mean, v_eff)

    z_mle = None
    dens = None
    if v_eff == 1.0:
        z_mle = estimate_copies_normal(t_mean, 1.0, integer=True)
    elif run_mle:
        if z_max is None:
            z_max = default_z_max(t_mean)
        z_mle, dens = _scan(t_mean, v_eff, z_max)

    settings = {
        "rho": rho,
        "K": traj.kinetics.K,
        "v_known": v_known,
        "fit_efficiency": fit_efficiency,
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


_REPORT_KEYS = ("z_hat_mle", "z_hat_normal", "v_hat", "t_values", "tau",
                "kappas", "settings", "diagnostics")


def write_report_json(report: EstimateReport, path) -> None:
    """Write a report as compact single-line JSON.

    The text is encoded before the file is opened, so a value the
    encoder refuses leaves an existing file untouched.
    """
    text = json.dumps({
        "z_hat_mle": report.z_hat_mle,
        "z_hat_normal": report.z_hat_normal,
        "v_hat": report.v_hat,
        "t_values": [float(t) for t in report.t_values],
        "tau": report.tau,
        "kappas": [float(k) for k in report.kappas],
        "settings": report.settings,
        "diagnostics": report.diagnostics,
    })
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _read_json_object(path, keys) -> dict:
    """Load a JSON object holding every name in keys, else ValueError."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    missing = [key for key in keys if key not in doc]
    if missing:
        raise ValueError(f"{path}: missing keys {missing}")
    return doc


def read_report_json(path) -> EstimateReport:
    doc = _read_json_object(path, _REPORT_KEYS)
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

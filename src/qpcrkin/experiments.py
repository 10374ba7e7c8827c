"""Monte Carlo experiment runners and flat-file plumbing.

Three scenario kinds: convergence (trajectory densities at the scale
cycle against the limit profile of the growth limit), estimation (the
full detection-and-inversion chain over all replicates at once), and
coupling (pathwise order checks plus the scaled gap between the linear
and saturating processes).  Every runner is bit-reproducible from its
scenario.
Distributional comparisons are one-sample: simulated values against the
exact law of the growth limit (limit_law.ancestor_cdf), whose certified
error bound is reported with the statistic.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .kinetics import Kinetics, _check_efficiency, _check_open_unit, inverse_profile, limit_profile
from .streams import _check_ints
from .simulate import (
    _count_rows,
    _reaction_cycles,
    _replacing,
    order_violations,
    simulate_coupled_replicates,
    simulate_replicates,
)
from .limit_law import ancestor_cdf
from .inference import (
    MAX_KAPPAS,
    _json_fields,
    _log_scale_cycles,
    _read_json_fields,
    efficiency_rows,
    estimate_copies_normal,
    limit_observables_rows,
    observe_rows,
)

__all__ = [
    "KINDS",
    "ScenarioSpec",
    "ExperimentResult",
    "ks_distance",
    "run_convergence",
    "run_estimation",
    "run_coupling",
    "curve_grid",
    "emit_profile_curves",
    "run_experiment",
    "write_result_json",
    "read_result_json",
]

KINDS = ("convergence", "estimation", "coupling")

DEFAULT_CURVE_EFFICIENCIES = (0.25, 0.5, 0.9, 1.0)
# most grid intervals curve_grid accepts: 10**6 points hold 8 MB per efficiency
MAX_CURVE_INTERVALS = 10 ** 6


@dataclass(frozen=True)
class ScenarioSpec:
    """Flat description of one experiment; serializes to JSON.

    ScenarioSpec(**doc) reads back a to_json_dict document; an unknown
    field raises TypeError.  The counts, cycles, seed and each of
    m_values must be integers, none a bool: m, z0, replicates and each of
    m_values at least 1, shift and extra_cycles at least 0.  v must be in
    (0, 1], rho, gamma and c_exponent in (0, 1), and fit_efficiency a
    bool.  ValueError names the first setting that is not.
    """

    kind: str
    v: float = 0.5
    m: int = 30
    z0: int = 1
    rho: float = 0.05
    replicates: int = 200
    seed: int = 0
    out: str | None = None
    shift: int = 0
    extra_cycles: int = 6
    m_values: tuple | None = None
    gamma: float = 0.75
    c_exponent: float = 0.6
    fit_efficiency: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        self.__dict__.update(_check_ints(1, m=self.m, z0=self.z0, replicates=self.replicates))
        self.__dict__.update(_check_ints(0, shift=self.shift, extra_cycles=self.extra_cycles))
        self.__dict__.update(_check_ints(seed=self.seed))
        if not isinstance(self.fit_efficiency, bool):
            raise ValueError(f"fit_efficiency must be a bool, got {self.fit_efficiency!r}")
        _check_efficiency("v", self.v)
        for name in ("rho", "gamma", "c_exponent"):
            _check_open_unit(name, getattr(self, name))
        if self.m_values is not None:
            entries = {f"entry {i} of m_values": m for i, m in enumerate(self.m_values)}
            if not entries:
                raise ValueError("m_values must be nonempty")
            object.__setattr__(self, "m_values", tuple(_check_ints(1, **entries).values()))

    def to_json_dict(self) -> dict:
        doc = asdict(self)
        # lists survive a JSON round trip unchanged, tuples do not
        if doc["m_values"] is not None:
            doc["m_values"] = list(doc["m_values"])
        return doc


@dataclass(frozen=True)
class ExperimentResult:
    """Summary plus per-replicate records, one list per field, for one scenario run."""

    kind: str
    spec: dict
    summary: dict
    runtime_seconds: float = 0.0
    records: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if not (isinstance(self.spec, dict) and isinstance(self.summary, dict)):
            raise ValueError("spec and summary must be objects")
        if not (math.isfinite(self.runtime_seconds) and self.runtime_seconds >= 0.0):
            raise ValueError(f"runtime_seconds={self.runtime_seconds} must be finite "
                             "and nonnegative")
        for key, value in self.summary.items():
            if "ks" in key and value is not None:
                if not 0.0 <= float(value) <= 1.0:
                    raise ValueError(f"{key}={value} outside [0, 1]")
        if not isinstance(self.records, dict):
            raise ValueError("records must be an object of columns")
        columns = list(self.records.items())
        for key, column in columns:
            if not (isinstance(column, list) and len(column) == len(columns[0][1])):
                raise ValueError(f"records column {key!r} is not a list as long "
                                 f"as column {columns[0][0]!r}")


def ks_distance(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: sup gap of empirical CDFs."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be nonempty")
    pooled = np.concatenate([a, b])
    fa = np.searchsorted(a, pooled, side="right") / a.size
    fb = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def _ks_to_law(cdf) -> float:
    """One-sample KS statistic from the law's CDF at each sample.

    Exact unless a sample sits on an atom of the law.
    """
    u = np.sort(cdf)
    i = np.arange(1.0, u.size + 1.0)
    return float(max(np.max(i / u.size - u), np.max(u - (i - 1.0) / u.size)))


def run_convergence(spec: ScenarioSpec) -> ExperimentResult:
    """Compare scale-cycle densities with the limit profile of the growth limit.

    Simulates spec.replicates trajectories to cycle m (+shift) and
    reports the one-sample KS distance of X_m/K from the law of
    H(W(z0)), whose CDF at x is F_{z0}(G(x)) (H is increasing), and a
    decile table.  With shift=n the trajectories at cycle m+n are also
    compared with the law of f^n(H(W(z0))), F_{z0}(G(x)/b**n) since
    G(f(y)) = b*G(y).  ks_bound is the certified CDF error at the
    compared points, truncation and grid interpolation together
    (limit_law.ancestor_cdf), so each KS value is exact to within it.
    """
    if spec.kind != "convergence":
        raise ValueError("spec.kind must be 'convergence'")
    start = time.perf_counter()
    kin = Kinetics.from_exponent(spec.v, spec.m)
    n_cycles = spec.m + spec.shift

    counts = simulate_replicates(kin, spec.z0, n_cycles, spec.replicates, spec.seed)
    x_m = counts[:, spec.m] / kin.K
    deciles = np.percentile(x_m, np.arange(10, 100, 10))
    x_shift = counts[:, n_cycles] / kin.K if spec.shift else x_m[:0]
    # one inverse and one CDF call for every compared point: x_m, the
    # deciles, x_shifted; the largest sets the inverse's depth, and each
    # value is certified within tol
    n, nd = spec.replicates, spec.replicates + deciles.size
    t = inverse_profile(np.concatenate([x_m, deciles, x_shift]), kin)
    t[nd:] /= kin.b ** spec.shift
    law = ancestor_cdf(t, spec.v, spec.z0)
    summary = {
        "m": spec.m,
        "shift": spec.shift,
        "ks": _ks_to_law(law.values[:n]),
        "ks_shifted": _ks_to_law(law.values[nd:]) if spec.shift else None,
        "ks_bound": law.bound,
        "limit_cdf_points": law.points,
        "limit_cdf_grid": law.grid,
        "trajectory_deciles": deciles.tolist(),
        "limit_cdf_at_deciles": law.values[n:nd].tolist(),
    }
    records = {"replicate": list(range(n)), "x_m": x_m.tolist()}
    if spec.shift:
        records["x_shifted"] = x_shift.tolist()
    return ExperimentResult(
        kind=spec.kind, spec=spec.to_json_dict(), summary=summary,
        records=records, runtime_seconds=time.perf_counter() - start,
    )


def run_estimation(spec: ScenarioSpec) -> ExperimentResult:
    """Run the detection-and-inversion chain over many replicates.

    Replicates whose density never reaches rho are counted as missed and
    excluded.  Each replicate reports the integer normal-approximation
    estimate, which at v=1 is the exact inversion (the likelihood scan is
    left to the single-trajectory pipeline).  Below 1, t_vs_limit_ks is
    the one-sample KS distance of the recovered t means from the exact
    law of W(z0), within ks_bound.  fit_efficiency adds a per-replicate
    efficiency estimate (null from fewer than two densities).

    The replicates are those of simulate_replicates to cycle m +
    extra_cycles, drawn one cycle at a time for all of them.  The observer
    reads only the MAX_KAPPAS densities from the detection cycle on, so
    the runner stops drawing at the first cycle where every replicate has
    that many at or above rho; while any replicate has not, it draws on
    to the last cycle.  Its output is the same as that of a run that
    draws every cycle.
    """
    if spec.kind != "estimation":
        raise ValueError("spec.kind must be 'estimation'")
    start = time.perf_counter()
    kin = Kinetics.from_exponent(spec.v, spec.m)
    n_cycles = spec.m + spec.extra_cycles

    # counts never fall, so a replicate's window is full once its density
    # MAX_KAPPAS - 1 cycles back reached rho, the test observe_rows makes
    drawn = []
    for z in _reaction_cycles(kin, spec.z0, n_cycles, spec.replicates, spec.seed):
        drawn.append(z)
        if len(drawn) >= MAX_KAPPAS and np.all(drawn[-MAX_KAPPAS] / kin.K >= spec.rho):
            break
    n_hit, kappas = observe_rows(_count_rows(drawn) / kin.K, spec.rho)
    replicate_ids = np.flatnonzero(n_hit >= 0)
    kappas = kappas[replicate_ids]
    n_hit = n_hit[replicate_ids]

    t_means = np.nanmean(limit_observables_rows(kappas, n_hit, kin), axis=1)
    z_hats = estimate_copies_normal(t_means, spec.v, integer=True)
    tau = n_hit - _log_scale_cycles(kin.K, kin.b)
    records = {"replicate": replicate_ids.tolist(), "tau": tau.tolist(),
               "t_mean": t_means.tolist(), "z_hat": z_hats.tolist()}
    if spec.fit_efficiency:
        v_hats = efficiency_rows(kappas)
        records["v_hat"] = np.where(np.isnan(v_hats), None, v_hats).tolist()
    summary = {
        "replicates": spec.replicates,
        "detected": int(replicate_ids.size),
        "missed": int(spec.replicates - replicate_ids.size),
        "z0": spec.z0,
        "z_hat_mode": None,
        "fraction_within_one": None,
        "t_vs_limit_ks": None,
        "ks_bound": None,
        "limit_cdf_points": None,
        "limit_cdf_grid": None,
        "v_hat_median": None,
    }
    if replicate_ids.size:
        values, freq = np.unique(z_hats, return_counts=True)
        summary["z_hat_mode"] = int(values[np.argmax(freq)])
        summary["fraction_within_one"] = float(
            np.mean(np.abs(z_hats - spec.z0) <= 1)
        )
        if spec.v < 1.0:
            law = ancestor_cdf(t_means, spec.v, spec.z0)
            summary["t_vs_limit_ks"] = _ks_to_law(law.values)
            summary["ks_bound"] = law.bound
            summary["limit_cdf_points"] = law.points
            summary["limit_cdf_grid"] = law.grid
        if spec.fit_efficiency and np.any(~np.isnan(v_hats)):
            summary["v_hat_median"] = float(np.nanmedian(v_hats))
    return ExperimentResult(
        kind=spec.kind, spec=spec.to_json_dict(), summary=summary,
        records=records, runtime_seconds=time.perf_counter() - start,
    )


def _coupling_sweep(m: int) -> tuple:
    lo = max(4, m - 6)
    return tuple(range(lo, m + 1, 2)) or (m,)


def run_coupling(spec: ScenarioSpec) -> ExperimentResult:
    """Pathwise order checks and the scaled linear-vs-saturating gap.

    For each scale exponent in the sweep, runs coupled replicates in
    lockstep to cycle n1 = round(c*m) and records (Y_n1 - Z_n1) * K**(-c).
    The summary keeps the per-m medians of the scaled gap and, as
    max_violations, the largest count order_violations finds for any
    relation at any m; the construction makes it 0.
    """
    if spec.kind != "coupling":
        raise ValueError("spec.kind must be 'coupling'")
    start = time.perf_counter()
    m_values = spec.m_values if spec.m_values is not None else _coupling_sweep(spec.m)

    records = {"m": [], "replicate": [], "scaled_gap": []}
    medians = []
    worst = 0
    for m in m_values:
        kin = Kinetics.from_exponent(spec.v, m)
        n1 = max(1, round(spec.c_exponent * m))
        counts = simulate_coupled_replicates(kin, spec.z0, n1, spec.replicates,
                                             gamma=spec.gamma, seed=spec.seed)
        worst = max(worst, *order_violations(counts, kin.K ** spec.gamma).values())
        gaps = (counts[1, :, n1] - counts[0, :, n1]) * kin.K ** (-spec.c_exponent)
        records["m"] += [m] * spec.replicates
        records["replicate"] += range(spec.replicates)
        records["scaled_gap"] += gaps.tolist()
        medians.append(float(np.median(gaps)))

    summary = {
        "m_values": [int(m) for m in m_values],
        "n1_values": [max(1, round(spec.c_exponent * m)) for m in m_values],
        "median_scaled_gap": medians,
        "max_violations": worst,
        "gap_decreasing": all(b <= a for a, b in zip(medians, medians[1:])),
    }
    return ExperimentResult(
        kind=spec.kind, spec=spec.to_json_dict(), summary=summary,
        records=records, runtime_seconds=time.perf_counter() - start,
    )


def curve_grid(x_max: float, x_step: float) -> np.ndarray:
    """Evenly spaced grid from 0 to x_max, spacing x_step rounded to fit.

    Raises ValueError unless 0 < x_step <= x_max <= 4, both finite, and
    x_max / x_step is at most MAX_CURVE_INTERVALS.
    """
    if not 0.0 < x_max <= 4.0:
        raise ValueError(f"x_max must be in (0, 4], got {x_max}")
    if not 0.0 < x_step <= x_max:
        raise ValueError(f"x_step must be in (0, x_max], got {x_step}")
    intervals = x_max / x_step
    if intervals > MAX_CURVE_INTERVALS:
        raise ValueError(
            f"x_step must be at least x_max / {MAX_CURVE_INTERVALS} = "
            f"{x_max / MAX_CURVE_INTERVALS:.3g}, got {x_step}"
        )
    return np.linspace(0.0, x_max, int(round(intervals)) + 1)


def emit_profile_curves(v_list, x_grid, out=None) -> list[tuple[float, np.ndarray]]:
    """Tabulate the limit profile on a grid for each efficiency.

    Returns [(v, values)] and, when out is given, writes CSV rows
    v, x, profile, diagonal with 17 significant digits.  The grid must
    lie within [0, 4], the plotted range where the profile-to-diagonal
    comparison is informative.
    """
    grid = np.asarray(x_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("x_grid must be a nonempty 1-d sequence")
    if np.any(grid < 0.0) or np.any(grid > 4.0):
        raise ValueError("x_grid must lie within [0, 4]")
    curves = []
    for v in v_list:
        # float() would take True for 1.0 before Kinetics could refuse it
        _check_efficiency("v", v)
        kin = Kinetics(v=float(v), K=2.0)  # K is irrelevant to the profile
        curves.append((float(v), limit_profile(grid, kin)))
    if out is not None:
        with _replacing(out) as fh:
            writer = csv.writer(fh)
            writer.writerow(["v", "x", "profile", "diagonal"])
            for v, values in curves:
                for x, h in zip(grid, values):
                    writer.writerow(
                        ["%.17g" % v, "%.17g" % x, "%.17g" % h, "%.17g" % x]
                    )
    return curves


_RUNNERS = {
    "convergence": run_convergence,
    "estimation": run_estimation,
    "coupling": run_coupling,
}


def run_experiment(spec: ScenarioSpec) -> ExperimentResult:
    """Dispatch a scenario to its runner."""
    return _RUNNERS[spec.kind](spec)


def write_result_json(result: ExperimentResult, path) -> None:
    """Write a result as compact single-line JSON, one key per field, `records` last.

    Everything goes through json's C encoder (on CPython 3.11 any
    `indent` selects the pure-Python one) with allow_nan=False: a NaN or
    an infinity raises ValueError instead of writing NaN, which is not
    JSON.  Each records column is encoded and written on its own: one
    call for the whole result writes the same bytes but holds all its
    text at once, about 1 MB more peak memory at 4000 records.  The file
    is written whole or not at all (simulate._replacing).
    """
    encode = json.JSONEncoder(allow_nan=False).encode
    head = _json_fields(result)
    records = head.pop("records")
    with _replacing(path) as fh:
        fh.write(encode(head)[:-1] + ', "records": {')
        for i, (key, column) in enumerate(records.items()):
            fh.write((", " if i else "") + encode({key: column})[1:-1])
        fh.write("}}\n")


def read_result_json(path) -> ExperimentResult:
    """Inverse of write_result_json; a refusal is a ValueError naming path."""
    return _read_json_fields(path, ExperimentResult)

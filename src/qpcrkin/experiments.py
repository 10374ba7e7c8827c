"""Monte Carlo experiment runners and flat-file plumbing.

Three scenario kinds: convergence (trajectory densities at the scale
cycle against the limit profile of the growth limit), estimation (the
full detection-and-inversion chain over all replicates at once), and
coupling (pathwise order checks plus the scaled gap between the linear
and saturating processes).  A fourth kind emits profile curves on a
grid for plotting.  Every runner is bit-reproducible from its scenario.
Distributional comparisons are one-sample: simulated values against the
exact law of the growth limit (limit_law.ancestor_cdf), whose certified
error bound is reported with the statistic.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import secrets
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .kinetics import Kinetics, inverse_profile, limit_profile
from .simulate import (
    order_violations,
    simulate_coupled_replicates,
    simulate_replicates,
)
from .limit_law import ancestor_cdf
from .inference import (
    _log_scale_cycles,
    _read_json_object,
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

KINDS = ("convergence", "estimation", "coupling", "curves")

DEFAULT_CURVE_EFFICIENCIES = (0.25, 0.5, 0.9, 1.0)
# most grid intervals curve_grid accepts: 10**6 points hold 8 MB per efficiency
MAX_CURVE_INTERVALS = 10 ** 6

_RESULT_KEYS = ("kind", "spec", "summary", "records", "runtime_seconds")
# records per json.dumps call in write_result_json: the C encoder keeps
# every fragment of one call until it joins them, so chunks bound memory
_RECORDS_PER_CHUNK = 100


@dataclass(frozen=True)
class ScenarioSpec:
    """Flat description of one experiment; serializes to JSON."""

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
    v_list: tuple = DEFAULT_CURVE_EFFICIENCIES
    x_max: float = 4.0
    x_step: float = 0.01

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if not 0.0 < self.v <= 1.0:
            raise ValueError("v must be in (0, 1]")
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if self.z0 < 1:
            raise ValueError("z0 must be at least 1")
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must be in (0, 1)")
        if self.replicates < 1:
            raise ValueError("replicates must be at least 1")
        if self.shift < 0:
            raise ValueError("shift must be nonnegative")
        if self.extra_cycles < 0:
            raise ValueError("extra_cycles must be nonnegative")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must be in (0, 1)")
        if not 0.0 < self.c_exponent < 1.0:
            raise ValueError("c_exponent must be in (0, 1)")
        if self.m_values is not None:
            object.__setattr__(self, "m_values", tuple(int(x) for x in self.m_values))
        object.__setattr__(self, "v_list", tuple(float(x) for x in self.v_list))

    def to_json_dict(self) -> dict:
        doc = asdict(self)
        # lists survive a JSON round trip unchanged, tuples do not
        for key in ("m_values", "v_list"):
            if doc[key] is not None:
                doc[key] = list(doc[key])
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ScenarioSpec":
        known = set(cls.__dataclass_fields__)
        extra = set(doc) - known
        if extra:
            raise ValueError(f"unknown scenario fields: {sorted(extra)}")
        doc = dict(doc)
        for key in ("m_values", "v_list"):
            if key in doc and doc[key] is not None:
                doc[key] = tuple(doc[key])
        return cls(**doc)


@dataclass(frozen=True)
class ExperimentResult:
    """Summary plus per-replicate records for one scenario run."""

    kind: str
    spec: dict
    summary: dict
    records: list = field(default_factory=list)
    runtime_seconds: float = 0.0

    def __post_init__(self):
        for key, value in self.summary.items():
            if "ks" in key and value is not None:
                if not 0.0 <= float(value) <= 1.0:
                    raise ValueError(f"{key}={value} outside [0, 1]")


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
    compared points, so each KS value is exact to within it.
    """
    if spec.kind != "convergence":
        raise ValueError("spec.kind must be 'convergence'")
    start = time.perf_counter()
    kin = Kinetics.from_exponent(spec.v, spec.m)
    n_cycles = spec.m + spec.shift

    counts = simulate_replicates(kin, spec.z0, n_cycles, spec.replicates, spec.seed)
    x_m = counts[:, spec.m] / kin.K
    deciles = np.percentile(x_m, np.arange(10, 100, 10))
    # one CDF call for every compared point: x_m, the deciles, x_shifted
    t = [inverse_profile(x_m, kin), inverse_profile(deciles, kin)]
    if spec.shift:
        x_shift = counts[:, n_cycles] / kin.K
        t.append(inverse_profile(x_shift, kin) / kin.b ** spec.shift)
    law = ancestor_cdf(np.concatenate(t), spec.v, spec.z0)
    n, nd = spec.replicates, spec.replicates + deciles.size
    summary = {
        "m": spec.m,
        "shift": spec.shift,
        "ks": _ks_to_law(law.values[:n]),
        "ks_shifted": _ks_to_law(law.values[nd:]) if spec.shift else None,
        "ks_bound": law.bound,
        "limit_cdf_points": law.points,
        "trajectory_deciles": deciles.tolist(),
        "limit_cdf_at_deciles": law.values[n:nd].tolist(),
    }
    records = [{"replicate": i, "x_m": x} for i, x in enumerate(x_m.tolist())]
    if spec.shift:
        for rec, x in zip(records, x_shift.tolist()):
            rec["x_shifted"] = x
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
    efficiency estimate.
    """
    if spec.kind != "estimation":
        raise ValueError("spec.kind must be 'estimation'")
    start = time.perf_counter()
    kin = Kinetics.from_exponent(spec.v, spec.m)
    n_cycles = spec.m + spec.extra_cycles

    counts = simulate_replicates(kin, spec.z0, n_cycles, spec.replicates, spec.seed)
    n_hit, kappas = observe_rows(counts / kin.K, spec.rho)
    replicate_ids = np.flatnonzero(n_hit >= 0)
    kappas = kappas[replicate_ids]
    n_hit = n_hit[replicate_ids]

    records = []
    summary = {
        "replicates": spec.replicates,
        "detected": int(replicate_ids.size),
        "missed": int(spec.replicates - replicate_ids.size),
        "z0": spec.z0,
        "z_hat_mode": None,
        "fraction_within_one": None,
        "t_vs_limit_ks": None,
        "ks_bound": None,
        "v_hat_median": None,
    }
    if replicate_ids.size:
        t_means = np.nanmean(limit_observables_rows(kappas, n_hit, kin), axis=1)
        z_hats = estimate_copies_normal(t_means, spec.v, integer=True)
        v_hats = efficiency_rows(kappas) if spec.fit_efficiency else None
        tau = n_hit - _log_scale_cycles(kin.K, kin.b)
        columns = zip(replicate_ids.tolist(), tau.tolist(), t_means.tolist(),
                      z_hats.tolist())
        records = [{"replicate": i, "tau": tau_i, "t_mean": t, "z_hat": z}
                   for i, tau_i, t, z in columns]
        if v_hats is not None:
            for rec, v_hat in zip(records, v_hats.tolist()):
                if not math.isnan(v_hat):
                    rec["v_hat"] = v_hat

        values, freq = np.unique(z_hats, return_counts=True)
        summary["z_hat_mode"] = int(values[np.argmax(freq)])
        summary["fraction_within_one"] = float(
            np.mean(np.abs(z_hats - spec.z0) <= 1)
        )
        if spec.v < 1.0:
            law = ancestor_cdf(t_means, spec.v, spec.z0)
            summary["t_vs_limit_ks"] = _ks_to_law(law.values)
            summary["ks_bound"] = law.bound
        if v_hats is not None and np.any(~np.isnan(v_hats)):
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
    if not m_values:
        raise ValueError("empty m sweep")

    records = []
    medians = []
    worst = 0
    for m in m_values:
        kin = Kinetics.from_exponent(spec.v, m)
        n1 = max(1, round(spec.c_exponent * m))
        counts = simulate_coupled_replicates(kin, spec.z0, n1, spec.replicates,
                                             gamma=spec.gamma, seed=spec.seed)
        worst = max(worst, *order_violations(counts, kin.K ** spec.gamma).values())
        gaps = (counts[1, :, n1] - counts[0, :, n1]) * kin.K ** (-spec.c_exponent)
        records += [{"m": m, "replicate": i, "scaled_gap": gap}
                    for i, gap in enumerate(gaps.tolist())]
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
        kin = Kinetics(v=float(v), K=2.0)  # K is irrelevant to the profile
        curves.append((float(v), limit_profile(grid, kin)))
    if out is not None:
        with open(out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["v", "x", "profile", "diagonal"])
            for v, values in curves:
                for x, h in zip(grid, values):
                    writer.writerow(
                        ["%.17g" % v, "%.17g" % x, "%.17g" % h, "%.17g" % x]
                    )
    return curves


def run_curves(spec: ScenarioSpec) -> ExperimentResult:
    if spec.kind != "curves":
        raise ValueError("spec.kind must be 'curves'")
    if spec.out is None:
        raise ValueError("curves scenario needs an output path")
    start = time.perf_counter()
    grid = curve_grid(spec.x_max, spec.x_step)
    curves = emit_profile_curves(spec.v_list, grid, out=spec.out)
    summary = {
        "rows": sum(len(vals) for _, vals in curves),
        "efficiencies": [v for v, _ in curves],
        "x_max": spec.x_max,
        "x_step": spec.x_step,
    }
    return ExperimentResult(
        kind=spec.kind, spec=spec.to_json_dict(), summary=summary,
        records=[], runtime_seconds=time.perf_counter() - start,
    )


_RUNNERS = {
    "convergence": run_convergence,
    "estimation": run_estimation,
    "coupling": run_coupling,
    "curves": run_curves,
}


def run_experiment(spec: ScenarioSpec) -> ExperimentResult:
    """Dispatch a scenario to its runner."""
    return _RUNNERS[spec.kind](spec)


def write_result_json(result: ExperimentResult, path) -> None:
    """Write a result as compact single-line JSON with `records` last.

    Everything goes through json's C encoder (on CPython 3.11 any
    `indent` selects the pure-Python one); records follow the head in
    chunks of _RECORDS_PER_CHUNK to keep memory flat.  The text goes to
    a new file beside path that then replaces path, so a value the
    encoder refuses anywhere leaves an existing file as it was and no
    partial file behind.
    """
    head = json.dumps({
        "kind": result.kind,
        "spec": result.spec,
        "summary": result.summary,
        "runtime_seconds": result.runtime_seconds,
    })
    records = result.records
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path) or ".",
                       f".{os.path.basename(path)}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "x") as fh:
            fh.write(head[:-1] + ', "records": [')
            for start in range(0, len(records), _RECORDS_PER_CHUNK):
                if start:
                    fh.write(", ")
                fh.write(json.dumps(records[start:start + _RECORDS_PER_CHUNK])[1:-1])
            fh.write("]}\n")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def read_result_json(path) -> ExperimentResult:
    doc = _read_json_object(path, _RESULT_KEYS)
    return ExperimentResult(
        kind=doc["kind"], spec=doc["spec"], summary=doc["summary"],
        records=doc["records"], runtime_seconds=doc["runtime_seconds"],
    )

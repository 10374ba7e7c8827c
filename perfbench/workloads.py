"""Benchmark workloads: generated inputs, one op per input, output checks.

Op i of a workload draws its inputs from a generator seeded by
(workload seed, i), so the same seed always yields the same inputs and the
package sees nothing but those inputs.  Every check is a statistical or
numerical bound taken from the acceptance criteria, never a digest of the
random numbers, so a change to which random numbers are drawn still passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np


class CheckFailed(Exception):
    """An op finished but its output violates the workload's check."""


def op_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def ks_critical(alpha: float, n: int, m: int) -> float:
    """Asymptotic two-sample Kolmogorov-Smirnov critical value at level alpha."""
    return math.sqrt(-0.5 * math.log(alpha / 2.0)) * math.sqrt((n + m) / (n * m))


def _run_cli(argv) -> None:
    """Run the CLI in process; a non-zero exit is a failed op."""
    from qpcrkin import cli

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code
    if code != 0:
        raise RuntimeError(f"exit {code}: {err.getvalue().strip()[-300:]}")


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


@dataclass(frozen=True)
class Op:
    """Inputs of one op; argv is None for library workloads."""

    index: int
    argv: tuple | None
    data: dict
    units: int
    kind: int = 0  # the benchmark reports each kind's median op time


class Convergence:
    """The paper's headline experiment (acceptance criteria 6 and 7)."""

    name = "convergence"
    unit = "trajectories"
    period = 1
    replicates = 500
    ref_count = 10_000  # the README's 1:20 replicates-to-reference ratio
    # Per-statistic level: 1e-4 over a campaign of up to 1000 ops, two
    # statistics each (Bonferroni), so a correct program essentially never
    # trips the check while a wrong law still fails it on every op.
    alpha = 1e-4 / 2000

    def make_op(self, seed: int, index: int, out: str) -> Op:
        s = int(op_rng(seed, index).integers(2 ** 31))
        argv = ("experiment", "--kind", "convergence", "--v", "0.5",
                "--m", "35", "--z0", "1", "--shift", "1",
                "--replicates", str(self.replicates),
                "--ref-count", str(self.ref_count),
                "--seed", str(s), "--out", out)
        return Op(index, argv, {}, self.replicates)

    def run(self, op: Op):
        _run_cli(op.argv)

    def check(self, op: Op, out: str, result) -> None:
        summary = _read_json(out)["summary"]
        crit = ks_critical(self.alpha, self.replicates, self.ref_count)
        for key in ("ks", "ks_shifted"):
            value = summary[key]
            if value is None or not 0.0 <= value < crit:
                raise CheckFailed(f"{key}={value} not below {crit:.4f}")


class EstimateScan:
    """Single-trajectory inference: simulate, detect, likelihood scan."""

    name = "estimate-scan"
    unit = "estimates"
    v = 0.5
    period = 12
    # cheap and costly copy numbers alternate, so a run's mix stays even
    z_order = (1, 6, 2, 5, 3, 4)

    def make_op(self, seed: int, index: int, out: str) -> Op:
        rng = op_rng(seed, index)
        s, mle_seed = (int(x) for x in rng.integers(2 ** 31, size=2))
        # each z twice in a row, the second time fitting the efficiency:
        # 12 consecutive ops hold every (z, fit) pair once.  The scan
        # width 4z (at least 10) is the default scan bound at t = z; fixed
        # per z, it keeps the op's cost from following the random t.
        z = self.z_order[(index // 2) % 6]
        fit = index % 2 == 1
        argv = ("estimate", "--v", str(self.v), "--m", "30", "--z0", str(z),
                "--seed", str(s), "--mle-seed", str(mle_seed),
                "--mle-count", "1000", "--z-max", str(max(10, 4 * z)),
                "--out", out)
        if fit:
            argv += ("--fit-v",)
        return Op(index, argv, {"fit": fit}, 1, kind=z)

    def run(self, op: Op):
        _run_cli(op.argv)

    def check(self, op: Op, out: str, result) -> None:
        from qpcrkin.inference import estimate_copies_normal

        report = _read_json(out)
        z_max = report["settings"]["z_max"]
        z_mle = report["z_hat_mle"]
        if not 1 <= z_mle <= z_max:
            raise CheckFailed(f"z_hat_mle={z_mle} outside [1, {z_max}]")
        profile = report["diagnostics"]["mle_profile"]
        if z_mle != int(np.argmax(profile)) + 1:
            raise CheckFailed("z_hat_mle is not the argmax of mle_profile")
        v = report["v_hat"] if op.data["fit"] else self.v
        expect = estimate_copies_normal(float(np.mean(report["t_values"])), v)
        if abs(report["z_hat_normal"] - expect) > 1e-12 * max(1.0, expect):
            raise CheckFailed(
                f"z_hat_normal={report['z_hat_normal']} != {expect}")


class EstimationExact:
    """Acceptance-10 shape: exact copy recovery at v=1, K=2**20."""

    name = "estimation-exact"
    unit = "replicates"
    period = 10
    replicates = 4000

    def make_op(self, seed: int, index: int, out: str) -> Op:
        s = int(op_rng(seed, index).integers(2 ** 31))
        z = 1 + index % 10
        argv = ("experiment", "--kind", "estimation", "--v", "1.0",
                "--m", "20", "--z0", str(z), "--fit-v",
                "--replicates", str(self.replicates),
                "--seed", str(s), "--out", out)
        return Op(index, argv, {}, self.replicates, kind=z)

    def run(self, op: Op):
        _run_cli(op.argv)

    def check(self, op: Op, out: str, result) -> None:
        summary = _read_json(out)["summary"]
        if summary["detected"] != self.replicates:
            raise CheckFailed(
                f"detected {summary['detected']} of {self.replicates}")
        if summary["fraction_within_one"] < 0.9:
            raise CheckFailed(
                f"fraction_within_one={summary['fraction_within_one']}")


def _paired_grid(rng, count: int, hi: float, b: float) -> np.ndarray:
    """Jittered grid of count points in (0, hi/b] followed by their b-multiples.

    The second half lets a functional equation g(b*x) = f(g(x)) be checked
    on the op's own outputs without evaluating anything extra.
    """
    base = (np.arange(count) + rng.uniform(size=count)) * (hi / b / count)
    return np.concatenate([base, b * base])


class Curves:
    """Deterministic numerics: H, its inverse G, and the transform phi."""

    name = "curves"
    unit = "points"
    period = 1
    profile_vs = (0.1, 0.25, 0.5, 0.9, 1.0)
    mgf_vs = (0.1, 0.5)
    slope_h = 1e-5

    def make_op(self, seed: int, index: int, out: str) -> Op:
        rng = op_rng(seed, index)
        # per efficiency: 0, then 200 pairs (x, b*x) covering [0, 4]
        profile = {v: np.concatenate([[0.0], _paired_grid(rng, 200, 4.0, 1.0 + v)])
                   for v in self.profile_vs}
        # per efficiency: 0, slope_h, then 99 pairs (s, b*s) covering [0, 20]
        mgf = {v: np.concatenate([[0.0, self.slope_h],
                                  _paired_grid(rng, 99, 20.0, 1.0 + v)])
               for v in self.mgf_vs}
        units = 2 * sum(x.size for x in profile.values()) + sum(
            s.size for s in mgf.values())
        return Op(index, None, {"profile": profile, "mgf": mgf}, units)

    def run(self, op: Op):
        import qpcrkin

        out = {}
        for v, x in op.data["profile"].items():
            kin = qpcrkin.Kinetics(v=v, K=2.0)  # K does not enter the profile
            h = qpcrkin.limit_profile(x, kin)
            out[("H", v)] = h
            out[("G", v)] = qpcrkin.inverse_profile(h, kin)
        for v, s in op.data["mgf"].items():
            out[("phi", v)] = qpcrkin.limit_mgf(s, v)
        return out

    def check(self, op: Op, out: str, result) -> None:
        for v, x in op.data["profile"].items():
            h, g = result[("H", v)], result[("G", v)]
            n = (x.size - 1) // 2
            inner, outer = h[1:n + 1], h[n + 1:]
            # criterion 1: H(b x) = f(H(x)) with the one-cycle mean map f
            residual = np.max(np.abs(outer - (inner + v * inner / (1.0 + inner))))
            if not residual <= 1e-9:
                raise CheckFailed(f"criterion 1 residual {residual:.3e} at v={v}")
            # criterion 3: G(H(x)) = x
            worst = np.max(np.abs(g - x))
            if not worst <= 1e-7:
                raise CheckFailed(f"criterion 3 round trip {worst:.3e} at v={v}")
        for v, s in op.data["mgf"].items():
            phi = result[("phi", v)]
            n = (s.size - 2) // 2
            lo, hi = phi[2:n + 2], phi[n + 2:]
            # criterion 4: phi(b s) = (1-v) phi(s) + v phi(s)^2, phi(0) = 1,
            # and slope -1 (mean 1) at the origin
            residual = np.max(np.abs(hi - (1.0 - v) * lo - v * lo * lo))
            slope = (phi[1] - 1.0) / self.slope_h
            if not (residual <= 1e-9 and phi[0] == 1.0
                    and abs(slope + 1.0) <= 1e-4):
                raise CheckFailed(
                    f"criterion 4 at v={v}: residual {residual:.3e}, "
                    f"phi(0)={phi[0]!r}, slope {slope:.6f}")


WORKLOADS = {w.name: w for w in (Convergence(), EstimateScan(),
                                 EstimationExact(), Curves())}


@dataclass
class OpResult:
    index: int
    seconds: float
    units: int
    ok: bool
    error: str | None = None
    bytes_written: int = 0
    boundary_warnings: int = 0
    kind: int = 0
    wall_seconds: float | None = None  # before scaling to a quiet host


def run_op(workload, op: Op, out: str, clock, tracer=None) -> OpResult:
    """Run and check one op; any exception or failed check marks it failed."""
    if op.argv is not None and os.path.exists(out):
        os.remove(out)  # a stale file from the previous op must not pass
    if tracer is not None:
        tracer.begin_op(op.index)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = clock()
        try:
            result, error = workload.run(op), None
        except Exception as exc:  # noqa: BLE001 - a failed op is data
            result, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            elapsed = clock() - start
            if tracer is not None:
                tracer.end_op()
    written = os.path.getsize(out) if op.argv is not None and os.path.exists(out) else 0
    if error is None:
        try:
            workload.check(op, out, result)
        except Exception as exc:  # noqa: BLE001 - unreadable output fails too
            error = f"check: {type(exc).__name__}: {exc}"
    boundary = sum(w.category.__name__ == "BoundaryWarning" for w in caught)
    return OpResult(op.index, elapsed, op.units, error is None, error,
                    written, boundary, op.kind)

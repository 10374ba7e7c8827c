"""Tests for the Monte Carlo experiment runners.

Oracles:
  * ks_distance against scipy.stats.ks_2samp and the hand-enumerated
    case {1,2} vs {1.5,2.5} -> 0.5.
  * coupling gap trend calibrated at v=0.5, z0=10, m in (10,15,20),
    seeds 11 and 99: medians fall roughly 4.7 -> 3.3 -> 1.9 and the
    decrease is stable across seeds (0.6*m integral keeps the measured
    cycle aligned with the scale).
  * estimation at v=1, m=16, z0=4, 60 replicates: every replicate
    detected, modal estimate 4, all within one of the truth.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from qpcrkin import streams
from qpcrkin.kinetics import INVERSE_PRECISION, Kinetics, inverse_profile, limit_profile
from qpcrkin.simulate import (
    BLOCK_SIZE,
    Trajectory,
    simulate_reaction,
    simulate_replicates,
)
from qpcrkin.inference import (
    NotDetectedError,
    estimate_copies_normal,
    estimate_efficiency,
    estimate_from_trajectory,
    hitting_time,
    limit_observables_batch,
    observe,
    observe_rows,
)
from qpcrkin.limit_law import DENSITY_PRECISION, ancestor_cdf
from qpcrkin import experiments
from qpcrkin.experiments import (
    ExperimentResult,
    ScenarioSpec,
    emit_profile_curves,
    ks_distance,
    read_result_json,
    run_convergence,
    run_coupling,
    run_estimation,
    run_experiment,
    write_result_json,
)


class TestKsDistance:
    def test_identical_samples(self):
        a = np.array([0.3, 1.0, 2.0, 5.5])
        assert ks_distance(a, a.copy()) == 0.0

    def test_disjoint_supports(self):
        assert ks_distance([1.0, 2.0, 3.0], [10.0, 11.0]) == 1.0

    def test_hand_enumerated(self):
        assert ks_distance([1.0, 2.0], [1.5, 2.5]) == 0.5

    def test_matches_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(42)
        for _ in range(25):
            a = rng.normal(size=rng.integers(5, 60))
            b = rng.normal(loc=rng.uniform(-1, 1), size=rng.integers(5, 60))
            ours = ks_distance(a, b)
            ref = stats.ks_2samp(a, b).statistic
            assert abs(ours - ref) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_distance([], [1.0])

    def test_with_ties_across_samples(self):
        # CDFs jump together at 1 and 2; the gap peaks after 2: 2/3 - 1/2
        got = ks_distance([1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 3.0])
        assert got == pytest.approx(1.0 / 6.0)


class TestScenarioSpec:
    def test_json_round_trip(self):
        spec = ScenarioSpec(kind="coupling", v=0.9, m=12, z0=3, replicates=7,
                            seed=5, m_values=(8, 10, 12))
        assert ScenarioSpec(**json.loads(json.dumps(spec.to_json_dict()))) == spec

    def test_unknown_key_rejected(self):
        with pytest.raises(TypeError):
            ScenarioSpec(**{"kind": "convergence", "bogus": 1})

    @pytest.mark.parametrize("bad", [
        {"kind": "nope"},
        {"kind": "convergence", "replicates": 0},
        {"kind": "convergence", "rho": 1.2},
        {"kind": "convergence", "m": 0},
        {"kind": "convergence", "v": 0.0},
        {"kind": "convergence", "gamma": 1.5},
        {"kind": "coupling", "c_exponent": 0.0},
        {"kind": "curves"},
        {"kind": "coupling", "m_values": ()},
        {"kind": "coupling", "m_values": (10, 0)},
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            ScenarioSpec(**bad)

    @pytest.mark.parametrize("name", ["m", "z0", "replicates", "seed", "shift",
                                      "extra_cycles", "m_values"])
    @pytest.mark.parametrize("value", [2.5, True])
    def test_non_integer_settings_refused(self, name, value):
        # z0 = 2.5 simulated 2 molecules and reported 2.5; m_values = [10.5]
        # ran m = 10
        if name == "m_values":
            value = [10, value]
        with pytest.raises(ValueError, match=f"{name} must"):
            ScenarioSpec(kind="coupling", **{name: value})

    @pytest.mark.parametrize("value", ["no", 1, None])
    def test_fit_efficiency_must_be_a_bool(self, value):
        # "no" used to run a fitted estimation and record the string
        with pytest.raises(ValueError, match="fit_efficiency must be a bool"):
            ScenarioSpec(kind="estimation", fit_efficiency=value)

    def test_result_ks_validated(self):
        with pytest.raises(ValueError):
            ExperimentResult(kind="convergence", spec={}, summary={"ks": 1.5})


class TestConvergence:
    def make(self, **kw):
        base = dict(kind="convergence", v=0.5, m=20, z0=1, replicates=400, seed=3)
        base.update(kw)
        return ScenarioSpec(**base)

    def test_small_run(self):
        res = run_convergence(self.make())
        assert res.kind == "convergence"
        assert 0.0 <= res.summary["ks"] <= 0.15
        assert res.records["replicate"] == list(range(400))
        assert list(res.records) == ["replicate", "x_m"]
        assert len(res.records["x_m"]) == 400
        assert len(res.summary["trajectory_deciles"]) == 9

    def test_shift_comparison(self):
        res = run_convergence(self.make(shift=1))
        assert res.summary["ks_shifted"] is not None
        assert abs(res.summary["ks_shifted"] - res.summary["ks"]) < 0.06
        assert list(res.records) == ["replicate", "x_m", "x_shifted"]
        assert len(res.records["x_shifted"]) == 400

    def test_degenerate_reference_at_unit_efficiency(self):
        # at v=1 the law of H(W(z0)) is the point mass at H(z0): its CDF is
        # the step at G(x) = z0, exact without any frequencies
        spec = self.make(v=1.0, m=16, z0=2, replicates=200, seed=4)
        res = run_convergence(spec)
        s = res.summary
        kin = Kinetics.from_exponent(1.0, 16)
        deciles = np.array(s["trajectory_deciles"])
        steps = (inverse_profile(deciles, kin) >= 2).astype(float)
        assert s["limit_cdf_at_deciles"] == steps.tolist()
        assert s["ks_bound"] == 0.0 and s["limit_cdf_points"] == s["limit_cdf_grid"] == 0
        target = float(limit_profile(2.0, kin))
        below = np.mean(np.array(res.records["x_m"]) < target)
        assert s["ks"] == pytest.approx(max(below, 1.0 - below), abs=1e-12)
        median_x = s["trajectory_deciles"][4]
        assert abs(median_x - target) < 0.05

    def test_reproducible(self):
        a = run_convergence(self.make(replicates=100))
        b = run_convergence(self.make(replicates=100))
        assert a.summary == b.summary
        assert a.records == b.records

    def test_streams_are_split(self):
        # replicates 0..999 are the whole first reaction block, the same at
        # any count that fills it; replicates 1000..1199 are block 1 drawn
        # as 200 lanes on its own stream.  The law side draws no random
        # numbers, so the statistic is the one-sample KS of the
        # trajectories against the exact CDF of H(W(z0))
        stats = pytest.importorskip("scipy.stats")
        spec = self.make(replicates=BLOCK_SIZE + 200)
        res = run_convergence(spec)
        kin = Kinetics.from_exponent(spec.v, spec.m)
        x_m = np.array(res.records["x_m"])
        whole = simulate_replicates(kin, z0=1, n_cycles=20, replicates=BLOCK_SIZE, seed=3)
        assert np.array_equal(x_m[:BLOCK_SIZE], whole[:, 20] / kin.K)
        gen = streams.stream(3, streams.REACTION, 1)
        z = np.ones(200, dtype=np.int64)
        for _ in range(20):
            z = z + gen.binomial(z, kin.v * kin.K / (kin.K + z))
        assert np.array_equal(x_m[BLOCK_SIZE:], z / kin.K)

        def law(x):
            return ancestor_cdf(inverse_profile(x, kin), 0.5, 1).values

        assert res.summary["ks"] == pytest.approx(
            stats.kstest(x_m, law).statistic, abs=2 * res.summary["ks_bound"])
        median = res.summary["trajectory_deciles"][4]
        assert res.summary["limit_cdf_at_deciles"][4] == pytest.approx(
            float(law(np.array([median]))[0]), abs=2 * res.summary["ks_bound"])

    @pytest.mark.parametrize("v", [0.25, 0.5, 0.9])
    def test_one_inverse_call_equals_one_per_part(self, v):
        # the runner inverts x_m, the deciles and the shifted values in one
        # inverse_profile call, whose depth the largest of them sets: each
        # part lies within tol of what a call on that part alone gives
        m = 30
        kin = Kinetics.from_exponent(v, m)
        counts = simulate_replicates(kin, 2, m + 1, 300, seed=17)
        x_m = counts[:, m] / kin.K
        parts = [x_m, np.percentile(x_m, np.arange(10, 100, 10)), counts[:, m + 1] / kin.K]
        together = inverse_profile(np.concatenate(parts), kin)
        alone = np.concatenate([inverse_profile(p, kin) for p in parts])
        assert np.all(np.abs(together - alone) <= INVERSE_PRECISION.tol)

    def test_accuracy_reported(self):
        s = run_convergence(self.make(shift=1)).summary
        assert 0.0 < s["ks_bound"] <= DENSITY_PRECISION.tol
        assert s["limit_cdf_points"] > 0
        assert s["limit_cdf_grid"] > s["limit_cdf_points"]
        cdf = np.array(s["limit_cdf_at_deciles"])
        assert np.all(np.abs(cdf - np.arange(0.1, 0.95, 0.1)) < 0.05)

    def test_wrong_kind_rejected(self):
        with pytest.raises(ValueError):
            run_convergence(ScenarioSpec(kind="estimation"))


class TestEstimation:
    def test_unit_efficiency_recovery(self):
        spec = ScenarioSpec(kind="estimation", v=1.0, m=16, z0=4,
                            replicates=60, seed=5)
        res = run_estimation(spec)
        s = res.summary
        assert s["detected"] == 60 and s["missed"] == 0
        assert s["z_hat_mode"] == 4
        assert s["fraction_within_one"] >= 0.9
        assert s["t_vs_limit_ks"] is None
        assert s["limit_cdf_points"] is None and s["limit_cdf_grid"] is None
        assert min(res.records["z_hat"]) >= 1

    def test_fitted_efficiency_and_t_law(self):
        spec = ScenarioSpec(kind="estimation", v=0.5, m=25, z0=2,
                            replicates=80, seed=6, fit_efficiency=True)
        res = run_estimation(spec)
        s = res.summary
        assert s["detected"] == 80
        assert abs(s["v_hat_median"] - 0.5) < 0.15
        assert s["t_vs_limit_ks"] <= 0.25
        assert 0.0 < s["ks_bound"] <= DENSITY_PRECISION.tol
        assert s["limit_cdf_grid"] > s["limit_cdf_points"] > 0
        assert len(res.records["v_hat"]) == 80 and None not in res.records["v_hat"]

    def test_missed_replicates_counted(self):
        spec = ScenarioSpec(kind="estimation", v=0.5, m=20, z0=1, rho=0.75,
                            extra_cycles=0, replicates=60, seed=7)
        res = run_estimation(spec)
        s = res.summary
        assert s["missed"] >= 1
        assert s["detected"] + s["missed"] == 60
        assert [len(col) for col in res.records.values()] == [s["detected"]] * 4

    @pytest.mark.parametrize("overrides", [
        dict(v=0.5, m=20, z0=2),
        dict(v=1.0, m=16, z0=3),
        dict(v=0.5, m=20, z0=1, rho=0.75, extra_cycles=0),
    ])
    def test_records_match_scalar_chain(self, overrides):
        # the lockstep runner equals observe -> limit_observables_batch ->
        # estimate_efficiency applied to each simulated row on its own; one
        # inverse call for all rows runs to the depth of the largest density,
        # so t_mean agrees within the mean of its terms' certified bounds
        # K b**-(n_hit+j) tol
        spec = ScenarioSpec(kind="estimation", replicates=120, seed=9,
                            fit_efficiency=True, **overrides)
        res = run_estimation(spec)
        kin = Kinetics.from_exponent(spec.v, spec.m)
        counts = simulate_replicates(kin, spec.z0, spec.m + spec.extra_cycles,
                                     spec.replicates, spec.seed)
        expected = []
        for i, row in enumerate(counts):
            traj = Trajectory(row, kin)
            try:
                obs = observe(traj, spec.rho)
            except NotDetectedError:
                continue
            tau = hitting_time(traj, spec.rho)[1]
            t = limit_observables_batch([obs], spec.v)[0]
            t_mean = float(t.mean())
            scales = kin.K * kin.b ** -(obs.n_hit + np.arange(t.size))
            t_bound = float(scales.mean()) * INVERSE_PRECISION.tol
            if spec.v == 1.0:
                z_hat = max(1, round(t_mean))
            else:
                z_hat = estimate_copies_normal(t_mean, spec.v, integer=True)
            # a window of one density has no efficiency fit
            v_hat = estimate_efficiency(obs.kappas) if obs.kappas.size >= 2 else None
            expected.append((i, tau, t_mean, z_hat, v_hat, t_bound))
        if "rho" in overrides:
            assert res.summary["missed"] >= 1
        assert res.summary["detected"] == len(expected)
        assert list(res.records) == ["replicate", "tau", "t_mean", "z_hat", "v_hat"]
        rows = list(zip(*res.records.values()))
        assert len(rows) == len(expected)
        for (i, tau, t_mean, z_hat, v_hat), want in zip(rows, expected):
            assert (i, tau, z_hat) == (want[0], want[1], want[3])
            assert abs(t_mean - want[2]) <= want[5]
            assert (v_hat is None) == (want[4] is None)
            if v_hat is not None:
                assert v_hat == pytest.approx(want[4], rel=1e-12, abs=0)

    @pytest.mark.parametrize("v", [0.5, 0.9, 1.0])
    def test_one_replicate_is_the_trajectory_pipeline(self, v):
        # a run of one replicate is block 0 drawn with one lane, the
        # trajectory of simulate_reaction: the runner's record and the
        # single-trajectory pipeline's report agree bitwise
        kin = Kinetics.from_exponent(v, 25)
        for seed in range(30):
            spec = ScenarioSpec(kind="estimation", v=v, m=25, z0=3, replicates=1, seed=seed)
            records = run_estimation(spec).records
            traj = simulate_reaction(kin, 3, spec.m + spec.extra_cycles, seed=seed)
            report = estimate_from_trajectory(traj, spec.rho, v_known=v)
            assert records["replicate"] == [0], seed
            assert records["tau"] == [report.tau], seed
            assert records["t_mean"] == [float(report.t_values.mean())], seed

            # with fit_efficiency the record's v_hat is the pipeline's raw
            # fit, unclipped, but the runner still inverts at spec.v.  Once
            # it inverts at each replicate's fit, the t_mean equality below
            # becomes one with the fitted report's t_mean
            fit = run_estimation(replace(spec, fit_efficiency=True)).records
            fitted = estimate_from_trajectory(traj, spec.rho)
            raw = fitted.diagnostics["v_hat_clipped_from"]
            assert fit["v_hat"] == [fitted.v_hat if raw is None else raw], seed
            assert fit["t_mean"] == [float(report.t_values.mean())], seed

    def test_reproducible(self):
        spec = ScenarioSpec(kind="estimation", v=0.5, m=20, z0=2,
                            replicates=40, seed=8)
        a, b = run_estimation(spec), run_estimation(spec)
        assert a.summary == b.summary and a.records == b.records

    @pytest.mark.parametrize("overrides,stops", [
        (dict(v=1.0, m=20, z0=1), True),
        (dict(v=1.0, m=20, z0=10), True),
        (dict(v=0.5, m=30, z0=3, fit_efficiency=True), True),
        # 12 replicates never reach rho, so every cycle is drawn
        (dict(v=0.5, m=30, z0=1, extra_cycles=0, seed=4), False),
    ])
    def test_early_stop_changes_nothing(self, monkeypatch, overrides, stops):
        # the runner draws cycles only until every replicate's window is
        # full; observing the full-horizon counts instead gives the same
        # records and summary.  2500 replicates end in a partial block.
        spec = ScenarioSpec(kind="estimation", replicates=2500,
                            **({"seed": 2} | overrides))
        kin = Kinetics.from_exponent(spec.v, spec.m)
        full = simulate_replicates(kin, spec.z0, spec.m + spec.extra_cycles,
                                   spec.replicates, spec.seed) / kin.K
        seen = []

        def observe_full(x, rho):
            seen.append(x.shape[1])
            assert np.array_equal(x, full[:, :x.shape[1]])
            return observe_rows(full, rho)

        early = run_estimation(spec)
        monkeypatch.setattr(experiments, "observe_rows", observe_full)
        whole = run_estimation(spec)
        assert (seen[0] < full.shape[1]) == stops
        assert (early.summary["missed"] > 0) == (not stops)
        assert early.summary == whole.summary
        assert early.records == whole.records


class TestCoupling:
    def test_trend_and_no_violations(self):
        spec = ScenarioSpec(kind="coupling", v=0.5, m=20, z0=10,
                            replicates=200, seed=11, m_values=(10, 15, 20))
        res = run_coupling(spec)
        s = res.summary
        assert s["max_violations"] == 0
        assert s["gap_decreasing"] is True
        assert s["median_scaled_gap"][0] > s["median_scaled_gap"][-1]
        assert s["n1_values"] == [6, 9, 12]
        assert res.records["m"] == [10] * 200 + [15] * 200 + [20] * 200
        assert res.records["replicate"] == list(range(200)) * 3
        assert len(res.records["scaled_gap"]) == 3 * 200

    def test_unit_efficiency(self):
        spec = ScenarioSpec(kind="coupling", v=1.0, m=20, z0=10,
                            replicates=100, seed=12, m_values=(10, 15, 20))
        res = run_coupling(spec)
        assert res.summary["max_violations"] == 0
        assert res.summary["gap_decreasing"] is True

    def test_default_sweep(self):
        spec = ScenarioSpec(kind="coupling", v=0.5, m=12, z0=1,
                            replicates=20, seed=13)
        res = run_coupling(spec)
        assert res.summary["m_values"] == [6, 8, 10, 12]

    def test_large_scale(self):
        # K = 1.5**80: a run holds about 3e9 molecules by cycle 48; the
        # count form draws no uniform per molecule, so nothing caps it
        spec = ScenarioSpec(kind="coupling", v=0.5, z0=10, replicates=200,
                            seed=11, m_values=(50, 80))
        s = run_coupling(spec).summary
        assert s["max_violations"] == 0
        assert s["n1_values"] == [30, 48]
        assert s["median_scaled_gap"][1] < s["median_scaled_gap"][0]


class TestCurves:
    def test_csv_contents(self, tmp_path):
        path = tmp_path / "curves.csv"
        grid = np.linspace(0.0, 4.0, 81)
        curves = emit_profile_curves([0.25, 0.5, 0.9, 1.0], grid, out=path)
        assert [v for v, _ in curves] == [0.25, 0.5, 0.9, 1.0]

        rows = path.read_text().strip().split("\n")
        assert rows[0] == "v,x,profile,diagonal"
        assert len(rows) == 1 + 4 * 81
        first = rows[1].split(",")
        assert float(first[1]) == 0.0 and float(first[2]) == 0.0  # H(0)=0
        for row in rows[1:]:
            v, x, h, diag = map(float, row.split(","))
            assert diag == x
            if 0.0 < x <= 0.5:
                assert abs(h - x) <= x * x  # sandwich bound

    def test_ordering_in_efficiency(self):
        grid = np.linspace(0.1, 4.0, 40)
        curves = emit_profile_curves([0.25, 0.5, 0.9, 1.0], grid)
        # gap x - H(x) ~ x^2/(1+v) near zero and stays ordered on the grid,
        # so higher efficiency hugs the diagonal
        gaps = [grid - values for _, values in curves]
        for lo, hi in zip(gaps, gaps[1:]):
            assert np.all(hi < lo)

    def test_small_x_gap_coefficient(self):
        # gap ~ x^2/(1+v): keep x large enough that the 1e-10 profile
        # tolerance stays small relative to the gap itself
        x = np.array([1e-3])
        for v in (0.25, 0.5, 0.9, 1.0):
            (_, values), = emit_profile_curves([v], x)
            coeff = float((x[0] - values[0]) / x[0] ** 2)
            assert coeff == pytest.approx(1.0 / (1.0 + v), rel=5e-3)

    def test_grid_bounds_enforced(self):
        with pytest.raises(ValueError):
            emit_profile_curves([0.5], np.array([0.0, 4.5]))
        with pytest.raises(ValueError):
            emit_profile_curves([0.5], np.array([-0.1, 1.0]))


def _result_doc(res):
    return {"kind": res.kind, "spec": res.spec, "summary": res.summary,
            "records": res.records, "runtime_seconds": res.runtime_seconds}


def _result_text(**overrides):
    """A result document, valid but for overrides, as JSON text."""
    doc = {"kind": "estimation", "spec": {}, "summary": {}, "runtime_seconds": 0.1,
           "records": {"replicate": [0]}}
    return json.dumps({**doc, **overrides})


class TestResultIO:
    @pytest.mark.parametrize("spec", [
        ScenarioSpec(kind="convergence", v=0.5, m=14, replicates=30, seed=2),
        ScenarioSpec(kind="convergence", v=0.5, m=14, replicates=30, seed=2,
                     shift=1),
        # missed replicates, and records with and without v_hat
        ScenarioSpec(kind="estimation", v=0.5, m=20, z0=1, rho=0.75,
                     extra_cycles=0, replicates=120, seed=9,
                     fit_efficiency=True),
        ScenarioSpec(kind="coupling", v=0.5, m=12, z0=1, replicates=20,
                     seed=13),
    ], ids=["convergence", "convergence-shift", "estimation-fit-missed",
            "coupling"])
    def test_json_round_trip(self, tmp_path, spec):
        res = run_experiment(spec)
        if spec.kind == "estimation":
            assert res.summary["missed"] >= 1
            with_v = sum(v is not None for v in res.records["v_hat"])
            assert 0 < with_v < len(res.records["v_hat"])
        path = tmp_path / "res.json"
        write_result_json(res, path)
        with open(path) as fh:
            assert json.load(fh) == json.loads(json.dumps(_result_doc(res)))
        back = read_result_json(path)
        assert back.kind == res.kind
        assert back.spec == res.spec
        assert back.summary == res.summary
        assert back.records == res.records

    @pytest.mark.parametrize("size", ["empty", "one", "chunk", "chunk+1",
                                      "4000"])
    def test_chunked_records_round_trip(self, tmp_path, size):
        # one encoder call per column; null stands for a missing value.
        # "chunk" and "chunk+1" are the row counts at the former 100-row
        # chunk boundary
        n = {"empty": 0, "one": 1, "chunk": 100, "chunk+1": 101,
             "4000": 4000}[size]
        records = {"replicate": list(range(n)),
                   "t_mean": [i / 7.0 for i in range(n)],
                   "z_hat": [1 + i % 3 for i in range(n)],
                   "v_hat": [None if i % 5 == 0 else 1.0 - i / 9e3 for i in range(n)]}
        res = ExperimentResult(kind="estimation", spec={"seed": 1},
                               summary={"ks": None},
                               records=records, runtime_seconds=0.25)
        path = tmp_path / "res.json"
        write_result_json(res, path)
        text = path.read_text()
        assert text.count("\n") == 1 and text.endswith("\n")
        with open(path) as fh:
            doc = json.load(fh)
        assert list(doc)[-1] == "records"
        assert doc == json.loads(json.dumps(_result_doc(res)))
        assert read_result_json(path).records == records

    def _refused_writes_keep_old_file(self, tmp_path, bad_results):
        # each (error, result) pair raises error and leaves the good file
        # as it was, with no temp file beside it
        path = tmp_path / "res.json"
        good = ExperimentResult(kind="estimation", spec={}, summary={"x": 1},
                                records={"replicate": [0]}, runtime_seconds=0.1)
        write_result_json(good, path)
        before = path.read_bytes()
        for error, bad in bad_results:
            with pytest.raises(error):
                write_result_json(bad, path)
            assert path.read_bytes() == before
            assert [p.name for p in tmp_path.iterdir()] == ["res.json"]

    def test_unencodable_head_keeps_old_file(self, tmp_path):
        # a numpy scalar is refused, and so is a NaN or an infinity, which
        # would be written as NaN or Infinity, not JSON
        self._refused_writes_keep_old_file(tmp_path, [
            (error, ExperimentResult(kind="estimation", spec={}, summary={"x": x},
                                     records={"replicate": [0]}, runtime_seconds=0.1))
            for error, x in [(TypeError, np.int64(1)), (ValueError, float("nan")),
                             (ValueError, float("inf"))]
        ])

    def test_unencodable_record_keeps_old_file(self, tmp_path):
        # the bad value sits last in the last column, after the rest is written
        self._refused_writes_keep_old_file(tmp_path, [
            (error, ExperimentResult(
                kind="estimation", spec={}, summary={"x": 1},
                records={"replicate": [0, 1], "t_mean": [0.5, x]}, runtime_seconds=0.1))
            for error, x in [(TypeError, np.int64(7)), (ValueError, float("nan")),
                             (ValueError, float("-inf"))]
        ])

    @pytest.mark.parametrize("records,named", [
        ([1, 2], "records must be an object of columns"),
        ({"replicate": [0, 1], "z_hat": [1]}, "records column 'z_hat'"),
        ({"replicate": (0, 1)}, "records column 'replicate' is not a list"),
    ], ids=["list", "unequal-columns", "tuple-column"])
    def test_result_refuses_bad_records(self, records, named):
        # refused when built, not first when written
        with pytest.raises(ValueError, match=named):
            ExperimentResult(kind="estimation", spec={}, summary={}, records=records)

    @pytest.mark.parametrize("text,named", [
        ("[1, 2]", "JSON object"),
        ('{"kind": "estimation", "spec": {}, "summary": {}}', "records"),
        ('{"kind": "estimation", "spec": {}, "summary": {}, "runtime_seconds": 0.1, '
         '"records": [{"replicate": 0}]}', r"res\.json: records must be an object"),
        ('{"kind": "estimation", "spec": {}, "summary": {}, "runtime_seconds": 0.1, '
         '"records": {"replicate": [0, 1], "z_hat": [1]}}', r"res\.json: records column 'z_hat'"),
        (_result_text(kind="bogus"), r"res\.json: unknown kind 'bogus'"),
        (_result_text(spec=[]), r"res\.json: spec and summary must be objects"),
        (_result_text(summary="x"), r"res\.json: spec and summary must be objects"),
        (_result_text(runtime_seconds=-1), r"res\.json: runtime_seconds=-1 must be"),
        (_result_text(runtime_seconds=float("inf")), r"res\.json: runtime_seconds=inf"),
        (_result_text(runtime_seconds=float("nan")), r"res\.json: runtime_seconds=nan"),
    ], ids=["not-an-object", "missing-key", "list-of-rows", "unequal-columns",
            "unknown-kind", "list-spec", "string-summary", "negative-runtime",
            "infinite-runtime", "nan-runtime"])
    def test_reader_rejects_bad_document(self, tmp_path, text, named):
        path = tmp_path / "res.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=named):
            read_result_json(path)

    def test_dispatch(self):
        spec = ScenarioSpec(kind="convergence", replicates=10, m=10)
        assert run_experiment(spec).kind == "convergence"

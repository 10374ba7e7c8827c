"""Tests for threshold-time extraction and copy-number estimation.

Oracles:
  * normal estimator: numeric maximization (scipy) of the normal
    log-density with mean z and variance z*(1-v)/(1+v); the closed form
    must match the argmax to 1e-6.  Frozen value for t=10, v=0.5:
    sqrt(100 + (1/3)^2/4) - 1/6 = 9.834722125785.
  * efficiency inversion: kappa0=0.05, v=0.5 gives
    kappa1 = 0.05 + 0.5*0.05/1.05 = 0.07380952380952381 and the
    estimator returns 0.5 exactly.
  * likelihood scan at t=3, v=0.9: histogram densities (20k samples,
    window 0.15) are 0, 0, 0.92, 0.10, 0.003, 0 for z=1..6, so the
    argmax is 3; the exact densities are 0, 0, 0.936, 0.101, 0.002, 0.
  * tau concentration (v=0.5, K=1.5**30, z0=1, rho=0.05): predicted
    tau = ceil(log_b(G(rho)/W)) over 1e5 limit draws puts 99.0% below
    zero and 92.3% inside [-9, -4].
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpcrkin.kinetics import (
    INVERSE_PRECISION,
    Kinetics,
    inverse_profile,
    limit_profile,
    mean_map,
)
from qpcrkin.simulate import SimConfig, Trajectory, simulate_reaction
from qpcrkin.limit_law import DENSITY_PRECISION, limit_variance, sample_limit
from qpcrkin.inference import (
    BoundaryWarning,
    EstimateReport,
    NotDetectedError,
    Observation,
    OutOfSupportError,
    copy_profile,
    estimate_copies_mle,
    estimate_copies_normal,
    estimate_efficiency,
    estimate_from_trajectory,
    hitting_time,
    invert_copies,
    limit_observables,
    limit_observables_batch,
    observe,
    read_report_json,
    write_report_json,
)


def make_traj(counts, v, K):
    return Trajectory(np.asarray(counts, dtype=np.int64), Kinetics(v=v, K=K))


def synthetic_observation(z, n_hit, v, m=30, n_kappas=5):
    """Noiseless observation from the limit identity kappa_j = H(w*b^(n_hit+j)/K).

    K = (1+v)**m; a non-integer m puts K between powers of b.
    """
    kin = Kinetics(v=v, K=(1.0 + v) ** m)
    j = np.arange(n_kappas)
    kappas = limit_profile(float(z) * kin.b ** (n_hit + j) / kin.K, kin)
    rho = min(0.05, float(kappas[0]))  # threshold sits at or below kappa_0
    return Observation(rho=rho, K=kin.K, n_hit=n_hit, kappas=kappas, v_known=v)


class TestHittingTime:
    def test_immediate_detection(self):
        traj = make_traj([62, 124], v=1.0, K=2.0 ** 10)
        n_hit, tau = hitting_time(traj, rho=0.05)
        assert (n_hit, tau) == (0, -10)

    def test_first_crossing_index(self):
        counts = [1, 2, 4, 8, 16, 32, 64]
        traj = make_traj(counts, v=1.0, K=2.0 ** 6)
        # densities 1/64 .. 1; 0.05 first reached at count 4 (index 2)
        n_hit, tau = hitting_time(traj, rho=0.05)
        assert (n_hit, tau) == (2, -4)

    def test_threshold_met_exactly(self):
        traj = make_traj([1, 2, 4], v=1.0, K=40.0)
        n_hit, _ = hitting_time(traj, rho=0.05)
        assert n_hit == 1  # 2/40 == 0.05 counts as detected

    def test_not_detected(self):
        traj = make_traj([1, 2, 4], v=1.0, K=2.0 ** 20)
        with pytest.raises(NotDetectedError):
            hitting_time(traj, rho=0.05)

    def test_tau_concentrates_on_negative_integers(self):
        # thresholds frozen from the limit-law oracle in the module docstring
        kin = Kinetics.from_exponent(0.5, 30)
        taus = []
        for rep in range(100):
            cfg = SimConfig(kin, z0=1, n_cycles=34, seed=5, replicate_id=rep)
            traj = simulate_reaction(cfg)
            _, tau = hitting_time(traj, rho=0.05)
            taus.append(tau)
        taus = np.asarray(taus)
        assert np.mean(taus < 0) >= 0.95
        assert np.mean((taus >= -9) & (taus <= -4)) >= 0.80


class TestObservation:
    def test_observe_collects_kappas(self):
        counts = [1, 2, 4, 8, 16, 32, 64]
        traj = make_traj(counts, v=1.0, K=2.0 ** 6)
        obs = observe(traj, rho=0.05)
        assert obs.n_hit == 2
        np.testing.assert_allclose(obs.kappas, np.array([4, 8, 16, 32, 64]) / 64.0)
        assert obs.v_known is None

    def test_max_kappas_and_short_tail(self):
        counts = [1, 2, 4, 8]
        traj = make_traj(counts, v=1.0, K=2.0 ** 3)
        obs = observe(traj, rho=0.05, max_kappas=5)
        # crossing at index 0 is impossible here (1/8 > 0.05), so from index 0
        assert obs.n_hit == 0
        assert len(obs.kappas) == 4  # trajectory ends before 5 kappas

        obs2 = observe(traj, rho=0.05, max_kappas=2)
        assert len(obs2.kappas) == 2

    def test_kappas_must_increase(self):
        with pytest.raises(ValueError):
            Observation(
                rho=0.05, K=64.0, n_hit=2,
                kappas=np.array([0.1, 0.1, 0.2]), v_known=None,
            )

    def test_kappa0_at_least_rho(self):
        with pytest.raises(ValueError):
            Observation(
                rho=0.5, K=64.0, n_hit=2,
                kappas=np.array([0.1, 0.2]), v_known=None,
            )


class TestEfficiencyEstimate:
    def test_frozen_example(self):
        k0 = 0.05
        k1 = 0.07380952380952381
        assert abs(estimate_efficiency([k0, k1]) - 0.5) < 1e-15

    @given(
        x=st.floats(min_value=1e-3, max_value=2.0),
        v=st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_exact_on_mean_map_pairs(self, x, v):
        kin = Kinetics(v=v, K=10.0)
        k1 = float(mean_map(x, kin))
        assert abs(estimate_efficiency([x, k1]) - v) <= 1e-12

    def test_averages_consecutive_pairs(self):
        kin = Kinetics(v=0.7, K=10.0)
        ks = [0.2]
        for _ in range(4):
            ks.append(float(mean_map(ks[-1], kin)))
        assert abs(estimate_efficiency(ks) - 0.7) < 1e-12

    def test_uses_first_five_only(self):
        kin = Kinetics(v=0.7, K=10.0)
        ks = [0.2]
        for _ in range(6):
            ks.append(float(mean_map(ks[-1], kin)))
        ks[6] = ks[6] + 5.0  # garbage beyond the window must not matter
        assert abs(estimate_efficiency(ks) - 0.7) < 1e-12

    def test_zero_kappa_rejected(self):
        with pytest.raises(ValueError):
            estimate_efficiency([0.0, 0.1])

    def test_needs_two_values(self):
        with pytest.raises(ValueError):
            estimate_efficiency([0.3])

    def test_simulated_recovery(self):
        kin = Kinetics.from_exponent(0.5, 30)
        vhats = []
        for rep in range(60):
            cfg = SimConfig(kin, z0=1, n_cycles=34, seed=9, replicate_id=rep)
            obs = observe(simulate_reaction(cfg), rho=0.05)
            vhats.append(estimate_efficiency(obs.kappas))
        assert abs(np.median(vhats) - 0.5) < 0.1


class TestLimitObservables:
    def test_noiseless_recovery(self):
        w = 2.3
        obs = synthetic_observation(w, n_hit=27, v=0.5)
        t = limit_observables(obs)
        assert t.shape == (5,)
        np.testing.assert_allclose(t, w, rtol=0, atol=2e-8)

    def test_scale_between_powers_of_b(self):
        # K = 1.5**30.4: rounding log_b K to 30 would leave t off by b**0.4
        w = 2.3
        obs = synthetic_observation(w, n_hit=27, v=0.5, m=30.4)
        np.testing.assert_allclose(limit_observables(obs), w, rtol=0, atol=2e-8)

    def test_positive_and_capped_at_five(self):
        obs = synthetic_observation(1.0, n_hit=28, v=0.9, n_kappas=7)
        t = limit_observables(obs)
        assert len(t) == 5 and np.all(t > 0)

    def test_batch_matches_single(self):
        obs = [
            synthetic_observation(0.7, n_hit=26, v=0.5),
            synthetic_observation(3.1, n_hit=29, v=0.5, n_kappas=3),
            synthetic_observation(1.9, n_hit=32, v=0.5),
        ]
        batch = limit_observables_batch(obs, v=0.5)
        for o, t in zip(obs, batch):
            # each inverse stops on its own certified bound, so batched
            # and single calls agree bitwise; atol is only a loose limit
            np.testing.assert_allclose(
                t, limit_observables(o, v=0.5), rtol=0, atol=2e-8
            )

    def test_needs_some_efficiency(self):
        obs = synthetic_observation(1.0, n_hit=28, v=0.5)
        object.__setattr__(obs, "v_known", None)
        with pytest.raises(ValueError):
            limit_observables(obs)

    def test_batch_rejects_mixed_scales(self):
        obs = [
            synthetic_observation(1.0, n_hit=28, v=0.5),
            synthetic_observation(1.0, n_hit=28, v=0.5, m=31),
        ]
        with pytest.raises(ValueError, match="scales"):
            limit_observables_batch(obs)


class TestExactInversion:
    def test_single_copy_round_trip(self):
        obs = synthetic_observation(7, n_hit=26, v=1.0)
        assert invert_copies(obs) == 7

    def test_round_trip_spot_checks(self):
        for z in (1, 3, 17, 56, 100):
            for n_hit in (15, 18, 20, 23, 25):
                obs = synthetic_observation(z, n_hit=n_hit, v=1.0, m=20)
                assert invert_copies(obs) == z

    def test_round_trip_identity_full_grid(self):
        # vectorized form of the same identity: z = b^(-tau-j) G(H(z b^(tau+j)))
        kin = Kinetics(v=1.0, K=2.0 ** 20)
        z = np.arange(1, 101, dtype=float)
        for tau in range(-5, 6):
            for j in range(5):
                x = z * kin.b ** (tau + j)
                back = inverse_profile(limit_profile(x, kin), kin) / kin.b ** (tau + j)
                assert np.array_equal(np.rint(back), z)

    def test_requires_unit_efficiency(self):
        obs = synthetic_observation(4, n_hit=28, v=0.5)
        with pytest.raises(ValueError):
            invert_copies(obs)

    def test_clamps_to_one(self):
        # kappas from w = 0.2 < 1: the mean rounds to 0, reported as 1
        obs = synthetic_observation(0.2, n_hit=28, v=1.0)
        assert invert_copies(obs) == 1


class TestNormalEstimator:
    def test_frozen_value(self):
        assert abs(estimate_copies_normal(10.0, 0.5) - 9.834722125785) < 1e-11

    def test_matches_numeric_maximization(self):
        optimize = pytest.importorskip("scipy.optimize")

        def neg_loglik(z, t, s2):
            return 0.5 * math.log(2 * math.pi * z * s2) + (t - z) ** 2 / (2 * z * s2)

        for v in (0.25, 0.5, 0.9):
            s2 = limit_variance(v)
            for t in (0.3, 1.0, 3.7, 10.0, 42.0):
                res = optimize.minimize_scalar(
                    neg_loglik, args=(t, s2), bounds=(1e-9, 4 * t + 10),
                    method="bounded", options={"xatol": 1e-10},
                )
                assert abs(estimate_copies_normal(t, v) - res.x) < 1e-6

    @given(
        t=st.floats(min_value=0.01, max_value=1e4),
        v=st.floats(min_value=0.01, max_value=0.999),
    )
    @settings(max_examples=200, deadline=None)
    def test_score_equation(self, t, v):
        z = estimate_copies_normal(t, v)
        s2 = limit_variance(v)
        assert abs(z * z + s2 * z - t * t) <= 1e-10 * max(1.0, t * t)

    def test_unit_efficiency_returns_t(self):
        assert estimate_copies_normal(3.25, 1.0) == 3.25

    @given(t=st.one_of(
        st.floats(min_value=0.0, max_value=9e18),
        st.integers(0, 2 * 10 ** 6).map(lambda k: k / 2),
    ))
    @settings(max_examples=500, deadline=None)
    def test_unit_efficiency_integer_is_exact_inversion(self, t):
        # at v=1 the integer estimate is the exact inversion's rounding,
        # max(1, round(t)) with ties to even, subnormal t included
        want = max(1, round(t))
        assert estimate_copies_normal(t, 1.0, integer=True) == want
        assert estimate_copies_normal(np.array([t]), 1.0, integer=True).tolist() == [want]

    def test_integer_reporting_clamps(self):
        assert estimate_copies_normal(1e-9, 0.5, integer=True) == 1
        assert estimate_copies_normal(10.0, 0.5, integer=True) == 10

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("integer", [False, True])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    def test_rejects_non_finite_or_negative_t(self, bad, integer):
        # no nan, no silent 1 and no numpy cast warning: a ValueError
        for t in (bad, np.array([2.0, bad])):
            with pytest.raises(ValueError, match="t must be finite and nonnegative"):
                estimate_copies_normal(t, 0.5, integer=integer)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_t_does_not_overflow(self):
        # t*t overflows past about 1e154; hypot does not
        assert estimate_copies_normal(1e155, 1.0) == 1e155
        assert estimate_copies_normal(1e155, 0.5) == pytest.approx(1e155, rel=1e-15)
        assert estimate_copies_normal(np.array([1e300]), 0.5)[0] == pytest.approx(1e300)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("t,v", [(1e19, 0.5), (2.0 ** 63, 1.0), (1e155, 0.9)])
    def test_integer_estimate_past_int64_raises(self, t, v):
        for arg in (t, np.array([3.0, t])):
            with pytest.raises(ValueError, match="int64"):
                estimate_copies_normal(arg, v, integer=True)
        # the largest float below 2**63 still rounds to an int64
        top = np.nextafter(2.0 ** 63, 0.0)
        assert estimate_copies_normal(top, 1.0, integer=True) == int(top)

    def test_monotone_in_t(self):
        ts = np.linspace(0.1, 20.0, 50)
        zs = [estimate_copies_normal(t, 0.4) for t in ts]
        assert np.all(np.diff(zs) > 0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            estimate_copies_normal(-1.0, 0.5)
        with pytest.raises(ValueError):
            estimate_copies_normal(1.0, 0.0)


class TestMleEstimator:
    def test_profile_peak_at_three(self):
        # histogram oracle (module docstring): densities peak decisively at z=3
        zhat = estimate_copies_mle(3.0, 0.9)
        assert zhat == 3

    def test_low_t_prefers_single_copy(self):
        assert estimate_copies_mle(1.0, 0.9, z_max=5) == 1

    def test_profile_shape_and_argmax(self):
        prof = copy_profile(3.0, 0.9, z_max=6)
        assert prof.shape == (6,)
        assert int(np.argmax(prof)) + 1 == 3

    def test_profile_vector_points(self):
        pts = np.array([2.0, 3.0, 4.5])
        prof = copy_profile(pts, 0.9, z_max=6)
        assert prof.shape == (6, 3)
        # summation order differs with the point-vector shape: ulp-level gap
        np.testing.assert_allclose(
            prof[:, 1], copy_profile(3.0, 0.9, z_max=6), rtol=1e-12
        )

    def test_boundary_flagged(self):
        # at t=3 the exact densities of z <= 2 are about 1e-11, inside their
        # bounds; at t=2.6 they are about 0.083 (z=2) against 0.52 (z=3)
        with pytest.warns(BoundaryWarning):
            zhat = estimate_copies_mle(2.6, 0.9, z_max=2)
        assert zhat == 2

    def test_out_of_support(self):
        with pytest.raises(OutOfSupportError) as err:
            estimate_copies_mle(500.0, 0.9, z_max=3)
        assert err.value.point == 500.0
        assert 0.0 < err.value.bound <= DENSITY_PRECISION.tol

    def test_degenerate_law_rejected(self):
        with pytest.raises(ValueError):
            estimate_copies_mle(3.0, 1.0)

    def test_agrees_with_normal_for_large_counts(self):
        # local-CLT regime: v=0.9, true z=30
        v, z_true = 0.9, 30
        draws = sample_limit(v, z=z_true, count=20, seed=7).samples
        prof = copy_profile(draws, v, z_max=45)
        mle = np.argmax(prof, axis=0) + 1
        normal = np.array([estimate_copies_normal(t, v) for t in draws])
        agree = np.abs(mle - normal) <= 0.1 * z_true
        assert np.mean(agree) >= 0.9


class TestReportPipeline:
    def run_once(self, v, m, z0, seed=21, **kw):
        kin = Kinetics.from_exponent(v, m)
        cfg = SimConfig(kin, z0=z0, n_cycles=m + 4, seed=seed)
        traj = simulate_reaction(cfg)
        return estimate_from_trajectory(traj, rho=0.05, **kw)

    def test_known_efficiency_report(self):
        rep = self.run_once(0.5, 30, 3, v_known=0.5)
        assert isinstance(rep, EstimateReport)
        assert rep.v_hat is None and rep.z_hat_mle is None
        assert rep.t_values.shape[0] == 5 and np.all(rep.t_values > 0)
        assert 0.0 < rep.z_hat_normal < 40.0
        assert rep.settings["rho"] == 0.05

    def test_fitted_efficiency(self):
        rep = self.run_once(0.5, 30, 3, v_known=0.5, fit_efficiency=True)
        assert rep.v_hat is not None and abs(rep.v_hat - 0.5) < 0.2

    def test_unit_efficiency_uses_exact_inversion(self):
        rep = self.run_once(1.0, 16, 5, v_known=1.0)
        assert rep.z_hat_mle is not None and rep.z_hat_mle >= 1
        assert rep.z_hat_normal == pytest.approx(float(np.mean(rep.t_values)))
        assert abs(rep.z_hat_mle - 5) <= 1

    def test_mle_in_report(self):
        rep = self.run_once(
            0.9, 25, 2, v_known=0.9, run_mle=True
        )
        assert rep.z_hat_mle is not None and rep.z_hat_mle >= 1
        assert rep.diagnostics["mle_profile"] is not None

    def test_mle_diagnostics(self):
        rep = self.run_once(0.5, 30, 3, v_known=0.5, run_mle=True)
        diag = rep.diagnostics
        assert len(diag["mle_bound"]) == len(diag["mle_profile"]) == rep.settings["z_max"]
        assert all(0.0 < b <= DENSITY_PRECISION.tol for b in diag["mle_bound"])
        assert diag["mle_points"] > 0 and diag["mle_depth"] > 0
        assert rep.z_hat_mle == int(np.argmax(diag["mle_profile"])) + 1

    def test_needs_v_somewhere(self):
        with pytest.raises(ValueError):
            self.run_once(0.5, 30, 3)

    def test_scan_out_of_support_raises(self):
        # t is near 40, far beyond the only candidate z=1: the pipeline
        # must raise like estimate_copies_mle rather than report z=1
        kin = Kinetics.from_exponent(0.5, 30)
        traj = simulate_reaction(SimConfig(kin, z0=40, n_cycles=34, seed=1))
        with pytest.raises(OutOfSupportError):
            estimate_from_trajectory(
                traj, rho=0.05, v_known=0.5, run_mle=True, z_max=1,
            )

    def test_report_validation(self):
        good = dict(
            z_hat_mle=3, z_hat_normal=2.9, v_hat=None,
            t_values=np.array([2.8, 3.0]), tau=-4,
            kappas=np.array([0.06, 0.08]), settings={}, diagnostics={},
        )
        EstimateReport(**good)
        with pytest.raises(ValueError):
            EstimateReport(**{**good, "z_hat_mle": 0})
        with pytest.raises(ValueError):
            EstimateReport(**{**good, "t_values": np.array([2.8, -0.1])})

    @pytest.mark.parametrize("args,kw", [
        # run_mle=False below v=1: z_hat_mle and mle_profile are None
        ((0.5, 30, 3), dict(v_known=0.5, fit_efficiency=True)),
        ((0.9, 25, 2), dict(v_known=0.9, run_mle=True)),
        ((1.0, 16, 5), dict(v_known=1.0)),
    ], ids=["no-mle", "mle", "exact"])
    def test_json_round_trip(self, tmp_path, args, kw):
        rep = self.run_once(*args, **kw)
        run_mle = kw.get("run_mle", False)
        assert (rep.diagnostics["mle_profile"] is None) == (not run_mle)
        assert (rep.z_hat_mle is None) == (args[0] < 1.0 and not run_mle)
        path = tmp_path / "report.json"
        write_report_json(rep, path)
        back = read_report_json(path)
        assert back.z_hat_mle == rep.z_hat_mle
        assert back.z_hat_normal == rep.z_hat_normal
        assert back.v_hat == rep.v_hat
        assert back.tau == rep.tau
        np.testing.assert_array_equal(back.t_values, rep.t_values)
        np.testing.assert_array_equal(back.kappas, rep.kappas)
        assert back.settings == rep.settings
        assert back.diagnostics == rep.diagnostics
        doc = {
            "z_hat_mle": rep.z_hat_mle, "z_hat_normal": rep.z_hat_normal,
            "v_hat": rep.v_hat, "t_values": rep.t_values.tolist(),
            "tau": rep.tau, "kappas": rep.kappas.tolist(),
            "settings": rep.settings, "diagnostics": rep.diagnostics,
        }
        text = path.read_text()
        assert text.count("\n") == 1 and text.endswith("\n")
        assert json.loads(text) == json.loads(json.dumps(doc))

    def test_unencodable_report_keeps_old_file(self, tmp_path):
        rep = self.run_once(0.5, 30, 3, v_known=0.5)
        path = tmp_path / "report.json"
        write_report_json(rep, path)
        before = path.read_bytes()
        bad = replace(rep, settings={**rep.settings, "z_max": np.int64(9)})
        with pytest.raises(TypeError):
            write_report_json(bad, path)
        assert path.read_bytes() == before

    @pytest.mark.parametrize("text,named", [
        ('"report"', "JSON object"),
        ('{"z_hat_mle": 3, "z_hat_normal": 2.9, "v_hat": null}', "t_values"),
    ], ids=["not-an-object", "missing-key"])
    def test_reader_rejects_bad_document(self, tmp_path, text, named):
        path = tmp_path / "report.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=named):
            read_report_json(path)

    def test_recovered_t_tracks_limit_law(self):
        # small-scale version of the distributional check: recovered t values
        # behave like draws of the z0-fold limit sum
        from qpcrkin.experiments import ks_distance

        kin = Kinetics.from_exponent(0.5, 30)
        ts = []
        for rep in range(120):
            cfg = SimConfig(kin, z0=3, n_cycles=34, seed=17, replicate_id=rep)
            report = estimate_from_trajectory(
                simulate_reaction(cfg), rho=0.05, v_known=0.5
            )
            ts.append(float(np.mean(report.t_values)))
        ref = sample_limit(0.5, z=3, count=20000, seed=18).samples
        assert ks_distance(np.asarray(ts), ref) < 0.15

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
    Precision,
    PrecisionError,
    inverse_profile,
    limit_profile,
    mean_map,
)
from qpcrkin.simulate import Trajectory, simulate_reaction
from qpcrkin.limit_law import (
    DENSITY_PRECISION,
    ancestor_density,
    limit_variance,
    sample_limit,
)
from qpcrkin import inference
from qpcrkin.inference import (
    MAX_KAPPAS,
    BoundaryWarning,
    EstimateReport,
    NotDetectedError,
    Observation,
    OutOfSupportError,
    copy_profile,
    estimate_copies_normal,
    estimate_efficiency,
    estimate_from_trajectory,
    hitting_time,
    limit_observables_batch,
    observe,
    observe_rows,
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
    return Observation(rho=rho, K=kin.K, n_hit=n_hit, kappas=kappas)


def exact_copies(obs):
    """The exact inversion at v = 1: the mean t_j rounded, at least 1."""
    t = limit_observables_batch([obs], 1.0)[0]
    return estimate_copies_normal(t.mean(), 1.0, integer=True)


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

    def test_reads_only_the_crossing(self):
        # flat after the crossing: the crossing is still defined, but the
        # densities are no observation, since they must increase strictly
        traj = Trajectory([4, 4, 8], Kinetics(1.0, 64.0))
        assert hitting_time(traj, 0.05) == (0, -6)
        with pytest.raises(ValueError, match="strictly increasing"):
            observe(traj, 0.05)

    def test_tau_concentrates_on_negative_integers(self):
        # thresholds frozen from the limit-law oracle in the module docstring
        kin = Kinetics.from_exponent(0.5, 30)
        taus = []
        for rep in range(100):
            traj = simulate_reaction(kin, 1, 34, seed=5, replicate_id=rep)
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
        # only what an experimenter sees: no efficiency
        assert list(Observation.__dataclass_fields__) == ["rho", "K", "n_hit", "kappas"]

    def test_max_kappas_and_short_tail(self):
        counts = [1, 2, 4, 8]
        traj = make_traj(counts, v=1.0, K=2.0 ** 3)
        obs = observe(traj, rho=0.05)
        # crossing at index 0 is impossible here (1/8 > 0.05), so from index 0
        assert obs.n_hit == 0
        assert len(obs.kappas) == 4  # trajectory ends before 5 kappas

        long = make_traj(2 ** np.arange(9), v=1.0, K=2.0 ** 8)
        obs2 = observe(long, rho=0.05)
        assert obs2.n_hit == 4
        assert len(obs2.kappas) == MAX_KAPPAS

    def test_kappas_must_increase(self):
        with pytest.raises(ValueError):
            Observation(
                rho=0.05, K=64.0, n_hit=2,
                kappas=np.array([0.1, 0.1, 0.2]),
            )

    def test_kappa0_at_least_rho(self):
        with pytest.raises(ValueError):
            Observation(
                rho=0.5, K=64.0, n_hit=2,
                kappas=np.array([0.1, 0.2]),
            )

    @pytest.mark.parametrize("field,value,named", [
        ("K", math.inf, "K must be finite"),
        ("K", math.nan, "K must be finite"),
        ("kappas", [math.nan, 0.2], "kappas must be finite"),
        ("kappas", [0.1, math.inf], "kappas must be finite"),
        ("n_hit", 2.5, "n_hit"),
        ("n_hit", True, "n_hit"),
    ], ids=["inf-K", "nan-K", "nan-kappa", "inf-kappa", "fractional-n_hit",
            "bool-n_hit"])
    def test_rejects_values_the_readers_would_fail_on(self, field, value, named):
        # NaN compares false, so the ordering checks alone let these through
        good = dict(rho=0.05, K=64.0, n_hit=2, kappas=[0.1, 0.2])
        with pytest.raises(ValueError, match=named):
            Observation(**{**good, field: value})

    def test_numpy_crossing_cycle_accepted(self):
        n_hit, kappas = observe_rows([[0.01, 0.1, 0.2]], 0.05)
        obs = Observation(rho=0.05, K=64.0, n_hit=n_hit[0], kappas=kappas[0][:2])
        assert obs.n_hit == 1


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

    @pytest.mark.parametrize("kappas, named", [
        ([0.1, np.nan], "finite"),
        ([0.1, np.inf], "finite"),
        ([0.1, 0.15, np.nan], "finite"),
        ([0.2, 0.1], "strictly increasing"),
    ], ids=["nan", "inf", "trailing-nan", "decreasing"])
    def test_bad_densities_rejected(self, kappas, named):
        # these used to give nan, inf, 0.55 and -0.6
        with pytest.raises(ValueError, match=named):
            estimate_efficiency(kappas)

    def test_simulated_recovery(self):
        kin = Kinetics.from_exponent(0.5, 30)
        vhats = []
        for rep in range(60):
            obs = observe(simulate_reaction(kin, 1, 34, seed=9, replicate_id=rep), rho=0.05)
            vhats.append(estimate_efficiency(obs.kappas))
        assert abs(np.median(vhats) - 0.5) < 0.1


class TestLimitObservables:
    def test_noiseless_recovery(self):
        w = 2.3
        obs = synthetic_observation(w, n_hit=27, v=0.5)
        t = limit_observables_batch([obs], 0.5)[0]
        assert t.shape == (5,)
        np.testing.assert_allclose(t, w, rtol=0, atol=2e-8)

    def test_scale_between_powers_of_b(self):
        # K = 1.5**30.4: rounding log_b K to 30 would leave t off by b**0.4
        w = 2.3
        obs = synthetic_observation(w, n_hit=27, v=0.5, m=30.4)
        t = limit_observables_batch([obs], 0.5)[0]
        np.testing.assert_allclose(t, w, rtol=0, atol=2e-8)

    def test_positive_and_capped_at_five(self):
        obs = synthetic_observation(1.0, n_hit=28, v=0.9, n_kappas=7)
        t = limit_observables_batch([obs], 0.9)[0]
        assert len(t) == 5 and np.all(t > 0)

    def test_batch_matches_single(self):
        # each row of a batch against the batch of its observation alone
        obs = [
            synthetic_observation(0.7, n_hit=26, v=0.5),
            synthetic_observation(3.1, n_hit=29, v=0.5, n_kappas=3),
            synthetic_observation(1.9, n_hit=32, v=0.5),
        ]
        batch = limit_observables_batch(obs, v=0.5)
        for o, t in zip(obs, batch):
            # the batch runs to the depth of its largest density, so each
            # t_j lies within its certified bound K b**-(n_hit+j) tol of
            # the single call
            scales = o.K * 1.5 ** -(o.n_hit + np.arange(t.size))
            assert np.all(np.abs(t - limit_observables_batch([o], v=0.5)[0])
                          <= scales * INVERSE_PRECISION.tol)

    def test_batch_rejects_mixed_scales(self):
        obs = [
            synthetic_observation(1.0, n_hit=28, v=0.5),
            synthetic_observation(1.0, n_hit=28, v=0.5, m=31),
        ]
        with pytest.raises(ValueError, match="scales"):
            limit_observables_batch(obs, 0.5)


class TestExactInversion:
    def test_single_copy_round_trip(self):
        obs = synthetic_observation(7, n_hit=26, v=1.0)
        assert exact_copies(obs) == 7

    def test_round_trip_spot_checks(self):
        for z in (1, 3, 17, 56, 100):
            for n_hit in (15, 18, 20, 23, 25):
                obs = synthetic_observation(z, n_hit=n_hit, v=1.0, m=20)
                assert exact_copies(obs) == z

    def test_round_trip_identity_full_grid(self):
        # vectorized form of the same identity: z = b^(-tau-j) G(H(z b^(tau+j)))
        kin = Kinetics(v=1.0, K=2.0 ** 20)
        z = np.arange(1, 101, dtype=float)
        for tau in range(-5, 6):
            for j in range(5):
                x = z * kin.b ** (tau + j)
                back = inverse_profile(limit_profile(x, kin), kin) / kin.b ** (tau + j)
                assert np.array_equal(np.rint(back), z)

    def test_clamps_to_one(self):
        # kappas from w = 0.2 < 1: the mean rounds to 0, reported as 1
        obs = synthetic_observation(0.2, n_hit=28, v=1.0)
        assert exact_copies(obs) == 1


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
        zhat, _ = inference._scan(3.0, 0.9, inference._resolve_z_max(3.0, None))
        assert zhat == 3

    def test_low_t_prefers_single_copy(self):
        assert inference._scan(1.0, 0.9, 5)[0] == 1

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
            zhat, _ = inference._scan(2.6, 0.9, 2)
        assert zhat == 2

    def test_out_of_support(self):
        with pytest.raises(OutOfSupportError) as err:
            inference._scan(500.0, 0.9, 3)
        assert err.value.point == 500.0
        assert 0.0 < err.value.bound <= DENSITY_PRECISION.tol

    def test_degenerate_law_rejected(self):
        with pytest.raises(ValueError):
            inference._scan(3.0, 1.0, inference._resolve_z_max(3.0, None))

    def test_agrees_with_normal_for_large_counts(self):
        # local-CLT regime: v=0.9, true z=30
        v, z_true = 0.9, 30
        draws = sample_limit(v, z=z_true, count=20, seed=7).samples
        prof = copy_profile(draws, v, z_max=45)
        mle = np.argmax(prof, axis=0) + 1
        normal = np.array([estimate_copies_normal(t, v) for t in draws])
        agree = np.abs(mle - normal) <= 0.1 * z_true
        assert np.mean(agree) >= 0.9

    def test_decision_matches_a_deep_reference(self):
        # 60 inputs shaped like a single-trajectory estimate: v = 0.5,
        # m = 30, known and fitted efficiency, z0 = 1..6, z_max =
        # max(10, 4 z0).  The reference profile sums 16 times the scan's
        # frequencies; its winner leads every other candidate by more than
        # the scan's bounds of both, so the scan's argmax must be its
        kin = Kinetics.from_exponent(0.5, 30)
        for z0 in range(1, 7):
            z_max = max(10, 4 * z0)
            for seed in range(5):
                traj = simulate_reaction(kin, z0=z0, n_cycles=40, seed=seed)
                for fit in (False, True):
                    rep = estimate_from_trajectory(traj, 0.05, v_known=None if fit else 0.5)
                    t, v = float(rep.t_values.mean()), rep.v_hat if fit else 0.5
                    dens = ancestor_density(t, v, z_max)
                    with pytest.raises(PrecisionError) as err:
                        ancestor_density(t, v, z_max,
                                         Precision(tol=1e-15, max_iter=16 * dens.points))
                    ref, bound = err.value.value[:, 0], dens.bounds[:, 0]
                    win = int(np.argmax(ref))
                    others = np.arange(z_max) != win
                    assert np.all(ref[win] - ref[others] > bound[win] + bound[others])
                    assert inference._scan(t, v, z_max)[0] == win + 1


def _report_text(**overrides):
    """A report document, valid but for overrides, as JSON text."""
    doc = {"z_hat_mle": 3, "z_hat_normal": 2.9, "v_hat": 0.5, "t_values": [2.8],
           "tau": -4, "kappas": [0.1], "settings": {}, "diagnostics": {}}
    return json.dumps({**doc, **overrides})


class TestReportPipeline:
    def run_once(self, v, m, z0, seed=21, **kw):
        kin = Kinetics.from_exponent(v, m)
        traj = simulate_reaction(kin, z0, m + 4, seed=seed)
        return estimate_from_trajectory(traj, rho=0.05, **kw)

    def test_known_efficiency_report(self):
        rep = self.run_once(0.5, 30, 3, v_known=0.5)
        assert isinstance(rep, EstimateReport)
        assert rep.v_hat is None and rep.z_hat_mle is None
        assert rep.t_values.shape[0] == 5 and np.all(rep.t_values > 0)
        assert 0.0 < rep.z_hat_normal < 40.0
        assert rep.settings["rho"] == 0.05

    def test_fitted_efficiency(self):
        # without v_known the efficiency is fitted and the fit inverts
        rep = self.run_once(0.5, 30, 3)
        assert rep.v_hat is not None and abs(rep.v_hat - 0.5) < 0.2
        assert rep.diagnostics["v_hat_clipped_from"] is None
        assert rep.settings["v_known"] is None and rep.settings["fit_efficiency"] is True

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
        # the efficiency is given or fitted, and a one-density window (the
        # crossing at the last cycle) cannot be fitted
        traj = make_traj([1, 2, 4], v=1.0, K=64.0)
        assert observe(traj, 0.05).kappas.size == 1
        with pytest.raises(ValueError, match="two densities"):
            estimate_from_trajectory(traj, rho=0.05)
        assert estimate_from_trajectory(traj, rho=0.05, v_known=1.0).z_hat_mle == 1

    @pytest.mark.parametrize("v_known", [0.0, 1.0001])
    def test_known_efficiency_outside_unit_interval_raises(self, v_known):
        # only a fit is clipped to 1; an explicit efficiency is checked
        with pytest.raises(ValueError, match="outside"):
            self.run_once(1.0, 20, 3, v_known=v_known)

    def test_scan_out_of_support_raises(self):
        # t is near 40, far beyond the only candidate z=1: the pipeline
        # must raise like the scan alone rather than report z=1
        kin = Kinetics.from_exponent(0.5, 30)
        traj = simulate_reaction(kin, z0=40, n_cycles=34, seed=1)
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

    @pytest.mark.parametrize("field,value", [
        ("z_hat_normal", math.nan), ("z_hat_normal", math.inf),
        ("t_values", [math.nan]), ("t_values", [2.8, math.inf]),
        ("kappas", [math.nan]), ("kappas", [0.06, -math.inf]),
    ])
    def test_report_rejects_non_finite_values(self, field, value):
        # NaN fails every comparison, so it passed the sign checks
        good = dict(z_hat_mle=None, z_hat_normal=2.9, v_hat=None,
                    t_values=[2.8], tau=0, kappas=[0.1])
        with pytest.raises(ValueError, match=field):
            EstimateReport(**{**good, field: value})

    def test_report_writer_refuses_nan(self, tmp_path):
        # a NaN where the report does not check (diagnostics) is refused by
        # the encoder, since NaN is not JSON; a NaN v_hat is refused by the
        # report itself
        rep = self.run_once(0.5, 30, 3, v_known=0.5)
        path = tmp_path / "report.json"
        with pytest.raises(ValueError, match="v_hat"):
            replace(rep, v_hat=math.nan)
        bad = replace(rep, diagnostics={**rep.diagnostics, "t_spread": math.inf})
        with pytest.raises(ValueError, match="JSON compliant"):
            write_report_json(bad, path)
        assert not path.exists()

    @pytest.mark.parametrize("args,kw", [
        # run_mle=False below v=1: z_hat_mle and mle_profile are None; the
        # efficiency is fitted, so v_hat is set
        ((0.5, 30, 3), dict()),
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
        ('{"z_hat_mle": 3, "z_hat_normal": 2.9, "v_hat": null, "t_values": [-1], '
         '"tau": 0, "kappas": [0.1], "settings": {}, "diagnostics": {}}',
         r"report\.json: t_values must all be finite and positive"),
        ("{", r"report\.json: Expecting property name"),
        (_report_text(v_hat=1.7), r"report\.json: v_hat must be null or in \(0, 1\]"),
        (_report_text(v_hat=math.nan), r"report\.json: v_hat must be null"),
        (_report_text(v_hat=0.0), r"report\.json: v_hat must be null"),
        (_report_text(tau="x"), r"report\.json: tau must be an integer"),
        (_report_text(tau=True), r"report\.json: tau must be an integer"),
        (_report_text(tau=-4.5), r"report\.json: tau must be an integer"),
        (_report_text(settings="x"), r"report\.json: settings and diagnostics"),
        (_report_text(diagnostics=[]), r"report\.json: settings and diagnostics"),
        (_report_text(z_hat_mle=2.5), r"report\.json: z_hat_mle must be null or a positive"),
        (_report_text(z_hat_mle=True), r"report\.json: z_hat_mle must be null or a positive"),
        (_report_text(z_hat_normal=True), r"report\.json: z_hat_normal must be a number"),
    ], ids=["not-an-object", "missing-key", "negative-t", "not-json",
            "v_hat-above-1", "nan-v_hat", "zero-v_hat", "string-tau", "bool-tau",
            "fractional-tau", "string-settings", "list-diagnostics", "fractional-z_hat_mle",
            "bool-z_hat_mle", "bool-z_hat_normal"])
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
            report = estimate_from_trajectory(
                simulate_reaction(kin, 3, 34, seed=17, replicate_id=rep), rho=0.05, v_known=0.5
            )
            ts.append(float(np.mean(report.t_values)))
        ref = sample_limit(0.5, z=3, count=20000, seed=18).samples
        assert ks_distance(np.asarray(ts), ref) < 0.15

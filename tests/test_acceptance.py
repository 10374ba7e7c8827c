"""Acceptance suite: twelve pinned-tolerance checks covering the profile
functions, the growth-limit law, the coupling construction, and the full
estimation chain.

Each test prints exactly one PASS/FAIL line with the measured quantity and
its pinned tolerance (run with -s to stream them).  Seeds are fixed, so
every number here is reproducible bit for bit.  Observed calibration values
are recorded in README.md.
"""

import numpy as np
import pytest

from qpcrkin.kinetics import (
    Kinetics,
    inverse_profile,
    limit_profile,
    mean_map,
)
from qpcrkin.simulate import (
    SimConfig,
    noise_sequence,
    order_violations,
    simulate_coupled_replicates,
    simulate_reaction,
)
from qpcrkin.limit_law import limit_mgf, limit_variance, sample_limit
from qpcrkin.inference import (
    NotDetectedError,
    estimate_copies_normal,
    estimate_efficiency,
    observe,
)
from qpcrkin.experiments import ScenarioSpec, run_convergence, run_estimation

EFFICIENCIES = (0.25, 0.5, 0.9, 1.0)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_01_profile_functional_equation():
    # H(x) = f(H(x/b)) on [0, 4] step 0.01, residual <= 1e-9 at tol 1e-10
    x = np.arange(0, 401) * 0.01
    worst = 0.0
    for v in EFFICIENCIES:
        kin = Kinetics(v=v, K=2.0)
        h = limit_profile(x, kin)
        h_inner = limit_profile(x / kin.b, kin)
        worst = max(worst, float(np.max(np.abs(h - mean_map(h_inner, kin)))))
    _report(1, worst <= 1e-9,
            f"functional-equation residual max {worst:.3e} (tol 1e-9)")


def test_02_sandwich_bound():
    x = np.arange(1, 100) * 0.01
    ok = True
    worst = ""
    for v in EFFICIENCIES:
        h = limit_profile(x, Kinetics(v=v, K=2.0))
        if not (np.all(h <= x) and np.all(h >= x - x * x)):
            ok = False
            worst = f" (violated at v={v})"
    _report(2, ok, f"x - x^2 <= H(x) <= x on (0,1) for all v{worst}")


def test_03_inverse_round_trip():
    x = np.arange(1, 301) * 0.01
    worst = 0.0
    for v in EFFICIENCIES:
        kin = Kinetics(v=v, K=2.0)
        back = inverse_profile(limit_profile(x, kin), kin)
        worst = max(worst, float(np.max(np.abs(back - x))))
    _report(3, worst <= 1e-7,
            f"|G(H(x)) - x| max {worst:.3e} on [0.01, 3] (tol 1e-7)")


def test_04_mgf_functional_equation():
    s = np.linspace(0.0, 5.0, 101)
    worst = 0.0
    slope_dev = 0.0
    at_zero_exact = True
    for v in (0.25, 0.5, 0.9):
        b = 1.0 + v
        phi = limit_mgf(s, v)
        phi_b = limit_mgf(b * s, v)
        worst = max(worst, float(np.max(np.abs(
            phi_b - (1.0 - v) * phi - v * phi * phi))))
        at_zero_exact &= limit_mgf(0.0, v) == 1.0
        h = 1e-5
        slope = (limit_mgf(h, v) - 1.0) / h
        slope_dev = max(slope_dev, abs(slope + 1.0))
    ok = worst <= 1e-9 and at_zero_exact and slope_dev <= 1e-4
    _report(4, ok,
            f"mgf equation residual max {worst:.3e} (tol 1e-9), "
            f"phi(0)=1 exact: {at_zero_exact}, "
            f"slope dev {slope_dev:.3e} (tol 1e-4)")


def test_05_limit_moments():
    count = 10 ** 5
    ok = True
    details = []
    for idx, v in enumerate((0.25, 0.5, 0.9)):
        samples = sample_limit(v, z=1, count=count, seed=51 + idx).samples
        mean = float(samples.mean())
        var = float(samples.var(ddof=1))
        se_mean = float(samples.std(ddof=1)) / np.sqrt(count)
        centered = samples - mean
        se_var = float(np.sqrt(
            (np.mean(centered ** 4) - var ** 2) / count))
        mean_ok = abs(mean - 1.0) <= 3 * se_mean
        var_ok = abs(var - limit_variance(v)) <= 3 * se_var
        ok &= mean_ok and var_ok
        details.append(f"v={v}: |mean-1|={abs(mean - 1):.2e}<=3SE:{mean_ok}, "
                       f"|var-dev|={abs(var - limit_variance(v)):.2e}"
                       f"<=3SE:{var_ok}")
    degenerate = all(
        np.all(sample_limit(1.0, z=z0, count=10 ** 4,
                            seed=55 + z0).samples == z0)
        for z0 in (1, 4))
    ok &= degenerate
    _report(5, ok, "; ".join(details) + f"; v=1 all samples == z0: {degenerate}")


@pytest.fixture(scope="module")
def convergence_medians():
    ks25, ks35, shifted = [], [], []
    for seed in range(5):
        r35 = run_convergence(ScenarioSpec(
            kind="convergence", v=0.5, m=35, z0=1, replicates=5000,
            seed=seed, shift=1))
        r25 = run_convergence(ScenarioSpec(
            kind="convergence", v=0.5, m=25, z0=1, replicates=5000,
            seed=seed))
        ks35.append(r35.summary["ks"])
        shifted.append(r35.summary["ks_shifted"])
        ks25.append(r25.summary["ks"])
    return (float(np.median(ks25)), float(np.median(ks35)),
            float(np.median(shifted)))


def test_06_density_convergence(convergence_medians):
    med25, med35, _ = convergence_medians
    # threshold 0.05 frozen after calibration (observed ~0.011, see README)
    ok = med35 < med25 and med35 <= 0.05
    _report(6, ok,
            f"KS median m=35 {med35:.4f} < m=25 {med25:.4f} "
            f"and <= 0.05")


def test_07_one_cycle_shift(convergence_medians):
    _, med35, med_shift = convergence_medians
    diff = abs(med_shift - med35)
    _report(7, diff <= 0.02,
            f"shifted KS median {med_shift:.4f} within {diff:.4f} of "
            f"unshifted {med35:.4f} (tol 0.02)")


def test_08_coupling_order():
    total = 0
    runs = 0
    for v in (0.5, 1.0):
        kin = Kinetics.from_exponent(v, 10)
        counts = simulate_coupled_replicates(kin, 1, 10, 1000, gamma=0.75, seed=80)
        total += sum(order_violations(counts, kin.K ** 0.75).values())
        runs += counts.shape[1]
    _report(8, total == 0,
            f"{total} order violations across {runs} coupled runs (tol 0)")


def test_09_noise_second_moment():
    ok = True
    details = []
    for v in (0.5, 1.0):
        kin = Kinetics.from_exponent(v, 10)
        z0 = int(round(kin.K))  # start near scale so the bound is tight
        chunks = [
            noise_sequence(simulate_reaction(SimConfig(
                kin, z0=z0, n_cycles=10, seed=900, replicate_id=i))) ** 2
            for i in range(10 ** 4)
        ]
        pooled = np.concatenate(chunks)
        se = float(pooled.std(ddof=1)) / np.sqrt(pooled.size)
        bound = v + 3 * se
        ok &= float(pooled.mean()) <= bound
        details.append(f"v={v}: E eps^2 {pooled.mean():.4f} <= {bound:.4f} "
                       f"over {pooled.size} replicate-cycles")
    _report(9, ok, "; ".join(details))


def test_10_exact_inversion_recovery():
    within = detected = 0
    for z0 in range(1, 11):
        res = run_estimation(ScenarioSpec(
            kind="estimation", v=1.0, m=20, z0=z0, replicates=200,
            seed=200 + z0))
        detected += res.summary["detected"]
        within += sum(abs(z_hat - z0) <= 1 for z_hat in res.records["z_hat"])
    frac = within / detected
    _report(10, frac >= 0.90,
            f"|z_hat - z0| <= 1 in {frac:.3f} of {detected} detected "
            f"replicates (need >= 0.90)")


def _golden_max(fn, lo: float, hi: float, tol: float = 1e-12) -> float:
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def test_11_estimation_chain():
    res = run_estimation(ScenarioSpec(
        kind="estimation", v=0.5, m=35, z0=3, replicates=500, seed=311))
    ks = res.summary["t_vs_limit_ks"]

    sigma_sq = limit_variance(0.5)

    def log_density(t):
        return lambda z: (-0.5 * np.log(z * sigma_sq)
                          - (t - z) ** 2 / (2.0 * z * sigma_sq))

    worst = 0.0
    for t in res.records["t_mean"]:
        oracle = _golden_max(log_density(t), 1e-8, 4.0 * t + 10.0)
        worst = max(worst, abs(estimate_copies_normal(t, 0.5) - oracle))
    ok = ks <= 0.1 and worst <= 1e-6
    _report(11, ok,
            f"recovered-t KS {ks:.4f} (tol 0.1); normal estimator vs "
            f"numeric-maximization oracle max dev {worst:.2e} on "
            f"{len(res.records['t_mean'])} values (tol 1e-6)")


def test_12_efficiency_recovery():
    worst_exact = 0.0
    for v in np.linspace(0.05, 1.0, 20):
        kin = Kinetics(v=float(v), K=2.0)
        for x in (0.01, 0.05, 0.2, 0.5, 1.5):
            pair = np.array([x, float(mean_map(x, kin))])
            worst_exact = max(worst_exact,
                              abs(estimate_efficiency(pair) - v))
    exact_ok = worst_exact <= 1e-12

    medians, misses = [], []
    for v in (0.5, 0.9):
        kin = Kinetics.from_exponent(v, 35)
        devs = []
        for i in range(200):
            traj = simulate_reaction(SimConfig(
                kin, z0=1, n_cycles=38, seed=120, replicate_id=i))
            try:
                kappas = observe(traj, 0.05).kappas
            except NotDetectedError:
                kappas = ()
            # a run seen at fewer than two densities is a miss, deviation
            # inf: the median fails if half the runs go unobserved
            devs.append(abs(estimate_efficiency(kappas) - v) if len(kappas) >= 2 else np.inf)
        medians.append(float(np.median(devs)))
        misses.append(devs.count(np.inf))
    sim_ok = all(m <= 0.05 for m in medians)
    _report(12, exact_ok and sim_ok,
            f"noiseless recovery max dev {worst_exact:.2e} (tol 1e-12); "
            f"simulated medians {[f'{m:.2e}' for m in medians]} (tol 0.05), "
            f"misses {misses} of 200 runs each")

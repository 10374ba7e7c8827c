"""Tests for the scaled-growth limit: sampling, transform, densities."""

import math

import numpy as np
import pytest

from qpcrkin.kinetics import Precision
from qpcrkin.limit_law import (
    DensityEstimate,
    LimitEnsemble,
    PointMassError,
    default_generations,
    limit_density,
    limit_mgf,
    limit_variance,
    read_ensemble_csv,
    sample_limit,
    write_density_csv,
    write_ensemble_csv,
)


class TestSampling:
    def test_degenerate_at_full_efficiency(self):
        ens = sample_limit(1.0, z=3, count=50, seed=1)
        assert np.all(ens.samples == 3.0)
        assert ens.n_gen == 20  # 2**20 is the first power above 10**6

    def test_default_depth_reaches_scale(self):
        for v in (0.25, 0.5, 0.9):
            n = default_generations(v)
            assert (1 + v) ** n >= 10 ** 6
            assert (1 + v) ** (n - 1) < 10 ** 6

    def test_rejects_shallow_truncation(self):
        with pytest.raises(ValueError):
            sample_limit(0.5, count=10, n_gen=10)

    def test_mean_and_variance(self):
        v, z, count = 0.5, 1, 20000
        ens = sample_limit(v, z=z, count=count, seed=5)
        sd = math.sqrt(limit_variance(v))
        assert abs(ens.samples.mean() - z) < 4 * sd / math.sqrt(count)
        var = ens.samples.var(ddof=1)
        m4 = np.mean((ens.samples - ens.samples.mean()) ** 4)
        se_var = math.sqrt((m4 - limit_variance(v) ** 2) / count)
        assert abs(var - limit_variance(v)) < 4 * se_var

    def test_additivity_over_starting_molecules(self):
        v, count = 0.9, 20000
        ens = sample_limit(v, z=5, count=count, seed=6)
        sd = math.sqrt(5 * limit_variance(v))
        assert abs(ens.samples.mean() - 5) < 4 * sd / math.sqrt(count)
        assert abs(ens.samples.var(ddof=1) - 5 * limit_variance(v)) < 0.1 * 5 * limit_variance(v)

    def test_deeper_truncation_keeps_the_mean(self):
        v, count = 0.5, 20000
        base = default_generations(v)
        a = sample_limit(v, count=count, seed=7, n_gen=base)
        b = sample_limit(v, count=count, seed=8, n_gen=base + 6)
        se = math.sqrt(2 * limit_variance(v) / count)
        assert abs(a.samples.mean() - b.samples.mean()) < 4 * se

    def test_determinism(self):
        a = sample_limit(0.5, count=100, seed=9)
        b = sample_limit(0.5, count=100, seed=9)
        assert np.array_equal(a.samples, b.samples)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            LimitEnsemble(np.array([0.5, 0.0]), v=0.5, z=1, n_gen=35)


class TestTransform:
    def test_at_zero(self):
        assert limit_mgf(0.0, 0.5) == 1.0

    def test_full_efficiency_is_exponential(self):
        s = np.linspace(0.0, 5.0, 21)
        got = limit_mgf(s, 1.0)
        assert np.max(np.abs(got - np.exp(-s))) < 1e-12

    @pytest.mark.parametrize("v", [0.25, 0.5, 0.9])
    def test_offspring_fixed_point_equation(self, v):
        # phi(b*s) = (1-v)*phi(s) + v*phi(s)**2
        s = np.linspace(0.0, 5.0, 26)
        prec = Precision(tol=1e-13, max_iter=10_000)
        phi = limit_mgf(s, v, prec)
        lhs = limit_mgf((1 + v) * s, v, prec)
        rhs = (1 - v) * phi + v * phi * phi
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_unit_mean_slope(self):
        h = 1e-5
        for v in (0.25, 0.5, 0.9):
            slope = (limit_mgf(h, v) - 1.0) / h
            assert slope == pytest.approx(-1.0, abs=1e-4)

    def test_decreasing_in_unit_interval(self):
        s = np.linspace(0.0, 8.0, 33)
        phi = limit_mgf(s, 0.5)
        assert np.all(np.diff(phi) < 0)
        assert np.all(phi > 0)
        assert np.all(phi <= 1.0)

    def test_matches_empirical_transform(self):
        v, count = 0.5, 20000
        ens = sample_limit(v, count=count, seed=11)
        for s in (0.5, 1.0, 2.0):
            emp = np.exp(-s * ens.samples)
            se = emp.std(ddof=1) / math.sqrt(count)
            assert abs(emp.mean() - limit_mgf(s, v)) < 3 * se

    def test_rejects_negative_argument(self):
        with pytest.raises(ValueError):
            limit_mgf(-0.1, 0.5)


class TestDensity:
    def test_point_mass_refused(self):
        ens = sample_limit(1.0, z=2, count=10 ** 4, seed=3)
        with pytest.raises(PointMassError) as err:
            limit_density(ens)
        assert err.value.location == 2.0

    def test_small_ensembles_refused(self):
        ens = sample_limit(0.5, count=100, seed=3)
        with pytest.raises(ValueError):
            limit_density(ens)

    def test_mass_and_shape(self):
        ens = sample_limit(0.5, count=10 ** 4, seed=13)
        est = limit_density(ens)
        assert est.grid.size == 512
        assert est.grid[0] == 0.0
        mass = np.trapezoid(est.values, est.grid)
        assert 0.99 <= mass <= 1.01
        # bandwidth follows the scaled min(sd, IQR/1.34) rule
        sd = ens.samples.std(ddof=1)
        q75, q25 = np.percentile(ens.samples, [75, 25])
        expect = 0.9 * min(sd, (q75 - q25) / 1.34) * ens.count ** (-0.2)
        assert est.bandwidth == pytest.approx(expect)

    def test_transform_cross_check(self):
        # integrating exp(-s x) against the density reproduces the transform
        v = 0.5
        ens = sample_limit(v, count=2 * 10 ** 4, seed=17)
        est = limit_density(ens)
        for s in (0.5, 1.0, 2.0):
            quad = np.trapezoid(np.exp(-s * est.grid) * est.values, est.grid)
            assert abs(quad - limit_mgf(s, v)) < 0.01

    def test_mass_invariant_enforced(self):
        grid = np.linspace(0.0, 1.0, 64)
        with pytest.raises(ValueError):
            DensityEstimate(grid, np.zeros(64), 0.1)


class TestSumDensity:
    def test_large_sum_near_normal(self):
        v, z, count = 0.9, 50, 2 * 10 ** 4
        mu, sd = float(z), math.sqrt(z * limit_variance(v))
        grid = np.linspace(mu - 5 * sd, mu + 5 * sd, 256)
        est = limit_density(sample_limit(v, z=z, count=count, seed=23), grid)
        normal = np.exp(-0.5 * ((grid - mu) / sd) ** 2) / (sd * math.sqrt(2 * math.pi))
        peak = normal.max()
        assert np.max(np.abs(est.values - normal)) < 0.05 * peak


class TestExport:
    def test_ensemble_round_trip(self, tmp_path):
        ens = sample_limit(0.5, z=2, count=200, seed=29)
        path = tmp_path / "ens.csv"
        write_ensemble_csv(ens, path)
        back = read_ensemble_csv(path)
        assert np.array_equal(back.samples, ens.samples)
        assert (back.v, back.z, back.n_gen, back.seed) == (0.5, 2, ens.n_gen, 29)

    def test_density_export(self, tmp_path):
        ens = sample_limit(0.5, count=10 ** 4, seed=31)
        est = limit_density(ens)
        path = tmp_path / "dens.csv"
        write_density_csv(est, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# bandwidth=")
        assert lines[1] == "x,density"
        assert len(lines) == 2 + est.grid.size

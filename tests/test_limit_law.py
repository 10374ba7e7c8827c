"""Tests for the scaled-growth limit: sampling, transform, densities."""

import math

import numpy as np
import pytest

from qpcrkin import limit_law, streams
from qpcrkin.kinetics import (
    _SEED_ORDER,
    Precision,
    PrecisionError,
    _growth_gaps,
    _log_depth,
    _seed_coefficients,
    _tail_depth,
)
from qpcrkin.limit_law import (
    DENSITY_BLOCK,
    DENSITY_PRECISION,
    FREQUENCY_BLOCK,
    MGF_PRECISION,
    LimitEnsemble,
    _cdf_from,
    _complement_iteration,
    _density_from,
    _PsiTable,
    _transform_coefficients,
    ancestor_cdf,
    ancestor_density,
    default_generations,
    limit_mgf,
    limit_variance,
    pointwise_density,
    read_ensemble_csv,
    sample_limit,
    write_ensemble_csv,
)
from qpcrkin.simulate import BLOCK_SIZE, _block_streams


def _certified_depth(c, b, tol):
    """Smallest n >= 0 with c * b**-n <= tol, for c > 0."""
    return _log_depth(math.log(c), b, tol)


class TestSampling:
    def test_degenerate_at_full_efficiency(self):
        ens = sample_limit(1.0, z=3, count=50, seed=1)
        assert np.all(ens.samples == 3.0)
        assert ens.n_gen == 20  # 2**20 is the first power above 10**6
        assert np.all(sample_limit(1.0, z=7, count=2500, seed=2).samples == 7.0)

    def test_default_depth_reaches_scale(self):
        for v in (0.25, 0.5, 0.9):
            n = default_generations(v)
            assert (1 + v) ** n >= 10 ** 6
            assert (1 + v) ** (n - 1) < 10 ** 6

    def test_rejects_shallow_truncation(self):
        with pytest.raises(ValueError):
            sample_limit(0.5, count=10, n_gen=10)
        # a depth past the cap is refused before b**n_gen can overflow
        for v in (0.5, 1.0):
            with pytest.raises(ValueError, match="generation cap"):
                sample_limit(v, count=10, n_gen=10 ** 6)

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


class TestBlockLayout:
    def test_prefix_stable(self):
        long = sample_limit(0.5, count=2500, seed=4).samples
        assert np.array_equal(long[:1000], sample_limit(0.5, count=1000, seed=4).samples)
        assert np.array_equal(long[:2000], sample_limit(0.5, count=2000, seed=4).samples)

    def test_block_is_one_stream(self):
        # block 1 advances its lanes in lockstep on the stream of replicate 1
        v, n_gen = 0.5, 35
        gen = streams.stream(4, streams.GROWTH_LIMIT, 1)
        y = np.full(BLOCK_SIZE, 2, dtype=np.int64)
        for _ in range(n_gen):
            y += gen.binomial(y, v)
        got = sample_limit(v, z=2, count=2 * BLOCK_SIZE, seed=4, n_gen=n_gen).samples
        assert np.array_equal(got[BLOCK_SIZE:], y * math.exp(-n_gen * math.log1p(v)))

    def test_partial_block_is_one_stream(self):
        # the last block draws only the remainder: samples 1000..1499 are a
        # 500-lane lockstep on block 1's stream
        v, n_gen = 0.5, 35
        gen = streams.stream(4, streams.GROWTH_LIMIT, 1)
        y = np.full(500, 2, dtype=np.int64)
        for _ in range(n_gen):
            y += gen.binomial(y, v)
        got = sample_limit(v, z=2, count=BLOCK_SIZE + 500, seed=4, n_gen=n_gen).samples
        assert got.size == BLOCK_SIZE + 500
        assert np.array_equal(got[BLOCK_SIZE:], y * math.exp(-n_gen * math.log1p(v)))

    def test_purpose_selects_distinct_blocks(self):
        # block 0 drawn the same way on the runners' REACTION block key
        # differs: ensembles keep to their GROWTH_LIMIT keys
        v, n_gen = 0.5, default_generations(0.5)
        gen = _block_streams(streams.REACTION, 4, BLOCK_SIZE)[0]
        y = np.ones(BLOCK_SIZE, dtype=np.int64)
        for _ in range(n_gen):
            y += gen.binomial(y, v)
        other = y * math.exp(-n_gen * math.log1p(v))
        base = sample_limit(v, count=BLOCK_SIZE, seed=4).samples
        assert not np.array_equal(base, other)

    def test_mean_calibrated_across_seeds(self):
        # standardised means of independent ensembles are close to N(0, 1)
        v, count = 0.5, 1000
        zs = []
        for seed in range(200):
            w = sample_limit(v, count=count, seed=seed).samples
            zs.append((w.mean() - 1.0) / math.sqrt(w.var(ddof=1) / count))
        assert abs(np.mean(zs)) < 0.25
        assert 0.85 <= np.std(zs, ddof=1) <= 1.15

    def test_overflowing_depth_refused(self):
        with pytest.raises(ValueError, match="int64"):
            sample_limit(1.0, count=10, n_gen=60)


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

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_non_finite_argument(self, bad):
        with pytest.raises(ValueError, match="s must be finite"):
            limit_mgf(bad, 0.5)
        with pytest.raises(ValueError, match="s must be finite"):
            limit_mgf(np.array([1.0, bad]), 0.5)


class TestDensity:
    """pointwise_density, the sample-based density kept for the benchmark."""

    def test_point_mass_refused(self):
        samples = sample_limit(1.0, z=2, count=1000, seed=3).samples
        with pytest.raises(ValueError, match="spread is zero"):
            pointwise_density(samples, [2.0])

    def test_small_ensembles_refused(self):
        with pytest.raises(ValueError, match="two samples"):
            pointwise_density([1.0], [1.0])

    def test_mass_and_shape(self):
        ens = sample_limit(0.5, count=10 ** 4, seed=13)
        # 512 points sum the samples in two chunks
        grid = np.linspace(0.0, 8.0, 512)
        values = pointwise_density(ens.samples, grid)
        assert 0.99 <= np.trapezoid(values, grid) <= 1.01
        # one Gaussian sum per point at the scaled min(sd, IQR/1.34) bandwidth
        sd = ens.samples.std(ddof=1)
        q75, q25 = np.percentile(ens.samples, [75, 25])
        bw = 0.9 * min(sd, (q75 - q25) / 1.34) * ens.count ** (-0.2)
        expect = [np.exp(-0.5 * ((x - ens.samples) / bw) ** 2).sum() for x in grid]
        expect = np.array(expect) / (ens.count * bw * math.sqrt(2.0 * math.pi))
        assert np.allclose(values, expect, rtol=1e-12, atol=1e-15)


def _kernel(x, v, depth, slope=False):
    """The transform kernel with the seed coefficients of v."""
    return _complement_iteration(x, v, _transform_coefficients(v)[0], depth, slope)


class TestCharacteristicFunction:
    @pytest.mark.parametrize("v", [0.25, 0.5, 0.9])
    def test_offspring_equation_and_slope(self, v):
        # psi(b*w) = (1-v)*psi(w) + v*psi(w)**2; the forward-differentiated
        # slope matches a central difference of psi, and the carried second
        # derivative a central difference of that slope
        b, om = 1 + v, np.linspace(0.5, 40.0, 80)
        c = 0.5 * limit_variance(v) * (b * om[-1]) ** 2
        n = _certified_depth(c, b, 1e-13)
        psi, dpsi, d2psi = _kernel(1j * om, v, n, slope=True)
        psi_b = _kernel(1j * b * om, v, n)
        assert np.max(np.abs(psi_b - (1 - v) * psi - v * psi * psi)) < 1e-10
        eps = 1e-5
        up, dup, _ = _kernel(1j * (om + eps), v, n, slope=True)
        down, ddown, _ = _kernel(1j * (om - eps), v, n, slope=True)
        # d psi/d w = i * du/dx and d2 psi/d w2 = -d2u/dx2 at x = i*w
        assert np.max(np.abs(1j * dpsi - (up - down) / (2 * eps))) < 1e-7
        assert np.max(np.abs(-d2psi - 1j * (dup - ddown) / (2 * eps))) < 1e-7


def _expm1_reference(x, v, depth):
    """The kernel with the seed exp(x/b**depth), which matches only the mean.

    That seed errs by at most var/2 * |x/b**depth|**2 and the map's slope
    is at most b, so the result is within var/2 * |x|**2 * b**-depth of
    the transform.  Returns (value, that bound).
    """
    b = 1.0 + v
    w = -np.expm1(x * b ** -depth)
    for _ in range(depth):
        w = b * w - v * w * w
    return 1.0 - w, 0.5 * limit_variance(v) * np.abs(x) ** 2 * b ** -depth


def _reference_depth(top, v, depth, tol):
    """At least 40 steps past depth, and deep enough for the expm1 seed to reach tol."""
    b = 1.0 + v
    return max(depth + 40, _certified_depth(0.5 * limit_variance(v) * top * top, b, tol))


D = _SEED_ORDER


def _moments(v):
    """Moments m_0..m_{d+1} of W from the seed coefficients c_k = m_k/k!."""
    c, r = _transform_coefficients(v)
    return [1.0] + [ck * math.factorial(k) for k, ck in enumerate(c + [r]) if k]


class TestSeed:
    @pytest.mark.parametrize("v", [0.05, 0.5, 0.999])
    def test_one_recursion_for_profile_and_transform(self, v):
        # c_k (b**k - b) = sum_j c_j c_{k-j} g_{k-j}: g_i = -(b**i - 1)
        # gives H's coefficients, g_i = v the moments of W over k!
        b, e = 1.0 + v, _growth_gaps(v)
        a = _seed_coefficients(b, e, [-x for x in e])[0]
        assert a[:2] == [0.0, 1.0]
        assert a[2] == pytest.approx(-1.0 / b, rel=1e-15)
        assert a[3] == pytest.approx((b + 2.0) / (b * b * (b + 1.0)), rel=1e-15)
        c = _seed_coefficients(b, e, [v] * (D + 1))[0]
        assert c[:2] == [0.0, 1.0]
        assert 2.0 * c[2] == pytest.approx(2.0 / b, rel=1e-15)
        assert 6.0 * c[3] == pytest.approx(12.0 / (b * b * (b + 1.0)), rel=1e-14)
        assert len(a) == len(c) == D + 1
        assert c == _transform_coefficients(v)[0]

    @pytest.mark.parametrize("v", [0.25, 0.5, 0.9])
    def test_moments_match_samples(self, v):
        m = _moments(v)
        w = sample_limit(v, count=4 * 10 ** 4, seed=101).samples
        for k in (2, 3, 4):
            wk = w ** k
            se = wk.std(ddof=1) / math.sqrt(w.size)
            assert abs(wk.mean() - m[k]) < 4 * se

    def test_moments_tend_to_the_exponential_law(self):
        # as v goes to 0, W tends to the unit exponential, whose m_k is k!
        for v in (1e-2, 1e-4, 1e-8):
            m = _moments(v)
            for k in range(2, D + 2):
                assert abs(m[k] / math.factorial(k) - 1.0) <= max(5.0, 2.0 * k) * v

    @pytest.mark.parametrize("v", [0.05, 0.25, 0.5, 0.9, 0.999])
    def test_seed_meets_its_remainder_bound(self, v):
        # at depth 0 the kernel returns the seed P(x) itself
        size = np.array([0.01, 0.03, 0.1, 0.3, 0.6, 1.0])
        x = np.concatenate([-size, 1j * size])
        seed = _kernel(x, v, 0)
        remainder = _transform_coefficients(v)[1] * np.abs(x) ** (D + 1)
        depth = _reference_depth(1.0, v, 0, 1e-6 * remainder[2])
        ref, ref_bound = _expm1_reference(x, v, depth)
        err = np.abs(seed - ref)
        # below |y| = 0.1 the remainder falls under the rounding of the
        # final 1 - w, a few ulps of 1
        assert np.all(err <= remainder + ref_bound + 4 * np.finfo(float).eps)
        # on the real axis the remainder is c_{d+1} s**(d+1) to leading
        # order, so the bound is sharp there: the order and c_{d+1} are right
        real = err[:size.size] / remainder[:size.size]
        assert np.all(real[size == 0.1] >= 0.9) and np.all(real[size >= 0.1] >= 0.5)

    @pytest.mark.parametrize("v", [0.05, 0.25, 0.5, 0.9, 0.999])
    def test_transforms_within_their_certified_error(self, v):
        b, coef = 1.0 + v, _transform_coefficients(v)[1]
        # phi at its certified depth for MGF_PRECISION.tol
        s = np.linspace(0.0, 20.0, 41)
        depth = _tail_depth(coef, 20.0, b, MGF_PRECISION.tol)[0]
        ref, ref_bound = _expm1_reference(-s, v, _reference_depth(20.0, v, depth, 1e-15))
        assert np.all(np.abs(limit_mgf(s, v) - ref) <= MGF_PRECISION.tol + ref_bound)
        # psi at the certified depth for tol, each frequency within its own
        # error coef * w**(d+1) * b**(-d*n), plus rounding far below tol
        om, tol = np.linspace(0.25, 64.0, 60), 1e-9
        depth = _tail_depth(coef, om[-1], b, tol)[0]
        psi = _kernel(1j * om, v, depth)
        bound = coef * om ** (D + 1) * b ** (-D * depth)
        assert np.all(bound <= tol)
        ref, ref_bound = _expm1_reference(1j * om, v, _reference_depth(64.0, v, depth, 1e-13))
        assert np.all(np.abs(psi - ref) <= bound + ref_bound + 1e-13)

    def test_certified_depth_of_the_transform(self):
        # at tol 1e-12, s = 20 and v = 0.5 the seed of degree d needs 15
        # steps; every finite s gets a depth
        prec = Precision(tol=1e-12, max_iter=15)
        assert limit_mgf(20.0, 0.5, prec) == limit_mgf(20.0, 0.5)
        with pytest.raises(PrecisionError, match="needs depth 15") as err:
            limit_mgf(20.0, 0.5, Precision(tol=1e-12, max_iter=14))
        assert 1e-12 < err.value.bound <= 1e-12 * 1.5 ** D
        assert 0.0 <= limit_mgf(1e300, 0.5) <= 1e-12
        assert 0.0 <= limit_mgf(np.array([0.0, 1e300]), 0.5)[1] <= 1e-12

    @pytest.mark.parametrize("v", [0.05, 0.5, 0.999])
    def test_seed_in_the_unit_disk(self, v):
        # for |y| <= 1 on both axes the seed lies in the closed unit disk
        y = np.linspace(0.0, 1.0, 2001)
        seed = _kernel(np.concatenate([-y, 1j * y]), v, 0)
        assert np.all(np.abs(seed) <= 1.0 + 4 * np.finfo(float).eps)
        # a large tolerance leaves |y| above 1 at its certified depth (1.8
        # at v = 0.5, 2.5 at v = 0.999); the clamped seed still gives a
        # value inside it
        assert 0.0 < limit_mgf(20.0, v, Precision(tol=10.0)) < 1.0

    @pytest.mark.parametrize("x,depth", [
        (-3.0, 0), (2j, 1), (-1.6, 1), (-1e300, 0), (1e300j, 2), (-1e45, 20),
    ])
    def test_seed_outside_the_unit_disk_stays_in_it(self, x, depth):
        # x/b**depth beyond 1 in modulus, at v = 0.5: the clamped seed, or
        # past the polynomial's reach the seed 1, keeps every value and
        # slope finite and every value in the closed unit disk
        u, du, d2u = _kernel(np.array([0.5, x]), 0.5, depth, slope=True)
        assert np.all(np.isfinite(u)) and np.all(np.isfinite(du)) and np.all(np.isfinite(d2u))
        assert np.all(np.abs(u) <= 1.0 + 4 * np.finfo(float).eps)
        assert u[0] == _kernel(np.array([0.5]), 0.5, depth)[0]

    def test_full_efficiency_is_exp_exactly(self):
        s = np.linspace(0.0, 30.0, 61)
        assert np.array_equal(limit_mgf(s, 1.0), np.exp(-s))
        assert limit_mgf(2.0, 1.0) == math.exp(-2.0)


#: a tolerance the CDF reaches well inside the frequency cap at the
#: efficiencies and ancestor counts the tests use it with
FINE = Precision(tol=1e-8, max_iter=2 ** 16)


def _segment_ends(cap, first=FREQUENCY_BLOCK):
    """Segment ends of an inversion grid: halving down from the cap to one to two blocks."""
    ends = [cap]
    while ends[-1] >= 2 * first:
        ends.append(ends[-1] // 2)
    return ends[::-1]


def _density_on_grid(t, v, z_max, points):
    """Density values on exactly `points` frequencies (the cap), no bound met."""
    with pytest.raises(PrecisionError) as err:
        ancestor_density(t, v, z_max, Precision(tol=1e-15, max_iter=points))
    return err.value.value


class TestExactDensity:
    @pytest.mark.parametrize("v", [0.5, 0.9])
    @pytest.mark.parametrize("z", [1, 3])
    def test_laplace_transform_matches_mgf(self, v, z):
        # trapezoid Laplace transform of the density over a fine t-grid
        # against limit_mgf(s)**z, a separate computation on the real axis
        grid = np.linspace(0.0, 4.0 * z + 6.0, 801)
        dens = np.zeros_like(grid)
        dens[1:] = ancestor_density(grid[1:], v, z).values[z - 1]
        for s in (0.5, 1.0, 2.0):
            quad = np.trapezoid(np.exp(-s * grid) * dens, grid)
            assert abs(quad - limit_mgf(s, v) ** z) < 5e-4

    @pytest.mark.parametrize("v", [0.25, 0.5])
    @pytest.mark.parametrize("z", [1, 3])
    def test_matches_histogram(self, v, z):
        n = 2 * 10 ** 5
        w = sample_limit(v, z=z, count=n, seed=41 + z).samples
        edges = np.linspace(*np.quantile(w, [0.05, 0.95]), 21)
        counts = np.histogram(w, edges)[0]
        # exact bin mass by Simpson's rule on 8 panels per bin
        fine = np.linspace(edges[0], edges[-1], 20 * 8 + 1)
        f = ancestor_density(fine, v, z).values[z - 1]
        panels = np.lib.stride_tricks.sliding_window_view(f, 9)[::8]
        simpson = np.array([1, 4, 2, 4, 2, 4, 2, 4, 1]) * (edges[1] - edges[0]) / 24
        prob = panels @ simpson
        se = np.sqrt(prob * (1 - prob) / n)
        assert np.all(np.abs(counts / n - prob) < 4 * se)

    @pytest.mark.parametrize("v,t,z_max", [
        (0.5, 0.053, 1), (0.5, 0.3, 3), (0.5, 1.0, 4), (0.25, 2.0, 4),
        (0.9, 3.0, 5),
    ])
    def test_bound_covers_finer_grid(self, v, t, z_max):
        dens = ancestor_density(t, v, z_max)
        assert np.all(dens.bounds <= DENSITY_PRECISION.tol)
        fine = _density_on_grid(t, v, z_max, 16 * dens.points)
        assert np.all(np.abs(dens.values - fine) <= dens.bounds)

    @pytest.mark.parametrize("v", [0.1, 0.25, 0.5, 0.9])
    def test_bound_covers_deep_reference_on_a_sweep(self, v):
        # every value, the ones at the cap too, lies within its bound of
        # the sum on 16 times the frequencies its call summed.  The period
        # 4*max(z_max, 12) + 8 is the same for every z_max <= 12, so one
        # reference at z_max = 10 serves z_max = 1, 3 and 10.  At v = 0.1
        # and 0.25 the bound is also not loose everywhere: somewhere the
        # error reaches a hundredth of it (the one-step bound alone stayed
        # below 0.004 there)
        t = np.geomspace(0.053, 12.0, 9)
        calls = {}
        for z_max in (1, 3, 10, 24):
            try:
                dens = ancestor_density(t, v, z_max)
                calls[z_max] = dens.values, dens.bounds, dens.points
            except PrecisionError as err:
                calls[z_max] = err.value, err.bound, DENSITY_PRECISION.max_iter
        tightest = 0.0
        for group in ((1, 3, 10), (24,)):
            points = 16 * max(calls[z_max][2] for z_max in group)
            ref = _density_on_grid(t, v, group[-1], points)
            for z_max in group:
                values, bounds, _ = calls[z_max]
                assert np.all(np.abs(values - ref[:z_max]) <= bounds)
                tightest = max(tightest, float(np.max(np.abs(values - ref[:z_max]) / bounds)))
        if v in (0.1, 0.25):
            assert tightest >= 0.01

    @pytest.mark.parametrize("v,t,z_max", [(0.1, 0.5, 2), (0.5, 0.3, 3), (0.9, 4.0, 6)])
    def test_value_is_the_sum_plus_its_boundary_term(self, v, t, z_max):
        # at the end of the density's first segment, N = DENSITY_BLOCK, the
        # value is the plain trapezoid sum (h/pi)(1/2 + sum_{j<=N} Re(a_j r**j))
        # plus both boundary terms of two summations by parts,
        # (h/pi) Re(a_N r**(N+1)/(1-r)) and (h/pi) Re(d_N r**(N+1)/(1-r)**2),
        # a_j = psi(w_j)**z, d_N = a_{N+1} - a_N, r = exp(-i h t), here formed
        # term by term, psi(w_{N+1}) by its own kernel call.  Where the
        # second term is not negligible (z = 1 at least), it brings the
        # value closer to the sum on 16 times the frequencies
        n, prec = DENSITY_BLOCK, Precision(tol=1e-15, max_iter=DENSITY_BLOCK)
        with pytest.raises(PrecisionError) as err:
            ancestor_density(t, v, z_max, prec)
        table = _PsiTable(v, z_max, t, prec, slope=True)
        seg, h = next(iter(table)), table.h
        zs = np.arange(1, z_max + 1)
        a = seg.ps[None, :] ** zs[:, None]
        a_next = _kernel(np.array([1j * (n + 1) * h]), v, seg.depth)[0] ** zs
        r = np.exp(-1j * h * t)
        plain = (h / math.pi) * (0.5 + (a * r ** np.arange(1, n + 1)).real.sum(axis=1))
        edge = (h / math.pi) * (a[:, -1] * r ** (n + 1) / (1.0 - r)).real
        edge2 = (h / math.pi) * ((a_next - a[:, -1]) * r ** (n + 1) / (1.0 - r) ** 2).real
        value = err.value.value[:, 0]
        assert np.max(np.abs(value - (plain + edge + edge2))) <= 1e-12
        ref = _density_on_grid(t, v, z_max, 16 * n)[:, 0]
        big = np.abs(edge2) > 1e-9
        assert big[0]
        assert np.all(np.abs(value - ref)[big] < np.abs(plain + edge - ref)[big])

    @pytest.mark.parametrize("t,z_max", [(2.0, 10), (6.0, 24)])
    def test_boundary_term_stops_at_the_first_segment(self, t, z_max):
        # the boundary terms at the top frequency are summed, not bounded:
        # these scans stop at the density's first segment, 256 frequencies
        # (without the first term they needed 2048)
        dens = ancestor_density(t, 0.5, z_max)
        assert dens.points == DENSITY_BLOCK
        assert np.all(dens.bounds <= DENSITY_PRECISION.tol)

    def test_cap_raises_with_value_and_bound(self):
        prec = Precision(tol=1e-6, max_iter=256)
        with pytest.raises(PrecisionError) as err:
            ancestor_density(1.0, 0.5, 3, prec)
        value, bound = err.value.value, err.value.bound
        assert value.shape == bound.shape == (3, 1)
        assert np.any(bound > prec.tol)
        # the bound at the cap holds against the full-precision density
        full = ancestor_density(1.0, 0.5, 3)
        assert np.all(np.abs(value - full.values) <= bound + full.bounds)

    def test_depth_cap_raises(self):
        with pytest.raises(PrecisionError, match="depth"):
            ancestor_density(1.0, 1e-4, 2)

    def test_one_depth_per_segment_reached(self, monkeypatch):
        # a segment's transform depth is certified once, when the scan
        # first sends one of its frequencies to the kernel, and never for
        # the segments past the one where every point stops
        tops, reach = [], [0.0]

        def tail_depth(c, top, b, tol):
            tops.append(top)
            return _tail_depth(c, top, b, tol)

        def kernel(x, v, c, depth, slope=False):
            reach[0] = max(reach[0], float(np.abs(x).max()))
            return _complement_iteration(x, v, c, depth, slope)

        monkeypatch.setattr(limit_law, "_tail_depth", tail_depth)
        monkeypatch.setattr(limit_law, "_complement_iteration", kernel)
        t, v, z_max = np.array([1.0, 6.0]), 0.5, 24
        # building a table certifies and computes nothing until it is read
        h = _PsiTable(v, z_max, 6.0, DENSITY_PRECISION, slope=True).h
        assert tops == [] and reach == [0.0]
        ancestor_density(t, v, z_max)
        ends = _segment_ends(DENSITY_PRECISION.max_iter, DENSITY_BLOCK)
        assert ends[:2] == [256, 512] and ends[-1] == 2 ** 16
        # the kernel went one frequency past the last segment certified
        reached = len(tops)
        assert sorted(tops) == [end * h for end in ends[:reached]]
        assert reach[0] == abs(1j * h * (ends[reached - 1] + 1))
        assert 1 < reached < len(ends)

    @pytest.mark.parametrize("cap", [2 ** 16, 5000, 3000])
    def test_kernel_calls_follow_the_segments(self, monkeypatch, cap):
        # at v = 0.1, z_max = 10, t = 0.3: every segment (end//2, end] of
        # the density's table holds the grid points of its top octave
        # [end*h/b, end*h], on which M, D and E are taken, and its kernel
        # call runs one frequency past the end, psi there kept as nxt
        v, t, z_max = 0.1, 0.3, 10
        b, ends = 1.0 + v, _segment_ends(cap, DENSITY_BLOCK)
        prec = Precision(DENSITY_PRECISION.tol, max_iter=cap)
        table = _PsiTable(v, z_max, t, prec, slope=True)
        h, c = table.h, _transform_coefficients(v)[0]
        assert table.ends == ends
        start = 0
        for seg in table:
            top = seg.end * h
            assert np.array_equal(seg.om, h * np.arange(start + 1, seg.end + 1))
            assert seg.om[-1] == top and seg.om[0] - h < top / b
            octave = seg.om >= top / b
            x = 1j * h * np.arange(seg.end - np.count_nonzero(octave) + 1, seg.end + 2)
            ps, dps, d2ps = _complement_iteration(x, v, c, seg.depth, True)
            assert np.array_equal(ps[:-1], seg.ps[octave]) and ps[-1] == seg.nxt
            assert (seg.m, seg.d, seg.e) == (np.abs(ps[:-1]).max(), np.abs(dps[:-1]).max(),
                                             np.abs(d2ps[:-1]).max())
            start = seg.end
        assert start == cap
        # the density and the distribution function make exactly one
        # kernel call per segment they reach: one int depth, the segment's
        # frequencies (and one more for the density), in order from their
        # first segments, 256 and 1024 frequencies
        calls = []

        def kernel(x, v, c, depth, slope=False):
            calls.append((np.abs(x), depth))
            return _complement_iteration(x, v, c, depth, slope)

        monkeypatch.setattr(limit_law, "_complement_iteration", kernel)
        for z, run, first in [(z_max, lambda: ancestor_density(t, v, z_max, prec), DENSITY_BLOCK),
                              (1, lambda: ancestor_cdf(t, v, 1, prec), FREQUENCY_BLOCK)]:
            calls.clear()
            try:
                run()
            except PrecisionError:
                pass
            h, ends = _PsiTable(v, z, t, prec, slope=False).h, _segment_ends(cap, first)
            assert 0 < len(calls) <= len(ends)
            extra = int(first == DENSITY_BLOCK)
            for (om, depth), start, end in zip(calls, [0] + ends, ends):
                j = np.rint(om / h).astype(int)
                assert type(depth) is int
                assert np.array_equal(j, np.arange(start + 1, end + 1 + extra))

    @pytest.mark.parametrize("v", [0.25, 0.5])
    def test_period_keeps_aliases_out(self, v):
        # the period grows with z_max; a copy aliased from t + T would make
        # the narrow scan disagree with the wide one beyond the bounds
        t = np.array([0.5, 1.5, 3.0])
        narrow = ancestor_density(t, v, 2)
        wide = ancestor_density(t, v, 12)
        assert np.all(np.abs(narrow.values - wide.values[:2])
                      <= narrow.bounds + wide.bounds[:2])

    def test_point_does_not_depend_on_the_others(self):
        alone = ancestor_density(0.8, 0.5, 4)
        together = ancestor_density(np.array([0.2, 0.8, 3.0]), 0.5, 4)
        assert np.array_equal(together.values[:, 1], alone.values[:, 0])
        assert np.array_equal(together.bounds[:, 1], alone.bounds[:, 0])
        # t = 30 above z_max = 4 moves the period 4*max(z_max, t) + 8, so
        # the value at 0.8 moves too (by 1.7e-5 at z = 1), but both values
        # stay within their summed bounds
        far = ancestor_density(np.array([0.8, 30.0]), 0.5, 4)
        assert not np.array_equal(far.values[:, 0], alone.values[:, 0])
        assert np.all(np.abs(far.values[:, 0] - alone.values[:, 0])
                      <= far.bounds[:, 0] + alone.bounds[:, 0])

    def test_point_does_not_depend_on_its_position(self):
        # each point has its own matrix-vector product on the power table;
        # its value is the same wherever it sits among other points
        pts = np.array([0.35, 0.9, 1.7, 2.6, 4.1])
        together = ancestor_density(pts, 0.25, 7)
        for i, t in enumerate(pts):
            alone = ancestor_density(t, 0.25, 7)
            assert np.array_equal(together.values[:, i], alone.values[:, 0])
            assert np.array_equal(together.bounds[:, i], alone.bounds[:, 0])
        shifted = ancestor_density(np.concatenate([[0.6], pts[::-1]]), 0.25, 7)
        assert np.array_equal(shifted.values[:, 1:], together.values[:, ::-1])

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_points(self, bad):
        with pytest.raises(ValueError):
            ancestor_density(np.array([1.0, bad]), 0.5, 3)

    def test_rejects_unit_efficiency(self):
        with pytest.raises(ValueError):
            ancestor_density(1.0, 1.0, 3)

    @pytest.mark.parametrize("bad", [2.5, math.inf, math.nan])
    def test_rejects_non_integer_z_max(self, bad):
        with pytest.raises(ValueError, match="z_max must be an integer"):
            ancestor_density(1.0, 0.5, bad)

    def test_integral_float_z_max_is_its_integer(self):
        a, b = ancestor_density(1.0, 0.5, 3.0), ancestor_density(1.0, 0.5, 3)
        assert np.array_equal(a.values, b.values)


def _trapezoid_terms(t, v, z, prec, points):
    """h, w_j and c_j = psi_j**z / (i w_j) of ancestor_cdf's sum on `points` frequencies."""
    table = _PsiTable(v, z, float(np.max(t)), prec, slope=False)
    om, c = [], []
    for seg in table:
        om.append(seg.om)
        c.append(seg.ps ** z / (1j * seg.om))
        if seg.end == points:
            return table.h, np.concatenate(om), np.concatenate(c)
    raise AssertionError(f"no segment ends at {points} frequencies")


class TestExactCDF:
    @pytest.mark.parametrize("v,z", [(0.5, 1), (0.25, 3), (0.9, 10)])
    def test_grid_points_are_the_trapezoid_sum(self, v, z):
        # at t_k = k*T/M the FFT table is the trapezoid sum itself: the
        # direct sum over j, with the phase w_j t_k = 2 pi (j*k mod M)/M
        t_max = 2.0 * z + 2.0
        grid = ancestor_cdf(t_max, v, z).grid
        period = _PsiTable(v, z, t_max, DENSITY_PRECISION, slope=False).period
        top = int(grid * t_max / period)
        k = np.array([0, 1, 2, 7, top // 3, top - 1, top])
        t = np.append(k * (period / grid), t_max)
        cdf = ancestor_cdf(t, v, z)
        assert cdf.grid == grid
        h, om, c = _trapezoid_terms(t, v, z, DENSITY_PRECISION, cdf.points)
        j = np.arange(1, om.size + 1)
        phase = np.exp(-2j * math.pi * (np.outer(k, j) % grid) / grid)
        direct = (h / math.pi) * (0.5 * t[:-1] + (c - phase * c).real.sum(axis=1))
        assert np.max(np.abs(cdf.values[:-1] - direct)) <= 1e-13

    @pytest.mark.parametrize("v", [0.05, 0.25, 0.5, 0.9, 0.99])
    @pytest.mark.parametrize("z", [1, 3, 10])
    def test_interpolation_within_its_term_off_the_grid(self, v, z):
        # between grid points the value is within (T/M)**2/8 * (h/pi) *
        # sum |psi_j|**z w_j of the direct sum on the same frequencies, a
        # term inside the reported bound.  With one ancestor, FINE is out
        # of reach at v <= 0.5 (frequency cap) and at 0.99 (grid cap): there
        # the sum is cut at 4096 frequencies, and the error carries the
        # values and the bound on a grid of 64*4096 points
        t = np.linspace(0.05, 2.0 * z + 2.0, 13) + math.pi * 1e-4
        if z == 1 and v != 0.9:
            prec = Precision(FINE.tol, max_iter=4096)
            with pytest.raises(PrecisionError) as err:
                ancestor_cdf(t, v, z, prec)
            values, bound, points, grid = err.value.value, err.value.bound, 4096, 64 * 4096
        else:
            prec = FINE
            cdf = ancestor_cdf(t, v, z, prec)
            assert cdf.bound <= FINE.tol
            values, bound, points, grid = cdf.values, cdf.bound, cdf.points, cdf.grid
        h, om, c = _trapezoid_terms(t, v, z, prec, points)
        direct = (h / math.pi) * (0.5 * t + (c * (1.0 - np.exp(-1j * np.outer(t, om)))).real.sum(axis=1))
        step = 2.0 * math.pi / (h * grid)
        assert np.all(np.abs(np.remainder(t / step + 0.5, 1.0) - 0.5) > 1e-6)
        interpolation = step ** 2 / 8.0 * (h / math.pi) * float(np.sum(np.abs(c) * om ** 2))
        assert interpolation <= bound
        assert np.all(np.abs(values - direct) <= interpolation)

    @pytest.mark.parametrize("v", [0.25, 0.5, 0.9])
    @pytest.mark.parametrize("z", [1, 3])
    def test_laplace_transform_matches_mgf(self, v, z):
        # int_0^inf s exp(-s t) F(t) dt = E exp(-s W(z)): trapezoid rule up
        # to L, where F is 1 to far below the tolerance, then exp(-s L)
        L = 4.0 * z + 6.0
        grid = np.linspace(0.0, L, 1601)
        cdf = ancestor_cdf(grid, v, z)
        for s in (0.5, 1.0, 2.0):
            quad = np.trapezoid(s * np.exp(-s * grid) * cdf.values, grid)
            assert abs(quad + math.exp(-s * L) - limit_mgf(s, v) ** z) < 3e-4

    @pytest.mark.parametrize("v", [0.25, 0.5, 0.9])
    @pytest.mark.parametrize("z", [1, 3])
    def test_one_sample_ks_against_draws(self, v, z):
        # the sup gap to the empirical CDF of 10**5 draws, below the
        # asymptotic 0.1% critical value 1.95/sqrt(n)
        n = 10 ** 5
        w = np.sort(sample_limit(v, z=z, count=n, seed=61 + z).samples)
        cdf = ancestor_cdf(w, v, z)
        assert cdf.bound <= DENSITY_PRECISION.tol
        i = np.arange(1, n + 1)
        ks = max(np.max(i / n - cdf.values), np.max(cdf.values - (i - 1) / n))
        assert ks < 1.95 / math.sqrt(n)

    @pytest.mark.parametrize("v,z", [(0.9, 1), (0.5, 3), (0.25, 4)])
    def test_central_difference_is_the_density(self, v, z):
        # (F(t+d) - F(t-d)) / 2d against ancestor_density; at d = 1e-4 the
        # Taylor term is far below both bounds
        t, d = np.linspace(0.2, 2.0 * z + 1.0, 9), 1e-4
        hi = ancestor_cdf(t + d, v, z, FINE)
        lo = ancestor_cdf(t - d, v, z, FINE)
        dens = ancestor_density(t, v, z)
        slope = (hi.values - lo.values) / (2.0 * d)
        gap = np.abs(slope - dens.values[z - 1])
        assert np.all(gap <= (hi.bound + lo.bound) / (2.0 * d) + dens.bounds[z - 1])

    @pytest.mark.parametrize("v,z", [(0.9, 1), (0.5, 3), (0.25, 4), (0.9, 3),
                                     (0.5, 2), (0.25, 2)])
    def test_bound_covers_finer_tolerance(self, v, z):
        # with three or more ancestors both tolerances stop at the first
        # segment and the finer one takes only a finer grid; with one or
        # two it also sums more frequencies
        t = np.linspace(0.0, 3.0 * z + 2.0, 41)
        coarse = ancestor_cdf(t, v, z)
        fine = ancestor_cdf(t, v, z, FINE)
        assert coarse.bound <= DENSITY_PRECISION.tol and fine.bound <= FINE.tol
        fine_points = {(0.9, 1): 16384, (0.5, 2): 2048, (0.25, 2): 8192}.get((v, z), 1024)
        assert (coarse.points, fine.points) == (1024, fine_points)
        assert fine.bound < coarse.bound
        assert np.all(np.abs(coarse.values - fine.values) <= coarse.bound + fine.bound)

    @pytest.mark.parametrize("v", [0.25, 0.5, 0.9])
    def test_monotone_from_zero_to_one(self, v):
        t = np.linspace(0.0, 12.0, 2401)
        cdf = ancestor_cdf(t, v, 2)
        assert np.all(np.diff(cdf.values) >= -2.0 * cdf.bound)
        assert abs(cdf.values[0]) <= cdf.bound
        assert abs(cdf.values[-1] - 1.0) <= cdf.bound
        # in the bulk the density is far above the bound: strictly increasing
        bulk = (cdf.values > 0.01) & (cdf.values < 0.99)
        assert np.all(np.diff(cdf.values[bulk]) > 0.0)

    def test_step_at_unit_efficiency(self):
        cdf = ancestor_cdf(np.array([0.0, 2.5, 3.0, 3.5, 50.0]), 1.0, 3)
        assert cdf.values.tolist() == [0.0, 0.0, 1.0, 1.0, 1.0]
        assert (cdf.bound, cdf.points, cdf.depth, cdf.grid) == (0.0, 0, 0, 0)

    def test_cap_raises_with_values_and_bound(self):
        prec = Precision(tol=1e-6, max_iter=256)
        t = np.array([0.5, 1.0, 2.0])
        with pytest.raises(PrecisionError) as err:
            ancestor_cdf(t, 0.5, 1, prec)
        value, bound = err.value.value, err.value.bound
        assert value.shape == (3,) and bound > prec.tol
        full = ancestor_cdf(t, 0.5, 1)
        assert np.all(np.abs(value - full.values) <= bound + full.bound)

    def test_grid_cap_raises_with_values_and_bound(self, monkeypatch):
        # at v = 0.99 the density is so peaked that at tol 2e-7 the
        # truncation meets its share at 4096 frequencies, below the cap of
        # 8192, but the interpolation needs more than 64*8192 grid points:
        # the table is built once, at that cap, and the error carries its
        # values and their bound
        t, prec = np.array([0.3, 0.7, 1.0]), Precision(tol=2e-7, max_iter=8192)
        sizes = []
        fft = np.fft.fft

        def counted(a, n=None, *args, **kwargs):
            sizes.append(n)
            return fft(a, n, *args, **kwargs)

        monkeypatch.setattr(np.fft, "fft", counted)
        with pytest.raises(PrecisionError, match=r"with 4096 frequencies \(cap 8192\)") as err:
            ancestor_cdf(t, 0.99, 1, prec)
        value, bound = err.value.value, err.value.bound
        assert sizes == [64 * 8192]
        assert value.shape == (3,) and bound > prec.tol
        full = ancestor_cdf(t, 0.99, 1)
        assert np.all(np.abs(value - full.values) <= bound + full.bound)

    def test_point_does_not_depend_on_the_others(self):
        # the period 4*max(z, t) + 8 is the same for both calls
        alone = ancestor_cdf(0.8, 0.5, 4)
        together = ancestor_cdf(np.array([0.2, 3.0, 0.8]), 0.5, 4)
        assert together.values[2] == alone.values[0]
        assert together.bound == alone.bound

    @pytest.mark.parametrize("bad", [-1.0, math.inf, math.nan])
    def test_rejects_bad_points(self, bad):
        with pytest.raises(ValueError):
            ancestor_cdf(np.array([1.0, bad]), 0.5, 3)

    @pytest.mark.parametrize("bad", [0, 2.5])
    def test_rejects_bad_z(self, bad):
        with pytest.raises(ValueError):
            ancestor_cdf(1.0, 0.5, bad)


class TestPsiTable:
    def test_one_kernel_call_per_segment_for_every_read(self, monkeypatch):
        # one table with psi' at v = 0.5, z_max = 10 serves a density read
        # and 40 CDF reads (z = 1..10, four point sets each): the kernel
        # runs once per segment reached, on that segment's frequencies and
        # one more at its depth, and never again for a segment already built
        v, z_max, t_max = 0.5, 10, 8.0
        dens_pts = np.linspace(0.25, t_max, 12)
        point_sets = [np.array([0.5]), np.array([7.5, 0.2, 3.0]),
                      np.linspace(0.0, t_max, 41), np.array([t_max])]
        calls = []

        def kernel(x, v, c, depth, slope=False):
            calls.append((x.size, depth))
            return _complement_iteration(x, v, c, depth, slope)

        monkeypatch.setattr(limit_law, "_complement_iteration", kernel)
        table = _PsiTable(v, z_max, t_max, DENSITY_PRECISION, slope=True)
        assert calls == []
        dens = _density_from(table, dens_pts)
        cdfs = {(z, i): _cdf_from(table, pts, z)
                for z in range(1, z_max + 1) for i, pts in enumerate(point_sets)}
        assert len(cdfs) == 40
        reached = max([dens.points] + [cdf.points for cdf in cdfs.values()])
        built = table.ends[:table.ends.index(reached) + 1]
        assert [seg.end for seg in table._segments] == built
        assert built[0] == DENSITY_BLOCK
        assert calls == [(end - start + 1, seg.depth) for start, end, seg
                         in zip([0] + built, built, table._segments)]
        # at z = z_max the shared table has the public call's period, but
        # the density's segments: each CDF read lies within both bounds of
        # the public call's
        for i, pts in enumerate(point_sets):
            public = ancestor_cdf(pts, v, z_max)
            assert np.all(np.abs(public.values - cdfs[z_max, i].values)
                          <= public.bound + cdfs[z_max, i].bound)
        # the public functions are reads of a freshly built table, bitwise
        public = ancestor_density(dens_pts, v, z_max)
        for read in (dens, _density_from(_PsiTable(v, z_max, t_max, DENSITY_PRECISION,
                                                   slope=True), dens_pts)):
            assert np.array_equal(public.values, read.values)
            assert np.array_equal(public.bounds, read.bounds)
            assert (public.points, public.depth) == (read.points, read.depth)
        for z in range(1, z_max + 1):
            for pts in point_sets:
                public = ancestor_cdf(pts, v, z)
                read = _cdf_from(_PsiTable(v, z, float(pts.max()), DENSITY_PRECISION,
                                           slope=False), pts, z)
                assert np.array_equal(public.values, read.values)
                assert ((public.bound, public.points, public.depth, public.grid)
                        == (read.bound, read.points, read.depth, read.grid))

    def test_reader_refuses_what_the_table_does_not_cover(self):
        table = _PsiTable(0.5, 3, 4.0, DENSITY_PRECISION, slope=False)
        with pytest.raises(ValueError, match="psi'"):
            _density_from(table, np.array([1.0]))
        with pytest.raises(ValueError, match="cannot serve z=4"):
            _cdf_from(table, np.array([1.0]), 4)
        with pytest.raises(ValueError, match="cannot serve"):
            _cdf_from(table, np.array([1.0, 4.5]), 2)
        with pytest.raises(ValueError, match="psi'"):
            _density_from(_PsiTable(0.5, 3, 4.0, DENSITY_PRECISION, slope=True),
                          np.array([4.5]))

    @pytest.mark.parametrize("v,z", [(0.0, 3), (-0.5, 3), (1.5, 3), (math.nan, 3),
                                     (0.5, 0), (0.5, -2)])
    def test_both_readers_share_the_table_checks(self, v, z):
        # the density and the distribution function refuse an efficiency
        # outside (0, 1] and an ancestor count below 1 with the same error
        match = "efficiency must be in" if z == 3 else "z_max must be an integer, at least 1"
        for call in (ancestor_density, ancestor_cdf):
            with pytest.raises(ValueError, match=match):
                call(1.0, v, z)


class TestSumDensity:
    def test_large_sum_near_normal(self):
        v, z = 0.9, 50
        mu, sd = float(z), math.sqrt(z * limit_variance(v))
        grid = np.linspace(mu - 5 * sd, mu + 5 * sd, 256)
        exact = ancestor_density(grid, v, z).values[z - 1]
        normal = np.exp(-0.5 * ((grid - mu) / sd) ** 2) / (sd * math.sqrt(2 * math.pi))
        peak = normal.max()
        assert np.max(np.abs(exact - normal)) < 0.05 * peak


class TestExport:
    def test_ensemble_round_trip(self, tmp_path):
        ens = sample_limit(0.5, z=2, count=200, seed=29)
        path = tmp_path / "ens.csv"
        write_ensemble_csv(ens, path)
        back = read_ensemble_csv(path)
        assert np.array_equal(back.samples, ens.samples)
        assert (back.v, back.z, back.n_gen, back.seed) == (0.5, 2, ens.n_gen, 29)
        # a header without n_gen is refused by name
        lines = path.read_text().splitlines()
        path.write_text(lines[0].replace(f" n_gen={ens.n_gen}", "") + "\n"
                        + "\n".join(lines[1:]) + "\n")
        with pytest.raises(ValueError, match=r"misses keys \['n_gen'\]"):
            read_ensemble_csv(path)
        # an item without "=" is refused by path and item
        path.write_text("# v=0.5 z seed=29\n" + "\n".join(lines[1:]) + "\n")
        with pytest.raises(ValueError, match=r"ens\.csv: metadata item 'z' is not key=value"):
            read_ensemble_csv(path)

    def test_ensemble_header_and_count_checked(self, tmp_path):
        # without its `sample` header line the first sample would be
        # skipped; a file shorter than its count is refused as well
        path = tmp_path / "ens.csv"
        meta = "# v=0.5 z=1 n_gen=35 count=3 seed=0\n"
        path.write_text(meta + "1.25\n0.5\n2.0\n")
        with pytest.raises(ValueError, match=r"ens\.csv: second line is not the header 'sample'"):
            read_ensemble_csv(path)
        path.write_text(meta + "sample\n1.25\n0.5\n")
        with pytest.raises(ValueError, match=r"ens\.csv: metadata says count=3, file holds 2"):
            read_ensemble_csv(path)
        path.write_text(meta + "sample\n1.25\n0.5\n2.0\n")
        assert read_ensemble_csv(path).samples.tolist() == [1.25, 0.5, 2.0]

    def test_ensemble_metadata_value_refused_by_name(self, tmp_path):
        path = tmp_path / "ens.csv"
        path.write_text("# v=0.5 z=1 n_gen=35 count=x seed=0\nsample\n1.25\n")
        with pytest.raises(ValueError,
                           match=r"ens\.csv: metadata count='x' does not parse as int"):
            read_ensemble_csv(path)

    def test_ensemble_non_finite_sample_refused(self, tmp_path):
        # NaN compares false with 0, so a sign check alone let it through
        path = tmp_path / "ens.csv"
        path.write_text("# v=0.5 z=1 n_gen=35 count=3 seed=0\nsample\n1.0\nnan\ninf\n")
        with pytest.raises(ValueError,
                           match=r"ens\.csv: limit samples must be finite and positive"):
            read_ensemble_csv(path)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_ensemble_refuses_non_finite_samples(self, bad):
        with pytest.raises(ValueError, match="finite and positive"):
            LimitEnsemble([1.0, bad], v=0.5, z=1, n_gen=35)

    def test_ensemble_non_numeric_sample_refused(self, tmp_path):
        path = tmp_path / "ens.csv"
        path.write_text("# v=0.5 z=1 n_gen=35 count=3 seed=0\nsample\n1.25\nabc\n2.0\n")
        with pytest.raises(ValueError, match=r"ens\.csv: line 4: sample 'abc' is not a number"):
            read_ensemble_csv(path)

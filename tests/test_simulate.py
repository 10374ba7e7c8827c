"""Tests for the stochastic molecule-count simulators."""

import math

import numpy as np
import pytest
from scipy import stats

from qpcrkin import streams
from qpcrkin.kinetics import Kinetics, iterate_mean_map
from qpcrkin.limit_law import BLOCK_SIZE
from qpcrkin.simulate import (
    CoupledCapError,
    CoupledRun,
    SaturationError,
    SimConfig,
    Trajectory,
    densities,
    noise_sequence,
    order_violations,
    read_trajectory_csv,
    simulate_coupled,
    simulate_linear,
    simulate_reaction,
    simulate_replicates,
    write_trajectory_csv,
)


def cfg(v=0.5, K=1000.0, z0=1, n_cycles=5, **kw):
    return SimConfig(kinetics=Kinetics(v=v, K=K), z0=z0, n_cycles=n_cycles, **kw)


class TestConfigAndTrajectory:
    def test_rejects_zero_copies(self):
        with pytest.raises(ValueError):
            cfg(z0=0)

    def test_rejects_zero_cycles(self):
        with pytest.raises(ValueError):
            cfg(n_cycles=0)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            cfg(mode="exact")

    def test_coupled_needs_gamma_in_unit_interval(self):
        with pytest.raises(ValueError):
            cfg(mode="coupled", gamma=1.0)

    def test_trajectory_rejects_decreasing(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([4, 3]), Kinetics(0.5, 10.0))

    def test_trajectory_rejects_overdoubling(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([3, 7]), Kinetics(0.5, 10.0))

    def test_trajectory_rejects_negative(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([-1, 0]), Kinetics(0.5, 10.0))


class TestReaction:
    def test_doubles_when_probability_saturates(self):
        # K so large that the replication probability is 1 up to rounding
        traj = simulate_reaction(cfg(v=1.0, K=1e18, z0=1, n_cycles=3, seed=1))
        assert traj.counts.tolist() == [1, 2, 4, 8]

    def test_constant_when_efficiency_vanishes(self):
        traj = simulate_reaction(cfg(v=1e-12, z0=5, n_cycles=4, seed=2))
        assert traj.counts.tolist() == [5, 5, 5, 5, 5]

    def test_one_step_law_matches_enumeration(self):
        # z0=2, K=4, v=0.5: replication probability 1/3 per molecule, so the
        # increment is binomial(2, 1/3) with pmf {4/9, 4/9, 1/9}
        draws = np.empty(10 ** 6, dtype=np.int64)
        c = cfg(v=0.5, K=4.0, z0=2, n_cycles=1, seed=7)
        for i in range(draws.size):
            t = simulate_reaction(
                SimConfig(c.kinetics, 2, 1, seed=7, replicate_id=i)
            )
            draws[i] = t.counts[1]
        freq = np.bincount(draws - 2, minlength=3) / draws.size
        expected = np.array([4 / 9, 4 / 9, 1 / 9])
        se = np.sqrt(expected * (1 - expected) / draws.size)
        assert np.all(np.abs(freq - expected) < 4 * se)

    def test_deterministic_per_seed_and_replicate(self):
        a = simulate_reaction(cfg(seed=11, replicate_id=3, n_cycles=8))
        b = simulate_reaction(cfg(seed=11, replicate_id=3, n_cycles=8))
        assert np.array_equal(a.counts, b.counts)

    def test_replicates_uncoupled_by_order(self):
        batch = [
            simulate_reaction(cfg(z0=50, seed=5, replicate_id=r)).counts
            for r in range(5)
        ]
        alone = simulate_reaction(cfg(z0=50, seed=5, replicate_id=2)).counts
        assert np.array_equal(batch[2], alone)
        assert not np.array_equal(batch[1], batch[3])

    def test_saturation_raises_not_wraps(self):
        big = 2 ** 62 + 1
        with pytest.raises(SaturationError):
            simulate_reaction(cfg(v=1.0, K=1e40, z0=big, n_cycles=1, seed=3))

    def test_modes_share_one_step_law(self):
        # chi-square homogeneity of Z_1 across the two modes at tiny K
        n = 10 ** 5
        fast = np.empty(n, dtype=np.int64)
        coup = np.empty(n, dtype=np.int64)
        kin = Kinetics(v=0.5, K=4.0)
        for i in range(n):
            fast[i] = simulate_reaction(
                SimConfig(kin, 4, 1, seed=13, replicate_id=i)
            ).counts[1]
            coup[i] = simulate_coupled(
                SimConfig(kin, 4, 1, mode="coupled", seed=13, replicate_id=i)
            ).reaction.counts[1]
        table = np.array(
            [np.bincount(fast - 4, minlength=5), np.bincount(coup - 4, minlength=5)]
        )
        table = table[:, table.sum(axis=0) > 0]
        _, pvalue, _, _ = stats.chi2_contingency(table)
        assert pvalue > 1e-3


class TestReplicateBlocks:
    def test_block_is_one_stream(self):
        # block 1 advances its lanes in lockstep on the aux=1 reaction stream
        kin, n_cycles = Kinetics(v=0.5, K=200.0), 12
        gen = streams.stream(6, streams.REACTION, 1, aux=1)
        z = np.full(BLOCK_SIZE, 3, dtype=np.int64)
        rows = [z]
        for _ in range(n_cycles):
            z = z + gen.binomial(z, kin.v * kin.K / (kin.K + z))
            rows.append(z)
        got = simulate_replicates(kin, 3, n_cycles, 2 * BLOCK_SIZE, seed=6)
        assert got.shape == (2 * BLOCK_SIZE, n_cycles + 1)
        assert got.dtype == np.int64
        assert np.array_equal(got[BLOCK_SIZE:], np.stack(rows, axis=1))

    def test_prefix_stable(self):
        kin = Kinetics(v=0.5, K=1000.0)
        long = simulate_replicates(kin, 2, 10, 2500, seed=4)
        assert np.array_equal(long[:1000], simulate_replicates(kin, 2, 10, 1000, seed=4))
        assert np.array_equal(long[:2000], simulate_replicates(kin, 2, 10, 2000, seed=4))

    def test_disjoint_from_single_trajectories(self):
        # on one shared key lane 0's first increment would be the single
        # trajectory's first draw; a wide binomial makes a chance tie rare
        kin = Kinetics(v=0.5, K=1e12)
        lane0 = simulate_replicates(kin, 10 ** 6, 1, 1, seed=5)[0]
        alone = simulate_reaction(SimConfig(kin, 10 ** 6, 1, seed=5, replicate_id=0))
        assert not np.array_equal(lane0, alone.counts)

    def test_one_step_law_matches_enumeration(self):
        # z0=2, K=4, v=0.5: the increment is binomial(2, 1/3), pmf {4/9, 4/9, 1/9}
        n = 10 ** 6
        draws = simulate_replicates(Kinetics(v=0.5, K=4.0), 2, 1, n, seed=7)[:, 1]
        freq = np.bincount(draws - 2, minlength=3) / n
        expected = np.array([4 / 9, 4 / 9, 1 / 9])
        se = np.sqrt(expected * (1 - expected) / n)
        assert np.all(np.abs(freq - expected) < 4 * se)

    def test_saturation_raises_not_wraps(self):
        with pytest.raises(SaturationError):
            simulate_replicates(Kinetics(v=1.0, K=1e40), 2 ** 62 + 1, 1, 3, seed=3)

    @pytest.mark.parametrize("bad", [
        dict(z0=0, n_cycles=1, replicates=1),
        dict(z0=1, n_cycles=0, replicates=1),
        dict(z0=1, n_cycles=1, replicates=0),
    ])
    def test_rejects_bad_sizes(self, bad):
        with pytest.raises(ValueError):
            simulate_replicates(Kinetics(v=0.5, K=10.0), **bad)


class TestLinear:
    def test_exact_doubling_at_full_efficiency(self):
        traj = simulate_linear(cfg(v=1.0, z0=3, n_cycles=3, seed=1))
        assert traj.counts.tolist() == [3, 6, 12, 24]

    def test_moments_match_branching_formulas(self):
        # single-type branching with offspring 1 + bernoulli(v):
        # mean z0*b**n, variance z0*v*(1-v)*b**(n-1)*(b**n - 1)/(b - 1)
        v, z0, n, reps = 0.5, 1, 6, 20000
        b = 1.0 + v
        vals = np.empty(reps)
        for i in range(reps):
            vals[i] = simulate_linear(
                cfg(v=v, z0=z0, n_cycles=n, seed=17, replicate_id=i)
            ).counts[-1]
        mean_exp = z0 * b ** n
        var_exp = z0 * v * (1 - v) * b ** (n - 1) * (b ** n - 1) / (b - 1)
        assert abs(vals.mean() - mean_exp) < 4 * math.sqrt(var_exp / reps)
        m4 = np.mean((vals - vals.mean()) ** 4)
        se_var = math.sqrt((m4 - var_exp ** 2) / reps)
        assert abs(vals.var(ddof=1) - var_exp) < 4 * se_var

    def test_normalized_counts_form_martingale(self):
        v, z0, reps = 0.9, 2, 10000
        b = 1.0 + v
        ns = [2, 4, 8]
        rows = np.empty((reps, len(ns)))
        for i in range(reps):
            t = simulate_linear(cfg(v=v, z0=z0, n_cycles=max(ns), seed=23, replicate_id=i))
            rows[i] = [t.counts[n] / b ** n for n in ns]
        for j in range(len(ns)):
            se = rows[:, j].std(ddof=1) / math.sqrt(reps)
            assert abs(rows[:, j].mean() - z0) < 4 * se

    def test_saturation_raises(self):
        with pytest.raises(SaturationError):
            simulate_linear(cfg(v=1.0, z0=2 ** 62 + 1, n_cycles=1, seed=3))


class TestCoupled:
    @pytest.mark.parametrize("v", [0.5, 1.0])
    @pytest.mark.parametrize("seed", [101, 202, 303])
    def test_pathwise_order(self, v, seed):
        run = simulate_coupled(
            cfg(v=v, K=(1 + v) ** 10, z0=5, n_cycles=10, mode="coupled", seed=seed)
        )
        assert all(count == 0 for count in order_violations(run).values())
        z, y = run.reaction.counts, run.upper.counts
        assert np.all(z <= y)

    def test_crossing_indices_ordered(self):
        run = simulate_coupled(
            cfg(v=1.0, K=2.0 ** 10, z0=5, n_cycles=10, mode="coupled", seed=9)
        )
        assert run.upper_crossing is not None
        assert run.reaction_crossing is not None
        assert run.upper_crossing <= run.reaction_crossing

    def test_initial_crossing_at_zero(self):
        run = simulate_coupled(
            cfg(v=0.5, K=16.0, z0=15, n_cycles=2, mode="coupled", seed=4)
        )
        # K**0.75 = 8 < 15, so both processes start above the threshold
        assert run.reaction_crossing == 0
        assert run.upper_crossing == 0

    def test_individual_cap(self):
        with pytest.raises(CoupledCapError):
            simulate_coupled(
                cfg(v=0.5, K=1e12, z0=2 * 10 ** 7, n_cycles=1, mode="coupled", seed=1)
            )

    def test_reaction_mode_dispatch(self):
        a = simulate_reaction(cfg(z0=4, mode="coupled", seed=31, n_cycles=6))
        b = simulate_coupled(cfg(z0=4, mode="coupled", seed=31, n_cycles=6)).reaction
        assert np.array_equal(a.counts, b.counts)


class TestNoise:
    def test_centering_single_cycle(self):
        # one cycle from fixed z: fluctuations have mean zero by construction
        v, reps = 1.0, 10000
        kin = Kinetics(v=v, K=130.0)
        eps = np.empty(reps)
        for i in range(reps):
            t = simulate_reaction(SimConfig(kin, 39, 1, seed=37, replicate_id=i))
            eps[i] = noise_sequence(t)[0]
        assert abs(eps.mean()) < 4 * math.sqrt(v / reps)

    def test_second_moment_bounded_by_efficiency(self):
        v, reps, cycles = 0.5, 2000, 5
        kin = Kinetics(v=v, K=1.5 ** 12)
        z0 = round(0.3 * kin.K)
        pooled = []
        for i in range(reps):
            t = simulate_reaction(SimConfig(kin, z0, cycles, seed=41, replicate_id=i))
            pooled.append(noise_sequence(t))
        pooled = np.concatenate(pooled)
        sq = pooled ** 2
        mc_err = sq.std(ddof=1) / math.sqrt(sq.size)
        assert sq.mean() <= v + 3 * mc_err
        assert abs(pooled.mean()) < 4 * math.sqrt(v / pooled.size)


class TestConcentration:
    def test_density_concentrates_on_mean_iterates(self):
        # with z0 = x0*K the density after n cycles piles up on the n-th
        # mean-map iterate, with spread shrinking like 1/sqrt(K)
        v, x0, n, reps = 0.5, 0.4, 5, 400
        stds = []
        for m in (10, 14):
            kin = Kinetics.from_exponent(v, m)
            z0 = round(x0 * kin.K)
            vals = np.empty(reps)
            for i in range(reps):
                t = simulate_reaction(SimConfig(kin, z0, n, seed=43, replicate_id=i))
                vals[i] = t.counts[-1] / kin.K
            target = iterate_mean_map(z0 / kin.K, n, kin)
            assert abs(vals.mean() - target) < 4 * vals.std(ddof=1) / math.sqrt(reps)
            stds.append(vals.std(ddof=1))
        ratio = stds[1] / stds[0]
        expected = (1 + v) ** (-(14 - 10) / 2)
        assert 0.6 * expected < ratio < 1.5 * expected


class TestDensitiesAndExport:
    def test_density_values(self):
        kin = Kinetics(v=0.5, K=8.0)
        t = Trajectory(np.array([0, 0]), kin)
        assert densities(t).tolist() == [0.0, 0.0]
        t = Trajectory(np.array([8]), kin)
        assert densities(t).tolist() == [1.0]

    def test_csv_round_trip(self, tmp_path):
        traj = simulate_reaction(cfg(v=0.5, K=57.0, z0=3, n_cycles=6, seed=19))
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        back = read_trajectory_csv(path)
        assert np.array_equal(back.counts, traj.counts)
        assert back.kinetics == traj.kinetics
        assert back.seed == traj.seed
        assert back.replicate_id == traj.replicate_id
        # density column carries full precision
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# v=0.5 K=57 z0=3 seed=19")
        first = lines[2].split(",")
        assert float(first[2]) == 3 / 57.0

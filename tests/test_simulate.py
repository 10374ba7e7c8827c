"""Tests for the stochastic molecule-count simulators."""

import itertools
import math

import numpy as np
import pytest
from scipy import stats

from qpcrkin import streams
from qpcrkin.kinetics import Kinetics, iterate_mean_map
from qpcrkin.limit_law import BLOCK_SIZE
from qpcrkin.simulate import (
    CoupledRun,
    CouplingViolationError,
    SaturationError,
    SimConfig,
    Trajectory,
    _coupled_lanes,
    densities,
    noise_sequence,
    order_violations,
    read_trajectory_csv,
    simulate_coupled,
    simulate_coupled_replicates,
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

    def test_coupled_needs_gamma_in_unit_interval(self):
        with pytest.raises(ValueError):
            cfg(gamma=1.0)

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
        # z0=2, K=4, v=0.5: replication probability vK/(K+z) = 1/3 per
        # molecule, so the increment is the binomial(2, 1/3) draw of the
        # replicate's own REACTION stream, draw for draw.  The law itself
        # is checked on 10**6 lanes in TestReplicateBlocks.
        kin = Kinetics(v=0.5, K=4.0)
        for i in range(10 ** 4):
            got = simulate_reaction(SimConfig(kin, 2, 1, seed=7, replicate_id=i))
            want = 2 + streams.stream(7, streams.REACTION, i).binomial(2, 1 / 3)
            assert got.counts[1] == want, i

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
            cfg(v=v, K=(1 + v) ** 10, z0=5, n_cycles=10, seed=seed)
        )
        assert all(count == 0 for count in order_violations(run).values())
        z, y = run.reaction.counts, run.upper.counts
        assert np.all(z <= y)

    def test_crossing_indices_ordered(self):
        run = simulate_coupled(
            cfg(v=1.0, K=2.0 ** 10, z0=5, n_cycles=10, seed=9)
        )
        assert run.upper_crossing is not None
        assert run.reaction_crossing is not None
        assert run.upper_crossing <= run.reaction_crossing

    def test_initial_crossing_at_zero(self):
        run = simulate_coupled(
            cfg(v=0.5, K=16.0, z0=15, n_cycles=2, seed=4)
        )
        # K**0.75 = 8 < 15, so both processes start above the threshold
        assert run.reaction_crossing == 0
        assert run.upper_crossing == 0

    def test_one_lane_case_of_the_block_construction(self):
        c = cfg(v=0.5, K=200.0, z0=3, n_cycles=12, seed=21, replicate_id=4)
        run = simulate_coupled(c)
        gen = streams.stream(21, streams.COUPLED, 4, aux=0)
        lanes = _coupled_lanes(gen, c.kinetics, c.gamma, 3, 12, 1)
        assert np.array_equal(lanes[:, 0], np.stack(
            [run.reaction.counts, run.upper.counts, run.lower.counts]))

    def test_count_at_the_crossing_level_has_not_crossed(self):
        # K**gamma = 8 exactly, and the run starts at 8
        run = simulate_coupled(cfg(v=0.5, K=16.0, z0=8, n_cycles=3, seed=5))
        assert run.reaction_crossing != 0 and run.upper_crossing != 0

    def test_block_is_one_stream_and_prefix_stable(self):
        # block 1 is the lane construction on the aux=1 coupled stream
        kin = Kinetics(v=0.5, K=200.0)
        got = simulate_coupled_replicates(kin, 3, 12, 2 * BLOCK_SIZE, seed=6)
        assert got.shape == (3, 2 * BLOCK_SIZE, 13) and got.dtype == np.int64
        gen = streams.stream(6, streams.COUPLED, 1, aux=1)
        lanes = _coupled_lanes(gen, kin, 0.75, 3, 12, BLOCK_SIZE)
        assert np.array_equal(got[:, BLOCK_SIZE:], lanes)
        short = simulate_coupled_replicates(kin, 3, 12, 1500, seed=6)
        assert np.array_equal(short, got[:, :1500])

    @pytest.mark.parametrize("bad", [
        dict(z0=0), dict(n_cycles=0), dict(replicates=0), dict(gamma=1.0),
    ])
    def test_replicates_reject_bad_sizes(self, bad):
        args = dict(z0=1, n_cycles=1, replicates=1, gamma=0.75) | bad
        with pytest.raises(ValueError):
            simulate_coupled_replicates(Kinetics(v=0.5, K=10.0), **args)

    def test_probability_rounded_above_v(self):
        # at K = 1.9**65, v*K/(K + 1) rounds one ulp above v = 0.9
        kin = Kinetics.from_exponent(0.9, 65)
        assert kin.v * kin.K / (kin.K + 1) > kin.v
        run = simulate_coupled(SimConfig(kin, z0=1, n_cycles=3, seed=1))
        assert run.upper.counts[-1] <= 8

    def test_saturation_raises_not_wraps(self):
        with pytest.raises(SaturationError):
            simulate_coupled(cfg(v=1.0, K=1e40, z0=2 ** 62 + 1, n_cycles=1, seed=3))

    def test_order_violations_counts_each_relation(self):
        # rows reaction, upper, lower of two runs; crossing level 5
        runs = np.array([
            [[1, 2, 6], [1, 1, 1]],
            [[1, 3, 5], [1, 1, 2]],
            [[1, 3, 3], [1, 2, 2]],
        ])
        assert order_violations(runs, 5.0) == {
            "reaction_above_upper": 1,  # run 0, cycle 2
            "lower_above_upper": 1,  # run 1, cycle 1
            "lower_above_reaction_before_crossing": 3,  # run 0 cycle 1, run 1 cycles 1-2
            "crossing_order": 1,  # run 0 crosses at cycle 2, its upper never does
        }
        # a reaction at the crossing level has not crossed
        assert order_violations(np.array([[[5]], [[5]], [[6]]]), 5.0) == {
            "reaction_above_upper": 0, "lower_above_upper": 1,
            "lower_above_reaction_before_crossing": 1, "crossing_order": 0,
        }
        kin = Kinetics(0.5, 16.0)
        with pytest.raises(CouplingViolationError):
            CoupledRun(Trajectory([1, 2, 4], kin), Trajectory([1, 2, 3], kin),
                       Trajectory([1, 1, 1], kin), 0.75, None, None)

    @pytest.mark.parametrize("case", [
        # K**gamma = 8 stays above z for both cycles: p_lower < p_reaction, w <= z
        dict(kin=Kinetics(0.5, 16.0), gamma=0.75, seed=1),
        # z0 = 3 starts above K**gamma = 1.41: p_reaction < p_lower, so the
        # lower process can overtake the reaction in cycle 1, and cycle 2
        # starts from states with w > z
        dict(kin=Kinetics(0.9, 2.0), gamma=0.5, seed=2),
    ], ids=["before-crossing", "after-crossing"])
    def test_joint_law_matches_enumeration(self, case):
        z0, n_cycles, n = 3, 2, 10 ** 5
        law = _per_molecule_path_law(case["kin"], case["gamma"], z0, n_cycles)
        counts = simulate_coupled_replicates(
            case["kin"], z0, n_cycles, n, gamma=case["gamma"], seed=case["seed"])
        assert order_violations(counts, case["kin"].K ** case["gamma"]) == dict.fromkeys(
            ["reaction_above_upper", "lower_above_upper",
             "lower_above_reaction_before_crossing", "crossing_order"], 0)
        if case["gamma"] == 0.5:
            assert (counts[2, :, 1] > counts[0, :, 1]).mean() > 0.1
        paths, observed = np.unique(
            counts.transpose(1, 2, 0).reshape(n, -1), axis=0, return_counts=True)
        index = {tuple(p): i for i, p in enumerate(law)}
        assert all(tuple(p) in index for p in paths.tolist())
        obs = np.zeros(len(law))
        obs[[index[tuple(p)] for p in paths.tolist()]] = observed
        exp = n * np.array(list(law.values()))
        # cells expected fewer than 5 times are pooled into one
        small = exp < 5
        obs = np.append(obs[~small], obs[small].sum())
        exp = np.append(exp[~small], exp[small].sum())
        assert stats.chisquare(obs, exp).pvalue > 1e-3


def _per_molecule_path_law(kin, gamma, z0, n_cycles):
    """Exact law of the coupled path by enumeration of the per-molecule form.

    Maps each path (Z_0, Y_0, W_0, ..., Z_n, Y_n, W_n) to its probability.
    Every cycle, molecule j < y draws a uniform u_j and replicates in Y
    when u_j < v, in Z when j < z and u_j < v*K/(K + z), and in W when
    j < w and u_j < v*K/(K + K**gamma); the enumeration runs over the
    interval between consecutive probabilities that each u_j falls in.
    """
    v, K = kin.v, kin.K
    p_lower = v * K / (K + K ** gamma)
    law = {(z0, z0, z0): 1.0}
    for _ in range(n_cycles):
        nxt = {}
        for path, mass in law.items():
            z, y, w = path[-3:]
            p_reaction = v * K / (K + z)
            cuts = np.array(sorted({0.0, p_lower, p_reaction, v, 1.0}))
            lo, hi = cuts[:-1], cuts[1:]
            # every assignment of the y uniforms to intervals, one per row
            pick = np.array(list(itertools.product(range(lo.size), repeat=y)))
            prob = mass * np.prod(hi[pick] - lo[pick], axis=1)
            j = np.arange(y)
            dy = (hi[pick] <= v).sum(axis=1)
            dz = ((hi[pick] <= p_reaction) & (j < z)).sum(axis=1)
            dw = ((hi[pick] <= p_lower) & (j < w)).sum(axis=1)
            for step, p in zip(zip(z + dz, y + dy, w + dw), prob):
                key = path + tuple(int(x) for x in step)
                nxt[key] = nxt.get(key, 0.0) + p
        law = nxt
    return law

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

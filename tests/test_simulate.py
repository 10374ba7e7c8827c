"""Tests for the stochastic molecule-count simulators."""

import itertools
import math
import os

import numpy as np
import pytest
from scipy import stats

from qpcrkin import streams
from qpcrkin.experiments import ExperimentResult, emit_profile_curves, write_result_json
from qpcrkin.inference import EstimateReport, write_report_json
from qpcrkin.kinetics import Kinetics, iterate_mean_map
from qpcrkin.limit_law import sample_limit, write_ensemble_csv
from qpcrkin.simulate import (
    BLOCK_SIZE,
    SaturationError,
    Trajectory,
    _coupled_lanes,
    densities,
    noise_sequence,
    order_violations,
    read_trajectory_csv,
    simulate_coupled_replicates,
    simulate_reaction,
    simulate_replicates,
    write_trajectory_csv,
)


def reaction(v=0.5, K=1000.0, z0=1, n_cycles=5, **kw):
    return simulate_reaction(Kinetics(v=v, K=K), z0, n_cycles, **kw)


class TestConfigAndTrajectory:
    def test_rejects_zero_copies(self):
        with pytest.raises(ValueError):
            reaction(z0=0)

    def test_rejects_zero_cycles(self):
        with pytest.raises(ValueError):
            reaction(n_cycles=0)

    @pytest.mark.parametrize("bad", [{"z0": 2.5}, {"z0": True}, {"n_cycles": 5.0},
                                     {"seed": 1.5}, {"seed": True}, {"replicate_id": 1.5}])
    def test_rejects_non_integer_settings(self, bad):
        # a float z0 was cast into the int64 counts, a float seed truncated
        # into the stream key, and each reported as given
        name = next(iter(bad)).removesuffix("_id")
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            reaction(**bad)
        if name != "replicate":
            settings = {"z0": 1, "n_cycles": 5, "replicates": 3, "seed": 0, **bad}
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                simulate_replicates(Kinetics(0.5, 1000.0), **settings)

    @pytest.mark.parametrize("bad", [{"seed": 1.5}, {"seed": True}, {"replicate_id": 2.5}])
    def test_trajectory_refuses_a_seed_its_file_could_not_hold(self, bad, tmp_path):
        # seed=1.5 wrote a file that read_trajectory_csv refused
        name, value = next(iter(bad.items()))
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value!r}$"):
            write_trajectory_csv(Trajectory([1, 2, 3], Kinetics(0.5, 100.0), **bad),
                                 tmp_path / "traj.csv")
        assert not list(tmp_path.iterdir())

    def test_trajectory_numpy_seed_read_back(self, tmp_path):
        traj = Trajectory([1, 2, 3], Kinetics(0.5, 100.0), seed=np.int64(7),
                          replicate_id=np.uint32(2))
        assert (type(traj.seed), type(traj.replicate_id)) == (int, int)
        write_trajectory_csv(traj, tmp_path / "traj.csv")
        back = read_trajectory_csv(tmp_path / "traj.csv")
        assert (back.seed, back.replicate_id) == (7, 2)

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
        traj = reaction(v=1.0, K=1e18, z0=1, n_cycles=3, seed=1)
        assert traj.counts.tolist() == [1, 2, 4, 8]

    def test_constant_when_efficiency_vanishes(self):
        traj = reaction(v=1e-12, z0=5, n_cycles=4, seed=2)
        assert traj.counts.tolist() == [5, 5, 5, 5, 5]

    def test_one_step_law_matches_enumeration(self):
        # z0=2, K=4, v=0.5: replication probability vK/(K+z) = 1/3 per
        # molecule, so the increment is the binomial(2, 1/3) draw of block
        # i's REACTION stream, draw for draw.  The law itself is checked
        # on 10**6 lanes in TestReplicateBlocks.
        kin = Kinetics(v=0.5, K=4.0)
        for i in range(10 ** 4):
            got = simulate_reaction(kin, 2, 1, seed=7, replicate_id=i)
            want = 2 + streams.stream(7, streams.REACTION, i).binomial(2, 1 / 3)
            assert got.counts[1] == want, i

    def test_deterministic_per_seed_and_replicate(self):
        a = reaction(seed=11, replicate_id=3, n_cycles=8)
        b = reaction(seed=11, replicate_id=3, n_cycles=8)
        assert np.array_equal(a.counts, b.counts)

    def test_replicates_uncoupled_by_order(self):
        batch = [
            reaction(z0=50, seed=5, replicate_id=r).counts
            for r in range(5)
        ]
        alone = reaction(z0=50, seed=5, replicate_id=2).counts
        assert np.array_equal(batch[2], alone)
        assert not np.array_equal(batch[1], batch[3])

    def test_saturation_raises_not_wraps(self):
        big = 2 ** 62 + 1
        with pytest.raises(SaturationError):
            reaction(v=1.0, K=1e40, z0=big, n_cycles=1, seed=3)


def _reaction_block(kin, z0, n_cycles, lanes, seed):
    """Block 1 of the reaction layout drawn by hand: lanes rows of counts."""
    gen = streams.stream(seed, streams.REACTION, 1)
    z = np.full(lanes, z0, dtype=np.int64)
    rows = [z]
    for _ in range(n_cycles):
        z = z + gen.binomial(z, kin.v * kin.K / (kin.K + z))
        rows.append(z)
    return np.stack(rows, axis=1)


class TestReplicateBlocks:
    def test_block_is_one_stream(self):
        # block 1 advances its lanes in lockstep on replicate 1's reaction stream
        kin, n_cycles = Kinetics(v=0.5, K=200.0), 12
        got = simulate_replicates(kin, 3, n_cycles, 2 * BLOCK_SIZE, seed=6)
        assert got.shape == (2 * BLOCK_SIZE, n_cycles + 1)
        assert got.dtype == np.int64
        assert np.array_equal(got[BLOCK_SIZE:], _reaction_block(kin, 3, n_cycles, BLOCK_SIZE, 6))

    def test_partial_block_is_one_stream(self):
        # the last block draws only the remainder: lanes 1000..1499 are a
        # 500-lane lockstep on block 1's stream, not a cut of 1000 lanes
        kin, n_cycles = Kinetics(v=0.5, K=200.0), 12
        got = simulate_replicates(kin, 3, n_cycles, BLOCK_SIZE + 500, seed=6)
        assert got.shape == (BLOCK_SIZE + 500, n_cycles + 1)
        assert np.array_equal(got[BLOCK_SIZE:], _reaction_block(kin, 3, n_cycles, 500, 6))
        whole = _reaction_block(kin, 3, n_cycles, BLOCK_SIZE, 6)
        assert not np.array_equal(got[BLOCK_SIZE:], whole[:500])

    def test_prefix_stable(self):
        kin = Kinetics(v=0.5, K=1000.0)
        long = simulate_replicates(kin, 2, 10, 2500, seed=4)
        assert np.array_equal(long[:1000], simulate_replicates(kin, 2, 10, 1000, seed=4))
        assert np.array_equal(long[:2000], simulate_replicates(kin, 2, 10, 2000, seed=4))

    @pytest.mark.parametrize("v", [0.25, 0.5, 1.0])
    def test_single_trajectory_is_a_one_lane_block(self, v):
        # replicate r of simulate_reaction is block r drawn with one lane:
        # row BLOCK_SIZE * r of a run of BLOCK_SIZE * r + 1 replicates
        kin = Kinetics.from_exponent(v, 25)
        for seed, r, z0 in itertools.product(range(10), (0, 1, 3), (1, 3, 7)):
            alone = simulate_reaction(kin, z0, 30, seed=seed, replicate_id=r)
            rows = simulate_replicates(kin, z0, 30, BLOCK_SIZE * r + 1, seed=seed)
            assert np.array_equal(alone.counts, rows[BLOCK_SIZE * r]), (seed, r, z0)

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
    """The upper row of the coupled construction: branching with probability v."""

    def test_exact_doubling_at_full_efficiency(self):
        upper = simulate_coupled_replicates(Kinetics(1.0, 1000.0), 3, 3, 1, seed=1)[1]
        assert upper.tolist() == [[3, 6, 12, 24]]

    def test_moments_match_branching_formulas(self):
        # single-type branching with offspring 1 + bernoulli(v):
        # mean z0*b**n, variance z0*v*(1-v)*b**(n-1)*(b**n - 1)/(b - 1)
        v, z0, n, reps = 0.5, 1, 6, 20000
        b = 1.0 + v
        vals = simulate_coupled_replicates(
            Kinetics(v, 1000.0), z0, n, reps, seed=17)[1, :, -1]
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
        upper = simulate_coupled_replicates(Kinetics(v, 1000.0), z0, max(ns), reps, seed=23)[1]
        rows = upper[:, ns] / b ** np.array(ns)
        for j in range(len(ns)):
            se = rows[:, j].std(ddof=1) / math.sqrt(reps)
            assert abs(rows[:, j].mean() - z0) < 4 * se


class TestCoupled:
    @pytest.mark.parametrize("v", [0.5, 1.0])
    @pytest.mark.parametrize("seed", [101, 202, 303])
    def test_pathwise_order(self, v, seed):
        kin = Kinetics(v, (1 + v) ** 10)
        counts = simulate_coupled_replicates(kin, 5, 10, BLOCK_SIZE, seed=seed)
        assert all(count == 0 for count in order_violations(counts, kin.K ** 0.75).values())
        assert np.all(counts[0] <= counts[1])

    def test_block_is_one_stream_and_prefix_stable(self):
        # block 1 is the lane construction on replicate 1's coupled stream;
        # block 0 is whole in both runs, so it is the same in both
        kin = Kinetics(v=0.5, K=200.0)
        got = simulate_coupled_replicates(kin, 3, 12, 2 * BLOCK_SIZE, seed=6)
        assert got.shape == (3, 2 * BLOCK_SIZE, 13) and got.dtype == np.int64
        gen = streams.stream(6, streams.COUPLED, 1)
        lanes = _coupled_lanes([gen], BLOCK_SIZE, kin, 0.75, 3, 12)
        assert np.array_equal(got[:, BLOCK_SIZE:], lanes)
        short = simulate_coupled_replicates(kin, 3, 12, 1500, seed=6)
        assert np.array_equal(short[:, :BLOCK_SIZE], got[:, :BLOCK_SIZE])

    def test_partial_block_is_one_stream(self):
        # lanes 1000..1499 are the lane construction on 500 lanes of block
        # 1's stream
        kin = Kinetics(v=0.5, K=200.0)
        got = simulate_coupled_replicates(kin, 3, 12, BLOCK_SIZE + 500, seed=6)
        assert got.shape == (3, BLOCK_SIZE + 500, 13)
        gen = streams.stream(6, streams.COUPLED, 1)
        lanes = _coupled_lanes([gen], 500, kin, 0.75, 3, 12)
        assert np.array_equal(got[:, BLOCK_SIZE:], lanes)

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
        upper = simulate_coupled_replicates(kin, 1, 3, BLOCK_SIZE, seed=1)[1]
        assert np.all(upper[:, -1] <= 8)

    def test_saturation_raises_not_wraps(self):
        with pytest.raises(SaturationError):
            simulate_coupled_replicates(Kinetics(1.0, 1e40), 2 ** 62 + 1, 1, 1, seed=3)

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
            t = simulate_reaction(kin, 39, 1, seed=37, replicate_id=i)
            eps[i] = noise_sequence(t)[0]
        assert abs(eps.mean()) < 4 * math.sqrt(v / reps)

    def test_second_moment_bounded_by_efficiency(self):
        v, reps, cycles = 0.5, 2000, 5
        kin = Kinetics(v=v, K=1.5 ** 12)
        z0 = round(0.3 * kin.K)
        pooled = []
        for i in range(reps):
            t = simulate_reaction(kin, z0, cycles, seed=41, replicate_id=i)
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
                t = simulate_reaction(kin, z0, n, seed=43, replicate_id=i)
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
        traj = reaction(v=0.5, K=57.0, z0=3, n_cycles=6, seed=19)
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
        # a header without seed and replicate is refused by name
        path.write_text("# v=0.5 K=1000 z0=1\n" + "\n".join(lines[1:]) + "\n")
        with pytest.raises(ValueError, match=r"misses keys \['seed', 'replicate'\]"):
            read_trajectory_csv(path)
        # an item without "=" is refused by path and item
        path.write_text("# v=0.5 K seed=1 replicate=0\n" + "\n".join(lines[1:]) + "\n")
        with pytest.raises(ValueError, match=r"traj\.csv: metadata item 'K' is not key=value"):
            read_trajectory_csv(path)

    def test_csv_without_count_column_refused(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("# v=0.5 K=57 z0=3 seed=19 replicate=0\n"
                        "cycle,density\n0,0.05\n1,0.08\n")
        with pytest.raises(ValueError, match=r"traj\.csv: trajectory header misses the column 'count'"):
            read_trajectory_csv(path)

    def test_csv_row_without_count_refused(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("# v=0.5 K=57 z0=3 seed=19 replicate=0\n"
                        "cycle,count,density\n0,3,0.05\n1\n")
        with pytest.raises(ValueError, match=r"traj\.csv: line 4: count None is not an integer"):
            read_trajectory_csv(path)

    def test_csv_non_integer_count_refused(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("# v=0.5 K=57 z0=3 seed=19 replicate=0\n"
                        "cycle,count,density\n0,x,0.05\n")
        with pytest.raises(ValueError, match=r"traj\.csv: line 3: count 'x' is not an integer"):
            read_trajectory_csv(path)

    @pytest.mark.parametrize("header,named", [
        ("v=0.5 K=57 z0=3 seed=abc replicate=0", "metadata seed='abc' does not parse as int"),
        ("v=0.5 K=5e x=1 seed=19 replicate=0", "metadata K='5e' does not parse as float"),
        ("v=nan K=57 z0=3 seed=19 replicate=0", r"efficiency v must be in \(0, 1\], got nan"),
        ("v=0.5 K=inf z0=3 seed=19 replicate=0", "scale K must be finite and positive, got inf"),
    ], ids=["seed-abc", "K-5e", "v-nan", "K-inf"])
    def test_csv_metadata_refused_by_name(self, tmp_path, header, named):
        path = tmp_path / "traj.csv"
        path.write_text(f"# {header}\ncycle,count,density\n0,3,0.05\n1,5,0.08\n")
        with pytest.raises(ValueError, match=r"traj\.csv: " + named):
            read_trajectory_csv(path)

    def test_csv_decreasing_counts_refused_by_name(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("# v=0.5 K=57 z0=3 seed=19 replicate=0\n"
                        "cycle,count,density\n0,3,0.05\n1,2,0.04\n")
        with pytest.raises(ValueError, match=r"traj\.csv: counts must be nondecreasing"):
            read_trajectory_csv(path)

    @pytest.mark.parametrize("z0,named", [
        ("7", "metadata z0=7 differs from the first count 1"),
        ("abc", "metadata z0='abc' does not parse as int"),
    ], ids=["z0-7", "z0-abc"])
    def test_csv_header_z0_must_be_the_first_count(self, tmp_path, z0, named):
        path = tmp_path / "traj.csv"
        rows = "cycle,count,density\n0,1,0.001\n1,2,0.002\n"
        path.write_text(f"# v=0.5 K=1000 z0={z0} seed=0 replicate=0\n{rows}")
        with pytest.raises(ValueError, match=r"traj\.csv: " + named):
            read_trajectory_csv(path)
        # without z0 the header says nothing about the first count
        path.write_text(f"# v=0.5 K=1000 seed=0 replicate=0\n{rows}")
        assert read_trajectory_csv(path).counts.tolist() == [1, 2]

    @pytest.mark.parametrize("density,line", [
        ("0.9", 3), ("0.0010000000011", 3), ("nan", 3), ("x", 3), ("", 3),
    ])
    def test_csv_density_must_be_count_over_K(self, tmp_path, density, line):
        path = tmp_path / "traj.csv"
        path.write_text("# v=0.5 K=1000 z0=1 seed=0 replicate=0\n"
                        f"cycle,count,density\n0,1,{density}\n1,2,0.002\n")
        with pytest.raises(ValueError, match=rf"traj\.csv: line {line}: density "
                                             rf"'{density}' is not count/K = 0\.001"):
            read_trajectory_csv(path)

    def test_csv_density_within_relative_tolerance_or_absent(self, tmp_path):
        path = tmp_path / "traj.csv"
        meta = "# v=0.5 K=1000 z0=1 seed=0 replicate=0\n"
        # 2e-10 relative to count/K reads, 2e-9 does not
        path.write_text(meta + "cycle,count,density\n0,1,0.0010000000002\n1,2,0.002\n")
        assert read_trajectory_csv(path).counts.tolist() == [1, 2]
        path.write_text(meta + "cycle,count,density\n0,1,0.001\n1,2,0.002000000004\n")
        with pytest.raises(ValueError, match=r"traj\.csv: line 4: density '0\.002000000004'"):
            read_trajectory_csv(path)
        path.write_text(meta + "cycle,count\n0,1\n1,2\n")
        assert read_trajectory_csv(path).counts.tolist() == [1, 2]


# each writer called with a path and a key; different keys write different bytes
_WRITERS = {
    "trajectory": lambda path, key: write_trajectory_csv(
        reaction(seed=key), path),
    "ensemble": lambda path, key: write_ensemble_csv(
        sample_limit(0.5, count=10, seed=key), path),
    "curves": lambda path, key: emit_profile_curves([0.5], [0.0, 1.0 + key], out=path),
    "report": lambda path, key: write_report_json(EstimateReport(
        z_hat_mle=None, z_hat_normal=2.9, v_hat=None, t_values=[2.8 + key], tau=0,
        kappas=[0.1]), path),
    "result": lambda path, key: write_result_json(ExperimentResult(
        kind="estimation", spec={}, summary={}, runtime_seconds=0.5,
        records={"replicate": [key]}), path),
}


@pytest.mark.parametrize("writer", sorted(_WRITERS))
def test_interrupted_write_keeps_the_old_file(tmp_path, monkeypatch, writer):
    # the new file is complete but cannot take the old one's place: the
    # old file keeps its bytes and the new one is removed
    path = tmp_path / "out"
    _WRITERS[writer](path, 0)
    before = path.read_bytes()

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        _WRITERS[writer](path, 1)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out"]

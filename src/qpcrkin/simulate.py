"""Stochastic simulation of the molecule-count process.

The reaction starts from z0 molecules and each cycle replicates every
molecule independently with probability v*K/(K + z), z being the current
count.  Two modes produce the same law: "fast-binomial" draws the whole
cycle increment as one binomial variate, "coupled" simulates individual
molecules on shared uniforms so the reaction can be compared pathwise
against constant-probability branching references.  The experiment
runners draw all their replicates at once with simulate_replicates, the
fast-binomial law on lockstep blocks of trajectories.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from qpcrkin import streams
from qpcrkin.kinetics import Kinetics, mean_map
from qpcrkin.limit_law import BLOCK_SIZE

__all__ = [
    "SimConfig",
    "Trajectory",
    "CoupledRun",
    "SaturationError",
    "CoupledCapError",
    "CouplingViolationError",
    "simulate_reaction",
    "simulate_replicates",
    "simulate_linear",
    "simulate_coupled",
    "noise_sequence",
    "densities",
    "order_violations",
    "write_trajectory_csv",
    "read_trajectory_csv",
]

INT64_MAX = np.iinfo(np.int64).max

# per-individual simulation stores one uniform per molecule and cycle
COUPLED_INDIVIDUAL_CAP = 10 ** 7

FAST = "fast-binomial"
COUPLED = "coupled"

# aux tag of the replicate-block streams; aux 0 keys single trajectories
REPLICATE_BLOCK_AUX = 1

# One generator rewound per trajectory instead of a fresh Philox per call.
# Each single-trajectory simulator consumes its draws fully before
# returning, so the handles never overlap within a thread; the reset
# rewinds the whole state, so no draw depends on an earlier call.
_POOL = streams.ReusableStream()


class SaturationError(OverflowError):
    """Molecule count left the 64-bit range; results would wrap silently."""


class CoupledCapError(RuntimeError):
    """Per-individual simulation asked to store too many molecules."""


class CouplingViolationError(RuntimeError):
    """A pathwise order relation of the coupled construction failed."""


@dataclass(frozen=True)
class SimConfig:
    """Settings for one simulated replicate."""

    kinetics: Kinetics
    z0: int
    n_cycles: int
    mode: str = FAST
    gamma: float = 0.75
    seed: int = 0
    replicate_id: int = 0

    def __post_init__(self):
        if self.z0 < 1:
            raise ValueError("z0 must be at least 1")
        if self.n_cycles < 1:
            raise ValueError("n_cycles must be positive")
        if self.mode not in (FAST, COUPLED):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == COUPLED and not 0.0 < self.gamma < 1.0:
            raise ValueError("coupled mode needs gamma in (0, 1)")


@dataclass(frozen=True)
class Trajectory:
    """Cycle-indexed molecule counts, entry n is the count after n cycles."""

    counts: np.ndarray
    kinetics: Kinetics
    seed: int = 0
    replicate_id: int = 0

    def __post_init__(self):
        arr = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", arr)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("counts must be a nonempty 1-d sequence")
        _check_count_rows(arr)

    @property
    def n_cycles(self) -> int:
        return self.counts.size - 1


def _check_count_rows(arr: np.ndarray) -> None:
    """Every row (the last axis) is a valid cycle-indexed count sequence."""
    if (arr < 0).any():
        raise ValueError("counts must be nonnegative")
    head = arr[..., :-1]
    inc = arr[..., 1:] - head
    if (inc < 0).any():
        raise ValueError("counts must be nondecreasing")
    # increment larger than the previous count means more than doubling
    if (inc > head).any():
        raise ValueError("a cycle cannot more than double the count")


def densities(traj: Trajectory) -> np.ndarray:
    """Counts scaled by K."""
    return traj.counts / traj.kinetics.K


@dataclass(frozen=True)
class CoupledRun:
    """Reaction plus upper/lower branching references on shared uniforms.

    upper replicates with constant probability v and dominates the reaction
    pathwise; lower replicates with constant probability v*K/(K + K**gamma)
    and stays below the reaction until the reaction count first exceeds
    K**gamma (cycle index reaction_crossing, None if never).
    """

    reaction: Trajectory
    upper: Trajectory
    lower: Trajectory
    gamma: float
    reaction_crossing: int | None
    upper_crossing: int | None

    def __post_init__(self):
        bad = order_violations(self)
        if any(bad.values()):
            raise CouplingViolationError(f"pathwise order violated: {bad}")


def order_violations(run: CoupledRun) -> dict:
    """Count violations of each pathwise order relation (all must be 0)."""
    z = run.reaction.counts
    y = run.upper.counts
    w = run.lower.counts
    pre_crossing = slice(None)
    if run.reaction_crossing is not None:
        pre_crossing = slice(0, run.reaction_crossing)
    crossing_ok = run.upper_crossing is None or (
        run.reaction_crossing is None
        or run.upper_crossing <= run.reaction_crossing
    )
    # upper must cross no later than the reaction whenever the reaction crosses
    if run.reaction_crossing is not None and run.upper_crossing is None:
        crossing_ok = False
    return {
        "reaction_above_upper": int(np.sum(z > y)),
        "lower_above_upper": int(np.sum(w > y)),
        "lower_above_reaction_before_crossing": int(np.sum(w[pre_crossing] > z[pre_crossing])),
        "crossing_order": 0 if crossing_ok else 1,
    }


def _run_counting_process(z0, n_cycles, prob_of_count, gen):
    """Shared driver: one binomial increment per cycle, 64-bit safe."""
    binom = gen.binomial
    counts = [z0]
    z = z0
    for _ in range(n_cycles):
        z_next = z + int(binom(z, prob_of_count(z)))
        if z_next > INT64_MAX:
            raise SaturationError(
                f"count {z_next} exceeds the 64-bit range at scale K; "
                "reduce n_cycles or z0"
            )
        z = z_next
        counts.append(z)
    return np.array(counts, dtype=np.int64)


def simulate_reaction(cfg: SimConfig) -> Trajectory:
    """One trajectory of the saturating molecule-count process."""
    if cfg.mode == COUPLED:
        return simulate_coupled(cfg).reaction
    v, K = cfg.kinetics.v, cfg.kinetics.K
    gen = _POOL.reset(cfg.seed, streams.REACTION, cfg.replicate_id)
    counts = _run_counting_process(
        cfg.z0, cfg.n_cycles, lambda z: v * K / (K + z), gen
    )
    return Trajectory(counts, cfg.kinetics, cfg.seed, cfg.replicate_id)


def simulate_replicates(
    kinetics: Kinetics, z0: int, n_cycles: int, replicates: int, seed: int = 0
) -> np.ndarray:
    """Many trajectories of the saturating process, simulated in lockstep.

    Returns a (replicates, n_cycles + 1) int64 count matrix whose row i
    is replicate i.  Replicate i is lane i % BLOCK_SIZE of the stream
    keyed (seed, REACTION, replicate=i // BLOCK_SIZE, aux=1); a block
    advances all its lanes with one array binomial(z, v*K/(K + z)) per
    cycle.  Whole blocks are drawn and the result cut to replicates, so
    the first rows do not depend on replicates.  simulate_reaction keys
    its single trajectory with aux=0, so the two layouts never share a
    stream.  Raises SaturationError before any count would leave the
    64-bit range.
    """
    if z0 < 1:
        raise ValueError("z0 must be at least 1")
    if n_cycles < 1:
        raise ValueError("n_cycles must be positive")
    if replicates < 1:
        raise ValueError("replicates must be positive")
    v, K = kinetics.v, kinetics.K
    blocks = -(-replicates // BLOCK_SIZE)
    out = np.empty((blocks, n_cycles + 1, BLOCK_SIZE), dtype=np.int64)
    pool = streams.ReusableStream()
    for k in range(blocks):
        binom = pool.reset(seed, streams.REACTION, k, REPLICATE_BLOCK_AUX).binomial
        z = np.full(BLOCK_SIZE, z0, dtype=np.int64)
        out[k, 0] = z
        for n in range(1, n_cycles + 1):
            inc = binom(z, v * K / (K + z))
            if np.any(inc > INT64_MAX - z):
                raise SaturationError(
                    f"a count exceeds the 64-bit range at cycle {n}; "
                    "reduce n_cycles or z0"
                )
            z = z + inc
            out[k, n] = z
    counts = out.transpose(0, 2, 1).reshape(-1, n_cycles + 1)[:replicates]
    _check_count_rows(counts)
    return counts


def simulate_linear(cfg: SimConfig) -> Trajectory:
    """Constant-probability branching reference: replication probability v."""
    if cfg.mode == COUPLED:
        return simulate_coupled(cfg).upper
    v = cfg.kinetics.v
    gen = _POOL.reset(cfg.seed, streams.LINEAR, cfg.replicate_id)
    counts = _run_counting_process(cfg.z0, cfg.n_cycles, lambda z: v, gen)
    return Trajectory(counts, cfg.kinetics, cfg.seed, cfg.replicate_id)


def simulate_coupled(cfg: SimConfig) -> CoupledRun:
    """Reaction and both branching references on shared per-molecule uniforms.

    Molecule j replicates in a cycle when its uniform falls below the
    process's replication probability; since the probabilities are ordered
    wherever the counts are, the order relations hold pathwise and any
    violation raises.
    """
    if not 0.0 < cfg.gamma < 1.0:
        raise ValueError("coupled mode needs gamma in (0, 1)")
    v, K = cfg.kinetics.v, cfg.kinetics.K
    threshold = K ** cfg.gamma
    p_lower = v * K / (K + threshold)
    gen = _POOL.reset(cfg.seed, streams.COUPLED, cfg.replicate_id)

    z = y = w = cfg.z0
    zs, ys, ws = [z], [y], [w]
    z_cross = 0 if z > threshold else None
    y_cross = 0 if y > threshold else None

    for _ in range(cfg.n_cycles):
        if y > COUPLED_INDIVIDUAL_CAP:
            raise CoupledCapError(
                f"{y} molecules exceed the per-individual cap "
                f"{COUPLED_INDIVIDUAL_CAP}; use {FAST!r} mode"
            )
        u = gen.random(y)
        p_reaction = v * K / (K + z)
        y_next = y + int(np.count_nonzero(u < v))
        z_next = z + int(np.count_nonzero(u[:z] < p_reaction))
        w_next = w + int(np.count_nonzero(u[:w] < p_lower))
        if y_next > INT64_MAX:
            raise SaturationError("count exceeds the 64-bit range")
        z, y, w = z_next, y_next, w_next
        zs.append(z)
        ys.append(y)
        ws.append(w)
        n = len(zs) - 1
        if z_cross is None and z > threshold:
            z_cross = n
        if y_cross is None and y > threshold:
            y_cross = n

    kin, seed, rid = cfg.kinetics, cfg.seed, cfg.replicate_id
    return CoupledRun(
        reaction=Trajectory(np.array(zs, dtype=np.int64), kin, seed, rid),
        upper=Trajectory(np.array(ys, dtype=np.int64), kin, seed, rid),
        lower=Trajectory(np.array(ws, dtype=np.int64), kin, seed, rid),
        gamma=cfg.gamma,
        reaction_crossing=z_cross,
        upper_crossing=y_cross,
    )


def noise_sequence(traj: Trajectory) -> np.ndarray:
    """Scaled one-cycle fluctuations around the mean map.

    Entry n-1 is sqrt(K) * (X_n - mean_map(X_{n-1})) for cycle n; each has
    conditional mean zero and conditional second moment at most v.
    """
    x = densities(traj)
    return np.sqrt(traj.kinetics.K) * (x[1:] - mean_map(x[:-1], traj.kinetics))


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Trajectory as CSV: metadata comment, then cycle,count,density rows."""
    kin = traj.kinetics
    with open(path, "w", newline="") as fh:
        fh.write(
            f"# v={kin.v:.17g} K={kin.K:.17g} z0={int(traj.counts[0])} "
            f"seed={traj.seed} replicate={traj.replicate_id}\n"
        )
        writer = csv.writer(fh)
        writer.writerow(["cycle", "count", "density"])
        for n, z in enumerate(traj.counts):
            writer.writerow([n, int(z), f"{z / kin.K:.17g}"])


def read_trajectory_csv(path) -> Trajectory:
    """Inverse of write_trajectory_csv."""
    with open(path, newline="") as fh:
        header = fh.readline().strip()
        if not header.startswith("# "):
            raise ValueError("missing metadata header")
        meta = dict(item.split("=", 1) for item in header[2:].split())
        rows = list(csv.DictReader(fh))
    counts = np.array([int(r["count"]) for r in rows], dtype=np.int64)
    kin = Kinetics(v=float(meta["v"]), K=float(meta["K"]))
    return Trajectory(
        counts, kin, seed=int(meta["seed"]), replicate_id=int(meta["replicate"])
    )

"""Stochastic simulation of the molecule-count process.

The reaction starts from z0 molecules and each cycle replicates every
molecule independently with probability v*K/(K + z), z being the current
count, so a cycle's increment is one binomial variate.  The coupled
construction (simulate_coupled_replicates) draws the reaction and two
constant-probability branching references on shared per-molecule
uniforms, as counts, for pathwise comparison; its upper row is the linear
branching reference.  Randomness comes in the block layout of
qpcrkin.streams, BLOCK_SIZE lanes per stream, all blocks one cycle at a
time (_block_streams, _block_cycles); simulate_reaction is block
replicate_id drawn with one lane.
"""

from __future__ import annotations

import contextlib
import csv
import os
import secrets
from dataclasses import dataclass

import numpy as np

from qpcrkin import streams
from qpcrkin.kinetics import Kinetics, mean_map

__all__ = [
    "BLOCK_SIZE",
    "SimConfig",
    "Trajectory",
    "SaturationError",
    "simulate_reaction",
    "simulate_replicates",
    "simulate_coupled_replicates",
    "noise_sequence",
    "densities",
    "order_violations",
    "write_trajectory_csv",
    "read_trajectory_csv",
]

INT64_MAX = np.iinfo(np.int64).max

#: lanes per Philox block; the last block of a run holds the remainder
BLOCK_SIZE = 1000

# One generator rewound per trajectory instead of a fresh Philox per call.
# simulate_reaction consumes its draws fully before returning, so the
# handles never overlap within a thread; the reset rewinds the whole
# state, so no draw depends on an earlier call.
_POOL = streams.ReusableStream()


class SaturationError(OverflowError):
    """Molecule count left the 64-bit range; results would wrap silently."""


def _check_settings(z0: int, n_cycles: int, replicates: int, gamma: float = 0.75) -> None:
    if z0 < 1:
        raise ValueError("z0 must be at least 1")
    if n_cycles < 1:
        raise ValueError("n_cycles must be positive")
    if replicates < 1:
        raise ValueError("replicates must be positive")
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must be in (0, 1)")


@dataclass(frozen=True)
class SimConfig:
    """Settings for one simulated replicate."""

    kinetics: Kinetics
    z0: int
    n_cycles: int
    seed: int = 0
    replicate_id: int = 0

    def __post_init__(self):
        _check_settings(self.z0, self.n_cycles, 1)


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


def order_violations(runs: np.ndarray, threshold: float) -> dict:
    """Violations of each pathwise order relation, summed over runs (all 0).

    runs is a reaction, upper, lower count array from
    simulate_coupled_replicates with its crossing level threshold =
    K**gamma.  Counts never fall, so the reaction is before its crossing
    where it is at most the threshold.
    """
    z, y, w = runs
    return {
        "reaction_above_upper": int((z > y).sum()),
        "lower_above_upper": int((w > y).sum()),
        "lower_above_reaction_before_crossing": int(((w > z) & (z <= threshold)).sum()),
        # runs whose upper process crosses after the reaction
        "crossing_order": int(((z > threshold) & (y <= threshold)).any(axis=-1).sum()),
    }


def simulate_reaction(cfg: SimConfig) -> Trajectory:
    """One trajectory of the saturating molecule-count process, 64-bit safe.

    Block r = cfg.replicate_id of the REACTION streams drawn with one
    lane, by a scalar loop: row BLOCK_SIZE * r of simulate_replicates with
    BLOCK_SIZE * r + 1 replicates and the same seed.
    """
    v, K = cfg.kinetics.v, cfg.kinetics.K
    binom = _POOL.reset(cfg.seed, streams.REACTION, cfg.replicate_id).binomial
    counts = [cfg.z0]
    z = cfg.z0
    for _ in range(cfg.n_cycles):
        z_next = z + int(binom(z, v * K / (K + z)))
        if z_next > INT64_MAX:
            raise SaturationError(
                f"count {z_next} exceeds the 64-bit range at scale K; "
                "reduce n_cycles or z0"
            )
        z = z_next
        counts.append(z)
    return Trajectory(np.array(counts, dtype=np.int64), cfg.kinetics, cfg.seed,
                      cfg.replicate_id)


def simulate_replicates(
    kinetics: Kinetics, z0: int, n_cycles: int, replicates: int, seed: int = 0
) -> np.ndarray:
    """Many trajectories of the saturating process, simulated in lockstep.

    Returns a (replicates, n_cycles + 1) int64 count matrix whose row i
    is replicate i, lane i of the block layout (qpcrkin.streams) on the
    REACTION purpose: each cycle draws one array binomial(z, v*K/(K + z))
    per block from the block's own stream.  The last block draws only the
    remainder of replicates, so only whole blocks are prefix-stable: the
    rows of block k do not depend on replicates as long as replicates
    fills block k.  Raises SaturationError before any count would leave
    the 64-bit range.
    """
    return _count_rows(list(_reaction_cycles(kinetics, z0, n_cycles, replicates, seed)))


def _reaction_cycles(kinetics: Kinetics, z0: int, n_cycles: int, replicates: int,
                     seed: int):
    """simulate_replicates one cycle at a time.

    Returns a generator of the counts of replicates 0..replicates-1 after
    cycles 0, 1, ..., n_cycles; a consumer may stop early, and the cycles
    it has read are those of the full run.
    """
    _check_settings(z0, n_cycles, replicates)
    v, K = kinetics.v, kinetics.K
    gens = _block_streams(streams.REACTION, seed, replicates)

    def step(z, draw, n):
        inc = draw("binomial", z, v * K / (K + z))
        _check_range(inc, z, n)
        return z + inc

    return _block_cycles(gens, np.full(replicates, z0, dtype=np.int64), n_cycles, step)


def _count_rows(cycles: list) -> np.ndarray:
    """The per-cycle counts as rows of a count matrix, every row checked."""
    counts = np.stack(cycles, axis=-1)
    _check_count_rows(counts)
    return counts


def _check_range(inc: np.ndarray, count: np.ndarray, n: int) -> None:
    if (inc > INT64_MAX - count).any():
        raise SaturationError(
            f"a count exceeds the 64-bit range at cycle {n}; reduce n_cycles or z0"
        )


def _block_streams(purpose: int, seed: int, replicates: int) -> list:
    """One generator per BLOCK_SIZE lanes: block k on (seed, purpose, k)."""
    return [streams.stream(seed, purpose, k) for k in range(-(-replicates // BLOCK_SIZE))]


def _block_cycles(gens: list, start: np.ndarray, n_cycles: int, step):
    """Cycle-major lockstep of the lanes of start, BLOCK_SIZE per block.

    A generator of the state of every lane after cycles 0..n_cycles; row
    i of start is lane i at cycle 0, and gens holds one generator per
    block, the last block holding the remaining rows.  step(state, draw,
    n) returns the state after cycle n, in place if the consumer reads
    only the last, and does its arithmetic on all lanes at once.  Its random numbers come
    from draw(method, *args), which calls method on each block's generator
    with that block's rows of args and joins the results in lane order,
    so every block's stream makes the draws it would make alone, in the
    same order.
    """
    cuts = range(0, start.shape[0], BLOCK_SIZE)

    def draw(method, *args):
        parts = [getattr(gen, method)(*(a[lo:lo + BLOCK_SIZE] for a in args))
                 for gen, lo in zip(gens, cuts)]
        # one block, as in most runs, needs no joining copy
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    state = start
    yield state
    for n in range(1, n_cycles + 1):
        state = step(state, draw, n)
        yield state


# entry [s, c, k] is 1 when a uniform of segment s in interval c (numbered
# as in _coupled_lanes) replicates its molecule in process k = Z, Y, W
_CELLS = np.zeros((4, 5, 3), dtype=np.int64)
_CELLS[:, :4, 1] = 1  # Y: j < y and u < v
_CELLS[:2, :2, 0] = 1  # Z: j < z and u < p_reaction
_CELLS[1:3, 1:3, 2] = 1  # W: j < w and u < p_lower
_CELLS = _CELLS.reshape(20, 3)


def _coupled_lanes(gens: list, lanes: int, kinetics: Kinetics, gamma: float,
                   z0: int, n_cycles: int) -> np.ndarray:
    """Coupled runs in lockstep: a (3, lanes, n_cycles + 1) count array.

    Rows are Z, Y and W of the shared-uniform construction (README, notes
    on numerics).  Each cycle draws how many uniforms of each index
    segment, 0: w <= j < z, 1: j < min(z, w), 2: z <= j < w,
    3: max(z, w) <= j < y, fall in each interval, 0: [p_lower, p_reaction),
    1: [0, min), 2: [p_reaction, p_lower), 3: [max, v), 4: [v, 1), as one
    multinomial per segment: the exact joint law of the per-molecule form.
    The lanes of block k draw from gens[k] (_block_cycles).
    """
    v, K = kinetics.v, kinetics.K
    # capped at v, so that rounding cannot make an interval negative
    p_lower = min(v * K / (K + K ** gamma), v)
    size = np.empty((lanes, 4), dtype=np.int64)
    p = np.empty((lanes, 5))
    p[:, 4] = 1.0 - v

    def step(prev, draw, n):
        z, y, w = prev.T
        both = np.minimum(z, w, out=size[:, 1])
        np.subtract(z, both, out=size[:, 0])
        np.subtract(w, both, out=size[:, 2])
        np.subtract(y - z, size[:, 2], out=size[:, 3])
        p_reaction = np.minimum(v * K / (K + z), v)
        low = np.minimum(p_reaction, p_lower, out=p[:, 1])
        np.subtract(p_reaction, low, out=p[:, 0])
        np.subtract(p_lower, low, out=p[:, 2])
        np.subtract(v - p_reaction, p[:, 2], out=p[:, 3])
        inc = draw("multinomial", size, p[:, None]).reshape(lanes, 20) @ _CELLS
        _check_range(inc[:, 1], y, n)
        return prev + inc

    start = np.full((lanes, 3), z0, dtype=np.int64)
    states = list(_block_cycles(gens, start, n_cycles, step))
    return np.stack(states, axis=-1).transpose(1, 0, 2)


def simulate_coupled_replicates(
    kinetics: Kinetics, z0: int, n_cycles: int, replicates: int,
    gamma: float = 0.75, seed: int = 0,
) -> np.ndarray:
    """Coupled runs in the block layout of simulate_replicates, on COUPLED streams.

    Returns the (3, replicates, n_cycles + 1) reaction, upper, lower
    counts.  upper is the linear branching reference, replicating with
    constant probability v, and dominates the reaction pathwise; lower
    replicates with constant probability v*K/(K + K**gamma) and stays
    below the reaction until the reaction count first exceeds K**gamma
    (order_violations).  The blocks advance together, one multinomial
    draw per block each cycle, and the last block draws only the
    remainder, as in simulate_replicates.
    """
    _check_settings(z0, n_cycles, replicates, gamma)
    gens = _block_streams(streams.COUPLED, seed, replicates)
    counts = _coupled_lanes(gens, replicates, kinetics, gamma, z0, n_cycles)
    _check_count_rows(counts)
    return counts


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
    with _replacing(path) as fh:
        fh.write(
            f"# v={kin.v:.17g} K={kin.K:.17g} z0={int(traj.counts[0])} "
            f"seed={traj.seed} replicate={traj.replicate_id}\n"
        )
        writer = csv.writer(fh)
        writer.writerow(["cycle", "count", "density"])
        for n, z in enumerate(traj.counts):
            writer.writerow([n, int(z), f"{z / kin.K:.17g}"])


@contextlib.contextmanager
def _replacing(path):
    """Write path whole or not at all; the one place a file is opened for writing.

    Yields a handle (newline="", so the bytes written are the bytes on
    disk) on a new file beside path, which replaces path when the block
    ends; if the block or the replacement raises, the new file is removed.
    """
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path) or ".",
                       f".{os.path.basename(path)}.{secrets.token_hex(4)}.tmp")
    fh = open(tmp, "x", newline="")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


@contextlib.contextmanager
def _reading(path):
    """Read path; the one place a file is opened for reading.

    Yields a handle opened with newline="", as _replacing writes, and
    re-raises a TypeError, ValueError or OverflowError of the block, a
    refusal of the file's contents, as a ValueError led by path.
    """
    with open(path, newline="") as fh:
        try:
            yield fh
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{path}: {exc}") from None


def _read_metadata(fh, types) -> dict:
    """The `# key=value ...` first line of a CSV file, each key of types parsed.

    Any other key keeps its value as a string.  Raises ValueError without
    that line, at an item without `=`, naming the keys it lacks, or naming
    a value its type does not parse.
    """
    header = fh.readline().strip()
    if not header.startswith("# "):
        raise ValueError("missing metadata header")
    items = header[2:].split()
    bad = [item for item in items if "=" not in item]
    if bad:
        raise ValueError(f"metadata item {bad[0]!r} is not key=value")
    meta = dict(item.split("=", 1) for item in items)
    missing = [key for key in types if key not in meta]
    if missing:
        raise ValueError(f"metadata header misses keys {missing}")
    return {**meta, **{key: _parse_metadata(key, meta[key], kind) for key, kind in types.items()}}


def _parse_metadata(key: str, value: str, kind):
    """value parsed by kind, or a ValueError naming the key and the value."""
    try:
        return kind(value)
    except ValueError:
        raise ValueError(f"metadata {key}={value!r} does not parse as "
                         f"{kind.__name__}") from None


def read_trajectory_csv(path) -> Trajectory:
    """Inverse of write_trajectory_csv.

    Every refusal is a ValueError naming the path: a metadata value that
    does not parse or that Kinetics refuses, a column header without
    `count`, a data row whose count is missing or not an integer (naming
    the line too), or counts that Trajectory refuses.  Past those, the
    file must agree with itself: a header `z0`, when present, must equal
    the first count, and a `density` column, when present, must lie
    within a relative 1e-9 of count/K on every row (naming the line);
    the writer's 17 digits read back exactly.
    """
    counts, lines, densities = [], [], []
    with _reading(path) as fh:
        meta = _read_metadata(fh, {"v": float, "K": float, "seed": int,
                                   "replicate": int})
        reader = csv.DictReader(fh)
        if "count" not in (reader.fieldnames or ()):
            raise ValueError("trajectory header misses the column 'count'")
        for row in reader:
            # the metadata line precedes the reader's first line
            lines.append(reader.line_num + 1)
            densities.append(row.get("density"))
            try:
                counts.append(int(row["count"]))
            except (TypeError, ValueError):
                raise ValueError(f"line {lines[-1]}: count "
                                 f"{row['count']!r} is not an integer") from None
        kin = Kinetics(v=meta["v"], K=meta["K"])
        traj = Trajectory(counts, kin, seed=meta["seed"], replicate_id=meta["replicate"])
        if "z0" in meta and _parse_metadata("z0", meta["z0"], int) != counts[0]:
            raise ValueError(f"metadata z0={meta['z0']} differs from the first count {counts[0]}")
        if "density" in reader.fieldnames:
            for line, count, text in zip(lines, counts, densities):
                want = count / kin.K
                try:
                    ok = abs(float(text) - want) <= 1e-9 * want
                except (TypeError, ValueError):
                    ok = False
                if not ok:
                    raise ValueError(f"line {line}: density {text!r} is not count/K = {want:.17g}")
        return traj

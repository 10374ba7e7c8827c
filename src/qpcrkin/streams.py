"""Counter-based RNG streams for reproducible, parallel-safe replicates.

Every stream is a Philox generator whose 128-bit key packs (seed,
purpose, replicate).  Streams with distinct keys are statistically
independent, so the units they feed can run in any order or in parallel
without draw-order coupling, and a unit's draws depend only on its key.

Streams come in one layout, blocks of simulate.BLOCK_SIZE lanes: lane i
is lane i % BLOCK_SIZE of the stream with replicate = i // BLOCK_SIZE.
The experiment runners draw their replicates so on REACTION or COUPLED
(simulate.simulate_replicates, simulate.simulate_coupled_replicates),
limit_law.sample_limit its samples on GROWTH_LIMIT, a purpose no
trajectory uses, and simulate.simulate_reaction one trajectory as block
replicate_id with one lane.  The blocks advance together, cycle by cycle,
each cycle one array draw per block from its own stream, so a block's
draws do not depend on the other blocks and a lane is reproducible
together with its block.  The last block draws only the remainder of the
lane count, so only whole blocks are prefix-stable: the lanes of block k
are the same for every lane count that fills block k.  A consumer may
stop after any cycle; the cycles it has drawn are those of the full run
(the estimation runner stops once every replicate's observed window is
drawn).

A key's parts must be integers (numpy ones included, bools not): a float
seed would be truncated into the key without a word, so _packed_key
refuses it, and every count and seed of the package is checked by the
same _check_ints, with one message.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream", "ReusableStream"]

# purpose tags keep the different consumers of randomness on disjoint keys
REACTION = 1  # saturating molecule-count process
COUPLED = 3  # coupled reaction and branching references, drawn as counts
GROWTH_LIMIT = 4  # scaled-growth limit ensembles
# tags 2 and 6 stay unused: earlier versions drew single runs of the
# linear branching reference with 2 and the experiment runners' reference
# samples with 6

_MAX_SEED = 2 ** 64
_MAX_REPLICATE = 2 ** 32
_MAX_PURPOSE = 2 ** 8
# bit 32 of the key stays set: it told the blocks from the single streams
# of earlier versions, and keeping it keeps every block's draws
_TAG = 1 << 32


def _is_int(x) -> bool:
    """x is an integer, a numpy one included, and not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _check_ints(least: int | None = None, **settings) -> dict:
    """settings with each value a Python int, or ValueError naming the first that is not.

    Each value must be an integer (_is_int), and at least least when it
    is given.  A frozen dataclass stores the returned ints by
    self.__dict__.update, so a numpy integer it was given is kept as an
    int.
    """
    for name, value in settings.items():
        if not _is_int(value) or (least is not None and value < least):
            floor = "" if least is None else f" of at least {least}"
            raise ValueError(f"{name} must be an integer{floor}, got {value!r}")
    return {name: int(value) for name, value in settings.items()}


def _packed_key(seed: int, purpose: int, replicate: int) -> tuple:
    _check_ints(seed=seed, purpose=purpose, replicate=replicate)
    if not 0 <= seed < _MAX_SEED:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    if not 0 <= purpose < _MAX_PURPOSE:
        raise ValueError(f"purpose must be in [0, 256), got {purpose}")
    if not 0 <= replicate < _MAX_REPLICATE:
        raise ValueError(f"replicate must be in [0, 2**32), got {replicate}")
    return seed, (purpose << 56) | _TAG | replicate


def stream(seed: int, purpose: int, replicate: int) -> np.random.Generator:
    """Independent generator for one replicate of one purpose.

    seed < 2**64, purpose < 256, replicate < 2**32; all nonnegative.
    Identical arguments give bit-identical draw sequences.
    """
    k0, k1 = _packed_key(seed, purpose, replicate)
    key = np.empty(2, dtype=np.uint64)
    key[0] = k0
    key[1] = k1
    return np.random.Generator(np.random.Philox(key=key))


class ReusableStream:
    """One generator recycled across the streams of a loop.

    Constructing a fresh Philox per key costs several microseconds;
    rewinding the state of a single one costs a fraction of that.  reset()
    rewinds to the stream identified by the key and returns the shared
    generator, whose draws then match stream() with the same key exactly.
    Any handle returned by an earlier reset() is invalidated, so consume
    one key's draws fully before resetting.
    """

    def __init__(self):
        self._bitgen = np.random.Philox(key=0)
        self._gen = np.random.Generator(self._bitgen)
        self._state = self._bitgen.state

    def reset(self, seed: int, purpose: int, replicate: int):
        k0, k1 = _packed_key(seed, purpose, replicate)
        st = self._state
        inner = st["state"]
        inner["key"][0] = k0
        inner["key"][1] = k1
        inner["counter"][:] = 0
        st["buffer_pos"] = 4
        st["has_uint32"] = 0
        st["uinteger"] = 0
        self._bitgen.state = st
        return self._gen

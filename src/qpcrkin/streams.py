"""Counter-based RNG streams for reproducible, parallel-safe replicates.

Every stream is a Philox generator whose 128-bit key packs (seed,
purpose, aux, replicate).  Streams with distinct keys are statistically
independent, so the units they feed can run in any order or in parallel
without draw-order coupling, and a unit's draws depend only on its key.

What one replicate index names depends on the consumer:

- The single-trajectory simulators (simulate_reaction, simulate_linear,
  simulate_coupled) give each trajectory its own stream, replicate = the
  trajectory's replicate_id and aux = 0.
- The experiment runners simulate their replicates in lockstep blocks
  (simulate.simulate_replicates, simulate.simulate_coupled_replicates):
  replicate i is lane i % BLOCK_SIZE of the REACTION or COUPLED stream
  with replicate = i // BLOCK_SIZE and aux = 1, so runner blocks and
  single trajectories never share a key.  A block advances its lanes
  with one array draw per cycle, and the first n replicates are the same
  for every replicate count >= n.
- Growth-limit ensembles (limit_law.sample_limit) draw in blocks of
  limit_law.BLOCK_SIZE samples: sample i is lane i % BLOCK_SIZE of the
  GROWTH_LIMIT stream with replicate = i // BLOCK_SIZE and aux = 0.  That
  purpose is fixed and no trajectory uses it, so ensembles stay off the
  trajectories' keys.  A block's lanes share its stream in lockstep, one
  array binomial per generation, so a single sample is reproducible only
  together with its block, and the first n samples of an ensemble are
  the same for every count >= n.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream", "ReusableStream"]

# purpose tags keep the different consumers of randomness on disjoint keys
REACTION = 1  # saturating molecule-count process
LINEAR = 2  # constant-probability branching reference
COUPLED = 3  # coupled reaction and branching references, drawn as counts
GROWTH_LIMIT = 4  # scaled-growth limit ensembles
# tag 6 stays unused: earlier versions drew the experiment runners'
# reference samples with it

_MAX_SEED = 2 ** 64
_MAX_REPLICATE = 2 ** 32
_MAX_AUX = 2 ** 24
_MAX_PURPOSE = 2 ** 8


def _packed_key(seed: int, purpose: int, replicate: int, aux: int) -> tuple:
    if not 0 <= seed < _MAX_SEED:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    if not 0 <= purpose < _MAX_PURPOSE:
        raise ValueError(f"purpose must be in [0, 256), got {purpose}")
    if not 0 <= replicate < _MAX_REPLICATE:
        raise ValueError(f"replicate must be in [0, 2**32), got {replicate}")
    if not 0 <= aux < _MAX_AUX:
        raise ValueError(f"aux must be in [0, 2**24), got {aux}")
    return seed, (purpose << 56) | (aux << 32) | replicate


def stream(seed: int, purpose: int, replicate: int, aux: int = 0) -> np.random.Generator:
    """Independent generator for one replicate of one purpose.

    seed < 2**64, purpose < 256, aux < 2**24, replicate < 2**32; all
    nonnegative.  Identical arguments give bit-identical draw sequences.
    """
    k0, k1 = _packed_key(seed, purpose, replicate, aux)
    key = np.empty(2, dtype=np.uint64)
    key[0] = k0
    key[1] = k1
    return np.random.Generator(np.random.Philox(key=key))


class ReusableStream:
    """One generator recycled across the replicates or blocks of a loop.

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

    def reset(self, seed: int, purpose: int, replicate: int, aux: int = 0):
        k0, k1 = _packed_key(seed, purpose, replicate, aux)
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

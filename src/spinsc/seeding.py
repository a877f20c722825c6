"""Deterministic per-instance random streams.

Every stochastic component owns a numpy Generator derived from the master
seed plus a (domain, index) key, so simulations are reproducible bit for bit
and independent instances never share a stream.

Every stream comes from stream_words, which gives the PCG64 seed words of
many indices in [0, 2**32) of one (seed, domain) at once: it runs numpy's
SeedSequence hash (NEP 19) as uint32 array arithmetic over all indices.
generators turns such words into Generators, each equal to numpy's
default_rng(SeedSequence(seed, spawn_key=(domain, index))).
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cache

import numpy as np

# Domain tags keep streams for different subsystems disjoint even when the
# integer indices collide; each SCC protocol numbers its units from 0 in its own.
DOMAIN_DEVICE = 1
DOMAIN_PROCESS_VARIATION = 2
DOMAIN_READINGS = 3
DOMAIN_SELF_SCC = 4
DOMAIN_CROSS_SCC = 5

# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_MASK = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4


def _words(value: int) -> int:
    """Number of uint32 words SeedSequence makes of a non-negative int."""
    return max(1, (value.bit_length() + 31) // 32)


@cache
def _hash_consts(init: int, mult: int, first: int, count: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k = first .. first + count, as uint32;
    read-only, since every call with these arguments returns this array."""
    consts = np.array([init * pow(mult, k, 1 << 32) & _MASK
                       for k in range(first, first + count + 1)], dtype=np.uint32)
    consts.flags.writeable = False
    return consts


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of each value column, the k-th column with
    hash constants consts[k] (xor) and consts[k + 1] (multiply)."""
    value = value ^ consts[:-1]
    value *= consts[1:]
    value ^= value >> np.uint32(16)
    return value


def stream_words(master_seed: int, domain: int, indices: Sequence[int]) -> np.ndarray:
    """The (indices, 4) uint64 words SeedSequence(master_seed, (domain, index))
    hands PCG64, for each index.  An index outside [0, 2**32), which
    SeedSequence would spread over several words, raises ValueError.

    The entropy of (domain, index) is that of (domain,) followed by one
    index word, so the pool of SeedSequence(master_seed, (domain,)) is the mix
    up to that word.  Mixing a word after the pool has taken its first four runs four
    hashmix steps, and the pool's mix ran 16 + 4 * (entropy words - 4) of
    them: 4 + 12 for the first four words, which are the seed padded to 4,
    and 4 for each word after them.
    """
    indices = [int(index) for index in indices]
    if bad := [index for index in indices if not 0 <= index <= _MASK]:
        raise ValueError(f"stream index {bad[0]} lies outside [0, 2**32)")
    master_seed, domain = int(master_seed), int(domain)
    pool = np.random.SeedSequence(entropy=master_seed, spawn_key=(domain,)).pool
    steps = 16 + 4 * (max(_POOL_SIZE, _words(master_seed)) + _words(domain) - _POOL_SIZE)
    word = _hashmix(np.array(indices, dtype=np.uint32)[:, None],
                    _hash_consts(_INIT_A, _MULT_A, steps, _POOL_SIZE))
    mixer = pool * np.uint32(_MIX_MULT_L) - word * np.uint32(_MIX_MULT_R)
    mixer ^= mixer >> np.uint32(16)
    # generate_state(4, uint64): eight uint32 words, cycling over the pool.
    state = _hashmix(np.tile(mixer, 2), _hash_consts(_INIT_B, _MULT_B, 0, 2 * _POOL_SIZE))
    return state.astype("<u4").view("<u8").astype(np.uint64)


@cache
def _seeded_type() -> type:
    """An ISeedSequence holding a state computed ahead; PCG64 seeds itself
    from the four words its generate_state returns.  Made on first use, so
    importing spinsc does not load numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class Seeded(ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return Seeded


def generators(words: np.ndarray) -> list[np.random.Generator]:
    """A fresh PCG64 Generator for each row of stream_words' words."""
    from numpy.random import PCG64, Generator

    seeded = _seeded_type()
    return [Generator(PCG64(seeded(w))) for w in words]

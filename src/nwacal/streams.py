"""Random streams: ``np.random.default_rng(seed)`` for whole arrays of seeds.

``default_rng(seed)`` hashes the seed with NumPy's ``SeedSequence`` (NEP 19)
into a 128-bit state and increment and seeds a PCG64 generator with them
(O'Neill 2014). Both steps are fixed algorithms, so ``streams`` runs them
for a block of seeds at once, in uint32 array arithmetic, and loads each
result into one reused Generator: every stream is the ``default_rng(seed)``
stream bit for bit, without building a generator per seed.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

_MASK128 = (1 << 128) - 1
_SEED_LIMIT = 1 << 64

# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(init: int, mult: int, count: int) -> list[tuple[int, int]]:
    """The (xor, multiplier) pairs of ``count`` successive hashmix calls:
    each call XORs in the running constant, then advances it and multiplies
    by the new value. The sequence does not depend on the seed."""
    out, h = [], init
    for _ in range(count):
        nxt = (h * mult) & 0xFFFFFFFF
        out.append((h, nxt))
        h = nxt
    return out


def _columns(pairs: list[tuple[int, int]]) -> np.ndarray:
    """Hash constants as a (2, len(pairs), 1) uint32 array: the xor and
    multiplier for each row of a (rows, seeds) array."""
    return np.array(pairs, dtype=np.uint32).T[:, :, None]


def _mix_constants() -> tuple[np.ndarray, list[np.ndarray]]:
    """The constants of mix_entropy. It hashes the four pool words, then for
    each source word s in turn hashes s once per other word d and mixes that
    into d: 4 + 4 * 3 hashmix calls, in that order. Returns the fill's
    constants and, per source word, the cross-mix's, with a placeholder in
    the source's own row (whose result is discarded)."""
    consts = iter(_hash_constants(_INIT_A, _MULT_A, _POOL + _POOL * (_POOL - 1)))
    fill = _columns([next(consts) for _ in range(_POOL)])
    cross = [_columns([(0, 1) if d == s else next(consts) for d in range(_POOL)]) for s in range(_POOL)]
    return fill, cross


_FILL, _CROSS = _mix_constants()
# generate_state(4, uint64) hashes the pool words 0, 1, 2, 3, 0, 1, 2, 3
# with its own constants, one call per uint32 word of the output.
_GENERATE = _columns(_hash_constants(_INIT_B, _MULT_B, 2 * _POOL))
_MIX_L, _MIX_R, _SHIFT = np.uint32(_MIX_MULT_L), np.uint32(_MIX_MULT_R), np.uint32(16)


def _hashmix(value: np.ndarray, const: np.ndarray) -> np.ndarray:
    value = (value ^ const[0]) * const[1]
    return value ^ (value >> _SHIFT)


def seed_state(seeds) -> list[tuple[int, int]]:
    """The PCG64 (state, inc) of ``default_rng(seed)`` for each seed in
    [0, 2**64).

    Such a seed is at most two uint32 words of entropy, and the pool pads it
    with zero words, so the pool starts from (low word, high word, 0, 0)
    for every seed. Rows of the (4, seeds) array are the pool words.
    """
    seeds = np.asarray(seeds, dtype=np.uint64).ravel()
    pool = np.zeros((_POOL, seeds.size), dtype=np.uint32)
    pool[:2] = seeds.astype("<u8").view("<u4").reshape(-1, 2).T
    pool = _hashmix(pool, _FILL)
    for src in range(_POOL):
        keep = pool[src].copy()
        pool = _MIX_L * pool - _MIX_R * _hashmix(pool[src], _CROSS[src])
        pool ^= pool >> _SHIFT
        pool[src] = keep
    words = _hashmix(np.concatenate([pool, pool]), _GENERATE)
    # Little-endian pairs of words are the four uint64 of generate_state;
    # PCG64 seeds with (v0:v1) as the initial state and (v2:v3) as the
    # sequence, through pcg_setseq_128_srandom_r.
    out = []
    for v0, v1, v2, v3 in words.T.astype("<u4", order="C").view("<u8").tolist():
        inc = ((((v2 << 64) | v3) << 1) | 1) & _MASK128
        out.append((((((v0 << 64) | v1) + inc) * _PCG_MULT + inc) & _MASK128, inc))
    return out


def checked_seed(seed) -> int:
    """``seed`` as an int, which streams accepts when it lies in [0, 2**64)."""
    seed = int(seed)
    if not 0 <= seed < _SEED_LIMIT:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return seed


def streams(seeds) -> Iterator[np.random.Generator]:
    """For each seed, a Generator in the state of ``default_rng(seed)``.

    Every item is the same Generator, reloaded, so draw from each one
    before taking the next.
    """
    gen = np.random.Generator(np.random.PCG64(0))
    bit_generator = gen.bit_generator
    for state, inc in seed_state(seeds):
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield gen

"""Deterministic, splittable random streams.

Every randomized routine in this package derives one independent stream per
trial by mixing ``(seed, *indices)`` through a 64-bit finalizer.

``stream(seed, *indices)`` is the definition: numpy's ``default_rng`` seeded
with ``mix64(seed, *indices)``, a new generator per call, so trials on
``stream`` generators can run in any order (or in parallel) and still
produce bit-identical results.  ``streams(seed, *shape)``, which every
driver uses, yields the same states for a whole grid of indices from one
batched port of numpy's seeding, resetting one Generator to each state in
turn: its trials run one at a time.  The port follows numpy's
``SeedSequence`` step for step, one numpy row per pool word, and numpy is
imported by the functions that use it, so ``import scenlab.rng`` loads no
numpy.
"""

from __future__ import annotations

import itertools
import operator
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(*parts: int) -> int:
    """Mix integer parts into a single 64-bit value (splitmix64 finalizer).

    A bool, or a part that ``operator.index`` refuses, raises ``TypeError``;
    one outside [0, 2**64) raises ``ValueError``, as ``default_rng`` does for
    a negative seed.  So no seed truncates or aliases into another's."""
    acc = _GOLDEN
    for p in parts:
        if isinstance(p, bool):
            raise TypeError(f"stream coordinate {p} is not an integer")
        p = operator.index(p)
        if not 0 <= p <= _MASK:
            raise ValueError(f"stream coordinate {p} outside [0, 2**64)")
        acc = ((acc ^ p) * 0xBF58476D1CE4E5B9) & _MASK
        acc ^= acc >> 27
    z = (acc + _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def stream(seed: int, *indices: int) -> np.random.Generator:
    """Independent generator for the given (seed, index...) coordinates."""
    import numpy as np

    return np.random.default_rng(mix64(seed, *indices))


# numpy's SeedSequence (pool of 4 uint32 words) and PCG64 seeding constants.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # entropy mixing hash
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # state generation hash
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# Streams seeded per kernel pass: one pass covers a curve, and bounds the
# memory of a long one.
_CHUNK = 4096


def _pcg64_seeds(entropies: list[int]) -> Iterator[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of ``default_rng(e)`` for each entropy ``e``.

    numpy's ``SeedSequence(e).generate_state(4, uint64)`` as
    ``numpy/random/bit_generator.pyx`` writes it, each step on one uint32
    row holding a pool word of every entropy, so the rows wrap like numpy's
    C code (every constant is a Python int below 2**32); then PCG64's
    ``srandom`` in Python 128-bit ints."""
    import numpy as np

    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ value >> 16

    e = np.array(entropies, dtype=np.uint64)
    # Each 64-bit entropy fills pool words 0 and 1; numpy takes a value
    # below 2**32 as one word, but it hashes 0 for the pool words that
    # entropy leaves empty either way.
    low, high = e.astype(np.uint32), (e >> np.uint64(32)).astype(np.uint32)
    empty = np.zeros(len(e), dtype=np.uint32)
    pool = [hashmix(word) for word in (low, high, empty, empty)]
    for src in range(4):
        for dst in range(4):
            if dst != src:
                mixed = pool[dst] * _MIX_L - hashmix(pool[src]) * _MIX_R
                pool[dst] = mixed ^ mixed >> 16
    # generate_state(4, uint64): eight words hashed from the pool cycled
    # twice, each pair little-endian.
    hash_const, words = _INIT_B, []
    for word in pool * 2:
        word = word ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        word = word * hash_const
        words.append((word ^ word >> 16).astype(np.uint64))
    state_hi, state_lo, inc_hi, inc_lo = (
        (words[i] | words[i + 1] << np.uint64(32)).tolist()
        for i in range(0, 8, 2))
    for sh, sl, ih, il in zip(state_hi, state_lo, inc_hi, inc_lo):
        inc = (ih << 65 | il << 1 | 1) & _MASK128
        yield ((inc + (sh << 64 | sl)) * _PCG64_MULT + inc) & _MASK128, inc


def streams(seed: int, *shape: int) -> Iterator[np.random.Generator]:
    """For every index of ``shape`` in row-major order, a generator whose
    state equals that of ``stream(seed, *index)``.

    One Generator is reset for each index, so a yielded generator is valid
    only until the next one is drawn.  Its PCG64 state is set as
    ``default_rng`` sets it, buffered 32-bit half included."""
    import numpy as np

    indices = itertools.product(*map(range, shape))
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    while chunk := [mix64(seed, *index)
                    for index in itertools.islice(indices, _CHUNK)]:
        for state, inc in _pcg64_seeds(chunk):
            bitgen.state = {"bit_generator": "PCG64",
                            "state": {"state": state, "inc": inc},
                            "has_uint32": 0, "uinteger": 0}
            yield gen

"""Deterministic random number generation.

Document regeneration has to be byte-stable across runs and independent of any
library's private RNG internals, so the generator is pinned here explicitly:

* uniform 64-bit stream: splitmix64 (Steele, Lea, Vigna; public domain,
  https://prng.di.unimi.it/splitmix64.c). It is counter-based: the k-th output
  is ``mix64(seed + (k+1)*GAMMA) mod 2^64``, which lets bulk draws be computed
  as a vectorized pure function of the draw index.
* normal deviates: Box-Muller on consecutive uint64 pairs. For the pair
  ``(x1, x2)``:

      u1 = ((x1 >> 11) + 1) * 2^-53        in (0, 1], so log(u1) is finite
      u2 = (x2 >> 11) * 2^-53              in [0, 1)
      z0 = sqrt(-2 ln u1) * cos(2 pi u2)   returned first
      z1 = sqrt(-2 ln u1) * sin(2 pi u2)   returned second

Normals come in fixed blocks of 128 pairs (256 draws). A request evaluates
every block it needs in passes of whole blocks, up to ``_SLAB_CHUNK`` draws a
pass, and keeps the unused end of its last block for the next request. 128
is a multiple of every SIMD width numpy's vector kernels use, so in any pass
each pair sits in the same vector lane as when its block is evaluated alone,
and no block ends inside a partial vector. The value of draw ``i`` therefore
depends only on ``(seed, i)``, never on call granularity or pass length. The
stream is a single sequence: consumers that retry (resampling loops) keep
drawing from where they left off.

Where the process may run on more than one CPU, a pass of at least
``_SPLIT_MIN_BLOCKS`` blocks is evaluated as two halves of whole blocks, one
on a helper thread; numpy's ufuncs release the GIL, so the halves overlap.
By the rule above, each half gives the bits the whole pass gives there.
This split is the only place the package starts a thread of its own.
"""

from __future__ import annotations

import functools
import math
import os

import numpy as np

from .errors import ContractViolation
from .linalg import _SLAB_CHUNK

__all__ = ["RNG_ID", "SplitMix64", "NormalStream"]

RNG_ID = "splitmix64-boxmuller-v1"

_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = 0xFFFFFFFFFFFFFFFF

# normals per evaluation block; must stay fixed or streams change
_BLOCK_PAIRS = 128
_BLOCK_DRAWS = 2 * _BLOCK_PAIRS

# a pass of at least this many blocks (more than 24,320 draws left to take)
# runs in two halves on two threads. Measured on 2 CPUs, the median of 41
# passes: a split pass of 16-48 blocks took 1.3-3x as long as one thread,
# since starting the helper costs about 0.2-0.4 ms; 64-80 blocks read from 3%
# slower to 21% faster; from 96 blocks the split won in every run, by 6-24%
# at 96 and 7-41% at 143-256
_SPLIT_MIN_BLOCKS = 96


def _cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _on_threads(jobs: list) -> list:
    """[job() for job in jobs]: the first on this thread, each other on a helper thread.

    numpy's ufuncs release the GIL, so the jobs run at once. Every helper has
    finished when this returns or raises; a helper's exception is raised here.
    """
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(len(jobs) - 1) as pool:
        helpers = [pool.submit(job) for job in jobs[1:]]
        return [jobs[0](), *(helper.result() for helper in helpers)]


def _check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ContractViolation(f"seed must be an integer, got {type(seed).__name__}")
    seed = int(seed)
    if not 0 <= seed <= _MASK64:
        raise ContractViolation(f"seed must fit in uint64, got {seed}")
    return seed


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on a uint64 array (wrapping arithmetic)."""
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def _splitmix(seed: int, first: int, count: int) -> np.ndarray:
    """Draws first .. first+count-1 (zero-based) of the stream seeded with seed."""
    idx = np.arange(first + 1, first + count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        state = np.uint64(seed) + idx * np.uint64(_GAMMA)
    return _mix64_array(state)


class SplitMix64:
    """Raw uint64 stream. Draw k is a pure function of (seed, k)."""

    def __init__(self, seed: int):
        self._seed = _check_seed(seed)
        self._count = 0

    def next_uint64(self) -> int:
        z = (self._seed + (self._count + 1) * _GAMMA) & _MASK64
        self._count += 1
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uint64s(self, count: int) -> np.ndarray:
        """Vectorized draw of `count` values; bit-identical to the scalar path."""
        if count < 0:
            raise ContractViolation("count must be nonnegative")
        first, self._count = self._count, self._count + count
        return _splitmix(self._seed, first, count)

    def integers(self, count: int, bound: int) -> np.ndarray:
        """`count` integers uniform in [0, bound) via modulo reduction.

        Modulo bias is at most bound/2^64, far below any sampling-diagnostic
        concern for the index ranges used here.
        """
        if bound <= 0:
            raise ContractViolation("bound must be positive")
        return (self.uint64s(count) % np.uint64(bound)).astype(np.int64)


class NormalStream:
    """Standard-normal stream with a deterministic, call-pattern-free order."""

    def __init__(self, seed: int):
        self._seed = _check_seed(seed)
        self._next_block = 0
        self._buffer = np.empty(0)

    def _compute_block(self, first: int, count: int) -> np.ndarray:
        """Draws of blocks first .. first+count-1 in one vectorized pass."""
        size = count * _BLOCK_DRAWS
        hi = _splitmix(self._seed, first * _BLOCK_DRAWS, size) >> np.uint64(11)
        u1 = (hi[0::2] + np.uint64(1)) * 2.0**-53
        u2 = hi[1::2] * 2.0**-53
        radius = np.sqrt(-2.0 * np.log(u1))
        theta = (2.0 * math.pi) * u2
        out = np.empty(size)
        out[0::2] = radius * np.cos(theta)
        out[1::2] = radius * np.sin(theta)
        return out

    def normals(self, count: int) -> np.ndarray:
        """Next `count` normal deviates as a float64 array."""
        if count < 0:
            raise ContractViolation("count must be nonnegative")
        out = np.empty(count)
        got = min(self._buffer.size, count)
        out[:got] = self._buffer[:got]
        self._buffer = self._buffer[got:]
        while got < count:
            blocks = min(-(-(count - got) // _BLOCK_DRAWS), _SLAB_CHUNK // _BLOCK_DRAWS)
            first, self._next_block = self._next_block, self._next_block + blocks
            if blocks >= _SPLIT_MIN_BLOCKS and _cpus() > 1:
                half = blocks // 2
                parts = _on_threads([
                    functools.partial(self._compute_block, first, blocks - half),
                    functools.partial(self._compute_block, first + blocks - half, half),
                ])
            else:
                parts = [self._compute_block(first, blocks)]
            for drawn in parts:
                take = min(drawn.size, count - got)
                out[got : got + take] = drawn[:take]
                got += take
            # copy the tail, so that it does not keep the whole pass alive
            self._buffer = drawn[take:].copy()
        return out

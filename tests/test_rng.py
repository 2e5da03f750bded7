"""Determinism and distribution checks for the seeded generators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieforge import rng
from lieforge.errors import ContractViolation
from lieforge.rng import _GAMMA, RNG_ID, NormalStream, SplitMix64, _mix64_array

# published reference outputs for splitmix64 seeded with 0
SEED0_REFERENCE = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
]


def test_rng_id_is_pinned():
    assert RNG_ID == "splitmix64-boxmuller-v1"


def test_seed0_matches_reference_sequence():
    rng = SplitMix64(0)
    assert [rng.next_uint64() for _ in range(4)] == SEED0_REFERENCE


def test_bulk_draws_bitwise_equal_scalar():
    a = SplitMix64(12345)
    b = SplitMix64(12345)
    scalar = np.array([a.next_uint64() for _ in range(1000)], dtype=np.uint64)
    bulk = b.uint64s(1000)
    assert np.array_equal(scalar, bulk)
    # stream continues across the call boundary
    assert a.next_uint64() == b.uint64s(1)[0]


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=1, max_value=97))
@settings(max_examples=50, deadline=None)
def test_integers_stay_in_bound(seed, bound):
    vals = SplitMix64(seed).integers(200, bound)
    assert vals.min() >= 0
    assert vals.max() < bound


@pytest.mark.parametrize("bad", [-1, 2**64, 1.5, "7", None, True])
def test_seed_validation_rejects(bad):
    with pytest.raises(ContractViolation):
        SplitMix64(bad)
    with pytest.raises(ContractViolation):
        NormalStream(bad)


def test_normals_independent_of_call_pattern():
    """Draw order is a function of (seed, index), not of request sizes."""
    whole = NormalStream(7).normals(1000)
    pieces = NormalStream(7)
    chunks = [pieces.normals(n) for n in (1, 2, 254, 300, 443)]
    assert np.array_equal(np.concatenate(chunks), whole)
    one_by_one = NormalStream(7)
    singles = np.array([one_by_one.normals(1)[0] for _ in range(300)])
    assert np.array_equal(singles, whole[:300])


def test_normals_regression_anchor():
    vals = NormalStream(42).normals(3)
    np.testing.assert_array_equal(
        vals, [0.4147197504315305, 0.6526812221519427, -0.8918862136277562]
    )


def test_normals_invert_to_uniform_pairs():
    """Each cos/sin pair must come from one Box-Muller transform of the
    uint64 stream: radius^2 = -2 ln u1 and the angle is 2 pi u2."""
    seed = 2024
    raw = SplitMix64(seed).uint64s(2 * 128)  # one evaluation block
    normals = NormalStream(seed).normals(2 * 128)
    hi = raw >> np.uint64(11)
    u1 = (hi[0::2].astype(np.float64) + 1.0) * 2.0**-53
    u2 = hi[1::2].astype(np.float64) * 2.0**-53
    for pair in range(128):
        x, y = normals[2 * pair], normals[2 * pair + 1]
        r2 = x * x + y * y
        assert math.isclose(r2, -2.0 * math.log(u1[pair]), rel_tol=1e-12)
        angle = math.atan2(y, x) % (2.0 * math.pi)
        expected = (2.0 * math.pi * u2[pair]) % (2.0 * math.pi)
        assert math.isclose(angle, expected, rel_tol=0, abs_tol=1e-9) or math.isclose(
            abs(angle - expected), 2.0 * math.pi, rel_tol=0, abs_tol=1e-9
        )


def test_normals_moments():
    vals = NormalStream(1).normals(200_000)
    assert abs(vals.mean()) < 0.01
    assert abs(vals.std() - 1.0) < 0.01
    # no fill values or repeats from block bookkeeping
    assert np.unique(vals).size > 199_000


def test_different_seeds_differ():
    assert not np.array_equal(NormalStream(1).normals(16), NormalStream(2).normals(16))


class _PerBlockStream:
    """Reference: the stream evaluated one 256-draw block per loop iteration."""

    def __init__(self, seed: int):
        self._seed = seed
        self._next_block = 0
        self._buffer = np.empty(0)

    def _compute_block(self, block: int) -> np.ndarray:
        idx = np.arange(block * 256 + 1, block * 256 + 257, dtype=np.uint64)
        with np.errstate(over="ignore"):
            state = np.uint64(self._seed) + idx * np.uint64(_GAMMA)
        hi = _mix64_array(state) >> np.uint64(11)
        u1 = (hi[0::2] + np.uint64(1)) * 2.0**-53
        u2 = hi[1::2] * 2.0**-53
        radius = np.sqrt(-2.0 * np.log(u1))
        theta = (2.0 * math.pi) * u2
        out = np.empty(256)
        out[0::2] = radius * np.cos(theta)
        out[1::2] = radius * np.sin(theta)
        return out

    def normals(self, count: int) -> np.ndarray:
        parts = []
        have = self._buffer.size
        if have:
            take = min(have, count)
            parts.append(self._buffer[:take])
            self._buffer = self._buffer[take:]
        got = sum(p.size for p in parts)
        while got < count:
            block = self._compute_block(self._next_block)
            self._next_block += 1
            take = min(block.size, count - got)
            parts.append(block[:take])
            got += take
            if take < block.size:
                self._buffer = block[take:]
        if not parts:
            return np.empty(0)
        return np.concatenate(parts) if len(parts) > 1 else parts[0].copy()


@pytest.mark.parametrize("count", [36_672, 102_080, 130_560, 499_000])
def test_multi_block_passes_equal_per_block_evaluation(count):
    for seed in range(20):
        got = NormalStream(seed).normals(count)
        want = _PerBlockStream(seed).normals(count)
        assert got.tobytes() == want.tobytes(), f"seed {seed}"


@pytest.mark.parametrize(
    "calls", [(1, 255, 65_537, 300_000), (300_000, 1, 255), (65_536, 65_536, 257), (0, 513, 0, 70_000)]
)
def test_split_calls_equal_per_block_evaluation(calls):
    """A buffer carried across calls joins the next pass without a seam."""
    for seed in (0, 9, 2**64 - 1):
        stream, reference = NormalStream(seed), _PerBlockStream(seed)
        for count in calls:
            assert stream.normals(count).tobytes() == reference.normals(count).tobytes()
        assert stream.normals(1)[0] == reference.normals(1)[0]


# requests of N(N-1) and 2N(N-1) normals, as the sampler makes, and requests
# within one draw of _SPLIT_MIN_BLOCKS - 1 and _SPLIT_MIN_BLOCKS whole blocks
_SPLIT_COUNTS = [
    *(k * dim * (dim - 1) for dim in (191, 192, 320) for k in (1, 2)),
    *(
        blocks * 256 + extra
        for blocks in (rng._SPLIT_MIN_BLOCKS - 1, rng._SPLIT_MIN_BLOCKS)
        for extra in (-1, 0, 1)
    ),
]


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("count", _SPLIT_COUNTS)
def test_a_split_pass_equals_the_one_thread_pass(monkeypatch, cpus, count):
    """On more than one CPU a pass of at least _SPLIT_MIN_BLOCKS blocks runs
    in two halves on two threads; the draws are the same bits either way,
    and a second request continues the stream without a seam."""
    splits, on_threads = [], rng._on_threads

    def spy(jobs):
        splits.append(len(jobs))
        return on_threads(jobs)

    monkeypatch.setattr(rng, "_cpus", lambda: cpus)
    monkeypatch.setattr(rng, "_on_threads", spy)
    for seed in (0, 7, 2**64 - 1):
        stream, reference = NormalStream(seed), _PerBlockStream(seed)
        for _ in range(2):
            assert stream.normals(count).tobytes() == reference.normals(count).tobytes()
    blocks = -(-count // 256)
    split = cpus > 1 and min(blocks, 256) >= rng._SPLIT_MIN_BLOCKS
    assert bool(splits) == split and set(splits) <= {2}

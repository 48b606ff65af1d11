"""The vectorized Mersenne Twister bank against ``random.Random``.

Every value :class:`~repro.sim.mtstreams.MTStreams` serves must equal,
bit for bit, the next ``random.random()`` of a ``random.Random`` seeded
the same way.  The bank fills its first generation in steps (a prefix
read straight from the seeded state, then one whole-bank twist) and
refills streams one by one after that, so the tests drive it through
each regime: sparse draws that stay inside the prefix, mixed draws that
leave streams at scattered positions across every boundary, and full
draws that take the contiguous whole-bank path.
"""

import random

import pytest

np = pytest.importorskip("numpy")

from repro.rng import derive_seed
from repro.sim import mtstreams
from repro.sim.mtstreams import BLOCK, PREFIX, MTStreams

#: One-word keys (below 2**32) and two-word keys, at both edges.
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


def _bank(seeds):
    return MTStreams(seeds), [random.Random(seed) for seed in seeds]


def _draw_and_check(bank, refs, idx):
    idx = np.asarray(idx, dtype=np.int64)
    values = bank.draw(idx)
    assert values.dtype == np.float64
    assert values.tolist() == [refs[i].random() for i in idx.tolist()]


def _derived_seeds(count):
    return [derive_seed(20260807, "mtstreams", i) for i in range(count)]


@pytest.fixture(params=["default", "tiny"])
def chunking(request, monkeypatch):
    """Run once as shipped and once with chunks of a few rows.

    The test banks are narrow enough that, as shipped, the extraction
    and the prefix fill run as one chunk; a tiny chunk size splits them
    (with a ragged last chunk) the way a wide bank does.
    """
    if request.param == "tiny":
        monkeypatch.setattr(mtstreams, "_CHUNK", 100)


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_single_stream_matches_random(seed):
    bank, refs = _bank([seed])
    for _ in range(2 * BLOCK + 5):
        _draw_and_check(bank, refs, [0])


def test_edge_and_derived_seeds_in_one_bank():
    bank, refs = _bank(EDGE_SEEDS + _derived_seeds(20))
    everyone = np.arange(len(refs))
    for _ in range(BLOCK + PREFIX + 3):
        _draw_and_check(bank, refs, everyone)


def test_sparse_draws_stay_in_prefix_without_twisting(monkeypatch):
    def no_twist(mt):
        raise AssertionError("the prefix must not twist")

    monkeypatch.setattr(mtstreams, "_twist", no_twist)
    seeds = EDGE_SEEDS + _derived_seeds(40)
    bank, refs = _bank(seeds)
    rng = np.random.default_rng(1)
    drawn = np.zeros(len(seeds), dtype=np.int64)
    while drawn.max() < PREFIX:
        mask = (rng.random(len(seeds)) < 0.2) & (drawn < PREFIX)
        _draw_and_check(bank, refs, np.flatnonzero(mask))
        drawn += mask
    assert drawn.max() == PREFIX
    assert drawn.min() < PREFIX


def test_mixed_draws_cross_every_boundary(monkeypatch, chunking):
    widths = []
    twist = mtstreams._twist

    def spy(mt):
        widths.append(mt.shape[1])
        twist(mt)

    monkeypatch.setattr(mtstreams, "_twist", spy)
    seeds = EDGE_SEEDS + _derived_seeds(59)
    bank, refs = _bank(seeds)
    rng = np.random.default_rng(2)
    # Per-stream draw rates from 0.05 to 0.95 spread the streams'
    # positions, so each boundary is crossed while others lag behind.
    rates = np.linspace(0.05, 0.95, len(seeds))
    drawn = np.zeros(len(seeds), dtype=np.int64)
    while drawn.max() < 2 * BLOCK + 10:
        mask = rng.random(len(seeds)) < rates
        _draw_and_check(bank, refs, np.flatnonzero(mask))
        drawn += mask
    assert drawn.min() < BLOCK < drawn.max()
    # One whole-bank twist for the first generation, then per-column
    # refills of only the streams that ran dry.
    assert widths[0] == len(seeds)
    assert len(widths) > 2
    assert all(width < len(seeds) for width in widths[1:])


def test_full_draws_take_the_whole_bank_path(monkeypatch, chunking):
    widths = []
    twist = mtstreams._twist

    def spy(mt):
        widths.append(mt.shape[1])
        twist(mt)

    monkeypatch.setattr(mtstreams, "_twist", spy)
    seeds = _derived_seeds(16)
    bank, refs = _bank(seeds)
    everyone = np.arange(len(seeds))
    for _ in range(3 * BLOCK + 1):
        _draw_and_check(bank, refs, everyone)
    assert widths == [len(seeds)] * 4


def test_empty_idx_draws_nothing():
    bank, refs = _bank(_derived_seeds(4))
    empty = np.array([], dtype=np.int64)
    assert bank.draw(empty).shape == (0,)
    _draw_and_check(bank, refs, [1, 3])
    assert bank.draw(empty).shape == (0,)
    _draw_and_check(bank, refs, np.arange(4))


def test_len_counts_streams():
    assert len(MTStreams(_derived_seeds(7))) == 7
    assert len(MTStreams([])) == 0

"""Vectorized banks of CPython-compatible Mersenne Twister streams.

The reference engine gives every node its own ``random.Random`` seeded
by :func:`repro.rng.spawn_for_node`, and seed-for-seed parity between
backends (the contract the parity suite enforces) therefore requires
the NumPy backend to draw *bit-identical* uniforms from *the same*
per-node streams.  ``numpy.random`` cannot do that — its MT19937 uses
a different seeding algorithm and a different double extraction — so
this module reimplements exactly what CPython does, across many
streams at once:

* :func:`init_streams` replicates ``random.Random(seed).seed`` for a
  vector of 64-bit seeds: the ``init_genrand(19650218)`` base state,
  then ``init_by_array`` over the seed split into little-endian 32-bit
  words (one word when the high half is zero, two otherwise).
* :class:`MTStreams` serves ``random.random()`` values stream by
  stream.  State lives in a ``(624, S)`` uint32 matrix (row-major over
  the Mersenne index, so the twist works on contiguous rows); doubles
  come from the standard temper + 53-bit extraction
  ``((a >> 5) * 2^26 + (b >> 6)) / 2^53`` over pairs of state words.

Most streams draw only a handful of coins, so a bank pays for a
stream's doubles only once some stream needs them.  First-generation
output word ``j < 227`` reads only the seeded words ``j``, ``j + 1``
and ``j + 397``, so the first :data:`PREFIX` doubles of every stream
come straight from the seeded state, with no twist.  The whole-bank
twist runs only when some stream draws past them; after that each
stream refills its own 312-double block as it runs dry.

Streams advance independently: a node that flips no coin this slot
consumes nothing, which is what keeps the per-node draw *order* — the
only thing parity depends on — identical to the reference engine.

This module imports NumPy at module load; gate imports through
:mod:`repro.sim.backends` so the library works without it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["init_streams", "MTStreams"]

_U32 = np.uint32
_UPPER = _U32(0x80000000)
_LOWER = _U32(0x7FFFFFFF)
_MATRIX_A = _U32(0x9908B0DF)

_N = 624  # MT19937 state words
_M = 397  # twist offset
#: random() values produced per twist (two state words per double).
BLOCK = _N // 2
#: First-generation doubles served from the seeded state, before any
#: twist.  At most 113: word ``j`` needs no twisted word while ``j < 227``.
PREFIX = 32
#: Elements per chunk of the twist and the extraction (128 KB of words):
#: whole-matrix temporaries would be fresh pages, faulted in on each use.
_CHUNK = 1 << 15


def _base_state() -> np.ndarray:
    """``init_genrand(19650218)`` — the seed-independent prefix state."""
    mt = np.empty(_N, dtype=np.uint32)
    mt[0] = 19650218
    for i in range(1, _N):
        prev = int(mt[i - 1])
        mt[i] = (1812433253 * (prev ^ (prev >> 30)) + i) & 0xFFFFFFFF
    return mt


_BASE = _base_state()


def init_streams(seeds) -> np.ndarray:
    """State matrix ``(624, S)`` equal to ``random.Random(seed)`` per seed.

    ``seeds`` are the non-negative 64-bit ints :func:`repro.rng.derive_seed`
    produces.  CPython splits such a seed into 32-bit words little-endian
    and feeds them to ``init_by_array``; a seed below 2**32 uses a
    one-word key, which the two-word recurrence reproduces by adding the
    one-word term on odd steps too (the second of the two key terms).
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    key0 = (seeds & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    key1 = (seeds >> np.uint64(32)).astype(np.uint32)
    mt = np.repeat(_BASE[:, None], len(seeds), axis=1)
    rows = list(mt)  # row views, indexed without re-slicing each step
    tmp = np.empty(len(seeds), dtype=np.uint32)
    rshift = np.right_shift
    i = 1
    jmod = 0
    with np.errstate(over="ignore"):
        # key[j] + j, alternating j = 0, 1 for two-word keys; one-word
        # keys keep j at 0 and always add key[0].
        terms = (key0, np.where(key1 != 0, key1 + _U32(1), key0))
        for _ in range(_N):
            prev = rows[i - 1]
            row = rows[i]
            rshift(prev, 30, out=tmp)
            tmp ^= prev
            tmp *= 1664525
            row ^= tmp
            row += terms[jmod]
            i += 1
            jmod ^= 1
            if i >= _N:
                rows[0][:] = rows[_N - 1]
                i = 1
        for _ in range(_N - 1):
            prev = rows[i - 1]
            row = rows[i]
            rshift(prev, 30, out=tmp)
            tmp ^= prev
            tmp *= 1566083941
            row ^= tmp
            row -= i
            i += 1
            if i >= _N:
                rows[0][:] = rows[_N - 1]
                i = 1
    mt[0] = 0x80000000
    return mt


def _mix(upper: np.ndarray, lower: np.ndarray, dep: np.ndarray) -> np.ndarray:
    """The twist recurrence for words whose three inputs are ready."""
    with np.errstate(over="ignore"):
        y = (upper & _UPPER) | (lower & _LOWER)
        # (y & 1) * A == A where the low bit is set, 0 elsewhere.
        return dep ^ (y >> _U32(1)) ^ ((y & _U32(1)) * _MATRIX_A)


def _chunk_rows(streams: int, cap: int) -> int:
    """Rows per chunk so a chunk's temporaries stay cache-sized."""
    return max(1, min(cap, _CHUNK // max(1, streams)))


def _twist(mt: np.ndarray) -> None:
    """Advance every stream one generation, in place.

    Rows are rewritten in the generator's own word order, a chunk at a
    time.  Word ``i`` reads word ``i + 1`` (not yet rewritten) and word
    ``i + 397 mod 624``, which is still old below 227 and already new
    from 227 on; chunks never straddle 227 and are at most 227 rows, so
    no chunk reads a row it writes.
    """
    step = _chunk_rows(mt.shape[1], _N - _M)
    for start, stop in ((0, _N - _M), (_N - _M, _N - 1)):
        for lo in range(start, stop, step):
            hi = min(lo + step, stop)
            dep = mt[lo + _M : hi + _M] if lo < _N - _M else mt[lo + _M - _N : hi + _M - _N]
            mt[lo:hi] = _mix(mt[lo:hi], mt[lo + 1 : hi + 1], dep)
    mt[_N - 1] = _mix(mt[_N - 1], mt[0], mt[_M - 1])


def _extract(words: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Temper ``2k`` twisted state words into ``out``'s ``(k, S)`` doubles."""
    step = _chunk_rows(words.shape[1], len(out))
    with np.errstate(over="ignore"):
        for lo in range(0, len(out), step):
            hi = min(lo + step, len(out))
            w = words[2 * lo : 2 * hi]
            w = w ^ (w >> _U32(11))
            w ^= (w << _U32(7)) & _U32(0x9D2C5680)
            w ^= (w << _U32(15)) & _U32(0xEFC60000)
            w ^= w >> _U32(18)
            dst = out[lo:hi]
            np.multiply(w[0::2] >> _U32(5), 67108864.0, out=dst)
            dst += w[1::2] >> _U32(6)
            dst *= 1.0 / 9007199254740992.0
    return out


def _fill_prefix(mt: np.ndarray, out: np.ndarray) -> None:
    """First-generation doubles into ``out`` (at most 113 rows), untwisted.

    ``mt`` is the seeded state; it is read, not advanced.
    """
    step = _chunk_rows(mt.shape[1], len(out))
    for lo in range(0, len(out), step):
        hi = min(lo + step, len(out))
        w0, w1 = 2 * lo, 2 * hi
        words = _mix(mt[w0:w1], mt[w0 + 1 : w1 + 1], mt[_M + w0 : _M + w1])
        _extract(words, out[lo:hi])


class MTStreams:
    """A bank of independent ``random.Random``-equivalent streams.

    ``draw(idx)`` returns, for each stream index in ``idx``, the next
    value its ``random.random()`` would produce.  Only the streams in
    ``idx`` advance.

    Construction only seeds the state.  The bank's first generation is
    filled for every stream at once, in two steps, each taken when the
    first stream reaches the fill frontier (the count of doubles every
    stream has filled): the :data:`PREFIX` doubles that need no twist,
    then one contiguous whole-bank twist for the rest of the block.
    Past the first generation a stream that runs dry refills its own
    312-double block; when every stream runs dry at once the twist runs
    over the whole contiguous state matrix, otherwise only the needed
    columns are gathered.  The buffer is allocated up front, but its
    pages are touched only as rows are filled.
    """

    def __init__(self, seeds) -> None:
        self._mt = init_streams(seeds)
        self._count = self._mt.shape[1]
        self._buf = np.empty((BLOCK, self._count), dtype=np.float64)
        self._pos = np.zeros(self._count, dtype=np.int64)
        self._frontier = 0

    def __len__(self) -> int:
        return self._count

    def draw(self, idx: np.ndarray) -> np.ndarray:
        """Next ``random.random()`` value of each stream in ``idx``."""
        pos = self._pos
        need = idx[pos[idx] >= self._frontier]
        if need.size:
            self._refill(need)
        vals = self._buf[pos[idx], idx]
        pos[idx] += 1
        return vals

    def _refill(self, idx: np.ndarray) -> None:
        mt = self._mt
        if self._frontier == 0:
            _fill_prefix(mt, self._buf[:PREFIX])
            self._frontier = PREFIX
        elif self._frontier == PREFIX:
            _twist(mt)
            _extract(mt[2 * PREFIX :], self._buf[PREFIX:])
            self._frontier = BLOCK
        elif idx.size == self._count:
            _twist(mt)
            _extract(mt, self._buf)
            self._pos[:] = 0
        else:
            cols = mt[:, idx]  # fancy index -> contiguous copy
            _twist(cols)
            mt[:, idx] = cols
            self._buf[:, idx] = _extract(cols, np.empty((BLOCK, idx.size)))
            self._pos[idx] = 0

"""Tests for the chunk geometry, payload, splice and fingerprint helpers
that :func:`repro.parallel.resilient_map` and its journal share."""

import pytest

from repro.errors import ExperimentError
from repro.parallel import (
    CampaignJournal,
    _campaign_fingerprint,
    _decode_chunk,
    _encode_chunk,
    _make_chunks,
    _splice,
    default_chunksize,
)


def _square(x):
    return x * x


def _other(x):
    return x + 1


class TestChunkGeometry:
    def test_make_chunks_covers_every_item_in_order(self):
        items = list(range(10))
        chunks = _make_chunks(items, 3)
        assert chunks == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9]]

    def test_make_chunks_rejects_bad_chunksize(self):
        with pytest.raises(ExperimentError):
            _make_chunks([1, 2], 0)

    def test_default_chunksize_scales_with_jobs(self):
        # Four chunks per worker: ceil(100 / (jobs * 4)).
        assert default_chunksize(100, 4) == 7
        assert [default_chunksize(100, jobs) for jobs in (1, 2, 25)] == [25, 13, 1]
        assert default_chunksize(0, 4) == 1  # never zero


class TestPayloadEncoding:
    def test_roundtrip(self):
        results = [1, "two", (3, 4), None]
        assert _decode_chunk(_encode_chunk(results)) == results

    def test_payload_is_ascii(self):
        _encode_chunk([b"\xff\x00"]).encode("ascii")  # must not raise


class TestSplice:
    def test_reassembles_in_index_order(self):
        chunks = {1: [3, 4], 0: [1, 2], 2: [5]}
        assert _splice(3, chunks, where="test") == [1, 2, 3, 4, 5]

    def test_missing_chunk_raises_with_indices(self):
        with pytest.raises(ExperimentError, match=r"unit test: .*chunk\(s\) \[1\]"):
            _splice(2, {0: [1]}, where="unit test")


class TestFingerprint:
    def test_stable_for_same_campaign(self):
        assert _campaign_fingerprint(_square, [1, 2, 3]) == _campaign_fingerprint(
            _square, [1, 2, 3]
        )

    def test_differs_for_different_fn_or_items(self):
        base = _campaign_fingerprint(_square, [1, 2, 3])
        assert _campaign_fingerprint(_other, [1, 2, 3]) != base
        assert _campaign_fingerprint(_square, [1, 2]) != base

    def test_journal_fingerprint_delegates_here(self):
        # The journal header pins this digest; resume compares against it.
        assert CampaignJournal.fingerprint(_square, [5, 6]) == _campaign_fingerprint(
            _square, [5, 6]
        )

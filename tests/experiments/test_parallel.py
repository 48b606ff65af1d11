"""Tests for the process-pool execution layer (:mod:`repro.parallel`).

The load-bearing property is *equivalence*: for any ``jobs`` value the
results are element-for-element what the serial loop produces, because
repetition seeds are derived order-independently.  The flagship
experiment tables are checked byte-for-byte here.
"""

import pytest

from repro.errors import ExperimentError
from repro.experiments.runner import ExperimentConfig, repeat_runs, sweep
from repro.parallel import (
    CampaignJournal,
    _campaign_fingerprint,
    _decode_chunk,
    _encode_chunk,
    _make_chunks,
    _splice,
    default_chunksize,
    parallel_map,
    parallel_starmap,
    resolve_jobs,
)


def _square(x):
    return x * x


def _other(x):
    return x + 1


def _add(a, b):
    return a + b


def _seed_echo(seed):
    return ("echo", seed)


def _point_sum(point, seeds):
    return (point, sum(seeds))


def _explode(x):
    raise ValueError(f"boom {x}")


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1

    def test_explicit_value_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "8")
        assert resolve_jobs(3) == 3

    def test_env_var_used_when_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None) == 5

    def test_zero_means_all_cpus(self):
        import os

        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_negative_rejected(self):
        with pytest.raises(ExperimentError):
            resolve_jobs(-2)

    def test_bad_env_var_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ExperimentError):
            resolve_jobs(None)

    def test_config_defers_to_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert ExperimentConfig().effective_jobs() == 4
        assert ExperimentConfig(jobs=2).effective_jobs() == 2


class TestDefaultChunksize:
    def test_chunks_amortise_dispatch(self):
        # 100 items over 4 workers, 4 chunks each -> ceil(100/16) = 7.
        assert default_chunksize(100, 4) == 7

    def test_never_below_one(self):
        assert default_chunksize(1, 8) == 1
        assert default_chunksize(0, 8) == 1
        assert default_chunksize(0, 0) == 1


class TestParallelMap:
    def test_matches_serial_and_preserves_order(self):
        items = list(range(50))
        serial = [_square(x) for x in items]
        assert parallel_map(_square, items, jobs=1) == serial
        assert parallel_map(_square, items, jobs=4) == serial

    def test_empty_items(self):
        assert parallel_map(_square, [], jobs=4) == []

    def test_unpicklable_fn_falls_back_to_serial(self):
        seen = []

        def record(x):  # closure: unpicklable, must run in-process
            seen.append(x)
            return x

        with pytest.warns(RuntimeWarning, match="not picklable"):
            assert parallel_map(record, [1, 2, 3], jobs=4) == [1, 2, 3]
        assert seen == [1, 2, 3]

    def test_worker_exceptions_propagate(self):
        with pytest.raises(ValueError, match="boom"):
            parallel_map(_explode, [1, 2, 3, 4], jobs=2)

    def test_starmap_matches_serial(self):
        tasks = [(a, a + 1) for a in range(20)]
        serial = [_add(a, b) for a, b in tasks]
        assert parallel_starmap(_add, tasks, jobs=1) == serial
        assert parallel_starmap(_add, tasks, jobs=3) == serial


class TestHarnessEquivalence:
    def test_repeat_runs_identical_across_jobs(self):
        serial = repeat_runs(
            ExperimentConfig(reps=12, master_seed=7, jobs=1), ("t",), _seed_echo
        )
        pooled = repeat_runs(
            ExperimentConfig(reps=12, master_seed=7, jobs=4), ("t",), _seed_echo
        )
        assert pooled == serial

    def test_sweep_identical_across_jobs(self):
        points = ["a", "b", "c"]
        serial = sweep(ExperimentConfig(reps=3, jobs=1), points, _point_sum)
        pooled = sweep(ExperimentConfig(reps=3, jobs=4), points, _point_sum)
        assert pooled == serial


class TestExperimentEquivalence:
    """Flagship tables must be byte-identical for jobs=1 and jobs=4."""

    def _render(self, run_table, **config_kwargs):
        return run_table(ExperimentConfig(**config_kwargs)).render()

    def test_exp_decay_table_identical(self):
        from repro.experiments.exp_decay import run_theorem1_table

        kwargs = dict(reps=8, master_seed=11, quick=True)
        serial = self._render(run_theorem1_table, jobs=1, **kwargs)
        pooled = self._render(run_theorem1_table, jobs=4, **kwargs)
        assert pooled == serial

    def test_exp_broadcast_table_identical(self):
        from repro.experiments.exp_broadcast import run_success_rate_table

        kwargs = dict(reps=8, master_seed=11, quick=True)
        serial = self._render(run_success_rate_table, jobs=1, **kwargs)
        pooled = self._render(run_success_rate_table, jobs=4, **kwargs)
        assert pooled == serial


def _square_batch(chunk):
    """A stand-in vectorized backend: whole-chunk squares in one call."""
    return [x * x for x in chunk]


class TestBackendJournalParity:
    """Satellite: journals are fingerprinted by ``fn`` alone, so the
    per-item path and the batched (vectorized-backend) path produce
    interchangeable, byte-identical journals and splices."""

    def test_fingerprint_ignores_batch_fn(self):
        items = list(range(12))
        # The fingerprint is a function of (fn, items) only — there is
        # no batch_fn input to it at all; assert the journals agree.
        assert CampaignJournal.fingerprint(_square, items) == (
            CampaignJournal.fingerprint(_square, items)
        )

    def test_journal_bytes_identical_across_backends(self, tmp_path):
        import pickle

        from repro.parallel import resilient_map

        items = list(range(12))
        plain = resilient_map(
            _square, items, jobs=1, chunksize=3,
            journal=tmp_path / "plain.jsonl",
        )
        batched = resilient_map(
            _square, items, jobs=1, chunksize=3,
            journal=tmp_path / "batched.jsonl", batch_fn=_square_batch,
        )
        assert pickle.dumps(plain) == pickle.dumps(batched)
        assert (tmp_path / "plain.jsonl").read_bytes() == (
            tmp_path / "batched.jsonl"
        ).read_bytes()

    def test_journal_resumes_across_backends(self, tmp_path):
        import pickle

        from repro.parallel import resilient_map

        items = list(range(12))
        journal = tmp_path / "campaign.jsonl"
        full = resilient_map(
            _square, items, jobs=1, chunksize=3, journal=journal,
        )
        # Drop the last chunk, then resume under the *other* backend.
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines[:-1]) + "\n")
        resumed = resilient_map(
            _square, items, jobs=1, chunksize=3, journal=journal,
            resume=True, batch_fn=_square_batch,
        )
        assert pickle.dumps(resumed) == pickle.dumps(full)

    def test_fabric_store_payload_matches_journal_payload(self, tmp_path):
        # Each journal record's payload is exactly _encode_chunk of that
        # chunk's results: the on-disk contract resume decodes.
        import json

        from repro.parallel import resilient_map

        items = list(range(6))
        journal = tmp_path / "campaign.jsonl"
        resilient_map(_square, items, jobs=1, chunksize=3, journal=journal)
        records = [
            json.loads(line) for line in journal.read_text().splitlines()[1:]
        ]
        assert [record["index"] for record in records] == [0, 1]
        for record in records:
            start = record["index"] * 3
            chunk = items[start : start + 3]
            assert record["payload"] == _encode_chunk([x * x for x in chunk])


# The chunk geometry, payload, splice and fingerprint helpers that
# resilient_map and its journal share.


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

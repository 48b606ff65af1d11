"""The recorder's subscriber bus: dispatch, isolation, and the no-op guarantee."""

import logging

from repro.telemetry.core import Telemetry, activate, event


class TestSubscription:
    def test_subscriber_sees_emitted_records(self):
        seen = []
        with Telemetry.buffered() as tel:
            tel.subscribe(seen.append)
            tel.emit("event", name="x")
        assert [r["kind"] for r in seen] == ["event"]
        assert seen[0]["name"] == "x"

    def test_subscriber_sees_shipped_worker_records(self):
        # Pool workers ship pre-formed records through write_record; the
        # bus must cover that path too or campaign monitoring misses
        # every chunk.
        seen = []
        with Telemetry.buffered() as tel:
            tel.subscribe(seen.append)
            tel.write_record({"kind": "run_end", "ts": 1.0, "chunk": 3})
        assert seen == [{"kind": "run_end", "ts": 1.0, "chunk": 3}]

    def test_unsubscribe_stops_delivery(self):
        seen = []
        with Telemetry.buffered() as tel:
            unsubscribe = tel.subscribe(seen.append)
            tel.emit("event", name="first")
            unsubscribe()
            tel.emit("event", name="second")
        assert [r["name"] for r in seen] == ["first"]

    def test_multiple_subscribers_all_receive(self):
        a, b = [], []
        with Telemetry.buffered() as tel:
            tel.subscribe(a.append)
            tel.subscribe(b.append)
            tel.emit("event", name="x")
        assert len(a) == len(b) == 1

    def test_records_still_recorded_without_subscribers(self):
        with Telemetry.buffered() as tel:
            tel.emit("event", name="x")
            assert [r["kind"] for r in tel.drain()] == ["event"]


class TestIsolation:
    def test_failing_subscriber_does_not_break_recording(self, caplog):
        def explode(record):
            raise RuntimeError("subscriber bug")

        seen = []
        with Telemetry.buffered() as tel:
            tel.subscribe(explode)
            tel.subscribe(seen.append)
            with caplog.at_level(logging.ERROR, logger="repro.telemetry"):
                tel.emit("event", name="x")
            assert len(tel.drain()) == 1
        assert len(seen) == 1  # later subscribers unaffected
        assert any("subscriber" in r.message for r in caplog.records)

    def test_subscriber_may_emit_without_unbounded_recursion(self):
        # A monitor emits `alert` records back into the stream it
        # watches; the depth guard bounds the feedback loop.
        with Telemetry.buffered() as tel:
            def echo(record):
                tel.emit("event", name="echo")

            tel.subscribe(echo)
            tel.emit("event", name="seed")
            records = tel.drain()
        assert 2 <= len(records) <= 16  # terminated, not runaway


class TestDisabledPath:
    def test_ambient_helpers_never_touch_bus_when_inactive(self):
        # The strict no-op guarantee: with no recorder active, the fast
        # helpers return before any record (or dispatch) is constructed.
        event("event", name="x")  # must simply not raise

    def test_no_dispatch_state_when_no_subscribers(self):
        with Telemetry.buffered() as tel:
            with activate(tel):
                event("event", name="x")
            records = tel.drain()
        assert len(records) == 1
        assert tel._subscribers == ()


class TestConcurrentShipBack:
    """Satellite: the bus under concurrent worker ship-back —
    resilient_map callbacks and heartbeat threads both write through
    one recorder from different threads."""

    def _hammer(self, tel, threads=4, per_thread=200):
        import threading

        def ship(worker):
            for n in range(per_thread):
                tel.write_record(
                    {"kind": "event", "ts": float(n), "name": "chunk",
                     "worker": worker, "n": n}
                )

        pool = [
            threading.Thread(target=ship, args=(f"w{i}",))
            for i in range(threads)
        ]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        return threads * per_thread

    def test_streamed_log_lines_never_tear(self, tmp_path):
        import json

        log = tmp_path / "log.jsonl"
        tel = Telemetry.to_path(log)
        with tel:
            expected = self._hammer(tel)
        lines = log.read_text(encoding="utf-8").splitlines()
        assert len(lines) == expected
        decoded = [json.loads(line) for line in lines]  # every line whole
        # No record lost, none duplicated, per-worker order preserved.
        for worker in ("w0", "w1", "w2", "w3"):
            ours = [r["n"] for r in decoded if r["worker"] == worker]
            assert ours == list(range(200))

    def test_subscribers_see_every_record_exactly_once(self):
        seen = []
        with Telemetry.buffered() as tel:
            tel.subscribe(seen.append)
            expected = self._hammer(tel)
            recorded = tel.drain()
        assert len(seen) == len(recorded) == expected
        keys = [(r["worker"], r["n"]) for r in seen]
        assert len(set(keys)) == expected  # exactly once each

    def test_run_seq_tags_are_unique_across_threads(self):
        import threading

        with Telemetry.buffered() as tel:
            ids: list[str] = []
            lock = threading.Lock()

            def open_many():
                mine = [tel.open_run(nodes=1) for _ in range(100)]
                with lock:
                    ids.extend(mine)

            pool = [threading.Thread(target=open_many) for _ in range(4)]
            for t in pool:
                t.start()
            for t in pool:
                t.join()
        assert len(ids) == 400
        assert len(set(ids)) == 400  # no thread ever minted a duplicate

    def test_raising_subscriber_mid_merge_isolates_per_record(self, caplog):
        # A subscriber that blows up on *some* shipped records must not
        # lose any record for the recording or for healthy subscribers.
        import logging

        seen = []

        def picky(record):
            if record.get("n", 0) % 7 == 0:
                raise RuntimeError("mid-merge subscriber bug")

        with Telemetry.buffered() as tel:
            tel.subscribe(picky)
            tel.subscribe(seen.append)
            with caplog.at_level(logging.ERROR, logger="repro.telemetry"):
                expected = self._hammer(tel)
            recorded = tel.drain()
        assert len(recorded) == expected
        assert len(seen) == expected
        assert any("subscriber" in r.message for r in caplog.records)

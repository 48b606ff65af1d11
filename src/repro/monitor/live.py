"""Wire the tail reader, conformance checkers, and status board together.

Two ways in:

* :func:`monitor_log` — out-of-process: read (or ``--follow``) a
  JSON-lines telemetry log and stream it through the checkers.  This is
  what ``python -m repro monitor`` runs.
* :func:`attach_monitor` — in-process: subscribe a :class:`LiveMonitor`
  to the active :class:`~repro.telemetry.core.Telemetry` recorder, so
  ``--monitor`` on ``gap``/``experiment``/``chaos`` checks conformance
  *while the campaign runs* with zero extra file I/O.

Fired alerts are appended to the monitored log as schema-valid
``alert`` records (tagged ``source="monitor"`` with a monotone ``seq``),
so they survive for ``obs ingest``/``telemetry`` and a later monitor
pass can read the same log without double-counting its own output.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.monitor.board import BoardRenderer, StatusBoard
from repro.monitor.conformance import (
    Alert,
    ConformanceMonitor,
    MonitorConfig,
    default_checkers,
)
from repro.monitor.tail import follow_records, read_log_records
from repro.telemetry.core import Telemetry

__all__ = ["MonitorReport", "LiveMonitor", "monitor_log", "attach_monitor"]


@dataclass
class MonitorReport:
    """What a monitoring pass saw — the CLI's exit code comes from here."""

    records: int = 0
    alerts: list[Alert] = field(default_factory=list)
    board: dict[str, Any] = field(default_factory=dict)
    log: str | None = None

    @property
    def gate_failed(self) -> bool:
        return bool(self.alerts)

    def to_json(self) -> dict[str, Any]:
        return {
            "log": self.log,
            "records": self.records,
            "alerts": [alert.record_fields() for alert in self.alerts],
            "gate_failed": self.gate_failed,
            "board": self.board,
        }


class LiveMonitor:
    """One conformance-monitoring pass over a record stream."""

    def __init__(
        self,
        config: MonitorConfig,
        *,
        renderer_factory: Callable[[StatusBoard], BoardRenderer] | None = None,
        emit_alert: Callable[[Alert], None] | None = None,
    ) -> None:
        self.config = config
        self.board = StatusBoard()
        self.renderer = renderer_factory(self.board) if renderer_factory else None
        self._emit_alert = emit_alert
        # Epsilon pinned on the CLI wins; otherwise the stream's own
        # manifest may retune the checkers before the first run lands.
        self._config_pinned = config.epsilon is not None
        self.monitor = ConformanceMonitor(
            default_checkers(config), on_alert=self._on_alert
        )

    def _on_alert(self, alert: Alert) -> None:
        self.board.note_alert(alert)
        if self._emit_alert is not None:
            self._emit_alert(alert)

    def ingest(self, record: dict[str, Any]) -> None:
        if (
            record.get("kind") == "manifest"
            and not self._config_pinned
            and self.monitor.records_seen == 0
        ):
            self._config_pinned = True
            config = MonitorConfig.from_manifest(
                record,
                alpha=self.config.alpha,
                min_runs=self.config.min_runs,
                diameter=self.config.diameter,
                max_degree=self.config.max_degree,
                deterministic_floor=self.config.deterministic_floor or None,
            )
            if config.epsilon is not None:
                self.config = config
                self.monitor = ConformanceMonitor(
                    default_checkers(config, manifest=record),
                    on_alert=self._on_alert,
                )
        self.board.update(record)
        self.monitor.feed(record)
        if self.renderer is not None:
            self.renderer.refresh()

    def finish(self) -> MonitorReport:
        self.monitor.finish()
        if self.renderer is not None:
            self.renderer.close()
        return MonitorReport(
            records=self.monitor.records_seen,
            alerts=list(self.monitor.alerts),
            board=self.board.snapshot(),
        )


class _AlertWriter:
    """Append fired alerts to the monitored log as ``alert`` records."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.seq = 0

    def __call__(self, alert: Alert) -> None:
        self.seq += 1
        record: dict[str, Any] = {
            "kind": "alert",
            "ts": time.time(),
            "source": "monitor",
            "seq": self.seq,
        }
        record.update(alert.record_fields())
        try:
            with self.path.open("a", encoding="utf-8") as stream:
                stream.write(json.dumps(record, default=repr) + "\n")
                stream.flush()
        except OSError:
            pass  # a read-only log loses persistence, not monitoring


def monitor_log(
    path: str | os.PathLike[str],
    *,
    config: MonitorConfig | None = None,
    follow: bool = False,
    poll_interval: float = 0.2,
    idle_timeout: float | None = None,
    stop: Callable[[], bool] | None = None,
    renderer_factory: Callable[[StatusBoard], BoardRenderer] | None = None,
    write_alerts: bool = True,
) -> MonitorReport:
    """Run a conformance pass over a telemetry log on disk.

    A ``KeyboardInterrupt`` while following ends the pass cleanly: the
    checkers finish and the report covers everything seen so far.
    """
    log = Path(path)
    emit = _AlertWriter(log) if write_alerts else None
    live = LiveMonitor(
        config or MonitorConfig(), renderer_factory=renderer_factory, emit_alert=emit
    )
    records: Iterable[dict[str, Any]]
    if follow:
        records = follow_records(
            log, poll_interval=poll_interval, idle_timeout=idle_timeout, stop=stop
        )
    else:
        records = read_log_records(log)
    try:
        for record in records:
            live.ingest(record)
    except KeyboardInterrupt:
        pass
    report = live.finish()
    report.log = str(log)
    return report


def attach_monitor(
    telemetry: Telemetry,
    *,
    config: MonitorConfig | None = None,
    renderer_factory: Callable[[StatusBoard], BoardRenderer] | None = None,
) -> tuple[LiveMonitor, Callable[[], MonitorReport]]:
    """Subscribe a monitor to a live recorder (the ``--monitor`` flag).

    Fired alerts are emitted straight back into the same telemetry
    stream (``emit("alert", ...)``), giving the log an in-band record of
    every violation; the conformance monitor never re-checks ``alert``
    records, so the loop terminates.  Returns the monitor and a
    ``detach`` callable that unsubscribes and returns the final report.
    """
    seq = {"n": 0}

    def emit(alert: Alert) -> None:
        seq["n"] += 1
        telemetry.emit("alert", source="monitor", seq=seq["n"], **alert.record_fields())

    live = LiveMonitor(
        config or MonitorConfig(), renderer_factory=renderer_factory, emit_alert=emit
    )
    unsubscribe = telemetry.subscribe(live.ingest)

    def detach() -> MonitorReport:
        unsubscribe()
        return live.finish()

    return live, detach

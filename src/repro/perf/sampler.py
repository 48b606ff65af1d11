"""The wall-clock sampling profiler: a daemon thread over
``sys._current_frames()``.

Each tick the sampler walks every thread's live stack (except its own)
into a **folded stack** — frames root→leaf joined with ``;``, each
frame rendered ``file.py:function`` — and bumps that stack's sample
count.  If the sampled thread has perf span labels live (see
:data:`_SPANS`, pushed by :meth:`repro.perf.core.PerfSession.span_push`),
the folded stack is prefixed with them, so span-attributed time falls
out of the same aggregation that feeds the flamegraph.

Safety properties the rest of the repo relies on:

* **No signal handlers.**  Sampling rides a plain
  ``threading.Event.wait`` loop, so it composes with the program's own
  signal handling and never interrupts syscalls in the program.
* **Never raises into the program.**  A thread that exits between
  ``sys._current_frames()`` and the stack walk is simply skipped.
* **Idempotent start/stop.**  ``start()`` on a running sampler and
  ``stop()`` on a stopped one are no-ops, so CLI teardown paths can be
  sloppy about ordering.
* **Zero cost when not running.**  The only ambient state is the span
  registry, and nothing touches it unless a session is active.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from typing import Callable

__all__ = ["Sampler", "MAX_STACK_DEPTH"]

#: Deepest stack the sampler will record; frames below are dropped
#: (the folded stack gets a ``<truncated>`` root so the loss is visible).
MAX_STACK_DEPTH = 128

#: tid -> tuple of live perf span labels, innermost last.  Tuples are
#: swapped whole (never mutated) so the sampler thread always reads a
#: consistent snapshot without a lock.
_SPANS: dict[int, tuple[str, ...]] = {}


def _frame_name(code) -> str:
    return f"{os.path.basename(code.co_filename)}:{code.co_name}"


class Sampler:
    """Aggregating wall-clock sampler.

    ``counts`` maps folded stacks to sample counts; ``samples`` is the
    grand total; ``wall_s`` is the sampled wall time (set on stop).
    """

    def __init__(
        self,
        hz: float = 97.0,
        *,
        on_label: Callable[[str], None] | None = None,
    ) -> None:
        if hz <= 0:
            raise ValueError("hz must be > 0")
        self.hz = float(hz)
        self.interval = 1.0 / float(hz)
        self.counts: dict[str, int] = {}
        self.samples = 0
        self.wall_s = 0.0
        self._on_label = on_label
        self._stop_event = threading.Event()
        self._thread: threading.Thread | None = None
        self._started_at: float | None = None

    # -- lifecycle --------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None

    def start(self) -> None:
        """Begin sampling (idempotent: a second start is a no-op)."""
        if self._thread is not None:
            return
        self._stop_event.clear()
        self._started_at = time.perf_counter()
        thread = threading.Thread(
            target=self._loop, name="repro-perf-sampler", daemon=True
        )
        self._thread = thread
        thread.start()

    def stop(self) -> None:
        """Stop sampling and join the thread (idempotent)."""
        thread = self._thread
        if thread is None:
            return
        self._stop_event.set()
        thread.join(timeout=5.0)
        self._thread = None
        if self._started_at is not None:
            self.wall_s += time.perf_counter() - self._started_at
            self._started_at = None

    # -- the sampling loop --------------------------------------------------

    def _loop(self) -> None:
        own = threading.get_ident()
        while not self._stop_event.wait(self.interval):
            try:
                self._sample(own)
            except Exception:  # noqa: BLE001 - never raise into the program
                continue

    def _sample(self, own_tid: int) -> None:
        for tid, frame in sys._current_frames().items():
            if tid == own_tid:
                continue
            parts: list[str] = []
            depth = 0
            while frame is not None and depth < MAX_STACK_DEPTH:
                parts.append(_frame_name(frame.f_code))
                frame = frame.f_back
                depth += 1
            if not parts:
                continue
            if frame is not None:  # bottomed out on the depth cap
                parts.append("<truncated>")
            parts.reverse()
            labels = _SPANS.get(tid)
            if labels:
                folded = ";".join(labels) + ";" + ";".join(parts)
                if self._on_label is not None:
                    self._on_label(labels[-1])
            else:
                folded = ";".join(parts)
            self.counts[folded] = self.counts.get(folded, 0) + 1
            self.samples += 1

    # -- output -------------------------------------------------------------

    def folded_text(self) -> str:
        """The profile in folded-stack text format, sorted for determinism."""
        lines = [f"{stack} {count}" for stack, count in sorted(self.counts.items())]
        return "\n".join(lines) + ("\n" if lines else "")

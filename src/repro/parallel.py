"""Process-pool execution layer for Monte-Carlo repetition.

Every quantitative claim in this reproduction is re-derived by seeded
repetition, and :mod:`repro.rng` derives each repetition's seed from
the experiment's master seed and a tag path — *not* from any shared
mutable stream.  Repetitions are therefore order-independent by
construction, which makes them embarrassingly parallel: executing
``run_once(seed)`` for each seed in a process pool yields element-for-
element the same results as a serial loop (a property the test suite
enforces for the flagship experiments).

Knobs
-----
* ``ExperimentConfig(jobs=N)`` — per-experiment worker count;
* ``REPRO_JOBS`` environment variable — process-wide default when the
  config leaves ``jobs`` unset;
* ``jobs=1`` (the default) — serial execution, no pool, no pickling;
* ``jobs=0`` — one worker per available CPU.

Work is dispatched in contiguous chunks (a few chunks per worker) so
per-task IPC overhead amortises across many cheap repetitions.  The
callable and a sample item must be picklable to cross the process
boundary; when they are not (e.g. an experiment passes a local
closure), execution falls back to the serial path — results are
identical either way, only wall-clock time differs — and a
``RuntimeWarning`` plus a log record explain why the pool was skipped.

Resilience
----------
:func:`resilient_map` is the hardened front end long campaigns use.
On top of :func:`parallel_map`'s equivalence guarantee it adds:

* **retry with exponential backoff** when a worker process dies
  (``BrokenProcessPool``): the pool is rebuilt and the affected chunks
  are resubmitted — exact, because chunk inputs are re-derived seeds,
  not consumed stream state.  After ``max_retries`` pool attempts the
  blamed chunk is executed in-process, so one poisoned worker cannot
  sink a campaign;
* **per-task timeouts** (``task_timeout`` seconds): a chunk that takes
  longer than ``task_timeout × len(chunk)`` is treated as hung, its
  workers are terminated, and it is retried like a crash;
* **chunk-level checkpoint/resume** via :class:`CampaignJournal`: each
  completed chunk is appended to a journal file, and
  ``resume=True`` restarts a killed campaign from the last completed
  chunk — final results are byte-identical to an uninterrupted run
  because the journal stores the actual chunk results and fixes the
  chunk geometry.

Observability
-------------
When a telemetry recorder is ambient (:mod:`repro.telemetry`),
:func:`resilient_map` reports the campaign as structured events:
``campaign_begin``/``campaign_end``, one ``chunk`` record per
completed chunk (wall time, pool queue wait, retry/timeout counts,
worker PID), and periodic ``progress`` heartbeats with an ETA.  Pool
workers run their chunks under an in-memory recorder and ship the
buffered events (engine runs, protocol phase markers, ...) back with
the results; the parent merges them into the stream tagged with the
chunk index.  The same heartbeat also goes to the ``repro.parallel``
logger at INFO level (``python -m repro ... --log-level INFO``), so
long campaigns are never silent.  ``REPRO_PROGRESS_SECS`` tunes the
heartbeat interval (default 5 s).  Telemetry never changes results:
journals store exactly the chunk results, with or without it.
"""

from __future__ import annotations

import base64
import hashlib
import json
import logging
import os
import pickle
import time
import warnings
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence, TypeVar

from repro.errors import ExperimentError
from repro.rng import spawn
from repro.telemetry.core import Telemetry, activate, get_active

__all__ = [
    "resolve_jobs",
    "parallel_map",
    "parallel_starmap",
    "resilient_map",
    "resilient_starmap",
    "CampaignJournal",
    "backoff_delay",
    "default_chunksize",
]

T = TypeVar("T")
R = TypeVar("R")

logger = logging.getLogger("repro.parallel")

#: Environment override for the progress-heartbeat interval (seconds).
_PROGRESS_INTERVAL_ENV = "REPRO_PROGRESS_SECS"
_PROGRESS_INTERVAL_DEFAULT = 5.0


def _progress_interval() -> float:
    raw = os.environ.get(_PROGRESS_INTERVAL_ENV, "").strip()
    if not raw:
        return _PROGRESS_INTERVAL_DEFAULT
    try:
        return max(0.0, float(raw))
    except ValueError:
        logger.warning(
            "%s must be a number, got %r; using %.1fs",
            _PROGRESS_INTERVAL_ENV,
            raw,
            _PROGRESS_INTERVAL_DEFAULT,
        )
        return _PROGRESS_INTERVAL_DEFAULT


class _ProgressReporter:
    """Campaign progress heartbeat: log records + telemetry events.

    One ``note()`` per completed chunk; a heartbeat fires when the
    configured interval has elapsed (and always on the final chunk).
    The ETA extrapolates from chunks completed *this session*, so a
    resumed campaign does not inherit the dead session's pace.
    """

    def __init__(
        self,
        total_chunks: int,
        total_items: int,
        telemetry: Telemetry | None,
        *,
        chunks_done: int = 0,
        items_done: int = 0,
    ) -> None:
        self.total_chunks = total_chunks
        self.total_items = total_items
        self.telemetry = telemetry
        self.done = self._initial_done = chunks_done
        self.items_done = items_done
        self.interval = _progress_interval()
        self._start = self._last = time.perf_counter()

    def note(self, items: int) -> None:
        self.done += 1
        self.items_done += items
        now = time.perf_counter()
        if self.done < self.total_chunks and now - self._last < self.interval:
            return
        self._last = now
        elapsed = now - self._start
        fresh = self.done - self._initial_done
        remaining = self.total_chunks - self.done
        eta = (elapsed / fresh) * remaining if fresh > 0 else 0.0
        logger.info(
            "campaign progress: %d/%d chunks (%d/%d items), elapsed %.1fs, eta %.1fs",
            self.done,
            self.total_chunks,
            self.items_done,
            self.total_items,
            elapsed,
            eta,
        )
        if self.telemetry is not None:
            self.telemetry.emit(
                "progress",
                done=self.done,
                total=self.total_chunks,
                items_done=self.items_done,
                items_total=self.total_items,
                elapsed_s=elapsed,
                eta_s=eta,
            )


def resolve_jobs(jobs: int | None = None) -> int:
    """Resolve a ``jobs`` setting to a concrete worker count.

    ``None`` defers to the ``REPRO_JOBS`` environment variable (itself
    defaulting to 1 — serial); ``0`` means "all CPUs"; negative values
    are rejected.
    """
    if jobs is None:
        raw = os.environ.get("REPRO_JOBS", "").strip()
        if not raw:
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            raise ExperimentError(
                f"REPRO_JOBS must be an integer, got {raw!r}"
            ) from None
    if jobs < 0:
        raise ExperimentError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def _picklable(*objects: Any) -> bool:
    try:
        for obj in objects:
            pickle.dumps(obj)
    except Exception:
        return False
    return True


def _warn_serial_fallback(fn: Callable[..., Any]) -> None:
    """Announce (warning + log) that a requested pool was skipped."""
    name = getattr(fn, "__qualname__", repr(fn))
    message = (
        f"parallel execution requested but {name} (or its items) is not "
        "picklable — e.g. a local closure or lambda; running serially "
        "instead.  Results are identical, but the requested speed-up is "
        "lost.  Move the callable to module level to enable the pool."
    )
    warnings.warn(message, RuntimeWarning, stacklevel=4)
    logger.warning(message)


#: Chunks handed to each worker; >1 smooths out uneven task durations.
_CHUNKS_PER_WORKER = 4


def default_chunksize(num_items: int, jobs: int) -> int:
    """Contiguous chunk length for dispatching ``num_items`` tasks."""
    return max(1, -(-num_items // (max(1, jobs) * _CHUNKS_PER_WORKER)))


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    *,
    jobs: int | None = None,
    chunksize: int | None = None,
) -> list[R]:
    """``[fn(item) for item in items]``, optionally across processes.

    Results are returned in input order, so the output is identical to
    the serial list comprehension whenever ``fn`` is deterministic per
    item — which every seeded repetition in this library is.  Worker
    exceptions propagate to the caller.
    """
    items = list(items)
    jobs = min(resolve_jobs(jobs), len(items))
    if jobs > 1 and not _picklable(fn, items[0]):
        _warn_serial_fallback(fn)
        jobs = 1
    if jobs <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    if chunksize is None:
        chunksize = default_chunksize(len(items), jobs)
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))


def _apply_args(task: tuple[Callable[..., Any], Sequence[Any]]) -> Any:
    fn, args = task
    return fn(*args)


def parallel_starmap(
    fn: Callable[..., R],
    argument_tuples: Iterable[Sequence[Any]],
    *,
    jobs: int | None = None,
    chunksize: int | None = None,
) -> list[R]:
    """``[fn(*args) for args in argument_tuples]`` with pool support."""
    tasks = [(fn, tuple(args)) for args in argument_tuples]
    return parallel_map(_apply_args, tasks, jobs=jobs, chunksize=chunksize)


# -- campaign journal ----------------------------------------------------


def _campaign_fingerprint(fn: Callable[..., Any], items: Sequence[Any]) -> str:
    """A stable digest of *which campaign this is*.

    Built from the callable's qualified name and the item list, so
    resuming with a different experiment or different seeds fails
    loudly instead of splicing unrelated results together.  Execution
    knobs — worker counts, backends, batch functions — deliberately do
    not enter the digest: a campaign journaled under one backend can
    resume under another (the parity suite makes that sound).
    """
    hasher = hashlib.sha256()
    hasher.update(getattr(fn, "__module__", "?").encode())
    hasher.update(b"\x1f")
    hasher.update(getattr(fn, "__qualname__", repr(fn)).encode())
    hasher.update(b"\x1f")
    try:
        hasher.update(pickle.dumps(list(items)))
    except Exception:
        hasher.update(repr(list(items)).encode())
    return hasher.hexdigest()


def _make_chunks(items: Sequence[T], chunksize: int) -> list[list[T]]:
    """Cut ``items`` into the contiguous chunks a campaign dispatches."""
    if chunksize < 1:
        raise ExperimentError(f"chunksize must be >= 1, got {chunksize}")
    items = list(items)
    return [items[i : i + chunksize] for i in range(0, len(items), chunksize)]


def _encode_chunk(results: Sequence[Any]) -> str:
    """One chunk's results as a journal payload: ``base64(pickle(...))``.

    Part of the journal's on-disk contract, like the fingerprint.
    """
    return base64.b64encode(pickle.dumps(list(results))).decode("ascii")


def _decode_chunk(payload: str) -> list[Any]:
    """Inverse of :func:`_encode_chunk`."""
    return pickle.loads(base64.b64decode(payload))


def _splice(
    num_chunks: int, results: dict[int, list[Any]], *, where: str
) -> list[Any]:
    """Reassemble completed chunks into the flat, in-order result list.

    Raises :class:`ExperimentError` when any chunk is missing — a
    splice must never silently drop or reorder results.
    """
    missing = [index for index in range(num_chunks) if index not in results]
    if missing:
        raise ExperimentError(
            f"{where}: cannot splice — chunk(s) {missing[:8]} of {num_chunks} "
            "never completed"
        )
    return [value for index in range(num_chunks) for value in results[index]]


class CampaignJournal:
    """Chunk-level checkpoint file for :func:`resilient_map` campaigns.

    The journal is a JSON-lines file: a header record pinning the
    campaign identity (a fingerprint of the callable and its items),
    the chunk geometry, and then one record per completed chunk with
    its pickled results.  Appends are flushed per chunk, so a killed
    campaign loses at most the chunk in flight; a truncated trailing
    line (torn write — a crash mid-:meth:`record_chunk`) is truncated
    away on load, like :class:`repro.monitor.tail.TailReader` does, so
    subsequent appends never concatenate onto the torn prefix.
    Corruption *before* the final line is a real error and raises.

    Resuming re-runs only the missing chunks and fixes ``chunksize``
    from the header, so the final result list is byte-identical to an
    uninterrupted run even if the worker count changed in between.
    """

    VERSION = 1

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = Path(path)
        self._chunksize: int | None = None

    # -- identity -----------------------------------------------------

    @staticmethod
    def fingerprint(fn: Callable[..., Any], items: Sequence[Any]) -> str:
        """A stable digest of *which campaign this is* (see
        :func:`_campaign_fingerprint`).  Changing the digest breaks
        resume of existing journals and must bump :attr:`VERSION`."""
        return _campaign_fingerprint(fn, items)

    # -- lifecycle ----------------------------------------------------

    def start(
        self,
        fingerprint: str,
        num_items: int,
        chunksize: int,
        *,
        resume: bool,
    ) -> dict[int, list[Any]]:
        """Open the journal; return the chunks already completed.

        With ``resume=False`` any existing file is replaced by a fresh
        header.  With ``resume=True`` the existing journal is loaded,
        its identity is checked against ``fingerprint``/``num_items``
        (mismatch raises :class:`ExperimentError`), the recorded chunk
        geometry is adopted, and completed chunk results are returned.
        A journal holding no complete record — empty, or a header torn
        by a crash mid-write — resumes as a fresh campaign.
        """
        loaded = self._load() if resume and self.path.exists() else None
        if loaded is not None:
            header, completed = loaded
            if header["fingerprint"] != fingerprint or header["items"] != num_items:
                raise ExperimentError(
                    f"journal {self.path} belongs to a different campaign "
                    "(fingerprint/items mismatch); refusing to resume"
                )
            self._chunksize = int(header["chunksize"])
            return completed
        self._chunksize = chunksize
        self.path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "kind": "header",
            "version": self.VERSION,
            "fingerprint": fingerprint,
            "items": num_items,
            "chunksize": chunksize,
        }
        with self.path.open("w", encoding="utf-8") as stream:
            stream.write(json.dumps(header) + "\n")
            stream.flush()
            os.fsync(stream.fileno())
        return {}

    @property
    def chunksize(self) -> int:
        if self._chunksize is None:
            raise ExperimentError("journal not started")
        return self._chunksize

    def record_chunk(self, index: int, results: list[Any]) -> None:
        """Append one completed chunk (flushed immediately)."""
        record = {"kind": "chunk", "index": index, "payload": _encode_chunk(results)}
        with self.path.open("a", encoding="utf-8") as stream:
            stream.write(json.dumps(record) + "\n")
            stream.flush()
            os.fsync(stream.fileno())

    # -- internals ----------------------------------------------------

    def _load(self) -> tuple[dict[str, Any], dict[int, list[Any]]] | None:
        """Parse the journal, truncating a torn final line in place.

        A crash mid-:meth:`record_chunk` leaves an unterminated (or
        otherwise undecodable) final line.  That line is *expected*
        debris, not corruption: it is logged, the file is truncated to
        the last good record, and the campaign resumes — so later
        appends start on a clean line instead of concatenating onto the
        torn prefix.  Undecodable lines with complete records *after*
        them cannot be explained by a torn write and raise.  Returns
        ``None`` when no complete record survives (an empty file, or a
        header torn by a crash in :meth:`start`).
        """
        data = self.path.read_bytes()
        lines = data.split(b"\n")
        tail = lines.pop()  # b"" when the file ends on a newline
        good_bytes = 0
        header: dict[str, Any] | None = None
        completed: dict[int, list[Any]] = {}
        parsed: list[tuple[int, dict[str, Any]]] = []
        torn_at: int | None = None
        for line_number, raw in enumerate(lines, start=1):
            try:
                record = json.loads(raw)
                if not isinstance(record, dict):
                    raise ValueError("record is not an object")
                if record.get("kind") == "chunk":
                    # Decode eagerly: a torn payload is torn debris too.
                    record["_results"] = _decode_chunk(record["payload"])
            except Exception:
                torn_at = line_number
                break
            parsed.append((line_number, record))
            good_bytes += len(raw) + 1
        if torn_at is not None and torn_at < len(lines):
            raise ExperimentError(
                f"journal {self.path} is corrupt at line {torn_at} with "
                "complete records after it; this is not a torn tail — "
                "refusing to guess (restart without --resume)"
            )
        if torn_at is not None or tail:
            logger.warning(
                "journal %s: truncating torn final line (crash mid-append); "
                "resuming from the last complete chunk",
                self.path,
            )
            with self.path.open("r+b") as stream:
                stream.truncate(good_bytes)
        if not parsed:
            return None
        for line_number, record in parsed:
            if record.get("kind") == "header":
                if record.get("version") != self.VERSION:
                    raise ExperimentError(
                        f"journal {self.path} has unsupported version "
                        f"{record.get('version')!r}"
                    )
                header = record
            elif record.get("kind") == "chunk":
                completed[int(record["index"])] = record["_results"]
        if header is None:
            raise ExperimentError(f"journal {self.path} has no header record")
        return header, completed


# -- resilient execution -------------------------------------------------


def _run_chunk(
    fn: Callable[[T], R],
    chunk: list[T],
    batch_fn: Callable[[list[T]], list[R]] | None = None,
) -> list[R]:
    if batch_fn is None:
        return [fn(item) for item in chunk]
    results = list(batch_fn(chunk))
    if len(results) != len(chunk):
        raise ExperimentError(
            f"batch_fn returned {len(results)} results for a chunk of "
            f"{len(chunk)} items; it must return exactly one per item"
        )
    return results


def _run_chunk_timed(
    fn: Callable[[T], R],
    chunk: list[T],
    batch_fn: Callable[[list[T]], list[R]] | None = None,
) -> dict[str, Any]:
    """Worker-side chunk runner that also captures telemetry.

    Activates a fresh in-memory recorder so everything the chunk's
    repetitions emit (engine run spans, protocol phase markers, ...)
    is buffered and shipped back to the parent with the results; the
    parent merges the events into its stream.  The results list is
    exactly what :func:`_run_chunk` would have produced.

    When the parent asked for profiling (``REPRO_PERF=<hz>`` in the
    inherited environment — see :mod:`repro.perf`), the chunk also runs
    under its own sampling-profiler session labelled ``pool.chunk``;
    the resulting ``perf_profile``/``perf_span`` records ride the same
    ship-back and are merged chunk-tagged like every other worker
    event, so the parent's log attributes samples per chunk.
    """
    from repro.perf import core as perf_core

    recorder = Telemetry.buffered()
    # An ambient session means this chunk runs *in the parent process*
    # (serial fallback / jobs=1): label it there instead of racing a
    # second sampler.  Otherwise honour the env gate a parent set for
    # its subprocess pool.
    ambient = perf_core.get_active()
    perf_session = None
    previous = None
    if ambient is not None:
        ambient.span_push("pool.chunk")
    else:
        perf_hz = perf_core.hz_from_env()
        if perf_hz is not None:
            perf_session = perf_core.PerfSession(perf_hz, memory=True)
            previous = perf_core.set_active(perf_session)
            perf_session.start()
            perf_session.span_push("pool.chunk")
    start = time.perf_counter()
    try:
        with activate(recorder):
            results = _run_chunk(fn, chunk, batch_fn)
    finally:
        if ambient is not None:
            ambient.span_pop()
        elif perf_session is not None:
            perf_session.span_pop()
            perf_session.stop()
            perf_core.set_active(previous)
            perf_session.emit(recorder)
    return {
        "results": results,
        "wall_s": time.perf_counter() - start,
        "pid": os.getpid(),
        "events": recorder.drain(),
    }


def backoff_delay(base: float, attempt: int, *, chunk_index: int = 0) -> float:
    """Exponential backoff with *seeded*, deterministic jitter.

    ``base * 2**(attempt-1)`` scaled by a factor in ``[0.5, 1.5)``
    drawn from a stream derived from ``(chunk_index, attempt)`` — the
    same chunk retried the same number of times always sleeps the same
    amount, so resilience behaviour is replayable, while distinct
    chunks/attempts decorrelate (no thundering-herd resubmission when
    many campaigns share a host).
    """
    if attempt < 1:
        return 0.0
    jitter = 0.5 + spawn(chunk_index, "retry-backoff", attempt).random()
    return base * (2 ** (attempt - 1)) * jitter


def _terminate_workers(executor: Any) -> None:
    """Hard-stop an executor whose workers may be hung or dead.

    ``shutdown(wait=True)`` would block forever on a hung task, so the
    pool is abandoned without waiting and its worker processes are
    terminated best-effort (via the executor's process table).
    """
    # Snapshot the process table first: shutdown() clears it.
    processes = list((getattr(executor, "_processes", None) or {}).values())
    executor.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        try:
            process.terminate()
        except Exception:  # pragma: no cover - platform-specific races
            pass


def resilient_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    *,
    jobs: int | None = None,
    chunksize: int | None = None,
    task_timeout: float | None = None,
    max_retries: int = 3,
    backoff_base: float = 0.25,
    journal: str | os.PathLike[str] | CampaignJournal | None = None,
    resume: bool = False,
    batch_fn: Callable[[list[T]], list[R]] | None = None,
) -> list[R]:
    """:func:`parallel_map` hardened for long campaigns (see module docs).

    Equivalent to ``[fn(item) for item in items]`` in value, with worker
    death retried (exponential backoff, serial fallback after
    ``max_retries``), hung chunks timed out after ``task_timeout``
    seconds per task, and completed chunks checkpointed to ``journal``.
    Exceptions raised by ``fn`` itself are deterministic and propagate
    immediately — only infrastructure failures are retried.

    ``batch_fn``, when given, runs a whole chunk in one call instead of
    ``fn`` item by item — the hook the vectorized backend uses to
    advance a chunk's trials simultaneously.  It must return exactly
    one result per item, in order, and must agree with ``fn`` on every
    item (the backend parity suite enforces this for the engine
    backends): journals are fingerprinted by ``fn`` alone, so a
    campaign journaled under one backend can resume under the other.
    """
    items = list(items)
    if task_timeout is not None and task_timeout <= 0:
        raise ExperimentError(f"task_timeout must be positive, got {task_timeout}")
    if max_retries < 0:
        raise ExperimentError(f"max_retries must be >= 0, got {max_retries}")
    jobs = min(resolve_jobs(jobs), len(items)) if items else 1
    if chunksize is None:
        chunksize = default_chunksize(len(items), max(1, jobs))

    journal_obj: CampaignJournal | None
    if journal is None:
        journal_obj = None
        completed: dict[int, list[Any]] = {}
    else:
        journal_obj = (
            journal if isinstance(journal, CampaignJournal) else CampaignJournal(journal)
        )
        fingerprint = CampaignJournal.fingerprint(fn, items)
        completed = journal_obj.start(
            fingerprint, len(items), chunksize, resume=resume
        )
        chunksize = journal_obj.chunksize  # resumed geometry wins

    chunks = _make_chunks(items, chunksize)
    results: dict[int, list[Any]] = {
        index: chunk_results
        for index, chunk_results in completed.items()
        if 0 <= index < len(chunks)
    }
    remaining = [index for index in range(len(chunks)) if index not in results]

    telemetry = get_active()
    if telemetry is not None:
        telemetry.emit(
            "campaign_begin",
            items=len(items),
            chunks=len(chunks),
            chunksize=chunksize,
            jobs=jobs,
            resumed_chunks=len(results),
        )
    campaign_t0 = time.perf_counter()
    stats = {"retries": 0, "timeouts": 0}
    progress = _ProgressReporter(
        len(chunks),
        len(items),
        telemetry,
        chunks_done=len(results),
        items_done=sum(len(chunks[index]) for index in results),
    )

    if remaining:
        use_pool = (
            jobs > 1
            and _picklable(fn, items[0])
            and (batch_fn is None or _picklable(batch_fn))
        )
        if jobs > 1 and not use_pool:
            _warn_serial_fallback(fn)
        if not use_pool:
            for index in remaining:
                chunk_t0 = time.perf_counter()
                chunk_results = _run_chunk(fn, chunks[index], batch_fn)
                results[index] = chunk_results
                if journal_obj is not None:
                    journal_obj.record_chunk(index, chunk_results)
                if telemetry is not None:
                    telemetry.emit(
                        "chunk",
                        index=index,
                        size=len(chunks[index]),
                        wall_s=time.perf_counter() - chunk_t0,
                        retries=0,
                        timeouts=0,
                        pid=os.getpid(),
                        mode="serial",
                    )
                progress.note(len(chunks[index]))
        else:
            stats = _resilient_pool_run(
                fn,
                chunks,
                remaining,
                results,
                jobs=jobs,
                task_timeout=task_timeout,
                max_retries=max_retries,
                backoff_base=backoff_base,
                journal_obj=journal_obj,
                telemetry=telemetry,
                progress=progress,
                batch_fn=batch_fn,
            )

    if telemetry is not None:
        telemetry.emit(
            "campaign_end",
            chunks=len(chunks),
            items=len(items),
            wall_s=time.perf_counter() - campaign_t0,
            retries=stats["retries"],
            timeouts=stats["timeouts"],
        )
    return _splice(len(chunks), results, where=f"journal {journal!r}" if journal else "campaign")


def _resilient_pool_run(
    fn: Callable[[T], R],
    chunks: list[list[T]],
    remaining: list[int],
    results: dict[int, list[Any]],
    *,
    jobs: int,
    task_timeout: float | None,
    max_retries: int,
    backoff_base: float,
    journal_obj: CampaignJournal | None,
    telemetry: "Telemetry | None" = None,
    progress: "_ProgressReporter | None" = None,
    batch_fn: Callable[[list[T]], list[R]] | None = None,
) -> dict[str, int]:
    """Drive the pending chunks through a pool, surviving worker failures.

    Returns campaign-level resilience stats (total retries/timeouts).
    With a live ``telemetry`` recorder, chunks run via
    :func:`_run_chunk_timed`: each chunk ships back its worker-side
    events (merged into the parent's stream tagged with the chunk
    index) plus wall time, from which queue wait is derived.
    """
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures import TimeoutError as FutureTimeout
    from concurrent.futures.process import BrokenProcessPool

    runner = _run_chunk_timed if telemetry is not None else _run_chunk
    attempts = {index: 0 for index in remaining}
    timeouts = {index: 0 for index in remaining}
    submit_ts: dict[int, float] = {}
    executor = ProcessPoolExecutor(max_workers=jobs)
    futures = {}
    for index in remaining:
        futures[index] = executor.submit(runner, fn, chunks[index], batch_fn)
        submit_ts[index] = time.perf_counter()

    def _record_chunk(index: int, payload: Any, *, fallback: bool = False) -> list[Any]:
        """Unwrap a finished chunk, merging worker telemetry if present."""
        if telemetry is None:
            return payload
        if fallback:
            # In-process fallback ran _run_chunk under the parent's
            # ambient recorder; events already streamed directly.
            chunk_results = payload
            wall_s = 0.0
            queue_s = 0.0
            pid = os.getpid()
        else:
            chunk_results = payload["results"]
            wall_s = payload["wall_s"]
            pid = payload["pid"]
            waited = time.perf_counter() - submit_ts[index]
            queue_s = max(0.0, waited - wall_s)
            for event in payload["events"]:
                event["chunk"] = index
                telemetry.write_record(event)
        telemetry.emit(
            "chunk",
            index=index,
            size=len(chunks[index]),
            wall_s=wall_s,
            queue_s=queue_s,
            pid=pid,
            retries=attempts[index],
            timeouts=timeouts[index],
            mode="fallback" if fallback else "pool",
        )
        return chunk_results

    position = 0
    try:
        while position < len(remaining):
            index = remaining[position]
            allowance = (
                None if task_timeout is None else task_timeout * len(chunks[index])
            )
            try:
                payload = futures[index].result(timeout=allowance)
                chunk_results = _record_chunk(index, payload)
            except (BrokenProcessPool, FutureTimeout) as exc:
                # Infrastructure failure: the worker died or the chunk
                # hung.  Blame the chunk at the head of the line; later
                # chunks are resubmitted as collateral without burning
                # their own retry budget.
                attempts[index] += 1
                if isinstance(exc, FutureTimeout):
                    timeouts[index] += 1
                _terminate_workers(executor)
                still_pending = remaining[position:]
                if attempts[index] > max_retries:
                    if isinstance(exc, FutureTimeout):
                        raise ExperimentError(
                            f"chunk {index} ({len(chunks[index])} tasks) timed "
                            f"out after {attempts[index]} attempts of "
                            f"{allowance:.1f}s each; aborting the campaign"
                        ) from exc
                    logger.warning(
                        "chunk %d killed its worker %d times; running it "
                        "in-process (exact: inputs are re-derived seeds)",
                        index,
                        attempts[index],
                    )
                    chunk_results = _record_chunk(
                        index, _run_chunk(fn, chunks[index], batch_fn), fallback=True
                    )
                    executor = ProcessPoolExecutor(max_workers=jobs)
                    futures = {}
                    for later in still_pending[1:]:
                        futures[later] = executor.submit(
                            runner, fn, chunks[later], batch_fn
                        )
                        submit_ts[later] = time.perf_counter()
                else:
                    delay = backoff_delay(
                        backoff_base, attempts[index], chunk_index=index
                    )
                    logger.warning(
                        "%s on chunk %d; retry %d/%d after %.2fs backoff",
                        type(exc).__name__,
                        index,
                        attempts[index],
                        max_retries,
                        delay,
                    )
                    time.sleep(delay)
                    executor = ProcessPoolExecutor(max_workers=jobs)
                    futures = {}
                    for pending in still_pending:
                        futures[pending] = executor.submit(
                            runner, fn, chunks[pending], batch_fn
                        )
                        submit_ts[pending] = time.perf_counter()
                    continue
            results[index] = chunk_results
            if journal_obj is not None:
                journal_obj.record_chunk(index, chunk_results)
            if progress is not None:
                progress.note(len(chunks[index]))
            position += 1
    except KeyboardInterrupt:
        # Re-raise promptly, but never leave orphaned children behind:
        # shutdown(wait=False) alone would abandon live (possibly hung)
        # worker processes.  The journal already holds every completed
        # chunk, so ^C + --resume loses at most the chunks in flight.
        logger.warning("interrupted; terminating pool workers before re-raising")
        _terminate_workers(executor)
        raise
    finally:
        executor.shutdown(wait=False, cancel_futures=True)
    return {
        "retries": sum(attempts.values()),
        "timeouts": sum(timeouts.values()),
    }


def resilient_starmap(
    fn: Callable[..., R],
    argument_tuples: Iterable[Sequence[Any]],
    *,
    jobs: int | None = None,
    chunksize: int | None = None,
    task_timeout: float | None = None,
    max_retries: int = 3,
    backoff_base: float = 0.25,
    journal: str | os.PathLike[str] | CampaignJournal | None = None,
    resume: bool = False,
) -> list[R]:
    """``[fn(*args) for args in argument_tuples]`` with full resilience."""
    tasks = [(fn, tuple(args)) for args in argument_tuples]
    return resilient_map(
        _apply_args,
        tasks,
        jobs=jobs,
        chunksize=chunksize,
        task_timeout=task_timeout,
        max_retries=max_retries,
        backoff_base=backoff_base,
        journal=journal,
        resume=resume,
    )

"""Per-layer tracing of the program from outside it.

:class:`Tracer` wraps the public entry points of each layer of
``repro`` — class methods on their class, functions under every name a
``repro`` module binds them to — and :meth:`Tracer.uninstall` puts the
originals back.  No source under ``src/`` changes.

Calls are recorded in one of three ways:

* **spans** — one in-memory record per call (name, start, end, parent
  span, time covered by children), for layer boundaries such as a
  table, an engine run or a graph build.  A span's self time is its
  duration minus its children's.
* **tallies** — a call count and total seconds per key, for hooks that
  run millions of times (protocol ``act``/``on_observe``, RNG stream
  spawns, fault-schedule checks).  No per-call object is kept; a
  tally's time still counts as child time of the enclosing span.
  Reentrant calls of one tally family (``super().act`` chains,
  ``spawn_for_node`` calling ``spawn``) are counted once, at the
  outermost call.
* **observers** — untimed counters read from a call's arguments and
  result (graph writes, slots advanced, batch lane use).

:meth:`Tracer.metrics` turns the records into the benchmark's per-layer
metrics; :meth:`Tracer.write` writes every span out once the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable

#: Pure-Python modules whose entry points are wrapped.
LAYER_MODULES = (
    "repro.analysis.tables",
    "repro.core.bounds",
    "repro.core.decay",
    "repro.graphs.generators",
    "repro.graphs.matrix",
    "repro.graphs.properties",
    "repro.lowerbound.bruteforce",
    "repro.parallel",
    "repro.protocols",
    "repro.rng",
    "repro.sim.engine",
    "repro.sim.faults",
    "repro.sim.mobility",
)

#: Index of each field in a span record.
NAME, START, END, PARENT, CHILD_S, IN_TALLY = range(6)


def _repro_modules() -> list[Any]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list[Any]] = []
        self.tallies: dict[Any, list[float]] = {}  # key -> [calls, seconds, transmits]
        self.counters: Counter[str] = Counter()
        self._stack: list[int] = []
        self._open_tallies: set[str] = set()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- wrappers -------------------------------------------------------

    def span(
        self,
        name: str,
        fn: Callable[..., Any],
        *,
        before: Callable[[tuple], Any] | None = None,
        after: Callable[[Any, tuple, dict, Any], None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` recording one span per call.

        ``before(args)`` runs ahead of the call; its value is handed to
        ``after(token, args, kwargs, result)``, which may add counters.
        """
        spans, stack, clock, open_tallies = (
            self.spans, self._stack, self.clock, self._open_tallies,
        )

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            token = before(args) if before is not None else None
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0, bool(open_tallies)]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = end = clock()
                stack.pop()
                # Time spent inside a tally is already counted as the
                # tally's, which credits the enclosing span itself.
                if record[PARENT] >= 0 and not record[IN_TALLY]:
                    spans[record[PARENT]][CHILD_S] += end - record[START]
            if after is not None:
                after(token, args, kwargs, result)
            return result

        return wrapper

    def tally(
        self,
        family: str,
        fn: Callable[..., Any],
        key: Callable[[tuple], Any] | None = None,
        transmit_type: type | None = None,
    ) -> Callable[..., Any]:
        """``fn`` adding each call to the tally ``key(args)`` (default:
        ``family``); with ``transmit_type``, results of that type are
        counted as well."""
        tallies, stack, spans, clock, open_tallies = (
            self.tallies, self._stack, self.spans, self.clock, self._open_tallies,
        )

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if family in open_tallies:
                return fn(*args, **kwargs)
            nested = bool(open_tallies)
            open_tallies.add(family)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                open_tallies.discard(family)
                k = key(args) if key is not None else family
                stat = tallies.get(k)
                if stat is None:
                    stat = tallies[k] = [0, 0.0, 0]
                stat[0] += 1
                stat[1] += dt
                if not nested and stack:
                    spans[stack[-1]][CHILD_S] += dt
            if transmit_type is not None and type(result) is transmit_type:
                stat[2] += 1
            return result

        return wrapper

    def observe(
        self, fn: Callable[..., Any], after: Callable[[tuple, dict, Any], None]
    ) -> Callable[..., Any]:
        """``fn`` calling ``after(args, kwargs, result)``; adds no time."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            after(args, kwargs, result)
            return result

        return wrapper

    def table_span(self, stem: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """A ``run_*_table`` function recording the span ``table.<stem>``."""
        return self.span(f"table.{stem}", fn)

    # -- patching -------------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def patch_method(self, cls: type, attr: str, make: Callable[[Any], Any]) -> None:
        """Replace ``cls.attr`` (defined on ``cls`` itself) by ``make(original)``."""
        self._set(cls, attr, make(vars(cls)[attr]))

    def patch_function(self, module: str, attr: str, make: Callable[[Any], Any]) -> None:
        """Replace ``module.attr`` by ``make(original)`` under every name a
        loaded ``repro`` module binds it to."""
        original = getattr(sys.modules[module], attr)
        wrapper = make(original)
        for mod in _repro_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Wrap every layer's entry points.

        The pure-Python layer modules are imported first, so a module the
        program imports lazily inside a function (``repro.sim.mobility``)
        hands out the wrapped names.  The NumPy layers are wrapped only
        when already loaded, as set-up does on the numpy backend.
        """
        for module in LAYER_MODULES:
            importlib.import_module(module)
        from repro.sim.engine import Engine
        from repro.sim.node import NodeProgram, Transmit

        counters = self.counters

        def add(name: str, amount: float = 1) -> None:
            counters[name] += amount

        # repro.experiments: spans come from table_span at the call site.
        # repro.protocols: every program class that defines a hook.
        pending = [NodeProgram]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            for hook in ("act", "on_observe"):
                if hook in vars(cls):
                    self.patch_method(
                        cls, hook,
                        lambda fn, hook=hook: self.tally(
                            "protocols", fn,
                            key=lambda args, hook=hook: (type(args[0]), hook),
                            transmit_type=Transmit if hook == "act" else None,
                        ),
                    )
        # repro.sim.engine
        self.patch_method(Engine, "__init__", lambda fn: self.span("engine.init", fn))
        self.patch_method(
            Engine, "run",
            lambda fn: self.span(
                "engine.run", fn,
                before=lambda args: args[0].slot,
                after=lambda slot0, args, kwargs, result: add(
                    "engine.slots", result.slots - slot0
                ),
            ),
        )
        # repro.rng
        for name in ("spawn", "spawn_for_node"):
            self.patch_function("repro.rng", name, lambda fn: self.tally("rng.spawn", fn))
        # repro.sim.vectorized and the repro.sim.mtstreams it imports
        vectorized = sys.modules.get("repro.sim.vectorized")
        if vectorized is not None:
            self.patch_method(
                vectorized.MTStreams, "__init__",
                lambda fn: self.span(
                    "mtstreams.init", fn,
                    after=lambda _, args, kwargs, result: add(
                        "mtstreams.streams", len(args[0])
                    ),
                ),
            )
            for name in ("run_decay_broadcast_batch", "run_aloha_batch"):
                self.patch_function(
                    "repro.sim.vectorized", name,
                    lambda fn: self.span(
                        "vectorized.batch", fn,
                        after=lambda _, args, kwargs, result: add(
                            "vectorized.trials", len(result)
                        ),
                    ),
                )

            def lanes(args: tuple, kwargs: dict, results: list) -> None:
                slots = [r.slots for r in results]
                if slots:
                    add("vectorized.trial_slots", sum(slots))
                    add("vectorized.lane_slots", len(slots) * max(slots))

            self.patch_method(
                vectorized._VectorBatch, "run", lambda fn: self.observe(fn, lanes)
            )
        # repro.sim.mobility and repro.sim.faults
        self.patch_function(
            "repro.sim.mobility", "mobility_fault_schedule",
            lambda fn: self.span("mobility.schedule", fn),
        )
        self.patch_function(
            "repro.sim.mobility", "edges_for_positions",
            lambda fn: self.span("mobility.edges", fn),
        )
        from repro.sim.faults import EdgeFault, FaultSchedule

        self.patch_method(
            FaultSchedule, "validate_for_graph", lambda fn: self.tally("faults.validate", fn)
        )
        self.patch_method(FaultSchedule, "by_slot", lambda fn: self.tally("faults.by_slot", fn))
        self.patch_method(
            EdgeFault, "apply",
            lambda fn: self.observe(fn, lambda a, k, r: add("faults.edge_apply.calls")),
        )
        # repro.graphs
        from repro.graphs import generators

        for name in generators.__all__:
            self.patch_function(
                "repro.graphs.generators", name, lambda fn: self.span("graphs.build", fn)
            )
        self.patch_function(
            "repro.graphs.matrix", "adjacency_matrix", lambda fn: self.span("graphs.matrix", fn)
        )
        for name in ("distances_from", "bfs_layers", "eccentricity", "diameter"):
            self.patch_function(
                "repro.graphs.properties", name, lambda fn: self.tally("graphs.distances", fn)
            )
        # repro.lowerbound
        self.patch_function(
            "repro.lowerbound.bruteforce", "exhaustive_cn_worst_case",
            lambda fn: self.span("lowerbound.exhaustive", fn),
        )
        # repro.core
        self.patch_function("repro.core.bounds", "p_exact", lambda fn: self.tally("core.p_exact", fn))
        self.patch_function(
            "repro.core.decay", "simulate_decay_game", lambda fn: self.tally("core.decay_game", fn)
        )
        # repro.parallel: dispatch spans around mapped-work spans.
        for name in ("parallel_map", "resilient_map"):
            self.patch_function("repro.parallel", name, self._map_wrapper)
        # repro.analysis.tables
        from repro.analysis.tables import Table

        self.patch_method(Table, "render", lambda fn: self.tally("tables.render", fn))

    def _map_wrapper(self, original: Callable[..., Any]) -> Callable[..., Any]:
        dispatch = self.span("parallel.map", original)

        @functools.wraps(original)
        def wrapper(fn: Callable[..., Any], items: Any, *args: Any, **kwargs: Any) -> Any:
            items = list(items)
            self.counters["parallel.items"] += len(items)
            if kwargs.get("batch_fn") is not None:
                kwargs["batch_fn"] = self.span("parallel.task", kwargs["batch_fn"])
            return dispatch(self.span("parallel.task", fn), items, *args, **kwargs)

        return wrapper

    # -- results --------------------------------------------------------

    def span_totals(self) -> dict[str, list[float]]:
        """Per span name: ``[calls, seconds, self seconds]``.

        ``seconds`` sums only outermost spans of a name, so a recursive
        or nested call of the same layer is not counted twice.
        """
        spans = self.spans
        totals: dict[str, list[float]] = {}
        for record in spans:
            name = record[NAME]
            duration = record[END] - record[START]
            agg = totals.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[2] += duration - record[CHILD_S]
            parent = record[PARENT]
            while parent >= 0 and spans[parent][NAME] != name:
                parent = spans[parent][PARENT]
            if parent < 0:
                agg[1] += duration
        return totals

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of the traced pass."""
        spans = self.span_totals()
        zero = [0, 0.0, 0.0]
        tallies = self.tallies
        counters = self.counters

        def span(name: str) -> list[float]:
            return spans.get(name, zero)

        def tally(name: str) -> list[float]:
            return tallies.get(name, zero)

        out: dict[str, float] = {
            f"{name}.s": agg[1] for name, agg in spans.items() if name.startswith("table.")
        }
        act_calls = transmits = 0
        for key, (calls, seconds, tx) in tallies.items():
            if isinstance(key, tuple):
                cls, hook = key
                out[f"protocols.{cls.__name__}.{hook}.calls"] = calls
                out[f"protocols.{cls.__name__}.{hook}.s"] = seconds
                if hook == "act":
                    act_calls += calls
                    transmits += tx
        out["protocols.act.transmit_ratio"] = transmits / act_calls if act_calls else 0.0
        lane_slots = counters["vectorized.lane_slots"]
        out.update({
            "engine.init.calls": span("engine.init")[0],
            "engine.init.s": span("engine.init")[1],
            "engine.run.calls": span("engine.run")[0],
            "engine.run.self_s": span("engine.run")[2],
            "engine.slots": counters["engine.slots"],
            "rng.spawn.calls": tally("rng.spawn")[0],
            "rng.spawn.s": tally("rng.spawn")[1],
            "mtstreams.init.calls": span("mtstreams.init")[0],
            "mtstreams.streams": counters["mtstreams.streams"],
            "mtstreams.init.s": span("mtstreams.init")[1],
            "vectorized.batch.calls": span("vectorized.batch")[0],
            "vectorized.trials": counters["vectorized.trials"],
            "vectorized.batch.self_s": span("vectorized.batch")[2],
            "vectorized.lane_util": (
                counters["vectorized.trial_slots"] / lane_slots if lane_slots else 0.0
            ),
            "mobility.schedule.calls": span("mobility.schedule")[0],
            "mobility.schedule.s": span("mobility.schedule")[1],
            "mobility.edges.calls": span("mobility.edges")[0],
            "mobility.edges.s": span("mobility.edges")[1],
            "faults.validate.s": tally("faults.validate")[1],
            "faults.by_slot.s": tally("faults.by_slot")[1],
            "faults.edge_apply.calls": counters["faults.edge_apply.calls"],
            "graphs.build.calls": span("graphs.build")[0],
            "graphs.build.s": span("graphs.build")[1],
            "graphs.matrix.calls": span("graphs.matrix")[0],
            "graphs.matrix.s": span("graphs.matrix")[1],
            "graphs.distances.s": tally("graphs.distances")[1],
            "lowerbound.exhaustive.calls": span("lowerbound.exhaustive")[0],
            "lowerbound.exhaustive.self_s": span("lowerbound.exhaustive")[2],
            "core.p_exact.s": tally("core.p_exact")[1],
            "core.decay_game.s": tally("core.decay_game")[1],
            "parallel.map.calls": span("parallel.map")[0],
            "parallel.items": counters["parallel.items"],
            "parallel.self_s": span("parallel.map")[2],
            "tables.render.s": tally("tables.render")[1],
        })
        return out

    def write(self, path: Path) -> None:
        """Write every span (one JSON array per line), then the tallies
        and counters, to ``path``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for record in self.spans:
                name, start, end, parent, child, _ = record
                out.write(json.dumps([name, round(start, 7), round(end, 7), parent, round(child, 7)]))
                out.write("\n")
            tallies = {
                (f"protocols.{k[0].__name__}.{k[1]}" if isinstance(k, tuple) else k): v
                for k, v in self.tallies.items()
            }
            out.write(json.dumps({"tallies": tallies, "counters": dict(self.counters)}))
            out.write("\n")

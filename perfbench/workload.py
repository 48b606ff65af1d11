"""One benchmark pass: call a workload's paper-table functions in this process.

Run as a fresh interpreter by ``perfbench/run.py``, once per pass::

    python3 perfbench/workload.py --workload det-gap --seed 20260706 [--trace SPANS_OUT] [--full]

The process clears the ambient ``REPRO_*`` variables that change the
measured program, runs BLAS on one thread, caches bytecode under
``perfbench/out/pycache``, puts the checkout's ``src`` on ``sys.path``,
imports the workload's experiment modules and resolves its backend (the
set-up that ``setup_s`` times), then calls the workload's public
``run_*_table`` functions at ``jobs=1`` and times each call.  Right
before each call it times a fixed pure-Python calibration probe.  The
last line of standard output is one JSON record of the pass.

The host's speed drifts by a fifth or more between runs a minute apart
(the probe's median moved 0.0188-0.0259 s over five runs); a program
time taken alone follows it.  So each pass also reports
``host_scale``, :data:`PROBE_REFERENCE_S` over the mean of its probes
raised to :data:`LOAD_EXPONENT`, and ``run.py`` multiplies the pass's
times by it: seconds at the reference host speed.

A workload has two lists of table calls:

* ``parts`` -- the timed calls.  Each is a slice of a paper table (one
  topology family of E2, one size of E5, ...) at reduced reps, so that
  one call takes 0.1-1 s: the probes between them then follow the
  host's speed through the pass, and a run holds ten or more passes.
* ``tables`` -- the paper tables at the configs of ``benchmarks/bench_*.py``
  at ``REPRO_BENCH_SCALE=full`` (``--full``); untimed, run once per
  run at the committed seed for the golden gate.

At the committed seed every rendered table is byte-compared with its
golden: ``benchmarks/results/<stem>.txt`` for the committed full
tables, ``perfbench/golden/<label>.txt`` for the parts and for full
tables with no committed file (those goldens are the tables computed on
the ``reference`` backend).  At any other seed only exceptions count as
failures here; ``run.py`` also requires every pass of a run to render
the same bytes.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = ROOT / "benchmarks" / "results"
GOLDEN_DIR = BENCH_DIR / "golden"
PYCACHE_DIR = BENCH_DIR / "out" / "pycache"

#: The seed the committed tables were generated with.
COMMITTED_SEED = 20260706

#: Ambient variables that change what the measured program does.
AMBIENT_VARS = (
    "REPRO_JOBS",
    "REPRO_BACKEND",
    "REPRO_PROVENANCE",
    "REPRO_PERF",
    "REPRO_PROGRESS_SECS",
    "REPRO_TRACE_ID",
    "REPRO_SPAN_ID",
    "REPRO_BENCH_SCALE",
)

#: Set in every pass: BLAS runs one thread, as the program's own work runs
#: in one process (jobs=1).  On a small shared host the OpenBLAS thread
#: pool's start-up alone moves the NumPy import between 0.1 and 0.2 s.
PINNED_VARS = {"OPENBLAS_NUM_THREADS": "1"}

#: Iterations of the calibration probe.
CALIBRATION_ITERATIONS = 80_000
#: The probe's time at the reference host speed: about its median on a
#: 2-vCPU shared Intel Xeon VM, Python 3.11.
PROBE_REFERENCE_S = 0.016
#: How the program's time follows the probe's: a load that makes the
#: probe k times slower makes a pass about k ** LOAD_EXPONENT times
#: slower.  Fitted over the passes of twenty runs on that VM
#: (0.75-0.80 on the three reference-backend workloads; less on
#: ``gap-batch``, whose parts run mostly in NumPy and C).
LOAD_EXPONENT = 0.8


@dataclass(frozen=True)
class TableSpec:
    """One call of a paper table's ``run_*`` function: where it lives,
    its config and keyword arguments, and its golden."""

    stem: str
    module: str
    function: str
    reps: int
    quick: bool = False
    golden_dir: Path = RESULTS_DIR
    #: Keyword arguments of the call, as ``(name, value)`` pairs.
    options: tuple[tuple[str, object], ...] = ()
    #: Tells apart the parts of one table; empty for a whole table.
    part: str = ""

    @property
    def label(self) -> str:
        return f"{self.stem}.{self.part}" if self.part else self.stem

    def golden(self) -> Path:
        return self.golden_dir / f"{self.label}.txt"


@dataclass(frozen=True)
class Workload:
    backend: str
    tables: tuple[TableSpec, ...]
    parts: tuple[TableSpec, ...] = ()

    def specs(self, full: bool) -> tuple[TableSpec, ...]:
        return self.tables if full else self.parts

    @property
    def modules(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(spec.module for spec in self.tables + self.parts))


_GAP = "repro.experiments.exp_gap"
_EXH = "repro.experiments.exp_exhaustive"
_DFS = "repro.experiments.exp_dfs"
_DECAY = "repro.experiments.exp_decay"
_BCAST = "repro.experiments.exp_broadcast"
_DYN = "repro.experiments.exp_dynamic"


def _part(stem, module, function, reps, part, **options) -> TableSpec:
    return TableSpec(
        stem, module, function, reps, golden_dir=GOLDEN_DIR,
        options=tuple(sorted(options.items())), part=part,
    )


#: ``tables``: the configs of ``benchmarks/bench_*.py`` at
#: ``REPRO_BENCH_SCALE=full``.  ``parts``: the timed slices of them.
WORKLOADS: dict[str, Workload] = {
    "det-gap": Workload(
        "reference",
        (
            TableSpec("e5_gap", _GAP, "run_gap_table", 15),
            TableSpec("e4d_exhaustive", _EXH, "run_exhaustive_table", 10),
            TableSpec("e11_dfs", _DFS, "run_dfs_table", 10),
            TableSpec(
                "e11b_deterministic_comparison", _DFS,
                "run_deterministic_comparison_table", 10,
            ),
        ),
        (
            _part("e5_gap", _GAP, "run_gap_table", 4, "n128", sizes=(128,)),
            _part("e5_gap", _GAP, "run_gap_table", 2, "n256", sizes=(256,)),
            _part("e4d_exhaustive", _EXH, "run_exhaustive_table", 10, "n8", sizes=(8,)),
            _part("e4d_exhaustive", _EXH, "run_exhaustive_table", 10, "n9", sizes=(9,)),
            _part("e11_dfs", _DFS, "run_dfs_table", 10, "all"),
            _part(
                "e11b_deterministic_comparison", _DFS,
                "run_deterministic_comparison_table", 10, "all",
            ),
        ),
    ),
    "decay-mc": Workload(
        "reference",
        (
            TableSpec("e1_decay", _DECAY, "run_theorem1_table", 400),
            TableSpec("e2_broadcast_time", _BCAST, "run_broadcast_time_table", 25),
            TableSpec("e3_success_rate", _BCAST, "run_success_rate_table", 200),
        ),
        (
            _part("e1_decay", _DECAY, "run_theorem1_table", 8, "all"),
            *(
                _part(
                    "e2_broadcast_time", _BCAST, "run_broadcast_time_table", 2,
                    family, families=(family,),
                )
                for family in ("line", "gnp", "udg", "layered", "smallworld")
            ),
            _part("e3_success_rate", _BCAST, "run_success_rate_table", 8, "all"),
        ),
    ),
    "mobility": Workload(
        "reference",
        (
            TableSpec("e9_dynamic", _DYN, "run_dynamic_table", 30),
            TableSpec("e9b_mobility", _DYN, "run_mobility_table", 20),
        ),
        (
            _part("e9_dynamic", _DYN, "run_dynamic_table", 3, "all"),
            _part("e9b_mobility", _DYN, "run_mobility_table", 2, "v0-005", speeds=(0.0, 0.005)),
            _part("e9b_mobility", _DYN, "run_mobility_table", 2, "v02", speeds=(0.02,)),
            _part("e9b_mobility", _DYN, "run_mobility_table", 2, "v05", speeds=(0.05,)),
        ),
    ),
    "gap-batch": Workload(
        "auto",
        (
            TableSpec(
                "e5_gap_batch", _GAP, "run_gap_table", 1000,
                quick=True, golden_dir=GOLDEN_DIR,
            ),
        ),
        tuple(
            _part(
                "e5_gap_batch", _GAP, "run_gap_table", 500, f"n{n}",
                sizes=(n,), hidden_set_count=2,
            )
            for n in (8, 16, 32, 64)
        ),
    ),
}


def pin_env(environ: dict[str, str] | os._Environ = os.environ) -> list[str]:
    """Remove the ambient ``REPRO_*`` variables and set :data:`PINNED_VARS`;
    return the names removed."""
    removed = [name for name in AMBIENT_VARS if name in environ]
    for name in removed:
        del environ[name]
    environ.update(PINNED_VARS)
    return removed


def calibrate(iterations: int = CALIBRATION_ITERATIONS) -> float:
    """Seconds for a fixed pure-Python loop: a host-speed probe.

    The loop mixes what the measured program's hot paths do -- method
    calls, dict and set updates, draws from ``random.Random`` -- so
    that a slow host slows it about as much as it slows the program.
    The garbage collector is off meanwhile, so that the program's heap
    does not change the probe's time."""
    collecting = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    rng = random.Random(12345)
    counts: dict[int, int] = {}
    heard: set[int] = set()
    for i in range(iterations):
        slot = i % 97
        counts[slot] = counts.get(slot, 0) + 1
        if rng.random() < 0.5:
            heard.add(slot)
        else:
            heard.discard(slot)
    elapsed = time.perf_counter() - t0
    if collecting:
        gc.enable()
    return elapsed


def host_scale(probes: dict[str, float]) -> float:
    """The factor that brings times taken beside ``probes`` to the
    reference host speed."""
    return (PROBE_REFERENCE_S / statistics.fmean(probes.values())) ** LOAD_EXPONENT


def peak_rss_mib() -> float:
    """This process's peak resident set (``VmHWM``), in MiB."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def setup(workload: Workload) -> tuple[str, dict[str, object]]:
    """Import the workload's modules and resolve its backend.

    Returns the resolved backend and the imported experiment modules.
    On the numpy backend the vectorized engine is imported here too, so
    it is loaded (and traceable) before the first table call.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro  # noqa: F401
    from repro.sim.backends import resolve_backend

    modules = {name: importlib.import_module(name) for name in workload.modules}
    backend = resolve_backend(workload.backend)
    if backend == "numpy":
        importlib.import_module("repro.sim.vectorized")
    return backend, modules


def render_tables(spec: TableSpec, table) -> str:
    """The bytes ``benchmarks/bench_*.py`` writes for this table; a whole
    E5 table carries its companion fit table."""
    tables = [table]
    if spec.function == "run_gap_table" and not spec.part:
        tables.append(_gap_fit_table(table))
    return "\n\n".join(t.render() for t in tables) + "\n"


def _gap_fit_table(table):
    """E5's companion fit table, exactly as ``bench_gap.py`` builds it."""
    from repro.analysis.tables import Table
    from repro.experiments.exp_gap import gap_growth_fits

    fits = gap_growth_fits(table)
    fit_table = Table(
        "E5 fits — growth-law classification (Corollary 13's shape)",
        ["curve", "model", "slope", "r_squared"],
    )
    for curve, model, key in (
        ("randomized", "a + b*log2(n)^2", "randomized_vs_log2sq"),
        ("randomized", "a + b*n", "randomized_vs_n"),
        ("round-robin", "a + b*n", "round_robin_vs_n"),
        ("dfs", "a + b*n", "dfs_vs_n"),
    ):
        fit_table.add_row(curve, model, fits[key]["slope"], fits[key]["r_squared"])
    return fit_table


def run_tables(workload, modules, seed, *, full=True, wrap=None, backend=None, probes=None):
    """Call every table (``full``) or every part of ``workload`` once.

    ``wrap(stem, fn)`` may replace each table function (the tracer uses
    it to open a span per table).  Returns ``(seconds, rendered, errors)``
    keyed by label: each call's time from the call to its rendered
    bytes, the bytes (absent when the call raised) and a traceback
    string per call that raised.  When ``probes`` is a dict, the
    calibration loop is timed right before each call and stored in it
    under the call's label.
    """
    from repro.experiments.runner import ExperimentConfig

    seconds: dict[str, float] = {}
    rendered: dict[str, str] = {}
    errors: dict[str, str] = {}
    for spec in workload.specs(full):
        fn = getattr(modules[spec.module], spec.function)
        if wrap is not None:
            fn = wrap(spec.stem, fn)
        if probes is not None:
            probes[spec.label] = calibrate()
        t0 = time.perf_counter()
        try:
            config = ExperimentConfig(
                reps=spec.reps,
                master_seed=seed,
                quick=spec.quick,
                jobs=1,
                backend=backend or workload.backend,
            )
            rendered[spec.label] = render_tables(spec, fn(config, **dict(spec.options)))
        except Exception:  # one failed table must not hide the others
            errors[spec.label] = traceback.format_exc()
        seconds[spec.label] = time.perf_counter() - t0
    return seconds, rendered, errors


def check_tables(specs, seed, rendered, errors) -> dict[str, str]:
    """Failure reason per failed call of ``specs``: exceptions, and golden
    mismatches at the committed seed."""
    failures = {label: "raised" for label in errors}
    if seed != COMMITTED_SEED:
        return failures
    for spec in specs:
        if spec.label in errors:
            continue
        golden = spec.golden()
        if not golden.is_file():
            failures[spec.label] = f"golden {golden.name} missing"
        elif golden.read_bytes() != rendered[spec.label].encode("utf-8"):
            failures[spec.label] = f"differs from {golden.name}"
    return failures


def versions() -> dict[str, object]:
    from importlib import metadata

    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv: list[str] | None = None) -> int:
    t_start = time.perf_counter()
    removed = pin_env()
    # Set-up is timed with bytecode cached, as on a user's second import,
    # whatever PYTHONDONTWRITEBYTECODE says; the cache stays out of src/.
    sys.dont_write_bytecode = False
    sys.pycache_prefix = str(PYCACHE_DIR)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--trace", type=Path, metavar="SPANS_OUT",
        help="record per-layer spans and write them to SPANS_OUT",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="call the whole tables at their paper configs instead of the timed parts",
    )
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    backend, modules = setup(workload)
    setup_s = time.perf_counter() - t_start
    record: dict[str, object] = {"setup_s": setup_s, "backend": backend, "env_cleared": removed}

    tracer = None
    if args.trace is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    probes: dict[str, float] = {}
    seconds, rendered, errors = run_tables(
        workload, modules, args.seed, full=args.full,
        wrap=tracer.table_span if tracer else None, probes=probes,
    )
    if tracer is not None:
        tracer.uninstall()
    for label, tb in errors.items():
        print(f"table {label} raised:\n{tb}", file=sys.stderr)
    failures = check_tables(workload.specs(args.full), args.seed, rendered, errors)
    for label, reason in failures.items():
        print(f"table {label} failed: {reason}", file=sys.stderr)
    record.update(
        seed=args.seed,
        full=args.full,
        jobs=1,
        wall_s=sum(seconds.values()),
        seconds=seconds,
        sha256={
            label: hashlib.sha256(text.encode("utf-8")).hexdigest()
            for label, text in rendered.items()
        },
        calib_s=probes,
        host_scale=host_scale(probes),
        peak_rss_mib=peak_rss_mib(),
        tables=len(seconds),
        failed=sorted(failures),
        **versions(),
    )
    if tracer is not None:
        record["layers"] = tracer.metrics()
        tracer.write(args.trace)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

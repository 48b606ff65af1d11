"""Paper-table benchmark: regenerate slices of the paper's tables and time them.

Run from the root of a checkout::

    python3 perfbench/run.py --workload det-gap --seed 20260706 --seconds 25 --trace 0

Workloads and metric names are declared in ``BENCHMARK.json``; the
table calls each workload makes are in ``perfbench/workload.py``.

``--trace 0`` measures the end-to-end metrics, untraced.  At the
committed seed it first regenerates the workload's whole paper tables
once, untimed, for the golden gate.  Then it runs passes -- each a
fresh interpreter that sets up and calls every timed part of the
workload once at ``--seed`` -- until ``--seconds`` is spent.  The first
pass warms the bytecode and page caches and is not timed.  ``wall_s``,
``setup_s`` and ``peak_rss_mib`` are medians over the other passes;
the two times are each pass's own, brought to the reference host speed
by the calibration probes timed in that pass (see ``workload.py``).

``--trace 1`` gives the per-layer metrics: a warm-up pass, two untraced
passes, then one traced pass whose spans are written to
``perfbench/out/``; ``trace.overhead`` is the traced pass's time over
the untraced one's.

Every pass byte-checks its tables (see ``workload.py``), and every pass
of a run must render the same bytes as its first.  The last line of
standard output is the result object; the lines before it record each
pass with its seed, backend, versions, host calibration time and
failures, and each part's median time.  The exit code is
non-zero when any table failed.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workload import COMMITTED_SEED

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_SCRIPT = BENCH_DIR / "workload.py"
OUT_DIR = BENCH_DIR / "out"

#: A run stops (and fails) once it has taken this long.
RUN_BUDGET_S = 170


class BenchError(RuntimeError):
    """The benchmark cannot run here."""


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as spec:
        return json.load(spec)


def git_sha() -> str | None:
    """The checkout's commit, or None when it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_pass(workload: str, seed: int, deadline: float, *extra: str) -> dict:
    """One fresh-interpreter pass, killed at ``deadline``; its JSON record."""
    done = subprocess.run(
        [sys.executable, str(WORKLOAD_SCRIPT), "--workload", workload, "--seed", str(seed), *extra],
        cwd=ROOT, capture_output=True, text=True,
        timeout=max(0.0, deadline - time.perf_counter()),
    )
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"workload pass exited {done.returncode}")
    return json.loads(lines[-1])


def scaled(record: dict, key: str) -> float:
    """A pass's time ``key`` at the reference host speed (see ``workload.py``)."""
    return record[key] * record["host_scale"]


def check_repeats(passes: list[dict]) -> None:
    """Add to each pass's ``failed`` the tables whose bytes differ from the
    first pass's: one seed must give one output."""
    first = passes[0]["sha256"]
    for record in passes[1:]:
        for label, digest in record["sha256"].items():
            if label in first and digest != first[label]:
                record["failed"].append(f"{label} (differs from the first pass)")


def timed_passes(workload: str, seed: int, seconds: float, deadline: float) -> list[dict]:
    """Passes until ``seconds`` is spent (at least a warm-up and one more)."""
    passes: list[dict] = []
    t0 = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        passes.append(run_pass(workload, seed, deadline))
        elapsed = time.perf_counter() - t0
        # Start another pass only if it should end within the budget.
        if len(passes) >= 2 and elapsed + (time.perf_counter() - t_pass) > seconds:
            break
    check_repeats(passes)
    return passes


def measure(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, list[dict]]:
    """Untraced: the golden gate of the whole tables at the committed seed,
    then timed passes of the parts."""
    gate = [run_pass(workload, seed, deadline, "--full")] if seed == COMMITTED_SEED else []
    passes = timed_passes(workload, seed, seconds, deadline)
    timed = passes[1:]  # the first pass is the warm-up
    metrics = {
        "wall_s": statistics.median(scaled(p, "wall_s") for p in timed),
        "setup_s": statistics.median(scaled(p, "setup_s") for p in timed),
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in timed),
    }
    return metrics, gate + passes


def trace(workload: str, seed: int, deadline: float) -> tuple[dict, list[dict]]:
    """A warm-up pass, two untraced passes and one traced pass."""
    plain = [run_pass(workload, seed, deadline) for _ in range(3)]
    spans_out = OUT_DIR / f"spans-{workload}-{seed}.jsonl"
    traced = run_pass(workload, seed, deadline, "--trace", str(spans_out))
    passes = plain + [traced]
    check_repeats(passes)
    metrics = dict(traced["layers"])
    plain_s = statistics.median(scaled(p, "wall_s") for p in plain[1:])
    metrics["trace.overhead"] = scaled(traced, "wall_s") / plain_s
    return metrics, passes


def summary(passes: list[dict]) -> dict[str, dict[str, float]]:
    """Each timed part's median time over the timed passes, at the
    reference host speed and as measured, and the sample count."""
    timed = [p for p in passes if not p["full"] and "layers" not in p][1:]
    return {
        label: {
            "median_s": statistics.median(p["seconds"][label] * p["host_scale"] for p in timed),
            "measured_median_s": statistics.median(p["seconds"][label] for p in timed),
            "samples": len(timed),
        }
        for label in timed[0]["seconds"]
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_BUDGET_S
    # On SIGTERM, leave through an exception, so that subprocess.run
    # kills the running pass and waits for it.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        if args.trace:
            values, passes = trace(args.workload, args.seed, deadline)
        else:
            values, passes = measure(args.workload, args.seed, args.seconds, deadline)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    sha = git_sha()
    parts = summary(passes)
    for record in passes:
        record.pop("layers", None)
        print(json.dumps({"pass": record, "workload": args.workload, "git_sha": sha}))
    print(json.dumps({"parts": parts}))
    undeclared = sorted(set(values) - {m["name"] for m in declared})
    if undeclared:
        print(json.dumps({"undeclared_metrics": undeclared}))
    attempted = sum(p["tables"] for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in declared
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

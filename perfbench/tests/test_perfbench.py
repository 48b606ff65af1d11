"""Tests of the benchmark itself: golden gate, host scaling and
repeat checks, span arithmetic, environment clearing and the
repeatability of traced counts.

Run from the root of the checkout::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workload as wl  # noqa: E402
from tracer import CHILD_S, Tracer  # noqa: E402

# E11 at full scale takes a tenth of a second: a real table for gate tests.
DFS_SPEC = wl.TableSpec("e11_dfs", "repro.experiments.exp_dfs", "run_dfs_table", 10)


def _one_table_workload(golden_dir: Path) -> wl.Workload:
    spec = wl.TableSpec(
        DFS_SPEC.stem, DFS_SPEC.module, DFS_SPEC.function, DFS_SPEC.reps,
        golden_dir=golden_dir,
    )
    return wl.Workload("reference", (spec,))


def _gate(workload: wl.Workload, seed: int = wl.COMMITTED_SEED) -> dict[str, str]:
    _, modules = wl.setup(workload)
    _, rendered, errors = wl.run_tables(workload, modules, seed)
    return wl.check_tables(workload.tables, seed, rendered, errors)


class TestGoldenGate:
    def test_committed_table_passes(self):
        assert _gate(_one_table_workload(wl.RESULTS_DIR)) == {}

    def test_perturbed_table_is_counted(self, tmp_path):
        golden = (wl.RESULTS_DIR / "e11_dfs.txt").read_text(encoding="utf-8")
        perturbed = golden.replace("| ", "|  ", 1)
        assert perturbed != golden
        (tmp_path / "e11_dfs.txt").write_text(perturbed, encoding="utf-8")
        assert _gate(_one_table_workload(tmp_path)) == {"e11_dfs": "differs from e11_dfs.txt"}

    def test_missing_golden_is_counted(self, tmp_path):
        assert _gate(_one_table_workload(tmp_path)) == {"e11_dfs": "golden e11_dfs.txt missing"}

    def test_other_seed_counts_only_exceptions(self, tmp_path):
        (tmp_path / "e11_dfs.txt").write_text("not the table\n", encoding="utf-8")
        assert _gate(_one_table_workload(tmp_path), seed=1) == {}

    def test_exception_is_counted_and_others_still_run(self):
        workload = wl.WORKLOADS["det-gap"]
        workload = wl.Workload("reference", workload.tables[2:])  # the two E11 tables

        def boom(config):
            raise RuntimeError("injected")

        _, modules = wl.setup(workload)
        _, rendered, errors = wl.run_tables(
            workload, modules, wl.COMMITTED_SEED,
            wrap=lambda stem, fn: boom if stem == "e11_dfs" else fn,
        )
        assert set(errors) == {"e11_dfs"} and set(rendered) == {"e11b_deterministic_comparison"}
        failures = wl.check_tables(workload.tables, wl.COMMITTED_SEED, rendered, errors)
        assert failures == {"e11_dfs": "raised"}
        assert wl.check_tables(workload.tables, 1, rendered, errors) == {"e11_dfs": "raised"}

    def test_every_committed_golden_exists(self):
        for workload in wl.WORKLOADS.values():
            for spec in workload.tables + workload.parts:
                assert spec.golden().is_file(), spec.golden()

    def test_part_is_checked_against_its_own_golden(self, tmp_path):
        part = wl.WORKLOADS["det-gap"].parts[4]  # E11 whole, a tenth of a second
        assert part.label == "e11_dfs.all"
        workload = wl.Workload("reference", (), (part,))
        _, modules = wl.setup(workload)
        _, rendered, errors = wl.run_tables(workload, modules, wl.COMMITTED_SEED, full=False)
        assert wl.check_tables(workload.parts, wl.COMMITTED_SEED, rendered, errors) == {}
        moved = dataclasses.replace(part, golden_dir=tmp_path)
        (tmp_path / "e11_dfs.all.txt").write_text(rendered[part.label] + " ", encoding="utf-8")
        assert wl.check_tables((moved,), wl.COMMITTED_SEED, rendered, errors) == {
            "e11_dfs.all": "differs from e11_dfs.all.txt"
        }


def _pass(seconds: dict[str, float], sha: dict[str, str]) -> dict:
    return {"seconds": seconds, "sha256": sha, "failed": [], "full": False}


class TestRunArithmetic:
    def test_times_are_scaled_by_the_pass_probes(self):
        probes = {"a": 0.02, "b": 0.06}
        scale = wl.host_scale(probes)
        assert scale == (wl.PROBE_REFERENCE_S / 0.04) ** wl.LOAD_EXPONENT
        assert run.scaled({"wall_s": 2.0, "host_scale": scale}, "wall_s") == 2.0 * scale

    def test_a_pass_that_renders_other_bytes_fails(self):
        passes = [
            _pass({"a": 1.0, "b": 1.0}, {"a": "x", "b": "y"}),
            _pass({"a": 1.0, "b": 1.0}, {"a": "x", "b": "z"}),
            _pass({"a": 1.0}, {"a": "x"}),  # b raised here: counted by the pass itself
        ]
        run.check_repeats(passes)
        assert [p["failed"] for p in passes] == [[], ["b (differs from the first pass)"], []]


class FakeClock:
    """Returns the queued instants in order."""

    def __init__(self, *instants: float) -> None:
        self.instants = list(instants)

    def __call__(self) -> float:
        return self.instants.pop(0)


class TestSpanArithmetic:
    def test_self_time_subtracts_children(self):
        # outer [0, 10] holds inner [1, 4] (which holds a 2 s tally
        # [2, 4]) and a 3 s tally [5, 8].
        tracer = Tracer(clock=FakeClock(0, 1, 2, 4, 4, 5, 8, 10))
        hook = tracer.tally("hook", lambda: None)
        inner = tracer.span("inner", lambda: hook())

        def outer_body():
            inner()
            hook()

        tracer.span("outer", outer_body)()
        totals = tracer.span_totals()
        assert totals["outer"] == [1, 10, 10 - 3 - 3]
        assert totals["inner"] == [1, 3, 3 - 2]
        assert tracer.tallies["hook"][:2] == [2, 5]

    def test_same_name_nesting_counts_outermost_duration_once(self):
        tracer = Tracer(clock=FakeClock(0, 2, 5, 9))

        def recurse(depth):
            if depth:
                wrapped(depth - 1)

        wrapped = tracer.span("graphs.build", recurse)
        wrapped(1)
        calls, seconds, self_s = tracer.span_totals()["graphs.build"]
        assert (calls, seconds, self_s) == (2, 9, 9)

    def test_reentrant_tally_counts_once(self):
        tracer = Tracer(clock=FakeClock(0, 4))
        inner = tracer.tally("rng.spawn", lambda: None)
        outer = tracer.tally("rng.spawn", lambda: inner())
        outer()
        assert tracer.tallies["rng.spawn"][:2] == [1, 4]

    def test_span_inside_tally_is_not_subtracted_twice(self):
        # outer [0, 10] > tally [1, 7] > inner span [2, 5]
        tracer = Tracer(clock=FakeClock(0, 1, 2, 5, 7, 10))
        inner = tracer.span("inner", lambda: None)
        hook = tracer.tally("hook", lambda: inner())
        tracer.span("outer", hook)()
        assert tracer.spans[0][CHILD_S] == 6
        assert tracer.span_totals()["outer"][2] == 4

    def test_uninstall_restores_every_layer(self):
        from repro.experiments import exp_gap
        from repro.rng import spawn
        from repro.sim.engine import Engine

        before = (Engine.run, Engine.__init__, exp_gap.spawn, spawn)
        tracer = Tracer()
        tracer.install()
        assert exp_gap.spawn is not spawn and Engine.run is not before[0]
        tracer.uninstall()
        assert (Engine.run, Engine.__init__, exp_gap.spawn) == before[:3]


class TestEnvironment:
    def test_pin_env_removes_only_ambient_vars(self):
        env = {name: "1" for name in wl.AMBIENT_VARS}
        env.update(PATH="/bin", REPRO_OTHER="x", OPENBLAS_NUM_THREADS="8")
        removed = wl.pin_env(env)
        assert sorted(removed) == sorted(wl.AMBIENT_VARS)
        assert env == {"PATH": "/bin", "REPRO_OTHER": "x", "OPENBLAS_NUM_THREADS": "1"}

    def test_workload_process_clears_its_environment(self):
        env = {name: "garbage" for name in wl.AMBIENT_VARS}
        env["PATH"] = "/usr/bin:/bin"
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "workload.py"), "--workload", "mobility",
             "--seed", "1"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        record = json.loads(done.stdout.splitlines()[-1])
        assert sorted(record["env_cleared"]) == sorted(wl.AMBIENT_VARS)
        assert record["backend"] == "reference" and record["failed"] == []


#: Counts the benchmark promises repeat exactly between traced runs.
EXACT = ("engine.init.calls", "mtstreams.streams", "faults.edge_apply.calls")


def _traced_counts(run) -> dict[str, float]:
    tracer = Tracer()
    tracer.install()
    try:
        run()
    finally:
        tracer.uninstall()
    layers = tracer.metrics()
    return {
        name: value for name, value in layers.items()
        if name in EXACT or (name.startswith("protocols.") and name.endswith(".calls"))
    }


def test_traced_counts_repeat_exactly():
    # As in a workload pass, set-up loads the vectorized engine before
    # the tracer is installed.
    backend, _ = wl.setup(wl.WORKLOADS["gap-batch"])
    from repro.experiments.exp_dynamic import run_dynamic_table
    from repro.experiments.exp_gap import run_gap_table
    from repro.experiments.runner import ExperimentConfig

    def run():
        run_dynamic_table(ExperimentConfig(reps=3, master_seed=5, quick=True, jobs=1))
        run_gap_table(ExperimentConfig(reps=4, master_seed=5, quick=True, jobs=1, backend="auto"))

    first, second = _traced_counts(run), _traced_counts(run)
    assert first == second
    assert first["engine.init.calls"] > 0 and first["faults.edge_apply.calls"] > 0
    assert any(name.startswith("protocols.") and value for name, value in first.items())
    assert (first["mtstreams.streams"] > 0) == (backend == "numpy")

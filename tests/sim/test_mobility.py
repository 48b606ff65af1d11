"""Tests for the random-waypoint mobility substrate."""

import math
import random
from collections import Counter

import pytest

from repro.errors import SimulationError
from repro.graphs import unit_disk
from repro.sim.faults import FaultSchedule
from repro.sim.mobility import (
    RandomWaypointModel,
    edges_for_positions,
    mobility_fault_schedule,
)


def _reference_edges(positions, radius):
    """The per-pair frozenset unit-disk edge set, as first written."""
    nodes = list(positions)
    r2 = radius * radius
    edges = set()
    for i, u in enumerate(nodes):
        ux, uy = positions[u]
        for v in nodes[i + 1 :]:
            vx, vy = positions[v]
            if (ux - vx) ** 2 + (uy - vy) ** 2 <= r2:
                edges.add(frozenset((u, v)))
    return edges


def _reference_schedule(model, radius, horizon, resample_every, protected):
    """The per-pair frozenset diff, as first written: ``(slot, kind, {u, v})``."""
    protected_set = set(protected)
    current = _reference_edges(model.positions, radius)
    faults = []
    slot = 0
    while slot + resample_every <= horizon:
        model.step(resample_every)
        slot += resample_every
        nxt = _reference_edges(model.positions, radius)
        for gone in current - nxt:
            if gone not in protected_set:
                faults.append((slot, "remove", gone))
        for new in nxt - current:
            faults.append((slot, "add", new))
        current = nxt | (current & protected_set)
    return faults


def _per_slot(faults):
    """Per slot, the multiset of ``(kind, {u, v})``."""
    slots = {}
    for slot, kind, edge in faults:
        slots.setdefault(slot, Counter())[(kind, edge)] += 1
    return slots


def make_model(n=12, seed=0, speed=0.05):
    rng = random.Random(seed)
    g = unit_disk(n, 0.4, rng)
    return g, RandomWaypointModel(dict(g.positions), random.Random(seed + 1), speed=speed)


class TestModel:
    def test_positions_stay_in_arena(self):
        _g, model = make_model()
        for _ in range(50):
            model.step(10)
            for x, y in model.positions.values():
                assert 0 <= x <= 1 and 0 <= y <= 1

    def test_nodes_actually_move(self):
        _g, model = make_model()
        before = model.positions
        model.step(20)
        after = model.positions
        moved = sum(1 for node in before if before[node] != after[node])
        assert moved == len(before)

    def test_step_distance_bounded_by_speed(self):
        _g, model = make_model(speed=0.02)
        before = model.positions
        model.step(1)
        after = model.positions
        for node in before:
            dist = math.hypot(
                after[node][0] - before[node][0], after[node][1] - before[node][1]
            )
            assert dist <= 0.02 * 1.5 + 1e-9

    def test_zero_step_is_noop(self):
        _g, model = make_model()
        before = model.positions
        model.step(0)
        assert model.positions == before

    def test_validation(self):
        with pytest.raises(SimulationError):
            RandomWaypointModel({}, random.Random(0))
        with pytest.raises(SimulationError):
            RandomWaypointModel({0: (0.5, 0.5)}, random.Random(0), speed=0)
        _g, model = make_model()
        with pytest.raises(SimulationError):
            model.step(-1)

    def test_deterministic_given_rng(self):
        _g, a = make_model(seed=5)
        _g2, b = make_model(seed=5)
        a.step(30)
        b.step(30)
        assert a.positions == b.positions


class TestEdgesForPositions:
    def test_matches_geometry(self):
        positions = {0: (0.0, 0.0), 1: (0.2, 0.0), 2: (0.9, 0.9)}
        edges = edges_for_positions(positions, 0.3)
        assert edges == {frozenset((0, 1))}

    def test_radius_validation(self):
        with pytest.raises(SimulationError):
            edges_for_positions({0: (0, 0)}, 0)

    def test_pair_at_exactly_radius_is_an_edge(self):
        positions = {"a": (0.0, 0.0), "b": (0.0, 0.25), "c": (0.5, 0.0)}
        edges = edges_for_positions(positions, 0.25)
        assert edges == {frozenset(("a", "b"))}
        assert edges == _reference_edges(positions, 0.25)

    def test_boundary_pairs_round_like_the_reference(self):
        # Some libms round x ** 2 and x * x differently in the last bit;
        # at radius == dx that decides whether the pair is an edge.
        rng = random.Random(7)
        dxs = [dx for dx in (rng.random() for _ in range(20000)) if dx**2 != dx * dx]
        if not dxs:
            pytest.skip("this libm rounds x ** 2 exactly like x * x")
        for dx in dxs[:20]:
            positions = {0: (0.0, 0.0), 1: (dx, 0.0)}
            assert edges_for_positions(positions, dx) == _reference_edges(positions, dx)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference(self, seed):
        rng = random.Random(seed)
        positions = {f"n{i}": (rng.random(), rng.random()) for i in range(40)}
        for radius in (0.05, 0.3, 0.42, 2.0):
            assert edges_for_positions(positions, radius) == _reference_edges(
                positions, radius
            )


class TestFaultScheduleCompilation:
    def test_schedule_reflects_movement(self):
        _g, model = make_model(speed=0.08)
        schedule = mobility_fault_schedule(model, 0.4, horizon=160, resample_every=8)
        assert isinstance(schedule, FaultSchedule)
        assert schedule.edge_faults  # with this much movement churn is certain
        kinds = {f.kind for f in schedule.edge_faults}
        assert kinds <= {"add", "remove"}
        assert all(0 < f.slot <= 160 for f in schedule.edge_faults)

    def test_protected_edges_never_removed(self):
        g, model = make_model(speed=0.1)
        protected = {frozenset(e) for e in list(map(tuple, g.edges))[:5]}
        schedule = mobility_fault_schedule(
            model, 0.4, horizon=200, resample_every=10, protected=protected
        )
        for fault in schedule.edge_faults:
            if fault.kind == "remove":
                assert frozenset((fault.u, fault.v)) not in protected

    def test_zero_speed_like_static(self):
        _g, model = make_model(speed=1e-9)
        schedule = mobility_fault_schedule(model, 0.4, horizon=64)
        assert not schedule.edge_faults

    def test_validation(self):
        _g, model = make_model()
        with pytest.raises(SimulationError):
            mobility_fault_schedule(model, 0.4, horizon=-1)
        with pytest.raises(SimulationError):
            mobility_fault_schedule(model, 0.4, horizon=10, resample_every=0)
        for radius in (0, -0.1):
            with pytest.raises(SimulationError, match="radius must be positive"):
                mobility_fault_schedule(model, radius, horizon=10)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("speed", [0.005, 0.02, 0.05, 0.1])
    @pytest.mark.parametrize("resample_every", [1, 8])
    @pytest.mark.parametrize("protect", [False, True])
    def test_matches_reference_diff(self, seed, speed, resample_every, protect):
        from repro.experiments.exp_dynamic import spanning_tree

        g = unit_disk(24, 0.42, random.Random(seed))
        protected = (
            {frozenset(e) for e in spanning_tree(g, 0).edges} if protect else set()
        )

        def model():
            return RandomWaypointModel(
                dict(g.positions), random.Random(seed + 50), speed=speed
            )

        expected = _reference_schedule(model(), 0.42, 96, resample_every, protected)
        schedule = mobility_fault_schedule(
            model(), 0.42, 96, resample_every=resample_every, protected=protected
        )
        faults = schedule.edge_faults
        got = [(f.slot, f.kind, frozenset((f.u, f.v))) for f in faults]
        assert _per_slot(got) == _per_slot(expected)
        # Slots ascend; within a slot removals come before adds, each in
        # node-index order (unit_disk labels nodes 0..n-1 in position order).
        order = [(f.slot, f.kind != "remove", f.u, f.v) for f in faults]
        assert order == sorted(order) and all(f.u < f.v for f in faults)


class TestEndToEndMobileBroadcast:
    def test_broadcast_over_mobile_network(self):
        # Protect a spanning tree (the paper's proviso) and let every
        # other link churn with movement: broadcast must still succeed.
        from repro.experiments.exp_dynamic import spanning_tree
        from repro.protocols.decay_broadcast import run_decay_broadcast

        rng = random.Random(3)
        g = unit_disk(40, 0.45, rng)
        tree = spanning_tree(g, 0)
        protected = {frozenset(e) for e in tree.edges}
        model = RandomWaypointModel(dict(g.positions), random.Random(4), speed=0.01)
        schedule = mobility_fault_schedule(
            model, 0.45, horizon=400, resample_every=8, protected=protected
        )
        result = run_decay_broadcast(g, source=0, seed=9, epsilon=0.05, faults=schedule)
        assert result.broadcast_succeeded(source=0)

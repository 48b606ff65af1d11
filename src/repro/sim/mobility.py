"""Node mobility for unit-disk networks.

The paper stresses (property 3) that Decay broadcast is "*adaptive to
changes in topology which occur throughout the execution*".  Edge-fault
schedules model adversarial link churn; this module models the *benign*
physical cause — node movement — and compiles it into the same
:class:`~repro.sim.faults.FaultSchedule` machinery:

1. a :class:`RandomWaypointModel` moves each node toward a random
   waypoint at a node-specific speed, re-drawing the waypoint on
   arrival (the classic ad-hoc-network mobility model);
2. :func:`mobility_fault_schedule` samples positions every
   ``resample_every`` slots, recomputes the unit-disk edge set, and
   emits add/remove :class:`~repro.sim.faults.EdgeFault` events for the
   differences.

The engine then replays the churn deterministically — mobility becomes
data, so experiments are reproducible and pausable like everything
else.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Hashable, Iterable

from repro.errors import SimulationError
from repro.sim.faults import EdgeFault, FaultSchedule

__all__ = ["RandomWaypointModel", "edges_for_positions", "mobility_fault_schedule"]

Node = Hashable
Position = tuple[float, float]


@dataclass
class _NodeState:
    position: Position
    waypoint: Position
    speed: float


class RandomWaypointModel:
    """Random-waypoint mobility inside an ``area × area`` square.

    Parameters
    ----------
    positions:
        Initial node positions (e.g. ``unit_disk(...).positions``).
    rng:
        Drives waypoint choices and per-node speeds.
    speed:
        Distance units travelled per *slot* (mean); per-node speeds are
        drawn uniformly from ``[0.5·speed, 1.5·speed]``.
    area:
        Side length of the square arena.
    """

    def __init__(
        self,
        positions: dict[Node, Position],
        rng: random.Random,
        *,
        speed: float = 0.01,
        area: float = 1.0,
    ) -> None:
        if speed <= 0:
            raise SimulationError("speed must be positive")
        if not positions:
            raise SimulationError("need at least one node")
        self.area = area
        self._rng = rng
        self._states = {
            node: _NodeState(
                position=pos,
                waypoint=self._draw_waypoint(),
                speed=speed * rng.uniform(0.5, 1.5),
            )
            for node, pos in positions.items()
        }

    def _draw_waypoint(self) -> Position:
        return (self._rng.uniform(0, self.area), self._rng.uniform(0, self.area))

    @property
    def positions(self) -> dict[Node, Position]:
        return {node: state.position for node, state in self._states.items()}

    def step(self, slots: int = 1) -> None:
        """Advance every node ``slots`` time-slots along its trajectory."""
        if slots < 0:
            raise SimulationError("slots must be non-negative")
        for state in self._states.values():
            budget = state.speed * slots
            while budget > 0:
                dx = state.waypoint[0] - state.position[0]
                dy = state.waypoint[1] - state.position[1]
                dist = math.hypot(dx, dy)
                if dist <= budget:
                    state.position = state.waypoint
                    state.waypoint = self._draw_waypoint()
                    budget -= dist
                    if dist == 0:
                        break
                else:
                    frac = budget / dist
                    state.position = (
                        state.position[0] + dx * frac,
                        state.position[1] + dy * frac,
                    )
                    budget = 0.0


def _in_range_keys(positions: dict[Node, Position], radius: float) -> set[int]:
    """The unit-disk pairs of a snapshot as ints ``i * n + j`` (``i < j``,
    nodes indexed in ``positions`` order)."""
    coords = list(positions.values())
    n = len(coords)
    r2 = radius * radius
    keys: set[int] = set()
    # ``** 2``, not ``x * x``: the two round differently on some doubles,
    # and that would flip edges at distance ~radius.
    for i, (ux, uy) in enumerate(coords):
        base = i * n
        keys.update(
            base + j
            for j in range(i + 1, n)
            if (ux - coords[j][0]) ** 2 + (uy - coords[j][1]) ** 2 <= r2
        )
    return keys


def edges_for_positions(
    positions: dict[Node, Position], radius: float
) -> set[frozenset]:
    """The unit-disk edge set for a position snapshot."""
    if radius <= 0:
        raise SimulationError("radius must be positive")
    nodes = list(positions)
    n = len(nodes)
    return {
        frozenset((nodes[key // n], nodes[key % n]))
        for key in _in_range_keys(positions, radius)
    }


def mobility_fault_schedule(
    model: RandomWaypointModel,
    radius: float,
    horizon: int,
    *,
    resample_every: int = 8,
    protected: Iterable[frozenset] = (),
) -> FaultSchedule:
    """Compile ``horizon`` slots of movement into an edge-fault schedule.

    ``protected`` edges (e.g. a backbone kept connected, mirroring the
    paper's proviso) are never removed even when their endpoints drift
    out of range.  The model is advanced in place.  Within a slot the
    removals come before the adds, each in node-index order.
    """
    if radius <= 0:
        raise SimulationError("radius must be positive")
    if horizon < 0:
        raise SimulationError("horizon must be non-negative")
    if resample_every < 1:
        raise SimulationError("resample_every must be >= 1")
    nodes = list(model.positions)
    n = len(nodes)
    index = {node: i for i, node in enumerate(nodes)}
    protected_keys: set[int] = set()
    for edge in protected:
        ends = sorted(index[node] for node in edge if node in index)
        if len(edge) == 2 and len(ends) == 2:
            protected_keys.add(ends[0] * n + ends[1])
    current = _in_range_keys(model.positions, radius)
    faults: list[EdgeFault] = []
    slot = 0
    while slot + resample_every <= horizon:
        model.step(resample_every)
        slot += resample_every
        nxt = _in_range_keys(model.positions, radius)
        for kind, changed in (
            ("remove", current - nxt - protected_keys),
            ("add", nxt - current),
        ):
            faults += [
                EdgeFault(slot, nodes[key // n], nodes[key % n], kind)
                for key in sorted(changed)
            ]
        current = nxt | (current & protected_keys)
    return FaultSchedule(edge_faults=faults)

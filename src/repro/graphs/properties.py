"""Graph property algorithms: BFS layers, distances, diameter, degrees.

These are the quantities the paper's bounds are phrased in — ``n`` (the
number of processors), ``D`` (the diameter), and ``Δ`` (the maximum
degree, the paper's a-priori in-degree bound).  The functions work on
both :class:`~repro.graphs.graph.Graph` and ``DiGraph`` (for digraphs,
distances follow edge direction, which matches message flow).
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Hashable

from repro.errors import GraphError, NodeNotFound
from repro.graphs.graph import DiGraph, Graph

__all__ = [
    "distances_from",
    "bfs_layers",
    "eccentricity",
    "diameter",
    "is_connected",
    "max_degree",
    "degree_histogram",
]

Node = Hashable
INFINITE = float("inf")


def _successors(g: Graph, node: Node) -> frozenset[Node]:
    """Nodes reachable in one hop following message flow."""
    if isinstance(g, DiGraph):
        return g.neighbors_out(node)
    return g.neighbors(node)


def distances_from(g: Graph, source: Node) -> dict[Node, int]:
    """Hop distances from ``source`` to every reachable node (BFS)."""
    if not g.has_node(source):
        raise NodeNotFound(source)
    dist: dict[Node, int] = {source: 0}
    queue: deque[Node] = deque([source])
    while queue:
        node = queue.popleft()
        for nbr in _successors(g, node):
            if nbr not in dist:
                dist[nbr] = dist[node] + 1
                queue.append(nbr)
    return dist


def bfs_layers(g: Graph, source: Node) -> list[list[Node]]:
    """Nodes grouped by distance from ``source``; layer 0 is ``[source]``."""
    dist = distances_from(g, source)
    if not dist:
        return []
    layers: list[list[Node]] = [[] for _ in range(max(dist.values()) + 1)]
    for node, d in dist.items():
        layers[d].append(node)
    return layers


def eccentricity(g: Graph, source: Node) -> int:
    """Max distance from ``source`` to any node; raises if some node is unreachable."""
    dist = distances_from(g, source)
    if len(dist) != g.num_nodes():
        raise GraphError(f"graph is not connected from {source!r}")
    return max(dist.values())


def diameter(g: Graph) -> int:
    """Largest hop distance between any node pair.

    All sources at once, on node indices: node ``i`` (in ``g.nodes``
    order) starts with the bitset ball ``1 << i``, and each round ORs
    every successor's ball into its own, so after round ``k`` ball ``i``
    holds the nodes within ``k`` hops of ``i`` following message flow.
    The first round that changes no ball ends the fixpoint, and the
    rounds before it are the diameter.  A ball that is not full then
    means some node is unreachable from that source; the error names
    the first such node, as :func:`eccentricity` would.
    """
    nodes = g.nodes
    if not nodes:
        raise GraphError("diameter of the empty graph is undefined")
    index = {node: i for i, node in enumerate(nodes)}
    succ = [[index[nbr] for nbr in _successors(g, node)] for node in nodes]
    ball = [1 << i for i in range(len(nodes))]
    rounds = 0
    while True:
        grown = []
        for own, nbrs in zip(ball, succ):
            for j in nbrs:
                own |= ball[j]
            grown.append(own)
        if grown == ball:
            break
        ball = grown
        rounds += 1
    full = (1 << len(nodes)) - 1
    for node, reach in zip(nodes, ball):
        if reach != full:
            raise GraphError(f"graph is not connected from {node!r}")
    return rounds


def is_connected(g: Graph) -> bool:
    """True iff every node is reachable from every other.

    For :class:`DiGraph` this checks *strong* connectivity in the sense
    relevant to broadcast: from an arbitrary root, every node must be
    reachable following edges forward.  (The paper's directed remark
    only needs reachability from the source; callers who care use
    :func:`distances_from` directly.)
    """
    if g.num_nodes() == 0:
        return True
    nodes = g.nodes
    if isinstance(g, DiGraph):
        return all(len(distances_from(g, root)) == g.num_nodes() for root in nodes)
    return len(distances_from(g, nodes[0])) == g.num_nodes()


def max_degree(g: Graph) -> int:
    """The paper's ``Δ``: the maximum in-degree over all nodes.

    For undirected graphs this is just the maximum degree.  For
    digraphs it is the maximum *in*-degree, since Decay's parameter
    bounds the number of competing transmitters a receiver hears.
    """
    if g.num_nodes() == 0:
        raise GraphError("max_degree of the empty graph is undefined")
    if isinstance(g, DiGraph):
        return max(g.in_degree(node) for node in g.nodes)
    return max(g.degree(node) for node in g.nodes)


def degree_histogram(g: Graph) -> dict[int, int]:
    """Map ``degree -> number of nodes with that degree``."""
    if isinstance(g, DiGraph):
        counts = Counter(g.in_degree(node) for node in g.nodes)
    else:
        counts = Counter(g.degree(node) for node in g.nodes)
    return dict(sorted(counts.items()))

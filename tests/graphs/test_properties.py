"""Tests for graph property algorithms."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError, NodeNotFound
from repro.graphs import (
    DiGraph,
    Graph,
    bfs_layers,
    c_n,
    degree_histogram,
    diameter,
    distances_from,
    eccentricity,
    grid,
    is_connected,
    line,
    max_degree,
    ring,
    star,
)


class TestDistances:
    def test_line_distances(self):
        g = line(5)
        assert distances_from(g, 0) == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_source_not_in_graph(self):
        with pytest.raises(NodeNotFound):
            distances_from(line(3), 99)

    def test_unreachable_nodes_absent(self):
        g = Graph(nodes=[0, 1], edges=[])
        assert distances_from(g, 0) == {0: 0}

    def test_digraph_follows_direction(self):
        g = DiGraph(edges=[(0, 1), (1, 2)])
        assert distances_from(g, 0) == {0: 0, 1: 1, 2: 2}
        assert distances_from(g, 2) == {2: 0}


class TestLayers:
    def test_star_layers(self):
        g = star(4)
        layers = bfs_layers(g, 0)
        assert layers[0] == [0]
        assert sorted(layers[1]) == [1, 2, 3, 4]

    def test_cn_layers(self):
        g = c_n(6, {2, 4})
        layers = bfs_layers(g, 0)
        assert [len(layer) for layer in layers] == [1, 6, 1]

    def test_layers_partition_nodes(self):
        g = grid(4, 5)
        layers = bfs_layers(g, 0)
        flattened = [v for layer in layers for v in layer]
        assert sorted(flattened) == sorted(g.nodes)


class TestEccentricityAndDiameter:
    def test_line_eccentricities(self):
        g = line(5)
        assert eccentricity(g, 0) == 4
        assert eccentricity(g, 2) == 2

    def test_eccentricity_requires_connectivity(self):
        g = Graph(nodes=[0, 1])
        with pytest.raises(GraphError):
            eccentricity(g, 0)

    def test_ring_diameter(self):
        assert diameter(ring(8)) == 4
        assert diameter(ring(9)) == 4

    def test_single_node_diameter_zero(self):
        assert diameter(line(1)) == 0

    def test_empty_graph_diameter(self):
        with pytest.raises(GraphError):
            diameter(Graph())

    def test_long_line_diameter(self):
        assert diameter(line(256)) == 255

    def test_digraph_diameter_follows_direction(self):
        cycle = DiGraph(edges=[(0, 1), (1, 2), (2, 0)])
        assert diameter(cycle) == 2
        with pytest.raises(GraphError, match="not connected from 1"):
            diameter(DiGraph(edges=[(0, 1), (1, 2), (2, 1)]))


def _spec_diameter(g):
    """Max over sources of the BFS distances, as the paper defines D."""
    best = 0
    for source in g.nodes:
        dist = distances_from(g, source)
        if len(dist) != g.num_nodes():
            raise GraphError(f"graph is not connected from {source!r}")
        best = max(best, max(dist.values()))
    return best


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 12))
    # A shuffled node order, so node index and label differ.
    nodes = draw(st.permutations(range(n)))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pairs.filter(lambda e: e[0] != e[1]), max_size=30))
    kind = draw(st.sampled_from([Graph, DiGraph]))
    return kind(nodes=nodes, edges=edges)


@settings(max_examples=300)
@given(small_graphs())
def test_diameter_matches_bfs_spec(g):
    try:
        expected = _spec_diameter(g)
    except GraphError as error:
        with pytest.raises(GraphError) as excinfo:
            diameter(g)
        assert str(excinfo.value) == str(error)
    else:
        assert diameter(g) == expected


class TestConnectivity:
    def test_connected(self):
        assert is_connected(grid(3, 3))

    def test_disconnected(self):
        assert not is_connected(Graph(nodes=[0, 1]))

    def test_empty_is_connected(self):
        assert is_connected(Graph())

    def test_digraph_strongly_connected(self):
        cycle = DiGraph(edges=[(0, 1), (1, 2), (2, 0)])
        assert is_connected(cycle)
        chain = DiGraph(edges=[(0, 1), (1, 2)])
        assert not is_connected(chain)


class TestDegrees:
    def test_max_degree_undirected(self):
        assert max_degree(star(9)) == 9

    def test_max_degree_digraph_uses_in_degree(self):
        g = DiGraph(edges=[(0, 2), (1, 2), (2, 0)])
        assert max_degree(g) == 2  # node 2 hears two transmitters

    def test_max_degree_empty(self):
        with pytest.raises(GraphError):
            max_degree(Graph())

    def test_degree_histogram(self):
        assert degree_histogram(star(3)) == {1: 3, 3: 1}

    def test_degree_histogram_digraph(self):
        g = DiGraph(edges=[(0, 1), (2, 1)])
        assert degree_histogram(g) == {0: 2, 2: 1}

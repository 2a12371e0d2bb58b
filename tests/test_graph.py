"""Tests for the core graph structure."""

import pytest
from hypothesis import given, strategies as st

from repro.graphs.graph import Graph
from repro.utils.validation import GraphStructureError

from conftest import small_graphs


class TestConstruction:
    def test_empty(self):
        g = Graph()
        assert g.n == 0 and g.m == 0
        assert g.vertices() == []
        assert g.is_connected()  # vacuously

    def test_from_edges_with_isolated(self):
        g = Graph.from_edges([(1, 2)], vertices=[5])
        assert g.n == 3
        assert g.degree(5) == 0

    def test_from_adjacency(self):
        g = Graph.from_adjacency({1: [2, 3], 2: [1], 3: []})
        assert g.m == 2
        assert g.has_edge(3, 1)

    def test_copy_is_independent(self):
        g = Graph.from_edges([(1, 2)])
        h = g.copy()
        h.add_edge(2, 3)
        assert g.n == 2 and h.n == 3

    def test_self_loop_rejected(self):
        g = Graph()
        with pytest.raises(GraphStructureError):
            g.add_edge(1, 1)

    def test_parallel_edge_is_noop(self):
        g = Graph.from_edges([(1, 2), (2, 1), (1, 2)])
        assert g.m == 1


class TestMutation:
    def test_remove_edge(self):
        g = Graph.from_edges([(1, 2), (2, 3)])
        g.remove_edge(1, 2)
        assert g.m == 1 and not g.has_edge(1, 2)
        with pytest.raises(GraphStructureError):
            g.remove_edge(1, 2)

    def test_remove_vertex_drops_incident_edges(self):
        g = Graph.from_edges([(1, 2), (2, 3), (3, 1)])
        g.remove_vertex(2)
        assert g.n == 2 and g.m == 1
        assert g.has_edge(1, 3)

    def test_remove_missing_vertex_raises(self):
        with pytest.raises(GraphStructureError):
            Graph().remove_vertex(9)


class TestQueries:
    def test_degrees_and_sequences(self, triangle_with_tail):
        g = triangle_with_tail
        assert g.degree(2) == 3
        assert g.degree_sequence() == [3, 2, 2, 2, 1]
        assert g.max_degree() == 3
        assert g.min_degree() == 1
        assert abs(g.average_degree() - 2.0) < 1e-12

    def test_neighbors_unknown_vertex_raises(self):
        with pytest.raises(GraphStructureError):
            Graph().neighbors(1)

    def test_edges_listed_once(self):
        g = Graph.from_edges([(1, 2), (2, 3)])
        assert len(g.edges()) == 2
        assert g.sorted_edges() == [(1, 2), (2, 3)]

    def test_triangles_at(self):
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        assert g.triangles_at(2) == 1
        assert g.triangles_at(3) == 0

    def test_equality_is_structural(self):
        a = Graph.from_edges([(1, 2)])
        b = Graph.from_edges([(2, 1)])
        assert a == b
        b.add_vertex(7)
        assert a != b

    def test_graph_unhashable(self):
        with pytest.raises(TypeError):
            hash(Graph())


class TestStructure:
    def test_subgraph_induces_edges(self, triangle_with_tail):
        sub = triangle_with_tail.subgraph([0, 1, 2])
        assert sub.n == 3 and sub.m == 3

    def test_subgraph_unknown_vertex_raises(self):
        with pytest.raises(GraphStructureError):
            Graph().subgraph([1])

    def test_connected_components(self):
        g = Graph.from_edges([(1, 2), (3, 4)], vertices=[9])
        comps = sorted(sorted(c) for c in g.connected_components())
        assert comps == [[1, 2], [3, 4], [9]]
        assert not g.is_connected()
        assert g.largest_component_size() == 2

    def test_bfs_distances_and_cutoff(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
        assert g.bfs_distances(0) == {0: 0, 1: 1, 2: 2, 3: 3}
        assert g.bfs_distances(0, cutoff=1) == {0: 0, 1: 1}

    def test_shortest_path_length(self):
        g = Graph.from_edges([(0, 1), (1, 2)], vertices=[7])
        assert g.shortest_path_length(0, 2) == 2
        assert g.shortest_path_length(0, 0) == 0
        assert g.shortest_path_length(0, 7) is None

    def test_relabeled_bijection_required(self):
        g = Graph.from_edges([(1, 2)])
        with pytest.raises(GraphStructureError):
            g.relabeled({1: 5})
        with pytest.raises(GraphStructureError):
            g.relabeled({1: 5, 2: 5})

    def test_relabeled_and_integer_labels(self):
        g = Graph.from_edges([("b", "a")])
        h, mapping = g.to_integer_labels()
        assert sorted(h.vertices()) == [0, 1]
        assert h.has_edge(mapping["a"], mapping["b"])

    def test_is_subgraph_of(self):
        small = Graph.from_edges([(1, 2)])
        big = Graph.from_edges([(1, 2), (2, 3)])
        assert small.is_subgraph_of(big)
        assert not big.is_subgraph_of(small)


class TestProperties:
    @given(small_graphs())
    def test_handshake_lemma(self, g):
        assert sum(g.degree(v) for v in g.vertices()) == 2 * g.m

    @given(small_graphs())
    def test_components_partition_vertices(self, g):
        comps = g.connected_components()
        seen = [v for c in comps for v in c]
        assert sorted(seen) == sorted(g.vertices())
        assert g.largest_component_size() == max((len(c) for c in comps), default=0)

    @given(small_graphs())
    def test_subgraph_of_all_vertices_is_identity(self, g):
        assert g.subgraph(g.vertices()) == g

    @given(small_graphs())
    def test_bfs_symmetry(self, g):
        """d(u, v) == d(v, u) for every vertex pair."""
        vs = g.vertices()
        for u in vs[:3]:
            dist = g.bfs_distances(u)
            for v, d in dist.items():
                assert g.bfs_distances(v).get(u) == d


def frozenset_edges(graph):
    """The edge walk before the position walk: one frozenset per entry."""
    seen = set()
    out = []
    for u in graph.vertices():
        for v in graph.neighbors(u):
            key = frozenset((u, v))
            if key not in seen:
                seen.add(key)
                out.append((u, v))
    return out


def frozenset_sorted_edges(graph):
    try:
        return sorted(tuple(sorted((u, v))) for u, v in frozenset_edges(graph))
    except TypeError:
        return frozenset_edges(graph)


INT_LABELS = st.integers(0, 7)
STR_LABELS = st.sampled_from(["a", "b", "c", "d", "e"])


@st.composite
def mutated_graphs(draw):
    """Graphs built by adds, removals and re-adds over int, str or mixed
    labels, so insertion order and neighbour-set order both churn."""
    labels = draw(st.sampled_from(
        [INT_LABELS, STR_LABELS, st.one_of(INT_LABELS, STR_LABELS)]))
    g = Graph()
    for _ in range(draw(st.integers(0, 40))):
        op = draw(st.sampled_from(["edge", "edge", "edge", "vertex", "unedge", "unvertex"]))
        u, v = draw(labels), draw(labels)
        if op == "edge" and u != v:
            g.add_edge(u, v)
        elif op == "vertex":
            g.add_vertex(u)
        elif op == "unedge" and g.has_edge(u, v):
            g.remove_edge(u, v)
        elif op == "unvertex" and u in g:
            g.remove_vertex(u)
    return g


class TestEdgeWalk:
    @given(mutated_graphs())
    def test_edges_match_the_frozenset_walk(self, g):
        assert g.edges() == frozenset_edges(g)
        assert g.sorted_edges() == frozenset_sorted_edges(g)

    def test_readded_vertex_reports_from_the_earlier_endpoint(self):
        g = Graph.from_edges([(1, 2), (2, 3)])
        g.remove_vertex(1)
        g.add_edge(1, 2)  # 1 is now inserted after 2
        assert (2, 1) in g.edges()
        assert g.edges() == frozenset_edges(g)
        assert g.sorted_edges() == [(1, 2), (2, 3)]

    def test_mixed_labels_fall_back_to_the_walk(self):
        g = Graph.from_edges([(1, "a"), ("b", 2)], vertices=[9])
        assert g.sorted_edges() == g.edges() == frozenset_edges(g)

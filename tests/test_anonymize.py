"""Algorithm 1 and the Section 5.1 minimal-vertex variant."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.anonymize import anonymize
from repro.core.naive import naive_anonymization
from repro.core.verify import is_k_symmetric, verify_anonymization
from repro.datasets.paper_graphs import figure3_graph
from repro.graphs.generators import gnp_random_graph, random_tree, star_graph
from repro.graphs.graph import Graph
from repro.isomorphism.orbits import automorphism_partition
from repro.utils.validation import AnonymizationError, ReproError

from conftest import small_graphs


class TestPaperWalkthrough:
    """Example 5 / Figure 5: anonymizing the Figure 3 graph."""

    def test_k2_copies_the_two_singleton_orbits(self):
        result = anonymize(figure3_graph(), 2)
        # V2={3} and V5={8} need one copy each (Figure 5a)
        assert result.vertices_added == 2
        assert result.partition.min_cell_size() >= 2
        assert verify_anonymization(result, exact=True).ok

    def test_k3_copies_every_orbit(self):
        result = anonymize(figure3_graph(), 3)
        # Figure 5(b): all five orbits must be copied
        assert all(len(cell) >= 3 for cell in result.partition.cells)
        assert verify_anonymization(result, exact=True).ok

    def test_section51_minimal_vertex_variant_is_cheaper(self):
        orbit_unit = anonymize(figure3_graph(), 3, copy_unit="orbit")
        component_unit = anonymize(figure3_graph(), 3, copy_unit="component")
        assert component_unit.vertices_added < orbit_unit.vertices_added
        assert verify_anonymization(component_unit, exact=True).ok


class TestContract:
    def test_original_is_subgraph(self):
        g = gnp_random_graph(12, 0.3, rng=4)
        result = anonymize(g, 3)
        assert g.is_subgraph_of(result.graph)

    def test_published_triple(self):
        g = star_graph(4)
        result = anonymize(g, 2)
        graph, partition, n = result.published()
        assert n == 5
        assert partition.covers(graph.vertices())

    def test_cost_properties(self):
        g = figure3_graph()
        result = anonymize(g, 4)
        assert result.total_cost == result.vertices_added + result.edges_added
        assert result.vertices_added == result.graph.n - g.n
        assert result.edges_added == result.graph.m - g.m

    def test_already_symmetric_graph_unchanged(self):
        g = star_graph(6)  # orbits: {hub}, {6 leaves}
        result = anonymize(g, 2, partition=automorphism_partition(g).orbits)
        # only the hub orbit (size 1) needs copying
        assert result.vertices_added == 1

    def test_k1_is_identity(self):
        g = gnp_random_graph(10, 0.4, rng=1)
        result = anonymize(g, 1)
        assert result.graph == g

    def test_invalid_arguments(self):
        g = star_graph(3)
        with pytest.raises(ReproError):
            anonymize(g, 0)
        with pytest.raises(ReproError):
            anonymize(g, 2.5)
        with pytest.raises(AnonymizationError):
            anonymize(g, 2, copy_unit="magic")
        with pytest.raises(AnonymizationError):
            anonymize(g, 2, method="magic")

    def test_supplied_partition_must_cover(self):
        from repro.graphs.partition import Partition

        g = star_graph(3)
        with pytest.raises(AnonymizationError):
            anonymize(g, 2, partition=Partition([[0]]))

    @pytest.mark.parametrize("copy_unit", ["orbit", "component"])
    def test_identity_and_shifted_labels_agree(self, copy_unit):
        # Labels 0..n-1 skip the relabelling; labels shifted by 1000 take it.
        # Fresh vertices mint from max + 1, so shifting back by 1000 maps
        # one result onto the other exactly.
        g = random_tree(40, rng=8)
        shifted = Graph.from_edges([(u + 1000, v + 1000) for u, v in g.edges()])
        plain = anonymize(g, 3, copy_unit=copy_unit)
        moved = anonymize(shifted, 3, copy_unit=copy_unit)
        assert plain.vertices_added > 0

        def back(v):
            return v - 1000

        assert sorted(plain.graph.edges()) == sorted(
            tuple(sorted((back(u), back(v)))) for u, v in moved.graph.edges())
        assert plain.partition.cells == tuple(
            tuple(back(v) for v in cell) for cell in moved.partition.cells)
        assert plain.copy_of == {back(c): back(p) for c, p in moved.copy_of.items()}
        assert [(r.cell_index, r.mapping, r.edges_added) for r in plain.records] == [
            (r.cell_index, {back(v): back(c) for v, c in r.mapping.items()}, r.edges_added)
            for r in moved.records]

    def test_named_graphs_need_naive_anonymization_first(self):
        g = Graph.from_edges([("alice", "bob")])
        with pytest.raises(AnonymizationError):
            anonymize(g, 2)
        ga, _ = naive_anonymization(g, rng=0)
        assert anonymize(ga, 2).partition.min_cell_size() >= 2


class TestGuarantee:
    @settings(max_examples=20, deadline=None)
    @given(small_graphs(min_n=2, max_n=6), st.integers(2, 3))
    def test_output_is_exactly_k_symmetric(self, g, k):
        """The headline theorem on random graphs, verified by recomputing
        the true orbit partition of the output."""
        result = anonymize(g, k)
        assert is_k_symmetric(result.graph, k)
        assert verify_anonymization(result, exact=True).ok

    @settings(max_examples=15, deadline=None)
    @given(small_graphs(min_n=2, max_n=6), st.integers(2, 3))
    def test_component_unit_is_exactly_k_symmetric(self, g, k):
        result = anonymize(g, k, copy_unit="component")
        assert is_k_symmetric(result.graph, k)
        assert result.vertices_added <= anonymize(g, k).vertices_added

    @settings(max_examples=20, deadline=None)
    @given(small_graphs(min_n=2, max_n=7), st.integers(2, 3))
    def test_insertion_only_and_cell_sizes(self, g, k):
        result = anonymize(g, k)
        assert g.is_subgraph_of(result.graph)
        assert result.partition.min_cell_size() >= k

    def test_stabilization_method_on_tree(self):
        g = random_tree(40, rng=8)
        result = anonymize(g, 3, method="stabilization")
        # TDV == Orb on trees of this kind, so the result is truly 3-symmetric
        assert is_k_symmetric(result.graph, 3)

    def test_larger_k_never_cheaper(self):
        g = gnp_random_graph(15, 0.25, rng=2)
        costs = [anonymize(g, k).total_cost for k in (2, 4, 6)]
        assert costs == sorted(costs)

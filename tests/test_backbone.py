"""Graph backbone detection (Definition 4, Algorithm 2, Theorem 4)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.arraycore import component_classes_arrays
from repro.core.anonymize import anonymize
from repro.core.backbone import backbone
from repro.core.reference import reference_component_classes
from repro.datasets.paper_graphs import (
    figure3_graph,
    figure4_graph,
    l_equivalent_components_graph,
    l_inequivalent_components_graph,
    modular_backbone_graph,
)
from repro.graphs.graph import Graph
from repro.graphs.partition import Partition
from repro.isomorphism.colored import are_isomorphic
from repro.isomorphism.orbits import automorphism_partition
from repro.utils.validation import PartitionError

from conftest import small_graphs


def orbits_of(g):
    return automorphism_partition(g).orbits


def component_classes(g, cell):
    """The `≅_L` grouping of both implementations, which must agree."""
    classes = reference_component_classes(g, cell)
    assert component_classes_arrays(g.neighbors, lambda u: True, cell) == classes
    return classes


class TestComponentClasses:
    def test_l_equivalent_components_grouped(self):
        g = l_equivalent_components_graph()
        orb = orbits_of(g)
        cell = orb.cell_of(1)  # {1,2,3,4}
        classes = component_classes(g, cell)
        assert len(classes) == 1
        assert len(classes[0]) == 2  # two interchangeable edges

    def test_isomorphic_but_not_l_equivalent_kept_apart(self):
        g = l_inequivalent_components_graph()
        orb = orbits_of(g)
        cell = orb.cell_of(1)
        classes = component_classes(g, cell)
        # both components are isomorphic edges, but anchor to different hubs
        assert len(classes) == 2
        comp_a, comp_b = classes[0][0], classes[1][0]
        assert are_isomorphic(g.subgraph(comp_a), g.subgraph(comp_b))


class TestBackboneDetection:
    def test_figure3_reduces_the_twin_leaves(self):
        g = figure3_graph()
        result = backbone(g, orbits_of(g))
        assert result.removed == {2}
        assert result.graph.n == 7

    def test_figure4_path_reduces_to_an_edge(self):
        """The path 2-1-3 is one orbit-copy of the single edge 1-2."""
        g = figure4_graph()
        result = backbone(g, orbits_of(g))
        assert result.graph.n == 2 and result.graph.m == 1
        assert result.removed == {3}

    def test_modular_graph_keeps_both_modules(self):
        """Figure 6: the backbone (unlike the quotient) preserves isomorphic
        modules that span multiple orbits."""
        g = modular_backbone_graph()
        result = backbone(g, orbits_of(g))
        assert result.graph == g

    def test_l_inequivalent_components_kept(self):
        g = l_inequivalent_components_graph()
        result = backbone(g, orbits_of(g))
        # the leaf twins inside {1,2} and {3,4} cells... cell {1,2,3,4}
        # splits into two L-classes, so nothing in it is removed; but 1,2
        # are twin leaves on hub 10 — they are one component (1-2 edge), so
        # nothing is removable at all.
        assert result.graph == g

    def test_star_backbone_keeps_one_leaf(self):
        g = Graph.from_edges([(0, i) for i in range(1, 6)])
        result = backbone(g, orbits_of(g))
        assert result.graph.n == 2  # hub + one representative leaf
        assert len(result.cells) == 2

    def test_cells_stay_aligned_with_input(self):
        g = figure3_graph()
        orb = orbits_of(g)
        result = backbone(g, orb)
        for i, (original, remaining) in enumerate(zip(orb.cells, result.cells)):
            assert set(remaining) <= set(original)
            assert remaining  # never empty

    def test_partition_must_cover(self):
        with pytest.raises(PartitionError):
            backbone(figure3_graph(), Partition([[1]]))


class TestTheorem4:
    """Anonymization preserves the backbone."""

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_figure3_backbone_invariant_under_anonymization(self, k):
        g = figure3_graph()
        orb = orbits_of(g)
        original_backbone = backbone(g, orb)
        publication = anonymize(g, k, partition=orb)
        published_backbone = backbone(publication.graph, publication.partition)
        assert original_backbone.graph == published_backbone.graph

    @settings(max_examples=15, deadline=None)
    @given(small_graphs(min_n=2, max_n=6), st.integers(2, 3))
    def test_backbone_invariance_property(self, g, k):
        orb = orbits_of(g)
        before = backbone(g, orb)
        publication = anonymize(g, k, partition=orb)
        after = backbone(publication.graph, publication.partition)
        assert before.graph == after.graph

    @settings(max_examples=20, deadline=None)
    @given(small_graphs(min_n=1, max_n=7))
    def test_backbone_idempotent(self, g):
        orb = orbits_of(g)
        first = backbone(g, orb)
        second = backbone(first.graph, first.partition)
        assert second.graph == first.graph
        assert second.n_removed == 0

    @settings(max_examples=20, deadline=None)
    @given(small_graphs(min_n=1, max_n=7))
    def test_backbone_is_subgraph_with_aligned_cells(self, g):
        orb = orbits_of(g)
        result = backbone(g, orb)
        assert result.graph.is_subgraph_of(g)
        assert set(result.removed) | set(result.graph.vertices()) == set(g.vertices())

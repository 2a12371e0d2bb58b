"""The automorphism engine against the brute-force oracle.

This is the load-bearing test module of the whole reproduction: every
anonymity guarantee reduces to the correctness of Orb(G).
"""

from dataclasses import asdict

import pytest
from hypothesis import given, settings

from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
    petersen_graph,
    random_tree,
    star_graph,
)
from repro.graphs.graph import Graph
from repro.graphs.partition import Partition
from repro.isomorphism.brute import brute_force_automorphisms, brute_force_orbits
from repro.isomorphism.refinement import stable_partition
from repro.isomorphism.search import automorphism_search

from conftest import small_graphs, small_trees


def assert_engine_matches_brute(g, **kwargs):
    result = automorphism_search(g, **kwargs)
    assert result.orbits == brute_force_orbits(g)
    for gen in result.generators:
        assert gen.is_automorphism_of(g)
    return result


class TestKnownGroups:
    @pytest.mark.parametrize("graph,orbit_count", [
        (complete_graph(5), 1),
        (cycle_graph(6), 1),
        (star_graph(7), 2),
        (path_graph(5), 3),
    ])
    def test_orbit_counts(self, graph, orbit_count):
        result = automorphism_search(graph)
        assert len(result.orbits) == orbit_count

    def test_petersen_graph_vertex_transitive(self):
        outer = [(i, (i + 1) % 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        spokes = [(i, i + 5) for i in range(5)]
        petersen = Graph.from_edges(outer + inner + spokes)
        result = automorphism_search(petersen)
        assert len(result.orbits) == 1

    def test_rigid_graph(self):
        # the spider S(1,2,3): arms of pairwise-distinct lengths => asymmetric
        spider = Graph.from_edges([(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)])
        assert brute_force_orbits(spider).is_discrete()  # sanity of the example
        result = automorphism_search(spider)
        assert result.orbits.is_discrete()
        assert result.generators == []

    def test_empty_and_single_vertex(self):
        assert automorphism_search(Graph()).orbits == Partition([])
        g = Graph()
        g.add_vertex(3)
        assert automorphism_search(g).orbits == Partition([[3]])

    def test_disjoint_isomorphic_components_merge(self):
        g = disjoint_union(path_graph(3), path_graph(3))
        result = automorphism_search(g)
        # ends of both paths together, centres together
        sizes = sorted(len(c) for c in result.orbits.cells)
        assert sizes == [2, 4]


class TestColorRestriction:
    def test_initial_partition_pins_vertices(self):
        g = cycle_graph(4)  # one orbit normally
        pinned = Partition([[0], [1, 2, 3]])
        result = automorphism_search(g, initial=pinned)
        # stabiliser of vertex 0 in C4: can still swap 1 and 3
        assert result.orbits == Partition([[0], [1, 3], [2]])
        for gen in result.generators:
            assert gen(0) == 0

    def test_color_classes_never_mix(self):
        g = complete_graph(6)
        colors = Partition([[0, 1, 2], [3, 4, 5]])
        result = automorphism_search(g, initial=colors)
        assert result.orbits == colors
        for gen in result.generators:
            for v in gen.support():
                assert colors.index_of(gen(v)) == colors.index_of(v)


class TestOracle:
    @settings(max_examples=120, deadline=None)
    @given(small_graphs())
    def test_random_graphs_match_brute_force(self, g):
        assert_engine_matches_brute(g)

    @settings(max_examples=80, deadline=None)
    @given(small_trees())
    def test_trees_match_brute_force(self, g):
        """Trees exercise the pendant decomposition path end to end."""
        assert_engine_matches_brute(g)

    @settings(max_examples=40, deadline=None)
    @given(small_graphs())
    def test_engine_agrees_without_accelerators(self, g):
        """Twin collapse and pendant collapse must not change the answer."""
        plain = automorphism_search(
            g, use_twin_collapse=False, use_pendant_collapse=False
        )
        assert plain.orbits == brute_force_orbits(g)

    @settings(max_examples=40, deadline=None)
    @given(small_graphs(min_n=2))
    def test_orbits_refine_stable_partition(self, g):
        assert automorphism_search(g).orbits.is_finer_or_equal(stable_partition(g))

    @settings(max_examples=30, deadline=None)
    @given(small_graphs(min_n=2, max_n=6))
    def test_generated_group_reaches_every_orbit_pair(self, g):
        """For every same-orbit pair there is a brute-force automorphism —
        and conversely the engine's orbit cells never exceed true orbits."""
        autos = brute_force_automorphisms(g)
        orbits = automorphism_search(g).orbits
        for cell in orbits.cells:
            for u in cell:
                for v in cell:
                    assert any(a(u) == v for a in autos)


class TestStats:
    def test_twin_collapse_counts_star(self):
        result = automorphism_search(star_graph(10))
        assert result.stats.twin_cells_collapsed >= 0
        assert result.stats.core_size <= 11

    def test_pendant_stats_populated_on_tree(self):
        result = automorphism_search(path_graph(9))
        assert result.stats.pendant_vertices > 0
        assert result.stats.core_size < 9

    @pytest.mark.parametrize("build, kwargs, expected", [
        (petersen_graph, {},
         dict(nodes=24, leaves=11, generators_found=10, twin_cells_collapsed=0,
              trace_prunes=0, orbit_prunes=13, bad_leaves=0, pendant_vertices=0,
              core_size=10)),
        (lambda: random_tree(30, rng=9), {},
         dict(nodes=0, leaves=0, generators_found=8, twin_cells_collapsed=0,
              trace_prunes=0, orbit_prunes=0, bad_leaves=0, pendant_vertices=28,
              core_size=2)),
        (lambda: random_tree(30, rng=9), {"use_pendant_collapse": False},
         dict(nodes=11, leaves=5, generators_found=9, twin_cells_collapsed=4,
              trace_prunes=0, orbit_prunes=4, bad_leaves=0, pendant_vertices=0,
              core_size=30)),
        (lambda: disjoint_union(cycle_graph(3), cycle_graph(3), cycle_graph(6)), {},
         dict(nodes=20, leaves=7, generators_found=10, twin_cells_collapsed=7,
              trace_prunes=4, orbit_prunes=50, bad_leaves=0, pendant_vertices=0,
              core_size=12)),
    ], ids=["petersen", "tree30", "tree30-no-pendant", "c3+c3+c6"])
    def test_every_counter_pinned(self, build, kwargs, expected):
        """The search's pruning decisions, counter by counter: a refactor
        that keeps the orbits but walks a different tree shows up here."""
        assert asdict(automorphism_search(build(), **kwargs).stats) == expected

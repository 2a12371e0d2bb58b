"""Sequential releases: deltas, incremental re-anonymization, composition.

Covers the dynamic-graph layer (paper Section 6: the published network keeps
growing) end to end: the :class:`~repro.core.republish.GraphDelta` model and
its text format, the incremental refinement/orbit primitives in
:mod:`repro.isomorphism.incremental`, the safe republish path versus the
naive baseline, the sequential (composition) attack that separates them, and
the audit certificate + corpus stream that sweep the whole construction.
"""

import io

import pytest

from repro.attacks.sequential import (
    composed_candidate_set,
    minimum_composed_anonymity,
    sequential_attack,
)
from repro.audit.campaign import SEQUENCE_CHECKS, failures_for_sequence
from repro.audit.certificates import check_sequential_composition
from repro.audit.corpus import generate_base_graph, generate_delta, make_sequence_case
from repro.core.anonymize import anonymize
from repro.core.reference import reference_republish
from repro.core.republish import (
    GraphDelta,
    RepublicationResult,
    read_delta,
    republish,
    republish_naive,
    republish_published,
    validate_delta,
    write_delta,
)
from repro.graphs.generators import (
    barabasi_albert_graph,
    cycle_graph,
    gnp_random_graph,
    path_graph,
)
from repro.graphs.graph import Graph
from repro.graphs.partition import Partition
from repro.isomorphism.incremental import (
    frontier_anchor_cells,
    frontier_orbits,
    incremental_stable_partition,
)
from repro.isomorphism.orbits import automorphism_partition
from repro.isomorphism.refinement import stable_partition
from repro.utils.validation import AnonymizationError, PartitionError, ReproError


def two_triangles() -> Graph:
    return Graph.from_edges([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


# ---------------------------------------------------------------------------
# GraphDelta + validation + text format
# ---------------------------------------------------------------------------

class TestGraphDelta:
    def test_normalizes_vertices_and_edges(self):
        delta = GraphDelta([7, 6], [(7, 6), (0, 6)])
        assert delta.add_vertices == (6, 7)
        assert delta.add_edges == ((0, 6), (6, 7))
        assert delta.n_vertices == 2 and delta.n_edges == 2
        assert delta.describe() == "delta(+2 vertices, +2 edges)"

    def test_rejects_malformed(self):
        with pytest.raises(AnonymizationError, match="twice"):
            GraphDelta([6, 6])
        with pytest.raises(AnonymizationError, match="twice"):
            GraphDelta([6], [(0, 6), (6, 0)])
        with pytest.raises(AnonymizationError, match="self-loop"):
            GraphDelta([6], [(6, 6)])
        with pytest.raises(AnonymizationError, match="not an integer"):
            GraphDelta(["a"])
        with pytest.raises(AnonymizationError, match="not an integer"):
            GraphDelta([6], [(True, 6)])

    def test_validate_against_graph(self):
        graph = two_triangles()
        validate_delta(GraphDelta([6], [(0, 6)]), graph)
        with pytest.raises(AnonymizationError, match="already exists"):
            validate_delta(GraphDelta([0]), graph)
        with pytest.raises(AnonymizationError, match="unknown vertex"):
            validate_delta(GraphDelta([6], [(6, 99)]), graph)
        with pytest.raises(AnonymizationError, match="two published vertices"):
            validate_delta(GraphDelta([6], [(0, 3)]), graph)
        # the naive baseline accepts old-old edges, but not duplicates
        validate_delta(GraphDelta([6], [(0, 3)]), graph, allow_old_edges=True)
        with pytest.raises(AnonymizationError, match="already exists"):
            validate_delta(GraphDelta([], [(0, 1)]), graph, allow_old_edges=True)

    def test_delta_text_round_trip(self, tmp_path):
        delta = GraphDelta([6, 7], [(0, 6), (6, 7)])
        buffer = io.StringIO()
        write_delta(delta, buffer)
        buffer.seek(0)
        assert read_delta(buffer) == delta
        path = tmp_path / "growth.delta"
        write_delta(delta, path)
        assert read_delta(path) == delta

    def test_delta_text_comments_and_errors(self):
        text = "# growth step\nadd-vertex 6\n\nadd-edge 0 6  # anchor\n"
        assert read_delta(io.StringIO(text)) == GraphDelta([6], [(0, 6)])
        with pytest.raises(AnonymizationError, match="line 2"):
            read_delta(io.StringIO("add-vertex 6\ndrop-vertex 3\n"))
        with pytest.raises(AnonymizationError, match="non-integer"):
            read_delta(io.StringIO("add-edge 0 six\n"))


# ---------------------------------------------------------------------------
# incremental refinement / frontier orbits vs the global recomputation
# ---------------------------------------------------------------------------

class TestIncrementalPrimitives:
    def _grown(self, rng: int):
        """A published release grown by a cell-closed frontier."""
        base = gnp_random_graph(12, 0.3, rng=rng)
        release = anonymize(base, 2)
        graph, previous = release.graph.copy(), release.partition
        frontier = [max(graph.vertices()) + 1, max(graph.vertices()) + 2]
        anchor_cell = previous.cells[0]
        for v in frontier:
            graph.add_vertex(v)
        for w in anchor_cell:
            graph.add_edge(w, frontier[0])
        graph.add_edge(frontier[0], frontier[1])
        return graph, previous, frontier

    @pytest.mark.parametrize("rng", [0, 1, 2])
    def test_seeded_refinement_equals_global(self, rng):
        graph, previous, frontier = self._grown(rng)
        seeded = incremental_stable_partition(graph, previous, frontier)
        initial = Partition([list(c) for c in previous.cells] + [frontier])
        assert seeded == stable_partition(graph, initial=initial)

    def test_empty_frontier_is_identity(self):
        graph = cycle_graph(5)
        previous = stable_partition(graph)
        assert incremental_stable_partition(graph, previous, []) is previous

    def test_frontier_validation(self):
        graph, previous, frontier = self._grown(0)
        with pytest.raises(PartitionError, match="already covered"):
            incremental_stable_partition(graph, previous,
                                         frontier + [previous.cells[0][0]])
        with pytest.raises(PartitionError, match="duplicate"):
            incremental_stable_partition(graph, previous, frontier * 2)
        with pytest.raises(PartitionError, match="cover exactly"):
            incremental_stable_partition(graph, previous, frontier[:1])

    @pytest.mark.parametrize("rng", [0, 1, 2])
    def test_frontier_orbits_match_full_search(self, rng):
        graph, previous, frontier = self._grown(rng)
        contracted = frontier_orbits(graph, previous, frontier)
        initial = Partition([list(c) for c in previous.cells] + [sorted(frontier)])
        full = automorphism_partition(graph, initial=initial).orbits
        assert contracted == full.restrict(frontier)

    def test_anchor_cells_require_closure(self):
        graph = two_triangles()
        previous = Partition([[0, 1, 2, 3, 4, 5]])
        grown = graph.copy()
        grown.add_vertex(6)
        grown.add_edge(0, 6)  # one member of a 6-cell: not cell-closed
        with pytest.raises(PartitionError, match="cell-closed"):
            frontier_anchor_cells(grown, previous, [6])
        for w in (1, 2, 3, 4, 5):
            grown.add_edge(w, 6)
        assert frontier_anchor_cells(grown, previous, [6]) == {6: frozenset({0})}


# ---------------------------------------------------------------------------
# the safe path
# ---------------------------------------------------------------------------

class TestRepublish:
    def test_two_triangles_growth(self):
        previous = anonymize(two_triangles(), 2)
        result = republish(previous, GraphDelta([6], [(0, 6)]))
        assert isinstance(result, RepublicationResult)
        # vertex 6 anchored to 0's cell (all six vertices): 5 closure edges
        assert result.closure_edges == 5
        assert result.original_n == previous.original_n + 1
        assert previous.graph.is_subgraph_of(result.graph)
        assert result.base_graph.is_subgraph_of(result.graph)
        # previous cells pass verbatim; the frontier grew to k
        assert result.partition.cells[: len(previous.partition)] == \
            previous.partition.cells
        assert result.partition.min_cell_size() >= result.k

    def test_monotone_cells_and_validity(self):
        base = gnp_random_graph(14, 0.25, rng=3)
        previous = anonymize(base, 3)
        published = previous.graph
        new = [max(published.vertices()) + 1, max(published.vertices()) + 2]
        delta = GraphDelta(new, [(published.sorted_vertices()[0], new[0]),
                                 (new[0], new[1])])
        result = republish(previous, delta)
        for cell in previous.partition.cells:
            index = result.partition.index_of(cell[0])
            assert all(result.partition.index_of(v) == index for v in cell)
        orbits = automorphism_partition(result.graph).orbits
        for cell in result.partition.cells:
            assert len(cell) >= 3
            index = orbits.index_of(cell[0])
            assert all(orbits.index_of(v) == index for v in cell)

    def test_k_can_grow_between_releases(self):
        previous = anonymize(path_graph(4), 2)
        result = republish(previous, GraphDelta([99], [(99, 0)]), k=3)
        assert result.k == 3
        assert result.partition.min_cell_size() >= 3
        # old cells still monotone even though they had to grow
        for cell in previous.partition.cells:
            index = result.partition.index_of(cell[0])
            assert all(result.partition.index_of(v) == index for v in cell)

    @pytest.mark.parametrize("method", ["exact", "stabilization"])
    def test_engine_parity(self, method):
        """The incremental frontier against the global recomputation oracle."""
        base = barabasi_albert_graph(18, 2, rng=5)
        previous = anonymize(base, 2, method=method)
        published = previous.graph
        first = max(published.vertices()) + 1
        delta = GraphDelta([first, first + 1],
                           [(published.sorted_vertices()[3], first),
                            (first, first + 1)])
        ours = republish(previous, delta, method=method)
        oracle = reference_republish(*previous.published(), delta, 2,
                                     method=method)
        assert ours.graph == oracle.graph
        assert ours.partition == oracle.to_partition()
        assert ours.vertices_added == oracle.vertices_added
        assert ours.edges_added == oracle.edges_added

    def test_chained_releases(self):
        previous = anonymize(two_triangles(), 2)
        first = republish(previous, GraphDelta([6], [(0, 6)]))
        second = republish(first, GraphDelta([20], [(20, 6)]))
        assert second.method == first.method
        assert second.k == first.k
        assert first.graph.is_subgraph_of(second.graph)
        assert second.original_n == previous.original_n + 2

    def test_rejects_bad_arguments(self):
        previous = anonymize(two_triangles(), 2)
        delta = GraphDelta([6], [(0, 6)])
        graph, partition, original_n = previous.published()
        with pytest.raises(AnonymizationError, match="method"):
            republish_published(graph, partition, original_n, delta, 2,
                                method="psychic")
        with pytest.raises(ReproError):
            republish_published(graph, partition, original_n, delta, 0)
        with pytest.raises(AnonymizationError, match="impossible"):
            republish_published(graph, partition, graph.n + 1, delta, 2)
        with pytest.raises(AnonymizationError, match="cover"):
            republish_published(graph, Partition([[0, 1]]), original_n, delta, 2)
        with pytest.raises(AnonymizationError, match="two published"):
            republish(previous, GraphDelta([6], [(0, 3), (0, 6)]))

    def test_cost_accounting(self):
        previous = anonymize(two_triangles(), 2)
        result = republish(previous, GraphDelta([6], [(0, 6)]))
        assert result.vertices_added == result.graph.n - result.base_graph.n
        assert result.edges_added == result.graph.m - result.base_graph.m
        assert result.total_cost == (result.vertices_added + result.edges_added
                                     + result.closure_edges)


# ---------------------------------------------------------------------------
# the sequential (composition) attack
# ---------------------------------------------------------------------------

class TestSequentialAttack:
    def test_safe_republication_defeats_composition(self):
        previous = anonymize(two_triangles(), 2)
        result = republish(previous, GraphDelta([6], [(0, 6)]))
        outcome = sequential_attack(previous.graph, result.graph, 0, "combined")
        assert not outcome.fresh_target
        assert outcome.anonymity >= 2
        # the release-0 cell survives inside the composed set
        assert set(previous.partition.cell_of(0)) <= set(outcome.composed)
        assert minimum_composed_anonymity(
            previous.graph, result.graph, "combined",
            targets=previous.graph.sorted_vertices()) >= 2

    def test_naive_republication_breaks(self):
        """The PR's headline demo: naive re-anonymization composes to k=1."""
        previous = anonymize(two_triangles(), 2)
        naive = republish_naive(previous.graph, GraphDelta([6], [(0, 6)]), 2)
        # each release is individually k-symmetric...
        assert previous.partition.min_cell_size() >= 2
        assert naive.partition.min_cell_size() >= 2
        # ...but the composition re-identifies the anchor vertex
        outcome = sequential_attack(previous.graph, naive.graph, 0, "combined")
        assert outcome.anonymity < 2
        assert outcome.re_identified
        assert outcome.composed == [0]
        assert outcome.success_probability == 1.0

    def test_fresh_target_pruned_by_release0(self):
        previous = anonymize(two_triangles(), 2)
        result = republish(previous, GraphDelta([6], [(0, 6)]))
        outcome = sequential_attack(previous.graph, result.graph, 6, "degree")
        assert outcome.fresh_target
        assert outcome.release0_candidates == []
        assert all(v not in previous.graph for v in outcome.composed)
        assert outcome.anonymity >= 2

    def test_composed_candidate_set_helper(self):
        previous = anonymize(two_triangles(), 2)
        result = republish(previous, GraphDelta([6], [(0, 6)]))
        assert composed_candidate_set(
            previous.graph, result.graph, 0, "degree") == sequential_attack(
            previous.graph, result.graph, 0, "degree").composed

    def test_target_must_be_in_newer_release(self):
        graph = two_triangles()
        with pytest.raises(ReproError, match="newer release"):
            sequential_attack(graph, graph, 99, "degree")


# ---------------------------------------------------------------------------
# the audit certificate + corpus stream
# ---------------------------------------------------------------------------

class TestSequentialCompositionCertificate:
    def test_safe_history_passes(self):
        previous = anonymize(two_triangles(), 2)
        result = republish(previous, GraphDelta([6], [(0, 6)]))
        assert check_sequential_composition(result) == []

    def test_split_previous_cell_is_flagged(self):
        previous = anonymize(two_triangles(), 2)
        result = republish(previous, GraphDelta([6], [(0, 6)]))
        cell = list(result.previous_partition.cells[0])
        result.previous_partition = Partition([cell])
        broken = [list(c) for c in result.partition.cells if c != tuple(cell)]
        broken += [cell[:3], cell[3:]]
        result.partition = Partition(broken)
        failures = check_sequential_composition(result)
        assert any("not monotone" in f for f in failures)

    def test_naive_history_fails_composition(self):
        """Wire the naive baseline into the certificate's shape: it must fail."""
        previous = anonymize(two_triangles(), 2)
        delta = GraphDelta([6], [(0, 6)])
        naive = republish_naive(previous.graph, delta, 2)
        imposter = RepublicationResult(
            graph=naive.graph, partition=naive.partition,
            previous_graph=previous.graph,
            previous_partition=previous.partition,
            base_graph=naive.graph, delta=delta, closure_edges=0,
            original_n=previous.original_n + 1, k=2,
            method="exact", copy_unit="orbit")
        failures = check_sequential_composition(imposter)
        assert any("composed attack" in f for f in failures)

    def test_corpus_sequence_cases_are_deterministic_and_pass(self):
        case = make_sequence_case(2010, 0)
        again = make_sequence_case(2010, 0)
        assert case == again
        assert case.family.startswith("seq:")
        base = generate_base_graph(case)
        assert base == generate_base_graph(case)
        previous = anonymize(base, case.k, method=case.method,
                             copy_unit=case.copy_unit)
        delta = generate_delta(case, previous.graph)
        assert delta == generate_delta(case, previous.graph)
        validate_delta(delta, previous.graph)
        failures, ran = failures_for_sequence(case)
        assert failures == []
        assert ran == list(SEQUENCE_CHECKS)

    def test_corpus_distinct_indices_distinct_seeds(self):
        seeds = {make_sequence_case(2010, i).seed for i in range(6)}
        assert len(seeds) == 6
        with pytest.raises(ReproError):
            make_sequence_case(2010, -1)

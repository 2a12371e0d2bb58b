"""The array-first core: boundary, overlay, copy state, backbone, publication, pipeline.

Every test here is a parity pin: the one array engine must be
byte-identical to the seed dict implementations (the oracles in
:mod:`repro.core.reference`) on every label shape a caller can hand it,
because the audit campaign's ``differential:arraycore`` check and the scale
benchmark's gate both assume that equality at every size they can afford
to replay.
"""

import io
import random

import pytest

from repro.arraycore import (
    ArrayPartitionedGraph,
    OverlayGraph,
    backbone_arrays,
    publication_texts_from_arrays,
    run_pipeline,
)
from repro.arraycore.space import array_space, index_cells
from repro.core.anonymize import anonymize
from repro.core.backbone import backbone
from repro.core.fsymmetry import anonymize_f, hub_exclusion_by_degree
from repro.core.orbit_copy import MutablePartitionedGraph
from repro.core.publication import (
    PublicationBuffers,
    load_publication,
    save_publication,
    save_publication_triple,
)
from repro.core.reference import (
    reference_anonymize_cells,
    reference_backbone,
    reference_pipeline,
    reference_sample_approximate,
    reference_sample_exact_growth,
)
from repro.core.republish import (
    GraphDelta,
    _closure_augment,
    _frontier_cells,
    republish_published,
)
from repro.core.sampling import sample_approximate, sample_exact
from repro.datasets.paper_graphs import figure3_graph
from repro.graphs.generators import barabasi_albert_graph, watts_strogatz_graph
from repro.graphs.graph import Graph
from repro.graphs.io import write_edge_list
from repro.graphs.partition import Partition
from repro.isomorphism.canonical import certificate
from repro.isomorphism.orbits import automorphism_partition
from repro.utils.validation import AnonymizationError


def _ba(n=120, m=2, seed=9):
    return barabasi_albert_graph(n, m, random.Random(seed))


def _ws(n=120, k=4, seed=9):
    return watts_strogatz_graph(n, k, 0.1, random.Random(seed))


def _shuffled(graph, seed):
    """The same graph with its vertices inserted in a seeded random order."""
    rand = random.Random(seed)
    vertices = graph.vertices()
    edges = graph.edges()
    rand.shuffle(vertices)
    rand.shuffle(edges)
    return Graph.from_edges(edges, vertices=vertices)


#: integer-labelled inputs whose array space is not their insertion order
INT_INPUTS = {
    "out_of_order": lambda: Graph.from_edges([(2, 0), (0, 1), (1, 3)]),
    "shuffled_ba": lambda: _shuffled(_ba(n=60), 1),
    "figure3": figure3_graph,
    "shifted_ba": lambda: _shuffled(
        _ba(n=60).relabeled({v: 3 * v + 7 for v in range(60)}), 2),
    "isolated": lambda: _shuffled(
        Graph.from_edges(_ba(n=40).edges(), vertices=[40, 57]), 3),
}


def _edge_text(graph):
    buffer = io.StringIO()
    write_edge_list(graph, buffer)
    return buffer.getvalue()


def _assert_same_graph(fast, slow):
    assert fast.equals(slow)
    assert fast.vertices() == slow.vertices()
    assert _edge_text(fast) == _edge_text(slow)


def _records(records):
    return [(r.cell_index, list(r.mapping.items()), r.edges_added) for r in records]


def _assert_same_growth(result, state):
    """An anonymize/republish result against a grown MutablePartitionedGraph."""
    _assert_same_graph(result.graph, state.graph)
    assert result.partition.cells == state.to_partition().cells
    assert _records(result.records) == _records(state.records)
    assert list(result.copy_of.items()) == list(state.copy_of.items())


def _string_labelled(result):
    """A published pair relabelled to strings ("10" sorts before "2")."""
    mapping = {v: str(v) for v in result.graph.vertices()}
    cells = [[mapping[v] for v in cell] for cell in result.partition.cells]
    return result.graph.relabeled(mapping), Partition(cells)


def _oracle_sample_exact(graph, partition, original_n, seed):
    """Algorithm 3 composed from the oracles and the dict copy engine."""
    rand = random.Random(seed)
    spine = reference_backbone(graph, partition)
    weights = [1.0 / max(graph.degree(cell[0]), 1) for cell in partition.cells]
    probabilities = [w / sum(weights) for w in weights]
    copies = reference_sample_exact_growth(
        spine.cells, [list(c) for c in partition.cells], probabilities,
        original_n - spine.graph.n, rand)
    state = MutablePartitionedGraph(spine.graph, Partition(spine.cells))
    ordered = Partition(spine.cells)
    for i, cell in enumerate(spine.cells):
        for _ in range(copies[i]):
            state.copy_cell(ordered.index_of(cell[0]))
    return state.graph, state.to_partition()


class TestArraySpace:
    def test_identity_graph_reuses_its_csr(self):
        graph = _ba()
        indptr, indices, labels = array_space(graph)
        csr = graph.csr()
        assert indptr is csr.indptr and indices is csr.indices
        assert labels == range(graph.n)

    @pytest.mark.parametrize("name", sorted(INT_INPUTS))
    def test_rows_follow_ascending_labels(self, name):
        graph = INT_INPUTS[name]()
        indptr, indices, labels = array_space(graph)
        assert list(labels) == graph.sorted_vertices()
        for i, v in enumerate(labels):
            row = [labels[u] for u in indices[indptr[i]:indptr[i + 1]].tolist()]
            assert row == sorted(graph.neighbors(v))

    def test_string_labels_sort_as_strings(self):
        graph = Graph.from_edges([("10", "2"), ("2", "a"), ("a", "10")])
        _, _, labels = array_space(graph)
        assert labels == ["10", "2", "a"]
        assert index_cells(labels, [("a", "2")]) == [[2, 1]]

    def test_empty_graph(self):
        indptr, indices, labels = array_space(Graph())
        assert len(indptr) == 1 and len(indices) == 0 and labels == range(0)


class TestOverlayGraph:
    def test_from_graph_accepts_any_insertion_order(self):
        graph = _shuffled(_ba(n=40), 5)
        overlay = OverlayGraph.from_graph(graph)
        assert overlay.to_graph(graph, range(overlay.n)).equals(graph)

    def test_from_graph_rejects_noncontiguous(self):
        shifted = _ba().relabeled({v: v + 1 for v in _ba().vertices()})
        with pytest.raises(ValueError):
            OverlayGraph.from_graph(shifted)

    def test_to_graph_round_trips_the_base(self):
        graph = _ws()
        overlay = OverlayGraph.from_graph(graph)
        assert overlay.to_graph(graph, range(overlay.n)).equals(graph)

    def test_freeze_after_insertions_matches_dict_twin(self):
        graph = _ba(n=60)
        overlay = OverlayGraph.from_graph(graph)
        twin = graph.copy()
        fresh = overlay.add_vertex()
        twin.add_vertex(fresh)
        for u in (0, 3, 17):
            overlay.add_edge(u, fresh)
            twin.add_edge(u, fresh)
        view = overlay.to_graph(graph, range(overlay.n))
        assert view.equals(twin)
        assert view.vertices() == twin.vertices()
        # Frozen rows are ascending — the CSR contract every pass assumes.
        indptr, indices = overlay.freeze()
        for v in range(overlay.n):
            row = indices[indptr[v]:indptr[v + 1]].tolist()
            assert row == sorted(row)

    def test_degree_counts_base_plus_overlay(self):
        graph = _ba(n=40)
        overlay = OverlayGraph.from_graph(graph)
        v = overlay.add_vertex()
        overlay.add_edge(0, v)
        assert overlay.degree(v) == 1
        assert overlay.degree(0) == graph.degree(0) + 1
        assert overlay.m == graph.m + 1


class TestEngineParity:
    """The one array engine against compositions of the dict oracles.

    Edges, ``vertices()`` order, cells, records, ``copy_of`` and the
    ``write_edge_list`` text must all match, whatever the input's labels or
    insertion order.
    """

    @pytest.mark.parametrize("copy_unit", ["orbit", "component"])
    @pytest.mark.parametrize("builder", [_ba, _ws])
    def test_results_identical_across_engines(self, builder, copy_unit):
        graph = builder()
        result = anonymize(graph, 3, method="stabilization", copy_unit=copy_unit)
        partition = automorphism_partition(graph, method="stabilization").orbits
        state = reference_anonymize_cells(
            graph, partition, {i: 3 for i in range(len(partition))}, copy_unit)
        _assert_same_growth(result, state)

    @pytest.mark.parametrize("copy_unit", ["orbit", "component"])
    @pytest.mark.parametrize("name", sorted(INT_INPUTS))
    def test_anonymize_matches_oracle(self, name, copy_unit):
        graph = INT_INPUTS[name]()
        result = anonymize(graph, 3, copy_unit=copy_unit)
        partition = automorphism_partition(graph).orbits
        state = reference_anonymize_cells(
            graph, partition, {i: 3 for i in range(len(partition))}, copy_unit)
        _assert_same_growth(result, state)

    @pytest.mark.parametrize("name", sorted(INT_INPUTS))
    def test_anonymize_f_matches_oracle(self, name):
        graph = INT_INPUTS[name]()
        requirement = hub_exclusion_by_degree(3, 4)
        result = anonymize_f(graph, requirement)
        partition = automorphism_partition(graph).orbits
        requirements = {i: requirement(cell, graph) for i, cell in enumerate(partition.cells)}
        state = reference_anonymize_cells(graph, partition, requirements, "orbit")
        _assert_same_growth(result, state)

    @pytest.mark.parametrize("copy_unit", ["orbit", "component"])
    @pytest.mark.parametrize("name", sorted(INT_INPUTS))
    def test_republish_matches_oracle(self, name, copy_unit):
        first = anonymize(INT_INPUTS[name](), 2, copy_unit=copy_unit)
        graph, partition, original_n = first.published()
        top = max(graph.vertices())
        anchor = graph.sorted_vertices()[len(graph.vertices()) // 2]
        delta = GraphDelta([top + 1, top + 2], [(anchor, top + 1), (top + 1, top + 2)])
        result = republish_published(
            graph, partition, original_n, delta, 2, copy_unit=copy_unit)
        base, _ = _closure_augment(graph, partition, delta)
        frontier = _frontier_cells(base, partition, list(delta.add_vertices), "exact", "full")
        cells = Partition([list(c) for c in partition.cells] + [list(c) for c in frontier])
        state = reference_anonymize_cells(
            base, cells, {i: 2 for i in range(len(cells))}, copy_unit)
        _assert_same_growth(result, state)

    @pytest.mark.parametrize("name", sorted(INT_INPUTS))
    def test_backbone_and_samplers_match_oracles(self, name):
        published = anonymize(INT_INPUTS[name](), 2)
        graph, partition, original_n = published.published()
        fast, slow = backbone(graph, partition), reference_backbone(graph, partition)
        _assert_same_graph(fast.graph, slow.graph)
        assert fast.cells == slow.cells and fast.removed == slow.removed
        for seed in range(3):
            _assert_same_graph(
                sample_approximate(graph, partition, original_n, rng=seed),
                reference_sample_approximate(graph, partition, original_n, rng=seed))
            sample, sample_partition = sample_exact(
                graph, partition, original_n, rng=seed, return_partition=True)
            oracle, oracle_partition = _oracle_sample_exact(graph, partition, original_n, seed)
            _assert_same_graph(sample, oracle)
            assert sample_partition.cells == oracle_partition.cells

    def test_string_labels_for_backbone_and_sampler(self):
        published = anonymize(_shuffled(_ba(n=60), 4), 2)
        graph, partition = _string_labelled(published)
        fast, slow = backbone(graph, partition), reference_backbone(graph, partition)
        _assert_same_graph(fast.graph, slow.graph)
        assert fast.cells == slow.cells and fast.removed == slow.removed
        for seed in range(3):
            _assert_same_graph(
                sample_approximate(graph, partition, published.original_n, rng=seed),
                reference_sample_approximate(
                    graph, partition, published.original_n, rng=seed))

    def test_string_labels_rejected_by_anonymize(self):
        graph = Graph()
        graph.add_edge("a", "b")
        graph.add_edge("b", "c")
        with pytest.raises(AnonymizationError, match="not an integer"):
            anonymize(graph, 2)

    def test_empty_graph(self):
        result = anonymize(Graph(), 2)
        assert result.graph.n == 0 and len(result.partition) == 0


class TestArrayPartitionedGraph:
    def test_copy_members_validates_cell_membership(self):
        graph = _ba(n=30)
        partition = automorphism_partition(graph, method="stabilization").orbits
        state = ArrayPartitionedGraph(OverlayGraph.from_graph(graph), partition.cells)
        outsider = partition.cells[-1][0]
        with pytest.raises(AnonymizationError):
            state.copy_members(0, [outsider])
        with pytest.raises(AnonymizationError):
            state.copy_members(0, [])

    def test_copy_of_dict_tracks_fresh_parents(self):
        graph = _ba(n=30)
        partition = automorphism_partition(graph, method="stabilization").orbits
        state = ArrayPartitionedGraph(OverlayGraph.from_graph(graph), partition.cells)
        state.grow_cell_to(0, len(partition.cells[0]) + 1)
        copy_of = state.copy_of_dict()
        assert copy_of  # at least one fresh vertex
        for fresh, parent in copy_of.items():
            assert fresh >= graph.n
            assert parent < graph.n


class TestBackboneArrays:
    @pytest.mark.parametrize("builder", [_ba, _ws])
    def test_matches_dict_backbone_on_published_pair(self, builder):
        # Read back through load_publication: the loaded graph's insertion
        # order is the edge file's, so array_space has to reorder its rows.
        result = anonymize(builder(), 2, method="stabilization")
        buffers = PublicationBuffers.in_memory()
        save_publication(result, buffers)
        graph, partition, _ = load_publication(buffers)
        assert graph.vertices() != graph.sorted_vertices()
        oracle = reference_backbone(graph, partition)
        indptr, indices, labels = array_space(graph)
        alive, cells = backbone_arrays(indptr, indices, index_cells(labels, partition.cells))
        survivors = [labels[v] for v in range(len(labels)) if alive[v]]
        assert survivors == oracle.graph.sorted_vertices()
        assert [[labels[v] for v in cell] for cell in cells] == oracle.cells


class TestPublicationArrays:
    def test_texts_byte_identical_to_dict_writer(self):
        result = anonymize(_ws(), 2, method="stabilization")
        extra = {"k": 2}
        buffers = PublicationBuffers.in_memory()
        save_publication_triple(result.graph, result.partition,
                                result.original_n, buffers, extra=extra)
        csr = result.graph.csr()
        texts = publication_texts_from_arrays(
            csr.indptr, csr.indices, result.partition.cells,
            result.original_n, extra=extra,
        )
        assert texts == buffers.texts()


class TestPipeline:
    @pytest.mark.parametrize("builder", [_ba, _ws])
    def test_artifact_parity_across_engines(self, builder):
        graph = builder(n=150)
        partition = automorphism_partition(graph, method="stabilization").orbits
        fast = run_pipeline(graph, 2, partition=partition, seed=4)
        slow = reference_pipeline(graph, 2, partition=partition, seed=4)
        assert fast.parity_key() == slow.parity_key()

    def test_shuffled_insertion_order_with_isolated_vertices(self):
        graph = _shuffled(Graph.from_edges(_ba(n=50).edges(), vertices=[50, 51]), 6)
        fast = run_pipeline(graph, 3, seed=2)
        slow = reference_pipeline(graph, 3, seed=2)
        assert fast.parity_key() == slow.parity_key()

    def test_stage_records_and_report_shape(self):
        graph = _ba(n=80)
        report = run_pipeline(graph, 2, seed=1)
        names = [stage["name"] for stage in report.stages]
        assert names == ["partition", "anonymize", "publish", "backbone", "sample"]
        for stage in report.stages:
            assert stage["wall_seconds"] >= 0
            assert stage["peak_rss_bytes"] >= 0
        payload = report.to_dict()
        assert list(payload) == sorted(payload)
        assert set(report.artifacts) == {
            "partition", "publication", "backbone", "sample"}

    def test_rejects_labels_outside_range(self):
        shifted = _ba(n=20).relabeled({v: v + 1 for v in range(20)})
        with pytest.raises(ValueError, match="0..n-1"):
            run_pipeline(shifted, 2)


class TestPackedCertificates:
    """The packed-leaf encoding must not change certificate values."""

    def test_certificate_edges_are_plain_int_pairs(self):
        cert = certificate(_ba(n=25))
        n, colors, sizes, edges = cert
        assert n == 25
        for u, v in edges:
            assert type(u) is int and type(v) is int
            assert 0 <= u <= v < n
        assert list(edges) == sorted(edges)

    def test_certificate_invariant_under_relabeling(self):
        graph = _ws(n=40)
        mapping = {v: (v * 17 + 3) % 40 for v in graph.vertices()}
        assert certificate(graph.relabeled(mapping)) == certificate(graph)

"""The array-first core: boundary, overlay, copy state, backbone, publication, pipeline.

Every test here is a parity pin: the one array engine must be
byte-identical to the seed dict implementations (the oracles in
:mod:`repro.core.reference`) on every label shape a caller can hand it,
because the audit campaign's ``differential:arraycore`` check and the scale
benchmark's gate both assume that equality at every size they can afford
to replay.
"""

import ast
import io
import json
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
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
from repro.core.publication import parse_publication, publication_texts
from repro.core.reference import (
    reference_anonymize_cells,
    reference_backbone,
    reference_component_classes,
    reference_pipeline,
    reference_republish,
    reference_sample_approximate,
    reference_sample_exact_growth,
)
from repro.core.republish import GraphDelta, republish_published
from repro.core.sampling import sample_approximate, sample_exact
from repro.datasets.paper_graphs import figure3_graph
from repro.graphs.generators import (
    barabasi_albert_graph,
    complete_bipartite_graph,
    path_graph,
    star_graph,
    watts_strogatz_graph,
)
from repro.graphs.graph import Graph
from repro.graphs.io import write_edge_list
from repro.graphs.partition import Partition
from repro.isomorphism.canonical import certificate
from repro.isomorphism.orbits import automorphism_partition
from repro.utils.rng import derive_seed
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
        partition = automorphism_partition(graph, method="stabilization").orbits
        overlay = OverlayGraph.from_graph(graph)
        state = ArrayPartitionedGraph(overlay, partition.cells)
        twin = MutablePartitionedGraph(graph, partition)
        for cell_index in (0, 3, 17):
            state.copy_cell(cell_index)
            twin.copy_cell(cell_index)
        view = overlay.to_graph(graph, range(overlay.n))
        assert view.equals(twin.graph)
        assert view.vertices() == twin.graph.vertices()
        # Frozen rows are ascending — the CSR contract every pass assumes.
        indptr, indices = overlay.freeze()
        for v in range(overlay.n):
            row = indices[indptr[v]:indptr[v + 1]].tolist()
            assert row == sorted(twin.graph.neighbors(v))

    def test_degree_counts_base_plus_overlay(self):
        """A vertex gains one edge per copy of an outside neighbour, and
        every copy has its original's grown degree."""
        graph = _ba(n=40)
        partition = automorphism_partition(graph, method="stabilization").orbits
        overlay = OverlayGraph.from_graph(graph)
        state = ArrayPartitionedGraph(overlay, partition.cells, {0: 4, 5: 3})
        indptr, indices = overlay.freeze()
        degree = np.diff(indptr).tolist()
        copies = overlay.copy_counts()
        cell_of = overlay.cell_of
        for v in graph.vertices():
            gained = sum(copies[u] for u in graph.neighbors(v) if cell_of[u] != cell_of[v])
            assert degree[v] == graph.degree(v) + gained
        assert state.copy_of_dict()
        for fresh, parent in state.copy_of_dict().items():
            assert degree[fresh] == degree[parent]
        assert len(indices) // 2 == graph.m + sum(r.edges_added for r in state.records)


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
        # k=3 on a k=2 release grows the old cells too, so the component
        # copy unit has more than singletons to copy
        args = (graph, partition, original_n, delta, 3)
        result = republish_published(*args, copy_unit=copy_unit)
        _assert_same_growth(result, reference_republish(*args, copy_unit=copy_unit))

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

    def test_only_the_audit_imports_the_oracles(self):
        """Inside ``src/``, :mod:`repro.core.reference` is the audit's alone."""
        src = Path(repro.__file__).parent
        importers = []
        for path in sorted(src.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module] + [f"{node.module}.{alias.name}"
                                             for alias in node.names]
                else:
                    continue
                if "repro.core.reference" in names:
                    importers.append(path.relative_to(src).as_posix())
        assert importers
        assert all(p.startswith("audit/") for p in importers), importers


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
        # the adjacent twins {0, 1} hang off 2 and 3: a unit must keep the
        # internal edge whole, and only input vertices are copied
        graph = Graph.from_edges([(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
        partition = automorphism_partition(graph).orbits
        cell = partition.index_of(0)
        state = ArrayPartitionedGraph(OverlayGraph.from_graph(graph), partition.cells)
        with pytest.raises(AnonymizationError, match="not closed"):
            state.copy_members(cell, [0])
        state.copy_cell(cell)
        with pytest.raises(AnonymizationError, match="original members"):
            state.copy_members(cell, [graph.n])

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


@st.composite
def _partitioned_graphs(draw):
    """A graph on 0..n-1 (any insertion order), any covering partition,
    and a requirement per cell — some already met."""
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    order = draw(st.permutations(range(n)))
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    partition = Partition(
        [[v for v in order if labels[v] == label] for label in dict.fromkeys(labels)])
    required = draw(st.lists(st.integers(1, 6), min_size=len(partition),
                             max_size=len(partition)))
    return Graph.from_edges(edges, vertices=order), partition, required


class TestClosedFormGrowth:
    """The closed form against the dict engine on partitions that are not
    orbit partitions: Definition 3's edges follow from the input graph
    whatever the cells are, as long as each copy unit is closed."""

    @settings(max_examples=60, deadline=None)
    @given(case=_partitioned_graphs(), copy_unit=st.sampled_from(["orbit", "component"]))
    def test_grow_matches_dict_engine(self, case, copy_unit):
        graph, partition, required = case
        by_cell = dict(zip(partition.cells, required))
        result = anonymize_f(graph, lambda cell, _: by_cell[cell],
                             partition=partition, copy_unit=copy_unit)
        state = reference_anonymize_cells(
            graph, partition, dict(enumerate(required)), copy_unit)
        _assert_same_growth(result, state)

    @settings(max_examples=40, deadline=None)
    @given(case=_partitioned_graphs(),
           ops=st.lists(st.tuples(st.integers(0, 8), st.booleans()), min_size=1, max_size=6))
    def test_single_operations_in_any_cell_order(self, case, ops):
        graph, partition, _ = case
        overlay = OverlayGraph.from_graph(graph)
        state = ArrayPartitionedGraph(overlay, partition.cells)
        twin = MutablePartitionedGraph(graph, partition)
        for pick, component in ops:
            cell = pick % len(partition)
            members = twin.original_members[cell]
            if component:
                classes = reference_component_classes(twin.graph, members)
                unit = sorted(v for cls in classes for v in cls[0])
                assert state.component_copy_unit(cell) == unit
            else:
                unit = members
            state.copy_members(cell, unit)
            twin.copy_members(cell, unit)
        _assert_same_graph(overlay.to_graph(graph, range(overlay.n)), twin.graph)
        assert [sorted(cell) for cell in state.cells] == [sorted(c) for c in twin.cells]
        assert _records(state.records) == _records(twin.records)
        assert list(state.copy_of_dict().items()) == list(twin.copy_of.items())


def _assert_backbone_parity(graph, partition):
    """backbone_arrays through the label boundary against the oracle."""
    oracle = reference_backbone(graph, partition)
    indptr, indices, labels = array_space(graph)
    alive, cells = backbone_arrays(indptr, indices, index_cells(labels, partition.cells))
    survivors = [labels[v] for v in range(len(labels)) if alive[v]]
    assert survivors == oracle.graph.sorted_vertices()
    assert [[labels[v] for v in cell] for cell in cells] == oracle.cells
    return oracle


def _oracle_sweeps(graph, partition, order):
    """The oracle's sequential sweep with the cells visited in *order*.

    Returns the surviving vertices, the cells and the number of vertices
    each sweep removed (the last sweep removes none).
    """
    work = graph.copy()
    cells = [sorted(cell) for cell in partition.cells]
    removed_per_sweep = []
    while not removed_per_sweep or removed_per_sweep[-1]:
        removed = 0
        for index in order:
            if len(cells[index]) < 2:
                continue
            keep = []
            for cls in reference_component_classes(work, cells[index]):
                keep.extend(cls[0])
                for extra in cls[1:]:
                    work.remove_vertices(extra)
                    removed += len(extra)
            cells[index] = sorted(keep)
        removed_per_sweep.append(removed)
    return work.sorted_vertices(), cells, removed_per_sweep


@st.composite
def _backbone_cases(draw):
    """A small graph with twins grafted on, under one of three partitions:
    its orbit partition, an anonymized pair (k = 2 or 3, either copy unit)
    or an arbitrary covering partition."""
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    graph = Graph.from_edges(edges, vertices=range(n))
    grafts = st.tuples(st.integers(0, n - 1), st.booleans())
    for origin, adjacent in draw(st.lists(grafts, max_size=4)):
        twin = graph.n
        graph.add_vertex(twin)
        for u in sorted(graph.neighbors(origin)):
            graph.add_edge(twin, u)
        if adjacent:
            graph.add_edge(origin, twin)
    kind = draw(st.sampled_from(["orbit", "anonymized", "arbitrary"]))
    if kind == "orbit":
        return graph, automorphism_partition(graph).orbits
    if kind == "anonymized":
        k = draw(st.integers(2, 3))
        result = anonymize(graph, k, copy_unit=draw(st.sampled_from(["orbit", "component"])))
        return result.graph, result.partition
    labels = draw(st.lists(st.integers(0, 3), min_size=graph.n, max_size=graph.n))
    vertices = graph.vertices()
    return graph, Partition(
        [[v for v in vertices if labels[v] == label] for label in dict.fromkeys(labels)])


def _star_with_twin_pairs():
    """Hub 0 with leaves 1-3 and the joined pairs (4, 5), (6, 7) in one cell."""
    graph = Graph.from_edges([(0, v) for v in range(1, 8)] + [(4, 5), (6, 7)])
    return graph, Partition([[0], list(range(1, 8))])


def _isolated_rows():
    """Isolated vertices at the start, middle and end of the CSR rows."""
    graph = Graph.from_edges([(1, 2), (2, 3), (3, 4), (6, 7), (7, 8), (4, 6)],
                             vertices=range(10))
    return graph, Partition([[0, 5, 9], [1, 8], [2, 7], [3, 6], [4]])


#: hand-built shapes: name -> a function returning (graph, partition)
BACKBONE_SHAPES = {
    "star-leaves": lambda: (star_graph(6), Partition([[0], list(range(1, 7))])),
    "k23": lambda: (complete_bipartite_graph(2, 3), Partition([[0, 1], [2, 3, 4]])),
    "adjacent-twins": lambda: (
        Graph.from_edges([(0, 1), (0, 2), (1, 2), (2, 3)]),
        Partition([[0, 1], [2], [3]])),
    "cell-with-both": _star_with_twin_pairs,
    "isolated-rows": _isolated_rows,
    "edgeless": lambda: (Graph.from_edges([], vertices=range(6)),
                         Partition([[0, 1, 2], [3, 4, 5]])),
    "empty": lambda: (Graph(), Partition([])),
    "one-big-cell": lambda: (_ws(n=60), Partition([range(60)])),
    "one-big-flat-cell": lambda: (star_graph(300), Partition([[0], range(1, 301)])),
    "flat-cells-mixed-degrees": lambda: (path_graph(4), Partition([[0, 2], [1, 3]])),
    "ws-publication-k3": lambda: anonymize(_ws(n=60), 3).published()[:2],
}


class TestBackboneArrays:
    @pytest.mark.parametrize("builder", [_ba, _ws])
    def test_matches_dict_backbone_on_published_pair(self, builder):
        # Read back through parse_publication: the loaded graph's insertion
        # order is the edge file's, so array_space has to reorder its rows.
        result = anonymize(builder(), 2, method="stabilization")
        graph, partition, _ = parse_publication(*publication_texts(*result.published()))
        assert graph.vertices() != graph.sorted_vertices()
        _assert_backbone_parity(graph, partition)

    @settings(max_examples=80, deadline=None)
    @given(case=_backbone_cases())
    def test_matches_oracle_on_any_partition(self, case):
        _assert_backbone_parity(*case)

    @pytest.mark.parametrize("name", sorted(BACKBONE_SHAPES))
    def test_pinned_shapes(self, name):
        _assert_backbone_parity(*BACKBONE_SHAPES[name]())

    @pytest.mark.parametrize("name", sorted(BACKBONE_SHAPES))
    def test_forced_collisions_change_nothing(self, name, monkeypatch):
        monkeypatch.setattr(repro.arraycore.backbone, "splitmix64", np.zeros_like)
        _assert_backbone_parity(*BACKBONE_SHAPES[name]())

    @staticmethod
    def _per_cell_calls(monkeypatch):
        """The member lists the per-cell path is called with, as they come."""
        calls = []
        original = repro.arraycore.backbone.component_classes_arrays

        def spy(row_of, alive, members):
            calls.append(list(members))
            return original(row_of, alive, members)

        monkeypatch.setattr(repro.arraycore.backbone, "component_classes_arrays", spy)
        return calls

    def test_flat_cells_skip_the_per_cell_path(self, monkeypatch):
        # Every cell of a k=2 publication of an asymmetric BA graph is a
        # vertex and its non-adjacent copy: the batched path removes every
        # copy and the per-cell path never runs.
        graph, partition = anonymize(_ba(), 2, method="stabilization").published()[:2]
        assert all(len(cell) == 2 for cell in partition.cells)
        calls = self._per_cell_calls(monkeypatch)
        oracle = _assert_backbone_parity(graph, partition)
        assert oracle.n_removed == len(partition)
        assert calls == []

    @pytest.mark.parametrize("chunk", [1, 3, 64])
    def test_chunk_boundaries_inside_rows(self, chunk, monkeypatch):
        # The entry passes carry the running sum and the row ranges across
        # chunks; a wrong carry shows up as collisions on the per-cell path.
        monkeypatch.setattr(repro.arraycore.backbone, "BACKBONE_CHUNK", chunk)
        for name in sorted(BACKBONE_SHAPES):
            _assert_backbone_parity(*BACKBONE_SHAPES[name]())
        graph, partition = anonymize(_ws(n=60), 2, method="stabilization").published()[:2]
        calls = self._per_cell_calls(monkeypatch)
        _assert_backbone_parity(graph, partition)
        assert calls == []

    def test_collided_cells_take_the_per_cell_path(self, monkeypatch):
        graph, partition = _isolated_rows()
        calls = self._per_cell_calls(monkeypatch)
        _assert_backbone_parity(graph, partition)
        assert calls == []
        # With every hash equal, the flat cells whose rows differ collide.
        monkeypatch.setattr(repro.arraycore.backbone, "splitmix64", np.zeros_like)
        _assert_backbone_parity(graph, partition)
        assert calls == [[1, 8], [2, 7], [3, 6]]

    def test_cells_with_an_internal_edge_take_the_per_cell_path(self, monkeypatch):
        graph, partition = _star_with_twin_pairs()
        calls = self._per_cell_calls(monkeypatch)
        oracle = _assert_backbone_parity(graph, partition)
        assert calls == [list(range(1, 8))]
        assert oracle.cells == [[0], [1, 4, 5]]

    @settings(max_examples=80, deadline=None)
    @given(case=_backbone_cases())
    def test_one_sweep_is_the_fixpoint_in_any_cell_order(self, case):
        graph, partition = case
        forward = _oracle_sweeps(graph, partition, range(len(partition)))
        backward = _oracle_sweeps(graph, partition, reversed(range(len(partition))))
        assert forward[2][1:] in ([], [0])
        assert backward[:2] == forward[:2]


class TestPublicationArrays:
    def test_texts_byte_identical_to_dict_writer(self):
        result = anonymize(_ws(), 2, method="stabilization")
        extra = {"k": 2}
        csr = result.graph.csr()
        texts = publication_texts_from_arrays(
            csr.indptr, csr.indices, result.partition.cells,
            result.original_n, extra=extra,
        )
        assert texts == publication_texts(*result.published(), extra=extra)


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

    @pytest.mark.parametrize("family", ["ba", "ws"])
    def test_committed_scale_digests(self, family):
        """The artifact digests committed in BENCH_scale.json are the
        contract: its n=1e4 rows, rebuilt the way benchmarks/bench_scale.py
        builds them, must come out byte-identical."""
        committed = json.loads(
            (Path(__file__).resolve().parents[1] / "BENCH_scale.json").read_text())
        n = 10_000
        row = next(r for r in committed["runs"] if r["family"] == family and r["n"] == n)
        rng = random.Random(derive_seed(committed["seed"], f"bench_scale/{family}/{n}"))
        if family == "ba":
            graph = barabasi_albert_graph(n, 3, rng)
        else:
            graph = watts_strogatz_graph(n, 4, 0.1, rng)
        partition = automorphism_partition(graph, method=committed["method"]).orbits
        report = run_pipeline(graph, committed["k"], partition=partition,
                              copy_unit=committed["copy_unit"], seed=committed["seed"])
        assert report.artifacts == row["artifacts"]

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

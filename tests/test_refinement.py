"""Tests for colour refinement and the ordered-partition structure."""

import numpy as np
import pytest
from hypothesis import given

from repro.graphs.generators import (
    barabasi_albert_graph,
    circulant_graph,
    complete_graph,
    crown_graph,
    cycle_graph,
    disjoint_union,
    hypercube_graph,
    path_graph,
    petersen_graph,
    random_tree,
    star_graph,
)
from repro.graphs.graph import Graph
from repro.graphs.partition import Partition
from repro.isomorphism import refinement
from repro.isomorphism.refinement import (
    OrderedPartition,
    is_equitable,
    stable_partition,
)
from repro.isomorphism.refinement_reference import reference_stable_partition
from repro.utils.validation import PartitionError

from conftest import small_graphs


class TestOrderedPartition:
    def test_construction_and_cells(self):
        op = OrderedPartition([[1, 2], [3]])
        assert op.n == 3
        assert op.n_cells() == 2
        assert op.cell_members(0) == [1, 2]
        assert op.cell_members(2) == [3]
        assert op.cell_of(2) == 0

    def test_duplicate_rejected(self):
        with pytest.raises(PartitionError):
            OrderedPartition([[1], [1]])

    def test_empty_cell_rejected(self):
        with pytest.raises(PartitionError):
            OrderedPartition([[1], []])

    def test_individualize(self):
        op = OrderedPartition([[1, 2, 3]])
        rest = op.individualize(2)
        assert op.cell_members(0) == [2]
        assert sorted(op.cell_members(rest)) == [1, 3]
        assert op.n_cells() == 2

    def test_individualize_singleton_rejected(self):
        op = OrderedPartition([[1], [2, 3]])
        with pytest.raises(PartitionError):
            op.individualize(1)

    def test_discrete_detection_and_labeling(self):
        op = OrderedPartition([[1], [2]])
        assert op.is_discrete()
        assert op.labeling() == {1: 0, 2: 1}
        op2 = OrderedPartition([[1, 2]])
        assert not op2.is_discrete()
        with pytest.raises(PartitionError):
            op2.labeling()

    def test_copy_independent(self):
        op = OrderedPartition([[1, 2]])
        clone = op.copy()
        clone.individualize(1)
        assert op.n_cells() == 1 and clone.n_cells() == 2

    def test_nonsingleton_tracking(self):
        op = OrderedPartition([[1, 2, 3], [4]])
        assert op.smallest_nonsingleton() == 0
        assert op.first_nonsingleton() == 0
        op.individualize(1)
        op.individualize(2)
        assert op.smallest_nonsingleton() is None


class TestRefine:
    def test_path_graph_splits_by_eccentricity_profile(self):
        g = path_graph(5)
        p = stable_partition(g)
        # ends {0,4}, next {1,3}, centre {2}
        assert p == Partition([[0, 4], [1, 3], [2]])

    def test_regular_graph_does_not_split(self):
        for g in (cycle_graph(7), complete_graph(5)):
            p = stable_partition(g)
            assert len(p) == 1

    def test_star_splits_hub_from_leaves(self):
        p = stable_partition(star_graph(6))
        assert p == Partition([[0], [1, 2, 3, 4, 5, 6]])

    def test_respects_initial_partition(self):
        g = cycle_graph(6)
        initial = Partition([[0], [1, 2, 3, 4, 5]])
        p = stable_partition(g, initial=initial)
        # distances from 0: {0} {1,5} {2,4} {3}
        assert p == Partition([[0], [1, 5], [2, 4], [3]])

    def test_initial_must_cover(self):
        with pytest.raises(PartitionError):
            stable_partition(path_graph(3), initial=Partition([[0]]))

    def test_trace_is_deterministic(self):
        g = path_graph(6)
        op1 = OrderedPartition.unit(g.vertices())
        op2 = OrderedPartition.unit(g.vertices())
        assert op1.refine(g) == op2.refine(g)

    @given(small_graphs())
    def test_stable_partition_is_equitable(self, g):
        assert is_equitable(g, stable_partition(g))

    @given(small_graphs())
    def test_stable_partition_is_coarsest_fixpoint(self, g):
        """Refining the stable partition again changes nothing."""
        p = stable_partition(g)
        assert stable_partition(g, initial=p) == p

    @given(small_graphs(min_n=2))
    def test_degrees_constant_within_cells(self, g):
        for cell in stable_partition(g).cells:
            assert len({g.degree(v) for v in cell}) == 1


class TestIsEquitable:
    def test_detects_non_equitable(self):
        g = path_graph(3)
        assert not is_equitable(g, Partition.unit(g.vertices()))
        assert is_equitable(g, Partition([[0, 2], [1]]))
        assert is_equitable(g, Partition.singletons(g.vertices()))


class TestNonsingletonBookkeeping:
    @given(small_graphs(min_n=2))
    def test_nonsingleton_set_consistent_after_refine(self, g):
        op = OrderedPartition.unit(g.vertices())
        op.refine(g)
        truth = {s for s, length in op.cell_len.items() if length > 1}
        assert op.nonsingleton == truth

    @given(small_graphs(min_n=3))
    def test_nonsingleton_set_consistent_after_individualize(self, g):
        op = OrderedPartition.unit(g.vertices())
        op.refine(g)
        target = op.smallest_nonsingleton()
        if target is None:
            return
        member = op.cell_members(target)[0]
        op.individualize(member)
        op.refine(g, active=[target])
        truth = {s for s, length in op.cell_len.items() if length > 1}
        assert op.nonsingleton == truth


# ---------------------------------------------------------------------------
# stable_partition's hashed rounds: parity with the dict oracle on every route
# ---------------------------------------------------------------------------

def _with_twins(base: Graph, count: int, adjacent: bool) -> tuple[Graph, list]:
    """*base* plus a twin of each of *count* pairwise non-adjacent vertices.

    A twin copies its original's neighbours (and, if *adjacent*, is joined to
    it); picking an independent set keeps every pair exact twins. Returns
    the graph and the (original, twin) pairs.
    """
    graph = base.copy()
    picked: list[int] = []
    blocked: set[int] = set()
    for v in sorted(base.vertices()):
        if v not in blocked and base.degree(v) >= 2:
            picked.append(v)
            blocked.add(v)
            blocked.update(base.neighbors(v))
        if len(picked) == count:
            break
    assert len(picked) == count
    for offset, v in enumerate(picked):
        twin = base.n + offset
        graph.add_vertex(twin)
        for u in base.neighbors(v):
            graph.add_edge(twin, u)
        if adjacent:
            graph.add_edge(twin, v)
    return graph, [(v, base.n + offset) for offset, v in enumerate(picked)]


def _cycle_with_tail() -> Graph:
    graph = cycle_graph(9)
    graph.add_edge(0, 9)
    for v in range(9, 15):
        graph.add_edge(v, v + 1)
    return graph


def _isolated_around_core() -> Graph:
    # Empty rows at the start, in the middle and at the end of the CSR.
    graph = Graph()
    graph.add_vertices(range(4))
    core = barabasi_albert_graph(30, 2, rng=9)
    for u, v in core.edges():
        graph.add_edge(u + 4, v + 4)
    graph.add_vertices(range(34, 38))
    for u, v in cycle_graph(5).edges():
        graph.add_edge(u + 38, v + 38)
    graph.add_vertices(range(43, 47))
    return graph


FAMILIES = {
    "adjacent-twins": lambda: _with_twins(barabasi_albert_graph(400, 2, rng=5), 60, True)[0],
    "non-adjacent-twins": lambda: _with_twins(
        barabasi_albert_graph(400, 2, rng=6), 60, False)[0],
    "path": lambda: path_graph(41),
    "cycle": lambda: cycle_graph(30),
    "cycle-with-tail": _cycle_with_tail,
    "petersen": petersen_graph,
    "3-regular": lambda: circulant_graph(20, [1, 10]),
    "4-regular": lambda: circulant_graph(24, [1, 5]),
    "crown": lambda: crown_graph(5),
    "hypercube": lambda: hypercube_graph(4),
    "tree": lambda: random_tree(80, rng=4),
    "union-c6-2k3": lambda: disjoint_union(
        cycle_graph(6), complete_graph(3), complete_graph(3)),
    "union-mixed": lambda: disjoint_union(
        path_graph(5), star_graph(3), petersen_graph(), path_graph(5)),
    "isolated": _isolated_around_core,
    "edgeless": lambda: Graph.from_edges([], vertices=range(7)),
}


def _thirds(graph: Graph) -> Partition:
    cells: dict[int, list] = {}
    for v in graph.vertices():
        cells.setdefault(v % 3, []).append(v)
    return Partition(cells.values())


class _RefineSpy:
    """Counts worklist runs while delegating to the real ``refine``."""

    def __init__(self, monkeypatch) -> None:
        self.calls = 0
        real = OrderedPartition.refine

        def spy(op, graph, active=None):
            self.calls += 1
            return real(op, graph, active)

        monkeypatch.setattr(OrderedPartition, "refine", spy)


def _assert_parity(graph: Graph, initial: Partition | None = None) -> Partition:
    fast = stable_partition(graph, initial=initial)
    oracle = reference_stable_partition(graph, initial=initial)
    assert fast == oracle
    assert fast.cells == oracle.cells
    return fast


class TestHashedStablePartition:
    @pytest.mark.parametrize("budget", [None, 0, 1], ids=["hash", "budget0", "budget1"])
    @pytest.mark.parametrize("seeded", [False, True], ids=["unit", "initial"])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_parity_with_reference(self, family, seeded, budget, monkeypatch):
        if budget is not None:
            monkeypatch.setattr(refinement, "_ROUND_BUDGET", budget)
        graph = FAMILIES[family]()
        _assert_parity(graph, _thirds(graph) if seeded else None)

    @pytest.mark.parametrize("adjacent", [True, False])
    def test_twin_pairs_share_cells(self, adjacent):
        graph, pairs = _with_twins(barabasi_albert_graph(400, 2, rng=5), 60, adjacent)
        partition = _assert_parity(graph)
        assert len(pairs) >= 50
        for v, twin in pairs:
            assert partition.same_cell(v, twin)
            assert graph.degree(v) >= (3 if adjacent else 2)

    def test_isolated_rows_sum_to_zero(self):
        graph = _isolated_around_core()
        partition = _assert_parity(graph)
        isolated = [v for v in graph.vertices() if graph.degree(v) == 0]
        assert partition.cell_of(isolated[0]) == tuple(isolated)

    def test_hash_only_finish(self, monkeypatch):
        spy = _RefineSpy(monkeypatch)
        graph = FAMILIES["adjacent-twins"]()
        _assert_parity(graph)
        # The oracle is dict-backed; only stable_partition reaches refine.
        assert spy.calls == 0

    @pytest.mark.parametrize("budget", [0, 1])
    def test_handover_after_few_rounds(self, budget, monkeypatch):
        monkeypatch.setattr(refinement, "_ROUND_BUDGET", budget)
        spy = _RefineSpy(monkeypatch)
        _assert_parity(FAMILIES["adjacent-twins"]())
        assert spy.calls == 1

    def test_long_path_hands_over_after_the_budget(self, monkeypatch):
        spy = _RefineSpy(monkeypatch)
        _assert_parity(path_graph(4 * refinement._ROUND_BUDGET))
        assert spy.calls == 1

    def test_colliding_weights_are_caught_by_the_check(self, monkeypatch):
        # Every weight equal: a round sees only degrees, so the rounds stop
        # at the degree partition and the exact check must hand over.
        monkeypatch.setattr(refinement, "_splitmix64", np.zeros_like)
        spy = _RefineSpy(monkeypatch)
        graph = FAMILIES["cycle-with-tail"]()
        _assert_parity(graph)
        _assert_parity(graph, _thirds(graph))
        assert spy.calls == 2

    def test_unsortable_vertices_keep_the_worklist_order(self, monkeypatch):
        graph = Graph.from_edges(
            [(0, "a"), ("a", 1), (1, "b"), ("b", 2), (2, 0), (2, "c"), ("c", 3)],
            vertices=["z", 4],
        )
        _assert_parity(graph)
        # A discrete result over unsortable vertices lists its cells in the
        # worklist's slot order, which the dict oracle does not share.
        initial = Partition([[0, 1, 2, 3, 4], ["a", "b", "c", "z"]])
        worklist = OrderedPartition.from_partition(initial)
        worklist.refine(graph)
        fast = stable_partition(graph, initial=initial)
        assert fast == reference_stable_partition(graph, initial=initial)
        assert fast.cells == worklist.to_partition().cells
        spy = _RefineSpy(monkeypatch)
        stable_partition(graph)
        stable_partition(graph, initial=initial)
        assert spy.calls == 2

    def test_string_labels_take_the_hashed_path(self, monkeypatch):
        graph = Graph.from_edges(
            [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "e")],
            vertices=["isolated"],
        )
        spy = _RefineSpy(monkeypatch)
        _assert_parity(graph)
        assert spy.calls == 0

    def test_empty_graph(self):
        assert stable_partition(Graph()).cells == ()
        assert stable_partition(Graph(), initial=Partition([])).cells == ()

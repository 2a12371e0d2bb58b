"""Stateful property testing: arbitrary interleavings of the core operations.

A hypothesis rule machine drives :class:`MutablePartitionedGraph` through
random sequences of whole-cell and backbone-slice copy operations on random
small seed graphs, checking after every step the invariants the paper's
lemmas promise:

* the tracked partition always covers the graph and its cells are
  degree-homogeneous;
* the original graph stays an induced subgraph;
* cell sizes only grow, by exactly the copy-unit size;
* at teardown (graphs still small enough), the tracked partition is a true
  sub-automorphism partition per the exhaustive Definition 2 check.
"""

import random

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.arraycore import component_classes_arrays
from repro.core.orbit_copy import MutablePartitionedGraph
from repro.core.partitions import exhaustive_subautomorphism_check
from repro.core.reference import reference_component_classes
from repro.graphs.generators import gnp_random_graph
from repro.isomorphism.orbits import automorphism_partition

MAX_VERTICES = 24  # keep the exhaustive teardown check feasible


class OrbitCopyMachine(RuleBasedStateMachine):
    @initialize(seed=st.integers(0, 10**6), n=st.integers(2, 6))
    def setup(self, seed, n):
        rand = random.Random(seed)
        self.original = gnp_random_graph(n, rand.uniform(0.2, 0.8), rng=seed)
        orbits = automorphism_partition(self.original).orbits
        self.state = MutablePartitionedGraph(self.original, orbits)
        self.n_cells = len(orbits)

    def _small_enough(self) -> bool:
        return self.state.graph.n <= MAX_VERTICES

    @rule(cell=st.integers(0, 64))
    def copy_whole_cell(self, cell):
        if not self._small_enough():
            return
        index = cell % self.n_cells
        before = self.state.cell_size(index)
        record = self.state.copy_cell(index)
        assert record.vertices_added == len(self.state.original_members[index])
        assert self.state.cell_size(index) == before + record.vertices_added

    @rule(cell=st.integers(0, 64))
    def copy_backbone_slice(self, cell):
        if not self._small_enough():
            return
        index = cell % self.n_cells
        members = self.state.original_members[index]
        graph = self.state.graph
        classes = reference_component_classes(graph, members)
        assert component_classes_arrays(graph.neighbors, lambda u: True, members) == classes
        unit = sorted(v for cls in classes for v in cls[0])
        before = self.state.cell_size(index)
        self.state.copy_members(index, unit)
        assert self.state.cell_size(index) == before + len(unit)

    @invariant()
    def partition_covers_graph(self):
        if not hasattr(self, "state"):
            return
        covered = {v for cell in self.state.cells for v in cell}
        assert covered == set(self.state.graph.vertices())

    @invariant()
    def cells_are_degree_homogeneous(self):
        if not hasattr(self, "state"):
            return
        for cell in self.state.cells:
            assert len({self.state.graph.degree(v) for v in cell}) == 1

    @invariant()
    def original_remains_subgraph(self):
        if not hasattr(self, "state"):
            return
        assert self.original.is_subgraph_of(self.state.graph)

    @invariant()
    def accounting_consistent(self):
        if not hasattr(self, "state"):
            return
        assert self.state.graph.n == self.original.n + self.state.vertices_added
        assert self.state.graph.m == self.original.m + self.state.edges_added

    def teardown(self):
        if hasattr(self, "state") and self.state.graph.n <= 9:
            assert exhaustive_subautomorphism_check(
                self.state.graph, self.state.to_partition(), max_n=9
            )


OrbitCopyMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=8, deadline=None
)
TestOrbitCopyStateful = OrbitCopyMachine.TestCase

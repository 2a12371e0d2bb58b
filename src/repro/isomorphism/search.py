"""Individualization–refinement search for the automorphism group of a graph.

This is the from-scratch replacement for the subset of `nauty` the paper
relies on: generators of Aut(G) and the automorphism partition Orb(G).

As in nauty, one individualization–refinement core serves both the group
and the canonical labeling: :class:`_IRSearch` holds what the two searches
share (slot-space leaf keys, the deduplicated generator store, twin-collapse
recording, the first-leaf automorphism test and the prefix-fixing orbit
pruning), :class:`_Searcher` adds the group search's policies below, and
:mod:`repro.isomorphism.canonical` adds the canonical labeling's.

The group search is McKay's scheme, specialised to group computation:

1. Refine the initial partition to the coarsest equitable partition.
2. *Twin collapse*: an equitable cell whose members all share the same
   neighbour set outside the cell and induce an empty or complete subgraph
   is acted on by the full symmetric group independently of the rest of the
   graph; emit adjacent transpositions as generators and discretize the cell
   wholesale. This is the dominant symmetry in social networks (degree-1
   leaves, duplicate accounts) and turns the paper's Net-trace-style
   hub-with-1656-leaves case from a 1656-level search into a single pass.
   The collapse is also applied after every individualization step, because
   splitting cells frequently *creates* twin cells (e.g. the leaves of two
   symmetric subtrees separate once their roots are distinguished).
3. Backtracking search: repeatedly individualize a vertex of the smallest
   non-singleton cell and re-refine. Leaves (discrete partitions) are
   compared against the *first* leaf; an equal certificate yields an
   automorphism generator. Branches are pruned when
   (a) their refinement trace differs from the first path's trace at the
   same depth (no automorphism can map them onto the first leaf), or
   (b) the branching vertex lies in the same orbit as an already-explored
   sibling under the subgroup generated by the discovered generators that
   fix the current branching prefix pointwise.
   By McKay's theorem the automorphisms discovered this way generate Aut(G).

Exactness is validated in the test suite against exhaustive enumeration on
hundreds of small random and structured graphs.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Hashable
from dataclasses import dataclass, field

import numpy as np

from repro.graphs.graph import Graph
from repro.graphs.partition import Partition
from repro.graphs.permutation import Permutation
from repro.isomorphism.refinement import OrderedPartition, TraceEntry
from repro.utils.unionfind import UnionFind
from repro.utils.validation import PartitionError

Vertex = Hashable


@dataclass
class SearchStats:
    """Instrumentation for the IR search (exposed for benchmarks and tuning)."""

    nodes: int = 0
    leaves: int = 0
    generators_found: int = 0
    twin_cells_collapsed: int = 0
    trace_prunes: int = 0
    orbit_prunes: int = 0
    bad_leaves: int = 0
    pendant_vertices: int = 0
    core_size: int = 0


@dataclass
class AutomorphismSearchResult:
    """Generators of Aut(G), the orbit partition, and search statistics."""

    generators: list[Permutation]
    orbits: Partition
    stats: SearchStats = field(default_factory=SearchStats)


def collapse_twin_cells(graph: Graph, op: OrderedPartition) -> tuple[list[Permutation], int]:
    """Resolve fully-symmetric (pairwise-twin) cells of an equitable partition.

    A cell qualifies when all members share the same neighbour set outside
    the cell and the induced subgraph on the cell is empty or complete; the
    symmetric group then acts on the cell independently of the rest of the
    graph. Returns transposition generators and the number of cells
    collapsed. The partition is discretized in place on those cells and
    stays equitable (outside vertices are adjacent to all or none of a twin
    cell), so no re-refinement is needed.
    """
    generators: list[Permutation] = []
    collapsed = 0
    for start in sorted(op.nonsingleton):
        members = op.cell_members(start)
        cell_set = set(members)
        first_outside = graph.neighbors(members[0]) - cell_set
        if any(graph.neighbors(v) - cell_set != first_outside for v in members[1:]):
            continue
        inside_degree = len(graph.neighbors(members[0]) & cell_set)
        if inside_degree not in (0, len(members) - 1):
            continue
        # Equitability makes inside_degree uniform across the cell, so this
        # cell is pairwise-twin: discretize and emit S_cell generators.
        for a, b in zip(members, members[1:]):
            generators.append(Permutation.transposition(a, b))
        op._split_segment(start, [[v] for v in members])
        collapsed += 1
    return generators, collapsed


class _IRSearch:
    """The individualization–refinement core both searches share.

    Subclasses supply ``run`` and ``_search``, their branching policy:
    :class:`_Searcher` prunes on the first path's traces and the full-group
    orbits, :class:`repro.isomorphism.canonical._CanonicalSearcher` follows
    the min-trace children and keeps the best leaf.
    """

    def __init__(self, graph: Graph, root: OrderedPartition) -> None:
        self.graph = graph
        self.root = root
        self.generators: list[Permutation] = []
        self._generator_keys: set[Permutation] = set()
        # support_index[v] lists the ids of generators moving v; the per-node
        # orbit pruning only ever needs generators touching the target cell.
        self.support_index: dict[Vertex, list[int]] = {}
        self.base_set: set[Vertex] = set()
        self.first_leaf_order: list[Vertex] | None = None
        self.first_leaf_cert: bytes | None = None
        # Edge endpoints translated once into the partition's slot space, so
        # every leaf certificate is two array gathers instead of a dict
        # lookup per endpoint (the dominant leaf cost on symmetric graphs).
        edges = graph.edges()
        slot = root._slot
        m = len(edges)
        self._eu = np.fromiter((slot[u] for u, v in edges), dtype=np.int64, count=m)
        self._ev = np.fromiter((slot[v] for u, v in edges), dtype=np.int64, count=m)

    def _start(self) -> None:
        """Refine the root, collapse its twin cells, allow recursion to depth n."""
        self.root.refine(self.graph)
        self._collapse_twins(self.root)
        needed = 4 * self.root.n + 1000
        if sys.getrecursionlimit() < needed:
            sys.setrecursionlimit(needed)

    def _record_generator(self, perm: Permutation) -> bool:
        """Store *perm* unless it is already known; True when it was new."""
        if perm in self._generator_keys:
            return False
        self._generator_keys.add(perm)
        gen_id = len(self.generators)
        self.generators.append(perm)
        for v in perm.support():
            self.support_index.setdefault(v, []).append(gen_id)
        return True

    def _collapse_twins(self, op: OrderedPartition) -> int:
        """Discretize *op*'s twin cells and record their transpositions;
        returns the number of cells collapsed."""
        twin_gens, collapsed = collapse_twin_cells(self.graph, op)
        for gen in twin_gens:
            self._record_generator(gen)
        return collapsed

    def _leaf_keys(self, op: OrderedPartition) -> np.ndarray:
        """The leaf's edge set in position space, packed and sorted.

        Each edge becomes the composite key ``min_pos * n + max_pos``; the
        sorted key array is a canonical encoding of the relabeled edge set
        (simple graph — no duplicate keys). The packing is order-preserving
        on sorted pair tuples (max < n), so comparing key arrays
        lexicographically compares the relabeled edge tuples.
        """
        pu = op._pos[self._eu]
        pv = op._pos[self._ev]
        keys = np.minimum(pu, pv) * op.n + np.maximum(pu, pv)
        keys.sort()
        return keys

    def _match_first_leaf(self, op: OrderedPartition, cert: bytes) -> bool:
        """Compare a leaf with the first one; False when their edge sets differ.

        The first leaf becomes the reference; a later leaf with the same
        certificate yields the automorphism first-order -> this-order.
        """
        if self.first_leaf_cert is None:
            self.first_leaf_order = list(op.order)
            self.first_leaf_cert = cert
            return True
        if cert != self.first_leaf_cert:
            return False
        mapping = {
            first_v: this_v
            for first_v, this_v in zip(self.first_leaf_order, op.order)
            if first_v != this_v
        }
        if mapping:
            self._record_generator(Permutation(mapping))
        return True

    def _orbit_pruner(self, members: list[Vertex]) -> Callable[[Vertex, list[Vertex]], bool]:
        """A test whether a member of the target cell lies in a tried
        sibling's orbit under the generators fixing the branching prefix.

        A prefix-fixing automorphism maps this node's partition onto itself
        cell-wise, so members of the target cell only ever map within the
        cell — only generators whose support touches the cell can connect
        them, and the support index finds those in time proportional to
        their number. Folded lazily per candidate because recursion keeps
        discovering generators.
        """
        local_orbits = UnionFind(members)
        processed: set[int] = set()
        # Per-member cursor into its (append-only) support-index list, so
        # repeated folds only look at generators discovered since last time.
        cursors = {member: 0 for member in members}

        def fold_relevant_generators() -> None:
            for member in members:
                if local_orbits.n_sets == 1:
                    # The whole cell is already one orbit; nothing a further
                    # generator could add (the common fully-symmetric case).
                    return
                index_list = self.support_index.get(member)
                if not index_list:
                    continue
                start = cursors[member]
                cursors[member] = len(index_list)
                for gen_id in index_list[start:]:
                    if gen_id in processed:
                        continue
                    processed.add(gen_id)
                    gen = self.generators[gen_id]
                    if not gen.support().isdisjoint(self.base_set):
                        continue
                    # A qualifying generator maps this cell onto itself, so
                    # connecting the members' images inside the cell captures
                    # the full within-cell orbit structure at O(|cell|) per
                    # generator, regardless of the generator's support size.
                    for w in members:
                        image = gen(w)
                        if image != w:
                            local_orbits.union(w, image)
                    if local_orbits.n_sets == 1:
                        return

        def in_tried_orbit(v: Vertex, tried: list[Vertex]) -> bool:
            if any(local_orbits.connected(v, u) for u in tried):
                return True
            fold_relevant_generators()
            return any(local_orbits.connected(v, u) for u in tried)

        return in_tried_orbit


class _Searcher(_IRSearch):
    """One automorphism-group search over a fixed graph and initial partition."""

    def __init__(self, graph: Graph, initial: Partition | None, use_twin_collapse: bool) -> None:
        if initial is None:
            root = OrderedPartition.unit(graph.vertices())
        else:
            if not initial.covers(graph.vertices()):
                raise PartitionError("initial partition must cover exactly the graph's vertices")
            root = OrderedPartition.from_partition(initial)
        super().__init__(graph, root)
        self.stats = SearchStats()
        self.orbit_uf = UnionFind(graph.vertices())
        self.first_path_traces: list[tuple[TraceEntry, ...]] = []
        self.use_twin_collapse = use_twin_collapse

    # ------------------------------------------------------------------

    def run(self) -> AutomorphismSearchResult:
        self._start()
        if not self.root.is_discrete():
            self._search(self.root, 0)
        orbits = Partition(self.orbit_uf.sets())
        return AutomorphismSearchResult(self.generators, orbits, self.stats)

    def _collapse_twins(self, op: OrderedPartition) -> int:
        if not self.use_twin_collapse:
            return 0
        collapsed = super()._collapse_twins(op)
        self.stats.twin_cells_collapsed += collapsed
        return collapsed

    def _record_generator(self, perm: Permutation) -> bool:
        if not super()._record_generator(perm):
            return False
        self.stats.generators_found += 1
        for v in perm.support():
            self.orbit_uf.union(v, perm(v))
        return True

    def _search(self, op: OrderedPartition, level: int) -> None:
        self.stats.nodes += 1
        if op.is_discrete():
            self.stats.leaves += 1
            if not self._match_first_leaf(op, self._leaf_keys(op).tobytes()):
                self.stats.bad_leaves += 1
            return
        target = op.smallest_nonsingleton()
        members = op.cell_members(target)
        in_tried_orbit = self._orbit_pruner(members)
        tried: list[Vertex] = []
        for v in members:
            # Cheap pre-filter: if v is not even in the same *full-group*
            # orbit as a tried sibling, no subgroup can connect them.
            if any(self.orbit_uf.connected(v, u) for u in tried) and in_tried_orbit(v, tried):
                self.stats.orbit_prunes += 1
                continue
            child = op.copy()
            child.individualize(v)
            trace = child.refine(self.graph, active=[target])
            if level == len(self.first_path_traces):
                # Leftmost spine: this node defines the reference trace.
                self.first_path_traces.append(trace)
            elif trace != self.first_path_traces[level]:
                self.stats.trace_prunes += 1
                tried.append(v)
                continue
            self._collapse_twins(child)
            tried.append(v)
            self.base_set.add(v)
            self._search(child, level + 1)
            self.base_set.discard(v)


def automorphism_search(
    graph: Graph,
    initial: Partition | None = None,
    use_twin_collapse: bool = True,
    use_pendant_collapse: bool = True,
) -> AutomorphismSearchResult:
    """Compute generators of Aut(G) and the orbit partition Orb(G).

    *initial*, when given, restricts to color-preserving automorphisms: only
    permutations mapping each cell of *initial* onto itself are found (the
    orbit partition returned is then the partition into color-automorphism
    classes). This is what the f-symmetry machinery uses to pin excluded
    hubs.

    *use_pendant_collapse* (default on) strips pendant trees, canonizes them
    in linear time, and runs the backtracking search only on the colored
    2-core / tree centers — the decisive accelerator on social networks,
    whose symmetry is overwhelmingly pendant (leaves, chains, hanging
    subtrees). *use_twin_collapse* resolves fully-interchangeable equitable
    cells wholesale inside the search. Both flags exist so tests and
    ablation benchmarks can exercise the pure search path.
    """
    if use_pendant_collapse and graph.n:
        from repro.isomorphism.pendant import (
            decompose_pendant_forest,
            extend_core_generator,
            pendant_swap_generators,
        )

        coloring = initial.as_coloring() if initial is not None else None
        decomp = decompose_pendant_forest(graph, coloring)
        if decomp.n_pendants:
            swap_gens = pendant_swap_generators(decomp)
            core_graph = graph.subgraph(decomp.core_vertices)
            core_partition = Partition.from_coloring(decomp.core_coloring())
            core_result = automorphism_search(
                core_graph,
                initial=core_partition,
                use_twin_collapse=use_twin_collapse,
                use_pendant_collapse=False,
            )
            generators = swap_gens + [
                extend_core_generator(decomp, g) for g in core_result.generators
            ]
            uf = UnionFind(graph.vertices())
            for gen in generators:
                for v in gen.support():
                    uf.union(v, gen(v))
            stats = core_result.stats
            stats.pendant_vertices = decomp.n_pendants
            stats.core_size = core_graph.n
            stats.generators_found = len(generators)
            return AutomorphismSearchResult(generators, Partition(uf.sets()), stats)

    searcher = _Searcher(graph, initial, use_twin_collapse)
    result = searcher.run()
    result.stats.core_size = graph.n
    return result

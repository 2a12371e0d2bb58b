"""The k-symmetry anonymization procedure (paper Algorithm 1, Theorem 2).

Given a graph G and its automorphism partition Orb(G), every orbit smaller
than k is grown by whole-orbit copy operations until it reaches size k. The
result is a pair (G', V'): the published graph and the tracked
sub-automorphism partition whose every cell has at least k members — so by
the orbit-bound argument of Section 2.1, *no structural knowledge of any
kind* can narrow a target below k candidates.

Two copy units are supported:

* ``"orbit"`` — the paper's Algorithm 1: each operation duplicates the whole
  original orbit, so a cell of size s reaches ceil(k/s)*s members;
* ``"component"`` — the Section 5.1 improvement: each operation duplicates
  only the smallest `≅_L`-class component inside the cell, minimising the
  number of newly-introduced vertices (the cell stops at exactly k or at
  most k + s_min - 1 members).

Growth runs on the array core for every input (:func:`_grow`), byte-identical
to the dict oracle :func:`repro.core.reference.reference_anonymize_cells`.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

from repro.core.orbit_copy import CopyRecord
from repro.graphs.graph import Graph
from repro.graphs.partition import Partition
from repro.isomorphism.orbits import automorphism_partition
from repro.utils.validation import AnonymizationError, check_positive_int

_COPY_UNITS = ("orbit", "component")
_METHODS = ("exact", "stabilization")


@dataclass
class AnonymizationResult:
    """The published pair (G', V') plus provenance and cost accounting.

    The paper's publisher releases ``graph`` (G'), ``partition`` (V') and
    ``original_n`` (|V(G)|); everything else is the publisher's own record.
    """

    graph: Graph
    partition: Partition
    original_graph: Graph
    original_partition: Partition
    k: int
    requirements: dict[int, int]
    copy_unit: str
    records: list[CopyRecord] = field(default_factory=list)
    copy_of: dict[int, int] = field(default_factory=dict)

    @property
    def original_n(self) -> int:
        """|V(G)| — published alongside (G', V') for the samplers."""
        return self.original_graph.n

    @property
    def vertices_added(self) -> int:
        return self.graph.n - self.original_graph.n

    @property
    def edges_added(self) -> int:
        return self.graph.m - self.original_graph.m

    @property
    def total_cost(self) -> int:
        """The paper's anonymization cost: vertices plus edges inserted."""
        return self.vertices_added + self.edges_added

    def published(self) -> tuple[Graph, Partition, int]:
        """Exactly what leaves the publisher's hands: (G', V', |V(G)|)."""
        return self.graph, self.partition, self.original_n


def _resolve_partition(graph: Graph, partition: Partition | None, method: str) -> Partition:
    if partition is not None:
        if not partition.covers(graph.vertices()):
            raise AnonymizationError("supplied partition must cover exactly the graph's vertices")
        return partition
    if method not in _METHODS:
        raise AnonymizationError(f"unknown method {method!r}; expected one of {_METHODS}")
    return automorphism_partition(graph, method=method).orbits


def anonymize(
    graph: Graph,
    k: int,
    partition: Partition | None = None,
    method: str = "exact",
    copy_unit: str = "orbit",
) -> AnonymizationResult:
    """Modify *graph* (insertions only) until every cell has >= k members.

    Parameters
    ----------
    graph:
        The naively-anonymized network G (integer vertices).
    k:
        The anonymity threshold: every vertex must end up with at least k-1
        structurally equivalent counterparts.
    partition:
        The initial sub-automorphism partition; defaults to Orb(G) computed
        with *method* (``"exact"`` or ``"stabilization"`` — the latter is
        the paper's TDV(G) suggestion for very large networks).
    copy_unit:
        ``"orbit"`` (Algorithm 1) or ``"component"`` (Section 5.1 minimal
        vertex insertion).

    Returns the full :class:`AnonymizationResult`; the publishable part is
    ``result.published()``. The original graph is a subgraph of the result
    (only insertions are performed).
    """
    check_positive_int(k, "k")
    if copy_unit not in _COPY_UNITS:
        raise AnonymizationError(f"unknown copy_unit {copy_unit!r}; expected one of {_COPY_UNITS}")
    base_partition = _resolve_partition(graph, partition, method)
    requirements = {i: k for i in range(len(base_partition))}
    return _anonymize_with_requirements(
        graph, base_partition, requirements, k=k, copy_unit=copy_unit
    )


def _grow(
    graph: Graph,
    cells: Iterable[Iterable[int]],
    requirements: Mapping[int, int],
    copy_unit: str,
) -> tuple[Graph, Partition, list[CopyRecord], dict[int, int]]:
    """Grow cell i of *graph* to ``requirements[i]`` members (default 1).

    The one growth driver behind :func:`anonymize`, ``anonymize_f``,
    ``republish`` and the exact sampler: *graph* goes to array space
    (:func:`repro.arraycore.space.array_space`),
    :meth:`~repro.arraycore.ArrayPartitionedGraph.grow` copies there, and
    the grown graph, its partition, the copy records and ``copy_of`` come
    back in *graph*'s labels — fresh vertices minted from ``max + 1`` in
    minting order, the input's insertion order kept.
    """
    for v in graph:
        if isinstance(v, bool) or not isinstance(v, int):
            raise AnonymizationError(
                f"vertex {v!r} is not an integer; apply naive_anonymization first"
            )
    from repro.arraycore.overlay import OverlayGraph
    from repro.arraycore.space import array_space, grown_labels, index_cells
    from repro.arraycore.state import ArrayPartitionedGraph

    indptr, indices, labels = array_space(graph)
    state = ArrayPartitionedGraph(
        OverlayGraph(indptr, indices), index_cells(labels, cells), requirements, copy_unit)
    label = grown_labels(labels, state.overlay.n)
    grown = state.overlay.to_graph(graph, label)
    if isinstance(label, range):
        # Array vertices already are the labels: nothing to translate.
        return grown, Partition(state.cells), state.records or [], state.copy_of_dict()
    records = [
        CopyRecord(
            record.cell_index,
            {label[v]: label[c] for v, c in record.mapping.items()},
            record.edges_added,
        )
        for record in state.records or ()
    ]
    copy_of = {label[v]: label[p] for v, p in state.copy_of_dict().items()}
    partition = Partition([[label[v] for v in cell] for cell in state.cells])
    return grown, partition, records, copy_of


def _anonymize_with_requirements(
    graph: Graph,
    base_partition: Partition,
    requirements: dict[int, int],
    k: int,
    copy_unit: str,
) -> AnonymizationResult:
    """Shared driver for plain k-symmetry and f-symmetry (per-cell targets)."""
    grown, partition, records, copy_of = _grow(
        graph, base_partition.cells, requirements, copy_unit
    )
    return AnonymizationResult(
        graph=grown,
        partition=partition,
        original_graph=graph.copy(),
        original_partition=base_partition,
        k=k,
        requirements=dict(requirements),
        copy_unit=copy_unit,
        records=records,
        copy_of=copy_of,
    )

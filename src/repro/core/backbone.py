"""Graph backbone detection (paper Definition 4, Algorithm 2).

The backbone of (G, V) is the least element of the reduction lattice under
orbit copying (Theorem 3): the smallest seed from which (G, V) can be grown
back by copy operations. Orbit copying preserves it (Theorem 4), which is
what makes backbone-based sampling possible: the published k-symmetric pair
(G', V') has the same backbone as the secret original.

Detection per Algorithm 2: inside each cell V, the components of the induced
subgraph G[V] are grouped by the `≅_L(V)` relation — isomorphism that also
preserves every vertex's *exact* neighbour set outside the cell (two
components that merely look alike but anchor to different hubs are distinct
modules and must both survive, cf. the paper's Figure 7). All but one
representative per class are removed. Removing vertices changes outside
neighbourhoods elsewhere, so the sweep repeats until a full pass removes
nothing — realising the lattice least element.

The `≅_L` grouping encodes each outside-neighbour set as a vertex color and
buckets components by their colored canonical certificate
(:mod:`repro.isomorphism.canonical`), so a cell with t components costs t
certificate computations rather than O(t^2) pairwise isomorphism tests.

The sweep runs on the array core (:mod:`repro.arraycore.backbone`);
:func:`repro.core.reference.reference_backbone` is its dict oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graphs.graph import Graph
from repro.graphs.partition import Partition
from repro.utils.validation import PartitionError


@dataclass
class BackboneResult:
    """The backbone graph plus its cell structure aligned with the input partition.

    ``cells[i]`` is what remains of input cell i (never empty), so indices
    stay aligned with the published partition — the exact sampler depends on
    that alignment.
    """

    graph: Graph
    cells: list[list[int]]
    removed: set[int]
    input_partition: Partition

    @property
    def partition(self) -> Partition:
        return Partition(self.cells)

    @property
    def n_removed(self) -> int:
        return len(self.removed)


def backbone(graph: Graph, partition: Partition) -> BackboneResult:
    """Compute the backbone of (graph, partition).

    *partition* must be a sub-automorphism partition of *graph* (the
    published V', or Orb(G) for an original network); this is the caller's
    contract and is not re-verified here (verification is exponential in
    general — see :mod:`repro.core.partitions`). Vertices may be any
    sortable labels.
    """
    from repro.arraycore.backbone import backbone_arrays
    from repro.arraycore.space import array_space, index_cells

    if not partition.covers(graph.vertices()):
        raise PartitionError("partition must cover exactly the graph's vertices")
    indptr, indices, labels = array_space(graph)
    alive, cells = backbone_arrays(indptr, indices, index_cells(labels, partition.cells))
    kept = [labels[v] for v in range(len(labels)) if alive[v]]
    removed = {labels[v] for v in range(len(labels)) if not alive[v]}
    return BackboneResult(
        graph=graph.subgraph(kept),
        cells=[[labels[v] for v in cell] for cell in cells],
        removed=removed,
        input_partition=partition,
    )

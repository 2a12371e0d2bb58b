"""Orbit copying (paper Definition 3) as append-only array passes.

:class:`ArrayPartitionedGraph` is a graph grown by copy operations plus the
sub-automorphism partition tracked through them, over an
:class:`repro.arraycore.OverlayGraph`: cell membership is a flat ``cell_of``
list, fresh vertices are batch appends, and each copy operation walks CSR
rows. Its :meth:`~ArrayPartitionedGraph.grow` is the one growth driver
behind ``anonymize``, ``anonymize_f``, ``republish``, the exact sampler and
the scale pipeline.

Byte-parity contract (pinned by ``repro.audit``'s ``differential:arraycore``
check and the tier-1 parity tests): the grown graph, the final partition,
the provenance ``records``/``copy_of`` and the fresh-id minting sequence
are identical to the dict oracle
:class:`repro.core.orbit_copy.MutablePartitionedGraph`'s. Fresh ids are
minted sequentially in member order; outside anchors attach to copies in
the same (u, v') pairs; member-internal edges are mirrored once.

``track_records=False`` skips materialising per-operation
:class:`CopyRecord` mapping dicts (1e6 dicts is real memory at the scales
``benchmarks/bench_scale.py`` runs); provenance then lives only in the
compact ``parent_of`` array. The public :func:`repro.core.anonymize`
entry point always tracks records; the scale pipeline does not.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.arraycore.overlay import OverlayGraph
from repro.core.orbit_copy import CopyRecord
from repro.utils.validation import AnonymizationError

__all__ = ["ArrayPartitionedGraph"]


class ArrayPartitionedGraph:
    """A growing overlay graph plus its tracked partition, under copy ops."""

    def __init__(
        self,
        overlay: OverlayGraph,
        cells: Sequence[Sequence[int]],
        track_records: bool = True,
    ) -> None:
        self.overlay = overlay
        self.cells: list[list[int]] = [sorted(cell) for cell in cells]
        n = overlay.n
        cell_of = [-1] * n
        for i, cell in enumerate(self.cells):
            for v in cell:
                cell_of[v] = i
        if any(c < 0 for c in cell_of):
            raise AnonymizationError("partition must cover exactly the graph's vertices")
        self.cell_of: list[int] = cell_of
        self.original_members: list[list[int]] = [list(cell) for cell in self.cells]
        # Direct parent of every vertex: -1 for originals, the copied vertex
        # for fresh ids (the compact form of ``copy_of``).
        self.parent_of: list[int] = [-1] * n
        self.records: list[CopyRecord] | None = [] if track_records else None
        self._fresh = n

    # ------------------------------------------------------------------

    def copy_of_dict(self) -> dict[int, int]:
        """``fresh -> parent`` for every minted vertex."""
        parent = self.parent_of
        return {v: parent[v] for v in range(self.overlay.base_n, len(parent))}

    # ------------------------------------------------------------------

    def copy_members(self, cell_index: int, members: Sequence[int]) -> None:
        """One copy operation on *members* of cell *cell_index* (Definition 3).

        Members must belong to the cell and be closed under the cell-induced
        adjacency (a union of connected components of the induced subgraph —
        whole original orbits and backbone components both are); violations
        raise :class:`AnonymizationError`.
        """
        if not members:
            raise AnonymizationError("copy operation on an empty member list")
        cell_of = self.cell_of
        for v in members:
            if cell_of[v] != cell_index:
                raise AnonymizationError("copy members must belong to the designated cell")

        overlay = self.overlay
        fresh0 = self._fresh
        count = len(members)
        member_pos = {v: i for i, v in enumerate(members)}
        add_edge = overlay.add_edge
        neighbors_list = overlay.neighbors_list
        edges_added = 0
        for _ in range(count):
            overlay.add_vertex()
        for i, v in enumerate(members):
            nv = fresh0 + i
            for u in neighbors_list(v):
                if cell_of[u] != cell_index:
                    add_edge(u, nv)
                    edges_added += 1
                else:
                    j = member_pos.get(u)
                    if j is None:
                        raise AnonymizationError(
                            "copy members are not closed under cell-induced adjacency: "
                            f"edge ({u}, {v}) crosses the member boundary inside the cell"
                        )
                    if j < i:
                        # Mirror each member-internal edge exactly once.
                        add_edge(fresh0 + j, nv)
                        edges_added += 1

        cell = self.cells[cell_index]
        parent_of = self.parent_of
        for i, v in enumerate(members):
            nv = fresh0 + i
            cell.append(nv)
            cell_of.append(cell_index)
            parent_of.append(v)
        self._fresh = fresh0 + count
        if self.records is not None:
            mapping = {v: fresh0 + i for i, v in enumerate(members)}
            self.records.append(CopyRecord(cell_index, mapping, edges_added))

    def copy_cell(self, cell_index: int) -> None:
        """One whole-orbit copy operation (Algorithm 1's unit)."""
        self.copy_members(cell_index, self.original_members[cell_index])

    def grow_cell_to(self, cell_index: int, target_size: int) -> None:
        """Repeat whole-orbit copies until the cell reaches *target_size*."""
        while len(self.cells[cell_index]) < target_size:
            self.copy_cell(cell_index)

    def component_copy_unit(self, cell_index: int) -> list[int]:
        """The Section 5.1 copy unit: one representative per `≅_L`-class.

        Copying a *single* component would be unsound when the cell holds
        several classes (its anchors' symmetry with the other classes'
        anchors breaks: in the paper's Figure 3 graph, duplicating vertex 4
        without 5 leaves their neighbours 6 and 7 at different degrees).
        One representative of every class — the cell's backbone slice —
        keeps the sub-automorphism property while inserting the minimum
        |B_i| vertices per operation instead of |V_i|.
        """
        from repro.arraycore.backbone import component_classes_arrays

        members = self.original_members[cell_index]
        classes = component_classes_arrays(
            self.overlay.neighbors_list, lambda u: True, members
        )
        return sorted(v for cls in classes for v in cls[0])

    def grow(self, requirements: Mapping[int, int], copy_unit: str) -> None:
        """Grow every cell to ``requirements[i]`` members (default 1).

        Whole-orbit copies for ``copy_unit="orbit"`` (Algorithm 1: a cell
        of size s reaches ceil(k/s)*s members), the backbone slice for
        ``"component"`` (Section 5.1). Cells grow in index order, which fixes
        the fresh-id minting sequence.
        """
        for cell_index in range(len(self.cells)):
            required = requirements.get(cell_index, 1)
            if len(self.cells[cell_index]) >= required:
                continue
            if copy_unit == "component":
                unit = self.component_copy_unit(cell_index)
                while len(self.cells[cell_index]) < required:
                    self.copy_members(cell_index, unit)
            else:
                self.grow_cell_to(cell_index, required)

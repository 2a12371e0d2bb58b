"""Orbit copying (paper Definition 3) as records over the input CSR.

:class:`ArrayPartitionedGraph` is a graph grown by copy operations plus the
sub-automorphism partition tracked through them. A copy operation walks no
rows: it records (cell, unit members, first fresh id) — the fresh vertices'
originals go to the :class:`repro.arraycore.OverlayGraph`, whose closed form
yields the grown edges — and appends the fresh ids to the cell.
Constructed with ``requirements``, the state plans every cell's copies at
once (:meth:`~ArrayPartitionedGraph.grow`); that is the one growth path
behind ``anonymize``, ``anonymize_f``, ``republish``, the exact sampler and
the scale pipeline.

Byte-parity contract (pinned by ``repro.audit``'s ``differential:arraycore``
check and the tier-1 parity tests): the grown graph, the final partition,
the provenance ``records``/``copy_of`` and the fresh-id minting sequence
are identical to the dict oracle
:class:`repro.core.orbit_copy.MutablePartitionedGraph`'s. Cells grow in
index order and fresh ids are minted in member order, one operation after
the other; every record's ``edges_added`` follows from the input graph
(:meth:`~ArrayPartitionedGraph._edges_added`).

``track_records=False`` skips materialising per-operation
:class:`CopyRecord` mapping dicts (1e6 dicts is real memory at the scales
``benchmarks/bench_scale.py`` runs); provenance then lives only in the
overlay's compact array of originals. The public
:func:`repro.core.anonymize` entry point always tracks records; the scale
pipeline does not.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from itertools import chain, repeat

import numpy as np

from repro.arraycore.overlay import OverlayGraph, segment_ranks
from repro.core.orbit_copy import CopyRecord
from repro.utils.validation import AnonymizationError

__all__ = ["ArrayPartitionedGraph"]


class ArrayPartitionedGraph:
    """A growing overlay graph plus its tracked partition, under copy ops.

    *cells* partition the overlay's input vertices. With *requirements*
    the state is grown at once: cell ``i`` to ``requirements[i]`` members
    (default 1) by *copy_unit* copies (:meth:`grow`).
    """

    def __init__(
        self,
        overlay: OverlayGraph,
        cells: Sequence[Sequence[int]],
        requirements: Mapping[int, int] | None = None,
        copy_unit: str = "orbit",
        track_records: bool = True,
    ) -> None:
        self.overlay = overlay
        self.cells: list[list[int]] = [sorted(cell) for cell in cells]
        sizes = np.fromiter(map(len, self.cells), dtype=np.int64, count=len(self.cells))
        # The input members of every cell, cell after cell: the orbit unit of
        # cell i is _members[_starts[i]:_starts[i] + _sizes[i]].
        self._members = np.fromiter(
            chain.from_iterable(self.cells), dtype=np.int64, count=int(sizes.sum()))
        self._sizes = sizes
        self._starts = np.cumsum(sizes) - sizes
        cell_of = np.full(overlay.n, -1, dtype=np.int64)
        cell_of[self._members] = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
        if (cell_of < 0).any():
            raise AnonymizationError("partition must cover exactly the graph's vertices")
        overlay.cell_of = cell_of
        self.records: list[CopyRecord] | None = [] if track_records else None
        if requirements is not None:
            self.grow(requirements, copy_unit)

    # ------------------------------------------------------------------

    def original_members(self, cell_index: int) -> list[int]:
        """The input vertices of cell *cell_index*, ascending."""
        start = int(self._starts[cell_index])
        return self._members[start:start + int(self._sizes[cell_index])].tolist()

    def copy_of_dict(self) -> dict[int, int]:
        """``fresh -> parent`` for every minted vertex."""
        return dict(enumerate(self.overlay.roots.tolist(), start=self.overlay.base_n))

    # ------------------------------------------------------------------

    def copy_members(self, cell_index: int, members: Sequence[int]) -> None:
        """One copy operation on *members* of cell *cell_index* (Definition 3).

        Members must be original members of the cell and closed under the
        cell-induced adjacency (a union of connected components of the
        induced subgraph — whole original orbits and backbone components
        both are); violations raise :class:`AnonymizationError`.
        """
        if not members:
            raise AnonymizationError("copy operation on an empty member list")
        cell_of = self.overlay.cell_of
        unit = np.asarray(members, dtype=np.int64)
        if ((unit < 0) | (unit >= len(cell_of))).any() or (cell_of[unit] != cell_index).any():
            raise AnonymizationError("copy members must be original members of the designated cell")
        owner, neighbours = self._entries(unit)
        crossing = np.flatnonzero((cell_of[neighbours] == cell_index) & ~np.isin(neighbours, unit))
        if len(crossing):
            at = crossing[0]
            raise AnonymizationError(
                "copy members are not closed under cell-induced adjacency: "
                f"edge ({neighbours[at]}, {unit[owner[at]]}) crosses the member "
                "boundary inside the cell"
            )
        self._copy(np.array([cell_index]), unit, np.array([len(unit)]), np.ones(1, np.int64))

    def copy_cell(self, cell_index: int) -> None:
        """One whole-orbit copy operation (Algorithm 1's unit)."""
        self._copy_orbits(np.array([cell_index]), np.ones(1, np.int64))

    def grow_cell_to(self, cell_index: int, target_size: int) -> None:
        """Repeat whole-orbit copies until the cell reaches *target_size*."""
        missing = target_size - len(self.cells[cell_index])
        if missing > 0:
            copies = -(-missing // int(self._sizes[cell_index]))
            self._copy_orbits(np.array([cell_index]), np.array([copies]))

    def component_copy_unit(self, cell_index: int) -> list[int]:
        """The Section 5.1 copy unit: one representative per `≅_L`-class.

        Copying a *single* component would be unsound when the cell holds
        several classes (its anchors' symmetry with the other classes'
        anchors breaks: in the paper's Figure 3 graph, duplicating vertex 4
        without 5 leaves their neighbours 6 and 7 at different degrees).
        One representative of every class — the cell's backbone slice —
        keeps the sub-automorphism property while inserting the minimum
        |B_i| vertices per operation instead of |V_i|.

        The classes are read off the input rows. Growth only ever adds
        copies to a member's outside neighbours, and which copies it adds
        is an injective function of the input outside key, so the
        `≅_L`-classes of the grown graph are the input graph's.
        """
        from repro.arraycore.backbone import component_classes_arrays

        indptr, indices = self.overlay.indptr, self.overlay.indices

        def input_row(v: int) -> list[int]:
            return indices[indptr[v]:indptr[v + 1]].tolist()

        classes = component_classes_arrays(
            input_row, lambda u: True, self.original_members(cell_index))
        return sorted(v for cls in classes for v in cls[0])

    def grow(self, requirements: Mapping[int, int], copy_unit: str) -> None:
        """Grow every cell to ``requirements[i]`` members (default 1).

        Plans every cell's copies at once: a cell short of its requirement
        gets ceil((required - size) / unit size) copies of its unit — the
        whole original orbit for ``copy_unit="orbit"`` (Algorithm 1: a cell
        of size s reaches ceil(k/s)*s members), the backbone slice for
        ``"component"`` (Section 5.1). Cells grow in index order, which
        fixes the fresh-id minting sequence.
        """
        count = len(self.cells)
        missing = np.fromiter(
            map(requirements.get, range(count), repeat(1, count)), dtype=np.int64, count=count)
        missing -= np.fromiter(map(len, self.cells), dtype=np.int64, count=count)
        grown = np.flatnonzero(missing > 0)
        if copy_unit != "component":
            self._copy_orbits(grown, -(-missing[grown] // self._sizes[grown]))
            return
        units = [self.component_copy_unit(cell_index) for cell_index in grown.tolist()]
        sizes = np.fromiter(map(len, units), dtype=np.int64, count=len(units))
        self._copy(grown, np.fromiter(chain.from_iterable(units), dtype=np.int64,
                                      count=int(sizes.sum())),
                   sizes, -(-missing[grown] // sizes))

    # ------------------------------------------------------------------

    def _entries(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Input entries of *vertices*' rows: (position in *vertices*, neighbour)."""
        indptr = self.overlay.indptr
        starts = indptr[vertices].astype(np.int64)
        owner, offset = _segments(indptr[vertices + 1] - starts)
        return owner, self.overlay.indices[starts[owner] + offset]

    def _copy_orbits(self, cell_ids: np.ndarray, counts: np.ndarray) -> None:
        """*counts[b]* whole-orbit copies of cell *cell_ids[b]*, in order."""
        sizes = self._sizes[cell_ids]
        block, offset = _segments(sizes)
        self._copy(cell_ids, self._members[self._starts[cell_ids][block] + offset], sizes, counts)

    def _copy(self, cell_ids: np.ndarray, units: np.ndarray,
              sizes: np.ndarray, counts: np.ndarray) -> None:
        """Block b: *counts[b]* copy operations of the next *sizes[b]*
        *units* on cell *cell_ids[b]*; blocks in order, one mint."""
        if not len(cell_ids):
            return
        unit_start = np.cumsum(sizes) - sizes
        block, offset = _segments(sizes * counts)
        roots = units[unit_start[block] + offset % sizes[block]]
        edges = None if self.records is None else self._edges_added(cell_ids, units, sizes, counts)
        fresh = self.overlay.mint(roots)
        cells, records = self.cells, self.records
        for b, (cell_index, size, copies) in enumerate(
                zip(cell_ids.tolist(), sizes.tolist(), counts.tolist())):
            end = fresh + size * copies
            cells[cell_index].extend(range(fresh, end))
            if records is not None:
                unit = units[unit_start[b]:unit_start[b] + size].tolist()
                records.extend(CopyRecord(cell_index, dict(zip(unit, range(first, first + size))),
                                          edges[b])
                               for first in range(fresh, end, size))
            fresh = end

    def _edges_added(self, cell_ids: np.ndarray, units: np.ndarray,
                     sizes: np.ndarray, counts: np.ndarray) -> list[int]:
        """``edges_added`` of each block's operations, before any is minted.

        An operation adds, per unit member v and input neighbour w of v in
        another cell, one edge to w and to every copy of w minted before
        it; and one copy of every input edge inside the unit. A block's
        cell is not w's, so all its operations add the same number of
        edges; copies minted by earlier blocks count in later ones.
        """
        cell_of = self.overlay.cell_of
        copies = self.overlay.copy_counts()
        blocks = len(cell_ids)
        block_of_cell = np.full(len(self.cells), blocks, dtype=np.int64)
        block_of_cell[cell_ids] = np.arange(blocks)
        gained = np.zeros(len(cell_of), dtype=np.int64)
        gained[units] = np.repeat(counts, sizes)

        owner, neighbour = self._entries(units)
        at = np.repeat(np.arange(blocks, dtype=np.int64), sizes)[owner]
        neighbour_cell = cell_of[neighbour]
        inside = neighbour_cell == cell_ids[at]
        # twice the edges: an internal edge appears once from each endpoint
        twice = np.where(inside, 1, 2 * (
            1 + copies[neighbour] + (block_of_cell[neighbour_cell] < at) * gained[neighbour]))
        return (np.bincount(at, weights=twice, minlength=blocks) // 2).astype(np.int64).tolist()


def _segments(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(segment, offset in segment) of every slot of consecutive segments."""
    return np.repeat(np.arange(len(lengths), dtype=np.int64), lengths), segment_ranks(lengths)

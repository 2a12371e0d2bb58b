"""Backbone detection (paper Definition 4, Algorithm 2) in one pass over CSR arrays.

The dict oracle (:func:`repro.core.reference.reference_backbone`) sweeps the
cells in order over a mutable graph, keeps the first component of every
`≅_L` class, removes the others, and sweeps again until a pass removes
nothing. This module returns the same alive mask and cells from one pass in
which every cell is classified against the input arrays.

**Why one pass is the oracle's answer.** Say cell i removes a component C′
that is `≅_L` to a kept component C via a map φ preserving outside rows. A
live vertex a outside cell i that is adjacent to some x ∈ C′ is adjacent to
φ(x) ∈ C too, and C survives. So two live vertices of another cell j that
differ on C′ also differ on C: the removal never changes which outside rows
of cell j are equal, nor therefore cell j's classes. The sweep's result does
not depend on the cell order, each cell may be classified against the graph
as the sweep found it, and the first sweep is already the fixpoint.

Two paths classify the cells:

* a **flat** cell has at least two members and no edge between two of them.
  Its components are singletons whose outside rows are their whole CSR
  rows, so its classes are the groups of members with equal rows. All flat
  cells are grouped at once: each member is keyed by its cell and its row
  hash (the wrapping uint64 sum of :func:`splitmix64` over the row), one
  sort groups equal keys, and each group's smallest member is its lead.
  Every other member's row is compared with the lead's exactly — degree,
  then entry by entry, since rows are ascending — and marked dead. A cell
  with any mismatch, a hash collision, takes the per-cell path instead;
* every other cell of two or more members goes through
  :func:`component_classes_arrays`: a BFS over CSR rows filtered to the
  members, singleton components keyed by their outside-row tuple (a
  singleton's certificate is equal iff those tuples are, and a certificate
  embeds the component size), multi-vertex components by the canonical
  :func:`repro.isomorphism.canonical.certificate` of a small dict graph.

Whole-CSR passes run in chunks of ``BACKBONE_CHUNK`` entries, so their
temporaries stay a few megabytes at any size.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Sequence
from itertools import chain

import numpy as np

from repro.arraycore.overlay import segment_ranks
from repro.graphs.csr import splitmix64
from repro.graphs.graph import Graph
from repro.isomorphism.canonical import certificate

__all__ = ["component_classes_arrays", "backbone_arrays"]

RowFn = Callable[[int], Sequence[int]]
AliveFn = Callable[[int], bool]

#: CSR entries per chunk of the whole-graph passes
BACKBONE_CHUNK = 1 << 18


def component_classes_arrays(
    row_of: RowFn, alive: AliveFn, members: Sequence[int]
) -> list[list[list[int]]]:
    """Group the components induced on *members* into `≅_L` classes.

    *row_of* yields a vertex's adjacency (any order); *alive* filters
    removed vertices out of both the induced subgraph and the outside
    colors. Returns the oracle's structure: classes in first-seen order,
    each a list of sorted components ordered by smallest vertex.
    """
    member_set = set(members)

    # Components of the induced subgraph, seeded in ascending vertex order
    # so each component is discovered at its smallest member.
    seen: set[int] = set()
    components: list[list[int]] = []
    for start in sorted(members):
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        queue = deque((start,))
        while queue:
            v = queue.popleft()
            for u in row_of(v):
                if u in member_set and u not in seen and alive(u):
                    seen.add(u)
                    comp.append(u)
                    queue.append(u)
        components.append(sorted(comp))

    def outside_key(v: int) -> tuple[int, ...]:
        return tuple(
            u for u in sorted(row_of(v)) if u not in member_set and alive(u)
        )

    buckets: dict[object, list[list[int]]] = {}
    order: list[object] = []
    for comp in components:
        if len(comp) == 1:
            key: object = ("singleton", outside_key(comp[0]))
        else:
            coloring = {v: outside_key(v) for v in comp}
            comp_graph = Graph()
            for v in comp:
                comp_graph.add_vertex(v)
            comp_members = set(comp)
            for v in comp:
                for u in row_of(v):
                    if u in comp_members and u < v:
                        comp_graph.add_edge(u, v)
            key = certificate(comp_graph, coloring)
        if key not in buckets:
            buckets[key] = []
            order.append(key)
        buckets[key].append(comp)
    return [buckets[key] for key in order]


def _joined_cells_and_row_hashes(
    indptr: np.ndarray, indices: np.ndarray, cell_of: np.ndarray, n_cells: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Which cells have an internal edge, and every row's hash.

    *cell_of* maps each vertex to its cell (``n_cells`` for a vertex no cell
    covers). A row's hash is the wrapping uint64 sum of :func:`splitmix64`
    over its entries, taken as differences of one running sum that is kept
    only at the row starts; an empty row hashes to 0.
    """
    n = len(indptr) - 1
    nnz = int(indptr[-1])
    joined = np.zeros(n_cells + 1, dtype=bool)
    # running[r]: the sum over every entry before row r. It must stay
    # uint64: float64 would round differently at different offsets.
    running = np.zeros(n + 1, dtype=np.uint64)
    carry = np.uint64(0)
    for start in range(0, nnz, BACKBONE_CHUNK):
        stop = min(start + BACKBONE_CHUNK, nnz)
        cols = indices[start:stop]
        # rows first..last-1 hold the entries start..stop-1
        first = int(np.searchsorted(indptr, start, side="right")) - 1
        last = int(np.searchsorted(indptr, stop, side="left"))
        held = np.minimum(indptr[first + 1:last + 1], stop) - np.maximum(indptr[first:last], start)
        row_cell = np.repeat(cell_of[first:last], held)
        joined[row_cell[row_cell == cell_of[cols]]] = True

        prefix = np.cumsum(splitmix64(cols.astype(np.uint64)))
        prefix += carry
        # rows starting inside (start, stop] read the prefix just before them
        lo = int(np.searchsorted(indptr, start, side="right"))
        hi = int(np.searchsorted(indptr, stop, side="right"))
        running[lo:hi] = prefix[indptr[lo:hi] - start - 1]
        carry = prefix[-1]
    return joined[:n_cells], running[1:] - running[:-1]


def _flat_duplicates(
    indptr: np.ndarray, indices: np.ndarray, candidates: np.ndarray,
    cell: np.ndarray, row_hash: np.ndarray, collided: np.ndarray,
) -> np.ndarray:
    """Members of flat cells whose row equals a smaller member's row.

    *candidates* are the members of every flat cell and *cell* their cells.
    Marks ``collided[c]`` for every cell in which two members share a key
    but not a row; their duplicates are returned too, and the caller must
    skip them.
    """
    if not len(candidates):
        return candidates
    # One sort key: the cell in the high bits, the top of the row hash below.
    shift = np.uint64(len(collided).bit_length())
    key = (cell.astype(np.uint64) << (np.uint64(64) - shift)) | (row_hash[candidates] >> shift)
    # Members of a cell are contiguous, so the keys arrive nearly sorted,
    # which the stable sort (a merge of runs) orders in about linear time.
    order = np.argsort(key, kind="stable")
    members, cell, key = candidates[order], cell[order], key[order]
    starts = np.ones(len(members), dtype=bool)
    starts[1:] = key[1:] != key[:-1]
    lead = np.minimum.reduceat(members, np.flatnonzero(starts))[np.cumsum(starts) - 1]
    later = members != lead
    duplicates, leads, cell = members[later], lead[later], cell[later]
    width = indptr[duplicates + 1] - indptr[duplicates]
    unequal = width != indptr[leads + 1] - indptr[leads]
    collided[cell[unequal]] = True
    width[unequal] = 0

    # Compare every duplicate's row with its lead's, about a chunk at a time.
    ends = np.cumsum(width)
    pair = done = 0
    while pair < len(duplicates):
        stop = max(int(np.searchsorted(ends, done + BACKBONE_CHUNK, side="right")), pair + 1)
        span = width[pair:stop]
        rank = segment_ranks(span)
        mine = indices[np.repeat(indptr[duplicates[pair:stop]], span) + rank]
        theirs = indices[np.repeat(indptr[leads[pair:stop]], span) + rank]
        collided[np.repeat(cell[pair:stop], span)[mine != theirs]] = True
        pair, done = stop, int(ends[stop - 1])
    return duplicates


def backbone_arrays(
    indptr: np.ndarray,
    indices: np.ndarray,
    cells: Sequence[Sequence[int]],
) -> tuple[bytearray, list[list[int]]]:
    """Algorithm 2 over CSR arrays: returns (alive mask, surviving cells).

    *cells* must be the published partition's cells (each sorted); the
    returned cell lists stay index-aligned with the input, exactly like
    :class:`repro.core.backbone.BackboneResult.cells`.
    """
    n = len(indptr) - 1
    n_cells = len(cells)
    sizes = np.fromiter(map(len, cells), dtype=np.int64, count=n_cells)
    members = np.fromiter(chain.from_iterable(cells), dtype=np.int64, count=int(sizes.sum()))
    member_cell = np.repeat(np.arange(n_cells, dtype=np.int32), sizes)
    cell_of = np.full(n, n_cells, dtype=np.int32)
    cell_of[members] = member_cell

    joined, row_hash = _joined_cells_and_row_hashes(indptr, indices, cell_of, n_cells)
    several = sizes > 1
    flat = (several & ~joined)[member_cell]
    collided = np.zeros(n_cells, dtype=bool)
    duplicates = _flat_duplicates(
        indptr, indices, members[flat], member_cell[flat], row_hash, collided)

    alive = np.ones(n, dtype=np.uint8)
    alive[duplicates[~collided[cell_of[duplicates]]]] = 0

    def row_of(v: int) -> list[int]:
        return indices[indptr[v]:indptr[v + 1]].tolist()

    for index in np.flatnonzero(several & (joined | collided)).tolist():
        for cls in component_classes_arrays(row_of, lambda u: True, cells[index]):
            for extra in cls[1:]:
                alive[extra] = 0

    # Survivors keep the input's (sorted) member order within each cell.
    kept = alive[members].view(bool)
    survivors = members[kept].tolist()
    ends = np.cumsum(np.bincount(member_cell[kept], minlength=n_cells)).tolist()
    return bytearray(alive), [
        survivors[begin:end] for begin, end in zip([0, *ends], ends)
    ]

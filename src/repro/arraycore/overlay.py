"""Insertions-only overlay over a frozen CSR base.

Orbit copying (paper Definition 3) only ever *adds* vertices and edges, so
the working graph of the anonymizer never needs a mutable dict-of-sets: it is
an immutable CSR snapshot of the input plus an append-only overlay of the
insertions. :class:`OverlayGraph` is that pair:

* the **base** is the input graph's CSR arrays (``indptr``/``indices``,
  rows sorted ascending, vertex ids contiguous ``0..base_n-1``);
* the **overlay** is a per-vertex list of neighbours appended since the
  snapshot, plus the count of vertices minted on top of the base.

A vertex's adjacency is the concatenation of its (sorted) base row and its
overlay appends; copy operations cost O(degree) appends instead of a dict
rebuild or CSR re-freeze per step. When the growth is finished,
:meth:`freeze` compacts everything back into flat CSR arrays (one vectorised
sort) for the publication writer and the samplers, and :meth:`to_graph`
hands the result back across the boundary of :mod:`repro.arraycore.space`
as a dict :class:`repro.graphs.Graph` in the caller's labels: the input
graph plus the overlay's insertions, relabelled.

The overlay stores each undirected edge in both directions, mirroring CSR
``nnz = 2m``. Callers are trusted not to insert duplicate edges or
self-loops — the anonymizer's copy operations cannot produce either (every
new edge is incident to a vertex minted in the same operation).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.arraycore.space import array_space
from repro.graphs.graph import Graph, Vertex

__all__ = ["OverlayGraph"]


class OverlayGraph:
    """A contiguous-int-vertex graph as frozen CSR base + insertion overlay."""

    __slots__ = ("base_n", "base_m", "indptr", "indices", "_extra", "_n", "_m")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        self.indptr = indptr
        self.indices = indices
        self.base_n = len(indptr) - 1
        self.base_m = len(indices) // 2
        # Overlay adjacency: vertex -> appended neighbour list. Sparse by
        # design — only copy anchors and fresh vertices ever have entries.
        self._extra: dict[int, list[int]] = {}
        self._n = self.base_n
        self._m = self.base_m

    @classmethod
    def from_graph(cls, graph: Graph) -> "OverlayGraph":
        """Snapshot a graph whose vertices are exactly ``0..n-1``.

        Any insertion order works (rows come from
        :func:`repro.arraycore.space.array_space`); other labels raise
        :class:`ValueError` — go through ``array_space`` and map results
        back with its labels instead.
        """
        indptr, indices, labels = array_space(graph)
        if not isinstance(labels, range):
            raise ValueError(
                "OverlayGraph.from_graph requires vertices 0..n-1; "
                "relabel with to_integer_labels() first"
            )
        return cls(indptr, indices)

    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def m(self) -> int:
        return self._m

    def add_vertex(self) -> int:
        """Mint the next vertex id (``n``) and return it."""
        v = self._n
        self._n += 1
        return v

    def add_edge(self, u: int, v: int) -> None:
        """Append the undirected edge (u, v). No duplicate/self-loop check."""
        extra = self._extra
        row = extra.get(u)
        if row is None:
            extra[u] = [v]
        else:
            row.append(v)
        row = extra.get(v)
        if row is None:
            extra[v] = [u]
        else:
            row.append(u)
        self._m += 1

    def base_degree(self, v: int) -> int:
        if v >= self.base_n:
            return 0
        return int(self.indptr[v + 1] - self.indptr[v])

    def degree(self, v: int) -> int:
        extra = self._extra.get(v)
        return self.base_degree(v) + (len(extra) if extra else 0)

    def neighbors_list(self, v: int) -> list[int]:
        """Adjacency of *v*: sorted base row followed by overlay appends."""
        if v < self.base_n:
            row = self.indices[self.indptr[v]:self.indptr[v + 1]].tolist()
        else:
            row = []
        extra = self._extra.get(v)
        if extra:
            row.extend(extra)
        return row

    # ------------------------------------------------------------------

    def freeze(self) -> tuple[np.ndarray, np.ndarray]:
        """Compact base + overlay into fresh CSR arrays (rows sorted ascending).

        One vectorised pass: degrees by bincount over the overlay endpoints,
        base rows block-copied at their new offsets, overlay entries appended,
        then the composite-key sort from :class:`repro.graphs.csr.CSRView`
        orders every row in place.
        """
        n = self._n
        base_n = self.base_n
        base_deg = np.diff(self.indptr).astype(np.int64)
        deg = np.zeros(n, dtype=np.int64)
        deg[:base_n] = base_deg

        extra_vertices = sorted(self._extra)
        for v in extra_vertices:
            deg[v] += len(self._extra[v])

        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(deg, out=indptr[1:])
        nnz = int(indptr[-1])
        indices = np.empty(nnz, dtype=np.int64)

        # Base rows: every entry shifts by (new start - old start) of its row.
        if len(self.indices):
            shift = indptr[:base_n] - self.indptr[:-1]
            dest = np.arange(len(self.indices), dtype=np.int64) + np.repeat(shift, base_deg)
            indices[dest] = self.indices

        # Overlay entries land after each row's base block.
        for v in extra_vertices:
            row = self._extra[v]
            start = int(indptr[v]) + int(base_deg[v]) if v < base_n else int(indptr[v])
            indices[start:start + len(row)] = row

        rows = np.repeat(np.arange(n, dtype=np.int64), deg)
        keys = rows * n
        indices += keys
        indices.sort()
        indices -= keys
        return indptr, indices

    def to_graph(self, base: Graph, labels: Sequence[Vertex]) -> Graph:
        """*base* plus the overlay's insertions, as a dict :class:`Graph`.

        *base* is the graph this overlay snapshots and ``labels[i]`` the
        label of vertex ``i``, fresh vertices included
        (:func:`repro.arraycore.space.grown_labels`). The result keeps
        *base*'s insertion order followed by the fresh vertices in minting
        order — what growing *base* in place would have produced.
        """
        graph = base.copy()
        adj = graph._adj
        for v in range(self.base_n, self._n):
            adj[labels[v]] = set()
        for v, row in self._extra.items():
            adj[labels[v]].update([labels[u] for u in row])
        graph._m = self._m
        return graph

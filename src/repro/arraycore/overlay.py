"""Orbit copying (paper Definition 3) in closed form over a frozen CSR.

Copy operations only ever *add* vertices and edges, and which edges they add
follows from the input graph alone. Write C(v) for v followed by its copies
in minting order (v is its own 0-th copy):

* for an input edge (u, w) between two cells, every vertex of C(u) ends up
  adjacent to every vertex of C(w), whatever order the cells grow in — a
  copy of u attaches to all current copies of its outside neighbours, and
  every later copy of w attaches to all current copies of u;
* for an input edge (u, w) inside a cell, the t-th copies of u and w are
  adjacent. A copy unit is closed under in-cell adjacency, so u and w are
  copied by the same operations, and each operation mirrors the edge once.

No other edge is ever added. So :class:`OverlayGraph` stores no edge at all:
it is the input CSR (``indptr``/``indices``, rows ascending, vertices
``0..base_n-1``), the cell of every input vertex, and the original every
fresh vertex copies. :meth:`~OverlayGraph.freeze` expands each directed
input entry over C(row) x C(column), pairing equal indices inside a cell,
into one preallocated key array (``row*n + column``, written in bounded
chunks) and sorts it once; every copy has its original's grown degree, so
``indptr`` comes straight from the degrees. :meth:`~OverlayGraph.to_graph`
hands the same graph back across the boundary of
:mod:`repro.arraycore.space` as a dict :class:`repro.graphs.Graph` in the
caller's labels.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.arraycore.space import array_space
from repro.graphs.graph import Graph, Vertex

__all__ = ["OverlayGraph"]

#: keys expanded per vectorised pass of :meth:`OverlayGraph.freeze`; bounds
#: the temporaries to a few times this many int64s whatever the graph size
FREEZE_CHUNK = 1 << 20


class OverlayGraph:
    """A frozen input CSR plus the vertices copied onto it."""

    __slots__ = ("base_n", "indptr", "indices", "cell_of", "roots")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        self.indptr = indptr
        self.indices = indices
        self.base_n = len(indptr) - 1
        #: cell index of every input vertex: one cell until an
        #: :class:`repro.arraycore.ArrayPartitionedGraph` tracks its partition here
        self.cell_of = np.zeros(self.base_n, dtype=np.int64)
        #: ``roots[i]``: the input vertex that fresh vertex ``base_n + i`` copies
        self.roots = np.empty(0, dtype=np.int64)

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

    @property
    def n(self) -> int:
        return self.base_n + len(self.roots)

    def mint(self, roots: np.ndarray) -> int:
        """Fresh copies of the input vertices *roots*; returns the first new id.

        The caller keeps the closure rule above: every operation copies
        whole cell-induced components of input vertices.
        """
        first = self.n
        self.roots = np.concatenate((self.roots, roots))
        return first

    def copy_counts(self) -> np.ndarray:
        """Copies minted so far of every input vertex."""
        return np.bincount(self.roots, minlength=self.base_n)

    # ------------------------------------------------------------------

    def freeze(self) -> tuple[np.ndarray, np.ndarray]:
        """The grown graph as CSR arrays (rows sorted ascending)."""
        base_n, n = self.base_n, self.n
        origin = np.concatenate((np.arange(base_n, dtype=np.int64), self.roots))
        # copies[first[v]:first[v + 1]] is C(v): v, then its copies ascending
        copies = np.argsort(origin, kind="stable")
        count = self.copy_counts() + 1
        first = np.zeros(base_n + 1, dtype=np.int64)
        np.cumsum(count, out=first[1:])

        rows = np.repeat(np.arange(base_n, dtype=np.int64), np.diff(self.indptr))
        cols = self.indices
        inside = self.cell_of[rows] == self.cell_of[cols]
        # neighbours each copy of the row gains from one input entry
        width = np.where(inside, 1, count[cols])
        degree = np.bincount(rows, weights=width, minlength=base_n).astype(np.int64)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degree[origin], out=indptr[1:])

        keys = np.empty(int(indptr[-1]), dtype=np.int64)
        reps = count[rows]
        ends = np.cumsum(reps * width)
        entry = written = 0
        while entry < len(rows):
            stop = max(int(np.searchsorted(ends, written + FREEZE_CHUNK, side="right")), entry + 1)
            batch = slice(entry, stop)
            # one slot per (entry, copy of its row) ...
            rep = reps[batch]
            rank = segment_ranks(rep)
            row_key = copies[np.repeat(first[rows[batch]], rep) + rank] * n
            col_start = np.repeat(first[cols[batch]], rep)
            col_start += np.where(np.repeat(inside[batch], rep), rank, 0)
            # ... then one key per neighbour that copy gains from the entry
            wide = np.repeat(width[batch], rep)
            chunk = keys[written:int(ends[stop - 1])]
            chunk[:] = segment_ranks(wide)
            chunk += np.repeat(col_start, wide)
            np.take(copies, chunk, out=chunk)
            chunk += np.repeat(row_key, wide)
            entry, written = stop, int(ends[stop - 1])
        keys.sort()
        np.remainder(keys, n, out=keys)
        return indptr, keys

    def to_graph(self, base: Graph, labels: Sequence[Vertex]) -> Graph:
        """*base* plus the copies' vertices and edges, as a dict :class:`Graph`.

        *base* is the graph this overlay snapshots and ``labels[i]`` the
        label of vertex ``i``, fresh vertices included
        (:func:`repro.arraycore.space.grown_labels`). The result keeps
        *base*'s insertion order followed by the fresh vertices in minting
        order — what growing *base* in place would have produced.
        """
        graph = base.copy()
        base_n, n = self.base_n, self.n
        if n == base_n:
            return graph
        indptr, indices = self.freeze()
        # An input vertex's row is its input row followed by its fresh
        # neighbours (ids >= base_n); every entry of a fresh row is new.
        split = int(indptr[base_n])
        head = indices[:split]
        new_entries = np.diff(indptr)
        new_entries[:base_n] -= np.diff(self.indptr)
        neighbours = list(map(labels.__getitem__, np.concatenate(
            (head[head >= base_n], indices[split:])).tolist()))
        grown = np.flatnonzero(new_entries[:base_n])
        ends = np.cumsum(new_entries[grown]).tolist()
        adj = graph._adj
        start = 0
        for v, end in zip(grown.tolist(), ends):
            adj[labels[v]].update(neighbours[start:end])
            start = end
        for v, end in zip(range(base_n, n), (start + np.cumsum(new_entries[base_n:])).tolist()):
            adj[labels[v]] = set(neighbours[start:end])
            start = end
        graph._m = len(indices) // 2
        return graph


def segment_ranks(lengths: np.ndarray) -> np.ndarray:
    """0, 1, ..., lengths[i] - 1 for every i, concatenated."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total, dtype=np.int64) - np.repeat(ends - lengths, lengths)

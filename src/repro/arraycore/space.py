"""The one boundary between a :class:`repro.graphs.Graph` and the array core.

Every production pass runs over CSR rows whose vertices are ``0..n-1``.
:func:`array_space` lays a graph's rows out in ascending-label order and
returns the label list, so array vertex ``i`` is ``labels[i]``. The
relabelling preserves order, so the array passes walk vertices in exactly
the ascending label order of the dict oracles in :mod:`repro.core.reference`,
and results map back byte-identically: a fresh copy vertex ``n + i`` gets
``max(label) + 1 + i`` (:func:`grown_labels`), and
:meth:`repro.arraycore.OverlayGraph.to_graph` keeps the input's insertion
order followed by the fresh vertices. A graph that already is ``0..n-1`` in
insertion order (the generators', ksymmetryd's canonical graphs) costs
nothing: its cached CSR comes back with ``labels = range(n)``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.graphs.graph import Graph, Vertex, _sorted_if_possible

__all__ = ["array_space", "grown_labels", "index_cells"]


def array_space(graph: Graph) -> tuple[np.ndarray, np.ndarray, Sequence[Vertex]]:
    """*graph* as CSR rows in ascending-label order, plus the label list.

    Returns ``(indptr, indices, labels)``: row ``i`` belongs to vertex
    ``labels[i]`` and lists its neighbours' rows in ascending order.
    ``labels`` is ``range(n)`` whenever the vertices are exactly ``0..n-1``,
    whatever their insertion order. Labels that do not compare take the
    stable proxy order of :meth:`Graph.sorted_vertices`.
    """
    csr = graph.csr()
    n = csr.n
    if csr.vertices == tuple(range(n)):
        return csr.indptr, csr.indices, range(n)
    labels = _sorted_if_possible(list(csr.vertices))
    if tuple(labels) == csr.vertices:
        return csr.indptr, csr.indices, labels
    # perm[i]: the insertion-order row of the i-th smallest label. Gather the
    # rows in that order, rename every entry to its label rank, and re-sort
    # each row with the composite key row*n + col (entries never leave it).
    perm = np.fromiter(map(csr.index.__getitem__, labels), dtype=np.int64, count=n)
    step = np.arange(n, dtype=np.int64)
    degrees = csr.degrees[perm].astype(np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    shift = csr.indptr[perm].astype(np.int64) - indptr[:-1]
    source = np.arange(indptr[-1], dtype=np.int64) + np.repeat(shift, degrees)
    rank = np.empty(n, dtype=np.int64)
    rank[perm] = step
    indices = rank[csr.indices[source]]
    keys = np.repeat(step * n, degrees)
    indices += keys
    indices.sort()
    indices -= keys
    return indptr, indices, range(n) if labels == list(range(n)) else labels


def index_cells(labels: Sequence[Vertex], cells: Iterable[Iterable[Vertex]]) -> list[list[int]]:
    """Cells of labels as cells of array vertices (member order kept)."""
    if isinstance(labels, range):
        return [list(cell) for cell in cells]
    index = {v: i for i, v in enumerate(labels)}
    return [[index[v] for v in cell] for cell in cells]


def grown_labels(labels: Sequence[int], n: int) -> Sequence[int]:
    """Labels of array vertices ``0..n-1`` after growth from *labels*.

    *labels* must be ascending ints (the anonymizer's vertex contract); the
    fresh vertex ``len(labels) + i`` gets ``max(labels) + 1 + i``.
    """
    if isinstance(labels, range):
        return range(n)
    top = labels[-1] + 1
    return [*labels, *range(top, top + n - len(labels))]

"""Compressed-sparse-row view of a :class:`repro.graphs.Graph`.

The dict-of-sets adjacency is the right structure for mutation, but every
hot loop in the library — colour refinement, the per-vertex knowledge
measures behind the Figure 2 attacks, clustering/transitivity over every
sampled graph — only ever *reads* the topology. :class:`CSRView` freezes the
graph into three contiguous NumPy arrays:

* ``indptr``  — row pointers, ``indptr[i]:indptr[i+1]`` bounds row *i*;
* ``indices`` — neighbour indices, sorted ascending within each row
  (``nnz = 2m``: both directions of every edge are stored);
* ``degrees`` — ``indptr`` differences.

The arrays use the *compact dtype*: ``int32`` whenever the composite row
key ``row * n + col < n**2`` fits (``n <= 46340``), ``int64`` beyond —
halving memory traffic on every gather/sort in the kernels below at the
sizes the experiments actually run. A vertex ↔ index bijection
(``vertices`` in graph insertion order, ``index`` its lazily-built
inverse) lets array kernels run in integer space and translate back to
vertex objects only at the boundary.

The view is *immutable* and built lazily: ``graph.csr()`` computes it on
first use, caches it on the ``Graph`` instance, and every structural
mutation (``add_vertex``/``add_edge``/``remove_edge``/``remove_vertex``)
drops the cache, so a stale view can never be observed. Derived quantities
that are themselves whole-graph passes (per-vertex triangle counts, local
clustering coefficients) are cached *on the view*, inheriting its lifetime.

Batch kernels in this module return plain Python containers (lists/tuples
of ``int``/``float``) so results compare, hash, pickle and serialise
exactly like the dict-based reference implementations in
:mod:`repro.graphs.reference`; the test-suite pins bit-identical parity.
"""

from __future__ import annotations

from collections.abc import Hashable
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.graphs.graph import Graph

Vertex = Hashable

# Largest n whose composite key row * n + col < n**2 still fits int32.
_COMPACT_MAX_N = 46340

_U64 = np.uint64


def splitmix64(x: np.ndarray) -> np.ndarray:
    """splitmix64's output mix, elementwise over a uint64 array (wrapping).

    The fixed integer mixer behind the hashed passes over CSR rows: the
    refinement rounds weight neighbour colours with it, the backbone hashes
    rows with it. Returns a new array.
    """
    x = x + _U64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> _U64(27))) * _U64(0x94D049BB133111EB)
    return x ^ (x >> _U64(31))


class CSRView:
    """An immutable int-indexed CSR snapshot of a graph's adjacency.

    Do not construct directly — use :meth:`repro.graphs.Graph.csr`, which
    caches the view and invalidates it on mutation. The arrays are exposed
    read-only; mutating them would desynchronise every cached kernel.
    """

    __slots__ = (
        "vertices", "indptr", "indices", "degrees", "_index", "_rows",
        "_triangles", "_neighbor_degree_sequences", "_clustering",
        "_adjacency_lists",
    )

    def __init__(self, adjacency: dict[Vertex, set[Vertex]]) -> None:
        self.vertices: tuple[Vertex, ...] = tuple(adjacency)
        n = len(self.vertices)
        dt = np.int32 if n <= _COMPACT_MAX_N else np.int64
        degrees = np.fromiter(
            map(len, adjacency.values()), dtype=dt, count=n,
        )
        indptr = np.zeros(n + 1, dtype=dt)
        np.cumsum(degrees, out=indptr[1:])
        nnz = int(indptr[-1])
        # One flat pass over the adjacency (the only per-element Python work;
        # when the vertices are literally 0..n-1 the index map is the
        # identity and is neither built nor consulted), then one in-place
        # sort of the composite key row*n + col orders every row ascending:
        # keys of row i occupy [i*n, (i+1)*n), so the global sort permutes
        # only within rows.
        neighbor_sets = adjacency.values()
        if self.vertices == tuple(range(n)):
            self._index: dict[Vertex, int] | None = None
            flat = np.fromiter(
                chain.from_iterable(neighbor_sets), dtype=dt, count=nnz,
            )
        else:
            index = {v: i for i, v in enumerate(self.vertices)}
            self._index = index
            flat = np.fromiter(
                map(index.__getitem__, chain.from_iterable(neighbor_sets)),
                dtype=dt, count=nnz,
            )
        rows = np.repeat(np.arange(n, dtype=dt), degrees)
        base = rows * n
        flat += base
        flat.sort()
        flat -= base
        indices = flat
        for arr in (indptr, indices, degrees, rows):
            arr.setflags(write=False)
        self.indptr = indptr
        self.indices = indices
        self.degrees = degrees
        # Row index of every indices entry — shared by the whole-graph
        # kernels below so the 2m-element repeat is paid once.
        self._rows = rows
        self._triangles: np.ndarray | None = None
        self._neighbor_degree_sequences: list[tuple[int, ...]] | None = None
        self._clustering: np.ndarray | None = None
        self._adjacency_lists: list[list[int]] | None = None

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return int(self.indptr[-1]) // 2

    @property
    def index(self) -> dict[Vertex, int]:
        """Vertex -> row index (lazy: the identity layout never builds it)."""
        if self._index is None:
            self._index = {v: i for i, v in enumerate(self.vertices)}
        return self._index

    def row(self, i: int) -> np.ndarray:
        """Neighbour indices of vertex *i*, sorted ascending (a view)."""
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    def __repr__(self) -> str:
        return f"CSRView(n={self.n}, m={self.m})"

    # ------------------------------------------------------------------
    # cached whole-graph kernels
    # ------------------------------------------------------------------

    def triangle_counts(self) -> np.ndarray:
        """Per-vertex triangle counts, aligned with ``vertices`` (cached).

        Oriented "forward" counting over the degree-ordered adjacency: each
        triangle is discovered exactly once, at its lowest-rank corner, as
        an adjacent pair among that corner's forward neighbours; the hits
        then credit all three corners.
        """
        if self._triangles is None:
            self._triangles = _triangle_counts(
                self.indptr, self.indices, self.degrees, self._rows,
            )
            self._triangles.setflags(write=False)
        return self._triangles

    def neighbor_degree_sequences(self) -> list[tuple[int, ...]]:
        """Deg(v) for every vertex, aligned with ``vertices`` (cached).

        Computed for all vertices at once: gather each neighbour's degree,
        sort within rows via one in-place pass over the composite key
        row * n + degree (degrees are < n, so rows cannot mix), and split
        at the row pointers. Low-degree graphs (the common case for the
        paper's samples) repeat the same few sequences thousands of times,
        so when every row packs into one machine word the rows are deduped
        through an exact integer encoding and each distinct tuple is
        materialised once — see :func:`_row_tuples`.
        """
        if self._neighbor_degree_sequences is None:
            nbr_deg = self.degrees[self.indices]
            base = self._rows * self.n
            nbr_deg += base
            nbr_deg.sort()
            nbr_deg -= base
            self._neighbor_degree_sequences = _row_tuples(
                nbr_deg, self.indptr, self.degrees,
            )
        return self._neighbor_degree_sequences

    def adjacency_lists(self) -> list[list[int]]:
        """The rows as plain Python lists of ints (cached).

        Interpreted hot loops (e.g. the small-cell paths of colour
        refinement) iterate these faster than any per-element ndarray
        access; the lists must not be mutated.
        """
        if self._adjacency_lists is None:
            flat = self.indices.tolist()
            bounds = self.indptr.tolist()
            self._adjacency_lists = [
                flat[bounds[i]:bounds[i + 1]] for i in range(self.n)
            ]
        return self._adjacency_lists

    def clustering_coefficients(self) -> np.ndarray:
        """Per-vertex local clustering coefficients (cached, float64).

        ``tri(v) / (deg(v) * (deg(v) - 1) / 2)``, 0.0 below degree 2 — the
        same IEEE-754 operations as the scalar reference, so the floats are
        bit-identical.
        """
        if self._clustering is None:
            tri = self.triangle_counts().astype(np.float64)
            possible = self.degrees * (self.degrees - 1) / 2
            with np.errstate(divide="ignore", invalid="ignore"):
                coeffs = np.where(self.degrees >= 2, tri / possible, 0.0)
            coeffs.setflags(write=False)
            self._clustering = coeffs
        return self._clustering


def _row_tuples(
    flat: np.ndarray, indptr: np.ndarray, degrees: np.ndarray,
) -> list[tuple[int, ...]]:
    """Split the row-sorted *flat* array into one tuple per row.

    When every row packs into a single int64 — row values are positive and
    ``bit_length(max) * max_row_length <= 62`` — each row is encoded as a
    base-``2**bits`` integer (an *exact* injective encoding, not a hash:
    values are nonzero so lengths cannot collide either), duplicates are
    collapsed with one ``np.unique``, and only the distinct rows are
    materialised as tuples. Near-regular graphs repeat a handful of
    sequences across thousands of vertices, so this skips almost all of
    the per-row tuple construction; graphs that fail the packing gate or
    turn out mostly-distinct fall back to the direct per-row loop.
    """
    n = len(degrees)
    if n == 0:
        return []
    if len(flat) == 0:
        return [()] * n  # all rows empty (edgeless graph); reduceat would balk
    maxval = int(flat.max(initial=0))
    minval = int(flat.min(initial=1))
    maxlen = int(degrees.max(initial=0))
    bits = maxval.bit_length()
    if minval > 0 and bits * maxlen <= 62:
        starts = indptr[:-1].astype(np.int64)
        posin = np.arange(len(flat), dtype=np.int64) - np.repeat(starts, degrees)
        shifts = (np.repeat(degrees.astype(np.int64), degrees) - 1 - posin) * bits
        contrib = flat.astype(np.int64) << shifts
        keys = np.add.reduceat(contrib, np.minimum(starts, max(len(flat) - 1, 0)))
        keys[degrees == 0] = 0  # reduceat misreads empty rows; key 0 is theirs
        uniq, first_at, inverse = np.unique(
            keys, return_index=True, return_inverse=True,
        )
        if len(uniq) <= n >> 1:
            reps = np.empty(len(uniq), dtype=object)
            bounds = indptr
            for j, i in enumerate(first_at.tolist()):
                reps[j] = tuple(flat[bounds[i]:bounds[i + 1]].tolist())
            return reps[inverse].tolist()
    values = flat.tolist()
    bounds = indptr.tolist()
    return [tuple(values[bounds[i]:bounds[i + 1]]) for i in range(n)]


def _triangle_counts(
    indptr: np.ndarray, indices: np.ndarray, degrees: np.ndarray,
    rows: np.ndarray | None = None, chunk: int = 1 << 22,
) -> np.ndarray:
    """Oriented "forward" triangle counting on raw CSR arrays.

    Every edge is oriented from its lower to its higher endpoint and, for
    every vertex, all pairs of its forward neighbours are enumerated —
    Σ C(d⁺, 2) wedges; each "is the closing edge present?" probe is
    answered wholesale with one ``searchsorted`` against the sorted
    oriented-key array ``u * n + v``. A triangle a < b < c is found
    exactly once, as the pair (b, c) under a, so every hit credits all
    three corners once.

    Two orientations, picked by a wedge-count gate:

    * **index order** — forward rows are suffixes of the (ascending) CSR
      rows, so the oriented keys come out globally sorted for free. Used
      while the wedge count stays within a small factor of the edge
      count, i.e. for the near-regular graphs the experiments mostly
      sample.
    * **(degree, index) rank** — hub graphs concentrate wedges on
      low-index hubs under index order, so they are relabelled into rank
      space instead (one extra 2m sort), capping the forward out-degree
      at O(sqrt(m)) — the classic O(m^{3/2}) bound; per-rank counts are
      scattered back to vertex order at the end.

    *chunk* caps the number of wedges materialised at a time.
    """
    n = len(indptr) - 1
    tri = np.zeros(n, dtype=np.int64)
    nnz = len(indices)
    if n == 0 or nnz == 0:
        return tri
    if rows is None:
        rows = np.repeat(np.arange(n, dtype=indices.dtype), degrees)
    fwd = indices > rows
    odeg = np.where(
        degrees > 0,
        np.add.reduceat(fwd, np.minimum(indptr[:-1].astype(np.int64), nnz - 1)),
        0,
    )
    wedges = int((odeg * (odeg - 1) // 2).sum())
    if wedges <= 4 * (nnz >> 1):
        order = None
        oev = indices[fwd]
        okeys = rows[fwd].astype(np.int64) * n + oev
    else:
        # rank: position in the (degree, index)-ascending vertex order —
        # the stable argsort on the bare degrees is that order exactly.
        order = np.argsort(degrees, kind="stable")
        rank = np.empty(n, dtype=indices.dtype)
        rank[order] = np.arange(n, dtype=indices.dtype)
        fsel = rank[indices] > rank[rows]
        okeys = rank[rows][fsel].astype(np.int64) * n + rank[indices][fsel]
        okeys.sort()
        oev = (okeys % n).astype(indices.dtype)
        odeg = np.bincount(okeys // n, minlength=n)
    onnz = len(oev)
    if onnz == 0:
        return tri
    optr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(odeg, out=optr[1:])
    osrc = np.repeat(np.arange(n, dtype=indices.dtype), odeg)
    # Wedges under entry e at in-row position p: e paired with the
    # len(row) - 1 - p entries after it.
    posin = np.arange(onnz, dtype=np.int64) - np.repeat(optr[:-1], odeg)
    firstcnt = np.repeat(odeg, odeg) - 1 - posin
    wbounds = np.zeros(onnz + 1, dtype=np.int64)
    np.cumsum(firstcnt, out=wbounds[1:])
    total = int(wbounds[-1])
    acc = tri if order is None else np.zeros(n, dtype=np.int64)
    lo = 0
    while lo < onnz and total:
        hi = int(np.searchsorted(
            wbounds, min(wbounds[lo] + chunk, total), side="left",
        ))
        hi = max(hi, lo + 1)
        fc = firstcnt[lo:hi]
        batch = int(wbounds[hi] - wbounds[lo])
        if batch:
            shift = wbounds[lo:hi] - wbounds[lo]
            first = np.repeat(oev[lo:hi], fc)
            take = np.repeat(
                np.arange(lo + 1, hi + 1, dtype=np.int64) - shift, fc,
            ) + np.arange(batch, dtype=np.int64)
            second = oev[take]
            probes = first.astype(np.int64) * n + second
            loc = np.minimum(np.searchsorted(okeys, probes), onnz - 1)
            hit = okeys[loc] == probes
            if hit.any():
                # Per-entry hit counts credit the wedge source and first
                # corner without re-materialising the wedge fan; weights
                # are small integers, exact in float64.
                cnt = np.add.reduceat(hit, np.minimum(shift, batch - 1))
                cnt = np.where(fc > 0, cnt, 0)
                acc += np.bincount(osrc[lo:hi], weights=cnt, minlength=n).astype(np.int64)
                acc += np.bincount(oev[lo:hi], weights=cnt, minlength=n).astype(np.int64)
                acc += np.bincount(second[hit], minlength=n)
        lo = hi
    if order is not None:
        tri[order] = acc
    return tri


# ---------------------------------------------------------------------------
# batch extractors (vertex-keyed boundary, plain Python values)
# ---------------------------------------------------------------------------

def all_degrees(graph: Graph) -> dict[Vertex, int]:
    """deg(v) for every vertex, in graph insertion order."""
    csr = graph.csr()
    return dict(zip(csr.vertices, csr.degrees.tolist()))


def all_neighbor_degree_sequences(graph: Graph) -> dict[Vertex, tuple[int, ...]]:
    """Deg(v) — the sorted neighbour-degree sequence — for every vertex."""
    csr = graph.csr()
    return dict(zip(csr.vertices, csr.neighbor_degree_sequences()))


def all_triangle_counts(graph: Graph) -> dict[Vertex, int]:
    """tri(v) for every vertex, in graph insertion order."""
    csr = graph.csr()
    return dict(zip(csr.vertices, csr.triangle_counts().tolist()))

"""Colour refinement (1-WL) on an ordered-partition structure.

The :class:`OrderedPartition` stores a partition as one contiguous vertex
array with cells as runs, the classic nauty/saucy layout: splitting a cell
never moves any other cell, so a cell is identified by the (stable) index of
its first position. This gives the individualization–refinement search an
isomorphism-invariant notion of "which cell" that is cheap to maintain.

The bookkeeping lives in flat int arrays over an internal vertex ↔ slot
bijection (nauty's ``lab``/``ptn`` idea, here ``order``/``pos``/``cell``
arrays): ``_order[p]`` is the slot at position ``p``, ``_pos[s]`` the
position of slot ``s`` and ``_cstart[s]`` the start of its cell, with the
graph's adjacency translated once into slot space from the CSR view
(:meth:`repro.graphs.Graph.csr`). ``refine`` runs hybrid kernels sized to
the work item: large scattering cells go through NumPy (one multi-row
gather + ``unique``, one stable argsort per large split), while the long
tail of tiny cells — the vast majority of worklist items once the partition
is nearly discrete — is counted and split with plain dict/list code, which
beats NumPy's fixed per-call overhead at those sizes. Vertex objects appear
only at the API boundary, which is unchanged; the original dict
implementation survives as :mod:`repro.isomorphism.refinement_reference`,
the oracle the parity suite compares against (identical cells, identical
traces).

``refine`` drives cells-to-recount from a worklist until the partition is
equitable: every vertex in a cell has the same number of neighbours in every
cell. The sequence of splits is summarised in an isomorphism-invariant
*trace*, which the search uses to prune branches that cannot lead to
automorphisms, and which the canonical-labeling machinery compares
lexicographically.

The fixpoint of refinement started from the degree partition is exactly the
"total degree partition" / graph stabilization approximation the paper's
Section 7 proposes for graphs too large for exact automorphism computation.
:func:`stable_partition` computes that fixpoint without the worklist when it
can: a few hashed colour-refinement rounds over the CSR arrays, an exact
equitability check, and a handover to ``refine`` only for what the check
finds unstable (see its docstring and ``docs/algorithms.md`` §1).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable, Iterable, Sequence

import numpy as np

from repro.graphs.graph import Graph
from repro.graphs.partition import Partition
from repro.utils.validation import GraphStructureError, PartitionError

Vertex = Hashable
# One trace entry per cell split: (position of the split cell,
#                                  ((neighbour-count, fragment-size), ...)).
TraceEntry = tuple[int, tuple[tuple[int, int], ...]]

_EMPTY = np.empty(0, dtype=np.int64)

# Work below these sizes runs the interpreted fast paths in ``refine``:
# NumPy's fixed per-call cost (~µs) dwarfs dict/list work on a handful of
# elements, and near-discrete partitions produce tens of thousands of such
# tiny work items. Both paths produce identical splits, so the cutovers
# affect speed only; parity tests sweep graphs that exercise all four
# path combinations.
_SMALL_GATHER = 64   # gathered-neighbour volume of a scattering cell
_SMALL_CELL = 48     # member count of a touched cell being split


def _gather_rows(indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Concatenation of CSR rows *rows* (multi-range gather, no Python loop)."""
    starts = indptr[rows]
    lens = indptr[rows + 1] - starts
    total = int(lens.sum())
    if total == 0:
        return _EMPTY
    shift = np.concatenate(([0], np.cumsum(lens[:-1])))
    take = np.repeat(starts - shift, lens) + np.arange(total, dtype=np.int64)
    return indices[take]


class OrderedPartition:
    """A mutable ordered partition with stable cell positions.

    Cells are contiguous runs of ``order``; a cell is named by the index of
    its first element. Splitting a run reuses its start for the first
    fragment and mints the interior offsets for the rest, so the names of
    untouched cells never change.

    ``order`` and ``pos`` are materialised to vertex-object form on access;
    the mutable state is int arrays (see the module docstring). ``cell_len``
    (position → run length) and ``nonsingleton`` (positions of cells of
    size > 1) are plain dict/set and part of the public surface.
    """

    __slots__ = (
        "_verts", "_slot", "_order", "_pos", "_cstart",
        "cell_len", "nonsingleton", "_adj_cache",
    )

    def __init__(self, cells: Iterable[Sequence[Vertex]]) -> None:
        verts: list[Vertex] = []
        slot: dict[Vertex, int] = {}
        cell_len: dict[int, int] = {}
        nonsingleton: set[int] = set()
        for cell in cells:
            if not cell:
                raise PartitionError("empty cell in ordered partition")
            start = len(verts)
            for v in cell:
                if v in slot:
                    raise PartitionError(f"vertex {v!r} appears twice")
                slot[v] = len(verts)
                verts.append(v)
            cell_len[start] = len(cell)
            if len(cell) > 1:
                nonsingleton.add(start)
        n = len(verts)
        self._verts = tuple(verts)
        self._slot = slot
        # Slots are minted in initial-position order, so all three arrays
        # start as the identity / constant-per-run maps.
        self._order = np.arange(n, dtype=np.int64)
        self._pos = np.arange(n, dtype=np.int64)
        cstart = np.empty(n, dtype=np.int64)
        for start, length in cell_len.items():
            cstart[start:start + length] = start
        self._cstart = cstart
        self.cell_len = cell_len
        self.nonsingleton = nonsingleton
        self._adj_cache: tuple | None = None

    @classmethod
    def from_partition(cls, partition: Partition) -> "OrderedPartition":
        return cls([list(cell) for cell in partition.cells])

    @classmethod
    def unit(cls, vertices: Iterable[Vertex]) -> "OrderedPartition":
        vs = list(vertices)
        return cls([vs] if vs else [])

    @classmethod
    def _from_colours(cls, graph: Graph, colour: np.ndarray,
                      sizes: np.ndarray) -> tuple["OrderedPartition", np.ndarray]:
        """The colour classes of the graph's CSR rows, as runs in colour order.

        *colour* holds one id in ``0..len(sizes)-1`` per CSR row and *sizes*
        the class sizes (all nonzero). Slots are CSR row indices, so
        ``_adjacency`` takes its no-translation path. Returns the partition
        and every colour's start position.
        """
        csr = graph.csr()
        op = cls.__new__(cls)
        op._verts = csr.vertices
        op._slot = csr.index
        order = np.argsort(colour, kind="stable")
        starts = np.zeros(len(sizes), dtype=np.int64)
        np.cumsum(sizes[:-1], out=starts[1:])
        op._order = order
        op._pos = np.empty(len(order), dtype=np.int64)
        op._pos[order] = np.arange(len(order), dtype=np.int64)
        op._cstart = starts[colour]
        op.cell_len = dict(zip(starts.tolist(), sizes.tolist()))
        op.nonsingleton = set(starts[sizes > 1].tolist())
        op._adj_cache = None
        return op, starts

    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._verts)

    @property
    def order(self) -> list[Vertex]:
        """The vertex at every position, as objects (built on access)."""
        verts = self._verts
        return [verts[s] for s in self._order.tolist()]

    @property
    def pos(self) -> dict[Vertex, int]:
        """vertex → position, as a fresh dict (built on access)."""
        verts = self._verts
        positions = self._pos.tolist()
        return {verts[s]: positions[s] for s in range(len(verts))}

    def n_cells(self) -> int:
        return len(self.cell_len)

    def is_discrete(self) -> bool:
        return not self.nonsingleton

    def cell_members(self, start: int) -> list[Vertex]:
        verts = self._verts
        run = self._order[start:start + self.cell_len[start]]
        return [verts[s] for s in run.tolist()]

    def cell_starts(self) -> list[int]:
        return sorted(self.cell_len)

    def cells(self) -> list[list[Vertex]]:
        verts = self._verts
        by_position = [verts[s] for s in self._order.tolist()]
        cell_len = self.cell_len
        return [
            by_position[start:start + cell_len[start]]
            for start in self.cell_starts()
        ]

    def cell_of(self, v: Vertex) -> int:
        return int(self._cstart[self._slot[v]])

    def first_nonsingleton(self) -> int | None:
        """Position of the first cell with more than one member, or ``None``."""
        return min(self.nonsingleton, default=None)

    def smallest_nonsingleton(self) -> int | None:
        """Position of the smallest (ties: earliest) cell of size > 1, or ``None``."""
        if not self.nonsingleton:
            return None
        return min(self.nonsingleton, key=lambda start: (self.cell_len[start], start))

    def copy(self) -> "OrderedPartition":
        clone = OrderedPartition.__new__(OrderedPartition)
        clone._verts = self._verts          # immutable after construction
        clone._slot = self._slot            # (shared with every copy)
        clone._order = self._order.copy()
        clone._pos = self._pos.copy()
        clone._cstart = self._cstart.copy()
        clone.cell_len = dict(self.cell_len)
        clone.nonsingleton = set(self.nonsingleton)
        clone._adj_cache = self._adj_cache  # keyed by CSR identity, shareable
        return clone

    def to_partition(self) -> Partition:
        if not self.nonsingleton:
            # Discrete: Partition.singletons builds the normalized form
            # directly, skipping the general constructor's per-cell work.
            return Partition.singletons(self._verts)
        return Partition(self.cells())

    def labeling(self) -> dict[Vertex, int]:
        """For a discrete partition: vertex -> position (the leaf labeling)."""
        if not self.is_discrete():
            raise PartitionError("labeling requested on a non-discrete partition")
        return dict(self.pos)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def _split_segment(self, start: int, groups: Sequence[Sequence[Vertex]]) -> list[int]:
        """Rewrite the run at *start* as the concatenation of *groups*.

        Returns the start positions of the new fragments, in order. Callers
        guarantee the groups partition exactly the current members of the
        cell. (Vertex-object API, used by the twin-cell collapse; ``refine``
        splits in slot space directly.)
        """
        order, pos, cstart = self._order, self._pos, self._cstart
        slot_of = self._slot
        offset = start
        new_starts = []
        self.nonsingleton.discard(start)
        for group in groups:
            gstart = offset
            new_starts.append(gstart)
            self.cell_len[gstart] = len(group)
            if len(group) > 1:
                self.nonsingleton.add(gstart)
            for v in group:
                s = slot_of[v]
                order[offset] = s
                pos[s] = offset
                cstart[s] = gstart
                offset += 1
        return new_starts

    def individualize(self, v: Vertex) -> int:
        """Split ``[... v ...]`` into ``[v][...rest...]``; returns the rest's start.

        The cell must have at least two members. The singleton keeps the
        cell's old start position.
        """
        s = self._slot[v]
        start = int(self._cstart[s])
        length = self.cell_len[start]
        if length < 2:
            raise PartitionError(f"cannot individualize {v!r}: its cell is a singleton")
        order, pos, cstart = self._order, self._pos, self._cstart
        members = order[start:start + length]
        rest = members[members != s]
        order[start] = s
        order[start + 1:start + length] = rest
        pos[s] = start
        pos[rest] = np.arange(start + 1, start + length, dtype=np.int64)
        cstart[rest] = start + 1
        self.cell_len[start] = 1
        self.cell_len[start + 1] = length - 1
        self.nonsingleton.discard(start)
        if length > 2:
            self.nonsingleton.add(start + 1)
        return start + 1

    # ------------------------------------------------------------------
    # refinement
    # ------------------------------------------------------------------

    def _adjacency(self, graph: Graph) -> tuple[np.ndarray, np.ndarray, list[list[int]]]:
        """The graph's adjacency translated to slot space (cached per CSR).

        Returns the CSR pair plus a plain list-of-lists mirror of the same
        rows — the fuel for the small-cell Python fast path in ``refine``.
        Neighbours outside the partition are dropped, so partitions over a
        vertex subset refine against the induced subgraph, as before. The
        cache is keyed by CSR-view identity: a graph mutation mints a new
        view and therefore a new translation; copies share the cache.
        """
        csr = graph.csr()
        cache = self._adj_cache
        if cache is not None and cache[0] is csr:
            return cache[1], cache[2], cache[3]
        n = len(self._verts)
        if self._verts == csr.vertices:
            # Partition over the whole graph in its own vertex order (the
            # stable_partition fast path): slot space IS graph-index space,
            # so the CSR arrays and the view's cached list mirror are used
            # directly, with no translation pass.
            out = (csr, csr.indptr, csr.indices, csr.adjacency_lists())
            self._adj_cache = out
            return out[1], out[2], out[3]
        gidx = np.empty(n, dtype=np.int64)
        index = csr.index
        try:
            for s, v in enumerate(self._verts):
                gidx[s] = index[v]
        except KeyError as exc:
            raise GraphStructureError(f"vertex {exc.args[0]!r} not in graph") from exc
        g2s = np.full(csr.n, -1, dtype=np.int64)
        g2s[gidx] = np.arange(n, dtype=np.int64)
        nbrs = g2s[_gather_rows(csr.indptr, csr.indices, gidx)]
        lens = csr.degrees[gidx]
        keep = nbrs != -1
        kept = nbrs[keep]
        rows = np.repeat(np.arange(n, dtype=np.int64), lens)[keep]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        flat = kept.tolist()
        bounds = indptr.tolist()
        adj_rows = [flat[bounds[i]:bounds[i + 1]] for i in range(n)]
        self._adj_cache = (csr, indptr, kept, adj_rows)
        return indptr, kept, adj_rows

    def refine(self, graph: Graph, active: Iterable[int] | None = None) -> tuple[TraceEntry, ...]:
        """Refine until equitable, driven by a worklist of cell positions.

        *active* positions seed the worklist; by default every current cell
        does (a full refinement). Returns the isomorphism-invariant trace of
        the splits performed.

        Work items are dispatched by size: scattering cells whose gathered
        neighbourhood is small are counted with a plain dict over the Python
        adjacency mirror, and small touched cells are split with list code —
        NumPy's fixed per-call cost loses to interpreted loops at those
        sizes. Large gathers and large splits take the array path. Both
        paths perform the identical grouping (stable, by ascending count),
        so the resulting cells and traces are bit-identical to the dict
        reference regardless of which path handled a given item.
        """
        adj_indptr, adj_indices, adj_rows = self._adjacency(graph)
        order, pos, cstart = self._order, self._pos, self._cstart
        cell_len = self.cell_len
        nonsingleton = self.nonsingleton
        n = len(self._verts)

        if active is None:
            worklist = deque(self.cell_starts())
        else:
            worklist = deque(active)
        queued = set(worklist)
        trace: list[TraceEntry] = []
        # Scratch neighbour-count accumulator, zeroed on the touched entries
        # after every scattering cell, so the whole loop allocates O(n) once.
        counts_buf = np.zeros(n, dtype=np.int64)
        arange_n = np.arange(n, dtype=np.int64)
        # Memoryviews over the state arrays: scalar reads return plain ints
        # several times faster than ndarray indexing, writes land in the
        # same buffers the vectorised kernels operate on.
        order_mv = memoryview(order)
        pos_mv = memoryview(pos)
        cstart_mv = memoryview(cstart)
        counts_mv = memoryview(counts_buf)
        # Python-path counterpart of counts_buf: list indexing is the
        # cheapest scalar accumulator there is.
        counts_list = [0] * n
        # Reusable peel mask (restored to all-True after each use).
        mask_buf = np.ones(n, dtype=bool)

        def requeue_fragments(t_start: int, new_starts: list[int], sizes_list: list[int]) -> None:
            # Skipping the largest fragment (Hopcroft) is only safe when the
            # parent cell is not pending; requeue everything when it is.
            if t_start in queued:
                requeue = new_starts
            elif len(sizes_list) == 2:
                requeue = (new_starts[1],) if sizes_list[0] >= sizes_list[1] \
                    else (new_starts[0],)
            else:
                largest = sizes_list.index(max(sizes_list))
                requeue = [s for i, s in enumerate(new_starts) if i != largest]
            for s in requeue:
                if s not in queued:
                    queued.add(s)
                    worklist.append(s)

        def split_cell_array(t_start: int, length: int) -> None:
            # Array split: counts must already be scattered into counts_buf.
            members = order[t_start:t_start + length]
            member_counts = counts_buf[members]
            if member_counts[0] == member_counts[-1] and \
                    (member_counts == member_counts[0]).all():
                return
            # Stable sort by count: fragments come out in increasing count
            # order with the original within-cell order preserved, exactly
            # the dict implementation's grouping.
            perm = np.argsort(member_counts, kind="stable")
            sorted_members = members[perm]
            sorted_counts = member_counts[perm]
            breaks = np.flatnonzero(sorted_counts[1:] != sorted_counts[:-1]) + 1
            frag_offsets = np.concatenate(([0], breaks))
            sizes = np.diff(np.concatenate((frag_offsets, [length])))

            order[t_start:t_start + length] = sorted_members
            pos[sorted_members] = arange_n[t_start:t_start + length]
            new_starts_arr = t_start + frag_offsets
            # The leading fragment keeps the cell's start, so its members'
            # cstart entries are already correct — write only the rest.
            first_size = int(sizes[0])
            cstart[sorted_members[first_size:]] = np.repeat(
                new_starts_arr[1:], sizes[1:])

            new_starts = new_starts_arr.tolist()
            sizes_list = sizes.tolist()
            nonsingleton.discard(t_start)
            for s, size in zip(new_starts, sizes_list):
                cell_len[s] = size
                if size > 1:
                    nonsingleton.add(s)
            values = sorted_counts[frag_offsets].tolist()
            trace.append((t_start, tuple(zip(values, sizes_list))))
            requeue_fragments(t_start, new_starts, sizes_list)

        def split_cell_peel(t_start: int, length: int,
                            counted: list[int], counts) -> None:
            # A large cell hit by a small scatterer: only *counted* members
            # (a handful) carry a nonzero count, so the rest stay, in their
            # original order, as the leading zero-count fragment — one masked
            # gather instead of an argsort-and-rewrite of the whole cell.
            # *counts* maps slot -> count (dict or list); None means every
            # counted member has count 1 (a singleton scatterer).
            if len(counted) == 1:
                placed = [(pos_mv[counted[0]], counted[0])]
            else:
                placed = sorted((pos_mv[s], s) for s in counted)
            if counts is None:
                groups = {1: [s for _, s in placed]}
                values = [1]
            else:
                groups = {}
                for _, s in placed:
                    groups.setdefault(counts[s], []).append(s)
                values = sorted(groups)
            zero_len = length - len(counted)
            # Zero-count members keep their cell (cstart stays t_start) and
            # their relative order; everything before the first counted
            # position does not even move. Only the suffix window is
            # compacted: one masked gather + two vectorised writes sized by
            # the window, not the cell.
            first = placed[0][0]
            window = t_start + length - first
            mask = mask_buf[:window]
            hit = [p - first for p, _ in placed]
            mask[hit] = False
            zero_tail = order[first:t_start + length][mask]
            mask[hit] = True
            tail_len = window - len(counted)
            order[first:first + tail_len] = zero_tail
            pos[zero_tail] = arange_n[first:first + tail_len]
            nonsingleton.discard(t_start)
            cell_len[t_start] = zero_len
            if zero_len > 1:
                nonsingleton.add(t_start)
            new_starts = [t_start]
            sizes_list = [zero_len]
            offset = t_start + zero_len
            for value in values:
                group = groups[value]
                size = len(group)
                new_starts.append(offset)
                sizes_list.append(size)
                cell_len[offset] = size
                if size > 1:
                    nonsingleton.add(offset)
                gstart = offset
                for s in group:
                    order_mv[offset] = s
                    pos_mv[s] = offset
                    cstart_mv[s] = gstart
                    offset += 1
            trace.append((t_start, tuple(zip([0] + values, sizes_list))))
            requeue_fragments(t_start, new_starts, sizes_list)

        def split_cell_list(t_start: int, length: int,
                            members: list[int], member_counts: list[int]) -> None:
            # List split for small cells (either path): identical grouping to
            # the array split — ascending count, original order preserved
            # inside each fragment. The three state arrays are written back
            # in one vectorised assignment each.
            if length == 2:
                c0, c1 = member_counts
                if c0 == c1:
                    return
                mid = t_start + 1
                lo, hi = members
                if c1 < c0:
                    lo, hi = hi, lo
                    order_mv[t_start] = lo
                    order_mv[mid] = hi
                    pos_mv[lo] = t_start
                    pos_mv[hi] = mid
                    c0, c1 = c1, c0
                cstart_mv[hi] = mid
                cell_len[t_start] = 1
                cell_len[mid] = 1
                nonsingleton.discard(t_start)
                trace.append((t_start, ((c0, 1), (c1, 1))))
                # Both fragments are singletons: whether or not the parent is
                # still pending, the only fragment to (re)queue is mid —
                # t_start keeps its queued entry if it has one.
                if mid not in queued:
                    queued.add(mid)
                    worklist.append(mid)
                return
            groups: dict[int, list[int]] = {}
            for s, count in zip(members, member_counts):
                group = groups.get(count)
                if group is None:
                    groups[count] = [s]
                else:
                    group.append(s)
            if len(groups) == 1:
                return
            if len(groups) == 2:
                lo, hi = groups
                values = [lo, hi] if lo < hi else [hi, lo]
            else:
                values = sorted(groups)
            offset = t_start
            new_starts: list[int] = []
            sizes_list: list[int] = []
            nonsingleton.discard(t_start)
            if length <= 16:
                # Tiny cell: scalar writes beat three vectorised round-trips.
                # The first fragment keeps the cell's start, so its members'
                # cstart entries are already correct and are not rewritten.
                skip_cstart = True
                for value in values:
                    group = groups[value]
                    size = len(group)
                    new_starts.append(offset)
                    sizes_list.append(size)
                    cell_len[offset] = size
                    if size > 1:
                        nonsingleton.add(offset)
                    gstart = offset
                    if skip_cstart:
                        skip_cstart = False
                        for s in group:
                            order_mv[offset] = s
                            pos_mv[s] = offset
                            offset += 1
                    else:
                        for s in group:
                            order_mv[offset] = s
                            pos_mv[s] = offset
                            cstart_mv[s] = gstart
                            offset += 1
            else:
                new_order: list[int] = []
                new_cstart: list[int] = []
                for value in values:
                    group = groups[value]
                    size = len(group)
                    new_starts.append(offset)
                    sizes_list.append(size)
                    cell_len[offset] = size
                    if size > 1:
                        nonsingleton.add(offset)
                    new_order.extend(group)
                    new_cstart.extend([offset] * size)
                    offset += size
                order[t_start:t_start + length] = new_order
                pos[new_order] = arange_n[t_start:t_start + length]
                # First fragment's cstart entries already hold t_start.
                first_size = sizes_list[0]
                cstart[new_order[first_size:]] = new_cstart[first_size:]
            trace.append((t_start, tuple(zip(values, sizes_list))))
            requeue_fragments(t_start, new_starts, sizes_list)

        def split_cell_two(t_start: int, length: int,
                           zeros: list[int], ones: list[int]) -> None:
            # Two-fragment split for a singleton scatterer: *zeros* are the
            # cell members it does not neighbour (count 0), *ones* the ones
            # it does (count 1), both in original within-cell order.
            zero_len = len(zeros)
            one_len = length - zero_len
            mid = t_start + zero_len
            nonsingleton.discard(t_start)
            if length <= 16:
                # Zeros keep the cell's start: their cstart entries are
                # already t_start, so only order/pos need rewriting.
                offset = t_start
                for s in zeros:
                    order_mv[offset] = s
                    pos_mv[s] = offset
                    offset += 1
                for s in ones:
                    order_mv[offset] = s
                    pos_mv[s] = offset
                    cstart_mv[s] = mid
                    offset += 1
            else:
                new_order = zeros + ones
                order[t_start:t_start + length] = new_order
                pos[new_order] = arange_n[t_start:t_start + length]
                cstart[ones] = mid
            cell_len[t_start] = zero_len
            cell_len[mid] = one_len
            if zero_len > 1:
                nonsingleton.add(t_start)
            if one_len > 1:
                nonsingleton.add(mid)
            trace.append((t_start, ((0, zero_len), (1, one_len))))
            if t_start in queued:
                requeue = (t_start, mid)
            elif zero_len >= one_len:
                requeue = (mid,)
            else:
                requeue = (t_start,)
            for s in requeue:
                if s not in queued:
                    queued.add(s)
                    worklist.append(s)

        while worklist:
            if not nonsingleton:
                # Discrete partition: no cell can split, so the remaining
                # queued scatterers can't contribute — the trace is already
                # final. (The dict reference drains them; every one is a
                # no-op, so cells and trace stay bit-identical.)
                break
            w_start = worklist.popleft()
            queued.discard(w_start)
            w_len = cell_len.get(w_start)
            if w_len is None:
                # The cell was renamed by an earlier split of a preceding
                # fragment; its vertices were re-queued under new names.
                continue
            if w_len == 1:
                s0 = order_mv[w_start]
                row = adj_rows[s0]
                volume = len(row)
            else:
                slots = order_mv[w_start:w_start + w_len].tolist()
                volume = 0
                for s in slots:
                    volume += len(adj_rows[s])
            if volume == 0:
                continue

            if volume > _SMALL_GATHER:
                # ---- array path: bulk gather + unique ----
                if w_len == 1:
                    nbrs = adj_indices[adj_indptr[s0]:adj_indptr[s0 + 1]]
                else:
                    nbrs = _gather_rows(
                        adj_indptr, adj_indices, order[w_start:w_start + w_len])
                if volume >= n >> 2:
                    # Huge gather: a bincount (O(volume + n)) beats the sort
                    # inside np.unique (O(volume log volume)).
                    full = np.bincount(nbrs, minlength=n)
                    uniq = np.flatnonzero(full)
                    counts_buf[uniq] = full[uniq]
                else:
                    uniq, cnt = np.unique(nbrs, return_counts=True)
                    counts_buf[uniq] = cnt
                for t_start in np.unique(cstart[uniq]).tolist():
                    length = cell_len[t_start]
                    if length == 1:
                        continue
                    if length > _SMALL_CELL:
                        split_cell_array(t_start, length)
                    else:
                        members = order_mv[t_start:t_start + length].tolist()
                        split_cell_list(t_start, length, members,
                                        [counts_mv[s] for s in members])
                counts_buf[uniq] = 0
                continue

            if w_len == 1:
                # ---- singleton scatterer: every neighbour is counted
                # exactly once (simple graph), so a touched cell splits into
                # at most two fragments — non-neighbours, then neighbours.
                # Neighbours sitting in singleton cells (the vast majority
                # once the partition is nearly discrete) are dropped with a
                # single set test: a singleton can never split.
                touched: dict[int, list[int]] = {}
                tget = touched.get
                ns = nonsingleton
                for nb in row:
                    t = cstart_mv[nb]
                    if t not in ns:
                        continue
                    counted = tget(t)
                    if counted is None:
                        touched[t] = [nb]
                    else:
                        counted.append(nb)
                if not touched:
                    continue
                items = sorted(touched.items()) if len(touched) > 1 \
                    else touched.items()
                for t_start, counted in items:
                    length = cell_len[t_start]
                    if len(counted) == length:
                        continue        # all members count 1: no split
                    if length == 2:
                        # Pair cell, one neighbour: split [a b] -> [zero][one]
                        # fully inline — by far the most common split.
                        one = counted[0]
                        mid = t_start + 1
                        a = order_mv[t_start]
                        if a == one:
                            b = order_mv[mid]
                            order_mv[t_start] = b
                            order_mv[mid] = one
                            pos_mv[b] = t_start
                            pos_mv[one] = mid
                        cstart_mv[one] = mid
                        cell_len[t_start] = 1
                        cell_len[mid] = 1
                        nonsingleton.discard(t_start)
                        trace.append((t_start, ((0, 1), (1, 1))))
                        # Both fragments are singletons: mid is the only
                        # fragment to (re)queue (t_start keeps its queued
                        # entry if it has one).
                        if mid not in queued:
                            queued.add(mid)
                            worklist.append(mid)
                        continue
                    if length > _SMALL_CELL:
                        split_cell_peel(t_start, length, counted, None)
                        continue
                    members = order_mv[t_start:t_start + length].tolist()
                    if len(counted) == 1:
                        one = counted[0]
                        zeros = [s for s in members if s != one]
                        ones = [one]
                    else:
                        in_cell = set(counted)
                        zeros = [s for s in members if s not in in_cell]
                        ones = [s for s in members if s in in_cell]
                    split_cell_two(t_start, length, zeros, ones)
                continue

            # ---- Python path: list-buffer counting over the list mirror ----
            seen: list[int] = []
            for s in slots:
                for nb in adj_rows[s]:
                    c = counts_list[nb]
                    if not c:
                        seen.append(nb)
                    counts_list[nb] = c + 1
            touched = {}
            tget = touched.get
            ns = nonsingleton
            for nb in seen:
                t = cstart_mv[nb]
                if t not in ns:
                    continue
                counted = tget(t)
                if counted is None:
                    touched[t] = [nb]
                else:
                    counted.append(nb)
            items = sorted(touched.items()) if len(touched) > 1 \
                else touched.items()
            for t_start, counted in items:
                length = cell_len[t_start]
                if length > _SMALL_CELL and len(counted) < length:
                    split_cell_peel(t_start, length, counted, counts_list)
                    continue
                # Small cell (or one no bigger than the scatter volume):
                # pull its counts from the buffer and split with list code.
                members = order_mv[t_start:t_start + length].tolist()
                split_cell_list(t_start, length, members,
                                [counts_list[s] for s in members])
            for nb in seen:
                counts_list[nb] = 0
        return tuple(trace)


# Hashed rounds stable_partition runs before it hands the rest to the
# worklist. A path or a long cycle needs O(n) rounds and the worklist does
# not; bench_scale's BA graphs need 3 rounds and its WS graphs 7 to 10, from
# 1e4 to 1e6 vertices.
_ROUND_BUDGET = 32

_U64 = np.uint64


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """splitmix64's output mix, elementwise over a uint64 array (wrapping)."""
    x = x + _U64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> _U64(27))) * _U64(0x94D049BB133111EB)
    return x ^ (x >> _U64(31))


def _active_rows(indptr: np.ndarray, indices: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Concatenated CSR rows of the ascending row ids *active*."""
    if len(active) == len(indptr) - 1:
        return indices
    return _gather_rows(indptr, indices, active)


def _hashed_rounds(indptr: np.ndarray, indices: np.ndarray, colour: np.ndarray,
                   sizes: np.ndarray, budget: int) -> tuple[np.ndarray, np.ndarray]:
    """Up to *budget* hashed colour-refinement rounds; returns (colour, sizes).

    A round gives every vertex of a non-singleton class the pair (its
    colour, the wrapping uint64 sum of its neighbours' colour weights),
    where a weight is a fixed odd splitmix64 mix of (round, colour). Equal
    pairs keep one colour: the first fragment of a class keeps its id and
    the others mint fresh ones. Equal neighbour multisets give equal sums,
    so a collision can only merge colours, never split a class refinement
    would keep. Stops early when a round splits nothing.
    """
    for rnd in range(budget):
        active = np.flatnonzero(sizes[colour] > 1)
        if not len(active):
            break
        lens = indptr[active + 1] - indptr[active]
        salt = _splitmix64(np.full(1, rnd, dtype=_U64))[0]
        weights = _splitmix64(
            colour[_active_rows(indptr, indices, active)].astype(_U64) ^ salt)
        weights |= _U64(1)
        # Row sums as differences of one running sum. The prefix must stay
        # uint64: concatenating a Python 0 would promote it to float64.
        running = np.zeros(len(weights) + 1, dtype=_U64)
        np.cumsum(weights, out=running[1:])
        bounds = np.zeros(len(active) + 1, dtype=np.int64)
        np.cumsum(lens, out=bounds[1:])
        sums = running[bounds[1:]] - running[bounds[:-1]]

        old = colour[active]
        order = np.lexsort((sums, old))
        old, sums = old[order], sums[order]
        same_class = old[1:] == old[:-1]
        starts = np.ones(len(active), dtype=bool)
        starts[1:] = ~same_class | (sums[1:] != sums[:-1])
        mint = np.zeros(len(active), dtype=bool)
        mint[1:] = starts[1:] & same_class
        n_new = int(np.count_nonzero(mint))
        if not n_new:
            break
        minted = mint[starts]
        fragment_ids = np.where(
            minted, len(sizes) - 1 + np.cumsum(minted), old[starts])
        colour[active[order]] = fragment_ids[np.cumsum(starts) - 1]
        sizes = np.bincount(colour, minlength=len(sizes) + n_new)
    return colour, sizes


def _unstable_scatterers(indptr: np.ndarray, indices: np.ndarray,
                         colour: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Colours some class's members neighbour unequally often (sorted).

    Exact: empty iff the colour partition is equitable. Only members of
    non-singleton classes are counted. Per (member, neighbour colour) the
    neighbour count is taken; a class is uniform towards a colour iff every
    (class, colour, count) triple that occurs is shared by the whole class,
    members with no such neighbour included.
    """
    n_colours = len(sizes)
    active = np.flatnonzero(sizes[colour] > 1)
    lens = indptr[active + 1] - indptr[active]
    key = np.repeat(active.astype(np.int64) * n_colours, lens) \
        + colour[_active_rows(indptr, indices, active)]
    key, count = np.unique(key, return_counts=True)
    member, scatterer = np.divmod(key, n_colours)
    cell = colour[member]
    order = np.lexsort((count, scatterer, cell))
    cell, scatterer, count = cell[order], scatterer[order], count[order]
    starts = np.ones(len(cell), dtype=bool)
    starts[1:] = (cell[1:] != cell[:-1]) | (scatterer[1:] != scatterer[:-1]) \
        | (count[1:] != count[:-1])
    first = np.flatnonzero(starts)
    shared_by = np.diff(np.append(first, len(cell)))
    return np.unique(scatterer[first[shared_by != sizes[cell[first]]]])


def _sortable(vertices: Sequence[Vertex]) -> bool:
    try:
        sorted(vertices)
    except TypeError:
        return False
    return True


def stable_partition(graph: Graph, initial: Partition | None = None) -> Partition:
    """The coarsest equitable partition refining *initial* (default: unit).

    Starting from the unit partition this is the classic colour-refinement
    fixpoint — the "total degree partition" ``TDV(G)`` the paper suggests as
    a scalable stand-in for the automorphism partition on very large
    networks. Every orbit of Aut(G) is contained in one of its cells.

    Hashed rounds (:func:`_hashed_rounds`) compute a partition H that
    refines *initial* and is never finer than the answer; an exact check
    then proves H equitable, which makes H the answer. Otherwise H goes to
    the worklist ``refine`` seeded with just the scatterers the check found
    unstable: H is stable against every other class, so Hopcroft's
    skip-the-largest rule still holds. The result never depends on the
    hash. Vertex sets that do not sort keep the plain worklist run, whose
    cell order ``Partition`` then preserves.
    """
    vertices = graph.vertices()
    if initial is not None and not initial.covers(vertices):
        raise PartitionError("initial partition must cover exactly the graph's vertices")
    if not _sortable(vertices):
        if initial is None:
            op = OrderedPartition.unit(vertices)
        else:
            op = OrderedPartition.from_partition(initial)
        op.refine(graph)
        return op.to_partition()
    csr = graph.csr()
    n = csr.n
    if initial is None:
        colour = np.zeros(n, dtype=np.int64)
    else:
        coloring = initial.as_coloring()
        colour = np.fromiter(map(coloring.__getitem__, csr.vertices),
                             dtype=np.int64, count=n)
    sizes = np.bincount(colour, minlength=1 if n else 0)
    colour, sizes = _hashed_rounds(
        csr.indptr, csr.indices, colour, sizes, _ROUND_BUDGET)
    if len(sizes) == n:
        return Partition.singletons(csr.vertices)
    op, starts = OrderedPartition._from_colours(graph, colour, sizes)
    scatterers = _unstable_scatterers(csr.indptr, csr.indices, colour, sizes)
    if len(scatterers):
        op.refine(graph, active=starts[scatterers].tolist())
    return op.to_partition()


def is_equitable(graph: Graph, partition: Partition) -> bool:
    """Check the equitability invariant directly (test oracle, O(m * cells))."""
    index = partition.as_coloring()
    for cell in partition.cells:
        profiles = set()
        for v in cell:
            profile: dict[int, int] = {}
            for nb in graph.neighbors(v):
                ci = index[nb]
                profile[ci] = profile.get(ci, 0) + 1
            profiles.add(tuple(sorted(profile.items())))
            if len(profiles) > 1:
                return False
    return True

"""Sequential-release anonymization: growing a published graph safely.

Real networks evolve. Re-anonymizing each snapshot independently is unsafe:
an adversary who holds two k-symmetric releases can intersect a target's
candidate sets across them, and because independent runs recompute orbits
from scratch, cells shatter between releases and the intersection drops
below k — the cross-release threat of Mauw, Ramírez-Cruz & Trujillo-Rasua
(arXiv:2007.05312). :mod:`repro.attacks.sequential` implements exactly that
adversary; :func:`republish_naive` reproduces the broken publisher it
defeats.

:func:`republish` is the safe path. It accepts an insertions-only delta in
the paper's Section 6 growth model — new vertices, plus new edges that each
touch at least one new vertex (the *frontier*) — and maintains **monotone
cells**: every cell of the previous tracked partition passes verbatim into
the new one, so a persistent target's release-1 candidate set contains its
release-0 cell and the composed intersection never drops below k. Two
ingredients make that sound:

* **cell-closure augmentation** — a frontier vertex that attaches to any
  member of a previous cell is attached to *all* of them. Old cells then
  stay indistinguishable from the frontier's point of view: any
  cell-preserving automorphism of the previous release extends to the grown
  graph by fixing the frontier, so old cells still sit inside true orbits,
  and refinement cannot split them.
* **frontier repair** — only the frontier needs fresh orbit work, done
  incrementally (:mod:`repro.isomorphism.incremental`): a seeded refinement
  for the stabilization method, a contracted colored search for the exact
  method. ``engine="full"`` recomputes the same partition globally; the two
  engines are bit-identical (the audit's sequence certificates verify this),
  so the full engine serves as the incremental engine's oracle and as the
  baseline in ``benchmarks/bench_incremental.py``.

Frontier cells below k are then grown by the ordinary copy machinery of
Algorithm 1 on the augmented base graph, and the release ships as the usual
``(G', V', original_n)`` triple with ``original_n`` advanced by the delta's
new vertices.
"""

from __future__ import annotations

import io
import os
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.core.anonymize import AnonymizationResult, _grow, anonymize
from repro.core.orbit_copy import CopyRecord
from repro.graphs.graph import Graph
from repro.graphs.partition import Partition
from repro.isomorphism.incremental import (
    frontier_orbits,
    incremental_stable_partition,
)
from repro.isomorphism.orbits import automorphism_partition
from repro.isomorphism.refinement import stable_partition
from repro.utils.validation import AnonymizationError, check_positive_int

_ENGINES = ("incremental", "full")
_METHODS = ("exact", "stabilization")

PathLike = str | os.PathLike


@dataclass(frozen=True)
class GraphDelta:
    """An insertions-only growth step: new vertices plus new edges.

    Normalized on construction: vertices sorted, edges as sorted
    ``(min, max)`` pairs, duplicates rejected. Validation against a concrete
    base graph (fresh vertex ids, endpoint existence, the every-edge-touches-
    a-new-vertex rule of the safe path) happens in :func:`validate_delta`.
    """

    add_vertices: tuple[int, ...]
    add_edges: tuple[tuple[int, int], ...]

    def __init__(self, add_vertices: Iterable[int] = (),
                 add_edges: Iterable[tuple[int, int]] = ()) -> None:
        vertices = []
        for v in add_vertices:
            if isinstance(v, bool) or not isinstance(v, int):
                raise AnonymizationError(f"delta vertex {v!r} is not an integer")
            vertices.append(v)
        if len(set(vertices)) != len(vertices):
            raise AnonymizationError("delta lists a new vertex twice")
        edges = []
        for u, v in add_edges:
            for end in (u, v):
                if isinstance(end, bool) or not isinstance(end, int):
                    raise AnonymizationError(f"delta endpoint {end!r} is not an integer")
            if u == v:
                raise AnonymizationError(f"delta edge ({u}, {v}) is a self-loop")
            edges.append((u, v) if u < v else (v, u))
        if len(set(edges)) != len(edges):
            raise AnonymizationError("delta lists an edge twice")
        object.__setattr__(self, "add_vertices", tuple(sorted(vertices)))
        object.__setattr__(self, "add_edges", tuple(sorted(edges)))

    @property
    def n_vertices(self) -> int:
        return len(self.add_vertices)

    @property
    def n_edges(self) -> int:
        return len(self.add_edges)

    def describe(self) -> str:
        return f"delta(+{self.n_vertices} vertices, +{self.n_edges} edges)"


def validate_delta(delta: GraphDelta, graph: Graph,
                   allow_old_edges: bool = False) -> None:
    """Check *delta* applies to *graph*; raises :class:`AnonymizationError`.

    New vertices must be fresh; edge endpoints must exist in the grown
    vertex set. Unless *allow_old_edges* (the naive baseline), every edge
    must touch at least one new vertex — the growth model under which
    monotone cells are achievable. An old-old insertion can break previous
    symmetry irreparably, so the safe path rejects it up front.
    """
    fresh = set(delta.add_vertices)
    for v in delta.add_vertices:
        if v in graph:
            raise AnonymizationError(
                f"delta vertex {v} already exists in the published graph")
    for u, v in delta.add_edges:
        for end in (u, v):
            if end not in fresh and end not in graph:
                raise AnonymizationError(
                    f"delta edge ({u}, {v}) references unknown vertex {end}")
        if u not in fresh and v not in fresh:
            if not allow_old_edges:
                raise AnonymizationError(
                    f"delta edge ({u}, {v}) connects two published vertices; "
                    "the safe republish path accepts only edges touching a "
                    "new vertex (use republish_naive to see why this matters)")
            if graph.has_edge(u, v):
                raise AnonymizationError(f"delta edge ({u}, {v}) already exists")


# ---------------------------------------------------------------------------
# delta text format: "add-vertex <id>" / "add-edge <u> <v>", '#' comments
# ---------------------------------------------------------------------------

def write_delta(delta: GraphDelta, dest: PathLike | io.TextIOBase) -> None:
    """Write *delta* in the line format :func:`read_delta` parses."""
    if isinstance(dest, io.TextIOBase):
        _write_delta_lines(delta, dest)
        return
    with open(os.fspath(dest), "w", encoding="utf-8") as handle:
        _write_delta_lines(delta, handle)


def _write_delta_lines(delta: GraphDelta, handle: io.TextIOBase) -> None:
    for v in delta.add_vertices:
        handle.write(f"add-vertex {v}\n")
    for u, v in delta.add_edges:
        handle.write(f"add-edge {u} {v}\n")


def read_delta(source: PathLike | io.TextIOBase) -> GraphDelta:
    """Parse a delta file: ``add-vertex <id>`` / ``add-edge <u> <v>`` lines."""
    if isinstance(source, io.TextIOBase):
        return _parse_delta_lines(source, "<stream>")
    path = os.fspath(source)
    with open(path, encoding="utf-8") as handle:
        return _parse_delta_lines(handle, repr(path))


def _parse_delta_lines(lines: Iterable[str], where: str) -> GraphDelta:
    vertices: list[int] = []
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            if tokens[0] == "add-vertex" and len(tokens) == 2:
                vertices.append(int(tokens[1]))
                continue
            if tokens[0] == "add-edge" and len(tokens) == 3:
                edges.append((int(tokens[1]), int(tokens[2])))
                continue
        except ValueError as exc:
            raise AnonymizationError(
                f"{where} line {lineno}: non-integer vertex id in {line!r}") from exc
        raise AnonymizationError(
            f"{where} line {lineno}: expected 'add-vertex <id>' or "
            f"'add-edge <u> <v>', got {line!r}")
    return GraphDelta(vertices, edges)


# ---------------------------------------------------------------------------
# the safe path
# ---------------------------------------------------------------------------

@dataclass
class RepublicationResult:
    """A sequential release: the new published triple plus provenance.

    ``base_graph`` is the closure-augmented working graph H (previous
    release + delta + closure edges) that the copy machinery grew;
    ``closure_edges`` counts the edges the augmentation added beyond the
    delta's own.
    """

    graph: Graph
    partition: Partition
    previous_graph: Graph
    previous_partition: Partition
    base_graph: Graph
    delta: GraphDelta
    closure_edges: int
    original_n: int
    k: int
    engine: str
    method: str
    copy_unit: str
    records: list[CopyRecord] = field(default_factory=list)
    copy_of: dict[int, int] = field(default_factory=dict)

    @property
    def vertices_added(self) -> int:
        """Copy vertices the anonymizer inserted on top of the delta."""
        return self.graph.n - self.base_graph.n

    @property
    def edges_added(self) -> int:
        return self.graph.m - self.base_graph.m

    @property
    def total_cost(self) -> int:
        """Publisher-incurred insertions beyond the real delta."""
        return self.vertices_added + self.edges_added + self.closure_edges

    def published(self) -> tuple[Graph, Partition, int]:
        """The release triple: (G'_1, V'_1, cumulative original n)."""
        return self.graph, self.partition, self.original_n


def _closure_augment(previous_graph: Graph, previous_partition: Partition,
                     delta: GraphDelta) -> tuple[Graph, int]:
    """Previous release + delta, with anchors widened to whole cells."""
    base = previous_graph.copy()
    fresh = set(delta.add_vertices)
    for v in delta.add_vertices:
        base.add_vertex(v)
    edges_before = base.m
    for u, v in delta.add_edges:
        if u in fresh and v in fresh:
            base.add_edge(u, v)
            continue
        old, new = (v, u) if u in fresh else (u, v)
        for w in previous_partition.cell_of(old):
            base.add_edge(w, new)
    return base, base.m - edges_before - delta.n_edges


def _frontier_cells(
    base: Graph, previous_partition: Partition, frontier: list[int],
    method: str, engine: str,
) -> list[tuple[int, ...]]:
    """The new release's frontier cells, by either engine (identical output)."""
    if not frontier:
        return []
    if engine == "incremental":
        if method == "exact":
            return list(frontier_orbits(
                base, previous_partition, frontier, method="exact").cells)
        refined = incremental_stable_partition(base, previous_partition, frontier)
        return _extract_frontier_cells(refined, previous_partition, frontier)
    initial = Partition(
        [list(cell) for cell in previous_partition.cells] + [sorted(frontier)])
    if method == "exact":
        orbits = automorphism_partition(base, initial=initial).orbits
        return list(orbits.restrict(frontier).cells)
    refined = stable_partition(base, initial=initial)
    return _extract_frontier_cells(refined, previous_partition, frontier)


def _extract_frontier_cells(
    refined: Partition, previous_partition: Partition, frontier: list[int],
) -> list[tuple[int, ...]]:
    frontier_set = set(frontier)
    cells = [cell for cell in refined.cells if cell[0] in frontier_set]
    if len(refined) - len(cells) != len(previous_partition):
        raise AnonymizationError(
            "refinement split a previous cell: the previous partition is not "
            "stable under this delta (was the previous release equitable?)")
    return cells


def republish_published(
    previous_graph: Graph,
    previous_partition: Partition,
    previous_original_n: int,
    delta: GraphDelta,
    k: int,
    *,
    method: str = "exact",
    copy_unit: str = "orbit",
    engine: str = "incremental",
) -> RepublicationResult:
    """Grow a published release by *delta* and re-anonymize with monotone cells.

    The previous cells pass verbatim into the new tracked partition (they
    already have >= their release's k members and remain inside true orbits
    of the grown graph thanks to closure augmentation); the frontier is
    partitioned by fresh orbit work and grown to *k* by the ordinary copy
    machinery. With ``k`` larger than the previous release's, old cells grow
    too — still monotone.

    *engine* selects the incremental frontier computation or the global
    recomputation of the same partition (``"full"``, the parity oracle); the
    published bytes are identical either way.
    """
    check_positive_int(k, "k")
    check_positive_int(previous_original_n, "previous_original_n")
    if method not in _METHODS:
        raise AnonymizationError(
            f"unknown method {method!r}; expected one of {_METHODS}")
    if engine not in _ENGINES:
        raise AnonymizationError(
            f"unknown engine {engine!r}; expected one of {_ENGINES}")
    if copy_unit not in ("orbit", "component"):
        raise AnonymizationError(f"unknown copy_unit {copy_unit!r}")
    if not previous_partition.covers(previous_graph.vertices()):
        raise AnonymizationError(
            "previous partition must cover exactly the previous published graph")
    validate_delta(delta, previous_graph)

    base, closure_edges = _closure_augment(previous_graph, previous_partition, delta)
    frontier = list(delta.add_vertices)
    new_cells = _frontier_cells(base, previous_partition, frontier, method, engine)
    partition1 = Partition(
        [list(cell) for cell in previous_partition.cells]
        + [list(cell) for cell in new_cells])

    graph, partition, records, copy_of = _grow(
        base, partition1.cells, {i: k for i in range(len(partition1))}, copy_unit)

    return RepublicationResult(
        graph=graph,
        partition=partition,
        previous_graph=previous_graph,
        previous_partition=previous_partition,
        base_graph=base,
        delta=delta,
        closure_edges=closure_edges,
        original_n=previous_original_n + delta.n_vertices,
        k=k,
        engine=engine,
        method=method,
        copy_unit=copy_unit,
        records=records,
        copy_of=copy_of,
    )


def republish(
    previous: AnonymizationResult | RepublicationResult,
    delta: GraphDelta,
    k: int | None = None,
    *,
    method: str | None = None,
    copy_unit: str | None = None,
    engine: str = "incremental",
) -> RepublicationResult:
    """Sequential release on top of a previous anonymization result.

    Parameters default to the previous release's (``k``, ``copy_unit``);
    *method* defaults to ``"exact"`` for an :class:`AnonymizationResult`
    (which does not record it) and to the previous release's method for a
    chained :class:`RepublicationResult`.
    """
    if method is None:
        method = previous.method if isinstance(previous, RepublicationResult) else "exact"
    graph, partition, original_n = previous.published()
    return republish_published(
        graph, partition, original_n, delta,
        k=previous.k if k is None else k,
        method=method,
        copy_unit=previous.copy_unit if copy_unit is None else copy_unit,
        engine=engine,
    )


def republish_naive(
    previous_graph: Graph,
    delta: GraphDelta,
    k: int,
    *,
    method: str = "exact",
    copy_unit: str = "orbit",
) -> AnonymizationResult:
    """The broken baseline: apply the delta, re-anonymize from scratch.

    No cell continuity: orbits are recomputed on the grown graph, so a
    previous cell can shatter (a vertex that gains a neighbour typically
    drops into a fresh singleton orbit, is duplicated, and its release-1
    candidate set intersected with release 0's pins it down).
    :func:`repro.attacks.sequential.sequential_attack` demonstrates the
    resulting sub-k anonymity; the audit's sequence certificates use this
    function as the negative control. Old-old delta edges are allowed here —
    the naive publisher has no reason to refuse them.
    """
    validate_delta(delta, previous_graph, allow_old_edges=True)
    grown = previous_graph.copy()
    for v in delta.add_vertices:
        grown.add_vertex(v)
    for u, v in delta.add_edges:
        grown.add_edge(u, v)
    return anonymize(grown, k, method=method, copy_unit=copy_unit)

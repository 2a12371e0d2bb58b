"""Canonical labeling and certificates for (vertex-colored) graphs.

Backbone detection (paper Algorithm 2) must group the connected components of
each cell's induced subgraph into `≅_L(V)` classes: components are equivalent
when there is an isomorphism between them that also preserves each vertex's
*exact* neighbour set outside the cell. We encode the outside-neighbour set
as a vertex color and reduce the problem to colored-graph isomorphism; a
canonical *certificate* then lets us bucket t components into classes with t
certificate computations instead of O(t²) pairwise tests.

The canonical search runs on the one individualization–refinement core of
:mod:`repro.isomorphism.search` (``_IRSearch``: leaf keys, generator store,
twin collapse, prefix-fixing orbit pruning) and adds only its selection
rule: at every tree node only the children with the lexicographically
smallest refinement trace are explored (an isomorphism-invariant choice),
and the certificate is the minimum edge relation over the explored leaves.
Automorphisms discovered between equal leaves prune equivalent branches.
Intended for the small graphs this library feeds it (cell components); the
test-suite cross-checks it against the direct backtracking matcher in
:mod:`repro.isomorphism.colored`.
"""

from __future__ import annotations

import hashlib
from collections.abc import Hashable

import numpy as np

from repro.graphs.graph import Graph
from repro.isomorphism.refinement import OrderedPartition
from repro.isomorphism.search import _IRSearch
from repro.utils.validation import ReproError

Vertex = Hashable
Certificate = tuple


def _ordered_color_cells(graph: Graph, coloring: dict[Vertex, Hashable] | None):
    """Initial cells ordered by color value; returns (cells, ordered colors)."""
    if coloring is None:
        vs = graph.sorted_vertices()
        return ([vs] if vs else []), (None,) * (1 if vs else 0)
    missing = [v for v in graph.vertices() if v not in coloring]
    if missing:
        raise ReproError(f"coloring misses vertices, e.g. {missing[0]!r}")
    by_color: dict[Hashable, list[Vertex]] = {}
    for v in graph.vertices():
        by_color.setdefault(coloring[v], []).append(v)
    try:
        ordered_colors = sorted(by_color)
    except TypeError as exc:
        raise ReproError("color values must be mutually comparable (sortable)") from exc
    cells = []
    for color in ordered_colors:
        members = by_color[color]
        try:
            members.sort()
        except TypeError:
            pass
        cells.append(members)
    return cells, tuple(ordered_colors)


class _CanonicalSearcher(_IRSearch):
    """One canonical-labeling search over a graph and its color classes."""

    def __init__(self, graph: Graph, coloring: dict[Vertex, Hashable] | None) -> None:
        cells, self.ordered_colors = _ordered_color_cells(graph, coloring)
        super().__init__(graph, OrderedPartition(cells))
        self.color_cell_sizes = tuple(len(c) for c in cells)
        self.best_keys: np.ndarray | None = None
        self.best_order: list[Vertex] | None = None

    def run(self) -> tuple[Certificate, dict[Vertex, int]]:
        # Twin collapse is sound here: all orderings of a twin cell produce
        # the *identical* leaf edge tuple (twins have equal neighbourhoods),
        # so fixing one order loses no certificate candidates. Cells refine
        # the color classes, so twins always share a color.
        self._start()
        self._search(self.root)
        assert self.best_order is not None and self.best_keys is not None
        labeling = {v: i for i, v in enumerate(self.best_order)}
        # Decode the winning packed keys back to the public tuple-of-pairs
        # form — certificate values (and their digests) are identical to the
        # pre-array implementation's.
        n = self.graph.n
        lo = (self.best_keys // n).tolist()
        hi = (self.best_keys % n).tolist()
        cert: Certificate = (
            self.graph.n,
            self.ordered_colors,
            self.color_cell_sizes,
            tuple(zip(lo, hi)),
        )
        return cert, labeling

    @staticmethod
    def _keys_less(a: np.ndarray, b: np.ndarray) -> bool:
        """Lexicographic a < b for equal-length sorted key arrays."""
        diff = a != b
        if not diff.any():
            return False
        i = int(np.argmax(diff))
        return bool(a[i] < b[i])

    def _search(self, op: OrderedPartition) -> None:
        if op.is_discrete():
            keys = self._leaf_keys(op)
            self._match_first_leaf(op, keys.tobytes())
            if self.best_keys is None or self._keys_less(keys, self.best_keys):
                self.best_keys = keys
                self.best_order = list(op.order)
            return
        target = op.smallest_nonsingleton()
        members = op.cell_members(target)
        children = []
        for v in members:
            child = op.copy()
            child.individualize(v)
            trace = child.refine(self.graph, active=[target])
            self._collapse_twins(child)
            children.append((trace, v, child))
        min_trace = min(child[0] for child in children)
        in_tried_orbit = self._orbit_pruner(members)
        tried: list[Vertex] = []
        for trace, v, child in children:
            if trace != min_trace or (tried and in_tried_orbit(v, tried)):
                continue
            tried.append(v)
            self.base_set.add(v)
            self._search(child)
            self.base_set.discard(v)


def canonical_labeling(
    graph: Graph, coloring: dict[Vertex, Hashable] | None = None
) -> dict[Vertex, int]:
    """A canonical vertex -> 0..n-1 labeling of a (colored) graph.

    Two colored graphs receive edge-identical relabelings iff they are
    isomorphic by a color-preserving isomorphism (colors compared by value).
    """
    if graph.n == 0:
        return {}
    _, labeling = _CanonicalSearcher(graph, coloring).run()
    return labeling


def certificate(graph: Graph, coloring: dict[Vertex, Hashable] | None = None) -> Certificate:
    """A hashable certificate: equal iff color-preserving isomorphic.

    The certificate embeds the ordered color values, so components whose
    vertices must attach to *identical* outside anchors (the `≅_L` relation)
    compare equal only when those anchors coincide.
    """
    if graph.n == 0:
        return (0, (), (), ())
    cert, _ = _CanonicalSearcher(graph, coloring).run()
    return cert


def certificate_with_labeling(
    graph: Graph, coloring: dict[Vertex, Hashable] | None = None
) -> tuple[Certificate, dict[Vertex, int]]:
    """Certificate plus the canonical labeling, from a single search.

    Callers that need both (the service layer keys caches on the certificate
    and relabels artifacts through the labeling) avoid running the
    individualization-refinement search twice.
    """
    if graph.n == 0:
        return (0, (), (), ()), {}
    return _CanonicalSearcher(graph, coloring).run()


def certificate_digest(
    graph: Graph, coloring: dict[Vertex, Hashable] | None = None
) -> str:
    """Hex SHA-256 of the canonical certificate: an isomorphism-invariant
    content key.

    Two (colored) graphs receive the same digest iff they are isomorphic by
    a color-preserving isomorphism, so the digest can content-address any
    artifact that depends only on the input's isomorphism class (backbones,
    automorphism partitions, anonymizations of the canonical form). The
    digest is stable across processes and runs: the certificate is pure
    structure (ints and ordered color values), serialised via ``repr`` of a
    nested tuple, which for these value types is process-independent.
    """
    cert = certificate(graph, coloring)
    return hashlib.sha256(repr(cert).encode("utf-8")).hexdigest()

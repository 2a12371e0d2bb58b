"""Undirected simple graph used by every algorithm in this library.

Design notes
------------
* Vertices are arbitrary hashable objects; the anonymization core relabels to
  contiguous integers when it needs to mint fresh vertices.
* Adjacency is a ``dict[vertex, set[vertex]]``: O(1) edge queries, cheap
  neighbourhood iteration, and deterministic vertex order (insertion order of
  the underlying dict) which the automorphism engine relies on for
  reproducible partitions.
* Read-heavy algorithms get a contiguous int-indexed snapshot through
  :meth:`Graph.csr` (see :mod:`repro.graphs.csr`); the view is cached on the
  instance and dropped by every structural mutation, so it can never go
  stale.
* Self-loops are rejected (the paper models simple social networks) and
  parallel edges are impossible by construction.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable, Iterable, Iterator
from typing import TYPE_CHECKING

from repro.utils.unionfind import UnionFind
from repro.utils.validation import GraphStructureError

if TYPE_CHECKING:
    from repro.graphs.csr import CSRView

Vertex = Hashable
Edge = tuple[Hashable, Hashable]


def _sorted_if_possible(items: list) -> list:
    """Sort when comparable; mixed-type sets fall back to a stable proxy key.

    The proxy ``(type name, repr, id-breaker)`` makes iteration order a
    function of the *values* rather than of insertion history, so downstream
    consumers (integer relabeling, deterministic output files) behave
    identically however a mixed-type graph was built. Objects whose reprs
    collide (e.g. default ``object`` instances) keep their relative input
    order via the enumerate tiebreak.
    """
    try:
        return sorted(items)
    except TypeError:
        return [
            item for _, _, _, item in sorted(
                (type(item).__name__, repr(item), position, item)
                for position, item in enumerate(items)
            )
        ]


class Graph:
    """A mutable, undirected, simple graph.

    >>> g = Graph.from_edges([(1, 2), (2, 3)])
    >>> g.n, g.m
    (3, 2)
    >>> sorted(g.neighbors(2))
    [1, 3]
    """

    __slots__ = ("_adj", "_m", "_csr")

    def __init__(self) -> None:
        self._adj: dict[Vertex, set[Vertex]] = {}
        self._m = 0
        self._csr = None

    def __getstate__(self) -> tuple:
        # The CSR cache is derived state: exclude it from pickles (workers
        # rebuild it on demand) and reset it on unpickle.
        return (self._adj, self._m)

    def __setstate__(self, state: tuple) -> None:
        self._adj, self._m = state
        self._csr = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(cls, edges: Iterable[Edge], vertices: Iterable[Vertex] = ()) -> "Graph":
        """Build a graph from an edge iterable plus optional isolated vertices."""
        g = cls()
        for v in vertices:
            g.add_vertex(v)
        for u, v in edges:
            g.add_edge(u, v)
        return g

    @classmethod
    def from_adjacency(cls, adjacency: dict[Vertex, Iterable[Vertex]]) -> "Graph":
        """Build a graph from an adjacency mapping (symmetry is enforced, not required).

        Each undirected pair is deduplicated through a normalized ``(id, id)``
        key, so bulk construction is linear in the number of directed entries.
        """
        g = cls()
        for v in adjacency:
            g.add_vertex(v)
        slot = {v: i for i, v in enumerate(g._adj)}
        seen: set[tuple[int, int]] = set()
        for u, neighbors in adjacency.items():
            su = slot[u]
            for v in neighbors:
                sv = slot.get(v)
                if sv is None:
                    g.add_edge(u, v)
                    sv = slot[v] = len(slot)
                    seen.add((su, sv) if su < sv else (sv, su))
                    continue
                key = (su, sv) if su < sv else (sv, su)
                if key not in seen:
                    seen.add(key)
                    g.add_edge(u, v)
        return g

    def copy(self) -> "Graph":
        """Return an independent deep copy of the structure.

        The CSR cache is not carried over; the copy rebuilds its own view on
        first use (the arrays would be shareable, but the copy is usually
        taken precisely to mutate).
        """
        g = Graph()
        g._adj = {v: set(nbrs) for v, nbrs in self._adj.items()}
        g._m = self._m
        return g

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def add_vertex(self, v: Vertex) -> None:
        """Add vertex *v*; a no-op if it already exists."""
        if v not in self._adj:
            self._adj[v] = set()
            self._csr = None

    def add_vertices(self, vertices: Iterable[Vertex]) -> None:
        for v in vertices:
            self.add_vertex(v)

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        """Add the undirected edge (u, v), creating endpoints as needed.

        Raises :class:`GraphStructureError` on self-loops; adding an existing
        edge is a silent no-op (simple graph semantics).
        """
        if u == v:
            raise GraphStructureError(f"self-loop rejected at vertex {u!r}")
        self.add_vertex(u)
        self.add_vertex(v)
        if v not in self._adj[u]:
            self._adj[u].add(v)
            self._adj[v].add(u)
            self._m += 1
            self._csr = None

    def add_edges(self, edges: Iterable[Edge]) -> None:
        for u, v in edges:
            self.add_edge(u, v)

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove the edge (u, v); raises if absent."""
        try:
            self._adj[u].remove(v)
            self._adj[v].remove(u)
        except KeyError as exc:
            raise GraphStructureError(f"edge ({u!r}, {v!r}) not in graph") from exc
        self._m -= 1
        self._csr = None

    def remove_vertex(self, v: Vertex) -> None:
        """Remove vertex *v* and all incident edges; raises if absent."""
        if v not in self._adj:
            raise GraphStructureError(f"vertex {v!r} not in graph")
        nbrs = self._adj.pop(v)
        for u in nbrs:
            self._adj[u].remove(v)
        self._m -= len(nbrs)
        self._csr = None

    def remove_vertices(self, vertices: Iterable[Vertex]) -> None:
        for v in list(vertices):
            self.remove_vertex(v)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of vertices."""
        return len(self._adj)

    @property
    def m(self) -> int:
        """Number of edges."""
        return self._m

    def __contains__(self, v: Vertex) -> bool:
        return v in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._adj)

    def vertices(self) -> list[Vertex]:
        """All vertices in insertion order."""
        return list(self._adj)

    def sorted_vertices(self) -> list[Vertex]:
        """All vertices, sorted when comparable (deterministic output helper)."""
        return _sorted_if_possible(list(self._adj))

    def edges(self) -> list[Edge]:
        """All edges, each reported once with deterministic endpoint order.

        An edge is reported from its earlier-inserted endpoint, as ``(u, v)``
        in the walk over vertices in insertion order and each neighbour set.
        """
        position = {v: i for i, v in enumerate(self._adj)}
        return [(u, v) for u, nbrs in self._adj.items()
                for v in nbrs if position[u] < position[v]]

    def sorted_edges(self) -> list[Edge]:
        """Edges with sorted endpoints, sorted overall (for stable comparisons)."""
        try:
            # the same pair sorted((u, v)) returns: it compares v < u once
            return sorted((v, u) if v < u else (u, v) for u, v in self.edges())
        except TypeError:
            return self.edges()

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        nbrs = self._adj.get(u)
        return nbrs is not None and v in nbrs

    def neighbors(self, v: Vertex) -> set[Vertex]:
        """The neighbour set of *v* (the live internal set — do not mutate)."""
        try:
            return self._adj[v]
        except KeyError as exc:
            raise GraphStructureError(f"vertex {v!r} not in graph") from exc

    def degree(self, v: Vertex) -> int:
        return len(self.neighbors(v))

    def degree_sequence(self) -> list[int]:
        """Degrees of all vertices in descending order."""
        return sorted((len(nbrs) for nbrs in self._adj.values()), reverse=True)

    def max_degree(self) -> int:
        return max((len(nbrs) for nbrs in self._adj.values()), default=0)

    def min_degree(self) -> int:
        return min((len(nbrs) for nbrs in self._adj.values()), default=0)

    def average_degree(self) -> float:
        return 2.0 * self._m / self.n if self.n else 0.0

    # ------------------------------------------------------------------
    # array view
    # ------------------------------------------------------------------

    def csr(self, rebuild: bool = False) -> "CSRView":
        """The cached :class:`repro.graphs.csr.CSRView` of this graph.

        Built lazily on first call and invalidated by every structural
        mutation; *rebuild* forces a fresh snapshot (dropping the view's
        cached kernels with it). The view is immutable — treat the arrays
        as read-only.
        """
        if rebuild or self._csr is None:
            from repro.graphs.csr import CSRView

            self._csr = CSRView(self._adj)
        return self._csr

    # ------------------------------------------------------------------
    # derived structure
    # ------------------------------------------------------------------

    def subgraph(self, vertices: Iterable[Vertex]) -> "Graph":
        """The subgraph induced by *vertices* (which must all exist)."""
        keep = set(vertices)
        missing = keep - self._adj.keys()
        if missing:
            raise GraphStructureError(f"subgraph on unknown vertices: {sorted(map(repr, missing))[:5]}")
        g = Graph()
        for v in self._adj:
            if v in keep:
                g._adj[v] = self._adj[v] & keep
        g._m = sum(len(nbrs) for nbrs in g._adj.values()) // 2
        return g

    def connected_components(self) -> list[list[Vertex]]:
        """Connected components as vertex lists, each in BFS discovery order.

        Components are ordered by their first-discovered vertex (insertion
        order), making the output deterministic.
        """
        seen: set[Vertex] = set()
        components: list[list[Vertex]] = []
        for start in self._adj:
            if start in seen:
                continue
            queue = deque([start])
            seen.add(start)
            component = [start]
            while queue:
                u = queue.popleft()
                for w in self._adj[u]:
                    if w not in seen:
                        seen.add(w)
                        component.append(w)
                        queue.append(w)
            components.append(component)
        return components

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        return len(self.component_of(next(iter(self._adj)))) == self.n

    def component_of(self, v: Vertex) -> set[Vertex]:
        """The vertex set of the connected component containing *v*."""
        seen = {v}
        queue = deque([v])
        while queue:
            u = queue.popleft()
            for w in self._adj[u]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return seen

    def largest_component_size(self) -> int:
        """Size of the largest connected component (0 for the empty graph).

        Uses union-find rather than repeated BFS so resilience sweeps that
        call this many times stay cheap.
        """
        if self.n == 0:
            return 0
        uf = UnionFind(self._adj)
        for u, v in self.edges():
            uf.union(u, v)
        return max(uf.set_size(v) for v in self._adj)

    def bfs_distances(self, source: Vertex, cutoff: int | None = None) -> dict[Vertex, int]:
        """Shortest-path (hop) distances from *source* to every reachable vertex.

        *cutoff*, when given, stops the search beyond that distance.
        """
        if source not in self._adj:
            raise GraphStructureError(f"vertex {source!r} not in graph")
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            du = dist[u]
            if cutoff is not None and du >= cutoff:
                continue
            for w in self._adj[u]:
                if w not in dist:
                    dist[w] = du + 1
                    queue.append(w)
        return dist

    def shortest_path_length(self, source: Vertex, target: Vertex) -> int | None:
        """Hop distance between two vertices, ``None`` when disconnected."""
        if target not in self._adj:
            raise GraphStructureError(f"vertex {target!r} not in graph")
        if source == target:
            return 0
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in self._adj[u]:
                if w not in dist:
                    if w == target:
                        return dist[u] + 1
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return None

    def triangles_at(self, v: Vertex) -> int:
        """Number of triangles through *v* (pairs of adjacent neighbours).

        Served from the CSR view's whole-graph triangle kernel: the first
        call after a mutation counts every vertex's triangles in one merge
        pass, and subsequent calls are O(1) lookups. Callers that want all
        vertices anyway (measures, clustering) pay the pass exactly once.
        """
        csr = self.csr()
        try:
            i = csr.index[v]
        except KeyError as exc:
            raise GraphStructureError(f"vertex {v!r} not in graph") from exc
        return int(csr.triangle_counts()[i])

    def relabeled(self, mapping: dict[Vertex, Vertex]) -> "Graph":
        """Return a copy with vertices renamed through *mapping* (a bijection).

        Every vertex must appear as a key, and values must be distinct.
        """
        if set(mapping) != set(self._adj):
            raise GraphStructureError("relabeling must cover exactly the vertex set")
        if len(set(mapping.values())) != len(mapping):
            raise GraphStructureError("relabeling must be injective")
        g = Graph()
        for v in self._adj:
            g.add_vertex(mapping[v])
        for u, v in self.edges():
            g.add_edge(mapping[u], mapping[v])
        return g

    def to_integer_labels(self) -> tuple["Graph", dict[Vertex, int]]:
        """Relabel vertices to 0..n-1 (sorted when comparable); returns (graph, mapping).

        The relabelled graph keeps this graph's insertion order: vertex ``v``
        becomes ``mapping[v]`` in place, so its vertices are ``0..n-1`` but
        not necessarily inserted in that order.
        """
        order = self.sorted_vertices()
        mapping = {v: i for i, v in enumerate(order)}
        return self.relabeled(mapping), mapping

    def is_subgraph_of(self, other: "Graph") -> bool:
        """Whether every vertex and edge of ``self`` is present in *other*."""
        for v in self._adj:
            if v not in other:
                return False
        return all(other.has_edge(u, v) for u, v in self.edges())

    def equals(self, other: "Graph") -> bool:
        """Exact equality of vertex and edge sets (not isomorphism)."""
        if self.n != other.n or self._m != other.m:
            return False
        if self._adj.keys() != other._adj.keys():
            return False
        return all(self._adj[v] == other._adj[v] for v in self._adj)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.equals(other)

    def __hash__(self) -> int:  # pragma: no cover - mutable container
        raise TypeError("Graph is mutable and unhashable")

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

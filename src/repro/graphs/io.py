"""Reading and writing graphs as edge lists and adjacency files.

Formats
-------
*Edge list*: one edge per line, two whitespace-separated vertex tokens.
Lines starting with ``#`` are comments (the SNAP convention, which the public
social-network corpora the paper draws from also use). An optional header
comment records isolated vertices.

*Adjacency*: one line per vertex: ``v: n1 n2 n3``. Round-trips isolated
vertices without a special case.

Vertex tokens are read back as ``int`` when they parse as such, else ``str``.
"""

from __future__ import annotations

import io
import os
from collections.abc import Iterable, Iterator

from repro.graphs.graph import Graph, Vertex
from repro.utils.validation import GraphStructureError

PathLike = str | os.PathLike


def _parse_token(token: str) -> int | str:
    try:
        return int(token)
    except ValueError:
        return token


def read_edge_list(path_or_file: PathLike | io.TextIOBase) -> Graph:
    """Read a graph from an edge-list file or open text handle."""
    if isinstance(path_or_file, io.TextIOBase):
        return _read_edge_lines(path_or_file)
    with open(path_or_file, encoding="utf-8") as handle:
        return _read_edge_lines(handle)


def _read_edge_lines(lines: Iterable[str]) -> Graph:
    g = Graph()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith("# isolated:"):
                for token in line[len("# isolated:"):].split():
                    g.add_vertex(_parse_token(token))
            continue
        parts = line.split()
        if len(parts) < 2:
            raise GraphStructureError(f"edge list line {lineno} has fewer than 2 tokens: {line!r}")
        u, v = _parse_token(parts[0]), _parse_token(parts[1])
        if u == v:
            raise GraphStructureError(f"edge list line {lineno} is a self-loop: {line!r}")
        g.add_edge(u, v)
    return g


def edge_list_lines(
    n: int, m: int, isolated: Iterable[Vertex], edges: Iterable[tuple[Vertex, Vertex]],
) -> Iterator[str]:
    """The one writer of the format: the size header, the ``# isolated:``
    line (when there are any, in the order given), one line per edge (in
    the order given; callers sort)."""
    yield f"# undirected simple graph: {n} vertices, {m} edges\n"
    tokens = [str(v) for v in isolated]
    if tokens:
        yield "# isolated: " + " ".join(tokens) + "\n"
    for u, v in edges:
        yield f"{u} {v}\n"


def write_edge_list(graph: Graph, path_or_file: PathLike | io.TextIOBase) -> None:
    """Write *graph* as an edge list (isolated vertices recorded in a header comment)."""
    isolated = [v for v in graph.vertices() if graph.degree(v) == 0]
    text = "".join(edge_list_lines(graph.n, graph.m, isolated, graph.sorted_edges()))
    if isinstance(path_or_file, io.TextIOBase):
        path_or_file.write(text)
        return
    with open(path_or_file, "w", encoding="utf-8") as handle:
        handle.write(text)


def read_adjacency(path_or_file: PathLike | io.TextIOBase) -> Graph:
    """Read a graph in ``v: n1 n2 ...`` adjacency format."""
    if isinstance(path_or_file, io.TextIOBase):
        return _read_adjacency_lines(path_or_file)
    with open(path_or_file, encoding="utf-8") as handle:
        return _read_adjacency_lines(handle)


def _read_adjacency_lines(lines: Iterable[str]) -> Graph:
    g = Graph()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, _, tail = line.partition(":")
        if not _:
            raise GraphStructureError(f"adjacency line {lineno} missing ':': {line!r}")
        v = _parse_token(head.strip())
        g.add_vertex(v)
        for token in tail.split():
            u = _parse_token(token)
            if u != v and not g.has_edge(u, v):
                g.add_edge(u, v)
    return g


def write_adjacency(graph: Graph, path_or_file: PathLike | io.TextIOBase) -> None:
    """Write *graph* in adjacency format, one line per vertex."""
    if isinstance(path_or_file, io.TextIOBase):
        _write_adjacency_lines(graph, path_or_file)
        return
    with open(path_or_file, "w", encoding="utf-8") as handle:
        _write_adjacency_lines(graph, handle)


def _write_adjacency_lines(graph: Graph, handle: io.TextIOBase) -> None:
    handle.write(f"# adjacency: {graph.n} vertices, {graph.m} edges\n")
    for v in graph.sorted_vertices():
        try:
            nbrs = sorted(graph.neighbors(v))
        except TypeError:
            nbrs = list(graph.neighbors(v))
        handle.write(f"{v}: " + " ".join(str(u) for u in nbrs) + "\n")

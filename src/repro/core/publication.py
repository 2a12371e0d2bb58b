"""The publication triple (G', V', n) as text: its one writer and one reader.

The paper's publisher hands analysts three artefacts, in this format:

* ``edges``     — the published graph as an edge list
  (:func:`repro.graphs.io.edge_list_lines`);
* ``partition`` — one line per cell, whitespace-separated vertices
  (:func:`cell_text`);
* ``meta``      — JSON: original_n plus publisher bookkeeping
  (:func:`meta_text`).

:func:`publication_texts` writes a triple as those three strings and
:func:`parse_publication` reads them back; :func:`save_publication`,
:func:`save_publication_triple` and :func:`load_publication` only move the
strings to and from ``<prefix>.edges`` / ``.partition`` / ``.meta``. The
array pipeline and ksymmetryd render through the same three helpers.

Round-trips are exact. Loading validates that the partition covers the
graph and that ``original_n`` is a possible JSON integer, so a corrupted
triple fails fast instead of producing silent nonsense in the samplers. The
partition parser tolerates CRLF line endings and trailing blank lines, and
rejects non-integer tokens and duplicate vertex ids — including a vertex
repeated across *different* cells — with a :class:`PublicationFormatError`
naming the offending line.
"""

from __future__ import annotations

import io
import json
import os
from collections.abc import Iterable, Sequence

from repro.core.anonymize import AnonymizationResult
from repro.graphs.graph import Graph, Vertex
from repro.graphs.io import read_edge_list, write_edge_list
from repro.graphs.partition import Partition
from repro.utils.validation import ReproError

PathLike = str | os.PathLike

#: file suffixes of the triple, in (edges, partition, meta) order
_SUFFIXES = (".edges", ".partition", ".meta")


class PublicationFormatError(ReproError, ValueError):
    """A malformed publication artefact, diagnosed down to the line.

    Subclasses both :class:`ReproError` (the package-wide contract) and
    :class:`ValueError` (what callers hand-validating text naturally catch).
    """


def cell_text(cells: Iterable[Sequence[Vertex]]) -> str:
    """The ``partition`` text: one line of space-separated members per cell."""
    return "".join(" ".join(map(str, cell)) + "\n" for cell in cells)


def meta_text(original_n: int, extra: dict | None = None) -> str:
    """The ``meta`` text: ``original_n`` first, then *extra*, as indented JSON."""
    meta = {"original_n": original_n}
    meta.update(extra or {})
    return json.dumps(meta, indent=2) + "\n"


def publication_texts(
    graph: Graph,
    partition: Partition,
    original_n: int,
    extra: dict | None = None,
) -> tuple[str, str, str]:
    """The (edges, partition, meta) texts of a (G', V', n) triple."""
    if not partition.covers(graph.vertices()):
        raise ReproError("partition does not cover the graph; refusing to publish")
    edges = io.StringIO()
    write_edge_list(graph, edges)
    return edges.getvalue(), cell_text(partition.cells), meta_text(original_n, extra)


def save_publication(result: AnonymizationResult, prefix: PathLike) -> None:
    """Write the publishable triple (plus cost metadata) under *prefix*."""
    save_publication_triple(
        result.graph, result.partition, result.original_n, prefix,
        extra={
            "k": result.k,
            "copy_unit": result.copy_unit,
            "vertices_added": result.vertices_added,
            "edges_added": result.edges_added,
        },
    )


def save_publication_triple(
    graph: Graph,
    partition: Partition,
    original_n: int,
    prefix: PathLike,
    extra: dict | None = None,
) -> None:
    """Write an arbitrary (G', V', n) triple to ``<prefix>.edges`` & co."""
    texts = publication_texts(graph, partition, original_n, extra)
    prefix = os.fspath(prefix)
    for suffix, text in zip(_SUFFIXES, texts):
        with open(prefix + suffix, "w", encoding="utf-8") as handle:
            handle.write(text)


def _parse_partition_lines(lines: Iterable[str]) -> Partition:
    cells: list[list[int]] = []
    seen: dict[int, int] = {}  # vertex -> line that first claimed it
    for lineno, line in enumerate(lines, start=1):
        # split() with no separator treats \r as whitespace, so CRLF files
        # and trailing blank lines parse identically to LF files
        tokens = line.split()
        if not tokens:
            continue
        cell: list[int] = []
        for token in tokens:
            try:
                vertex = int(token)
            except ValueError as exc:
                raise PublicationFormatError(
                    f".partition line {lineno}: non-integer vertex {token!r}"
                ) from exc
            claimed = seen.setdefault(vertex, lineno)
            if claimed != lineno or vertex in cell:
                raise PublicationFormatError(
                    f".partition line {lineno}: vertex {vertex} already appears "
                    f"in the cell on line {claimed} — cells must be disjoint"
                )
            cell.append(vertex)
        cells.append(cell)
    return Partition(cells)


def parse_publication(edges: str, partition: str, meta: str) -> tuple[Graph, Partition, int]:
    """Load the (edges, partition, meta) texts of a triple; validated."""
    graph = read_edge_list(io.StringIO(edges))
    cells = _parse_partition_lines(io.StringIO(partition))
    try:
        fields = json.loads(meta)
    except json.JSONDecodeError as exc:
        raise PublicationFormatError(f".meta is not JSON: {exc}") from exc
    if not cells.covers(graph.vertices()):
        raise ReproError(
            "publication is inconsistent: the partition does not cover the "
            "published graph"
        )
    original_n = fields.get("original_n") if isinstance(fields, dict) else None
    # bool is an int subclass; 3.9 and "3" are not JSON integers either
    if isinstance(original_n, bool) or not isinstance(original_n, int):
        raise ReproError(
            f"publication has no valid original_n (a JSON integer): {original_n!r}")
    if original_n < 1 or original_n > graph.n:
        raise ReproError(
            f"publication original_n={original_n} impossible for a "
            f"{graph.n}-vertex insertion-only publication"
        )
    return graph, cells, original_n


def load_publication(prefix: PathLike) -> tuple[Graph, Partition, int]:
    """Read ``<prefix>.edges`` & co and :func:`parse_publication` them."""
    prefix = os.fspath(prefix)
    texts = []
    for suffix in _SUFFIXES:
        with open(prefix + suffix, encoding="utf-8") as handle:
            texts.append(handle.read())
    return parse_publication(*texts)

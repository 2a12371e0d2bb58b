"""Publication text straight from CSR arrays — byte-identical to the dict path.

:func:`repro.core.publication.publication_texts` renders a published pair
through the dict graph (``sorted_edges`` re-sorts every edge tuple). At
million-node scale the array pipeline never materialises that dict view, so
this module hands the frozen arrays to the same format helpers
(:func:`repro.graphs.io.edge_list_lines`, ``cell_text``, ``meta_text``):

* the CSR's upper-triangle entries, read row-major, *are* the sorted edge
  list (rows ascending, columns ascending within each row), streamed into
  the text without a per-edge list;
* isolated vertices appear in ascending id order, which is exactly the
  insertion order of the compatibility view;
* partition cells arrive already in :class:`repro.graphs.Partition` order
  (sorted by smallest member — copies only ever append larger-than-original
  ids, so growth preserves the base partition's cell order).

``benchmarks/bench_scale.py`` and the ``differential:arraycore`` audit check
pin the output against :func:`publication_texts` byte-for-byte.
"""

from __future__ import annotations

import io
from collections.abc import Sequence

import numpy as np

from repro.core.publication import cell_text, meta_text
from repro.graphs.io import edge_list_lines

__all__ = ["publication_texts_from_arrays"]


def publication_texts_from_arrays(
    indptr: np.ndarray,
    indices: np.ndarray,
    cells: Sequence[Sequence[int]],
    original_n: int,
    extra: dict | None = None,
) -> tuple[str, str, str]:
    """Render (edges, partition, meta) texts for a frozen published graph.

    Matches :func:`repro.core.publication.publication_texts` of the
    compatibility view of the same graph: same header, same isolated list,
    same edge lines, same cell lines, same meta JSON.
    """
    n = len(indptr) - 1
    degrees = np.diff(indptr)
    isolated = np.flatnonzero(degrees == 0).tolist()
    rows = np.repeat(np.arange(n, dtype=indices.dtype), degrees)
    upper = rows < indices
    us = rows[upper].tolist()
    vs = indices[upper].tolist()
    edges = io.StringIO()
    edges.writelines(edge_list_lines(n, len(indices) // 2, isolated, zip(us, vs)))
    return edges.getvalue(), cell_text(cells), meta_text(original_n, extra)

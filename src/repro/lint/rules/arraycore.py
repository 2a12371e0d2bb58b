"""ARR001 — no dict-``Graph`` adjacency iteration inside the array core.

The modules under ``repro/arraycore/`` are the one production engine: every
pass is written against flat CSR arrays (``indptr``/``indices``), and the
dict :class:`repro.graphs.graph.Graph` appears there only as a whole at the
label boundary (``array_space`` reads its cached CSR; ``OverlayGraph.to_graph``
copies it and appends the insertions). A call like ``graph.neighbors(v)`` or
``for u, v in graph.sorted_edges()`` inside an array-core module is a
per-element dict traversal sneaking back into a path benchmarked at a
million vertices — the exact regression ``benchmarks/bench_scale.py``
exists to catch, caught here statically instead. The dict oracles that
drive that API on purpose live in ``repro.core.reference``, outside the
rule's scope; the array core needs no suppressions.
"""

from __future__ import annotations

import ast

from repro.lint.engine import FileContext, Rule, register

#: Graph methods that iterate or probe the dict-of-sets adjacency
_DICT_ADJACENCY_METHODS = frozenset({
    "adjacency",
    "degree",
    "edges",
    "neighbors",
    "sorted_edges",
    "sorted_neighbors",
    "sorted_vertices",
    "vertices",
})


@register
class ArrayCoreDictAdjacency(Rule):
    code = "ARR001"
    name = "array-core-dict-adjacency"
    rationale = (
        "the array core's contract is flat-array passes over CSR; a dict "
        "adjacency call there reintroduces per-element traversal on the "
        "path the scale benchmark certifies at 1e6 vertices"
    )

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        if not ctx.in_array_core():
            return
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr not in _DICT_ADJACENCY_METHODS:
            return
        ctx.report(self, node,
                   f"dict-Graph adjacency call .{func.attr}() inside the "
                   "array core; use the CSR arrays (indptr/indices), or "
                   "suppress on reference-oracle lines")

"""Pendant-tree decomposition: the accelerator for tree-heavy symmetry.

Social networks keep most of their automorphisms in *pendant trees* — the
forests hanging off the 2-core (leaves, chains, small subtrees). A
backtracking search handles a cell of c parallel isomorphic chains in
O(c^2) tree nodes; this module handles it in linear time instead:

1. Iteratively strip degree-1 vertices; what remains is the 2-core. Each
   stripped vertex remembers its parent, yielding rooted pendant trees
   anchored at core vertices. Tree components (no 2-core) contribute their
   center — or, for bicentral trees, both centers — to the core so the
   search can still swap whole components.
2. Canonize every pendant subtree with AHU codes (hash-consed, colors of an
   optional initial partition folded in), and color each core vertex by its
   own color plus the multiset of its pendant-tree codes.
3. Automorphisms fixing the core pointwise are exactly the products of
   equal-code sibling-subtree swaps; emit those swaps as generators
   directly.
4. Automorphisms moving the core are the color-preserving automorphisms of
   the (much smaller) core graph; the caller searches that core and extends
   each core generator over the pendant forests by aligning equal-code
   trees in canonical order.

Together the swap generators and the extended core generators generate
Aut(G) (respecting the initial partition): any automorphism maps the 2-core
onto itself and preserves pendant codes, so it factors as (extended core
automorphism) ∘ (core-fixing pendant permutation).
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass, field

from repro.graphs.graph import Graph
from repro.graphs.permutation import Permutation

Vertex = Hashable


@dataclass
class PendantDecomposition:
    """The stripped core plus rooted pendant forests and their AHU codes."""

    graph: Graph
    core_vertices: set[Vertex]
    #: pendant vertex -> its parent (one step toward the core)
    parent: dict[Vertex, Vertex]
    #: vertex -> its pendant children, in canonical (code, tiebreak) order
    children: dict[Vertex, list[Vertex]] = field(default_factory=dict)
    #: vertex -> hash-consed AHU code id (pendant subtree rooted there;
    #: for core vertices: their pendant profile combined with their color)
    code: dict[Vertex, int] = field(default_factory=dict)

    @property
    def n_pendants(self) -> int:
        return len(self.parent)

    def core_coloring(self) -> dict[Vertex, int]:
        """Color for each core vertex: its own color + pendant profile."""
        return {v: self.code[v] for v in self.core_vertices}


def decompose_pendant_forest(
    graph: Graph, coloring: dict[Vertex, int] | None = None
) -> PendantDecomposition:
    """Strip pendant trees and canonize them (linear in n + m).

    *coloring* assigns each vertex an integer color that the codes respect
    (pass a partition's ``as_coloring()`` to compute color-preserving
    automorphisms). The code table is hash-consed per call: equal ids <=>
    isomorphic colored rooted subtrees.
    """
    color_of = coloring if coloring is not None else {}

    # --- strip to the 2-core (or tree centers), remembering parents ------
    # Peeling is *level-synchronous*: each round removes the vertices whose
    # unremoved-degree is <= 1 together. That keeps the surviving set
    # automorphism-invariant: components with a 2-core converge to exactly
    # it, tree components converge to their center — a single vertex, or a
    # mutually-adjacent center pair (bicentral trees), both kept as core so
    # the core search can swap them.
    degree = {v: graph.degree(v) for v in graph.vertices()}
    parent: dict[Vertex, Vertex] = {}
    removed: set[Vertex] = set()
    finalized: set[Vertex] = set()
    current = [v for v in graph.vertices() if degree[v] <= 1]
    while current:
        layer = set(current)
        next_layer: list[Vertex] = []
        for v in current:
            if v in removed or v in finalized:
                continue
            anchor = None
            for u in graph.neighbors(v):
                if u not in removed:
                    anchor = u
                    break
            if anchor is None:
                finalized.add(v)  # single tree center or isolated vertex
            elif anchor in layer and anchor not in removed and degree[anchor] <= 1:
                finalized.add(v)  # bicentral pair: keep both
                finalized.add(anchor)
            else:
                removed.add(v)
                parent[v] = anchor
                degree[anchor] -= 1
                if degree[anchor] <= 1 and anchor not in finalized:
                    next_layer.append(anchor)
        current = next_layer

    core = set(graph.vertices()) - removed
    decomp = PendantDecomposition(graph=graph, core_vertices=core, parent=parent)

    # --- children lists and AHU codes, bottom-up -------------------------
    children: dict[Vertex, list[Vertex]] = {v: [] for v in graph.vertices()}
    for child, par in parent.items():
        children[par].append(child)

    interned: dict[tuple, int] = {}

    def intern(key: tuple) -> int:
        if key not in interned:
            interned[key] = len(interned)
        return interned[key]

    code: dict[Vertex, int] = {}
    # Process pendant vertices in reverse peel order? Children were always
    # peeled before parents, so iterate pendants in peel order is bottom-up
    # ... peel order removed leaves first: a vertex is peeled only after all
    # its pendant children; so peel order IS bottom-up for code computation.
    for v in parent:  # insertion order == peel order
        child_codes = sorted(code[c] for c in children[v])
        code[v] = intern((color_of.get(v, 0), tuple(child_codes)))
    for v in core:
        child_codes = sorted(code[c] for c in children[v])
        code[v] = intern((color_of.get(v, 0), tuple(child_codes)))

    # Canonical child order: by (code, vertex id as repr) — deterministic.
    for v, kids in children.items():
        kids.sort(key=lambda c: (code[c], repr(c)))
    decomp.children = children
    decomp.code = code
    return decomp


def _map_subtree(decomp: PendantDecomposition, a: Vertex, b: Vertex,
                 mapping: dict[Vertex, Vertex]) -> None:
    """Extend *mapping* with the canonical isomorphism subtree(a) -> subtree(b).

    Requires code[a] == code[b]; pairs children in canonical order (equal
    code multisets align position by position). Iterative: pendant chains
    can be thousands of vertices deep.
    """
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        mapping[x] = y
        stack.extend(zip(decomp.children[x], decomp.children[y]))


def pendant_swap_generators(decomp: PendantDecomposition) -> list[Permutation]:
    """Generators of the automorphisms fixing the core pointwise.

    For every vertex, adjacent equal-code pendant children have their whole
    subtrees transposed; these swaps generate the full product of symmetric
    groups acting on equal-code sibling subtrees at every level.
    """
    generators: list[Permutation] = []
    for v, kids in decomp.children.items():
        if len(kids) < 2:
            continue
        for left, right in zip(kids, kids[1:]):
            if decomp.code[left] != decomp.code[right]:
                continue
            forward: dict[Vertex, Vertex] = {}
            _map_subtree(decomp, left, right, forward)
            # A transposition of the two subtrees: forward plus its mirror.
            swap = dict(forward)
            for a, b in forward.items():
                swap[b] = a
            generators.append(Permutation(swap))
    return generators


def extend_core_generator(decomp: PendantDecomposition, core_gen: Permutation) -> Permutation:
    """Extend a core automorphism over the pendant forests.

    For each moved core vertex v, the pendant trees of v are mapped onto the
    (equal-code-multiset) pendant trees of core_gen(v) in canonical order.
    Core vertices fixed by the generator keep their pendants fixed (the
    canonical order pairs each tree with itself).
    """
    mapping: dict[Vertex, Vertex] = {}
    for v in core_gen.support():
        image = core_gen(v)
        mapping[v] = image
        for tree_a, tree_b in zip(decomp.children[v], decomp.children[image]):
            _map_subtree(decomp, tree_a, tree_b, mapping)
    return Permutation(mapping)


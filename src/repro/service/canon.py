"""Canonical-form bridging: content keys plus exact per-request relabeling.

The cache must hit when two tenants submit *isomorphic* graphs, yet every
response must use the submitting tenant's own vertex ids. The resolution:

1. canonicalise the input once (one individualization–refinement search
   yields both the certificate — hashed into the cache key — and the
   canonical labeling);
2. run every expensive artifact computation (anonymize, backbone, sampling,
   candidate sets) on the **canonical graph**, whose vertex set is
   ``0..n-1`` and whose edge set is identical for all members of the
   isomorphism class — this is what gets cached;
3. relabel the artifact back through the request's own labeling when the
   response is rendered. Vertices the anonymizer *inserted* (canonical ids
   outside ``0..n-1``) are mapped to ``max(request ids) + 1, + 2, ...`` in
   insertion-rank order, which is collision-free and a pure function of the
   request.

Step 3 is cheap (linear in the artifact) and step 2 is the expensive part,
so isomorphic resubmissions skip everything but one canonical search — while
responses stay byte-identical per request whatever the cache contains. A
byte-identical resubmission skips that search too: the scheduler memoizes
each request text's :class:`CanonicalInput` (its ``inverse`` holds the
requester's own ids, so the memo stays in memory and out of the cache).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.graphs.graph import Graph
from repro.isomorphism.canonical import certificate_with_labeling


@dataclass(frozen=True)
class CanonicalInput:
    """One request graph reduced to its isomorphism class + the way back."""

    #: hex SHA-256 of the canonical certificate (isomorphism-invariant)
    digest: str
    #: number of vertices
    n: int
    #: canonical edge list over vertex ids 0..n-1, sorted
    edges: tuple[tuple[int, int], ...]
    #: canonical id -> the request's own vertex id
    inverse: tuple[int, ...]
    #: first id guaranteed free in the request's vertex space
    fresh_base: int

    def labeling(self) -> dict[int, int]:
        """Request vertex id -> canonical id (inverse of ``inverse``)."""
        return {v: i for i, v in enumerate(self.inverse)}

    def canonical_graph(self) -> Graph:
        """Rebuild the canonical graph (isolated vertices included)."""
        return Graph.from_edges(self.edges, vertices=range(self.n))

    def map_back(self, canonical_ids: list[int]) -> dict[int, int]:
        """Canonical artifact ids -> request ids, inserted ids made fresh.

        *canonical_ids* is every vertex id appearing in the artifact; ids
        ``>= n`` were inserted by the anonymizer and are assigned fresh
        request-side ids deterministically by sorted order.
        """
        mapping: dict[int, int] = {}
        inserted = sorted({w for w in canonical_ids if not 0 <= w < self.n})
        for rank, w in enumerate(inserted):
            mapping[w] = self.fresh_base + rank
        for w in canonical_ids:
            if 0 <= w < self.n:
                mapping[w] = self.inverse[w]
        return mapping


def canonicalize(graph: Graph) -> CanonicalInput:
    """Canonical form of *graph*; vertices must be ints (service contract)."""
    cert, labeling = certificate_with_labeling(graph)
    digest = hashlib.sha256(repr(cert).encode("utf-8")).hexdigest()
    inverse: list[int] = [0] * graph.n
    for v, i in labeling.items():
        inverse[i] = v
    edges = tuple(sorted(
        (labeling[u], labeling[v]) if labeling[u] < labeling[v]
        else (labeling[v], labeling[u])
        for u, v in graph.edges()
    ))
    fresh_base = max(inverse) + 1 if inverse else 0
    return CanonicalInput(digest=digest, n=graph.n, edges=edges,
                          inverse=tuple(inverse), fresh_base=fresh_base)

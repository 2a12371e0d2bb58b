"""Seeded inputs for every workload, made with the standard library only.

Nothing here imports ``repro``: a change to the program cannot change what
the benchmark feeds it. Every generator takes an explicit ``random.Random``
seeded through :func:`derive`, so the same ``--seed`` gives the same inputs
byte for byte.

* :func:`barabasi_albert` — preferential attachment with ``m`` edges per new
  vertex, vertices ``0..n-1`` in insertion order (the array fast path's
  vertex space); the scale workload's networks.
* :func:`leaf_heavy` — a preferential-attachment core carrying degree-1 and
  degree-2 leaves on shared hubs, ids shuffled; the CLI and daemon networks.
* :func:`delta_for` — a small insertions-only growth step for a release.
* :func:`relabeling` — a tenant's private vertex ids for a base network.
"""

from __future__ import annotations

import hashlib
import random


def derive(seed: int, *labels: object) -> int:
    """A 64-bit seed for one input, stable across processes and platforms."""
    text = "/".join([str(seed)] + [str(label) for label in labels])
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


def _distinct_picks(rng: random.Random, pool: list[int], count: int) -> list[int]:
    picks: list[int] = []
    while len(picks) < count:
        v = pool[rng.randrange(len(pool))]
        if v not in picks:
            picks.append(v)
    return picks


def barabasi_albert(n: int, m: int, rng: random.Random) -> list[tuple[int, int]]:
    """Edges of a Barabási–Albert network on vertices ``0..n-1``.

    Starts from ``m + 1`` vertices in a clique, then every new vertex joins
    ``m`` distinct earlier vertices chosen with probability proportional to
    degree. Minimum degree is ``m``, so there are no leaves and colour
    refinement splits the network into singleton cells.
    """
    edges = [(u, v) for v in range(m + 1) for u in range(v)]
    ends = [w for edge in edges for w in edge]
    for v in range(m + 1, n):
        for u in _distinct_picks(rng, ends, m):
            edges.append((u, v))
            ends.append(u)
            ends.append(v)
    return edges


def leaf_heavy(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """A network shaped like the paper's Table 1 graphs: median degree 1–2.

    One fifth of the vertices form a preferential-attachment core (two edges
    per new core vertex). The rest hang off the core: 60 % as degree-1
    leaves on a hub drawn by degree, 40 % as degree-2 vertices joined to a
    pair of hubs drawn from the 24 busiest core vertices, so both kinds
    share hubs and fall into non-singleton orbits. Vertex ids are a random
    permutation of ``0..n-1``, so a reader inserts them out of order.
    Returns the edges sorted, each written ``(min, max)``.
    """
    core = max(4, n // 5)
    edges = [(0, 1), (1, 2), (0, 2)]
    ends = [0, 1, 1, 2, 0, 2]
    for v in range(3, core):
        for u in _distinct_picks(rng, ends, 2):
            edges.append((u, v))
            ends.append(u)
            ends.append(v)
    degree = [0] * core
    for w in ends:
        degree[w] += 1
    busiest = sorted(range(core), key=lambda w: (-degree[w], w))[:24]
    leaves = n - core
    pendants = (leaves * 3) // 5
    for v in range(core, core + pendants):
        hub = ends[rng.randrange(len(ends))]
        edges.append((hub, v))
        ends.append(hub)
    for v in range(core + pendants, n):
        a, b = _distinct_picks(rng, busiest, 2)
        edges.append((a, v))
        edges.append((b, v))
    ids = list(range(n))
    rng.shuffle(ids)
    relabeled = [(ids[u], ids[v]) if ids[u] < ids[v] else (ids[v], ids[u]) for u, v in edges]
    relabeled.sort()
    return relabeled


def relabeling(n: int, rng: random.Random, offset: int = 0) -> list[int]:
    """A random bijection ``0..n-1 -> offset..offset+n-1`` (index = base id)."""
    ids = list(range(offset, offset + n))
    rng.shuffle(ids)
    return ids


def delta_for(vertices: list[int], rng: random.Random,
              fresh_base: int) -> tuple[list[int], list[tuple[int, int]]]:
    """A small insertions-only delta on a release with vertex ids *vertices*.

    Adds three fresh ids from *fresh_base* up; each new vertex joins one
    existing vertex, and the first two new vertices are also joined to each
    other, so every edge touches a new vertex (the safe republish growth
    model).
    """
    fresh = [fresh_base, fresh_base + 1, fresh_base + 2]
    anchors = rng.sample(vertices, len(fresh))
    edges = [(a, v) for a, v in zip(anchors, fresh)] + [(fresh[0], fresh[1])]
    return fresh, edges


def edge_list_text(edges: list[tuple[int, int]]) -> str:
    """Edge-list text in the program's input format (one ``u v`` per line)."""
    return "".join(f"{u} {v}\n" for u, v in edges)


def delta_text(fresh: list[int], edges: list[tuple[int, int]]) -> str:
    """The CLI's delta file format: ``add-vertex`` / ``add-edge`` lines."""
    return ("".join(f"add-vertex {v}\n" for v in fresh)
            + "".join(f"add-edge {u} {v}\n" for u, v in edges))

"""Independent output checks: the properties the method must have.

Standard library only — nothing here imports ``repro``, so a fault in the
program cannot hide in the code that judges it. Every check returns a list
of problems (empty when the output is right); the workloads count a run as
correct only when every check of every operation came back empty.

The properties, with the paper's names:

* Definition 1 — every published cell has at least k vertices;
* Definition 3 — the published graph only gains vertices and edges;
* equitability — each published cell is refinement-stable: its vertices
  see the same number of neighbours in every cell;
* Algorithm 1 — orbit copying grows a cell c to ceil(k/|c|)·|c| vertices;
* Theorem 4 — the backbone of the publication equals the input's cells;
* the samplers — an approximate sample has exactly original_n vertices and
  is the subgraph of the publication induced on them; an exact sample has
  between original_n and original_n + (largest cell − 1) vertices;
* sequential release — a release keeps the previous one as a subgraph,
  contains its delta and carries every previous cell verbatim;
* the combined measure f(v) = (Deg(v), tri(v)), Deg(v) being the sorted
  degrees of v's neighbours — an audit's candidates are exactly the
  vertices sharing the target's value.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter

Edge = tuple[int, int]


class Publication:
    """A published (G', V', meta) triple parsed from its three texts."""

    def __init__(self, edges_text: str, partition_text: str, meta_text: str) -> None:
        self.vertices, self.edges = parse_edge_list(edges_text)
        self.cells = parse_partition(partition_text)
        self.meta = json.loads(meta_text)
        self._adj: dict[int, list[int]] | None = None

    @property
    def adj(self) -> dict[int, list[int]]:
        if self._adj is None:
            self._adj = adjacency(self.vertices, self.edges)
        return self._adj


# ------------------------------------------------------------------ parsing


def parse_edge_list(text: str) -> tuple[set[int], set[Edge]]:
    """Vertices and ``(min, max)`` edges of an edge-list text.

    Understands the program's ``# isolated: ...`` header; other ``#`` lines
    are comments.
    """
    vertices: set[int] = set()
    edges: set[Edge] = set()
    for line in text.splitlines():
        if not line or line.startswith("#"):
            if line.startswith("# isolated:"):
                vertices.update(int(t) for t in line[len("# isolated:"):].split())
            continue
        a, b = line.split()[:2]
        u, v = int(a), int(b)
        vertices.add(u)
        vertices.add(v)
        edges.add((u, v) if u < v else (v, u))
    return vertices, edges


def parse_partition(text: str) -> list[list[int]]:
    return [[int(t) for t in line.split()] for line in text.splitlines() if line.strip()]


def adjacency(vertices, edges) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {v: [] for v in vertices}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def cells_text_sha256(cells) -> str:
    """SHA-256 of cells written one per line, members space-separated."""
    text = "\n".join(" ".join(str(v) for v in cell) for cell in cells)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# --------------------------------------------------------- graph properties


def partition_problems(vertices, cells) -> list[str]:
    """The cells must cover *vertices* exactly once."""
    seen: set[int] = set()
    total = 0
    for cell in cells:
        seen.update(cell)
        total += len(cell)
    problems = []
    if total != len(seen):
        problems.append("a vertex appears in two cells")
    if seen != set(vertices):
        problems.append(f"cells cover {len(seen)} vertices, the graph has {len(vertices)}")
    return problems


def equitable_problems(adj, cells) -> list[str]:
    """Every vertex of a cell must see the same count of neighbours per cell."""
    cell_of: dict[int, int] = {}
    for index, cell in enumerate(cells):
        for v in cell:
            cell_of[v] = index
    for index, cell in enumerate(cells):
        if len(cell) < 2:
            continue
        profile = None
        for v in cell:
            mine = sorted(Counter(cell_of[u] for u in adj[v]).items())
            if profile is None:
                profile = mine
            elif mine != profile:
                return [f"cell {index} (vertex {v}) is not equitable"]
    return []


def size_problems(cells, k: int) -> list[str]:
    small = [cell for cell in cells if len(cell) < k]
    if small:
        return [f"{len(small)} cells below k={k}, e.g. {sorted(small[0])}"]
    return []


# ----------------------------------------------------------- scale pipeline


def scale_problems(n: int, m: int, adj, cells, k: int, artifacts: dict) -> list[str]:
    """Checks on one ``run_pipeline`` report and its input partition."""
    problems = partition_problems(range(n), cells)
    problems += equitable_problems(adj, cells)
    expected_n = sum(-(-k // len(cell)) * len(cell) for cell in cells)
    published = artifacts["publication"]
    if published["published_n"] != expected_n:
        problems.append(f"published {published['published_n']} vertices, "
                        f"Algorithm 1 gives {expected_n}")
    discrete = all(len(cell) == 1 for cell in cells)
    if k == 2 and discrete and published["published_m"] != 4 * m:
        problems.append(f"published {published['published_m']} edges, expected 4m = {4 * m}")
    backbone = artifacts["backbone"]
    if discrete:
        # a graph whose cells are all singletons is its own backbone
        if backbone["sha256"] != cells_text_sha256(cells):
            problems.append("backbone cells differ from the input cells (Theorem 4)")
    elif backbone["cells"] != len(cells) or not len(cells) <= backbone["n"] <= n:
        # a cell of twins shrinks to one vertex in the backbone, but no cell vanishes
        problems.append(f"backbone has {backbone['n']} vertices in {backbone['cells']} cells, "
                        f"the input {n} vertices in {len(cells)} cells (Theorem 4)")
    if artifacts["sample"]["n"] != n:
        problems.append(f"sample has {artifacts['sample']['n']} vertices, expected {n}")
    return problems


# -------------------------------------------------------------- publication


def publication_problems(in_vertices, in_edges, pub: Publication, k: int) -> list[str]:
    """Definitions 1 and 3, equitability and the meta counts of a publication."""
    problems = size_problems(pub.cells, k)
    problems += partition_problems(pub.vertices, pub.cells)
    if not set(in_vertices) <= pub.vertices:
        problems.append("an input vertex is missing from the publication")
    missing = [e for e in in_edges if e not in pub.edges]
    if missing:
        problems.append(f"{len(missing)} input edges missing, e.g. {missing[0]}")
    meta = pub.meta
    expected = {
        "original_n": len(in_vertices),
        "vertices_added": len(pub.vertices) - len(in_vertices),
        "edges_added": len(pub.edges) - len(in_edges),
        "k": k,
    }
    for key, value in expected.items():
        if meta.get(key) != value:
            problems.append(f"meta {key}={meta.get(key)!r}, the files give {value}")
    if not problems:
        problems += equitable_problems(pub.adj, pub.cells)
    return problems


def approximate_sample_problems(pub: Publication, vertices, edges) -> list[str]:
    original_n = pub.meta["original_n"]
    if len(vertices) != original_n:
        return [f"approximate sample has {len(vertices)} vertices, original_n is {original_n}"]
    if not vertices <= pub.vertices:
        return ["approximate sample has a vertex the publication lacks"]
    induced = {(u, v) for u in vertices for v in pub.adj[u] if u < v and v in vertices}
    if induced != edges:
        return ["approximate sample is not the induced subgraph of the publication"]
    return []


def exact_sample_problems(pub: Publication, vertices) -> list[str]:
    original_n = pub.meta["original_n"]
    largest = max(len(cell) for cell in pub.cells)
    if not original_n <= len(vertices) <= original_n + largest - 1:
        return [f"exact sample has {len(vertices)} vertices, outside "
                f"[{original_n}, {original_n + largest - 1}]"]
    return []


def release_problems(prev: Publication, delta_vertices, delta_edges,
                     new: Publication, k: int) -> list[str]:
    """One step of a republish chain against the release before it."""
    problems = size_problems(new.cells, k)
    problems += partition_problems(new.vertices, new.cells)
    if not prev.vertices <= new.vertices or not prev.edges <= new.edges:
        problems.append("the previous release is not a subgraph of the new one")
    if not set(delta_vertices) <= new.vertices:
        problems.append("a delta vertex is missing from the release")
    normalized = {(u, v) if u < v else (v, u) for u, v in delta_edges}
    if not normalized <= new.edges:
        problems.append("a delta edge is missing from the release")
    new_cells = {tuple(sorted(cell)) for cell in new.cells}
    carried = [cell for cell in prev.cells if tuple(sorted(cell)) not in new_cells]
    if carried:
        problems.append(f"{len(carried)} previous cells not carried verbatim, "
                        f"e.g. {sorted(carried[0])}")
    expected_n = prev.meta["original_n"] + len(delta_vertices)
    if new.meta.get("original_n") != expected_n:
        problems.append(f"release original_n={new.meta.get('original_n')}, expected {expected_n}")
    if not problems:
        problems += equitable_problems(new.adj, new.cells)
    return problems


# -------------------------------------------------------------------- audits


def combined_measure(adj) -> dict[int, tuple]:
    """f(v) = (sorted neighbour degrees, triangles through v) for every v."""
    neighbours = {v: set(nbrs) for v, nbrs in adj.items()}
    values = {}
    for v, nbrs in adj.items():
        mine = neighbours[v]
        triangles = sum(len(mine & neighbours[u]) for u in nbrs) // 2
        values[v] = (tuple(sorted(len(adj[u]) for u in nbrs)), triangles)
    return values


def audit_problems(values: dict[int, tuple], target: int, candidates) -> list[str]:
    """*candidates* must be exactly the vertices sharing f(target)."""
    expected = sorted(v for v, value in values.items() if value == values[target])
    got = sorted(candidates)
    if target not in got:
        return [f"candidate set of {len(got)} lacks its target {target}"]
    if got != expected:
        return [f"candidate set has {len(got)} vertices, f(target) is shared by {len(expected)}"]
    return []

"""Backbone-based sampling: recovering approximate originals from (G', V').

The analyst holds the published triple (G', V', n = |V(G)|) and wants graphs
that share the original's backbone and size, to measure statistics on
(Section 4.2). Two strategies:

* :func:`sample_exact` (Algorithm 3) — compute the backbone of (G', V'),
  then re-grow it with whole-cell orbit copies, distributing the n -
  |V(B)| vertex budget across cells with probability p[i], subject to never
  exceeding cell i's size in G'. Guaranteed to lie in the paper's sample
  space; cost is dominated by backbone detection (graph-isomorphism
  machinery on cell components).
* :func:`sample_approximate` (Algorithms 4+5) — linear time: assign per-cell
  quotas (one per cell, then the rest by p[i]), then depth-first traverse G'
  selecting at most quota[i] vertices from cell i, and return the subgraph
  induced by the selected vertices. Tries to capture the backbone but does
  not certify it; the paper finds it matches — and occasionally beats — the
  exact sampler in utility.

Both default to the paper's inverse-degree cell probabilities
p[i] ~ 1/deg(V'_i), reflecting that low-degree orbits are the populous ones
in right-skewed networks.

Both run on the array core: the approximate sampler is one CSR pass,
:func:`sample_approximate_arrays`, shared with the scale pipeline, and the
exact sampler regrows the backbone with the array copy engine. The per-draw
budget loops keep the eligible cell list and its prefix sums incrementally
(rebuilt only when a cell fills) and resolve each draw by bisection. All of
this is **RNG-exact**: every draw consumes the identical ``random()`` /
``shuffle`` calls on the identical candidate lists as the seed
implementation, so a fixed seed yields the same sample byte-for-byte — the
``differential:arraycore`` audit check and the tier-1 parity tests pin this
against :func:`repro.core.reference.reference_sample_approximate`. Because
each draw in :func:`sample_many` owns a :func:`derive_seed`-spawned stream,
the equality also holds chunk-by-chunk for every ``--jobs`` value.

Departure from the pseudocode (documented): Algorithm 5's DFS reaches only
the root's connected component. Real networks (and Table 1's datasets) are
frequently disconnected, so after the traversal exhausts a component with
budget left, we restart from a fresh uniformly-random unvisited root. On
connected inputs the behaviour is identical to the paper's.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections.abc import Callable, Hashable, Iterable, Sequence
from itertools import accumulate

from repro.core.anonymize import _grow
from repro.core.backbone import backbone
from repro.graphs.graph import Graph
from repro.graphs.partition import Partition
from repro.runtime import ParallelMap, RunStats, spawn_streams
from repro.utils.rng import RandomLike, ensure_rng
from repro.utils.validation import SamplingError, check_positive_int


def inverse_degree_probabilities(
    degree: Callable[[Hashable], int], cells: Iterable[Sequence[Hashable]]
) -> list[float]:
    """p[i] ~ 1/degree of cell i (the paper's default).

    *degree* gives a vertex's degree in the published graph
    (``graph.degree``, or a CSR row length). Every vertex in a published
    cell has the same degree, so the first member stands for the cell;
    isolated-vertex cells (degree 0) are treated as degree 1.
    """
    weights = [1.0 / max(degree(cell[0]), 1) for cell in cells]
    total = sum(weights)
    return [w / total for w in weights]


def _validate_probabilities(p: Sequence[float], n_cells: int) -> list[float]:
    if len(p) != n_cells:
        raise SamplingError(f"probability vector has {len(p)} entries for {n_cells} cells")
    if any(x < 0 for x in p):
        raise SamplingError("cell probabilities must be non-negative")
    total = sum(p)
    if total <= 0:
        raise SamplingError("cell probabilities must not all be zero")
    return [x / total for x in p]


def _budget_draws(
    rand: random.Random,
    probabilities: list[float],
    eligible: list[int],
    still_eligible: Callable[[int], bool],
    draw_cost: Callable[[int], int],
    on_draw: Callable[[int], None],
    budget: int,
) -> None:
    """Shared engine of the two budget loops, RNG-exact to the seed rescans.

    The seed implementation rebuilt the eligible list and walked a fresh
    running sum on **every** draw — O(cells) per unit of budget. Here the
    (ascending) eligible list and its prefix sums persist across draws and
    are rebuilt only when the drawn cell stops being eligible; each draw is
    then one bisection. Equivalences that keep the RNG stream and the chosen
    indices bit-identical to :func:`reference_weighted_choice`:

    * ``itertools.accumulate`` adds left-to-right exactly like the seed's
      ``acc += w`` walk (``0.0 + w == w`` for non-negative floats), so the
      prefix-sum floats are the same bit patterns;
    * the first index with ``point <= acc`` is the first prefix >= point,
      i.e. ``bisect_left``; a point beyond the total falls back to the last
      eligible cell exactly like the seed's loop exhaustion;
    * dropping cells preserves ascending order, so the rebuilt list equals
      the seed's full rescan.
    """
    weights = [probabilities[i] for i in eligible]
    cum = list(accumulate(weights))
    while budget > 0 and eligible:
        total = cum[-1]
        if total <= 0:
            chosen = rand.choice(eligible)
        else:
            point = rand.random() * total
            j = bisect_left(cum, point)
            if j >= len(eligible):
                j = len(eligible) - 1
            chosen = eligible[j]
        on_draw(chosen)
        budget -= draw_cost(chosen)
        if not still_eligible(chosen):
            eligible = [i for i in eligible if still_eligible(i)]
            weights = [probabilities[i] for i in eligible]
            cum = list(accumulate(weights))


def sample_exact(
    published_graph: Graph,
    published_partition: Partition,
    original_n: int,
    p: Sequence[float] | None = None,
    rng: RandomLike = None,
    backbone_result=None,
    return_partition: bool = False,
) -> Graph | tuple[Graph, Partition]:
    """Algorithm 3: reconstruct the backbone, then re-copy cells up to ~original_n.

    *backbone_result* lets callers that draw many samples amortise the
    backbone computation (it depends only on the published pair).

    The returned graph has at least ``original_n`` vertices minus nothing
    and at most ``original_n + max cell size - 1`` (the paper's overshoot).
    """
    check_positive_int(original_n, "original_n")
    rand = ensure_rng(rng)
    if backbone_result is None:
        backbone_result = backbone(published_graph, published_partition)
    if p is None:
        probabilities = inverse_degree_probabilities(
            published_graph.degree, published_partition.cells)
    else:
        probabilities = _validate_probabilities(p, len(published_partition))

    # Align published cells with backbone cells by index.
    published_cells = [list(cell) for cell in published_partition.cells]
    backbone_cells = backbone_result.cells
    cell_count = len(published_cells)
    copies_needed = [0] * cell_count

    budget = original_n - backbone_result.graph.n
    if budget < 0:
        raise SamplingError(
            f"original_n={original_n} is smaller than the backbone ({backbone_result.graph.n} vertices); "
            "the published pair cannot originate from a graph that small"
        )

    def eligible_cell(i: int) -> bool:
        return (copies_needed[i] + 2) * len(backbone_cells[i]) <= len(published_cells[i])

    def take(i: int) -> None:
        copies_needed[i] += 1

    _budget_draws(
        rand, probabilities,
        [i for i in range(cell_count) if eligible_cell(i)],
        eligible_cell, lambda i: len(backbone_cells[i]), take, budget,
    )

    # Whole-cell copies of every backbone cell, in cell-index order.
    graph, partition, _, _ = _grow(
        backbone_result.graph, backbone_cells,
        {i: len(cell) * (1 + copies_needed[i]) for i, cell in enumerate(backbone_cells)},
        "orbit",
    )
    if return_partition:
        # The sample's own sub-automorphism partition (backbone cells plus
        # their copies) — what the paper's analyst would re-publish if the
        # sample itself were shared onward.
        return graph, partition
    return graph


def allocate_quota(
    rand: random.Random,
    cell_sizes: Sequence[int],
    probabilities: list[float],
    original_n: int,
) -> list[int]:
    """Algorithm 4: per-cell selection quotas (one each, the rest by p[i]).

    Runs inside :func:`sample_approximate_arrays`, so the public sampler and
    the scale pipeline consume identical draws.
    """
    cell_count = len(cell_sizes)
    quota = [1] * cell_count

    def eligible_cell(i: int) -> bool:
        return quota[i] < cell_sizes[i]

    def take(i: int) -> None:
        quota[i] += 1

    _budget_draws(
        rand, probabilities,
        [i for i in range(cell_count) if eligible_cell(i)],
        eligible_cell, lambda i: 1, take, original_n - cell_count,
    )
    return quota


def dfs_select_arrays(
    rand: random.Random,
    indptr: Sequence[int],
    indices: Sequence[int],
    cell_of: Sequence[int],
    quota: list[int],
    original_n: int,
) -> list[int]:
    """Algorithm 5 over CSR rows: quota-guided randomized DFS selection.

    *indptr*/*indices* are plain Python lists (``ndarray.tolist()`` — int
    objects, not array scalars, so ``shuffle``/comparisons run at list
    speed). Returns the selected vertices in selection order; RNG-exact to
    the dict-set traversal (CSR rows are ascending, which is exactly the
    ``_sorted_if_possible`` canonicalisation the seed shuffles).
    """
    n = len(indptr) - 1
    visited = bytearray(n)
    selected: list[int] = []
    remaining = original_n

    pool = list(range(n))
    rand.shuffle(pool)
    for root in pool:
        if remaining <= 0:
            break
        if visited[root]:
            continue
        stack = [root]
        while stack and remaining > 0:
            v = stack.pop()
            if visited[v]:
                continue
            visited[v] = 1
            ci = cell_of[v]
            if quota[ci] > 0:
                selected.append(v)
                quota[ci] -= 1
                remaining -= 1
                neighbors = [u for u in indices[indptr[v]:indptr[v + 1]] if not visited[u]]
                rand.shuffle(neighbors)
                stack.extend(neighbors)
    return selected


def sample_approximate_arrays(
    rand: random.Random,
    indptr: list[int],
    indices: list[int],
    cells: Sequence[Sequence[int]],
    original_n: int,
    p: Sequence[float] | None = None,
) -> list[int]:
    """Algorithms 4+5 in array space: the selected vertices, in selection order.

    The one approximate sampler, behind :func:`sample_approximate` and the
    scale pipeline's sample stage. *indptr*/*indices* are the published
    graph's CSR rows as plain lists, *cells* its partition over row ids.
    """
    cell_count = len(cells)
    if original_n < cell_count:
        raise SamplingError(
            f"original_n={original_n} is below the number of published cells ({cell_count}); "
            "each cell represents at least one original vertex"
        )
    if p is None:
        probabilities = inverse_degree_probabilities(
            lambda v: indptr[v + 1] - indptr[v], cells)
    else:
        probabilities = _validate_probabilities(p, cell_count)
    quota = allocate_quota(rand, [len(c) for c in cells], probabilities, original_n)
    cell_of = [0] * (len(indptr) - 1)
    for i, cell in enumerate(cells):
        for v in cell:
            cell_of[v] = i
    return dfs_select_arrays(rand, indptr, indices, cell_of, quota, original_n)


def sample_approximate(
    published_graph: Graph,
    published_partition: Partition,
    original_n: int,
    p: Sequence[float] | None = None,
    rng: RandomLike = None,
) -> Graph:
    """Algorithms 4+5: quota-guided randomized DFS, linear time.

    Distributes a quota of ``original_n`` vertices over the cells (at least
    one each, the rest by p[i]), then walks G' depth-first from a random
    root selecting vertices while their cell still has quota; the sample is
    the subgraph induced by the selected vertices.
    """
    from repro.arraycore.space import array_space, index_cells

    check_positive_int(original_n, "original_n")
    rand = ensure_rng(rng)
    indptr, indices, labels = array_space(published_graph)
    selected = sample_approximate_arrays(
        rand, indptr.tolist(), indices.tolist(),
        index_cells(labels, published_partition.cells), original_n, p,
    )
    return published_graph.subgraph([labels[v] for v in selected])


def _draw_one(task) -> Graph:
    """One independent draw (module-level so it ships to worker processes)."""
    strategy, graph, partition, original_n, p, shared_backbone, task_rng = task
    if strategy == "approximate":
        return sample_approximate(graph, partition, original_n, p=p, rng=task_rng)
    return sample_exact(
        graph, partition, original_n,
        p=p, rng=task_rng, backbone_result=shared_backbone,
    )


def sample_many(
    published_graph: Graph,
    published_partition: Partition,
    original_n: int,
    n_samples: int,
    strategy: str = "approximate",
    p: Sequence[float] | None = None,
    rng: RandomLike = None,
    jobs: int | None = None,
    stats: list[RunStats] | None = None,
) -> list[Graph]:
    """Draw *n_samples* independent sample graphs with the chosen strategy.

    For ``"exact"`` the backbone is computed once and shared across draws.

    Each draw gets its own RNG stream spawned from *rng* (one parent draw
    total), so with a fixed seed the result list is identical for every
    *jobs* value — ``jobs`` only changes how many worker processes share the
    draws. Pass a list as *stats* to receive the :class:`RunStats` of the
    underlying :class:`repro.runtime.ParallelMap` run.
    """
    check_positive_int(n_samples, "n_samples")
    if strategy == "approximate":
        shared = None
    elif strategy == "exact":
        shared = backbone(published_graph, published_partition)
    else:
        raise SamplingError(f"unknown strategy {strategy!r}; expected 'approximate' or 'exact'")
    streams = spawn_streams(ensure_rng(rng), f"sample_many/{strategy}", n_samples)
    tasks = [
        (strategy, published_graph, published_partition, original_n, p, shared, stream)
        for stream in streams
    ]
    executor = ParallelMap(jobs)
    samples = executor.map(_draw_one, tasks)
    if stats is not None:
        stats.append(executor.last_stats)
    return samples

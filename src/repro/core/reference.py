"""Dict-graph reference implementations of the anonymization pipeline.

The production paths (orbit copying, backbone detection, the samplers) run
as flat-array passes over CSR rows plus an insertions-only overlay
(:mod:`repro.arraycore`), for every input. The seed dict-of-sets
implementations live here, verbatim, as **parity oracles**: independent
executable specifications that the array passes must match byte-for-byte.

They are consumed by

* the tier-1 parity tests, which compose these oracles into anonymize,
  republish, backbone and both samplers on inputs of every label shape;
* :mod:`repro.audit.differential` — ``check_arraycore_parity`` replays
  anonymize → publish → backbone → sample through :func:`reference_pipeline`
  and :func:`repro.arraycore.run_pipeline` on every audit corpus case and
  fails on any divergence;
* ``benchmarks/bench_scale.py`` — the ``--quick`` parity gate and the
  baseline for the end-to-end speedup figures.

Like :mod:`repro.graphs.reference` (the CSR kernel oracles), this module
values obviousness over speed: the code is the seed implementation, kept
deliberately unoptimised. Do not "improve" it — its entire value is being
an independent derivation of the same results.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from repro.core.orbit_copy import MutablePartitionedGraph
from repro.graphs.graph import Graph, _sorted_if_possible
from repro.graphs.partition import Partition
from repro.isomorphism.canonical import certificate
from repro.utils.rng import RandomLike, ensure_rng
from repro.utils.validation import PartitionError, SamplingError, check_positive_int

__all__ = [
    "reference_component_classes",
    "reference_backbone",
    "reference_anonymize_cells",
    "reference_pipeline",
    "reference_sample_approximate",
    "reference_sample_exact_growth",
    "reference_weighted_choice",
]


def reference_component_classes(graph: Graph, cell: Sequence[int]) -> list[list[list[int]]]:
    """Seed `≅_L(cell)` grouping: induced subgraph + per-component certificates.

    Returns a list of classes; each class is a list of components; each
    component is a sorted vertex list. Classes and components are ordered by
    their smallest vertex, so "keep the first component of each class" is
    deterministic. The oracle for
    :func:`repro.arraycore.component_classes_arrays`.
    """
    cell_set = set(cell)
    induced = graph.subgraph(cell_set)
    components = [sorted(c) for c in induced.connected_components()]
    components.sort(key=lambda comp: comp[0])
    buckets: dict[object, list[list[int]]] = {}
    order: list[object] = []
    for comp in components:
        comp_graph = induced.subgraph(comp)
        coloring = {v: tuple(sorted(graph.neighbors(v) - cell_set)) for v in comp}
        cert = certificate(comp_graph, coloring)
        if cert not in buckets:
            buckets[cert] = []
            order.append(cert)
        buckets[cert].append(comp)
    return [buckets[cert] for cert in order]


def reference_backbone(graph: Graph, partition: Partition):
    """Seed Algorithm 2: repeated per-cell sweeps over a mutable dict graph.

    Returns the same :class:`repro.core.backbone.BackboneResult` as the
    array-pass :func:`repro.core.backbone.backbone`.
    """
    from repro.core.backbone import BackboneResult

    if not partition.covers(graph.vertices()):
        raise PartitionError("partition must cover exactly the graph's vertices")
    work = graph.copy()
    cells: list[list[int]] = [sorted(cell) for cell in partition.cells]

    changed = True
    while changed:
        changed = False
        for index, cell in enumerate(cells):
            if len(cell) < 2:
                continue
            classes = reference_component_classes(work, cell)
            if all(len(cls) == 1 for cls in classes):
                continue
            keep: list[int] = []
            for cls in classes:
                keep.extend(cls[0])
                for extra in cls[1:]:
                    work.remove_vertices(extra)
                    changed = True
            cells[index] = sorted(keep)

    removed = set(graph.vertices()) - set(work.vertices())
    return BackboneResult(graph=work, cells=cells, removed=removed, input_partition=partition)


def _reference_grow_by_components(
    state: MutablePartitionedGraph, cell_index: int, required: int
) -> None:
    """Seed Section 5.1 growth: copy one representative per `≅_L`-class."""
    members = state.original_members[cell_index]
    classes = reference_component_classes(state.graph, members)
    unit = sorted(v for cls in classes for v in cls[0])
    while state.cell_size(cell_index) < required:
        state.copy_members(cell_index, unit)


def reference_anonymize_cells(
    graph: Graph,
    base_partition: Partition,
    requirements: dict[int, int],
    copy_unit: str,
) -> MutablePartitionedGraph:
    """Seed Algorithm 1 driver on the dict :class:`MutablePartitionedGraph`.

    Returns the final growth state; the caller packages it into an
    :class:`repro.core.anonymize.AnonymizationResult`.
    """
    state = MutablePartitionedGraph(graph, base_partition)
    for cell_index in range(len(base_partition)):
        required = requirements.get(cell_index, 1)
        if state.cell_size(cell_index) >= required:
            continue
        if copy_unit == "component":
            _reference_grow_by_components(state, cell_index, required)
        else:
            state.grow_cell_to(cell_index, required)
    return state


def reference_weighted_choice(
    rand: random.Random, indices: list[int], weights: list[float]
) -> int:
    """Seed linear-scan weighted draw (the oracle for the bisect variant).

    Consumes exactly one ``rand.random()`` (or one ``rand.choice`` when all
    weights are zero); the optimised cumulative-sum implementation in
    :mod:`repro.core.sampling` must return the identical index from the
    identical draw.
    """
    total = sum(weights)
    if total <= 0:
        # All eligible cells have zero weight: fall back to uniform.
        return rand.choice(indices)
    point = rand.random() * total
    acc = 0.0
    for index, weight in zip(indices, weights):
        acc += weight
        if point <= acc:
            return index
    return indices[-1]


def _reference_probabilities(
    graph: Graph, partition: Partition, p: Sequence[float] | None
) -> list[float]:
    if p is None:
        weights = []
        for cell in partition.cells:
            degree = max(graph.degree(cell[0]), 1)
            weights.append(1.0 / degree)
        total = sum(weights)
        return [w / total for w in weights]
    if len(p) != len(partition):
        raise SamplingError(f"probability vector has {len(p)} entries for {len(partition)} cells")
    if any(x < 0 for x in p):
        raise SamplingError("cell probabilities must be non-negative")
    total = sum(p)
    if total <= 0:
        raise SamplingError("cell probabilities must not all be zero")
    return [x / total for x in p]


def reference_sample_approximate(
    published_graph: Graph,
    published_partition: Partition,
    original_n: int,
    p: Sequence[float] | None = None,
    rng: RandomLike = None,
) -> Graph:
    """Seed Algorithms 4+5: per-draw eligibility rescans + dict-set DFS.

    The RNG consumption sequence of this oracle is the parity contract for
    :func:`repro.core.sampling.sample_approximate` — same seed, same sample,
    byte for byte.
    """
    check_positive_int(original_n, "original_n")
    rand = ensure_rng(rng)
    cells = [list(cell) for cell in published_partition.cells]
    cell_count = len(cells)
    if original_n < cell_count:
        raise SamplingError(
            f"original_n={original_n} is below the number of published cells ({cell_count}); "
            "each cell represents at least one original vertex"
        )
    probabilities = _reference_probabilities(published_graph, published_partition, p)

    quota = [1] * cell_count
    budget = original_n - cell_count
    while budget > 0:
        eligible = [i for i in range(cell_count) if quota[i] < len(cells[i])]
        if not eligible:
            break
        chosen = reference_weighted_choice(
            rand, eligible, [probabilities[i] for i in eligible]
        )
        quota[chosen] += 1
        budget -= 1

    cell_of = published_partition.as_coloring()
    visited: set = set()
    selected: set = set()
    remaining = original_n
    all_vertices = published_graph.sorted_vertices()

    def traverse(root) -> int:
        nonlocal remaining
        taken = 0
        stack = [root]
        while stack and remaining > 0:
            v = stack.pop()
            if v in visited:
                continue
            visited.add(v)
            ci = cell_of[v]
            if quota[ci] > 0:
                selected.add(v)
                quota[ci] -= 1
                remaining -= 1
                taken += 1
                neighbors = _sorted_if_possible(
                    [u for u in published_graph.neighbors(v) if u not in visited]
                )
                rand.shuffle(neighbors)
                stack.extend(neighbors)
        return taken

    unvisited_pool = list(all_vertices)
    rand.shuffle(unvisited_pool)
    for root in unvisited_pool:
        if remaining <= 0:
            break
        if root not in visited:
            traverse(root)
    return published_graph.subgraph(selected)


def reference_sample_exact_growth(
    backbone_cells: list[list[int]],
    published_cells: list[list[int]],
    probabilities: list[float],
    budget: int,
    rand: random.Random,
) -> list[int]:
    """Seed Algorithm 3 budget loop: how many whole-cell copies each cell gets.

    Rescans eligibility on every draw, exactly as the seed did; the oracle
    for the incremental-eligibility loop inside
    :func:`repro.core.sampling.sample_exact`.
    """
    cell_count = len(published_cells)
    copies_needed = [0] * cell_count
    while budget > 0:
        eligible = [
            i for i in range(cell_count)
            if (copies_needed[i] + 2) * len(backbone_cells[i]) <= len(published_cells[i])
        ]
        if not eligible:
            break
        chosen = reference_weighted_choice(
            rand, eligible, [probabilities[i] for i in eligible]
        )
        copies_needed[chosen] += 1
        budget -= len(backbone_cells[chosen])
    return copies_needed


def reference_pipeline(
    graph: Graph,
    k: int,
    partition: Partition | None = None,
    method: str = "stabilization",
    copy_unit: str = "orbit",
    seed: int = 0,
    sample: bool = True,
):
    """Seed replay of :func:`repro.arraycore.run_pipeline` through the oracles.

    Same stages, same partition, same RNG stream, and the dict publication
    writer: for any seed the returned
    :class:`~repro.arraycore.PipelineReport` carries artifact digests equal
    to ``run_pipeline``'s byte for byte. Like ``run_pipeline`` the replay
    takes the vertices in ascending order; it rebuilds the dict graph that
    way, which only the publication's isolated-vertex line can observe.
    """
    from repro.arraycore.pipeline import (
        _begin,
        _cells_sha256,
        _publication_artifact,
        _sample_artifact,
        _sample_rng,
    )
    from repro.core.publication import PublicationBuffers, save_publication_triple
    from repro.runtime import Stopwatch

    report, partition = _begin(graph, k, partition, method, copy_unit, seed)
    graph = Graph.from_edges(graph.sorted_edges(), vertices=graph.sorted_vertices())

    watch = Stopwatch()
    state = reference_anonymize_cells(
        graph, partition, {i: k for i in range(len(partition))}, copy_unit)
    published_graph = state.graph
    published_partition = state.to_partition()
    report.record("anonymize", watch)

    watch = Stopwatch()
    extra = {
        "k": k,
        "copy_unit": copy_unit,
        "vertices_added": published_graph.n - graph.n,
        "edges_added": published_graph.m - graph.m,
    }
    buffers = PublicationBuffers.in_memory()
    save_publication_triple(
        published_graph, published_partition, graph.n, buffers, extra=extra)
    report.record("publish", watch)
    report.artifacts["publication"] = _publication_artifact(
        published_graph.n, published_graph.m, buffers.texts())

    watch = Stopwatch()
    backbone_result = reference_backbone(published_graph, published_partition)
    report.record("backbone", watch)
    report.artifacts["backbone"] = {
        "n": backbone_result.graph.n,
        "cells": len(backbone_result.cells),
        "removed": backbone_result.n_removed,
        "sha256": _cells_sha256(backbone_result.cells),
    }
    if not sample:
        return report

    watch = Stopwatch()
    sample_graph = reference_sample_approximate(
        published_graph, published_partition, graph.n, rng=_sample_rng(seed))
    report.record("sample", watch)
    edge_lines = [f"{u} {v}\n" for u, v in sample_graph.sorted_edges()]
    report.artifacts["sample"] = _sample_artifact(
        sorted(sample_graph.vertices()), edge_lines)
    return report

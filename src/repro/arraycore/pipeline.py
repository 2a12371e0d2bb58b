"""End-to-end anonymize → publish → backbone → sample over the array core.

This is the scale path that ``benchmarks/bench_scale.py`` drives to a
million vertices: after the automorphism partition is computed, every stage
runs on flat arrays — orbit copying as overlay appends, publication straight
off the frozen CSR, backbone as an alive-mask sweep, and the approximate
sampler's quota + DFS over CSR rows. The dict ``Graph`` is materialised
nowhere on this path.

:func:`repro.core.reference.reference_pipeline` replays the identical
pipeline through the seed dict oracles (and the dict publication writer).
Both consume the same RNG stream, so for any seed the two reports carry
**byte-identical artifact digests** — that equality is the parity gate of
the benchmark and of ``repro.audit``'s ``differential:arraycore`` check,
and the point of the :class:`PipelineReport` digests.

Stage timings come from :class:`repro.runtime.Stopwatch`; each stage also
records :func:`repro.runtime.peak_rss_bytes`, which is the process-wide
high-water mark — per-stage values are cumulative maxima, not independent
footprints.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from dataclasses import dataclass, field
from random import Random

import numpy as np

from repro.graphs.graph import Graph
from repro.graphs.partition import Partition
from repro.runtime import Stopwatch, peak_rss_bytes
from repro.utils.rng import derive_seed

__all__ = ["PipelineReport", "run_pipeline"]


@dataclass
class PipelineReport:
    """What one pipeline run produced: per-stage costs plus parity digests."""

    n: int
    m: int
    k: int
    method: str
    copy_unit: str
    seed: int
    #: stage name -> {"wall_seconds": float, "peak_rss_bytes": int}
    stages: list[dict] = field(default_factory=list)
    #: stage name -> digest/summary dict (equal to the oracle replay's)
    artifacts: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "artifacts": self.artifacts,
            "copy_unit": self.copy_unit,
            "k": self.k,
            "m": self.m,
            "method": self.method,
            "n": self.n,
            "seed": self.seed,
            "stages": self.stages,
        }

    def parity_key(self) -> dict:
        """The timing-free slice: equal to the oracle replay's iff in parity."""
        return self.artifacts

    def record(self, name: str, watch: Stopwatch) -> None:
        self.stages.append({
            "name": name,
            "wall_seconds": watch.elapsed(),
            "peak_rss_bytes": peak_rss_bytes(),
        })


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _cells_sha256(cells: Sequence[Sequence[int]]) -> str:
    return _sha256("\n".join(" ".join(map(str, c)) for c in cells))


def _publication_artifact(n: int, m: int, texts: tuple[str, str, str]) -> dict:
    edges_text, partition_text, meta_text = texts
    return {
        "published_n": n,
        "published_m": m,
        "edges_sha256": _sha256(edges_text),
        "partition_sha256": _sha256(partition_text),
        "meta_sha256": _sha256(meta_text),
    }


def _sample_artifact(vertices: list[int], edges_lines: list[str]) -> dict:
    payload = " ".join(map(str, vertices)) + "\n" + "".join(edges_lines)
    return {
        "n": len(vertices),
        "m": len(edges_lines),
        "sha256": _sha256(payload),
    }


def _sample_rng(seed: int) -> Random:
    """The sample stage's stream (shared with the oracle replay)."""
    return Random(derive_seed(seed, "pipeline/sample"))


def _begin(
    graph: Graph, k: int, partition: Partition | None,
    method: str, copy_unit: str, seed: int,
) -> tuple[PipelineReport, Partition]:
    """A fresh report plus the partition stage (computed unless given)."""
    report = PipelineReport(
        n=graph.n, m=graph.m, k=k, method=method, copy_unit=copy_unit, seed=seed,
    )
    if partition is None:
        from repro.isomorphism.orbits import automorphism_partition

        watch = Stopwatch()
        partition = automorphism_partition(graph, method=method).orbits
        report.record("partition", watch)
    report.artifacts["partition"] = {
        "cells": len(partition),
        "sha256": _cells_sha256(partition.cells),
    }
    return report, partition


def _grow_and_freeze(
    graph: Graph, partition: Partition, k: int, copy_unit: str,
) -> tuple[np.ndarray, np.ndarray, list[list[int]]]:
    """The anonymize stage; the overlay and copy state die on return."""
    from repro.arraycore.overlay import OverlayGraph
    from repro.arraycore.state import ArrayPartitionedGraph

    state = ArrayPartitionedGraph(
        OverlayGraph.from_graph(graph), partition.cells, track_records=False)
    state.grow({i: k for i in range(len(partition))}, copy_unit)
    indptr, indices = state.overlay.freeze()
    return indptr, indices, state.cells


def run_pipeline(
    graph: Graph,
    k: int,
    partition: Partition | None = None,
    method: str = "stabilization",
    copy_unit: str = "orbit",
    seed: int = 0,
    sample: bool = True,
) -> PipelineReport:
    """Run partition → anonymize → publish → backbone → sample on *graph*.

    *graph* must have the vertices ``0..n-1`` (what the generators emit), in
    any insertion order; the publication lists isolated vertices in
    ascending order. Pass *partition* to skip the partition stage (scale
    runs hand it the stabilization partition computed once for the array
    run and its oracle replay).
    """
    from repro.arraycore.backbone import backbone_arrays
    from repro.arraycore.publication import publication_texts_from_arrays
    from repro.core.sampling import sample_approximate_arrays

    report, partition = _begin(graph, k, partition, method, copy_unit, seed)
    original_n = graph.n

    watch = Stopwatch()
    indptr, indices, cells = _grow_and_freeze(graph, partition, k, copy_unit)
    report.record("anonymize", watch)

    watch = Stopwatch()
    published_n = len(indptr) - 1
    published_m = len(indices) // 2
    extra = {
        "k": k,
        "copy_unit": copy_unit,
        "vertices_added": published_n - original_n,
        "edges_added": published_m - graph.m,
    }
    texts = publication_texts_from_arrays(indptr, indices, cells, original_n, extra=extra)
    report.record("publish", watch)
    report.artifacts["publication"] = _publication_artifact(published_n, published_m, texts)

    watch = Stopwatch()
    alive, backbone_cells = backbone_arrays(indptr, indices, cells)
    report.record("backbone", watch)
    kept = sum(alive)
    report.artifacts["backbone"] = {
        "n": kept,
        "cells": len(backbone_cells),
        "removed": published_n - kept,
        "sha256": _cells_sha256(backbone_cells),
    }
    if not sample:
        return report

    watch = Stopwatch()
    ptr = indptr.tolist()
    ind = indices.tolist()
    selected = sample_approximate_arrays(_sample_rng(seed), ptr, ind, cells, original_n)
    report.record("sample", watch)
    chosen = sorted(selected)
    mask = bytearray(published_n)
    for v in chosen:
        mask[v] = 1
    edge_lines = [
        f"{u} {v}\n"
        for u in chosen
        for v in ind[ptr[u]:ptr[u + 1]]
        if v > u and mask[v]
    ]
    report.artifacts["sample"] = _sample_artifact(chosen, edge_lines)
    return report

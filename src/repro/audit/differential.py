"""Differential checks: accelerated paths against their reference oracles.

Two code families in this library exist in fast and reference form, with a
bit-identity contract between them:

* the CSR kernels (:mod:`repro.graphs.csr`) against the seed dict
  implementations kept verbatim in :mod:`repro.graphs.reference`;
* the flat-array colour refinement (:mod:`repro.isomorphism.refinement`)
  against the dict-backed :mod:`repro.isomorphism.refinement_reference`;

plus the array-first pipeline core (:mod:`repro.arraycore`), whose
anonymize → publish → backbone → sample artifacts must be byte-identical to
the dict oracles in :mod:`repro.core.reference`;

and the parallel runtime promises serial/parallel bit-identity for every
fan-out. These checkers drive both sides on the same graph and report any
divergence — the exact class of bug a performance PR introduces.
"""

from __future__ import annotations

from repro.graphs import reference
from repro.graphs.csr import (
    all_degrees,
    all_neighbor_degree_sequences,
    all_triangle_counts,
)
from repro.graphs.graph import Graph
from repro.graphs.partition import Partition
from repro.isomorphism.refinement import stable_partition
from repro.isomorphism.refinement_reference import reference_stable_partition
from repro.metrics import clustering as fast_clustering


def check_kernel_parity(graph: Graph) -> list[str]:
    """CSR measure/metric kernels must match the dict reference bit for bit."""
    failures: list[str] = []
    if graph.n == 0:
        return failures
    expected_degrees = {v: graph.degree(v) for v in graph.vertices()}
    if all_degrees(graph) != expected_degrees:
        failures.append("all_degrees diverges from per-vertex graph.degree")
    expected_nds = reference.measure_values(graph, reference.neighbor_degree_sequence)
    if all_neighbor_degree_sequences(graph) != expected_nds:
        failures.append("all_neighbor_degree_sequences diverges from the dict reference")
    expected_tris = reference.measure_values(graph, reference.triangles_at)
    if all_triangle_counts(graph) != expected_tris:
        failures.append("all_triangle_counts diverges from the dict reference")
    if fast_clustering.clustering_values(graph) != reference.clustering_values(graph):
        failures.append("clustering_values diverges from the dict reference")
    if fast_clustering.global_transitivity(graph) != reference.global_transitivity(graph):
        failures.append("global_transitivity diverges from the dict reference")
    return failures


def check_refinement_parity(graph: Graph, initial: Partition | None = None) -> list[str]:
    """The array refinement's fixpoint must equal the dict reference's."""
    failures: list[str] = []
    fast = stable_partition(graph, initial=initial)
    slow = reference_stable_partition(graph, initial=initial)
    if fast != slow:
        failures.append(
            f"stable_partition diverges from the dict reference "
            f"({len(fast)} cells vs {len(slow)} cells)"
            + (" with initial partition" if initial is not None else "")
        )
    return failures


def check_arraycore_parity(
    graph: Graph, k: int, copy_unit: str = "orbit", seed: int = 0
) -> list[str]:
    """The array pipeline's artifacts must equal the dict oracles' byte for byte.

    Replays partition → anonymize → publish → backbone → sample through
    :func:`repro.arraycore.pipeline.run_pipeline` and its oracle replay
    :func:`repro.core.reference.reference_pipeline` (same partition, same
    RNG stream) and compares every artifact digest. Corpora are relabelled
    to 0..n-1 first (insertion order kept) — the pipeline's input contract.
    """
    from repro.arraycore.pipeline import run_pipeline
    from repro.core.reference import reference_pipeline
    from repro.isomorphism.orbits import automorphism_partition

    failures: list[str] = []
    if graph.n == 0:
        return failures
    int_graph, _ = graph.to_integer_labels()
    partition = automorphism_partition(int_graph, method="stabilization").orbits
    array_key = run_pipeline(
        int_graph, k, partition=partition, copy_unit=copy_unit, seed=seed
    ).parity_key()
    reference_key = reference_pipeline(
        int_graph, k, partition=partition, copy_unit=copy_unit, seed=seed
    ).parity_key()
    if array_key != reference_key:
        for stage in sorted(set(array_key) | set(reference_key)):
            if array_key.get(stage) != reference_key.get(stage):
                failures.append(
                    f"arraycore {stage} artifact diverges from the dict oracle: "
                    f"{array_key.get(stage)} != {reference_key.get(stage)}"
                )
    return failures


def check_runtime_parity(
    graph: Graph, partition: Partition, original_n: int, seed: int, jobs: int = 2
) -> list[str]:
    """Serial ground truth vs. the process-pool runtime, same seed.

    Spawns a real worker pool, so the campaign driver runs this in the
    parent process for a designated subset of cases rather than inside the
    per-case fan-out (no pools nested within pools).
    """
    from repro.attacks.reidentify import simulate_attack
    from repro.core.sampling import sample_many

    failures: list[str] = []
    serial = sample_many(graph, partition, original_n, 4, rng=seed, jobs=1)
    parallel = sample_many(graph, partition, original_n, 4, rng=seed, jobs=jobs)
    for i, (a, b) in enumerate(zip(serial, parallel)):
        if not a.equals(b):
            failures.append(f"sample_many draw {i} differs between jobs=1 and jobs={jobs}")
            break
    target = graph.sorted_vertices()[0]
    # ``neighborhood`` is the one registered measure still sharded per
    # vertex through the pool (the others use whole-graph batch kernels).
    one = simulate_attack(graph, target, "neighborhood", jobs=1)
    many = simulate_attack(graph, target, "neighborhood", jobs=jobs)
    if one.candidates != many.candidates:
        failures.append(
            f"simulate_attack candidate set differs between jobs=1 and jobs={jobs}"
        )
    return failures

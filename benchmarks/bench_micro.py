"""Micro-benchmarks for the hot substrate operations.

These are the building blocks every experiment leans on; tracking them keeps
regressions in the low-level machinery visible independently of the
figure-level benches.
"""

import pytest

from repro.arraycore import ArrayPartitionedGraph, OverlayGraph
from repro.core.sampling import inverse_degree_probabilities
from repro.graphs.generators import barabasi_albert_graph, gnp_random_graph
from repro.isomorphism import refinement
from repro.isomorphism.orbits import automorphism_partition
from repro.isomorphism.refinement import OrderedPartition, stable_partition
from repro.isomorphism.refinement_reference import reference_stable_partition
from repro.metrics.ks import ks_statistic
from repro.metrics.paths import path_length_values
from repro.metrics.resilience import resilience_curve


@pytest.fixture(scope="module")
def ba_graph():
    return barabasi_albert_graph(2000, 2, rng=3)


def test_color_refinement(benchmark, ba_graph):
    partition = benchmark(stable_partition, ba_graph)
    oracle = reference_stable_partition(ba_graph)
    assert partition == oracle and partition.cells == oracle.cells


def test_color_refinement_handover(benchmark, ba_graph, monkeypatch):
    """One hashed round, then the worklist finishes from the unstable cells."""
    monkeypatch.setattr(refinement, "_ROUND_BUDGET", 1)
    partition = benchmark(stable_partition, ba_graph)
    oracle = reference_stable_partition(ba_graph)
    assert partition == oracle and partition.cells == oracle.cells


def test_refine_from_individualization(benchmark, ba_graph):
    base = OrderedPartition.unit(ba_graph.vertices())
    base.refine(ba_graph)
    target = base.smallest_nonsingleton()
    if target is None:
        pytest.skip("graph refined to discrete")
    member = base.cell_members(target)[0]

    def individualize_and_refine():
        child = base.copy()
        child.individualize(member)
        return child.refine(ba_graph, active=[target])

    benchmark(individualize_and_refine)


def test_orbit_copy_operation(benchmark, ba_graph):
    """One whole-orbit copy, materialised: the copy records its unit and
    ``freeze`` builds the grown CSR."""
    orbits = automorphism_partition(ba_graph).orbits

    def one_copy():
        state = ArrayPartitionedGraph(OverlayGraph.from_graph(ba_graph), orbits.cells)
        state.copy_cell(0)
        return state, state.overlay.freeze()

    state, (indptr, indices) = benchmark(one_copy)
    assert state.overlay.n == len(indptr) - 1 > ba_graph.n
    assert len(indices) // 2 == ba_graph.m + state.records[0].edges_added


def test_inverse_degree_probabilities(benchmark, ba_graph):
    orbits = automorphism_partition(ba_graph).orbits
    probs = benchmark(inverse_degree_probabilities, ba_graph.degree, orbits.cells)
    assert abs(sum(probs) - 1.0) < 1e-9


def test_ks_statistic(benchmark):
    a = list(range(5000))
    b = [x + 3 for x in range(5000)]
    value = benchmark(ks_statistic, a, b)
    assert 0.0 < value < 1.0


def test_path_length_sampling(benchmark, ba_graph):
    values = benchmark.pedantic(
        path_length_values, args=(ba_graph,),
        kwargs={"n_pairs": 200, "rng": 7, "n_sources": 10},
        rounds=3, iterations=1,
    )
    assert values


def test_resilience_curve(benchmark, ba_graph):
    _, curve = benchmark(resilience_curve, ba_graph, 50)
    assert curve[0] == 1.0


def test_dense_graph_orbits(benchmark):
    graph = gnp_random_graph(300, 0.1, rng=11)
    result = benchmark.pedantic(
        automorphism_partition, args=(graph,), rounds=3, iterations=1
    )
    assert result.orbits.n_vertices == 300


def test_backbone_detection(benchmark):
    from repro.core.anonymize import anonymize
    from repro.core.backbone import backbone
    from repro.core.reference import reference_backbone
    from repro.datasets.synthetic import load_dataset

    g = load_dataset("enron")
    publication = anonymize(g, 5)
    result = benchmark.pedantic(
        backbone, args=(publication.graph, publication.partition),
        rounds=3, iterations=1,
    )
    oracle = reference_backbone(publication.graph, publication.partition)
    assert result.graph.sorted_vertices() == oracle.graph.sorted_vertices()
    assert result.cells == oracle.cells


def test_symmetry_report(benchmark):
    from repro.datasets.synthetic import load_dataset
    from repro.metrics.symmetry import symmetry_report

    g = load_dataset("net_trace")
    report = benchmark.pedantic(symmetry_report, args=(g,), rounds=3, iterations=1)
    assert report.symmetric_fraction > 0.5


def test_knowledge_hierarchy_depth3(benchmark):
    from repro.attacks.hierarchy import hierarchy_partition
    from repro.datasets.synthetic import load_dataset

    g = load_dataset("hepth")
    partition = benchmark(hierarchy_partition, g, 3)
    assert partition.n_vertices == g.n

"""Backbone-based sampling (Algorithms 3, 4, 5)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.anonymize import anonymize
from repro.core.backbone import backbone
from repro.core.sampling import (
    inverse_degree_probabilities,
    sample_approximate,
    sample_exact,
    sample_many,
)
from repro.datasets.paper_graphs import figure3_graph
from repro.graphs.generators import gnp_random_graph, star_graph
from repro.utils.validation import SamplingError

from conftest import small_graphs


def publish(graph, k, **kwargs):
    return anonymize(graph, k, **kwargs).published()


class TestProbabilities:
    def test_inverse_degree_normalised(self):
        g, p, n = publish(figure3_graph(), 3)
        probs = inverse_degree_probabilities(g.degree, p.cells)
        assert len(probs) == len(p)
        assert abs(sum(probs) - 1.0) < 1e-12
        assert all(x > 0 for x in probs)

    def test_lower_degree_cells_weighted_higher(self):
        g, p, n = publish(figure3_graph(), 2)
        probs = inverse_degree_probabilities(g.degree, p.cells)
        degrees = [g.degree(cell[0]) for cell in p.cells]
        low = probs[degrees.index(min(degrees))]
        high = probs[degrees.index(max(degrees))]
        assert low > high


class TestExactSampler:
    def test_sample_size_close_to_original(self):
        original = figure3_graph()
        g, p, n = publish(original, 3)
        sample = sample_exact(g, p, n, rng=5)
        max_cell = max(len(c) for c in backbone(g, p).cells)
        assert n <= sample.n <= n + max_cell

    def test_sample_contains_backbone(self):
        original = figure3_graph()
        g, p, n = publish(original, 3)
        bb = backbone(g, p)
        sample = sample_exact(g, p, n, rng=1)
        assert bb.graph.is_subgraph_of(sample)

    def test_backbone_can_be_shared(self):
        g, p, n = publish(figure3_graph(), 3)
        shared = backbone(g, p)
        a = sample_exact(g, p, n, rng=1, backbone_result=shared)
        b = sample_exact(g, p, n, rng=1, backbone_result=shared)
        assert a == b  # same rng seed, same shared backbone => same draw

    def test_original_n_below_backbone_rejected(self):
        g, p, n = publish(figure3_graph(), 3)
        with pytest.raises(SamplingError):
            sample_exact(g, p, 1)

    def test_custom_probabilities_validated(self):
        g, p, n = publish(figure3_graph(), 2)
        with pytest.raises(SamplingError):
            sample_exact(g, p, n, p=[1.0])  # wrong length
        with pytest.raises(SamplingError):
            sample_exact(g, p, n, p=[0.0] * len(p))
        with pytest.raises(SamplingError):
            sample_exact(g, p, n, p=[-1.0] + [1.0] * (len(p) - 1))

    @settings(max_examples=10, deadline=None)
    @given(small_graphs(min_n=2, max_n=6), st.integers(0, 100))
    def test_exact_sample_within_published_budget(self, g, seed):
        published, partition, n = publish(g, 2)
        sample = sample_exact(published, partition, n, rng=seed)
        # never larger than the published graph's own population per cell
        assert sample.n <= published.n


class TestApproximateSampler:
    def test_exact_size_on_connected_publication(self):
        original = figure3_graph()
        g, p, n = publish(original, 5)
        sample = sample_approximate(g, p, n, rng=3)
        assert sample.n == n

    def test_sample_is_induced_subgraph(self):
        g, p, n = publish(figure3_graph(), 3)
        sample = sample_approximate(g, p, n, rng=9)
        assert sample.is_subgraph_of(g)
        for u in sample.vertices():
            for v in sample.vertices():
                if g.has_edge(u, v):
                    assert sample.has_edge(u, v)

    def test_respects_cell_quotas(self):
        g, p, n = publish(star_graph(3), 4)
        sample = sample_approximate(g, p, n, rng=2)
        # at most one representative of the hub cell (it has quota 1)
        hub_cell = set(p.cell_of(0))
        assert len(hub_cell & set(sample.vertices())) == 1

    def test_connected_publication_gives_connected_sample(self):
        original = gnp_random_graph(12, 0.45, rng=6)
        assert original.is_connected()
        g, p, n = publish(original, 2)
        if g.is_connected():
            sample = sample_approximate(g, p, n, rng=11)
            assert sample.is_connected()

    def test_disconnected_publication_still_fills_quota(self):
        original = gnp_random_graph(10, 0.15, rng=13)  # likely disconnected
        g, p, n = publish(original, 2)
        sample = sample_approximate(g, p, n, rng=4)
        assert sample.n == n

    def test_original_n_below_cell_count_rejected(self):
        g, p, n = publish(figure3_graph(), 2)
        with pytest.raises(SamplingError):
            sample_approximate(g, p, len(p) - 1)

    @settings(max_examples=15, deadline=None)
    @given(small_graphs(min_n=2, max_n=7), st.integers(0, 1000))
    def test_size_never_exceeds_request(self, g, seed):
        published, partition, n = publish(g, 2)
        sample = sample_approximate(published, partition, n, rng=seed)
        assert sample.n <= n


class TestSampleMany:
    def test_counts_and_strategies(self):
        g, p, n = publish(figure3_graph(), 3)
        approx = sample_many(g, p, n, 4, strategy="approximate", rng=1)
        exact = sample_many(g, p, n, 3, strategy="exact", rng=1)
        assert len(approx) == 4 and len(exact) == 3

    def test_samples_vary(self):
        g, p, n = publish(figure3_graph(), 5)
        samples = sample_many(g, p, n, 8, rng=21)
        assert len({tuple(s.sorted_edges()) for s in samples}) > 1

    def test_unknown_strategy(self):
        g, p, n = publish(figure3_graph(), 2)
        with pytest.raises(SamplingError):
            sample_many(g, p, n, 2, strategy="magic")

    def test_deterministic_given_seed(self):
        g, p, n = publish(figure3_graph(), 3)
        a = sample_many(g, p, n, 3, rng=77)
        b = sample_many(g, p, n, 3, rng=77)
        assert all(x == y for x, y in zip(a, b))


class TestParallelSampling:
    """Serial/parallel parity: jobs only changes who computes, never what."""

    @pytest.mark.parametrize("strategy", ["approximate", "exact"])
    def test_jobs_do_not_change_results(self, strategy):
        g, p, n = publish(figure3_graph(), 3)
        serial = sample_many(g, p, n, 6, strategy=strategy, rng=42, jobs=1)
        for jobs in (2, 4):
            parallel = sample_many(g, p, n, 6, strategy=strategy, rng=42, jobs=jobs)
            assert [s.sorted_edges() for s in parallel] == \
                   [s.sorted_edges() for s in serial]
            # full structural equality, not just edge lists
            assert all(x == y for x, y in zip(parallel, serial))

    def test_stats_surface_requested_mode(self):
        g, p, n = publish(figure3_graph(), 3)
        collected = []
        sample_many(g, p, n, 6, rng=1, jobs=2, stats=collected)
        assert len(collected) == 1
        assert collected[0].mode == "parallel" and collected[0].tasks == 6
        collected_serial = []
        sample_many(g, p, n, 6, rng=1, jobs=1, stats=collected_serial)
        assert collected_serial[0].fallback == "jobs=1"

    def test_draws_are_order_independent_streams(self):
        # draw i of an n-draw run equals draw i of a longer run (prefix
        # property of the spawned streams): no draw depends on its siblings
        g, p, n = publish(figure3_graph(), 5)
        short = sample_many(g, p, n, 3, rng=9)
        long = sample_many(g, p, n, 8, rng=9)
        assert all(x == y for x, y in zip(short, long))

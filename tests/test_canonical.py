"""Canonical certificates: equal iff (color-preserving) isomorphic."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets.paper_graphs import figure3_graph
from repro.graphs.generators import (
    cycle_graph,
    gnp_random_graph,
    path_graph,
    petersen_graph,
    star_graph,
)
from repro.graphs.graph import Graph
from repro.isomorphism.canonical import (
    canonical_labeling,
    certificate,
    certificate_digest,
    certificate_with_labeling,
)
from repro.isomorphism.colored import are_isomorphic
from repro.utils.validation import ReproError

from conftest import small_graphs


def random_relabeling(g: Graph, seed: int) -> tuple[Graph, dict]:
    rand = random.Random(seed)
    vs = g.sorted_vertices()
    image = list(vs)
    rand.shuffle(image)
    mapping = dict(zip(vs, image))
    return g.relabeled(mapping), mapping


class TestPlainCertificates:
    def test_empty_graph(self):
        assert certificate(Graph()) == (0, (), (), ())
        assert canonical_labeling(Graph()) == {}

    def test_isomorphic_graphs_same_certificate(self):
        a = Graph.from_edges([(0, 1), (1, 2)])
        b = Graph.from_edges([(7, 5), (5, 9)])
        assert certificate(a) == certificate(b)

    def test_non_isomorphic_same_degree_sequence(self):
        # C6 vs two triangles: both 2-regular on 6 vertices
        two_triangles = Graph.from_edges(
            [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
        )
        assert certificate(cycle_graph(6)) != certificate(two_triangles)

    def test_labeling_is_bijection_onto_range(self):
        g = path_graph(5)
        lab = canonical_labeling(g)
        assert sorted(lab.values()) == list(range(5))

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(), st.integers(0, 10**6))
    def test_invariant_under_relabeling(self, g, seed):
        h, _ = random_relabeling(g, seed)
        assert certificate(g) == certificate(h)

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(max_n=6), small_graphs(max_n=6))
    def test_certificate_equality_iff_isomorphic(self, a, b):
        assert (certificate(a) == certificate(b)) == are_isomorphic(a, b)


class TestColoredCertificates:
    def test_colors_distinguish(self):
        g = Graph.from_edges([(0, 1)])
        same = certificate(g, {0: "x", 1: "x"})
        diff = certificate(g, {0: "x", 1: "y"})
        assert same != diff

    def test_color_values_matter_across_graphs(self):
        """The L-relation needs exact anchor identity, not just structure."""
        a = Graph.from_edges([(0, 1)])
        b = Graph.from_edges([(0, 1)])
        assert certificate(a, {0: (10,), 1: (10,)}) == certificate(b, {0: (10,), 1: (10,)})
        assert certificate(a, {0: (10,), 1: (10,)}) != certificate(b, {0: (20,), 1: (20,)})

    def test_missing_color_rejected(self):
        with pytest.raises(ReproError):
            certificate(Graph.from_edges([(0, 1)]), {0: "x"})

    def test_incomparable_colors_rejected(self):
        with pytest.raises(ReproError):
            certificate(Graph.from_edges([(0, 1)]), {0: "x", 1: 3})

    @settings(max_examples=40, deadline=None)
    @given(small_graphs(max_n=6), st.integers(0, 10**6), st.data())
    def test_colored_invariance_under_relabeling(self, g, seed, data):
        colors = {
            v: data.draw(st.integers(0, 2), label=f"color[{v}]")
            for v in g.vertices()
        }
        h, mapping = random_relabeling(g, seed)
        moved_colors = {mapping[v]: c for v, c in colors.items()}
        assert certificate(g, colors) == certificate(h, moved_colors)

    def test_symmetric_graph_with_asymmetric_colors(self):
        g = cycle_graph(4)
        colors = {0: 0, 1: 1, 2: 0, 3: 1}
        cert1 = certificate(g, colors)
        # rotate colors by one: a different colored graph (no color-preserving iso)
        rotated = {0: 1, 1: 0, 2: 1, 3: 0}
        cert2 = certificate(g, rotated)
        # C4 with alternating colors maps onto itself rotated — these ARE isomorphic
        assert cert1 == cert2


class TestCertificateDigest:
    """The service's content key: a stable hash of the certificate."""

    def test_is_hex_sha256(self):
        digest = certificate_digest(path_graph(4))
        assert len(digest) == 64
        int(digest, 16)  # raises if not hex

    @settings(max_examples=40, deadline=None)
    @given(small_graphs(), st.integers(0, 10**6))
    def test_invariant_under_relabeling(self, g, seed):
        h, _ = random_relabeling(g, seed)
        assert certificate_digest(g) == certificate_digest(h)

    def test_distinguishes_non_isomorphic(self):
        assert certificate_digest(path_graph(4)) != certificate_digest(cycle_graph(4))

    def test_colors_participate(self):
        g = Graph.from_edges([(0, 1)])
        assert certificate_digest(g, {0: "x", 1: "x"}) != \
            certificate_digest(g, {0: "x", 1: "y"})


def _figure3_by_degree() -> tuple[Graph, dict]:
    g = figure3_graph()
    return g, {v: g.degree(v) for v in g.vertices()}


class TestPinnedDigests:
    """Which labeling wins, not only that it is isomorphism-invariant:
    ksymmetryd keys its cache and spill files by these digests, so a change
    to the search that picks another canonical leaf must show up here."""

    @pytest.mark.parametrize("build, expected", [
        (lambda: (figure3_graph(), None),
         "08c95ece1e1981e99d53b653e4e255cf020eb98765fc82684b569a5a4f88b5b8"),
        (_figure3_by_degree,
         "0c81d50ce55db4b31a44df42e72f8ad6164e6e65fed14a128b09e5a38571c601"),
        (lambda: (petersen_graph(), None),
         "36f74c003533bf325935caa30aa4fb3173a1bfcc1f50c85457e17e565295687a"),
        (lambda: (star_graph(7), None),
         "8103ab1b29314495a4c13ccb6ea03e9acb0f57af95ed597d8bc639b1f723a746"),
        (lambda: (gnp_random_graph(24, 0.2, rng=7), None),
         "1861071255137dba0d5f3e82df4298611ced7751dfbaf381487f4670b8580745"),
    ], ids=["figure3", "figure3-degree-colored", "petersen", "star7", "gnp24"])
    def test_digest_pinned(self, build, expected):
        graph, coloring = build()
        assert certificate_digest(graph, coloring) == expected


class TestCertificateWithLabeling:
    def test_matches_separate_calls(self):
        g = cycle_graph(5)
        cert, labeling = certificate_with_labeling(g)
        assert cert == certificate(g)
        assert sorted(labeling.values()) == list(range(5))

    def test_empty_graph(self):
        cert, labeling = certificate_with_labeling(Graph())
        assert cert == (0, (), (), ())
        assert labeling == {}

    @settings(max_examples=30, deadline=None)
    @given(small_graphs(max_n=6))
    def test_labeling_realises_the_certificate(self, g):
        """Relabeling through the returned labeling is canonical: the edge
        set it induces is identical for every member of the class."""
        _, labeling = certificate_with_labeling(g)
        canonical_edges = sorted(
            tuple(sorted((labeling[u], labeling[v]))) for u, v in g.edges())
        h, _ = random_relabeling(g, 12345)
        _, labeling_h = certificate_with_labeling(h)
        canonical_edges_h = sorted(
            tuple(sorted((labeling_h[u], labeling_h[v]))) for u, v in h.edges())
        assert canonical_edges == canonical_edges_h

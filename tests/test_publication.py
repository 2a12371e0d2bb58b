"""Publication persistence: exact round-trips and corruption detection."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.anonymize import anonymize
from repro.core.publication import (
    PublicationFormatError,
    load_publication,
    parse_publication,
    publication_texts,
    save_publication,
    save_publication_triple,
)
from repro.core.sampling import sample_approximate
from repro.datasets.paper_graphs import figure3_graph
from repro.graphs.partition import Partition
from repro.utils.validation import ReproError

from conftest import small_graphs


class TestRoundTrip:
    def test_publication_roundtrip(self, tmp_path):
        result = anonymize(figure3_graph(), 3)
        prefix = tmp_path / "pub"
        save_publication(result, prefix)
        graph, partition, n = load_publication(prefix)
        assert graph == result.graph
        assert partition == result.partition
        assert n == result.original_n

    def test_metadata_contents(self, tmp_path):
        result = anonymize(figure3_graph(), 2)
        prefix = tmp_path / "pub"
        save_publication(result, prefix)
        meta = json.load(open(f"{prefix}.meta"))
        assert meta["k"] == 2
        assert meta["vertices_added"] == result.vertices_added
        assert meta["edges_added"] == result.edges_added

    def test_loaded_publication_feeds_sampler(self, tmp_path):
        result = anonymize(figure3_graph(), 3)
        prefix = tmp_path / "pub"
        save_publication(result, prefix)
        graph, partition, n = load_publication(prefix)
        sample = sample_approximate(graph, partition, n, rng=5)
        assert sample.n == n

    @settings(max_examples=15, deadline=None)
    @given(small_graphs(min_n=2, max_n=6), st.integers(2, 3))
    def test_roundtrip_property(self, tmp_path_factory, g, k):
        result = anonymize(g, k)
        prefix = tmp_path_factory.mktemp("pubs") / "p"
        save_publication(result, prefix)
        graph, partition, n = load_publication(prefix)
        assert graph == result.graph and partition == result.partition


class TestValidation:
    def test_inconsistent_partition_rejected_on_save(self, tmp_path):
        result = anonymize(figure3_graph(), 2)
        with pytest.raises(ReproError):
            save_publication_triple(
                result.graph, Partition([[1]]), result.original_n, tmp_path / "bad"
            )

    def test_corrupted_partition_rejected_on_load(self, tmp_path):
        result = anonymize(figure3_graph(), 2)
        prefix = tmp_path / "pub"
        save_publication(result, prefix)
        with open(f"{prefix}.partition", "w") as handle:
            handle.write("1 2\n")  # covers almost nothing
        with pytest.raises(ReproError):
            load_publication(prefix)

    def test_non_integer_partition_rejected(self, tmp_path):
        result = anonymize(figure3_graph(), 2)
        prefix = tmp_path / "pub"
        save_publication(result, prefix)
        with open(f"{prefix}.partition", "a") as handle:
            handle.write("alice bob\n")
        with pytest.raises(ReproError):
            load_publication(prefix)

    def test_impossible_original_n_rejected(self, tmp_path):
        result = anonymize(figure3_graph(), 2)
        prefix = tmp_path / "pub"
        save_publication(result, prefix)
        meta = json.load(open(f"{prefix}.meta"))
        meta["original_n"] = result.graph.n + 5
        json.dump(meta, open(f"{prefix}.meta", "w"))
        with pytest.raises(ReproError):
            load_publication(prefix)

    def test_missing_original_n_rejected(self, tmp_path):
        result = anonymize(figure3_graph(), 2)
        prefix = tmp_path / "pub"
        save_publication(result, prefix)
        json.dump({}, open(f"{prefix}.meta", "w"))
        with pytest.raises(ReproError):
            load_publication(prefix)

    @pytest.mark.parametrize("value", ["3.9", "true", '"3"'])
    def test_non_integer_original_n_rejected(self, value):
        """A hand-edited meta must not load as int(value): the samplers
        would draw samples of the wrong size."""
        edges, partition, _ = publication_texts(*anonymize(figure3_graph(), 2).published())
        with pytest.raises(ReproError, match="original_n"):
            parse_publication(edges, partition, f'{{"original_n": {value}}}\n')

    def test_meta_that_is_not_json_rejected(self):
        edges, partition, meta = publication_texts(*anonymize(figure3_graph(), 2).published())
        with pytest.raises(PublicationFormatError, match="meta"):
            parse_publication(edges, partition, meta[:-3])


class TestPartitionParsing:
    """Hardening of the .partition text format (CRLF, blanks, duplicates)."""

    @staticmethod
    def _saved_texts(k: int = 2) -> tuple[str, str, str]:
        return publication_texts(*anonymize(figure3_graph(), k).published())

    def test_crlf_partition_round_trips(self):
        edges, partition, meta = self._saved_texts()
        crlf = partition.replace("\n", "\r\n")
        graph, cells, n = parse_publication(edges, crlf, meta)
        baseline = parse_publication(edges, partition, meta)
        assert (graph, cells, n) == baseline

    def test_trailing_blank_lines_tolerated(self):
        edges, partition, meta = self._saved_texts()
        padded = partition + "\n  \n\r\n"
        graph, cells, n = parse_publication(edges, padded, meta)
        baseline = parse_publication(edges, partition, meta)
        assert (graph, cells, n) == baseline

    def test_duplicate_vertex_across_blocks_names_both_lines(self):
        edges, partition, meta = self._saved_texts()
        lines = partition.splitlines()
        # repeat the first cell's first vertex inside the last cell
        dup = lines[0].split()[0]
        corrupted = "\n".join(lines[:-1] + [lines[-1] + f" {dup}"]) + "\n"
        with pytest.raises(PublicationFormatError) as info:
            parse_publication(edges, corrupted, meta)
        message = str(info.value)
        assert f"vertex {dup}" in message
        assert "line 1" in message
        assert f"line {len(lines)}" in message

    def test_duplicate_vertex_within_a_line_rejected(self):
        edges, _, meta = self._saved_texts()
        with pytest.raises(PublicationFormatError) as info:
            parse_publication(edges, "0 1 1\n", meta)
        assert "line 1" in str(info.value)
        assert "vertex 1" in str(info.value)

    def test_non_integer_vertex_names_token_and_line(self):
        edges, partition, meta = self._saved_texts()
        corrupted = partition + "alice bob\n"
        lineno = partition.count("\n") + 1
        with pytest.raises(PublicationFormatError) as info:
            parse_publication(edges, corrupted, meta)
        assert f"line {lineno}" in str(info.value)
        assert "'alice'" in str(info.value)

    def test_format_error_is_both_repro_and_value_error(self):
        assert issubclass(PublicationFormatError, ReproError)
        assert issubclass(PublicationFormatError, ValueError)


class TestBuffers:
    """In-memory publications: the texts mirror the on-disk format byte for byte."""

    def test_buffer_roundtrip(self):
        result = anonymize(figure3_graph(), 3)
        graph, partition, n = parse_publication(*publication_texts(*result.published()))
        assert graph == result.graph
        assert partition == result.partition
        assert n == result.original_n

    def test_buffer_bytes_match_files(self, tmp_path):
        result = anonymize(figure3_graph(), 2)
        prefix = tmp_path / "pub"
        extra = {"k": 2}
        save_publication_triple(*result.published(), prefix, extra=extra)
        edges, partition, meta = publication_texts(*result.published(), extra=extra)
        assert edges == open(f"{prefix}.edges").read()
        assert partition == open(f"{prefix}.partition").read()
        assert meta == open(f"{prefix}.meta").read()

    def test_buffer_validation_matches_files(self):
        with pytest.raises(ReproError):
            parse_publication("0 1\n", "0 1\n", '{"original_n": 99}\n')

    def test_uncovering_partition_refused_for_buffers(self):
        result = anonymize(figure3_graph(), 2)
        with pytest.raises(ReproError):
            publication_texts(result.graph, Partition([[1]]), result.original_n)

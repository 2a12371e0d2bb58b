"""End-to-end CLI tests (in-process, via the argparse entry point)."""

import json
import os

import pytest

from repro.cli import main
from repro.core.publication import load_publication, save_publication_triple
from repro.core.reference import reference_republish
from repro.core.republish import read_delta
from repro.datasets.paper_graphs import figure1_graph
from repro.graphs.io import read_edge_list, write_edge_list


@pytest.fixture
def edge_file(tmp_path):
    path = tmp_path / "net.edges"
    write_edge_list(figure1_graph(), path)
    return str(path)


class TestAnonymizeAndSample:
    def test_anonymize_writes_publication(self, edge_file, tmp_path, capsys):
        out = str(tmp_path / "pub")
        assert main(["anonymize", edge_file, "-k", "2", "--out", out]) == 0
        assert os.path.exists(out + ".edges")
        assert os.path.exists(out + ".partition")
        meta = json.load(open(out + ".meta"))
        assert meta["original_n"] == 8 and meta["k"] == 2
        published = read_edge_list(out + ".edges")
        assert figure1_graph().is_subgraph_of(published)

    def test_anonymize_with_hub_exclusion(self, edge_file, tmp_path):
        out = str(tmp_path / "pub")
        assert main(["anonymize", edge_file, "-k", "2",
                     "--exclude-hubs", "0.2", "--out", out]) == 0
        assert json.load(open(out + ".meta"))["vertices_added"] >= 0

    def test_sample_roundtrip(self, edge_file, tmp_path, capsys):
        pub = str(tmp_path / "pub")
        main(["anonymize", edge_file, "-k", "2", "--out", pub])
        out = str(tmp_path / "s")
        assert main(["sample", pub, "--count", "2", "--seed", "3",
                     "--out", out]) == 0
        sample = read_edge_list(out + ".0.edges")
        assert sample.n == 8

    def test_sample_exact_strategy(self, edge_file, tmp_path):
        pub = str(tmp_path / "pub")
        main(["anonymize", edge_file, "-k", "2", "--out", pub])
        out = str(tmp_path / "s")
        assert main(["sample", pub, "--count", "1", "--strategy", "exact",
                     "--seed", "1", "--out", out]) == 0
        assert os.path.exists(out + ".0.edges")


class TestRepublishCommand:
    @pytest.fixture
    def publication(self, edge_file, tmp_path):
        pub = str(tmp_path / "pub")
        main(["anonymize", edge_file, "-k", "2", "--out", pub])
        return pub

    @pytest.fixture
    def delta_file(self, tmp_path):
        path = tmp_path / "growth.delta"
        path.write_text("# one newcomer\nadd-vertex 1000\nadd-edge 1000 1\n")
        return str(path)

    def test_republish_writes_sequential_release(self, publication, delta_file,
                                                 tmp_path, capsys):
        out = str(tmp_path / "rel1")
        assert main(["republish", publication, delta_file, "-k", "2",
                     "--out", out]) == 0
        meta = json.load(open(out + ".meta"))
        assert list(meta) == ["original_n", "k", "copy_unit", "closure_edges",
                              "delta_vertices", "delta_edges",
                              "vertices_added", "edges_added"]
        assert meta["k"] == 2
        assert meta["delta_vertices"] == 1 and meta["delta_edges"] == 1
        assert meta["original_n"] == 9  # figure 1's 8 vertices + the newcomer
        release0 = read_edge_list(publication + ".edges")
        release1 = read_edge_list(out + ".edges")
        assert release0.is_subgraph_of(release1)
        assert 1000 in release1
        assert "previous cells carried verbatim" in capsys.readouterr().out

    def test_republish_engines_byte_identical(self, publication, delta_file,
                                              tmp_path):
        """The CLI's incremental engine and the global-recompute oracle
        write byte-identical releases."""
        out = str(tmp_path / "rel1")
        assert main(["republish", publication, delta_file, "-k", "2",
                     "--out", out]) == 0
        graph, partition, original_n = load_publication(publication)
        delta = read_delta(delta_file)
        state = reference_republish(graph, partition, original_n, delta, 2)
        oracle = str(tmp_path / "oracle")
        save_publication_triple(state.graph, state.to_partition(),
                                original_n + delta.n_vertices, oracle)
        for suffix in (".edges", ".partition"):
            assert open(out + suffix).read() == open(oracle + suffix).read()
        meta = json.load(open(out + ".meta"))
        assert meta["original_n"] == original_n + delta.n_vertices
        assert meta["vertices_added"] == state.vertices_added
        assert meta["edges_added"] == state.edges_added

    def test_republished_prefix_chains(self, publication, delta_file, tmp_path):
        first = str(tmp_path / "rel1")
        main(["republish", publication, delta_file, "-k", "2", "--out", first])
        next_delta = tmp_path / "more.delta"
        next_delta.write_text("add-vertex 2000\nadd-edge 2000 1000\n")
        second = str(tmp_path / "rel2")
        assert main(["republish", first, str(next_delta), "-k", "2",
                     "--out", second]) == 0
        assert json.load(open(second + ".meta"))["original_n"] == 10

    def test_bad_delta_fails_cleanly(self, publication, tmp_path, capsys):
        bad = tmp_path / "bad.delta"
        bad.write_text("add-vertex 1\n")  # vertex 1 already published
        assert main(["republish", publication, str(bad), "-k", "2",
                     "--out", str(tmp_path / "x")]) == 1
        assert "already exists" in capsys.readouterr().err


class TestStatsAndAttack:
    def test_stats(self, edge_file, capsys):
        assert main(["stats", edge_file]) == 0
        out = capsys.readouterr().out
        assert "vertices:       8" in out
        assert "orbits:" in out

    def test_stats_no_orbits_flag(self, edge_file, capsys):
        assert main(["stats", edge_file, "--no-orbits"]) == 0
        assert "orbits:" not in capsys.readouterr().out

    def test_attack_re_identifies_bob(self, edge_file, capsys):
        assert main(["attack", edge_file, "2", "--measure", "combined"]) == 0
        out = capsys.readouterr().out
        assert "candidates (1)" in out
        assert "1.0000" in out

    def test_attack_unknown_target_fails_cleanly(self, edge_file, capsys):
        assert main(["attack", edge_file, "99"]) == 1
        assert "error:" in capsys.readouterr().err


class TestExperimentCommand:
    def test_single_experiment(self, capsys):
        assert main(["experiment", "table1", "--profile", "quick"]) == 0
        assert "Table 1" in capsys.readouterr().out


class TestOrbitsAndCompare:
    def test_orbits_command(self, edge_file, capsys):
        assert main(["orbits", edge_file]) == 0
        captured = capsys.readouterr()
        lines = [line for line in captured.out.splitlines() if line]
        # the figure-1 graph has three non-trivial orbits
        assert len(lines) == 3
        assert "anonymity floor: 1" in captured.err

    def test_orbits_all_flag(self, edge_file, capsys):
        assert main(["orbits", edge_file, "--all"]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if line]
        assert len(lines) == 5  # every orbit, singletons included

    def test_compare_command(self, edge_file, capsys):
        assert main(["compare", edge_file, "-k", "2"]) == 0
        out = capsys.readouterr().out
        assert "k-symmetry" in out and "k-degree" in out
        assert "floor=2" in out  # k-symmetry reaches the floor

    def test_audit_command_on_missing_dir(self, tmp_path, capsys):
        assert main(["audit", str(tmp_path / "nowhere")]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestErrorPaths:
    """Pinned exit codes and messages for the CLI's failure modes."""

    @pytest.fixture
    def empty_edge_file(self, tmp_path):
        path = tmp_path / "empty.edges"
        path.write_text("")
        return str(path)

    def test_attack_rejects_negative_jobs(self, edge_file, capsys):
        # 'combined' uses the batch kernel (never resolves jobs), so this
        # pins the eager validation in main() specifically.
        assert main(["attack", edge_file, "2", "--jobs", "-1"]) == 1
        assert "jobs must be >= 0" in capsys.readouterr().err

    def test_sample_rejects_negative_jobs(self, edge_file, tmp_path, capsys):
        pub = str(tmp_path / "pub")
        main(["anonymize", edge_file, "-k", "2", "--out", pub])
        capsys.readouterr()
        assert main(["sample", pub, "--jobs", "-2"]) == 1
        assert "jobs must be >= 0" in capsys.readouterr().err

    def test_anonymize_empty_graph_publishes_trivially(self, empty_edge_file,
                                                       tmp_path, capsys):
        out = str(tmp_path / "pub")
        assert main(["anonymize", empty_edge_file, "-k", "2", "--out", out]) == 0
        assert "vertices: 0 -> 0 (+0)" in capsys.readouterr().out

    def test_stats_empty_graph(self, empty_edge_file, capsys):
        assert main(["stats", empty_edge_file]) == 0
        assert "vertices:       0" in capsys.readouterr().out

    def test_sample_from_empty_publication_fails_cleanly(self, empty_edge_file,
                                                         tmp_path, capsys):
        pub = str(tmp_path / "pub")
        main(["anonymize", empty_edge_file, "-k", "2", "--out", pub])
        capsys.readouterr()
        assert main(["sample", pub, "--count", "1"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "original_n=0" in err

    def test_unknown_command_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestLintSubcommand:
    """``ksymmetry lint`` delegates to repro.lint with its exit-code contract."""

    def test_clean_tree_exits_0(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text("X = 1\n", encoding="utf-8")
        assert main(["lint", str(tmp_path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().err

    def test_findings_exit_1(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text("import random\nv = random.random()\n",
                                         encoding="utf-8")
        assert main(["lint", str(tmp_path)]) == 1
        assert "DET001" in capsys.readouterr().out

    def test_json_format_flag_is_forwarded(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text("import random\nv = random.random()\n",
                                         encoding="utf-8")
        assert main(["lint", str(tmp_path), "--format", "json",
                     "--select", "DET001"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == {"DET001": 1}

    def test_usage_error_exits_2_not_1(self, capsys):
        # usage errors must keep the linter's exit 2, not collapse into the
        # CLI's generic ReproError -> 1 path
        assert main(["lint", "--select", "NOPE", "."]) == 2
        assert "unknown rule code" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        assert "DET001" in capsys.readouterr().out


class TestStatsDigest:
    def test_stats_prints_certificate_digest(self, edge_file, capsys):
        assert main(["stats", edge_file]) == 0
        out = capsys.readouterr().out
        assert "certificate:    sha256:" in out

    def test_no_orbits_skips_digest(self, edge_file, capsys):
        assert main(["stats", edge_file, "--no-orbits"]) == 0
        assert "certificate" not in capsys.readouterr().out


class TestServeParser:
    """The daemon itself is exercised end to end in test_service.py; here we
    pin the CLI surface (flags, defaults, wiring)."""

    def test_defaults(self):
        from repro.cli import build_parser, cmd_serve

        args = build_parser().parse_args(["serve"])
        assert args.func is cmd_serve
        assert (args.host, args.port) == ("127.0.0.1", 8777)
        assert args.jobs is None
        assert (args.cache_size, args.max_queue, args.max_batch) == (128, 64, 16)
        assert args.request_timeout == 300.0
        assert args.cache_spill_dir is None

    def test_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "serve", "--port", "0", "--jobs", "2", "--cache-size", "7",
            "--cache-spill-dir", "/tmp/spill", "--max-queue", "3",
            "--max-batch", "2", "--request-timeout", "1.5",
        ])
        assert (args.port, args.jobs, args.cache_size) == (0, 2, 7)
        assert (args.cache_spill_dir, args.max_queue, args.max_batch) == \
            ("/tmp/spill", 3, 2)
        assert args.request_timeout == 1.5

    def test_module_parser_matches_cli_defaults(self):
        from repro.cli import build_parser as cli_parser
        from repro.service.__main__ import build_parser as module_parser

        cli_args = cli_parser().parse_args(["serve"])
        mod_args = module_parser().parse_args([])
        for flag in ("host", "port", "jobs", "cache_size", "cache_spill_dir",
                     "max_queue", "max_batch", "request_timeout"):
            assert getattr(cli_args, flag) == getattr(mod_args, flag), flag

    def test_serve_rejects_negative_jobs(self, capsys):
        assert main(["serve", "--jobs", "-1", "--port", "0"]) == 1
        assert "jobs" in capsys.readouterr().err

"""The repro.audit subsystem: corpus, certificates, campaign, minimizer, CLI.

The failure-injection tests monkeypatch a checker in
``repro.audit.certificates`` and therefore force ``jobs=1``: a process-pool
worker would import the unpatched module and never see the planted bug.
"""

import json
import runpy

import pytest

from repro.audit import (
    certificates,
    failures_for_graph,
    generate_graph,
    make_corpus,
    minimize_failure,
    run_campaign,
)
from repro.audit.__main__ import main as audit_main
from repro.audit.campaign import (
    ADVERSARY_CHECKS,
    CASE_CHECKS,
    RUNTIME_CHECK,
    SEQUENCE_CHECKS,
    VERDICT_CHECK,
    parse_budget,
)
from repro.audit.corpus import FAMILIES, make_case
from repro.audit.differential import check_arraycore_parity
from repro.audit.minimize import write_repro_script
from repro.graphs.generators import gnp_random_graph
from repro.graphs.graph import Graph
from repro.utils.validation import ReproError


def _inject_backbone_failure(monkeypatch, min_n=3):
    """Plant a bug: the backbone certificate 'fails' whenever n > min_n.

    The threshold gives the minimizer a well-defined target: the shrunk
    counterexample must have exactly ``min_n + 1`` input vertices.
    """
    monkeypatch.setattr(
        certificates,
        "check_backbone_invariance",
        lambda result: (
            ["injected failure"] if result.original_graph.n > min_n else []
        ),
    )


class TestCorpus:
    def test_corpus_is_deterministic(self):
        first = list(make_corpus(7, 14))
        second = list(make_corpus(7, 14))
        assert first == second
        for case in first:
            assert generate_graph(case).equals(generate_graph(case))

    def test_corpus_varies_with_seed(self):
        assert list(make_corpus(7, 14)) != list(make_corpus(8, 14))

    def test_one_cycle_covers_every_family(self):
        cases = list(make_corpus(0, len(FAMILIES)))
        assert {case.family for case in cases} == set(FAMILIES)

    def test_case_parameters_in_range(self):
        for case in make_corpus(3, 28):
            assert case.k in (2, 3)
            assert case.copy_unit in ("orbit", "component")
            graph = generate_graph(case)
            assert 1 <= graph.n <= 16

    def test_negative_index_rejected(self):
        with pytest.raises(ReproError):
            make_case(0, -1)


class TestHealthyPipeline:
    """On the current (correct) library, every check must pass."""

    @pytest.mark.parametrize("seed,index", [(2010, 0), (2010, 5), (99, 3)])
    def test_corpus_cases_pass_all_checks(self, seed, index):
        case = make_case(seed, index)
        failures, ran = failures_for_graph(
            generate_graph(case),
            k=case.k,
            copy_unit=case.copy_unit,
            case_seed=case.seed,
            verdict_invariance=True,
        )
        assert failures == []
        assert set(ran) == set(CASE_CHECKS) | {VERDICT_CHECK}

    def test_runtime_parity_check_runs_when_asked(self):
        graph = gnp_random_graph(8, 0.3, rng=4)
        failures, ran = failures_for_graph(graph, k=2, include_runtime=True)
        assert failures == []
        assert RUNTIME_CHECK in ran

    def test_edgeless_graph_survives_the_pipeline(self):
        failures, ran = failures_for_graph(
            Graph.from_edges([], vertices=range(4)), k=2
        )
        assert failures == []
        assert set(ran) == set(CASE_CHECKS)

    def test_arraycore_parity_on_out_of_order_vertices(self):
        # Vertices 0..3 inserted as 2, 0, 1, 3: the array pipeline takes
        # rows in ascending label order, whatever the insertion order.
        graph = Graph.from_edges([(2, 0), (0, 1), (1, 3)])
        assert check_arraycore_parity(graph, 2) == []


class TestBrokenCheckerIsCaught:
    """The acceptance scenario: a planted bug must surface end to end."""

    def test_campaign_reports_and_shrinks_the_failure(self, monkeypatch):
        _inject_backbone_failure(monkeypatch)
        report = run_campaign(seed=3, budget="4", jobs=1, log=False)
        assert not report.ok
        assert any(
            failure.check == "certificate:backbone"
            for case_report in report.case_reports
            for failure in case_report.failures
        )
        assert report.minimized
        entry = report.minimized[0]
        assert entry["check"] == "certificate:backbone"
        # 1-minimal for the planted predicate n > 3: exactly 4 vertices left.
        assert entry["shrunk"]["n"] == 4
        assert entry["shrunk"]["n"] <= entry["original"]["n"]

    def test_passing_campaign_has_no_minimized_entries(self):
        report = run_campaign(seed=2010, budget="4", jobs=1, log=False)
        assert report.ok
        assert report.minimized == []
        assert report.n_failures == 0
        # regression for the Stopwatch conversion: wall time is still tracked
        assert report.wall_seconds > 0.0


class TestMinimizer:
    def test_minimizer_reaches_the_planted_threshold(self, monkeypatch):
        _inject_backbone_failure(monkeypatch, min_n=2)
        graph = gnp_random_graph(9, 0.3, rng=1)
        outcome = minimize_failure(graph, "certificate:backbone", k=2)
        assert outcome.graph.n == 3
        assert outcome.removed_vertices == graph.n - 3
        assert outcome.evaluations > 0

    def test_evaluation_cap_bounds_the_search(self, monkeypatch):
        _inject_backbone_failure(monkeypatch, min_n=0)
        graph = gnp_random_graph(10, 0.4, rng=2)
        outcome = minimize_failure(
            graph, "certificate:backbone", k=2, max_evaluations=3
        )
        assert outcome.evaluations <= 3
        assert outcome.graph.n >= graph.n - 3


class TestReproScript:
    def _write_script(self, tmp_path):
        path = tmp_path / "repro_case0.py"
        write_repro_script(
            str(path),
            gnp_random_graph(6, 0.4, rng=3),
            "certificate:backbone",
            k=2,
            headline="planted for the test suite",
        )
        return path

    def test_script_exits_1_while_the_bug_reproduces(self, tmp_path, monkeypatch, capsys):
        _inject_backbone_failure(monkeypatch, min_n=2)
        path = self._write_script(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            runpy.run_path(str(path), run_name="__main__")
        assert excinfo.value.code == 1
        assert "FAIL: certificate:backbone" in capsys.readouterr().out

    def test_script_exits_0_once_the_bug_is_fixed(self, tmp_path, capsys):
        path = self._write_script(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            runpy.run_path(str(path), run_name="__main__")
        assert excinfo.value.code == 0
        assert "OK" in capsys.readouterr().out


class TestCampaignReportDeterminism:
    def test_same_seed_same_budget_byte_identical(self):
        first = run_campaign(seed=11, budget="6", jobs=1, log=False)
        second = run_campaign(seed=11, budget="6", jobs=1, log=False)
        assert first.to_json() == second.to_json()

    def test_different_seeds_differ(self):
        first = run_campaign(seed=11, budget="6", jobs=1, log=False)
        second = run_campaign(seed=12, budget="6", jobs=1, log=False)
        assert first.to_json() != second.to_json()

    def test_report_json_has_no_wall_clock(self):
        report = run_campaign(seed=11, budget="4", jobs=1, log=False)
        payload = json.loads(report.to_json())
        assert report.wall_seconds > 0
        assert "wall_seconds" not in json.dumps(payload)

    @pytest.mark.slow
    def test_jobs_do_not_change_the_report(self):
        serial = run_campaign(seed=11, budget="6", jobs=1, log=False)
        parallel = run_campaign(seed=11, budget="6", jobs=2, log=False)
        assert serial.to_json() == parallel.to_json()


class TestParseBudget:
    def test_case_count(self):
        assert parse_budget("50") == ("cases", 50.0)

    def test_seconds(self):
        assert parse_budget("300s") == ("seconds", 300.0)

    def test_none_passthrough(self):
        assert parse_budget(None) is None

    @pytest.mark.parametrize("bad", ["abc", "-5", "0", "0s", "-3s", "s"])
    def test_invalid_budgets_rejected(self, bad):
        with pytest.raises(ReproError):
            parse_budget(bad)


class TestAuditCLI:
    def test_quick_smoke_covers_every_check_family(self, capsys):
        # Budget 13 splits 8 graph + 2 sequence + 3 adversary cases; three
        # adversary cases span the full model cycle (adjacency, multiset,
        # sybil), so every adversary:* family appears.
        assert audit_main(["--budget", "13", "--seed", "2010", "--quiet"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["ok"] is True
        ran = {name for case in payload["cases"] for name in case["checks_run"]}
        assert ran == (
            set(CASE_CHECKS)
            | set(SEQUENCE_CHECKS)
            | set(ADVERSARY_CHECKS)
            | {VERDICT_CHECK, RUNTIME_CHECK}
        )

    def test_out_directory_receives_the_report(self, tmp_path, capsys):
        out = tmp_path / "audit"
        code = audit_main(
            ["--budget", "2", "--seed", "1", "--out", str(out), "--quiet"]
        )
        capsys.readouterr()
        assert code == 0
        payload = json.loads((out / "audit_report.json").read_text())
        assert payload["summary"]["cases"] == 2

    def test_failing_campaign_writes_repro_script_and_exits_1(
        self, tmp_path, monkeypatch, capsys
    ):
        _inject_backbone_failure(monkeypatch)
        out = tmp_path / "audit"
        code = audit_main(
            ["--budget", "4", "--seed", "3", "--jobs", "1", "--out", str(out), "--quiet"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "shrunk counterexample" in captured.err
        payload = json.loads((out / "audit_report.json").read_text())
        assert payload["summary"]["ok"] is False
        scripts = sorted(out.glob("repro_case*.py"))
        assert scripts
        assert "certificate:backbone" in scripts[0].read_text()

    def test_bad_seed_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            audit_main(["--seed", "xyz"])
        assert excinfo.value.code == 2
        assert "invalid int value" in capsys.readouterr().err

    def test_bad_budget_fails_fast(self, capsys):
        assert audit_main(["--budget", "soon"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "budget" in err

    def test_bad_jobs_fails_before_any_case(self, capsys):
        assert audit_main(["--jobs", "-1", "--budget", "1", "--quiet"]) == 1
        assert "jobs must be >= 0" in capsys.readouterr().err

    def test_unwritable_out_fails_fast(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        assert audit_main(["--out", str(blocker), "--budget", "1", "--quiet"]) == 1
        assert "cannot write output" in capsys.readouterr().err

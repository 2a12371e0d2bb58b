"""repro.lint — rules against the fixture corpus, engine determinism,
suppressions, the baseline workflow, the CLI contract, and the tier-1
self-lint gate over ``src/``."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.lint import (
    PROGRAM_RULES,
    RULES,
    fingerprint_findings,
    lint_source,
    load_baseline,
    main,
    render_json,
    render_text,
    write_baseline,
)
from repro.utils.validation import ReproError

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "lint"
REPO_ROOT = Path(__file__).resolve().parent.parent

#: a library path outside every wall-clock allowlist entry (DET002)
LIB_RELPATH = "src/repro/experiments/fixture_module.py"
#: a path inside the array-first core (ARR001)
ARRAY_RELPATH = "src/repro/arraycore/fixture_module.py"
#: a path inside the service (FLOW002 secret sources, ASYNC001/ASYNC002)
SERVICE_RELPATH = "src/repro/service/fixture_module.py"
#: a determinism-critical relpath (DET010 roots)
DET_RELPATH = "src/repro/audit/certificates.py"

#: rule -> (positive fixture, expected finding count, near-miss fixture,
#: relpath the fixture is linted under)
FIXTURE_CASES = {
    "DET001": ("det001_positive.py", 6, "det001_near_miss.py", LIB_RELPATH),
    "DET002": ("det002_positive.py", 3, "det002_near_miss.py", LIB_RELPATH),
    "DET003": ("det003_positive.py", 6, "det003_near_miss.py", LIB_RELPATH),
    "MUT001": ("mut001_positive.py", 2, "mut001_near_miss.py", LIB_RELPATH),
    "PAR001": ("par001_positive.py", 4, "par001_near_miss.py", LIB_RELPATH),
    "ARR001": ("arr001_positive.py", 5, "arr001_near_miss.py", ARRAY_RELPATH),
    "ASYNC001": ("async001_positive.py", 2, "async001_near_miss.py", SERVICE_RELPATH),
    "ASYNC002": ("async002_positive.py", 2, "async002_near_miss.py", SERVICE_RELPATH),
    "SUP001": ("sup001_positive.py", 2, "sup001_near_miss.py", LIB_RELPATH),
    "FLOW001": ("flow001_positive.py", 3, "flow001_near_miss.py", LIB_RELPATH),
    "FLOW002": ("flow002_positive.py", 3, "flow002_near_miss.py", SERVICE_RELPATH),
    "DET010": ("det010_positive.py", 3, "det010_near_miss.py", DET_RELPATH),
}

#: SUP001 judges suppressions of rules that ran, so its fixtures must run
#: the rule the dead comments name alongside SUP001 itself
EXTRA_SELECT = {"SUP001": frozenset({"SUP001", "DET001"})}


def lint_fixture(filename: str, code: str, relpath: str):
    source = (FIXTURES / filename).read_text(encoding="utf-8")
    select = EXTRA_SELECT.get(code, frozenset({code}))
    return lint_source(source, relpath, select=select)


class TestRuleCatalogue:
    def test_every_shipped_rule_is_registered(self):
        assert set(RULES) | set(PROGRAM_RULES) == set(FIXTURE_CASES)
        assert not set(RULES) & set(PROGRAM_RULES)

    def test_rules_carry_code_name_rationale(self):
        for code, rule_class in {**RULES, **PROGRAM_RULES}.items():
            assert rule_class.code == code
            assert rule_class.name
            assert rule_class.rationale


class TestFixtureCorpus:
    @pytest.mark.parametrize("code", sorted(FIXTURE_CASES))
    def test_positive_fixture_is_fully_reported(self, code):
        positive, expected, _, relpath = FIXTURE_CASES[code]
        findings = lint_fixture(positive, code, relpath)
        assert [f.code for f in findings] == [code] * expected

    @pytest.mark.parametrize("code", sorted(FIXTURE_CASES))
    def test_near_miss_fixture_is_silent(self, code):
        _, _, near_miss, relpath = FIXTURE_CASES[code]
        assert lint_fixture(near_miss, code, relpath) == []

    def test_findings_are_ordered_and_point_at_real_lines(self):
        positive, _, _, relpath = FIXTURE_CASES["DET001"]
        findings = lint_fixture(positive, "DET001", relpath)
        assert findings == sorted(findings)
        source_lines = (FIXTURES / positive).read_text().splitlines()
        for finding in findings:
            assert finding.line_text == source_lines[finding.line - 1].strip()


class TestPathSensitivity:
    """DET002 and ARR001 change behaviour with the file's location."""

    def test_wallclock_allowed_in_benchmarks(self):
        source = (FIXTURES / "det002_positive.py").read_text()
        assert lint_source(source, "benchmarks/bench_fixture.py",
                           select=frozenset({"DET002"})) == []

    def test_wallclock_allowed_in_runtime_stats(self):
        source = (FIXTURES / "det002_positive.py").read_text()
        assert lint_source(source, "src/repro/runtime/stats.py",
                           select=frozenset({"DET002"})) == []

    def test_dict_adjacency_allowed_outside_array_core(self):
        source = (FIXTURES / "arr001_positive.py").read_text()
        assert lint_source(source, LIB_RELPATH,
                           select=frozenset({"ARR001"})) == []


class TestSuppressions:
    VIOLATION = "import random\nvalue = random.random()\n"

    def test_trailing_comment_suppresses(self):
        source = ("import random\n"
                  "value = random.random()  # repro-lint: disable=DET001 -- fixture\n")
        assert lint_source(source, LIB_RELPATH) == []

    def test_standalone_comment_covers_next_line(self):
        source = ("import random\n"
                  "# repro-lint: disable=DET001 -- fixture\n"
                  "value = random.random()\n")
        assert lint_source(source, LIB_RELPATH) == []

    def test_standalone_comment_covers_only_the_next_line(self):
        source = ("import random\n"
                  "# repro-lint: disable=DET001 -- fixture\n"
                  "covered = random.random()\n"
                  "reported = random.random()\n")
        findings = lint_source(source, LIB_RELPATH)
        assert [f.line for f in findings] == [4]

    def test_disable_all(self):
        source = ("import random\n"
                  "value = random.random()  # repro-lint: disable=all -- fixture\n")
        assert lint_source(source, LIB_RELPATH) == []

    def test_wrong_code_does_not_suppress(self):
        source = ("import random\n"
                  "value = random.random()  # repro-lint: disable=DET002 -- fixture\n")
        findings = lint_source(source, LIB_RELPATH)
        # the DET001 escapes the DET002 comment, and the DET002 comment —
        # suppressing nothing — is itself reported as a dead suppression
        assert [f.code for f in findings] == ["SUP001", "DET001"]


class TestSyntaxErrors:
    def test_unparseable_file_yields_lnt000(self):
        findings = lint_source("def broken(:\n", LIB_RELPATH)
        assert [f.code for f in findings] == ["LNT000"]
        assert "syntax error" in findings[0].message


class TestFingerprints:
    def test_fingerprints_survive_line_shifts(self):
        before = "import random\nvalue = random.random()\n"
        after = "# a new leading comment\n\nimport random\nvalue = random.random()\n"
        fp_before = fingerprint_findings(lint_source(before, LIB_RELPATH))
        fp_after = fingerprint_findings(lint_source(after, LIB_RELPATH))
        assert [f.fingerprint for f in fp_before] == [f.fingerprint for f in fp_after]

    def test_repeated_lines_get_distinct_fingerprints(self):
        source = ("import random\n"
                  "a = random.random()\n"
                  "a = random.random()\n")
        findings = fingerprint_findings(lint_source(source, LIB_RELPATH))
        assert len(findings) == 2
        assert findings[0].fingerprint != findings[1].fingerprint


class TestByteDeterminism:
    """Acceptance: identical JSON bytes across runs and traversal orders."""

    ARGS = ["--format", "json", "--select", "DET001,DET003"]

    def _run(self, capsys, paths):
        code = main(list(paths) + self.ARGS)
        out = capsys.readouterr().out
        assert code == 1  # the positive fixtures always report findings
        return out.encode("utf-8")

    def test_json_identical_across_runs_and_path_orders(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        forward = ["tests/fixtures/lint/det001_positive.py",
                   "tests/fixtures/lint/det003_positive.py"]
        first = self._run(capsys, forward)
        second = self._run(capsys, forward)
        shuffled = self._run(capsys, reversed(forward))
        assert first == second == shuffled

    def test_directory_and_file_arguments_agree(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        from repro.lint import iter_python_files

        via_dir = iter_python_files(["tests/fixtures/lint"])
        assert "tests/fixtures/lint/det001_positive.py" in via_dir
        # duplicates collapse: the same file via two arguments is linted once
        twice = iter_python_files(["tests/fixtures/lint",
                                   "tests/fixtures/lint/det001_positive.py"])
        assert twice == via_dir

    def test_render_json_is_canonical(self):
        source = "import random\nvalue = random.random()\n"
        findings = fingerprint_findings(lint_source(source, LIB_RELPATH))
        blob = render_json(findings, baselined=0)
        assert blob.endswith("\n")
        parsed = json.loads(blob)
        assert parsed["tool"] == "repro.lint"
        assert parsed["counts"] == {"DET001": 1}
        # canonical dump: re-serialising the parse reproduces the bytes
        canonical = json.dumps(parsed, sort_keys=True,
                               separators=(",", ":"), ensure_ascii=True) + "\n"
        assert blob == canonical


class TestBaselineWorkflow:
    def _scratch(self, tmp_path, body: str) -> Path:
        path = tmp_path / "scratch_module.py"
        path.write_text(body, encoding="utf-8")
        return path

    def test_write_then_check_is_clean(self, tmp_path, capsys):
        scratch = self._scratch(tmp_path, "import random\nv = random.random()\n")
        baseline = tmp_path / "baseline.json"
        assert main([str(scratch), "--write-baseline", str(baseline)]) == 0
        assert main([str(scratch), "--baseline", str(baseline)]) == 0
        err = capsys.readouterr().err
        assert "1 baselined" in err

    def test_new_violation_escapes_the_baseline(self, tmp_path, capsys):
        scratch = self._scratch(tmp_path, "import random\nv = random.random()\n")
        baseline = tmp_path / "baseline.json"
        assert main([str(scratch), "--write-baseline", str(baseline)]) == 0
        capsys.readouterr()
        scratch.write_text("import random\n"
                           "v = random.random()\n"
                           "w = random.shuffle([1])\n", encoding="utf-8")
        assert main([str(scratch), "--baseline", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "random.shuffle" in out or "shuffle" in out
        assert out.count("DET001") == 1  # the old finding stays baselined

    def test_roundtrip_helpers(self, tmp_path):
        findings = fingerprint_findings(
            lint_source("import random\nv = random.random()\n", LIB_RELPATH)
        )
        path = tmp_path / "baseline.json"
        write_baseline(str(path), findings)
        assert load_baseline(str(path)) == {f.fingerprint for f in findings}

    def test_malformed_baseline_is_a_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "baseline.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["--baseline", str(bad), str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err
        with pytest.raises(ReproError):
            load_baseline(str(bad))


class TestCommandLine:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "clean.py").write_text("X = 1\n", encoding="utf-8")
        assert main([str(tmp_path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().err

    def test_findings_exit_one_with_text_report(self, tmp_path, capsys):
        scratch = tmp_path / "dirty.py"
        scratch.write_text("import random\nv = random.random()\n", encoding="utf-8")
        assert main([str(scratch)]) == 1
        captured = capsys.readouterr()
        assert "DET001" in captured.out
        assert "1 finding(s)" in captured.err

    def test_unknown_path_is_a_usage_error(self, capsys):
        assert main(["no/such/path"]) == 2
        assert "no such file or directory" in capsys.readouterr().err

    def test_unknown_rule_code_fails_before_linting(self, capsys):
        # eager validation: the bogus path is never reached
        assert main(["no/such/path", "--select", "NOPE"]) == 2
        assert "unknown rule code" in capsys.readouterr().err

    def test_empty_select_rejected(self, capsys):
        assert main(["--select", " , ", "."]) == 2
        assert "no rule codes" in capsys.readouterr().err

    def test_list_rules_prints_catalogue(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in RULES:
            assert code in out

    def test_render_text_lines_are_clickable(self):
        findings = lint_source("import random\nv = random.random()\n",
                               "src/repro/sampling/x.py")
        text = render_text(findings)
        assert text.startswith("src/repro/sampling/x.py:2:")


class TestToolConfig:
    """pyproject wiring for the external gate tools (ruff, mypy).

    The tools themselves are optional locally — CI installs them; these
    tests pin the configuration they will read, and run them when present.
    """

    @pytest.fixture(scope="class")
    def pyproject(self):
        import tomllib

        with open(REPO_ROOT / "pyproject.toml", "rb") as handle:
            return tomllib.load(handle)

    def test_ruff_lints_imports_and_pyflakes(self, pyproject):
        lint = pyproject["tool"]["ruff"]["lint"]
        assert "I" in lint["select"]
        assert "F" in lint["select"]
        assert lint["isort"]["known-first-party"] == ["repro"]

    def test_mypy_gradual_strict_covers_the_typed_core(self, pyproject):
        mypy = pyproject["tool"]["mypy"]
        assert set(mypy["packages"]) == {
            "repro.graphs", "repro.runtime", "repro.utils", "repro.lint"
        }
        strict = mypy["overrides"][0]
        assert strict["disallow_untyped_defs"] is True
        assert set(strict["module"]) == {
            "repro.graphs.*", "repro.runtime.*", "repro.utils.*", "repro.lint.*"
        }

    @pytest.mark.skipif(__import__("shutil").which("ruff") is None,
                        reason="ruff not installed (CI runs it)")
    def test_ruff_check_is_clean(self):
        import subprocess

        proc = subprocess.run(["ruff", "check", "."], cwd=REPO_ROOT,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    @pytest.mark.skipif(__import__("shutil").which("mypy") is None,
                        reason="mypy not installed (CI runs it)")
    def test_mypy_typed_core_is_clean(self):
        import subprocess

        proc = subprocess.run(["mypy"], cwd=REPO_ROOT,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestSelfLintGate:
    """Tier-1 acceptance: the library lints clean under the committed baseline."""

    def test_src_is_clean_under_committed_baseline(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["src", "--baseline", "lint-baseline.json"]) == 0
        capsys.readouterr()

    def test_seeded_violation_fails_the_gate(self, tmp_path, capsys, monkeypatch):
        """Acceptance: planting a DET001 violation must flip the gate to red."""
        monkeypatch.chdir(REPO_ROOT)
        seeded = tmp_path / "seeded_violation.py"
        seeded.write_text("import random\n"
                          "TIE_BREAK = random.random()\n", encoding="utf-8")
        assert main(["src", str(seeded), "--baseline", "lint-baseline.json"]) == 1
        assert "DET001" in capsys.readouterr().out

"""Static determinism & invariant linter for the k-symmetry pipeline.

The pipeline's headline guarantees — byte-identical seed-deterministic
outputs, no raw identity in published artifacts, CSR-cache coherence under
mutation, picklable parallel tasks — are enforced dynamically by the test
suite and the :mod:`repro.audit` fuzzer. Both catch violations only after
they ship, and only on inputs the corpus happens to exercise. This package
enforces the same invariants *statically*, on every line of source, before
merge.

Per-file rules (one parsed file at a time):

========  ==============================================================
DET001    unseeded randomness (global ``random``/``np.random`` state)
DET002    wall-clock reads in library code
DET003    ordering hazards (set iteration into output, ``id()`` sort keys)
MUT001    structural ``Graph`` mutation without CSR-cache invalidation
PAR001    non-module-level callables handed to the parallel runtime
ARR001    array-core purity (no dict-graph fallbacks in the hot path)
ASYNC001  shared service state read, awaited, then written (torn state)
ASYNC002  iterating shared service state with awaits in the loop body
SUP001    ``disable=`` suppressions that never fire
========  ==============================================================

Whole-program rules (the v2 layer: imports resolved across the package, a
conservative call graph, taint-style dataflow — see
:mod:`repro.lint.callgraph` and :mod:`repro.lint.dataflow`):

========  ==============================================================
FLOW001   original-vertex identity reaching a publication writer,
          response serializer, cache key, or service log unsanitized
FLOW002   per-tenant secrets (seeds, tenant names) reaching shared
          artifacts without derive_seed/effective_seed namespacing
DET010    determinism-critical code (certificates, canonical forms,
          cache keys) reaching nondeterminism through any call chain
========  ==============================================================

Run ``python -m repro.lint [paths]`` (or ``ksymmetry lint``); see
``docs/linting.md`` for the rule catalogue, the taint model, the
suppression and boundary syntax (``# repro-lint: disable=CODE -- reason``,
``# repro-lint: boundary=CODE -- reason``), the baseline workflow, and
SARIF output for CI code scanning.
"""

from __future__ import annotations

# Importing the rule modules registers every shipped rule with the engine.
from repro.lint import rules as _rules  # noqa: F401  (import-for-effect)
from repro.lint.baseline import fingerprint_findings, load_baseline, write_baseline
from repro.lint.cache import SummaryCache
from repro.lint.callgraph import ModuleSummary, Program, summarize_module
from repro.lint.cli import main
from repro.lint.engine import (
    PROGRAM_RULES,
    RULES,
    LintConfig,
    ProgramRule,
    Rule,
    all_rule_codes,
    iter_python_files,
    lint_file,
    lint_paths,
    lint_source,
    lint_sources,
    register,
    register_program,
)
from repro.lint.findings import Finding, render_json, render_text
from repro.lint.sarif import render_sarif
from repro.lint.suppressions import Suppressions

__all__ = [
    "PROGRAM_RULES",
    "RULES",
    "Finding",
    "LintConfig",
    "ModuleSummary",
    "Program",
    "ProgramRule",
    "Rule",
    "SummaryCache",
    "Suppressions",
    "all_rule_codes",
    "fingerprint_findings",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
    "lint_sources",
    "load_baseline",
    "main",
    "register",
    "register_program",
    "render_json",
    "render_sarif",
    "render_text",
    "summarize_module",
    "write_baseline",
]

"""Rule engine: registries, per-file dispatch, whole-program driver.

Two kinds of rules exist. *File rules* (:class:`Rule`) see one parsed file:
a single depth-first walk dispatches every node to the ``visit_<NodeType>``
handlers of every selected rule (the engine maintains the ancestor stack
rules need for scope questions), and rules that want whole-tree analyses
implement ``check_module`` instead. *Program rules* (:class:`ProgramRule`)
see the whole input at once — the engine summarises every file into the
:class:`~repro.lint.callgraph.Program` call graph and hands it to them
after all file passes finish; the taint and interprocedural-determinism
rules live here.

The driver (:func:`lint_sources` / :func:`lint_paths`) runs four stages:

1. per file — parse, file rules, suppression table, call-graph summary
   (all cacheable per content hash via :mod:`repro.lint.cache`);
2. program — build the call graph, run the program rules;
3. suppression hygiene — every ``disable=`` comment that suppressed
   nothing in stages 1–2 becomes a SUP001 finding;
4. sort.

Determinism contract: file lists are sorted and deduplicated, findings are
totally ordered, fixpoints iterate in sorted-qname order, and nothing about
a finding depends on traversal order — the acceptance test shuffles the
input paths and asserts byte-identical text/JSON/SARIF reports.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass

from repro.lint.callgraph import ModuleSummary, Program, summarize_module
from repro.lint.findings import Finding
from repro.lint.suppressions import Suppressions
from repro.utils.validation import ReproError


@dataclass(frozen=True)
class LintConfig:
    """Project knobs consulted by the shipped rules.

    The defaults encode this repository's layout — where the service lives,
    which functions are sanctioned taint sanitizers, which files must stay
    deterministic. Tests override them to point rules at fixture trees;
    fixtures instead fake their relative paths and import the real names so
    the defaults resolve against them.
    """

    #: path components under which wall-clock reads are expected (DET002/DET010)
    wallclock_allowed_dirs: tuple[str, ...] = ("benchmarks",)
    #: exact posix path suffixes where wall-clock reads are sanctioned
    wallclock_allowed_files: tuple[str, ...] = ("repro/runtime/stats.py",)
    #: posix path fragments marking the array-first core (ARR001)
    array_core: tuple[str, ...] = ("repro/arraycore/",)

    # -- whole-program analysis (FLOW001/FLOW002, DET010, ASYNC001/002) --

    #: posix path fragments marking service code (taint secrets, async rules)
    service_paths: tuple[str, ...] = ("repro/service/",)
    #: attribute names whose reads introduce secret taint inside the service
    secret_attrs: tuple[str, ...] = ("seed", "tenant")
    #: functions whose return value carries original-vertex identity taint
    identity_sources: tuple[str, ...] = (
        "repro.graphs.io.read_adjacency",
        "repro.graphs.io.read_edge_list",
        "repro.service.protocol.parse_graph",
    )
    #: sanctioned sanitizers — taint does not survive a call through these
    flow_sanitizers: tuple[str, ...] = (
        "repro.core.anonymize.anonymize",
        "repro.core.republish.republish",
        "repro.core.republish.republish_naive",
        "repro.core.republish.republish_published",
        "repro.service.canon.canonicalize",
        "repro.service.protocol.effective_seed",
        "repro.utils.rng.derive_seed",
        "repro.utils.rng.ensure_rng",
        "repro.utils.rng.spawn",
    )
    #: method names that sanitize wherever they appear (canonical relabeling)
    sanitizer_methods: tuple[str, ...] = ("labeling", "map_back")
    #: publication writers — identity or secrets reaching these is a leak
    publication_sinks: tuple[str, ...] = (
        "repro.arraycore.publication.publication_texts_from_arrays",
        "repro.core.publication.publication_texts",
        "repro.core.publication.save_publication",
        "repro.core.publication.save_publication_triple",
    )
    #: response serializer method names (identity must never reach raw)
    response_sink_methods: tuple[str, ...] = (
        "send_error", "send_json", "send_line", "start_ndjson",
    )
    #: artifact-cache methods whose key argument is shared across tenants
    cache_sinks: tuple[str, ...] = (
        "repro.service.cache.ArtifactCache.get",
        "repro.service.cache.ArtifactCache.put",
    )
    #: files whose functions must be deterministic (DET010 roots)
    det_critical_files: tuple[str, ...] = (
        "repro/audit/certificates.py",
        "repro/isomorphism/canonical.py",
        "repro/service/canon.py",
        "repro/service/handlers.py",
    )
    #: functions that stop nondeterminism propagation (seed plumbing)
    det_boundaries: tuple[str, ...] = (
        "repro.utils.rng.derive_seed",
        "repro.utils.rng.ensure_rng",
        "repro.utils.rng.spawn",
    )


class Rule:
    """Base class for per-file lint rules.

    Subclasses set ``code``/``name``/``rationale`` and implement any number
    of ``visit_<NodeType>(node, ctx)`` handlers and/or
    ``check_module(tree, ctx)``. One instance is created per linted file, so
    instance attributes are safe per-file state.
    """

    code: str = ""
    name: str = ""
    rationale: str = ""

    def check_module(self, tree: ast.Module, ctx: "FileContext") -> None:
        """Optional whole-tree hook, called once before the shared walk."""


RULES: dict[str, type[Rule]] = {}


def register(rule_class: type[Rule]) -> type[Rule]:
    """Class decorator adding a file rule to the global registry."""
    if not rule_class.code:
        raise ValueError(f"rule {rule_class.__name__} has no code")
    if rule_class.code in RULES or rule_class.code in PROGRAM_RULES:
        raise ValueError(f"duplicate rule code {rule_class.code}")
    RULES[rule_class.code] = rule_class
    return rule_class


class ProgramRule:
    """Base class for whole-program rules.

    ``check_program`` runs once per lint invocation, after every file has
    been summarised. Rules report through the :class:`ProgramContext`, which
    applies per-line suppressions exactly like the file-rule path, and may
    share expensive analyses through ``ctx.shared``.
    """

    code: str = ""
    name: str = ""
    rationale: str = ""

    def check_program(self, program: Program, ctx: "ProgramContext") -> None:
        raise NotImplementedError


PROGRAM_RULES: dict[str, type[ProgramRule]] = {}


def register_program(rule_class: type[ProgramRule]) -> type[ProgramRule]:
    """Class decorator adding a whole-program rule to the registry."""
    if not rule_class.code:
        raise ValueError(f"rule {rule_class.__name__} has no code")
    if rule_class.code in RULES or rule_class.code in PROGRAM_RULES:
        raise ValueError(f"duplicate rule code {rule_class.code}")
    PROGRAM_RULES[rule_class.code] = rule_class
    return rule_class


def all_rule_codes() -> list[str]:
    """Every registered rule code (file + program), sorted."""
    return sorted([*RULES, *PROGRAM_RULES])


class FileContext:
    """Everything file rules may ask about the file being linted."""

    def __init__(self, relpath: str, source: str, tree: ast.Module,
                 config: LintConfig, suppressions: Suppressions) -> None:
        self.relpath = relpath
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self.config = config
        self.suppressions = suppressions
        #: ancestor nodes of the node currently being visited (outermost first)
        self.stack: list[ast.AST] = []
        self.findings: list[Finding] = []
        #: local name -> fully dotted origin, from every import in the file
        self.imports = _import_table(tree)

    # -- path predicates ------------------------------------------------

    def in_array_core(self) -> bool:
        probe = "/" + self.relpath
        return any(fragment in probe for fragment in self.config.array_core)

    def in_service(self) -> bool:
        probe = "/" + self.relpath
        return any(fragment in probe for fragment in self.config.service_paths)

    def wallclock_allowed(self) -> bool:
        parts = self.relpath.split("/")
        if any(part in self.config.wallclock_allowed_dirs for part in parts):
            return True
        return any(self.relpath.endswith(sfx) for sfx in self.config.wallclock_allowed_files)

    # -- name resolution ------------------------------------------------

    def resolve(self, node: ast.expr) -> str | None:
        """Resolve an attribute/name chain to a dotted origin, if importable.

        ``np.random.default_rng`` resolves to ``numpy.random.default_rng``
        under ``import numpy as np``; a chain whose base is neither imported
        nor a recognised builtin resolves to ``None`` (e.g. a local variable
        called ``rng``), which rules treat as "not my concern".
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        origin = self.imports.get(node.id)
        if origin is None:
            return None
        parts.append(origin)
        return ".".join(reversed(parts))

    def is_builtin(self, node: ast.expr, name: str) -> bool:
        """Whether *node* is a bare reference to the builtin *name*.

        Heuristic: the right name, not rebound by any import. Local
        shadowing is not tracked — acceptable for ``id``/``hash``/``set``.
        """
        return isinstance(node, ast.Name) and node.id == name and name not in self.imports

    # -- reporting ------------------------------------------------------

    def report(self, rule: Rule, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        if self.suppressions.is_suppressed(line, rule.code):
            return
        text = self.lines[line - 1].strip() if 0 < line <= len(self.lines) else ""
        self.findings.append(
            Finding(path=self.relpath, line=line, col=col, code=rule.code,
                    message=message, line_text=text)
        )


def _import_table(tree: ast.Module) -> dict[str, str]:
    table: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    table[alias.asname] = alias.name
                else:
                    # ``import a.b`` binds ``a``; attribute chains then
                    # resolve naturally through the bound root.
                    root = alias.name.split(".")[0]
                    table[root] = root
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:
                continue  # relative imports never reach stdlib/numpy origins
            for alias in node.names:
                if alias.name == "*":
                    continue
                table[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return table


# ---------------------------------------------------------------------------
# per-file pass
# ---------------------------------------------------------------------------


class _ParseFailure(Rule):
    code = "LNT000"
    name = "syntax-error"
    rationale = "a file the linter cannot parse cannot be certified"


@dataclass
class FileState:
    """One file's contribution to the whole-program stages."""

    relpath: str
    lines: list[str]
    suppressions: Suppressions
    findings: list[Finding]
    #: ``None`` when the file failed to parse (LNT000 already reported)
    summary: ModuleSummary | None


def _file_pass(source: str, relpath: str, config: LintConfig,
               select: frozenset[str] | None) -> FileState:
    """Stage 1 for one file: parse, file rules, suppressions, summary."""
    lines = source.splitlines()
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        line = exc.lineno or 1
        finding = Finding(path=relpath, line=line, col=(exc.offset or 1) - 1,
                          code=_ParseFailure.code,
                          message=f"syntax error: {exc.msg}", line_text="")
        return FileState(relpath=relpath, lines=lines,
                         suppressions=Suppressions(), findings=[finding],
                         summary=None)
    suppressions = Suppressions(source)
    ctx = FileContext(relpath, source, tree, config, suppressions)
    rules = [cls() for code, cls in sorted(RULES.items())
             if select is None or code in select]
    handlers: dict[str, list[tuple[Rule, object]]] = {}
    for rule in rules:
        rule.check_module(tree, ctx)
        for attr in dir(rule):
            if attr.startswith("visit_"):
                handlers.setdefault(attr[len("visit_"):], []).append(
                    (rule, getattr(rule, attr))
                )

    def walk(node: ast.AST) -> None:
        for _rule, handler in handlers.get(type(node).__name__, ()):
            handler(node, ctx)  # type: ignore[operator]
        ctx.stack.append(node)
        for child in ast.iter_child_nodes(node):
            walk(child)
        ctx.stack.pop()

    walk(tree)
    summary = summarize_module(tree, relpath, config, suppressions)
    return FileState(relpath=relpath, lines=lines, suppressions=suppressions,
                     findings=sorted(ctx.findings), summary=summary)


# ---------------------------------------------------------------------------
# program pass
# ---------------------------------------------------------------------------


class ProgramContext:
    """Reporting surface handed to whole-program rules."""

    def __init__(self, config: LintConfig,
                 states: dict[str, FileState]) -> None:
        self.config = config
        self.states = states
        self.findings: list[Finding] = []
        #: scratch space for analyses shared between rules (e.g. the taint
        #: fixpoint, computed once and read by both FLOW001 and FLOW002)
        self.shared: dict[str, object] = {}

    def report(self, rule: ProgramRule, relpath: str, line: int, col: int,
               message: str) -> None:
        state = self.states.get(relpath)
        if state is not None and state.suppressions.is_suppressed(line, rule.code):
            return
        text = ""
        if state is not None and 0 < line <= len(state.lines):
            text = state.lines[line - 1].strip()
        self.findings.append(
            Finding(path=relpath, line=line, col=col, code=rule.code,
                    message=message, line_text=text)
        )


def _program_pass(states: dict[str, FileState], config: LintConfig,
                  select: frozenset[str] | None) -> list[Finding]:
    """Stage 2: build the call graph, run every selected program rule."""
    selected = [cls for code, cls in sorted(PROGRAM_RULES.items())
                if select is None or code in select]
    if not selected:
        return []
    program = Program([s.summary for s in states.values()
                       if s.summary is not None])
    ctx = ProgramContext(config, states)
    for cls in selected:
        cls().check_program(program, ctx)
    return sorted(ctx.findings)


# ---------------------------------------------------------------------------
# suppression hygiene (SUP001)
# ---------------------------------------------------------------------------


@register
class UselessSuppression(Rule):
    """Catalogue entry for SUP001; findings are produced by the driver,
    which alone sees the complete (file + program) usage accounting."""

    code = "SUP001"
    name = "useless-suppression"
    rationale = (
        "a disable= comment naming a code that never fires on its line is "
        "dead weight that hides real regressions when the code returns; "
        "suppressions must not rot silently"
    )


def _suppression_findings(states: dict[str, FileState],
                          select: frozenset[str] | None) -> list[Finding]:
    """Stage 3: SUP001 for every ``disable=`` pair that suppressed nothing.

    Only meaningful for codes that actually ran: under ``--select`` a pair
    naming an unselected code is skipped rather than reported (the rule it
    names had no chance to fire), and ``disable=all`` is only judged on
    unrestricted runs.
    """
    if select is not None and "SUP001" not in select:
        return []
    findings: list[Finding] = []
    for relpath in sorted(states):
        state = states[relpath]
        for line, code in state.suppressions.useless():
            if code == "ALL":
                if select is not None:
                    continue
            elif select is not None and code not in select:
                continue
            if state.suppressions.is_suppressed(line, "SUP001"):
                continue
            text = state.lines[line - 1].strip() if 0 < line <= len(state.lines) else ""
            findings.append(
                Finding(path=relpath, line=line, col=0, code="SUP001",
                        message=(f"suppression never fires: no {code} "
                                 "finding is reported on this line"),
                        line_text=text)
            )
    return sorted(findings)


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------


def lint_sources(sources: dict[str, str], config: LintConfig | None = None,
                 select: frozenset[str] | None = None,
                 cache: "object | None" = None) -> list[Finding]:
    """Lint a set of in-memory sources (relpath -> text) as one program."""
    from repro.lint.cache import SummaryCache  # local: avoid import cycle

    config = config or LintConfig()
    states: dict[str, FileState] = {}
    to_store: list[tuple[str, FileState]] = []
    for relpath in sorted(sources):
        source = sources[relpath]
        state: FileState | None = None
        key = ""
        if isinstance(cache, SummaryCache):
            key = cache.key(relpath, source, config, select)
            state = cache.load(key, relpath, source)
        if state is None:
            state = _file_pass(source, relpath, config, select)
            if isinstance(cache, SummaryCache):
                to_store.append((key, state))
        states[relpath] = state
    # Store before the program stages run: the cached suppression-usage must
    # reflect the file pass only (program findings depend on *other* files).
    for key, state in to_store:
        if isinstance(cache, SummaryCache):  # re-narrow for mypy
            cache.store(key, state)
    findings: list[Finding] = []
    for state in states.values():
        findings.extend(state.findings)
    findings.extend(_program_pass(states, config, select))
    findings.extend(_suppression_findings(states, select))
    return sorted(findings)


def lint_source(source: str, relpath: str, config: LintConfig | None = None,
                select: frozenset[str] | None = None) -> list[Finding]:
    """Lint one source string as *relpath* (a single-file program)."""
    return lint_sources({relpath: source}, config, select)


def lint_file(path: str, config: LintConfig | None = None,
              select: frozenset[str] | None = None) -> list[Finding]:
    """Lint one file from disk, reported under its normalised relative path."""
    relpath = _normalise(path)
    return lint_sources({relpath: _read_source(path)}, config, select)


def _read_source(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ReproError(f"cannot read {path!r}: {exc}") from exc


def _normalise(path: str) -> str:
    rel = os.path.relpath(path)
    return rel.replace(os.sep, "/")


def iter_python_files(paths: list[str]) -> list[str]:
    """Expand files/directories into a sorted, deduplicated ``.py`` list.

    The expansion is independent of filesystem enumeration order, and a file
    reachable through two arguments is linted once.
    """
    seen: set[str] = set()
    out: list[str] = []
    for path in paths:
        if os.path.isfile(path):
            candidates = [path]
        elif os.path.isdir(path):
            candidates = []
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(d for d in dirs if d not in ("__pycache__", ".git"))
                candidates.extend(
                    os.path.join(root, f) for f in sorted(files) if f.endswith(".py")
                )
        else:
            raise ReproError(f"no such file or directory: {path!r}")
        for candidate in candidates:
            if not candidate.endswith(".py"):
                continue
            key = _normalise(candidate)
            if key not in seen:
                seen.add(key)
                out.append(candidate)
    return sorted(out, key=_normalise)


def lint_paths(paths: list[str], config: LintConfig | None = None,
               select: frozenset[str] | None = None,
               cache: "object | None" = None) -> list[Finding]:
    """Lint every ``.py`` file under *paths* as one whole program."""
    sources = {_normalise(p): _read_source(p) for p in iter_python_files(paths)}
    return lint_sources(sources, config, select, cache)

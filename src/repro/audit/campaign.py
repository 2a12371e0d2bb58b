"""The audit campaign driver: seeded, budgeted, parallel, reproducible.

A campaign walks the deterministic corpus (:mod:`repro.audit.corpus`) and
runs the full pipeline on every case — generate, anonymize, publish, sample,
attack — checking the certificate, differential, and metamorphic families at
each stage. Case execution fans out through :class:`repro.runtime.ParallelMap`
(one task per case, results in case order), so the report is identical for
any ``--jobs`` value; the one check that itself spawns worker pools
(serial-vs-parallel runtime parity) runs in the parent on a designated case
prefix instead of nesting pools.

On failure the driver shrinks the case's input graph to a 1-minimal
counterexample (:mod:`repro.audit.minimize`) and emits a standalone repro
script next to the JSON report, so a red nightly run hands the next
developer an executable bug instead of a seed.

The JSON report is a pure function of (campaign seed, profile, case budget,
library code): it contains no timestamps or durations. Wall-clock and
runtime statistics go to stderr. Time budgets (``--budget 300s``) trade that
determinism for bounded runtime — the case *prefix* covered is still
deterministic, only its length varies.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

from repro.audit import certificates, differential, metamorphic
from repro.audit.corpus import (
    AdversaryCase,
    AuditCase,
    SequenceCase,
    generate_adversary_graph,
    generate_base_graph,
    generate_delta,
    generate_graph,
    make_adversary_case,
    make_case,
    make_sequence_case,
)
from repro.core.anonymize import anonymize
from repro.core.publication import publication_texts
from repro.core.reference import reference_republish
from repro.core.republish import republish
from repro.graphs.graph import Graph
from repro.runtime import ParallelMap, Stopwatch, resolve_jobs
from repro.utils.rng import derive_seed
from repro.utils.validation import ReproError

#: check names, in the order they run within one case
CASE_CHECKS = (
    "certificate:orbit-size",
    "certificate:insertions-only",
    "certificate:backbone",
    "certificate:sampler",
    "certificate:attack-safety",
    "differential:kernels",
    "differential:refinement",
    "differential:arraycore",
    "metamorphic:relabeling",
)
#: run only when the case's options ask for it (doubles the case cost)
VERDICT_CHECK = "metamorphic:verdicts"
#: runs in the campaign parent (spawns worker pools) on a case prefix
RUNTIME_CHECK = "differential:runtime"
#: check names for release-sequence cases, in order
SEQUENCE_CHECKS = (
    "sequence:engine-parity",
    "sequence:composition",
)
#: check names for adversary-arena cases (adv:* families); the kl pair runs
#: for adjacency/multiset models, the sybil pair for the sybil model
ADVERSARY_CHECKS = (
    "adversary:kl-certificate",
    "adversary:kl-oracle-parity",
    "adversary:sybil-certificate",
    "adversary:sybil-oracle-parity",
)

PROFILES = {
    "quick": {"cases": 16, "verdict_every": 4, "n_samples": 2,
              "runtime_parity_cases": 2, "sequence_cases": 4,
              "adversary_cases": 6},
    "nightly": {"cases": 400, "verdict_every": 2, "n_samples": 3,
                "runtime_parity_cases": 4, "sequence_cases": 60,
                "adversary_cases": 90},
}


@dataclass(frozen=True)
class CheckFailure:
    """One failed check: which certificate broke and how."""

    check: str
    detail: str

    def as_dict(self) -> dict:
        return {"check": self.check, "detail": self.detail}


@dataclass
class CaseReport:
    """Everything one case contributed to the campaign."""

    case: AuditCase | SequenceCase | AdversaryCase
    n: int
    m: int
    checks_run: list[str]
    failures: list[CheckFailure]

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return {
            "index": self.case.index,
            "family": self.case.family,
            "seed": self.case.seed,
            "k": self.case.k,
            "copy_unit": self.case.copy_unit,
            "n": self.n,
            "m": self.m,
            "checks_run": list(self.checks_run),
            "failures": [f.as_dict() for f in self.failures],
        }


def failures_for_graph(
    graph: Graph,
    k: int,
    copy_unit: str = "orbit",
    case_seed: int = 0,
    verdict_invariance: bool = False,
    n_samples: int = 2,
    include_runtime: bool = False,
) -> tuple[list[CheckFailure], list[str]]:
    """Run every per-case check on one input graph.

    This is the shared evaluation core: the campaign workers, the failure
    minimizer, and every emitted repro script call exactly this function, so
    "the failure reproduces" means the same thing in all three places.
    Returns ``(failures, names of checks that ran)``. A check that raises is
    reported as a ``crash:`` failure rather than aborting the sweep — a
    fuzzer treats crashes as findings.

    *include_runtime* adds the serial-vs-parallel parity check, which spawns
    worker pools; leave it off inside process-pool workers.
    """
    failures: list[CheckFailure] = []
    ran: list[str] = []

    try:
        result = anonymize(graph, k, copy_unit=copy_unit)
    except Exception as exc:  # noqa: BLE001 - crashes are findings
        return [CheckFailure("crash:anonymize", repr(exc))], ["crash:anonymize"]

    sampler_seed = derive_seed(case_seed, "sampler")
    relabel_seed = derive_seed(case_seed, "relabel")
    checks = {
        "certificate:orbit-size": lambda: certificates.check_orbit_size(result),
        "certificate:insertions-only": lambda: certificates.check_insertions_only(result, graph),
        "certificate:backbone": lambda: certificates.check_backbone_invariance(result),
        "certificate:sampler": lambda: certificates.check_sampler_consistency(
            result, seed=sampler_seed, n_samples=n_samples
        ),
        "certificate:attack-safety": lambda: certificates.check_attack_safety(result),
        "differential:kernels": lambda: differential.check_kernel_parity(result.graph),
        "differential:refinement": lambda: (
            differential.check_refinement_parity(result.graph)
            + differential.check_refinement_parity(result.graph, initial=result.partition)
        ),
        "differential:arraycore": lambda: differential.check_arraycore_parity(
            graph, k, copy_unit=copy_unit, seed=case_seed
        ),
        "metamorphic:relabeling": lambda: metamorphic.check_relabeling_invariance(
            graph, result, relabel_seed
        ),
    }
    if verdict_invariance:
        checks[VERDICT_CHECK] = lambda: metamorphic.check_verdict_invariance(
            graph, result, relabel_seed
        )
    if include_runtime and graph.n > 0:
        checks[RUNTIME_CHECK] = lambda: differential.check_runtime_parity(
            result.graph, result.partition, result.original_n, seed=sampler_seed
        )

    for name, check in checks.items():
        ran.append(name)
        try:
            messages = check()
        except Exception as exc:  # noqa: BLE001 - crashes are findings
            failures.append(CheckFailure(f"crash:{name}", repr(exc)))
            continue
        failures.extend(CheckFailure(name, message) for message in messages)
    return failures, ran


def _run_case(task: tuple) -> CaseReport:
    """One campaign case (module-level so it ships to worker processes)."""
    case, options = task
    graph = generate_graph(case)
    failures, ran = failures_for_graph(
        graph,
        k=case.k,
        copy_unit=case.copy_unit,
        case_seed=case.seed,
        verdict_invariance=bool(options["verdict_every"])
        and case.index % options["verdict_every"] == 0,
        n_samples=options["n_samples"],
    )
    return CaseReport(case=case, n=graph.n, m=graph.m, checks_run=ran, failures=failures)


def failures_for_sequence(case: SequenceCase) -> tuple[list[CheckFailure], list[str]]:
    """Run the release-sequence checks on one two-release history.

    Release 0 anonymizes the case's base graph; the delta grows the
    published graph; the release must publish the same bytes as the global
    recomputation oracle :func:`repro.core.reference.reference_republish`,
    and must satisfy the composition certificate.
    """
    failures: list[CheckFailure] = []
    ran: list[str] = []
    base = generate_base_graph(case)
    try:
        previous = anonymize(base, case.k, method=case.method,
                             copy_unit=case.copy_unit)
        delta = generate_delta(case, previous.graph)
        release = republish(previous, delta, k=case.k1, method=case.method)
        oracle = reference_republish(
            *previous.published(), delta, case.k1,
            method=case.method, copy_unit=case.copy_unit)
    except Exception as exc:  # noqa: BLE001 - crashes are findings
        return [CheckFailure("crash:republish", repr(exc))], ["crash:republish"]

    def engine_parity() -> list[str]:
        ours = publication_texts(*release.published())
        expected = publication_texts(
            oracle.graph, oracle.to_partition(),
            previous.original_n + delta.n_vertices)
        messages = []
        for name, a, b in zip(("edges", "partition", "meta"), ours, expected):
            if a != b:
                messages.append(
                    f"republish and the reference oracle disagree on the "
                    f"published .{name} ({case.describe()})"
                )
        return messages

    checks = {
        "sequence:engine-parity": engine_parity,
        "sequence:composition": lambda: certificates.check_sequential_composition(
            release
        ),
    }
    for name, check in checks.items():
        ran.append(name)
        try:
            messages = check()
        except Exception as exc:  # noqa: BLE001 - crashes are findings
            failures.append(CheckFailure(f"crash:{name}", repr(exc)))
            continue
        failures.extend(CheckFailure(name, message) for message in messages)
    return failures, ran


def _run_sequence_case(task: tuple) -> CaseReport:
    """One release-sequence case (module-level so it ships to workers)."""
    case, _options = task
    graph = generate_base_graph(case)
    failures, ran = failures_for_sequence(case)
    return CaseReport(case=case, n=graph.n, m=graph.m, checks_run=ran, failures=failures)


def failures_for_adversary(case: AdversaryCase) -> tuple[list[CheckFailure], list[str]]:
    """Run the adversary-arena checks for one case's attack model.

    ``adjacency``/``multiset`` cases anonymize the base graph and run the
    pseudonymous (k,ℓ)-certificate, then (small graphs only) pin the fast
    sweep and unlocated candidate set byte-for-byte against the exhaustive
    oracles of :mod:`repro.attacks.reference`. ``sybil`` cases run the
    sybil-resistance certificate and the recovery/re-identification oracle
    parity on the naive (identity) release of the grown graph.
    """
    from repro.attacks import adjacency, reference, sybil

    failures: list[CheckFailure] = []
    ran: list[str] = []
    graph = generate_adversary_graph(case)
    try:
        result = anonymize(graph, case.k, copy_unit=case.copy_unit)
    except Exception as exc:  # noqa: BLE001 - crashes are findings
        return [CheckFailure("crash:anonymize", repr(exc))], ["crash:anonymize"]

    def kl_certificate() -> list[str]:
        return certificates.check_kl_anonymity(result, ell=case.ell)

    def kl_oracle_parity() -> list[str]:
        if not 0 < graph.n <= reference.ORACLE_MAX_N:
            return []
        messages = []
        fast = adjacency.kl_anonymity_report(graph, case.ell, kind=case.model)
        oracle = reference.kl_anonymity_oracle(graph, case.ell, kind=case.model)
        if fast != oracle:
            messages.append(
                f"kl sweep diverges from the oracle: {fast!r} != {oracle!r}"
            )
        order = graph.sorted_vertices()
        if len(order) > case.ell:
            attackers = tuple(order[: case.ell])
            target = order[case.ell]
            for located in (True, False):
                ours = adjacency.kl_candidate_set(
                    graph, attackers, target, kind=case.model, located=located
                )
                ref = reference.kl_candidate_set_oracle(
                    graph, attackers, target, kind=case.model, located=located
                )
                if ours != ref:
                    messages.append(
                        f"kl candidate set (located={located}) diverges from "
                        f"the oracle: {ours!r} != {ref!r}"
                    )
        return messages

    def sybil_certificate() -> list[str]:
        return certificates.check_sybil_resistance(
            result, seed=case.seed, n_targets=case.n_targets,
            n_sybils=case.n_sybils,
        )

    def sybil_oracle_parity() -> list[str]:
        if graph.n == 0:
            return []
        targets = graph.sorted_vertices()[: min(case.n_targets, graph.n)]
        grown, plan = sybil.plant_sybils(
            graph, targets, n_sybils=case.n_sybils, rng=case.seed
        )
        if grown.n > reference.ORACLE_MAX_N + 4:
            return []
        messages = []
        fast = sybil.recover_sybil_tuples(grown, plan)
        oracle = reference.recover_sybil_tuples_oracle(grown, plan)
        if fast != oracle:
            messages.append(
                f"sybil recovery diverges from the oracle: "
                f"{len(fast)} vs {len(oracle)} placements"
            )
        elif sybil.reidentify_targets(grown, plan, fast) != (
            reference.reidentify_targets_oracle(grown, plan, oracle)
        ):
            messages.append("sybil re-identification diverges from the oracle")
        return messages

    if case.model == "sybil":
        checks = {
            "adversary:sybil-certificate": sybil_certificate,
            "adversary:sybil-oracle-parity": sybil_oracle_parity,
        }
    else:
        checks = {
            "adversary:kl-certificate": kl_certificate,
            "adversary:kl-oracle-parity": kl_oracle_parity,
        }
    for name, check in checks.items():
        ran.append(name)
        try:
            messages = check()
        except Exception as exc:  # noqa: BLE001 - crashes are findings
            failures.append(CheckFailure(f"crash:{name}", repr(exc)))
            continue
        failures.extend(CheckFailure(name, message) for message in messages)
    return failures, ran


def _run_adversary_case(task: tuple) -> CaseReport:
    """One adversary-arena case (module-level so it ships to workers)."""
    case, _options = task
    graph = generate_adversary_graph(case)
    failures, ran = failures_for_adversary(case)
    return CaseReport(case=case, n=graph.n, m=graph.m, checks_run=ran, failures=failures)


@dataclass
class CampaignReport:
    """A full campaign: configuration, per-case outcomes, shrunk failures."""

    seed: int
    profile: str
    budget: str
    case_reports: list[CaseReport] = field(default_factory=list)
    minimized: list[dict] = field(default_factory=list)
    #: non-deterministic bookkeeping (wall time, executor stats); never
    #: serialized into the JSON report, printed to stderr instead
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return all(report.ok for report in self.case_reports)

    @property
    def n_failures(self) -> int:
        return sum(len(report.failures) for report in self.case_reports)

    def check_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for report in self.case_reports:
            for name in report.checks_run:
                counts[name] = counts.get(name, 0) + 1
        return counts

    def as_dict(self) -> dict:
        return {
            "meta": {
                "seed": self.seed,
                "profile": self.profile,
                "budget": self.budget,
                "families": sorted({r.case.family for r in self.case_reports}),
            },
            "summary": {
                "cases": len(self.case_reports),
                "failures": self.n_failures,
                "ok": self.ok,
                "checks": self.check_counts(),
            },
            "cases": [report.as_dict() for report in self.case_reports],
            "failures": [
                {"index": report.case.index, **failure.as_dict()}
                for report in self.case_reports
                for failure in report.failures
            ],
            "minimized": list(self.minimized),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"

    def describe(self) -> str:
        counts = self.check_counts()
        families = ", ".join(f"{name}={count}" for name, count in sorted(counts.items()))
        status = "ok" if self.ok else f"{self.n_failures} FAILURES"
        return (
            f"audit campaign seed={self.seed} profile={self.profile} "
            f"budget={self.budget}: {len(self.case_reports)} cases, {status}\n"
            f"  checks: {families}"
        )


def parse_budget(text: str | None) -> tuple[str, float] | None:
    """``"300s"`` -> ('seconds', 300.0); ``"50"`` -> ('cases', 50)."""
    if text is None:
        return None
    raw = text.strip().lower()
    try:
        if raw.endswith("s"):
            seconds = float(raw[:-1])
            if seconds <= 0:
                raise ValueError
            return ("seconds", seconds)
        cases = int(raw)
        if cases <= 0:
            raise ValueError
        return ("cases", float(cases))
    except ValueError:
        raise ReproError(
            f"invalid budget {text!r}; expected a case count like '50' "
            "or a time budget like '300s'"
        ) from None


def run_campaign(
    seed: int,
    profile: str = "quick",
    budget: str | None = None,
    jobs: int | None = None,
    minimize: bool = True,
    log=None,
) -> CampaignReport:
    """Run one audit campaign; returns the full report (writes nothing).

    *budget* overrides the profile's case count — either a case count
    (``"50"``) or a wall-clock budget (``"300s"``), after which no new wave
    of cases starts. *log* is a writable stream for progress lines (default:
    stderr; pass ``False`` to silence).
    """
    if profile not in PROFILES:
        raise ReproError(f"unknown profile {profile!r}; expected one of {sorted(PROFILES)}")
    options = dict(PROFILES[profile])
    parsed = parse_budget(budget)
    budget_seconds = None
    max_cases = options["cases"]
    sequence_total = options.get("sequence_cases", 0)
    adversary_total = options.get("adversary_cases", 0)
    if parsed is not None:
        kind, amount = parsed
        if kind == "cases":
            # An explicit case count bounds the *total* across all corpus
            # streams; keep the profile's graph/sequence/adversary split,
            # rounding the side-stream shares down so tiny budgets stay
            # all-graph.
            total = int(amount)
            profile_total = options["cases"] + sequence_total + adversary_total
            sequence_total = min(
                sequence_total, total * sequence_total // profile_total
            )
            adversary_total = min(
                adversary_total, total * adversary_total // profile_total
            )
            max_cases = total - sequence_total - adversary_total
        else:
            budget_seconds = amount
            max_cases = 10**9  # time-bounded: the corpus is effectively endless
    stream = sys.stderr if log is None else log

    def say(message: str) -> None:
        if stream:
            print(message, file=stream)

    watch = Stopwatch()
    n_jobs = resolve_jobs(jobs)
    executor = ParallelMap(n_jobs)
    wave_size = max(4, 2 * n_jobs)
    report = CampaignReport(
        seed=seed,
        profile=profile,
        budget=budget
        or f"{options['cases'] + sequence_total + adversary_total} cases",
    )

    next_index = 0
    while next_index < max_cases:
        if budget_seconds is not None and watch.exceeded(budget_seconds):
            say(f"audit: time budget reached after {next_index} cases")
            break
        wave = [
            (make_case(seed, index), options)
            for index in range(next_index, min(next_index + wave_size, max_cases))
        ]
        next_index += len(wave)
        report.case_reports.extend(executor.map(_run_case, wave))
        failed = sum(0 if r.ok else 1 for r in report.case_reports)
        say(
            f"audit: {len(report.case_reports)} cases done"
            + (f", {failed} failing" if failed else "")
        )

    # Release-sequence cases: a separate corpus stream (seq:* families), so
    # existing case indices keep their graphs; same executor fan-out.
    next_seq = 0
    while next_seq < sequence_total:
        if budget_seconds is not None and watch.exceeded(budget_seconds):
            say(f"audit: time budget reached after {next_seq} sequence cases")
            break
        wave = [
            (make_sequence_case(seed, index), options)
            for index in range(next_seq, min(next_seq + wave_size, sequence_total))
        ]
        next_seq += len(wave)
        report.case_reports.extend(executor.map(_run_sequence_case, wave))
        failed = sum(0 if r.ok else 1 for r in report.case_reports)
        say(
            f"audit: {next_seq}/{sequence_total} sequence cases done"
            + (f", {failed} failing overall" if failed else "")
        )

    # Adversary-arena cases: a third corpus stream (adv:* families) probing
    # the related-work attack models; same executor fan-out.
    next_adv = 0
    while next_adv < adversary_total:
        if budget_seconds is not None and watch.exceeded(budget_seconds):
            say(f"audit: time budget reached after {next_adv} adversary cases")
            break
        wave = [
            (make_adversary_case(seed, index), options)
            for index in range(next_adv, min(next_adv + wave_size, adversary_total))
        ]
        next_adv += len(wave)
        report.case_reports.extend(executor.map(_run_adversary_case, wave))
        failed = sum(0 if r.ok else 1 for r in report.case_reports)
        say(
            f"audit: {next_adv}/{adversary_total} adversary cases done"
            + (f", {failed} failing overall" if failed else "")
        )

    # Serial-vs-parallel runtime parity on a designated case prefix, in the
    # parent (this check spawns pools of its own; see check_runtime_parity).
    for case_report in report.case_reports[: options["runtime_parity_cases"]]:
        case = case_report.case
        if not isinstance(case, AuditCase):
            continue
        graph = generate_graph(case)
        try:
            result = anonymize(graph, case.k, copy_unit=case.copy_unit)
            messages = differential.check_runtime_parity(
                result.graph, result.partition, result.original_n,
                seed=derive_seed(case.seed, "sampler"),
            )
        except Exception as exc:  # noqa: BLE001 - crashes are findings
            messages = [f"crashed: {exc!r}"]
        case_report.checks_run.append(RUNTIME_CHECK)
        case_report.failures.extend(CheckFailure(RUNTIME_CHECK, m) for m in messages)

    if minimize and not report.ok:
        from repro.audit.minimize import minimize_failure

        shrunk_budget = 5  # shrink at most this many failing cases per campaign
        for case_report in report.case_reports:
            if case_report.ok or shrunk_budget <= 0:
                continue
            if not isinstance(case_report.case, AuditCase):
                continue  # sequence cases are addressable by index; no shrinker yet
            shrunk_budget -= 1
            case = case_report.case
            target = case_report.failures[0]
            say(f"audit: shrinking {case.describe()} for {target.check!r} ...")
            outcome = minimize_failure(
                generate_graph(case),
                target.check,
                k=case.k,
                copy_unit=case.copy_unit,
                case_seed=case.seed,
                n_samples=options["n_samples"],
            )
            report.minimized.append(
                {
                    "index": case.index,
                    "check": target.check,
                    "k": case.k,
                    "copy_unit": case.copy_unit,
                    "case_seed": case.seed,
                    "original": {"n": case_report.n, "m": case_report.m},
                    "shrunk": {"n": outcome.graph.n, "m": outcome.graph.m},
                    "evaluations": outcome.evaluations,
                    "vertices": outcome.graph.sorted_vertices(),
                    "edges": outcome.graph.sorted_edges(),
                }
            )

    report.wall_seconds = watch.elapsed()
    return report

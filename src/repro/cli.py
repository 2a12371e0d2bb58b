"""Command-line interface: ``ksymmetry <command>``.

Commands
--------
anonymize   read an edge list, publish a k-symmetric (or hub-excluding)
            version: writes ``<out>.edges``, ``<out>.partition`` and
            ``<out>.meta`` (the triple the paper's publisher releases)
republish   grow a previous publication by an insertions-only delta and
            re-anonymize incrementally (sequential-release safe: previous
            cells carry over verbatim, so composing the two releases still
            guarantees k)
sample      read a publication produced by ``anonymize`` and draw sample
            graphs for analysis
stats       Table 1-style statistics (plus orbit structure) of an edge list
attack      run a re-identification attack against an edge list; ``--model``
            selects the adversary (hierarchy measures, (k,l)-adjacency or
            multiset sweeps, active sybil planting, two-release composition)
experiment  run one of the paper's experiments (table1, figure2, figure8,
            figure9, figure10, figure11, all)
lint        run the repository's determinism & invariant linter, including
            the whole-program privacy-taint / determinism / async-hazard
            analysis (alias of ``python -m repro.lint``; exits 0 clean,
            1 findings, 2 usage error)
serve       run ksymmetryd, the anonymization-as-a-service daemon (publish /
            sample / attack-audit over HTTP with batching, caching, and
            per-tenant reproducibility; see docs/service.md)
"""

from __future__ import annotations

import argparse
import sys

from repro.attacks.adjacency import kl_anonymity_report, kl_candidate_set
from repro.attacks.knowledge import MEASURES
from repro.attacks.reidentify import simulate_attack
from repro.attacks.sequential import sequential_attack
from repro.attacks.sybil import sybil_attack
from repro.core.anonymize import anonymize
from repro.core.fsymmetry import anonymize_f, hub_exclusion_by_fraction
from repro.core.publication import load_publication, save_publication
from repro.core.sampling import sample_many
from repro.datasets.synthetic import dataset_statistics
from repro.graphs.graph import Graph
from repro.graphs.io import read_edge_list, write_edge_list
from repro.isomorphism.canonical import certificate_digest
from repro.isomorphism.orbits import automorphism_partition
from repro.utils.validation import ReproError


def _read_graph(path: str) -> Graph:
    return read_edge_list(path)


def cmd_anonymize(args: argparse.Namespace) -> int:
    graph = _read_graph(args.input)
    if args.exclude_hubs > 0:
        requirement = hub_exclusion_by_fraction(args.k, graph, args.exclude_hubs)
        result = anonymize_f(graph, requirement, method=args.method, copy_unit=args.copy_unit)
    else:
        result = anonymize(graph, args.k, method=args.method, copy_unit=args.copy_unit)
    save_publication(result, args.out)
    print(f"published {args.out}.edges / .partition / .meta")
    print(f"  vertices: {result.original_graph.n} -> {result.graph.n} (+{result.vertices_added})")
    print(f"  edges:    {result.original_graph.m} -> {result.graph.m} (+{result.edges_added})")
    return 0


def cmd_republish(args: argparse.Namespace) -> int:
    from repro.core.publication import save_publication_triple
    from repro.core.republish import read_delta, republish_published

    graph, partition, original_n = load_publication(args.publication)
    delta = read_delta(args.delta)
    result = republish_published(
        graph, partition, original_n, delta, args.k,
        method=args.method, copy_unit=args.copy_unit)
    save_publication_triple(
        *result.published(), args.out,
        extra={
            "k": result.k,
            "copy_unit": result.copy_unit,
            "closure_edges": result.closure_edges,
            "delta_vertices": delta.n_vertices,
            "delta_edges": delta.n_edges,
            "vertices_added": result.vertices_added,
            "edges_added": result.edges_added,
        })
    print(f"republished {args.out}.edges / .partition / .meta")
    print(f"  delta:    +{delta.n_vertices}v +{delta.n_edges}e "
          f"(+{result.closure_edges} closure edges)")
    print(f"  vertices: {result.previous_graph.n} -> {result.graph.n} "
          f"(+{result.vertices_added} copies)")
    print(f"  edges:    {result.previous_graph.m} -> {result.graph.m}")
    print(f"  cells:    {len(result.previous_partition)} -> "
          f"{len(result.partition)} (previous cells carried verbatim)")
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    graph, partition, original_n = load_publication(args.publication)
    run_stats: list = []
    samples = sample_many(
        graph, partition, original_n, args.count,
        strategy=args.strategy, rng=args.seed, jobs=args.jobs,
        stats=run_stats,
    )
    for i, sample in enumerate(samples):
        path = f"{args.out}.{i}.edges"
        write_edge_list(sample, path)
        print(f"wrote {path} ({sample.n} vertices, {sample.m} edges)")
    if run_stats:
        print(f"# {run_stats[0].describe()}", file=sys.stderr)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    graph = _read_graph(args.input)
    stats = dataset_statistics(args.input, graph)
    print(f"vertices:       {stats.n_vertices}")
    print(f"edges:          {stats.n_edges}")
    print(f"degree min/med/avg/max: {stats.min_degree}/{stats.median_degree}"
          f"/{stats.average_degree}/{stats.max_degree}")
    if not args.no_orbits:
        orbits = automorphism_partition(graph, method=args.method).orbits
        nontrivial = [c for c in orbits.cells if len(c) > 1]
        covered = sum(len(c) for c in nontrivial)
        print(f"orbits:         {len(orbits)} ({len(nontrivial)} non-trivial, "
              f"covering {covered} vertices)")
        print(f"min orbit size: {orbits.min_cell_size()} "
              f"(the graph is {orbits.min_cell_size()}-symmetric as-is)")
        digest = certificate_digest(graph)
        print(f"certificate:    sha256:{digest} (isomorphism-invariant "
              "content key; ksymmetryd's cache address)")
    return 0


def _parse_vertex(text: str):
    return int(text) if text.lstrip("-").isdigit() else text


def _parse_vertex_list(text: str) -> list:
    return [_parse_vertex(part) for part in text.split(",") if part]


def _preview(candidates) -> str:
    shown = list(candidates)[:20]
    return f"{shown}{' ...' if len(candidates) > 20 else ''}"


def cmd_attack(args: argparse.Namespace) -> int:
    graph = _read_graph(args.input)
    model = args.model
    if model == "hierarchy":
        if args.target is None:
            raise ReproError("attack --model hierarchy needs a target vertex")
        outcome = simulate_attack(
            graph, _parse_vertex(args.target), args.measure, jobs=args.jobs
        )
        print(f"measure {outcome.measure_name}: observed value {outcome.observed_value!r}")
        print(f"candidates ({len(outcome.candidates)}): {_preview(outcome.candidates)}")
        print(f"re-identification probability: {outcome.success_probability:.4f}")
    elif model in ("adjacency", "multiset"):
        if args.attackers:
            if args.target is None:
                raise ReproError("targeted (k,l) attack needs a target vertex")
            attackers = _parse_vertex_list(args.attackers)
            target = _parse_vertex(args.target)
            located = kl_candidate_set(graph, attackers, target, kind=model)
            unlocated = kl_candidate_set(
                graph, attackers, target, kind=model, located=False
            )
            print(f"(k,{len(attackers)})-{model} attack on target {target!r} "
                  f"with attackers {attackers}")
            print(f"located candidates   ({len(located)}): {_preview(located)}")
            print(f"unlocated candidates ({len(unlocated)}): {_preview(unlocated)}")
        else:
            report = kl_anonymity_report(graph, args.ell, kind=model, jobs=args.jobs)
            print(f"(k,{report.ell})-{report.kind} sweep over "
                  f"{report.n_subsets} attacker placements")
            if report.vacuous:
                print(f"vacuous: anonymity {report.anonymity} "
                      "(no placement leaves a victim)")
            else:
                print(f"minimum anonymity: {report.anonymity}")
                print(f"worst attackers:   {list(report.attackers)}")
    elif model == "sybil":
        if not args.targets:
            raise ReproError(
                "attack --model sybil needs --targets (comma-separated victim ids)"
            )
        outcome = sybil_attack(
            graph,
            _parse_vertex_list(args.targets),
            publisher=args.publisher,
            k=args.k,
            rng=args.seed,
            n_sybils=args.sybils,
            jobs=args.jobs,
        )
        print(f"sybil attack against the {outcome.publisher} publisher: "
              f"{outcome.plan.n_sybils} sybils, "
              f"{len(outcome.recoveries)} recovered placements")
        for report in outcome.reports:
            verdict = ("RE-IDENTIFIED" if report.re_identified
                       else "exposed" if report.exposed else "misled")
            print(f"  target {report.target!r}: {report.anonymity} candidates "
                  f"[{verdict}] {_preview(report.candidates)}")
    else:  # sequential
        if args.previous is None:
            raise ReproError(
                "attack --model sequential needs --previous (release-0 edge list)"
            )
        if args.target is None:
            raise ReproError("attack --model sequential needs a target vertex")
        release0 = _read_graph(args.previous)
        outcome = sequential_attack(
            release0, graph, _parse_vertex(args.target), args.measure, jobs=args.jobs
        )
        print(f"composed attack with measure {outcome.measure_name} "
              f"({'fresh' if outcome.fresh_target else 'persistent'} target)")
        print(f"release-0 candidates ({len(outcome.release0_candidates)}): "
              f"{_preview(outcome.release0_candidates)}")
        print(f"release-1 candidates ({len(outcome.release1_candidates)}): "
              f"{_preview(outcome.release1_candidates)}")
        print(f"composed candidates  ({len(outcome.composed)}): "
              f"{_preview(outcome.composed)}")
        print(f"re-identification probability: {outcome.success_probability:.4f}")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import (
        run_all,
        run_figure2,
        run_figure8,
        run_figure9,
        run_figure10,
        run_figure11,
        run_table1,
    )
    from repro.experiments.common import ExperimentContext

    if args.name == "all":
        run_all(profile=args.profile, out_dir=args.out, seed=args.seed, jobs=args.jobs)
        return 0
    runners = {
        "table1": run_table1, "figure2": run_figure2, "figure8": run_figure8,
        "figure9": run_figure9, "figure10": run_figure10, "figure11": run_figure11,
    }
    context = ExperimentContext(profile=args.profile, seed=args.seed, jobs=args.jobs)
    print(runners[args.name](context).render())
    return 0


def cmd_orbits(args: argparse.Namespace) -> int:
    graph = _read_graph(args.input)
    orbits = automorphism_partition(graph, method=args.method).orbits
    for cell in orbits.cells:
        if len(cell) > 1 or args.all:
            print(" ".join(str(v) for v in cell))
    nontrivial = sum(1 for c in orbits.cells if len(c) > 1)
    print(f"# {len(orbits)} orbits, {nontrivial} non-trivial; "
          f"anonymity floor: {orbits.min_cell_size()}", file=sys.stderr)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.baselines.kdegree import k_degree_anonymize
    from repro.baselines.levels import anonymity_report
    from repro.baselines.perturbation import random_perturbation

    graph = _read_graph(args.input)
    k = args.k

    def report_line(label: str, g, cost: str) -> None:
        report = anonymity_report(g)
        print(f"{label:<22} {cost:<20} degree={report.degree_level:<4} "
              f"neighborhood={report.neighborhood_level:<4} "
              f"combined={report.combined_level:<4} floor={report.symmetry_level}")

    report_line("naive release", graph, "-")
    kd = k_degree_anonymize(graph, k)
    report_line("k-degree", kd.graph, f"+{kd.edges_added}e")
    noise = max(1, graph.m // 10)
    rp = random_perturbation(graph, noise, noise, rng=args.seed)
    report_line("perturbation", rp.graph, f"~{2 * noise}e changed")
    ks = anonymize(graph, k)
    report_line("k-symmetry", ks.graph, f"+{ks.vertices_added}v +{ks.edges_added}e")
    return 0


def cmd_lint(argv: list[str]) -> int:
    # The linter's own front end parses the raw arguments: its parser owns
    # the flags, the exit-code contract (0 clean / 1 findings / 2 usage
    # error) and eager validation, so usage errors keep exit 2.
    from repro.lint import main as lint_main

    return lint_main(argv)


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import ServiceConfig, run

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        cache_entries=args.cache_size,
        cache_spill_dir=args.cache_spill_dir,
        max_queue=args.max_queue,
        max_batch=args.max_batch,
        request_timeout=args.request_timeout,
    )
    return run(config)


def cmd_audit(args: argparse.Namespace) -> int:
    from repro.experiments.report import audit_results, render_audit

    criteria = audit_results(args.results)
    print(render_audit(criteria))
    return 0 if all(c.passed for c in criteria) else 1


def _add_jobs_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for the parallel runtime (0 = all CPUs; "
             "default: serial). Results are identical for any value.",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ksymmetry", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("anonymize", help="publish a k-symmetric version of an edge list")
    p.add_argument("input", help="edge-list file")
    p.add_argument("-k", type=int, default=5)
    p.add_argument("--out", default="published", help="output prefix")
    p.add_argument("--method", choices=("exact", "stabilization"), default="exact")
    p.add_argument("--copy-unit", choices=("orbit", "component"), default="orbit")
    p.add_argument("--exclude-hubs", type=float, default=0.0, metavar="FRACTION",
                   help="exclude the top FRACTION of vertices by degree (f-symmetry)")
    p.set_defaults(func=cmd_anonymize)

    p = sub.add_parser("republish",
                       help="grow a publication by an insertions-only delta "
                            "and re-anonymize (sequential-release safe)")
    p.add_argument("publication", help="prefix written by 'anonymize' or a "
                                       "previous 'republish'")
    p.add_argument("delta", help="delta file: 'add-vertex <id>' / "
                                 "'add-edge <u> <v>' lines")
    p.add_argument("-k", type=int, default=5)
    p.add_argument("--out", default="republished", help="output prefix")
    p.add_argument("--method", choices=("exact", "stabilization"), default="exact")
    p.add_argument("--copy-unit", choices=("orbit", "component"), default="orbit")
    p.set_defaults(func=cmd_republish)

    p = sub.add_parser("sample", help="draw sample graphs from a publication")
    p.add_argument("publication", help="prefix written by 'anonymize'")
    p.add_argument("--count", type=int, default=5)
    p.add_argument("--strategy", choices=("approximate", "exact"), default="approximate")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="sample", help="output prefix")
    _add_jobs_flag(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("stats", help="statistics and orbit structure of an edge list")
    p.add_argument("input")
    p.add_argument("--method", choices=("exact", "stabilization"), default="exact")
    p.add_argument("--no-orbits", action="store_true")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("attack", help="run a re-identification attack")
    p.add_argument("input")
    p.add_argument("target", nargs="?",
                   help="target vertex (hierarchy/sequential and targeted "
                        "(k,l) modes)")
    p.add_argument("--model",
                   choices=("hierarchy", "adjacency", "multiset", "sybil",
                            "sequential"),
                   default="hierarchy",
                   help="adversary model (default: the paper's measure "
                        "hierarchy)")
    p.add_argument("--measure", choices=sorted(MEASURES), default="combined")
    p.add_argument("--ell", type=int, default=1,
                   help="attacker budget for the (k,l) sweep (default 1)")
    p.add_argument("--attackers",
                   help="comma-separated attacker vertex ids: run a targeted "
                        "(k,l) attack instead of the sweep")
    p.add_argument("--targets",
                   help="comma-separated victim ids for --model sybil")
    p.add_argument("--sybils", type=int,
                   help="sybil count (default: smallest feasible)")
    p.add_argument("--publisher", choices=("naive", "ksymmetry"),
                   default="ksymmetry",
                   help="publisher the sybil attack runs against")
    p.add_argument("--k", type=int, default=2,
                   help="anonymity threshold for the ksymmetry publisher")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the sybil plant")
    p.add_argument("--previous",
                   help="release-0 edge list for --model sequential "
                        "(input is release 1)")
    _add_jobs_flag(p)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("experiment", help="run a paper experiment")
    p.add_argument("name", choices=("table1", "figure2", "figure8", "figure9",
                                    "figure10", "figure11", "all"))
    p.add_argument("--profile", choices=("quick", "full"), default="full")
    p.add_argument("--seed", type=int, default=2010)
    p.add_argument("--out", default="results")
    _add_jobs_flag(p)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("audit", help="check saved experiment results against the paper's claims")
    p.add_argument("results", nargs="?", default="results")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("orbits", help="print the automorphism partition of an edge list")
    p.add_argument("input")
    p.add_argument("--method", choices=("exact", "stabilization"), default="exact")
    p.add_argument("--all", action="store_true", help="print singleton orbits too")
    p.set_defaults(func=cmd_orbits)

    # no flags of its own: main() hands everything after "lint" to the linter
    p = sub.add_parser("lint", add_help=False,
                       help="AST-based determinism & invariant linter (alias "
                            "of 'python -m repro.lint')")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("compare",
                       help="measure anonymity levels of baseline mechanisms side by side")
    p.add_argument("input")
    p.add_argument("-k", type=int, default=3)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_compare)

    # The daemon's config is the one source of the serve defaults.
    from repro.service import ServiceConfig

    defaults = ServiceConfig()
    p = sub.add_parser("serve",
                       help="run ksymmetryd, the anonymization-as-a-service "
                            "daemon (see docs/service.md)")
    p.add_argument("--host", default=defaults.host)
    p.add_argument("--port", type=int, default=defaults.port,
                   help="TCP port (0 = ephemeral; the bound port is printed "
                        "on startup)")
    _add_jobs_flag(p)
    p.add_argument("--cache-size", type=int, default=defaults.cache_entries,
                   metavar="ENTRIES", help="artifact cache capacity (LRU)")
    p.add_argument("--cache-spill-dir", default=defaults.cache_spill_dir, metavar="DIR",
                   help="spill evicted artifacts to DIR and reload on miss")
    p.add_argument("--max-queue", type=int, default=defaults.max_queue,
                   help="bounded scheduler queue; beyond it requests get "
                        "429 + Retry-After")
    p.add_argument("--max-batch", type=int, default=defaults.max_batch,
                   help="requests coalesced per worker-pool dispatch")
    p.add_argument("--request-timeout", type=float, default=defaults.request_timeout,
                   metavar="SECONDS",
                   help="synchronous wait bound before 504 (the job keeps "
                        "running and stays pollable)")
    p.set_defaults(func=cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args, rest = parser.parse_known_args(argv)
    if args.func is cmd_lint:
        return cmd_lint(rest)
    if rest:
        parser.error("unrecognized arguments: " + " ".join(rest))
    try:
        if getattr(args, "jobs", None) is not None:
            # Validate eagerly: batch-kernel paths never resolve jobs, and a
            # bad value must not be silently accepted on those commands.
            from repro.runtime import resolve_jobs

            resolve_jobs(args.jobs)
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

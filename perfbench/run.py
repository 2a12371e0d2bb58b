"""The repository's benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload scale-pipeline --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30          # every workload
    python3 perfbench/run.py --profile smoke --seconds 2          # tiny inputs, all workloads
    python3 perfbench/run.py --selftest                           # the checks reject bad outputs

Workloads (see README.md for why each was chosen):

* ``scale-pipeline`` — Barabási–Albert networks of 1e5 vertices through
  ``automorphism_partition(method="stabilization")`` and ``run_pipeline``;
* ``cli-release`` — leaf-heavy networks of 5e3 vertices through one
  ``ksymmetry`` release cycle (anonymize, sample, exact sample, a chain of
  republish), called in-process through the CLI's entry point;
* ``daemon-tenants`` — ``ksymmetry serve`` under four tenants over two
  keep-alive connections (publish, sample, attack-audit, republish).

Each run prints its report — operations attempted and failed per kind, the
per-kind operation times, a pure-Python calibration loop timed before and
after, and host steal time — and, as its last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the run measures half
its time untraced and half with spans installed, prints the per-layer
table, the accounting of traced time and the tracing overhead, and reports
the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import checks
import common
import daemon_load

WORKLOADS = ("scale-pipeline", "cli-release", "daemon-tenants")
BATCH_KINDS = {
    "scale-pipeline": ("pipeline",),
    "cli-release": ("publish", "sample", "exact_sample", "republish"),
}
#: fresh processes timed per run for setup_s (plus one untimed warm-up)
SETUP_SPAWNS = 5


# --------------------------------------------------------------- batch runs


def worker_argv(workload: str, args, work: str, ready: bool) -> list[str]:
    argv = [sys.executable, os.path.join(common.HERE, "worker.py"),
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--profile", args.profile, "--work", work]
    return argv + ["--ready"] if ready else argv


def exit_text(code: int) -> str:
    """How a child process ended, for the error line on stderr."""
    if code < 0:
        try:
            return f"was killed by {signal.Signals(-code).name}"
        except ValueError:
            return f"was killed by signal {-code}"
    return f"exited {code} (its traceback, if any, is above)"


def time_ready(argv: list[str]) -> float:
    """Seconds from spawning a fresh process until it is ready to work."""
    begin = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, env=common.child_env(),
                          cwd=common.ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - begin
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise common.SetupError(f"{argv[1]} --ready {exit_text(proc.returncode)}")
    return elapsed


def run_batch(workload: str, args, work: str) -> dict:
    ready = worker_argv(workload, args, work, ready=True)
    time_ready(ready)  # untimed: fills the page cache, compiles .pyc
    setups = [time_ready(ready) for _ in range(1 if args.trace else SETUP_SPAWNS)]
    proc = subprocess.run(worker_argv(workload, args, work, ready=False),
                          stdout=subprocess.PIPE, env=common.child_env(), cwd=common.ROOT,
                          check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker {exit_text(proc.returncode)}")
    result = json.loads(proc.stdout.decode().splitlines()[-1])
    result["setup_s"] = statistics.median(setups)
    return result


def batch_metrics(half: dict, result: dict) -> dict:
    metrics = {
        "setup_s": (result["setup_s"], "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "round_s": (half["round_seconds"] / max(1, half["timed_rounds"]), "s"),
    }
    inserted = half["extra"].get("inserted_elements", [])
    metrics["inserted_elements"] = (statistics.fmean(inserted) if inserted else 0.0, "count")
    return metrics


def batch_kind_lines(workload: str, half: dict) -> list[str]:
    lines = []
    for kind in BATCH_KINDS[workload]:
        times = half["times"].get(kind, [])
        mean = f"{kind}_s {statistics.fmean(times):.4f} s (mean)" if times else "-"
        lines.append(f"  {kind:<14} attempted {half['attempted'].get(kind, 0):>4}  "
                     f"failed {half['failed'].get(kind, 0):>3}  {mean}")
    return lines


# -------------------------------------------------------------- daemon runs


def daemon_metrics(result: dict, half: dict) -> dict:
    metrics = daemon_load.latency_metrics(half["records"], half["elapsed"])
    return {
        "setup_s": (result["setup_s"], "s"),
        "peak_rss_mb": (half["peak_rss_mb"], "MB"),
        "round_s": (half["elapsed"] / half["rounds"], "s"),
        "inserted_elements": (half["inserted_elements"], "count"),
        **{f"context:{name}": value for name, value in metrics.items()},
    }


def daemon_kind_lines(half: dict) -> list[str]:
    attempted, failed = daemon_load.tally(half["records"])
    metrics = daemon_load.latency_metrics(half["records"], half["elapsed"])
    lines = []
    for kind in daemon_load.KINDS:
        lines.append(f"  {kind:<14} attempted {attempted[kind]:>4}  failed {failed[kind]:>3}  "
                     f"p50 {metrics[f'{kind}_p50_ms'][0]:.2f} ms")
    lines.append(f"  throughput {metrics['throughput_rps'][0]:.2f} req/s, "
                 f"p90 {metrics['latency_p90_ms'][0]:.2f} ms over {len(half['records'])} "
                 f"requests, exit code {half['exit_code']}")
    return lines


# ------------------------------------------------------------------ reports


def end_to_end(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items() if not name.startswith("context:")}


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name.replace('context:', ''):<22} {value:>14.4f} {unit}")


def print_layers(per_layer: dict, self_s: dict, traced_round: float, unit: str) -> None:
    print(f"per-layer metrics (traced half, per {unit}):")
    for name, entry in per_layer.items():
        print(f"  {name:<34} {entry['value']:>14.6f} {entry['unit']}")
    covered = sum(self_s.values())
    print(f"accounting per {unit}: traced wall time {traced_round:.4f} s = layer self "
          f"times {covered:.4f} s + glue {traced_round - covered:.4f} s")
    for layer, value in sorted(self_s.items(), key=lambda item: -item[1]):
        share = value / traced_round if traced_round else 0.0
        print(f"  {layer:<34} {value:>10.4f} s  {100 * share:5.1f} %")


def print_request_path(per_layer: dict, records: list[dict]) -> None:
    """Mean client latency against the daemon's request-path stages."""
    stages = ["service.httpio.read_ms", "service.protocol.parse_ms",
              "service.scheduler.queue_wait_ms", "service.canon.canonicalize_ms",
              "service.handlers.compute_ms", "service.handlers.render_ms",
              "service.httpio.write_ms"]
    latency = 1000 * statistics.fmean([item["seconds"] for item in records])
    print(f"request path: mean latency {latency:.2f} ms; stage means (compute per miss):")
    for name in stages:
        print(f"  {name:<34} {per_layer[name]['value']:>10.3f} ms")


def print_overhead(plain: dict, traced: dict) -> None:
    print("tracing overhead (traced half against untraced half):")
    for name, (value, unit) in plain.items():
        if name in ("setup_s", "peak_rss_mb", "inserted_elements"):
            continue
        other = traced[name][0]
        if value:
            print(f"  {name.replace('context:', ''):<22} {value:>12.4f} -> {other:>12.4f} "
                  f"{unit}  ({100 * (other / value - 1):+.1f} %)")


def run_workload(workload: str, args) -> dict:
    work = common.work_dir(workload)
    try:
        calibration = [common.calibration_seconds()]
        ticks = common.cpu_ticks()
        if workload == "daemon-tenants":
            result = daemon_load.run(args.seed, args.seconds, bool(args.trace),
                                     common.PROFILES[args.profile], work)
        else:
            result = run_batch(workload, args, work)
        calibration.append(common.calibration_seconds())
        steal = common.steal_share(ticks, common.cpu_ticks())
    finally:
        common.remove_work_dir(work)

    print(f"== {workload}  seed {args.seed}  {args.seconds:g} s  trace {args.trace}  "
          f"profile {args.profile}")
    if workload == "daemon-tenants":
        plain = result["plain"]
        print("operations (untraced):")
        print("\n".join(daemon_kind_lines(plain)))
        plain_metrics = daemon_metrics(result, plain)
        halves = [plain] + ([result["traced"]] if args.trace else [])
        attempted_total = sum(sum(daemon_load.tally(h["records"])[0].values()) for h in halves)
        failed_total = sum(sum(daemon_load.tally(h["records"])[1].values()) for h in halves)
        problems = result["problems"]
    else:
        plain = result["untraced"]
        print("operations (untraced):")
        print("\n".join(batch_kind_lines(workload, plain)))
        plain_metrics = batch_metrics(plain, result)
        halves = [plain] + ([result["traced"]] if args.trace else [])
        attempted_total = sum(sum(h["attempted"].values()) for h in halves)
        failed_total = sum(sum(h["failed"].values()) for h in halves)
        problems = [p for h in halves for p in h["problems"]]
    print_metrics("end-to-end (untraced):", plain_metrics)
    print(f"context: calibration loop {calibration[0]:.4f} s before, "
          f"{calibration[1]:.4f} s after; host steal {100 * steal:.2f} % of CPU time")
    for problem in problems[:10]:
        print(f"CHECK FAILED: {problem}")
        print(f"{workload}: CHECK FAILED: {problem}", file=sys.stderr)

    if args.trace:
        traced = result["traced"]
        if workload == "daemon-tenants":
            traced_metrics = daemon_metrics(result, traced)
            print_layers(result["per_layer"], result["self_s"],
                         traced["elapsed"] / len(traced["records"]), "request")
            print("  (the event loop and the batch thread take turns holding the GIL, so "
                  "their spans overlap in wall time and the self times can sum past it)")
            print_request_path(result["per_layer"], traced["records"])
        else:
            traced_metrics = batch_metrics(traced, result)
            print("operations (traced):")
            print("\n".join(batch_kind_lines(workload, traced)))
            print_layers(result["per_layer"], result["self_s"],
                         traced_metrics["round_s"][0], "round")
            print(f"service.* spans in this batch workload: {result['service_spans']}")
        print_overhead(plain_metrics, traced_metrics)
        metrics = result["per_layer"]
    else:
        metrics = end_to_end(plain_metrics)
    return {"correct": not problems, "attempted": attempted_total,
            "failed": failed_total, "metrics": metrics}


# ---------------------------------------------------------------- self-test


def selftest() -> int:
    """Feed every check one good and one deliberately broken output."""
    in_vertices, in_edges = {0, 1, 2}, {(0, 1), (1, 2)}
    # path 0-1-2 published at k=2: vertex 1 copied as 3 -> the 4-cycle
    good = checks.Publication("0 1\n0 3\n1 2\n2 3\n", "0 2\n1 3\n",
                              json.dumps({"original_n": 3, "k": 2, "vertices_added": 1,
                                          "edges_added": 2}))
    cases = []

    def case(name: str, problems: list[str], expect_ok: bool) -> None:
        passed = (not problems) == expect_ok
        cases.append(passed)
        verdict = "accepted" if not problems else f"rejected ({problems[0]})"
        print(f"  {'ok  ' if passed else 'FAIL'} {name}: {verdict}")

    case("valid publication", checks.publication_problems(in_vertices, in_edges, good, 2), True)
    small = checks.Publication("0 1\n0 3\n1 2\n2 3\n", "0 2\n1\n3\n", json.dumps(good.meta))
    case("cell below k", checks.publication_problems(in_vertices, in_edges, small, 2), False)
    dropped = checks.Publication("0 1\n0 3\n2 3\n", "0 2\n1 3\n",
                                 json.dumps({**good.meta, "edges_added": 1}))
    case("dropped input edge",
         checks.publication_problems(in_vertices, in_edges, dropped, 2), False)
    pendants = ("0 1\n0 3\n1 2\n2 3\n0 4\n2 5\n", "0 2\n1 3\n4 5\n",
                json.dumps({**good.meta, "vertices_added": 3, "edges_added": 4}))
    case("valid pendant publication",
         checks.publication_problems(in_vertices, in_edges, checks.Publication(*pendants), 2),
         True)
    skewed = checks.Publication(pendants[0].replace("2 5", "1 5"), pendants[1], pendants[2])
    case("non-equitable cell",
         checks.publication_problems(in_vertices, in_edges, skewed, 2), False)
    case("valid sample", checks.approximate_sample_problems(good, {0, 1, 2}, {(0, 1), (1, 2)}),
         True)
    case("sample one vertex short",
         checks.approximate_sample_problems(good, {0, 1}, {(0, 1)}), False)
    values = checks.combined_measure(checks.adjacency(range(4), [(0, 1), (1, 2), (2, 3)]))
    case("valid candidate set", checks.audit_problems(values, 0, [0, 3]), True)
    case("candidate set without its target", checks.audit_problems(values, 0, [3]), False)
    release = checks.Publication("0 1\n0 3\n1 2\n2 3\n0 4\n2 4\n0 5\n2 5\n",
                                 "0 2\n1 3\n4 5\n",
                                 json.dumps({"original_n": 4, "k": 2}))
    case("valid release", checks.release_problems(good, [4], [(0, 4)], release, 2), True)
    case("release missing its delta",
         checks.release_problems(good, [6], [(0, 6)], release, 2), False)
    # run_pipeline reports: an asymmetric tree (path 0..5, pendant 6 on 2) with
    # singleton cells, and the path 1-0-2 whose twin leaves share a cell
    tree = [[1], [0, 2], [1, 3, 6], [2, 4], [3, 5], [4], [2]]
    singletons = [[v] for v in range(7)]
    report = {"publication": {"published_n": 14, "published_m": 24},
              "backbone": {"n": 7, "cells": 7, "sha256": checks.cells_text_sha256(singletons)},
              "sample": {"n": 7}}
    case("valid scale report", checks.scale_problems(7, 6, tree, singletons, 2, report), True)
    moved = {**report, "backbone": {"n": 7, "cells": 7,
                                    "sha256": checks.cells_text_sha256(singletons[::-1])}}
    case("backbone unlike the input (Theorem 4)",
         checks.scale_problems(7, 6, tree, singletons, 2, moved), False)
    path, twins = [[1, 2], [0], [0]], [[0], [1, 2]]
    report = {"publication": {"published_n": 4, "published_m": 4},
              "backbone": {"n": 2, "cells": 2, "sha256": ""}, "sample": {"n": 3}}
    case("valid scale report with twin cell",
         checks.scale_problems(3, 2, path, twins, 2, report), True)
    lost = {**report, "backbone": {"n": 1, "cells": 1, "sha256": ""}}
    case("backbone without a cell", checks.scale_problems(3, 2, path, twins, 2, lost), False)
    ok = all(cases)
    print(f"self-test {'passed' if ok else 'FAILED'}: {sum(cases)}/{len(cases)} cases")
    return 0 if ok else 1


# ---------------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=sorted(common.PROFILES), default="full")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.selftest:
        return selftest()
    try:
        common.require_program()
    except (common.SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {workload: run_workload(workload, args) for workload in workloads}
    if len(results) == 1:
        common.emit(next(iter(results.values())))
    else:
        common.emit({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{workload}.{name}": value
                        for workload, r in results.items()
                        for name, value in r["metrics"].items()},
        })
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())

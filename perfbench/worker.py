"""The process that runs the program for the two batch workloads.

``run.py`` starts one worker per run, so the worker's peak resident set is
the program's (plus the current operation's input, nothing more). The
worker prints one JSON line: per-kind operation times, attempted and failed
counts, check problems, peak RSS, and — with ``--trace 1`` — the traced
half's per-layer metrics.

    python3 perfbench/worker.py --workload scale-pipeline --seed 1 \\
        --seconds 30 --trace 0 --profile full --work DIR

``--ready`` only imports what the workload imports and prints ``ready``:
``run.py`` times that to get ``setup_s``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import sys
import time
import traceback
from array import array

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import common  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


class Tally:
    """Operation times, attempts, failures and check problems of one half."""

    def __init__(self) -> None:
        self.times: dict[str, list[float]] = {}
        self.attempted: dict[str, int] = {}
        self.failed: dict[str, int] = {}
        self.problems: list[str] = []
        self.rounds = 0
        #: seconds and count of the rounds whose every operation succeeded
        self.round_seconds = 0.0
        self.timed_rounds = 0
        self.extra: dict[str, list[float]] = {}

    def op(self, kind: str, seconds: float | None) -> None:
        self.attempted[kind] = self.attempted.get(kind, 0) + 1
        if seconds is None:
            self.failed[kind] = self.failed.get(kind, 0) + 1
        else:
            self.times.setdefault(kind, []).append(seconds)

    def to_dict(self) -> dict:
        return {"times": self.times, "attempted": self.attempted,
                "failed": self.failed, "problems": self.problems[:20],
                "rounds": self.rounds, "round_seconds": self.round_seconds,
                "timed_rounds": self.timed_rounds,
                "extra": self.extra}


# ------------------------------------------------------------ scale-pipeline


def scale_imports():
    from repro.arraycore.pipeline import run_pipeline
    from repro.graphs.graph import Graph
    from repro.isomorphism.orbits import automorphism_partition
    return Graph, automorphism_partition, run_pipeline


def scale_round(index: int, seed: int, profile: dict, tally: Tally) -> float | None:
    """One network: partition + ``run_pipeline``, then the checks; its seconds."""
    Graph, automorphism_partition, run_pipeline = scale_imports()
    n = profile["scale_n"]
    edge_list = inputs.barabasi_albert(n, 3, random.Random(inputs.derive(seed, "scale", index)))
    graph = Graph.from_edges(edge_list, vertices=range(n))
    flat = array("l", (w for edge in edge_list for w in edge))
    del edge_list
    start = time.perf_counter()
    try:
        partition = automorphism_partition(graph, method="stabilization").orbits
        report = run_pipeline(graph, common.K, partition=partition)
    except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
        tally.op("pipeline", None)
        tally.problems.append(traceback.format_exc(limit=3))
        return None
    elapsed = time.perf_counter() - start
    tally.op("pipeline", elapsed)
    m = graph.m
    cells = [list(cell) for cell in partition.cells]
    del graph, partition
    adj: list[list[int]] = [[] for _ in range(n)]
    for i in range(0, len(flat), 2):
        u, v = flat[i], flat[i + 1]
        adj[u].append(v)
        adj[v].append(u)
    tally.problems += checks.scale_problems(n, m, adj, cells, common.K, report.artifacts)
    published = report.artifacts["publication"]
    tally.extra.setdefault("inserted_elements", []).append(
        published["published_n"] - n + published["published_m"] - m)
    return elapsed


# --------------------------------------------------------------- cli-release


def cli_imports():
    import repro.cli
    return repro.cli


def cli_call(argv: list[str]) -> float | None:
    """One ``ksymmetry`` command through the CLI's entry point; its seconds."""
    cli = cli_imports()
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main(argv)
    elapsed = time.perf_counter() - start
    return elapsed if code == 0 else None


def read_publication(prefix: str) -> checks.Publication:
    texts = []
    for suffix in (".edges", ".partition", ".meta"):
        with open(prefix + suffix, encoding="utf-8") as handle:
            texts.append(handle.read())
    return checks.Publication(*texts)


def read_edges(path: str):
    with open(path, encoding="utf-8") as handle:
        return checks.parse_edge_list(handle.read())


def cli_round(index: int, seed: int, profile: dict, tally: Tally, work: str) -> float | None:
    """One release cycle: anonymize, sample, exact sample, a republish chain."""
    k = str(common.K)
    rng = random.Random(inputs.derive(seed, "cli", index))
    edge_list = inputs.leaf_heavy(profile["cli_n"], rng)
    source = os.path.join(work, "input.edges")
    with open(source, "w", encoding="utf-8") as handle:
        handle.write(inputs.edge_list_text(edge_list))
    del edge_list
    pub = os.path.join(work, "pub")
    count = profile["samples"]
    chain = profile["chain"]
    steps = [
        ("publish", ["anonymize", source, "-k", k, "--out", pub]),
        ("sample", ["sample", pub, "--count", str(count),
                    "--seed", str(rng.randrange(2**31)), "--out", pub + ".s"]),
        ("exact_sample", ["sample", pub, "--strategy", "exact", "--count", "1",
                          "--seed", str(rng.randrange(2**31)), "--out", pub + ".x"]),
    ]
    round_seconds = 0.0
    for kind, argv in steps:
        seconds = cli_call(argv)
        tally.op(kind, None if seconds is None else
                 seconds / count if kind == "sample" else seconds)
        if seconds is None:
            tally.problems.append(f"ksymmetry {' '.join(argv[:1])} failed")
            for _ in range(chain):
                tally.op("republish", None)
            return None
        round_seconds += seconds

    in_vertices, in_edges = read_edges(source)
    release = read_publication(pub)
    tally.problems += checks.publication_problems(in_vertices, in_edges, release, common.K)
    tally.extra.setdefault("inserted_elements", []).append(
        (len(release.vertices) - len(in_vertices)) + (len(release.edges) - len(in_edges)))
    for i in range(count):
        vertices, edges = read_edges(f"{pub}.s.{i}.edges")
        tally.problems += checks.approximate_sample_problems(release, vertices, edges)
    vertices, _ = read_edges(f"{pub}.x.0.edges")
    tally.problems += checks.exact_sample_problems(release, vertices)

    previous, prefix = release, pub
    for step in range(chain):
        fresh, delta_edges = inputs.delta_for(sorted(previous.vertices), rng,
                                              max(previous.vertices) + 1)
        delta_path = os.path.join(work, f"delta{step}")
        with open(delta_path, "w", encoding="utf-8") as handle:
            handle.write(inputs.delta_text(fresh, delta_edges))
        out = os.path.join(work, f"rel{step + 1}")
        seconds = cli_call(["republish", prefix, delta_path, "-k", k, "--out", out])
        tally.op("republish", seconds)
        if seconds is None:
            tally.problems.append("ksymmetry republish failed")
            for _ in range(chain - step - 1):
                tally.op("republish", None)
            return None
        round_seconds += seconds
        current = read_publication(out)
        tally.problems += checks.release_problems(previous, fresh, delta_edges,
                                                  current, common.K)
        previous, prefix = current, out
    return round_seconds


# ---------------------------------------------------------------------- main


def run_half(workload: str, seed: int, seconds: float, profile: dict, work: str,
             first_round: int) -> Tally:
    """Whole rounds, each on a network no earlier round used, for *seconds*."""
    tally = Tally()
    start = time.perf_counter()
    index = first_round
    while tally.rounds == 0 or time.perf_counter() - start < seconds:
        if workload == "scale-pipeline":
            seconds_taken = scale_round(index, seed, profile, tally)
        else:
            seconds_taken = cli_round(index, seed, profile, tally, work)
        tally.rounds += 1
        index += 1
        if seconds_taken is not None:
            tally.round_seconds += seconds_taken
            tally.timed_rounds += 1
    return tally


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("scale-pipeline", "cli-release"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=sorted(common.PROFILES), default="full")
    parser.add_argument("--work", required=True, help="directory for the run's files")
    parser.add_argument("--ready", action="store_true")
    args = parser.parse_args(argv)

    common.require_program()
    if args.workload == "scale-pipeline":
        scale_imports()
    else:
        cli_imports()
    if args.ready:
        print("ready", flush=True)
        return 0

    profile = common.PROFILES[args.profile]
    if args.trace:
        # untraced first half for the overhead, traced second half for layers
        half = args.seconds / 2
        plain = run_half(args.workload, args.seed, half, profile, args.work, 0)
        tracer = tracing.Tracer()
        # the service layers too: their spans must not appear in a batch run
        tracer.install(tracing.LAYERS + tracing.SERVICE_LAYERS)
        traced = run_half(args.workload, args.seed, half, profile, args.work, plain.rounds)
        tracer.uninstall()
        tracer.dump(os.path.join(common.WORK, f"spans-{args.workload}-seed{args.seed}.json"))
        summary = tracing.Summary(tracer.spans)
        result = {
            "untraced": plain.to_dict(),
            "traced": traced.to_dict(),
            "per_layer": tracing.per_layer_metrics(summary, traced.rounds),
            "self_s": {layer: value / traced.rounds for layer, value in summary.self_s.items()},
            "service_spans": sum(summary.calls.get(layer, 0) for layer in summary.calls
                                 if layer.startswith("service.")),
        }
    else:
        result = {"untraced": run_half(args.workload, args.seed, args.seconds,
                                       profile, args.work, 0).to_dict()}
    result["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

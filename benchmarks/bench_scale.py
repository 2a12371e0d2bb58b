"""Benchmark: the array-core pipeline at scale (1e4 → 1e5 → 1e6 vertices).

Drives ``repro.arraycore.pipeline.run_pipeline`` — partition → anonymize →
publish → backbone → sample, every post-partition stage on flat CSR arrays —
over Barabási–Albert and Watts–Strogatz graphs at growing sizes, recording
wall time and peak RSS per stage. At sizes where the dict oracle is feasible
(``--parity-max``, default 2e4) the partition is recomputed by the dict
refinement (``reference_stable_partition``) and must equal
``stable_partition``'s, cells in the same order; the run is then replayed
from that oracle partition through the seed dict oracles
(``repro.core.reference.reference_pipeline``) and the artifact digests must
match byte-for-byte. That is the parity gate, and the two totals give the
measured speedup.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_scale.py [--quick]
        [--sizes 10000,100000,1000000] [--families ba,ws] [--k 2]
        [--parity-max 20000] [--check] [--out BENCH_scale.json]

``--quick`` is the CI profile: n=2e4 only, parity gate on. Any parity
mismatch exits non-zero regardless of flags; ``--check`` additionally
enforces the acceptance threshold (the array pipeline ≥ 3x faster than the
oracle replay end-to-end at every parity point — not enforced in CI, where
shared runners are too noisy).

Peak RSS is the process-wide high-water mark (``resource.getrusage``), so
per-stage and per-run values are cumulative maxima, not independent
footprints; run one size in isolation for a true per-size footprint.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from random import Random

from repro.arraycore.pipeline import run_pipeline
from repro.core.reference import reference_pipeline
from repro.graphs.generators import barabasi_albert_graph, watts_strogatz_graph
from repro.isomorphism.orbits import automorphism_partition
from repro.isomorphism.refinement_reference import reference_stable_partition
from repro.runtime import Stopwatch, peak_rss_bytes
from repro.utils.rng import derive_seed

FAMILIES = {
    # family -> builder(n, rng) for the paper's two synthetic workloads
    "ba": lambda n, rng: barabasi_albert_graph(n, 3, rng),
    "ws": lambda n, rng: watts_strogatz_graph(n, 4, 0.1, rng),
}

DEFAULT_SIZES = (10_000, 100_000, 1_000_000)
QUICK_SIZES = (20_000,)


def _parse_ints(raw: str) -> list[int]:
    values = [int(token) for token in raw.split(",") if token.strip()]
    if not values:
        raise argparse.ArgumentTypeError("need at least one size")
    return values


def _parse_families(raw: str) -> list[str]:
    values = [token.strip() for token in raw.split(",") if token.strip()]
    for name in values:
        if name not in FAMILIES:
            raise argparse.ArgumentTypeError(
                f"unknown family {name!r}; expected one of {sorted(FAMILIES)}")
    if not values:
        raise argparse.ArgumentTypeError("need at least one family")
    return values


def _stage_total(report) -> float:
    return sum(stage["wall_seconds"] for stage in report.stages)


def run_one(family: str, n: int, k: int, seed: int, parity: bool) -> dict:
    """One (family, size) point: array run, plus the oracle replay if asked."""
    rng = Random(derive_seed(seed, f"bench_scale/{family}/{n}"))
    graph = FAMILIES[family](n, rng)

    watch = Stopwatch()
    partition = automorphism_partition(graph, method="stabilization").orbits
    partition_seconds = watch.elapsed()

    array_report = run_pipeline(
        graph, k, partition=partition, copy_unit="orbit", seed=seed,
    )
    row = {
        "family": family,
        "n": graph.n,
        "m": graph.m,
        "partition_cells": len(partition),
        "partition_seconds": round(partition_seconds, 3),
        "stages": [
            {
                "name": stage["name"],
                "wall_seconds": round(stage["wall_seconds"], 3),
                "peak_rss_bytes": stage["peak_rss_bytes"],
            }
            for stage in array_report.stages
        ],
        "array_total_seconds": round(_stage_total(array_report), 3),
        "peak_rss_bytes": peak_rss_bytes(),
        "artifacts": array_report.artifacts,
    }
    if parity:
        # The oracle replay starts from the oracle's own partition, so a
        # wrong partition fails the digest comparison as well.
        watch = Stopwatch()
        reference_partition = reference_stable_partition(graph)
        reference_partition_seconds = watch.elapsed()
        partition_ok = (partition == reference_partition
                        and partition.cells == reference_partition.cells)
        reference_report = reference_pipeline(
            graph, k, partition=reference_partition, copy_unit="orbit", seed=seed,
        )
        artifacts_ok = array_report.parity_key() == reference_report.parity_key()
        reference_total = _stage_total(reference_report)
        array_total = _stage_total(array_report)
        row["parity"] = {
            "checked": True,
            "ok": partition_ok and artifacts_ok,
            "partition_ok": partition_ok,
            "artifacts_ok": artifacts_ok,
            "reference_partition_seconds": round(reference_partition_seconds, 3),
            "reference_total_seconds": round(reference_total, 3),
            "speedup": round(reference_total / array_total, 2)
            if array_total else None,
        }
    else:
        row["parity"] = {"checked": False}
    return row


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI profile: n=2e4 only, parity gate on")
    parser.add_argument("--sizes", type=_parse_ints, default=None,
                        metavar="10000,100000,1000000")
    parser.add_argument("--families", type=_parse_families,
                        default=sorted(FAMILIES), metavar="ba,ws")
    parser.add_argument("--k", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--parity-max", type=int, default=20_000,
                        help="replay the dict oracle up to this size")
    parser.add_argument("--check", action="store_true",
                        help="also enforce >= 3x speedup at parity points")
    parser.add_argument("--out", default="BENCH_scale.json")
    args = parser.parse_args(argv)

    sizes = args.sizes or (list(QUICK_SIZES) if args.quick else list(DEFAULT_SIZES))

    runs = []
    for n in sizes:
        for family in args.families:
            parity = args.quick or n <= args.parity_max
            row = run_one(family, n, args.k, args.seed, parity)
            runs.append(row)
            stage_text = "  ".join(
                f"{stage['name']} {stage['wall_seconds']:.2f}s"
                for stage in row["stages"])
            print(f"{family} n={n:>9,}  partition {row['partition_seconds']:.2f}s  "
                  f"{stage_text}  rss {row['peak_rss_bytes'] / 2**20:.0f} MiB")
            if row["parity"]["checked"]:
                print(f"  partition parity "
                      f"{'OK' if row['parity']['partition_ok'] else 'MISMATCH'} "
                      f"(reference {row['parity']['reference_partition_seconds']}s)")
                print(f"  parity {'OK' if row['parity']['ok'] else 'MISMATCH'}  "
                      f"speedup {row['parity']['speedup']}x vs reference "
                      f"({row['parity']['reference_total_seconds']}s)")

    report = {
        "benchmark": "scale-pipeline",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "k": args.k,
        "seed": args.seed,
        "method": "stabilization",
        "copy_unit": "orbit",
        "runs": runs,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")

    failed = False
    for row in runs:
        parity = row["parity"]
        if parity["checked"] and not parity["ok"]:
            what = " and ".join(
                name for name in ("partition", "artifacts")
                if not parity[f"{name}_ok"])
            print(f"FAIL: {what} parity mismatch at {row['family']} n={row['n']}",
                  file=sys.stderr)
            failed = True
        if (args.check and parity["checked"] and parity["ok"]
                and parity["speedup"] is not None and parity["speedup"] < 3.0):
            print(f"FAIL: speedup {parity['speedup']}x < 3x at "
                  f"{row['family']} n={row['n']}", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())

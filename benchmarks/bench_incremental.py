"""Benchmark: incremental re-anonymization vs global recomputation.

Times a sequential release (paper Section 6: the published network keeps
growing) two ways —

* **incremental** — :func:`repro.core.republish.republish`: frontier orbits
  on the contracted colored graph plus seeded colour refinement
  (:mod:`repro.isomorphism.incremental`), then the array copy engine;
* **full** — the reference oracle
  :func:`repro.core.reference.reference_republish`: global orbit
  recomputation of the same partition on the whole grown graph, then the
  dict copy oracle;

on Barabási–Albert and Watts–Strogatz release-0 publications at
n ∈ {5000, 20000} (``--quick``: n ∈ {300, 1000}) grown by a 1% delta (one
new vertex per hundred published originals, each anchoring to one or two
published vertices), asserts that both publish **byte-identical**
.edges/.partition/.meta texts, and writes the timings to
``BENCH_incremental.json``. The two runs are interleaved and the reported
speedup is the median of per-round ratios, robust to machine-throughput
drift (same protocol as ``bench_kernel.py``).

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_incremental.py [--quick] [--check]
                                            [--out BENCH_incremental.json]

``--check`` additionally enforces the PR's acceptance threshold (>= 2x at
the largest size on both families). Exits non-zero on any parity mismatch.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import random
import statistics
import sys
import time

from repro.core.anonymize import anonymize
from repro.core.publication import publication_texts
from repro.core.reference import reference_republish
from repro.core.republish import GraphDelta, republish
from repro.graphs.generators import barabasi_albert_graph, watts_strogatz_graph
from repro.utils.rng import derive_seed

FULL_SIZES = (5000, 20000)
QUICK_SIZES = (300, 1000)
K = 2
METHOD = "exact"
CHECK_THRESHOLD = 2.0  # at the largest size, both families
GROWTH_FRACTION = 100  # one new vertex per GROWTH_FRACTION originals


def _families(sizes):
    for n in sizes:
        yield "ba", n, lambda n=n: barabasi_albert_graph(n, 3, rng=2010)
        yield "ws", n, lambda n=n: watts_strogatz_graph(n, 6, 0.1, rng=2010)


def _growth_delta(published, n: int, seed: int) -> GraphDelta:
    """A 1% insertions-only growth step against the published release."""
    rand = random.Random(seed)
    ids = published.sorted_vertices()
    first = max(ids) + 1
    new = list(range(first, first + max(1, n // GROWTH_FRACTION)))
    edges = set()
    for v in new:
        for _ in range(rand.randint(1, 2)):
            edges.add((rand.choice(ids), v))
    return GraphDelta(new, sorted(edges))


def _paired(fast, slow, pairs: int) -> tuple[float, float, float, object, object]:
    """Interleaved timing; median of per-round ratios (see bench_kernel)."""
    fast_times, slow_times, ratios = [], [], []
    fast_result = slow_result = None
    for _ in range(pairs):
        gc.collect()
        started = time.perf_counter()
        fast_result = fast()
        fast_s = time.perf_counter() - started
        started = time.perf_counter()
        slow_result = slow()
        slow_s = time.perf_counter() - started
        fast_times.append(fast_s)
        slow_times.append(slow_s)
        ratios.append(slow_s / fast_s if fast_s else float("inf"))
    return (min(fast_times), min(slow_times), statistics.median(ratios),
            fast_result, slow_result)


def run(sizes) -> list[dict]:
    rows = []
    for family, n, build in _families(sizes):
        previous = anonymize(build(), K, method=METHOD)
        delta = _growth_delta(previous.graph, n,
                              derive_seed(2010, f"bench/{family}/{n}"))
        pairs = 5 if n >= 5000 else 3
        fast_s, slow_s, ratio, ours, oracle = _paired(
            lambda: republish(previous, delta, method=METHOD),
            lambda: reference_republish(*previous.published(), delta, K,
                                        method=METHOD),
            pairs,
        )
        expected = publication_texts(oracle.graph, oracle.to_partition(),
                                     previous.original_n + delta.n_vertices)
        if publication_texts(*ours.published()) != expected:
            raise AssertionError(
                f"parity violation: republish and the reference oracle "
                f"published different bytes on {family} n={n}")
        rows.append({
            "family": family,
            "n": n,
            "published_n": previous.graph.n,
            "published_m": previous.graph.m,
            "delta_vertices": delta.n_vertices,
            "delta_edges": delta.n_edges,
            "full_s": round(slow_s, 6),
            "incremental_s": round(fast_s, 6),
            "speedup": round(ratio, 2),
            "parity": True,
        })
        print(f"[bench_incremental] {family:>2} n={n:>6} "
              f"(+{delta.n_vertices}v/+{delta.n_edges}e)  "
              f"full {slow_s:8.4f}s  incremental {fast_s:8.4f}s  "
              f"speedup {rows[-1]['speedup']:7.2f}x")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="incremental re-anonymization benchmark")
    parser.add_argument("--quick", action="store_true",
                        help="small sizes only (CI smoke: parity + timings)")
    parser.add_argument("--check", action="store_true",
                        help="enforce the acceptance speedup threshold")
    parser.add_argument("--out", default="BENCH_incremental.json")
    args = parser.parse_args(argv)

    sizes = QUICK_SIZES if args.quick else FULL_SIZES
    rows = run(sizes)

    payload = {
        "benchmark": "incremental-republish",
        "profile": "quick" if args.quick else "full",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "k": K,
        "method": METHOD,
        "sizes": list(sizes),
        "results": rows,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"[bench_incremental] wrote {args.out} "
          f"({len(rows)} rows, all parity-checked)")

    if args.check:
        largest = max(sizes)
        failures = []
        for row in rows:
            if row["n"] != largest:
                continue
            status = "ok" if row["speedup"] >= CHECK_THRESHOLD else "FAIL"
            print(f"[bench_incremental] check {row['family']} @ n={largest}: "
                  f"{row['speedup']:.2f}x (need {CHECK_THRESHOLD:.0f}x) {status}")
            if row["speedup"] < CHECK_THRESHOLD:
                failures.append(row["family"])
        if failures:
            print(f"[bench_incremental] threshold failures: {failures}",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Benchmark: ksymmetryd under deterministic closed-loop multi-tenant load.

Boots the daemon in-process (ephemeral port, its own event loop thread) and
drives it with ``workers`` closed-loop tenants — each issues its request
sequence synchronously over one keep-alive connection, so offered load is
bounded by service rate and the benchmark cannot melt down the queue.

The workload is the service's design case: every tenant submits *relabeled
copies of the same base graphs* (isomorphic inputs), repeated over
``rounds`` passes. Publish and audit artifacts are therefore shared through
the content-addressed cache — the recorded cache hit rate must end up > 0 —
while sample artifacts stay tenant-private by design (seed-namespaced keys).
Every round repeats every request body, so from the second round on each
text's canonical input comes from the scheduler's memo — the recorded memo
hits must end up > 0 too.

Recorded per endpoint: request count, p50/p99/max latency; plus overall
throughput, the daemon's cache/scheduler counters, and a **parity** flag:
every repetition of a request body must return byte-identical response
bodies (the reproducibility contract under real concurrency). Results go to
``BENCH_service.json``.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_service.py [--profile smoke|full]
        [--jobs N] [--sweep-jobs 1,2,4] [--out BENCH_service.json] [--check]

``--sweep-jobs`` reruns the same load once per worker-pool size and records
a ``jobs_sweep`` table (throughput vs ``--jobs``) alongside the primary
run. ``--check`` additionally enforces the acceptance thresholds (parity,
cache hit rate > 0 and canonical memo hits > 0). Exits non-zero on any
parity mismatch either way.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import platform
import sys
import threading
import time

from repro.graphs.generators import barabasi_albert_graph, watts_strogatz_graph
from repro.service import KSymmetryDaemon, ServiceClient, ServiceConfig

PROFILES = {
    # workers = closed-loop tenants; rounds = passes over the request plan
    "smoke": {"workers": 2, "rounds": 2, "sizes": (24, 40), "count": 2},
    "full": {"workers": 4, "rounds": 3, "sizes": (40, 80, 120), "count": 3},
}


def _edges_text(graph) -> str:
    return "".join(f"{u} {v}\n" for u, v in graph.sorted_edges())


def _base_graphs(sizes) -> list:
    graphs = []
    for n in sizes:
        graphs.append(watts_strogatz_graph(n, 4, 0.1, rng=2010))
        graphs.append(barabasi_albert_graph(n, 2, rng=2010))
    return graphs


def _tenant_plan(worker: int, graphs) -> list[tuple[str, str, dict]]:
    """(endpoint, path, payload) sequence for one tenant.

    Each tenant relabels every base graph into its own vertex namespace:
    isomorphic inputs, disjoint ids — the cache-sharing design case.
    """
    tenant = f"tenant-{worker}"
    plan: list[tuple[str, str, dict]] = []
    for index, base in enumerate(graphs):
        offset = 1000 * (worker + 1)
        relabeled = base.relabeled({v: v + offset for v in base.vertices()})
        edges = _edges_text(relabeled)
        target = min(relabeled.vertices())
        plan.append(("publish", "/v1/publish", {
            "edges": edges, "k": 2, "tenant": tenant}))
        plan.append(("sample", "/v1/sample", {
            "edges": edges, "k": 2, "count": 1, "seed": index,
            "strategy": "approximate", "tenant": tenant}))
        plan.append(("attack-audit", "/v1/attack-audit", {
            "edges": edges, "target": target, "measure": "degree",
            "tenant": tenant}))
    return plan


class _DaemonThread:
    """The daemon on a background event loop, ephemeral port."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.daemon: KSymmetryDaemon | None = None
        self.loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._amain()), daemon=True)

    async def _amain(self) -> None:
        self.loop = asyncio.get_running_loop()
        self.daemon = KSymmetryDaemon(self.config)
        await self.daemon.start()
        self._ready.set()
        await self.daemon.wait_terminated()

    def __enter__(self) -> "_DaemonThread":
        self._thread.start()
        if not self._ready.wait(30):
            raise RuntimeError("daemon failed to start")
        return self

    def __exit__(self, *exc_info) -> None:
        assert self.daemon is not None and self.loop is not None
        asyncio.run_coroutine_threadsafe(
            self.daemon.shutdown(), self.loop).result(timeout=60)
        self._thread.join(timeout=30)

    @property
    def port(self) -> int:
        assert self.daemon is not None
        return self.daemon.bound_port


def _percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    index = max(0, min(len(ordered) - 1, round(q * (len(ordered) - 1))))
    return ordered[index]


def run_load(profile: str, jobs: int | None) -> dict:
    settings = PROFILES[profile]
    graphs = _base_graphs(settings["sizes"])
    plans = [_tenant_plan(w, graphs) for w in range(settings["workers"])]
    config = ServiceConfig(port=0, jobs=jobs,
                           max_queue=max(64, 4 * settings["workers"]),
                           max_batch=8)

    latencies: dict[str, list[float]] = {
        "publish": [], "sample": [], "attack-audit": []}
    body_digests: dict[str, set[str]] = {}
    errors: list[str] = []
    lock = threading.Lock()

    def worker(index: int, port: int) -> None:
        try:
            with ServiceClient("127.0.0.1", port, timeout=300) as client:
                for _ in range(settings["rounds"]):
                    for endpoint, path, payload in plans[index]:
                        request_key = json.dumps(payload, sort_keys=True)
                        started = time.perf_counter()
                        status, _, body = client.request_raw(
                            "POST", path, payload)
                        elapsed = time.perf_counter() - started
                        if status != 200:
                            raise RuntimeError(
                                f"{path} -> HTTP {status}: {body[:200]!r}")
                        digest = hashlib.sha256(body).hexdigest()
                        with lock:
                            latencies[endpoint].append(elapsed)
                            body_digests.setdefault(request_key, set()).add(
                                digest)
        except Exception as exc:  # noqa: BLE001 - reported in the result
            with lock:
                errors.append(f"worker {index}: {exc!r}")

    with _DaemonThread(config) as daemon:
        port = daemon.port
        threads = [threading.Thread(target=worker, args=(w, port))
                   for w in range(settings["workers"])]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall_s = time.perf_counter() - started
        with ServiceClient("127.0.0.1", port, timeout=60) as client:
            metrics = client.metrics()

    total = sum(len(samples) for samples in latencies.values())
    endpoints = {}
    for endpoint, samples in sorted(latencies.items()):
        if not samples:
            continue
        endpoints[endpoint] = {
            "requests": len(samples),
            "p50_ms": round(1000 * _percentile(samples, 0.50), 3),
            "p99_ms": round(1000 * _percentile(samples, 0.99), 3),
            "max_ms": round(1000 * max(samples), 3),
        }
    cache = metrics["cache"]
    probes = cache["hits"] + cache["misses"]
    parity = all(len(digests) == 1 for digests in body_digests.values())
    return {
        "benchmark": "ksymmetryd-load",
        "profile": profile,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workers": settings["workers"],
        "rounds": settings["rounds"],
        "jobs": jobs,
        "requests": total,
        "wall_s": round(wall_s, 3),
        "throughput_rps": round(total / wall_s, 2) if wall_s else None,
        "endpoints": endpoints,
        "cache": cache,
        "cache_hit_rate": round(cache["hits"] / probes, 4) if probes else 0.0,
        "scheduler": metrics["scheduler"],
        "parity": parity,
        "errors": errors,
    }


def run_sweep(profile: str, jobs_values: list[int | None]) -> list[dict]:
    """Throughput vs ``--jobs``: one full load run per pool size.

    Each point is an independent daemon boot (fresh cache, fresh pool), so
    throughputs are comparable; parity is re-checked at every point.
    """
    rows = []
    for jobs in jobs_values:
        result = run_load(profile, jobs)
        rows.append({key: result[key] for key in (
            "jobs", "requests", "wall_s", "throughput_rps",
            "cache_hit_rate", "parity")})
    return rows


def _parse_sweep(raw: str) -> list[int | None]:
    values: list[int | None] = []
    for token in raw.split(","):
        token = token.strip()
        if token:
            values.append(int(token))
    if not values:
        raise argparse.ArgumentTypeError("--sweep-jobs needs at least one value")
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--profile", choices=sorted(PROFILES), default="full")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for the daemon's batch pool")
    parser.add_argument("--sweep-jobs", type=_parse_sweep, default=None,
                        metavar="1,2,4",
                        help="also run the load once per pool size and "
                             "record a throughput-vs-jobs table")
    parser.add_argument("--out", default="BENCH_service.json")
    parser.add_argument("--check", action="store_true",
                        help="enforce acceptance thresholds (parity, "
                             "cache hit rate > 0, canonical memo hits > 0)")
    args = parser.parse_args(argv)

    report = run_load(args.profile, args.jobs)
    if args.sweep_jobs:
        report["jobs_sweep"] = run_sweep(args.profile, args.sweep_jobs)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")

    for endpoint, row in report["endpoints"].items():
        print(f"{endpoint:<14} {row['requests']:>4} reqs  "
              f"p50 {row['p50_ms']:>8.2f} ms  p99 {row['p99_ms']:>8.2f} ms")
    print(f"throughput     {report['throughput_rps']} req/s over "
          f"{report['requests']} requests ({report['wall_s']} s)")
    print(f"cache hit rate {report['cache_hit_rate']} "
          f"({report['cache']['hits']} hits / {report['cache']['misses']} misses)")
    memo = report["scheduler"]["canonical_memo"]
    print(f"canonical memo {memo['hits']} hits / {memo['misses']} misses")
    print(f"parity         {report['parity']}")
    for row in report.get("jobs_sweep", ()):
        print(f"sweep jobs={row['jobs']:<4} {row['throughput_rps']:>8} req/s "
              f"({row['wall_s']} s, parity {row['parity']})")

    if report["errors"]:
        print("errors:", *report["errors"], sep="\n  ", file=sys.stderr)
        return 1
    sweep_parity = all(row["parity"] for row in report.get("jobs_sweep", ()))
    if not report["parity"] or not sweep_parity:
        print("FAIL: repeated requests returned differing bodies",
              file=sys.stderr)
        return 1
    if args.check and report["cache_hit_rate"] <= 0.0:
        print("FAIL: cache hit rate is 0 on an isomorphic-input workload",
              file=sys.stderr)
        return 1
    if args.check and report["scheduler"]["canonical_memo"]["hits"] <= 0:
        print("FAIL: no canonical memo hit although every round repeats "
              "every request body", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

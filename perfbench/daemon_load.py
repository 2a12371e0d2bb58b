"""The daemon-tenants workload: ksymmetryd under four tenants, two connections.

``ksymmetry serve`` runs in its own process with its default configuration
(serial, fresh in-memory cache; only the port is ephemeral). This process is
the one load generator: two threads, each holding one keep-alive HTTP
connection, take requests from one shared plan in its fixed order — a
closed loop with at most two requests in flight.

The plan cycles through three base networks (small, medium, large). A pass
sends, for each of the four tenants in turn, four requests on that pass's
network in the tenant's own vertex ids: a publish (the same body every
pass), a sample (new seed), a hierarchy attack-audit with the combined
measure (new target) and a republish (new delta). Three passes — one per
network — make a round, and a run attempts whole rounds. Only the three
publish artifacts are ever reused, and an LRU touches them every round, so
the 128-entry default cache never evicts one however the two connections
interleave.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import threading
import time

import checks
import common
import inputs
import tracing

KINDS = ("publish", "sample", "audit", "republish")
PATHS = {"publish": "/v1/publish", "sample": "/v1/sample",
         "audit": "/v1/attack-audit", "republish": "/v1/republish"}
DELTA_BASE = 900_000
#: daemons started per run for setup_s, the last one serving the load
SETUP_SPAWNS = 5


class Daemon:
    """One ksymmetryd process: start, wait for /healthz, stop, peak RSS."""

    def __init__(self, argv: list[str], log_path: str) -> None:
        self.argv = argv
        self.log_path = log_path
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self, timeout: float = 60.0) -> float:
        """Seconds from spawning the process until ``/healthz`` answers 200."""
        with open(self.log_path, "ab") as log:
            begin = time.perf_counter()
            self.proc = subprocess.Popen(
                self.argv, stdout=subprocess.PIPE, stderr=log, env=common.child_env(),
                cwd=common.ROOT)
        assert self.proc.stdout is not None
        deadline = begin + timeout
        line = b""
        while b"listening on" not in line:
            ready, _, _ = select.select([self.proc.stdout], [], [], 1.0)
            if time.perf_counter() > deadline or self.proc.poll() is not None:
                self.kill()
                raise RuntimeError(f"ksymmetryd did not start; see {self.log_path}")
            if ready:
                line = self.proc.stdout.readline()
        self.port = int(line.decode().rsplit(":", 1)[1])
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=timeout)
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            response.read()
        finally:
            conn.close()
        elapsed = time.perf_counter() - begin
        if response.status != 200:
            self.kill()
            raise RuntimeError(f"/healthz answered {response.status}")
        return elapsed

    def get_json(self, path: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stop(self, timeout: float = 60.0) -> tuple[int, float]:
        """SIGTERM, wait for the drain; returns (exit code, peak RSS in MB)."""
        assert self.proc is not None
        self.proc.send_signal(signal.SIGTERM)
        deadline = time.perf_counter() + timeout
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                self.proc.kill()
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.005)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        return self.proc.returncode, usage.ru_maxrss * 1024 / 1e6

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        if self.proc is not None and self.proc.stdout is not None:
            self.proc.stdout.close()


def serve_argv(traced_spans: str | None) -> list[str]:
    if traced_spans is None:
        return [sys.executable, "-m", "repro.cli", "serve", "--port", "0"]
    return [sys.executable, os.path.join(common.HERE, "launcher.py"), traced_spans,
            "serve", "--port", "0"]


# ---------------------------------------------------------------------- plan


class Tenants:
    """Base networks, each tenant's relabeling, and the plan built on them."""

    def __init__(self, seed: int, profile: dict) -> None:
        self.seed = seed
        self.count = profile["tenants"]
        self.bases = []          # per size: (n, base edges)
        self.ids = []            # per size: per tenant: base id -> tenant id
        self.texts = []          # per size: per tenant: edge-list text
        self.targets = []        # per size: audit target order (base ids)
        for s, size in enumerate(profile["daemon_sizes"]):
            rng = random.Random(inputs.derive(seed, "daemon-base", s))
            n, edges = size, inputs.leaf_heavy(size, rng)
            self.bases.append((n, edges))
            order = list(range(n))
            rng.shuffle(order)
            self.targets.append(order)
            ids, texts = [], []
            for t in range(self.count):
                relabel = inputs.relabeling(n, random.Random(inputs.derive(seed, "tenant", s, t)),
                                            offset=self.offset(t))
                ids.append(relabel)
                texts.append(inputs.edge_list_text(
                    sorted((relabel[u], relabel[v]) for u, v in edges)))
            self.ids.append(ids)
            self.texts.append(texts)

    @staticmethod
    def offset(tenant: int) -> int:
        return 1_000_000 * (tenant + 1)

    def request(self, kind: str, s: int, t: int, round_index: int) -> tuple[bytes, dict]:
        """(body, what the checks need) for one request of the plan."""
        body: dict = {"tenant": f"tenant-{t}", "edges": self.texts[s][t]}
        info: dict = {}
        if kind != "audit":
            body["k"] = common.K
        if kind == "sample":
            body["count"] = 1
            body["seed"] = inputs.derive(self.seed, "sample", s, round_index, t) % 2**31
        elif kind == "audit":
            order = self.targets[s]
            base = order[(round_index * self.count + t) % len(order)]
            body["target"] = self.ids[s][t][base]
            body["measure"] = "combined"
            info["target"] = body["target"]
        elif kind == "republish":
            rng = random.Random(inputs.derive(self.seed, "delta", s, round_index, t))
            fresh, edges = inputs.delta_for(self.ids[s][t], rng, self.offset(t) + DELTA_BASE)
            body["delta"] = {"add_vertices": fresh, "add_edges": [list(e) for e in edges]}
            info["delta"] = (fresh, edges)
        return json.dumps(body, sort_keys=True).encode("utf-8"), info

    def plan(self, seconds: float):
        """Whole rounds of requests, until *seconds* have passed."""
        start = time.perf_counter()
        round_index = 0
        while round_index == 0 or time.perf_counter() - start < seconds:
            for s in range(len(self.bases)):
                for t in range(self.count):
                    for kind in KINDS:
                        body, info = self.request(kind, s, t, round_index)
                        yield {"kind": kind, "size": s, "tenant": t, "body": body, **info}
            round_index += 1


def drive(port: int, plan, connections: int = 2) -> tuple[list[dict], float]:
    """Send the plan over *connections* keep-alive connections; closed loop."""
    lock = threading.Lock()
    records: list[dict] = []

    def next_request():
        with lock:
            return next(plan, None)

    def worker() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            while True:
                item = next_request()
                if item is None:
                    return
                headers = {"Content-Type": "application/json"}
                begin = time.perf_counter()
                try:
                    conn.request("POST", PATHS[item["kind"]], body=item["body"], headers=headers)
                    response = conn.getresponse()
                    data = response.read()
                    status = response.status
                except (OSError, http.client.HTTPException) as exc:
                    conn.close()
                    data, status = repr(exc).encode(), 0
                item["seconds"] = time.perf_counter() - begin
                item["status"] = status
                item["response"] = data
                del item["body"]
                records.append(item)
        finally:
            conn.close()

    threads = [threading.Thread(target=worker) for _ in range(connections)]
    begin = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records, time.perf_counter() - begin


# -------------------------------------------------------------------- checks


def ndjson_publication(body: bytes) -> checks.Publication:
    events = [json.loads(line) for line in body.splitlines() if line]
    meta = next(e["text"] for e in events if e["event"] == "meta")
    partition = next(e["text"] for e in events if e["event"] == "partition")
    edges = "".join(e["text"] for e in events if e["event"] == "edges")
    return checks.Publication(edges, partition, meta)


def check_records(tenants: Tenants, records: list[dict]) -> list[str]:
    """The publish, sample, audit and republish checks, per tenant."""
    problems: list[str] = []
    first_body: dict[tuple[int, int], bytes] = {}
    releases: dict[tuple[int, int], checks.Publication] = {}
    measures: dict[int, dict] = {}
    for item in records:
        if item["status"] != 200 or item["kind"] != "publish":
            continue
        key = (item["size"], item["tenant"])
        if key not in first_body:
            first_body[key] = item["response"]
            pub = ndjson_publication(item["response"])
            releases[key] = pub
            ids = tenants.ids[key[0]][key[1]]
            _, edges = tenants.bases[key[0]]
            in_edges = {(ids[u], ids[v]) if ids[u] < ids[v] else (ids[v], ids[u])
                        for u, v in edges}
            problems += checks.publication_problems(ids, in_edges, pub, common.K)
        elif item["response"] != first_body[key]:
            problems.append(f"publish {key} answered two different bodies to one request")
    for s in range(len(tenants.bases)):
        shapes = {(len(p.vertices), len(p.edges), tuple(sorted(len(c) for c in p.cells)))
                  for (size, _), p in releases.items() if size == s}
        if len(shapes) > 1:
            problems.append(f"isomorphic publications of network {s} differ in shape")
    for item in records:
        if item["status"] != 200 or item["kind"] == "publish":
            continue
        key = (item["size"], item["tenant"])
        pub = releases.get(key)
        if item["kind"] == "audit":
            s, t = key
            if s not in measures:
                n, edges = tenants.bases[s]
                measures[s] = checks.combined_measure(checks.adjacency(range(n), edges))
            to_base = {v: i for i, v in enumerate(tenants.ids[s][t])}
            candidates = json.loads(item["response"])["candidates"]
            problems += checks.audit_problems(measures[s], to_base[item["target"]],
                                              [to_base[v] for v in candidates])
        elif pub is None:
            problems.append(f"{item['kind']} {key} has no publication to check against")
        elif item["kind"] == "sample":
            events = [json.loads(line) for line in item["response"].splitlines() if line]
            for event in events:
                if event["event"] == "sample":
                    vertices, edges = checks.parse_edge_list(event["text"])
                    problems += checks.approximate_sample_problems(pub, vertices, edges)
        else:
            fresh, edges = item["delta"]
            problems += checks.release_problems(pub, fresh, edges,
                                                ndjson_publication(item["response"]), common.K)
    return problems


# ------------------------------------------------------------------- metrics


def latency_metrics(records: list[dict], elapsed: float) -> dict:
    ok = [item for item in records if item["status"] == 200]
    metrics = {"throughput_rps": (len(ok) / elapsed, "1/s")}
    for kind in KINDS:
        values = [1000 * item["seconds"] for item in ok if item["kind"] == kind]
        metrics[f"{kind}_p50_ms"] = (statistics.median(values) if values else 0.0, "ms")
    values = [1000 * item["seconds"] for item in ok]
    metrics["latency_p90_ms"] = (common.percentile(values, 90) if values else 0.0, "ms")
    return metrics


def service_metrics(spans_file: str, records: list[dict],
                    cache: dict) -> tuple[dict, tracing.Summary, int]:
    """Per-layer values of the daemon's request path, from the traced half."""
    with open(spans_file, encoding="utf-8") as handle:
        payload = json.load(handle)
    spans, events = payload["spans"], payload["events"]
    summary = tracing.Summary(spans)
    requests = summary.calls.get("service.httpio.read", 0) or 1

    def per_call(layer: str) -> float:
        calls = summary.calls.get(layer, 0)
        return 1000 * summary.total_s.get(layer, 0.0) / calls if calls else 0.0

    submitted = {job: at for _, job, at, _ in events}
    waits = [1000 * (span[tracing.START] - submitted[job])
             for span in spans if span[tracing.LAYER] == "service.scheduler.batch"
             for job in span[tracing.ATTRS]["jobs"] if job in submitted]
    probes = cache.get("hits", 0) + cache.get("misses", 0) + cache.get("spill_hits", 0)
    service = {
        "service.httpio.read_ms": per_call("service.httpio.read"),
        "service.httpio.write_ms": 1000 * summary.total_s.get("service.httpio.write", 0.0)
        / requests,
        "service.httpio.response_kb": sum(len(item["response"]) for item in records)
        / max(1, len(records)) / 1000,
        "service.protocol.parse_ms": 1000 * summary.total_s.get("service.protocol.parse", 0.0)
        / requests,
        "service.canon.canonicalize_ms": per_call("service.canon.canonicalize"),
        "service.cache.hit_ratio": cache.get("hits", 0) / probes if probes else 0.0,
        "service.cache.lookup_ms": 1000 * summary.total_s.get("service.cache.lookup", 0.0)
        / probes if probes else 0.0,
        "service.scheduler.queue_wait_ms": statistics.fmean(waits) if waits else 0.0,
        "service.handlers.compute_ms": per_call("service.handlers.compute"),
        "service.handlers.render_ms": per_call("service.handlers.render"),
    }
    return service, summary, requests


# ---------------------------------------------------------------------- run


def inserted_elements(records: list[dict]) -> float:
    """Vertices plus edges the publisher inserted, per base network."""
    inserted = {}
    for item in records:
        if item["kind"] == "publish" and item["status"] == 200 and item["size"] not in inserted:
            meta = json.loads(json.loads(item["response"].split(b"\n", 1)[0])["text"])
            inserted[item["size"]] = meta["vertices_added"] + meta["edges_added"]
    return statistics.fmean(list(inserted.values())) if inserted else 0.0


def run_half(tenants: Tenants, daemon: Daemon, seconds: float) -> dict:
    try:
        records, elapsed = drive(daemon.port, tenants.plan(seconds))
        metrics = daemon.get_json("/v1/metrics")
    finally:
        code, peak = daemon.stop()
    return {"records": records, "elapsed": elapsed, "cache": metrics["cache"],
            "exit_code": code, "peak_rss_mb": peak,
            "rounds": len(records) / (len(tenants.bases) * tenants.count * len(KINDS)),
            "inserted_elements": inserted_elements(records)}


def tally(records: list[dict]) -> tuple[dict, dict]:
    attempted = {kind: 0 for kind in KINDS}
    failed = {kind: 0 for kind in KINDS}
    for item in records:
        attempted[item["kind"]] += 1
        if item["status"] != 200:
            failed[item["kind"]] += 1
    return attempted, failed


def run(seed: int, seconds: float, trace: bool, profile: dict, work: str) -> dict:
    """One run of the workload; see ``run.py`` for the report it feeds."""
    log = os.path.join(work, "daemon.log")
    warmup = Daemon(serve_argv(None), log)
    warmup.start()  # untimed: fills the page cache and compiles .pyc files
    warmup.stop()
    setups = []
    for _ in range(0 if trace else SETUP_SPAWNS - 1):
        probe = Daemon(serve_argv(None), log)
        setups.append(probe.start())
        probe.stop()
    tenants = Tenants(seed, profile)
    daemon = Daemon(serve_argv(None), log)
    setups.append(daemon.start())
    half = seconds / 2 if trace else seconds
    result = {"setup_s": statistics.median(setups), "plain": run_half(tenants, daemon, half)}
    problems = check_records(tenants, result["plain"]["records"])
    if trace:
        spans_file = os.path.join(common.WORK, f"spans-daemon-tenants-seed{seed}.json")
        traced_daemon = Daemon(serve_argv(spans_file), log)
        traced_daemon.start()
        traced = run_half(tenants, traced_daemon, half)
        service, summary, requests = service_metrics(spans_file, traced["records"],
                                                     traced["cache"])
        result["traced"] = traced
        result["per_layer"] = tracing.per_layer_metrics(summary, requests, service)
        result["self_s"] = {layer: value / requests for layer, value in summary.self_s.items()}
        problems += check_records(tenants, traced["records"])
    result["problems"] = problems
    return result

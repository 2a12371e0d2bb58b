"""ksymmetryd — the anonymization-as-a-service daemon.

Endpoints (all JSON in; JSON or chunked NDJSON out):

* ``POST /v1/publish``      anonymize a graph, stream the publication triple
* ``POST /v1/sample``       publish + draw sample graphs for analysis
* ``POST /v1/attack-audit`` re-identification check of a graph under a
  chosen attack model (hierarchy / adjacency / multiset / sybil)
* ``POST /v1/republish``    sequential release: publish + insertions delta
* ``GET  /v1/jobs/<id>``    status/result of a job (async submissions poll)
* ``GET  /v1/metrics``      cache/scheduler/endpoint counters
* ``GET  /healthz``         liveness + drain state

Guarantees (see docs/service.md for the full contract):

* **Reproducibility** — a 200 response body of the POST endpoints is
  a pure function of (request body); per-tenant results are byte-identical
  whatever the concurrency level, arrival order, worker count, or cache
  state, because randomness is namespaced via the tenant-derived seed and
  cached artifacts live in canonical vertex space.
* **Backpressure** — a full scheduler queue rejects with ``429`` and a
  ``Retry-After`` header scaled to the current queue depth instead of
  accepting unbounded work.
* **Graceful shutdown** — SIGTERM/SIGINT stop accepting, drain every
  accepted job, flush in-flight responses, then exit 0. If the drain
  grace period expires with responses still in flight, the abandoned
  count is logged to stderr and the daemon exits 1.
"""

from __future__ import annotations

import asyncio
import signal
import sys
from dataclasses import dataclass

from repro.core.republish import validate_delta
from repro.runtime import Stopwatch, peak_rss_bytes
from repro.service import handlers
from repro.service.cache import ArtifactCache
from repro.service.httpio import HTTPError, HTTPRequest, ResponseWriter, read_request
from repro.service.jobs import Job, JobRegistry
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import (
    AuditRequest,
    ProtocolError,
    RepublishRequest,
    parse_audit,
    parse_graph,
    parse_publish,
    parse_republish,
    parse_sample,
    validate_audit_graph,
)
from repro.service.scheduler import BatchScheduler, SchedulerFull
from repro.utils.validation import AnonymizationError

#: floor for the Retry-After value sent with 429 responses, in seconds
RETRY_AFTER_SECONDS = 1


def retry_after_seconds(queued: int, max_batch: int) -> int:
    """Retry-After for a 429, scaled to queue depth.

    One batch is the scheduler's unit of progress, so ``ceil(queued /
    max_batch)`` batches stand between the client and a free slot; a fixed
    constant under-advises exactly when the queue is deepest.
    """
    return max(RETRY_AFTER_SECONDS, -(-queued // max(1, max_batch)))


@dataclass
class ServiceConfig:
    host: str = "127.0.0.1"
    port: int = 8777
    #: worker processes for the batch pool (None = REPRO_JOBS env, else serial)
    jobs: int | None = None
    cache_entries: int = 128
    cache_spill_dir: str | None = None
    max_queue: int = 64
    max_batch: int = 16
    #: seconds a synchronous request waits for its job before 504
    request_timeout: float = 300.0
    #: request body size bound, bytes
    max_body: int = 8 * 1024 * 1024
    #: terminal jobs kept pollable under /v1/jobs
    keep_jobs: int = 256
    #: grace period for in-flight connections at shutdown, seconds
    drain_grace: float = 10.0


class KSymmetryDaemon:
    """One server instance; ``start`` binds, ``shutdown`` drains."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.cache = ArtifactCache(self.config.cache_entries,
                                   self.config.cache_spill_dir)
        self.scheduler = BatchScheduler(jobs=self.config.jobs,
                                        max_queue=self.config.max_queue,
                                        max_batch=self.config.max_batch,
                                        cache=self.cache)
        self.registry = JobRegistry(self.config.keep_jobs)
        self.metrics = ServiceMetrics()
        #: artifacts promoted from the spill directory at the last start()
        self.cache_warmed = 0
        self._server: asyncio.Server | None = None
        self._draining = False
        self._terminated = asyncio.Event()
        self._finalizers: set[asyncio.Task] = set()
        self._connections: set[asyncio.Task] = set()
        self._active_requests = 0
        self._idle = asyncio.Event()
        self._idle.set()
        #: requests still in flight when the drain grace period expired —
        #: their connections were cancelled, so their clients saw no response
        self.abandoned_requests = 0

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        # Rescan the spill directory before serving: async results spilled
        # (or flushed at shutdown) by a previous incarnation come back warm.
        self.cache_warmed = self.cache.warm_up()
        self.scheduler.start()
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port)

    @property
    def bound_port(self) -> int:
        assert self._server is not None and self._server.sockets
        port = self._server.sockets[0].getsockname()[1]
        return int(port)

    async def wait_terminated(self) -> None:
        await self._terminated.wait()

    async def shutdown(self) -> None:
        """Stop accepting, drain accepted jobs, flush responses, terminate."""
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.scheduler.drain()
        if self._finalizers:
            await asyncio.gather(*self._finalizers, return_exceptions=True)
        try:
            await asyncio.wait_for(self._idle.wait(), self.config.drain_grace)
        except asyncio.TimeoutError:
            self.abandoned_requests = self._active_requests
            print(
                f"ksymmetryd: drain grace ({self.config.drain_grace}s) expired "
                f"with {self.abandoned_requests} request(s) still in flight; "
                "abandoning them",
                file=sys.stderr, flush=True)
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        # Persist the in-memory tier so the next incarnation warms up with it.
        self.cache.spill_all()
        self._terminated.set()

    # -- connection handling --------------------------------------------

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._connections.add(task)
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            pass
        finally:
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        while True:
            try:
                request = await read_request(reader,
                                             max_body=self.config.max_body)
            except HTTPError as exc:
                response = ResponseWriter(writer, keep_alive=False)
                await response.send_error(exc.status, exc.message)
                return
            except ConnectionError:
                return
            if request is None:
                return
            keep_alive = request.keep_alive and not self._draining
            response = ResponseWriter(writer, keep_alive=keep_alive)
            self._request_started()
            watch = Stopwatch()
            try:
                endpoint, status = await self._dispatch(request, response)
            except ConnectionError:
                return
            except Exception as exc:  # noqa: BLE001 - must answer, not die
                endpoint, status = "internal", 500
                if not response.started:
                    await response.send_error(500, f"internal error: {exc!r}")
            finally:
                self._request_finished()
            self.metrics.observe(endpoint, status, watch.elapsed())
            if not keep_alive:
                return

    def _request_started(self) -> None:
        self._active_requests += 1
        self._idle.clear()

    def _request_finished(self) -> None:
        self._active_requests -= 1
        if self._active_requests == 0:
            self._idle.set()

    # -- routing --------------------------------------------------------

    async def _dispatch(self, request: HTTPRequest,
                        response: ResponseWriter) -> tuple[str, int]:
        path = request.path.rstrip("/") or "/"
        if path == "/healthz":
            return await self._get_only(request, response, "healthz",
                                        self._handle_healthz)
        if path == "/v1/metrics":
            return await self._get_only(request, response, "metrics",
                                        self._handle_metrics)
        if path.startswith("/v1/jobs/"):
            return await self._get_only(request, response, "jobs",
                                        self._handle_job, path[len("/v1/jobs/"):])
        if path == "/v1/publish":
            return await self._post_job(request, response, "publish",
                                        parse_publish)
        if path == "/v1/sample":
            return await self._post_job(request, response, "sample",
                                        parse_sample)
        if path == "/v1/attack-audit":
            return await self._post_job(request, response, "attack-audit",
                                        parse_audit)
        if path == "/v1/republish":
            return await self._post_job(request, response, "republish",
                                        parse_republish)
        await response.send_error(404, f"no such endpoint: {request.path}")
        return "unknown", 404

    async def _get_only(self, request: HTTPRequest, response: ResponseWriter,
                        endpoint: str, handler, *args) -> tuple[str, int]:
        if request.method != "GET":
            await response.send_error(405, f"{endpoint} only supports GET")
            return endpoint, 405
        status = await handler(response, *args)
        return endpoint, status

    async def _handle_healthz(self, response: ResponseWriter) -> int:
        await response.send_json(200, {
            "queued": self.scheduler.queued,
            "status": "draining" if self._draining else "ok",
        })
        return 200

    async def _handle_metrics(self, response: ResponseWriter) -> int:
        await response.send_json(200, {
            "cache": self.cache.stats(),
            "cache_warmed": self.cache_warmed,
            "endpoints": self.metrics.snapshot(),
            "jobs": self.registry.stats(),
            "peak_rss_bytes": peak_rss_bytes(),
            "scheduler": self.scheduler.stats(),
        })
        return 200

    async def _handle_job(self, response: ResponseWriter, job_id: str) -> int:
        job = self.registry.get(job_id)
        if job is None:
            await response.send_error(404, f"unknown job {job_id!r}")
            return 404
        await response.send_json(200, job.descriptor())
        return 200

    # -- the three POST endpoints ---------------------------------------

    async def _post_job(self, request: HTTPRequest, response: ResponseWriter,
                        endpoint: str, parse) -> tuple[str, int]:
        if request.method != "POST":
            await response.send_error(405, f"{endpoint} only supports POST")
            return endpoint, 405
        if self._draining:
            await response.send_error(503, "daemon is draining; resubmit")
            return endpoint, 503
        try:
            parsed = parse(request.json())
            graph = parse_graph(parsed.edges_text)
            if isinstance(parsed, AuditRequest):
                validate_audit_graph(parsed, graph)
            if isinstance(parsed, RepublishRequest):
                try:
                    validate_delta(parsed.delta(), graph)
                except AnonymizationError as exc:
                    raise ProtocolError(f"bad delta: {exc}") from exc
        except HTTPError as exc:
            await response.send_error(exc.status, exc.message)
            return endpoint, exc.status
        except ProtocolError as exc:
            await response.send_error(400, str(exc))
            return endpoint, 400
        job = self.registry.create(parsed, graph)
        try:
            self.scheduler.submit(job)
        except SchedulerFull as exc:
            job.fail(429, str(exc))
            retry_after = retry_after_seconds(self.scheduler.queued,
                                              self.config.max_batch)
            await response.send_error(
                429, str(exc),
                extra_headers={"Retry-After": str(retry_after)})
            return endpoint, 429
        finalizer = asyncio.get_running_loop().create_task(
            self._finalize_job(job))
        self._finalizers.add(finalizer)
        finalizer.add_done_callback(self._finalizers.discard)
        if parsed.run_async:
            await response.send_json(
                202, {"job": job.id, "poll": f"/v1/jobs/{job.id}"},
                extra_headers={"X-Job-Id": job.id})
            return endpoint, 202
        try:
            await asyncio.wait_for(job.rendered.wait(),
                                   self.config.request_timeout)
        except asyncio.TimeoutError:
            job.state = "timeout" if not job.finished else job.state
            await response.send_error(
                504, f"request timed out after {self.config.request_timeout}s; "
                     f"poll /v1/jobs/{job.id}",
                extra_headers={"X-Job-Id": job.id})
            return endpoint, 504
        return endpoint, await self._respond_finished(job, response)

    async def _respond_finished(self, job: Job,
                                response: ResponseWriter) -> int:
        headers = {"X-Job-Id": job.id}
        if job.state != "done":
            await response.send_error(
                job.error_status, job.error or "job failed",
                extra_headers=headers)
            return job.error_status
        if job.result_obj is not None:
            await response.send_json(200, job.result_obj, extra_headers=headers)
            return 200
        assert job.result_lines is not None
        await response.start_ndjson(200, extra_headers=headers)
        for line in job.result_lines:
            await response.send_line(line)
        await response.finish_ndjson()
        return 200

    async def _finalize_job(self, job: Job) -> None:
        """Await the scheduler outcome and render the response payload once."""
        tag, value = await job.future
        if tag == "ok":
            ci, artifact = value
            try:
                if job.kind == "publish":
                    job.result_lines = handlers.build_publish_lines(ci, artifact)
                elif job.kind == "sample":
                    job.result_lines = handlers.build_sample_lines(ci, artifact)
                elif job.kind == "republish":
                    job.result_lines = handlers.build_republish_lines(
                        ci, job.request, artifact)
                else:
                    job.result_obj = handlers.build_audit_obj(ci, artifact)
                # a late result after a sync 504 is still valid and pollable
                job.state = "done"
            except ProtocolError as exc:
                job.fail(400, str(exc))
            except Exception as exc:  # noqa: BLE001 - rendering must not leak
                job.fail(500, f"response rendering failed: {exc!r}")
        elif tag == "rejected":
            job.fail(400, str(value))
        else:
            job.fail(500, str(value))
        job.rendered.set()


async def _amain(config: ServiceConfig) -> int:
    daemon = KSymmetryDaemon(config)
    await daemon.start()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(
                signum, lambda: loop.create_task(daemon.shutdown()))
        except NotImplementedError:  # pragma: no cover - non-unix
            pass
    print(f"ksymmetryd listening on {config.host}:{daemon.bound_port}",
          flush=True)
    await daemon.wait_terminated()
    if daemon.abandoned_requests:
        print(
            f"ksymmetryd: exited with {daemon.abandoned_requests} abandoned "
            "request(s) (drain grace expired)",
            file=sys.stderr, flush=True)
        return 1
    print("ksymmetryd drained cleanly", flush=True)
    return 0


def run(config: ServiceConfig | None = None) -> int:
    """Blocking entry point used by ``ksymmetry serve`` and ``__main__``."""
    try:
        return asyncio.run(_amain(config or ServiceConfig()))
    except KeyboardInterrupt:  # pragma: no cover - direct Ctrl-C race
        print("ksymmetryd interrupted", file=sys.stderr)
        return 130

"""Batching scheduler: coalesces concurrent requests onto the runtime pool.

One asyncio consumer drains the bounded submission queue in batches (up to
``max_batch`` jobs per round) and executes each batch in a worker thread via
a shared :class:`repro.runtime.ParallelMap` — so N concurrent HTTP requests
cost one pool dispatch, not N. Each batch runs two pipelined stages:

1. **canonicalize** every job's graph (certificate + labeling — the digest
   *is* the cache key). The search runs once per distinct request text: a
   bounded LRU memo maps the SHA-256 of ``edges_text`` to the
   :class:`~repro.service.canon.CanonicalInput` it produced, and only the
   texts it has not seen go to the pool, each once however many jobs of the
   batch carry it. ``parse_graph`` and the search are deterministic, so a
   hit is exact. The memo holds the requester's own vertex ids
   (``CanonicalInput.inverse``), so it lives in this process's memory only —
   never in the artifact cache, its keys or its spill files — and only a
   byte-identical text can hit it. Failed searches are not memoized;
2. probe the :class:`~repro.service.cache.ArtifactCache` with the digests,
   then compute only the **misses** in a second pool pass and install their
   artifacts in the cache.

Backpressure is the queue bound: ``submit`` raises :class:`SchedulerFull`
synchronously when the queue is at capacity and the daemon converts that
into ``429 Retry-After``. A test-only gate (:meth:`pause`/:meth:`resume`)
holds batch consumption so queue-full and drain behaviour can be exercised
deterministically.

Determinism: per-job outcomes are pure functions of the job's request (the
cache stores canonical artifacts that recompute bit-identically on a miss),
so batch composition, arrival order, and worker count never leak into
response bodies — only into latency and the metrics counters.
"""

from __future__ import annotations

import asyncio
import hashlib
from collections import OrderedDict

from repro.runtime import ParallelMap
from repro.service import handlers
from repro.service.cache import ArtifactCache
from repro.service.canon import CanonicalInput
from repro.service.jobs import Job
from repro.service.protocol import (
    AuditRequest,
    ProtocolError,
    PublishRequest,
    RepublishRequest,
    SampleRequest,
    effective_seed,
)


class SchedulerFull(Exception):
    """The submission queue is at capacity; the caller should retry later."""


class BatchScheduler:
    """Owns the queue, the worker pool, and the artifact cache."""

    def __init__(self, *, jobs: int | None = None, max_queue: int = 64,
                 max_batch: int = 16, cache: ArtifactCache | None = None) -> None:
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.max_queue = max_queue
        self.max_batch = max_batch
        self.cache = cache if cache is not None else ArtifactCache()
        self._pmap = ParallelMap(jobs)
        self._queue: asyncio.Queue[Job] = asyncio.Queue(maxsize=max_queue)
        self._gate = asyncio.Event()
        self._gate.set()
        self._consumer: asyncio.Task | None = None
        self._draining = False
        # counters (written on the event loop / batch thread, read anywhere)
        self.submitted = 0
        self.rejected = 0
        self.completed = 0
        self.failed = 0
        self.batches = 0
        self.largest_batch = 0
        self.queue_high_water = 0
        self.canonicalize_stats: dict | None = None
        self.artifact_stats: dict | None = None
        #: SHA-256 of a request's edges_text -> its CanonicalInput, LRU
        #: bounded like the artifact cache (batch thread only)
        self._canonical_memo: OrderedDict[bytes, CanonicalInput] = OrderedDict()
        #: jobs answered from the memo / canonical searches run
        self.memo_hits = 0
        self.memo_misses = 0

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        if self._consumer is None:
            self._consumer = asyncio.get_running_loop().create_task(
                self._consume_forever())

    async def drain(self) -> None:
        """Finish every accepted job, then stop the consumer."""
        self._draining = True
        await self._queue.join()
        # Claim the consumer slot before awaiting: a second concurrent
        # drain() (SIGTERM racing an explicit shutdown) must see the slot
        # already empty instead of cancelling/awaiting the same task after
        # this coroutine resumed and the field went stale.
        consumer, self._consumer = self._consumer, None
        if consumer is not None:
            consumer.cancel()
            try:
                await consumer
            except asyncio.CancelledError:
                pass

    # -- test hooks -----------------------------------------------------

    def pause(self) -> None:
        """Hold batch consumption (queued jobs stay queued)."""
        self._gate.clear()

    def resume(self) -> None:
        self._gate.set()

    # -- submission ------------------------------------------------------

    @property
    def queued(self) -> int:
        return self._queue.qsize()

    def submit(self, job: Job) -> None:
        """Enqueue *job* or raise :class:`SchedulerFull` (maps to HTTP 429)."""
        if self._draining:
            raise SchedulerFull("scheduler is draining")
        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            self.rejected += 1
            raise SchedulerFull(
                f"queue is at capacity ({self.max_queue} jobs)") from None
        self.submitted += 1
        self.queue_high_water = max(self.queue_high_water, self._queue.qsize())

    # -- consumption -----------------------------------------------------

    async def _consume_forever(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            job = await self._queue.get()
            await self._gate.wait()
            batch = [job]
            while len(batch) < self.max_batch:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            for member in batch:
                member.state = "running"
            try:
                outcomes = await loop.run_in_executor(
                    None, self._run_batch, batch)
            except Exception as exc:  # noqa: BLE001 - keep the consumer alive
                outcomes = [("error", f"batch execution failed: {exc!r}")
                            for _ in batch]
            self.batches += 1
            self.largest_batch = max(self.largest_batch, len(batch))
            for member, outcome in zip(batch, outcomes):
                if outcome[0] == "ok":
                    self.completed += 1
                else:
                    self.failed += 1
                member.resolve(outcome)
                self._queue.task_done()

    # -- batch execution (worker thread) ----------------------------------

    def _run_batch(self, batch: list[Job]) -> list[tuple[str, object]]:
        stage1 = self._canonicalize(batch)
        outcomes: list[tuple[str, object] | None] = [None] * len(batch)
        pending: list[tuple[int, object, dict]] = []  # (batch index, ci, keys)
        specs: list[dict] = []
        for index, (tag, value) in enumerate(stage1):
            if tag != "ok":
                outcomes[index] = ("error", value)
                continue
            ci = value
            try:
                keys, spec, hit = self._plan(batch[index], ci)
            except ProtocolError as exc:
                outcomes[index] = ("rejected", str(exc))
                continue
            if hit is not None:
                outcomes[index] = ("ok", (ci, hit))
                continue
            pending.append((index, ci, keys))
            specs.append(spec)
        if specs:
            stage2 = self._pmap.map(handlers.execute_artifact, specs)
            if self._pmap.last_stats is not None:
                self.artifact_stats = self._pmap.last_stats.to_dict()
            for (index, ci, keys), (tag, value) in zip(pending, stage2):
                if tag != "ok":
                    outcomes[index] = ("error", value)
                    continue
                try:
                    artifact = self._install(batch[index], ci, keys, value)
                except ProtocolError as exc:
                    outcomes[index] = ("rejected", str(exc))
                    continue
                outcomes[index] = ("ok", (ci, artifact))
        assert all(outcome is not None for outcome in outcomes)
        return outcomes  # type: ignore[return-value]

    def _canonicalize(self, batch: list[Job]) -> list[tuple[str, object]]:
        """Stage 1: each job's tagged CanonicalInput, searching unseen texts only.

        ``memo_misses`` counts the searches run; every other job — a memo hit
        or a repeat of a text earlier in the same batch — is a ``memo_hits``.
        """
        # surrogatepass: a JSON "\ud800" escape decodes to a lone surrogate,
        # which strict UTF-8 refuses; the encoding stays injective
        keys = [hashlib.sha256(job.request.edges_text.encode(
                    "utf-8", "surrogatepass")).digest() for job in batch]
        found: dict[bytes, tuple[str, object]] = {}
        unseen: dict[bytes, object] = {}  # text key -> graph to search
        for key, job in zip(keys, batch):
            if key in found or key in unseen:
                continue
            ci = self._canonical_memo.get(key)
            if ci is None:
                unseen[key] = job.graph
            else:
                self._canonical_memo.move_to_end(key)
                found[key] = ("ok", ci)
        self.memo_hits += len(batch) - len(unseen)
        self.memo_misses += len(unseen)
        if unseen:
            searched = self._pmap.map(handlers.execute_canonicalize,
                                      list(unseen.values()))
            if self._pmap.last_stats is not None:
                self.canonicalize_stats = self._pmap.last_stats.to_dict()
            for key, outcome in zip(unseen, searched):
                found[key] = outcome
                if outcome[0] == "ok":
                    self._canonical_memo[key] = outcome[1]
                    if len(self._canonical_memo) > self.cache.max_entries:
                        self._canonical_memo.popitem(last=False)
        return [found[key] for key in keys]

    def _plan(self, job: Job, ci) -> tuple[dict, dict | None, dict | None]:
        """Cache probe for one job: (keys, stage-2 spec, cached artifact).

        A full hit returns ``(keys, None, artifact)``; a miss returns the
        spec to compute (for samples the spec carries the publish artifact
        when only that half is cached). A republish whose delta ids collide
        with the cached release 0 raises :class:`ProtocolError` before
        anything is computed.
        """
        request = job.request
        if isinstance(request, PublishRequest):
            key = handlers.publish_key(ci, request)
            artifact = self.cache.get(key)
            if artifact is not None:
                return {"publish": key}, None, artifact
            return {"publish": key}, handlers.publish_spec(ci, request), None
        if isinstance(request, SampleRequest):
            seed = effective_seed(request.tenant, request.seed)
            skey = handlers.sample_key(ci, request, seed)
            keys = {"sample": skey}
            artifact = self.cache.get(skey)
            if artifact is not None:
                return keys, None, artifact
            pkey = handlers.publish_key(ci, request)
            keys["publish"] = pkey
            publish_artifact = self.cache.get(pkey)
            return keys, handlers.sample_spec(ci, request, seed,
                                              publish_artifact), None
        if isinstance(request, RepublishRequest):
            rkey = handlers.republish_key(ci, request)
            keys = {"republish": rkey}
            artifact = self.cache.get(rkey)
            if artifact is not None:
                return keys, None, artifact
            pkey = handlers.publish_key(ci, request)
            keys["publish"] = pkey
            publish_artifact = self.cache.get(pkey)
            if publish_artifact is not None:
                handlers.release0_mapping(ci, request, publish_artifact["vertex_ids"])
            return keys, handlers.republish_spec(ci, request,
                                                 publish_artifact), None
        assert isinstance(request, AuditRequest)
        seed = effective_seed(request.tenant, request.seed)
        key = handlers.audit_key(ci, request, seed)
        artifact = self.cache.get(key)
        if artifact is not None:
            return {"audit": key}, None, artifact
        return {"audit": key}, handlers.audit_spec(ci, request, seed), None

    def _install(self, job: Job, ci: CanonicalInput, keys: dict, result: dict) -> dict:
        """Store freshly computed artifacts; returns the response artifact.

        A republish whose delta ids collide with the release 0 computed in
        the same job raises :class:`ProtocolError`; only that valid release
        0 is stored.
        """
        request = job.request
        if isinstance(request, SampleRequest):
            if result.get("publish") is not None:
                self.cache.put(keys["publish"], result["publish"])
            self.cache.put(keys["sample"], result["sample"])
            return result["sample"]
        if isinstance(request, RepublishRequest):
            if result.get("publish") is not None:
                self.cache.put(keys["publish"], result["publish"])
                handlers.release0_mapping(ci, request, result["publish"]["vertex_ids"])
            self.cache.put(keys["republish"], result["republish"])
            return result["republish"]
        key = keys.get("publish") or keys["audit"]
        self.cache.put(key, result)
        return result

    # -- reporting --------------------------------------------------------

    def stats(self) -> dict:
        payload: dict = {
            "batches": self.batches,
            "canonical_memo": {
                "entries": len(self._canonical_memo),
                "hits": self.memo_hits,
                "misses": self.memo_misses,
            },
            "completed": self.completed,
            "failed": self.failed,
            "jobs": self._pmap.jobs,
            "largest_batch": self.largest_batch,
            "max_batch": self.max_batch,
            "max_queue": self.max_queue,
            "queue_high_water": self.queue_high_water,
            "queued": self.queued,
            "rejected": self.rejected,
            "submitted": self.submitted,
        }
        if self.canonicalize_stats is not None:
            payload["canonicalize_runstats"] = self.canonicalize_stats
        if self.artifact_stats is not None:
            payload["artifact_runstats"] = self.artifact_stats
        return dict(sorted(payload.items()))

"""Job objects and the daemon's bounded job registry.

A job is one accepted POST: it carries the parsed request, the graph, and an
``asyncio`` future the scheduler resolves from its batch thread. States move
``queued -> running -> done | failed``; a sync requester that stops waiting
marks the job ``timeout`` (the computation still completes and the result
stays pollable under ``GET /v1/jobs/<id>``).

Job ids are per-daemon sequence numbers — they identify, they do not
reproduce. Response *bodies* of the publish/sample/audit endpoints never
embed a job id precisely so that bodies stay a pure function of the request;
the id travels in the ``X-Job-Id`` header and the jobs endpoint instead.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict

from repro.service.protocol import Request

_TERMINAL = ("done", "failed", "timeout")


class Job:
    """One accepted request moving through the scheduler."""

    __slots__ = ("id", "kind", "tenant", "graph", "request", "state", "error",
                 "error_status", "future", "rendered", "result_lines",
                 "result_obj")

    def __init__(self, job_id: str, request: Request, graph) -> None:
        self.id = job_id
        self.kind = request.kind
        self.tenant = request.tenant
        self.graph = graph
        self.request = request
        self.state = "queued"
        self.error: str | None = None
        #: HTTP status of a failed job's answer (4xx: the request's fault)
        self.error_status = 500
        #: resolved by the scheduler: ("ok", (ci, artifact)) | ("error", msg)
        #: | ("rejected", msg) — a 400 found before the artifact was stored
        self.future: asyncio.Future = asyncio.get_running_loop().create_future()
        #: set once the response payload has been rendered from the artifact
        self.rendered = asyncio.Event()
        self.result_lines: list[dict] | None = None
        self.result_obj: dict | None = None

    def resolve(self, outcome: tuple[str, object]) -> None:
        """Called on the event loop once the batch thread finishes this job."""
        if not self.future.done():
            self.future.set_result(outcome)

    def fail(self, status: int, message: str) -> None:
        self.state = "failed"
        self.error_status = status
        self.error = message

    @property
    def finished(self) -> bool:
        return self.state in _TERMINAL

    def descriptor(self) -> dict:
        payload: dict = {
            "id": self.id,
            "kind": self.kind,
            "state": self.state,
            "tenant": self.tenant,
        }
        if self.state == "done":
            if self.result_lines is not None:
                payload["result"] = self.result_lines
            elif self.result_obj is not None:
                payload["result"] = self.result_obj
        if self.error is not None:
            payload["error"] = self.error
            payload["status"] = self.error_status
        return payload


class JobRegistry:
    """Creates jobs and keeps a bounded history of terminal ones."""

    def __init__(self, keep_jobs: int = 256) -> None:
        if keep_jobs < 1:
            raise ValueError(f"keep_jobs must be >= 1, got {keep_jobs}")
        self.keep_jobs = keep_jobs
        self._jobs: OrderedDict[str, Job] = OrderedDict()
        self._next = 0
        self.created = 0

    def create(self, request: Request, graph) -> Job:
        self._next += 1
        self.created += 1
        job = Job(f"job-{self._next:08d}", request, graph)
        self._jobs[job.id] = job
        self._prune()
        return job

    def get(self, job_id: str) -> Job | None:
        return self._jobs.get(job_id)

    def _prune(self) -> None:
        if len(self._jobs) <= self.keep_jobs:
            return
        for job_id in list(self._jobs):
            if len(self._jobs) <= self.keep_jobs:
                break
            if self._jobs[job_id].finished:
                del self._jobs[job_id]

    def stats(self) -> dict[str, int]:
        states = {"done": 0, "failed": 0, "queued": 0, "running": 0, "timeout": 0}
        for job in self._jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        payload = {"created": self.created, "tracked": len(self._jobs)}
        payload.update(states)
        return dict(sorted(payload.items()))

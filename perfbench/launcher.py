"""Start ksymmetryd with the benchmark's spans installed (traced runs only).

    python3 perfbench/launcher.py SPANS.json serve --port 0

Installs :data:`tracing.LAYERS` and :data:`tracing.SERVICE_LAYERS` plus the
request-path hooks below, then hands the remaining arguments to the CLI's
entry point. When the daemon has drained (SIGTERM), the spans and the
scheduler events are written to SPANS.json.

Request-path hooks:

* ``read_request`` opens its span when the request head has arrived (a
  keep-alive connection otherwise counts the client's idle time as
  reading) and gives every request an id, carried by the spans that the
  request's task opens afterwards;
* ``BatchScheduler.submit`` records each job's submit time and request id;
* ``BatchScheduler._run_batch`` — where a batch starts — opens the batch
  span, so queue wait is batch start minus submit, per job.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import itertools
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import tracing  # noqa: E402


def install_request_hooks(tracer: tracing.Tracer) -> None:
    from repro.service import daemon, httpio, scheduler

    head_arrival: contextvars.ContextVar = contextvars.ContextVar("head", default=None)
    request_ids = itertools.count(1)
    job_request: dict[str, int | None] = {}

    original_readuntil = asyncio.StreamReader.readuntil

    @functools.wraps(original_readuntil)
    async def readuntil(self, separator=b"\n"):
        data = await original_readuntil(self, separator)
        head_arrival.set(time.perf_counter())
        return data

    original_read = httpio.read_request

    @functools.wraps(original_read)
    async def read_request(reader, *, max_body):
        head_arrival.set(None)
        parent = tracer.current.get()
        try:
            request = await original_read(reader, max_body=max_body)
        finally:
            end = time.perf_counter()
        if request is None:
            return None
        rid = next(request_ids)
        start = head_arrival.get() or end
        tracer.spans.append([next(tracer.ids), "service.httpio.read", start, end,
                             parent[tracing.ID] if parent else 0, rid, None])
        tracer.request.set(rid)
        return request

    original_submit = scheduler.BatchScheduler.submit

    @functools.wraps(original_submit)
    def submit(self, job):
        job_request[job.id] = tracer.request.get()
        tracer.events.append(["submit", job.id, time.perf_counter(), tracer.request.get()])
        return original_submit(self, job)

    original_batch = scheduler.BatchScheduler._run_batch

    @functools.wraps(original_batch)
    def run_batch(self, batch):
        rids = [job_request.get(job.id) for job in batch]
        token = tracer.request.set(rids[0] if len(rids) == 1 else None)
        record, span_token = tracer.open("service.scheduler.batch")
        record[tracing.ATTRS] = {"jobs": [job.id for job in batch], "requests": rids}
        try:
            return original_batch(self, batch)
        finally:
            tracer.close(record, span_token)
            tracer.request.reset(token)

    tracer.replace(asyncio.StreamReader, "readuntil", readuntil)
    tracer.replace(httpio, "read_request", read_request)
    tracer.replace(daemon, "read_request", read_request)
    tracer.replace(scheduler.BatchScheduler, "submit", submit)
    tracer.replace(scheduler.BatchScheduler, "_run_batch", run_batch)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    common.require_program()
    import repro.cli
    import repro.service.daemon  # noqa: F401 - loaded before its references are wrapped

    tracer = tracing.Tracer()
    tracer.install(tracing.LAYERS + tracing.SERVICE_LAYERS)
    install_request_hooks(tracer)
    try:
        return repro.cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

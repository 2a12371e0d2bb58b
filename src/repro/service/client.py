"""Blocking HTTP client for ksymmetryd (stdlib ``http.client`` only).

Used by the end-to-end tests and the load generator; also a reasonable
reference for talking to the daemon from any language: plain JSON POSTs,
chunked NDJSON responses (``http.client`` de-chunks transparently).

One :class:`ServiceClient` holds one keep-alive connection and is **not**
thread-safe — the load generator gives each worker thread its own client,
mirroring how independent tenants would connect.
"""

from __future__ import annotations

import http.client
import json
import time


class ServiceError(Exception):
    """Non-2xx response from the daemon."""

    def __init__(self, status: int, message: str,
                 headers: dict[str, str] | None = None) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        self.headers = headers or {}


class ServiceClient:
    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._conn: http.client.HTTPConnection | None = None

    # -- transport ------------------------------------------------------

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout)
        return self._conn

    def request_raw(self, method: str, path: str, payload: dict | None = None,
                    ) -> tuple[int, dict[str, str], bytes]:
        """One request; returns (status, lower-cased headers, raw body).

        Retries once on a stale keep-alive connection (the daemon may have
        closed it between requests), never on a fresh one.
        """
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            headers["Content-Type"] = "application/json"
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                data = response.read()
            except (http.client.HTTPException, ConnectionError, BrokenPipeError):
                self.close()
                if attempt:
                    raise
                continue
            return (response.status,
                    {k.lower(): v for k, v in response.getheaders()},
                    data)
        raise AssertionError("unreachable")  # pragma: no cover

    def _json(self, method: str, path: str,
              payload: dict | None = None) -> dict:
        status, headers, data = self.request_raw(method, path, payload)
        parsed = json.loads(data.decode("utf-8")) if data else {}
        if status >= 400:
            message = parsed.get("error", "") if isinstance(parsed, dict) else ""
            raise ServiceError(status, message or data.decode("utf-8", "replace"),
                               headers)
        return parsed

    def _ndjson(self, path: str, payload: dict) -> list[dict]:
        status, headers, data = self.request_raw("POST", path, payload)
        text = data.decode("utf-8")
        if status >= 400:
            try:
                message = json.loads(text).get("error", text)
            except json.JSONDecodeError:
                message = text
            raise ServiceError(status, message, headers)
        return [json.loads(line) for line in text.splitlines() if line]

    # -- endpoints ------------------------------------------------------

    def healthz(self) -> dict:
        return self._json("GET", "/healthz")

    def metrics(self) -> dict:
        return self._json("GET", "/v1/metrics")

    def job(self, job_id: str) -> dict:
        return self._json("GET", f"/v1/jobs/{job_id}")

    def publish(self, edges_text: str, *, k: int = 2, tenant: str = "public",
                seed: int = 0, method: str = "exact", copy_unit: str = "orbit",
                run_async: bool = False) -> list[dict] | dict:
        payload = {"edges": edges_text, "k": k, "tenant": tenant, "seed": seed,
                   "method": method, "copy_unit": copy_unit}
        if run_async:
            payload["async"] = True
            return self._json("POST", "/v1/publish", payload)
        return self._ndjson("/v1/publish", payload)

    def sample(self, edges_text: str, *, k: int = 2, count: int = 1,
               strategy: str = "approximate", tenant: str = "public",
               seed: int = 0, method: str = "exact", copy_unit: str = "orbit",
               run_async: bool = False) -> list[dict] | dict:
        payload = {"edges": edges_text, "k": k, "count": count,
                   "strategy": strategy, "tenant": tenant, "seed": seed,
                   "method": method, "copy_unit": copy_unit}
        if run_async:
            payload["async"] = True
            return self._json("POST", "/v1/sample", payload)
        return self._ndjson("/v1/sample", payload)

    def republish(self, edges_text: str, *, add_vertices: list[int],
                  add_edges: list[list[int]] | None = None, k: int = 2,
                  tenant: str = "public", seed: int = 0,
                  method: str = "exact", copy_unit: str = "orbit",
                  run_async: bool = False) -> list[dict] | dict:
        """Sequential release: *edges_text* is the original release-0 input;
        the delta lists new vertices and insertions-only edges."""
        payload = {"edges": edges_text, "k": k, "tenant": tenant,
                   "seed": seed, "method": method, "copy_unit": copy_unit,
                   "delta": {"add_vertices": list(add_vertices),
                             "add_edges": [list(e) for e in add_edges or []]}}
        if run_async:
            payload["async"] = True
            return self._json("POST", "/v1/republish", payload)
        return self._ndjson("/v1/republish", payload)

    def attack_audit(self, edges_text: str, target: int | None = None, *,
                     model: str = "hierarchy", measure: str = "combined",
                     ell: int | None = None,
                     attackers: list[int] | None = None,
                     targets: list[int] | None = None,
                     sybils: int | None = None, k: int | None = None,
                     tenant: str = "public", seed: int = 0,
                     run_async: bool = False) -> dict:
        """Audit under any attack model; only model-relevant fields are sent
        (the protocol rejects fields that do not apply to the model)."""
        payload: dict = {"edges": edges_text, "model": model,
                         "tenant": tenant, "seed": seed}
        if model == "hierarchy":
            payload.update({"target": target, "measure": measure})
        elif model in ("adjacency", "multiset"):
            if attackers is not None:
                payload["attackers"] = list(attackers)
                payload["target"] = target
            elif ell is not None:
                payload["ell"] = ell
        else:
            payload["targets"] = list(targets or [])
            if sybils is not None:
                payload["sybils"] = sybils
            if k is not None:
                payload["k"] = k
        if run_async:
            payload["async"] = True
        return self._json("POST", "/v1/attack-audit", payload)

    def wait_for_job(self, job_id: str, *, attempts: int = 600,
                     poll_sleep: float = 0.05) -> dict:
        """Poll a job until it leaves queued/running; bounded, then raises."""
        for _ in range(attempts):
            descriptor = self.job(job_id)
            if descriptor["state"] not in ("queued", "running"):
                return descriptor
            time.sleep(poll_sleep)
        raise TimeoutError(f"job {job_id} still pending after {attempts} polls")


def publication_from_lines(lines: list[dict]) -> tuple[str, str, str]:
    """Reassemble (edges, partition, meta) texts from publish NDJSON lines."""
    meta_text = ""
    partition_text = ""
    edge_chunks: list[tuple[int, str]] = []
    for line in lines:
        event = line.get("event")
        if event == "meta":
            meta_text = line["text"]
        elif event == "partition":
            partition_text = line["text"]
        elif event == "edges":
            edge_chunks.append((line["chunk"], line["text"]))
    edges_text = "".join(text for _, text in sorted(edge_chunks))
    return edges_text, partition_text, meta_text

"""End-to-end tests of ksymmetryd: round-trips, reproducibility, lifecycle.

The daemon runs in-process on a background thread (its own event loop, an
ephemeral port) so tests can reach both the HTTP surface and the scheduler's
deterministic pause/resume gate; the SIGTERM drain test boots a real
``python -m repro.service`` subprocess instead.
"""

import asyncio
import io
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.core.publication import parse_publication, publication_texts
from repro.core.reference import reference_republish
from repro.core.republish import GraphDelta
from repro.datasets.paper_graphs import figure3_graph
from repro.graphs.graph import Graph
from repro.graphs.io import read_edge_list, write_edge_list
from repro.graphs.partition import Partition
from repro.service import (
    KSymmetryDaemon,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    effective_seed,
    handlers,
    publication_from_lines,
)
from repro.service.protocol import (
    parse_graph,
    parse_publish,
    parse_republish,
    parse_sample,
)
from repro.utils.validation import ReproError


def edges_text(graph) -> str:
    return "".join(f"{u} {v}\n" for u, v in graph.sorted_edges())


FIG3 = edges_text(figure3_graph())
#: same graph, different vertex ids — isomorphic, so it shares cache entries
FIG3_RELABELED = edges_text(
    figure3_graph().relabeled({v: 3 * v + 100 for v in figure3_graph().vertices()}))
PATH4 = "0 1\n1 2\n2 3\n"


class DaemonHarness:
    """In-process daemon on a thread-owned event loop (ephemeral port)."""

    def __init__(self, **overrides) -> None:
        overrides.setdefault("port", 0)
        self.config = ServiceConfig(**overrides)
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

    def __enter__(self) -> "DaemonHarness":
        self._thread.start()
        assert self._ready.wait(15), "daemon failed to start"
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def port(self) -> int:
        assert self.daemon is not None
        return self.daemon.bound_port

    def client(self, timeout: float = 30.0) -> ServiceClient:
        return ServiceClient("127.0.0.1", self.port, timeout=timeout)

    def pause(self) -> None:
        assert self.loop is not None and self.daemon is not None
        self.loop.call_soon_threadsafe(self.daemon.scheduler.pause)

    def resume(self) -> None:
        assert self.loop is not None and self.daemon is not None
        self.loop.call_soon_threadsafe(self.daemon.scheduler.resume)

    def stop(self) -> None:
        if self.daemon is None or self.loop is None:
            return
        if self._thread.is_alive():
            future = asyncio.run_coroutine_threadsafe(
                self.daemon.shutdown(), self.loop)
            future.result(timeout=30)
        self._thread.join(timeout=15)
        assert not self._thread.is_alive(), "daemon thread failed to terminate"


@pytest.fixture(scope="module")
def daemon():
    with DaemonHarness() as harness:
        yield harness


class TestRoundTrips:
    def test_healthz(self, daemon):
        with daemon.client() as client:
            assert client.healthz() == {"queued": 0, "status": "ok"}

    def test_publish_roundtrip(self, daemon):
        with daemon.client() as client:
            lines = client.publish(FIG3, k=2)
        events = [line["event"] for line in lines]
        assert events[0] == "meta"
        assert events[1] == "partition"
        assert events[-1] == "end"
        assert all(e == "edges" for e in events[2:-1])
        assert lines[-1]["lines"] == len(lines)
        edges, partition, meta = publication_from_lines(lines)
        graph, cells, original_n = parse_publication(edges, partition, meta)
        original = figure3_graph()
        assert original_n == original.n
        assert cells.min_cell_size() >= 2
        assert set(original.edges()) <= set(graph.edges())
        assert json.loads(meta)["k"] == 2

    def test_sample_roundtrip(self, daemon):
        with daemon.client() as client:
            lines = client.sample(FIG3, k=2, count=2, seed=11)
        assert lines[0]["event"] == "meta"
        assert lines[0]["count"] == 2
        samples = [line for line in lines if line["event"] == "sample"]
        assert [s["index"] for s in samples] == [0, 1]
        assert all(s["text"].strip() for s in samples)
        assert lines[-1] == {"event": "end", "lines": len(lines)}

    def test_audit_roundtrip(self, daemon):
        with daemon.client() as client:
            outcome = client.attack_audit(FIG3, target=1, measure="degree")
        assert 1 in outcome["candidates"]
        assert outcome["candidate_count"] == len(outcome["candidates"])
        assert outcome["success_probability"] == pytest.approx(
            1.0 / len(outcome["candidates"]))
        assert outcome["measure"] == "degree"

    def test_kl_sweep_audit_roundtrip(self, daemon):
        from repro.attacks.adjacency import kl_anonymity_report
        from repro.graphs.generators import path_graph
        with daemon.client() as client:
            outcome = client.attack_audit(PATH4, model="multiset", ell=1)
        # anonymity/n_subsets are label-invariant, so the canonical-space
        # artifact must agree with a direct run on the request graph
        expected = kl_anonymity_report(path_graph(4), 1, kind="multiset")
        assert outcome["model"] == "multiset"
        assert outcome["anonymity"] == expected.anonymity
        assert outcome["n_subsets"] == expected.n_subsets
        assert outcome["vacuous"] is False
        assert len(outcome["attackers"]) == 1

    def test_kl_targeted_audit_roundtrip(self, daemon):
        with daemon.client() as client:
            outcome = client.attack_audit(PATH4, target=3, model="adjacency",
                                          attackers=[0])
        assert outcome["model"] == "adjacency"
        assert outcome["target"] == 3
        assert outcome["attackers"] == [0]
        # candidates come back in the requester's vertex ids, sorted
        assert outcome["candidates"] == sorted(outcome["candidates"])
        assert set(outcome["candidates"]) <= {0, 1, 2, 3}
        assert outcome["located_candidates"] == sorted(
            outcome["located_candidates"])
        assert outcome["candidate_count"] == len(outcome["candidates"])

    def test_sybil_audit_roundtrip(self, daemon):
        with daemon.client() as client:
            outcome = client.attack_audit(FIG3, model="sybil", targets=[1, 4],
                                          k=2, seed=7)
        assert outcome["model"] == "sybil"
        assert outcome["k"] == 2
        assert outcome["sybils"] >= 2
        assert {r["target"] for r in outcome["reports"]} == {1, 4}
        for report in outcome["reports"]:
            assert report["candidates"] == sorted(report["candidates"])
            # the k-symmetry publisher must not expose a target below k
            assert not (report["exposed"] and report["anonymity"] < 2)

    def test_sybil_audit_is_tenant_reproducible(self, daemon):
        with daemon.client() as client:
            first = client.attack_audit(FIG3, model="sybil", targets=[1],
                                        tenant="t-a", seed=3)
            again = client.attack_audit(FIG3, model="sybil", targets=[1],
                                        tenant="t-a", seed=3)
            other = client.attack_audit(FIG3, model="sybil", targets=[1],
                                        tenant="t-b", seed=3)
        assert first == again
        assert other["model"] == "sybil"  # independent stream, same contract

    def test_async_submission_polls_to_the_sync_body(self, daemon):
        with daemon.client() as client:
            sync_lines = client.publish(PATH4, k=2, tenant="poller")
            accepted = client.publish(PATH4, k=2, tenant="poller",
                                      run_async=True)
            assert accepted["poll"] == f"/v1/jobs/{accepted['job']}"
            descriptor = client.wait_for_job(accepted["job"])
        assert descriptor["state"] == "done"
        assert descriptor["result"] == sync_lines

    def test_metrics_shape(self, daemon):
        with daemon.client() as client:
            metrics = client.metrics()
        assert set(metrics) == {
            "cache", "cache_warmed", "endpoints", "jobs",
            "peak_rss_bytes", "scheduler",
        }
        assert metrics["scheduler"]["completed"] >= 1
        assert metrics["cache"]["puts"] >= 1
        assert metrics["peak_rss_bytes"] >= 0

    def test_response_bodies_never_embed_job_ids(self, daemon):
        """Job ids travel in X-Job-Id only; bodies stay request-pure."""
        with daemon.client() as client:
            status, headers, body = client.request_raw(
                "POST", "/v1/publish", {"edges": PATH4, "k": 2})
        assert status == 200
        assert headers["x-job-id"].startswith("job-")
        assert b"job-" not in body


class TestValidation:
    def test_unknown_endpoint_404(self, daemon):
        with daemon.client() as client:
            status, _, _ = client.request_raw("GET", "/v1/nope")
        assert status == 404

    def test_get_on_post_endpoint_405(self, daemon):
        with daemon.client() as client:
            status, _, _ = client.request_raw("GET", "/v1/publish")
        assert status == 405

    def test_missing_edges_400(self, daemon):
        with daemon.client() as client, pytest.raises(ServiceError) as info:
            client._json("POST", "/v1/publish", {"k": 2})
        assert info.value.status == 400
        assert "edges" in info.value.message

    def test_bad_k_400(self, daemon):
        with daemon.client() as client, pytest.raises(ServiceError) as info:
            client.publish(PATH4, k=0)
        assert info.value.status == 400

    def test_audit_target_not_in_graph_400(self, daemon):
        with daemon.client() as client, pytest.raises(ServiceError) as info:
            client.attack_audit(PATH4, target=99)
        assert info.value.status == 400
        assert "99" in info.value.message

    def test_non_object_body_400(self, daemon):
        with daemon.client() as client:
            status, _, _ = client.request_raw("POST", "/v1/sample", {})
        assert status == 400

    def test_unknown_job_404(self, daemon):
        with daemon.client() as client, pytest.raises(ServiceError) as info:
            client.job("job-99999999")
        assert info.value.status == 404

    @pytest.mark.parametrize("path, payload, field", [
        ("/v1/publish", {"edges": FIG3, "K": 5}, "K"),
        ("/v1/publish", {"edges": FIG3, "k": 3, "copyunit": "component"},
         "copyunit"),
        ("/v1/sample", {"edges": FIG3, "cuont": 3}, "cuont"),
        ("/v1/attack-audit", {"edges": FIG3, "target": 1, "mesure": "degree"},
         "mesure"),
        ("/v1/republish", {"edges": FIG3, "K": 3,
                           "delta": {"add_vertices": [1000]}}, "K"),
        ("/v1/republish", {"edges": FIG3, "delta": {
            "add_vertices": [1000], "add_edge": [[1000, 1]]}}, "add_edge"),
    ])
    def test_unknown_field_400(self, daemon, path, payload, field):
        """A misspelled field would otherwise publish, sample or audit with
        its default; the 400 names it."""
        with daemon.client() as client:
            status, _, body = client.request_raw("POST", path, payload)
        assert status == 400, body
        assert repr(field) in json.loads(body)["error"]


def memo_stats(client: ServiceClient) -> dict:
    return client.metrics()["scheduler"]["canonical_memo"]


class TestIsomorphicCaching:
    def test_relabeled_resubmission_hits_and_relabels(self):
        """Tenant B's isomorphic graph reuses A's artifact, keeps B's ids.

        B's text differs from A's, so it misses the canonical memo and runs
        its own search; only the artifact is shared."""
        with DaemonHarness() as harness, harness.client() as client:
            client.publish(FIG3, k=2, tenant="alice")
            before = client.metrics()
            lines = client.publish(FIG3_RELABELED, k=2, tenant="bob")
            after = client.metrics()
            assert after["cache"]["hits"] == before["cache"]["hits"] + 1
            assert after["cache"]["puts"] == before["cache"]["puts"]
            memo_before = before["scheduler"]["canonical_memo"]
            memo_after = after["scheduler"]["canonical_memo"]
            assert memo_after["misses"] == memo_before["misses"] + 1
            assert memo_after["hits"] == memo_before["hits"]
            edges, partition, meta = publication_from_lines(lines)
            graph, _, original_n = parse_publication(edges, partition, meta)
            bob_ids = {3 * v + 100 for v in figure3_graph().vertices()}
            assert bob_ids <= set(graph.vertices())
            assert original_n == len(bob_ids)

    def test_parameter_change_misses(self):
        with DaemonHarness() as harness, harness.client() as client:
            client.publish(FIG3, k=2)
            before = client.metrics()["cache"]
            client.publish(FIG3, k=3)
            after = client.metrics()["cache"]
            assert after["misses"] == before["misses"] + 1
            assert after["puts"] == before["puts"] + 1


class TestCanonicalMemo:
    """Each distinct request text is canonicalized once per daemon."""

    def test_memo_warm_bodies_match_cold_daemons(self):
        requests = [(path, payload) for path, payload in request_matrix()
                    if payload["edges"] == FIG3 and payload["tenant"] == "t-alpha"]
        assert len({path for path, _ in requests}) == 4
        cold = []
        for request in requests:  # a fresh daemon per endpoint
            with DaemonHarness() as harness:
                cold.extend(collect_serial(harness, [request]))
        with DaemonHarness() as harness:
            with harness.client() as client:
                # memoizes FIG3 but caches no artifact the requests ask for
                client.publish(FIG3, k=3, tenant="t-alpha")
            warm = collect_serial(harness, requests)
            with harness.client() as client:
                memo = memo_stats(client)
        assert warm == cold
        assert memo == {"entries": 1, "hits": 4, "misses": 1}

    def test_failed_canonicalization_is_not_memoized(self, monkeypatch):
        real = handlers.canonicalize
        calls = []

        def flaky(graph):
            calls.append(graph.n)
            if len(calls) == 1:
                raise RuntimeError("search exploded")
            return real(graph)

        monkeypatch.setattr(handlers, "canonicalize", flaky)
        with DaemonHarness(jobs=1) as harness, harness.client() as client:
            with pytest.raises(ServiceError) as info:
                client.publish(PATH4, k=2)
            assert info.value.status == 500
            assert "canonicalization failed" in info.value.message
            assert memo_stats(client) == {"entries": 0, "hits": 0, "misses": 1}
            first = client.publish(PATH4, k=2)  # searched again
            again = client.publish(PATH4, k=2)  # now memoized
            assert memo_stats(client) == {"entries": 1, "hits": 1, "misses": 2}
        assert len(calls) == 2
        assert again == first

    def test_lru_eviction_at_cache_size(self):
        first, second, third = PATH4, FIG3, "0 1\n1 2\n"
        with DaemonHarness(cache_entries=2) as harness, harness.client() as client:
            for text in (first, second, first):  # the hit refreshes first
                client.publish(text, k=2)
            assert memo_stats(client) == {"entries": 2, "hits": 1, "misses": 2}
            client.publish(third, k=2)  # evicts second, the least recent
            client.publish(first, k=2)
            assert memo_stats(client) == {"entries": 2, "hits": 2, "misses": 3}
            client.publish(second, k=2)  # searched again
            assert memo_stats(client) == {"entries": 2, "hits": 2, "misses": 4}

    def test_identical_texts_in_one_batch_search_once(self, monkeypatch):
        real = handlers.canonicalize
        calls = []

        def counting(graph):
            calls.append(graph.n)
            return real(graph)

        monkeypatch.setattr(handlers, "canonicalize", counting)
        with DaemonHarness(jobs=1) as harness:
            harness.pause()
            with harness.client() as client:
                jobs = [client.publish(FIG3, k=k, run_async=True)["job"]
                        for k in (2, 2, 3)]
                harness.resume()
                states = [client.wait_for_job(job)["state"] for job in jobs]
                scheduler = client.metrics()["scheduler"]
        assert states == ["done"] * 3
        assert scheduler["largest_batch"] == 3
        assert len(calls) == 1
        assert scheduler["canonical_memo"] == {"entries": 1, "hits": 2, "misses": 1}

    def test_lone_surrogate_text_is_memoized(self, daemon):
        # a JSON "\ud800" escape in a comment line is valid input whose text
        # strict UTF-8 cannot encode
        text = "# \ud800\n0 1\n1 2\n"
        with daemon.client() as client:
            first = client.publish(text, k=2)
            before = memo_stats(client)
            assert client.publish(text, k=2) == first
            assert memo_stats(client)["hits"] == before["hits"] + 1


class TestRestartWarmCache:
    def test_artifacts_survive_restart_warm(self, tmp_path):
        """Shutdown spills the memory tier; the next boot warms up from it,
        so a repeat request after restart is a memory hit, not a recompute."""
        spill = str(tmp_path / "spill")
        with DaemonHarness(cache_spill_dir=spill) as harness, \
                harness.client() as client:
            first = client.publish(FIG3, k=2)
            assert client.metrics()["cache"]["puts"] >= 1
        # shutdown ran: the artifact now lives on disk
        assert os.listdir(spill)

        with DaemonHarness(cache_spill_dir=spill) as harness, \
                harness.client() as client:
            metrics = client.metrics()
            assert metrics["cache_warmed"] >= 1
            assert metrics["cache"]["entries"] >= 1
            before = metrics["cache"]
            again = client.publish(FIG3, k=2)
            after = client.metrics()["cache"]
            assert after["hits"] == before["hits"] + 1
            assert after["puts"] == before["puts"]  # no recompute
        assert publication_from_lines(first) == publication_from_lines(again)


class TestRepublishEndpoint:
    """Sequential releases over HTTP: /v1/republish."""

    DELTA = {"add_vertices": [1000], "add_edges": [[1000, 1]]}

    def _triple(self, lines):
        edges, partition, meta = publication_from_lines(lines)
        graph, cells, original_n = parse_publication(edges, partition, meta)
        return graph, cells, original_n, json.loads(meta)

    def test_republish_composes_with_publish(self, daemon):
        """Release 1 extends release 0 under the same vertex ids — the
        property the composition adversary would otherwise exploit."""
        with daemon.client() as client:
            release0 = client.publish(FIG3, k=2)
            release1 = client.republish(
                FIG3, add_vertices=[1000], add_edges=[[1000, 1]], k=2)
        g0, cells0, n0, _ = self._triple(release0)
        g1, cells1, n1, meta = self._triple(release1)
        assert n1 == n0 + 1
        assert g0.is_subgraph_of(g1)
        assert 1000 in set(g1.vertices())
        for cell in cells0.cells:  # previous cells stay whole (monotone)
            index = cells1.index_of(cell[0])
            assert all(cells1.index_of(v) == index for v in cell)
        assert cells1.min_cell_size() >= 2
        assert list(meta) == ["original_n", "k", "copy_unit", "closure_edges",
                              "delta_vertices", "vertices_added", "edges_added"]
        assert meta["delta_vertices"] == 1
        assert meta["vertices_added"] >= 0 and meta["closure_edges"] >= 0

    def test_repeat_request_hits_cache_byte_identically(self):
        payload = {"edges": FIG3, "k": 2, "delta": self.DELTA}
        with DaemonHarness() as harness, harness.client() as client:
            status, _, first = client.request_raw(
                "POST", "/v1/republish", payload)
            assert status == 200
            before = client.metrics()["cache"]
            status, _, second = client.request_raw(
                "POST", "/v1/republish", payload)
            after = client.metrics()["cache"]
        assert status == 200
        assert second == first
        assert after["hits"] == before["hits"] + 1
        assert after["puts"] == before["puts"]

    def test_isomorphic_republish_shares_cache_keeps_ids(self):
        """A relabeled tenant submitting the 'same' growth step reuses the
        canonical artifact (the delta is encoded label-freely) but reads
        the response in its own vertex ids."""
        with DaemonHarness() as harness, harness.client() as client:
            client.republish(FIG3, add_vertices=[1000],
                             add_edges=[[1000, 1]], k=2, tenant="alice")
            before = client.metrics()["cache"]
            lines = client.republish(
                FIG3_RELABELED, add_vertices=[2000],
                add_edges=[[2000, 103]], k=2, tenant="bob")
            after = client.metrics()["cache"]
        assert after["hits"] == before["hits"] + 1
        assert after["puts"] == before["puts"]
        graph, _, _, _ = self._triple(lines)
        assert 2000 in set(graph.vertices())
        assert {3 * v + 100 for v in figure3_graph().vertices()} \
            <= set(graph.vertices())

    def test_engines_agree_modulo_recorded_engine(self, daemon):
        """The daemon's incremental release equals the global-recompute
        oracle's bytes grown from its own release 0, and its meta records
        no engine."""
        with daemon.client() as client:
            release0 = client.publish(FIG3, k=2)
            ours = client.republish(FIG3, add_vertices=[1000],
                                    add_edges=[[1000, 1]], k=2)
        graph, cells, original_n, _ = self._triple(release0)
        delta = GraphDelta([1000], [(1000, 1)])
        state = reference_republish(graph, cells, original_n, delta, 2)
        oracle_edges, oracle_partition, _ = publication_texts(
            state.graph, state.to_partition(), original_n + delta.n_vertices)
        edges, partition, meta = publication_from_lines(ours)
        assert edges == oracle_edges
        assert partition == oracle_partition
        recorded = json.loads(meta)
        assert "engine" not in recorded
        assert recorded["original_n"] == original_n + delta.n_vertices
        assert recorded["vertices_added"] == state.vertices_added
        assert recorded["edges_added"] == state.edges_added

    def test_engine_field_is_ignored(self, daemon):
        """A leftover ``engine`` field is an unknown field: it cannot change
        the release, so any value answers the same bytes."""
        payload = {"edges": FIG3, "k": 2, "delta": self.DELTA}
        with daemon.client() as client:
            bodies = []
            for extra in ({}, {"engine": "full"}, {"engine": "psychic"}):
                status, _, body = client.request_raw(
                    "POST", "/v1/republish", {**payload, **extra})
                assert status == 200, body
                bodies.append(body)
        assert bodies[1] == bodies[0] and bodies[2] == bodies[0]

    def test_delta_id_colliding_with_copy_id_400(self, daemon):
        """Publishing FIG3 at k=2 mints copy ids 9 and 10; a delta reusing
        10 is the requester's mistake, in the sync answer and the job."""
        with daemon.client() as client:
            published, _, _, _ = self._triple(client.publish(FIG3, k=2))
            assert 10 in set(published.vertices()) - set(figure3_graph().vertices())
            with pytest.raises(ServiceError) as info:
                client.republish(FIG3, add_vertices=[10],
                                 add_edges=[[10, 1]], k=2)
            accepted = client.republish(FIG3, add_vertices=[10],
                                        add_edges=[[10, 1]], k=2,
                                        run_async=True)
            descriptor = client.wait_for_job(accepted["job"])
        assert info.value.status == 400
        assert info.value.message.startswith("bad delta: ")
        assert "collide" in info.value.message
        assert descriptor["state"] == "failed"
        assert descriptor["status"] == 400
        assert descriptor["error"] == info.value.message

    def test_colliding_delta_is_refused_before_anything_is_cached(self, daemon):
        """A refused republish computes and caches no republish artifact:
        not when release 0 is cached, and not when the same job computes
        release 0 (only that valid release 0 is stored)."""
        # a spider unique to this test: its release 0 mints the ids 5, 6, 7
        spider = "0 1\n0 2\n0 3\n3 4\n"
        with daemon.client() as client:
            client.publish(FIG3, k=2)
            before = client.metrics()["cache"]
            for _ in range(2):
                with pytest.raises(ServiceError) as info:
                    client.republish(FIG3, add_vertices=[10],
                                     add_edges=[[10, 1]], k=2)
                assert info.value.status == 400
            cached = client.metrics()["cache"]
            with pytest.raises(ServiceError) as info:
                client.republish(spider, add_vertices=[5],
                                 add_edges=[[5, 1]], k=2)
            after = client.metrics()["cache"]
        assert info.value.status == 400 and "collide" in info.value.message
        assert (cached["puts"], cached["entries"]) == (before["puts"], before["entries"])
        assert (after["puts"], after["entries"]) == (cached["puts"] + 1, cached["entries"] + 1)

    def test_async_republish_matches_sync(self, daemon):
        with daemon.client() as client:
            sync_lines = client.republish(
                PATH4, add_vertices=[99], add_edges=[[99, 0]], k=2,
                tenant="poller")
            accepted = client.republish(
                PATH4, add_vertices=[99], add_edges=[[99, 0]], k=2,
                tenant="poller", run_async=True)
            descriptor = client.wait_for_job(accepted["job"])
        assert descriptor["state"] == "done"
        assert descriptor["result"] == sync_lines

    def test_existing_vertex_in_delta_400(self, daemon):
        with daemon.client() as client, pytest.raises(ServiceError) as info:
            client.republish(FIG3, add_vertices=[1], k=2)
        assert info.value.status == 400
        assert "bad delta" in info.value.message

    def test_old_old_edge_400(self, daemon):
        with daemon.client() as client, pytest.raises(ServiceError) as info:
            client.republish(FIG3, add_vertices=[1000],
                             add_edges=[[1, 2]], k=2)
        assert info.value.status == 400
        assert "bad delta" in info.value.message

    def test_missing_or_empty_delta_400(self, daemon):
        with daemon.client() as client:
            for payload in ({"edges": FIG3, "k": 2},
                            {"edges": FIG3, "k": 2,
                             "delta": {"add_vertices": []}},
                            {"edges": FIG3, "k": 2,
                             "delta": {"add_vertices": [9],
                                       "add_edges": [[9]]}}):
                status, _, body = client.request_raw(
                    "POST", "/v1/republish", payload)
                assert status == 400, body


def composed_graph(edges, vertices, mapping) -> Graph:
    """``Graph.from_edges`` over an artifact relabeled through *mapping*."""
    return Graph.from_edges(((mapping[u], mapping[v]) for u, v in edges),
                            vertices=(mapping[w] for w in vertices))


def composed_publication_lines(ci, artifact, mapping, extra) -> list[dict]:
    """A publication body composed through ``Graph``, ``Partition`` and the
    dict writer, chunked off the split edge text."""
    graph = composed_graph(artifact["edges"], artifact["vertex_ids"], mapping)
    partition = Partition(
        [[mapping[w] for w in cell] for cell in artifact["cells"]])
    edges, partition_text, meta_text = publication_texts(
        graph, partition, artifact["original_n"], extra)
    lines = edges.splitlines(keepends=True)
    chunks = ["".join(lines[i:i + handlers.EDGE_CHUNK_LINES])
              for i in range(0, len(lines), handlers.EDGE_CHUNK_LINES)]
    body = [{"digest": ci.digest, "event": "meta", "text": meta_text},
            {"event": "partition", "text": partition_text}]
    body += [{"chunk": i, "chunks": len(chunks), "event": "edges", "text": chunk}
             for i, chunk in enumerate(chunks)]
    return body + [{"event": "end", "lines": len(body) + 1}]


def publish_artifact(text, params):
    """(canonical input, publish artifact) of *text*, computed in-process."""
    ci = handlers.canonicalize(parse_graph(text))
    request = parse_publish({"edges": text, **params})
    status, artifact = handlers.execute_artifact(handlers.publish_spec(ci, request))
    assert status == "ok", artifact
    return ci, artifact


class TestRendering:
    def test_uncovering_artifact_is_refused(self):
        """Cells that miss a vertex are never streamed; the daemon answers
        the render error with a 500."""
        ci, artifact = publish_artifact(PATH4, {"k": 2})
        artifact["cells"] = artifact["cells"][1:]
        with pytest.raises(ReproError, match="does not cover"):
            handlers.build_publish_lines(ci, artifact)


class TestIsolatedVertices:
    """Bodies of graphs with isolated vertices, pinned against a composition
    through ``Graph.from_edges`` and the dict writer: the ``# isolated:``
    line lists the artifact's vertices in canonical order, in requester ids."""

    OUT_OF_ORDER = "# isolated: 9 4 7\n0 1\n1 2\n2 0\n3 5\n5 6\n"
    #: vertex 8 is a lone orbit: k=3 must copy it twice
    LONE = "0 1\n1 2\n2 3\n# isolated: 8\n"
    CASES = [
        pytest.param(OUT_OF_ORDER, {"k": 2}, id="out-of-order"),
        pytest.param(LONE, {"k": 3}, id="lone"),
        pytest.param(OUT_OF_ORDER, {"k": 3, "copy_unit": "component"},
                     id="out-of-order-component"),
        pytest.param(LONE, {"k": 3, "copy_unit": "component"},
                     id="lone-component"),
    ]

    @pytest.mark.parametrize("text, params", CASES)
    def test_publish_body(self, daemon, text, params):
        ci, artifact = publish_artifact(text, params)
        expected = composed_publication_lines(
            ci, artifact, ci.map_back(artifact["vertex_ids"]), {
                "k": artifact["k"], "copy_unit": artifact["copy_unit"],
                "vertices_added": artifact["vertices_added"],
                "edges_added": artifact["edges_added"]})
        with daemon.client() as client:
            lines = client.publish(text, **params)
        assert lines == expected
        assert "# isolated: " in lines[2]["text"]

    @pytest.mark.parametrize("strategy", ["approximate", "exact"])
    @pytest.mark.parametrize("text, params", CASES)
    def test_sample_body(self, daemon, text, params, strategy):
        ci, _ = publish_artifact(text, params)
        request = parse_sample({"edges": text, **params, "count": 3,
                                "strategy": strategy, "seed": 4})
        status, artifact = handlers.execute_artifact(handlers.sample_spec(
            ci, request, effective_seed(request.tenant, 4), None))
        assert status == "ok", artifact
        sample = artifact["sample"]
        mapping = ci.map_back(sorted(set(sample["published_vertex_ids"]).union(
            *(s["vertices"] for s in sample["samples"]))))
        expected = []
        for drawn in sample["samples"]:
            buffer = io.StringIO()
            write_edge_list(
                composed_graph(drawn["edges"], drawn["vertices"], mapping), buffer)
            expected.append(buffer.getvalue())
        with daemon.client() as client:
            lines = client.sample(text, count=3, strategy=strategy, seed=4, **params)
        assert [line["text"] for line in lines[1:-1]] == expected

    @pytest.mark.parametrize("text, params", CASES)
    def test_republish_body(self, daemon, text, params):
        """Delta vertex 101 joins isolated; growth copies get fresh ids."""
        ci, publish = publish_artifact(text, params)
        delta = {"add_vertices": [100, 101], "add_edges": [[100, 0]]}
        request = parse_republish({"edges": text, **params, "delta": delta})
        status, artifact = handlers.execute_artifact(
            handlers.republish_spec(ci, request, publish))
        assert status == "ok", artifact
        release = artifact["republish"]
        # release-0 ids as in the publish response, the delta's own ids by
        # rank, growth copies fresh above both
        base, added = release["publish_n"], release["delta_count"]
        mapping = ci.map_back([w for w in release["vertex_ids"] if w < base])
        mapping.update({base + rank: v for rank, v in enumerate([100, 101])})
        growth = sorted(w for w in release["vertex_ids"] if w >= base + added)
        fresh = max(mapping.values()) + 1
        mapping.update({w: fresh + rank for rank, w in enumerate(growth)})
        expected = composed_publication_lines(ci, release, mapping, {
            "k": release["k"], "copy_unit": release["copy_unit"],
            "closure_edges": release["closure_edges"], "delta_vertices": added,
            "vertices_added": release["vertices_added"],
            "edges_added": release["edges_added"]})
        with daemon.client() as client:
            lines = client.republish(text, add_vertices=[100, 101],
                                     add_edges=[[100, 0]], **params)
        assert lines == expected
        isolated = lines[2]["text"].splitlines()[1]
        assert isolated.startswith("# isolated:") and "101" in isolated.split()

    def test_exact_sample_regrown_past_the_publication(self, daemon):
        """The exact sampler numbers its regrown copies past the published
        graph: they get fresh ids above the publish response's, not a 500."""
        with daemon.client() as client:
            published, _, _ = parse_publication(*publication_from_lines(
                client.publish(self.OUT_OF_ORDER, k=2)))
            lines = client.sample(self.OUT_OF_ORDER, k=2, count=3,
                                  strategy="exact", seed=4)
        ids = set().union(*(read_edge_list(io.StringIO(line["text"])).vertices()
                            for line in lines[1:-1]))
        fresh = ids - set(published.vertices())
        assert fresh and min(fresh) > max(published.vertices())


def request_matrix() -> list[tuple[str, dict]]:
    """The invariance workload: every endpoint x tenant x graph."""
    requests: list[tuple[str, dict]] = []
    for graph_text, target in ((FIG3, 1), (FIG3_RELABELED, 103), (PATH4, 0)):
        for tenant in ("t-alpha", "t-beta"):
            requests.append(("/v1/publish", {
                "edges": graph_text, "k": 2, "tenant": tenant}))
            requests.append(("/v1/sample", {
                "edges": graph_text, "k": 2, "count": 2, "seed": 5,
                "strategy": "approximate", "tenant": tenant}))
            requests.append(("/v1/attack-audit", {
                "edges": graph_text, "target": target, "seed": 5,
                "tenant": tenant}))
            requests.append(("/v1/republish", {
                "edges": graph_text, "k": 2, "tenant": tenant,
                "delta": {"add_vertices": [5000],
                          "add_edges": [[5000, target]]}}))
    return requests


def collect_serial(harness: DaemonHarness,
                   requests: list[tuple[str, dict]]) -> list[bytes]:
    bodies: list[bytes] = []
    with harness.client() as client:
        for path, payload in requests:
            status, _, body = client.request_raw("POST", path, payload)
            assert status == 200, body
            bodies.append(body)
    return bodies


class TestConcurrencyInvariance:
    """The acceptance property: per-tenant bodies are byte-identical
    whatever the concurrency level, arrival order, worker count, or cache
    temperature."""

    def test_bodies_invariant_across_order_cache_and_workers(self):
        requests = request_matrix()
        with DaemonHarness() as harness:
            cold = collect_serial(harness, requests)
            warm = collect_serial(harness, requests)  # now fully cached
        assert warm == cold

        for memo_warm in (False, True):
            with DaemonHarness(jobs=2, max_batch=8) as harness:
                if memo_warm:
                    # k=3 publishes memoize every text's canonical input but
                    # cache no artifact the matrix asks for
                    with harness.client() as client:
                        for text in (FIG3, FIG3_RELABELED, PATH4):
                            client.publish(text, k=3)
                results = collect_shuffled(harness, requests)
                with harness.client() as client:
                    memo = memo_stats(client)
            assert results == cold, f"memo_warm={memo_warm}"
            # one search per distinct text, whatever the batching
            assert memo["misses"] == 3, memo


def collect_shuffled(harness: DaemonHarness,
                     requests: list[tuple[str, dict]]) -> list[bytes]:
    """Every request twice, shuffled over four concurrent clients."""
    order = list(range(len(requests))) * 2  # duplicates warm the cache
    random.Random(7).shuffle(order)
    results: dict[int, bytes] = {}
    errors: list[BaseException] = []
    lock = threading.Lock()

    def worker(indices: list[int]) -> None:
        try:
            with harness.client(timeout=60) as client:
                for i in indices:
                    path, payload = requests[i]
                    status, _, body = client.request_raw("POST", path, payload)
                    assert status == 200, body
                    with lock:
                        assert results.setdefault(i, body) == body
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(order[w::4],))
               for w in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    return [results[i] for i in range(len(requests))]


class TestBackpressure:
    def test_queue_full_gets_429_with_retry_after(self):
        with DaemonHarness(max_queue=1) as harness:
            harness.pause()
            with harness.client() as client:
                first = client.publish(PATH4, k=2, run_async=True)
                # the consumer holds the first job at the gate; wait for it
                # to leave the queue so the next submission occupies the
                # single slot deterministically
                for _ in range(200):
                    if client.healthz()["queued"] == 0:
                        break
                    time.sleep(0.01)
                else:
                    pytest.fail("consumer never picked up the gated job")
                second = client.publish(FIG3, k=2, run_async=True)
                with pytest.raises(ServiceError) as info:
                    client.publish(FIG3, k=3, run_async=True)
                assert info.value.status == 429
                assert info.value.headers["retry-after"] == "1"
                harness.resume()
                assert client.wait_for_job(first["job"])["state"] == "done"
                assert client.wait_for_job(second["job"])["state"] == "done"
                assert client.metrics()["scheduler"]["rejected"] == 1

    def test_sync_timeout_is_504_and_job_stays_pollable(self):
        with DaemonHarness(request_timeout=0.3) as harness:
            harness.pause()
            with harness.client() as client:
                with pytest.raises(ServiceError) as info:
                    client.publish(PATH4, k=2)
                assert info.value.status == 504
                job_id = info.value.headers["x-job-id"]
                harness.resume()
                descriptor = client.wait_for_job(job_id)
                assert descriptor["state"] == "done"
                assert descriptor["result"][0]["event"] == "meta"


class TestBackpressureRetryAfter:
    def test_retry_after_scales_with_queue_depth(self):
        from repro.service.daemon import RETRY_AFTER_SECONDS, retry_after_seconds

        # shallow queues keep the historical floor
        assert retry_after_seconds(0, 16) == RETRY_AFTER_SECONDS
        assert retry_after_seconds(1, 16) == RETRY_AFTER_SECONDS
        assert retry_after_seconds(16, 16) == RETRY_AFTER_SECONDS
        # deeper queues advise one second per outstanding batch (ceiling)
        assert retry_after_seconds(17, 16) == 2
        assert retry_after_seconds(64, 16) == 4
        assert retry_after_seconds(65, 16) == 5
        # degenerate batch size must not divide by zero
        assert retry_after_seconds(5, 0) == 5


class TestDrain:
    def test_drain_grace_expiry_counts_abandoned_requests(self):
        """A request still in flight when the grace period expires is
        counted (and logged) instead of silently swallowed."""

        async def scenario() -> KSymmetryDaemon:
            daemon = KSymmetryDaemon(ServiceConfig(port=0, drain_grace=0.05))
            daemon._request_started()  # a response that never finishes
            await daemon.shutdown()
            return daemon

        daemon = asyncio.run(scenario())
        assert daemon.abandoned_requests == 1

    def test_clean_drain_reports_zero_abandoned(self):
        async def scenario() -> KSymmetryDaemon:
            daemon = KSymmetryDaemon(ServiceConfig(port=0, drain_grace=0.05))
            await daemon.shutdown()
            return daemon

        daemon = asyncio.run(scenario())
        assert daemon.abandoned_requests == 0


    def test_draining_daemon_rejects_new_posts_with_503(self):
        with DaemonHarness() as harness:
            with harness.client() as client:
                client.publish(PATH4, k=2)
                # flip the drain flag without closing the listener so the
                # rejection path itself is observable from outside
                assert harness.loop is not None and harness.daemon is not None
                done = threading.Event()

                def mark_draining() -> None:
                    harness.daemon._draining = True
                    done.set()

                harness.loop.call_soon_threadsafe(mark_draining)
                assert done.wait(10)
                with pytest.raises(ServiceError) as info:
                    client.publish(PATH4, k=2)
                assert info.value.status == 503
                harness.daemon._draining = False  # let the fixture drain

    def test_sigterm_drains_subprocess_cleanly(self, tmp_path):
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=env, cwd=str(tmp_path), text=True)
        try:
            banner = proc.stdout.readline()
            assert "ksymmetryd listening on" in banner, banner
            port = int(banner.rsplit(":", 1)[1])
            with ServiceClient("127.0.0.1", port, timeout=60) as client:
                lines = client.publish(FIG3, k=2)
                assert lines[-1]["event"] == "end"
                assert client.healthz()["status"] == "ok"
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, (out, err)
        assert "ksymmetryd drained cleanly" in out

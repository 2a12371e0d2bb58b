"""The service's compute core: picklable batch tasks + response rendering.

Execution is split exactly along the daemon's process boundary:

* **Batch tasks** (``execute_canonicalize``, ``execute_artifact``) are
  module-level functions dispatched through :class:`repro.runtime.ParallelMap`
  — they must stay picklable (lint rule PAR001) and pure: every input
  arrives in the task payload, results are tagged ``("ok", value)`` /
  ``("error", message)`` so one poisoned request cannot abort a whole batch.
  Artifacts are computed in *canonical* vertex space and are plain
  JSON-serialisable dicts (the cache may spill them to disk).

* **Response builders** (``build_publish_lines`` & co) run on the event
  loop: they relabel a canonical artifact back into the requester's vertex
  ids (:meth:`repro.service.canon.CanonicalInput.map_back`) and render the
  NDJSON/JSON payloads. They are pure functions of (request, artifact), so
  response bytes do not depend on which tenant warmed the cache, on arrival
  order, or on worker count. Texts are rendered straight from the
  artifact through the publication format's one writer (``edge_list_lines``,
  ``cell_text``, ``meta_text``); no graph is built on the loop.

Cache keys (content addressing):

* ``publish:<digest>:k=..:method=..:copy_unit=..``
* ``sample:<digest>:<publish params>:count=..:strategy=..:seed=<effective>``
* ``audit:<digest>:measure=..:target=<canonical id>`` (hierarchy model)
* ``audit:<digest>:model=..:ell=..`` ((k,l) sweep) /
  ``:attackers=..:target=..`` (targeted (k,l)) /
  ``model=sybil:targets=..:sybils=..:k=..:seed=<effective>`` (the sybil
  plant is seeded, so like samples its artifact stays tenant-private)
* ``republish:<digest>:<publish params>:delta=<canonical token>``

``<digest>`` is the certificate digest (isomorphism-invariant), so
isomorphic inputs from any tenant share publish/audit artifacts; sample keys
additionally carry the tenant-namespaced effective seed, keeping sample
randomness private to a tenant while still sharing the expensive backbone
work through the publish artifact. Republish keys encode the delta in
canonical space (old endpoints through the canonical labeling, new vertices
by their rank), so isomorphic histories share the sequential artifact, and
the cached release-0 publish artifact is threaded through the delta path
exactly like the sample endpoint threads it through the samplers.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Sequence

from repro.attacks.adjacency import kl_anonymity_report, kl_candidate_set
from repro.attacks.reidentify import simulate_attack
from repro.attacks.sybil import sybil_attack
from repro.core.anonymize import anonymize
from repro.core.publication import cell_text, meta_text
from repro.core.republish import GraphDelta, republish_published
from repro.core.sampling import sample_many
from repro.graphs.graph import Graph
from repro.graphs.io import edge_list_lines
from repro.graphs.partition import Partition
from repro.service.canon import CanonicalInput, canonicalize
from repro.service.protocol import (
    AuditRequest,
    ProtocolError,
    PublishRequest,
    RepublishRequest,
    SampleRequest,
)
from repro.utils.validation import ReproError

#: edge lines per streamed NDJSON chunk of a publication body
EDGE_CHUNK_LINES = 500


# ---------------------------------------------------------------------------
# batch tasks (module level, picklable, error-tagged)
# ---------------------------------------------------------------------------

def execute_canonicalize(graph: Graph) -> tuple[str, object]:
    """Stage 1: input graph -> :class:`CanonicalInput` (the expensive search)."""
    try:
        return "ok", canonicalize(graph)
    except Exception as exc:  # noqa: BLE001 - tagged and surfaced per job
        return "error", f"canonicalization failed: {exc}"


def execute_artifact(spec: dict) -> tuple[str, object]:
    """Stage 2: cache-miss artifact computation in canonical space."""
    try:
        kind = spec["kind"]
        if kind == "publish":
            return "ok", _compute_publish(spec)
        if kind == "sample":
            return "ok", _compute_sample(spec)
        if kind == "attack-audit":
            return "ok", _compute_audit(spec)
        if kind == "republish":
            return "ok", _compute_republish(spec)
        return "error", f"unknown artifact kind {kind!r}"
    except Exception as exc:  # noqa: BLE001 - tagged and surfaced per job
        return "error", f"{spec.get('kind', '?')} computation failed: {exc}"


def _canonical_graph(spec: dict) -> Graph:
    return Graph.from_edges(
        (tuple(edge) for edge in spec["edges"]), vertices=range(spec["n"]))


def _compute_publish(spec: dict) -> dict:
    graph = _canonical_graph(spec)
    result = anonymize(graph, spec["k"], method=spec["method"],
                       copy_unit=spec["copy_unit"])
    return {
        "cells": [sorted(cell) for cell in result.partition.cells],
        "edges": [list(edge) for edge in result.graph.sorted_edges()],
        "edges_added": result.edges_added,
        "k": result.k,
        "copy_unit": result.copy_unit,
        "method": spec["method"],
        "original_n": result.original_n,
        "vertex_ids": sorted(result.graph.vertices()),
        "vertices_added": result.vertices_added,
    }


def _compute_sample(spec: dict) -> dict:
    publish = spec.get("publish_artifact")
    computed_publish = None
    if publish is None:
        publish = _compute_publish(spec)
        computed_publish = publish
    graph = Graph.from_edges(
        (tuple(edge) for edge in publish["edges"]),
        vertices=publish["vertex_ids"])
    partition = Partition([list(cell) for cell in publish["cells"]])
    # jobs=1: this already runs inside a worker of the scheduler's pool;
    # nesting pools would oversubscribe without changing any result.
    samples = sample_many(graph, partition, publish["original_n"],
                          spec["count"], strategy=spec["strategy"],
                          rng=spec["seed"], jobs=1)
    return {
        "publish": computed_publish,
        "sample": {
            "count": spec["count"],
            "published_vertex_ids": list(publish["vertex_ids"]),
            "samples": [
                {"edges": [list(e) for e in s.sorted_edges()],
                 "vertices": sorted(s.vertices())}
                for s in samples
            ],
            "strategy": spec["strategy"],
        },
    }


def _compute_republish(spec: dict) -> dict:
    """Sequential release in canonical space, reusing the publish artifact.

    Delta endpoints ``>= 0`` are canonical input ids; negative values encode
    the delta's new vertices by rank (``-(rank+1)``) — they are resolved to
    concrete fresh ids only here, once the release-0 vertex space is known.
    """
    publish = spec.get("publish_artifact")
    computed_publish = None
    if publish is None:
        publish = _compute_publish(spec)
        computed_publish = publish
    previous_graph = Graph.from_edges(
        (tuple(edge) for edge in publish["edges"]),
        vertices=publish["vertex_ids"])
    previous_partition = Partition([list(cell) for cell in publish["cells"]])
    base = max(publish["vertex_ids"]) + 1

    def decode(end: int) -> int:
        return end if end >= 0 else base + (-end - 1)

    delta = GraphDelta(
        range(base, base + spec["delta_count"]),
        [(decode(u), decode(v)) for u, v in spec["delta_edges"]])
    result = republish_published(
        previous_graph, previous_partition, publish["original_n"], delta,
        spec["k"], method=spec["method"], copy_unit=spec["copy_unit"])
    return {
        "publish": computed_publish,
        "republish": {
            "cells": [sorted(cell) for cell in result.partition.cells],
            "closure_edges": result.closure_edges,
            "copy_unit": result.copy_unit,
            "delta_count": spec["delta_count"],
            "edges": [list(edge) for edge in result.graph.sorted_edges()],
            "edges_added": result.edges_added,
            "k": result.k,
            "method": result.method,
            "original_n": result.original_n,
            "publish_n": base,
            "vertex_ids": sorted(result.graph.vertices()),
            "vertices_added": result.vertices_added,
        },
    }


def _compute_audit(spec: dict) -> dict:
    graph = _canonical_graph(spec)
    model = spec.get("model", "hierarchy")
    if model == "hierarchy":
        outcome = simulate_attack(graph, spec["target"], spec["measure"],
                                  jobs=1)
        return {
            "candidates": sorted(outcome.candidates),
            "measure": spec["measure"],
            "model": "hierarchy",
            "observed": repr(outcome.observed_value),
            "success_probability": outcome.success_probability,
        }
    if model in ("adjacency", "multiset"):
        if spec["attackers"]:
            attackers = tuple(spec["attackers"])
            located = kl_candidate_set(graph, attackers, spec["target"],
                                       kind=model, located=True)
            unlocated = kl_candidate_set(graph, attackers, spec["target"],
                                         kind=model, located=False)
            return {
                "attackers": list(attackers),
                "candidates": list(unlocated),
                "ell": len(attackers),
                "located_candidates": list(located),
                "model": model,
                "target": spec["target"],
            }
        report = kl_anonymity_report(graph, spec["ell"], kind=model, jobs=1)
        return {
            "anonymity": report.anonymity,
            "attackers": list(report.attackers),
            "ell": report.ell,
            "model": model,
            "n_subsets": report.n_subsets,
            "target": None,
            "vacuous": report.vacuous,
        }
    outcome = sybil_attack(graph, list(spec["targets"]),
                           publisher="ksymmetry", k=spec["k"],
                           rng=spec["seed"], n_sybils=spec["sybils"] or None,
                           jobs=1)
    return {
        "k": spec["k"],
        "model": "sybil",
        "recoveries": len(outcome.recoveries),
        "reports": [
            {"anonymity": report.anonymity,
             "candidates": list(report.candidates),
             "exposed": report.exposed,
             "re_identified": report.re_identified,
             "target": report.target}
            for report in outcome.reports
        ],
        "sybils": outcome.plan.n_sybils,
    }


# ---------------------------------------------------------------------------
# cache planning (runs in the scheduler's batch thread)
# ---------------------------------------------------------------------------

_ParamsRequest = PublishRequest | SampleRequest | RepublishRequest


def publish_key(ci: CanonicalInput, request: _ParamsRequest) -> str:
    return f"publish:{ci.digest}:{request.params.cache_token()}"


def sample_key(ci: CanonicalInput, request: SampleRequest, seed: int) -> str:
    return (f"sample:{ci.digest}:{request.params.cache_token()}"
            f":count={request.count}:strategy={request.strategy}:seed={seed}")


def audit_key(ci: CanonicalInput, request: AuditRequest, seed: int) -> str:
    """Cache key for an attack-audit, in canonical vertex space per model.

    ``seed`` is the tenant-effective seed; only the sybil model keys on it
    (its plant is seeded), so deterministic models stay shareable across
    tenants while sybil artifacts remain tenant-private.
    """
    labeling = ci.labeling()
    if request.model == "hierarchy":
        target = labeling[request.target]
        return f"audit:{ci.digest}:measure={request.measure}:target={target}"
    if request.model in ("adjacency", "multiset"):
        if request.attackers:
            attackers = ",".join(str(labeling[a]) for a in request.attackers)
            return (f"audit:{ci.digest}:model={request.model}"
                    f":attackers={attackers}:target={labeling[request.target]}")
        return f"audit:{ci.digest}:model={request.model}:ell={request.ell}"
    targets = ",".join(
        str(t) for t in sorted(labeling[t] for t in request.targets))
    return (f"audit:{ci.digest}:model=sybil:targets={targets}"
            f":sybils={request.sybils}:k={request.k}:seed={seed}")


def _canonical_delta_edges(
    ci: CanonicalInput, request: RepublishRequest,
) -> list[list[int]]:
    """The delta's edges in canonical space, sorted.

    Published endpoints go through the canonical labeling; the delta's own
    new vertices are encoded by rank as ``-(rank+1)`` — a labeling-free
    encoding, so isomorphic (graph, delta) submissions from different vertex
    spaces produce the same value.
    """
    labeling = ci.labeling()
    rank = {v: r for r, v in enumerate(request.delta_vertices)}

    def encode(end: int) -> int:
        return labeling[end] if end in labeling else -(rank[end] + 1)

    return sorted(
        sorted([encode(u), encode(v)]) for u, v in request.delta_edges)


def republish_key(ci: CanonicalInput, request: RepublishRequest) -> str:
    token = hashlib.sha256(
        repr((len(request.delta_vertices),
              _canonical_delta_edges(ci, request))).encode("utf-8"),
    ).hexdigest()[:16]
    return f"republish:{ci.digest}:{request.params.cache_token()}:delta={token}"


def publish_spec(ci: CanonicalInput, request: _ParamsRequest) -> dict:
    return {
        "kind": "publish",
        "edges": list(ci.edges),
        "n": ci.n,
        "k": request.params.k,
        "method": request.params.method,
        "copy_unit": request.params.copy_unit,
    }


def sample_spec(ci: CanonicalInput, request: SampleRequest, seed: int,
                publish_artifact: dict | None) -> dict:
    spec = publish_spec(ci, request)
    spec.update({
        "kind": "sample",
        "count": request.count,
        "strategy": request.strategy,
        "seed": seed,
        "publish_artifact": publish_artifact,
    })
    return spec


def republish_spec(ci: CanonicalInput, request: RepublishRequest,
                   publish_artifact: dict | None) -> dict:
    spec = publish_spec(ci, request)
    spec.update({
        "kind": "republish",
        "delta_count": len(request.delta_vertices),
        "delta_edges": _canonical_delta_edges(ci, request),
        "publish_artifact": publish_artifact,
    })
    return spec


def audit_spec(ci: CanonicalInput, request: AuditRequest, seed: int) -> dict:
    labeling = ci.labeling()
    spec = {
        "kind": "attack-audit",
        "edges": list(ci.edges),
        "n": ci.n,
        "model": request.model,
    }
    if request.model == "hierarchy":
        spec.update({"measure": request.measure,
                     "target": labeling[request.target]})
    elif request.model in ("adjacency", "multiset"):
        spec.update({
            "attackers": [labeling[a] for a in request.attackers],
            "ell": request.ell,
            "target": (labeling[request.target]
                       if request.attackers else None),
        })
    else:
        spec.update({
            "k": request.k,
            "seed": seed,
            "sybils": request.sybils,
            "targets": sorted(labeling[t] for t in request.targets),
        })
    return spec


# ---------------------------------------------------------------------------
# response rendering (event loop; pure in (request, artifact))
# ---------------------------------------------------------------------------

def _relabeled_edge_lines(edges: Iterable[Sequence[int]], vertex_ids: Sequence[int],
                          mapping: dict[int, int]) -> list[str]:
    """What ``write_edge_list`` writes for ``Graph.from_edges`` of the
    artifact relabeled through *mapping* (isolated in *vertex_ids* order)."""
    touched: set[int] = set()
    pairs = []
    for u, v in edges:
        touched.add(u)
        touched.add(v)
        a, b = mapping[u], mapping[v]
        pairs.append((a, b) if a < b else (b, a))
    pairs.sort()
    isolated = [mapping[w] for w in vertex_ids if w not in touched]
    return list(edge_list_lines(len(vertex_ids), len(pairs), isolated, pairs))


def _publication_lines(ci: CanonicalInput, artifact: dict,
                       mapping: dict[int, int], extra: dict) -> list[dict]:
    """NDJSON events of a publication artifact relabeled through *mapping*:
    ``meta`` (with *extra*), ``partition``, the ``edges`` chunks, ``end``."""
    vertex_ids = artifact["vertex_ids"]
    if sorted(w for cell in artifact["cells"] for w in cell) != sorted(vertex_ids):
        raise ReproError("partition does not cover the graph; refusing to publish")
    # Partition order: members ascending, cells by their smallest member
    cells = sorted(sorted(mapping[w] for w in cell) for cell in artifact["cells"])
    edge_lines = _relabeled_edge_lines(artifact["edges"], vertex_ids, mapping)
    lines: list[dict] = [{
        "digest": ci.digest,
        "event": "meta",
        "text": meta_text(artifact["original_n"], extra),
    }, {
        "event": "partition",
        "text": cell_text(cells),
    }]
    chunks = ["".join(edge_lines[i:i + EDGE_CHUNK_LINES])
              for i in range(0, len(edge_lines), EDGE_CHUNK_LINES)]
    for index, chunk in enumerate(chunks):
        lines.append({"chunk": index, "chunks": len(chunks),
                      "event": "edges", "text": chunk})
    lines.append({"event": "end", "lines": len(lines) + 1})
    return lines


def build_publish_lines(ci: CanonicalInput, artifact: dict) -> list[dict]:
    """NDJSON payload of a publish response, in the requester's vertex ids."""
    mapping = ci.map_back(list(artifact["vertex_ids"]))
    return _publication_lines(ci, artifact, mapping, {
        "k": artifact["k"],
        "copy_unit": artifact["copy_unit"],
        "vertices_added": artifact["vertices_added"],
        "edges_added": artifact["edges_added"],
    })


def release0_mapping(ci: CanonicalInput, request: RepublishRequest,
                     release0: Sequence[int]) -> dict[int, int]:
    """The requester's ids of the canonical release-0 vertices *release0*
    (the publish artifact's ``vertex_ids``), as :func:`build_publish_lines`
    maps them. A delta id equal to one of them — a copy id the publish
    response minted — is the requester's mistake: :class:`ProtocolError`
    (a 400 ``bad delta``)."""
    mapping = ci.map_back(list(release0))
    collisions = set(request.delta_vertices) & set(mapping.values())
    if collisions:
        raise ProtocolError(
            f"bad delta: delta vertex ids {sorted(collisions)} collide with "
            "release-0 copy ids; pick delta ids above the published graph's "
            "vertex ids")
    return mapping


def build_republish_lines(ci: CanonicalInput, request: RepublishRequest,
                          artifact: dict) -> list[dict]:
    """NDJSON payload of a republish response, id-stable with /v1/publish.

    Three id classes in the canonical artifact:

    * release-0 published ids (``< publish_n``) map exactly as
      :func:`build_publish_lines` maps them — a client composing this
      response with its earlier publish response sees the *same* release-0
      vertex ids, which is what makes the two-release history composable;
    * the delta's new vertices (``publish_n .. publish_n+delta_count-1``)
      keep the requester's own delta ids, by rank;
    * release-1 growth copies get fresh ids above everything already used.

    A delta id equal to a copy id the publish response minted is refused
    (:func:`release0_mapping`).
    """
    base = artifact["publish_n"]
    delta_count = artifact["delta_count"]
    mapping = release0_mapping(
        ci, request, [w for w in artifact["vertex_ids"] if w < base])
    for rank, requester_id in enumerate(request.delta_vertices):
        mapping[base + rank] = requester_id
    fresh = max(mapping.values(), default=-1) + 1
    growth = sorted(
        w for w in artifact["vertex_ids"] if w >= base + delta_count)
    for rank, w in enumerate(growth):
        mapping[w] = fresh + rank
    return _publication_lines(ci, artifact, mapping, {
        "k": artifact["k"],
        "copy_unit": artifact["copy_unit"],
        "closure_edges": artifact["closure_edges"],
        "delta_vertices": delta_count,
        "vertices_added": artifact["vertices_added"],
        "edges_added": artifact["edges_added"],
    })


def build_sample_lines(ci: CanonicalInput, artifact: dict) -> list[dict]:
    """NDJSON payload of a sample response: one line per sample graph.

    Ids map as in the publish response; an exact sample's regrown copies
    past the published graph get fresh ids after the response's copies.
    """
    ids = set(artifact["published_vertex_ids"]).union(
        *(sample["vertices"] for sample in artifact["samples"]))
    mapping = ci.map_back(sorted(ids))
    lines: list[dict] = [{
        "count": artifact["count"],
        "digest": ci.digest,
        "event": "meta",
        "strategy": artifact["strategy"],
    }]
    for index, sample in enumerate(artifact["samples"]):
        text = "".join(
            _relabeled_edge_lines(sample["edges"], sample["vertices"], mapping))
        lines.append({"event": "sample", "index": index, "text": text})
    lines.append({"event": "end", "lines": len(lines) + 1})
    return lines


def build_audit_obj(ci: CanonicalInput, artifact: dict) -> dict:
    """JSON payload of an attack-audit response (any model)."""
    model = artifact.get("model", "hierarchy")
    if model == "hierarchy":
        candidates = sorted(ci.inverse[w] for w in artifact["candidates"])
        return {
            "candidate_count": len(candidates),
            "candidates": candidates,
            "digest": ci.digest,
            "measure": artifact["measure"],
            "model": model,
            "observed": artifact["observed"],
            "success_probability": artifact["success_probability"],
        }
    if model in ("adjacency", "multiset"):
        if artifact["target"] is not None:
            candidates = sorted(ci.inverse[w] for w in artifact["candidates"])
            return {
                "attackers": [ci.inverse[w] for w in artifact["attackers"]],
                "candidate_count": len(candidates),
                "candidates": candidates,
                "digest": ci.digest,
                "ell": artifact["ell"],
                "located_candidates": sorted(
                    ci.inverse[w] for w in artifact["located_candidates"]),
                "model": model,
                "target": ci.inverse[artifact["target"]],
            }
        return {
            "anonymity": artifact["anonymity"],
            "attackers": [ci.inverse[w] for w in artifact["attackers"]],
            "digest": ci.digest,
            "ell": artifact["ell"],
            "model": model,
            "n_subsets": artifact["n_subsets"],
            "vacuous": artifact["vacuous"],
        }
    # Sybil candidates live in the *published* graph: canonical inputs plus
    # sybil/copy vertices the pipeline inserted, so map_back mints fresh
    # request-side ids for the latter exactly like the publish payload does.
    seen = sorted({w for report in artifact["reports"]
                   for w in report["candidates"]}
                  | {report["target"] for report in artifact["reports"]})
    mapping = ci.map_back(seen)
    reports = [{
        "anonymity": report["anonymity"],
        "candidates": sorted(mapping[w] for w in report["candidates"]),
        "exposed": report["exposed"],
        "re_identified": report["re_identified"],
        "target": mapping[report["target"]],
    } for report in artifact["reports"]]
    return {
        "digest": ci.digest,
        "exposed_targets": sorted(
            report["target"] for report in reports if report["exposed"]),
        "k": artifact["k"],
        "model": "sybil",
        "recoveries": artifact["recoveries"],
        "reports": reports,
        "sybils": artifact["sybils"],
    }

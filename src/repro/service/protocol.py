"""Request schemas for ksymmetryd and per-tenant seed namespacing.

Every POST body is a JSON object. Common fields:

``tenant``   opaque namespace string (default ``"public"``); results for a
             tenant are a pure function of (tenant, request body), so two
             tenants submitting the same job get independent — but each
             individually reproducible — randomness.
``seed``     integer RNG seed (default 0); combined with the tenant through
             :func:`repro.utils.rng.derive_seed`, never used raw.
``async``    submit-and-poll instead of wait-for-result (default false).
``edges``    the input graph as edge-list text (the format of
             :mod:`repro.graphs.io`; integer vertices required).

Endpoint-specific fields are validated here into frozen request dataclasses;
anything malformed raises :class:`ProtocolError`, which the daemon maps to a
400 response. Validation is strict by design — the daemon is a publication
surface, and a silently-defaulted parameter would change what gets released.
So a field the endpoint (audit model, republish ``delta``) does not read is
rejected by name — except ``engine`` on ``/v1/republish``, which older
clients send and which never changed the released bytes.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

from repro.attacks.knowledge import MEASURES
from repro.core.republish import GraphDelta
from repro.graphs.graph import Graph
from repro.graphs.io import read_edge_list
from repro.utils.rng import derive_seed
from repro.utils.validation import AnonymizationError, ReproError

#: sanity caps; the service is not a place to submit unbounded work
MAX_K = 1024
MAX_SAMPLES = 1024
MAX_TENANT_LENGTH = 128
MAX_DELTA_VERTICES = 1024
MAX_DELTA_EDGES = 4096
MAX_ELL = 3
MAX_SYBILS = 4
MAX_SYBIL_TARGETS = 8
#: upper bound on attacker placements a (k,l) sweep may enumerate
MAX_KL_SUBSETS = 200_000

_METHODS = ("exact", "stabilization")
_COPY_UNITS = ("orbit", "component")
_STRATEGIES = ("approximate", "exact")

#: attack models /v1/attack-audit accepts (hierarchy is the legacy default)
ATTACK_MODELS = ("hierarchy", "adjacency", "multiset", "sybil")

#: the fields each request shape reads; any other field is a 400
_COMMON_FIELDS = frozenset({"async", "edges", "seed", "tenant"})
_PUBLISH_FIELDS = _COMMON_FIELDS | {"copy_unit", "k", "method"}
_SAMPLE_FIELDS = _PUBLISH_FIELDS | {"count", "strategy"}
_REPUBLISH_FIELDS = _PUBLISH_FIELDS | {"delta", "engine"}  # engine: ignored
_DELTA_FIELDS = frozenset({"add_edges", "add_vertices"})
_KL_FIELDS = _COMMON_FIELDS | {"attackers", "ell", "model", "target"}
_AUDIT_FIELDS = {
    "hierarchy": _COMMON_FIELDS | {"measure", "model", "target"},
    "adjacency": _KL_FIELDS,
    "multiset": _KL_FIELDS,
    "sybil": _COMMON_FIELDS | {"k", "model", "sybils", "targets"},
}


class ProtocolError(Exception):
    """A request failed validation; maps to HTTP 400."""


@dataclass(frozen=True)
class PublishParams:
    k: int = 2
    method: str = "exact"
    copy_unit: str = "orbit"

    def cache_token(self) -> str:
        return f"k={self.k}:method={self.method}:copy_unit={self.copy_unit}"


@dataclass(frozen=True)
class PublishRequest:
    tenant: str
    seed: int
    run_async: bool
    edges_text: str
    params: PublishParams

    kind = "publish"


@dataclass(frozen=True)
class SampleRequest:
    tenant: str
    seed: int
    run_async: bool
    edges_text: str
    params: PublishParams
    count: int
    strategy: str

    kind = "sample"


@dataclass(frozen=True)
class AuditRequest:
    """An attack-audit job; which fields matter depends on ``model``.

    ``hierarchy`` (legacy default) runs the structural-measure attack of
    :func:`repro.attacks.reidentify.simulate_attack` against ``target``
    using ``measure``.  ``adjacency`` / ``multiset`` run the (k,l) models:
    a whole-graph minimum-anonymity sweep over ``ell`` attacker accounts,
    or — when ``attackers`` (and then ``target``) are given — a targeted
    candidate-set query.  ``sybil`` plants ``sybils`` attacker accounts
    fingerprinting ``targets`` before a k-symmetry publication with
    threshold ``k`` and reports recovery/re-identification per target.
    """

    tenant: str
    seed: int
    run_async: bool
    edges_text: str
    target: int | None
    measure: str
    model: str = "hierarchy"
    ell: int = 1
    attackers: tuple[int, ...] = ()
    targets: tuple[int, ...] = ()
    sybils: int = 0
    k: int = 2

    kind = "attack-audit"


@dataclass(frozen=True)
class RepublishRequest:
    """A sequential release: ``edges`` is the *original* release-0 input.

    The daemon reuses (or deterministically recomputes) the cached publish
    artifact for ``edges`` under the same publish params, then applies the
    insertions-only delta via :func:`repro.core.republish.republish_published`
    — so release 0 of the response history is byte-identical to what
    ``POST /v1/publish`` returned for the same input.
    """

    tenant: str
    seed: int
    run_async: bool
    edges_text: str
    params: PublishParams
    delta_vertices: tuple[int, ...]
    delta_edges: tuple[tuple[int, int], ...]

    kind = "republish"

    def delta(self) -> GraphDelta:
        return GraphDelta(self.delta_vertices, self.delta_edges)


Request = PublishRequest | SampleRequest | AuditRequest | RepublishRequest


def effective_seed(tenant: str, seed: int) -> int:
    """The seed actually handed to samplers: namespaced per tenant.

    ``derive_seed`` mixes the tenant label into the request seed through a
    stable SHA-256 digest, so tenants sharing a seed value still draw
    independent streams, and one tenant's results are bit-reproducible
    whatever other tenants are doing concurrently.
    """
    return derive_seed(seed, f"tenant/{tenant}")


def _expect(obj: dict, key: str, kind: type, default: object = ...) -> object:
    if key not in obj:
        if default is ...:
            raise ProtocolError(f"missing required field {key!r}")
        return default
    value = obj[key]
    if kind is int and isinstance(value, bool):
        raise ProtocolError(f"field {key!r} must be {kind.__name__}, got bool")
    if not isinstance(value, kind):
        raise ProtocolError(
            f"field {key!r} must be {kind.__name__}, got {type(value).__name__}")
    return value


def _common(obj: dict) -> tuple[str, int, bool]:
    tenant = _expect(obj, "tenant", str, "public")
    if not tenant or len(tenant) > MAX_TENANT_LENGTH or not tenant.isprintable():
        raise ProtocolError("tenant must be a printable, non-empty string of "
                            f"at most {MAX_TENANT_LENGTH} characters")
    seed = _expect(obj, "seed", int, 0)
    run_async = _expect(obj, "async", bool, False)
    return tenant, seed, run_async


def _edges_text(obj: dict) -> str:
    text = _expect(obj, "edges", str)
    if not text.strip():
        raise ProtocolError("field 'edges' must contain a non-empty edge list")
    return text


def _publish_params(obj: dict) -> PublishParams:
    k = _expect(obj, "k", int, 2)
    if not 1 <= k <= MAX_K:
        raise ProtocolError(f"k must be in 1..{MAX_K}, got {k}")
    method = _expect(obj, "method", str, "exact")
    if method not in _METHODS:
        raise ProtocolError(f"method must be one of {_METHODS}, got {method!r}")
    copy_unit = _expect(obj, "copy_unit", str, "orbit")
    if copy_unit not in _COPY_UNITS:
        raise ProtocolError(
            f"copy_unit must be one of {_COPY_UNITS}, got {copy_unit!r}")
    return PublishParams(k=k, method=method, copy_unit=copy_unit)


def _ensure_dict(payload: object) -> dict:
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"request body must be a JSON object, got {type(payload).__name__}")
    return payload


def _known_fields(obj: dict, allowed: frozenset[str], where: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ProtocolError(f"unknown field(s) {unknown} {where}")


def parse_publish(payload: object) -> PublishRequest:
    obj = _ensure_dict(payload)
    _known_fields(obj, _PUBLISH_FIELDS, "for /v1/publish")
    tenant, seed, run_async = _common(obj)
    return PublishRequest(tenant=tenant, seed=seed, run_async=run_async,
                          edges_text=_edges_text(obj), params=_publish_params(obj))


def parse_sample(payload: object) -> SampleRequest:
    obj = _ensure_dict(payload)
    _known_fields(obj, _SAMPLE_FIELDS, "for /v1/sample")
    tenant, seed, run_async = _common(obj)
    count = _expect(obj, "count", int, 1)
    if not 1 <= count <= MAX_SAMPLES:
        raise ProtocolError(f"count must be in 1..{MAX_SAMPLES}, got {count}")
    strategy = _expect(obj, "strategy", str, "approximate")
    if strategy not in _STRATEGIES:
        raise ProtocolError(
            f"strategy must be one of {_STRATEGIES}, got {strategy!r}")
    return SampleRequest(tenant=tenant, seed=seed, run_async=run_async,
                         edges_text=_edges_text(obj), params=_publish_params(obj),
                         count=count, strategy=strategy)


def _vertex_list(obj: dict, key: str, cap: int) -> tuple[int, ...]:
    raw = _expect(obj, key, list)
    if not raw or len(raw) > cap:
        raise ProtocolError(
            f"field {key!r} must list 1..{cap} vertices, got {len(raw)}")
    for v in raw:
        if isinstance(v, bool) or not isinstance(v, int):
            raise ProtocolError(
                f"field {key!r} must contain integer vertices, got {v!r}")
    if len(set(raw)) != len(raw):
        raise ProtocolError(f"field {key!r} must not repeat vertices")
    return tuple(raw)


def parse_audit(payload: object) -> AuditRequest:
    obj = _ensure_dict(payload)
    tenant, seed, run_async = _common(obj)
    edges_text = _edges_text(obj)
    model = _expect(obj, "model", str, "hierarchy")
    if model not in ATTACK_MODELS:
        raise ProtocolError(
            f"model must be one of {ATTACK_MODELS}, got {model!r}")
    _known_fields(obj, _AUDIT_FIELDS[model], f"for model {model!r}")
    target: int | None = None
    measure = "combined"
    ell = 1
    attackers: tuple[int, ...] = ()
    targets: tuple[int, ...] = ()
    sybils = 0
    k = 2
    if model == "hierarchy":
        target = _expect(obj, "target", int)
        measure = _expect(obj, "measure", str, "combined")
        if measure not in MEASURES:
            raise ProtocolError(
                f"measure must be one of {sorted(MEASURES)}, got {measure!r}")
    elif model in ("adjacency", "multiset"):
        if "attackers" in obj:
            attackers = _vertex_list(obj, "attackers", MAX_ELL)
            target = _expect(obj, "target", int)
            if target in attackers:
                raise ProtocolError("target must not be an attacker vertex")
            if "ell" in obj and _expect(obj, "ell", int) != len(attackers):
                raise ProtocolError(
                    "field 'ell' must equal len(attackers) when both are given")
            ell = len(attackers)
        else:
            if "target" in obj:
                raise ProtocolError(
                    f"a targeted {model} audit needs 'attackers' "
                    "alongside 'target'")
            ell = _expect(obj, "ell", int, 1)
            if not 1 <= ell <= MAX_ELL:
                raise ProtocolError(f"ell must be in 1..{MAX_ELL}, got {ell}")
    else:  # sybil
        targets = _vertex_list(obj, "targets", MAX_SYBIL_TARGETS)
        sybils = _expect(obj, "sybils", int, 0)
        if sybils and not 2 <= sybils <= MAX_SYBILS:
            raise ProtocolError(
                f"sybils must be 0 (auto) or 2..{MAX_SYBILS}, got {sybils}")
        if sybils and 2 ** sybils - 1 < len(targets):
            raise ProtocolError(
                f"{sybils} sybils can fingerprint at most "
                f"{2 ** sybils - 1} distinct targets, got {len(targets)}")
        k = _expect(obj, "k", int, 2)
        if not 1 <= k <= MAX_K:
            raise ProtocolError(f"k must be in 1..{MAX_K}, got {k}")
    return AuditRequest(tenant=tenant, seed=seed, run_async=run_async,
                        edges_text=edges_text, target=target,
                        measure=measure, model=model, ell=ell,
                        attackers=attackers, targets=targets,
                        sybils=sybils, k=k)


def validate_audit_graph(request: AuditRequest, graph: Graph) -> None:
    """Graph-dependent audit validation (the daemon runs this post-parse)."""
    def member(role: str, v: int) -> None:
        if v not in graph:
            raise ProtocolError(f"{role} {v} is not a vertex of the graph")

    if request.model == "hierarchy":
        assert request.target is not None
        member("target", request.target)
        return
    if request.model in ("adjacency", "multiset"):
        for v in request.attackers:
            member("attacker", v)
        if request.target is not None:
            member("target", request.target)
        if not request.attackers:
            top = min(request.ell, max(graph.n - 1, 0))
            subsets = sum(math.comb(graph.n, s) for s in range(1, top + 1))
            if subsets > MAX_KL_SUBSETS:
                raise ProtocolError(
                    f"a (k,l) sweep over this graph enumerates {subsets} "
                    f"attacker placements (cap {MAX_KL_SUBSETS}); submit a "
                    "targeted audit with explicit 'attackers' instead")
        return
    for v in request.targets:
        member("sybil target", v)


def parse_republish(payload: object) -> RepublishRequest:
    obj = _ensure_dict(payload)
    _known_fields(obj, _REPUBLISH_FIELDS, "for /v1/republish")
    tenant, seed, run_async = _common(obj)
    delta_obj = _expect(obj, "delta", dict)
    _known_fields(delta_obj, _DELTA_FIELDS, "in 'delta'")
    vertices = delta_obj.get("add_vertices", [])
    edges = delta_obj.get("add_edges", [])
    if not isinstance(vertices, list) or not isinstance(edges, list):
        raise ProtocolError(
            "field 'delta' must carry 'add_vertices' and 'add_edges' lists")
    if not vertices:
        raise ProtocolError("delta must add at least one vertex")
    if len(vertices) > MAX_DELTA_VERTICES:
        raise ProtocolError(
            f"delta adds {len(vertices)} vertices, cap is {MAX_DELTA_VERTICES}")
    if len(edges) > MAX_DELTA_EDGES:
        raise ProtocolError(
            f"delta adds {len(edges)} edges, cap is {MAX_DELTA_EDGES}")
    pairs: list[tuple[int, int]] = []
    for entry in edges:
        if not isinstance(entry, list) or len(entry) != 2:
            raise ProtocolError(
                f"delta edges must be [u, v] pairs, got {entry!r}")
        pairs.append((entry[0], entry[1]))
    try:
        # GraphDelta normalizes (sorted, deduplicated) and type-checks.
        delta = GraphDelta(vertices, pairs)
    except AnonymizationError as exc:
        raise ProtocolError(f"bad delta: {exc}") from exc
    return RepublishRequest(tenant=tenant, seed=seed, run_async=run_async,
                            edges_text=_edges_text(obj),
                            params=_publish_params(obj),
                            delta_vertices=delta.add_vertices,
                            delta_edges=delta.add_edges)


def parse_graph(edges_text: str) -> Graph:
    """Parse and validate the request's edge-list text into a graph."""
    try:
        graph = read_edge_list(io.StringIO(edges_text))
    except ReproError as exc:
        raise ProtocolError(f"bad edge list: {exc}") from exc
    if graph.n == 0:
        raise ProtocolError("the submitted graph has no vertices")
    non_int = [v for v in graph.vertices() if not isinstance(v, int)]
    if non_int:
        raise ProtocolError(
            f"service graphs must use integer vertices; saw {non_int[0]!r}")
    return graph

"""Spans around the program's public functions, installed from outside.

The program carries no tracing of its own, so the benchmark wraps the
functions at each layer boundary of the per-layer table (:data:`LAYERS`)
after importing them: every module attribute, in every loaded ``repro``
module, that *is* the original function is replaced by a wrapper that
records a span — name, start, end, parent span and (on the daemon) a
request id. A call nested inside a span of the same layer records nothing,
so a layer's spans never overlap each other.

Spans live in memory (:class:`Tracer`) and are written out when the run
ends. :class:`Summary` turns them into per-layer self times: a span's
duration minus the part of it its child spans cover, so the layers' self
times plus the untraced glue add up to the traced end-to-end time.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import io
import itertools
import json
import os
import sys
import time

# span record: [id, layer, start, end, parent id (0 = none), request id, attrs]
ID, LAYER, START, END, PARENT, RID, ATTRS = range(7)


def _exact_method(args, kwargs) -> bool:
    method = kwargs.get("method", args[1] if len(args) > 1 else "exact")
    return method == "exact"


def _search_nodes(args, kwargs, result) -> dict:
    return {"nodes": result.stats.nodes + result.stats.leaves}


def _path_bytes(path) -> int:
    try:
        return os.path.getsize(os.fspath(path))
    except (OSError, TypeError):
        return 0


def _read_bytes(args, kwargs, result) -> dict:
    source = args[0]
    if isinstance(source, io.StringIO):
        return {"bytes": len(source.getvalue())}
    return {"bytes": _path_bytes(source)}


def _write_bytes(args, kwargs, result) -> dict:
    dest = args[1]
    if isinstance(dest, io.StringIO):
        return {"bytes": dest.tell()}
    return {"bytes": _path_bytes(dest)}


def _quota_draws(args, kwargs, result) -> dict:
    return {"draws": args[3] - len(args[1])}


#: (layer, module, attribute path, options) — the per-layer table's sources.
#: ``when`` decides per call whether to open a span; ``count`` returns
#: counters from the call's arguments and result; ``scope`` restricts the
#: replacement to references held by the named modules.
LAYERS: list[tuple[str, str, str, dict]] = [
    ("graphs.csr.build", "repro.graphs.csr", "CSRView.__init__", {}),
    ("isomorphism.refinement", "repro.isomorphism.refinement", "stable_partition", {}),
    ("isomorphism.search", "repro.isomorphism.orbits", "automorphism_partition",
     {"when": _exact_method, "count": _search_nodes}),
    ("isomorphism.incremental", "repro.isomorphism.incremental",
     "incremental_stable_partition", {}),
    ("isomorphism.incremental", "repro.isomorphism.incremental", "frontier_orbits", {}),
    ("arraycore.state", "repro.arraycore.state", "ArrayPartitionedGraph.__init__", {}),
    ("arraycore.state", "repro.arraycore.state", "ArrayPartitionedGraph.grow_cell_to", {}),
    ("arraycore.state", "repro.arraycore.state", "ArrayPartitionedGraph.copy_members", {}),
    ("arraycore.state", "repro.arraycore.state", "ArrayPartitionedGraph.copy_cell", {}),
    ("arraycore.state", "repro.arraycore.state",
     "ArrayPartitionedGraph.component_copy_unit", {}),
    ("arraycore.overlay.freeze", "repro.arraycore.overlay", "OverlayGraph.freeze", {}),
    ("arraycore.overlay.freeze", "repro.arraycore.overlay", "OverlayGraph.to_graph", {}),
    ("arraycore.publication", "repro.arraycore.publication",
     "publication_texts_from_arrays", {}),
    ("arraycore.backbone", "repro.arraycore.backbone", "backbone_arrays", {}),
    ("arraycore.pipeline", "repro.arraycore.pipeline", "run_pipeline", {}),
    ("core.anonymize", "repro.core.anonymize", "anonymize", {}),
    ("core.publication.save", "repro.core.publication", "save_publication", {}),
    ("core.publication.save", "repro.core.publication", "save_publication_triple", {}),
    ("core.publication.load", "repro.core.publication", "load_publication", {}),
    ("graphs.io.read", "repro.graphs.io", "read_edge_list", {"count": _read_bytes}),
    ("graphs.io.write", "repro.graphs.io", "write_edge_list", {"count": _write_bytes}),
    ("core.backbone", "repro.core.backbone", "backbone", {}),
    ("core.sampling.quota", "repro.core.sampling", "allocate_quota", {"count": _quota_draws}),
    ("core.sampling.dfs", "repro.core.sampling", "dfs_select_arrays", {}),
    ("core.sampling.approximate", "repro.core.sampling", "sample_approximate", {}),
    ("core.sampling.exact", "repro.core.sampling", "sample_exact", {}),
    ("core.republish", "repro.core.republish", "republish_published", {}),
    ("attacks.simulate", "repro.attacks.reidentify", "simulate_attack", {}),
]

#: the daemon's request path; installed only in the traced daemon, where
#: ``launcher.py`` also hooks ``read_request`` and the scheduler
SERVICE_LAYERS: list[tuple[str, str, str, dict]] = [
    ("service.httpio.write", "repro.service.httpio", "ResponseWriter.send_json", {}),
    ("service.httpio.write", "repro.service.httpio", "ResponseWriter.send_error", {}),
    ("service.httpio.write", "repro.service.httpio", "ResponseWriter.start_ndjson", {}),
    ("service.httpio.write", "repro.service.httpio", "ResponseWriter.send_line", {}),
    ("service.httpio.write", "repro.service.httpio", "ResponseWriter.finish_ndjson", {}),
    ("service.protocol.parse", "repro.service.protocol", "parse_publish", {}),
    ("service.protocol.parse", "repro.service.protocol", "parse_sample", {}),
    ("service.protocol.parse", "repro.service.protocol", "parse_audit", {}),
    ("service.protocol.parse", "repro.service.protocol", "parse_republish", {}),
    ("service.protocol.parse", "repro.service.protocol", "parse_graph", {}),
    ("service.protocol.parse", "repro.service.protocol", "validate_audit_graph", {}),
    ("service.protocol.parse", "repro.core.republish", "validate_delta",
     {"scope": ("repro.service.daemon",)}),
    ("service.canon.canonicalize", "repro.service.canon", "canonicalize", {}),
    ("service.cache.lookup", "repro.service.cache", "ArtifactCache.get", {}),
    ("service.cache.lookup", "repro.service.cache", "ArtifactCache.put", {}),
    ("service.handlers.compute", "repro.service.handlers", "execute_artifact", {}),
    ("service.handlers.render", "repro.service.handlers", "build_publish_lines", {}),
    ("service.handlers.render", "repro.service.handlers", "build_sample_lines", {}),
    ("service.handlers.render", "repro.service.handlers", "build_republish_lines", {}),
    ("service.handlers.render", "repro.service.handlers", "build_audit_obj", {}),
]


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: point events that are not spans (the daemon's job submissions)
        self.events: list[list] = []
        self.current: contextvars.ContextVar = contextvars.ContextVar("span", default=None)
        self.request: contextvars.ContextVar = contextvars.ContextVar("request", default=None)
        self.ids = itertools.count(1)
        self.installed: list[tuple[object, str, object]] = []

    # ----------------------------------------------------------- wrappers

    def open(self, layer: str):
        """Start a span under the current one; ``(None, None)`` inside its own layer."""
        parent = self.current.get()
        if parent is not None and parent[LAYER] == layer:
            return None, None
        record = [next(self.ids), layer, 0.0, 0.0,
                  parent[ID] if parent is not None else 0, self.request.get(), None]
        token = self.current.set(record)
        record[START] = time.perf_counter()
        return record, token

    def close(self, record, token) -> None:
        record[END] = time.perf_counter()
        self.current.reset(token)
        self.spans.append(record)

    def wrap(self, fn, layer: str, options: dict):
        """A wrapper of *fn* that records one span per call (see :data:`LAYERS`)."""
        when = options.get("when")
        count = options.get("count")
        tracer = self

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                record, token = tracer.open(layer)
                if record is None:
                    return await fn(*args, **kwargs)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer.close(record, token)
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when is not None and not when(args, kwargs):
                return fn(*args, **kwargs)
            record, token = tracer.open(layer)
            if record is None:
                return fn(*args, **kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(record, token)
            if count is not None:
                record[ATTRS] = count(args, kwargs, result)
            return result
        return wrapper

    # -------------------------------------------------------- installation

    def install(self, layers) -> None:
        """Replace every reference to each table entry with its wrapper."""
        for layer, module_name, path, options in layers:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self.replace(owner, attr, self.wrap(original, layer, options))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(original, layer, options)
            scope = options.get("scope")
            for name, loaded in list(sys.modules.items()):
                if loaded is None or not (name == "repro" or name.startswith("repro.")):
                    continue
                if scope is not None and name not in scope:
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self.replace(loaded, key, wrapper)

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to *value*, remembering the original for uninstall."""
        self.installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.installed):
            setattr(owner, attr, original)
        self.installed.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "events": self.events}, handle,
                      separators=(",", ":"))
            handle.write("\n")


# ------------------------------------------------------------------ analysis


class Summary:
    """Per-layer totals over one traced run."""

    def __init__(self, spans: list[list]) -> None:
        children: dict[int, float] = {}
        by_id = {}
        for span in spans:
            by_id[span[ID]] = span
            if span[PARENT]:
                children[span[PARENT]] = (children.get(span[PARENT], 0.0)
                                          + span[END] - span[START])
        self.spans = spans
        self._children = children
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        for span in spans:
            layer = span[LAYER]
            duration = span[END] - span[START]
            self.total_s[layer] = self.total_s.get(layer, 0.0) + duration
            self.self_s[layer] = (self.self_s.get(layer, 0.0)
                                  + duration - children.get(span[ID], 0.0))
            self.calls[layer] = self.calls.get(layer, 0) + 1
            for key, value in (span[ATTRS] or {}).items():
                if isinstance(value, int):
                    name = f"{layer}.{key}"
                    self.counters[name] = self.counters.get(name, 0) + value
        # layers with a span of another layer somewhere below them
        self._below: dict[int, set[str]] = {}
        for span in spans:
            parent = span[PARENT]
            while parent:
                self._below.setdefault(parent, set()).add(span[LAYER])
                parent = by_id[parent][PARENT] if parent in by_id else 0

    def self_of(self, layer: str) -> float:
        return self.self_s.get(layer, 0.0)

    def share_reaching(self, layer: str, below: str) -> float:
        """Share of *layer* spans with a *below* span under them (0 if none)."""
        ids = [span[ID] for span in self.spans if span[LAYER] == layer]
        if not ids:
            return 0.0
        return sum(1 for i in ids if below in self._below.get(i, ())) / len(ids)

    def dict_walk_s(self) -> float:
        """Self time of ``sample_approximate`` calls that ran the dict walk."""
        return sum(span[END] - span[START] - self._children.get(span[ID], 0.0)
                   for span in self.spans
                   if span[LAYER] == "core.sampling.approximate"
                   and "core.sampling.dfs" not in self._below.get(span[ID], ()))

    def mean_counter(self, name: str, layer: str) -> float:
        calls = self.calls.get(layer, 0)
        return self.counters.get(name, 0) / calls if calls else 0.0


#: the per-layer metrics, in BENCHMARK.json order: (name, unit)
PER_LAYER: list[tuple[str, str]] = [
    ("graphs.csr.build_s", "s"),
    ("isomorphism.refinement.self_s", "s"),
    ("isomorphism.search.self_s", "s"),
    ("isomorphism.search.nodes", "count"),
    ("isomorphism.incremental.self_s", "s"),
    ("arraycore.state.self_s", "s"),
    ("arraycore.overlay.freeze_s", "s"),
    ("arraycore.publication.self_s", "s"),
    ("arraycore.backbone.self_s", "s"),
    ("arraycore.pipeline.self_s", "s"),
    ("core.anonymize.self_s", "s"),
    ("core.anonymize.array_share", "ratio"),
    ("core.publication.save_s", "s"),
    ("core.publication.load_s", "s"),
    ("graphs.io.read_s", "s"),
    ("graphs.io.write_s", "s"),
    ("graphs.io.bytes", "bytes"),
    ("core.backbone.self_s", "s"),
    ("core.backbone.array_share", "ratio"),
    ("core.sampling.quota_s", "s"),
    ("core.sampling.quota_draws", "count"),
    ("core.sampling.dfs_s", "s"),
    ("core.sampling.array_share", "ratio"),
    ("core.sampling.exact_s", "s"),
    ("core.republish.self_s", "s"),
    ("attacks.simulate_ms", "ms"),
    ("service.httpio.read_ms", "ms"),
    ("service.httpio.write_ms", "ms"),
    ("service.httpio.response_kb", "KB"),
    ("service.protocol.parse_ms", "ms"),
    ("service.canon.canonicalize_ms", "ms"),
    ("service.cache.hit_ratio", "ratio"),
    ("service.cache.lookup_ms", "ms"),
    ("service.scheduler.queue_wait_ms", "ms"),
    ("service.handlers.compute_ms", "ms"),
    ("service.handlers.render_ms", "ms"),
]

def per_layer_metrics(summary: Summary, units: int, service: dict | None = None) -> dict:
    """Every per-layer metric of one traced run.

    Self times and counts are per *unit* — a network for the batch
    workloads, a request on the daemon. A layer that did not run reads 0;
    the ``service.*`` values come from *service* (the daemon's request path)
    and are 0 on the batch workloads.
    """
    per = 1.0 / units if units else 0.0
    # a self-time metric sums the layer it is named after: "<layer>[.self]_s"
    values = {name: summary.self_of(name[:-2].removesuffix(".self")) * per
              for name, unit in PER_LAYER if unit == "s"}
    values["core.sampling.dfs_s"] += summary.dict_walk_s() * per
    values["isomorphism.search.nodes"] = summary.counters.get(
        "isomorphism.search.nodes", 0) * per
    values["graphs.io.bytes"] = (summary.counters.get("graphs.io.read.bytes", 0)
                                 + summary.counters.get("graphs.io.write.bytes", 0)) * per
    values["core.sampling.quota_draws"] = summary.mean_counter(
        "core.sampling.quota.draws", "core.sampling.quota")
    values["core.anonymize.array_share"] = summary.share_reaching(
        "core.anonymize", "arraycore.state")
    values["core.backbone.array_share"] = summary.share_reaching(
        "core.backbone", "arraycore.backbone")
    values["core.sampling.array_share"] = summary.share_reaching(
        "core.sampling.approximate", "core.sampling.dfs")
    calls = summary.calls.get("attacks.simulate", 0)
    values["attacks.simulate_ms"] = (1000.0 * summary.total_s.get("attacks.simulate", 0.0)
                                     / calls if calls else 0.0)
    for name, unit in PER_LAYER:
        if name.startswith("service."):
            values[name] = (service or {}).get(name, 0.0)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}

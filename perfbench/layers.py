"""Benchmark-side spans around each layer's public entry points.

The traced run installs :class:`Tracer` wrappers where callers look the
functions up (a module attribute or a class attribute), keeps every span
in memory and turns them into the per-layer metrics after the timed
loop.  The untraced run installs nothing.  Worker processes forked from
a traced process record nothing: service-worker layers are derived from
outside, by replaying the same requests inline.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import threading
import time
from collections import Counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.logic import parser as _parser
from repro.obs import metrics as _metrics
from repro.revision import base as _base
from repro.revision import batch as _batch
from repro.revision import model_based as _model_based
from repro.runtime import pool as _pool
from repro.service import frontend as _frontend
from repro.service.protocol import STATUSES
from repro.store import ArtifactStore

from workloads import OPERATORS

#: Every wrapped entry point: (owner, attribute, span name).
ENTRY_POINTS = (
    (_batch, "sat_bit_models", "sat.compile"),
    (_batch, "sat_incremental_bit_models", "sat.compile"),
    (_base, "sat_bit_models", "sat.uncached_compile"),
    (_pool, "map_with_recovery", "pool.map"),
    (_model_based.ModelBasedOperator, "revise_sets", "select"),
    (_model_based, "delta_bits", "select.delta"),
    (ArtifactStore, "get_sparse", "store.read"),
    (ArtifactStore, "get_sharded", "store.read"),
    (ArtifactStore, "put_sparse", "store.write"),
    (ArtifactStore, "put_sharded", "store.write"),
    (_base.RevisionResult, "entails", "query.entails"),
    (_frontend.RevisionService, "start", "service.start"),
)

TIERS = ("table", "sharded", "sparse", "masks", "degenerate")
DENSE_TIERS = ("table", "sharded")
ALLSAT_COUNTS = ("models", "conflicts", "propagations")


def _describe(name: str, args, result):
    """The span attributes the metrics need, read off the call."""
    if name == "select":
        return {"op": args[0].name,
                "tier": getattr(result, "engine_tier", None) or "failed"}
    if name == "select.delta":
        return {"rows": len(result) if result is not None else 0}
    if name == "store.read":
        return {"hit": result is not None}
    if name == "store.write":
        return {"ok": bool(result)}
    return None


class Tracer:
    """In-memory spans: ``(name, start, end, depth, attrs)`` tuples."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, int, Optional[dict]]] = []
        self.enabled = True
        self._local = threading.local()
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start: float, end: float,
               attrs: Optional[dict] = None) -> None:
        self.spans.append((name, start, end, len(self._stack()), attrs))

    def install(self) -> None:
        """Wrap every entry point for the rest of this process."""
        for owner, attribute, name in ENTRY_POINTS:
            original = owner.__dict__[attribute]
            setattr(owner, attribute, self._wrap(original, name))

    def _wrap(self, original: Callable, name: str) -> Callable:
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            stack = tracer._stack()
            depth = len(stack)
            stack.append(name)
            result = None
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (name, start, end, depth, _describe(name, args, result)))

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            for name, start, end, depth, attrs in self.spans:
                handle.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "depth": depth, "attrs": attrs,
                }) + "\n")


def covered(spans: Iterable[Tuple[float, float]], begin: float,
            end: float) -> float:
    """Length of the union of ``spans`` clipped to ``[begin, end]``."""
    total = 0.0
    reach = begin
    for start, stop in sorted(spans):
        start, stop = max(start, reach), min(stop, end)
        if stop > start:
            total += stop - start
            reach = stop
    return total


def allsat_counts() -> Dict[str, int]:
    return {key: _metrics.REGISTRY.get(f"allsat.{key}") for key in ALLSAT_COUNTS}


def layer_metrics(
    spans: List[tuple],
    allsat_before: Dict[str, int],
    caches: Iterable[_batch.BatchCache],
    chain_requests: int,
) -> Dict[str, float]:
    """Per-layer metrics from spans, registry deltas and cache counters."""
    metrics: Dict[str, float] = {}

    def total(name: str, where: Callable = lambda attrs: True) -> float:
        return sum(end - start for n, start, end, _, attrs in spans
                   if n == name and where(attrs))

    def count(name: str, where: Callable = lambda attrs: True) -> int:
        return sum(1 for n, _, _, _, attrs in spans
                   if n == name and where(attrs))

    metrics["sat.compile_s"] = total("sat.compile")
    metrics["sat.uncached_compile_s"] = total("sat.uncached_compile")
    after = allsat_counts()
    for key in ALLSAT_COUNTS:
        metrics[f"sat.{key}"] = after[key] - allsat_before[key]
    metrics["pool.maps"] = count("pool.map")
    metrics["pool.map_s"] = total("pool.map")
    for op in OPERATORS:
        metrics[f"select.{op}_s"] = total(
            "select", lambda attrs, op=op: attrs["op"] == op)
        for tier in DENSE_TIERS:
            metrics[f"dense.select.{tier}.{op}_s"] = total(
                "select", lambda attrs, op=op, tier=tier:
                attrs["op"] == op and attrs["tier"] == tier)
    metrics["dense.select_s"] = total(
        "select", lambda attrs: attrs["tier"] in DENSE_TIERS)
    metrics["select.delta_s"] = total("select.delta")
    metrics["select.delta_rows"] = sum(
        attrs["rows"] for n, _, _, _, attrs in spans if n == "select.delta")
    tiers = Counter(attrs["tier"] for n, _, _, _, attrs in spans
                    if n == "select")
    for tier in TIERS:
        metrics[f"select.tier.{tier}"] = tiers.pop(tier, 0)
    metrics["select.tier.demoted"] = sum(tiers.values())
    hits = misses = incremental = resumed = 0
    for cache in caches:
        hits += cache.hits
        misses += cache.misses
        incremental += cache.incremental
        resumed += cache.tier_counts.get("chain-memoised", 0)
    metrics["batch.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["batch.chain_resume_share"] = (
        resumed / chain_requests if chain_requests else 0.0)
    metrics["batch.incremental_share"] = incremental / misses if misses else 0.0
    metrics["store.hits"] = count("store.read", lambda attrs: attrs["hit"])
    metrics["store.misses"] = count("store.read", lambda attrs: not attrs["hit"])
    metrics["store.puts"] = count("store.write", lambda attrs: attrs["ok"])
    metrics["store.read_s"] = total("store.read")
    metrics["store.write_s"] = total("store.write")
    metrics["query.entails_s"] = total("query.entails")
    metrics["query.count"] = count("query.entails")
    metrics["service.start_s"] = total("service.start")
    return metrics


def service_metrics(records: List[dict]) -> Dict[str, float]:
    """Client-side service layers: overhead over inline, parse, bytes,
    failures by status."""
    metrics: Dict[str, float] = {}
    overheads = [record["latency_s"] - record["inline_s"]
                 for record in records if record["response"].ok]
    metrics["service.overhead_ms"] = (
        1000.0 * statistics.median(overheads) if overheads else 0.0)
    parse_s = 0.0
    for record in records:
        request = record["request"]
        texts = list(request.theory or ()) + list(request.updates)
        if request.query is not None:
            texts.append(request.query)
        start = time.perf_counter()
        for text in texts:
            _parser.parse(text)
        parse_s += time.perf_counter() - start
    metrics["service.parse_s"] = parse_s
    metrics["service.request_bytes"] = sum(
        len(json.dumps(record["request"].frame())) for record in records)
    metrics["service.response_bytes"] = sum(
        len(json.dumps(record["response"].to_dict())) for record in records)
    statuses = Counter(record["response"].status for record in records)
    for status in STATUSES:
        if status != "ok":
            metrics[f"service.failed.{status}"] = statuses.get(status, 0)
    return metrics

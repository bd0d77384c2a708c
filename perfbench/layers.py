"""Per-layer metrics from the spans a traced server wrote.

A layer's *self* time is its span's duration minus the time its child
spans cover; ``*_cpu_ms`` twins use thread CPU time the same way, so
``wall - cpu`` is time the layer spent waiting (locks, fsync, sockets).
Per-call timings are medians over calls; counts are totals over the
whole traced server life (set-up, timed phase and, where a workload
restarts the server, the restarted process too).
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

import numpy as np

from perfbench import stats

#: Release methods in report order (all nine servable ones).
METHODS = ("UG", "AG", "Hier", "Hier1d", "UGnd", "Privelet", "Quad", "Kst", "Khy")

#: Every per-layer metric name with its unit, in report order.
PER_LAYER: dict[str, str] = {
    **{f"engine.kernel_ms.{m}": "ms" for m in METHODS},
    "engine.kernel_cpu_ms": "ms",
    "engine.prep_ms": "ms",
    "engine.rects": "count",
    "query_service.self_ms": "ms",
    "query_service.self_cpu_ms": "ms",
    "query_service.cache_hit_ratio": "ratio",
    "query_service.engine_preps_per_req": "ratio",
    "server.requests": "count",
    "server.self_ms": "ms",
    "server.self_cpu_ms": "ms",
    "server.errors": "count",
    "router.resolve_us": "us",
    "auth.calls": "count",
    "auth.ms": "ms",
    "admission.wait_ms_p99": "ms",
    "admission.shed": "count",
    "protocol.decode_ms": "ms",
    "protocol.encode_ms": "ms",
    "schemas.parse_ms": "ms",
    "store.get_ms": "ms",
    "store.build_self_ms": "ms",
    "store.build_self_cpu_ms": "ms",
    "store.builds": "count",
    **{f"fit.ms.{m}": "ms" for m in METHODS},
    "fit.ms.refresh": "ms",
    "serialization.write_ms": "ms",
    "serialization.write_bytes": "bytes",
    "serialization.load_ms": "ms",
    "catalog.txn_ms": "ms",
    "catalog.txn_cpu_ms": "ms",
    "catalog.txns": "count",
    "ingest.self_ms": "ms",
    "ingest.self_cpu_ms": "ms",
    "ingest.refreshes": "count",
    "ingest.refresh_ratio": "ratio",
    "wal.append_ms": "ms",
    "wal.append_cpu_ms": "ms",
    "wal.bytes_per_point": "bytes",
    "wal.replay_ms": "ms",
    "loadgen.late_p99_ms": "ms",
    "loadgen.error_rate": "ratio",
    "trace.overhead_pct": "%",
}


class Span:
    __slots__ = ("name", "wall", "cpu", "id", "parent", "root", "attrs",
                 "child_wall", "child_cpu", "session")

    def __init__(self, row, session):
        name, t0, t1, cpu, span_id, parent, root, attrs = row
        self.name = name
        self.wall = (t1 - t0) / 1e6  # ms
        self.cpu = cpu / 1e6
        self.id, self.parent, self.root = span_id, parent, root
        self.attrs = attrs
        self.child_wall = 0.0
        self.child_cpu = 0.0
        self.session = session

    @property
    def self_wall(self) -> float:
        return max(0.0, self.wall - self.child_wall)

    @property
    def self_cpu(self) -> float:
        return max(0.0, self.cpu - self.child_cpu)


def load_spans(paths: list[Path]) -> list[Span]:
    """Spans of every traced session, children's time charged to parents."""
    spans: list[Span] = []
    for session, path in enumerate(paths):
        rows = json.loads(Path(path).read_text(encoding="utf-8"))["spans"]
        by_id = {}
        session_spans = [Span(row, session) for row in rows]
        for span in session_spans:
            by_id[span.id] = span
        for span in session_spans:
            parent = by_id.get(span.parent)
            if parent is not None:
                parent.child_wall += span.wall
                parent.child_cpu += span.cpu
        spans.extend(session_spans)
    return spans


def _median(values) -> float:
    values = list(values)
    return float(np.median(values)) if values else 0.0


def per_layer_metrics(spans: list[Span], loadgen: dict) -> dict[str, float]:
    """Every metric in :data:`PER_LAYER` (0 where a layer did no work).

    ``loadgen`` supplies what only the client sees: ``cache_hits`` and
    ``answers`` (from the ``cached`` flag of each answer), ``late_p99_ms``,
    ``error_rate`` and ``overhead_pct``.
    """
    named: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        named[span.name].append(span)
    out: dict[str, float] = {}

    kernels = named["engine.kernel"]
    for method in METHODS:
        out[f"engine.kernel_ms.{method}"] = _median(
            s.wall for s in kernels if s.attrs.get("method") == method
        )
    out["engine.kernel_cpu_ms"] = _median(s.cpu for s in kernels)
    out["engine.prep_ms"] = _median(s.wall for s in named["engine.prep"])
    out["engine.rects"] = float(sum(s.attrs.get("rects", 0) for s in kernels))

    answers = named["query_service.answer"]
    out["query_service.self_ms"] = _median(s.self_wall for s in answers)
    out["query_service.self_cpu_ms"] = _median(s.self_cpu for s in answers)
    base = loadgen.get("answers", 0)
    out["query_service.cache_hit_ratio"] = (
        loadgen.get("cache_hits", 0) / base if base else 0.0
    )
    out["query_service.engine_preps_per_req"] = (
        len(named["engine.prep"]) / len(answers) if answers else 0.0
    )

    requests = named["server.request"]
    out["server.requests"] = float(len(requests))
    out["server.self_ms"] = _median(s.self_wall for s in requests)
    out["server.self_cpu_ms"] = _median(s.self_cpu for s in requests)
    out["server.errors"] = float(
        sum(1 for s in requests if s.attrs.get("status", 500) >= 400)
    )
    out["router.resolve_us"] = _median(s.wall * 1e3 for s in named["router.resolve"])

    auth = named["auth"]
    out["auth.calls"] = float(len(auth))
    out["auth.ms"] = _median(s.wall for s in auth)

    admission = named["admission"]
    out["admission.wait_ms_p99"] = (
        stats.tail([s.wall for s in admission]).value if admission else 0.0
    )
    out["admission.shed"] = float(
        sum(1 for s in admission if not s.attrs.get("admitted", True))
    )
    out["protocol.decode_ms"] = _median(s.wall for s in named["protocol.decode"])
    out["protocol.encode_ms"] = _median(s.wall for s in named["protocol.encode"])
    out["schemas.parse_ms"] = _median(s.wall for s in named["schemas.parse"])
    out["store.get_ms"] = _median(s.wall for s in named["store.get"])

    # build_self excludes its fit and archive serialisation children (and
    # the catalog transactions, which have their own metric).
    built = [s for s in named["store.build"] if s.attrs.get("built")]
    out["store.build_self_ms"] = _median(s.self_wall for s in built)
    out["store.build_self_cpu_ms"] = _median(s.self_cpu for s in built)
    out["store.builds"] = float(len(built))

    fits = named["fit"]
    for method in METHODS:
        out[f"fit.ms.{method}"] = _median(
            s.wall for s in fits
            if s.attrs.get("method") == method and not s.attrs.get("refresh")
        )
    out["fit.ms.refresh"] = _median(s.wall for s in fits if s.attrs.get("refresh"))

    writes = named["serialization.write"]
    out["serialization.write_ms"] = _median(s.wall for s in writes)
    out["serialization.write_bytes"] = _median(s.attrs.get("bytes", 0) for s in writes)
    out["serialization.load_ms"] = _median(s.wall for s in named["serialization.load"])

    txns = named["catalog.txn"]
    out["catalog.txn_ms"] = _median(s.wall for s in txns)
    out["catalog.txn_cpu_ms"] = _median(s.cpu for s in txns)
    out["catalog.txns"] = float(len(txns))

    ingests = named["ingest"]
    out["ingest.self_ms"] = _median(s.self_wall for s in ingests)
    out["ingest.self_cpu_ms"] = _median(s.self_cpu for s in ingests)
    out["ingest.refreshes"] = float(sum(s.attrs.get("refreshed", 0) for s in ingests))
    out["ingest.refresh_ratio"] = (
        sum(1 for s in ingests if s.attrs.get("refreshed")) / len(ingests)
        if ingests else 0.0
    )

    appends = named["wal.append"]
    data_appends = [s for s in appends if s.attrs.get("points")]
    out["wal.append_ms"] = _median(s.wall for s in appends)
    out["wal.append_cpu_ms"] = _median(s.cpu for s in appends)
    points = sum(s.attrs["points"] for s in data_appends)
    out["wal.bytes_per_point"] = (
        sum(s.attrs.get("bytes", 0) for s in data_appends) / points if points else 0.0
    )
    # Replay happens when a restarted server reopens its logs: the median
    # over restarted sessions of the time each spent replaying.
    replay: dict[int, float] = defaultdict(float)
    for span in named["wal.open"]:
        if span.attrs.get("records"):
            replay[span.session] += span.wall
    out["wal.replay_ms"] = _median(replay.values())

    out["loadgen.late_p99_ms"] = float(loadgen.get("late_p99_ms", 0.0))
    out["loadgen.error_rate"] = float(loadgen.get("error_rate", 0.0))
    out["trace.overhead_pct"] = float(loadgen.get("overhead_pct", 0.0))
    return {name: float(out[name]) for name in PER_LAYER}

"""``ingest-refresh``: point batches streamed in beside binary queries.

Server: ``--store-dir --ingest``, one AG release of ``landmark`` (225k
points, epsilon 0.1).  One load thread alternates two keep-alive
connections: connection 1 sends a ``POST /ingest`` batch, then connection
2 sends :data:`QUERIES_PER_BATCH` 100-rect binary queries against that
release, and so on for a fixed number of batches (:data:`BATCHES_PER_S`
times the run length).  One request is in flight at a time, so the
server's CPU time between a request's send and its answer is that
request's alone, each query is answered by exactly one known release
version, and the work of a run does not depend on the host's speed (the
data grows with every batch, and with it the cost of a refit).  The
calibration work runs after every ack, while the server is idle.

Every fourth batch is a tight hotspot of :data:`HOT_POINTS` points in one
of the emptiest cells of the data; the others are :data:`BATCH_POINTS`
points resampled from everything ingested so far.  In-distribution
batches keep AG's build-vs-fill drift (144 first-level cells) under 0.25
(it creeps up from about 0.18 over a few hundred batches), a hotspot
pushes it past 0.42, and the threshold is 0.33: so exactly every fourth
ack refreshes the release (fit, archive write, ledger spend) and the rest
are WAL-only.  After the timed phase the server is stopped with SIGTERM
and restarted on the same directory.
"""

from __future__ import annotations

import json
import shutil
import time
from dataclasses import dataclass

import numpy as np

from perfbench import common

DATASET = "landmark"
METHOD = "AG"
EPSILON = 0.1
BATCH_POINTS = 500
HOT_POINTS = 1_500
HOT_EVERY = 4
HOT_SIGMA = 0.3
DRIFT_THRESHOLD = 0.33
QUERY_BATCH = 100
#: The first query after a refresh prepares a new engine.  With a refresh
#: every fourth batch that is one query in 64 (1.6%), so the p99 (ten
#: samples beyond it) sits inside that group, not on its edge.
QUERIES_PER_BATCH = 16
#: Ingest batches per second of ``--seconds`` (rounded to whole cycles of
#: :data:`HOT_EVERY`): a little under the rate the seed code sustains in
#: this loop on one 2 GHz vCPU, and few enough that the data's growth
#: over a run of up to 20 s keeps ordinary batches under the threshold.
BATCHES_PER_S = 16
POOL_PER_SIZE = 100
CONNECTIONS = 2
PATTERN_BATCHES = 32
#: One build and nine forced, bit-identical rebuilds.
BUILDS = 10
VERSION_SAMPLE = 4
BINARY = {"Content-Type": "application/x-repro-batch",
          "Accept": "application/x-repro-batch"}


@dataclass
class Record:
    start: float
    end: float
    status: int | str
    cpu_ms: float  # server CPU time while in flight
    refreshed: bool = False
    body: bytes = b""
    cached: bool = False
    idx: np.ndarray | None = None
    version: int = 0  # release version live when a query was sent

    @property
    def latency_ms(self) -> float:
        return (self.end - self.start) * 1e3


def server_args(store_dir) -> list[str]:
    # Each refresh spends epsilon 0.1; ingest may spend half the budget.
    return ["--store-dir", str(store_dir), "--ingest",
            "--drift-threshold", str(DRIFT_THRESHOLD), "--dataset-budget", "100"]


def sparse_cells(base: np.ndarray, bounds) -> np.ndarray:
    """Centres of the emptiest quarter of a 12 x 12 grid over the data.

    Hotspots land there, so each one moves the drift by about its share
    of the pending points wherever the seed puts it; a hotspot in a dense
    cell would barely move it, and the refresh cadence would depend on
    the seed.
    """
    counts, xs, ys = np.histogram2d(
        base[:, 0], base[:, 1], bins=12,
        range=[[bounds.x_lo, bounds.x_hi], [bounds.y_lo, bounds.y_hi]])
    ix, iy = np.nonzero(counts <= np.quantile(counts, 0.25))
    return np.column_stack([(xs[ix] + xs[ix + 1]) / 2, (ys[iy] + ys[iy + 1]) / 2])


class Stream:
    """The ingest batches of one seed, generated in order.

    Batch ``i`` with ``i % HOT_EVERY == HOT_EVERY - 1`` is a Gaussian
    hotspot in a sparse cell; every other batch resamples the base data
    *plus the hotspots so far*.  Resampling the base alone would let the
    hotspots' growing share of each refit push ordinary batches over the
    threshold late in a run, and the cadence would drift.
    """

    def __init__(self, seed: int, base: np.ndarray, bounds):
        self.seed = seed
        self.base = base
        self.lo = [bounds.x_lo, bounds.y_lo]
        self.hi = [bounds.x_hi, bounds.y_hi]
        self.centers = sparse_cells(base, bounds)
        self.hot = np.empty((0, 2))

    def batch(self, index: int) -> np.ndarray:
        rng = np.random.default_rng([self.seed, 5, index])
        if index % HOT_EVERY == HOT_EVERY - 1:
            center = self.centers[rng.integers(len(self.centers))]
            points = np.clip(rng.normal(center, HOT_SIGMA, (HOT_POINTS, 2)), self.lo, self.hi)
            self.hot = np.concatenate([self.hot, points])
            return points
        picks = rng.integers(0, len(self.base) + len(self.hot), BATCH_POINTS)
        from_base = picks < len(self.base)
        points = np.empty((BATCH_POINTS, 2))
        points[from_base] = self.base[picks[from_base]]
        points[~from_base] = self.hot[picks[~from_base] - len(self.base)]
        return points


def run_pass(run: common.Run, seconds: float, spans=None) -> dict:
    from repro.datasets.registry import get_spec
    from repro.service import protocol
    from repro.service.keys import ReleaseKey

    tally = run.tally
    key = ReleaseKey(DATASET, METHOD, EPSILON, 0)
    server, store_dir, ready_s = common.spawn_ready(
        run, server_args, None if spans is None else spans("serve"))
    archive = store_dir / f"{key.slug()}.npz"
    versions_dir = run.fresh_dir("versions")
    try:
        t0 = time.perf_counter()
        spec = get_spec(DATASET)
        dataset = spec.make(None, rng=0)
        stream = Stream(run.seed, dataset.points, dataset.domain.bounds)
        rng = np.random.default_rng([run.seed, 1])
        pool = np.vstack([
            common.random_rects(spec, dataset.domain, size, POOL_PER_SIZE, rng)
            for size in range(6)
        ])
        inputs_s = time.perf_counter() - t0

        # One build and BUILDS - 1 forced rebuilds (bit-identical: same
        # key, nothing ingested yet).
        client = server.client()
        build_cost, build_s = common.build_releases(
            run, server, [(key.slug(), client, key.to_payload())], BUILDS)

        def timed(target, conn, path: str, body: bytes,
                  headers: dict) -> tuple[Record, bytes, dict]:
            cpu0, start = target.cpu_s(), time.perf_counter()
            status, response_headers, data = conn.try_request("POST", path, body, headers)
            end = time.perf_counter()
            return Record(start, end, status, (target.cpu_s() - cpu0) * 1e3), data, response_headers

        def query(conn, idx, target=None) -> Record:
            record, body, headers = timed(
                target or server, conn, "/query", protocol.encode_query(key, pool[idx]), BINARY)
            record.body, record.idx = body, idx
            record.cached = headers.get("X-Answer-Cached") == "1"
            return record

        writer, reader = server.client(), server.client()
        t0 = time.perf_counter()
        for _ in range(2):
            record = query(reader, rng.choice(len(pool), QUERY_BATCH, replace=False))
            tally.attempt(record.status == 200, f"warm-up -> {record.status}")
        warm_s = time.perf_counter() - t0
        setup_s = ready_s + inputs_s + warm_s

        shutil.copyfile(archive, versions_dir / "v0.npz")
        n_batches = max(HOT_EVERY, round(seconds * BATCHES_PER_S / HOT_EVERY) * HOT_EVERY)
        ingests: list[Record] = []
        queries: list[Record] = []
        acked: list[np.ndarray] = []

        def loop() -> None:
            query_rng = np.random.default_rng([run.seed, 3])
            version = 0
            for index in range(n_batches):
                points = stream.batch(index)
                body = json.dumps({"dataset": DATASET, "seed": 0,
                                   "batch_id": f"b{index}",
                                   "points": points.tolist()}).encode()
                record, data, _ = timed(
                    server, writer, "/ingest", body, {"Content-Type": "application/json"})
                try:
                    record.refreshed = record.status == 200 and bool(
                        json.loads(data).get("refreshed"))
                except ValueError as error:
                    record.status = repr(error)
                ingests.append(record)
                run.cal.sample()
                if record.refreshed:
                    version += 1
                    shutil.copyfile(archive, versions_dir / f"v{version}.npz")
                if record.status == 200:
                    acked.append(points)
                for _ in range(QUERIES_PER_BATCH):
                    queries.append(
                        query(reader, query_rng.choice(len(pool), QUERY_BATCH, replace=False)))
                    queries[-1].version = version

        common.load_threads(tally, [loop])
        rss_peak_mb = server.vm_hwm_mb()

        # Every timed answer against the release version that was live
        # when it was sent, computed from that version's persisted archive.
        refreshes = sum(r.refreshed for r in ingests)
        sample = np.arange(VERSION_SAMPLE) * (len(pool) // VERSION_SAMPLE)
        version_answers = [
            common.reference(versions_dir / f"v{k}.npz", pool, sample, tally,
                             f"{key.slug()} version {k}")
            for k in range(refreshes + 1)
        ]
        good = []
        for record in queries:
            ok = record.status == 200 and common.close(
                protocol.decode_answer(record.body), version_answers[record.version][record.idx])
            if tally.attempt(ok, f"query wrong or failed ({record.status})"):
                good.append(record)
        acks = [r for r in ingests if tally.attempt(r.status == 200, f"ingest -> {r.status}")]
        common.check_budgets(client, tally, DATASET)
        status, health = client.json("GET", "/health")
        released = health["ingest"]["datasets"][key.data_id]["markers"].get(key.slug(), 0)

        check = np.arange(QUERY_BATCH) * (len(pool) // QUERY_BATCH)
        before = query(client, check)
        tally.attempt(before.status == 200 and common.close(
            protocol.decode_answer(before.body), version_answers[-1][check]),
            "final release answers differ from its archive")
        current = dataset.extend(np.concatenate(acked)[:released]) if released else dataset
        rel_error = common.release_error(archive, spec, current)

        for conn in (client, writer, reader):
            conn.close()
        server, restart_cost, restart_s, firsts = common.restarts(
            run, server, server_args(store_dir), spans,
            lambda restarted: query(restarted.client(), check, restarted))
        for after in firsts:
            tally.attempt(after.status == 200 and after.body == before.body,
                          "answers changed across the restart")
    finally:
        server.stop()

    metrics, wall = common.query_metrics(
        run.cost([r.end for r in good], [r.cpu_ms for r in good]), [QUERY_BATCH] * len(good),
        [r.latency_ms for r in queries], [r.start for r in queries], [r.end for r in queries])
    ingest, ingest_wall = common.ingest_metrics(
        run.cost([r.end for r in acks], [r.cpu_ms for r in acks], "parse"),
        [len(points) for points in acked],
        [r.latency_ms for r in acks], [r.start for r in acks], [r.end for r in acks])
    metrics.update({
        "setup_s": setup_s,
        "build_cost": build_cost,
        "method_cost_geomean": metrics["req_cost"],  # one method
        "rel_error_mean": rel_error,
        "rss_peak_mb": rss_peak_mb,
        "restart_cost": restart_cost,
        **ingest,
    })
    wall.update({
        "build_s": build_s,
        "method_geomean_ms": wall["req_p50_ms"],
        "restart_s": restart_s,
        **ingest_wall,
    })
    return {
        "metrics": metrics,
        "extra": wall,
        "answers": len(queries),
        "cache_hits": sum(r.cached for r in queries),
        "ingest_batches": len(ingests),
        "refreshes": refreshes,
        "refresh_pattern": "".join(
            "R" if r.refreshed else "." for r in ingests[:PATTERN_BATCHES]),
        "released_points": int(released),
    }

"""``analytics-miss``: every method, distinct batches, the answer cache misses.

Closed loop on two keep-alive connections; binary protocol; 1,000-rect
batches drawn (without replacement) from a 3,000-rect pool of the
paper's q1-q6 ladder on ``landmark`` (registry default, 225k points,
epsilon 1).  The connections walk the nine methods round-robin in
lockstep: each turn both send a batch of the same method and wait for
each other, so a method is always measured beside itself (a fixed
contention pairing on the server's one CPU) and, as the phase ends on a
whole cycle, every method gets the same number of requests.  A batch
never repeats, so the kernels do most of the work.  The server's CPU
clock is read at every turn boundary, so each turn's CPU time belongs to
its two requests of one method and nothing else; every third boundary
also runs the calibration work while the server is idle.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from perfbench import common, stats
from perfbench.layers import METHODS

DATASET = "landmark"
EPSILON = 1.0
BATCH = 1_000
POOL_PER_SIZE = 500
SAMPLE_PER_SIZE = 4
CONNECTIONS = 2
CHECK_RECTS = 200
#: Build rounds: one build and a forced, bit-identical rebuild per method.
BUILD_ROUNDS = 2
#: Turn boundaries per calibration sample (about every 0.1 s).
CALIBRATE_EVERY = 3
BINARY = {"Content-Type": "application/x-repro-batch",
          "Accept": "application/x-repro-batch"}


@dataclass
class Record:
    method: str
    start: float
    end: float
    status: int
    cached: bool
    idx: np.ndarray
    body: bytes

    @property
    def latency_ms(self) -> float:
        return (self.end - self.start) * 1e3


def server_args(store_dir) -> list[str]:
    # Two rounds of nine epsilon-1 builds of one data instance spend 18.
    return ["--store-dir", str(store_dir), "--ingest", "--dataset-budget", "20"]


def keys():
    from repro.service.keys import ReleaseKey

    return {m: ReleaseKey(DATASET, m, EPSILON, 0) for m in METHODS}


def run_pass(run: common.Run, seconds: float, spans=None) -> dict:
    from repro.datasets.registry import get_spec
    from repro.service import protocol

    tally = run.tally
    server, store_dir, ready_s = common.spawn_ready(
        run, server_args, None if spans is None else spans("serve"))
    try:
        # Inputs: the query pool, its exact counts, and the oracle sample.
        t0 = time.perf_counter()
        spec = get_spec(DATASET)
        dataset = spec.make(None, rng=0)
        rng = np.random.default_rng([run.seed, 1])
        pool = np.vstack([
            common.random_rects(spec, dataset.domain, size, POOL_PER_SIZE, rng)
            for size in range(6)
        ])
        sample = np.concatenate([
            np.arange(SAMPLE_PER_SIZE) + size * POOL_PER_SIZE for size in range(6)
        ])
        release_keys = keys()
        inputs_s = time.perf_counter() - t0

        client = server.client()
        build_cost, build_s = common.build_releases(
            run, server,
            [(method, client, key.to_payload()) for method, key in release_keys.items()],
            BUILD_ROUNDS)

        clients = [server.client() for _ in range(CONNECTIONS)]

        def send(conn, method, idx) -> Record:
            frame = protocol.encode_query(release_keys[method], pool[idx])
            start = time.perf_counter()
            status, headers, body = conn.try_request("POST", "/query", frame, BINARY)
            end = time.perf_counter()
            return Record(method, start, end, status,
                          headers.get("X-Answer-Cached") == "1", idx, body)

        # Warm-up: one batch per method on each connection (engine preps).
        t0 = time.perf_counter()
        warm_rng = np.random.default_rng([run.seed, 2])
        for conn in clients:
            for method in METHODS:
                record = send(conn, method, warm_rng.choice(len(pool), BATCH, replace=False))
                tally.attempt(record.status == 200, f"warm-up {method} -> {record.status}")
        warm_s = time.perf_counter() - t0
        setup_s = ready_s + inputs_s + warm_s

        # Timed phase: closed loop in lockstep, whole cycles of nine turns.
        opens = time.perf_counter()
        closes = opens + seconds
        results: list[list[Record]] = [[] for _ in clients]
        turn = [0]
        cpu_marks = [server.cpu_s()]  # the server's CPU clock at each turn boundary
        mark_times = [time.perf_counter()]

        def next_turn() -> None:  # runs once per turn, all connections waiting
            cpu_marks.append(server.cpu_s())
            mark_times.append(time.perf_counter())
            if len(cpu_marks) % CALIBRATE_EVERY == 0:
                run.cal.sample()
            turn[0] += 1
            if turn[0] % len(METHODS) == 0 and time.perf_counter() >= closes:
                turn[0] = -1

        barrier = threading.Barrier(len(clients), action=next_turn, timeout=120)

        def loop(index: int) -> None:
            conn_rng = np.random.default_rng([run.seed, 3, index])
            try:
                while True:
                    method = METHODS[turn[0] % len(METHODS)]
                    idx = conn_rng.choice(len(pool), BATCH, replace=False)
                    results[index].append(send(clients[index], method, idx))
                    barrier.wait()
                    if turn[0] < 0:
                        return
            except BaseException:
                barrier.abort()  # release the other connection
                raise

        common.load_threads(tally, [lambda i=i: loop(i) for i in range(len(clients))])
        records = [r for per_conn in results for r in per_conn]
        rss_peak_mb = server.vm_hwm_mb()
        probe, probe_wall = common.ingest_probe(run, server, client)

        # Checks: every served estimate against the persisted archives.
        refs = {
            method: common.reference(
                store_dir / f"{key.slug()}.npz", pool, sample, tally, method)
            for method, key in release_keys.items()
        }
        good = []
        for record in records:
            ok = record.status == 200
            if ok:
                served = protocol.decode_answer(record.body)
                ok = common.close(served, refs[record.method][record.idx])
            if tally.attempt(ok, f"{record.method} answer wrong or failed ({record.status})"):
                good.append(record)
        common.check_budgets(client, tally, DATASET)
        rel_error = float(np.mean([
            common.release_error(store_dir / f"{key.slug()}.npz", spec, dataset)
            for key in release_keys.values()
        ]))

        # Restart on the same store: time to the first answer, then
        # every release must answer bit-identically to before.
        check = np.arange(CHECK_RECTS) * (len(pool) // CHECK_RECTS)
        before = {m: send(client, m, check).body for m in METHODS}
        for conn in clients:
            conn.close()
        client.close()
        server, restart_cost, restart_s, firsts = common.restarts(
            run, server, server_args(store_dir), spans,
            lambda restarted: send(restarted.client(), METHODS[0], check).body)
        client = server.client()
        after = {m: send(client, m, check).body for m in METHODS}
        for body in firsts:
            tally.attempt(body == before[METHODS[0]], "first answer changed across a restart")
        for method in METHODS:
            tally.attempt(after[method] == before[method] and len(after[method]) > 0,
                          f"{method}: answers changed across the restart")
        client.close()
    finally:
        server.stop()

    # Turn k's CPU time is its two requests' (both of METHODS[k % 9]).
    turn_cost = run.cost(mark_times[1:], np.diff(cpu_marks) * 1e3 / len(clients))
    turn_methods = [METHODS[k % len(METHODS)] for k in range(len(turn_cost))]
    metrics, wall = common.query_metrics(
        turn_cost, [BATCH] * len(turn_cost),
        [r.latency_ms for r in records], [r.start for r in records], [r.end for r in records])
    per_method_cost = {
        m: float(np.median([c for c, tm in zip(turn_cost, turn_methods) if tm == m]))
        for m in METHODS
    }
    per_method_wall = {
        m: float(np.median([r.latency_ms for r in good if r.method == m])) for m in METHODS
    }
    metrics.update({
        "setup_s": setup_s,
        "build_cost": build_cost,
        "method_cost_geomean": stats.geomean(per_method_cost.values()),
        "rel_error_mean": rel_error,
        "rss_peak_mb": rss_peak_mb,
        "restart_cost": restart_cost,
        **probe,
    })
    wall.update({
        "build_s": build_s,
        "method_geomean_ms": stats.geomean(per_method_wall.values()),
        "restart_s": restart_s,
        **probe_wall,
    })
    return {
        "metrics": metrics,
        "extra": wall,
        "answers": len(records),
        "cache_hits": sum(r.cached for r in records),
        "turns": len(turn_cost),
        "per_method_cost": per_method_cost,
        "per_method_wall_ms": per_method_wall,
    }

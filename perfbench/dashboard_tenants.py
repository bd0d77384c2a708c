"""``dashboard-tenants``: many small JSON batches from two API-key tenants.

Open loop: requests arrive as a Poisson process at :data:`RATE` per
second, sent in turn by one load thread over two keep-alive connections
(one per tenant's API key) with ``--auth require``.  Tenants ``acme`` and
``globex`` each hold UG and AG releases of ``storage`` and ``landmark``.
Each request is one of a fixed pool of 8-32-rect batches (q1-q3), picked
Zipf-skewed, so a working answer cache would mostly hit.  Latency is
timed from each request's due time.

The pool, its popularity ranking and the number of times each batch is
sent (its Zipf share of the run's arrivals) are fixed; the workload seed
draws the arrival times and the order of the picks.  Which batch is most
popular, and the mix of releases and batch sizes a run sends, then does
not change from seed to seed: the median sits between the cheap UG and
the dearer AG requests, and drawing the picks independently moved it
with the mix.  One request is in flight at a time (a request due while
another is still out waits for it, and that wait counts in its latency),
so the server's CPU time between a request's send and its answer is that
request's alone.  Every :data:`CALIBRATE_EVERY` requests the calibration
work runs in the next gap of at least :data:`CALIBRATE_GAP_S`.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from perfbench import common, stats
from perfbench.harness import mint_api_key

TENANTS = ("acme", "globex")
RELEASES = (("storage", "UG"), ("storage", "AG"), ("landmark", "UG"), ("landmark", "AG"))
EPSILON = 1.0
POOL_BATCHES = 256
ZIPF_S = 1.1
#: Offered load in requests per second (recorded in BENCHMARK.json).  A
#: request of this pool takes about 3 ms on one 2 GHz vCPU (the tenant
#: defect re-prepares its engine every time), so the server is busy about
#: 12% of the time and requests seldom queue behind each other.
RATE = 40.0
CONNECTIONS = len(TENANTS)
SAMPLE_ROWS = 4
CALIBRATE_EVERY = 5
CALIBRATE_GAP_S = 0.010
#: Seed of the batch pool and its popularity ranking (see module doc).
POOL_SEED = 20130408
#: Build rounds: one build and four forced, bit-identical rebuilds each.
BUILD_ROUNDS = 5


@dataclass
class Record:
    batch: int
    due: float
    ready: float
    sent: float
    end: float
    cpu_ms: float  # server CPU time while in flight
    status: int
    body: dict

    @property
    def start(self) -> float:
        return self.due

    @property
    def latency_ms(self) -> float:
        return (self.end - self.due) * 1e3


def server_args(store_dir) -> list[str]:
    # Five rounds of two epsilon-1 builds per tenant data instance spend 10.
    return ["--store-dir", str(store_dir), "--auth", "require", "--ingest",
            "--dataset-budget", "12"]


def run_pass(run: common.Run, seconds: float, spans=None) -> dict:
    from repro.datasets.registry import get_spec
    from repro.service.keys import ReleaseKey

    tally = run.tally
    server, store_dir, ready_s = common.spawn_ready(
        run, server_args, None if spans is None else spans("serve"))
    try:
        t0 = time.perf_counter()
        tokens = {tenant: mint_api_key(store_dir, tenant) for tenant in TENANTS}
        keys_s = time.perf_counter() - t0

        # Inputs: the batch pool, its popularity, and the arrival schedule.
        t0 = time.perf_counter()
        rng = np.random.default_rng(POOL_SEED)
        datasets = {name: get_spec(name).make(None, rng=0) for name in ("storage", "landmark")}
        pool = []  # (tenant, release index, rects)
        for _ in range(POOL_BATCHES):
            tenant = TENANTS[rng.integers(len(TENANTS))]
            release = int(rng.integers(len(RELEASES)))
            name = RELEASES[release][0]
            sizes = rng.integers(0, 3, int(rng.integers(8, 33)))
            rects = np.vstack([
                common.random_rects(get_spec(name), datasets[name].domain, int(s), 1, rng)
                for s in sizes
            ])
            pool.append((tenant, release, rects))
        release_keys = [ReleaseKey(name, method, EPSILON, 0) for name, method in RELEASES]
        bodies = [
            json.dumps({**release_keys[release].to_payload(), "rects": rects.tolist()}).encode()
            for _, release, rects in pool
        ]
        popularity = 1.0 / np.arange(1, POOL_BATCHES + 1) ** ZIPF_S
        popularity = popularity[rng.permutation(POOL_BATCHES)]
        popularity /= popularity.sum()
        rng = np.random.default_rng([run.seed, 1])
        gaps = rng.exponential(1.0 / RATE, int(RATE * seconds * 2) + 16)
        offsets = np.cumsum(gaps)
        offsets = offsets[offsets < seconds]
        picks = rng.permutation(np.repeat(np.arange(POOL_BATCHES),
                                          stats.quota(popularity, len(offsets))))
        inputs_s = time.perf_counter() - t0

        clients = {tenant: server.client(tokens[tenant]) for tenant in TENANTS}
        build_cost, build_s = common.build_releases(
            run, server,
            [(f"{tenant}/{key.slug()}", clients[tenant], key.to_payload())
             for tenant in TENANTS for key in release_keys],
            BUILD_ROUNDS)

        conn = {t: server.client(tokens[t]) for t in TENANTS}

        def send(conn: dict, batch: int) -> tuple[int, dict]:
            tenant = pool[batch][0]
            status, _, data = conn[tenant].try_request(
                "POST", "/query", bodies[batch], {"Content-Type": "application/json"})
            try:
                return status, json.loads(data)
            except ValueError as error:
                return repr(error), {}

        # Warm-up: each tenant's releases once.
        t0 = time.perf_counter()
        firsts = {}
        for batch, (tenant, release, _) in enumerate(pool):
            firsts.setdefault((tenant, release), batch)
        for batch in firsts.values():
            status, _ = send(conn, batch)
            tally.attempt(status == 200, f"warm-up batch {batch} -> {status}")
        warm_s = time.perf_counter() - t0
        setup_s = ready_s + keys_s + inputs_s + warm_s

        # Timed phase: open loop over the schedule.
        opens = time.perf_counter()
        schedule = opens + offsets
        records: list[Record] = []

        def loop() -> None:
            free_at = opens
            since_calibration = 0
            for i, due in enumerate(schedule):
                if (since_calibration >= CALIBRATE_EVERY
                        and due - time.perf_counter() >= CALIBRATE_GAP_S):
                    run.cal.sample()
                    since_calibration = 0
                since_calibration += 1
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                cpu0, sent = server.cpu_s(), time.perf_counter()
                status, body = send(conn, int(picks[i]))
                end = time.perf_counter()
                records.append(Record(int(picks[i]), due, max(due, free_at), sent, end,
                                      (server.cpu_s() - cpu0) * 1e3, status, body))
                free_at = end

        common.load_threads(tally, [loop])
        tally.attempt(len(records) == len(schedule),
                      f"sent {len(records)} of {len(schedule)} scheduled requests")
        _, lateness = stats.due_latencies(
            [r.due for r in records], [r.ready for r in records],
            [r.sent for r in records], [r.end for r in records])
        rss_peak_mb = server.vm_hwm_mb()
        probe, probe_wall = common.ingest_probe(run, server, clients[TENANTS[0]])

        # Checks against each tenant's persisted archives.
        refs = {}
        rel_errors = []
        for tenant in TENANTS:
            for release, key in enumerate(release_keys):
                batches = [b for b, (t, r, _) in enumerate(pool) if (t, r) == (tenant, release)]
                if not batches:
                    continue
                rects = np.vstack([pool[b][2] for b in batches])
                sample = np.arange(min(SAMPLE_ROWS, len(rects)))
                answers = common.reference(
                    store_dir / "tenants" / tenant / f"{key.slug()}.npz",
                    rects, sample, tally, f"{tenant}/{key.slug()}")
                rel_errors.append(common.release_error(
                    store_dir / "tenants" / tenant / f"{key.slug()}.npz",
                    get_spec(key.dataset), datasets[key.dataset], sizes=range(3)))
                offset = 0
                for b in batches:
                    refs[b] = answers[offset:offset + len(pool[b][2])]
                    offset += len(pool[b][2])
        good = []
        for record in records:
            ok = record.status == 200 and common.close(
                record.body.get("estimates", []), refs[record.batch])
            if tally.attempt(ok, f"batch {record.batch} wrong or failed ({record.status})"):
                good.append(record)
        for tenant in TENANTS:
            common.check_budgets(clients[tenant], tally, tenant)

        # Restart: time to the first authenticated answer, then every
        # tenant's answers must be bit-identical to before.
        checks = sorted(firsts.values())
        before = {b: send(conn, b)[1].get("estimates") for b in checks}
        for client in conn.values():
            client.close()
        for client in clients.values():
            client.close()
        server, restart_cost, restart_s, firsts = common.restarts(
            run, server, server_args(store_dir), spans,
            lambda restarted: send({t: restarted.client(tokens[t]) for t in TENANTS},
                                   checks[0])[1].get("estimates"))
        conn = {t: server.client(tokens[t]) for t in TENANTS}
        after = {b: send(conn, b)[1].get("estimates") for b in checks}
        for estimates in firsts:
            tally.attempt(estimates == before[checks[0]], "first answer changed across a restart")
        for b in checks:
            tally.attempt(after[b] is not None and after[b] == before[b],
                          f"batch {b}: answers changed across the restart")
        for client in conn.values():
            client.close()
    finally:
        server.stop()

    cost = run.cost([r.end for r in good], [r.cpu_ms for r in good])
    metrics, wall = common.query_metrics(
        cost, [len(pool[r.batch][2]) for r in good],
        [r.latency_ms for r in records], [r.due for r in records], [r.end for r in records])
    methods = [RELEASES[pool[r.batch][1]][1] for r in good]
    per_method_cost = {
        m: float(np.median([c for c, rm in zip(cost, methods) if rm == m]))
        for m in sorted(set(methods))
    }
    per_method_wall = {
        m: float(np.median([r.latency_ms for r, rm in zip(good, methods) if rm == m]))
        for m in sorted(set(methods))
    }
    metrics.update({
        "setup_s": setup_s,
        "build_cost": build_cost,
        "method_cost_geomean": stats.geomean(per_method_cost.values()),
        "rel_error_mean": float(np.mean(rel_errors)),
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
        "cache_hits": sum(bool(r.body.get("cached")) for r in records),
        "rate_per_s": RATE,
        "offered": len(schedule),
        "late_p99_ms": stats.tail([x * 1e3 for x in lateness]).value,
        "per_method_cost": per_method_cost,
        "per_method_wall_ms": per_method_wall,
    }

"""Pieces every workload shares: run state, query pools, checks, set-up.

All release keys use data instance seed 0 and a fixed epsilon, so every
run fits the same releases; the workload seed drives only the request
stream (which rectangles, in which batches, in which order, when).

Timings that bound a change are *costs*: server CPU time
(:meth:`Server.cpu_s`) in units of the CPU time of fixed calibration work
run on the server's CPU at about the same moment
(:class:`~perfbench.harness.Calibrator`; units ``ref`` for its compute
part, ``ref_parse`` for its parsing part).  On a shared host
the wall clock also counts time the hypervisor gave other guests and the
wait for an idle vCPU to be woken, and CPU time itself moves with the
vCPU's speed; both swamped the program's own cost from run to run.
Wall-clock twins go to ``meta``.
"""

from __future__ import annotations

import json
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench import stats
from perfbench.harness import ROOT, Calibrator, Server

#: Scratch space for store directories and span files, inside the checkout.
RUNS_DIR = ROOT / ".perfbench_runs"

#: Servers started per run to take the median spawn-to-ready time.
SETUP_SPAWNS = 3

#: SIGTERM -> first-answer cycles per run; ``restart_cost`` is their median.
RESTARTS = 5

#: Rectangles per size of the fixed pool ``rel_error_mean`` is taken on.
ACCURACY_PER_SIZE = 500

#: Relative tolerance of the answer checks (the kernels' contract).
RTOL = 1e-9

#: Post-phase ingest probe on workloads that do not ingest: WAL-only acks
#: on a data instance with no release, so nothing refreshes.  The probe
#: calibrates after every :data:`PROBE_CALIBRATE_EVERY` acks.
PROBE_BATCHES = 200
PROBE_POINTS = 2000
PROBE_CALIBRATE_EVERY = 5


@dataclass
class Tally:
    """Correctness accounting for one run (the result line's counters)."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def attempt(self, ok: bool, why: str = "") -> bool:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.problems) < 20:
                    self.problems.append(why)
        return ok


def load_threads(tally: Tally, loops) -> None:
    """Run each ``loops`` callable on its own thread and wait for all.

    An exception that escapes a loop counts as a failed attempt, so a
    load thread that dies early cannot leave a short run looking correct.
    """

    def guarded(loop) -> None:
        try:
            loop()
        except Exception as error:  # a thread boundary: record and go on
            tally.attempt(False, f"load thread died: {error!r}")

    threads = [threading.Thread(target=guarded, args=(loop,)) for loop in loops]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


@dataclass
class Run:
    """One workload invocation: seed, timed length, scratch directory."""

    workload: str
    seed: int
    seconds: float
    tally: Tally = field(default_factory=Tally)

    def __post_init__(self):
        self.dir = RUNS_DIR / f"{self.workload}-{self.seed}-{time.time_ns()}"
        self.dir.mkdir(parents=True)
        self._counter = 0
        self.cal = Calibrator()

    def cost(self, times, cpu_ms, kind: str = "compute") -> np.ndarray:
        """Server CPU times measured at ``times`` in ``kind`` calibration
        units: ``parse`` for ingest acks (JSON bodies), ``compute`` for
        the rest."""
        return np.asarray(cpu_ms, dtype=float) / self.cal.ref_ms(times, kind)

    def fresh_dir(self, name: str) -> Path:
        self._counter += 1
        path = self.dir / f"{self._counter:02d}-{name}"
        path.mkdir()
        return path

    def cleanup(self) -> None:
        self.cal.close()
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            RUNS_DIR.rmdir()
        except OSError:
            pass  # another run's directory is still there


def f32_exact(boxes: np.ndarray) -> np.ndarray:
    """Rectangles rounded to float32, so the binary wire format is lossless."""
    return np.ascontiguousarray(boxes, dtype=np.float32).astype(np.float64)


def random_rects(spec, domain, size_index: int, count: int, rng) -> np.ndarray:
    """``count`` rectangles of the paper's size ``q{size_index + 1}``."""
    factor = 2.0 ** (5 - size_index)
    width, height = spec.q6_width / factor, spec.q6_height / factor
    bounds = domain.bounds
    x = rng.uniform(bounds.x_lo, bounds.x_hi - width, count)
    y = rng.uniform(bounds.y_lo, bounds.y_hi - height, count)
    return f32_exact(np.column_stack([x, y, x + width, y + height]))


def accuracy_pool(spec, dataset, sizes=range(6)) -> np.ndarray:
    """The fixed rectangles ``rel_error_mean`` is measured on.

    Drawn from a constant seed, not the workload seed: accuracy is a
    property of the release, and a seed-dependent pool would make the
    metric spread with the query draw instead of with the release.
    """
    rng = np.random.default_rng(20130408)
    return np.vstack([
        random_rects(spec, dataset.domain, size, ACCURACY_PER_SIZE, rng) for size in sizes
    ])


def release_error(archive: Path, spec, dataset, sizes=range(6)) -> float:
    """Mean RE of a persisted release over :func:`accuracy_pool`."""
    from repro.core.serialization import synopsis_from_path
    from repro.queries.engine import make_engine

    pool = accuracy_pool(spec, dataset, sizes)
    answers = make_engine(synopsis_from_path(archive)).answer_batch(pool)
    return relative_error_mean(answers, dataset.count_many(pool), dataset.size)


def restarts(run: Run, server: Server, args: list[str], spans, first_answer):
    """Stop and restart the server :data:`RESTARTS` times on its store.

    ``first_answer(server)`` sends the first query to a restarted server.
    Returns the last server, the median CPU cost of a restarted process up
    to that first answer, the median wall seconds from SIGTERM to it, and
    each cycle's first answer.
    """
    cpu_ms, times, wall, answers = [], [], [], []
    for cycle in range(RESTARTS):
        start = time.perf_counter()
        server.stop()
        run.cal.sample()  # with the one after the first answer, brackets the start-up
        server = Server(args, None if spans is None else spans(f"restart{cycle}"))
        try:
            answers.append(first_answer(server))
        except BaseException:
            server.stop()  # the caller still holds the stopped one
            raise
        wall.append(time.perf_counter() - start)
        cpu_ms.append(server.cpu_s() * 1e3)
        times.append(time.perf_counter())
        run.cal.sample()
    return (server, float(np.median(run.cost(times, cpu_ms))), float(np.median(wall)),
            answers)


def close(served: np.ndarray, expected: np.ndarray) -> bool:
    served = np.asarray(served, dtype=float)
    return served.shape == expected.shape and bool(
        np.all(np.abs(served - expected) <= RTOL * np.maximum(1.0, np.abs(expected)))
    )


def reference(archive: Path, pool: np.ndarray, sample: np.ndarray, tally: Tally,
              label: str) -> np.ndarray:
    """Reference answers for ``pool`` from a *persisted* release archive.

    Every pool answer comes from the batch engine over the archive (the
    sealed-slab path, not the server's in-process engine); the engine is
    itself checked against the scalar oracle ``scalar_answer_batch`` on
    the ``sample`` rows.  No re-fit: a change to how releases are drawn
    cannot make served answers look wrong.
    """
    from repro.core.serialization import synopsis_from_path
    from repro.queries.engine import make_engine, scalar_answer_batch

    synopsis = synopsis_from_path(archive)
    answers = np.asarray(make_engine(synopsis).answer_batch(pool), dtype=float)
    oracle = scalar_answer_batch(synopsis, pool[sample])
    tally.attempt(close(answers[sample], oracle),
                  f"{label}: archive engine disagrees with the scalar oracle")
    return answers


def relative_error_mean(estimates: np.ndarray, truths: np.ndarray, n_points: int) -> float:
    from repro.queries.metrics import relative_errors

    return float(np.mean(relative_errors(estimates, truths, n_points)))


def check_budgets(client, tally: Tally, label: str) -> None:
    """Spent epsilon per data instance never exceeds its budget."""
    status, body = client.json("GET", "/releases")
    if not tally.attempt(status == 200, f"{label}: GET /releases -> {status}"):
        return
    for data_id, state in body.get("budgets", {}).items():
        tally.attempt(
            state["spent"] <= state["total"] + 1e-12,
            f"{label}: {data_id} spent {state['spent']} of {state['total']}",
        )


def spawn_ready(run: Run, args_for, spans_path=None) -> tuple[Server, Path, float]:
    """Start the server ``SETUP_SPAWNS`` times; keep the last one.

    ``args_for(store_dir)`` gives the server arguments for a fresh store.
    Returns the kept server, its store directory and the median
    spawn-to-ready seconds.
    """
    ready = []
    for _ in range(SETUP_SPAWNS - 1):
        probe = Server(args_for(run.fresh_dir("spawn")))
        ready.append(probe.ready_s)
        probe.stop()
    store_dir = run.fresh_dir("store")
    server = Server(args_for(store_dir), spans_path)
    ready.append(server.ready_s)
    return server, store_dir, float(np.median(ready))


def build_releases(run: Run, server: Server, builds, rounds: int) -> tuple[float, float]:
    """Build every release, then force-rebuild it ``rounds - 1`` times.

    ``builds`` holds ``(label, client, payload)``.  A forced rebuild of the
    same key over the same data is bit-identical, so the served releases
    do not change.  Builds run one at a time, so the server's CPU clock
    charges each exactly.  Returns ``build_cost``, the sum over releases
    of each one's median CPU cost per ``POST /releases``, and ``build_s``,
    the same sum of median wall-clock latencies.
    """
    cpu_ms = {label: [] for label, _, _ in builds}
    times = {label: [] for label, _, _ in builds}
    wall = {label: [] for label, _, _ in builds}
    run.cal.sample()  # each build is bracketed by calibration samples
    for round_ in range(rounds):
        for label, client, payload in builds:
            cpu0, start = server.cpu_s(), time.perf_counter()
            status, body = client.json("POST", "/releases", {**payload, "force": round_ > 0})
            end = time.perf_counter()
            cpu_ms[label].append((server.cpu_s() - cpu0) * 1e3)
            times[label].append(end)
            wall[label].append(end - start)
            if not run.tally.attempt(status == 201, f"build {label} -> {status} {body}"):
                raise RuntimeError(f"cannot build {label}: {body}")
            run.cal.sample()
    return (float(sum(np.median(run.cost(times[k], cpu_ms[k])) for k in cpu_ms)),
            float(sum(np.median(v) for v in wall.values())))


def median_and_tail(values) -> tuple[float, stats.Tail]:
    """Median and :func:`stats.tail` of one sample."""
    values = list(values)
    return float(np.median(values)), stats.tail(values)


def query_metrics(cost, rects, wall_ms, starts, ends) -> tuple[dict, dict]:
    """``req_cost*`` and ``rects_per_cost`` of the timed phase's queries,
    and their wall-clock twins for ``meta``.

    ``cost[i]`` is the CPU cost of a request that answered ``rects[i]``
    rectangles; ``wall_ms``, ``starts`` and ``ends`` time every request.
    """
    cost_p50, cost_tail = median_and_tail(cost)
    wall_p50, wall_tail = median_and_tail(wall_ms)
    return {
        "req_cost": cost_p50,
        "req_cost_p99": cost_tail.value,
        "rects_per_cost": float(sum(rects) / np.sum(cost)),
    }, {
        "req_p50_ms": wall_p50,
        "req_p99_ms": wall_tail.value,
        "req_tail": f"cost {cost_tail.describe()}; wall {wall_tail.describe()}",
        "rects_per_s": stats.throughput(starts, ends, sum(rects)),
    }


def ingest_probe(run: Run, server: Server, client, dataset: str = "road") -> tuple[dict, dict]:
    """Time ``PROBE_BATCHES`` WAL-only ingest acks, one at a time.

    Returns the ``ingest_*`` end-to-end metrics and their wall-clock twins.
    """
    from repro.datasets.registry import get_spec

    bounds = get_spec(dataset).make(1, rng=0).domain.bounds
    rng = np.random.default_rng([run.seed, 7])
    bodies = []  # encoded up front: the acks' span is the server's alone
    for i in range(PROBE_BATCHES):
        pts = np.column_stack([
            rng.uniform(bounds.x_lo, bounds.x_hi, PROBE_POINTS),
            rng.uniform(bounds.y_lo, bounds.y_hi, PROBE_POINTS),
        ])
        bodies.append(json.dumps({"dataset": dataset, "seed": 1, "batch_id": f"probe-{i}",
                                  "points": pts.tolist()}).encode())
    cpu_ms, wall_ms, starts, ends = [], [], [], []
    for i, body in enumerate(bodies):
        if i % PROBE_CALIBRATE_EVERY == 0:
            run.cal.sample()
        cpu0, start = server.cpu_s(), time.perf_counter()
        status, _, _ = client.try_request(
            "POST", "/ingest", body, {"Content-Type": "application/json"})
        end = time.perf_counter()
        if run.tally.attempt(status == 200, f"ingest probe -> {status}"):
            cpu_ms.append((server.cpu_s() - cpu0) * 1e3)
            wall_ms.append((end - start) * 1e3)
            starts.append(start)
            ends.append(end)
    run.cal.sample()
    if not cpu_ms:
        return {}, {}
    return ingest_metrics(run.cost(ends, cpu_ms, "parse"), [PROBE_POINTS] * len(cpu_ms),
                          wall_ms, starts, ends)


def ingest_metrics(cost, points, wall_ms, starts, ends) -> tuple[dict, dict]:
    """``ingest_cost`` of acks, and for ``meta`` its tail, the points per
    unit of ack cost and the wall-clock twins.  The tail and the points
    per cost do not bound a change: on the probe the tail is set by a few
    slow acks and on ``ingest-refresh`` by the refreshing ones, and ten
    runs of the same code spread by 0.21-0.31 and up to 0.16 on them."""
    cost_p50, cost_tail = median_and_tail(cost)
    wall_p50, wall_tail = median_and_tail(wall_ms)
    return {
        "ingest_cost": cost_p50,
    }, {
        "ingest_cost_p99": cost_tail.value,
        "ingest_points_per_cost": float(sum(points) / np.sum(cost)),
        "ingest_p50_ms": wall_p50,
        "ingest_p99_ms": wall_tail.value,
        "ingest_tail": f"cost {cost_tail.describe()}; wall {wall_tail.describe()}",
        "ingest_points_per_s": stats.throughput(starts, ends, sum(points)),
    }

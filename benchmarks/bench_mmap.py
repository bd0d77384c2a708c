"""Fork-scaling benchmark: mapped (v2) vs copied (v1) release archives.

Not a paper figure — an engineering benchmark for the zero-copy store
(PR 9).  The scenario is a pre-fork serving fleet: N worker processes
share one ``--store-dir``, each loads the same release after the fork,
prepares an engine, and answers query batches.  With v1 archives every
worker decompresses the payload into its own heap and rebuilds the
prefix-sum engine (private pages, engine cold start); with v2 archives
every worker memory-maps the same page-aligned slabs and restores the
engine from its sealed buffers (shared file-backed pages, zero cold
starts).

For each format and each worker count in ``WORKER_COUNTS`` the parent
forks the workers and collects, per child, the *private* memory growth
around the load (``Private_Clean + Private_Dirty`` from
``/proc/self/smaps_rollup`` — RSS alone counts shared pages and would
flatter nobody), the engine cold-start/sealed-load counters, and the
clock stamps around the child's timed batches.  Every child loads its
release and answers a check batch first, then waits at a start barrier
until all children of the round are ready, so the timed batches measure
serving, not fork and load stagger.  Each child times 1,000 batches of
256 rectangles (cycling through 16 distinct ones with its answer cache
off), so a round's span is long against scheduler noise.  A round's
throughput is all its workers' batches over the span from the first
start to the last end.  Beside it, each worker's process CPU time over
its timed loop gives the round's CPU milliseconds per batch: the
store's serving cost, which does not move with how much CPU the shared
host leaves free, as the wall-clock rate does.  CPU time still moves
with the speed of the host's vCPU, so each worker also times
``perfbench/calibrate.py``'s fixed ``compute()`` work just before and
after its loop, and ``cost_per_batch`` is its CPU milliseconds per
batch over the mean of those two times (the workers' mean), the unit
perfbench expresses its costs in.
Bit-identity of v1 and v2 answers is asserted always, in both modes.

Results land under ``mmap_scaling`` in ``BENCH_service.json``.  The
acceptance criterion asserted in full mode is memory, not speed (so it
holds on a 1-CPU box too): at 4 workers, the mean per-worker private
growth of mapped releases is <= 20% of the v1 per-process copy cost.

``BENCH_MMAP_QUICK=1`` (``make bench-mmap-quick``) shrinks the release
and the worker counts, keeps the bit-identity assertion, and leaves the
tracked JSON untouched.
"""

import hashlib
import json
import os
import sys
import time

import numpy as np
import pytest
from conftest import update_json_report, write_report

from perfbench.calibrate import compute as calibration_work
from repro.core.serialization import synopsis_from_path
from repro.experiments.report import format_table
from repro.queries.engine import make_engine
from repro.service.keys import ReleaseKey
from repro.service.query_service import QueryService
from repro.service.store import SynopsisStore
from tests.v1_archive import v1_archive_bytes

QUICK = os.environ.get("BENCH_MMAP_QUICK", "") not in ("", "0")

N_POINTS = 100_000 if QUICK else 8_000_000
WORKER_COUNTS = (1, 2) if QUICK else (1, 2, 4, 8)
#: Timed batches per worker: in full mode a few hundred milliseconds of
#: serving, so a round's span is not dominated by scheduler noise.
BATCHES_PER_WORKER = 4 if QUICK else 1_000
#: Distinct batches a worker cycles through (its answer cache is off):
#: the batches it holds, and so its private memory growth, do not grow
#: with ``BATCHES_PER_WORKER``.
DISTINCT_BATCHES = 4 if QUICK else 16
BATCH_SIZE = 64 if QUICK else 256

#: Acceptance: mapped per-worker private growth vs the v1 copy cost.
MAX_PRIVATE_RATIO = 0.20
RATIO_WORKERS = 4

KEY = ReleaseKey("storage", "UG", epsilon=1.0, seed=0)

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork") or not sys.platform.startswith("linux"),
    reason="fork + /proc/<pid>/smaps_rollup are Linux-only",
)


def _private_bytes():
    """Private (unshared) resident bytes of this process, plus RSS/PSS."""
    fields = {}
    with open("/proc/self/smaps_rollup") as handle:
        for line in handle:
            parts = line.split()
            if len(parts) >= 2 and parts[0].endswith(":"):
                try:
                    fields[parts[0][:-1]] = int(parts[1]) * 1024
                except ValueError:
                    pass
    private = fields.get("Private_Clean", 0) + fields.get("Private_Dirty", 0)
    return private, fields.get("Rss", 0), fields.get("Pss", 0)


def _check_batch():
    rng = np.random.default_rng(101)
    x = np.sort(rng.random((32, 2)), axis=1)
    y = np.sort(rng.random((32, 2)), axis=1)
    return np.column_stack([x[:, 0], y[:, 0], x[:, 1], y[:, 1]])


def _worker_batches():
    rng = np.random.default_rng(7)
    batches = []
    for _ in range(DISTINCT_BATCHES):
        x = np.sort(rng.random((BATCH_SIZE, 2)), axis=1)
        y = np.sort(rng.random((BATCH_SIZE, 2)), axis=1)
        batches.append(
            np.column_stack([x[:, 0], y[:, 0], x[:, 1], y[:, 1]])
        )
    return batches


def _calibration_ms() -> float:
    """Thread CPU milliseconds of perfbench's fixed calibration work."""
    start = time.thread_time()
    calibration_work()
    return 1e3 * (time.thread_time() - start)


def _child(write_fd, start_fd, store):
    """Post-fork worker body: load, prepare, answer the check batch,
    report ready, wait for the start signal, answer the timed batches,
    report, exit."""
    status = 1
    try:
        private_before, _, _ = _private_bytes()
        service = QueryService(store, answer_cache_bytes=0)
        digest = hashlib.sha1(
            np.ascontiguousarray(
                service.answer(KEY, _check_batch()).estimates
            ).tobytes()
        ).hexdigest()
        batches = _worker_batches()
        calibration_work()  # the first call pays for page faults
        os.write(write_fd, b"R")
        os.read(start_fd, 1)  # the start barrier
        calibration_ms = [_calibration_ms()]
        # perf_counter is the system-wide monotonic clock on Linux, so
        # the stamps of forked workers compare across processes.
        start = time.perf_counter()
        cpu_start = time.process_time()
        for index in range(BATCHES_PER_WORKER):
            service.answer(KEY, batches[index % len(batches)])
        cpu_s = time.process_time() - cpu_start
        end = time.perf_counter()
        calibration_ms.append(_calibration_ms())
        private_after, rss, pss = _private_bytes()
        stats = service.stats()
        payload = {
            "private_delta_bytes": max(0, private_after - private_before),
            "rss_bytes": rss,
            "pss_bytes": pss,
            "batches": BATCHES_PER_WORKER,
            "start_s": start,
            "end_s": end,
            "cpu_s": cpu_s,
            "calibration_ms": float(np.mean(calibration_ms)),
            "engine_cold_starts": stats["engine_cold_starts"],
            "engine_sealed_loads": stats["engine_sealed_loads"],
            "answers_sha1": digest,
        }
        os.write(write_fd, json.dumps(payload).encode())
        status = 0
    finally:
        os.close(write_fd)
        os._exit(status)


def _fork_round(store, n_workers):
    """Fork ``n_workers`` children over one (unloaded) store; collect.

    Each child reports ready (one byte) once its release answers; the
    parent then writes one start byte per child to a shared pipe, so
    every child starts its timed batches at once.
    """
    start_read, start_write = os.pipe()
    pipes, pids = [], []
    for _ in range(n_workers):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            os.close(start_write)
            for other_read, _ in pipes:
                os.close(other_read)
            _child(write_fd, start_read, store)  # never returns
        os.close(write_fd)
        pipes.append((read_fd, pid))
        pids.append(pid)
    os.close(start_read)
    try:
        for read_fd, _ in pipes:
            os.read(read_fd, 1)  # b"" if the child died; its exit code says
    finally:
        os.write(start_write, b"S" * n_workers)
        os.close(start_write)
    reports = []
    for read_fd, pid in pipes:
        raw = b""
        while chunk := os.read(read_fd, 65536):
            raw += chunk
        os.close(read_fd)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0, f"worker {pid} died"
        reports.append(json.loads(raw))
    return reports


def _aggregate(reports):
    deltas = [r["private_delta_bytes"] for r in reports]
    batches = sum(r["batches"] for r in reports)
    return {
        "workers": len(reports),
        "mean_private_delta_bytes": int(np.mean(deltas)),
        "max_private_delta_bytes": int(np.max(deltas)),
        "mean_rss_bytes": int(np.mean([r["rss_bytes"] for r in reports])),
        "mean_pss_bytes": int(np.mean([r["pss_bytes"] for r in reports])),
        # All workers' batches over the span from the first start to the
        # last end: the fleet's throughput, not a sum of per-worker rates
        # that time-sliced workers each measured alone.
        "batches_per_s": round(
            batches
            / (max(r["end_s"] for r in reports) - min(r["start_s"] for r in reports)),
            2,
        ),
        # The workers' own CPU time per batch: what serving costs,
        # whatever share of the CPUs the host gave the round.
        "cpu_ms_per_batch": round(1e3 * sum(r["cpu_s"] for r in reports) / batches, 4),
        # The same CPU time in units of the calibration work, which
        # follows the vCPU's speed while it was measured.
        "cost_per_batch": round(float(np.mean([
            1e3 * r["cpu_s"] / r["batches"] / r["calibration_ms"] for r in reports
        ])), 5),
        "engine_cold_starts": sum(r["engine_cold_starts"] for r in reports),
        "engine_sealed_loads": sum(r["engine_sealed_loads"] for r in reports),
    }


def test_mmap_fork_scaling(tmp_path):
    if not os.path.exists("/proc/self/smaps_rollup"):
        pytest.skip("smaps_rollup not available")

    dirs = {fmt: tmp_path / fmt for fmt in ("v1", "v2")}
    archive_bytes = {}
    for fmt, directory in dirs.items():
        synopsis, _ = SynopsisStore(
            store_dir=directory, n_points=N_POINTS, dataset_budget=4.0
        ).build(KEY)
        path = directory / f"{KEY.slug()}.npz"
        if fmt == "v1":
            # The store writes v2; a v1 directory is what a store from
            # before v2 left behind.
            path.write_bytes(v1_archive_bytes(synopsis))
        archive_bytes[fmt] = path.stat().st_size

    # ------------------------------------------------------------------
    # Bit-identity: the mapped container restores the exact v1 synopsis.
    # ------------------------------------------------------------------
    check = _check_batch()
    reference = None
    for fmt, directory in dirs.items():
        synopsis = synopsis_from_path(directory / f"{KEY.slug()}.npz")
        answers = np.asarray(make_engine(synopsis).answer_batch(check))
        if reference is None:
            reference = answers
        else:
            np.testing.assert_array_equal(answers, reference)

    # ------------------------------------------------------------------
    # Fork rounds: fresh (unloaded) store per round; children load.
    # ------------------------------------------------------------------
    scaling = {}
    digests = set()
    for n_workers in WORKER_COUNTS:
        row = {}
        for fmt, directory in dirs.items():
            store = SynopsisStore(
                store_dir=directory, n_points=N_POINTS, dataset_budget=4.0
            )
            reports = _fork_round(store, n_workers)
            digests.update(r["answers_sha1"] for r in reports)
            aggregate = _aggregate(reports)
            if fmt == "v2":
                # Warm mapped workers never rebuild: sealed slabs only.
                assert aggregate["engine_cold_starts"] == 0, aggregate
                assert aggregate["engine_sealed_loads"] == n_workers
            else:
                assert aggregate["engine_cold_starts"] == n_workers
            row[fmt] = aggregate
        scaling[str(n_workers)] = row

    # Every worker, both formats, all rounds: one answer vector.
    assert len(digests) == 1, digests

    ratio_at = str(RATIO_WORKERS) if str(RATIO_WORKERS) in scaling else None
    ratio = None
    if ratio_at:
        v1_cost = scaling[ratio_at]["v1"]["mean_private_delta_bytes"]
        v2_cost = scaling[ratio_at]["v2"]["mean_private_delta_bytes"]
        ratio = v2_cost / max(v1_cost, 1)

    rows = [
        [
            workers,
            fmt,
            f"{row[fmt]['mean_private_delta_bytes'] / 1e6:.2f}",
            f"{row[fmt]['mean_rss_bytes'] / 1e6:.1f}",
            f"{row[fmt]['batches_per_s']:.0f}",
            f"{row[fmt]['cpu_ms_per_batch']:.3f}",
            f"{row[fmt]['cost_per_batch']:.4f}",
            str(row[fmt]["engine_cold_starts"]),
        ]
        for workers, row in scaling.items()
        for fmt in ("v1", "v2")
    ]
    text = format_table(
        [
            "workers", "fmt", "private MB/worker", "rss MB", "batches/s",
            "cpu ms/batch", "cost/batch", "cold",
        ],
        rows,
    ) + (
        f"\n\narchive bytes: v1={archive_bytes['v1']:,} "
        f"v2={archive_bytes['v2']:,}"
    )
    if ratio is not None:
        text += (
            f"\nmapped private cost at {RATIO_WORKERS} workers: "
            f"{ratio:.1%} of the v1 copy cost"
        )
    write_report("mmap_scaling", text)

    if QUICK:
        return  # smoke: bit-identity asserted above, JSON untouched

    update_json_report(
        "service",
        {
            "mmap_scaling": {
                "cpu_count": os.cpu_count() or 1,
                "n_points": N_POINTS,
                "batch_size": BATCH_SIZE,
                "batches_per_worker": BATCHES_PER_WORKER,
                "distinct_batches": DISTINCT_BATCHES,
                "archive_bytes": archive_bytes,
                "bit_identical_v1_vs_v2": True,
                "workers": scaling,
                "private_delta_ratio_at_4_workers": (
                    round(ratio, 4) if ratio is not None else None
                ),
            }
        },
    )

    # Acceptance (PR 9): per-worker private growth for mapped releases
    # is <= 20% of the v1 per-process copy cost at 4 workers.
    assert ratio is not None and ratio <= MAX_PRIVATE_RATIO, scaling

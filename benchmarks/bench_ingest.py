"""Engineering benchmark: the crash-safe streaming ingestion path.

Not a paper figure — the operational envelope of the ISSUE 8 subsystem:

* **ingest throughput** — durably acknowledged batches/second and
  points/second through :meth:`IngestManager.ingest` with the refresh
  gate closed, so the number isolates the WAL append + fsync + drift
  accounting cost every ``POST /ingest`` pays;
* **replay time vs WAL size** — cold-start cost of replaying a log of
  1x/4x/16x the base batch count, the restart-latency curve an operator
  actually budgets for (each row the median of ``REPLAY_BOOTS`` boots,
  with their min and max: one boot reads the host's load as much as
  the log);
* **staleness vs budget** — drifted batches streamed against a small
  ``epoch_budget_fraction``: how many re-releases the ledger allows
  before refreshes are refused and pending points accumulate on a
  stale release;
* **replay bit-identity** (asserted, both modes) — a crash injected
  between the ledger charge and the WAL commit marker, then a restart:
  the recovered archive must be byte-identical to a never-crashed run's,
  with identical ledger state.  This is the PR's acceptance criterion
  and runs even in quick mode.

Results land in ``BENCH_ingest.json`` at the repo root.
``BENCH_INGEST_QUICK=1`` (CI smoke, ``make bench-ingest-quick``) shrinks
batch counts, keeps the bit-identity assertion, and leaves the tracked
JSON untouched.
"""

import hashlib
import os
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np
from conftest import update_json_report

from repro.datasets.registry import get_spec
from repro.service import faultinject
from repro.service.faultinject import SimulatedCrash
from repro.service.ingest import IngestManager
from repro.service.keys import ReleaseKey
from repro.service.store import SynopsisStore

QUICK = os.environ.get("BENCH_INGEST_QUICK", "") not in ("", "0")

N_POINTS = 1_000 if QUICK else 9_000
BATCHES = 20 if QUICK else 200
BATCH_POINTS = 100 if QUICK else 500
REPLAY_SCALES = (1, 2) if QUICK else (1, 4, 16)
REPLAY_BOOTS = 5

KEY = ReleaseKey("storage", "UG", 0.5, 0)


def _uniform_batches(n_batches, n_points, seed=0):
    bounds = get_spec("storage").make(n=10, rng=0).domain.bounds
    rng = np.random.default_rng(seed)
    return [
        np.column_stack(
            [
                rng.uniform(bounds.x_lo, bounds.x_hi, n_points),
                rng.uniform(bounds.y_lo, bounds.y_hi, n_points),
            ]
        )
        for _ in range(n_batches)
    ]


def _corner_batch(n_points, seed):
    bounds = get_spec("storage").make(n=10, rng=0).domain.bounds
    rng = np.random.default_rng(seed)
    return np.column_stack(
        [
            rng.uniform(
                bounds.x_lo, bounds.x_lo + 0.1 * (bounds.x_hi - bounds.x_lo), n_points
            ),
            rng.uniform(
                bounds.y_lo, bounds.y_lo + 0.1 * (bounds.y_hi - bounds.y_lo), n_points
            ),
        ]
    )


def _boot(store_dir, **kwargs):
    store = SynopsisStore(
        store_dir=store_dir, dataset_budget=4.0, n_points=N_POINTS
    )
    kwargs.setdefault("drift_threshold", 1.0)  # gate closed by default
    manager = IngestManager(store, **kwargs)
    return store, manager


class _TempDir:
    def __enter__(self):
        self.path = Path(tempfile.mkdtemp(prefix="bench_ingest_"))
        return self.path

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)


def test_ingest_throughput_and_replay():
    results = {}
    with _TempDir() as store_dir:
        store, manager = _boot(store_dir)
        store.build(KEY)
        batches = _uniform_batches(BATCHES, BATCH_POINTS)
        start = time.perf_counter()
        for i, batch in enumerate(batches):
            manager.ingest("storage", 0, f"batch-{i}", batch)
        elapsed = time.perf_counter() - start
        wal_bytes = manager.to_payload()["datasets"]["storage|0"]["wal_bytes"]
        manager.close()
        results["throughput"] = {
            "batches": BATCHES,
            "points_per_batch": BATCH_POINTS,
            "seconds": round(elapsed, 4),
            "batches_per_sec": round(BATCHES / elapsed, 1),
            "points_per_sec": round(BATCHES * BATCH_POINTS / elapsed, 1),
            "wal_bytes": int(wal_bytes),
        }

        # Replay cost vs log size: reopen over ever larger logs.
        replay = []
        for scale in REPLAY_SCALES:
            target = BATCHES * scale
            store, manager = _boot(store_dir)
            staged = manager.to_payload()["datasets"]["storage|0"]
            for i in range(staged["staged_batches"], target):
                manager.ingest(
                    "storage", 0, f"batch-{i}", _uniform_batches(1, BATCH_POINTS, seed=i)[0]
                )
            manager.close()
            seconds = []
            for _ in range(REPLAY_BOOTS):
                start = time.perf_counter()
                store, manager = _boot(store_dir)
                seconds.append(time.perf_counter() - start)
                state = manager.to_payload()["datasets"]["storage|0"]
                manager.close()
            replay.append(
                {
                    "batches": int(state["staged_batches"]),
                    "points": int(state["staged_points"]),
                    "wal_bytes": int(state["wal_bytes"]),
                    "boots": REPLAY_BOOTS,
                    "replay_seconds": round(float(np.median(seconds)), 4),
                    "replay_seconds_min": round(min(seconds), 4),
                    "replay_seconds_max": round(max(seconds), 4),
                }
            )
        results["replay"] = replay

    assert results["throughput"]["batches_per_sec"] > 0
    # Replay must scale roughly linearly, not quadratically: 16x the
    # batches must not cost more than ~64x the 1x replay time (generous
    # bound; quadratic behaviour would blow far past it).
    if len(replay) > 1 and replay[0]["replay_seconds"] > 0:
        ratio = replay[-1]["replay_seconds"] / replay[0]["replay_seconds"]
        size_ratio = replay[-1]["batches"] / replay[0]["batches"]
        assert ratio < size_ratio * size_ratio * 4

    if not QUICK:
        update_json_report("ingest", results)


def test_staleness_vs_budget_curve():
    """Refreshes until the epoch cap trips, then pending accumulates."""
    curve = []
    fraction = 0.4  # cap = 1.6: three eps-0.5 refreshes, then refusal
    with _TempDir() as store_dir:
        store, manager = _boot(
            store_dir, drift_threshold=0.05, epoch_budget_fraction=fraction
        )
        store.build(KEY)
        steps = 5 if QUICK else 6
        for i in range(steps):
            report = manager.ingest(
                "storage", 0, f"drift-{i}", _corner_batch(BATCH_POINTS, seed=i)
            )
            stale = manager.staleness(KEY)
            curve.append(
                {
                    "batch": i,
                    "refreshed": bool(report["refreshed"]),
                    "refused": bool(report["refused"]),
                    "pending_points": 0 if stale is None else stale["pending_points"],
                }
            )
        state = store.budget_state()["storage|0"]
        manager.close()

    refreshes = sum(1 for step in curve if step["refreshed"])
    refusals = sum(1 for step in curve if step["refused"])
    assert refusals > 0, "the curve must reach the epoch cap"
    assert refreshes >= 1
    # Once refused, pending points only grow (the release is stale).
    refused_tail = [s["pending_points"] for s in curve if s["refused"]]
    assert refused_tail == sorted(refused_tail)
    assert state["spent"] <= fraction * state["total"] + KEY.epsilon + 1e-9

    if not QUICK:
        update_json_report(
            "ingest",
            {
                "staleness_vs_budget": {
                    "epoch_budget_fraction": fraction,
                    "refreshes": refreshes,
                    "refusals": refusals,
                    "curve": curve,
                }
            },
        )


def test_replay_bit_identity():
    """Crash between charge and commit; restart must reproduce the
    no-crash archive byte for byte.  Runs in both modes — this is the
    acceptance criterion, not a perf number."""
    batch = _corner_batch(400, seed=7)

    def run(store_dir, crash):
        store, manager = _boot(
            store_dir, drift_threshold=0.05, epoch_budget_fraction=0.9
        )
        store.build(KEY)
        if crash:
            faultinject.install(
                "wal.append",
                lambda **context: (_ for _ in ()).throw(SimulatedCrash("marker"))
                if context.get("kind") == "marker"
                else None,
            )
            try:
                manager.ingest("storage", 0, "batch-1", batch)
            except SimulatedCrash:
                pass
            finally:
                faultinject.clear()
            manager.close()
            store, manager = _boot(
                store_dir, drift_threshold=0.05, epoch_budget_fraction=0.9
            )
            assert manager.stats.recovered_releases == 1
        else:
            manager.ingest("storage", 0, "batch-1", batch)
        archive = (store_dir / f"{KEY.slug()}.npz").read_bytes()
        ledger = store.catalog.load_budgets("default")
        manager.close()
        return hashlib.sha256(archive).hexdigest(), ledger

    with _TempDir() as baseline_dir, _TempDir() as crashed_dir:
        clean_sha, clean_ledger = run(baseline_dir, crash=False)
        crash_sha, crash_ledger = run(crashed_dir, crash=True)

    assert crash_sha == clean_sha, "replayed release must be bit-identical"
    assert crash_ledger == clean_ledger, "replay must never double-spend"

    if not QUICK:
        update_json_report(
            "ingest", {"replay_bit_identity": {"archive_sha256": clean_sha}}
        )

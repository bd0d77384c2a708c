"""Crash-safety of streaming ingestion: every fault point converges.

The acceptance bar for the ingest subsystem: ``kill -9`` at *any* of the
WAL / refresh / catalog / archive fault points must leave a directory
that, after restart (replay) plus the client's natural retry of the
unacknowledged batch, is **bit-identical** to a run that never crashed —
same release archive bytes, same ledger, zero double-spend.

Each scenario runs the same script — build a release, ingest a skewed
batch that trips the drift policy — with a :class:`SimulatedCrash` armed
at one fault point.  "Restart" is a fresh :class:`SynopsisStore` +
:class:`IngestManager` over the same directory, exactly what a new
process would construct.  The client then retries the batch (it never
received an acknowledgement), and the end state is compared field by
field and byte by byte against the no-crash baseline.
"""

import hashlib
import time

import numpy as np
import pytest
from faultutil import N_POINTS, release_key

from repro.datasets.registry import get_spec
from repro.service import faultinject
from repro.service.faultinject import SimulatedCrash
from repro.service.ingest import IngestManager
from repro.service.query_service import QueryService
from repro.service.server import serve
from repro.service.store import SynopsisStore
from repro.service.wal import MarkerRecord, scan_records, wal_path

DRIFT_THRESHOLD = 0.05
EPOCH_FRACTION = 0.9


def _skewed_batch(n=400):
    """Points packed into one corner: guaranteed to trip the drift gate."""
    bounds = get_spec("storage").make(n=10, rng=0).domain.bounds
    rng = np.random.default_rng(7)
    return np.column_stack(
        [
            rng.uniform(
                bounds.x_lo, bounds.x_lo + 0.1 * (bounds.x_hi - bounds.x_lo), n
            ),
            rng.uniform(
                bounds.y_lo, bounds.y_lo + 0.1 * (bounds.y_hi - bounds.y_lo), n
            ),
        ]
    )


def _boot(store_dir, drift_threshold=DRIFT_THRESHOLD, clock=time.time):
    """What one server process constructs over a store directory."""
    store = SynopsisStore(
        store_dir=store_dir, dataset_budget=4.0, n_points=N_POINTS
    )
    manager = IngestManager(
        store,
        drift_threshold=drift_threshold,
        epoch_budget_fraction=EPOCH_FRACTION,
        clock=clock,
    )
    return store, manager


def _end_state(store_dir, store):
    """Everything that must match the no-crash run, bit for bit."""
    key = release_key()
    archive = (store_dir / f"{key.slug()}.npz").read_bytes()
    ledger = store.catalog.load_budgets("default")
    synopsis = store.get(key)
    return {
        "archive_sha": hashlib.sha256(archive).hexdigest(),
        "ledger": ledger,
        "total": float(synopsis.total()),
    }


def _baseline(tmp_path_factory):
    store_dir = tmp_path_factory.mktemp("baseline")
    store, manager = _boot(store_dir)
    store.build(release_key())
    report = manager.ingest("storage", 0, "batch-1", _skewed_batch())
    assert report["refreshed"], "the skewed batch must trigger a refresh"
    state = _end_state(store_dir, store)
    manager.close()
    return state


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    return _baseline(tmp_path_factory)


#: (fault point, kind filter) — kind narrows wal.* points to the data or
#: marker append so each crash site is exercised in isolation.
CRASH_POINTS = [
    ("wal.append", "data"),
    ("wal.fsync", "data"),
    ("ingest.refresh", None),
    ("store.fit", None),
    ("catalog.spend", None),
    ("catalog.commit", None),
    ("archive.write", None),
    ("archive.fsync", None),
    ("archive.replace", None),
    ("wal.append", "marker"),
    ("wal.fsync", "marker"),
]


@pytest.mark.parametrize(
    "point,kind", CRASH_POINTS, ids=[f"{p}-{k or 'any'}" for p, k in CRASH_POINTS]
)
def test_crash_then_restart_and_retry_is_bit_identical(
    tmp_path, baseline, point, kind
):
    store_dir = tmp_path
    store, manager = _boot(store_dir)
    store.build(release_key())

    def crash(**context):
        if kind is None or context.get("kind") == kind:
            raise SimulatedCrash(f"{point} ({kind or 'any'})")

    faultinject.install(point, crash)
    with pytest.raises(SimulatedCrash):
        manager.ingest("storage", 0, "batch-1", _skewed_batch())
    faultinject.clear()
    manager.close()

    # Restart: a fresh process replays the WAL, finishes any refresh the
    # ledger proves was paid for, and the client retries its
    # unacknowledged batch (idempotent by batch_id).
    store, manager = _boot(store_dir)
    report = manager.ingest("storage", 0, "batch-1", _skewed_batch())
    assert report["refused"] == {}

    state = _end_state(store_dir, store)
    assert state["archive_sha"] == baseline["archive_sha"], (
        "post-replay release must be bit-identical to the no-crash release"
    )
    assert state["ledger"] == baseline["ledger"], (
        "ledger must match the no-crash run exactly (zero double-spend)"
    )
    assert state["total"] == baseline["total"]
    labels = state["ledger"]["storage|0"]["ledger"]
    assert len({label for _, label in labels}) == len(labels), (
        "no spend label may ever be charged twice"
    )
    manager.close()


def test_recovery_rebuild_happens_before_any_retry(tmp_path, baseline):
    """A spend with no marker is finished by replay alone.

    If the crash hit after the ledger charge but before the WAL marker,
    the refresh is already paid for — restart must complete it without
    waiting for any client traffic, and at zero additional cost.
    """
    store, manager = _boot(tmp_path)
    store.build(release_key())
    faultinject.install(
        "wal.append",
        lambda **context: (_ for _ in ()).throw(SimulatedCrash("marker"))
        if context.get("kind") == "marker"
        else None,
    )
    with pytest.raises(SimulatedCrash):
        manager.ingest("storage", 0, "batch-1", _skewed_batch())
    faultinject.clear()
    manager.close()

    store, manager = _boot(tmp_path)
    assert manager.stats.recovered_releases == 1
    state = _end_state(tmp_path, store)
    assert state["archive_sha"] == baseline["archive_sha"]
    assert state["ledger"] == baseline["ledger"]
    # The retry is then a pure no-op duplicate.
    report = manager.ingest("storage", 0, "batch-1", _skewed_batch())
    assert report["duplicate"] is True
    assert report["refreshed"] == [] and report["refused"] == {}
    assert state == _end_state(tmp_path, store)
    manager.close()


def test_tenant_recovery_rebuild_happens_before_any_request(tmp_path, baseline):
    """The tenant twin of the test above: a server with ingestion
    finishes every tenant's paid-for refresh while it is constructed,
    not inside that tenant's first request."""
    store, manager = _boot(tmp_path)
    tenant_store = store.for_tenant("acme")
    tenant_manager = manager.for_store(tenant_store)
    tenant_store.build(release_key())
    faultinject.install(
        "wal.append",
        lambda **context: (_ for _ in ()).throw(SimulatedCrash("marker"))
        if context.get("kind") == "marker"
        else None,
    )
    with pytest.raises(SimulatedCrash):
        tenant_manager.ingest("storage", 0, "batch-1", _skewed_batch())
    faultinject.clear()
    tenant_manager.close()
    manager.close()

    store, manager = _boot(tmp_path)
    server = serve(QueryService(store), "127.0.0.1", 0, ingest=manager)
    try:
        wal = wal_path(tmp_path / "tenants" / "acme", "storage", 0)
        markers = [
            record
            for record in scan_records(wal.read_bytes())[0]
            if isinstance(record, MarkerRecord)
        ]
        assert markers == [MarkerRecord(release_key().slug(), 400)]
        assert store.catalog.load_budgets("acme") == baseline["ledger"]
        assert server.tenants_payload().keys() == {"default", "acme"}
    finally:
        server.server_close()
        for tenant in ("default", "acme"):
            server.tenant_context(tenant).ingest.close()


def test_torn_data_append_is_invisible_after_restart(tmp_path):
    """A crash mid-append leaves no trace: the torn record is truncated
    and the store serves exactly the pre-ingest release."""
    store, manager = _boot(tmp_path)
    store.build(release_key())
    before = _end_state(tmp_path, store)
    faultinject.install(
        "wal.fsync",
        lambda **context: (_ for _ in ()).throw(SimulatedCrash("data"))
        if context.get("kind") == "data"
        else None,
    )
    with pytest.raises(SimulatedCrash):
        manager.ingest("storage", 0, "batch-1", _skewed_batch())
    faultinject.clear()
    manager.close()

    store, manager = _boot(tmp_path)
    payload = manager.to_payload()
    assert payload["datasets"]["storage|0"]["staged_points"] in (0, 400)
    assert _end_state(tmp_path, store)["archive_sha"] == before["archive_sha"]
    manager.close()


#: The batch-during-fit case's drift threshold: the skewed batch trips
#: it, a batch resampled from the base data does not.
DURING_FIT_THRESHOLD = 0.5


def _resampled_batch(n=3_000):
    """Points drawn from the base data itself: no drift to speak of."""
    points = get_spec("storage").make(n=N_POINTS, rng=0).points
    rng = np.random.default_rng(11)
    return points[rng.integers(0, len(points), n)]


def _far_corner_batch(n=6_000):
    """Points packed into the corner opposite the skewed batch's."""
    bounds = get_spec("storage").make(n=10, rng=0).domain.bounds
    rng = np.random.default_rng(13)
    return np.column_stack(
        [
            rng.uniform(
                bounds.x_hi - 0.1 * (bounds.x_hi - bounds.x_lo), bounds.x_hi, n
            ),
            rng.uniform(
                bounds.y_hi - 0.1 * (bounds.y_hi - bounds.y_lo), bounds.y_hi, n
            ),
        ]
    )


def _batch_during_fit(store_dir, crash):
    """Batch A's refresh charges its epoch, then batch B is staged at the
    refresh's ``store.fit`` fault point; with ``crash`` the process dies
    there and restarts.  Either way the client then (re)sends A and B,
    and then sends batch C, which trips the drift gate again.  Returns
    the end states before and after C."""

    def boot():
        # A fixed clock makes the staleness reports comparable.
        return _boot(store_dir, DURING_FIT_THRESHOLD, clock=lambda: 1_000.0)

    store, manager = boot()
    store.build(release_key())

    def stage_b_mid_fit(**context):
        faultinject.clear()
        # B's acknowledgement stays WAL-only: its own refresh would wait
        # on A's in-flight build, and die with the process.
        manager.drift_threshold = 1.5
        manager.ingest("storage", 0, "batch-B", _resampled_batch())
        manager.drift_threshold = DURING_FIT_THRESHOLD
        if crash:
            raise SimulatedCrash("store.fit of batch A's refresh")

    faultinject.install("store.fit", stage_b_mid_fit)
    if crash:
        with pytest.raises(SimulatedCrash):
            manager.ingest("storage", 0, "batch-A", _skewed_batch())
        manager.close()
        store, manager = boot()
        assert manager.stats.recovered_releases == 1
    else:
        report = manager.ingest("storage", 0, "batch-A", _skewed_batch())
        assert report["refreshed"] == [release_key().slug()]
    for batch_id, points in (
        ("batch-A", _skewed_batch()),
        ("batch-B", _resampled_batch()),
    ):
        report = manager.ingest("storage", 0, batch_id, points)
        assert report["duplicate"] is True
        assert report["refreshed"] == [] and report["refused"] == {}
    states = [_end_state(store_dir, store)]
    states[0]["staleness"] = manager.staleness(release_key())
    report = manager.ingest("storage", 0, "batch-C", _far_corner_batch())
    assert report["refreshed"] == [release_key().slug()]
    states.append(_end_state(store_dir, store))
    states[1]["staleness"] = manager.staleness(release_key())
    manager.close()
    return states


def test_batch_staged_during_a_refresh_fit_survives_a_crash(tmp_path):
    """A crash after a refresh's charge refits the charged epoch, not the
    whole log: the batch staged while it fitted stays pending, and no
    second epsilon is spent on it."""
    baseline = _batch_during_fit(tmp_path / "no-crash", crash=False)
    slug = release_key().slug()
    labels = [
        [label for _, label in state["ledger"]["storage|0"]["ledger"]]
        for state in baseline
    ]
    assert labels == [
        [slug, f"{slug}@e400"],
        [slug, f"{slug}@e400", f"{slug}@e9400"],
    ]
    assert baseline[0]["staleness"]["pending_points"] == 3_000
    assert baseline[1]["staleness"] is None

    assert _batch_during_fit(tmp_path / "crash", crash=True) == baseline

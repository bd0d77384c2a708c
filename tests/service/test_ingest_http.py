"""HTTP round-trip tests for streaming ingestion.

``POST /ingest`` end to end: staging acknowledgements, refresh and
refusal reports (409), staleness surfaced on ``/query`` headers and
``/health``, validation errors, the 503 when ingestion is disabled, and
the ``Retry-After`` hint on quarantine responses.
"""

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.datasets.registry import get_spec
from repro.service.ingest import IngestManager
from repro.service.keys import ReleaseKey
from repro.service.query_service import QueryService
from repro.service.server import serve
from repro.service.store import SynopsisStore

N_POINTS = 1_000
RELEASE = {"dataset": "storage", "method": "UG", "epsilon": 0.5, "seed": 0}
RECTS = [[-110.0, 30.0, -80.0, 45.0]]


def release_key():
    return ReleaseKey(**RELEASE)


def corner_points(n=400, rng_seed=7):
    bounds = get_spec("storage").make(n=10, rng=0).domain.bounds
    rng = np.random.default_rng(rng_seed)
    return np.column_stack(
        [
            rng.uniform(bounds.x_lo, bounds.x_lo + 0.1 * (bounds.x_hi - bounds.x_lo), n),
            rng.uniform(bounds.y_lo, bounds.y_lo + 0.1 * (bounds.y_hi - bounds.y_lo), n),
        ]
    ).tolist()


def serve_stack(tmp_path, drift_threshold):
    """Store + ingest manager + live server over one store directory."""
    store = SynopsisStore(
        store_dir=tmp_path, dataset_budget=2.0, n_points=N_POINTS
    )
    manager = IngestManager(
        store,
        drift_threshold=drift_threshold,
        epoch_budget_fraction=0.3,  # cap 0.6: exactly one eps-0.5 refresh
    )
    http_server = serve(QueryService(store), "127.0.0.1", 0, ingest=manager)
    thread = threading.Thread(target=http_server.serve_forever, daemon=True)
    thread.start()
    yield http_server, store, manager, tmp_path
    http_server.shutdown()
    http_server.server_close()
    thread.join(timeout=5)
    manager.close()


@pytest.fixture
def stack(tmp_path):
    yield from serve_stack(tmp_path, drift_threshold=0.05)


@pytest.fixture
def quiet_stack(tmp_path):
    """A stack whose drift gate only opens at total variation 1."""
    yield from serve_stack(tmp_path, drift_threshold=1.0)


@pytest.fixture
def server_no_ingest():
    store = SynopsisStore(n_points=N_POINTS, dataset_budget=2.0)
    http_server = serve(QueryService(store), "127.0.0.1", 0)
    thread = threading.Thread(target=http_server.serve_forever, daemon=True)
    thread.start()
    yield http_server
    http_server.shutdown()
    http_server.server_close()
    thread.join(timeout=5)


def call(server, path, payload=None, method=None):
    """One JSON request; returns (status, decoded body, headers)."""
    request = urllib.request.Request(
        server.url + path,
        data=None if payload is None else json.dumps(payload).encode(),
        method=method or ("GET" if payload is None else "POST"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read()), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


def ingest_payload(batch_id="b1", points=None, **overrides):
    payload = {
        "dataset": "storage",
        "seed": 0,
        "batch_id": batch_id,
        "points": points if points is not None else corner_points(),
    }
    payload.update(overrides)
    return payload


class TestIngestRoute:
    def test_stage_only_before_any_release(self, stack):
        server, *_ = stack
        status, body, _ = call(server, "/ingest", ingest_payload())
        assert status == 200
        assert body["persisted"] is True
        assert body["staged_points"] == 400
        assert body["refreshed"] == [] and body["refused"] == {}

    def test_drift_triggers_refresh_over_http(self, stack):
        server, *_ = stack
        call(server, "/releases", RELEASE)
        status, body, _ = call(server, "/ingest", ingest_payload())
        assert status == 200
        assert body["refreshed"] == [release_key().slug()]
        release = body["releases"][0]
        assert release["refreshed"] is True
        assert release["pending_points"] == 0

    def test_exhausted_epoch_budget_returns_409_but_persists(self, stack):
        server, *_ = stack
        call(server, "/releases", RELEASE)
        call(server, "/ingest", ingest_payload("b1"))  # spends the epoch cap
        status, body, _ = call(
            server,
            "/ingest",
            ingest_payload("b2", points=corner_points(500, rng_seed=3)),
        )
        assert status == 409
        assert body["persisted"] is True
        assert body["staged_points"] == 900
        assert release_key().slug() in body["refused"]
        assert "cap" in body["refused"][release_key().slug()]

    def test_duplicate_batch_is_acknowledged_without_restaging(self, stack):
        server, *_ = stack
        call(server, "/ingest", ingest_payload("b1"))
        status, body, _ = call(server, "/ingest", ingest_payload("b1"))
        assert status == 200
        assert body["duplicate"] is True
        assert body["staged_points"] == 400

    def test_ingest_disabled_is_503(self, server_no_ingest):
        status, body, _ = call(server_no_ingest, "/ingest", ingest_payload())
        assert status == 503
        assert body["error"] == "IngestDisabled"

    @pytest.mark.parametrize(
        "overrides",
        [
            {"dataset": "nope"},
            {"seed": -1},
            {"seed": "zero"},
            {"batch_id": ""},
            {"batch_id": "x" * 300},
            {"points": []},
            {"points": [[1.0]]},
            {"points": [[float("nan"), 2.0]]},
            {"points": "not-a-list"},
        ],
    )
    def test_validation_errors_are_400(self, stack, overrides):
        server, *_ = stack
        status, body, _ = call(
            server, "/ingest", ingest_payload(**overrides)
        )
        assert status == 400
        assert body["error"] == "ValidationError"

    def test_get_ingest_is_rejected(self, stack):
        server, *_ = stack
        status, _, _ = call(server, "/ingest", method="GET")
        assert status in (404, 405)


class TestStalenessSurface:
    def _make_stale(self, server):
        """One refresh spends the epoch cap; the next batch is refused."""
        call(server, "/releases", RELEASE)
        call(server, "/ingest", ingest_payload("b1"))
        status, body, _ = call(
            server,
            "/ingest",
            ingest_payload("b2", points=corner_points(500, rng_seed=3)),
        )
        assert status == 409
        return body

    def test_query_carries_stale_headers_and_body(self, stack):
        server, *_ = stack
        self._make_stale(server)
        status, body, headers = call(
            server, "/query", {**RELEASE, "rects": RECTS}
        )
        assert status == 200
        assert headers["X-Synopsis-Stale"] == "1"
        assert headers["X-Pending-Points"] == "500"
        staleness = body["staleness"]
        assert staleness["pending_points"] == 500
        assert "refresh_refused" in staleness

    def test_fresh_query_has_no_stale_headers(self, stack):
        server, *_ = stack
        call(server, "/releases", RELEASE)
        status, body, headers = call(
            server, "/query", {**RELEASE, "rects": RECTS}
        )
        assert status == 200
        assert "X-Synopsis-Stale" not in headers
        assert "staleness" not in body

    def test_health_reports_ingest_state(self, stack):
        server, *_ = stack
        self._make_stale(server)
        status, body, _ = call(server, "/health")
        assert status == 200
        ingest = body["ingest"]
        assert ingest["enabled"] is True
        assert ingest["drift_threshold"] == 0.05
        assert ingest["datasets"]["storage|0"]["staged_points"] == 900
        stale = ingest["stale"][release_key().slug()]
        assert stale["pending_points"] == 500
        assert ingest["stats"]["refresh_refusals"] == 1

    def test_no_payload_publishes_drift(self, quiet_stack):
        """Drift is a statistic of the exact staged points: it gates
        refreshes but no ack, ``/health`` or ``/query`` carries it."""
        server, store, *_ = quiet_stack
        call(server, "/releases", RELEASE)
        # One point at the centre of the cell the release holds most mass
        # in: its drift (1 - that mass share) stays below the gate.
        synopsis = store.get(release_key())
        cells = synopsis.drift_cells()
        densest = cells[np.argmax(synopsis.answer_many(cells))]
        point = [(densest[0] + densest[2]) / 2, (densest[1] + densest[3]) / 2]
        status, ack, _ = call(server, "/ingest", ingest_payload(points=[point]))
        assert status == 200
        assert ack["refreshed"] == []
        assert [entry["pending_points"] for entry in ack["releases"]] == [1]
        status, health, _ = call(server, "/health")
        assert health["ingest"]["stale"][release_key().slug()]["pending_points"] == 1
        status, query, _ = call(server, "/query", {**RELEASE, "rects": RECTS})
        assert query["staleness"]["pending_points"] == 1
        for payload in (ack, health, query):
            assert '"drift"' not in json.dumps(payload)

    def test_health_without_manager_reports_disabled(self, server_no_ingest):
        status, body, _ = call(server_no_ingest, "/health")
        assert status == 200
        assert body["ingest"] == {"enabled": False}


class TestRetryAfter:
    def test_quarantined_release_advertises_retry_after(self, stack):
        server, store, _, store_dir = stack
        call(server, "/releases", RELEASE)
        # Corrupt the archive and evict the cached copy: the next query
        # must reload from disk, quarantine, and hint a retry delay.
        archive = store_dir / f"{release_key().slug()}.npz"
        archive.write_bytes(b"corrupt")
        store.evict(release_key())
        status, body, headers = call(
            server, "/query", {**RELEASE, "rects": RECTS}
        )
        assert status == 503
        assert body["error"] == "ReleaseQuarantined"
        assert headers["Retry-After"] == "30"

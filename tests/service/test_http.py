"""HTTP round-trip tests for the serving layer.

Starts a real :class:`SynopsisHTTPServer` on an ephemeral port and talks
to it with ``urllib`` — the same path an external consumer takes — plus
raw sockets for the malformed-header edge cases no well-behaved client
library will send.
"""

import http.client
import json
import socket
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.service import protocol
from repro.service.keys import ReleaseKey
from repro.service.query_service import QueryService
from repro.service.schemas import MAX_BATCH_SIZE
from repro.service.server import serve
from repro.service.store import SynopsisStore

N_POINTS = 2_000
RELEASE = {"dataset": "storage", "method": "AG", "epsilon": 1.0, "seed": 0}


@pytest.fixture
def server():
    store = SynopsisStore(n_points=N_POINTS, dataset_budget=2.0)
    http_server = serve(QueryService(store), "127.0.0.1", 0)
    thread = threading.Thread(target=http_server.serve_forever, daemon=True)
    thread.start()
    yield http_server
    http_server.shutdown()
    http_server.server_close()
    thread.join(timeout=5)


def call(server, path, payload=None, method=None):
    """One JSON request; returns (status, decoded body)."""
    request = urllib.request.Request(
        server.url + path,
        data=None if payload is None else json.dumps(payload).encode(),
        method=method or ("GET" if payload is None else "POST"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def call_binary(server, body, accept_binary=True):
    """One binary-protocol query; returns (status, raw bytes, headers)."""
    headers = {"Content-Type": protocol.CONTENT_TYPE}
    if accept_binary:
        headers["Accept"] = protocol.CONTENT_TYPE
    request = urllib.request.Request(
        server.url + "/query", data=body, method="POST", headers=headers
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, response.read(), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, error.read(), dict(error.headers)


class TestRoundTrip:
    def test_health(self, server):
        status, body = call(server, "/health")
        assert status == 200
        assert body["status"] == "ok"

    def test_query_string_is_tolerated(self, server):
        status, body = call(server, "/health?verbose=1")
        assert status == 200
        assert body["status"] == "ok"

    def test_build_then_query_smoke(self, server):
        status, body = call(server, "/releases", RELEASE)
        assert status == 201
        assert body["built"] is True
        assert body["kind"] == "AdaptiveGridSynopsis"

        rects = [[-110.0, 30.0, -80.0, 45.0], [-80.0, 25.0, -70.0, 35.0]]
        status, body = call(server, "/query", {**RELEASE, "rects": rects})
        assert status == 200
        assert body["count"] == 2

        # The HTTP answers must equal what the in-process release answers.
        key = ReleaseKey(**RELEASE)
        synopsis = server.service.store.get(key)
        expected = [synopsis.answer_many(np.array(rects))[i] for i in range(2)]
        np.testing.assert_allclose(body["estimates"], expected, rtol=1e-9)

    def test_rebuild_returns_200_not_201(self, server):
        assert call(server, "/releases", RELEASE)[0] == 201
        status, body = call(server, "/releases", RELEASE)
        assert status == 200
        assert body["built"] is False

    def test_releases_listing(self, server):
        call(server, "/releases", RELEASE)
        status, body = call(server, "/releases")
        assert status == 200
        assert body["cached"] == [RELEASE]
        assert body["budgets"]["storage|0"]["spent"] == pytest.approx(1.0)
        assert body["stats"]["builds"] == 1


    def test_total_estimate_is_the_served_whole_domain_answer(self, server):
        """For every servable method, a release's ``total_estimate`` is
        bit for bit the ``/query`` estimate of the whole domain."""
        from repro.datasets.registry import get_spec
        from repro.service.keys import method_names

        bounds = get_spec("storage").make(n=10, rng=0).domain.bounds
        # Distinct seeds keep the builds on separate budget ledgers.
        for seed, method in enumerate(method_names()):
            release = {**RELEASE, "method": method, "seed": seed}
            status, built = call(server, "/releases", release)
            assert status == 201, method
            status, body = call(
                server, "/query", {**release, "rects": [list(bounds.as_tuple())]}
            )
            assert status == 200, method
            assert body["estimates"] == [built["total_estimate"]], method


class TestErrors:
    def test_unknown_route_404(self, server):
        status, body = call(server, "/nope")
        assert status == 404
        assert "/health" in body["detail"]

    def test_query_unreleased_key_404(self, server):
        status, body = call(
            server, "/query", {**RELEASE, "rects": [[0.0, 0.0, 1.0, 1.0]]}
        )
        assert status == 404
        assert body["error"] == "ReleaseNotFound"

    def test_malformed_json_400(self, server):
        request = urllib.request.Request(
            server.url + "/query", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_missing_body_400(self, server):
        status, body = call(server, "/query", method="POST", payload=None)
        assert status == 400
        assert "requires a body" in body["detail"]

    def test_validation_error_400(self, server):
        status, body = call(server, "/query", {**RELEASE, "rects": [[1, 2, 3]]})
        assert status == 400
        assert body["error"] == "ValidationError"

    def test_budget_refusal_409_with_clear_detail(self, server):
        assert call(server, "/releases", RELEASE)[0] == 201
        # dataset_budget is 2.0; a second full-epsilon release fits...
        assert call(server, "/releases", {**RELEASE, "epsilon": 0.5})[0] == 201
        # ...but a forced rebuild at epsilon=1.0 exceeds the remaining 0.5.
        status, body = call(server, "/releases", {**RELEASE, "force": True})
        assert status == 409
        assert body["error"] == "BudgetRefused"
        assert "storage|0" in body["detail"]


def raw_request(server, request_bytes):
    """Send raw bytes over a fresh socket; return the full response text."""
    host, port = server.server_address[:2]
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(request_bytes)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks).decode("utf-8", errors="replace")


class TestBinaryProtocol:
    def rects(self):
        # float32-exact coordinates: the bit-identity contract's domain.
        return [[-110.0, 30.0, -80.0, 45.0], [-80.5, 25.25, -70.0, 35.0]]

    def test_binary_request_binary_response_matches_json_bitwise(self, server):
        call(server, "/releases", RELEASE)
        rects = self.rects()
        status, body = call(server, "/query", {**RELEASE, "rects": rects})
        assert status == 200
        key = ReleaseKey(**RELEASE)
        bstatus, raw, headers = call_binary(
            server, protocol.encode_query(key, np.array(rects))
        )
        assert bstatus == 200
        assert headers["Content-Type"] == protocol.CONTENT_TYPE
        estimates = protocol.decode_answer(raw)
        np.testing.assert_array_equal(estimates, body["estimates"])

    def test_binary_request_json_response_without_accept(self, server):
        call(server, "/releases", RELEASE)
        key = ReleaseKey(**RELEASE)
        body = protocol.encode_query(key, np.array(self.rects()))
        status, raw, headers = call_binary(server, body, accept_binary=False)
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        payload = json.loads(raw)
        assert payload["count"] == 2

    def test_clamp_flag_travels(self, server):
        call(server, "/releases", RELEASE)
        key = ReleaseKey(**RELEASE)
        rects = np.array([[-110.0, 30.0, -109.5, 30.5]])
        raw_est = protocol.decode_answer(
            call_binary(server, protocol.encode_query(key, rects))[1]
        )
        clamped = protocol.decode_answer(
            call_binary(server, protocol.encode_query(key, rects, clamp=True))[1]
        )
        np.testing.assert_array_equal(clamped, np.maximum(raw_est, 0.0))

    def test_truncated_frame_400(self, server):
        call(server, "/releases", RELEASE)
        key = ReleaseKey(**RELEASE)
        body = protocol.encode_query(key, np.array(self.rects()))[:-5]
        status, raw, _ = call_binary(server, body)
        assert status == 400
        assert json.loads(raw)["error"] == "ValidationError"
        assert "truncated" in json.loads(raw)["detail"]

    def test_bad_magic_400(self, server):
        key = ReleaseKey(**RELEASE)
        body = protocol.encode_query(key, np.array(self.rects()))
        status, raw, _ = call_binary(server, b"JUNK" + body[4:])
        assert status == 400
        assert "bad magic" in json.loads(raw)["detail"]

    def test_binary_timing_headers(self, server):
        call(server, "/releases", RELEASE)
        key = ReleaseKey(**RELEASE)
        body = protocol.encode_query(key, np.array(self.rects()))
        _, _, first = call_binary(server, body)
        assert first["X-Answer-Cached"] == "0"
        assert float(first["X-Build-Ms"]) >= 0.0
        _, _, second = call_binary(server, body)
        assert second["X-Answer-Cached"] == "1"
        assert float(second["X-Build-Ms"]) == 0.0


class TestLatencySplit:
    def test_payload_splits_build_and_answer_ms(self, server):
        call(server, "/releases", RELEASE)
        rects = [[-110.0, 30.0, -80.0, 45.0]]
        status, body = call(server, "/query", {**RELEASE, "rects": rects})
        assert status == 200
        assert body["cached"] is False
        assert body["build_ms"] >= 0.0
        assert body["answer_ms"] >= 0.0
        assert body["elapsed_ms"] == pytest.approx(
            body["build_ms"] + body["answer_ms"], abs=2e-3
        )
        # The repeat batch is a cache hit: no engine work is billed.
        status, body = call(server, "/query", {**RELEASE, "rects": rects})
        assert body["cached"] is True
        assert body["build_ms"] == 0.0
        status, body = call(server, "/health")
        assert body["answer_cache_hits"] == 1
        # The build sealed the engine slabs: the first query restores.
        assert body["engine_sealed_loads"] == 1
        assert body["engine_cold_starts"] == 0


class TestHTTPEdges:
    def test_max_batch_size_boundary_accepted(self, server):
        call(server, "/releases", RELEASE)
        key = ReleaseKey(**RELEASE)
        boxes = np.tile([-110.0, 30.0, -80.0, 45.0], (MAX_BATCH_SIZE, 1))
        status, raw, _ = call_binary(server, protocol.encode_query(key, boxes))
        assert status == 200
        assert protocol.decode_answer(raw).shape == (MAX_BATCH_SIZE,)

    def test_over_max_batch_rejected(self, server):
        # One past the boundary, via JSON (the binary encoder refuses to
        # even build such a frame — covered in test_protocol.py).
        call(server, "/releases", RELEASE)
        rects = [[-110.0, 30.0, -80.0, 45.0]] * (MAX_BATCH_SIZE + 1)
        status, body = call(server, "/query", {**RELEASE, "rects": rects})
        assert status == 400
        assert "exceeds the per-request" in body["detail"]

    def test_oversized_declared_body_rejected_without_reading(self, server):
        # Declare a 17 MiB body but send none: the server must answer 400
        # from the header alone instead of waiting for gigabytes.
        response = raw_request(
            server,
            b"POST /query HTTP/1.1\r\nHost: x\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: 17825792\r\n\r\n",
        )
        assert "400" in response.splitlines()[0]
        assert "exceeds" in response

    def test_malformed_content_length_on_get_returns_clean_400(self, server):
        # Pin for the _drain_body bugfix: a malformed Content-Length on a
        # drained (GET) request must produce a clean 400 + close, not an
        # uncaught ValueError that aborts the connection mid-response.
        response = raw_request(
            server,
            b"GET /health HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: banana\r\n\r\n",
        )
        assert "400" in response.splitlines()[0]
        assert "malformed Content-Length" in response

    def test_malformed_content_length_on_post_returns_clean_400(self, server):
        response = raw_request(
            server,
            b"POST /query HTTP/1.1\r\nHost: x\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: 12abc\r\n\r\n",
        )
        assert "400" in response.splitlines()[0]
        assert "malformed Content-Length" in response

    def test_keepalive_connection_survives_drained_get_body(self, server):
        # A GET with a well-formed body must be drained so the same
        # connection can serve the next request.
        conn = http.client.HTTPConnection(*server.server_address[:2], timeout=10)
        try:
            conn.request("GET", "/health", body=b'{"ignored": true}')
            first = conn.getresponse()
            assert first.status == 200
            first.read()
            conn.request("GET", "/health")
            second = conn.getresponse()
            assert second.status == 200
            second.read()
        finally:
            conn.close()


class TestAnswerCacheInvalidation:
    def test_forced_rebuild_drops_cached_answers(self, server):
        service = server.service
        call(server, "/releases", RELEASE)
        rects = [[-110.0, 30.0, -80.0, 45.0]]
        call(server, "/query", {**RELEASE, "rects": rects})
        assert call(server, "/query", {**RELEASE, "rects": rects})[1]["cached"]
        assert service.stats()["answer_cache_entries"] == 1

        # Force a rebuild through HTTP (budget 2.0 covers a second 1.0
        # build); the rebuilt release is bit-identical (same key, same
        # noise stream), but the cache must still be invalidated — it can
        # not know that, and a changed store config would change answers.
        status, _ = call(server, "/releases", {**RELEASE, "force": True})
        assert status == 201
        status, body = call(server, "/query", {**RELEASE, "rects": rects})
        assert status == 200
        assert body["cached"] is False  # a new release object: not served stale
        stats = service.stats()
        # One engine per build, each restored from its build's slabs.
        assert stats["engine_sealed_loads"] == 2
        assert stats["engine_cold_starts"] == 0

    def test_store_eviction_drops_cached_answers(self):
        # max_entries=1: building a second key evicts the first; the
        # first key's answers must not survive its engine.
        store = SynopsisStore(n_points=N_POINTS, dataset_budget=4.0, max_entries=1)
        http_server = serve(QueryService(store), "127.0.0.1", 0)
        thread = threading.Thread(target=http_server.serve_forever, daemon=True)
        thread.start()
        try:
            k1 = {**RELEASE, "seed": 1}
            k2 = {**RELEASE, "seed": 2}
            rects = [[-110.0, 30.0, -80.0, 45.0]]
            call(http_server, "/releases", k1)
            call(http_server, "/query", {**k1, "rects": rects})
            call(http_server, "/releases", k2)  # evicts k1's synopsis
            call(http_server, "/query", {**k2, "rects": rects})
            service = http_server.service
            assert service.stats()["engines_cached"] == 1
            # k1's cached answer was invalidated along with its engine —
            # were it not, this would serve a stale 200 from a release the
            # in-memory store can no longer even reload.
            status, body = call(http_server, "/query", {**k1, "rects": rects})
            assert status == 404
            assert service.stats()["answer_cache_entries"] == 1  # k2 only
        finally:
            http_server.shutdown()
            http_server.server_close()
            thread.join(timeout=5)

    def test_evict_and_reload_from_disk_refreshes_cache(self, tmp_path):
        # With persistence the evicted release is reloaded as a *new*
        # object; the old object's answers must not be served for it
        # (and it then serves hits of its own).
        store = SynopsisStore(
            store_dir=tmp_path, n_points=N_POINTS, dataset_budget=4.0,
            max_entries=1,
        )
        http_server = serve(QueryService(store), "127.0.0.1", 0)
        thread = threading.Thread(target=http_server.serve_forever, daemon=True)
        thread.start()
        try:
            k1 = {**RELEASE, "seed": 1}
            k2 = {**RELEASE, "seed": 2}
            rects = [[-110.0, 30.0, -80.0, 45.0]]
            call(http_server, "/releases", k1)
            first = call(http_server, "/query", {**k1, "rects": rects})[1]
            call(http_server, "/releases", k2)  # evicts k1 (still on disk)
            status, body = call(http_server, "/query", {**k1, "rects": rects})
            assert status == 200
            assert body["cached"] is False  # reloaded object: a miss
            assert body["estimates"] == first["estimates"]  # deterministic
            assert call(http_server, "/query", {**k1, "rects": rects})[1]["cached"]
        finally:
            http_server.shutdown()
            http_server.server_close()
            thread.join(timeout=5)


class TestConcurrentQueries:
    def test_many_threads_one_cached_synopsis(self, server):
        call(server, "/releases", RELEASE)
        rng = np.random.default_rng(5)
        batches = []
        for _ in range(12):
            x0 = rng.uniform(-120, -80, size=8)
            y0 = rng.uniform(25, 40, size=8)
            batches.append(
                [[float(x), float(y), float(x + 10), float(y + 5)]
                 for x, y in zip(x0, y0)]
            )

        def run(batch):
            status, body = call(server, "/query", {**RELEASE, "rects": batch})
            assert status == 200
            return body["estimates"]

        serial = [run(batch) for batch in batches]
        with ThreadPoolExecutor(max_workers=8) as pool:
            concurrent = list(pool.map(run, batches))
        for expected, got in zip(serial, concurrent):
            np.testing.assert_array_equal(expected, got)

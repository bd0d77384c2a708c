"""Service-tier coverage for the long-tail methods: Hier, Privelet, UGnd.

The flat kernels PR made the hierarchy, wavelet, and d-dimensional grid
families first-class servable methods.  These tests drive each one
through the full service stack the way the core families already are:
store build / persist / evict / reload with bit-identical state, budget
debits against the per-dataset ledger, their declared vectorised
engines, and HTTP answers that are bit-identical between the
JSON and binary transports, including answer-cache hits and forced-
rebuild invalidation.
"""

import threading

import numpy as np
import pytest

from repro.baselines.hierarchy import HierarchicalGridSynopsis
from repro.baselines.privelet import PriveletSynopsis
from repro.extensions.multidim import MultiDimGridSynopsis
from repro.queries.engine import BatchQueryEngine
from repro.service import protocol
from repro.service.errors import BudgetRefused
from repro.service.keys import ReleaseKey
from repro.service.query_service import QueryService
from repro.service.server import serve
from repro.service.store import SynopsisStore

from tests.service.test_http import call, call_binary

N_POINTS = 2_000

METHODS = ["Hier", "Privelet", "UGnd"]

EXPECTED_TYPE = {
    "Hier": HierarchicalGridSynopsis,
    "Privelet": PriveletSynopsis,
    "UGnd": MultiDimGridSynopsis,
}

EXPECTED_ENGINE = {
    "Hier": BatchQueryEngine,
    "Privelet": BatchQueryEngine,
    "UGnd": BatchQueryEngine,
}


def key(method, epsilon=1.0, seed=0, dataset="storage"):
    return ReleaseKey(dataset, method, epsilon=epsilon, seed=seed)


def rects():
    # float32-exact coordinates: the bit-identity contract's domain.
    return [[-110.0, 30.0, -80.0, 45.0], [-80.5, 25.25, -70.0, 35.0]]


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


@pytest.mark.parametrize("method", METHODS)
class TestStoreLifecycle:
    def test_build_persist_evict_reload_round_trip(self, method, tmp_path):
        store = SynopsisStore(store_dir=tmp_path, n_points=N_POINTS)
        built_synopsis, built = store.build(key(method))
        assert built
        assert isinstance(built_synopsis, EXPECTED_TYPE[method])
        assert key(method) in store.persisted_keys()

        store.evict(key(method))
        assert key(method) not in store.cached_keys()
        reloaded = store.get(key(method))
        assert store.stats.loads == 1
        assert reloaded is not built_synopsis
        assert isinstance(reloaded, EXPECTED_TYPE[method])
        np.testing.assert_array_equal(reloaded.counts, built_synopsis.counts)
        np.testing.assert_array_equal(
            reloaded.answer_many(rects()), built_synopsis.answer_many(rects())
        )

    def test_builds_are_deterministic_per_key(self, method):
        a, _ = SynopsisStore(n_points=N_POINTS).build(key(method))
        b, _ = SynopsisStore(n_points=N_POINTS).build(key(method))
        np.testing.assert_array_equal(a.counts, b.counts)

    def test_build_debits_the_dataset_ledger(self, method):
        store = SynopsisStore(n_points=N_POINTS, dataset_budget=2.0)
        store.build(key(method, epsilon=1.25))
        assert store.budget_state()["storage|0"]["spent"] == pytest.approx(1.25)
        # Serving the cached release is free.
        store.build(key(method, epsilon=1.25))
        assert store.budget_state()["storage|0"]["spent"] == pytest.approx(1.25)
        # A second release on the same data instance must fit the rest.
        with pytest.raises(BudgetRefused):
            store.build(key(method, epsilon=1.0))
        store.build(key(method, epsilon=0.75))
        assert store.budget_state()["storage|0"]["spent"] == pytest.approx(2.0)

    def test_query_service_resolves_registered_engine(self, method):
        store = SynopsisStore(n_points=N_POINTS)
        service = QueryService(store)
        store.build(key(method))
        assert isinstance(service.engine_for(key(method)), EXPECTED_ENGINE[method])
        result = service.answer(key(method), rects())
        synopsis = store.get(key(method))
        np.testing.assert_array_equal(
            result.estimates, np.asarray(synopsis.answer_many(rects()))
        )


def test_ugnd_answer_many_reads_the_sealed_prefix(tmp_path):
    """A store-built UGnd release answers batches over the prefix its
    build prepared and its archive seals, not over a second prefix
    tensor computed from its counts; a reload answers over the mapped,
    read-only slab itself."""
    from repro.core.serialization import synopsis_from_path

    store = SynopsisStore(store_dir=tmp_path, n_points=N_POINTS)
    synopsis, _ = store.build(key("UGnd"))
    prepared = synopsis.engine
    synopsis.answer_many(rects())
    assert synopsis.engine is prepared
    loaded = synopsis_from_path(tmp_path / f"{key('UGnd').slug()}.npz")
    loaded.answer_many(rects())
    assert loaded.mapped_nbytes > 0
    assert not loaded.engine.slabs["prefix"].flags.writeable


@pytest.mark.parametrize("method", METHODS)
class TestHTTPTransportParity:
    def release(self, method):
        return {"dataset": "storage", "method": method, "epsilon": 1.0, "seed": 0}

    def test_release_reports_the_flat_kind(self, method, server):
        status, body = call(server, "/releases", self.release(method))
        assert status == 201
        assert body["built"] is True
        assert body["kind"] == EXPECTED_TYPE[method].__name__

    def test_json_and_binary_answers_are_bit_identical(self, method, server):
        release = self.release(method)
        call(server, "/releases", release)
        status, body = call(server, "/query", {**release, "rects": rects()})
        assert status == 200
        frame = protocol.encode_query(ReleaseKey(**release), np.array(rects()))
        bin_status, raw, headers = call_binary(server, frame)
        assert bin_status == 200
        assert headers["Content-Type"] == protocol.CONTENT_TYPE
        np.testing.assert_array_equal(
            protocol.decode_answer(raw), np.asarray(body["estimates"])
        )

    def test_answer_cache_hit_and_forced_rebuild_invalidation(self, method, server):
        release = self.release(method)
        call(server, "/releases", release)
        first = call(server, "/query", {**release, "rects": rects()})[1]
        assert first["cached"] is False
        second = call(server, "/query", {**release, "rects": rects()})[1]
        assert second["cached"] is True
        np.testing.assert_array_equal(second["estimates"], first["estimates"])
        # A forced rebuild replays the same key-derived noise stream, but
        # the answer cache must still miss — it can't know the rebuild
        # was a no-op.
        status, _ = call(server, "/releases", {**release, "force": True})
        assert status == 201
        third = call(server, "/query", {**release, "rects": rects()})[1]
        assert third["cached"] is False
        np.testing.assert_array_equal(third["estimates"], first["estimates"])


def test_all_longtail_methods_are_registered():
    from repro.service.keys import method_names

    assert set(METHODS) <= set(method_names())


def test_serving_every_longtail_method_never_falls_back(server):
    # Distinct seeds keep the three builds on separate budget ledgers.
    for seed, method in enumerate(METHODS):
        release = {
            "dataset": "storage", "method": method, "epsilon": 1.0, "seed": seed,
        }
        call(server, "/releases", release)
        status, body = call(server, "/query", {**release, "rects": rects()})
        assert status == 200
        assert len(body["estimates"]) == len(rects())
    status, health = call(server, "/health")
    assert status == 200
    assert health["engines_cached"] == len(METHODS)

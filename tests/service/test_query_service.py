"""Unit tests for the query service: routing, engines, concurrency."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.geometry import Rect
from repro.service.errors import ReleaseNotFound
from repro.service.keys import ReleaseKey, method_names
from repro.service.query_service import QueryService
from repro.service.store import SynopsisStore

N_POINTS = 2_000


@pytest.fixture
def service():
    store = SynopsisStore(n_points=N_POINTS, dataset_budget=10.0)
    return QueryService(store)


def storage_rects(n, rng, scale=4):
    """Random query rectangles inside the storage dataset's domain."""
    from repro.datasets.registry import get_spec

    spec = get_spec("storage")
    domain = spec.make(n=16, rng=0).domain
    return [
        domain.random_rect(spec.q6_width / scale, spec.q6_height / scale, rng)
        for _ in range(n)
    ]


class TestAnswer:
    @pytest.mark.parametrize("method", ["UG", "AG"])
    def test_matches_scalar_synopsis_answers(self, service, method, rng):
        key = ReleaseKey("storage", method, epsilon=1.0, seed=0)
        synopsis, _ = service.store.build(key)
        rects = storage_rects(50, rng)
        result = service.answer(key, rects)
        expected = np.array([synopsis.answer(rect) for rect in rects])
        np.testing.assert_allclose(result.estimates, expected, rtol=1e-9, atol=1e-7)

    def test_accepts_boxes_array(self, service):
        key = ReleaseKey("storage", "UG", epsilon=1.0, seed=0)
        service.store.build(key)
        boxes = np.array([[-100.0, 30.0, -80.0, 45.0], [-80.0, 25.0, -70.0, 35.0]])
        result = service.answer(key, boxes)
        assert result.estimates.shape == (2,)

    def test_accepts_plain_list_rows(self, service):
        # The README quickstart passes bare lists, not Rects or arrays.
        key = ReleaseKey("storage", "UG", epsilon=1.0, seed=0)
        service.store.build(key)
        result = service.answer(key, [[-110.0, 30.0, -80.0, 45.0]], clamp=True)
        assert result.estimates.shape == (1,)

    def test_clamp_zeroes_negative_estimates(self, service, rng, monkeypatch):
        # A deliberately over-fine grid: most cells are empty, so small
        # queries read nearly pure Laplace noise and often go negative.
        from repro.core.uniform_grid import UniformGridBuilder
        from repro.service import keys as keys_module

        monkeypatch.setitem(
            keys_module._METHODS, "UG64", lambda: UniformGridBuilder(grid_size=64)
        )
        key = ReleaseKey("storage", "UG64", epsilon=0.5, seed=0)
        service.store.build(key)
        rects = storage_rects(200, rng, scale=32)
        raw = service.answer(key, rects).estimates
        clamped = service.answer(key, rects, clamp=True).estimates
        assert raw.min() < 0
        assert clamped.min() >= 0.0
        np.testing.assert_array_equal(clamped, np.maximum(raw, 0.0))

    def test_unreleased_key_raises(self, service):
        with pytest.raises(ReleaseNotFound):
            service.answer(
                ReleaseKey("storage", "AG", epsilon=1.0, seed=9),
                np.array([[0.0, 0.0, 1.0, 1.0]]),
            )

    def test_result_payload_shape(self, service, rng):
        key = ReleaseKey("storage", "AG", epsilon=1.0, seed=0)
        service.store.build(key)
        payload = service.answer(key, storage_rects(3, rng)).to_payload()
        assert payload["count"] == 3
        assert len(payload["estimates"]) == 3
        assert payload["key"]["method"] == "AG"
        assert payload["elapsed_ms"] >= 0


class TestEngineCache:
    def test_engine_reused_across_batches(self, service, rng):
        key = ReleaseKey("storage", "AG", epsilon=1.0, seed=0)
        service.store.build(key)
        first = service.engine_for(key)
        service.answer(key, storage_rects(5, rng))
        assert service.engine_for(key) is first
        assert service.stats()["engines_cached"] == 1

    def test_engine_rebuilt_after_forced_rebuild(self, service):
        key = ReleaseKey("storage", "AG", epsilon=1.0, seed=0)
        service.store.build(key)
        before = service.engine_for(key)
        service.store.build(key, force=True)
        assert service.engine_for(key) is not before

    def test_concurrent_engine_for_builds_one_engine(self, service):
        key = ReleaseKey("storage", "AG", epsilon=1.0, seed=0)
        service.store.build(key)
        with ThreadPoolExecutor(max_workers=8) as pool:
            engines = list(pool.map(lambda _: service.engine_for(key), range(8)))
        assert len({id(engine) for engine in engines}) == 1

    def test_one_engine_per_release_under_concurrent_rebuilds(
        self, monkeypatch, rng
    ):
        """Readers racing forced rebuilds: every answer for a release
        object comes from one engine object, the release's own, however
        the threads interleave."""
        from repro.queries.engine import BatchQueryEngine
        from repro.service import query_service as qs

        store = SynopsisStore(n_points=N_POINTS, dataset_budget=100.0)
        service = QueryService(store)
        key = ReleaseKey("storage", "UG", epsilon=1.0, seed=0)
        store.build(key)
        # (release, engine) per make_engine call; keeps every release
        # alive, so ids stay unique.
        served = []
        answered = []  # the engine object of every batch
        real_make_engine = qs.make_engine
        real_answer_batch = BatchQueryEngine.answer_batch

        def recording_make_engine(synopsis):
            engine = real_make_engine(synopsis)
            served.append((synopsis, engine))
            return engine

        def recording_answer_batch(engine, rects):
            answered.append(engine)
            return real_answer_batch(engine, rects)

        monkeypatch.setattr(qs, "make_engine", recording_make_engine)
        monkeypatch.setattr(BatchQueryEngine, "answer_batch", recording_answer_batch)
        rects = storage_rects(8, rng)
        rebuilding = threading.Event()

        def read(_):
            while not rebuilding.is_set():
                service.answer(key, rects)

        def rebuild():
            try:
                for _ in range(20):
                    store.build(key, force=True)
                    service.answer(key, rects)
            finally:
                rebuilding.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=7) as pool:
                futures = [pool.submit(read, i) for i in range(6)]
                futures.append(pool.submit(rebuild))
                for future in futures:
                    future.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        owner = {}
        for release, engine in served:
            assert engine is release.engine
            assert owner.setdefault(id(engine), release) is release
        assert answered and {id(engine) for engine in answered} <= owner.keys()
        # Every rebuilt release was queried.
        assert len({id(release) for release, _ in served}) >= 20

    def test_engines_for_evicted_keys_are_pruned(self):
        store = SynopsisStore(n_points=N_POINTS, max_entries=1, dataset_budget=10.0)
        service = QueryService(store)
        k1 = ReleaseKey("storage", "UG", epsilon=1.0, seed=1)
        k2 = ReleaseKey("storage", "UG", epsilon=1.0, seed=2)
        store.build(k1)
        service.engine_for(k1)
        store.build(k2)  # evicts k1: its release dies, and its engine too
        service.engine_for(k2)
        assert service.stats()["engines_cached"] == 1


class TestOneEnginePerRelease:
    """A release owns one engine: every path that answers from it or
    seals it uses the object ``make_engine`` returns."""

    @pytest.mark.parametrize("method", method_names())
    def test_every_path_uses_the_releases_engine(self, monkeypatch, method):
        from repro.core.serialization import synopsis_to_bytes
        from repro.queries.engine import make_engine
        from repro.service.ingest import _DriftTracker

        store = SynopsisStore(n_points=N_POINTS)
        key = ReleaseKey("storage", method, epsilon=1.0, seed=0)
        release, _ = store.build(key)
        engine = make_engine(release)
        kernel = type(engine)
        real_answer_batch = kernel.answer_batch
        real_slabs = kernel.slabs
        used = []

        def answer_batch(self, rects):
            used.append(self)
            return real_answer_batch(self, rects)

        def slabs(self):
            used.append(self)
            return real_slabs.fget(self)

        monkeypatch.setattr(kernel, "answer_batch", answer_batch)
        monkeypatch.setattr(kernel, "slabs", property(slabs))
        bounds = [release.domain.bounds]
        paths = {
            "total": release.total,
            "answer_many": lambda: release.answer_many(bounds),
            "drift tracker": lambda: _DriftTracker(key, release),
            "service": lambda: QueryService(store).answer(key, bounds),
            "archive writer": lambda: synopsis_to_bytes(release),
        }
        for label, path in paths.items():
            used.clear()
            path()
            assert used, label
            assert all(user is engine for user in used), label
        assert make_engine(release) is engine

    def test_concurrent_first_queries_share_one_engine(self, tmp_path, rng):
        """Eight threads make the first query on a v1-loaded release at
        once: one engine object results, the release's own, and the
        service counts one cold start."""
        from repro.queries.engine import FlatTreeEngine, make_engine
        from tests.v1_archive import v1_archive_bytes

        key = ReleaseKey("landmark", "Kst", epsilon=1.0, seed=0)
        built, _ = SynopsisStore(store_dir=tmp_path, n_points=N_POINTS).build(key)
        (tmp_path / f"{key.slug()}.npz").write_bytes(v1_archive_bytes(built))
        store = SynopsisStore(store_dir=tmp_path, n_points=N_POINTS)
        release = store.get(key)
        assert release.engine is None
        service = QueryService(store, answer_cache_bytes=0)
        domain = release.domain
        rects = [
            domain.random_rect(domain.width / 8, domain.height / 8, rng)
            for _ in range(8)
        ]
        barrier = threading.Barrier(8)

        def first_query(_):
            barrier.wait(timeout=30)
            service.answer(key, rects)
            return service.engine_for(key)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                engines = list(pool.map(first_query, range(8), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert isinstance(release.engine, FlatTreeEngine)
        assert all(engine is release.engine for engine in engines)
        assert make_engine(release) is release.engine
        stats = service.stats()
        assert stats["engine_cold_starts"] == 1
        assert stats["engine_sealed_loads"] == 0
        assert stats["engines_cached"] == 1

    def test_the_first_arrival_counts_the_cold_start(
        self, monkeypatch, tmp_path, rng
    ):
        """A second request that arrives after the first one published
        the release's engine, but before it recorded it, finds the
        engine on the release; the release still counts one cold start,
        not a sealed load."""
        from repro.service import query_service as qs
        from tests.v1_archive import v1_archive_bytes

        key = ReleaseKey("storage", "UG", epsilon=1.0, seed=0)
        built, _ = SynopsisStore(store_dir=tmp_path, n_points=N_POINTS).build(key)
        (tmp_path / f"{key.slug()}.npz").write_bytes(v1_archive_bytes(built))
        service = QueryService(SynopsisStore(store_dir=tmp_path, n_points=N_POINTS))
        real_make_engine = qs.make_engine
        published = threading.Event()
        second_answered = threading.Event()

        def make_engine(synopsis):
            engine = real_make_engine(synopsis)
            if not published.is_set():
                published.set()
                assert second_answered.wait(timeout=30)
            return engine

        monkeypatch.setattr(qs, "make_engine", make_engine)
        rects = storage_rects(4, rng)
        with ThreadPoolExecutor(max_workers=1) as pool:
            first = pool.submit(service.answer, key, rects)
            assert published.wait(timeout=30)
            service.answer(key, rects)
            second_answered.set()
            first.result(timeout=30)
        stats = service.stats()
        assert stats["engine_cold_starts"] == 1
        assert stats["engine_sealed_loads"] == 0


class TestAnswerCache:
    def test_repeat_batch_is_a_hit_with_identical_estimates(self, service, rng):
        key = ReleaseKey("storage", "AG", epsilon=1.0, seed=0)
        service.store.build(key)
        rects = storage_rects(20, rng)
        first = service.answer(key, rects)
        second = service.answer(key, rects)
        assert first.cached is False
        assert second.cached is True
        assert second.build_ms == 0.0
        np.testing.assert_array_equal(first.estimates, second.estimates)
        stats = service.stats()
        assert stats["answer_cache_hits"] == 1
        assert stats["answer_cache_misses"] == 1
        assert stats["answer_cache_entries"] == 1
        assert stats["answer_cache_bytes"] == first.estimates.nbytes

    def test_clamp_is_part_of_the_cache_key(self, service, rng):
        key = ReleaseKey("storage", "AG", epsilon=1.0, seed=0)
        service.store.build(key)
        rects = storage_rects(10, rng)
        raw = service.answer(key, rects)
        clamped = service.answer(key, rects, clamp=True)
        assert clamped.cached is False
        np.testing.assert_array_equal(
            clamped.estimates, np.maximum(raw.estimates, 0.0)
        )
        assert service.stats()["answer_cache_entries"] == 2

    def test_equal_boxes_from_different_input_forms_share_an_entry(self, service):
        key = ReleaseKey("storage", "UG", epsilon=1.0, seed=0)
        service.store.build(key)
        rows = [[-110.0, 30.0, -80.0, 45.0]]
        service.answer(key, rows)
        as_array = service.answer(key, np.array(rows))
        as_rects = service.answer(key, [Rect(-110.0, 30.0, -80.0, 45.0)])
        assert as_array.cached and as_rects.cached

    def test_byte_bound_evicts_lru(self, rng):
        store = SynopsisStore(n_points=N_POINTS, dataset_budget=10.0)
        # Room for exactly two 5-rect answer vectors (5 * 8 bytes each).
        service = QueryService(store, answer_cache_bytes=80)
        key = ReleaseKey("storage", "UG", epsilon=1.0, seed=0)
        store.build(key)
        batches = [storage_rects(5, rng) for _ in range(3)]
        for batch in batches:
            service.answer(key, batch)
        assert service.stats()["answer_cache_entries"] == 2
        assert service.stats()["answer_cache_bytes"] == 80
        # batches[0] was evicted (LRU); batches[2] still hits.
        assert service.answer(key, batches[2]).cached is True
        assert service.answer(key, batches[0]).cached is False

    def test_oversized_answers_are_not_cached(self, rng):
        store = SynopsisStore(n_points=N_POINTS, dataset_budget=10.0)
        service = QueryService(store, answer_cache_bytes=8)  # one estimate
        key = ReleaseKey("storage", "UG", epsilon=1.0, seed=0)
        store.build(key)
        rects = storage_rects(4, rng)
        service.answer(key, rects)
        assert service.stats()["answer_cache_entries"] == 0
        assert service.answer(key, rects).cached is False

    def test_zero_budget_disables_caching(self, rng):
        store = SynopsisStore(n_points=N_POINTS, dataset_budget=10.0)
        service = QueryService(store, answer_cache_bytes=0)
        key = ReleaseKey("storage", "UG", epsilon=1.0, seed=0)
        store.build(key)
        rects = storage_rects(4, rng)
        assert service.answer(key, rects).cached is False
        assert service.answer(key, rects).cached is False
        stats = service.stats()
        assert stats["answer_cache_hits"] == 0
        assert stats["answer_cache_misses"] == 0

    def test_forced_rebuild_invalidates(self, service, rng):
        key = ReleaseKey("storage", "AG", epsilon=1.0, seed=0)
        service.store.build(key)
        rects = storage_rects(8, rng)
        service.answer(key, rects)
        assert service.answer(key, rects).cached is True
        service.store.build(key, force=True)
        refreshed = service.answer(key, rects)
        assert refreshed.cached is False
        # ...and the refreshed answer re-enters the cache immediately.
        assert service.answer(key, rects).cached is True

    def test_cached_estimates_are_frozen(self, service, rng):
        key = ReleaseKey("storage", "AG", epsilon=1.0, seed=0)
        service.store.build(key)
        result = service.answer(key, storage_rects(4, rng))
        with pytest.raises((ValueError, RuntimeError)):
            result.estimates[0] = 123.0

    def test_answer_built_during_eviction_race_is_not_cached(
        self, monkeypatch, rng
    ):
        # If the key is evicted while its engine is being prepared, the
        # answer computed from the evicted release belongs to that
        # release object alone: the key's next incarnation is a new
        # object, and the vector must never be served for it.
        from repro.service import query_service as qs

        store = SynopsisStore(n_points=N_POINTS, dataset_budget=10.0)
        service = QueryService(store)
        key = ReleaseKey("storage", "UG", epsilon=1.0, seed=0)
        store.build(key)
        real_make_engine = qs.make_engine

        def evicting_make_engine(synopsis):
            store.evict(key)  # lands mid-build
            return real_make_engine(synopsis)

        monkeypatch.setattr(qs, "make_engine", evicting_make_engine)
        rects = storage_rects(4, rng)
        result = service.answer(key, rects)
        assert result.cached is False
        assert result.estimates.shape == (4,)
        # The evicted release died with the request, and its engine too.
        assert service.stats()["engines_cached"] == 0

        monkeypatch.setattr(qs, "make_engine", real_make_engine)
        store.build(key)  # the key's next incarnation
        rebuilt = service.answer(key, rects)
        assert rebuilt.cached is False
        assert rebuilt.estimates is not result.estimates
        assert service.answer(key, rects).estimates is rebuilt.estimates

    def test_miss_fetches_the_release_once(self, service, rng):
        key = ReleaseKey("storage", "UG", epsilon=1.0, seed=0)
        service.store.build(key)
        rects = storage_rects(4, rng)
        hits = service.store.stats.hits
        assert service.answer(key, rects).cached is False
        assert service.store.stats.hits == hits + 1
        assert service.answer(key, rects).cached is True
        assert service.store.stats.hits == hits + 2

    def test_concurrent_repeats_converge_to_one_entry(self, service, rng):
        key = ReleaseKey("storage", "AG", epsilon=1.0, seed=0)
        service.store.build(key)
        rects = storage_rects(16, rng)
        baseline = service.answer(key, rects).estimates
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(
                pool.map(lambda _: service.answer(key, rects).estimates, range(16))
            )
        for estimates in results:
            np.testing.assert_array_equal(estimates, baseline)
        assert service.stats()["answer_cache_entries"] == 1


class TestResultPayload:
    def test_latency_split_fields(self, service, rng):
        key = ReleaseKey("storage", "AG", epsilon=1.0, seed=0)
        service.store.build(key)
        payload = service.answer(key, storage_rects(3, rng)).to_payload()
        assert payload["cached"] is False
        assert payload["build_ms"] >= 0.0
        assert payload["answer_ms"] >= 0.0
        assert payload["elapsed_ms"] == pytest.approx(
            payload["build_ms"] + payload["answer_ms"], abs=2e-3
        )
        # The build sealed the engine slabs: a warm load, not a rebuild.
        assert service.stats()["engine_sealed_loads"] == 1
        assert service.stats()["engine_cold_starts"] == 0


class TestTenantKeys:
    def test_tenant_engine_prepared_once_and_repeat_is_cached(self, rng):
        """A tenant's service answers the same keys as any other (the
        binary slug and JSON bodies carry no tenant): the tenant's engine
        is prepared once, and a repeat batch is a cache hit."""
        store = SynopsisStore(n_points=N_POINTS, tenant="acme")
        service = QueryService(store)
        key = ReleaseKey("storage", "AG", epsilon=1.0, seed=0)
        store.build(key)
        batches = [storage_rects(16, rng) for _ in range(5)]
        for batch in batches:
            assert not service.answer(key, batch).cached
        stats = service.stats()
        assert stats["engine_cold_starts"] + stats["engine_sealed_loads"] == 1
        assert stats["engines_cached"] == 1
        repeat = service.answer(key, batches[0])
        assert repeat.cached
        assert repeat.key == key  # reported as requested
        assert service.stats()["answer_cache_hits"] == 1
        assert service.engine_for(key) is service.engine_for(key)


class TestConcurrency:
    def test_concurrent_batches_against_one_cached_synopsis(self, service, rng):
        key = ReleaseKey("storage", "AG", epsilon=1.0, seed=0)
        service.store.build(key)
        batches = [storage_rects(40, rng) for _ in range(16)]
        serial = [service.answer(key, batch).estimates for batch in batches]

        with ThreadPoolExecutor(max_workers=8) as pool:
            concurrent = list(
                pool.map(lambda batch: service.answer(key, batch).estimates, batches)
            )
        for expected, got in zip(serial, concurrent):
            np.testing.assert_array_equal(expected, got)
        assert service.stats()["queries_answered"] == 2 * 16 * 40

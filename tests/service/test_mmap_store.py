"""The zero-copy store path: mapped loads, mixed formats, fork sharing.

These tests exercise the service-level contract of the v2 archive work:
a store writes v2, serves the v1 archives an older store left in its
directory side by side with v2 ones, reports mapped bytes through
``memory_payload``, restores engines from sealed slabs without a cold
start, and — on POSIX — shares mapped pages across forked workers
instead of duplicating them.
"""

import os
import sys

import numpy as np
import pytest

from repro.queries.engine import has_sealed_engine
from repro.service.keys import ReleaseKey
from repro.service.query_service import QueryService
from repro.service.store import SynopsisStore
from tests.v1_archive import v1_archive_bytes

N_POINTS = 2_000
BOXES = np.array([[-110.0, 30.0, -80.0, 45.0], [-100.0, 25.0, -90.0, 40.0]])


def key(method="UG", epsilon=1.0, seed=0, dataset="storage"):
    return ReleaseKey(dataset, method, epsilon=epsilon, seed=seed)


def _store(tmp_path, **kwargs):
    options = {"n_points": N_POINTS, "dataset_budget": 16.0}
    options.update(kwargs)
    return SynopsisStore(store_dir=tmp_path, **options)


def _v1_release(tmp_path, k):
    """Build ``k`` into ``tmp_path`` and rewrite its archive as v1, as a
    store from before v2 left it."""
    synopsis, _ = _store(tmp_path).build(k)
    (tmp_path / f"{k.slug()}.npz").write_bytes(v1_archive_bytes(synopsis))


class TestArchiveFormatOption:
    """What a store reloads from each archive format it may find."""

    def test_v2_store_maps_reloaded_releases(self, tmp_path):
        _store(tmp_path).build(key())
        fresh = _store(tmp_path)  # fresh process: load from disk
        synopsis = fresh.get(key())
        assert synopsis.mapped_nbytes > 0
        assert has_sealed_engine(synopsis)

    def test_v1_store_loads_into_heap(self, tmp_path):
        _v1_release(tmp_path, key())
        synopsis = _store(tmp_path).get(key())
        assert synopsis.mapped_nbytes == 0
        assert not has_sealed_engine(synopsis)


class TestMixedFormats:
    def test_mixed_directory_served_transparently(self, tmp_path):
        """A store dir holding v1 and v2 archives side by side serves
        both; the loader sniffs the format per file."""
        k1, k2 = key(seed=1), key(seed=2)
        _v1_release(tmp_path, k1)
        _store(tmp_path).build(k2)
        store = _store(tmp_path)
        s1, s2 = store.get(k1), store.get(k2)
        assert s1.mapped_nbytes == 0
        assert s2.mapped_nbytes > 0
        # Both formats answer through one service (seeds differ, so the
        # estimates do too — transparency, not equality, is the claim).
        service = QueryService(store)
        e1 = service.answer(k1, BOXES).estimates
        e2 = service.answer(k2, BOXES).estimates
        assert e1.shape == e2.shape == (2,)
        assert np.isfinite(e1).all() and np.isfinite(e2).all()

    def test_rewriting_v1_release_as_v2_is_bit_identical(self, tmp_path):
        v1_dir, v2_dir = tmp_path / "v1", tmp_path / "v2"
        _v1_release(v1_dir, key())
        _store(v2_dir).build(key())
        a = QueryService(_store(v1_dir)).answer(key(), BOXES).estimates
        b = QueryService(_store(v2_dir)).answer(key(), BOXES).estimates
        np.testing.assert_array_equal(a, b)


class TestMemoryPayload:
    def test_health_memory_fields(self, tmp_path):
        _store(tmp_path).build(key())
        store = _store(tmp_path)
        store.get(key())
        payload = store.memory_payload()
        assert payload["mapped_bytes"] > 0
        assert payload["mapped"] == {
            key().slug(): payload["mapped_bytes"]
        }
        if sys.platform.startswith("linux"):
            assert payload["rss_bytes"] > 0

    def test_eviction_drops_the_mapping(self, tmp_path):
        _store(tmp_path).build(key())
        store = _store(tmp_path)
        store.get(key())
        assert store.memory_payload()["mapped_bytes"] > 0
        assert store.evict(key())
        assert store.memory_payload()["mapped_bytes"] == 0

    def test_http_health_exposes_memory(self, tmp_path):
        import json as _json
        import threading
        import urllib.request

        from repro.service.server import serve

        _store(tmp_path).build(key())
        service = QueryService(_store(tmp_path))
        server = serve(service, "127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with urllib.request.urlopen(server.url + "/health", timeout=30) as r:
                body = _json.loads(r.read())
            assert "memory" in body
            assert body["memory"]["mapped_bytes"] >= 0
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


class TestSealedEngineLoads:
    def test_warm_v2_release_skips_cold_start(self, tmp_path):
        _store(tmp_path).build(key())
        service = QueryService(_store(tmp_path))
        service.answer(key(), BOXES)
        stats = service.stats()
        assert stats["engine_sealed_loads"] == 1
        assert stats["engine_cold_starts"] == 0

    @pytest.mark.parametrize(
        "method", ["AG", "Quad", "Kst", "Privelet", "UGnd", "Hier1d"]
    )
    def test_stale_sealed_slabs_count_as_cold_start(self, tmp_path, method):
        """A v2 archive sealed by the previous kernels (AG's CSR prefix
        and totals prefix alone; a quadtree's frontier-descent vectors;
        a KD-standard tree's seven node vectors without edge tables;
        Privelet's empty coefficient-space sealing; the d-dimensional
        grid's raveled ``flat_prefix``; the 1-D histogram's ``(m + 1,)``
        prefix) cannot restore today's engine: it is rebuilt, answers
        match the scalar oracle, and the rebuild counts as a cold start."""
        from repro.core.serialization import synopsis_to_bytes
        from repro.queries.engine import (
            BatchQueryEngine,
            FlatTreeEngine,
            make_engine,
            scalar_answer_batch,
        )

        if method == "Quad":
            # Enough points that the default quadtree lowers onto its
            # lattice, as at full scale; small trees keep the frontier.
            k, options = key(method=method, dataset="landmark"), {
                "n_points": 100_000
            }
        else:
            k, options = key(method=method), {}
        synopsis, _ = _store(tmp_path, **options).build(k)
        slabs = synopsis.sealed_engine_slabs
        if method == "AG":
            stale = {
                name: slabs[name]
                for name in ("prefix", "prefix_offsets", "totals_prefix")
            }
        elif method == "Quad":
            assert isinstance(make_engine(synopsis), BatchQueryEngine)
            stale = FlatTreeEngine.precompute(synopsis)
        elif method == "Kst":
            assert isinstance(make_engine(synopsis), FlatTreeEngine)
            stale = {
                name: slabs[name]
                for name in (
                    "x_lo", "y_lo", "x_hi", "y_hi", "areas", "fan_out",
                    "is_leaf",
                )
            }
        elif method == "UGnd":
            stale = {"flat_prefix": np.ravel(slabs["prefix"])}
        elif method == "Hier1d":
            stale = {"prefix": np.concatenate([[0.0], np.cumsum(synopsis.released)])}
        else:
            stale = {}
        synopsis.seal_engine_slabs(stale)
        (tmp_path / f"{k.slug()}.npz").write_bytes(
            synopsis_to_bytes(synopsis)
        )
        service = QueryService(_store(tmp_path, **options))
        estimates = service.answer(k, BOXES).estimates
        oracle = scalar_answer_batch(service.store.get(k), BOXES)
        scale = max(1.0, float(np.abs(oracle).max()))
        np.testing.assert_allclose(estimates, oracle, rtol=1e-9, atol=1e-9 * scale)
        stats = service.stats()
        assert stats["engine_cold_starts"] == 1
        assert stats["engine_sealed_loads"] == 0

    def test_v1_release_still_cold_starts(self, tmp_path):
        _v1_release(tmp_path, key())
        service = QueryService(_store(tmp_path))
        service.answer(key(), BOXES)
        stats = service.stats()
        assert stats["engine_sealed_loads"] == 0
        assert stats["engine_cold_starts"] == 1


@pytest.mark.skipif(
    not hasattr(os, "fork") or not sys.platform.startswith("linux"),
    reason="fork + /proc/<pid>/smaps_rollup are Linux-only",
)
class TestForkSharing:
    """Mapped slabs are shared across forked workers: the child's
    *private* memory stays small because its synopsis arrays are views
    into pages the parent already mapped."""

    @staticmethod
    def _smaps_rollup(pid):
        fields = {}
        with open(f"/proc/{pid}/smaps_rollup") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) >= 2 and parts[0].endswith(":"):
                    try:
                        fields[parts[0][:-1]] = int(parts[1]) * 1024
                    except ValueError:
                        pass
        return fields

    def test_child_shares_mapped_pages(self, tmp_path):
        if not os.path.exists("/proc/self/smaps_rollup"):
            pytest.skip("smaps_rollup not available")
        # A deliberately chunky release so the mapped payload dominates
        # allocator noise.
        big = _store(tmp_path, n_points=1_000_000)
        big.build(key())
        parent_store = _store(tmp_path, n_points=1_000_000)
        synopsis = parent_store.get(key())  # parent maps the pages
        mapped = synopsis.mapped_nbytes
        assert mapped > 1 << 20  # sanity: at least a MiB mapped

        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # child
            status = 1
            try:
                os.close(read_fd)
                # Touch every mapped array through a fresh service: the
                # reads fault pages in, but as *shared* file-backed pages.
                child_service = QueryService(parent_store)
                child_service.answer(key(), BOXES)
                rollup = self._smaps_rollup(os.getpid())
                private = rollup.get("Private_Clean", 0) + rollup.get(
                    "Private_Dirty", 0
                )
                pss = rollup.get("Pss", 0)
                rss = rollup.get("Rss", 0)
                os.write(write_fd, f"{private},{pss},{rss}".encode())
                status = 0
            finally:
                os.close(write_fd)
                os._exit(status)
        os.close(write_fd)
        raw = b""
        while chunk := os.read(read_fd, 4096):
            raw += chunk
        os.close(read_fd)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        private, pss, rss = map(int, raw.decode().split(","))
        # The mapped file pages appear in the child's RSS but are shared
        # with the parent: PSS (proportional) sits well below RSS, and
        # the child's private pages do not grow by the mapped payload.
        assert pss < rss
        assert rss - private >= mapped // 2, (
            f"expected ≥{mapped // 2} shared bytes, got rss={rss} "
            f"private={private} (mapped={mapped})"
        )

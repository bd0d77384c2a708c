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

from repro.service.keys import ReleaseKey
from repro.service.query_service import QueryService
from repro.service.store import SynopsisStore
from tests.v1_archive import v1_archive_bytes
from tests.v2_reference import v2_reference_bytes

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
        assert synopsis.engine is not None

    def test_v1_store_loads_into_heap(self, tmp_path):
        _v1_release(tmp_path, key())
        synopsis = _store(tmp_path).get(key())
        assert synopsis.mapped_nbytes == 0
        assert synopsis.engine is None


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
        "method", ["AG", "Quad", "Kst", "Khy", "Privelet", "UGnd", "Hier1d"]
    )
    def test_stale_sealed_slabs_count_as_cold_start(self, tmp_path, method):
        """A v2 archive sealed by the previous kernels (AG's CSR prefix
        and totals prefix alone, and the seven slabs that added ``F`` /
        ``G`` edge tables over edges in first-level cell units, from
        before AG answered through the two-level grid; a quadtree's
        frontier-descent vectors; a KD-standard tree's seven node
        vectors without edge tables; a KD-hybrid tree's frontier-descent
        slabs with edge tables, from before consistent trees lowered
        onto the two-level grid; Privelet's empty coefficient-space
        sealing; the d-dimensional grid's raveled ``flat_prefix``; the
        1-D histogram's ``(m + 1,)`` prefix) cannot restore today's
        engine: it is rebuilt, answers match the scalar oracle, and the
        rebuild counts as a cold start."""
        from repro.queries.engine import (
            BatchQueryEngine,
            FlatTreeEngine,
            TwoLevelGridEngine,
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
        slabs = make_engine(synopsis).slabs
        stale = {}
        if method == "AG":
            assert isinstance(make_engine(synopsis), TwoLevelGridEngine)
            bounds = synopsis.domain.bounds
            mx, my = synopsis.first_level_size
            # The seven slabs the summed-area AG engine sealed before the
            # two-level grid, with the values it computed up to rounding.
            seven = {
                "prefix": slabs["cell_prefix"],
                "prefix_offsets": slabs["cell_prefix_offsets"][:-1],
                "totals_prefix": slabs["totals_prefix"],
                "x_edges": (slabs["x_edges"] - bounds.x_lo) * (mx / bounds.width),
                "y_edges": (slabs["y_edges"] - bounds.y_lo) * (my / bounds.height),
                "f_table": slabs["f_table"],
                "g_table": slabs["g_table"],
            }
            stale = {
                name: seven[name]
                for name in ("prefix", "prefix_offsets", "totals_prefix")
            }
        elif method == "Quad":
            assert isinstance(make_engine(synopsis), BatchQueryEngine)
            stale = FlatTreeEngine.precompute(synopsis)
        elif method == "Khy":
            assert isinstance(make_engine(synopsis), TwoLevelGridEngine)
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
        for sealed in [stale] + ([seven] if method == "AG" else []):
            (tmp_path / f"{k.slug()}.npz").write_bytes(
                v2_reference_bytes(synopsis, slabs=sealed)
            )
            service = QueryService(_store(tmp_path, **options))
            estimates = service.answer(k, BOXES).estimates
            oracle = scalar_answer_batch(service.store.get(k), BOXES)
            scale = max(1.0, float(np.abs(oracle).max()))
            np.testing.assert_allclose(
                estimates, oracle, rtol=1e-9, atol=1e-9 * scale
            )
            assert type(service.store.get(k).engine) is type(make_engine(synopsis))
            stats = service.stats()
            assert stats["engine_cold_starts"] == 1, sorted(sealed)
            assert stats["engine_sealed_loads"] == 0

    def test_v1_release_still_cold_starts(self, tmp_path):
        _v1_release(tmp_path, key())
        service = QueryService(_store(tmp_path))
        service.answer(key(), BOXES)
        stats = service.stats()
        assert stats["engine_sealed_loads"] == 0
        assert stats["engine_cold_starts"] == 1

    def test_one_lattice_check_per_tree_build_and_load(
        self, tmp_path, monkeypatch
    ):
        """A tree's kernel is decided once per engine: one consistency
        check, then one lattice check for a consistent tree, then the
        two-level grid's zero-area and size decision for one that does
        not lower onto its lattice, when a store build prepares the
        engine (landmark Quad lowers onto its lattice, Khy onto the
        two-level grid, Kst neither) and when an archive load restores
        it.  A build sizes the two-level tables from their layout, a
        load from the sealed tables: the layout is never computed
        twice, and never on load."""
        from repro.baselines import tree
        from repro.core.serialization import synopsis_from_path
        from repro.queries.engine import (
            BatchQueryEngine,
            FlatTreeEngine,
            TwoLevelGridEngine,
        )

        calls = []

        def counted(name, function):
            def wrapper(*args):
                calls.append(name)
                return function(*args)
            return wrapper

        for name in ("_consistent", "_lattice_leaves", "_grid_engine"):
            monkeypatch.setattr(tree, name, counted(name, getattr(tree, name)))
        monkeypatch.setattr(
            TwoLevelGridEngine, "layout",
            classmethod(counted("layout", TwoLevelGridEngine.layout.__func__)),
        )
        store = _store(tmp_path, n_points=100_000)
        for method, kernel, build_checks, load_checks in (
            ("Quad", BatchQueryEngine, ["_consistent", "_lattice_leaves"],
             ["_consistent", "_lattice_leaves"]),
            ("Khy", TwoLevelGridEngine,
             ["_consistent", "_lattice_leaves", "_grid_engine", "layout"],
             ["_consistent", "_lattice_leaves", "_grid_engine"]),
            ("Kst", FlatTreeEngine, ["_consistent"], ["_consistent"]),
        ):
            k = key(method=method, dataset="landmark")
            calls.clear()
            synopsis, built = store.build(k)
            assert built and isinstance(synopsis.engine, kernel)
            assert calls == build_checks, method
            calls.clear()
            loaded = synopsis_from_path(tmp_path / f"{k.slug()}.npz")
            assert isinstance(loaded.engine, kernel)
            assert calls == load_checks, method

    def test_one_split_kinds_pass_per_tree_build_and_load(
        self, tmp_path, monkeypatch
    ):
        """A KD-standard release derives its nodes' split kinds once per
        build (for the frontier engine) and once per archive load (for
        the archive's validation, whose kinds the restored engine
        reads)."""
        from repro.baselines import tree
        from repro.core.serialization import synopsis_from_path
        from repro.queries import engine
        from repro.queries.engine import FlatTreeEngine

        calls = []
        split_kinds = tree.split_kinds

        def counted(*args):
            calls.append(args)
            return split_kinds(*args)

        for module in (tree, engine):
            monkeypatch.setattr(module, "split_kinds", counted, raising=False)
        k = key(method="Kst", dataset="landmark")
        synopsis, built = _store(tmp_path).build(k)
        assert built and isinstance(synopsis.engine, FlatTreeEngine)
        assert len(calls) == 1
        calls.clear()
        loaded = synopsis_from_path(tmp_path / f"{k.slug()}.npz")
        assert isinstance(loaded.engine, FlatTreeEngine)
        assert len(calls) == 1


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

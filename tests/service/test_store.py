"""Unit tests for the synopsis store: caching, eviction, budgets, persistence."""

import numpy as np
import pytest

from repro.core.adaptive_grid import AdaptiveGridSynopsis
from repro.core.serialization import synopsis_nbytes
from repro.service.errors import BudgetRefused, ReleaseNotFound
from repro.service.keys import ReleaseKey
from repro.service.store import SynopsisStore

#: Small builds so the whole module stays fast.
N_POINTS = 2_000


def key(method="AG", epsilon=1.0, seed=0, dataset="storage"):
    return ReleaseKey(dataset, method, epsilon=epsilon, seed=seed)


class TestBuildSealsEngine:
    @pytest.mark.parametrize("prior_archive", [None, "v1", "v2"])
    @pytest.mark.parametrize("method", ["UG", "AG", "Quad"])
    def test_first_query_after_build_is_sealed_load(
        self, tmp_path, prior_archive, method
    ):
        """A build prepares the release's engine once, so the first
        query finds it instead of rebuilding it — in memory, and when a
        forced build replaces a release an earlier store archived in
        either format (rewriting it as v2)."""
        from repro.core.serialization import _V2_MAGIC
        from repro.service.query_service import QueryService
        from tests.v1_archive import v1_archive_bytes

        if prior_archive is None:
            store = SynopsisStore(n_points=N_POINTS)
        else:
            store = SynopsisStore(store_dir=tmp_path, n_points=N_POINTS)
            earlier, _ = store.build(key(method=method))
            path = tmp_path / f"{key(method=method).slug()}.npz"
            if prior_archive == "v1":
                path.write_bytes(v1_archive_bytes(earlier))
        synopsis, built = store.build(key(method=method), force=True)
        assert built and synopsis.engine is not None
        if prior_archive is not None:
            assert path.read_bytes().startswith(_V2_MAGIC)
        service = QueryService(store)
        bounds = synopsis.domain.bounds
        result = service.answer(key(method=method), [bounds])
        assert result.estimates[0] == pytest.approx(synopsis.total(), rel=1e-9)
        stats = service.stats()
        assert stats["engine_sealed_loads"] == 1
        assert stats["engine_cold_starts"] == 0


class TestBuildAndGet:
    def test_get_before_build_raises(self):
        store = SynopsisStore(n_points=N_POINTS)
        with pytest.raises(ReleaseNotFound, match="build it first"):
            store.get(key())

    def test_build_then_get_is_cached(self):
        store = SynopsisStore(n_points=N_POINTS)
        synopsis, built = store.build(key())
        assert built
        assert isinstance(synopsis, AdaptiveGridSynopsis)
        assert store.get(key()) is synopsis
        assert store.stats.builds == 1
        assert store.stats.hits == 1

    def test_repeated_build_serves_cache_without_spending(self):
        store = SynopsisStore(n_points=N_POINTS, dataset_budget=1.0)
        first, built_first = store.build(key())
        second, built_second = store.build(key())
        assert built_first and not built_second
        assert first is second
        # The whole budget went to the single fit; serving was free.
        assert store.budget_state()["storage|0"]["spent"] == pytest.approx(1.0)

    def test_builds_are_deterministic_per_key(self, tmp_path):
        a, _ = SynopsisStore(n_points=N_POINTS).build(key())
        b, _ = SynopsisStore(n_points=N_POINTS).build(key())
        np.testing.assert_array_equal(
            a.cell_counts(0, 0), b.cell_counts(0, 0)
        )


class TestEviction:
    def test_entry_count_pressure_evicts_lru(self):
        store = SynopsisStore(n_points=N_POINTS, max_entries=2, dataset_budget=10.0)
        k1, k2, k3 = key(seed=1), key(seed=2), key(seed=3)
        store.build(k1)
        store.build(k2)
        store.get(k1)  # k1 is now more recently used than k2
        store.build(k3)
        assert store.cached_keys() == [k1, k3]
        assert store.stats.evictions == 1

    def test_byte_pressure_evicts_but_keeps_newest(self):
        store = SynopsisStore(n_points=N_POINTS, max_bytes=1, dataset_budget=10.0)
        synopsis, _ = store.build(key(seed=1))
        assert synopsis_nbytes(synopsis) > 1
        # The sole (newest) entry is retained even though it exceeds the bound.
        assert store.cached_keys() == [key(seed=1)]
        store.build(key(seed=2))
        assert store.cached_keys() == [key(seed=2)]
        assert store.stats.evictions == 1

    def test_cached_bytes_tracks_entries(self):
        store = SynopsisStore(n_points=N_POINTS, dataset_budget=10.0)
        s1, _ = store.build(key(seed=1))
        s2, _ = store.build(key(seed=2))
        assert store.cached_bytes() == synopsis_nbytes(s1) + synopsis_nbytes(s2)
        store.evict(key(seed=1))
        assert store.cached_bytes() == synopsis_nbytes(s2)

    def test_evicted_without_persistence_needs_rebuild(self):
        store = SynopsisStore(n_points=N_POINTS, max_entries=1, dataset_budget=10.0)
        store.build(key(seed=1))
        store.build(key(seed=2))  # evicts seed=1
        with pytest.raises(ReleaseNotFound):
            store.get(key(seed=1))


class TestBudget:
    def test_over_budget_build_refused_with_clear_error(self):
        store = SynopsisStore(n_points=N_POINTS, dataset_budget=1.0)
        store.build(key(method="AG", epsilon=0.7))
        with pytest.raises(BudgetRefused) as excinfo:
            store.build(key(method="UG", epsilon=0.7))
        message = str(excinfo.value)
        assert "storage|0" in message
        assert "0.3" in message  # remaining
        assert store.stats.refusals == 1

    def test_force_rebuild_spends_budget_until_refused(self):
        store = SynopsisStore(n_points=N_POINTS, dataset_budget=1.0)
        store.build(key(epsilon=0.5))
        _, rebuilt = store.build(key(epsilon=0.5), force=True)
        assert rebuilt
        with pytest.raises(BudgetRefused):
            store.build(key(epsilon=0.5), force=True)

    def test_budgets_are_per_dataset_instance(self):
        store = SynopsisStore(n_points=N_POINTS, dataset_budget=1.0)
        store.build(key(seed=0))
        # A different seed is a different dataset instance: fresh ledger.
        store.build(key(seed=1))
        state = store.budget_state()
        assert state["storage|0"]["spent"] == pytest.approx(1.0)
        assert state["storage|1"]["spent"] == pytest.approx(1.0)

    def test_second_method_on_spent_instance_refused(self):
        store = SynopsisStore(n_points=N_POINTS, dataset_budget=1.0)
        store.build(key(method="AG", seed=5))
        with pytest.raises(BudgetRefused):
            store.build(key(method="UG", seed=5))

    def test_concurrent_builds_of_one_key_spend_once(self):
        from concurrent.futures import ThreadPoolExecutor

        store = SynopsisStore(n_points=N_POINTS, dataset_budget=1.0)
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: store.build(key()), range(8)))
        # Exactly one thread fit; the rest were served the same release.
        assert sum(built for _, built in results) == 1
        assert len({id(synopsis) for synopsis, _ in results}) == 1
        assert store.budget_state()["storage|0"]["spent"] == pytest.approx(1.0)


    def test_build_writes_the_catalog_once_for_the_spend(self, monkeypatch):
        """One build opens one catalog write transaction: the spend's."""
        store = SynopsisStore(n_points=N_POINTS, dataset_budget=1.0)
        outermost = _count_catalog_writes(monkeypatch)
        store.build(key())
        assert len(outermost) == 1
        assert store.budget_state()["storage|0"]["spent"] == pytest.approx(1.0)

    def test_opening_a_store_writes_nothing(self, monkeypatch):
        """A store, or a tenant's sibling store, opens without a catalog
        write transaction: a tenant needs no row of its own."""
        outermost = _count_catalog_writes(monkeypatch)
        SynopsisStore(n_points=N_POINTS).for_tenant("acme")
        assert outermost == []


def _count_catalog_writes(monkeypatch) -> list:
    """Patch :meth:`Catalog.exclusive` to record each outermost write
    transaction; returns the list it appends to."""
    from repro.service.catalog import Catalog

    outermost = []
    exclusive = Catalog.exclusive

    def counting(catalog):
        if getattr(catalog._local, "txn_depth", 0) == 0:
            outermost.append(True)
        return exclusive(catalog)

    monkeypatch.setattr(Catalog, "exclusive", counting)
    return outermost


class TestPersistence:
    def test_artifact_written_and_reloaded_after_eviction(self, tmp_path):
        store = SynopsisStore(
            store_dir=tmp_path, n_points=N_POINTS, max_entries=1, dataset_budget=10.0
        )
        built, _ = store.build(key(seed=1))
        store.build(key(seed=2))  # evicts seed=1 from memory
        assert key(seed=1) not in store.cached_keys()
        reloaded = store.get(key(seed=1))
        assert reloaded is not built
        assert store.stats.loads == 1
        assert reloaded.total() == pytest.approx(built.total())

    def test_persisted_keys_listing(self, tmp_path):
        store = SynopsisStore(store_dir=tmp_path, n_points=N_POINTS, dataset_budget=10.0)
        store.build(key(seed=1))
        store.build(key(method="UG", seed=2))
        (tmp_path / "unrelated.npz").write_bytes(b"not a release")
        assert set(store.persisted_keys()) == {key(seed=1), key(method="UG", seed=2)}

    def test_artifact_write_is_atomic(self, tmp_path):
        # No partially written archive is ever visible under the final
        # name, and no tmp file is left behind after a build.
        store = SynopsisStore(store_dir=tmp_path, n_points=N_POINTS, dataset_budget=10.0)
        store.build(key(seed=1))
        leftovers = [p.name for p in tmp_path.iterdir() if ".tmp" in p.name]
        assert leftovers == []
        # A pre-existing stale tmp file is ignored by listings.
        (tmp_path / ".stale.tmp.npz").write_bytes(b"half written")
        assert store.persisted_keys() == [key(seed=1)]

    def test_budget_ledger_survives_restart(self, tmp_path):
        SynopsisStore(
            store_dir=tmp_path, n_points=N_POINTS, dataset_budget=1.0
        ).build(key(epsilon=1.0))
        revived = SynopsisStore(
            store_dir=tmp_path, n_points=N_POINTS, dataset_budget=1.0
        )
        # Serving the persisted artifact is free...
        assert revived.build(key(epsilon=1.0))[1] is False
        # ...but any further fit against the same data is still refused.
        with pytest.raises(BudgetRefused):
            revived.build(key(epsilon=1.0), force=True)

    def test_restart_keeps_persisted_total_not_new_config(self, tmp_path):
        SynopsisStore(
            store_dir=tmp_path, n_points=N_POINTS, dataset_budget=1.0
        ).build(key(epsilon=1.0))
        # Restarting with a laxer configured budget must not launder the
        # guarantee already promised for this dataset instance.
        laxer = SynopsisStore(
            store_dir=tmp_path, n_points=N_POINTS, dataset_budget=100.0
        )
        assert laxer.budget_state()["storage|0"]["total"] == pytest.approx(1.0)
        with pytest.raises(BudgetRefused):
            laxer.build(key(epsilon=0.5), force=True)


class TestInsertFailure:
    def test_failed_insert_clears_inflight_marker(self):
        # A builder whose synopsis type serialization cannot pack: the
        # fit succeeds but _insert (synopsis_nbytes) raises.  The key's
        # in-flight marker must be cleared or every later call deadlocks.
        from repro.core.dataset import GeoDataset  # noqa: F401 (doc import)
        from repro.core.synopsis import Synopsis, SynopsisBuilder
        from repro.service import keys as keys_module
        from repro.service.keys import register_method

        class _OpaqueSynopsis(Synopsis):
            def answer(self, rect):
                return 0.0

        class _OpaqueBuilder(SynopsisBuilder):
            name = "OPQ"

            def fit(self, dataset, epsilon, rng, budget=None):
                return _OpaqueSynopsis(dataset.domain, epsilon)

        register_method("OPQ", _OpaqueBuilder)
        try:
            store = SynopsisStore(n_points=N_POINTS, dataset_budget=10.0)
            bad = key(method="OPQ")
            with pytest.raises(TypeError):
                store.build(bad)
            assert store._building == set()
            with pytest.raises(ReleaseNotFound):  # fails fast, no hang
                store.get(bad)
        finally:
            keys_module._METHODS.pop("OPQ", None)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dataset_budget": 0.0},
            {"max_entries": 0},
            {"max_bytes": 0},
        ],
    )
    def test_bad_configuration_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SynopsisStore(**kwargs)


class TestTreeReleases:
    """Tree synopses store, budget, persist, and serve like grids."""

    def test_build_persist_reload_round_trip(self, tmp_path):
        from repro.baselines.tree import TreeSynopsis

        store = SynopsisStore(store_dir=tmp_path, n_points=N_POINTS)
        k = key(method="Quad")
        synopsis, built = store.build(k)
        assert built
        assert isinstance(synopsis, TreeSynopsis)
        # Evict and force a disk reload; the release must be unchanged.
        store.evict(k)
        reloaded = store.get(k)
        np.testing.assert_array_equal(
            reloaded.arrays.counts, synopsis.arrays.counts
        )
        np.testing.assert_array_equal(
            reloaded.arrays.child_offsets, synopsis.arrays.child_offsets
        )

    @pytest.mark.parametrize("method", ["Quad", "Kst", "Khy"])
    def test_nbytes_accounted_in_cache_bytes(self, method):
        store = SynopsisStore(n_points=N_POINTS)
        synopsis, _ = store.build(key(method=method))
        reported = synopsis_nbytes(synopsis)
        assert reported > 0
        # The store's byte accounting must charge the tree release.
        assert store.cached_bytes() >= reported
        # And the released arrays dominate the figure.
        assert reported >= synopsis.arrays.nbytes

    def test_tree_budget_refusal(self):
        store = SynopsisStore(n_points=N_POINTS, dataset_budget=1.5)
        store.build(key(method="Khy", epsilon=1.0))
        with pytest.raises(BudgetRefused):
            store.build(key(method="Quad", epsilon=1.0))

    def test_query_service_batch_serves_tree(self):
        from repro.queries.engine import FlatTreeEngine
        from repro.service.query_service import QueryService

        store = SynopsisStore(n_points=N_POINTS)
        k = key(method="Kst")
        synopsis, _ = store.build(k)
        service = QueryService(store)
        engine = service.engine_for(k)
        assert isinstance(engine, FlatTreeEngine)
        bounds = synopsis.domain.bounds
        result = service.answer(k, [bounds])
        assert result.estimates.shape == (1,)
        assert result.estimates[0] == pytest.approx(synopsis.total(), rel=1e-9)

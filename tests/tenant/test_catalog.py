"""Catalog unit tests: the catalog file, migration fidelity, pagination,
tenant ids."""

import gc
import json
import threading

import pytest

from repro.service.catalog import DEFAULT_TENANT, Catalog, validate_tenant_id
from repro.service.errors import (
    AuthForbidden,
    BudgetRefused,
    DatasetExists,
    DatasetNotFound,
    ValidationError,
)
from repro.service.keys import ReleaseKey
from repro.service.store import SynopsisStore

N_POINTS = 1_000
LEDGER = "budgets.json"

#: A spend history in the pre-catalog ``budgets.json`` format: doubles
#: that do not round-trip through a shorter decimal, a total with no
#: spends, and labels in an order the import must keep.
LEGACY_BUDGETS = {
    "storage|0": {
        "total": 4.0,
        "ledger": [
            [0.1 + 0.2, "storage_UG_eps0.30000000000000004_seed0"],
            [0.25, "storage_AG_eps0.25_seed0"],
            [1 / 3, "storage_Hier_eps0.3333333333333333_seed0"],
        ],
    },
    "storage|1": {"total": 2.5, "ledger": [[0.75, "storage_UG_eps0.75_seed1"]]},
    "landmark|0": {"total": 1.0, "ledger": []},
}


def _key(epsilon, method="UG", seed=0):
    return ReleaseKey("storage", method, epsilon, seed)


def _write_legacy_ledger(store_dir):
    """What a version before the catalog left in its store directory."""
    path = store_dir / LEDGER
    path.write_text(json.dumps({"version": 1, "budgets": LEGACY_BUDGETS}, indent=2))
    return path.read_bytes()


class TestCatalogFile:
    def test_concurrent_first_opens_all_succeed(self, tmp_path):
        """Racing first opens of one new file never read it as damaged.

        The schema commits before the file switches to WAL mode, so
        whichever open wins the write lock, the others find a complete
        schema — never a non-empty file without one.
        """
        path = tmp_path / "catalog.sqlite"
        start = threading.Barrier(6)
        errors = []

        def open_catalog():
            start.wait()
            try:
                Catalog(path).ensure_tenant("acme")
            except Exception as error:
                errors.append(error)

        threads = [threading.Thread(target=open_catalog) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert Catalog(path).tenant_ids() == ["acme", DEFAULT_TENANT]

    def test_empty_file_opens_as_a_fresh_catalog(self, tmp_path):
        """0 bytes is what a concurrent first open sees mid-creation."""
        path = tmp_path / "catalog.sqlite"
        path.write_bytes(b"")
        assert Catalog(path).load_budgets(DEFAULT_TENANT) == {}

    def test_private_catalog_lives_as_long_as_its_stores(self):
        """An in-memory store's temporary catalog outlives the store that
        opened it while a ``for_tenant`` sibling still holds it."""
        root = SynopsisStore(dataset_budget=1.0, n_points=N_POINTS)
        sibling = root.for_tenant("acme")
        directory = root.catalog.path.parent
        del root
        gc.collect()
        assert sibling.build(_key(0.5))[1] is True
        assert directory.is_dir()
        del sibling
        gc.collect()
        assert not directory.exists()


class TestBudgetsJsonMigration:
    def test_import_is_bit_for_bit(self, tmp_path):
        """Every total, epsilon, label, and their order survive import."""
        _write_legacy_ledger(tmp_path)
        before = json.loads((tmp_path / LEDGER).read_text())["budgets"]
        store = SynopsisStore(
            store_dir=tmp_path, dataset_budget=4.0, n_points=N_POINTS
        )
        assert store.catalog.load_budgets(DEFAULT_TENANT) == before
        # The imported history binds: storage|1 has 1.75 of its own
        # 2.5 total left, whatever the store's configured budget.
        with pytest.raises(BudgetRefused):
            store.build(_key(2.0, seed=1))

    def test_import_is_one_shot(self, tmp_path):
        """Edits to the JSON file after import never re-enter the catalog.

        The catalog is authoritative after migration; replaying the file
        on every open would resurrect rows the catalog has since moved
        past (and double-import on a crash loop).
        """
        _write_legacy_ledger(tmp_path)

        def reopen():
            return SynopsisStore(
                store_dir=tmp_path, dataset_budget=4.0, n_points=N_POINTS
            )

        imported = reopen().catalog.load_budgets(DEFAULT_TENANT)
        doctored = {"version": 1, "budgets": {}}
        (tmp_path / LEDGER).write_text(json.dumps(doctored))
        assert reopen().catalog.load_budgets(DEFAULT_TENANT) == imported

    def test_import_rejects_unknown_ledger_version(self, tmp_path):
        (tmp_path / LEDGER).write_text(json.dumps({"version": 99, "budgets": {}}))
        catalog = Catalog(tmp_path / "catalog.sqlite")
        with pytest.raises(ValueError, match="version"):
            catalog.import_budgets_json(DEFAULT_TENANT, tmp_path / LEDGER)

    def test_spends_never_write_budgets_json(self, tmp_path):
        """The catalog is the only ledger: nothing writes the JSON file."""
        fresh = tmp_path / "fresh"
        SynopsisStore(
            store_dir=fresh, dataset_budget=4.0, n_points=N_POINTS
        ).build(_key(0.5))
        assert not (fresh / LEDGER).exists()
        legacy = tmp_path / "legacy"
        legacy.mkdir()
        original = _write_legacy_ledger(legacy)
        store = SynopsisStore(
            store_dir=legacy, dataset_budget=4.0, n_points=N_POINTS
        )
        store.build(_key(0.5))
        assert (legacy / LEDGER).read_bytes() == original
        spends = store.catalog.load_budgets(DEFAULT_TENANT)["storage|0"]["ledger"]
        assert spends == LEGACY_BUDGETS["storage|0"]["ledger"] + [
            [0.5, "storage_UG_eps0.5_seed0"]
        ]


class TestTenantIds:
    @pytest.mark.parametrize("tenant", ["acme", "a", "t-0", "x" * 64])
    def test_valid_ids_pass(self, tenant):
        assert validate_tenant_id(tenant) == tenant

    @pytest.mark.parametrize(
        "tenant", ["", "-lead", "UPPER", "a/b", "a.b", "x" * 65, "a b"]
    )
    def test_invalid_ids_raise(self, tenant):
        with pytest.raises(ValidationError):
            validate_tenant_id(tenant)

    def test_release_key_validates_its_tenant(self):
        with pytest.raises(ValidationError):
            ReleaseKey("storage", "UG", 0.5, 0, tenant="../escape")

    def test_default_tenant_keys_omit_tenant_from_payload(self):
        assert "tenant" not in ReleaseKey("storage", "UG", 0.5, 0).to_payload()
        payload = ReleaseKey("storage", "UG", 0.5, 0, tenant="acme").to_payload()
        assert payload["tenant"] == "acme"


class TestApiKeys:
    def test_round_trip_and_revocation(self, tmp_path):
        catalog = Catalog(tmp_path / "catalog.sqlite")
        token = catalog.create_api_key("acme", name="ci")
        assert token.startswith("rk_")
        assert catalog.resolve_api_key(token) == "acme"
        key_id = token[3:].split(".", 1)[0]
        assert catalog.revoke_api_key(key_id)
        with pytest.raises(AuthForbidden):
            catalog.resolve_api_key(token)

    def test_wrong_secret_is_rejected(self, tmp_path):
        catalog = Catalog(tmp_path / "catalog.sqlite")
        token = catalog.create_api_key("acme")
        key_id = token[3:].split(".", 1)[0]
        with pytest.raises(AuthForbidden):
            catalog.resolve_api_key(f"rk_{key_id}.{'0' * 48}")

    def test_resolution_cache_never_outlives_a_revocation(self, tmp_path):
        """A cached hit dies with the revoke, wherever the revoke runs.

        ``resolve_api_key`` caches successful resolutions per thread.
        Revoking through the *same* handle bumps its generation counter
        and must take effect on the very next resolve.  Revoking through
        a *different* handle ("another process") is detected by the
        ``data_version`` re-validation — forced on every resolve here by
        zeroing ``auth_cache_ttl_s``, the knob that otherwise bounds
        cross-process propagation at 100 ms.
        """
        catalog = Catalog(tmp_path / "catalog.sqlite")
        token = catalog.create_api_key("acme", name="hot")
        for _ in range(3):  # prime and hit the cache
            assert catalog.resolve_api_key(token) == "acme"
        key_id = token[3:].split(".", 1)[0]
        assert catalog.revoke_api_key(key_id)  # same handle, same thread
        with pytest.raises(AuthForbidden):
            catalog.resolve_api_key(token)

        catalog.auth_cache_ttl_s = 0.0
        other = catalog.create_api_key("acme", name="remote")
        for _ in range(3):
            assert catalog.resolve_api_key(other) == "acme"
        # Revoke through an independent handle: a different connection,
        # exactly what an admin CLI in another process would hold.
        Catalog(tmp_path / "catalog.sqlite").revoke_api_key(
            other[3:].split(".", 1)[0]
        )
        with pytest.raises(AuthForbidden):
            catalog.resolve_api_key(other)


class TestDatasetPagination:
    def test_cursors_are_stable_under_deletes_and_inserts(self, tmp_path):
        """Rows deleted or created mid-pagination never shift a page."""
        catalog = Catalog(tmp_path / "catalog.sqlite")
        for i in range(4):
            catalog.register_dataset("acme", f"d{i}", "storage")
        page1, cursor = catalog.list_datasets("acme", limit=2)
        assert [row["name"] for row in page1] == ["d0", "d1"]
        # A delete behind the cursor and an insert ahead of it.
        catalog.delete_dataset("acme", "d0")
        catalog.register_dataset("acme", "d4", "storage")
        page2, cursor = catalog.list_datasets("acme", limit=2, cursor=cursor)
        assert [row["name"] for row in page2] == ["d2", "d3"]
        page3, cursor = catalog.list_datasets("acme", limit=2, cursor=cursor)
        assert [row["name"] for row in page3] == ["d4"]
        assert cursor is None

    def test_duplicate_and_missing_names(self, tmp_path):
        catalog = Catalog(tmp_path / "catalog.sqlite")
        catalog.register_dataset("acme", "geo", "storage")
        with pytest.raises(DatasetExists):
            catalog.register_dataset("acme", "geo", "storage")
        with pytest.raises(DatasetNotFound):
            catalog.get_dataset("acme", "nope")
        with pytest.raises(DatasetNotFound):
            catalog.delete_dataset("acme", "nope")

"""Budget-ledger durability: no crash tears it, no corruption resets it.

The ledger is the service's privacy guarantee made durable: the rows of
the catalog's SQLite file (``<store_dir>/catalog.sqlite``).  Two
invariants under fault:

* **Atomicity** — a disk-full error or a crash at the spend point
  (``catalog.spend``, before the spend row is written) or the commit
  point (``catalog.commit``), or a crash that tears the commit's write
  to the log, rolls the spend back: a restart sees exactly the
  pre-spend ledger, and the next build succeeds and is charged once.
* **No silent reset** — a catalog that cannot be read or replayed either
  refuses to open or refuses all further builds; it never opens as an
  empty ledger, which would let every historic spend be repeated
  (double-spending the real privacy loss).
"""

import errno
import sqlite3

import pytest
from faultutil import N_POINTS, release_key

from repro.service import faultinject
from repro.service.catalog import CATALOG_FILE, DEFAULT_TENANT, Catalog
from repro.service.errors import BudgetRefused
from repro.service.faultinject import SimulatedCrash
from repro.service.keys import ReleaseKey
from repro.service.store import SynopsisStore

SPEND_POINTS = ["catalog.spend", "catalog.commit"]


def _store(tmp_path, **kwargs):
    options = {"n_points": N_POINTS, "dataset_budget": 2.0}
    options.update(kwargs)
    return SynopsisStore(store_dir=tmp_path, **options)


def _second_key() -> ReleaseKey:
    return ReleaseKey("storage", "UG", epsilon=0.25, seed=0)


def _ledger(tmp_path) -> dict:
    """The ledger as a fresh process would read it."""
    return Catalog(tmp_path / CATALOG_FILE).load_budgets(DEFAULT_TENANT)


def _raising(error):
    def hook(**_context):
        raise error

    return hook


class TestAtomicity:
    def test_disk_full_fails_cleanly_and_keeps_ledger(self, tmp_path):
        store = _store(tmp_path)
        store.build(release_key())
        before = _ledger(tmp_path)
        for point in SPEND_POINTS:
            disk_full = OSError(errno.ENOSPC, "injected disk full")
            with faultinject.injected(point, _raising(disk_full)):
                with pytest.raises(OSError):
                    store.build(_second_key())
            assert _ledger(tmp_path) == before  # rolled back
        # The same store builds again once space returns, charged once.
        assert store.build(_second_key())[1] is True
        spends = _ledger(tmp_path)["storage|0"]["ledger"]
        assert spends == before["storage|0"]["ledger"] + [
            [0.25, _second_key().slug()]
        ]

    @pytest.mark.parametrize("point", SPEND_POINTS)
    def test_crash_at_any_stage_never_tears_the_ledger(self, tmp_path, point):
        store = _store(tmp_path)
        store.build(release_key())
        before = _ledger(tmp_path)
        with faultinject.injected(point, _raising(SimulatedCrash(point))):
            with pytest.raises(SimulatedCrash):
                store.build(_second_key())
        # "Restart": a fresh store over the same directory sees the
        # complete pre-spend ledger.
        survivor = _store(tmp_path)
        assert survivor.ledger_corrupt is None
        assert survivor.catalog.load_budgets(DEFAULT_TENANT) == before
        # The interrupted spend was never recorded, so the budget check
        # still enforces the true remaining epsilon.
        assert survivor.build(_second_key())[1] is True
        assert survivor.budget_state()["storage|0"]["spent"] == pytest.approx(
            0.5 + 0.25
        )

    def test_short_write_then_crash_leaves_consistent_state(self, tmp_path):
        """A torn WAL append (half a spend's frames, then kill -9) is harmless.

        The crash is modelled by copying the catalog while the spend's
        transaction sits in the write-ahead log, keeping only the first
        half of the log: the commit frame is gone, so a restart must see
        the pre-spend ledger and charge the build exactly once.
        """
        live, crashed = tmp_path / "live", tmp_path / "crashed"
        store = _store(live)
        store.build(release_key())
        before = store.catalog.load_budgets(DEFAULT_TENANT)
        # Closing the only connection checkpoints the log, so the spend
        # below is the log's only transaction.
        store.catalog.close()
        with store.catalog.exclusive():
            store.catalog.record_spend(
                DEFAULT_TENANT, "storage|0", 2.0, 0.25, "torn-spend"
            )
        wal = (live / CATALOG_FILE).with_name(CATALOG_FILE + "-wal")
        torn = wal.read_bytes()
        crashed.mkdir()
        (crashed / CATALOG_FILE).write_bytes((live / CATALOG_FILE).read_bytes())
        (crashed / wal.name).write_bytes(torn[: len(torn) // 2])
        survivor = _store(crashed)
        assert survivor.ledger_corrupt is None
        assert survivor.catalog.load_budgets(DEFAULT_TENANT) == before
        assert survivor.build(_second_key())[1] is True
        assert survivor.budget_state()["storage|0"]["spent"] == pytest.approx(
            0.5 + 0.25
        )


class TestCorruptLedger:
    def test_truncated_ledger_refuses_all_builds(self, tmp_path):
        """A cut catalog never opens as a healthy, emptier ledger.

        The file is cut in every page — at its first byte, the next one,
        its middle and its last byte — so no page of the schema's layout
        goes untested.  Each cut either fails to open
        (``sqlite3.DatabaseError``), opens with ``ledger_corrupt`` set —
        every build refused, persisted releases still served — or still
        holds the whole ledger.
        """
        store = _store(tmp_path)
        store.build(release_key())
        expected = store.budget_state()
        # Closing the only connection checkpoints the WAL: the file alone
        # now holds the ledger.
        store.catalog.close()
        del store
        path = tmp_path / CATALOG_FILE
        pristine = path.read_bytes()
        # The header's big-endian page size; 1 encodes 65536.
        page_size = int.from_bytes(pristine[16:18], "big")
        page_size = 65536 if page_size == 1 else page_size
        # Offset 0 leaves an empty file, which reads as a fresh catalog
        # by design (Catalog._create_schema).
        cuts = [
            start + offset
            for start in range(0, len(pristine), page_size)
            for offset in (0, 1, page_size // 2, page_size - 1)
            if start + offset > 0
        ]
        unopenable = set()
        for cut in cuts:
            for leftover in ("-wal", "-shm"):
                path.with_name(path.name + leftover).unlink(missing_ok=True)
            path.write_bytes(pristine[:cut])
            try:
                survivor = _store(tmp_path)  # never opens an empty ledger
            except sqlite3.DatabaseError:
                unopenable.add(cut)
                continue
            state = survivor.budget_state()
            if survivor.ledger_corrupt is None:
                assert state == expected, f"cut at {cut} lost spends"
            else:
                # Anything that would spend epsilon is refused ...
                with pytest.raises(BudgetRefused, match="ledger"):
                    survivor.build(_second_key())
                with pytest.raises(BudgetRefused):
                    survivor.build(release_key(), force=True)
                # ... but serving the already-persisted release is
                # post-processing and stays available.
                assert survivor.get(release_key()) is not None
                assert survivor.build(release_key())[1] is False
            survivor.catalog.close()
        # SQLite reads a 1-byte file as an empty database; the catalog
        # must not lay a fresh schema over it.
        assert 1 in unopenable

    def test_cut_inside_the_ledger_index_refuses_to_open(self, tmp_path):
        """A cut just past the header of the ledger's index page reads
        back as an empty ledger with no SQLite error; the catalog's
        integrity check refuses to open it instead."""
        store = _store(tmp_path)
        store.build(release_key())
        store.catalog.close()
        del store
        path = tmp_path / CATALOG_FILE
        conn = sqlite3.connect(path)
        page_size = conn.execute("PRAGMA page_size").fetchone()[0]
        (root,) = conn.execute(
            "SELECT rootpage FROM sqlite_master"
            " WHERE name = 'sqlite_autoindex_ledger_1'"
        ).fetchone()
        conn.close()
        pristine = path.read_bytes()
        for leftover in ("-wal", "-shm"):
            path.with_name(path.name + leftover).unlink(missing_ok=True)
        path.write_bytes(pristine[: (root - 1) * page_size + 147])
        with pytest.raises(sqlite3.DatabaseError, match="integrity"):
            _store(tmp_path)

    def test_semantic_corruption_is_caught(self, tmp_path):
        """Entries that overdraw their own total are corruption too."""
        store = _store(tmp_path)
        store.build(release_key())
        with store.catalog.exclusive() as conn:
            conn.execute("UPDATE ledger SET epsilon = 3.0")  # total is 2.0
        survivor = _store(tmp_path)
        assert survivor.ledger_corrupt is not None
        with pytest.raises(BudgetRefused, match="ledger"):
            survivor.build(_second_key())

    def test_http_surface_reports_corrupt_ledger(
        self, tmp_path, make_service, start_server, call
    ):
        store = _store(tmp_path)
        store.build(release_key())
        with store.catalog.exclusive() as conn:
            conn.execute("UPDATE ledger SET epsilon = 'garbage'")
        service = make_service(store_dir=tmp_path)
        server = start_server(service)
        status, body, _ = call(server, "/health")
        assert status == 200
        assert body["ledger_corrupt"] is True
        status, body, _ = call(
            server,
            "/releases",
            {"dataset": "storage", "method": "UG", "epsilon": 0.25, "seed": 0},
        )
        assert status == 409
        assert body["error"] == "BudgetRefused"

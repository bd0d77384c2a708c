"""The SQLite-backed metadata catalog for the multi-tenant service tier.

One :class:`Catalog` file holds what the serving layer reads *about*
its data — never the data itself:

* **API keys** — each resolves to a tenant id, the namespace a request
  runs in.  Keys are hashed at rest (SHA-256 of the secret half; the
  plaintext token is shown exactly once, at creation) and verified with
  :func:`hmac.compare_digest` (see :mod:`repro.service.auth`).  A
  tenant is any valid id (:func:`validate_tenant_id`): it needs no row
  of its own, and the implicit ``default`` tenant serves a
  single-operator deployment (``--auth off``) with no setup.
* **the privacy ledger** — the service's only record of epsilon spent:
  per tenant and dataset instance, the budget total and every spend in
  spend order.  A spend appends one row inside a ``BEGIN IMMEDIATE``
  transaction (:meth:`Catalog.exclusive`) that also re-reads the rows it
  checks against, so two threads or server processes sharing the file
  can never interleave a double spend.

Catalog files written by older versions also hold ``tenants``,
``datasets`` and ``releases`` tables; they open as they are, and
nothing reads those tables.

**Migration.**  :meth:`Catalog.import_budgets_json` imports a
``budgets.json`` spend history — the ledger format of versions before
the catalog — *bit-for-bit*: same totals, same ``[epsilon, label]`` rows
in the same order (SQLite ``REAL`` is the same IEEE-754 double the JSON
parser produced, so nothing is re-rounded).  The import is one-shot and
idempotent: a marker row in ``meta`` records that the file was
consumed, and re-opening the store never imports it twice
(double-importing would double the recorded privacy loss) and only
reads the marker, with no write transaction.

The catalog is stdlib-only (``sqlite3``), WAL-journaled for concurrent
readers, and safe to share across threads (connections are per-thread)
and across processes (transactions serialise writers).  A catalog
opened without a path lives in a private temporary directory that is
removed once the :class:`Catalog` object is garbage-collected; every
store sharing the object keeps it alive.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import secrets
import shutil
import sqlite3
import tempfile
import threading
import time
import weakref
from contextlib import contextmanager
from pathlib import Path

from repro.service import faultinject
from repro.service.errors import AuthForbidden, ValidationError

__all__ = [
    "Catalog",
    "DEFAULT_TENANT",
    "validate_tenant_id",
]

#: The implicit tenant every unauthenticated deployment operates as.
DEFAULT_TENANT = "default"

#: Name of the catalog file inside a ``--store-dir``.
CATALOG_FILE = "catalog.sqlite"

_SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS api_keys (
    key_id      TEXT PRIMARY KEY,
    tenant_id   TEXT NOT NULL,
    secret_hash TEXT NOT NULL,
    name        TEXT NOT NULL DEFAULT '',
    created_at  REAL NOT NULL,
    revoked     INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS budget_totals (
    tenant_id TEXT NOT NULL,
    data_id   TEXT NOT NULL,
    total     REAL NOT NULL,
    PRIMARY KEY (tenant_id, data_id)
);
CREATE TABLE IF NOT EXISTS ledger (
    tenant_id TEXT NOT NULL,
    data_id   TEXT NOT NULL,
    seq       INTEGER NOT NULL,
    epsilon   REAL NOT NULL,
    label     TEXT NOT NULL,
    PRIMARY KEY (tenant_id, data_id, seq)
);
"""

#: Tenant identifiers are path components (per-tenant store subdirs) and
#: must stay slug-safe: lowercase alphanumerics plus ``-``, 1..64 chars.
_TENANT_CHARS = set("abcdefghijklmnopqrstuvwxyz0123456789-")


def validate_tenant_id(tenant: str) -> str:
    """Check a tenant id is a safe namespace token; returns it unchanged."""
    if (
        not isinstance(tenant, str)
        or not tenant
        or len(tenant) > 64
        or not set(tenant) <= _TENANT_CHARS
        or tenant[0] == "-"
    ):
        raise ValidationError(
            f"invalid tenant id {tenant!r}: use 1-64 lowercase letters, "
            "digits, or '-', not starting with '-'"
        )
    return tenant


def _hash_secret(secret: str) -> str:
    return hashlib.sha256(secret.encode("utf-8")).hexdigest()


class Catalog:
    """SQLite metadata catalog; see the module docstring for the model.

    Connections are opened per thread (SQLite connections must not hop
    threads) against one WAL-mode database file, so any number of
    catalog handles — across threads *and* processes — observe a single
    serialised history of writes.
    """

    #: How stale a cached API-key resolution may go before SQLite's
    #: ``data_version`` is re-read to detect writes from *other*
    #: processes.  Writes through this handle invalidate immediately
    #: (see ``_generation``); 0 re-validates on every resolve.
    auth_cache_ttl_s = 0.1

    def __init__(self, path: str | Path | None = None):
        if path is None:
            directory = tempfile.mkdtemp(prefix="repro-catalog-")
            weakref.finalize(self, shutil.rmtree, directory, ignore_errors=True)
            path = Path(directory) / CATALOG_FILE
        self._path = Path(path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._local = threading.local()
        # Bumped around every committed write through this handle, from
        # any thread; resolve_api_key's per-thread caches check it on
        # every hit, so an in-process revocation takes effect on the
        # very next resolve with no SQLite round trip on the hot path.
        self._generation = 0
        self._local.conn = self._create_schema()

    def _create_schema(self) -> sqlite3.Connection:
        """Create (or check) the schema; returns this thread's connection.

        A file that holds its ``schema_version`` row opens with plain
        reads, taking no write lock.  Only a file without the row takes
        one: under ``BEGIN IMMEDIATE`` it checks again and commits the
        schema *before* the switch to WAL mode, so a catalog file that
        is not empty always holds the row — concurrent first opens
        serialise on the write lock and the later ones find the schema
        in place.  A non-empty file without that row is therefore
        damaged (SQLite reads a 1-byte file as an empty database), and
        opening it raises ``sqlite3.DatabaseError`` instead of laying a
        fresh, empty ledger over the lost spends.  A non-empty file that
        fails SQLite's ``quick_check`` raises too: a truncation can cut
        an index page so that reads of the ledger return no rows and no
        error, which would replay as a healthy, emptier ledger.  A
        0-byte file is still created over: that is also what a fresh
        file looks like to a concurrent first open, between its
        ``connect`` and its schema commit.
        """
        existing = self._path.exists() and self._path.stat().st_size > 0
        conn = sqlite3.connect(self._path, timeout=30.0, isolation_level=None)
        try:
            if not self._has_schema(conn):
                conn.execute("BEGIN IMMEDIATE")
                if existing and not self._has_schema(conn):
                    raise sqlite3.DatabaseError(
                        f"{self._path} is not empty but holds no catalog "
                        "schema; refusing to create an empty ledger over it"
                    )
                for statement in filter(str.strip, _SCHEMA.split(";")):
                    conn.execute(statement)
                conn.execute(
                    "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                    ("schema_version", str(_SCHEMA_VERSION)),
                )
                conn.execute("COMMIT")
            if existing:
                problems = conn.execute("PRAGMA quick_check").fetchall()
                if problems != [("ok",)]:
                    raise sqlite3.DatabaseError(
                        f"{self._path} fails its integrity check "
                        f"({problems[0][0]}); refusing to open a ledger "
                        "that may have lost spends"
                    )
            return self._configure(conn)
        except BaseException:
            conn.close()  # rolls back an open transaction
            raise

    @staticmethod
    def _has_schema(conn: sqlite3.Connection) -> bool:
        try:
            row = conn.execute(
                "SELECT 1 FROM meta WHERE key = 'schema_version'"
            ).fetchone()
        except sqlite3.OperationalError:  # no meta table at all
            return False
        return row is not None

    @property
    def path(self) -> Path:
        return self._path

    @staticmethod
    def _configure(conn: sqlite3.Connection) -> sqlite3.Connection:
        # Switching a file into WAL mode needs an exclusive lock, and
        # SQLite answers "database is locked" at once, not after the busy
        # timeout, while another first open holds any lock: retry.
        give_up = time.monotonic() + 30.0
        while True:
            try:
                conn.execute("PRAGMA journal_mode=WAL")
                break
            except sqlite3.OperationalError as error:
                if "locked" not in str(error) or time.monotonic() > give_up:
                    raise
                time.sleep(0.005)
        conn.execute("PRAGMA synchronous=FULL")
        return conn

    def _conn(self) -> sqlite3.Connection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            # Transactions are managed explicitly (BEGIN IMMEDIATE in
            # exclusive()); autocommit otherwise.
            conn = self._configure(
                sqlite3.connect(self._path, timeout=30.0, isolation_level=None)
            )
            self._local.conn = conn
        return conn

    @contextmanager
    def exclusive(self):
        """One cross-process write transaction (``BEGIN IMMEDIATE``).

        The write lock is taken *up front*, so a check-then-spend that
        runs inside this block is atomic against every other thread and
        process sharing the catalog file.  Blocks do not nest: SQLite
        refuses a ``BEGIN`` inside an open transaction, which rolls the
        outer block back.
        """
        conn = self._conn()
        conn.execute("BEGIN IMMEDIATE")
        try:
            yield conn
            faultinject.fire("catalog.commit", path=str(self._path))
            # Bumped on both sides of COMMIT: the first bump invalidates
            # auth-cache hits racing the commit, the second invalidates
            # entries cached *during* the commit window (which read
            # pre-commit rows).  A rolled-back bump only over-invalidates.
            self._generation += 1
            conn.execute("COMMIT")
        except BaseException:
            try:
                conn.execute("ROLLBACK")
            except sqlite3.Error:
                pass
            raise
        finally:
            self._generation += 1

    def close(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None

    # ------------------------------------------------------------------
    # API keys
    # ------------------------------------------------------------------

    def create_api_key(self, tenant: str, name: str = "") -> str:
        """Mint an API key for ``tenant``; returns the one-time token.

        The token is ``rk_<key_id>.<secret>``; only the SHA-256 of the
        secret half is stored, so a catalog leak does not leak usable
        credentials.
        """
        validate_tenant_id(tenant)
        key_id = secrets.token_hex(8)
        secret = secrets.token_hex(24)
        with self.exclusive() as conn:
            conn.execute(
                "INSERT INTO api_keys (key_id, tenant_id, secret_hash, name,"
                " created_at) VALUES (?, ?, ?, ?, ?)",
                (key_id, tenant, _hash_secret(secret), name, time.time()),
            )
        return f"rk_{key_id}.{secret}"

    def revoke_api_key(self, key_id: str) -> bool:
        with self.exclusive() as conn:
            cursor = conn.execute(
                "UPDATE api_keys SET revoked = 1 WHERE key_id = ?", (key_id,)
            )
        return cursor.rowcount > 0

    def resolve_api_key(self, token: str) -> str:
        """Resolve a presented token to its tenant id.

        Raises :class:`AuthForbidden` for anything that does not match
        an active key — the message never distinguishes a bad key id
        from a bad secret from a revoked key.  The secret comparison is
        :func:`hmac.compare_digest` over the stored hash, so it leaks no
        timing signal about how much of the hash matched.

        Successful resolutions are cached per thread, keyed by the
        token's digest (never the token itself), with two freshness
        guards.  Writes through *this* handle — a revocation included,
        from any thread — bump ``_generation`` and take effect on the
        very next resolve.  Writes from *other* processes (one calling
        :meth:`revoke_api_key` on its own handle) are detected by
        re-reading SQLite's ``data_version`` pragma plus the connection's
        ``total_changes``, amortised to at most once per
        ``auth_cache_ttl_s`` (default 100 ms, the bounded cross-process
        revocation-propagation delay; 0 re-validates every resolve).
        Failures are never cached (they keep their constant-cost path).
        """
        rejection = AuthForbidden("API key is not recognised")
        if not token.startswith("rk_") or "." not in token:
            raise rejection
        conn = self._conn()
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        now = time.monotonic()
        cache = getattr(self._local, "auth_cache", None)
        if cache is not None and cache["generation"] == self._generation:
            fresh = now - cache["checked_at"] <= self.auth_cache_ttl_s
            if not fresh:
                stamp = (
                    conn.execute("PRAGMA data_version").fetchone()[0],
                    conn.total_changes,
                )
                fresh = stamp == cache["stamp"]
                if fresh:
                    cache["checked_at"] = now
            if fresh:
                tenant = cache["entries"].get(digest)
                if tenant is not None:
                    return tenant
            else:
                cache = None
        else:
            cache = None
        if cache is None:
            cache = {
                "generation": self._generation,
                "stamp": (
                    conn.execute("PRAGMA data_version").fetchone()[0],
                    conn.total_changes,
                ),
                "checked_at": now,
                "entries": {},
            }
            self._local.auth_cache = cache
        key_id, _, secret = token[3:].partition(".")
        row = conn.execute(
            "SELECT secret_hash, tenant_id, revoked FROM api_keys"
            " WHERE key_id = ?",
            (key_id,),
        ).fetchone()
        if row is None:
            # Burn the comparison anyway so present-vs-absent key ids
            # cost the same.
            hmac.compare_digest(_hash_secret(secret), _hash_secret(""))
            raise rejection
        stored_hash, tenant, revoked = row
        if not hmac.compare_digest(stored_hash, _hash_secret(secret)):
            raise rejection
        if revoked:
            raise rejection
        if len(cache["entries"]) < 1024:  # bound a hostile token flood
            cache["entries"][digest] = tenant
        return tenant

    # ------------------------------------------------------------------
    # The privacy ledger
    # ------------------------------------------------------------------

    def load_budgets(
        self, tenant: str, data_id: str | None = None
    ) -> dict[str, dict]:
        """The tenant's ledger, or one dataset instance's, in spend order.

        ``{data_id: {"total": float, "ledger": [[epsilon, label], ...]}}``.
        Rows are read before totals: a spend writes its total no later
        than its row and nothing deletes totals, so every row read here
        finds its total even when a spend commits between the two reads.
        """
        where, args = "WHERE tenant_id = ?", (tenant,)
        if data_id is not None:
            where, args = where + " AND data_id = ?", (tenant, data_id)
        conn = self._conn()
        budgets: dict[str, dict] = {}
        for found, epsilon, label in conn.execute(
            f"SELECT data_id, epsilon, label FROM ledger {where}"
            " ORDER BY data_id, seq",
            args,
        ):
            budgets.setdefault(found, {"total": 0.0, "ledger": []})[
                "ledger"
            ].append([epsilon, label])
        for found, total in conn.execute(
            f"SELECT data_id, total FROM budget_totals {where}", args
        ):
            budgets.setdefault(found, {"total": 0.0, "ledger": []})["total"] = total
        return budgets

    def record_spend(
        self, tenant: str, data_id: str, total: float, epsilon: float, label: str
    ) -> None:
        """Append one spend to a dataset instance's ledger.

        Call inside :meth:`exclusive`, after checking the spend against
        :meth:`load_budgets` in the same transaction.  ``total`` is
        recorded with the instance's first spend; later spends keep the
        recorded total, so a restart with a laxer budget cannot weaken
        the guarantee already promised.
        """
        faultinject.fire("catalog.spend", tenant=tenant, data_id=data_id)
        self._append(tenant, data_id, total, [(epsilon, label)])

    def _append(self, tenant: str, data_id: str, total: float, rows) -> None:
        conn = self._conn()
        conn.execute(
            "INSERT OR IGNORE INTO budget_totals (tenant_id, data_id, total)"
            " VALUES (?, ?, ?)",
            (tenant, data_id, float(total)),
        )
        for epsilon, label in rows:
            conn.execute(
                "INSERT INTO ledger (tenant_id, data_id, seq, epsilon, label)"
                " SELECT ?, ?, COALESCE(MAX(seq) + 1, 0), ?, ? FROM ledger"
                " WHERE tenant_id = ? AND data_id = ?",
                (tenant, data_id, float(epsilon), str(label), tenant, data_id),
            )

    def import_budgets_json(self, tenant: str, path: str | Path) -> bool:
        """One-shot idempotent import of a ``budgets.json`` spend history.

        Returns ``True`` when the file was imported now, ``False`` when
        the marker shows it was already consumed (or the file does not
        exist).  The import happens in the same transaction that sets
        the marker, so a crash mid-import replays cleanly and a
        completed import can never run twice.  Raises ``ValueError``
        for a file that parses but is not a version-1 ledger — a
        corrupt history must never be silently dropped.
        """
        path = Path(path)
        found = path.exists()
        marker = f"imported_budgets_json:{tenant}"

        def imported(conn) -> bool:
            query = "SELECT 1 FROM meta WHERE key = ?"
            return conn.execute(query, (marker,)).fetchone() is not None

        # Every open after the first finds the marker without taking the
        # write lock; the check under the lock decides a race between
        # first opens.
        if imported(self._conn()):
            return False
        with self.exclusive() as conn:
            if imported(conn):
                return False
            if found:
                payload = json.loads(path.read_text(encoding="utf-8"))
                if payload.get("version") != 1:
                    raise ValueError(
                        "unsupported budget ledger version "
                        f"{payload.get('version')!r}"
                    )
                for data_id, state in payload["budgets"].items():
                    self._append(tenant, data_id, state["total"], state["ledger"])
            # Set even when there is no file: the tenant is catalog-native
            # from day one, and a budgets.json that appears later (copied
            # in from an old deployment) is never mistaken for history.
            conn.execute(
                "INSERT INTO meta (key, value) VALUES (?, ?)",
                (marker, str(path)),
            )
        return found

"""The synopsis store: build once, serve many.

:class:`SynopsisStore` owns the lifecycle of released synopses:

* **build** — fit a registered method on a registry dataset instance,
  deterministically from the release key;
* **cache** — keep hot releases in memory under an LRU policy bounded both
  by entry count and by total released-state bytes
  (:func:`~repro.core.serialization.synopsis_nbytes`);
* **persist** — write every build through to ``store_dir`` as the same
  checksummed artifact :mod:`repro.core.serialization` writes, so an
  evicted release is reloaded from disk instead of being re-fit.  The
  artifact is page-aligned and uncompressed: reloads memory-map it
  read-only, so ``--workers N`` processes serving the same release share
  one set of physical pages (and the release's engine is restored over
  its sealed buffers without a per-worker rebuild); eviction simply
  drops the views and lets the page cache decide.  A build prepares the
  release's engine once and seals its buffers into the archive, so the
  first query after a build or an ingest refresh finds it ready too.
  Compressed v1 archives written by older versions still load (their
  engines are built on first use), so a directory holding both formats
  is served transparently;
* **account** — charge every fit against a per-dataset-instance
  :class:`~repro.privacy.budget.PrivacyBudget` and refuse builds that
  would overdraw it (:class:`~repro.service.errors.BudgetRefused`).

The privacy model: fitting a synopsis *reads the sensitive data* and costs
its epsilon under sequential composition; serving, caching, persisting and
reloading are post-processing of already-released state and cost nothing.
The ledger is the :class:`~repro.service.catalog.Catalog`'s: a store
with a ``store_dir`` keeps it in ``<store_dir>/catalog.sqlite``, so
budget exhaustion survives restarts — a store pointed at the same
directory cannot launder budget by restarting.  Every spend is one
``BEGIN IMMEDIATE`` transaction that replays the dataset instance's rows
and appends one, so threads and ``--workers N`` processes sharing the
catalog cannot interleave a check-then-spend into a double spend.

When a :class:`~repro.service.ingest.IngestManager` is attached
(:meth:`SynopsisStore.set_ingest`), a build reads the manager's epoch
for the key: the first ``epoch`` durably staged points of its dataset
instance, which it incorporates, salts its noise stream with (see
:meth:`~repro.service.keys.ReleaseKey.build_rng`) and charges the
ledger under (``slug@e{epoch}``).  Epoch labels make crash replay
*free*: a restart that re-runs a refresh whose spend already reached
the ledger skips the charge and deterministically refits the identical
release — zero double spend, bit-identical archives.

All public methods are thread-safe: one re-entrant lock guards the
bookkeeping, while fits run outside it under a per-key in-flight guard,
so reads never wait longer than a cache lookup even during a slow build.
"""

from __future__ import annotations

import os
import sqlite3
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.core.serialization import (
    synopsis_from_path,
    synopsis_nbytes,
    synopsis_to_bytes,
)
from repro.core.synopsis import Synopsis
from repro.datasets.registry import get_spec
from repro.queries.engine import make_engine
from repro.privacy.budget import BudgetExceededError, PrivacyBudget
from repro.service import faultinject
from repro.service.catalog import CATALOG_FILE, Catalog, validate_tenant_id
from repro.service.errors import (
    BudgetRefused,
    ReleaseNotFound,
    ReleaseQuarantined,
)
from repro.service.keys import ReleaseKey, make_builder
from repro.service.telemetry import Deadline

__all__ = ["StoreStats", "SynopsisStore"]

#: Suffix appended to unreadable files when they are quarantined.  The
#: bytes are preserved for forensics; the name no longer matches any
#: pattern the store parses, so a corrupt file is handled exactly once.
_QUARANTINE_SUFFIX = ".corrupt"


def _fsync_directory(directory: Path) -> None:
    """fsync a directory so a rename into it survives power loss."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _atomic_write(path: Path, data: bytes) -> None:
    """Crash-safe archive write: temp file + fsync + rename + dir fsync.

    After a crash (``kill -9``, power loss) at *any* byte boundary the
    path holds either the complete previous contents or the complete new
    ones — never a torn mix.  The ``archive.write`` / ``.fsync`` /
    ``.replace`` fault points let the harness simulate disk-full, short
    writes, and crashes at each stage.  On ordinary I/O errors the temp
    file is removed; :class:`~repro.service.faultinject.SimulatedCrash`
    deliberately leaves the debris a real crash would.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        faultinject.fire("archive.write", path=str(tmp), data=data)
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            faultinject.fire("archive.fsync", path=str(tmp))
            os.fsync(handle.fileno())
        faultinject.fire("archive.replace", path=str(path))
        os.replace(tmp, path)
    except OSError:
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            pass
        raise
    _fsync_directory(path.parent)


@dataclass
class StoreStats:
    """Operational counters, exposed by the HTTP adapter's ``/releases``."""

    hits: int = 0
    misses: int = 0
    builds: int = 0
    loads: int = 0
    evictions: int = 0
    refusals: int = 0
    quarantined: int = 0

    def to_payload(self) -> dict:
        return asdict(self)


@dataclass
class _Entry:
    synopsis: Synopsis
    nbytes: int
    #: Size of the read-only archive mapping backing the synopsis (v2
    #: reloads); 0 for built-in-process and v1-loaded releases, whose
    #: arrays are private heap copies.
    mapped_nbytes: int = 0


def _process_rss_bytes() -> int | None:
    """This process's resident set size, or ``None`` off-Linux.

    Read from ``/proc/self/status`` (``VmRSS``) so the serving layer can
    report it without a dependency; note RSS counts pages *shared* with
    other workers too — the per-release ``mapped_bytes`` alongside it is
    what a mapped release can share.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        return None
    return None


class SynopsisStore:
    """Builds, caches, persists, and budget-guards released synopses.

    Parameters
    ----------
    store_dir:
        Directory for persisted releases and, unless ``catalog`` is
        given, the catalog holding the budget ledger.  ``None`` keeps the
        releases in memory (evicted releases must be re-fit, which still
        charges budget — persistent stores are strictly better for
        production use) and the ledger in a private temporary catalog.
    dataset_budget:
        Total epsilon each dataset instance ``(dataset, seed)`` may spend
        across *all* builds, ever (sequential composition).
    max_entries:
        LRU bound on the number of in-memory releases.
    max_bytes:
        LRU bound on the summed released-state bytes in memory
        (:func:`~repro.core.serialization.synopsis_nbytes`).  The most
        recently used release is always retained even when it alone
        exceeds the bound.  Prepared query engines are not counted here:
        budget for them separately (they are roughly the size of the
        released state again, and a release's engine lives only as long
        as its release object, so it goes once the store evicts the
        release and no request still holds it).
    n_points:
        Optional dataset-size override applied to every build (the
        registry default otherwise).  Part of the store configuration, not
        the key, so one store always serves consistently sized data.
    catalog:
        The :class:`~repro.service.catalog.Catalog` that holds the
        ledger.  By default the store opens ``<store_dir>/catalog.sqlite``,
        or a private temporary catalog when ``store_dir`` is ``None``.
        With a ``store_dir``, a ``budgets.json`` spend history left by
        an older version is imported bit-for-bit, exactly once.
    tenant:
        The tenant namespace this store serves (ledger scope in the
        catalog, stamp applied to every key).  The default keeps
        single-tenant deployments byte-identical to before tenancy.
    """

    def __init__(
        self,
        store_dir: str | Path | None = None,
        dataset_budget: float = 4.0,
        max_entries: int = 16,
        max_bytes: int = 512 * 1024 * 1024,
        n_points: int | None = None,
        catalog=None,
        tenant: str = "default",
    ):
        if dataset_budget <= 0:
            raise ValueError(f"dataset_budget must be positive, got {dataset_budget}")
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self._store_dir = Path(store_dir) if store_dir is not None else None
        self._dataset_budget = float(dataset_budget)
        self._max_entries = int(max_entries)
        self._max_bytes = int(max_bytes)
        self._n_points = n_points
        self._cache: OrderedDict[ReleaseKey, _Entry] = OrderedDict()
        self._cached_bytes = 0
        self._lock = threading.RLock()
        self._building: set[ReleaseKey] = set()
        self._loading: set[ReleaseKey] = set()
        self._inflight_done = threading.Condition(self._lock)
        self.stats = StoreStats()
        self._quarantined: dict[ReleaseKey, str] = {}
        self._ledger_corrupt: str | None = None
        self._ingest = None  # attached via set_ingest()
        self._tenant = validate_tenant_id(tenant)
        if self._store_dir is not None:
            self._store_dir.mkdir(parents=True, exist_ok=True)
            self._sweep_crash_debris()
        if catalog is None:
            catalog = Catalog(
                self._store_dir / CATALOG_FILE
                if self._store_dir is not None
                else None
            )
        self._catalog = catalog
        if self._store_dir is not None:
            # One-shot, idempotent: a pre-catalog budgets.json spend
            # history becomes catalog rows bit-for-bit; the marker in
            # the catalog's meta table stops a second import from
            # doubling the recorded privacy loss.
            catalog.import_budgets_json(
                self._tenant, self._store_dir / "budgets.json"
            )
        # Replay every row once up front, so a ledger that cannot be
        # replayed refuses builds (and shows on /health) from the start.
        self._replay()

    def _sweep_crash_debris(self) -> None:
        """Remove temp files a crash mid-write left behind.

        Every durable write goes through temp + rename, so a ``*.tmp``
        file is by construction an incomplete artifact from a dead
        process — never live state.  Sweeping at init keeps the debris
        from accumulating and from ever being mistaken for a release.
        """
        for stale in self._store_dir.glob("*.tmp"):
            try:
                stale.unlink()
            except OSError:
                continue

    def set_ingest(self, ingest) -> None:
        """Attach a streaming-ingestion manager.

        The manager supplies a build context per key — the epoch, the
        durably staged points it covers, and its spend label — and is
        notified after each successful release so it can commit a WAL
        marker.  Duck-typed (``build_context(key)`` /
        ``note_released(key, context)``) to keep the store importable
        without the ingest subsystem.
        """
        with self._lock:
            self._ingest = ingest

    # ------------------------------------------------------------------
    # Lookup and build
    # ------------------------------------------------------------------

    def get(self, key: ReleaseKey, deadline: Deadline | None = None) -> Synopsis:
        """Return the release for ``key`` from memory or disk.

        Raises :class:`ReleaseNotFound` when the release has never been
        built (serving never implicitly spends privacy budget) and
        :class:`ReleaseQuarantined` when its archive failed to load and
        was quarantined (rebuild to restore).  Disk reloads run outside
        the lock (guarded per key) so one slow decompress never stalls
        cache hits for other keys; a request for a key whose fit is in
        flight waits for that result, bounded by ``deadline``.
        """
        key = key.with_tenant(self._tenant)
        synopsis = self._lookup_or_load(key, deadline)
        if synopsis is None:
            with self._lock:
                reason = self._quarantined.get(key)
            if reason is not None:
                raise ReleaseQuarantined(
                    f"the persisted archive for {key.slug()!r} was corrupt "
                    f"and has been quarantined ({reason}); rebuild it "
                    "(POST /releases) to restore service for this key"
                )
            raise ReleaseNotFound(
                f"no release for {key.slug()!r}; build it first (POST /releases)"
            )
        return synopsis

    def _wait_inflight(self, deadline: Deadline | None) -> None:
        """One bounded wait on the in-flight condition (lock held)."""
        if deadline is None:
            self._inflight_done.wait()
        else:
            deadline.check("waiting for an in-flight build or reload")
            self._inflight_done.wait(deadline.remaining())

    def _lookup_or_load(
        self, key: ReleaseKey, deadline: Deadline | None = None
    ) -> Synopsis | None:
        """Cache lookup with per-key guarded disk reload; ``None`` if absent.

        Loads and builds of the same key are mutually exclusive: a reload
        never races a forced rebuild into inserting a stale synopsis over
        the fresh one.  An archive that fails to parse — truncated, bit
        flipped, checksum mismatch — is quarantined (renamed to
        ``*.corrupt``) instead of crashing the request, and the key is
        remembered so later reads answer 503 rather than rediscovering
        the corpse.
        """
        with self._lock:
            while True:
                entry = self._cache.get(key)
                if entry is not None:
                    self._cache.move_to_end(key)
                    self.stats.hits += 1
                    return entry.synopsis
                if key in self._loading or key in self._building:
                    # Another thread is reloading or fitting this key;
                    # its result will land in the cache.
                    self._wait_inflight(deadline)
                    continue
                break
            self.stats.misses += 1
            path = self._release_path(key)
            if path is None or not path.exists():
                return None
            self._loading.add(key)
        try:
            # Path-based load: the archive is memory-mapped (workers
            # share pages) instead of double-buffering the file in memory.
            synopsis = synopsis_from_path(path)
        except Exception as error:
            # The archive is unreadable.  Quarantine it: rename preserves
            # the bytes for forensics while guaranteeing the file is never
            # parsed (and never crashes a request) again.
            self._quarantine_archive(path, key, error)
            with self._lock:
                self._loading.discard(key)
                self._inflight_done.notify_all()
            return None
        except BaseException:
            with self._lock:
                self._loading.discard(key)
                self._inflight_done.notify_all()
            raise
        with self._lock:
            try:
                self.stats.loads += 1
                self._insert(key, synopsis)
            finally:
                # Always clear the in-flight marker: leaving it would
                # deadlock every later request for this key.
                self._loading.discard(key)
                self._inflight_done.notify_all()
        return synopsis

    def build(
        self,
        key: ReleaseKey,
        force: bool = False,
        deadline: Deadline | None = None,
    ) -> tuple[Synopsis, bool]:
        """Return the release for ``key``, fitting it if necessary.

        Returns ``(synopsis, built)`` where ``built`` says whether a fit
        (and hence a budget spend) happened.  ``force=True`` refits even
        when a cached/persisted release exists — e.g. after raising
        ``n_points`` — and is charged like any other build.  A key whose
        archive was quarantined is rebuilt here (charged like any build),
        which clears the quarantine.

        Raises :class:`BudgetRefused`, before touching the sensitive
        data, when the dataset instance's remaining budget cannot cover
        ``key.epsilon`` — or, unconditionally, when the budget ledger
        itself was found corrupt: with the spending history unprovable,
        the only safe assumption is that nothing remains.

        The fit itself runs *outside* the store lock so concurrent reads
        are never stalled by a build.  The epsilon is reserved (spent and
        persisted) under the lock beforehand: the fit draws noise against
        that epsilon, so a crashed fit stays charged — conservative, and
        it prevents concurrent builds from overdrawing between check and
        fit.  A concurrent non-forced build of the same key waits for the
        in-flight fit instead of double-spending.  ``deadline`` bounds
        the waits and is checked before the fit starts.

        With an ingest manager attached, the build incorporates the
        staged streamed points and charges under the manager's epoch
        label; a spend whose epoch label is *already* in the ledger is
        skipped entirely — that is the crash-replay path, where the
        charge landed before the crash and the refit is a free,
        deterministic reconstruction of the identical release.
        """
        key = key.with_tenant(self._tenant)
        if not force:
            # Pre-check outside the store lock: serves the common
            # repeat-build case, including a disk reload, without
            # stalling other requests.
            synopsis = self._lookup_or_load(key, deadline)
            if synopsis is not None:
                return synopsis, False
        # After the pre-check, so a cache hit copies no staged points;
        # outside the store lock, because the manager holds its own lock
        # while it calls get() (taking the two in the other order could
        # deadlock).
        ingest = self._ingest
        context = ingest.build_context(key) if ingest is not None else None
        with self._lock:
            while True:
                if not force:
                    # Memory-only re-check: a load cannot be in flight
                    # past this point (the loop below excludes it), and
                    # hitting disk here would hold the lock through a
                    # decompress.
                    entry = self._cache.get(key)
                    if entry is not None:
                        self._cache.move_to_end(key)
                        self.stats.hits += 1
                        return entry.synopsis, False
                if key not in self._building and key not in self._loading:
                    break
                # Another thread is fitting or reloading this key; wait
                # so same-key loads and builds never interleave.
                self._wait_inflight(deadline)
            spend_label = (
                context.spend_label(key) if context is not None else key.slug()
            )
            with self._catalog.exclusive():
                # The write lock is held from here to commit, so the rows
                # replayed below are the ones the new row lands after —
                # check-then-spend is atomic across threads and processes.
                budget = self._replay(key.data_id).get(
                    key.data_id, PrivacyBudget(self._dataset_budget)
                )
                if self._ledger_corrupt is not None:
                    self.stats.refusals += 1
                    raise BudgetRefused(
                        f"the budget ledger is corrupt ({self._ledger_corrupt}); "
                        "the spending history cannot be proven, so all builds "
                        "are refused — restore the catalog or point the store "
                        "at a fresh directory"
                    )
                already_charged = context is not None and any(
                    entry.label == spend_label for entry in budget.ledger
                )
                if not already_charged:
                    if not budget.can_spend(key.epsilon):
                        self.stats.refusals += 1
                        raise BudgetRefused(
                            f"building {key.slug()!r} needs "
                            f"epsilon={key.epsilon:g} but dataset instance "
                            f"{key.data_id!r} has only "
                            f"{budget.remaining:g} of {budget.total:g} left "
                            f"(spent {budget.spent:g} across "
                            f"{len(budget.ledger)} "
                            f"release(s)); serve an existing release instead"
                        )
                    if deadline is not None:
                        deadline.check("reserving budget for the build")
                    self._catalog.record_spend(
                        self._tenant,
                        key.data_id,
                        budget.total,
                        key.epsilon,
                        spend_label,
                    )
            self._building.add(key)
        try:
            faultinject.fire("store.fit", key=key)
            if deadline is not None:
                deadline.check("fitting the release")
            spec = get_spec(key.dataset)
            dataset = spec.make(n=self._n_points, rng=key.seed)
            epoch = 0
            if context is not None:
                epoch = context.epoch
                dataset = dataset.extend(context.points)
            builder = make_builder(key.method)
            synopsis = builder.fit(dataset, key.epsilon, key.build_rng(epoch))
            # The release's one engine, prepared once: the archive writer
            # seals its buffers, and every later answer reads it.
            make_engine(synopsis)
            self._persist(key, synopsis)
        except BaseException:
            with self._lock:
                self._building.discard(key)
                self._inflight_done.notify_all()
            raise
        with self._lock:
            try:
                self.stats.builds += 1
                self._insert(key, synopsis)
                # A fresh, persisted release supersedes any quarantined
                # predecessor: the key serves again.
                self._quarantined.pop(key, None)
            finally:
                # Always clear the in-flight marker: leaving it would
                # deadlock every later request for this key.
                self._building.discard(key)
                self._inflight_done.notify_all()
        if ingest is not None and context is not None:
            # Commit the release to the ingestion log *after* the archive
            # and ledger are durable: a crash before this marker replays
            # into a free, bit-identical re-release (the epoch label is
            # already charged), after it into a clean no-op.
            ingest.note_released(key, context)
        return synopsis, True

    def for_tenant(self, tenant: str) -> "SynopsisStore":
        """A sibling store serving ``tenant`` with this store's config.

        Archives partition under ``<store_dir>/tenants/<tenant>``; the
        catalog (shared, so siblings of an in-memory store keep its
        temporary file alive) scopes the ledger rows by tenant id.  Call
        on the *default* store — its directory is the partition root.
        """
        if tenant == self._tenant:
            return self
        store_dir = None
        if self._store_dir is not None:
            store_dir = self._store_dir / "tenants" / tenant
        return SynopsisStore(
            store_dir=store_dir,
            dataset_budget=self._dataset_budget,
            max_entries=self._max_entries,
            max_bytes=self._max_bytes,
            n_points=self._n_points,
            catalog=self._catalog,
            tenant=tenant,
        )

    def evict(self, key: ReleaseKey) -> bool:
        """Drop a release from the in-memory cache (disk copy untouched)."""
        key = key.with_tenant(self._tenant)
        with self._lock:
            entry = self._cache.pop(key, None)
            if entry is None:
                return False
            self._cached_bytes -= entry.nbytes
            self.stats.evictions += 1
            return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def cached_keys(self) -> list[ReleaseKey]:
        """Keys currently held in memory, least recently used first."""
        with self._lock:
            return list(self._cache)

    def persisted_keys(self) -> list[ReleaseKey]:
        """Keys with an artifact on disk (empty for in-memory stores)."""
        if self._store_dir is None:
            return []
        keys = []
        for path in sorted(self._store_dir.glob("*.npz")):
            try:
                # Slugs never carry the tenant (archives live in the
                # tenant's own directory); stamp it back on so persisted
                # keys compare equal to request keys.
                keys.append(
                    ReleaseKey.from_slug(path.stem).with_tenant(self._tenant)
                )
            except Exception:
                continue  # unrelated file in the store directory
        return keys

    def cached_bytes(self) -> int:
        with self._lock:
            return self._cached_bytes

    @property
    def tenant(self) -> str:
        """The tenant namespace this store serves."""
        return self._tenant

    @property
    def store_dir(self) -> Path | None:
        """This store's persistence directory (``None`` for in-memory)."""
        return self._store_dir

    @property
    def catalog(self) -> Catalog:
        """The metadata catalog holding this store's budget ledger."""
        return self._catalog

    def memory_payload(self) -> dict:
        """Process-memory view of the cache (for ``/health``).

        ``mapped`` lists, per cached release, the bytes served from a
        read-only archive mapping — pages the kernel shares across
        forked workers, so they cost roughly ``1/N``-th of their size
        per worker.  ``rss_bytes`` is this process's total resident set
        (``None`` off-Linux); private (v1 or freshly built) releases
        appear only there.
        """
        with self._lock:
            mapped = {
                key.slug(): entry.mapped_nbytes
                for key, entry in self._cache.items()
                if entry.mapped_nbytes
            }
        return {
            "rss_bytes": _process_rss_bytes(),
            "mapped_bytes": sum(mapped.values()),
            "mapped": mapped,
        }

    def quarantined_keys(self) -> dict[ReleaseKey, str]:
        """Keys whose archives were quarantined, with the load error."""
        with self._lock:
            return dict(self._quarantined)

    @property
    def ledger_corrupt(self) -> str | None:
        """Why the budget ledger was quarantined (``None`` when healthy)."""
        return self._ledger_corrupt

    def budget_state(self) -> dict[str, dict]:
        """Per-dataset-instance budget summary, read from the catalog
        (for ``GET /releases``); empty when the ledger is corrupt."""
        return {
            data_id: {
                "total": budget.total,
                "spent": budget.spent,
                "remaining": budget.remaining,
                "releases": [entry.label for entry in budget.ledger],
            }
            for data_id, budget in sorted(self._replay().items())
        }

    def to_payload(self) -> dict:
        """Full JSON-friendly store state."""
        with self._lock:
            payload = {
                "cached": [key.to_payload() for key in self._cache],
                "cached_bytes": self._cached_bytes,
                "max_entries": self._max_entries,
                "max_bytes": self._max_bytes,
                "dataset_budget": self._dataset_budget,
                "stats": self.stats.to_payload(),
                "quarantined": {
                    key.slug(): reason
                    for key, reason in sorted(
                        self._quarantined.items(), key=lambda item: item[0].slug()
                    )
                },
            }
        # The ledger read and the directory scan do disk I/O; run them
        # outside the lock so a slow read never stalls cache hits.
        payload["budgets"] = self.budget_state()
        payload["ledger_corrupt"] = self._ledger_corrupt
        payload["persisted"] = [key.to_payload() for key in self.persisted_keys()]
        return payload

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _insert(self, key: ReleaseKey, synopsis: Synopsis) -> None:
        previous = self._cache.pop(key, None)
        if previous is not None:
            self._cached_bytes -= previous.nbytes
        entry = _Entry(
            synopsis,
            synopsis_nbytes(synopsis),
            getattr(synopsis, "mapped_nbytes", 0),
        )
        self._cache[key] = entry
        self._cached_bytes += entry.nbytes
        while len(self._cache) > 1 and (
            len(self._cache) > self._max_entries
            or self._cached_bytes > self._max_bytes
        ):
            _, evicted = self._cache.popitem(last=False)
            self._cached_bytes -= evicted.nbytes
            self.stats.evictions += 1

    def _release_path(self, key: ReleaseKey) -> Path | None:
        if self._store_dir is None:
            return None
        return self._store_dir / f"{key.slug()}.npz"

    def _persist(self, key: ReleaseKey, synopsis: Synopsis) -> None:
        """Crash-safely write the release artifact (checksummed bytes).

        A reader racing a forced rebuild, or a crash mid-write, must
        never observe a half-written archive: the checksummed payload is
        written to a temp file, fsync'd, renamed over the target, and
        the directory entry fsync'd (see :func:`_atomic_write`).
        """
        path = self._release_path(key)
        if path is None:
            return
        _atomic_write(path, synopsis_to_bytes(synopsis))

    def _quarantine_archive(
        self, path: Path, key: ReleaseKey, error: Exception
    ) -> None:
        """Move an unreadable archive aside and record why."""
        reason = f"{type(error).__name__}: {error}"
        try:
            os.replace(path, path.with_name(path.name + _QUARANTINE_SUFFIX))
        except OSError:
            # Racing quarantines / an already-vanished file: the key is
            # marked either way, which is what stops the crash loop.
            pass
        with self._lock:
            self.stats.quarantined += 1
            self._quarantined[key] = reason

    def _replay(self, data_id: str | None = None) -> dict[str, PrivacyBudget]:
        """Replay the tenant's ledger rows (one dataset instance's, or all).

        Rows that cannot be read or replayed — non-numeric values, or
        spends that overdraw their own total — set :attr:`ledger_corrupt`
        and replay as an empty mapping.  The flag makes *all* builds
        refuse, so that mapping is never taken for an empty ledger,
        which would let every past spend be repeated; serving persisted
        releases is post-processing and stays available.
        """
        try:
            budgets = {}
            for found, state in self._catalog.load_budgets(
                self._tenant, data_id
            ).items():
                # Keep the persisted total: weakening it would break the
                # guarantee already promised to the data's owners.
                budget = PrivacyBudget(float(state["total"]))
                for epsilon, label in state["ledger"]:
                    budget.spend(float(epsilon), str(label))
                budgets[found] = budget
        except (sqlite3.Error, ValueError, TypeError, BudgetExceededError) as error:
            self._ledger_corrupt = f"{type(error).__name__}: {error}"
            return {}
        return budgets

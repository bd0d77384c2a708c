"""Streaming ingestion: durable staging, drift tracking, re-release policy.

:class:`IngestManager` is the service-tier owner of dataset evolution.
Its contract, end to end:

* **Durability first.**  Every ``POST /ingest`` batch is appended to the
  per-dataset :class:`~repro.service.wal.WriteAheadLog` *before* any
  in-memory state changes.  An acknowledged batch survives ``kill -9``;
  an unacknowledged one is truncated on replay and the client's retry
  (same ``batch_id``) restores it exactly once.

* **Build-vs-fill drift.**  Released synopses are static summaries of
  the data at fit time.  As points stream in, the manager *fills* them
  into the release's own partition (:meth:`~repro.core.synopsis.
  Synopsis.drift_cells`) and compares the fill distribution against the
  distribution the release itself predicts for the same cells — the
  build-vs-fill comparison of Dasu et al.'s kdq-tree change detector,
  with total-variation distance as the scalar drift signal.  The fill
  side is an exact histogram of the staged points, so the drift value
  is a statistic of private data: it only gates refreshes and appears
  in no payload (ack, ``/health`` or ``/query``).

* **Refresh policy.**  A release is re-fit through the normal
  :class:`~repro.service.store.SynopsisStore` path (budget ledger and
  all) when it has pending points and either drift crosses
  ``drift_threshold`` or the oldest pending point is older than
  ``staleness_ms``.  Refreshes spend *real* epsilon, so they are capped:
  at most ``epoch_budget_fraction`` of each dataset instance's total
  budget may go to ingest-triggered re-releases.  A refresh the budget
  cannot cover is *refused* — the batch stays durably staged, the last
  good release keeps serving (marked stale), and the refusal is reported
  to the client (HTTP 409) and on ``/health``.

* **Crash-safe exactly-once accounting.**  A refresh reads one epoch,
  the staged count when it starts, charges the ledger under the label
  ``slug@e{epoch}`` and, after the new archive is durable, commits that
  epoch as a WAL marker.  Replay compares ledger epochs against WAL
  markers: a charge with no marker means the crash hit between spend
  and commit, and the release is deterministically re-fit at the
  charged epoch — the store skips the already-present label, the
  epoch-salted noise stream reproduces bit-identical state, and the
  marker finally lands.  Every crash point therefore converges to the
  no-crash state with zero double-spend.

Fault points: ``ingest.refresh`` fires at the start of each refresh
attempt; ``wal.append`` / ``wal.fsync`` instrument the log writes.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro.service import faultinject
from repro.service.errors import BudgetRefused, ServiceError
from repro.service.keys import ReleaseKey
from repro.service.wal import (
    DataRecord,
    MarkerRecord,
    WriteAheadLog,
    wal_path,
)

__all__ = ["BuildContext", "IngestManager", "IngestStats"]

#: Points per chunk when histogramming a batch over drift cells; bounds
#: the (points x cells) containment matrix to a few MB.
_HISTOGRAM_CHUNK = 4096


@dataclass(frozen=True)
class BuildContext:
    """The data state one build reads: the first ``epoch`` staged points.

    ``epoch`` salts the noise stream (see
    :meth:`~repro.service.keys.ReleaseKey.build_rng`), names the ledger
    charge (:meth:`spend_label`) and is what the post-release WAL marker
    records; ``points`` is that log-ordered prefix, to
    :meth:`~repro.core.dataset.GeoDataset.extend` the base data with.
    """

    epoch: int
    points: np.ndarray

    def spend_label(self, key: ReleaseKey) -> str:
        """The idempotent ledger label of this build's charge."""
        return f"{key.slug()}@e{self.epoch}"


def _epoch_charge(label: str) -> tuple[ReleaseKey, int] | None:
    """The key and epoch a ledger label :meth:`BuildContext.spend_label`
    wrote, or ``None`` for any other label (a first build's bare slug)."""
    slug, sep, epoch = label.rpartition("@e")
    if not sep:
        return None
    try:
        return ReleaseKey.from_slug(slug), int(epoch)
    except (ServiceError, ValueError):
        return None


@dataclass
class IngestStats:
    """Operational counters, exposed on ``/health``."""

    batches: int = 0
    duplicate_batches: int = 0
    points: int = 0
    refreshes: int = 0
    refresh_refusals: int = 0
    replayed_batches: int = 0
    replayed_markers: int = 0
    recovered_releases: int = 0
    truncated_bytes: int = 0

    def to_payload(self) -> dict:
        return asdict(self)


def _histogram(points: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    """Count points per drift cell (first-match containment, chunked)."""
    counts = np.zeros(len(boxes))
    x_lo, y_lo, x_hi, y_hi = boxes.T
    for start in range(0, len(points), _HISTOGRAM_CHUNK):
        chunk = points[start : start + _HISTOGRAM_CHUNK]
        x = chunk[:, 0:1]
        y = chunk[:, 1:2]
        inside = (x >= x_lo) & (x <= x_hi) & (y >= y_lo) & (y <= y_hi)
        has_cell = inside.any(axis=1)
        first = np.argmax(inside, axis=1)[has_cell]
        np.add.at(counts, first, 1.0)
    return counts


class _DriftTracker:
    """Build-vs-fill state for one released key.

    ``reference`` is the release's own (clamped, normalised) estimate of
    the cell distribution — the *build* histogram.  ``fill`` accumulates
    the pending streamed points over the same cells.  Drift is the total
    variation distance between the two normalised distributions: 0 when
    new points look exactly like the release, 1 when they land entirely
    where the release says there is nothing.
    """

    def __init__(self, key: ReleaseKey, synopsis):
        self.key = key
        self.boxes = np.asarray(synopsis.drift_cells(), dtype=float)
        reference = np.clip(synopsis.answer_many(self.boxes), 0.0, None)
        total = float(reference.sum())
        if total > 0:
            self.reference = reference / total
        else:
            self.reference = np.full(len(self.boxes), 1.0 / len(self.boxes))
        self.fill = np.zeros(len(self.boxes))
        self.pending = 0
        self.oldest_timestamp: float | None = None

    def add(self, points: np.ndarray, timestamp: float) -> None:
        if len(points) == 0:
            return
        self.fill += _histogram(points, self.boxes)
        if self.pending == 0 or (
            self.oldest_timestamp is not None
            and timestamp < self.oldest_timestamp
        ):
            self.oldest_timestamp = timestamp
        self.pending += len(points)

    def drift(self) -> float:
        if self.pending == 0:
            return 0.0
        total = float(self.fill.sum())
        if total <= 0:
            return 0.0
        return float(0.5 * np.abs(self.reference - self.fill / total).sum())

    def oldest_age_ms(self, now: float) -> float:
        if self.pending == 0 or self.oldest_timestamp is None:
            return 0.0
        return max(0.0, (now - self.oldest_timestamp) * 1000.0)


class _DatasetLog:
    """In-memory mirror of one dataset instance's WAL."""

    def __init__(self, wal: WriteAheadLog):
        self.wal = wal
        self.batches: list[DataRecord] = []
        self.batch_ids: set[str] = set()
        self.total_points = 0
        #: slug -> points incorporated by that slug's latest release.
        self.markers: dict[str, int] = {}
        #: slug -> epoch charged in the ledger but never committed by a
        #: marker (a crash between the two), found at replay.
        self.charged: dict[str, int] = {}

    def absorb(self, record: DataRecord) -> None:
        self.batches.append(record)
        self.batch_ids.add(record.batch_id)
        self.total_points += len(record.points)

    def epoch(self, slug: str) -> int:
        """How many staged points the next build of ``slug`` reads: the
        charged epoch its crashed refresh left, else all of them."""
        return self.charged.get(slug, self.total_points)

    def read(self, start: int, stop: int) -> tuple[np.ndarray, float | None]:
        """Staged points ``[start, stop)`` in log order, with the oldest
        timestamp of the batches they come from."""
        chunks: list[np.ndarray] = []
        oldest: float | None = None
        offset = 0
        for record in self.batches:
            n = len(record.points)
            lo, hi = max(start - offset, 0), min(stop - offset, n)
            if lo < hi:
                chunks.append(np.asarray(record.points)[lo:hi])
                if oldest is None or record.timestamp < oldest:
                    oldest = record.timestamp
            offset += n
        if not chunks:
            return np.empty((0, 2)), None
        return np.concatenate(chunks), oldest


class IngestManager:
    """Owns WALs, drift trackers, and the refresh policy for one store.

    Thread-safe; a single re-entrant lock guards all state, and WAL
    appends run under it (the log's single-writer contract).  Refresh
    fits run *outside* the lock — the store re-snapshots the staged
    points through :meth:`build_context`, so an ingest landing mid-fit
    simply stays pending for the next epoch.
    """

    def __init__(
        self,
        store,
        store_dir: str | Path,
        drift_threshold: float = 0.25,
        staleness_ms: float = 0.0,
        epoch_budget_fraction: float = 0.5,
        clock=time.time,
    ):
        if not 0.0 <= drift_threshold <= 1.0:
            raise ValueError(
                f"drift_threshold must be in [0, 1], got {drift_threshold}"
            )
        if staleness_ms < 0:
            raise ValueError(
                f"staleness_ms must be >= 0, got {staleness_ms}"
            )
        if not 0.0 <= epoch_budget_fraction <= 1.0:
            raise ValueError(
                "epoch_budget_fraction must be in [0, 1], "
                f"got {epoch_budget_fraction}"
            )
        self._store = store
        self._store_dir = Path(store_dir)
        self.drift_threshold = float(drift_threshold)
        self.staleness_ms = float(staleness_ms)
        self.epoch_budget_fraction = float(epoch_budget_fraction)
        self._clock = clock
        self._lock = threading.RLock()
        self._logs: dict[str, _DatasetLog] = {}
        self._trackers: dict[ReleaseKey, _DriftTracker] = {}
        self._refusals: dict[ReleaseKey, str] = {}
        self.stats = IngestStats()
        store.set_ingest(self)
        self._replay()

    def for_store(self, store) -> "IngestManager":
        """A sibling manager over ``store`` with this manager's policy.

        Used to spawn per-tenant ingest managers: each tenant store has
        its own directory, so WALs (and replay) stay partitioned per
        tenant while the drift/staleness/budget policy is shared.
        """
        if store.store_dir is None:
            raise ValueError("ingest requires a persistent store directory")
        return IngestManager(
            store,
            store.store_dir,
            drift_threshold=self.drift_threshold,
            staleness_ms=self.staleness_ms,
            epoch_budget_fraction=self.epoch_budget_fraction,
            clock=self._clock,
        )

    # ------------------------------------------------------------------
    # Replay: reconstruct staged state and finish interrupted refreshes
    # ------------------------------------------------------------------

    def _replay(self) -> None:
        for path in sorted(self._store_dir.glob("*.wal")):
            stem = path.stem
            dataset, sep, seed_text = stem.rpartition("_seed")
            if not sep:
                continue
            try:
                seed = int(seed_text)
            except ValueError:
                continue
            wal = WriteAheadLog(path)
            log = _DatasetLog(wal)
            for record in wal.replayed:
                if isinstance(record, DataRecord):
                    log.absorb(record)
                else:
                    log.markers[record.slug] = record.released_count
            self._logs[f"{dataset}|{seed}"] = log
            self.stats.replayed_batches += wal.stats.data_batches
            self.stats.replayed_markers += wal.stats.markers
            self.stats.truncated_bytes += wal.stats.truncated_bytes
        self._recover_releases()

    def _recover_releases(self) -> None:
        """Finish refreshes the crash interrupted between spend and marker.

        A ledger epoch label ``slug@e{n}`` with no WAL marker at ``n`` or
        beyond means epsilon was charged but the release was never
        committed.  Re-running the build at epoch ``n``, not at the
        whole log, is free (the store skips the present label) and
        deterministic (same staged prefix, same salt), so recovery
        converges to the exact state a crash-free run would have
        produced.
        """
        budget_state = self._store.budget_state()
        for data_id, log in self._logs.items():
            state = budget_state.get(data_id)
            if state is None:
                continue
            for label in state["releases"]:
                charge = _epoch_charge(label)
                if charge is None or charge[0].data_id != data_id:
                    continue
                slug, epoch = charge[0].slug(), charge[1]
                if epoch > max(log.markers.get(slug, 0), log.charged.get(slug, 0)):
                    log.charged[slug] = epoch
            for slug in sorted(log.charged):
                # Free by construction; bypass the epoch-budget policy so
                # an already-paid-for release is never left uncommitted.
                self._store.build(ReleaseKey.from_slug(slug), force=True)
                self.stats.recovered_releases += 1

    # ------------------------------------------------------------------
    # Ingest path
    # ------------------------------------------------------------------

    def ingest(
        self,
        dataset: str,
        seed: int,
        batch_id: str,
        points: np.ndarray,
    ) -> dict:
        """Durably stage one batch and apply the refresh policy.

        Returns the ingest report (the HTTP payload): staging outcome,
        per-release pending points, and which releases were
        refreshed or refused.  Raises nothing on a *refused* refresh —
        refusal is an expected budget outcome, reported in-band — but
        lets WAL I/O errors and simulated crashes propagate (the batch
        is then not acknowledged).
        """
        now = self._clock()
        points = np.asarray(points, dtype=float)
        with self._lock:
            data_id = f"{dataset}|{seed}"
            log = self._log_for(dataset, seed)
            duplicate = batch_id in log.batch_ids
            if duplicate:
                # The batch is already durable; this is an at-least-once
                # retry.  The refresh policy below still runs — the lost
                # acknowledgement may have carried a refresh the crash
                # interrupted, and retrying must converge to it.
                self.stats.duplicate_batches += 1
            else:
                record = DataRecord(batch_id, now, points)
                log.wal.append(record)
                log.absorb(record)
                self.stats.batches += 1
                self.stats.points += len(points)
            due = []
            for key in self._released_keys(data_id):
                tracker = self._tracker_for(key, log)
                if tracker is None:
                    continue
                if not duplicate:
                    tracker.add(points, now)
                if self._due(tracker, now):
                    due.append(key)
        refreshed: list[str] = []
        refused: dict[str, str] = {}
        for key in due:
            self._refresh(key, refreshed, refused)
        with self._lock:
            return self._report(
                data_id, batch_id, len(points), duplicate=duplicate,
                refreshed=refreshed, refused=refused, now=now,
            )

    def _log_for(self, dataset: str, seed: int) -> _DatasetLog:
        data_id = f"{dataset}|{seed}"
        log = self._logs.get(data_id)
        if log is None:
            log = _DatasetLog(
                WriteAheadLog(wal_path(self._store_dir, dataset, seed))
            )
            self._logs[data_id] = log
        return log

    def _released_keys(self, data_id: str) -> list[ReleaseKey]:
        keys = {
            key
            for key in self._store.persisted_keys()
            if key.data_id == data_id
        }
        keys.update(
            key
            for key in self._store.cached_keys()
            if key.data_id == data_id
        )
        return sorted(keys)

    def _tracker_for(
        self, key: ReleaseKey, log: _DatasetLog
    ) -> _DriftTracker | None:
        """The drift tracker for a released key, (re)built lazily.

        Trackers are dropped on every re-release and rebuilt here from
        the *current* synopsis, so the reference distribution always
        describes the release actually being served.  Keys that cannot
        be loaded (quarantined archives) simply go untracked until they
        are rebuilt.
        """
        tracker = self._trackers.get(key)
        if tracker is not None:
            return tracker
        try:
            synopsis = self._store.get(key)
        except ServiceError:
            return None
        tracker = _DriftTracker(key, synopsis)
        pending, oldest = log.read(log.markers.get(key.slug(), 0), log.total_points)
        if len(pending):
            tracker.add(pending, oldest if oldest is not None else self._clock())
        self._trackers[key] = tracker
        return tracker

    def _due(self, tracker: _DriftTracker, now: float) -> bool:
        if tracker.pending <= 0:
            return False
        if tracker.drift() >= self.drift_threshold:
            return True
        return (
            self.staleness_ms > 0
            and tracker.oldest_age_ms(now) >= self.staleness_ms
        )

    # ------------------------------------------------------------------
    # Refresh
    # ------------------------------------------------------------------

    def _refresh(
        self,
        key: ReleaseKey,
        refreshed: list[str],
        refused: dict[str, str],
    ) -> None:
        faultinject.fire("ingest.refresh", key=key)
        reason = self._epoch_budget_refusal(key)
        if reason is None:
            try:
                self._store.build(key, force=True)
            except BudgetRefused as error:
                reason = str(error)
        if reason is not None:
            with self._lock:
                self._refusals[key] = reason
            self.stats.refresh_refusals += 1
            refused[key.slug()] = reason
            return
        self.stats.refreshes += 1
        refreshed.append(key.slug())

    def _epoch_budget_refusal(self, key: ReleaseKey) -> str | None:
        """Why the epoch-budget cap blocks this refresh (``None`` = go).

        Sums the epsilon of every ``@e`` epoch label already charged to
        the dataset instance; a refresh that would push that past
        ``epoch_budget_fraction`` of the total budget is refused so
        streaming can never consume the budget owed to first releases.
        A refresh whose exact label is already in the ledger is free
        (crash replay) and always allowed.
        """
        state = self._store.budget_state().get(key.data_id)
        if state is None:
            return None
        with self._lock:
            log = self._logs.get(key.data_id)
            epoch = log.epoch(key.slug()) if log is not None else 0
        epoch_spent = 0.0
        for label in state["releases"]:
            charge = _epoch_charge(label)
            if charge is None:
                continue
            charged_key, charged_epoch = charge
            if charged_key.slug() == key.slug() and charged_epoch == epoch:
                return None  # already charged: replaying it is free
            epoch_spent += charged_key.epsilon
        cap = self.epoch_budget_fraction * float(state["total"])
        if epoch_spent + key.epsilon > cap + 1e-12:
            return (
                f"refreshing {key.slug()!r} needs epsilon={key.epsilon:g} "
                f"but ingest-triggered releases for {key.data_id!r} have "
                f"already spent {epoch_spent:g} of their "
                f"{cap:g} cap ({self.epoch_budget_fraction:g} of the "
                f"{float(state['total']):g} total); the last good release "
                "keeps serving, marked stale"
            )
        return None

    # ------------------------------------------------------------------
    # Store integration (called by SynopsisStore.build)
    # ------------------------------------------------------------------

    def build_context(self, key: ReleaseKey) -> BuildContext | None:
        """The epoch the next build of ``key`` reads (see
        :meth:`_DatasetLog.epoch`); ``None`` before any point is staged."""
        with self._lock:
            log = self._logs.get(key.data_id)
            epoch = log.epoch(key.slug()) if log is not None else 0
            if epoch == 0:
                return None
            return BuildContext(epoch, log.read(0, epoch)[0])

    def note_released(self, key: ReleaseKey, context: BuildContext) -> None:
        """Commit a release to the WAL (called after archive + ledger are
        durable) and reset its drift tracking against the new synopsis."""
        with self._lock:
            log = self._logs.get(key.data_id)
            if log is None:
                return
            slug = key.slug()
            if log.markers.get(slug, 0) < context.epoch:
                log.wal.append(MarkerRecord(slug, context.epoch))
                log.markers[slug] = context.epoch
            log.charged.pop(slug, None)
            # The tracker's reference belongs to the superseded release;
            # drop it so the next batch rebuilds against the new one.
            self._trackers.pop(key, None)
            self._refusals.pop(key, None)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def staleness(self, key: ReleaseKey) -> dict | None:
        """Staleness report for one key (``None`` when fully fresh)."""
        with self._lock:
            log = self._logs.get(key.data_id)
            if log is None:
                return None
            released = log.markers.get(key.slug(), 0)
            pending = log.total_points - released
            refusal = self._refusals.get(key)
            if pending <= 0 and refusal is None:
                return None
            tracker = self._trackers.get(key)
            now = self._clock()
            report = {
                "pending_points": int(pending),
                "released_epoch": int(released),
                "staged_points": int(log.total_points),
                "oldest_pending_ms": (
                    tracker.oldest_age_ms(now) if tracker is not None else None
                ),
            }
            if refusal is not None:
                report["refresh_refused"] = refusal
            return report

    def _report(
        self,
        data_id: str,
        batch_id: str,
        n_points: int,
        duplicate: bool,
        refreshed: list[str],
        refused: dict[str, str],
        now: float,
    ) -> dict:
        log = self._logs[data_id]
        releases = []
        for key in self._released_keys(data_id):
            entry = {
                "key": key.to_payload(),
                "pending_points": int(
                    log.total_points - log.markers.get(key.slug(), 0)
                ),
            }
            slug = key.slug()
            if slug in refused:
                entry["refresh_refused"] = refused[slug]
            entry["refreshed"] = slug in refreshed
            releases.append(entry)
        return {
            "batch_id": batch_id,
            "duplicate": duplicate,
            "points": int(n_points),
            "data_id": data_id,
            "staged_points": int(log.total_points),
            "wal_bytes": int(log.wal.size_bytes),
            "releases": releases,
            "refreshed": refreshed,
            "refused": refused,
        }

    def to_payload(self) -> dict:
        """Full ingest state for ``/health``."""
        with self._lock:
            datasets = {}
            for data_id, log in sorted(self._logs.items()):
                datasets[data_id] = {
                    "staged_batches": len(log.batches),
                    "staged_points": int(log.total_points),
                    "wal_bytes": int(log.wal.size_bytes),
                    "markers": dict(sorted(log.markers.items())),
                }
            stale = {}
            for key in sorted(self._trackers):
                report = self.staleness(key)
                if report is not None:
                    stale[key.slug()] = report
            for key in sorted(self._refusals):
                if key.slug() not in stale:
                    report = self.staleness(key)
                    if report is not None:
                        stale[key.slug()] = report
            return {
                "enabled": True,
                "drift_threshold": self.drift_threshold,
                "staleness_ms": self.staleness_ms,
                "epoch_budget_fraction": self.epoch_budget_fraction,
                "datasets": datasets,
                "stale": stale,
                "stats": self.stats.to_payload(),
            }

    def close(self) -> None:
        with self._lock:
            for log in self._logs.values():
                log.wal.close()
            self._logs.clear()

"""Routing batched rectangle queries to cached synopses.

:class:`QueryService` is the read path of the serving layer.  Each
request fetches its release from the store once and answers the batch
with that release's one prepared batch engine (the one
:func:`~repro.queries.engine.make_engine` returns, prefix sums precomputed:
the d-dimensional grid kernel :class:`~repro.queries.engine.
BatchQueryEngine` for every grid-shaped release (UG, Hier, Privelet,
UGnd, and Hier1d as an ``m x 1`` grid) and lattice-aligned trees, the
two-level summed-area :class:`~repro.queries.engine.TwoLevelGridEngine`
for adaptive grids and the other consistent trees, the level-order
:class:`~repro.queries.engine.FlatTreeEngine` for the remaining tree
baselines).  Engines are pure functions of released state, so
concurrent batches against the same release run without locking — only
the answer cache and the counters are guarded.

A released synopsis is immutable, so its engine and every answer
computed from it are pure functions of the *release object* the store
hands back.  Both are tied to that object, not to its key: the release
keeps its one engine, which every request asks ``make_engine`` for; on
top sits an **answer cache**, a byte-bounded LRU keyed by
``(ReleaseKey, sha1(boxes.tobytes()), clamp)`` whose entries remember
(weakly) the release they were computed from.  Repeat batches — the
dominant pattern behind dashboards and monitoring — are served from it
without touching an engine, but only to a request whose release is that
same object.  A forced rebuild or an evict-and-reload hands back a new
object, so a stale answer is never served, and eviction and reloads
need no bookkeeping here.  The first request for a release object drops
the key's older answers and those of releases that have died.  A
service answers for its store's one tenant, so keys need no tenant.

Answering queries is post-processing of a released synopsis: it spends no
privacy budget, and the service never sees raw data at all.
"""

from __future__ import annotations

import hashlib
import threading
import time
import weakref

import numpy as np

from repro.core.geometry import Rect, rects_to_boxes
from repro.core.synopsis import Synopsis
from repro.queries.engine import make_engine
from repro.service import faultinject
from repro.service.keys import ReleaseKey
from repro.service.store import SynopsisStore
from repro.service.telemetry import Deadline

__all__ = ["QueryResult", "QueryService"]

#: Default byte bound on cached answer vectors (~4M float64 estimates).
DEFAULT_ANSWER_CACHE_BYTES = 32 * 1024 * 1024


class QueryResult:
    """Estimates for one batch, with the metadata responses report.

    ``build_ms`` is time spent obtaining the engine (store lookup, plus
    the engine's build on a cold start); ``answer_ms`` is the batch
    evaluation itself (or the cache lookup, for a hit).  Billing them
    separately keeps a cold engine build from masquerading as a slow
    query — the first request after an eviction pays ``build_ms``, not a
    mysteriously inflated per-query latency.
    """

    __slots__ = ("key", "estimates", "build_ms", "answer_ms", "cached")

    def __init__(
        self,
        key: ReleaseKey,
        estimates: np.ndarray,
        build_ms: float,
        answer_ms: float,
        cached: bool = False,
    ):
        self.key = key
        self.estimates = estimates
        self.build_ms = build_ms
        self.answer_ms = answer_ms
        self.cached = cached

    @property
    def elapsed_ms(self) -> float:
        """Total service-side latency (build + answer)."""
        return self.build_ms + self.answer_ms

    def to_payload(self) -> dict:
        return {
            "key": self.key.to_payload(),
            "count": int(self.estimates.size),
            "estimates": [float(value) for value in self.estimates],
            "elapsed_ms": round(self.elapsed_ms, 3),
            "build_ms": round(self.build_ms, 3),
            "answer_ms": round(self.answer_ms, 3),
            "cached": self.cached,
        }


class QueryService:
    """Answers rectangle-query batches from a :class:`SynopsisStore`.

    Each release object keeps its own engine, which goes with the object
    (the store evicted it and no request still holds it), so the store's
    LRU bounds govern total memory.

    ``answer_cache_bytes`` bounds the answer cache (estimate-vector bytes;
    0 disables caching entirely).
    """

    def __init__(
        self,
        store: SynopsisStore,
        answer_cache_bytes: int = DEFAULT_ANSWER_CACHE_BYTES,
    ):
        if answer_cache_bytes < 0:
            raise ValueError(
                f"answer_cache_bytes must be >= 0, got {answer_cache_bytes}"
            )
        self._store = store
        # Release objects a request has arrived for: the first arrival
        # counts how the release's engine came (see _engine_for).
        self._arrived: weakref.WeakSet[Synopsis] = weakref.WeakSet()
        self._lock = threading.Lock()
        self._queries_answered = 0
        self._batches_answered = 0
        self._engine_cold_starts = 0
        self._engine_sealed_loads = 0
        # Answer cache: (key, digest, clamp) -> (weakref to the release,
        # estimates), in LRU order (dicts keep insertion order; a hit
        # re-inserts, eviction pops the oldest).
        self._answer_cache_bytes = int(answer_cache_bytes)
        self._answers: dict[tuple, tuple[weakref.ref, np.ndarray]] = {}
        self._answers_nbytes = 0
        self._answer_hits = 0
        self._answer_misses = 0

    @property
    def store(self) -> SynopsisStore:
        return self._store

    def for_store(self, store: SynopsisStore) -> "QueryService":
        """A sibling service over ``store`` with this service's config.

        The serving layer uses it to spin up per-tenant services that
        inherit the answer-cache budget of the default one.
        """
        return QueryService(store, answer_cache_bytes=self._answer_cache_bytes)

    def tenant_stats(self) -> dict:
        """Compact per-tenant counter block for ``/health``'s tenant map
        (the server adds the store's ``releases_cached`` beside it)."""
        store = self._store
        with self._lock:
            queries = self._queries_answered
            batches = self._batches_answered
            engines = len(self._arrived)
        return {
            "queries_answered": queries,
            "batches_answered": batches,
            "engines_cached": engines,
            "builds": store.stats.builds,
            "refusals": store.stats.refusals,
        }

    def engine_for(self, key: ReleaseKey):
        """The batch engine for the store's current release of ``key``.

        Raises :class:`~repro.service.errors.ReleaseNotFound` when the
        store has no release for the key.
        """
        return self._engine_for(key, self._store.get(key))

    def _engine_for(
        self, key: ReleaseKey, release: Synopsis, deadline: Deadline | None = None
    ):
        """The engine of ``release``, the store's release for ``key``:
        the one ``make_engine`` returns, which the release keeps.

        The first request for a release object counts how its engine
        came: a sealed load when the release arrived holding it
        (restored from its archive, or prepared by the store's build), a
        cold start when that query builds it.  A concurrent first
        request calls ``make_engine`` too and gets the same engine.
        """
        with self._lock:
            if release not in self._arrived:
                self._arrived.add(release)
                if release.engine is None:
                    self._engine_cold_starts += 1
                else:
                    self._engine_sealed_loads += 1
                # No answer comes from this release yet, so the key's
                # cached answers came from other release objects; drop
                # them, and the answers of releases that have died.
                for entry in [
                    cache_key
                    for cache_key, (source, _) in self._answers.items()
                    if cache_key[0] == key or source() is None
                ]:
                    self._answers_nbytes -= self._answers.pop(entry)[1].nbytes
        if release.engine is None and deadline is not None:
            # A cold start builds outside the lock, not stalling other keys.
            deadline.check("preparing the query engine")
        return make_engine(release)

    def answer(
        self,
        key: ReleaseKey,
        rects: list[Rect] | np.ndarray,
        clamp: bool = False,
        deadline: Deadline | None = None,
    ) -> QueryResult:
        """Estimates for a batch of rectangles against one release.

        ``clamp`` zeroes negative estimates (post-processing; callers that
        feed the counts onward usually want it, evaluation code does not).
        ``deadline`` bounds the slow steps (store waits, engine
        preparation, the batch itself); expiry raises
        :class:`~repro.service.errors.DeadlineExpired`.
        """
        boxes = np.ascontiguousarray(rects_to_boxes(rects))
        cache_key = None
        if self._answer_cache_bytes > 0:
            digest = hashlib.sha1(boxes.tobytes()).digest()
            cache_key = (key, digest, clamp)
        start = time.perf_counter()
        # Raises ReleaseNotFound if the release is gone.
        release = self._store.get(key, deadline)
        if cache_key is not None:
            with self._lock:
                cached = self._answers.get(cache_key)
                # A cached answer is served only for the release object it
                # was computed from.
                if cached is not None and cached[0]() is release:
                    # Re-insert to refresh LRU position (dicts preserve
                    # insertion order; eviction pops the oldest key).
                    del self._answers[cache_key]
                    self._answers[cache_key] = cached
                    self._answer_hits += 1
                    self._queries_answered += int(boxes.shape[0])
                    self._batches_answered += 1
                    answer_ms = (time.perf_counter() - start) * 1e3
                    return QueryResult(
                        key, cached[1], build_ms=0.0,
                        answer_ms=answer_ms, cached=True,
                    )

        engine = self._engine_for(key, release, deadline)
        # Fault point for deadline/overload tests: an injected stall here
        # models a slow batch without touching any real kernel.
        faultinject.fire("service.answer", key=key)
        if deadline is not None:
            deadline.check("answering the batch")
        answer_start = time.perf_counter()
        estimates = engine.answer_batch(boxes)
        if clamp:
            estimates = np.maximum(estimates, 0.0)
        # Cached vectors are shared across requests; freeze them so no
        # consumer can corrupt another's answer.
        estimates.setflags(write=False)
        answered = time.perf_counter()
        build_ms = (answer_start - start) * 1e3
        answer_ms = (answered - answer_start) * 1e3
        with self._lock:
            self._queries_answered += int(boxes.shape[0])
            self._batches_answered += 1
            if cache_key is not None:
                self._answer_misses += 1
                if estimates.nbytes <= self._answer_cache_bytes:
                    self._cache_insert(cache_key, weakref.ref(release), estimates)
        return QueryResult(key, estimates, build_ms=build_ms, answer_ms=answer_ms)

    def stats(self) -> dict:
        with self._lock:
            return {
                "queries_answered": self._queries_answered,
                "batches_answered": self._batches_answered,
                "engines_cached": len(self._arrived),
                "engine_cold_starts": self._engine_cold_starts,
                "engine_sealed_loads": self._engine_sealed_loads,
                "answer_cache_hits": self._answer_hits,
                "answer_cache_misses": self._answer_misses,
                "answer_cache_entries": len(self._answers),
                "answer_cache_bytes": self._answers_nbytes,
                "answer_cache_max_bytes": self._answer_cache_bytes,
            }

    def _cache_insert(
        self, cache_key: tuple, source: weakref.ref, estimates: np.ndarray
    ) -> None:
        """Insert one answer, evicting LRU entries past the byte bound
        (caller holds ``self._lock``)."""
        previous = self._answers.pop(cache_key, None)
        if previous is not None:
            self._answers_nbytes -= previous[1].nbytes
        self._answers[cache_key] = (source, estimates)
        self._answers_nbytes += estimates.nbytes
        while self._answers_nbytes > self._answer_cache_bytes:
            oldest = next(iter(self._answers))
            _, evicted = self._answers.pop(oldest)
            self._answers_nbytes -= evicted.nbytes

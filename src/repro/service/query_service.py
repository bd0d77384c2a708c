"""Routing batched rectangle queries to cached synopses.

:class:`QueryService` is the read path of the serving layer.  It keeps one
prepared batch engine per release (built by
:func:`~repro.queries.engine.make_engine`, prefix sums precomputed:
:class:`~repro.queries.engine.BatchQueryEngine` for uniform grids and
lattice-aligned trees, the summed-area :class:`~repro.queries.engine.
FlatAdaptiveGridEngine` for adaptive grids, the level-order
:class:`~repro.queries.engine.FlatTreeEngine` for the other tree
baselines) and routes each incoming batch to
the engine of the requested key.  Engines are pure functions of released
state, so concurrent batches against the same release run without locking
— only the engine-cache bookkeeping is guarded.

On top of the engine cache sits an **answer cache**: released synopses
are immutable, so the estimate vector for a given ``(release, batch,
clamp)`` triple never changes while that release object lives.  Repeat
batches — the dominant pattern behind dashboards and monitoring — are
served from a byte-bounded LRU keyed by ``(ReleaseKey,
sha1(boxes.tobytes()), clamp)`` without touching an engine.  Entries are
invalidated by *generation*: whenever a key's engine is rebuilt (the
store handed back a different synopsis object after a forced rebuild or
an evict-and-reload) or pruned, the key's generation is bumped and its
cached answers dropped, so a stale answer can never outlive the release
state that produced it.

Answering queries is post-processing of a released synopsis: it spends no
privacy budget, and the service never sees raw data at all.
"""

from __future__ import annotations

import hashlib
import threading
import time

import numpy as np

from repro.core.geometry import Rect
from repro.core.synopsis import Synopsis
from repro.queries.engine import (
    has_sealed_engine,
    make_engine,
    rects_to_boxes,
)
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
    prefix-sum preparation on a cold start); ``answer_ms`` is the batch
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

    The engine cache is keyed by release key and invalidated by identity:
    when the store hands back a different synopsis object (rebuilt, or
    reloaded after eviction), the engine is rebuilt from it.  Whenever an
    engine is (re)built, entries for keys the store no longer holds are
    dropped, so the store's LRU bounds govern total memory.

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
        self._engines: dict[ReleaseKey, tuple[Synopsis, object]] = {}
        self._lock = threading.Lock()
        self._engine_building: set[ReleaseKey] = set()
        self._engine_done = threading.Condition(self._lock)
        self._queries_answered = 0
        self._batches_answered = 0
        self._engine_cold_starts = 0
        self._engine_sealed_loads = 0
        # Answer cache: (key, digest, clamp) -> (generation, estimates).
        # Plain dict + move-to-end semantics via re-insertion is not
        # enough for LRU order; use insertion-ordered dict explicitly.
        self._answer_cache_bytes = int(answer_cache_bytes)
        self._answers: dict[tuple, tuple[int, np.ndarray]] = {}
        self._answers_nbytes = 0
        self._answer_gen: dict[ReleaseKey, int] = {}
        self._answer_hits = 0
        self._answer_misses = 0

    @property
    def store(self) -> SynopsisStore:
        return self._store

    @property
    def tenant(self) -> str:
        """The tenant namespace this service answers for."""
        return self._store.tenant

    def for_store(self, store: SynopsisStore) -> "QueryService":
        """A sibling service over ``store`` with this service's config.

        The serving layer uses it to spin up per-tenant services that
        inherit the answer-cache budget of the default one.
        """
        return QueryService(store, answer_cache_bytes=self._answer_cache_bytes)

    def tenant_stats(self) -> dict:
        """Compact per-tenant counter block for ``/health``'s tenant map."""
        store = self._store
        with self._lock:
            queries = self._queries_answered
            batches = self._batches_answered
            engines = len(self._engines)
        return {
            "releases_cached": len(store.cached_keys()),
            "queries_answered": queries,
            "batches_answered": batches,
            "engines_cached": engines,
            "builds": store.stats.builds,
            "refusals": store.stats.refusals,
        }

    def engine_for(self, key: ReleaseKey):
        """The cached batch engine for ``key``, (re)built as needed.

        Raises :class:`~repro.service.errors.ReleaseNotFound` when the
        store has no release for the key.
        """
        return self._engine_for(key.with_tenant(self._store.tenant))[0]

    def _engine_for(self, key: ReleaseKey, deadline: Deadline | None = None):
        """``(engine, answer_generation)`` for ``key``.

        ``key`` must carry the store's tenant: engines and answers are
        indexed by the keys ``store.cached_keys()`` returns, so an
        unstamped key would be swept as stale on every lookup.  The
        generation is read in the same critical section that validated
        (or installed) the engine, so an answer computed with the
        returned engine may be cached under that generation: any later
        rebuild bumps it first, which vetoes the insert.
        """
        synopsis = self._store.get(key, deadline)
        # Engines pin their synopsis; on every lookup keep only keys the
        # store still holds, so the store's LRU bounds govern total
        # memory (``key`` itself is always retained: get() just cached it).
        retained = set(self._store.cached_keys())
        with self._lock:
            while True:
                for stale in [k for k in self._engines if k not in retained]:
                    del self._engines[stale]
                    self._invalidate_answers(stale)
                cached = self._engines.get(key)
                if cached is not None and cached[0] is synopsis:
                    return cached[1], self._answer_gen.get(key, 0)
                if key not in self._engine_building:
                    break
                # Another thread is preparing this key's engine: one
                # cold-start stampede must not build N duplicates.
                if deadline is None:
                    self._engine_done.wait()
                else:
                    deadline.check("waiting for an in-flight engine build")
                    self._engine_done.wait(deadline.remaining())
            if cached is not None:
                # The store handed back a different synopsis object
                # (forced rebuild, or evict + reload): every answer
                # computed against the old object is stale.  Bump the
                # generation *before* building so in-flight misses from
                # the old engine can no longer insert.
                self._invalidate_answers(key)
            self._engine_building.add(key)
        # Build outside the lock: prefix-sum preparation can take a few
        # milliseconds for large releases and must not stall other keys.
        try:
            if deadline is not None:
                deadline.check("preparing the query engine")
            engine = make_engine(synopsis)
        except BaseException:
            with self._lock:
                self._engine_building.discard(key)
                self._engine_done.notify_all()
            raise
        # Re-snapshot at insert time: concurrent builds may have evicted
        # this key while the engine was being prepared, and inserting an
        # engine for an evicted key would pin its synopsis outside the
        # store's byte bound.  (A residual race can still leave one stale
        # entry; the sweep above clears it on the next lookup.)
        still_cached = key in set(self._store.cached_keys())
        with self._lock:
            # Slabs sealed at build time or into a v2 archive restore the
            # engine without a derived-buffer rebuild: a warm load.
            # make_engine drops stale slabs before rebuilding, so only
            # genuine rebuilds count as cold starts.
            if has_sealed_engine(synopsis):
                self._engine_sealed_loads += 1
            else:
                self._engine_cold_starts += 1
            try:
                if still_cached:
                    self._engines[key] = (synopsis, engine)
                    generation = self._answer_gen.get(key, 0)
                else:
                    # The key was evicted while the engine was being
                    # prepared and the engine was NOT installed.  Answers
                    # computed with it must not enter the cache: the
                    # key's next incarnation may be a different release
                    # under the *same* generation (no engine entry exists
                    # for the sweep or the replacement check to bump), so
                    # a cached vector would never be invalidated.  -1 can
                    # never equal a real generation, vetoing the insert.
                    generation = -1
            finally:
                self._engine_building.discard(key)
                self._engine_done.notify_all()
        return engine, generation

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
        :class:`~repro.service.errors.DeadlineExpired`.  The result
        reports ``key`` as given; engines and cached answers are indexed
        by the key stamped with the store's tenant.
        """
        request_key = key
        key = key.with_tenant(self._store.tenant)
        boxes = np.ascontiguousarray(rects_to_boxes(rects))
        cache_key = None
        if self._answer_cache_bytes > 0:
            digest = hashlib.sha1(boxes.tobytes()).digest()
            cache_key = (key, digest, clamp)
            start = time.perf_counter()
            # A cached answer is only as fresh as the release it was
            # computed from: re-fetch the store's current synopsis (an
            # LRU dict lookup; raises ReleaseNotFound if the release is
            # gone) and serve the hit only when the cached engine still
            # matches it.  A forced rebuild or evict-and-reload hands
            # back a different object and falls through to the miss
            # path, where engine_for bumps the generation.
            synopsis = self._store.get(key, deadline)
            with self._lock:
                generation = self._answer_gen.get(key, 0)
                engine_entry = self._engines.get(key)
                cached = self._answers.get(cache_key)
                if (
                    cached is not None
                    and cached[0] == generation
                    and engine_entry is not None
                    and engine_entry[0] is synopsis
                ):
                    # Re-insert to refresh LRU position (dicts preserve
                    # insertion order; eviction pops the oldest key).
                    del self._answers[cache_key]
                    self._answers[cache_key] = cached
                    self._answer_hits += 1
                    self._queries_answered += int(boxes.shape[0])
                    self._batches_answered += 1
                    answer_ms = (time.perf_counter() - start) * 1e3
                    return QueryResult(
                        request_key, cached[1], build_ms=0.0,
                        answer_ms=answer_ms, cached=True,
                    )

        build_start = time.perf_counter()
        engine, generation = self._engine_for(key, deadline)
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
        build_ms = (answer_start - build_start) * 1e3
        answer_ms = (answered - answer_start) * 1e3
        with self._lock:
            self._queries_answered += int(boxes.shape[0])
            self._batches_answered += 1
            if cache_key is not None:
                self._answer_misses += 1
                if (
                    self._answer_gen.get(key, 0) == generation
                    and estimates.nbytes <= self._answer_cache_bytes
                ):
                    self._cache_insert(cache_key, generation, estimates)
        return QueryResult(
            request_key, estimates, build_ms=build_ms, answer_ms=answer_ms
        )

    def stats(self) -> dict:
        with self._lock:
            return {
                "queries_answered": self._queries_answered,
                "batches_answered": self._batches_answered,
                "engines_cached": len(self._engines),
                "engine_cold_starts": self._engine_cold_starts,
                "engine_sealed_loads": self._engine_sealed_loads,
                "answer_cache_hits": self._answer_hits,
                "answer_cache_misses": self._answer_misses,
                "answer_cache_entries": len(self._answers),
                "answer_cache_bytes": self._answers_nbytes,
                "answer_cache_max_bytes": self._answer_cache_bytes,
            }

    # ------------------------------------------------------------------
    # Answer-cache internals (callers hold self._lock)
    # ------------------------------------------------------------------

    def _cache_insert(
        self, cache_key: tuple, generation: int, estimates: np.ndarray
    ) -> None:
        previous = self._answers.pop(cache_key, None)
        if previous is not None:
            self._answers_nbytes -= previous[1].nbytes
        self._answers[cache_key] = (generation, estimates)
        self._answers_nbytes += estimates.nbytes
        while self._answers_nbytes > self._answer_cache_bytes:
            oldest = next(iter(self._answers))
            _, evicted = self._answers.pop(oldest)
            self._answers_nbytes -= evicted.nbytes

    def _invalidate_answers(self, key: ReleaseKey) -> None:
        """Bump ``key``'s generation and drop its cached answers."""
        self._answer_gen[key] = self._answer_gen.get(key, 0) + 1
        stale = [entry for entry in self._answers if entry[0] == key]
        for entry in stale:
            _, estimates = self._answers.pop(entry)
            self._answers_nbytes -= estimates.nbytes

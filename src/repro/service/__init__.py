"""The synopsis serving layer: build a private release once, serve many.

Everything below :mod:`repro.core` treats a synopsis as the output of one
experiment run.  This package turns releases into long-lived, addressable
artifacts behind a query API:

* :class:`~repro.service.keys.ReleaseKey` — identity of one release
  within a store: ``(dataset, method, epsilon, seed)``;
* :class:`~repro.service.store.SynopsisStore` — builds releases, caches
  them under an LRU bounded by entries and bytes, persists them via
  :mod:`repro.core.serialization`, and charges every build against a
  per-dataset privacy budget, refusing overdrafts; it serves one tenant
  (:meth:`~repro.service.store.SynopsisStore.for_tenant` opens another's
  partition) and carries its ingest manager, if any;
* :class:`~repro.service.query_service.QueryService` — routes batched
  rectangle queries to a prepared per-release engine
  (:func:`~repro.queries.engine.make_engine`), with a byte-bounded LRU
  answer cache for repeat batches;
* :mod:`~repro.service.protocol` — the binary batch wire format for the
  ``POST /query`` hot path (``Content-Type: application/x-repro-batch``);
* :mod:`~repro.service.server` — a stdlib-only HTTP adapter, started
  with ``python -m repro serve`` (``--workers N`` forks ``SO_REUSEPORT``
  siblings sharing the port).

Quickstart::

    from repro.service import QueryService, ReleaseKey, SynopsisStore

    store = SynopsisStore(store_dir="releases", dataset_budget=2.0)
    service = QueryService(store)
    key = ReleaseKey("storage", "AG", epsilon=1.0, seed=0)
    store.build(key)
    result = service.answer(key, [[-110.0, 30.0, -80.0, 45.0]], clamp=True)
"""

from repro.service.errors import (
    BudgetRefused,
    DeadlineExpired,
    ReleaseNotFound,
    ReleaseQuarantined,
    ServerOverloaded,
    ServiceError,
    ValidationError,
)
from repro.service.keys import ReleaseKey, make_builder, method_names
from repro.service.query_service import QueryResult, QueryService
from repro.service.store import StoreStats, SynopsisStore
from repro.service.telemetry import AdmissionController, Deadline, LatencyHistogram

__all__ = [
    "AdmissionController",
    "BudgetRefused",
    "Deadline",
    "DeadlineExpired",
    "LatencyHistogram",
    "QueryResult",
    "QueryService",
    "ReleaseKey",
    "ReleaseNotFound",
    "ReleaseQuarantined",
    "ServerOverloaded",
    "ServiceError",
    "StoreStats",
    "SynopsisStore",
    "ValidationError",
    "make_builder",
    "method_names",
]

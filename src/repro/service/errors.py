"""Service-level exceptions with HTTP status mapping.

Every error a serving-layer operation can raise carries the HTTP status
code the adapter should answer with, so the HTTP handler needs exactly one
``except ServiceError`` clause and the store / query service stay free of
transport concerns.
"""

from __future__ import annotations

__all__ = [
    "ServiceError",
    "ValidationError",
    "AuthRequired",
    "AuthForbidden",
    "ReleaseNotFound",
    "RouteNotFound",
    "MethodNotAllowed",
    "BudgetRefused",
    "ServerOverloaded",
    "DeadlineExpired",
    "ReleaseQuarantined",
    "IngestDisabled",
]


class ServiceError(Exception):
    """Base class for serving-layer failures.

    ``status`` is the HTTP status code the error maps to; subclasses set
    their own default and callers may override per instance.
    ``retry_after``, when not ``None``, is surfaced as the ``Retry-After``
    response header — set it on errors a client can sensibly wait out
    (overload, a quarantined release pending rebuild), leave it ``None``
    where retrying cannot help (validation, exhausted budget).
    """

    status = 500
    retry_after: int | None = None

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        if status is not None:
            self.status = status

    def to_payload(self) -> dict:
        """JSON-serialisable body for an HTTP error response."""
        return {"error": type(self).__name__, "detail": str(self)}


class ValidationError(ServiceError):
    """A request was malformed: missing fields, bad types, oversized batch."""

    status = 400


class AuthRequired(ServiceError):
    """The request carried no (or an unparseable) credential.

    Answered 401 with a ``WWW-Authenticate: Bearer`` challenge.  Raised
    only when the server runs with ``--auth require``; the default
    ``--auth off`` deployment never authenticates and every request acts
    as the implicit ``default`` tenant.
    """

    status = 401


class AuthForbidden(ServiceError):
    """The credential parsed but does not match any active API key.

    Deliberately indistinguishable from a revoked or mistyped key: the
    response never says which part of the token was wrong.
    """

    status = 403


class RouteNotFound(ServiceError):
    """No route serves the request path (any method)."""

    status = 404


class MethodNotAllowed(ServiceError):
    """The path exists but not for this HTTP method.

    ``allow`` lists the methods the path does support; the HTTP adapter
    surfaces it as the ``Allow`` response header (RFC 9110 requires one
    on every 405).
    """

    status = 405

    def __init__(self, message: str, allow: tuple[str, ...] = ()):
        super().__init__(message)
        self.allow = tuple(sorted(allow))


class ReleaseNotFound(ServiceError):
    """No release for the requested key is cached or persisted.

    Consumers should build the release first (``POST /releases``) or ask
    for one of the keys ``GET /releases`` lists.
    """

    status = 404


class ServerOverloaded(ServiceError):
    """The request was shed by admission control (too many in flight).

    The bounded in-flight gate protects latency for admitted requests:
    beyond ``max_inflight`` running plus ``queue_depth`` waiting, new
    work is rejected in microseconds instead of growing the thread pile.
    ``retry_after`` is surfaced as the ``Retry-After`` response header.
    """

    status = 429

    def __init__(self, message: str, retry_after: int = 1):
        super().__init__(message)
        self.retry_after = int(retry_after)


class DeadlineExpired(ServiceError):
    """The per-request deadline ran out before the work completed.

    Raised at checkpoints through the build and answer paths (store
    waits, fits, engine preparation, batch evaluation), so slow work is
    abandoned at the next boundary instead of holding its thread and
    memory until an unbounded finish.
    """

    status = 504


class ReleaseQuarantined(ServiceError):
    """The persisted archive for this key failed to load and was quarantined.

    The corrupt file was renamed to ``*.corrupt`` (bytes preserved for
    forensics) and will never be parsed again; queries for the key answer
    503 until a rebuild (``POST /releases``) restores it — which charges
    budget like any build, so corruption can never launder epsilon.
    ``Retry-After`` tells well-behaved clients to back off while an
    operator (or an automated rebuild) restores the key, rather than
    hammering a release that cannot answer.
    """

    status = 503
    retry_after = 30


class IngestDisabled(ServiceError):
    """``POST /ingest`` reached a server running without ``--ingest``.

    Streaming ingestion needs a persistent store directory and a single
    worker process (one WAL writer); servers started without it answer
    503 so clients can distinguish "not configured here" from a route
    typo (404).
    """

    status = 503


class BudgetRefused(ServiceError):
    """Building the release would overdraw the dataset's privacy budget.

    Raised *before* the sensitive data is touched.  Unlike
    :class:`~repro.privacy.budget.BudgetExceededError`, which guards a
    single mechanism's internal accounting, this guards the cumulative
    epsilon spent across every release the store ever built from the same
    dataset instance (sequential composition across builds).
    """

    status = 409

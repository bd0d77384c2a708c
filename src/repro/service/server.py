"""Stdlib-only HTTP adapter for the serving layer.

A thin HTTP front end (``http.server``; no web framework) over
:class:`~repro.service.query_service.QueryService`, dispatched through a
declarative :class:`~repro.service.router.Router` table:

====== ========== ===============================================
Method Path       Meaning
====== ========== ===============================================
GET    /health    liveness + cache/fault counters + tenant stats
GET    /releases  cached + persisted keys, budgets, store stats
POST   /releases  build (or fetch) a release; 201 when a fit ran
POST   /query     answer a batch of rectangles from one release
POST   /ingest    durably stage a point batch; may re-release
====== ========== ===============================================

**Tenancy.**  Every request resolves to a tenant before it touches data.
With ``--auth off`` (the default) an attached
:class:`~repro.service.auth.NullAuthenticator` maps every request to the
implicit ``default`` tenant and the server behaves exactly as the
single-operator service always did.  With ``--auth require`` the
:class:`~repro.service.auth.ApiKeyAuthenticator` demands
``Authorization: Bearer rk_<id>.<secret>`` and resolves it against the
metadata catalog; missing credentials answer ``401`` +
``WWW-Authenticate: Bearer``, bad ones ``403``.  ``GET /health`` is
exempt from both authentication *and* admission control — probes must
work precisely when the service is locked down or saturated.  Each
non-default tenant gets its own :class:`QueryService` over its own
:class:`~repro.service.store.SynopsisStore` partition
(:meth:`~repro.service.store.SynopsisStore.for_tenant`: archives under
``<store_dir>/tenants/<tenant>``, budget rows scoped in the shared
catalog) and — when the default store has an ingest manager — its own
:class:`~repro.service.ingest.IngestManager` with per-tenant WALs, so
one tenant exhausting its privacy budget (409s) never perturbs another
tenant's builds, queries, or ingestion.  The server reads each tenant's
ingest manager from its store
(:attr:`~repro.service.store.SynopsisStore.ingest`).  A tenant's
service is created on its first request, except that a server with
ingestion creates every tenant partition already on disk at
construction: each tenant's WAL replays, and a refresh a crash
interrupted is finished, before the first request is accepted.

``POST /ingest`` (a store with an ingest manager, ``--ingest``) appends
the batch to the write-ahead log before acknowledging, applies the
drift/staleness refresh policy, and answers 200 — or **409** when a
required refresh was refused by the budget: the batch is still durably
staged (the report says ``"persisted": true``) and the last good
release keeps serving, marked stale.  Queries against a release with
pending ingested points carry ``X-Synopsis-Stale: 1`` and
``X-Pending-Points`` headers (and a ``staleness`` block in JSON
responses); ``/health`` reports the full ingest state.  503 responses
that a client can wait out (quarantined release pending rebuild, shed
load) carry ``Retry-After``.

Request/response bodies are JSON by default; see
:mod:`repro.service.schemas` for the request fields.  ``POST /query``
additionally negotiates the binary batch protocol
(:mod:`repro.service.protocol`) by ``Content-Type`` — a request sent as
``application/x-repro-batch`` is decoded zero-copy from the binary frame
— and by ``Accept`` — a client that accepts the binary type gets its
estimates back as a binary answer frame, with the timing split mirrored
into ``X-Build-Ms`` / ``X-Answer-Ms`` / ``X-Answer-Cached`` response
headers.  Errors come back as JSON ``{"error": <class>, "detail":
<message>}`` on every path — including routing misses: an unknown path
is a 404 whose detail lists every registered route, and a known path
under the wrong method (any verb, even ones this server never defined)
is a 405 with an ``Allow`` header, never
``BaseHTTPRequestHandler``'s plain-text defaults.

**Failure model.**  The server is a ``ThreadingHTTPServer`` (one thread
per connection), wrapped in three defenses so overload and abuse degrade
predictably instead of piling up threads:

* **Admission control** — routes flagged ``gated`` (the expensive POSTs)
  pass a bounded in-flight gate
  (:class:`~repro.service.telemetry.AdmissionController`): at most
  ``max_inflight`` requests execute, ``queue_depth`` more may wait, and
  the rest are shed with ``429`` + ``Retry-After`` in microseconds.
  GETs (health checks, listings) bypass the gate — monitoring must keep
  working precisely when the service is saturated.
* **Per-request deadlines** — every request gets a
  :class:`~repro.service.telemetry.Deadline` of ``request_deadline_ms``
  threaded through the build and answer paths; expiry answers ``504``.
  Requests may tighten (never extend) it via a ``deadline_ms`` body
  field.
* **Slow-client bounds** — all socket reads go through a guarded reader
  that enforces one wall-clock budget per request (headers *and* body)
  and a total header-byte cap, so a slowloris drip-feeding bytes is cut
  off at the deadline instead of pinning a thread per connection.

For multi-core serving, ``reuse_port=True`` lets several processes bind
the same address via ``SO_REUSEPORT`` and share the accept load (see
:mod:`repro.service.cli`'s ``--workers``, which also supervises and
respawns crashed workers).
"""

from __future__ import annotations

import json
import logging
import os
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.service import faultinject, protocol
from repro.service.auth import Authenticator, NullAuthenticator
from repro.service.catalog import DEFAULT_TENANT, validate_tenant_id
from repro.service.errors import (
    AuthForbidden,
    AuthRequired,
    DeadlineExpired,
    IngestDisabled,
    MethodNotAllowed,
    ServerOverloaded,
    ServiceError,
    ValidationError,
)
from repro.service.query_service import QueryService
from repro.service.router import Router
from repro.service.schemas import (
    parse_build_request,
    parse_ingest_request,
    parse_query_request,
)
from repro.service.telemetry import AdmissionController, Deadline, LatencyHistogram

__all__ = ["SynopsisHTTPServer", "serve"]

logger = logging.getLogger(__name__)

#: Largest accepted request body (16 MiB ~= a full MAX_BATCH_SIZE batch).
_MAX_BODY_BYTES = 16 * 1024 * 1024

#: Longest request line accepted (mirrors http.server's own bound).
_MAX_REQUEST_LINE = 65536

#: Seconds a request may wait for an admission slot when deadlines are
#: disabled; with deadlines on, the queue wait is bounded by the deadline.
_DEFAULT_QUEUE_WAIT_S = 2.0


class SynopsisHTTPServer(ThreadingHTTPServer):
    """HTTP server bound to one :class:`QueryService`.

    ``reuse_port=True`` sets ``SO_REUSEPORT`` before binding, so multiple
    worker processes can listen on the same ``(host, port)`` and let the
    kernel balance connections between them.  Raises ``OSError`` on
    platforms without ``SO_REUSEPORT`` — callers should fall back to a
    single worker (the CLI does).

    Parameters
    ----------
    max_inflight:
        Bound on concurrently executing gated requests (0 disables the
        admission gate).
    queue_depth:
        How many admitted-but-waiting requests may queue for a slot
        before new arrivals are shed with 429.
    request_deadline_ms:
        Per-request wall-clock budget threaded through build and answer
        paths; expiry answers 504 (0 disables deadlines).
    read_timeout:
        Per-request budget, in seconds, for reading the request off the
        socket (headers plus body together) — the slowloris bound.
    max_header_bytes:
        Cap on total request-line + header bytes per request.
    authenticator:
        Resolves request headers to a tenant id; defaults to
        :class:`~repro.service.auth.NullAuthenticator` (everyone is the
        ``default`` tenant).
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: tuple[str, int],
        service: QueryService,
        reuse_port: bool = False,
        max_inflight: int = 64,
        queue_depth: int = 64,
        request_deadline_ms: float = 30_000.0,
        read_timeout: float = 30.0,
        max_header_bytes: int = 32 * 1024,
        authenticator: Authenticator | None = None,
    ):
        if reuse_port and not hasattr(socket, "SO_REUSEPORT"):
            raise OSError("SO_REUSEPORT is not supported on this platform")
        # Attributes used during super().__init__ (which binds) must be
        # set first.
        self.reuse_port = reuse_port
        self.service = service
        self.request_deadline_ms = float(request_deadline_ms)
        self.read_timeout = float(read_timeout)
        self.max_header_bytes = int(max_header_bytes)
        self.admission = AdmissionController(max_inflight, queue_depth)
        self.latency = LatencyHistogram()
        self.authenticator = (
            authenticator if authenticator is not None else NullAuthenticator()
        )
        self._tenants: dict[str, QueryService] = {DEFAULT_TENANT: service}
        self._tenant_lock = threading.Lock()
        self._counter_lock = threading.Lock()
        self._deadline_expired = 0
        self._slow_clients_closed = 0
        self._auth_rejected = 0
        if service.store.ingest is not None:
            self._open_tenant_partitions(service.store.store_dir / "tenants")
        super().__init__(address, _Handler)

    def server_bind(self) -> None:
        if self.reuse_port:
            self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        super().server_bind()

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    # ------------------------------------------------------------------
    # Tenancy
    # ------------------------------------------------------------------

    def tenant_service(self, tenant: str) -> QueryService:
        """The (lazily created) query service for ``tenant``.

        The default tenant's is the service the server was constructed
        with; any other tenant gets a service over a partitioned store
        (with its own ingest manager when the default store has one),
        created once under the lock and kept for the server's lifetime.
        """
        service = self._tenants.get(tenant)
        if service is not None:
            return service
        with self._tenant_lock:
            service = self._tenants.get(tenant)
            if service is None:
                service = self._make_service(tenant)
                self._tenants[tenant] = service
            return service

    def _open_tenant_partitions(self, root) -> None:
        """Create the service of every tenant partition under ``root``.

        A tenant's ingest manager replays its WALs and finishes any
        refresh a crash interrupted between the ledger charge and the
        WAL marker; doing that here, before the socket is bound, keeps
        the recovery refit out of the first request's admission slot
        and deadline.  Directories whose names are not tenant ids are
        not partitions and are skipped.
        """
        for path in sorted(root.glob("*")):
            try:
                tenant = validate_tenant_id(path.name)
            except ValidationError:
                continue
            if path.is_dir():
                self.tenant_service(tenant)

    def _make_service(self, tenant: str) -> QueryService:
        store = self.service.store.for_tenant(tenant)
        ingest = self.service.store.ingest
        if ingest is not None:
            ingest.for_store(store)  # attaches itself to the store
        return self.service.for_store(store)

    def tenants_payload(self) -> dict:
        """Per-tenant serving counters for ``/health``."""
        with self._tenant_lock:
            items = sorted(self._tenants.items())
        return {
            tenant: {
                "releases_cached": len(service.store.cached_keys()),
                **service.tenant_stats(),
            }
            for tenant, service in items
        }

    # ------------------------------------------------------------------
    # Fault accounting (handler threads call these)
    # ------------------------------------------------------------------

    def new_deadline(self) -> Deadline | None:
        if self.request_deadline_ms <= 0:
            return None
        return Deadline(self.request_deadline_ms)

    def note_deadline_expired(self) -> None:
        with self._counter_lock:
            self._deadline_expired += 1

    def note_slow_client(self) -> None:
        with self._counter_lock:
            self._slow_clients_closed += 1

    def note_auth_rejected(self) -> None:
        with self._counter_lock:
            self._auth_rejected += 1

    def fault_payload(self) -> dict:
        """The `/health` fault block: shedding, deadlines, quarantines."""
        with self._counter_lock:
            deadline_expired = self._deadline_expired
            slow_clients = self._slow_clients_closed
            auth_rejected = self._auth_rejected
        store = self.service.store
        return {
            **self.admission.to_payload(),
            "deadline_expired": deadline_expired,
            "slow_clients_closed": slow_clients,
            "auth_rejected": auth_rejected,
            "request_deadline_ms": self.request_deadline_ms,
            "quarantined": store.stats.quarantined,
            "ledger_corrupt": store.ledger_corrupt is not None,
        }

    def drain(self, timeout: float = 10.0) -> bool:
        """Wait (bounded) for in-flight requests to finish; True if idle.

        Called after ``shutdown()`` during graceful termination: the
        listener has stopped accepting, and this waits for the admitted
        requests to complete before the process exits.
        """
        give_up = time.monotonic() + timeout
        while self.admission.inflight() > 0:
            if time.monotonic() >= give_up:
                return False
            time.sleep(0.05)
        return True


class _GuardedReader:
    """Deadline- and byte-bounded wrapper over a request's ``rfile``.

    One wall-clock budget covers *all* reads of a request — request
    line, headers, and body — so a client dripping one byte per
    29 seconds cannot extend its welcome indefinitely (each individual
    ``recv`` resets a plain socket timeout; the budget here does not
    reset).  Reads go byte-by-byte (headers) or buffer-by-buffer (body)
    through the underlying buffered reader, re-arming the socket timeout
    to the remaining budget so no single blocking call can overshoot.
    Header bytes are additionally capped: past ``max_header_bytes`` the
    connection is closed without a response (the peer is by definition
    not a well-behaved client).
    """

    def __init__(self, rfile, connection, read_timeout, max_header_bytes, on_abuse):
        self._rfile = rfile
        self._connection = connection
        self._read_timeout = read_timeout
        self._max_header_bytes = max_header_bytes
        self._on_abuse = on_abuse
        self._expires_at = time.monotonic() + read_timeout
        self._header_bytes = 0

    def begin_request(self) -> None:
        """Reset the read budget; called once per keep-alive request."""
        self._expires_at = time.monotonic() + self._read_timeout
        self._header_bytes = 0

    def _arm(self) -> None:
        remaining = self._expires_at - time.monotonic()
        if remaining <= 0:
            self._on_abuse()
            raise TimeoutError("per-request read budget exhausted")
        # CPython implements socket timeouts per call (no syscall here),
        # so re-arming each read is cheap.
        self._connection.settimeout(min(self._read_timeout, remaining))

    def readline(self, limit: int = -1) -> bytes:
        """A header/request line; the budget binds every blocking read.

        ``peek`` is the only call that can block (one ``recv`` when the
        buffer is empty), so arming before it bounds a drip-feeding
        client exactly as a byte-wise loop would — but a header line
        that already sits in the buffer is consumed in one C-speed
        ``find`` + ``read`` instead of one Python iteration per byte.
        """
        if limit < 0:
            limit = _MAX_REQUEST_LINE + 1
        faultinject.fire("server.read", phase="headers")
        line = bytearray()
        try:
            while len(line) < limit:
                self._arm()
                buffered = self._rfile.peek(1)
                if not buffered:
                    break
                take = min(len(buffered), limit - len(line))
                newline = buffered.find(b"\n", 0, take)
                if newline >= 0:
                    take = newline + 1
                line += self._rfile.read(take)
                if line.endswith(b"\n"):
                    break
        except TimeoutError:
            self._on_abuse()
            raise
        self._header_bytes += len(line)
        if self._header_bytes > self._max_header_bytes:
            self._on_abuse()
            raise TimeoutError(
                f"request line + headers exceed {self._max_header_bytes} bytes"
            )
        return bytes(line)

    def read(self, size: int) -> bytes:
        """Up to ``size`` body bytes, one buffered read per arm."""
        faultinject.fire("server.read", phase="body")
        chunks = []
        remaining = size
        try:
            while remaining > 0:
                self._arm()
                chunk = self._rfile.read1(remaining)
                if not chunk:
                    break
                chunks.append(chunk)
                remaining -= len(chunk)
        except TimeoutError:
            self._on_abuse()
            raise
        return b"".join(chunks)

    @property
    def closed(self) -> bool:
        return self._rfile.closed

    def close(self) -> None:
        self._rfile.close()

    def flush(self) -> None:  # pragma: no cover - StreamRequestHandler API
        pass


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1.3"
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY: responses are written as two packets (headers, then
    # body); with Nagle enabled the second write waits for the client's
    # delayed ACK of the first, turning every keep-alive request into a
    # ~40 ms round trip.  Measured on loopback: 41.8 ms -> 0.6 ms per
    # 200-rect query batch.
    disable_nagle_algorithm = True

    def setup(self) -> None:
        # The per-connection socket timeout (socketserver applies
        # self.timeout in super().setup()); the guarded reader then
        # tightens it per read so one request's total read time is
        # bounded, not just each recv.
        self.timeout = self.server.read_timeout
        super().setup()
        self.rfile = _GuardedReader(
            self.rfile,
            self.connection,
            self.server.read_timeout,
            self.server.max_header_bytes,
            self.server.note_slow_client,
        )

    def handle_one_request(self) -> None:
        # Fresh read budget per keep-alive request.  A TimeoutError
        # raised by the guard during the header phase is caught by
        # BaseHTTPRequestHandler.handle_one_request, which closes the
        # connection — the right answer to an abusive peer.
        if isinstance(self.rfile, _GuardedReader):
            self.rfile.begin_request()
        super().handle_one_request()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._dispatch()

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        self._dispatch()

    def do_DELETE(self) -> None:  # noqa: N802 (http.server API)
        # No route accepts DELETE (it answers 404 or 405), but it stays a
        # real method beside do_GET and do_POST: perfbench's traced
        # launcher wraps all three.
        self._dispatch()

    def __getattr__(self, name: str):
        # http.server answers verbs without a do_<VERB> method with a
        # plain-text 501.  Routing every parseable verb through the
        # router instead turns "PUT /releases" into a structured JSON
        # 405 carrying an Allow header (or a 404 for unknown paths).
        if name.startswith("do_"):
            return self._dispatch
        raise AttributeError(name)

    def _dispatch(self) -> None:
        server = self.server
        start = time.perf_counter()
        path = self.path.partition("?")[0].rstrip("/") or "/"
        self._deadline = server.new_deadline()
        self._service = None
        try:
            route = _ROUTER.resolve(self.command, path)
            # Middleware, in order: authentication resolves the tenant
            # (exempt routes stay on the default tenant), the tenant's
            # service is materialised, gated routes pass admission, and
            # unread bodies are drained so keep-alive stays in sync.
            tenant = DEFAULT_TENANT
            if not route.auth_exempt:
                tenant = server.authenticator.authenticate(self.headers)
            self._service = server.tenant_service(tenant)
            admitted = False
            if route.gated and server.admission.enabled:
                wait = (
                    self._deadline.remaining()
                    if self._deadline is not None
                    else _DEFAULT_QUEUE_WAIT_S
                )
                admitted = server.admission.try_enter(timeout=wait)
                if not admitted:
                    raise ServerOverloaded(
                        f"server at capacity "
                        f"({server.admission.max_inflight} in flight, "
                        f"{server.admission.queue_depth} queued); request shed"
                    )
            try:
                if route.drain_body:
                    self._drain_body()
                route.handler(self)
            finally:
                if admitted:
                    server.admission.leave()
        except ServiceError as error:
            headers: dict[str, str] = {}
            if error.retry_after is not None:
                headers["Retry-After"] = str(error.retry_after)
            if isinstance(error, DeadlineExpired):
                server.note_deadline_expired()
            if isinstance(error, MethodNotAllowed) and error.allow:
                headers["Allow"] = ", ".join(error.allow)
            if isinstance(error, (AuthRequired, AuthForbidden)):
                server.note_auth_rejected()
            if isinstance(error, AuthRequired):
                headers["WWW-Authenticate"] = "Bearer"
            self._send_json(
                error.status, error.to_payload(), extra_headers=headers or None
            )
        except (TimeoutError, ConnectionError):
            # Client stalled or vanished mid-request; there is no one
            # left to answer — just release the connection.  (The
            # guarded reader already counted a stall.)
            self.close_connection = True
        except Exception:  # pragma: no cover - defensive last resort
            logger.exception("unhandled error serving %s %s", self.command, self.path)
            self._send_json(
                500, {"error": "InternalError", "detail": "internal server error"}
            )
        finally:
            server.latency.observe((time.perf_counter() - start) * 1e3)

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------

    def _get_health(self) -> None:
        server = self.server
        service = self._service
        ingest = service.store.ingest
        self._send_json(
            200,
            {
                "status": "ok",
                "pid": os.getpid(),
                "releases_cached": len(service.store.cached_keys()),
                **service.stats(),
                **server.fault_payload(),
                "memory": service.store.memory_payload(),
                "latency_ms": server.latency.to_payload(),
                "ingest": (
                    ingest.to_payload() if ingest is not None else {"enabled": False}
                ),
                "tenants": server.tenants_payload(),
            },
        )

    def _get_releases(self) -> None:
        self._send_json(200, self._service.store.to_payload())

    def _effective_deadline(self, requested_ms) -> Deadline | None:
        """The dispatch deadline, tightened by the request's own budget."""
        deadline = self._deadline
        if requested_ms is None:
            return deadline
        if deadline is None:
            return Deadline(requested_ms)
        return deadline.tighten(requested_ms)

    def _post_releases(self) -> None:
        request = parse_build_request(self._read_json())
        synopsis, built = self._service.store.build(
            request.key,
            force=request.force,
            deadline=self._effective_deadline(request.deadline_ms),
        )
        self._send_json(
            201 if built else 200,
            {
                "key": request.key.to_payload(),
                "kind": type(synopsis).__name__,
                "built": built,
                "total_estimate": float(synopsis.total()),
            },
        )

    def _post_query(self) -> None:
        content_type = (self.headers.get("Content-Type") or "").split(";", 1)[0]
        if content_type.strip().lower() == protocol.CONTENT_TYPE:
            request = protocol.decode_query(self._read_body())
        else:
            request = parse_query_request(self._parse_json(self._read_body()))
        result = self._service.answer(
            request.key,
            request.boxes,
            clamp=request.clamp,
            deadline=self._effective_deadline(
                getattr(request, "deadline_ms", None)
            ),
        )
        # A release with durably staged points it does not yet reflect
        # still answers — streaming must not break serving — but says so:
        # the client can decide whether stale-but-private is acceptable.
        ingest = self._service.store.ingest
        staleness = ingest.staleness(request.key) if ingest is not None else None
        stale_headers = {}
        if staleness is not None:
            stale_headers = {
                "X-Synopsis-Stale": "1",
                "X-Pending-Points": str(staleness["pending_points"]),
            }
        accept = self.headers.get("Accept") or ""
        if protocol.CONTENT_TYPE in accept.lower():
            self._send_bytes(
                200,
                protocol.encode_answer(result.estimates, clamp=request.clamp),
                protocol.CONTENT_TYPE,
                extra_headers={
                    "X-Build-Ms": f"{result.build_ms:.3f}",
                    "X-Answer-Ms": f"{result.answer_ms:.3f}",
                    "X-Answer-Cached": "1" if result.cached else "0",
                    **stale_headers,
                },
            )
        else:
            payload = result.to_payload()
            if staleness is not None:
                payload["staleness"] = staleness
            self._send_json(200, payload, extra_headers=stale_headers or None)

    def _post_ingest(self) -> None:
        manager = self._service.store.ingest
        if manager is None:
            raise IngestDisabled(
                "streaming ingestion is not enabled on this server; "
                "start it with --ingest (requires --store-dir and a "
                "single worker)"
            )
        request = parse_ingest_request(self._read_json())
        report = manager.ingest(
            request.dataset, request.seed, request.batch_id, request.points
        )
        # The batch outlives this response whatever the refresh outcome:
        # it was fsync'd to the WAL before the policy ran.
        report["persisted"] = True
        # A refused refresh is a 409: the caller's data is safe but the
        # releases it should update are now provably stale and the
        # budget cannot pay for a refresh.  The report names each
        # refused release and why.
        self._send_json(409 if report["refused"] else 200, report)

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    def _drain_body(self) -> None:
        """Consume a request body a handler will not read.

        Raises :class:`ValidationError` (a clean 400, connection closed)
        when the ``Content-Length`` header is malformed or oversized: in
        either case the body's true extent is unknowable or not worth
        reading, so the connection cannot be resynchronised — but the
        client still deserves an answer, not an aborted socket.
        """
        raw = self.headers.get("Content-Length", 0) or 0
        try:
            length = int(raw)
        except ValueError:
            self.close_connection = True
            raise ValidationError(
                f"malformed Content-Length header {raw!r}"
            ) from None
        if length > _MAX_BODY_BYTES:
            # Not worth reading gigabytes to keep one connection alive.
            self.close_connection = True
            raise ValidationError(
                f"request body of {length} bytes exceeds the "
                f"{_MAX_BODY_BYTES}-byte limit"
            )
        while length > 0:
            chunk = self.rfile.read(min(length, 65536))
            if not chunk:
                break
            length -= len(chunk)

    def _read_body(self) -> bytes:
        """Read the request body, enforcing presence, size, and pace.

        The guarded reader bounds the wall-clock spent here (a client
        trickling its body hits the per-request read budget, not a
        per-``recv`` timeout that resets forever), and a short body —
        client closed before sending ``Content-Length`` bytes — is a
        clean connection drop, never a half-parsed request.
        """
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            raise ValidationError("malformed Content-Length header") from None
        if length <= 0:
            raise ValidationError("request requires a body")
        if length > _MAX_BODY_BYTES:
            raise ValidationError(
                f"request body of {length} bytes exceeds the "
                f"{_MAX_BODY_BYTES}-byte limit"
            )
        body = self.rfile.read(length)
        if len(body) < length:
            raise ConnectionError(
                f"client closed after {len(body)} of {length} body bytes"
            )
        return body

    @staticmethod
    def _parse_json(body: bytes):
        try:
            return json.loads(body)
        except json.JSONDecodeError as error:
            raise ValidationError(f"request body is not valid JSON: {error}") from None

    def _read_json(self):
        return self._parse_json(self._read_body())

    def _send_json(
        self,
        status: int,
        payload: dict,
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        self._send_bytes(
            status,
            json.dumps(payload).encode("utf-8"),
            "application/json",
            extra_headers=extra_headers,
        )

    def _send_bytes(
        self,
        status: int,
        body: bytes,
        content_type: str,
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        if status >= 400:
            # Error paths may leave the request body unread; on a
            # keep-alive connection those bytes would be parsed as the
            # next request line.  Closing keeps the protocol in sync.
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:
        logger.debug("%s - %s", self.address_string(), format % args)


def _build_router() -> Router:
    """The server's dispatch table (shared, immutable after import).

    Expensive mutating routes are ``gated`` (admission-controlled) and
    parse their own bodies (``drain_body=False``); listings drain any
    stray body so keep-alive stays in sync.  ``/health`` is the one
    ``auth_exempt`` route: probes must answer on a locked-down server.
    """
    router = Router()
    router.add("GET", "/health", _Handler._get_health, auth_exempt=True)
    router.add("GET", "/releases", _Handler._get_releases)
    router.add(
        "POST", "/releases", _Handler._post_releases, gated=True, drain_body=False
    )
    router.add("POST", "/query", _Handler._post_query, gated=True, drain_body=False)
    router.add("POST", "/ingest", _Handler._post_ingest, gated=True, drain_body=False)
    return router


_ROUTER = _build_router()


def serve(
    service: QueryService,
    host: str = "127.0.0.1",
    port: int = 8731,
    reuse_port: bool = False,
    **fault_options,
) -> SynopsisHTTPServer:
    """Bind a server for ``service`` (``port=0`` picks a free port).

    The caller owns the loop: call ``serve_forever()`` (blocking) or run
    it on a thread and ``shutdown()`` when done, as the tests do.
    ``reuse_port=True`` binds with ``SO_REUSEPORT`` so several worker
    processes can share one listening address.  ``fault_options`` are
    forwarded to :class:`SynopsisHTTPServer` (``max_inflight``,
    ``queue_depth``, ``request_deadline_ms``, ``read_timeout``,
    ``max_header_bytes``, ``authenticator``).  A store with an ingest
    manager attached is served with ``POST /ingest`` and staleness
    reports.
    """
    return SynopsisHTTPServer(
        (host, port), service, reuse_port=reuse_port, **fault_options
    )

"""``python -m repro serve`` — run the synopsis server.

Examples::

    # serve AG and UG releases of the storage dataset, persisted on disk
    python -m repro serve --store-dir /var/lib/repro --preload storage_AG_eps1.0_seed0

    # saturate a multi-core box: 4 worker processes share the port
    python -m repro serve --workers 4 --store-dir /var/lib/repro \
        --preload storage_AG_eps1.0_seed0

    # accept streamed point batches: WAL-backed POST /ingest with
    # drift-triggered, budget-capped re-releases (single worker only)
    python -m repro serve --store-dir /var/lib/repro --ingest \
        --drift-threshold 0.2 --staleness-ms 60000 --epoch-budget-fraction 0.5

    # multi-tenant: mint an API key (one-shot), then require auth
    python -m repro serve --store-dir /var/lib/repro --create-api-key acme
    python -m repro serve --store-dir /var/lib/repro --auth require

    # one-request self-test on an ephemeral port (used by `make serve-smoke`)
    python -m repro serve --smoke

Build a release and query it::

    curl -X POST localhost:8731/releases \
        -d '{"dataset": "storage", "method": "AG", "epsilon": 1.0, "seed": 0}'
    curl -X POST localhost:8731/query \
        -d '{"dataset": "storage", "method": "AG", "epsilon": 1.0, "seed": 0,
             "rects": [[-100, 30, -80, 45]]}'

**Multi-worker model.**  ``--workers N`` forks N processes, each binding
the same ``(host, port)`` with ``SO_REUSEPORT`` so the kernel balances
incoming connections across them (falling back to one worker, with a
warning, where fork or ``SO_REUSEPORT`` is unavailable — or when no
``--store-dir`` is given, since N independent in-memory ledgers would
silently multiply every dataset's privacy budget).  The parent stays
resident as a supervisor: a worker that crashes is respawned with capped
exponential backoff, and SIGTERM/SIGINT drains the whole tree (workers
stop accepting, finish in-flight requests, then exit).  Each worker
owns an independent :class:`~repro.service.store.SynopsisStore` handle
over the shared ``--store-dir``: releases preloaded (or built) by one
worker are persisted as ``.npz`` artifacts every other worker reloads on
demand, and builds are bit-deterministic per key, so all workers answer
identically.  The budget ledger is the SQLite catalog every worker
opens (``<store-dir>/catalog.sqlite``, or ``--catalog PATH``): each
spend re-reads the dataset instance's rows and appends one inside a
``BEGIN IMMEDIATE`` transaction, so the budget is strictly enforced
across workers and across separate server processes sharing the file.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

from repro.service import faultinject
from repro.service.auth import make_authenticator
from repro.service.catalog import CATALOG_FILE, Catalog
from repro.service.keys import ReleaseKey, method_names
from repro.service.query_service import DEFAULT_ANSWER_CACHE_BYTES, QueryService
from repro.service.server import serve
from repro.service.store import SynopsisStore

__all__ = ["build_parser", "main", "resolve_workers"]

DEFAULT_PORT = 8731


def _catalog_path(value: str) -> str:
    if value == "off":
        raise argparse.ArgumentTypeError(
            "the catalog is the only budget ledger and cannot be turned off"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve differentially private synopsis releases over HTTP "
        f"(methods: {', '.join(method_names())}).",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=DEFAULT_PORT,
        help=f"bind port, 0 for ephemeral (default: {DEFAULT_PORT})",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes sharing the port via SO_REUSEPORT "
        "(default: 1; falls back to 1 where unsupported)",
    )
    parser.add_argument(
        "--store-dir", default=None,
        help="directory for persisted releases and the budget ledger "
        "(default: in-memory only; required for workers to share releases)",
    )
    parser.add_argument(
        "--dataset-budget", type=float, default=None,
        help="total epsilon each dataset instance may spend across all "
        "builds (default: 4.0, or 1.0 under --smoke)",
    )
    parser.add_argument(
        "--max-entries", type=int, default=16,
        help="LRU cache bound on in-memory releases (default: 16)",
    )
    parser.add_argument(
        "--max-bytes", type=int, default=512 * 1024 * 1024,
        help="LRU cache bound on released-state bytes (default: 512 MiB)",
    )
    parser.add_argument(
        "--answer-cache-bytes", type=int, default=DEFAULT_ANSWER_CACHE_BYTES,
        help="byte bound on the per-worker answer cache, 0 to disable "
        f"(default: {DEFAULT_ANSWER_CACHE_BYTES})",
    )
    parser.add_argument(
        "--n-points", type=int, default=None,
        help="dataset-size override for builds (default: registry default)",
    )
    parser.add_argument(
        "--preload", nargs="*", default=(), metavar="SLUG",
        help="release slugs to build before accepting traffic, "
        "e.g. storage_AG_eps1.0_seed0",
    )
    parser.add_argument(
        "--max-inflight", type=int, default=64,
        help="bound on concurrently executing POST requests per worker; "
        "excess requests past the queue are shed with 429 (default: 64, "
        "0 disables admission control)",
    )
    parser.add_argument(
        "--queue-depth", type=int, default=64,
        help="requests that may wait for an admission slot before new "
        "arrivals are shed (default: 64)",
    )
    parser.add_argument(
        "--request-deadline-ms", type=float, default=30_000.0,
        help="per-request wall-clock budget in milliseconds; expiry "
        "answers 504 (default: 30000, 0 disables deadlines)",
    )
    parser.add_argument(
        "--read-timeout", type=float, default=30.0,
        help="per-request budget in seconds for reading headers + body "
        "off the socket; slow clients past it are disconnected "
        "(default: 30)",
    )
    parser.add_argument(
        "--ingest", action="store_true",
        help="enable streaming ingestion (POST /ingest): batches are "
        "staged in a crash-safe write-ahead log and trigger budgeted "
        "re-releases; requires --store-dir and a single worker",
    )
    parser.add_argument(
        "--drift-threshold", type=float, default=0.25,
        help="build-vs-fill total-variation distance at which pending "
        "ingested points trigger a re-release (default: 0.25)",
    )
    parser.add_argument(
        "--staleness-ms", type=float, default=0.0,
        help="age of the oldest pending ingested point at which a "
        "re-release triggers regardless of drift (default: 0 = disabled)",
    )
    parser.add_argument(
        "--epoch-budget-fraction", type=float, default=0.5,
        help="fraction of each dataset instance's budget that "
        "ingest-triggered re-releases may spend in total; past it "
        "refreshes are refused and the stale release keeps serving "
        "(default: 0.5)",
    )
    parser.add_argument(
        "--auth", choices=("off", "require"), default="off",
        help="authentication mode: 'off' (default) serves everyone as "
        "the implicit default tenant; 'require' demands "
        "'Authorization: Bearer <api-key>' credentials resolved against "
        "the metadata catalog (/health stays open for probes)",
    )
    parser.add_argument(
        "--catalog", default=None, metavar="PATH", type=_catalog_path,
        help="SQLite metadata catalog (API keys and the privacy ledger); "
        "defaults to <store-dir>/catalog.sqlite, or to a private "
        "temporary file without --store-dir",
    )
    parser.add_argument(
        "--create-api-key", default=None, metavar="TENANT",
        help="admin one-shot: mint an API key for a tenant, print the "
        "one-time token, and exit",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="start on an ephemeral port, run one build + query round trip "
        "through HTTP, print the responses, and exit",
    )
    return parser


def resolve_workers(
    requested: int, store_dir=None, ingest: bool = False
) -> tuple[int, str | None]:
    """Clamp the requested worker count to what the deployment supports.

    Returns ``(workers, reason)`` where ``reason`` explains a fallback to
    1 (``None`` when the request is honoured unchanged).  Multi-worker
    serving without a shared ``store_dir`` is refused: each worker would
    hold an independent in-memory store *and budget ledger*, silently
    multiplying every dataset's privacy budget by N — the one guarantee
    the serving layer must never weaken.  Ingestion likewise forces a
    single worker: the write-ahead log has exactly one writer, and N
    processes appending to it would interleave records.
    """
    if requested < 1:
        return 1, f"--workers {requested} clamped to 1"
    if requested == 1:
        return 1, None
    if ingest:
        return 1, (
            "--ingest requires a single worker: the write-ahead log "
            "has exactly one writer process; serving with 1 worker"
        )
    if store_dir is None:
        return 1, (
            "--workers > 1 requires --store-dir: without a shared store "
            "each worker keeps its own budget ledger, multiplying the "
            "per-dataset privacy budget; serving with 1 worker"
        )
    if not hasattr(os, "fork"):
        return 1, "multi-worker serving needs os.fork(); serving with 1 worker"
    if not hasattr(socket, "SO_REUSEPORT"):
        return 1, "this platform lacks SO_REUSEPORT; serving with 1 worker"
    return requested, None


def _make_store(args) -> SynopsisStore:
    """The server's store; it opens the catalog ``--catalog`` names, or
    its own default one (see :class:`SynopsisStore`)."""
    return SynopsisStore(
        store_dir=args.store_dir,
        dataset_budget=args.dataset_budget,
        max_entries=args.max_entries,
        max_bytes=args.max_bytes,
        n_points=args.n_points,
        catalog=Catalog(args.catalog) if args.catalog is not None else None,
    )


def _fault_options(args) -> dict:
    """The robustness knobs forwarded to :func:`serve`."""
    return {
        "max_inflight": args.max_inflight,
        "queue_depth": args.queue_depth,
        "request_deadline_ms": args.request_deadline_ms,
        "read_timeout": args.read_timeout,
    }


def _install_graceful_shutdown(server) -> None:
    """Drain on SIGTERM: stop accepting, let in-flight requests finish.

    ``server.shutdown()`` must not run inside the handler — it blocks
    until ``serve_forever`` notices, and the serve loop cannot advance
    while the main thread sits in the handler — so a helper thread asks.
    No-op when not on the main thread (in-process tests drive ``main``
    from worker threads, where ``signal.signal`` raises).
    """

    def _request_stop(signum, frame):
        threading.Thread(target=server.shutdown, daemon=True).start()

    try:
        signal.signal(signal.SIGTERM, _request_stop)
    except ValueError:
        pass


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Fault-injection hooks for the crash-safety test harness; inert
    # unless REPRO_FAULTS is set (see repro.service.faultinject).
    faultinject.install_from_env()
    if (args.create_api_key is not None or args.auth == "require") and (
        args.store_dir is None and args.catalog is None
    ):
        # A private temporary catalog would hold no API keys and vanish
        # on exit: minting into it, or requiring keys from it, is moot.
        print(
            "--create-api-key and --auth require need a persistent "
            "catalog: pass --catalog PATH or --store-dir",
            file=sys.stderr,
        )
        return 2
    if args.create_api_key is not None:
        catalog = Catalog(args.catalog or Path(args.store_dir) / CATALOG_FILE)
        print(catalog.create_api_key(args.create_api_key))
        return 0
    if args.smoke:
        # Small and fast by default; an explicit --n-points or
        # --dataset-budget is honoured (the self-test adapts to the
        # configured budget when exercising the refusal path).
        args.n_points = args.n_points or 4_000
    if args.dataset_budget is None:
        args.dataset_budget = 1.0 if args.smoke else 4.0
    if args.ingest and args.store_dir is None:
        print(
            "--ingest requires --store-dir: the write-ahead log and the "
            "budget ledger must both survive restarts",
            file=sys.stderr,
        )
        return 2
    store = _make_store(args)
    authenticator = make_authenticator(args.auth, store.catalog)
    service = QueryService(store, answer_cache_bytes=args.answer_cache_bytes)
    manager = None
    if args.ingest:
        # Replays the WAL (truncating any torn tail) and finishes
        # interrupted refreshes before the server accepts traffic.
        from repro.service.ingest import IngestManager

        manager = IngestManager(
            store,
            drift_threshold=args.drift_threshold,
            staleness_ms=args.staleness_ms,
            epoch_budget_fraction=args.epoch_budget_fraction,
        )

    # Preload in the parent, before any fork: with a --store-dir the
    # artifacts land on disk where every worker reloads them on demand.
    for slug in args.preload:
        key = ReleaseKey.from_slug(slug)
        _, built = store.build(key)
        print(f"preloaded {key.slug()} ({'built' if built else 'cached'})")

    if args.smoke:
        return _smoke(service, args.host, args.dataset_budget)

    workers, fallback_reason = resolve_workers(
        args.workers, args.store_dir, ingest=args.ingest
    )
    if fallback_reason is not None:
        print(fallback_reason, file=sys.stderr)
    if workers > 1:
        return _serve_workers(args, workers)

    server = serve(
        service,
        args.host,
        args.port,
        ingest=manager,
        authenticator=authenticator,
        **_fault_options(args),
    )
    _install_graceful_shutdown(server)
    print(f"serving synopses on {server.url} (Ctrl-C to stop)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.drain()
        server.server_close()
    return 0


# ----------------------------------------------------------------------
# Multi-worker serving
# ----------------------------------------------------------------------


def _free_port(host: str) -> int:
    """Pick a currently free port for an ephemeral multi-worker bind.

    Workers each bind the concrete port with ``SO_REUSEPORT``, so the
    parent cannot simply bind port 0 once — every worker would get a
    different ephemeral port.  Probing then closing leaves a small race
    window; pass an explicit ``--port`` for production deployments.
    """
    with socket.socket() as probe:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        probe.bind((host, 0))
        return probe.getsockname()[1]


#: First respawn delay after a worker crash; doubles per consecutive
#: fast failure up to the cap, and resets once a worker survives
#: ``_WORKER_STABLE_S`` seconds (a crash loop must not busy-fork).
_RESPAWN_BACKOFF_BASE_S = 0.5
_RESPAWN_BACKOFF_CAP_S = 30.0
_WORKER_STABLE_S = 30.0


def _worker_main(args, host: str, port: int) -> int:
    """Body of one forked worker: own store handle, shared listen port.

    Each worker opens its own catalog handle over the shared SQLite
    file; spends serialise through ``BEGIN IMMEDIATE``, so the budget
    ledger is strictly consistent across workers.
    """
    store = _make_store(args)
    authenticator = make_authenticator(args.auth, store.catalog)
    service = QueryService(store, answer_cache_bytes=args.answer_cache_bytes)
    server = serve(
        service,
        host,
        port,
        reuse_port=True,
        authenticator=authenticator,
        **_fault_options(args),
    )
    # Graceful drain on SIGTERM: stop accepting, finish what's in
    # flight.  Budget spends are persisted before fits and artifacts are
    # written atomically, so there is no extra state to flush.
    _install_graceful_shutdown(server)
    print(f"worker {os.getpid()} serving on {server.url}", flush=True)
    # Fault hook for supervision tests: REPRO_FAULTS=worker.serve:exit=3
    # makes a worker die right after announcing itself.
    faultinject.fire("worker.serve", pid=os.getpid())
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.drain()
        server.server_close()
    return 0


def _spawn_worker(args, host: str, port: int) -> int:
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = _worker_main(args, host, port)
        finally:
            os._exit(code)
    return pid


def _serve_workers(args, n_workers: int) -> int:
    """Fork ``n_workers`` servers and supervise them until shutdown.

    The parent is a supervisor: a worker that dies (bug, OOM kill,
    injected crash) is respawned with capped exponential backoff, so the
    deployment never silently serves at N-1 capacity.  SIGINT/SIGTERM
    flip to drain mode — workers get SIGTERM (finish in-flight requests,
    then exit) and are reaped, no respawns.
    """
    host = args.host
    port = args.port if args.port != 0 else _free_port(args.host)
    started_at: dict[int, float] = {}
    shutting_down = threading.Event()

    def _request_shutdown(signum, frame):
        if not shutting_down.is_set():
            shutting_down.set()
            print("shutting down workers", flush=True)
        # Forward to the children so the waitpid below wakes as they
        # exit (PEP 475 would otherwise resume it indefinitely).
        for pid in list(started_at):
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                continue

    previous = {
        sig: signal.signal(sig, _request_shutdown)
        for sig in (signal.SIGINT, signal.SIGTERM)
    }
    for _ in range(n_workers):
        pid = _spawn_worker(args, host, port)
        started_at[pid] = time.monotonic()
    print(
        f"serving synopses on http://{host}:{port} "
        f"with {n_workers} workers (Ctrl-C to stop)",
        flush=True,
    )
    fast_failures = 0
    try:
        while not shutting_down.is_set():
            try:
                pid, status = os.waitpid(-1, 0)
            except ChildProcessError:  # pragma: no cover - all workers gone
                break
            launched = started_at.pop(pid, None)
            if launched is None or shutting_down.is_set():
                continue
            code = os.waitstatus_to_exitcode(status)
            lifetime = time.monotonic() - launched
            if lifetime >= _WORKER_STABLE_S:
                fast_failures = 0
            else:
                fast_failures += 1
            delay = min(
                _RESPAWN_BACKOFF_CAP_S,
                _RESPAWN_BACKOFF_BASE_S * (2 ** max(0, fast_failures - 1)),
            )
            print(
                f"worker {pid} exited with {code} after {lifetime:.1f}s; "
                f"respawning in {delay:.1f}s",
                file=sys.stderr,
                flush=True,
            )
            give_up = time.monotonic() + delay
            while not shutting_down.is_set() and time.monotonic() < give_up:
                time.sleep(0.05)
            if shutting_down.is_set():
                break
            new_pid = _spawn_worker(args, host, port)
            started_at[new_pid] = time.monotonic()
            print(f"worker {new_pid} respawned", flush=True)
    finally:
        for pid in list(started_at):
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                continue
        for pid in list(started_at):
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                break
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    return 0


def _smoke(service: QueryService, host: str, dataset_budget: float) -> int:
    """End-to-end self-test: build AG over HTTP, query it, check refusal.

    Exercises the acceptance path: a batched rectangle query answered
    from a cached AG synopsis through the HTTP adapter — once as JSON and
    once through the binary batch protocol, asserted identical — plus a
    forced rebuild refused once the dataset budget is exhausted.  Works
    for any configured budget — the smoke release's epsilon is
    ``min(1.0, budget)`` and forced rebuilds drain the remainder — and
    against a store directory that already holds the release.
    """
    server = serve(service, host, 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        def call(path: str, payload: dict | None = None):
            request = urllib.request.Request(
                server.url + path,
                data=None if payload is None else json.dumps(payload).encode(),
                method="GET" if payload is None else "POST",
                headers={"Content-Type": "application/json"},
            )
            try:
                with urllib.request.urlopen(request, timeout=30) as response:
                    return response.status, json.loads(response.read())
            except urllib.error.HTTPError as error:
                return error.code, json.loads(error.read())

        epsilon = min(1.0, dataset_budget)
        release = {"dataset": "storage", "method": "AG", "epsilon": epsilon, "seed": 0}
        checks: list[tuple[str, bool]] = []

        status, body = call("/health")
        checks.append(("health", status == 200 and body["status"] == "ok"))

        status, body = call("/releases", release)
        print(f"build: HTTP {status} {json.dumps(body)}")
        # 201 on a fresh build; 200 when a persisted store-dir already
        # holds the release from an earlier run — both are healthy.
        checks.append(("build or fetch AG release", status in (200, 201)))

        rects = [[-110.0, 30.0, -80.0, 45.0], [-80.0, 25.0, -70.0, 35.0]]
        status, body = call("/query", {**release, "rects": rects, "clamp": True})
        print(f"query: HTTP {status} {json.dumps(body)}")
        checks.append(
            ("batched query", status == 200 and body["count"] == len(rects))
        )

        # The same batch through the binary protocol must answer
        # bit-identically (the rects above are float32-exact).
        from repro.service import protocol

        binary_request = urllib.request.Request(
            server.url + "/query",
            data=protocol.encode_query(
                ReleaseKey(**release), rects, clamp=True
            ),
            method="POST",
            headers={
                "Content-Type": protocol.CONTENT_TYPE,
                "Accept": protocol.CONTENT_TYPE,
            },
        )
        try:
            with urllib.request.urlopen(binary_request, timeout=30) as response:
                binary_estimates = protocol.decode_answer(response.read())
                binary_ok = (
                    status == 200
                    and list(binary_estimates) == body["estimates"]
                )
        except urllib.error.HTTPError:
            binary_ok = False
        print(f"binary query: estimates identical = {binary_ok}")
        checks.append(("binary protocol round trip", binary_ok))

        # Drain whatever budget remains with forced rebuilds; the
        # refusal must arrive within remaining / epsilon + 1 attempts.
        # Ask the server for the live ledger: a persisted store-dir may
        # carry a larger total than the CLI flag (stricter totals win).
        status, body = call("/releases")
        ledger = (body.get("budgets") or {}).get("storage|0") if status == 200 else None
        remaining = (
            max(0.0, ledger["total"] - ledger["spent"]) if ledger else dataset_budget
        )
        refused = False
        for _ in range(int(remaining / epsilon) + 2):
            status, body = call("/releases", {**release, "force": True})
            if status == 409 and body.get("error") == "BudgetRefused":
                refused = True
                break
        print(f"rebuild: HTTP {status} {json.dumps(body)}")
        checks.append(("over-budget rebuild refused", refused))

        failed = [name for name, ok in checks if not ok]
        for name, ok in checks:
            print(f"  [{'ok' if ok else 'FAIL'}] {name}")
        if failed:
            print(f"smoke test FAILED: {', '.join(failed)}", file=sys.stderr)
            return 1
        print("smoke test passed")
        return 0
    finally:
        server.shutdown()
        server.server_close()


if __name__ == "__main__":
    sys.exit(main())

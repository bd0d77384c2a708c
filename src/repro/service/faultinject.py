"""Deterministic fault injection for the service tier.

The fault harness turns "what if the disk fills up mid-budget-spend?"
from a shrug into a regression test.  Production code calls
:func:`fire` at named fault points; by default that is a dictionary miss
and costs nothing.  Tests (``tests/faults/``) install hooks that raise
``OSError(ENOSPC)``, write a short payload and simulate a crash, stall a
socket read, or kill a worker — each failure mode becomes reproducible.

Registered fault points
-----------------------

=================== ====================================================
Point               Fired
=================== ====================================================
``catalog.spend``   inside a build's ledger transaction, before the
                    spend row is written
``catalog.commit``  before any catalog write transaction commits
``archive.write``   before a release archive's temp file is written
``archive.fsync``   before the archive temp file is fsync'd
``archive.replace`` before the archive temp file replaces the live file
``store.fit``       after budget is reserved, before the fit runs
``service.answer``  after the engine is ready, before the batch runs
``server.read``     before each guarded socket read (headers and body)
``worker.serve``    in a forked worker, before ``serve_forever``
``wal.append``      before an ingest WAL record is written
                    (``kind="data"`` or ``"marker"``)
``wal.fsync``       after the WAL write, before its fsync
``ingest.refresh``  at the start of a drift/staleness-triggered refresh,
                    before the epoch-budget check and the rebuild
=================== ====================================================

Hooks receive the fault point's keyword context (``path=``, ``data=``,
``key=``, ...) and may return ``None`` (observe only) or raise.  Raising
:class:`SimulatedCrash` models a ``kill -9`` at that byte boundary: it
derives from ``BaseException`` so no ``except Exception`` recovery path
can accidentally "survive" a crash the test meant to be fatal, and
cleanup code deliberately leaves temp-file debris behind, exactly like a
real crash.

Subprocess reach: ``REPRO_FAULTS=point:action[,point:action...]`` installs
hooks from the environment when the CLI starts (actions: ``crash``,
``enospc``, ``sleep=SECONDS``, ``exit=CODE``), so the harness can break a
forked worker or a whole server process it does not share memory with.
"""

from __future__ import annotations

import errno
import os
import threading
import time
from contextlib import contextmanager
from typing import Callable

__all__ = [
    "SimulatedCrash",
    "clear",
    "fire",
    "injected",
    "install",
    "install_from_env",
]

_ENV_VAR = "REPRO_FAULTS"

_lock = threading.Lock()
_hooks: dict[str, Callable[..., object]] = {}


class SimulatedCrash(BaseException):
    """A test-injected process death (``kill -9`` at this byte boundary).

    Derives from ``BaseException``: recovery code that catches
    ``Exception`` must not be able to swallow a crash a fault test
    injected — after a real ``kill -9`` there is no one left to recover.
    """


def install(point: str, hook: Callable[..., object]) -> None:
    """Install ``hook`` at ``point``, replacing any previous hook."""
    with _lock:
        _hooks[point] = hook


def clear(point: str | None = None) -> None:
    """Remove the hook at ``point`` (every hook when ``point`` is None)."""
    with _lock:
        if point is None:
            _hooks.clear()
        else:
            _hooks.pop(point, None)


def fire(point: str, **context) -> object:
    """Invoke the hook at ``point`` (no-op when none is installed).

    Whatever the hook raises propagates to the caller — that is the
    injected fault.  The hook's return value is returned but every
    production call site ignores it.
    """
    hook = _hooks.get(point)
    if hook is None:
        return None
    return hook(**context)


@contextmanager
def injected(point: str, hook: Callable[..., object]):
    """Scoped :func:`install`: the hook is removed on exit, always."""
    install(point, hook)
    try:
        yield hook
    finally:
        clear(point)


def _make_env_hook(action: str) -> Callable[..., object]:
    name, _, argument = action.partition("=")
    if name == "crash":
        def hook(**_context):
            raise SimulatedCrash(f"injected via {_ENV_VAR}")
    elif name == "enospc":
        def hook(**_context):
            raise OSError(errno.ENOSPC, "injected disk full")
    elif name == "sleep":
        seconds = float(argument)

        def hook(**_context):
            time.sleep(seconds)
    elif name == "exit":
        code = int(argument or 1)

        def hook(**_context):
            os._exit(code)
    else:
        raise ValueError(
            f"unknown {_ENV_VAR} action {action!r} "
            "(known: crash, enospc, sleep=SECONDS, exit=CODE)"
        )
    return hook


def install_from_env(environ=os.environ) -> int:
    """Install hooks described by ``REPRO_FAULTS``; returns how many.

    The format is ``point:action`` pairs separated by commas, e.g.
    ``REPRO_FAULTS=worker.serve:exit=7,store.fit:sleep=2``.  Called by
    the CLI at startup so subprocess-level fault tests can reach code
    they do not share an interpreter with.
    """
    spec = environ.get(_ENV_VAR, "").strip()
    if not spec:
        return 0
    installed = 0
    for item in spec.split(","):
        point, separator, action = item.strip().partition(":")
        if not separator or not point:
            raise ValueError(f"malformed {_ENV_VAR} entry {item!r}")
        install(point, _make_env_hook(action))
        installed += 1
    return installed

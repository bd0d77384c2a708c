"""Run ``repro serve`` with a span recorded around every layer boundary.

Usage::

    python perfbench/launcher.py SPANS.json -- <repro serve arguments>

Before calling :func:`repro.service.cli.main`, the launcher wraps the
public functions of each serving layer.  Names a module imported from
elsewhere are patched where they are looked up (e.g.
``repro.service.query_service.make_engine``), so the server code itself
is untouched.  Each span records its name, wall start/end
(``perf_counter_ns``), thread CPU time (``thread_time_ns``), its parent
and the root span of its request; spans stay in memory and are written
to ``SPANS.json`` once the server shuts down (SIGTERM drains it).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import sys
import threading
import time


class Recorder:
    """In-memory span store with a per-thread stack of open spans."""

    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        root = parent[1] if parent else span_id
        entry = [span_id, root, attrs]
        stack.append((span_id, root, attrs))
        cpu0 = time.thread_time_ns()
        t0 = time.perf_counter_ns()
        try:
            yield attrs
        finally:
            t1 = time.perf_counter_ns()
            cpu1 = time.thread_time_ns()
            stack.pop()
            # list.append is atomic under the interpreter lock.
            self.spans.append(
                [name, t0, t1, cpu1 - cpu0, span_id,
                 parent[0] if parent else 0, root, entry[2]]
            )

    def root_attrs(self) -> dict | None:
        """Attributes of the outermost open span on this thread."""
        stack = self._stack()
        return stack[0][2] if stack else None

    def innermost(self, name_attr: str):
        """The nearest open span's value of ``name_attr`` (or ``None``)."""
        for _, _, attrs in reversed(self._stack()):
            if name_attr in attrs:
                return attrs[name_attr]
        return None

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "t0_ns", "t1_ns", "cpu_ns", "id",
                                  "parent", "root", "attrs"],
                       "spans": self.spans}, handle)


def _wrap(recorder: Recorder, owner, attr: str, name: str, after=None):
    """Replace ``owner.attr`` by a function recording span ``name``.

    ``after(result, attrs)`` may add attributes from the return value.
    """
    original = getattr(owner, attr)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        with recorder.span(name) as attrs:
            result = original(*args, **kwargs)
            if after is not None:
                after(result, attrs, args)
            return result

    setattr(owner, attr, traced)
    return original


class _TracedEngine:
    """Batch engine proxy timing ``answer_batch`` per release method."""

    def __init__(self, recorder: Recorder, engine, method):
        self._recorder = recorder
        self._engine = engine
        self._method = method

    def answer_batch(self, rects):
        with self._recorder.span("engine.kernel", method=self._method,
                                 rects=len(rects)):
            return self._engine.answer_batch(rects)

    def __getattr__(self, name):
        return getattr(self._engine, name)


def install(recorder: Recorder) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    from repro.service import protocol, query_service, server, store
    from repro.service.auth import ApiKeyAuthenticator
    from repro.service.catalog import Catalog
    from repro.service.ingest import IngestManager
    from repro.service.query_service import QueryService
    from repro.service.router import Router
    from repro.service.store import SynopsisStore
    from repro.service.telemetry import AdmissionController
    from repro.service.wal import WriteAheadLog

    # server: one root span per request, from parsed headers to response
    # (the do_<VERB> methods are http.server's public handler interface).
    handler = server._Handler
    for verb in ("do_GET", "do_POST", "do_DELETE"):
        _wrap(recorder, handler, verb, "server.request")
    original_send = handler.send_response

    def send_response(self, code, message=None):
        attrs = recorder.root_attrs()
        if attrs is not None:
            attrs["status"] = int(code)
        return original_send(self, code, message)

    handler.send_response = send_response

    _wrap(recorder, Router, "resolve", "router.resolve")
    _wrap(recorder, ApiKeyAuthenticator, "authenticate", "auth")
    _wrap(recorder, AdmissionController, "try_enter", "admission",
          after=lambda ok, attrs, args: attrs.update(admitted=bool(ok)))
    for parser in ("parse_query_request", "parse_build_request",
                   "parse_ingest_request"):
        _wrap(recorder, server, parser, "schemas.parse")
    _wrap(recorder, protocol, "decode_query", "protocol.decode")
    _wrap(recorder, protocol, "encode_answer", "protocol.encode")

    original_answer = QueryService.answer

    @functools.wraps(original_answer)
    def answer(self, key, rects, *args, **kwargs):
        with recorder.span("query_service.answer", method=key.method) as attrs:
            result = original_answer(self, key, rects, *args, **kwargs)
            attrs["cached"] = bool(result.cached)
            return result

    QueryService.answer = answer

    original_make_engine = query_service.make_engine

    def make_engine(synopsis):
        with recorder.span("engine.prep"):
            engine = original_make_engine(synopsis)
        return _TracedEngine(recorder, engine, recorder.innermost("method"))

    query_service.make_engine = make_engine

    _wrap(recorder, SynopsisStore, "get", "store.get")
    _wrap(recorder, SynopsisStore, "build", "store.build",
          after=lambda result, attrs, args: attrs.update(built=bool(result[1])))

    original_make_builder = store.make_builder

    def make_builder(method):
        builder = original_make_builder(method)
        fit = builder.fit

        def traced_fit(*args, **kwargs):
            refresh = recorder.innermost("refresh") is not None
            with recorder.span("fit", method=method, refresh=refresh):
                return fit(*args, **kwargs)

        builder.fit = traced_fit
        return builder

    store.make_builder = make_builder

    _wrap(recorder, store, "synopsis_to_bytes", "serialization.write",
          after=lambda data, attrs, args: attrs.update(bytes=len(data)))
    _wrap(recorder, store, "synopsis_from_path", "serialization.load")

    original_exclusive = Catalog.exclusive

    @contextlib.contextmanager
    def exclusive(self, *args, **kwargs):
        with recorder.span("catalog.txn"):
            with original_exclusive(self, *args, **kwargs) as value:
                yield value

    Catalog.exclusive = exclusive

    original_ingest = IngestManager.ingest

    @functools.wraps(original_ingest)
    def ingest(self, dataset, seed, batch_id, points, *args, **kwargs):
        with recorder.span("ingest", refresh=True, points=len(points)) as attrs:
            report = original_ingest(self, dataset, seed, batch_id, points,
                                     *args, **kwargs)
            attrs["refreshed"] = len(report.get("refreshed", ()))
            return report

    IngestManager.ingest = ingest

    original_append = WriteAheadLog.append

    @functools.wraps(original_append)
    def append(self, record, *args, **kwargs):
        points = getattr(record, "points", None)
        with recorder.span("wal.append",
                           points=0 if points is None else len(points)) as attrs:
            before = self.size_bytes
            result = original_append(self, record, *args, **kwargs)
            attrs["bytes"] = self.size_bytes - before
            return result

    WriteAheadLog.append = append

    original_init = WriteAheadLog.__init__

    @functools.wraps(original_init)
    def wal_init(self, *args, **kwargs):
        with recorder.span("wal.open") as attrs:
            original_init(self, *args, **kwargs)
            attrs["records"] = len(self.replayed)

    WriteAheadLog.__init__ = wal_init


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: launcher.py SPANS.json -- <repro serve arguments>",
              file=sys.stderr)
        return 2
    out_path, serve_args = argv[0], argv[2:]
    recorder = Recorder()
    install(recorder)
    from repro.service.cli import main as serve_main

    try:
        return serve_main(serve_args)
    finally:
        recorder.dump(out_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

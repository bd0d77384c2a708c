"""Method + exact-path routing for the HTTP service tier.

The server used to be one hand-rolled ``if path ==`` chain; the router
turns it into a declarative dispatch table, ``{path: {method: Route}}``::

    router = Router()
    router.add("GET", "/releases", list_releases)
    router.add("POST", "/query", post_query, gated=True, drain_body=False)
    router.add("GET", "/health", get_health, auth_exempt=True)

    route = router.resolve("GET", "/releases")

Paths match exactly (the adapter strips the query string and a trailing
``/`` first); no route takes a path parameter.  Resolution answers
misses precisely:

* the path is not in the table under any method → :class:`RouteNotFound`
  (404) whose detail lists the registered paths, so a typo'd URL is
  self-documenting;
* the path exists but not for this method → :class:`MethodNotAllowed`
  (405) carrying the supported methods for the ``Allow`` header.

Both surface as structured JSON error envelopes, never
``BaseHTTPRequestHandler``'s plain-text defaults.

Per-route middleware is declared as flags on the route, not code in the
handler: ``auth_exempt`` skips authentication (health probes must work
on a locked-down server), ``gated`` opts the route into admission
control (expensive POSTs), and ``drain_body`` tells the adapter whether
to read-and-discard an unparsed request body before answering.  The
route's ``handler`` signature is whatever the adapter chooses to call it
with — the router only stores and resolves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.service.errors import MethodNotAllowed, RouteNotFound

__all__ = ["Route", "Router"]


@dataclass(frozen=True)
class Route:
    """One routable endpoint and its middleware flags."""

    method: str
    path: str
    handler: Callable
    #: Skip authentication for this route (health probes, docs).
    auth_exempt: bool = False
    #: Pass through admission control (in-flight gate) before running.
    gated: bool = False
    #: Read-and-discard an unconsumed request body before responding.
    drain_body: bool = True


class Router:
    """An exact-path dispatch table of :class:`Route` entries."""

    def __init__(self):
        self._routes: dict[str, dict[str, Route]] = {}

    def add(
        self,
        method: str,
        path: str,
        handler: Callable,
        *,
        auth_exempt: bool = False,
        gated: bool = False,
        drain_body: bool = True,
    ) -> Route:
        route = Route(method.upper(), path, handler, auth_exempt, gated, drain_body)
        self._routes.setdefault(path, {})[route.method] = route
        return route

    def paths(self) -> list[str]:
        """The registered paths, sorted."""
        return sorted(self._routes)

    def methods_for(self, path: str) -> tuple[str, ...]:
        """Every method some route accepts for ``path`` (may be empty)."""
        return tuple(sorted(self._routes.get(path, ())))

    def resolve(self, method: str, path: str) -> Route:
        """The route for ``method path``.

        Raises :class:`RouteNotFound` when no route has the path, and
        :class:`MethodNotAllowed` (carrying ``allow``) when the path is
        known but not under this method.
        """
        method = method.upper()
        routes = self._routes.get(path)
        if routes is None:
            raise RouteNotFound(
                f"no route {method} {path}; available: {', '.join(self.paths())}"
            )
        route = routes.get(method)
        if route is None:
            raise MethodNotAllowed(
                f"{path} does not support {method}", allow=self.methods_for(path)
            )
        return route

"""Unit tests for the method + exact-path router."""

import pytest

from repro.service.errors import MethodNotAllowed, RouteNotFound
from repro.service.router import Router


def _handler(*args, **kwargs):  # routes only store it
    return (args, kwargs)


@pytest.fixture
def router():
    r = Router()
    r.add("GET", "/health", _handler, auth_exempt=True)
    r.add("GET", "/releases", _handler)
    r.add("POST", "/releases", _handler, gated=True, drain_body=False)
    r.add("POST", "/query", _handler, gated=True, drain_body=False)
    return r


class TestResolve:
    def test_literal_match(self, router):
        route = router.resolve("GET", "/health")
        assert route.path == "/health"
        assert route.auth_exempt is True

    def test_method_is_case_insensitive(self, router):
        route = router.resolve("get", "/health")
        assert route.method == "GET"

    def test_same_path_different_methods_resolve_independently(self, router):
        get_route = router.resolve("GET", "/releases")
        post_route = router.resolve("POST", "/releases")
        assert get_route is not post_route
        assert post_route.gated and not post_route.drain_body
        assert not get_route.gated and get_route.drain_body

    def test_paths_match_exactly(self, router):
        """No prefix, extension or extra segment of a path matches it."""
        for path in ("/releases/0", "/release", "/query/x/y"):
            with pytest.raises(RouteNotFound):
                router.resolve("GET", path)


class TestMisses:
    def test_unknown_path_lists_registered_routes(self, router):
        with pytest.raises(RouteNotFound) as excinfo:
            router.resolve("GET", "/nope")
        assert excinfo.value.status == 404
        assert "/health, /query, /releases" in str(excinfo.value)

    def test_known_path_wrong_method_carries_allow(self, router):
        with pytest.raises(MethodNotAllowed) as excinfo:
            router.resolve("PUT", "/releases")
        error = excinfo.value
        assert error.status == 405
        assert error.allow == ("GET", "POST")

    def test_methods_for_unknown_path_is_empty(self, router):
        assert router.methods_for("/nope") == ()

    def test_paths_sorted_and_deduplicated(self, router):
        paths = router.paths()
        assert paths == sorted(set(paths))
        assert paths.count("/releases") == 1

"""Every concrete synopsis in the library is declared, archived and served.

The kind table of :mod:`repro.core.serialization` is the contract that
keeps the service tier fast: a synopsis type without a declared row (or
a declared ancestor) can be neither archived nor served, and raises
``TypeError`` instead of degrading to a scalar loop.  This walk makes
forgetting a row a test failure — any new concrete :class:`Synopsis`
subclass under ``repro.`` must be buildable by a servable method, must
resolve to a row, and must round trip to its own type.
"""

import inspect

import numpy as np
import pytest

from repro.core.serialization import (
    synopsis_from_bytes,
    synopsis_kind,
    synopsis_nbytes,
    synopsis_to_bytes,
)
from repro.core.synopsis import Synopsis
from repro.datasets.registry import get_spec
from repro.queries.engine import FallbackEngine, make_engine
from repro.service.keys import make_builder, method_names


def _concrete_repro_synopses() -> list[type]:
    """All concrete Synopsis subclasses defined inside the library.

    Test modules define throwaway subclasses (opaque stand-ins, probes);
    filtering on the defining module keeps the walk about the library's
    own types.
    """
    found: list[type] = []
    stack = list(Synopsis.__subclasses__())
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if cls.__module__.startswith("repro.") and not inspect.isabstract(cls):
            found.append(cls)
    return sorted(set(found), key=lambda cls: cls.__qualname__)


@pytest.fixture(scope="module")
def built_synopses():
    """One synopsis per servable method, built on a small dataset."""
    dataset = get_spec("storage").make(2_000, np.random.default_rng(7))
    built = {}
    for method in method_names():
        builder = make_builder(method)
        built[method] = builder.fit(dataset, 1.0, np.random.default_rng(11))
    return built


def test_every_concrete_synopsis_is_servable(built_synopses):
    """Each library synopsis type is produced by some registered method."""
    servable_types = {type(s) for s in built_synopses.values()}
    missing = [
        cls.__qualname__
        for cls in _concrete_repro_synopses()
        if cls not in servable_types
    ]
    assert not missing, (
        f"concrete Synopsis subclasses with no servable method: {missing}; "
        "register a builder in repro.service.keys (and declare a kind in "
        "repro.core.serialization) or make the type abstract"
    )


def test_every_concrete_synopsis_has_a_row_and_round_trips(built_synopses):
    """Each library synopsis type resolves to a declared row, and its
    archive restores to its own type, not to a declared ancestor."""
    for cls in _concrete_repro_synopses():
        synopsis_kind(cls)  # raises TypeError for an undeclared type
    for method, synopsis in built_synopses.items():
        clone = synopsis_from_bytes(synopsis_to_bytes(synopsis))
        assert type(clone) is type(synopsis), method


def test_every_servable_synopsis_resolves_without_fallback(built_synopses):
    """make_engine serves every release through its declared row's
    engine, never the scalar loop."""
    for method, synopsis in built_synopses.items():
        engine = make_engine(synopsis)
        assert not isinstance(engine, FallbackEngine), (
            f"{method} ({type(synopsis).__qualname__}) resolved the "
            "scalar FallbackEngine"
        )


def test_undeclared_synopsis_is_rejected(unit_domain):
    """A synopsis type with no declared row can be neither archived,
    sized, nor served: each entry point raises ``TypeError``."""

    class UndeclaredSynopsis(Synopsis):
        def answer(self, rect):
            return 42.0

    synopsis = UndeclaredSynopsis(unit_domain, 1.0)
    for entry_point in (synopsis_to_bytes, synopsis_nbytes, make_engine):
        with pytest.raises(TypeError, match="UndeclaredSynopsis"):
            entry_point(synopsis)


def test_resolved_engines_answer_like_the_synopsis(built_synopses):
    """Spot-check: each resolved engine answers the full-domain query."""
    for method, synopsis in built_synopses.items():
        b = synopsis.domain.bounds
        rects = np.array([[b.x_lo, b.y_lo, b.x_hi, b.y_hi]])
        got = make_engine(synopsis).answer_batch(rects)
        want = synopsis.answer_many([r for r in map(tuple, rects)])
        np.testing.assert_allclose(got, np.asarray(want), rtol=1e-9)

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
from repro.queries.engine import (
    BatchQueryEngine,
    FlatTreeEngine,
    TwoLevelGridEngine,
    make_engine,
    scalar_answer_batch,
)
from repro.service.keys import make_builder, method_names
from tests.properties.test_property_longtail import query_mix


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


#: The engine class each servable method resolves to on the fixture's
#: small dataset: every grid-shaped release shares the one grid kernel,
#: and AG and the inferred, consistent KD-hybrid share the two-level grid.
#: (Quad lowers onto the grid kernel only once the data fills its
#: lattice; ``test_engine.py`` pins both sides of that rule.)
EXPECTED_ENGINE = {
    "UG": BatchQueryEngine,
    "Hier": BatchQueryEngine,
    "Privelet": BatchQueryEngine,
    "UGnd": BatchQueryEngine,
    "Hier1d": BatchQueryEngine,
    "AG": TwoLevelGridEngine,
    "Kst": FlatTreeEngine,
    "Khy": TwoLevelGridEngine,
}


def test_grid_shaped_releases_share_one_engine(built_synopses):
    """make_engine resolves each method to its declared row's engine."""
    for method, engine_type in EXPECTED_ENGINE.items():
        assert type(make_engine(built_synopses[method])) is engine_type, method


def test_undeclared_synopsis_is_rejected(unit_domain):
    """A synopsis type with no declared row can be neither archived,
    sized, served nor batch-answered: each entry point raises
    ``TypeError``."""

    class UndeclaredSynopsis(Synopsis):
        def answer(self, rect):
            return 42.0

    synopsis = UndeclaredSynopsis(unit_domain, 1.0)
    for entry_point in (
        synopsis_to_bytes,
        synopsis_nbytes,
        make_engine,
        lambda synopsis: synopsis.answer_many([synopsis.domain.bounds]),
        lambda synopsis: synopsis.total(),
    ):
        with pytest.raises(TypeError, match="UndeclaredSynopsis"):
            entry_point(synopsis)


def test_scalar_answers_never_use_an_engine(monkeypatch):
    """``scalar_answer_batch`` is an independent second opinion for all
    nine methods: on fresh releases it answers with ``make_engine``
    broken, and agrees with the engines once they are back."""
    import repro.queries.engine as engine_module

    dataset = get_spec("storage").make(2_000, np.random.default_rng(7))
    fresh = {
        method: make_builder(method).fit(dataset, 1.0, np.random.default_rng(11))
        for method in method_names()
    }
    boxes = query_mix(dataset.domain, seed=5, n=40)

    def no_engine(synopsis):
        raise AssertionError(f"{type(synopsis).__name__} built an engine")

    with monkeypatch.context() as patched:
        patched.setattr(engine_module, "make_engine", no_engine)
        scalar = {
            method: scalar_answer_batch(synopsis, boxes)
            for method, synopsis in fresh.items()
        }
    for method, synopsis in fresh.items():
        want = scalar[method]
        scale = max(1.0, float(np.abs(want).max()))
        np.testing.assert_allclose(
            make_engine(synopsis).answer_batch(boxes), want,
            rtol=1e-9, atol=1e-9 * scale, err_msg=method,
        )


def test_resolved_engines_answer_like_the_synopsis(built_synopses):
    """Each resolved engine answers the batch contract's rows (boundary,
    duplicate, degenerate, inverted, NaN, outside) as the synopsis's
    scalar ``answer`` loop does."""
    for method, synopsis in built_synopses.items():
        boxes = query_mix(synopsis.domain, seed=5, n=40)
        got = make_engine(synopsis).answer_batch(boxes)
        want = scalar_answer_batch(synopsis, boxes)
        scale = max(1.0, float(np.abs(want).max()))
        np.testing.assert_allclose(
            got, want, rtol=1e-9, atol=1e-9 * scale, err_msg=method
        )
        # Degenerate, inverted, NaN and outside rows answer 0 on both paths.
        np.testing.assert_array_equal(got[3:8], np.zeros(5), err_msg=method)

"""Property-based tests: batch engine vs reference estimator, and more."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.geometry import Domain2D, Rect
from repro.core.grid import GridLayout
from repro.core.postprocess import project_nonnegative_preserving_total
from repro.queries.engine import BatchQueryEngine

grid_sizes = st.integers(min_value=1, max_value=16)
unit_coords = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def unit_rects(draw) -> Rect:
    x1, x2 = sorted((draw(unit_coords), draw(unit_coords)))
    y1, y2 = sorted((draw(unit_coords), draw(unit_coords)))
    return Rect(x1, y1, x2, y2)


@settings(max_examples=80)
@given(grid_sizes, grid_sizes, unit_rects(), seeds)
def test_engine_matches_reference(mx, my, rect, seed):
    """The prefix-sum estimate equals the bilinear-form estimate."""
    rng = np.random.default_rng(seed)
    layout = GridLayout(Domain2D.unit(), mx, my)
    counts = rng.normal(0.0, 5.0, size=(mx, my))
    engine = BatchQueryEngine(layout.domain.lows, layout.domain.highs, counts)
    batch = engine.answer_batch([rect])[0]
    reference = layout.estimate(counts, rect)
    assert batch == pytest.approx(reference, rel=1e-9, abs=1e-7)


@settings(max_examples=40)
@given(grid_sizes, seeds, st.integers(min_value=1, max_value=30))
def test_engine_batch_matches_singles(m, seed, n_queries):
    rng = np.random.default_rng(seed)
    layout = GridLayout(Domain2D.unit(), m)
    counts = rng.normal(10.0, 3.0, size=(m, m))
    engine = BatchQueryEngine(layout.domain.lows, layout.domain.highs, counts)
    rects = []
    for _ in range(n_queries):
        x = np.sort(rng.random(2))
        y = np.sort(rng.random(2))
        rects.append(Rect(x[0], y[0], x[1], y[1]))
    batch = engine.answer_batch(rects)
    singles = np.array([layout.estimate(counts, r) for r in rects])
    np.testing.assert_allclose(batch, singles, rtol=1e-9, atol=1e-7)


@settings(max_examples=80)
@given(
    st.lists(
        st.floats(min_value=-50.0, max_value=100.0, allow_nan=False),
        min_size=1, max_size=40,
    )
)
def test_projection_invariants(values):
    """Projection output is non-negative; total preserved when feasible."""
    counts = np.array(values)
    projected = project_nonnegative_preserving_total(counts)
    assert projected.min() >= -1e-9
    if counts.sum() > 0:
        assert projected.sum() == pytest.approx(counts.sum(), rel=1e-6, abs=1e-6)
    else:
        assert projected.sum() == pytest.approx(0.0, abs=1e-9)


@settings(max_examples=40)
@given(
    st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=1, max_size=40,
    )
)
def test_projection_identity_on_nonnegative(values):
    counts = np.array(values)
    projected = project_nonnegative_preserving_total(counts)
    if counts.sum() > 0:
        np.testing.assert_allclose(projected, counts, rtol=1e-9, atol=1e-9)

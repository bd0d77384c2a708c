"""Property tests: the AG engine vs the scalar answer path.

The flat AG release's whole value rests on two claims: the vectorised
fit releases what the per-cell loop releases, and answering a batch by
four-corner inclusion-exclusion over the two-level summed-area grid
(``make_engine``'s ``TwoLevelGridEngine``) answers what the scalar
per-cell loop answers.  These properties hammer both on random domains
and builds, with the query mix the batch contract promises to handle:
interior, edge-exact, degenerate, inverted, and fully out-of-domain
rectangles.
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.core.adaptive_grid import AdaptiveGridBuilder
from repro.core.geometry import Domain2D
from repro.datasets.synthetic import make_gaussian_mixture
from repro.queries.engine import make_engine, scalar_answer_batch
from tests.oracles.adaptive_grid import AdaptiveGridEngine, fit_percell

seeds = st.integers(min_value=0, max_value=2**32 - 1)
m1_sizes = st.integers(min_value=1, max_value=7)


@st.composite
def domains(draw) -> Domain2D:
    """Random non-degenerate domains, not just the unit square."""
    x_lo = draw(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
    y_lo = draw(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
    width = draw(st.floats(min_value=0.5, max_value=80.0, allow_nan=False))
    height = draw(st.floats(min_value=0.5, max_value=80.0, allow_nan=False))
    return Domain2D(x_lo, y_lo, x_lo + width, y_lo + height)


def build_synopsis(domain: Domain2D, m1: int, seed: int, inference: bool):
    dataset = make_gaussian_mixture(400, n_clusters=3, rng=seed, domain=domain)
    builder = AdaptiveGridBuilder(
        first_level_size=m1, constrained_inference=inference
    )
    return builder.fit(dataset, 1.0, np.random.default_rng(seed))


def query_mix(domain: Domain2D, seed: int, n: int = 24) -> np.ndarray:
    """Interior, edge-exact, degenerate, inverted, out-of-domain rows."""
    rng = np.random.default_rng(seed)
    b = domain.bounds
    rows = [
        [b.x_lo, b.y_lo, b.x_hi, b.y_hi],  # exact domain
        [b.x_lo - 1.0, b.y_lo - 1.0, b.x_hi + 1.0, b.y_hi + 1.0],  # covering
        [b.x_lo, b.y_lo, b.x_lo, b.y_hi],  # degenerate (zero width)
        [b.x_hi, b.y_lo, b.x_lo, b.y_hi],  # inverted
        [b.x_hi + 1.0, b.y_hi + 1.0, b.x_hi + 2.0, b.y_hi + 2.0],  # outside
    ]
    while len(rows) < n:
        x = np.sort(rng.uniform(b.x_lo - 0.2 * domain.width,
                                b.x_hi + 0.2 * domain.width, 2))
        y = np.sort(rng.uniform(b.y_lo - 0.2 * domain.height,
                                b.y_hi + 0.2 * domain.height, 2))
        rows.append([x[0], y[0], x[1], y[1]])
    return np.asarray(rows)


@settings(max_examples=25, deadline=None)
@given(domains(), m1_sizes, seeds, st.booleans())
def test_flat_engine_matches_scalar_loop(domain, m1, seed, inference):
    """The AG engine's `answer_batch` == the scalar `answer` loop."""
    synopsis = build_synopsis(domain, m1, seed, inference)
    boxes = query_mix(domain, seed)
    flat = make_engine(synopsis).answer_batch(boxes)
    scalar = scalar_answer_batch(synopsis, boxes)
    scale = max(1.0, float(np.abs(scalar).max()))
    np.testing.assert_allclose(flat, scalar, rtol=1e-9, atol=1e-9 * scale)


@settings(max_examples=25, deadline=None)
@given(domains(), m1_sizes, seeds)
def test_flat_engine_matches_percell_engine(domain, m1, seed):
    """The AG engine == the retained one-engine-per-cell composite."""
    synopsis = build_synopsis(domain, m1, seed, True)
    boxes = query_mix(domain, seed)
    flat = make_engine(synopsis).answer_batch(boxes)
    reference = AdaptiveGridEngine(synopsis).answer_batch(boxes)
    scale = max(1.0, float(np.abs(reference).max()))
    np.testing.assert_allclose(flat, reference, rtol=1e-9, atol=1e-9 * scale)


@settings(max_examples=15, deadline=None)
@given(m1_sizes, seeds, st.booleans())
def test_flat_build_matches_percell_build(m1, seed, inference):
    """The vectorised fit releases bit-identical state to the loop fit."""
    domain = Domain2D.unit()
    dataset = make_gaussian_mixture(500, n_clusters=4, rng=seed)
    builder = AdaptiveGridBuilder(
        first_level_size=m1, constrained_inference=inference
    )
    flat = builder.fit(dataset, 1.0, np.random.default_rng(seed))
    reference = fit_percell(
        builder, dataset, 1.0, np.random.default_rng(seed)
    )
    np.testing.assert_array_equal(flat.cell_sizes, reference.cell_sizes)
    np.testing.assert_array_equal(flat.cell_totals, reference.cell_totals)
    np.testing.assert_array_equal(flat.leaf_counts, reference.leaf_counts)

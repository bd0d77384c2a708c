"""Property tests: the summed-area kernels vs the scalar answer paths.

Two releases answer by four-corner inclusion-exclusion over a summed-area
function rather than by walking their own structure:

* AG's ``TwoLevelGridEngine`` evaluates ``S = F + G - TP + P_cell``
  from tabulated edge functions; it must equal AG's scalar two-level
  path.
* A default quadtree is lowered onto the ``2^h x 2^h`` lattice of its
  domain and answered by ``BatchQueryEngine``; it must equal the scalar
  tree descent.

Both are continuous piecewise-bilinear functions whose breakpoints are
the release's cell edges, so the query mixes put rectangle edges exactly
on first-level, sub-cell and leaf edges (the floats the scalar paths
compare against), next to degenerate, inverted, NaN and out-of-domain
rows.  Tolerance: rtol 1e-9, atol 1e-9 times the largest answer.
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.baselines.quadtree import QuadtreeBuilder
from repro.core.adaptive_grid import AdaptiveGridBuilder, AdaptiveGridSynopsis
from repro.core.geometry import Domain2D
from repro.core.grid import GridLayout
from repro.core.serialization import synopsis_from_bytes, synopsis_to_bytes
from repro.datasets.synthetic import make_gaussian_mixture
from repro.queries.engine import (
    BatchQueryEngine,
    TwoLevelGridEngine,
    make_engine,
    scalar_answer_batch,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
epsilons = st.sampled_from([0.1, 1.0])


@st.composite
def domains(draw) -> Domain2D:
    """Random non-degenerate domains, not just the unit square."""
    x_lo = draw(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
    y_lo = draw(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
    width = draw(st.floats(min_value=0.5, max_value=80.0, allow_nan=False))
    height = draw(st.floats(min_value=0.5, max_value=80.0, allow_nan=False))
    return Domain2D(x_lo, y_lo, x_lo + width, y_lo + height)


def edge_aligned_mix(domain, x_edges, y_edges, seed, n=40) -> np.ndarray:
    """Rows whose bounds are drawn from the release's own edges, mixed
    with interior, degenerate, inverted, NaN and out-of-domain rows."""
    rng = np.random.default_rng(seed)
    b = domain.bounds
    mid = x_edges[len(x_edges) // 2]
    rows = [
        [b.x_lo, b.y_lo, b.x_hi, b.y_hi],  # exact domain
        [b.x_lo - 1.0, b.y_lo - 1.0, b.x_hi + 1.0, b.y_hi + 1.0],  # covering
        [b.x_hi + 1.0, b.y_lo, b.x_hi + 2.0, b.y_hi],  # outside
        [mid, b.y_lo, mid, b.y_hi],  # degenerate, on an edge
        [b.x_hi, b.y_lo, b.x_lo, b.y_hi],  # inverted
        [np.nan, b.y_lo, b.x_hi, b.y_hi],  # NaN
    ]
    xs_pool = np.concatenate(
        [x_edges, rng.uniform(b.x_lo - 0.2 * domain.width,
                              b.x_hi + 0.2 * domain.width, 8)]
    )
    ys_pool = np.concatenate(
        [y_edges, rng.uniform(b.y_lo - 0.2 * domain.height,
                              b.y_hi + 0.2 * domain.height, 8)]
    )
    while len(rows) < n:
        x = np.sort(rng.choice(xs_pool, 2))
        y = np.sort(rng.choice(ys_pool, 2))
        rows.append([x[0], y[0], x[1], y[1]])
    return np.asarray(rows)


def assert_matches_scalar(engine, synopsis, boxes) -> None:
    answers = engine.answer_batch(boxes)
    scalar = scalar_answer_batch(synopsis, boxes)
    scale = max(1.0, float(np.nanmax(np.abs(scalar))))
    np.testing.assert_allclose(answers, scalar, rtol=1e-9, atol=1e-9 * scale)


def ag_edges(synopsis) -> tuple[np.ndarray, np.ndarray]:
    """Every first-level and sub-cell edge, as the scalar path computes them."""
    m1x, m1y = synopsis.first_level_size
    xs, ys = [], []
    for i in range(m1x):
        for j in range(m1y):
            layout = synopsis.cell_layout(i, j)
            xs.append(layout.x_edges)
            ys.append(layout.y_edges)
    return np.unique(np.concatenate(xs)), np.unique(np.concatenate(ys))


@settings(max_examples=30, deadline=None)
@given(
    domains(),
    st.integers(min_value=1, max_value=6),
    seeds,
    epsilons,
    st.booleans(),
)
def test_ag_kernel_matches_scalar(domain, m1, seed, epsilon, inference):
    dataset = make_gaussian_mixture(600, n_clusters=3, rng=seed, domain=domain)
    synopsis = AdaptiveGridBuilder(
        first_level_size=m1, constrained_inference=inference
    ).fit(dataset, epsilon, np.random.default_rng(seed))
    x_edges, y_edges = ag_edges(synopsis)
    boxes = edge_aligned_mix(domain, x_edges, y_edges, seed)
    assert_matches_scalar(make_engine(synopsis), synopsis, boxes)


def rectangular_release(domain) -> AdaptiveGridSynopsis:
    """A hand-built AG release over a 3 x 5 first level whose cells keep
    m2 = 1 or cut into 2 .. 4 a side, each total its leaves' sum."""
    rng = np.random.default_rng(5)
    sizes = rng.choice([1, 1, 2, 3, 4], size=(3, 5))
    sizes[0, 0], sizes[2, 4] = 1, 4
    leaves = rng.uniform(0.0, 20.0, size=int((sizes**2).sum()))
    starts = np.cumsum(sizes.reshape(-1) ** 2) - sizes.reshape(-1) ** 2
    totals = np.add.reduceat(leaves, starts).reshape(3, 5)
    return AdaptiveGridSynopsis(
        domain, 0.1, GridLayout(domain, 3, 5), sizes, totals, leaves
    )


def test_ag_kernel_with_unit_sub_grids():
    """At eps = 0.1 on sparse data most cells keep m2 = 1; a hand-built
    release mixes them on a rectangular first level.  Through an archive
    round trip, the engine restored over its sealed slabs, read-only,
    answers bit-identically."""
    domain = Domain2D(-3.0, 2.0, 5.0, 9.0)
    dataset = make_gaussian_mixture(1_000, n_clusters=2, rng=3, domain=domain)
    built = AdaptiveGridBuilder(first_level_size=5).fit(
        dataset, 0.1, np.random.default_rng(3)
    )
    for synopsis in (built, rectangular_release(domain)):
        assert (synopsis.cell_sizes == 1).any()
        assert (synopsis.cell_sizes > 1).any()
        x_edges, y_edges = ag_edges(synopsis)
        boxes = edge_aligned_mix(domain, x_edges, y_edges, 3, n=200)
        engine = make_engine(synopsis)
        assert_matches_scalar(engine, synopsis, boxes)
        clone = synopsis_from_bytes(synopsis_to_bytes(synopsis))
        views = {}
        for name, slab in clone.engine.slabs.items():
            views[name] = slab.view()
            views[name].flags.writeable = False
        restored = TwoLevelGridEngine.adaptive_grid(clone, views)
        assert restored.shape == engine.shape == synopsis.first_level_size
        np.testing.assert_array_equal(
            restored.answer_batch(boxes).view(np.uint64),
            engine.answer_batch(boxes).view(np.uint64),
        )


@settings(max_examples=30, deadline=None)
@given(
    domains(),
    st.integers(min_value=1, max_value=5),
    seeds,
    epsilons,
    st.sampled_from([-np.inf, 16.0]),
)
def test_lowered_quadtree_matches_scalar(domain, depth, seed, epsilon, prune):
    dataset = make_gaussian_mixture(600, n_clusters=3, rng=seed, domain=domain)
    synopsis = QuadtreeBuilder(depth=depth, min_split_count=prune).fit(
        dataset, epsilon, np.random.default_rng(seed)
    )
    engine = make_engine(synopsis)
    if prune == -np.inf:
        # A never-pruned quadtree always lowers; a pruned one may keep
        # the frontier kernel by the size rule, and must match either way.
        assert isinstance(engine, BatchQueryEngine)
    rects = synopsis.arrays.rects
    boxes = edge_aligned_mix(
        domain, np.unique(rects[:, 0::2]), np.unique(rects[:, 1::2]), seed
    )
    assert_matches_scalar(engine, synopsis, boxes)

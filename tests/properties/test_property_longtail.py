"""Property tests pinning the long-tail flat releases and engines.

Three families got flat array releases with registered batch engines:
Privelet (noisy Haar coefficients + vectorised range-sum engine), the
grid hierarchy (CSR level stack + inferred leaf grid), and the
d-dimensional grid (the grid engine's prefix tensor).  These properties pin the
claims the refactor rests on, over random domains, sizes, and seeds:

* **build bit-identity** — Privelet's vectorised ``fit`` releases state
  bit-identical to the per-lane oracle in ``tests/oracles/privelet.py``
  (same noise stream, consumed in the same order: the generators are
  interchangeable after the build), and the hierarchy's released leaves
  are exactly what inference over its released stack gives;
* **answer agreement** — each synopsis's registered engine agrees with
  its independent scalar ``answer`` path to 1e-9 relative, on the full
  batch-contract query mix: boundary, duplicate, degenerate, inverted,
  NaN, and out-of-domain rows, plus the empty batch.
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.baselines.hierarchy import (
    HierarchicalGridBuilder,
    block_sum,
    hierarchy_inference,
)
from repro.baselines.privelet import PriveletBuilder
from repro.core.geometry import Domain2D
from repro.datasets.synthetic import make_gaussian_mixture
from repro.extensions.multidim import (
    MultiDimGridBuilder,
    NDBox,
    NDUniformGridBuilder,
)
from repro.queries.engine import (
    BatchQueryEngine,
    make_engine,
    scalar_answer_batch,
)
from tests.oracles.inference import CountNode, infer_tree
from tests.oracles.privelet import fit_per_lane

seeds = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def domains(draw) -> Domain2D:
    """Random non-degenerate domains, not just the unit square."""
    x_lo = draw(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
    y_lo = draw(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
    width = draw(st.floats(min_value=0.5, max_value=80.0, allow_nan=False))
    height = draw(st.floats(min_value=0.5, max_value=80.0, allow_nan=False))
    return Domain2D(x_lo, y_lo, x_lo + width, y_lo + height)


def query_mix(domain: Domain2D, seed: int, n: int = 24) -> np.ndarray:
    """Boundary, duplicate, degenerate, inverted, NaN, outside, random rows."""
    rng = np.random.default_rng(seed)
    b = domain.bounds
    rows = [
        [b.x_lo, b.y_lo, b.x_hi, b.y_hi],  # exact domain
        [b.x_lo, b.y_lo, b.x_hi, b.y_hi],  # duplicate of the above
        [b.x_lo - 1.0, b.y_lo - 1.0, b.x_hi + 1.0, b.y_hi + 1.0],  # covering
        [b.x_lo, b.y_lo, b.x_lo, b.y_hi],  # degenerate (zero width)
        [b.x_lo, b.y_lo, b.x_hi, b.y_lo],  # degenerate (zero height)
        [b.x_hi, b.y_lo, b.x_lo, b.y_hi],  # inverted
        [np.nan, b.y_lo, b.x_hi, b.y_hi],  # NaN bound
        [b.x_hi + 1.0, b.y_hi + 1.0, b.x_hi + 2.0, b.y_hi + 2.0],  # outside
    ]
    while len(rows) < n:
        x = np.sort(rng.uniform(b.x_lo - 0.2 * domain.width,
                                b.x_hi + 0.2 * domain.width, 2))
        y = np.sort(rng.uniform(b.y_lo - 0.2 * domain.height,
                                b.y_hi + 0.2 * domain.height, 2))
        rows.append([x[0], y[0], x[1], y[1]])
    return np.asarray(rows)


# ----------------------------------------------------------------------
# Privelet
# ----------------------------------------------------------------------


grid_sizes = st.integers(min_value=1, max_value=9)


@settings(max_examples=20, deadline=None)
@given(domains(), grid_sizes, seeds)
def test_privelet_flat_build_matches_reference(domain, m, seed):
    """Vectorised transforms release bit-identical state, same noise stream."""
    dataset = make_gaussian_mixture(400, n_clusters=3, rng=seed, domain=domain)
    builder = PriveletBuilder(grid_size=m)
    rng_flat = np.random.default_rng(seed)
    rng_ref = np.random.default_rng(seed)
    flat = builder.fit(dataset, 1.0, rng_flat)
    reference = fit_per_lane(builder, dataset, 1.0, rng_ref)
    np.testing.assert_array_equal(flat.counts, reference.counts)
    # Same number of draws consumed, in the same order: the generators
    # are interchangeable after the build.
    assert rng_flat.uniform() == rng_ref.uniform()


@settings(max_examples=20, deadline=None)
@given(domains(), grid_sizes, seeds)
def test_wavelet_engine_matches_scalar(domain, m, seed):
    """Engine == the scalar grid-estimate loop to 1e-9, on the full mix."""
    dataset = make_gaussian_mixture(400, n_clusters=3, rng=seed, domain=domain)
    synopsis = PriveletBuilder(grid_size=m).fit(
        dataset, 1.0, np.random.default_rng(seed)
    )
    engine = make_engine(synopsis)
    assert isinstance(engine, BatchQueryEngine)
    boxes = query_mix(domain, seed)
    scalar = scalar_answer_batch(synopsis, boxes)
    scale = max(1.0, float(np.abs(scalar).max()))
    np.testing.assert_allclose(
        engine.answer_batch(boxes), scalar, rtol=1e-9, atol=1e-9 * scale
    )
    assert engine.answer_batch(np.empty((0, 4))).shape == (0,)


@settings(max_examples=20, deadline=None)
@given(domains(), grid_sizes, seeds)
def test_wavelet_engine_matches_grid_estimate(domain, m, seed):
    """The served engine equals the reconstructed-grid form."""
    dataset = make_gaussian_mixture(400, n_clusters=3, rng=seed, domain=domain)
    synopsis = PriveletBuilder(grid_size=m).fit(
        dataset, 1.0, np.random.default_rng(seed)
    )
    boxes = query_mix(domain, seed)
    got = make_engine(synopsis).answer_batch(boxes)
    layout = synopsis.layout
    with np.errstate(invalid="ignore"):
        valid = (boxes[:, 2] > boxes[:, 0]) & (boxes[:, 3] > boxes[:, 1])
    reference = np.zeros(boxes.shape[0])
    from repro.core.geometry import Rect

    for i in np.flatnonzero(valid):
        reference[i] = layout.estimate(synopsis.counts, Rect(*boxes[i]))
    scale = max(1.0, float(np.abs(reference).max()))
    np.testing.assert_allclose(got, reference, rtol=1e-9, atol=1e-9 * scale)


# ----------------------------------------------------------------------
# Hierarchy
# ----------------------------------------------------------------------


branchings = st.integers(min_value=2, max_value=3)
hierarchy_depths = st.integers(min_value=1, max_value=3)
leaf_multiples = st.integers(min_value=1, max_value=3)


@settings(max_examples=20, deadline=None)
@given(domains(), branchings, hierarchy_depths, leaf_multiples, seeds)
def test_hierarchy_flat_build_matches_reference(domain, b, d, k, seed):
    """Inference over the released stack reproduces the released leaves."""
    dataset = make_gaussian_mixture(400, n_clusters=3, rng=seed, domain=domain)
    builder = HierarchicalGridBuilder(
        leaf_grid_size=k * b ** (d - 1), branching=b, depth=d
    )
    flat = builder.fit(dataset, 1.0, np.random.default_rng(seed))
    np.testing.assert_array_equal(flat.infer_leaf_counts(), flat.counts)


def infer_level_stack_as_tree(levels, variances, branching):
    """Run :func:`infer_tree` over a level stack and read it back by level.

    Every cell becomes a :class:`CountNode` under the cell it refines; the
    coarsest level hangs off an unmeasured root covering the domain.
    """
    root = CountNode(None)
    grids, parents = [], None
    for values, variance in zip(levels, variances):
        grid = np.empty(values.shape, dtype=object)
        for index in np.ndindex(values.shape):
            grid[index] = CountNode(float(values[index]), variance)
            parent = root if parents is None else parents[
                tuple(i // branching for i in index)
            ]
            parent.children.append(grid[index])
        grids.append(grid)
        parents = grid
    infer_tree(root)
    return [
        np.vectorize(lambda node: node.inferred_count, otypes=[float])(grid)
        for grid in grids
    ]


@settings(max_examples=15, deadline=None)
@given(
    branchings,
    st.integers(min_value=2, max_value=3),
    leaf_multiples,
    st.sampled_from([1, 2]),
    seeds,
)
def test_hierarchy_tree_bridge_matches_inference(b, d, k, rank, seed):
    """hierarchy_inference == the recursive tree inference, level by level.

    Inputs are a fitted 2-D ``H_{b,d}`` stack and a 1-D binary stack (the
    Hier1d shape).  :func:`infer_tree` adds child sums sequentially while
    ``block_sum`` uses pairwise axis reductions, so agreement is pinned
    at 1e-9 relative, not bit-identical.
    """
    if rank == 2:
        dataset = make_gaussian_mixture(400, n_clusters=3, rng=seed)
        builder = HierarchicalGridBuilder(
            leaf_grid_size=k * b ** (d - 1), branching=b, depth=d
        )
        synopsis = builder.fit(dataset, 1.0, np.random.default_rng(seed))
        levels = [synopsis.level_measurements(level) for level in range(d)]
        variances = [float(v) for v in synopsis.level_variances]
    else:
        b = 2
        rng = np.random.default_rng(seed)
        leaf = rng.integers(0, 50, size=k * b ** (d - 1)).astype(float)
        levels = []
        for level in range(d):
            exact = block_sum(leaf, b ** (d - 1 - level))
            levels.append(exact + rng.laplace(0.0, 2.0, size=exact.shape))
        variances = [8.0] * d
    inferred = hierarchy_inference(levels, variances, b)
    tree = infer_level_stack_as_tree(levels, variances, b)
    for level in range(d):
        scale = max(1.0, float(np.abs(inferred[level]).max()))
        np.testing.assert_allclose(
            tree[level], inferred[level], rtol=1e-9, atol=1e-9 * scale
        )


@settings(max_examples=15, deadline=None)
@given(domains(), branchings, hierarchy_depths, seeds)
def test_hierarchy_engine_matches_scalar(domain, b, d, seed):
    """The inherited grid engine == scalar grid estimates on the mix."""
    dataset = make_gaussian_mixture(400, n_clusters=3, rng=seed, domain=domain)
    builder = HierarchicalGridBuilder(
        leaf_grid_size=2 * b ** (d - 1), branching=b, depth=d
    )
    synopsis = builder.fit(dataset, 1.0, np.random.default_rng(seed))
    boxes = query_mix(domain, seed)
    engine = make_engine(synopsis)
    scalar = scalar_answer_batch(synopsis, boxes)
    scale = max(1.0, float(np.abs(scalar).max()))
    np.testing.assert_allclose(
        engine.answer_batch(boxes), scalar, rtol=1e-9, atol=1e-9 * scale
    )


# ----------------------------------------------------------------------
# d-dimensional grids
# ----------------------------------------------------------------------


dimensions = st.integers(min_value=1, max_value=4)
nd_sizes = st.integers(min_value=1, max_value=5)


def nd_query_mix(box: NDBox, seed: int, n: int = 16) -> np.ndarray:
    """Full-box, degenerate, inverted, NaN, and random lows/highs rows."""
    rng = np.random.default_rng(seed)
    d = box.dimension
    full = np.concatenate([box.lows, box.highs])
    degenerate = full.copy()
    degenerate[d] = degenerate[0]  # axis 0 collapses to zero width
    inverted = np.concatenate([box.highs, box.lows])
    nan_row = full.copy()
    nan_row[0] = np.nan
    rows = [full, degenerate, inverted, nan_row]
    while len(rows) < n:
        corners = rng.uniform(
            box.lows - 0.2 * box.widths, box.highs + 0.2 * box.widths,
            size=(2, d),
        )
        rows.append(
            np.concatenate([corners.min(axis=0), corners.max(axis=0)])
        )
    return np.asarray(rows)


@settings(max_examples=20, deadline=None)
@given(dimensions, nd_sizes, seeds)
def test_nd_engine_matches_scalar_estimate(d, m, seed):
    """The grid engine == the tensordot estimate, any dimension."""
    rng = np.random.default_rng(seed)
    box = NDBox(rng.uniform(-5, 0, d), rng.uniform(1, 6, d))
    points = rng.uniform(box.lows, box.highs, size=(300, d))
    synopsis = NDUniformGridBuilder(per_axis_size=m).fit(
        points, box, 1.0, np.random.default_rng(seed)
    )
    boxes = nd_query_mix(box, seed)
    got = synopsis.answer_many(boxes)
    assert isinstance(synopsis.batch_engine(), BatchQueryEngine)
    reference = np.zeros(boxes.shape[0])
    with np.errstate(invalid="ignore"):
        valid = (boxes[:, d:] > boxes[:, :d]).all(axis=1)
    for i in np.flatnonzero(valid):
        reference[i] = synopsis.answer(NDBox(boxes[i, :d], boxes[i, d:]))
    scale = max(1.0, float(np.abs(reference).max()))
    np.testing.assert_allclose(got, reference, rtol=1e-9, atol=1e-9 * scale)
    # Degenerate, inverted, and NaN rows answer exactly 0, no tolerance.
    np.testing.assert_array_equal(got[1:4], np.zeros(3))
    assert synopsis.answer_many(np.empty((0, 2 * d))).shape == (0,)


@settings(max_examples=20, deadline=None)
@given(domains(), nd_sizes, seeds)
def test_multidim_engine_matches_scalar(domain, m, seed):
    """At d = 2 the engine == the wrapped tensordot estimate to 1e-9."""
    dataset = make_gaussian_mixture(400, n_clusters=3, rng=seed, domain=domain)
    synopsis = MultiDimGridBuilder(per_axis_size=m).fit(
        dataset, 1.0, np.random.default_rng(seed)
    )
    engine = make_engine(synopsis)
    assert isinstance(engine, BatchQueryEngine)
    boxes = query_mix(domain, seed)
    scalar = scalar_answer_batch(synopsis, boxes)
    scale = max(1.0, float(np.abs(scalar).max()))
    np.testing.assert_allclose(
        engine.answer_batch(boxes), scalar, rtol=1e-9, atol=1e-9 * scale
    )

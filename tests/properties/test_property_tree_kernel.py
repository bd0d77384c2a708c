"""Property tests for the flat tree kernel.

Three equivalences pin the kernel to its recursive references:

* ``infer_level_order`` (flat level-wise array inference) must be
  **bit-identical** to ``infer_tree`` over the equivalent ``CountNode``
  graph — including unbalanced trees, single-node trees, unmeasured
  internals, and variance-infinity roots.
* ``FlatTreeEngine`` (level-synchronous frontier descent with edge
  tables) must match ``TreeSynopsis.answer``'s recursive descent up to
  floating-point rounding on adversarial query mixes: boundary-aligned,
  duplicated, degenerate, inverted, and out-of-domain rectangles, and
  single-cut rectangles whose one crossing edge lies strictly inside a
  node, on a node edge or on a leaf edge — over uninferred and inferred
  trees whose splits may produce zero-width children and zero-area
  leaves.
* ``TwoLevelGridEngine`` (the summed-area two-level grid a consistent
  tree lowers onto) must match the same descent up to rounding on
  inferred trees with positive-area leaves, with query edges on leaf
  edges, first-level lines, the domain boundary and beyond it, and
  restored over its own slabs as read-only views it must answer
  **bit-identically**.
* ``TreeSynopsis.answer`` (a recursion over the released arrays) must be
  **bit-identical** to the recursive descent over the equivalent
  ``SpatialNode`` graph, on the same query mixes.
"""

import math

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.baselines.tree import TreeSynopsis, apply_tree_inference_arrays
from repro.core.geometry import Domain2D, Rect, rects_to_boxes
from repro.queries.engine import (
    FlatTreeEngine,
    TwoLevelGridEngine,
    scalar_answer_batch,
)
from tests.oracles.inference import CountNode, infer_tree
from tests.oracles.trees import SpatialNode, graph_answer, to_root, tree_arrays

counts = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
variances = st.floats(min_value=0.01, max_value=100.0, allow_nan=False)
fractions = st.floats(min_value=0.1, max_value=0.9)
#: Split fractions that include 0 and 1: a zero-width child, and so
#: zero-area leaves, which the descent counts fully when touched.
edge_fractions = st.one_of(st.sampled_from([0.0, 1.0]), fractions)


@st.composite
def random_spatial_trees(
    draw, max_depth: int = 4, split_fractions=fractions
) -> SpatialNode:
    """A random measured spatial tree whose children partition parents.

    Shapes are deliberately ragged: each internal node draws its own
    fan-out (an axis split or a quadrant split) and every child decides
    independently whether to keep splitting, so the tree can be a single
    node, a full quadtree, or anything unbalanced in between.  Internal
    nodes may be unmeasured (``noisy_count=None, variance=inf``) — the
    variance-infinity-root case included; leaves always carry a
    measurement, as both inference implementations require.
    """

    def build(rect: Rect, level: int) -> SpatialNode:
        is_leaf = level >= max_depth or draw(st.booleans())
        if is_leaf:
            return SpatialNode(
                rect=rect,
                noisy_count=draw(counts),
                variance=draw(variances),
                depth=level,
            )
        # Splits are clamped to the far edge: lo + 1.0 * (hi - lo) can
        # round one ulp past hi, which no rectangle may span.
        if draw(st.booleans()):  # quadrant split
            fx = min(rect.x_lo + draw(split_fractions) * rect.width, rect.x_hi)
            fy = min(rect.y_lo + draw(split_fractions) * rect.height, rect.y_hi)
            child_rects = [
                Rect(rect.x_lo, rect.y_lo, fx, fy),
                Rect(fx, rect.y_lo, rect.x_hi, fy),
                Rect(rect.x_lo, fy, fx, rect.y_hi),
                Rect(fx, fy, rect.x_hi, rect.y_hi),
            ]
        else:  # axis split
            axis = draw(st.integers(min_value=0, max_value=1))
            if axis == 0:
                split = min(
                    rect.x_lo + draw(split_fractions) * rect.width, rect.x_hi
                )
                child_rects = [
                    Rect(rect.x_lo, rect.y_lo, split, rect.y_hi),
                    Rect(split, rect.y_lo, rect.x_hi, rect.y_hi),
                ]
            else:
                split = min(
                    rect.y_lo + draw(split_fractions) * rect.height, rect.y_hi
                )
                child_rects = [
                    Rect(rect.x_lo, rect.y_lo, rect.x_hi, split),
                    Rect(rect.x_lo, split, rect.x_hi, rect.y_hi),
                ]
        measured = draw(st.booleans())
        node = SpatialNode(
            rect=rect,
            noisy_count=draw(counts) if measured else None,
            variance=draw(variances) if measured else math.inf,
            depth=level,
        )
        node.children = [build(child, level + 1) for child in child_rects]
        return node

    root = build(Rect(0.0, 0.0, 1.0, 1.0), 0)
    if root.is_leaf and root.noisy_count is None:
        root.noisy_count = draw(counts)
        root.variance = draw(variances)
    return root


def _to_count_node(node: SpatialNode) -> CountNode:
    return CountNode(
        noisy_count=node.noisy_count,
        variance=node.variance,
        children=[_to_count_node(child) for child in node.children],
    )


def _bfs_inferred(root: CountNode) -> list[float]:
    out, queue = [], [root]
    index = 0
    while index < len(queue):
        node = queue[index]
        out.append(node.inferred_count)
        queue.extend(node.children)
        index += 1
    return out


@settings(max_examples=120)
@given(random_spatial_trees())
def test_flat_inference_bit_identical_to_recursive(root: SpatialNode):
    count_root = _to_count_node(root)
    infer_tree(count_root)
    reference = np.array(_bfs_inferred(count_root))

    arrays = tree_arrays(root)
    arrays.validate()
    apply_tree_inference_arrays(arrays)
    np.testing.assert_array_equal(arrays.counts, reference)


@settings(max_examples=60)
@given(random_spatial_trees())
def test_flat_inference_consistent(root: SpatialNode):
    """Every parent's inferred count equals the sum of its children's."""
    arrays = tree_arrays(root)
    apply_tree_inference_arrays(arrays)
    offsets = arrays.child_offsets
    for v in range(arrays.n_nodes):
        lo, hi = offsets[v], offsets[v + 1]
        if hi > lo:
            np.testing.assert_allclose(
                arrays.counts[v], arrays.counts[lo:hi].sum(),
                rtol=1e-6, atol=1e-6,
            )


def test_single_node_tree_inference():
    leaf = SpatialNode(
        rect=Rect(0.0, 0.0, 1.0, 1.0), noisy_count=7.5, variance=2.0
    )
    arrays = tree_arrays(leaf)
    apply_tree_inference_arrays(arrays)
    np.testing.assert_array_equal(arrays.counts, [7.5])


def test_variance_infinity_root_takes_children_sum():
    """An unmeasured root's estimate is exactly its children's z-sum."""
    left = SpatialNode(
        rect=Rect(0.0, 0.0, 0.5, 1.0), noisy_count=10.0, variance=3.0, depth=1
    )
    right = SpatialNode(
        rect=Rect(0.5, 0.0, 1.0, 1.0), noisy_count=20.0, variance=3.0, depth=1
    )
    root = SpatialNode(
        rect=Rect(0.0, 0.0, 1.0, 1.0),
        noisy_count=None,
        variance=math.inf,
        children=[left, right],
    )
    count_root = _to_count_node(root)
    infer_tree(count_root)
    arrays = tree_arrays(root)
    apply_tree_inference_arrays(arrays)
    np.testing.assert_array_equal(arrays.counts, _bfs_inferred(count_root))
    assert arrays.counts[0] == 30.0


@st.composite
def query_batches(draw, max_queries: int = 12) -> list[Rect]:
    """Query mixes that stress the engine's classification boundaries."""
    rects: list[Rect] = [
        Rect(0.0, 0.0, 1.0, 1.0),  # exact domain cover
        Rect(-0.5, -0.5, 1.5, 1.5),  # strict superset
        Rect(2.0, 2.0, 3.0, 3.0),  # fully disjoint
        Rect(0.25, 0.25, 0.25, 0.75),  # degenerate vertical edge
        Rect(0.5, 0.5, 0.5, 0.5),  # degenerate point
    ]
    n_random = draw(st.integers(min_value=0, max_value=max_queries))
    for _ in range(n_random):
        # Snap coordinates to a coarse lattice so many query edges land
        # exactly on node boundaries (the scalar/flat tie-break paths).
        coords = sorted(
            draw(st.integers(min_value=-2, max_value=18)) / 16.0
            for _ in range(2)
        )
        coords_y = sorted(
            draw(st.integers(min_value=-2, max_value=18)) / 16.0
            for _ in range(2)
        )
        rects.append(Rect(coords[0], coords_y[0], coords[1], coords_y[1]))
    if rects and draw(st.booleans()):
        rects.append(rects[draw(st.integers(0, len(rects) - 1))])  # duplicate
    return rects


@settings(max_examples=100)
@given(random_spatial_trees(), query_batches())
def test_flat_tree_engine_matches_scalar_answer(root, rects):
    synopsis = TreeSynopsis(Domain2D.unit(), 1.0, tree_arrays(root))
    engine = FlatTreeEngine(synopsis)
    flat = engine.answer_batch(rects)
    scalar = np.array([synopsis.answer(rect) for rect in rects])
    np.testing.assert_allclose(flat, scalar, rtol=1e-9, atol=1e-9)


@st.composite
def releases_with_single_cuts(draw, max_queries: int = 16):
    """A tree release and rectangles that each cover one node along one
    axis and cross it at one coordinate along the other.

    The tree's splits may sit at fraction 0 or 1.  Half the releases are
    uninferred (every node its own count, as KD-standard releases) and
    half inferred (internals equal their children's sums, as KD-hybrid
    releases).  The crossing coordinate lies strictly inside the node,
    on some node's edge or on some leaf's edge; the covered axis is
    matched exactly or overshot, and the far query edge likewise.
    """
    root = draw(random_spatial_trees(split_fractions=edge_fractions))
    arrays = tree_arrays(root)
    if draw(st.booleans()):
        apply_tree_inference_arrays(arrays)
    else:
        arrays.counts[:] = draw(
            st.lists(counts, min_size=arrays.n_nodes, max_size=arrays.n_nodes)
        )
    rects = arrays.rects
    leaves = np.flatnonzero(arrays.leaf_mask)
    pads = st.sampled_from([0.0, 0.25])
    boxes = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_queries))):
        node = draw(st.integers(min_value=0, max_value=arrays.n_nodes - 1))
        axis = draw(st.integers(min_value=0, max_value=1))
        lo, hi = rects[node, axis], rects[node, axis + 2]
        where = draw(st.sampled_from(["inside", "node edge", "leaf edge"]))
        if where == "inside":
            a = lo + draw(
                st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
            ) * (hi - lo)
        else:
            pool = leaves if where == "leaf edge" else np.arange(arrays.n_nodes)
            other = pool[draw(st.integers(min_value=0, max_value=pool.size - 1))]
            a = rects[other, axis + 2 * draw(st.integers(min_value=0, max_value=1))]
        if draw(st.booleans()):
            cut_lo, cut_hi = lo - draw(pads), a  # the upper edge crosses
        else:
            cut_lo, cut_hi = a, hi + draw(pads)  # the lower edge crosses
        cover_lo = rects[node, 1 - axis] - draw(pads)
        cover_hi = rects[node, 3 - axis] + draw(pads)
        if axis == 0:
            boxes.append([cut_lo, cover_lo, cut_hi, cover_hi])
        else:
            boxes.append([cover_lo, cut_lo, cover_hi, cut_hi])
    return TreeSynopsis(Domain2D.unit(), 1.0, arrays), np.array(boxes)


@settings(max_examples=150)
@given(releases_with_single_cuts())
def test_edge_tables_match_scalar_on_single_cuts(release):
    synopsis, boxes = release
    engine = FlatTreeEngine(synopsis)
    scalar = scalar_answer_batch(synopsis, boxes)
    scale = max(1.0, float(np.abs(scalar).max()))
    np.testing.assert_allclose(
        engine.answer_batch(boxes), scalar, rtol=1e-9, atol=1e-9 * scale
    )


@settings(max_examples=60)
@given(releases_with_single_cuts(), query_batches())
def test_edge_tables_match_scalar_on_mixed_batches(release, rects):
    """Zero-area leaves and uninferred counts under the general query mix."""
    synopsis, _ = release
    engine = FlatTreeEngine(synopsis)
    scalar = scalar_answer_batch(synopsis, rects)
    scale = max(1.0, float(np.abs(scalar).max()))
    np.testing.assert_allclose(
        engine.answer_batch(rects), scalar, rtol=1e-9, atol=1e-9 * scale
    )


@st.composite
def consistent_releases_with_grid_queries(draw, max_queries: int = 24):
    """An inferred (so consistent) tree release with positive-area leaves
    and rows whose edges lie on leaf edges, on the two-level grid's
    first-level lines, on the domain boundary, beyond it or anywhere
    inside, plus degenerate, inverted and NaN rows."""
    arrays = tree_arrays(draw(random_spatial_trees()))
    apply_tree_inference_arrays(arrays)
    leaves = arrays.rects[arrays.leaf_mask]
    size = TwoLevelGridEngine.first_level_size(leaves.shape[0])
    lines = np.arange(size + 1) / size
    places = {
        "leaf edge": lambda axis: leaves[:, [axis, axis + 2]].ravel(),
        "line": lambda axis: lines,
        "boundary": lambda axis: np.array([0.0, 1.0]),
        "beyond": lambda axis: np.array([-0.25, 1.25]),
    }
    inside = st.floats(0.0, 1.0)
    boxes = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_queries))):
        row = [0.0] * 4
        for axis in range(2):
            edges = []
            for _ in range(2):
                place = draw(st.sampled_from(sorted(places) + ["inside"]))
                if place == "inside":
                    edges.append(draw(inside))
                else:
                    pool = places[place](axis)
                    edges.append(pool[draw(st.integers(0, pool.size - 1))])
            row[axis], row[axis + 2] = sorted(edges)
        boxes.append(row)
    boxes += [
        [0.3, 0.3, 0.3, 0.8],  # zero width
        [0.2, 0.5, 0.9, 0.5],  # zero height
        [0.7, 0.2, 0.3, 0.6],  # inverted
        [np.nan, 0.1, 0.9, 0.9],
        [0.1, 0.1, 0.9, np.nan],
    ]
    return TreeSynopsis(Domain2D.unit(), 1.0, arrays), np.array(boxes)


@settings(max_examples=150)
@given(consistent_releases_with_grid_queries())
def test_two_level_grid_matches_scalar_answer(release):
    synopsis, boxes = release
    arrays = synopsis.arrays
    leaves = arrays.leaf_mask
    engine = TwoLevelGridEngine.build(TwoLevelGridEngine.layout(
        arrays.rects[0], arrays.rects[leaves], arrays.counts[leaves]
    ))
    answers = engine.answer_batch(boxes)
    scalar = scalar_answer_batch(synopsis, boxes)
    scale = max(1.0, float(np.abs(scalar).max()))
    np.testing.assert_allclose(answers, scalar, rtol=1e-9, atol=1e-9 * scale)
    # Restored over its own slabs, as an archive's read-only mappings.
    views = {}
    for name, slab in engine.slabs.items():
        views[name] = slab.view()
        views[name].flags.writeable = False
    restored = TwoLevelGridEngine(arrays.rects[0], views)
    np.testing.assert_array_equal(
        restored.answer_batch(boxes).view(np.uint64), answers.view(np.uint64)
    )


@settings(max_examples=40)
@given(random_spatial_trees())
def test_flat_tree_engine_empty_and_inverted_batches(root):
    synopsis = TreeSynopsis(Domain2D.unit(), 1.0, tree_arrays(root))
    engine = FlatTreeEngine(synopsis)
    assert engine.answer_batch([]).shape == (0,)
    assert engine.answer_batch(np.empty((0, 4))).shape == (0,)
    # Inverted rows answer 0, matching scalar_answer_batch's contract.
    boxes = np.array([[0.8, 0.1, 0.2, 0.9], [0.1, 0.9, 0.9, 0.1]])
    np.testing.assert_array_equal(engine.answer_batch(boxes), [0.0, 0.0])
    np.testing.assert_array_equal(
        engine.answer_batch(boxes), scalar_answer_batch(synopsis, boxes)
    )


@settings(max_examples=60)
@given(random_spatial_trees())
def test_tree_arrays_object_graph_round_trip(root):
    """tree_arrays -> to_root -> tree_arrays is a fixed point of the arrays."""
    arrays = tree_arrays(root)
    rebuilt = tree_arrays(to_root(arrays))
    np.testing.assert_array_equal(arrays.rects, rebuilt.rects)
    np.testing.assert_array_equal(arrays.depths, rebuilt.depths)
    np.testing.assert_array_equal(arrays.child_offsets, rebuilt.child_offsets)
    np.testing.assert_array_equal(arrays.noisy_counts, rebuilt.noisy_counts)
    np.testing.assert_array_equal(arrays.variances, rebuilt.variances)
    np.testing.assert_array_equal(arrays.counts, rebuilt.counts)
    np.testing.assert_array_equal(arrays.level_offsets, rebuilt.level_offsets)


def _graph_answer_batch(root: SpatialNode, rects) -> np.ndarray:
    """The graph descent under ``scalar_answer_batch``'s batch contract."""
    boxes = rects_to_boxes(rects)
    out = np.zeros(boxes.shape[0])
    for i, row in enumerate(boxes):
        if row[2] >= row[0] and row[3] >= row[1]:
            out[i] = graph_answer(root, Rect(*row))
    return out


@settings(max_examples=50)
@given(releases_with_single_cuts(), query_batches())
def test_array_descent_bit_identical_to_graph_descent(release, rects):
    """The scalar answer over the arrays == the object-graph descent, to
    the bit, on uninferred and inferred trees and both query mixes."""
    synopsis, boxes = release
    root = to_root(synopsis.arrays)
    for batch in (boxes, rects):
        got = scalar_answer_batch(synopsis, batch)
        want = _graph_answer_batch(root, batch)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

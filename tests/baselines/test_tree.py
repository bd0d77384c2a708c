"""Unit tests for the spatial-tree synopsis substrate."""

import numpy as np
import pytest

from repro.baselines.tree import (
    LEAF,
    QUADRANTS,
    X_HALVES,
    Y_HALVES,
    TreeSynopsis,
    split_kinds,
)
from repro.core.geometry import Domain2D, Rect
from tests.oracles.trees import (
    SpatialNode,
    apply_tree_inference,
    graph_answer,
    to_root,
    tree_arrays,
)


def two_level_tree() -> SpatialNode:
    """Root [0,1]^2 with 100 points split 70/30 left/right."""
    left = SpatialNode(
        rect=Rect(0.0, 0.0, 0.5, 1.0), noisy_count=70.0, variance=2.0,
        count=70.0, depth=1,
    )
    right = SpatialNode(
        rect=Rect(0.5, 0.0, 1.0, 1.0), noisy_count=30.0, variance=2.0,
        count=30.0, depth=1,
    )
    return SpatialNode(
        rect=Rect(0.0, 0.0, 1.0, 1.0), noisy_count=100.0, variance=2.0,
        count=100.0, children=[left, right],
    )


class TestStructureQueries:
    def test_counts(self):
        root = two_level_tree()
        assert root.node_count() == 3
        assert root.leaf_count() == 2
        assert root.height() == 1

    def test_iter_leaves(self):
        root = two_level_tree()
        assert [leaf.count for leaf in root.iter_leaves()] == [70.0, 30.0]


class TestQueryAnswering:
    @pytest.fixture
    def synopsis(self) -> TreeSynopsis:
        return TreeSynopsis(Domain2D.unit(), 1.0, tree_arrays(two_level_tree()))

    def test_full_domain_uses_root(self, synopsis):
        assert synopsis.answer(Rect(0.0, 0.0, 1.0, 1.0)) == 100.0

    def test_contained_child(self, synopsis):
        assert synopsis.answer(Rect(0.0, 0.0, 0.5, 1.0)) == 70.0

    def test_partial_leaf_uniformity(self, synopsis):
        # Left half of the left child = quarter of the domain.
        assert synopsis.answer(Rect(0.0, 0.0, 0.25, 1.0)) == pytest.approx(35.0)

    def test_straddling_query(self, synopsis):
        # Covers right half of left leaf + left half of right leaf.
        estimate = synopsis.answer(Rect(0.25, 0.0, 0.75, 1.0))
        assert estimate == pytest.approx(0.5 * 70.0 + 0.5 * 30.0)

    def test_disjoint(self, synopsis):
        assert synopsis.answer(Rect(2.0, 2.0, 3.0, 3.0)) == 0.0

    def test_synthetic_points(self, synopsis, rng):
        cloud = synopsis.synthetic_points(rng)
        assert cloud.shape == (100, 2)
        left_mask = cloud[:, 0] <= 0.5
        assert left_mask.sum() == 70


class TestTreeInference:
    def test_inference_updates_counts(self, rng):
        root = two_level_tree()
        root.noisy_count = 120.0  # inconsistent with children (100)
        apply_tree_inference(root)
        child_sum = sum(child.count for child in root.children)
        assert root.count == pytest.approx(child_sum)
        assert 100.0 < root.count < 120.0

    def test_inference_preserves_consistent_tree(self):
        root = two_level_tree()
        apply_tree_inference(root)
        assert root.count == pytest.approx(100.0)
        assert root.children[0].count == pytest.approx(70.0)


class TestTreeArrays:
    def test_from_root_level_order(self):
        arrays = tree_arrays(two_level_tree())
        arrays.validate()
        assert arrays.n_nodes == 3
        assert arrays.n_levels == 2
        np.testing.assert_array_equal(arrays.depths, [0, 1, 1])
        np.testing.assert_array_equal(arrays.child_offsets, [1, 3, 3, 3])
        np.testing.assert_array_equal(arrays.level_offsets, [0, 1, 3])
        np.testing.assert_array_equal(arrays.counts, [100.0, 70.0, 30.0])
        # Siblings keep their split order: left child first.
        assert arrays.rects[1, 2] == 0.5

    def test_structure_queries_match_object_graph(self):
        root = two_level_tree()
        arrays = tree_arrays(root)
        assert arrays.node_count() == root.node_count()
        assert arrays.leaf_count() == root.leaf_count()
        assert arrays.height() == root.height()

    def test_unmeasured_nodes_round_trip_as_nan(self):
        root = two_level_tree()
        root.noisy_count = None
        root.variance = float("inf")
        arrays = tree_arrays(root)
        assert np.isnan(arrays.noisy_counts[0])
        rebuilt = to_root(arrays)
        assert rebuilt.noisy_count is None
        assert rebuilt.variance == float("inf")
        assert rebuilt.children[0].noisy_count == 70.0

    def test_single_node(self):
        leaf = SpatialNode(
            rect=Rect(0.0, 0.0, 1.0, 1.0), noisy_count=5.0, variance=1.0,
            count=5.0,
        )
        arrays = tree_arrays(leaf)
        arrays.validate()
        assert arrays.n_nodes == 1
        assert arrays.height() == 0
        assert arrays.leaf_count() == 1

    def test_nbytes_positive(self):
        assert tree_arrays(two_level_tree()).nbytes > 0

    def test_validate_rejects_shuffled_depths(self):
        arrays = tree_arrays(two_level_tree())
        arrays.depths = arrays.depths[::-1].copy()
        with pytest.raises(ValueError):
            arrays.validate()

    def test_synopsis_accepts_arrays_and_materialises_root(self):
        arrays = tree_arrays(two_level_tree())
        synopsis = TreeSynopsis(Domain2D.unit(), 1.0, arrays)
        assert synopsis.arrays is arrays
        assert synopsis.node_count() == 3
        assert to_root(synopsis.arrays).children[0].count == 70.0
        assert synopsis.answer(Rect(0.0, 0.0, 0.5, 1.0)) == 70.0

    def test_synopsis_rejects_other_types(self):
        with pytest.raises(TypeError):
            TreeSynopsis(Domain2D.unit(), 1.0, "not a tree")

    def test_answer_many_routes_through_flat_engine(self):
        from repro.queries.engine import BatchQueryEngine

        synopsis = TreeSynopsis(Domain2D.unit(), 1.0, tree_arrays(two_level_tree()))
        rects = [Rect(0.0, 0.0, 0.25, 1.0), Rect(0.0, 0.0, 1.0, 1.0)]
        np.testing.assert_allclose(
            synopsis.answer_many(rects), [35.0, 100.0], rtol=1e-12
        )
        # Batches go through make_engine's pick, which for this consistent
        # (100 = 70 + 30), lattice-aligned tree is its 2 x 2 lattice.
        assert isinstance(synopsis.engine, BatchQueryEngine)

    def test_flat_inference_matches_object_graph_path(self):
        from repro.baselines.tree import apply_tree_inference_arrays

        root = two_level_tree()
        root.noisy_count = 120.0
        arrays = tree_arrays(root)
        apply_tree_inference_arrays(arrays)
        apply_tree_inference(root)
        np.testing.assert_array_equal(
            arrays.counts,
            [root.count, root.children[0].count, root.children[1].count],
        )


def _split_root(*child_rects) -> SpatialNode:
    """The unit square with one leaf per rect, in the order given."""
    children = [
        SpatialNode(rect=Rect(*rect), noisy_count=10.0, variance=2.0,
                    count=10.0, depth=1)
        for rect in child_rects
    ]
    return SpatialNode(
        rect=Rect(0.0, 0.0, 1.0, 1.0), noisy_count=10.0 * len(children),
        variance=2.0, count=10.0 * len(children), children=children,
    )


class TestSplitShapes:
    """Every internal node is two halves along one axis or four
    quadrants, in split order; the frontier kernel classifies children
    from that split, so any other tree is refused."""

    REFUSED = {
        "swapped halves": [(0.5, 0.0, 1.0, 1.0), (0.0, 0.0, 0.5, 1.0)],
        "three-way split": [
            (0.0, 0.0, 0.25, 1.0), (0.25, 0.0, 0.5, 1.0), (0.5, 0.0, 1.0, 1.0),
        ],
        "quadrants column by column": [
            (0.0, 0.0, 0.5, 0.5), (0.0, 0.5, 0.5, 1.0),
            (0.5, 0.0, 1.0, 0.5), (0.5, 0.5, 1.0, 1.0),
        ],
        "halves with a gap": [(0.0, 0.0, 0.4, 1.0), (0.6, 0.0, 1.0, 1.0)],
        "a child past its parent": [(0.0, 0.0, 0.5, 1.0), (0.5, 0.0, 1.5, 1.0)],
        "one child": [(0.0, 0.0, 1.0, 1.0)],
    }

    @pytest.mark.parametrize("shape", sorted(REFUSED))
    def test_other_splits_are_refused(self, shape):
        from repro.queries.engine import FlatTreeEngine

        arrays = tree_arrays(_split_root(*self.REFUSED[shape]))
        with pytest.raises(ValueError, match="neither two halves"):
            arrays.validate()
        with pytest.raises(ValueError, match="neither two halves"):
            FlatTreeEngine(TreeSynopsis(Domain2D.unit(), 1.0, arrays))

    def test_archive_of_another_split_is_corrupt(self):
        from repro.core.serialization import synopsis_from_bytes, synopsis_to_bytes

        # Consistent and on the lattice, so it is served lowered and
        # archives; unpacking validates the split shapes.
        arrays = tree_arrays(_split_root(*self.REFUSED["swapped halves"]))
        data = synopsis_to_bytes(TreeSynopsis(Domain2D.unit(), 1.0, arrays))
        with pytest.raises(ValueError, match="corrupt tree archive"):
            synopsis_from_bytes(data)

    @pytest.mark.parametrize("rects, kind", [
        ([(0.0, 0.0, 0.3, 1.0), (0.3, 0.0, 1.0, 1.0)], X_HALVES),
        ([(0.0, 0.0, 1.0, 0.3), (0.0, 0.3, 1.0, 1.0)], Y_HALVES),
        ([(0.0, 0.0, 0.0, 1.0), (0.0, 0.0, 1.0, 1.0)], X_HALVES),  # zero-width
        ([(0.0, 0.0, 1.0, 1.0), (0.0, 1.0, 1.0, 1.0)], Y_HALVES),  # zero-height
        ([
            (0.0, 0.0, 0.3, 0.6), (0.3, 0.0, 1.0, 0.6),
            (0.0, 0.6, 0.3, 1.0), (0.3, 0.6, 1.0, 1.0),
        ], QUADRANTS),
    ])
    def test_halves_and_quadrants_are_kept(self, rects, kind):
        arrays = tree_arrays(_split_root(*rects))
        arrays.validate()
        kinds = split_kinds(arrays.rects.T, arrays.child_offsets)
        assert kinds.tolist() == [kind] + [LEAF] * len(rects)


@pytest.mark.parametrize("method", ["Quad", "Kst", "Khy"])
def test_array_descent_matches_graph_descent_on_landmark(method):
    """The scalar answer over the arrays is bit-identical to the graph
    descent on the served tree baselines, over a q1-q6 workload."""
    from repro.datasets.registry import get_spec
    from repro.queries.workload import QueryWorkload
    from repro.service.keys import make_builder

    dataset = get_spec("landmark").make(20_000, np.random.default_rng(0))
    synopsis = make_builder(method).fit(dataset, 1.0, np.random.default_rng(0))
    workload = QueryWorkload.generate(
        dataset, 40.0, 20.0, np.random.default_rng(1), queries_per_size=50
    )
    root = to_root(synopsis.arrays)
    for rect in workload.all_rects():
        got, want = synopsis.answer(rect), graph_answer(root, rect)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), rect

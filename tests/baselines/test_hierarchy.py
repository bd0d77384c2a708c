"""Unit tests for the grid hierarchy H(b, d) baseline."""

import numpy as np
import pytest

from repro.baselines.hierarchy import (
    HierarchicalGridBuilder,
    block_repeat,
    block_sum,
    hierarchy_inference,
)
from repro.core.geometry import Rect
from repro.privacy.budget import PrivacyBudget


class TestBlockOps:
    def test_block_sum(self):
        matrix = np.arange(16, dtype=float).reshape(4, 4)
        summed = block_sum(matrix, 2)
        assert summed.shape == (2, 2)
        assert summed[0, 0] == 0 + 1 + 4 + 5
        # A 1-D histogram sums runs of buckets.
        np.testing.assert_array_equal(block_sum(matrix[0], 2), [1.0, 5.0])

    def test_block_sum_identity(self):
        matrix = np.ones((3, 3))
        np.testing.assert_array_equal(block_sum(matrix, 1), matrix)

    def test_block_sum_preserves_total(self, rng):
        matrix = rng.random((12, 12))
        assert block_sum(matrix, 3).sum() == pytest.approx(matrix.sum())

    def test_block_sum_indivisible(self):
        with pytest.raises(ValueError):
            block_sum(np.ones((5, 5)), 2)

    def test_block_repeat_inverse_shape(self, rng):
        matrix = rng.random((3, 3))
        expanded = block_repeat(matrix, 4)
        assert expanded.shape == (12, 12)
        np.testing.assert_allclose(block_sum(expanded, 4), matrix * 16)
        np.testing.assert_array_equal(
            block_repeat(matrix[0], 2), np.repeat(matrix[0], 2)
        )


class TestHierarchyInference:
    def test_consistency(self, rng):
        for shape in [(8, 8), (8,)]:  # a 2-D grid stack, a 1-D binary one
            leaf = rng.random(shape) * 100
            levels = [block_sum(leaf, 4), block_sum(leaf, 2), leaf]
            noisy = [level + rng.normal(0, 3, size=level.shape) for level in levels]
            inferred = hierarchy_inference(noisy, [18.0, 18.0, 18.0], branching=2)
            for upper, lower in zip(inferred, inferred[1:]):
                np.testing.assert_allclose(block_sum(lower, 2), upper, rtol=1e-9)

    def test_single_level_identity(self, rng):
        noisy = rng.random((4, 4))
        inferred = hierarchy_inference([noisy], [2.0], branching=2)
        np.testing.assert_array_equal(inferred[0], noisy)

    def test_noise_free_levels_unchanged(self, rng):
        leaf = rng.random((4, 4)) * 10
        levels = [block_sum(leaf, 2), leaf]
        inferred = hierarchy_inference(levels, [1.0, 1.0], branching=2)
        np.testing.assert_allclose(inferred[1], leaf, rtol=1e-9)

    def test_variance_mismatch_rejected(self):
        with pytest.raises(ValueError):
            hierarchy_inference([np.ones((2, 2))], [1.0, 2.0], branching=2)

    def test_leaf_mse_improves(self, rng):
        """Monte-Carlo: inferred leaf counts beat raw noisy leaves."""
        leaf_truth = rng.random((8, 8)) * 50
        levels_truth = [block_sum(leaf_truth, 2), leaf_truth]
        raw_sq, inferred_sq = [], []
        for _ in range(200):
            noisy = [
                level + rng.laplace(0, 2.0, size=level.shape)
                for level in levels_truth
            ]
            inferred = hierarchy_inference(noisy, [8.0, 8.0], branching=2)
            raw_sq.append(np.mean((noisy[1] - leaf_truth) ** 2))
            inferred_sq.append(np.mean((inferred[1] - leaf_truth) ** 2))
        assert np.mean(inferred_sq) < np.mean(raw_sq)


class TestBuilder:
    def test_level_sizes(self):
        builder = HierarchicalGridBuilder(leaf_grid_size=360, branching=2, depth=3)
        assert builder.level_sizes() == [90, 180, 360]

    def test_label(self):
        assert HierarchicalGridBuilder(360, branching=3, depth=3).label() == "H3,3"

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            HierarchicalGridBuilder(leaf_grid_size=100, branching=3, depth=3)

    def test_validation(self):
        with pytest.raises(ValueError):
            HierarchicalGridBuilder(0)
        with pytest.raises(ValueError):
            HierarchicalGridBuilder(8, branching=1)
        with pytest.raises(ValueError):
            HierarchicalGridBuilder(8, branching=2, depth=0)

    def test_budget_split_across_levels(self, small_skewed, rng):
        budget = PrivacyBudget(1.0)
        HierarchicalGridBuilder(leaf_grid_size=16, branching=2, depth=4).fit(
            small_skewed, 1.0, rng, budget=budget
        )
        assert budget.spent == pytest.approx(1.0)
        assert len(budget.ledger) == 4
        assert all(
            entry.epsilon == pytest.approx(0.25) for entry in budget.ledger
        )

    def test_depth_one_is_ug(self, small_skewed):
        """H(b, 1) must behave exactly like UG at the leaf size."""
        from repro.core.uniform_grid import UniformGridBuilder

        hierarchy = HierarchicalGridBuilder(16, branching=2, depth=1).fit(
            small_skewed, 1.0, np.random.default_rng(3)
        )
        ug = UniformGridBuilder(grid_size=16).fit(
            small_skewed, 1.0, np.random.default_rng(3)
        )
        np.testing.assert_allclose(hierarchy.counts, ug.counts)

    def test_total_near_truth(self, small_skewed, rng):
        synopsis = HierarchicalGridBuilder(16, branching=2, depth=3).fit(
            small_skewed, 1.0, rng
        )
        assert synopsis.total() == pytest.approx(small_skewed.size, rel=0.1)

    def test_answers_queries(self, small_skewed, rng):
        synopsis = HierarchicalGridBuilder(16, branching=4, depth=2).fit(
            small_skewed, 2.0, rng
        )
        query = Rect(0.0, 0.0, 0.5, 0.5)
        truth = small_skewed.count_in(query)
        assert synopsis.answer(query) == pytest.approx(truth, rel=0.2)

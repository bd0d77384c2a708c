"""Unit tests for the quadtree baseline."""

import numpy as np
import pytest

from repro.baselines.quadtree import QuadtreeBuilder
from repro.core.geometry import Rect
from repro.privacy.budget import PrivacyBudget
from tests.oracles.trees import fit_level_oracle, to_root


class TestStructure:
    def test_label(self):
        assert QuadtreeBuilder(depth=5).label() == "Quad5"

    def test_full_tree_leaf_grid(self, small_skewed, rng):
        # A noisy count below 0 stops an empty region at min_split_count=0,
        # so only -inf splits every node whatever the noise.
        synopsis = QuadtreeBuilder(
            depth=3, min_split_count=-np.inf, constrained_inference=False
        ).fit(small_skewed, 1.0, rng)
        assert synopsis.leaf_count() == 4**3
        assert synopsis.height() == 3

    def test_all_quadrant_splits(self, small_skewed, rng):
        synopsis = QuadtreeBuilder(depth=2, min_split_count=0.0).fit(
            small_skewed, 1.0, rng
        )
        for node in to_root(synopsis.arrays).iter_nodes():
            if not node.is_leaf:
                assert len(node.children) == 4

    def test_early_stop_on_sparse_regions(self, small_skewed, rng):
        pruned = QuadtreeBuilder(depth=6, min_split_count=200.0).fit(
            small_skewed, 1.0, rng
        )
        assert pruned.leaf_count() < 4**6


class TestBudget:
    def test_spends_exactly_epsilon(self, small_skewed, rng):
        budget = PrivacyBudget(0.8)
        QuadtreeBuilder(depth=4).fit(small_skewed, 0.8, rng, budget=budget)
        assert budget.spent == pytest.approx(0.8)

    def test_no_median_spend(self, small_skewed, rng):
        budget = PrivacyBudget(1.0)
        QuadtreeBuilder(depth=4).fit(small_skewed, 1.0, rng, budget=budget)
        assert all("median" not in entry.label for entry in budget.ledger)


class TestAccuracy:
    def test_total_near_truth(self, small_skewed, rng):
        synopsis = QuadtreeBuilder(depth=4).fit(small_skewed, 1.0, rng)
        assert synopsis.total() == pytest.approx(small_skewed.size, rel=0.1)

    def test_quadrant_query_exact_region(self, small_skewed, rng):
        synopsis = QuadtreeBuilder(depth=3, min_split_count=0.0).fit(
            small_skewed, 5.0, rng
        )
        quadrant = Rect(0.0, 0.0, 0.5, 0.5)
        truth = small_skewed.count_in(quadrant)
        assert synopsis.answer(quadrant) == pytest.approx(truth, rel=0.15)


class TestFlatBuildEquivalence:
    def test_release_bit_identical(self, small_skewed):
        """fit (level loop) == the per-node level-order oracle, bit for bit."""
        flat = QuadtreeBuilder(depth=5).fit(
            small_skewed, 1.0, np.random.default_rng(23)
        )
        oracle = fit_level_oracle(
            QuadtreeBuilder(depth=5), small_skewed, 1.0, np.random.default_rng(23)
        )
        a, b = flat.arrays, oracle.arrays
        a.validate()
        for name in (
            "rects", "depths", "child_offsets", "noisy_counts", "variances",
            "counts", "level_offsets",
        ):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name), name)

    def test_points_on_midlines_go_to_the_first_claimant(self):
        """Quadrant ``(x > cx) + 2 * (y > cy)``: ties go low, like Rect.mask."""
        from repro.core.dataset import GeoDataset
        from repro.core.geometry import Domain2D

        points = np.array([[0.5, 0.5], [0.5, 0.75], [0.75, 0.5], [0.25, 0.5]] * 50)
        dataset = GeoDataset(points, Domain2D.unit())
        builder = QuadtreeBuilder(
            depth=1, min_split_count=0.0, constrained_inference=False
        )
        flat = builder.fit(dataset, 1e6, np.random.default_rng(1))
        oracle = fit_level_oracle(builder, dataset, 1e6, np.random.default_rng(1))
        np.testing.assert_array_equal(
            flat.arrays.noisy_counts, oracle.arrays.noisy_counts
        )
        # Children 0..3 hold 100, 50 (x = 0.75 > cx, y = 0.5), 50 (y = 0.75), 0.
        np.testing.assert_allclose(
            flat.arrays.noisy_counts[1:], [100, 50, 50, 0], atol=0.01
        )

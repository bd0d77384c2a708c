"""Unit tests for the KD-tree baselines."""

import numpy as np
import pytest

from repro.baselines.kd_tree import (
    KDHybridBuilder,
    KDStandardBuilder,
    KDTreeBuilder,
    _median_splits,
    default_tree_depth,
)
from repro.baselines.quadtree import QuadtreeBuilder
from repro.core.geometry import Rect
from repro.privacy.budget import PrivacyBudget
from tests.oracles.trees import fit_level_oracle, to_root


class TestDefaultDepth:
    def test_million_points_about_16(self):
        assert default_tree_depth(1_000_000) == 16
        assert default_tree_depth(2_000_000) == 16

    def test_scales_with_budget(self):
        """Small epsilon means shallower trees (less budget per level)."""
        assert default_tree_depth(9_000, 0.1) < default_tree_depth(9_000, 1.0)
        assert default_tree_depth(9_000, 0.1) == 6

    def test_clamped(self):
        assert default_tree_depth(1) == 4
        assert default_tree_depth(10) == 4
        assert default_tree_depth(10**12) == 16


class TestConfiguration:
    def test_labels(self):
        assert KDStandardBuilder().label() == "Kst"
        assert KDHybridBuilder().label() == "Khy"

    def test_validation(self):
        with pytest.raises(ValueError):
            KDTreeBuilder(depth=0)
        with pytest.raises(ValueError):
            KDTreeBuilder(quadtree_levels=-1)
        with pytest.raises(ValueError):
            KDTreeBuilder(median_fraction=1.0)

    def test_standard_has_no_quadtree_levels(self):
        assert KDStandardBuilder().quadtree_levels == 0

    def test_hybrid_presets(self):
        builder = KDHybridBuilder()
        assert builder.quadtree_levels > 0
        assert builder.geometric_budget
        assert builder.constrained_inference


class TestTreeShape:
    def test_respects_max_depth(self, small_skewed, rng):
        builder = KDTreeBuilder(depth=4, min_split_count=0.0, median_fraction=0.2)
        synopsis = builder.fit(small_skewed, 1.0, rng)
        assert synopsis.height() == 4
        assert synopsis.leaf_count() == 16

    def test_quadtree_levels_make_quadrants(self, small_skewed, rng):
        builder = KDTreeBuilder(
            depth=1, quadtree_levels=1, min_split_count=0.0, median_fraction=0.0
        )
        synopsis = builder.fit(small_skewed, 1.0, rng)
        root = to_root(synopsis.arrays)
        assert len(root.children) == 4
        # Quadrants split at the midpoint.
        assert root.children[0].rect.x_hi == pytest.approx(0.5)

    def test_kd_levels_make_binary_splits(self, small_skewed, rng):
        builder = KDTreeBuilder(depth=1, min_split_count=0.0, median_fraction=0.2)
        synopsis = builder.fit(small_skewed, 1.0, rng)
        assert len(to_root(synopsis.arrays).children) == 2

    def test_min_split_count_prunes(self, small_uniform, rng):
        eager = KDTreeBuilder(depth=8, min_split_count=0.0, median_fraction=0.2)
        lazy = KDTreeBuilder(depth=8, min_split_count=500.0, median_fraction=0.2)
        assert (
            lazy.fit(small_uniform, 1.0, rng).leaf_count()
            < eager.fit(small_uniform, 1.0, rng).leaf_count()
        )

    def test_children_partition_parent(self, small_skewed, rng):
        builder = KDTreeBuilder(depth=6, median_fraction=0.2)
        synopsis = builder.fit(small_skewed, 1.0, rng)
        for node in to_root(synopsis.arrays).iter_nodes():
            if node.is_leaf:
                continue
            child_area = sum(child.rect.area for child in node.children)
            assert child_area == pytest.approx(node.rect.area, rel=1e-9)
            for child in node.children:
                assert node.rect.contains_rect(child.rect)

    def test_median_splits_near_data_median(self, rng):
        """With lots of budget the root split hugs the x median."""
        from repro.core.dataset import GeoDataset
        from repro.core.geometry import Domain2D

        # 90% of points in the left tenth of the domain.
        xs = np.concatenate([rng.uniform(0.0, 0.1, 900), rng.uniform(0.1, 1.0, 100)])
        ys = rng.random(1_000)
        dataset = GeoDataset(np.column_stack([xs, ys]), Domain2D.unit())
        builder = KDTreeBuilder(depth=1, median_fraction=0.5, min_split_count=0.0)
        synopsis = builder.fit(dataset, 100.0, rng)
        split_x = to_root(synopsis.arrays).children[0].rect.x_hi
        assert split_x < 0.2  # near the true median (~0.05), not 0.5


class TestBudgetAccounting:
    def test_total_spend_equals_epsilon(self, small_skewed, rng):
        budget = PrivacyBudget(1.0)
        KDHybridBuilder(depth=6).fit(small_skewed, 1.0, rng, budget=budget)
        assert budget.spent == pytest.approx(1.0)

    def test_standard_spends_median_budget(self, small_skewed, rng):
        budget = PrivacyBudget(1.0)
        KDStandardBuilder(depth=4).fit(small_skewed, 1.0, rng, budget=budget)
        median_spend = sum(
            entry.epsilon for entry in budget.ledger if "median" in entry.label
        )
        assert median_spend == pytest.approx(0.25)

    def test_pure_quadtree_spends_no_median_budget(self, small_skewed, rng):
        budget = PrivacyBudget(1.0)
        KDTreeBuilder(depth=3, quadtree_levels=3, median_fraction=0.0).fit(
            small_skewed, 1.0, rng, budget=budget
        )
        assert all("median" not in entry.label for entry in budget.ledger)


class TestAccuracy:
    def test_total_near_truth(self, small_skewed, rng):
        synopsis = KDHybridBuilder(depth=6).fit(small_skewed, 1.0, rng)
        assert synopsis.total() == pytest.approx(small_skewed.size, rel=0.1)

    def test_hybrid_consistent_after_inference(self, small_skewed, rng):
        synopsis = KDHybridBuilder(depth=5).fit(small_skewed, 1.0, rng)
        for node in to_root(synopsis.arrays).iter_nodes():
            if node.is_leaf:
                continue
            child_sum = sum(child.count for child in node.children)
            assert node.count == pytest.approx(child_sum, rel=1e-6, abs=1e-6)

    def test_hybrid_beats_standard_on_average(self, small_skewed, small_workload):
        """The paper (after Cormode et al.): KD-hybrid outperforms KD-standard."""
        from repro.experiments.runner import evaluate_builder

        standard = evaluate_builder(
            KDStandardBuilder(depth=8), small_skewed, small_workload, 0.5,
            n_trials=3, seed=2,
        )
        hybrid = evaluate_builder(
            KDHybridBuilder(depth=8), small_skewed, small_workload, 0.5,
            n_trials=3, seed=2,
        )
        assert hybrid.mean_relative() < standard.mean_relative()

    def test_deterministic_given_rng(self, small_skewed):
        a = KDHybridBuilder(depth=5).fit(
            small_skewed, 1.0, np.random.default_rng(9)
        )
        b = KDHybridBuilder(depth=5).fit(
            small_skewed, 1.0, np.random.default_rng(9)
        )
        query = Rect(0.1, 0.1, 0.7, 0.8)
        assert a.answer(query) == b.answer(query)


class TestUniformitySplitStrategy:
    def test_strategy_validated(self):
        with pytest.raises(ValueError, match="split_strategy"):
            KDTreeBuilder(split_strategy="nope")

    def test_uniformity_tree_builds_and_answers(self, small_skewed, rng):
        builder = KDTreeBuilder(
            depth=5, split_strategy="uniformity", median_fraction=0.2,
            min_split_count=0.0,
        )
        synopsis = builder.fit(small_skewed, 1.0, rng)
        assert synopsis.height() == 5
        assert synopsis.total() == pytest.approx(small_skewed.size, rel=0.2)

    def test_uniformity_split_prefers_density_boundary(self, rng):
        """With a sharp density step, the split should find the boundary."""
        from repro.core.dataset import GeoDataset
        from repro.core.geometry import Domain2D

        # Dense slab on x in [0, 0.25], sparse elsewhere.
        xs = np.concatenate(
            [rng.uniform(0.0, 0.25, 4_000), rng.uniform(0.25, 1.0, 400)]
        )
        ys = rng.random(4_400)
        dataset = GeoDataset(np.column_stack([xs, ys]), Domain2D.unit())
        builder = KDTreeBuilder(
            depth=1, split_strategy="uniformity", median_fraction=0.5,
            min_split_count=0.0,
        )
        synopsis = builder.fit(dataset, 50.0, rng)
        split_x = to_root(synopsis.arrays).children[0].rect.x_hi
        assert 0.15 < split_x < 0.35

    def test_budget_still_exact(self, small_skewed, rng):
        budget = PrivacyBudget(1.0)
        KDTreeBuilder(depth=4, split_strategy="uniformity").fit(
            small_skewed, 1.0, rng, budget=budget
        )
        assert budget.spent == pytest.approx(1.0)


def _assert_same_arrays(a, b):
    for name in (
        "rects", "depths", "child_offsets", "noisy_counts", "variances",
        "counts", "level_offsets",
    ):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), name)


class TestFlatBuildEquivalence:
    """fit (level loop) == the per-node level-order oracle, bit for bit."""

    @pytest.mark.parametrize(
        "make_builder",
        [
            lambda: KDStandardBuilder(depth=6),
            lambda: KDHybridBuilder(depth=7),
            lambda: KDTreeBuilder(
                depth=5, split_strategy="uniformity", median_fraction=0.2,
                min_split_count=0.0,
            ),
            lambda: KDTreeBuilder(depth=4, median_fraction=0.0),
        ],
        ids=["kst", "khy", "uniformity", "no-median"],
    )
    def test_release_bit_identical(self, small_skewed, make_builder):
        flat = make_builder().fit(small_skewed, 1.0, np.random.default_rng(17))
        oracle = fit_level_oracle(
            make_builder(), small_skewed, 1.0, np.random.default_rng(17)
        )
        flat.arrays.validate()
        oracle.arrays.validate()
        _assert_same_arrays(flat.arrays, oracle.arrays)

    def test_budget_ledgers_match(self, small_skewed):
        """Each preset keeps the recursive builder's per-level split and labels."""
        presets = [
            (
                QuadtreeBuilder(depth=5),
                [
                    (0.08664034996495772, "counts level 0"),
                    (0.10916000069110876, "counts level 1"),
                    (0.13753298267726685, "counts level 2"),
                    (0.17328069992991543, "counts level 3"),
                    (0.21832000138221752, "counts level 4"),
                    (0.2750659653545337, "counts level 5"),
                ],
            ),
            (
                KDStandardBuilder(depth=6),
                [(0.75 / 7, f"counts level {level}") for level in range(7)]
                + [(0.25 / 6, f"medians level {level}") for level in range(6)],
            ),
            (
                KDHybridBuilder(depth=6),
                [
                    (0.05469063458812943, "counts level 0"),
                    (0.0689058817496929, "counts level 1"),
                    (0.08681597087800506, "counts level 2"),
                    (0.10938126917625886, "counts level 3"),
                    (0.1378117634993858, "counts level 4"),
                    (0.17363194175601013, "counts level 5"),
                    (0.21876253835251777, "counts level 6"),
                    (0.075, "medians level 4"),
                    (0.075, "medians level 5"),
                ],
            ),
        ]
        for builder, expected in presets:
            budget = PrivacyBudget(1.0)
            builder.fit(small_skewed, 1.0, np.random.default_rng(3), budget=budget)
            assert [(entry.epsilon, entry.label) for entry in budget.ledger] == [
                (epsilon, f"{label} (parallel over nodes)")
                for epsilon, label in expected
            ], builder.label()

    def test_answer_many_matches_scalar_descent(self, small_skewed, rng):
        synopsis = KDHybridBuilder(depth=6).fit(small_skewed, 1.0, rng)
        rects = [
            Rect(0.0, 0.0, 1.0, 1.0),
            Rect(0.1, 0.2, 0.6, 0.9),
            Rect(0.25, 0.25, 0.25, 0.75),  # degenerate edge
        ]
        many = synopsis.answer_many(rects)
        singles = np.array([synopsis.answer(rect) for rect in rects])
        np.testing.assert_allclose(many, singles, rtol=1e-9, atol=1e-9)


class TestPrivateMedian:
    """Splits come from the node's extent, never from its points."""

    @pytest.mark.parametrize(
        "builder",
        [KDStandardBuilder(depth=8), KDHybridBuilder(depth=8)],
        ids=["kst", "khy"],
    )
    def test_no_kd_split_is_a_data_coordinate(self, small_skewed, builder):
        synopsis = builder.fit(small_skewed, 1.0, np.random.default_rng(5))
        arrays = synopsis.arrays
        kd_levels = 0
        for level in range(builder.quadtree_levels, arrays.n_levels - 1):
            axis = level % 2
            lo, hi = arrays.level_offsets[level], arrays.level_offsets[level + 1]
            parents = np.arange(lo, hi)
            fan_out = arrays.child_offsets[parents + 1] - arrays.child_offsets[parents]
            parents = parents[fan_out > 0]
            # The split is the lower child's upper edge on the level's axis.
            splits = arrays.rects[arrays.child_offsets[parents], axis + 2]
            assert not np.isin(splits, small_skewed.points[:, axis]).any(), level
            kd_levels += 1
        assert kd_levels >= 3

    @pytest.mark.parametrize(
        "values",
        [np.array([0.2, 0.2, 0.2, 0.5, 0.9]), np.empty(0)],
        ids=["ties", "empty"],
    )
    def test_level_draw_matches_interval_probabilities(self, values):
        """The segmented per-level draw has noisy_median's distribution."""
        lo, hi, epsilon, m = 0.0, 1.0, 1.0, 40_000
        split = _median_splits(
            np.tile(values, m),
            np.full(m, values.size),
            np.full(m, lo),
            np.full(m, hi),
            epsilon,
            np.random.default_rng(11),
        )
        assert np.all((lo < split) & (split < hi))
        assert not np.isin(split, values).any()
        observed, expected = _interval_frequencies(split, values, lo, hi, epsilon)
        np.testing.assert_allclose(observed, expected, atol=0.01)


def _interval_frequencies(draws, values, lo, hi, epsilon):
    """Observed and exact probabilities of each of the n + 1 intervals."""
    n = values.size
    edges = np.concatenate([[lo], values, [hi]])
    weights = np.diff(edges) * np.exp(
        -(epsilon / 2.0) * np.abs(np.arange(n + 1) - n / 2.0)
    )
    # A draw strictly inside a positive-length interval lands in exactly one.
    index = np.searchsorted(edges, draws, side="right") - 1
    observed = np.bincount(index, minlength=n + 1) / draws.size
    return observed, weights / weights.sum()

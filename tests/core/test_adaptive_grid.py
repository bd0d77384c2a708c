"""Unit tests for the Adaptive Grid method."""

import numpy as np
import pytest

from repro.core.adaptive_grid import AdaptiveGridBuilder
from repro.core.geometry import Rect
from repro.core.guidelines import guideline2_cell_grid_size
from repro.core.uniform_grid import UniformGridBuilder
from repro.privacy.budget import PrivacyBudget
from tests.oracles.adaptive_grid import fit_percell, two_level_inference


class TestTwoLevelInference:
    def test_consistency(self, rng):
        leaves = rng.normal(10.0, 2.0, size=16)
        combined, adjusted = two_level_inference(170.0, leaves, alpha=0.5)
        assert adjusted.sum() == pytest.approx(combined)

    def test_weights_match_paper_formula(self):
        alpha, m2 = 0.3, 4
        leaves = np.full(m2 * m2, 2.0)
        parent = 50.0
        combined, _ = two_level_inference(parent, leaves, alpha)
        a2m2 = alpha**2 * m2 * m2
        b2 = (1 - alpha) ** 2
        expected = (a2m2 * parent + b2 * leaves.sum()) / (b2 + a2m2)
        assert combined == pytest.approx(expected)

    def test_single_leaf_weighted_average(self):
        """m2 = 1 degenerates to a weighted average of two measurements."""
        combined, adjusted = two_level_inference(10.0, np.array([20.0]), alpha=0.5)
        assert combined == pytest.approx(15.0)
        assert adjusted[0] == pytest.approx(combined)

    def test_residual_distributed_equally(self):
        leaves = np.array([1.0, 2.0, 3.0, 4.0])
        combined, adjusted = two_level_inference(14.0, leaves, alpha=0.5)
        shifts = adjusted - leaves
        np.testing.assert_allclose(shifts, shifts[0])

    def test_alpha_extremes_weighting(self):
        """alpha -> 1: trust the parent; alpha -> 0: trust the leaf sum."""
        leaves = np.full(9, 1.0)  # sum = 9
        parent = 90.0
        near_parent, _ = two_level_inference(parent, leaves, alpha=0.999)
        near_leaves, _ = two_level_inference(parent, leaves, alpha=0.001)
        assert abs(near_parent - parent) < 1.0
        assert abs(near_leaves - 9.0) < 1.0

    def test_variance_reduction(self, rng):
        """Inferred cell totals beat the raw level-1 measurement.

        With a 2 x 2 sub-grid the theoretical variance drops from 8 to
        6.4 (-20%), comfortably detectable over a few thousand trials.
        """
        alpha, m2, truth = 0.5, 2, 640.0
        raw, inferred = [], []
        for _ in range(4_000):
            parent = truth + rng.laplace(0.0, 1.0 / (alpha * 1.0))
            leaves = np.full(m2 * m2, truth / (m2 * m2)) + rng.laplace(
                0.0, 1.0 / ((1 - alpha) * 1.0), size=m2 * m2
            )
            combined, _ = two_level_inference(parent, leaves, alpha)
            raw.append(parent - truth)
            inferred.append(combined - truth)
        assert np.var(inferred) < 0.9 * np.var(raw)

    def test_validation(self):
        with pytest.raises(ValueError):
            two_level_inference(1.0, np.array([1.0]), alpha=0.0)
        with pytest.raises(ValueError):
            two_level_inference(1.0, np.empty(0), alpha=0.5)


class TestBuilderConfig:
    def test_default_m1(self, small_skewed, rng):
        synopsis = AdaptiveGridBuilder().fit(small_skewed, 1.0, rng)
        # N = 10_000, eps = 1: UG = 32, m1 = max(10, ceil(32/4)) = 10.
        assert synopsis.first_level_size == (10, 10)

    def test_fixed_m1(self, small_skewed, rng):
        synopsis = AdaptiveGridBuilder(first_level_size=6).fit(
            small_skewed, 1.0, rng
        )
        assert synopsis.first_level_size == (6, 6)

    def test_label(self):
        assert AdaptiveGridBuilder(first_level_size=16).label() == "A16,5"
        assert AdaptiveGridBuilder(first_level_size=16, c2=10).label() == "A16,10"

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            AdaptiveGridBuilder(alpha=0.0)
        with pytest.raises(ValueError):
            AdaptiveGridBuilder(alpha=1.0)

    def test_invalid_m1(self):
        with pytest.raises(ValueError):
            AdaptiveGridBuilder(first_level_size=0)


class TestStructure:
    def test_cell_sizes_follow_guideline2(self, small_skewed):
        """Dense first-level cells get finer sub-grids than sparse ones."""
        rng = np.random.default_rng(3)
        builder = AdaptiveGridBuilder(first_level_size=8, alpha=0.5)
        synopsis = builder.fit(small_skewed, 1.0, rng)
        level1 = synopsis.level1_layout
        densities = level1.histogram(small_skewed.points)
        dense = np.unravel_index(np.argmax(densities), densities.shape)
        sparse = np.unravel_index(np.argmin(densities), densities.shape)
        assert synopsis.cell_grid_size(*dense) >= synopsis.cell_grid_size(*sparse)

    def test_cell_size_cap(self, small_skewed, rng):
        builder = AdaptiveGridBuilder(first_level_size=4, max_cell_grid_size=3)
        synopsis = builder.fit(small_skewed, 1.0, rng)
        for i in range(4):
            for j in range(4):
                assert synopsis.cell_grid_size(i, j) <= 3

    def test_m2_matches_formula_for_known_count(self):
        # Construction sanity: the builder's m2 equals Guideline 2 on the
        # noisy level-1 count (checked indirectly via the guideline itself).
        assert guideline2_cell_grid_size(1000.0, 0.5, 5.0) == 10

    def test_consistency_after_inference(self, small_skewed, rng):
        synopsis = AdaptiveGridBuilder(first_level_size=5).fit(
            small_skewed, 1.0, rng
        )
        for i in range(5):
            for j in range(5):
                leaves = synopsis.cell_counts(i, j)
                assert leaves.sum() == pytest.approx(synopsis.cell_total(i, j))


class TestBudgetAccounting:
    def test_alpha_split(self, small_skewed, rng):
        budget = PrivacyBudget(1.0)
        AdaptiveGridBuilder(first_level_size=4, alpha=0.3).fit(
            small_skewed, 1.0, rng, budget=budget
        )
        assert budget.spent == pytest.approx(1.0)
        epsilons = sorted(entry.epsilon for entry in budget.ledger)
        assert epsilons == [pytest.approx(0.3), pytest.approx(0.7)]

    def test_two_ledger_entries(self, small_skewed, rng):
        budget = PrivacyBudget(2.0)
        AdaptiveGridBuilder(first_level_size=4).fit(
            small_skewed, 2.0, rng, budget=budget
        )
        assert len(budget.ledger) == 2


class TestAccuracy:
    def test_total_near_truth(self, small_skewed, rng):
        synopsis = AdaptiveGridBuilder().fit(small_skewed, 1.0, rng)
        assert synopsis.total() == pytest.approx(small_skewed.size, rel=0.05)

    def test_high_epsilon_convergence(self, small_skewed):
        rng = np.random.default_rng(0)
        synopsis = AdaptiveGridBuilder(first_level_size=5).fit(
            small_skewed, 1e6, rng
        )
        query = Rect(0.0, 0.0, 0.4, 0.6)  # aligned to the 5x5 level-1 grid
        truth = small_skewed.count_in(query)
        assert synopsis.answer(query) == pytest.approx(truth, rel=0.01, abs=2.0)

    def test_beats_ug_on_skewed_data(self, small_skewed, small_workload):
        """The paper's headline: AG outperforms UG at suggested sizes."""
        from repro.experiments.runner import evaluate_builder

        ug = evaluate_builder(
            UniformGridBuilder(), small_skewed, small_workload, 0.5,
            n_trials=3, seed=1,
        )
        ag = evaluate_builder(
            AdaptiveGridBuilder(), small_skewed, small_workload, 0.5,
            n_trials=3, seed=1,
        )
        assert ag.mean_relative() < ug.mean_relative() * 1.1

    def test_inference_ablation_does_not_break(self, small_skewed, rng):
        synopsis = AdaptiveGridBuilder(
            first_level_size=5, constrained_inference=False
        ).fit(small_skewed, 1.0, rng)
        assert synopsis.total() == pytest.approx(small_skewed.size, rel=0.2)


class TestFlatKernel:
    """The vectorised CSR build vs the retained per-cell reference loop."""

    @pytest.mark.parametrize("constrained_inference", [True, False])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_build_bit_identical_to_percell_reference(
        self, small_skewed, constrained_inference, seed
    ):
        builder = AdaptiveGridBuilder(
            first_level_size=8, constrained_inference=constrained_inference
        )
        flat = builder.fit(small_skewed, 1.0, np.random.default_rng(seed))
        reference = fit_percell(
            builder, small_skewed, 1.0, np.random.default_rng(seed)
        )
        np.testing.assert_array_equal(flat.cell_sizes, reference.cell_sizes)
        np.testing.assert_array_equal(flat.cell_totals, reference.cell_totals)
        np.testing.assert_array_equal(flat.leaf_counts, reference.leaf_counts)

    def test_noise_stream_order_invariant(self):
        """One concatenated Laplace draw == per-cell draws, bit for bit.

        This is the invariant that lets ``fit`` replace the per-cell noise
        loop with a single ``rng.laplace`` call without changing the
        released distribution (numpy's Laplace sampler consumes exactly
        one uniform per output element).
        """
        sizes = [3, 1, 5, 2]
        per_cell = np.random.default_rng(123)
        chunks = [
            per_cell.laplace(0.0, 2.0, size=(m2, m2)).reshape(-1) for m2 in sizes
        ]
        single = np.random.default_rng(123).laplace(
            0.0, 2.0, size=sum(m2 * m2 for m2 in sizes)
        )
        np.testing.assert_array_equal(np.concatenate(chunks), single)

    def test_csr_offsets_consistent(self, small_skewed, rng):
        synopsis = AdaptiveGridBuilder(first_level_size=6).fit(
            small_skewed, 1.0, rng
        )
        offsets = synopsis.leaf_offsets
        sizes = synopsis.cell_sizes.reshape(-1)
        assert offsets[0] == 0
        np.testing.assert_array_equal(np.diff(offsets), sizes * sizes)
        assert synopsis.leaf_counts.size == offsets[-1]

    def test_leaf_cell_count_matches_offsets(self, small_skewed, rng):
        synopsis = AdaptiveGridBuilder(first_level_size=5).fit(
            small_skewed, 1.0, rng
        )
        expected = sum(
            synopsis.cell_grid_size(i, j) ** 2 for i in range(5) for j in range(5)
        )
        assert synopsis.leaf_cell_count() == expected

    def test_cell_counts_are_views_into_flat_vector(self, small_skewed, rng):
        synopsis = AdaptiveGridBuilder(first_level_size=4).fit(
            small_skewed, 1.0, rng
        )
        counts = synopsis.cell_counts(1, 2)
        assert counts.base is synopsis.leaf_counts
        m2 = synopsis.cell_grid_size(1, 2)
        assert counts.shape == (m2, m2)

    def test_constructor_validates_leaf_length(self, small_skewed, rng):
        from repro.core.adaptive_grid import AdaptiveGridSynopsis
        from repro.core.grid import GridLayout

        level1 = GridLayout(small_skewed.domain, 2, 2)
        sizes = np.full((2, 2), 2, dtype=np.int64)
        totals = np.zeros((2, 2))
        with pytest.raises(ValueError, match="leaf_counts"):
            AdaptiveGridSynopsis(
                small_skewed.domain, 1.0, level1, sizes, totals, np.zeros(3)
            )

    def test_constructor_validates_shapes_and_sizes(self, small_skewed):
        from repro.core.adaptive_grid import AdaptiveGridSynopsis
        from repro.core.grid import GridLayout

        level1 = GridLayout(small_skewed.domain, 2, 2)
        with pytest.raises(ValueError, match="first-level shape"):
            AdaptiveGridSynopsis(
                small_skewed.domain, 1.0, level1,
                np.ones((3, 3), dtype=np.int64), np.zeros((3, 3)), np.zeros(9),
            )
        with pytest.raises(ValueError, match=">= 1"):
            AdaptiveGridSynopsis(
                small_skewed.domain, 1.0, level1,
                np.zeros((2, 2), dtype=np.int64), np.zeros((2, 2)), np.zeros(0),
            )

    def test_empty_dataset_builds(self, rng):
        from repro.core.dataset import GeoDataset
        from repro.core.geometry import Domain2D

        empty = GeoDataset(np.empty((0, 2)), Domain2D.unit(), name="empty")
        synopsis = AdaptiveGridBuilder(first_level_size=3).fit(empty, 1.0, rng)
        assert synopsis.leaf_cell_count() >= 9
        assert np.isfinite(synopsis.total())


class TestQueryMechanics:
    def test_empty_intersection(self, small_skewed, rng):
        synopsis = AdaptiveGridBuilder(first_level_size=4).fit(
            small_skewed, 1.0, rng
        )
        assert synopsis.answer(Rect(3.0, 3.0, 4.0, 4.0)) == 0.0

    def test_full_domain_equals_sum_of_cells(self, small_skewed, rng):
        synopsis = AdaptiveGridBuilder(first_level_size=4).fit(
            small_skewed, 1.0, rng
        )
        expected = sum(
            synopsis.cell_total(i, j) for i in range(4) for j in range(4)
        )
        assert synopsis.total() == pytest.approx(expected)

    def test_synthetic_points_inside_domain(self, small_skewed, rng):
        synopsis = AdaptiveGridBuilder(first_level_size=4).fit(
            small_skewed, 1.0, rng
        )
        cloud = synopsis.synthetic_points(rng)
        bounds = small_skewed.domain.bounds
        assert bounds.mask(cloud[:, 0], cloud[:, 1]).all()
        assert abs(cloud.shape[0] - small_skewed.size) < 2_000

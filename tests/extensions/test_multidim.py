"""Unit tests for the d-dimensional uniform-grid extension."""

import numpy as np
import pytest

from repro.core.guidelines import guideline1_grid_size
from repro.extensions.multidim import (
    NDBox,
    NDGridLayout,
    NDUniformGridBuilder,
    guideline1_nd_grid_size,
)
from repro.privacy.budget import PrivacyBudget


class TestGeneralisedGuideline:
    def test_reduces_to_guideline1_in_2d(self):
        for n, epsilon in ((1_600_000, 1.0), (1_000_000, 0.1), (9_000, 1.0)):
            assert guideline1_nd_grid_size(n, epsilon, 2) == guideline1_grid_size(
                n, epsilon
            )

    def test_exponent_shrinks_with_dimension(self):
        """Higher d -> coarser per-axis grids (same total information)."""
        sizes = [guideline1_nd_grid_size(1_000_000, 1.0, d) for d in (1, 2, 3, 4)]
        assert all(a > b for a, b in zip(sizes, sizes[1:]))

    def test_1d_power(self):
        # d = 1: m = (N eps / c)^(2/3).
        assert guideline1_nd_grid_size(1_000, 1.0, 1) == round(100.0 ** (2 / 3))

    def test_validation(self):
        with pytest.raises(ValueError):
            guideline1_nd_grid_size(100, 1.0, 0)
        with pytest.raises(ValueError):
            guideline1_nd_grid_size(100, 0.0, 2)


class TestNDBox:
    def test_volume(self):
        box = NDBox([0.0, 0.0, 0.0], [2.0, 3.0, 4.0])
        assert box.volume == 24.0
        assert box.dimension == 3

    def test_unit(self):
        assert NDBox.unit(4).volume == 1.0

    def test_contains(self):
        box = NDBox.unit(3)
        points = np.array([[0.5, 0.5, 0.5], [1.5, 0.5, 0.5]])
        assert box.contains(points).tolist() == [True, False]

    def test_validation(self):
        for lows, highs in (
            ([0.0], [0.0, 1.0]),
            ([1.0], [0.0]),
            ([np.nan], [1.0]),
            ([0.0], [np.nan]),
            ([-np.inf], [1.0]),
            ([0.0], [np.inf]),
        ):
            with pytest.raises(ValueError):
                NDBox(lows, highs)


class TestNDGridLayout:
    def test_histogram_preserves_total(self, rng):
        layout = NDGridLayout(NDBox.unit(3), 4)
        points = rng.random((500, 3))
        assert layout.histogram(points).sum() == 500
        assert layout.histogram(points).shape == (4, 4, 4)

    def test_estimate_full_box_is_total(self, rng):
        layout = NDGridLayout(NDBox.unit(3), 3)
        counts = rng.random((3, 3, 3)) * 10
        estimate = layout.estimate(counts, NDBox.unit(3))
        assert estimate == pytest.approx(counts.sum())

    def test_estimate_fraction_on_uniform_counts(self):
        layout = NDGridLayout(NDBox.unit(3), 4)
        counts = np.full((4, 4, 4), 1.0)  # total 64
        half = NDBox([0.0, 0.0, 0.0], [0.5, 1.0, 1.0])
        assert layout.estimate(counts, half) == pytest.approx(32.0)
        eighth = NDBox([0.0, 0.0, 0.0], [0.5, 0.5, 0.5])
        assert layout.estimate(counts, eighth) == pytest.approx(8.0)

    def test_matches_2d_grid_layout(self, rng):
        """The d-dimensional estimator agrees with the 2-D GridLayout."""
        from repro.core.geometry import Domain2D, Rect
        from repro.core.grid import GridLayout

        points = rng.random((400, 2))
        grid_2d = GridLayout(Domain2D.unit(), 5)
        grid_nd = NDGridLayout(NDBox.unit(2), 5)
        counts_2d = grid_2d.histogram(points)
        counts_nd = grid_nd.histogram(points)
        np.testing.assert_array_equal(counts_2d, counts_nd)
        query_2d = Rect(0.1, 0.2, 0.7, 0.9)
        query_nd = NDBox([0.1, 0.2], [0.7, 0.9])
        assert grid_2d.estimate(counts_2d, query_2d) == pytest.approx(
            grid_nd.estimate(counts_nd, query_nd)
        )

    def test_dimension_mismatch(self, rng):
        layout = NDGridLayout(NDBox.unit(3), 2)
        with pytest.raises(ValueError):
            layout.estimate(np.zeros((2, 2, 2)), NDBox.unit(2))


class TestNDBuilder:
    def test_fit_and_query_3d(self, rng):
        points = rng.random((20_000, 3))
        builder = NDUniformGridBuilder()
        synopsis = builder.fit(points, NDBox.unit(3), 1.0, rng)
        assert synopsis.dimension == 3
        assert synopsis.total() == pytest.approx(20_000, abs=2_500)
        half = NDBox([0.0, 0.0, 0.0], [1.0, 1.0, 0.5])
        assert synopsis.answer(half) == pytest.approx(10_000, abs=2_500)

    def test_guideline_applied(self, rng):
        points = rng.random((20_000, 3))
        synopsis = NDUniformGridBuilder().fit(points, NDBox.unit(3), 1.0, rng)
        expected = guideline1_nd_grid_size(20_000, 1.0, 3)
        assert synopsis.layout.m == expected

    def test_budget_charged(self, rng):
        budget = PrivacyBudget(1.0)
        NDUniformGridBuilder(per_axis_size=4).fit(
            rng.random((100, 4)), NDBox.unit(4), 1.0, rng, budget=budget
        )
        assert budget.spent == pytest.approx(1.0)

    def test_max_cells_guard(self, rng):
        builder = NDUniformGridBuilder(per_axis_size=100, max_cells=1_000)
        with pytest.raises(ValueError, match="max_cells"):
            builder.fit(rng.random((10, 3)), NDBox.unit(3), 1.0, rng)

    def test_shape_validation(self, rng):
        with pytest.raises(ValueError):
            NDUniformGridBuilder(per_axis_size=4).fit(
                rng.random((10, 2)), NDBox.unit(3), 1.0, rng
            )

    def test_answer_many_rejects_wrong_width_batches(self, rng):
        """A d = 3 batch is ``(n, 6)``: a ``(3, 4)`` array or a flat
        ``(6,)`` vector raises instead of being reshaped into rows."""
        synopsis = NDUniformGridBuilder(per_axis_size=4).fit(
            rng.random((100, 3)), NDBox.unit(3), 1.0, rng
        )
        assert synopsis.answer_many(np.zeros((2, 6))).shape == (2,)
        for bad in (np.zeros((3, 4)), np.zeros(6)):
            with pytest.raises(ValueError, match=r"\(n, 6\)"):
                synopsis.answer_many(bad)

    def test_noise_error_grows_with_dimension(self):
        """The paper's IV-C prediction, measured: at fixed N, eps and
        per-axis size, higher-dimensional grids answer half-space queries
        with more noise (more cells per query)."""
        n, epsilon, m = 20_000, 0.5, 8
        errors = {}
        for dimension in (2, 3):
            rng = np.random.default_rng(3)
            points = rng.random((n, dimension))
            synopsis = NDUniformGridBuilder(per_axis_size=m).fit(
                points, NDBox.unit(dimension), epsilon, rng
            )
            lows = np.zeros(dimension)
            highs = np.ones(dimension)
            highs[0] = 0.5
            half = NDBox(lows, highs)
            truth = float(np.count_nonzero(points[:, 0] <= 0.5))
            samples = []
            for seed in range(20):
                synopsis = NDUniformGridBuilder(per_axis_size=m).fit(
                    points, NDBox.unit(dimension), epsilon,
                    np.random.default_rng(seed),
                )
                samples.append(abs(synopsis.answer(half) - truth))
            errors[dimension] = float(np.mean(samples))
        assert errors[3] > errors[2]

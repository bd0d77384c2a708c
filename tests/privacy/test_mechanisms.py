"""Unit tests for repro.privacy.mechanisms."""

import math

import numpy as np
import pytest

from repro.privacy.budget import BudgetExceededError, PrivacyBudget
from repro.privacy.mechanisms import (
    ensure_rng,
    exponential_mechanism,
    laplace_mechanism,
    laplace_noise,
    laplace_scale,
    laplace_stddev,
    laplace_variance,
    noisy_count,
    noisy_histogram,
    noisy_median,
)


class TestEnsureRng:
    def test_passthrough(self, rng):
        assert ensure_rng(rng) is rng

    def test_from_seed_deterministic(self):
        a = ensure_rng(42).random(5)
        b = ensure_rng(42).random(5)
        np.testing.assert_array_equal(a, b)

    def test_none_allowed(self):
        assert isinstance(ensure_rng(None), np.random.Generator)


class TestLaplaceScale:
    def test_value(self):
        assert laplace_scale(1.0, 0.5) == 2.0
        assert laplace_scale(2.0, 0.5) == 4.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            laplace_scale(0.0, 1.0)
        with pytest.raises(ValueError):
            laplace_scale(1.0, 0.0)

    def test_variance_and_stddev(self):
        assert laplace_variance(1.0) == pytest.approx(2.0)
        assert laplace_stddev(1.0) == pytest.approx(math.sqrt(2.0))
        assert laplace_stddev(0.1) == pytest.approx(10.0 * math.sqrt(2.0))


class TestLaplaceNoise:
    def test_empirical_scale(self, rng):
        sample = laplace_noise(2.0, rng, size=200_000)
        assert np.mean(sample) == pytest.approx(0.0, abs=0.05)
        assert np.std(sample) == pytest.approx(2.0 * math.sqrt(2.0), rel=0.02)

    def test_invalid_scale(self, rng):
        with pytest.raises(ValueError):
            laplace_noise(0.0, rng)


class TestLaplaceMechanism:
    def test_scalar(self, rng):
        value = laplace_mechanism(100.0, epsilon=10.0, rng=rng)
        assert isinstance(value, float)
        assert value == pytest.approx(100.0, abs=5.0)

    def test_array_shape(self, rng):
        out = laplace_mechanism(np.zeros((3, 4)), 1.0, rng)
        assert out.shape == (3, 4)

    def test_budget_charged(self, rng):
        budget = PrivacyBudget(1.0)
        laplace_mechanism(1.0, 0.4, rng, budget=budget, label="x")
        assert budget.spent == pytest.approx(0.4)
        assert budget.ledger[0].label == "x"

    def test_budget_enforced(self, rng):
        budget = PrivacyBudget(0.3)
        with pytest.raises(BudgetExceededError):
            laplace_mechanism(1.0, 0.4, rng, budget=budget)

    def test_unbiased(self, rng):
        values = [noisy_count(50.0, 1.0, rng) for _ in range(5_000)]
        assert np.mean(values) == pytest.approx(50.0, abs=0.15)


class TestNoisyHistogram:
    def test_single_charge_for_whole_histogram(self, rng):
        budget = PrivacyBudget(1.0)
        noisy_histogram(np.zeros((10, 10)), 1.0, rng, budget=budget)
        assert budget.spent == pytest.approx(1.0)
        assert len(budget.ledger) == 1

    def test_noise_magnitude(self, rng):
        counts = np.zeros(100_000)
        noisy = noisy_histogram(counts, 0.5, rng)
        assert np.std(noisy) == pytest.approx(math.sqrt(2.0) / 0.5, rel=0.02)


class TestExponentialMechanism:
    def test_prefers_high_utility(self, rng):
        utilities = np.array([0.0, 0.0, 10.0])
        picks = [
            exponential_mechanism(utilities, epsilon=5.0, rng=rng)
            for _ in range(200)
        ]
        assert np.mean(np.array(picks) == 2) > 0.9

    def test_uniform_at_tiny_epsilon(self, rng):
        utilities = np.array([0.0, 100.0])
        picks = [
            exponential_mechanism(utilities, epsilon=1e-9, rng=rng)
            for _ in range(2_000)
        ]
        # Almost no signal: both options near 50%.
        assert 0.4 < np.mean(picks) < 0.6

    def test_numerical_stability_large_utilities(self, rng):
        utilities = np.array([1e6, 1e6 + 1.0])
        index = exponential_mechanism(utilities, epsilon=1.0, rng=rng)
        assert index in (0, 1)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            exponential_mechanism(np.empty(0), 1.0, rng)
        with pytest.raises(ValueError):
            exponential_mechanism(np.array([1.0]), -1.0, rng)

    def test_budget_charged(self, rng):
        budget = PrivacyBudget(1.0)
        exponential_mechanism(np.array([1.0, 2.0]), 0.5, rng, budget=budget)
        assert budget.spent == pytest.approx(0.5)


class TestNoisyMedian:
    """The exponential mechanism over the extent ``[lo, hi]``."""

    def test_concentrates_near_median(self, rng):
        values = np.sort(rng.random(1_001))
        draws = np.array(
            [noisy_median(values, 0.0, 1.0, epsilon=50.0, rng=rng) for _ in range(100)]
        )
        # With a huge budget the draw hugs the middle ranks.
        assert np.all((draws > values[450]) & (draws < values[550]))

    def test_single_value(self, rng):
        """A single value never comes back as itself."""
        draws = [
            noisy_median(np.array([0.3]), 0.0, 1.0, 1.0, rng) for _ in range(2_000)
        ]
        assert 0.3 not in draws
        assert all(0.0 < draw < 1.0 for draw in draws)

    def test_empty_is_uniform_over_extent(self, rng):
        draws = np.array(
            [noisy_median(np.empty(0), 2.0, 5.0, 1.0, rng) for _ in range(4_000)]
        )
        assert np.all((draws > 2.0) & (draws < 5.0))
        counts, _ = np.histogram(draws, bins=3, range=(2.0, 5.0))
        np.testing.assert_allclose(counts / draws.size, 1 / 3, atol=0.03)

    @pytest.mark.parametrize(
        "values",
        [np.array([0.2, 0.2, 0.2, 0.5, 0.9]), np.empty(0)],
        ids=["ties", "empty"],
    )
    def test_matches_interval_probabilities(self, values):
        lo, hi, epsilon = 0.0, 1.0, 1.0
        rng = np.random.default_rng(11)
        draws = np.array(
            [noisy_median(values, lo, hi, epsilon, rng) for _ in range(20_000)]
        )
        assert not np.isin(draws, values).any()
        edges = np.concatenate([[lo], values, [hi]])
        n = values.size
        weights = np.diff(edges) * np.exp(
            -(epsilon / 2.0) * np.abs(np.arange(n + 1) - n / 2.0)
        )
        index = np.searchsorted(edges, draws, side="right") - 1
        observed = np.bincount(index, minlength=n + 1) / draws.size
        np.testing.assert_allclose(observed, weights / weights.sum(), atol=0.015)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            noisy_median(np.array([0.5]), 1.0, 1.0, 1.0, rng)
        with pytest.raises(ValueError):
            noisy_median(np.array([0.5]), 0.0, 1.0, 0.0, rng)
        with pytest.raises(ValueError):
            noisy_median(np.array([0.6, 0.5]), 0.0, 1.0, 1.0, rng)
        with pytest.raises(ValueError):
            noisy_median(np.array([1.5]), 0.0, 1.0, 1.0, rng)

    def test_budget_charged(self, rng):
        budget = PrivacyBudget(1.0)
        noisy_median(np.array([0.1, 0.4]), 0.0, 1.0, 0.25, rng, budget=budget)
        assert budget.spent == pytest.approx(0.25)
        assert budget.ledger[-1].label == "median"

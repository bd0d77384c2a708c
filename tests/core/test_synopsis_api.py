"""Unit tests for the Synopsis / SynopsisBuilder framework contracts."""

import pytest

from repro.core.dataset import GeoDataset
from repro.core.geometry import Domain2D, Rect
from repro.core.synopsis import Synopsis, SynopsisBuilder
from repro.privacy.budget import PrivacyBudget


class ConstantSynopsis(Synopsis):
    """Toy synopsis answering every query with a constant."""

    def __init__(self, domain, epsilon, value):
        super().__init__(domain, epsilon)
        self.value = value

    def answer(self, rect: Rect) -> float:
        return self.value


class ConstantBuilder(SynopsisBuilder):
    name = "Const"

    def fit(self, dataset, epsilon, rng, budget=None):
        budget = self._budget(epsilon, budget)
        budget.spend(epsilon, "constant")
        return ConstantSynopsis(dataset.domain, epsilon, 42.0)


@pytest.fixture
def toy_dataset(rng) -> GeoDataset:
    return GeoDataset(rng.random((10, 2)), Domain2D.unit())


class TestSynopsisDefaults:
    def test_synthetic_points_default_raises(self, toy_dataset, rng):
        synopsis = ConstantBuilder().fit(toy_dataset, 1.0, rng)
        with pytest.raises(NotImplementedError):
            synopsis.synthetic_points(rng)

    def test_properties(self, toy_dataset, rng):
        synopsis = ConstantBuilder().fit(toy_dataset, 0.7, rng)
        assert synopsis.epsilon == 0.7
        assert synopsis.domain == toy_dataset.domain


class TestBuilderContracts:
    def test_budget_helper_creates_fresh(self, toy_dataset, rng):
        builder = ConstantBuilder()
        synopsis = builder.fit(toy_dataset, 1.0, rng)
        assert synopsis.epsilon == 1.0

    def test_budget_helper_respects_external(self, toy_dataset, rng):
        external = PrivacyBudget(2.0)
        ConstantBuilder().fit(toy_dataset, 1.0, rng, budget=external)
        assert external.spent == pytest.approx(1.0)
        assert external.remaining == pytest.approx(1.0)

    def test_invalid_epsilon_rejected(self, toy_dataset, rng):
        with pytest.raises(ValueError):
            ConstantBuilder().fit(toy_dataset, -1.0, rng)

    def test_default_label_is_name(self):
        assert ConstantBuilder().label() == "Const"

    def test_shared_budget_across_builders(self, toy_dataset, rng):
        """A pipeline can share one budget across sequential fits."""
        shared = PrivacyBudget(1.0)
        ConstantBuilder().fit(toy_dataset, 0.4, rng, budget=shared)
        ConstantBuilder().fit(toy_dataset, 0.6, rng, budget=shared)
        assert shared.exhausted()
        from repro.privacy.budget import BudgetExceededError

        with pytest.raises(BudgetExceededError):
            ConstantBuilder().fit(toy_dataset, 0.1, rng, budget=shared)

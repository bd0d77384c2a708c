"""Unit tests for the full-suite orchestrator (at tiny scale)."""

import pytest

from repro.experiments.suite import QUICK_SCALE, SuiteScale, run_suite

TINY = SuiteScale(
    n_points={"storage": 2_000},
    queries_per_size=4,
    epsilons=(1.0,),
    datasets=("storage",),
    figure3_datasets=(),
)


class TestScales:
    def test_quick_scale_defaults(self):
        assert QUICK_SCALE.epsilons == (1.0,)
        assert "road" in QUICK_SCALE.n_points


class TestRunSuite:
    @pytest.fixture(scope="class")
    def report(self):
        return run_suite(TINY)

    def test_contains_all_sections(self, report):
        text = report.render()
        assert "Figure 1" in text
        assert "Table II" in text
        assert "Figure 2" in text
        assert "Figure 5" in text
        assert "Figure 6" in text

    def test_data_keyed_by_title(self, report):
        assert any("Table II" in key for key in report.data)
        assert any("Figure 5" in key for key in report.data)

    def test_respects_dataset_selection(self, report):
        text = report.render()
        assert "storage" in text
        # Figure panels for unselected datasets are absent.
        assert "Figure 2: KD vs UG on road" not in text

    def test_figure3_skipped_when_not_selected(self, report):
        assert "Figure 3" not in report.render()

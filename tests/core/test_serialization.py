"""Unit tests for synopsis serialisation."""

import numpy as np
import pytest

from repro.baselines.kd_tree import KDHybridBuilder
from repro.core.adaptive_grid import AdaptiveGridBuilder
from repro.core.geometry import Rect
from repro.core.serialization import load_synopsis, save_synopsis
from repro.core.uniform_grid import UniformGridBuilder
from tests.v1_archive import v1_archive_bytes

QUERIES = [
    Rect(0.0, 0.0, 1.0, 1.0),
    Rect(0.1, 0.2, 0.6, 0.9),
    Rect(0.33, 0.33, 0.34, 0.34),
    Rect(0.0, 0.5, 1.0, 0.75),
]


def assert_same_answers(a, b):
    for query in QUERIES:
        assert a.answer(query) == pytest.approx(b.answer(query), rel=1e-12)


class TestUniformGridRoundtrip:
    def test_roundtrip(self, small_skewed, rng, tmp_path):
        synopsis = UniformGridBuilder(grid_size=16).fit(small_skewed, 1.0, rng)
        path = tmp_path / "ug.npz"
        save_synopsis(synopsis, path)
        restored = load_synopsis(path)
        np.testing.assert_array_equal(restored.counts, synopsis.counts)
        assert restored.epsilon == synopsis.epsilon
        assert restored.domain == synopsis.domain
        assert_same_answers(synopsis, restored)

    def test_restored_supports_synthetic_points(self, small_skewed, rng, tmp_path):
        synopsis = UniformGridBuilder(grid_size=8).fit(small_skewed, 1.0, rng)
        path = tmp_path / "ug.npz"
        save_synopsis(synopsis, path)
        restored = load_synopsis(path)
        cloud = restored.synthetic_points(np.random.default_rng(0))
        assert cloud.shape[1] == 2


class TestAdaptiveGridRoundtrip:
    def test_roundtrip(self, small_skewed, rng, tmp_path):
        synopsis = AdaptiveGridBuilder(first_level_size=5).fit(
            small_skewed, 1.0, rng
        )
        path = tmp_path / "ag.npz"
        save_synopsis(synopsis, path)
        restored = load_synopsis(path)
        assert restored.first_level_size == synopsis.first_level_size
        for i in range(5):
            for j in range(5):
                assert restored.cell_grid_size(i, j) == synopsis.cell_grid_size(i, j)
                assert restored.cell_total(i, j) == pytest.approx(
                    synopsis.cell_total(i, j)
                )
        assert_same_answers(synopsis, restored)

    def test_consistency_preserved(self, small_skewed, rng, tmp_path):
        synopsis = AdaptiveGridBuilder(first_level_size=4).fit(
            small_skewed, 1.0, rng
        )
        path = tmp_path / "ag.npz"
        save_synopsis(synopsis, path)
        restored = load_synopsis(path)
        for i in range(4):
            for j in range(4):
                assert restored.cell_counts(i, j).sum() == pytest.approx(
                    restored.cell_total(i, j)
                )


class TestTreeRoundtrip:
    def test_roundtrip(self, small_skewed, rng, tmp_path):
        synopsis = KDHybridBuilder(depth=6).fit(small_skewed, 1.0, rng)
        path = tmp_path / "tree.npz"
        save_synopsis(synopsis, path)
        restored = load_synopsis(path)
        assert restored.node_count() == synopsis.node_count()
        assert restored.leaf_count() == synopsis.leaf_count()
        assert restored.height() == synopsis.height()
        assert_same_answers(synopsis, restored)

    def test_flat_arrays_round_trip_exactly(self, small_skewed, rng, tmp_path):
        """The archive is the TreeArrays state: every field is preserved,
        including the raw measurements (so inference can be re-run)."""
        synopsis = KDHybridBuilder(depth=5).fit(small_skewed, 1.0, rng)
        path = tmp_path / "tree.npz"
        save_synopsis(synopsis, path)
        restored = load_synopsis(path)
        a, b = synopsis.arrays, restored.arrays
        np.testing.assert_array_equal(a.rects, b.rects)
        np.testing.assert_array_equal(a.depths, b.depths)
        np.testing.assert_array_equal(a.child_offsets, b.child_offsets)
        np.testing.assert_array_equal(a.noisy_counts, b.noisy_counts)
        np.testing.assert_array_equal(a.variances, b.variances)
        np.testing.assert_array_equal(a.counts, b.counts)
        np.testing.assert_array_equal(a.level_offsets, b.level_offsets)

    def test_restored_batch_answers_match(self, small_skewed, rng, tmp_path):
        from repro.queries.engine import make_engine

        synopsis = KDHybridBuilder(depth=5).fit(small_skewed, 1.0, rng)
        path = tmp_path / "tree.npz"
        save_synopsis(synopsis, path)
        restored = load_synopsis(path)
        np.testing.assert_array_equal(
            make_engine(restored).answer_batch(QUERIES),
            make_engine(synopsis).answer_batch(QUERIES),
        )

    def test_corrupt_offsets_rejected(self, small_skewed, rng, tmp_path):
        synopsis = KDHybridBuilder(depth=4).fit(small_skewed, 1.0, rng)
        offsets = synopsis.arrays.child_offsets.copy()
        offsets[0] = 5  # children must start at node 1
        path = tmp_path / "tree.npz"
        path.write_bytes(v1_archive_bytes(synopsis, child_offsets=offsets))
        with pytest.raises(ValueError, match="corrupt tree archive"):
            load_synopsis(path)


class TestErrors:
    def test_unknown_type_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            save_synopsis(object(), tmp_path / "x.npz")  # type: ignore[arg-type]

    def test_wrong_version_rejected(self, small_skewed, rng, tmp_path):
        synopsis = UniformGridBuilder(grid_size=4).fit(small_skewed, 1.0, rng)
        path = tmp_path / "ug.npz"
        path.write_bytes(
            v1_archive_bytes(synopsis, format_version=np.array(99))
        )
        with pytest.raises(ValueError, match="version"):
            load_synopsis(path)

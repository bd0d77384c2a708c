"""Unit tests for the vectorised batch query engines."""

import numpy as np
import pytest

from repro.core.adaptive_grid import AdaptiveGridBuilder
from repro.core.geometry import Domain2D, Rect
from repro.core.grid import GridLayout
from repro.core.uniform_grid import UniformGridBuilder
from repro.queries.engine import (
    AdaptiveGridEngine,
    BatchQueryEngine,
    FlatAdaptiveGridEngine,
    make_engine,
    scalar_answer_batch,
)


@pytest.fixture
def layout() -> GridLayout:
    return GridLayout(Domain2D(-2.0, 1.0, 6.0, 5.0), 7, 5)


@pytest.fixture
def counts(layout, rng) -> np.ndarray:
    return rng.normal(10.0, 4.0, size=layout.shape)


class TestExactness:
    def test_matches_per_query_estimate(self, layout, counts, rng):
        """The prefix-sum path agrees with the bilinear-form path exactly."""
        engine = BatchQueryEngine(layout.domain.lows, layout.domain.highs, counts)
        bounds = layout.domain.bounds
        rects = []
        for _ in range(300):
            x = np.sort(rng.uniform(bounds.x_lo, bounds.x_hi, 2))
            y = np.sort(rng.uniform(bounds.y_lo, bounds.y_hi, 2))
            rects.append(Rect(x[0], y[0], x[1], y[1]))
        batch = engine.answer_batch(rects)
        singles = np.array([layout.estimate(counts, rect) for rect in rects])
        np.testing.assert_allclose(batch, singles, rtol=1e-9, atol=1e-9)

    def test_full_domain(self, layout, counts):
        engine = BatchQueryEngine(layout.domain.lows, layout.domain.highs, counts)
        result = engine.answer_batch([layout.domain.bounds])
        assert result[0] == pytest.approx(counts.sum())

    def test_cell_aligned(self, layout, counts):
        engine = BatchQueryEngine(layout.domain.lows, layout.domain.highs, counts)
        cell = layout.cell_rect(2, 3)
        assert engine.answer_batch([cell])[0] == pytest.approx(counts[2, 3])

    def test_out_of_domain_clipped(self, layout, counts):
        engine = BatchQueryEngine(layout.domain.lows, layout.domain.highs, counts)
        huge = Rect(-100.0, -100.0, 100.0, 100.0)
        assert engine.answer_batch([huge])[0] == pytest.approx(counts.sum())

    def test_disjoint_is_zero(self, layout, counts):
        engine = BatchQueryEngine(layout.domain.lows, layout.domain.highs, counts)
        outside = Rect(100.0, 100.0, 101.0, 101.0)
        assert engine.answer_batch([outside])[0] == 0.0

    def test_degenerate_is_zero(self, layout, counts):
        engine = BatchQueryEngine(layout.domain.lows, layout.domain.highs, counts)
        line = Rect(0.0, 2.0, 0.0, 4.0)
        assert engine.answer_batch([line])[0] == 0.0


class TestInputs:
    def test_array_input(self, layout, counts):
        engine = BatchQueryEngine(layout.domain.lows, layout.domain.highs, counts)
        boxes = np.array([[0.0, 2.0, 1.0, 3.0], [-2.0, 1.0, 6.0, 5.0]])
        result = engine.answer_batch(boxes)
        assert result.shape == (2,)
        assert result[1] == pytest.approx(counts.sum())

    def test_empty_batch(self, layout, counts):
        engine = BatchQueryEngine(layout.domain.lows, layout.domain.highs, counts)
        assert engine.answer_batch([]).shape == (0,)

    def test_generator_input(self, layout, counts):
        engine = BatchQueryEngine(layout.domain.lows, layout.domain.highs, counts)
        rects = [Rect(0.0, 2.0, 1.0, 3.0), layout.domain.bounds]
        result = engine.answer_batch(rect for rect in rects)
        np.testing.assert_array_equal(result, engine.answer_batch(rects))

    def test_plain_list_rows_input(self, layout, counts):
        engine = BatchQueryEngine(layout.domain.lows, layout.domain.highs, counts)
        result = engine.answer_batch([[-2.0, 1.0, 6.0, 5.0]])
        assert result[0] == pytest.approx(counts.sum())

    def test_bad_array_shape(self, layout, counts):
        engine = BatchQueryEngine(layout.domain.lows, layout.domain.highs, counts)
        for bad in (np.zeros((3, 3)), np.zeros(4), np.zeros((2, 4, 1))):
            with pytest.raises(ValueError):
                engine.answer_batch(bad)

    def test_counts_shape_checked(self, layout):
        with pytest.raises(ValueError):
            BatchQueryEngine(
                layout.domain.lows, layout.domain.highs, np.zeros((2, 2, 2))
            )


class TestSynopsisIntegration:
    def test_answer_many_uses_engine_and_matches_answer(self, small_skewed, rng):
        synopsis = UniformGridBuilder(grid_size=16).fit(small_skewed, 1.0, rng)
        rects = [
            Rect(0.1, 0.1, 0.4, 0.9),
            Rect(0.0, 0.0, 1.0, 1.0),
            Rect(0.33, 0.21, 0.34, 0.23),
        ]
        many = synopsis.answer_many(rects)
        singles = np.array([synopsis.answer(rect) for rect in rects])
        np.testing.assert_allclose(many, singles, rtol=1e-9)


def random_rects(rng, n=200):
    """Unit-square query mix: interior, border-crossing, and covering."""
    rects = [Rect(0.0, 0.0, 1.0, 1.0), Rect(-0.5, -0.5, 1.5, 1.5)]
    for _ in range(n - len(rects)):
        x = np.sort(rng.uniform(-0.1, 1.1, 2))
        y = np.sort(rng.uniform(-0.1, 1.1, 2))
        rects.append(Rect(x[0], y[0], x[1], y[1]))
    return rects


class TestAdaptiveGridEngine:
    @pytest.mark.parametrize("constrained_inference", [True, False])
    def test_matches_scalar_answers(self, small_skewed, rng, constrained_inference):
        """Summed per-cell engines equal the scalar two-level path."""
        synopsis = AdaptiveGridBuilder(
            constrained_inference=constrained_inference
        ).fit(small_skewed, 1.0, rng)
        engine = AdaptiveGridEngine(synopsis)
        rects = random_rects(rng)
        batch = engine.answer_batch(rects)
        singles = np.array([synopsis.answer(rect) for rect in rects])
        np.testing.assert_allclose(batch, singles, rtol=1e-9, atol=1e-7)

    def test_one_engine_per_first_level_cell(self, small_skewed, rng):
        synopsis = AdaptiveGridBuilder(first_level_size=4).fit(
            small_skewed, 1.0, rng
        )
        assert AdaptiveGridEngine(synopsis).n_cell_engines == 16

    def test_empty_batch(self, small_skewed, rng):
        synopsis = AdaptiveGridBuilder(first_level_size=3).fit(
            small_skewed, 1.0, rng
        )
        assert AdaptiveGridEngine(synopsis).answer_batch([]).shape == (0,)

    def test_inverted_row_does_not_corrupt_other_queries(self, small_skewed, rng):
        synopsis = AdaptiveGridBuilder(first_level_size=4).fit(
            small_skewed, 1.0, rng
        )
        engine = AdaptiveGridEngine(synopsis)
        good = [0.2, 0.2, 0.6, 0.6]
        alone = engine.answer_batch(np.array([good]))[0]
        assert alone != 0.0
        # An inverted row must answer 0 itself AND leave its batchmates'
        # estimates untouched (its reversed index range once cancelled
        # other queries' cell-dispatch bookkeeping).
        mixed = engine.answer_batch(np.array([good, [0.9, 0.2, 0.1, 0.6]]))
        assert mixed[1] == 0.0
        assert mixed[0] == pytest.approx(alone)

    def test_ag_answer_many_delegates_and_matches(self, small_skewed, rng):
        synopsis = AdaptiveGridBuilder().fit(small_skewed, 1.0, rng)
        rects = random_rects(rng, n=64)
        many = synopsis.answer_many(rects)
        singles = np.array([synopsis.answer(rect) for rect in rects])
        np.testing.assert_allclose(many, singles, rtol=1e-9, atol=1e-7)

    def test_ag_answer_many_small_batch_stays_scalar(self, small_skewed, rng):
        synopsis = AdaptiveGridBuilder().fit(small_skewed, 1.0, rng)
        small = synopsis.answer_many([Rect(0.2, 0.2, 0.7, 0.7)])
        assert small.shape == (1,)
        assert synopsis._engine is None  # scalar path: no engine built


class TestFlatAdaptiveGridEngine:
    @pytest.mark.parametrize("constrained_inference", [True, False])
    def test_matches_scalar_answers(self, small_skewed, rng, constrained_inference):
        """The flat CSR pair expansion equals the scalar two-level path."""
        synopsis = AdaptiveGridBuilder(
            constrained_inference=constrained_inference
        ).fit(small_skewed, 1.0, rng)
        engine = FlatAdaptiveGridEngine(synopsis)
        rects = random_rects(rng)
        batch = engine.answer_batch(rects)
        singles = np.array([synopsis.answer(rect) for rect in rects])
        np.testing.assert_allclose(batch, singles, rtol=1e-9, atol=1e-7)

    def test_matches_per_cell_reference_engine(self, small_skewed, rng):
        """Flat engine and the retained composite engine agree."""
        synopsis = AdaptiveGridBuilder(first_level_size=6).fit(
            small_skewed, 1.0, rng
        )
        rects = random_rects(rng)
        flat = FlatAdaptiveGridEngine(synopsis).answer_batch(rects)
        reference = AdaptiveGridEngine(synopsis).answer_batch(rects)
        np.testing.assert_allclose(flat, reference, rtol=1e-9, atol=1e-9)

    def test_covers_every_first_level_cell(self, small_skewed, rng):
        synopsis = AdaptiveGridBuilder(first_level_size=4).fit(
            small_skewed, 1.0, rng
        )
        assert FlatAdaptiveGridEngine(synopsis).n_cells == 16

    def test_empty_batch(self, small_skewed, rng):
        synopsis = AdaptiveGridBuilder(first_level_size=3).fit(
            small_skewed, 1.0, rng
        )
        assert FlatAdaptiveGridEngine(synopsis).answer_batch([]).shape == (0,)

    def test_all_rows_inverted(self, small_skewed, rng):
        synopsis = AdaptiveGridBuilder(first_level_size=3).fit(
            small_skewed, 1.0, rng
        )
        engine = FlatAdaptiveGridEngine(synopsis)
        out = engine.answer_batch(np.array([[0.9, 0.2, 0.1, 0.6]] * 3))
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_inverted_row_does_not_corrupt_other_queries(self, small_skewed, rng):
        synopsis = AdaptiveGridBuilder(first_level_size=4).fit(
            small_skewed, 1.0, rng
        )
        engine = FlatAdaptiveGridEngine(synopsis)
        good = [0.2, 0.2, 0.6, 0.6]
        alone = engine.answer_batch(np.array([good]))[0]
        assert alone != 0.0
        mixed = engine.answer_batch(np.array([good, [0.9, 0.2, 0.1, 0.6]]))
        assert mixed[1] == 0.0
        assert mixed[0] == pytest.approx(alone)

    def test_out_of_domain_and_degenerate(self, small_skewed, rng):
        synopsis = AdaptiveGridBuilder(first_level_size=3).fit(
            small_skewed, 1.0, rng
        )
        engine = FlatAdaptiveGridEngine(synopsis)
        out = engine.answer_batch(
            np.array(
                [
                    [5.0, 5.0, 6.0, 6.0],  # fully outside
                    [0.3, 0.2, 0.3, 0.8],  # zero width
                    [-1.0, -1.0, 2.0, 2.0],  # covers the whole domain
                ]
            )
        )
        assert out[0] == 0.0
        assert out[1] == 0.0
        assert out[2] == pytest.approx(synopsis.total())

    def test_nbytes_positive(self, small_skewed, rng):
        synopsis = AdaptiveGridBuilder(first_level_size=3).fit(
            small_skewed, 1.0, rng
        )
        assert FlatAdaptiveGridEngine(synopsis).nbytes > 0


class TestScalarAnswerBatch:
    def test_matches_answer_loop(self, small_skewed, rng):
        synopsis = UniformGridBuilder(grid_size=8).fit(small_skewed, 1.0, rng)
        boxes = np.array([[0.1, 0.1, 0.5, 0.5], [0.0, 0.0, 1.0, 1.0]])
        out = scalar_answer_batch(synopsis, boxes)
        expected = np.array([synopsis.answer(Rect(*row)) for row in boxes])
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_inverted_rows_answer_zero(self, small_skewed, rng):
        synopsis = UniformGridBuilder(grid_size=8).fit(small_skewed, 1.0, rng)
        out = scalar_answer_batch(
            synopsis, np.array([[0.9, 0.1, 0.1, 0.5], [0.1, 0.1, 0.5, 0.5]])
        )
        assert out[0] == 0.0
        assert out[1] != 0.0

    def test_empty_batch_returns_zero_length_vector(self, small_skewed, rng):
        """Pins the empty-batch contract: shape (0,), synopsis untouched."""
        synopsis = UniformGridBuilder(grid_size=8).fit(small_skewed, 1.0, rng)
        for empty in ([], np.empty((0, 4)), np.array([])):
            out = scalar_answer_batch(synopsis, empty)
            assert out.shape == (0,)
            assert out.dtype == float

    def test_empty_batch_never_calls_answer(self, unit_domain):
        from repro.core.synopsis import Synopsis

        class ExplodingSynopsis(Synopsis):
            def answer(self, rect):
                raise AssertionError("answer must not be called")

        synopsis = ExplodingSynopsis(unit_domain, 1.0)
        assert scalar_answer_batch(synopsis, []).shape == (0,)

    def test_degenerate_rows_answer_exact_edge(self, small_skewed, rng):
        """Zero-area rows evaluate the equivalent edge/point Rect query."""
        synopsis = UniformGridBuilder(grid_size=8).fit(small_skewed, 1.0, rng)
        boxes = np.array(
            [
                [0.3, 0.2, 0.3, 0.8],  # vertical edge
                [0.2, 0.5, 0.8, 0.5],  # horizontal edge
                [0.5, 0.5, 0.5, 0.5],  # point
            ]
        )
        out = scalar_answer_batch(synopsis, boxes)
        expected = np.array([synopsis.answer(Rect(*row)) for row in boxes])
        np.testing.assert_array_equal(out, expected)

    def test_nan_rows_answer_zero(self, small_skewed, rng):
        synopsis = UniformGridBuilder(grid_size=8).fit(small_skewed, 1.0, rng)
        out = scalar_answer_batch(
            synopsis,
            np.array([[np.nan, 0.1, 0.5, 0.5], [0.1, 0.1, 0.5, np.nan]]),
        )
        np.testing.assert_array_equal(out, [0.0, 0.0])


class TestDegenerateIntervalRows:
    """Engines == ``scalar_answer_batch`` on 1-D degenerate rows.

    Interval queries embed 1-D ranges as full-height (or full-width)
    rectangles; the degenerate end of that family is the zero-width
    interval ``[x, x]``.  Every vectorised engine must answer those rows
    — plus inverted and NaN rows — exactly like the scalar loop, which
    for grid-family synopses means exactly 0.0.  Regression for the
    BatchQueryEngine NaN crash (undefined int64 cast -> out-of-bounds
    gather).
    """

    @staticmethod
    def interval_mix():
        """Zero-width / zero-height intervals, NaN, inverted, valid rows."""
        return np.array(
            [
                [0.3, 0.0, 0.3, 1.0],      # zero-width x-interval
                [0.0, 0.6, 1.0, 0.6],      # zero-height y-interval
                [0.0, 0.0, 0.0, 1.0],      # zero-width on the domain edge
                [1.0, 0.0, 1.0, 1.0],      # zero-width on the far edge
                [0.5, 0.5, 0.5, 0.5],      # point
                [1.5, 0.0, 1.5, 1.0],      # zero-width outside the domain
                [np.nan, 0.1, 0.5, 0.5],   # NaN low
                [0.1, 0.1, 0.5, np.nan],   # NaN high
                [np.nan] * 4,              # all-NaN
                [0.9, 0.1, 0.1, 0.5],      # inverted x
                [0.1, 0.9, 0.5, 0.1],      # inverted y
                [0.1, 0.1, 0.6, 0.6],      # valid control row
                [0.0, 0.0, 1.0, 1.0],      # full domain control row
            ]
        )

    def test_batch_engine_matches_scalar(self, small_skewed, rng):
        synopsis = UniformGridBuilder(grid_size=8).fit(small_skewed, 1.0, rng)
        boxes = self.interval_mix()
        engine = make_engine(synopsis)
        out = engine.answer_batch(boxes)
        expected = scalar_answer_batch(synopsis, boxes)
        # Degenerate/invalid rows are exactly 0 on both paths.
        np.testing.assert_array_equal(out[:11], np.zeros(11))
        np.testing.assert_array_equal(expected[:11], np.zeros(11))
        np.testing.assert_allclose(out, expected, rtol=1e-9)

    def test_flat_adaptive_engine_matches_scalar(self, small_skewed, rng):
        synopsis = AdaptiveGridBuilder(first_level_size=4).fit(
            small_skewed, 1.0, rng
        )
        boxes = self.interval_mix()
        out = make_engine(synopsis).answer_batch(boxes)
        expected = scalar_answer_batch(synopsis, boxes)
        np.testing.assert_array_equal(out[:11], np.zeros(11))
        np.testing.assert_allclose(out, expected, rtol=1e-9)

    def test_flat_tree_engine_matches_scalar(self, small_skewed, rng):
        from repro.baselines.quadtree import QuadtreeBuilder

        synopsis = QuadtreeBuilder(depth=4).fit(small_skewed, 1.0, rng)
        boxes = self.interval_mix()
        out = make_engine(synopsis).answer_batch(boxes)
        expected = scalar_answer_batch(synopsis, boxes)
        scale = max(1.0, float(np.abs(expected).max()))
        np.testing.assert_allclose(out, expected, rtol=1e-9, atol=1e-9 * scale)

    def test_nan_rows_do_not_crash_batch_engine(self, small_skewed, rng):
        """The exact pre-fix failure: NaN row -> IndexError in the gather."""
        synopsis = UniformGridBuilder(grid_size=8).fit(small_skewed, 1.0, rng)
        out = synopsis.answer_many(
            np.array([[np.nan, 0.1, 0.9, 0.9], [0.2, 0.2, 0.8, 0.8]])
        )
        assert out[0] == 0.0
        assert np.isfinite(out[1])


class TestMakeEngine:
    def test_uniform_grid_gets_prefix_sum_engine(self, small_skewed, rng):
        synopsis = UniformGridBuilder(grid_size=8).fit(small_skewed, 1.0, rng)
        assert isinstance(make_engine(synopsis), BatchQueryEngine)

    def test_adaptive_grid_gets_flat_engine(self, small_skewed, rng):
        synopsis = AdaptiveGridBuilder(first_level_size=3).fit(
            small_skewed, 1.0, rng
        )
        assert isinstance(make_engine(synopsis), FlatAdaptiveGridEngine)

    def test_tree_synopses_get_flat_tree_engine(self, small_skewed, rng):
        from repro.baselines.kd_tree import KDStandardBuilder
        from repro.queries.engine import FlatTreeEngine

        synopsis = KDStandardBuilder(depth=3).fit(small_skewed, 1.0, rng)
        engine = make_engine(synopsis)
        assert isinstance(engine, FlatTreeEngine)
        rect = Rect(0.1, 0.1, 0.6, 0.6)
        assert engine.answer_batch([rect])[0] == pytest.approx(
            synopsis.answer(rect)
        )

    def test_default_quadtree_gets_lattice_kernel(self, rng):
        """50k points fill a default (depth-8) quadtree enough that its
        257 x 257 lattice prefix is smaller than its tree buffers.  (At
        10k points the pruned tree is smaller than the lattice and keeps
        the frontier kernel by the size rule.)"""
        from repro.baselines.quadtree import QuadtreeBuilder
        from repro.core.dataset import GeoDataset
        from repro.queries.engine import FlatTreeEngine

        points = rng.uniform(size=(50_000, 2))
        dataset = GeoDataset(points, Domain2D.unit(), name="uniform")
        synopsis = QuadtreeBuilder().fit(dataset, 1.0, rng)
        engine = make_engine(synopsis)
        assert isinstance(engine, BatchQueryEngine)
        side = 2 ** synopsis.height()
        assert engine.shape == (side, side)
        assert engine.nbytes <= FlatTreeEngine.buffer_nbytes(synopsis.node_count())
        rects = [Rect(0.1, 0.2, 0.7, 0.45), Rect(0.0, 0.0, 0.5, 0.5)]
        np.testing.assert_allclose(
            engine.answer_batch(rects), scalar_answer_batch(synopsis, rects),
            rtol=1e-9,
        )

    @pytest.mark.parametrize("method", ["Kst", "Khy", "Quad-no-inference"])
    def test_trees_that_do_not_lower_keep_frontier_kernel(
        self, small_skewed, rng, method
    ):
        """Kst answers from uninferred internal counts, Khy's kd-split
        leaves are off the lattice, and a Quad without inference is
        inconsistent like Kst."""
        from repro.baselines.kd_tree import KDHybridBuilder, KDStandardBuilder
        from repro.baselines.quadtree import QuadtreeBuilder
        from repro.queries.engine import FlatTreeEngine

        builder = {
            "Kst": KDStandardBuilder(),
            "Khy": KDHybridBuilder(),
            "Quad-no-inference": QuadtreeBuilder(constrained_inference=False),
        }[method]
        synopsis = builder.fit(small_skewed, 1.0, rng)
        engine = make_engine(synopsis)
        assert isinstance(engine, FlatTreeEngine)
        # The size rule's estimate is the engine's node vectors; its
        # edge tables come on top.
        assert engine.nbytes == (
            FlatTreeEngine.buffer_nbytes(synopsis.node_count())
            + engine.table_nbytes
        )

    @pytest.mark.parametrize("method", ["Kst", "Khy"])
    def test_kd_trees_match_scalar_on_query_ladder(
        self, small_skewed, small_workload, rng, method
    ):
        """The edge-table kernel equals the scalar descent on clustered
        KD-standard (uninferred) and KD-hybrid (inferred) releases: the
        q1-q6 ladder plus out-of-domain, inverted and NaN rows."""
        from repro.baselines.kd_tree import KDHybridBuilder, KDStandardBuilder
        from repro.core.geometry import rects_to_boxes
        from repro.queries.engine import FlatTreeEngine

        builder = {"Kst": KDStandardBuilder, "Khy": KDHybridBuilder}[method]()
        synopsis = builder.fit(small_skewed, 1.0, rng)
        engine = make_engine(synopsis)
        assert isinstance(engine, FlatTreeEngine)
        extra = np.array([
            [-0.5, -0.5, 1.5, 1.5],  # covers the domain
            [1.2, 1.2, 1.5, 1.5],  # outside it
            [-0.3, 0.2, 0.4, 1.6],  # crosses its boundary
            [0.7, 0.2, 0.3, 0.6],  # inverted
            [np.nan, 0.1, 0.9, 0.9],
            [0.1, 0.1, 0.9, np.nan],
        ])
        boxes = np.vstack([rects_to_boxes(small_workload.all_rects()), extra])
        scalar = scalar_answer_batch(synopsis, boxes)
        scale = max(1.0, float(np.abs(scalar).max()))
        np.testing.assert_allclose(
            engine.answer_batch(boxes), scalar, rtol=1e-9, atol=1e-9 * scale
        )

    def test_pruned_deep_quadtree_keeps_frontier_kernel(self, rng):
        """One tight cluster: a depth-12 quadtree splits only along its
        branch, so its 4096 x 4096 lattice would dwarf the tree's own
        buffers; the size rule keeps the frontier kernel."""
        from repro.baselines.quadtree import QuadtreeBuilder
        from repro.core.dataset import GeoDataset
        from repro.queries.engine import FlatTreeEngine

        points = 0.3 + 1e-5 * rng.standard_normal((2_000, 2))
        dataset = GeoDataset(points, Domain2D.unit(), name="tight-cluster")
        synopsis = QuadtreeBuilder(depth=12).fit(dataset, 1.0, rng)
        assert synopsis.height() == 12
        engine = make_engine(synopsis)
        assert isinstance(engine, FlatTreeEngine)
        rect = Rect(0.25, 0.25, 0.3, 0.31)
        assert engine.answer_batch([rect])[0] == pytest.approx(
            synopsis.answer(rect), rel=1e-9
        )


class TestDefaultAnswerMany:
    """The inherited ``Synopsis.answer_many`` routes through the shared
    scalar batch helper instead of a bare per-rect loop (ISSUE 5)."""

    def _synopsis(self, unit_domain):
        from repro.core.synopsis import Synopsis

        class ConstantSynopsis(Synopsis):
            calls = 0

            def answer(self, rect):
                type(self).calls += 1
                return 7.0

        return ConstantSynopsis(unit_domain, 1.0)

    def test_accepts_boxes_array_and_rect_lists(self, unit_domain):
        synopsis = self._synopsis(unit_domain)
        np.testing.assert_array_equal(
            synopsis.answer_many(np.array([[0.1, 0.1, 0.5, 0.5]])), [7.0]
        )
        np.testing.assert_array_equal(
            synopsis.answer_many([Rect(0.1, 0.1, 0.5, 0.5)]), [7.0]
        )

    def test_empty_batch_returns_zero_length(self, unit_domain):
        synopsis = self._synopsis(unit_domain)
        assert synopsis.answer_many([]).shape == (0,)
        assert type(synopsis).calls == 0

    def test_inverted_rows_answer_zero_without_calling_answer(self, unit_domain):
        synopsis = self._synopsis(unit_domain)
        out = synopsis.answer_many(
            np.array([[0.9, 0.1, 0.1, 0.5], [0.1, 0.1, 0.5, 0.5]])
        )
        np.testing.assert_array_equal(out, [0.0, 7.0])
        assert type(synopsis).calls == 1  # only the valid row

    def test_registry_prefers_nearest_ancestor(self, small_skewed, rng):
        """A subclass of a declared type resolves to its nearest declared
        row: it is served by that row's engine and archived as its kind."""
        from repro.baselines.privelet import PriveletSynopsis
        from repro.core.serialization import (
            synopsis_from_bytes,
            synopsis_kind,
            synopsis_to_bytes,
        )
        from repro.core.uniform_grid import UniformGridSynopsis

        class DerivedGrid(UniformGridSynopsis):
            pass

        class DerivedWavelet(PriveletSynopsis):
            pass

        assert synopsis_kind(DerivedGrid).kind == "uniform_grid"
        # Privelet's own row is nearer than its grid base's.
        assert synopsis_kind(DerivedWavelet).kind == "wavelet"
        grid = UniformGridBuilder(grid_size=4).fit(small_skewed, 1.0, rng)
        derived = DerivedGrid(grid.domain, grid.epsilon, grid.layout, grid.counts)
        engine = make_engine(derived)
        assert isinstance(engine, BatchQueryEngine)
        rects = [Rect(0.1, 0.1, 0.6, 0.6), Rect(0.0, 0.0, 1.0, 1.0)]
        np.testing.assert_array_equal(
            engine.answer_batch(rects), make_engine(grid).answer_batch(rects)
        )
        clone = synopsis_from_bytes(synopsis_to_bytes(derived))
        assert type(clone) is UniformGridSynopsis

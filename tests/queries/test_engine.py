"""Unit tests for the vectorised batch query engines."""

import numpy as np
import pytest

from repro.core.adaptive_grid import AdaptiveGridBuilder
from repro.core.geometry import Domain2D, Rect
from repro.core.grid import GridLayout
from repro.core.uniform_grid import UniformGridBuilder
from repro.queries.engine import (
    BatchQueryEngine,
    TwoLevelGridEngine,
    make_engine,
    scalar_answer_batch,
)
from tests.oracles.adaptive_grid import AdaptiveGridEngine


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
        singles = np.array([synopsis.answer(rect) for rect in rects])
        for n in (1, 64):  # a one-rect batch takes the same engine path
            many = synopsis.answer_many(rects[:n])
            np.testing.assert_allclose(many, singles[:n], rtol=1e-9, atol=1e-7)


class TestFlatAdaptiveGridEngine:
    """The engine an AG release is served by (``make_engine``'s
    :class:`TwoLevelGridEngine`) against the scalar and per-cell paths."""

    @pytest.mark.parametrize("constrained_inference", [True, False])
    def test_matches_scalar_answers(self, small_skewed, rng, constrained_inference):
        """The two-level grid engine equals the scalar two-level path."""
        synopsis = AdaptiveGridBuilder(
            constrained_inference=constrained_inference
        ).fit(small_skewed, 1.0, rng)
        engine = make_engine(synopsis)
        rects = random_rects(rng)
        batch = engine.answer_batch(rects)
        singles = np.array([synopsis.answer(rect) for rect in rects])
        np.testing.assert_allclose(batch, singles, rtol=1e-9, atol=1e-7)

    def test_matches_per_cell_reference_engine(self, small_skewed, rng):
        """The AG engine and the retained composite engine agree."""
        synopsis = AdaptiveGridBuilder(first_level_size=6).fit(
            small_skewed, 1.0, rng
        )
        rects = random_rects(rng)
        flat = make_engine(synopsis).answer_batch(rects)
        reference = AdaptiveGridEngine(synopsis).answer_batch(rects)
        np.testing.assert_allclose(flat, reference, rtol=1e-9, atol=1e-9)

    def test_covers_every_first_level_cell(self, small_skewed, rng):
        synopsis = AdaptiveGridBuilder(first_level_size=4).fit(
            small_skewed, 1.0, rng
        )
        assert make_engine(synopsis).shape == (4, 4)

    def test_empty_batch(self, small_skewed, rng):
        synopsis = AdaptiveGridBuilder(first_level_size=3).fit(
            small_skewed, 1.0, rng
        )
        assert make_engine(synopsis).answer_batch([]).shape == (0,)

    def test_all_rows_inverted(self, small_skewed, rng):
        synopsis = AdaptiveGridBuilder(first_level_size=3).fit(
            small_skewed, 1.0, rng
        )
        engine = make_engine(synopsis)
        out = engine.answer_batch(np.array([[0.9, 0.2, 0.1, 0.6]] * 3))
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_inverted_row_does_not_corrupt_other_queries(self, small_skewed, rng):
        synopsis = AdaptiveGridBuilder(first_level_size=4).fit(
            small_skewed, 1.0, rng
        )
        engine = make_engine(synopsis)
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
        engine = make_engine(synopsis)
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
        assert make_engine(synopsis).nbytes > 0


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
        assert isinstance(make_engine(synopsis), TwoLevelGridEngine)

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
        10k points the pruned tree is smaller than the lattice, and the
        size rule passes it on: a pruned, inferred quadtree is
        consistent, so it lowers onto the two-level grid.)"""
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
        """None of them lowers onto its lattice: Kst answers from
        uninferred internal counts, Khy's kd-split leaves are off the
        lattice, and a Quad without inference is inconsistent like Kst.
        The two inconsistent trees keep the frontier kernel; Khy, whose
        inference makes it consistent, lowers onto the two-level grid."""
        from repro.baselines.kd_tree import KDHybridBuilder, KDStandardBuilder
        from repro.baselines.quadtree import QuadtreeBuilder
        from repro.queries.engine import FlatTreeEngine, TwoLevelGridEngine

        builder = {
            "Kst": KDStandardBuilder(),
            "Khy": KDHybridBuilder(),
            "Quad-no-inference": QuadtreeBuilder(constrained_inference=False),
        }[method]
        synopsis = builder.fit(small_skewed, 1.0, rng)
        engine = make_engine(synopsis)
        node_vectors = FlatTreeEngine.buffer_nbytes(synopsis.node_count())
        if method == "Khy":
            assert isinstance(engine, TwoLevelGridEngine)
            # The size rule: at most five times the frontier engine's
            # node vectors.
            assert engine.nbytes <= 5 * node_vectors
            return
        assert isinstance(engine, FlatTreeEngine)
        # The size rule's estimate is the engine's node vectors; its
        # edge tables come on top.
        assert engine.nbytes == node_vectors + engine.table_nbytes

    @pytest.mark.parametrize("method", ["Kst", "Khy"])
    def test_kd_trees_match_scalar_on_query_ladder(
        self, small_skewed, small_workload, rng, method
    ):
        """The served kernel equals the scalar descent on clustered
        KD-standard (uninferred, the edge-table frontier kernel) and
        KD-hybrid (inferred, the two-level grid) releases: the q1-q6
        ladder plus out-of-domain, inverted and NaN rows, and rows whose
        edges lie exactly on the release's split coordinates and node
        edges, where a child's one recomputed cover bit flips and a
        corner sits on an overlay edge."""
        from repro.baselines.kd_tree import KDHybridBuilder, KDStandardBuilder
        from repro.core.geometry import rects_to_boxes
        from repro.queries.engine import FlatTreeEngine, TwoLevelGridEngine

        builder = {"Kst": KDStandardBuilder, "Khy": KDHybridBuilder}[method]()
        synopsis = builder.fit(small_skewed, 1.0, rng)
        engine = make_engine(synopsis)
        kernel = {"Kst": FlatTreeEngine, "Khy": TwoLevelGridEngine}[method]
        assert isinstance(engine, kernel)
        extra = np.array([
            [-0.5, -0.5, 1.5, 1.5],  # covers the domain
            [1.2, 1.2, 1.5, 1.5],  # outside it
            [-0.3, 0.2, 0.4, 1.6],  # crosses its boundary
            [0.7, 0.2, 0.3, 0.6],  # inverted
            [np.nan, 0.1, 0.9, 0.9],
            [0.1, 0.1, 0.9, np.nan],
        ])
        # Children's bounds are their parents' edges and split coordinates.
        arrays = synopsis.arrays
        children = arrays.rects[1:]
        draw = np.random.default_rng(3)
        on_edges = []
        for _ in range(300):
            rows = children[draw.integers(0, len(children), size=2)]
            xs = np.sort(draw.choice(rows[:, [0, 2]].ravel(), size=2))
            ys = np.sort(draw.choice(rows[:, [1, 3]].ravel(), size=2))
            on_edges.append([xs[0], ys[0], xs[1], ys[1]])
        # A node's own rect, and its halves at its first child's upper
        # bounds (the split coordinate on the split axis).
        for node in draw.choice(np.flatnonzero(~arrays.leaf_mask), size=40):
            rect = arrays.rects[node]
            first = arrays.rects[arrays.child_offsets[node]]
            on_edges += [
                rect,
                [rect[0], rect[1], first[2], rect[3]],
                [first[2], rect[1], rect[2], rect[3]],
                [rect[0], rect[1], rect[2], first[3]],
                [rect[0], first[3], rect[2], rect[3]],
            ]
        boxes = np.vstack(
            [rects_to_boxes(small_workload.all_rects()), extra, on_edges]
        )
        scalar = scalar_answer_batch(synopsis, boxes)
        scale = max(1.0, float(np.abs(scalar).max()))
        np.testing.assert_allclose(
            engine.answer_batch(boxes), scalar, rtol=1e-9, atol=1e-9 * scale
        )

    def test_table_keys_past_int32_with_int32_nodes(self):
        """A table key ``node * len(coords) + rank`` past 2**31 reads its
        own entry when the nodes come as int32, as the descent keeps
        them."""
        from repro.queries.engine import _EdgeTables

        node = 1_000_000_000
        tables = _EdgeTables(
            coords=np.array([0.0, 0.5, 1.0]),
            keys=node * 3 + np.arange(3, dtype=np.int64),
            below=np.array([0.0, 1.0, 2.0]),
            above=np.array([2.0, 1.0, 0.0]),
            ramp=np.array([0.0, 1.0, 2.0]),
            tabled=np.zeros(0, dtype=bool),
        )
        below, above, ramp = tables.lookup(
            np.array([node], dtype=np.int32), np.array([0.25]), np.array([0])
        )
        assert (below[0], above[0], ramp[0]) == (0.5, 1.5, 0.5)

    def test_pruned_deep_quadtree_keeps_frontier_kernel(self, rng):
        """One tight cluster: a depth-12 quadtree splits only along its
        branch, so its 4096 x 4096 lattice would dwarf the tree's own
        buffers and the size rule keeps it off the lattice.  Inferred,
        the pruned tree is consistent, so it lowers onto the two-level
        grid instead of keeping the frontier kernel."""
        from repro.baselines.quadtree import QuadtreeBuilder
        from repro.core.dataset import GeoDataset
        from repro.queries.engine import TwoLevelGridEngine

        points = 0.3 + 1e-5 * rng.standard_normal((2_000, 2))
        dataset = GeoDataset(points, Domain2D.unit(), name="tight-cluster")
        synopsis = QuadtreeBuilder(depth=12).fit(dataset, 1.0, rng)
        assert synopsis.height() == 12
        engine = make_engine(synopsis)
        assert isinstance(engine, TwoLevelGridEngine)
        rect = Rect(0.25, 0.25, 0.3, 0.31)
        assert engine.answer_batch([rect])[0] == pytest.approx(
            synopsis.answer(rect), rel=1e-9
        )

    def test_consistent_tree_with_a_zero_area_leaf_keeps_frontier_kernel(self):
        """The scalar descent counts a touched zero-area leaf whole, which
        no density integrates to, so a consistent tree with one keeps
        the frontier kernel."""
        from repro.baselines.tree import TreeSynopsis
        from repro.queries.engine import FlatTreeEngine
        from tests.oracles.trees import SpatialNode, tree_arrays

        root = SpatialNode(rect=Rect(0.0, 0.0, 1.0, 1.0), count=10.0, children=[
            SpatialNode(rect=Rect(0.0, 0.0, 0.0, 1.0), count=4.0, depth=1),
            SpatialNode(rect=Rect(0.0, 0.0, 1.0, 1.0), count=6.0, depth=1),
        ])
        synopsis = TreeSynopsis(Domain2D.unit(), 1.0, tree_arrays(root))
        engine = make_engine(synopsis)
        assert isinstance(engine, FlatTreeEngine)
        rects = [Rect(0.0, 0.2, 0.5, 0.8), Rect(0.5, 0.0, 1.0, 1.0)]
        np.testing.assert_allclose(
            engine.answer_batch(rects), scalar_answer_batch(synopsis, rects),
            rtol=1e-12,
        )
        assert engine.answer_batch(rects)[0] == pytest.approx(4.0 + 6.0 * 0.3)

    def test_sealed_tables_over_the_size_rule_are_not_restored(
        self, small_skewed, rng, monkeypatch
    ):
        """A load checks the size rule on the sealed tables' bytes: under
        a rule they break, the archive restores no engine, and the first
        use builds the frontier kernel the rule then asks for."""
        from repro.baselines import tree
        from repro.baselines.kd_tree import KDHybridBuilder
        from repro.core.serialization import synopsis_from_bytes, synopsis_to_bytes
        from repro.queries.engine import FlatTreeEngine, TwoLevelGridEngine

        synopsis = KDHybridBuilder().fit(small_skewed, 1.0, rng)
        assert isinstance(make_engine(synopsis), TwoLevelGridEngine)
        archive = synopsis_to_bytes(synopsis)
        assert isinstance(synopsis_from_bytes(archive).engine, TwoLevelGridEngine)
        monkeypatch.setattr(tree, "_GRID_BYTES_FACTOR", 0)
        clone = synopsis_from_bytes(archive)
        assert clone.engine is None
        assert isinstance(make_engine(clone), FlatTreeEngine)

    def test_consistent_tree_over_the_size_rule_keeps_frontier_kernel(self):
        """A staircase of 401 leaves puts 201 x-edges and 201 y-edges into
        one first-level cell, whose overlay table alone would outweigh
        five times the frontier engine's node vectors: the size rule
        keeps the frontier kernel."""
        from repro.baselines.tree import TreeSynopsis, apply_tree_inference_arrays
        from repro.queries.engine import FlatTreeEngine, TwoLevelGridEngine
        from tests.oracles.trees import SpatialNode, tree_arrays

        steps = np.linspace(0.0, 0.1, 201)
        root = node = SpatialNode(rect=Rect(0.0, 0.0, 1.0, 1.0))
        for level in range(400):
            x, y = steps[(level + 1) // 2], steps[level // 2]
            if level % 2 == 0:  # a thin x-slab, then the rest
                cut = steps[level // 2 + 1]
                halves = [Rect(x, y, cut, 1.0), Rect(cut, y, 1.0, 1.0)]
            else:  # a thin y-slab, then the rest
                cut = steps[level // 2 + 1]
                halves = [Rect(x, y, 1.0, cut), Rect(x, cut, 1.0, 1.0)]
            node.children = [
                SpatialNode(rect=rect, depth=level + 1) for rect in halves
            ]
            node.children[0].noisy_count, node.children[0].variance = 1.0, 1.0
            node = node.children[1]
        node.noisy_count, node.variance = 1.0, 1.0
        # Unmeasured internal nodes: inference makes each its leaves' sum.
        arrays = tree_arrays(root)
        arrays.validate()
        apply_tree_inference_arrays(arrays)
        leaves = arrays.leaf_mask
        synopsis = TreeSynopsis(Domain2D.unit(), 1.0, arrays)
        leaf_rects = arrays.rects[leaves]
        layout = TwoLevelGridEngine.layout(
            arrays.rects[0], leaf_rects, arrays.counts[leaves]
        )
        assert layout.nbytes > 5 * FlatTreeEngine.buffer_nbytes(arrays.n_nodes)
        engine = make_engine(synopsis)
        assert isinstance(engine, FlatTreeEngine)
        rects = [Rect(0.01, 0.02, 0.5, 0.5), Rect(0.0, 0.0, 0.05, 1.0)]
        np.testing.assert_allclose(
            engine.answer_batch(rects), scalar_answer_batch(synopsis, rects),
            rtol=1e-9,
        )


class TestDefaultAnswerMany:
    """The inherited ``Synopsis.answer_many`` answers through the engine
    of the synopsis type's declared row."""

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

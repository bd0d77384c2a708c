"""d-dimensional uniform grids — the paper's higher-dimension extension.

Section IV-C ends with a prediction: hierarchical methods, already of
limited value in 2-D, "would perform even worse with higher dimensions",
whereas the flat-grid approach generalises cleanly.  This module makes
that generalisation concrete:

* :class:`NDGridLayout` — an equi-width grid over a d-dimensional box;
* :class:`NDUniformGridBuilder` / :class:`NDUniformGridSynopsis` — UG in
  d dimensions, whose batches of ``(n, 2d)`` boxes go through the one
  grid kernel, :class:`~repro.queries.engine.BatchQueryEngine`, which
  serves every grid-shaped release at any dimension;
* :func:`guideline1_nd_grid_size` — the d-dimensional analogue of
  Guideline 1.

**Derivation of the generalised guideline.**  With per-axis size ``m``
(so ``m^d`` cells) and a query covering fraction ``r`` of the domain:

* noise error: the query includes about ``r m^d`` cells, each with
  independent ``Lap(1/eps)`` noise, so the error's standard deviation is
  ``sqrt(2 r m^d) / eps``;
* non-uniformity error: the query's border consists of ``2d`` hyperfaces,
  each touching on the order of ``(r^(1/d) m)^(d-1)`` cells holding
  ``N / m^d`` points apiece, i.e. about
  ``2 d r^((d-1)/d) N / m`` points up to a dataset constant.

Minimising the sum in ``m`` gives ``m = (N eps / c_d)^(2 / (d + 2))``,
which for d = 2 collapses to the paper's ``m = sqrt(N eps / c)``.  The
module keeps ``c_d = c = 10`` by default so the 2-D behaviour matches the
paper exactly.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.dataset import GeoDataset
from repro.core.geometry import Domain2D, Rect, rects_to_boxes
from repro.core.guidelines import DEFAULT_C
from repro.core.synopsis import Synopsis, SynopsisBuilder
from repro.privacy.budget import PrivacyBudget
from repro.privacy.mechanisms import ensure_rng, noisy_histogram

__all__ = [
    "NDBox",
    "NDGridLayout",
    "NDUniformGridSynopsis",
    "NDUniformGridBuilder",
    "MultiDimGridSynopsis",
    "MultiDimGridBuilder",
    "guideline1_nd_grid_size",
]


def guideline1_nd_grid_size(
    n_points: float,
    epsilon: float,
    dimension: int,
    c: float = DEFAULT_C,
) -> int:
    """Per-axis grid size ``m = (N eps / c)^(2 / (d + 2))``.

    >>> guideline1_nd_grid_size(1_000_000, 1.0, 2)
    316
    >>> guideline1_nd_grid_size(1_000_000, 1.0, 3)
    100
    """
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if c <= 0:
        raise ValueError(f"c must be positive, got {c}")
    n_points = max(0.0, float(n_points))
    return max(1, round((n_points * epsilon / c) ** (2.0 / (dimension + 2))))


class NDBox:
    """An axis-aligned box ``[lo_1, hi_1] x ... x [lo_d, hi_d]``."""

    def __init__(self, lows: np.ndarray, highs: np.ndarray):
        lows = np.asarray(lows, dtype=float)
        highs = np.asarray(highs, dtype=float)
        if lows.shape != highs.shape or lows.ndim != 1 or lows.size == 0:
            raise ValueError("lows and highs must be matching 1-D arrays")
        if not np.all(np.isfinite(lows) & np.isfinite(highs)):
            raise ValueError("box bounds must be finite")
        if np.any(highs < lows):
            raise ValueError("box extents must be non-negative")
        self.lows = lows
        self.highs = highs

    @classmethod
    def unit(cls, dimension: int) -> "NDBox":
        return cls(np.zeros(dimension), np.ones(dimension))

    @property
    def dimension(self) -> int:
        return self.lows.size

    @property
    def widths(self) -> np.ndarray:
        return self.highs - self.lows

    @property
    def volume(self) -> float:
        return float(np.prod(self.widths))

    def contains(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        return np.all((points >= self.lows) & (points <= self.highs), axis=1)

    def __repr__(self) -> str:
        return f"NDBox(d={self.dimension}, lows={self.lows}, highs={self.highs})"


class NDGridLayout:
    """An equi-width ``m^d`` grid over a d-dimensional box."""

    def __init__(self, box: NDBox, per_axis_size: int):
        if per_axis_size < 1:
            raise ValueError(f"per-axis size must be >= 1, got {per_axis_size}")
        if np.any(box.widths <= 0):
            raise ValueError("grid requires a box with positive extent")
        self.box = box
        self.m = int(per_axis_size)

    @property
    def dimension(self) -> int:
        return self.box.dimension

    @property
    def n_cells(self) -> int:
        return self.m**self.dimension

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.m,) * self.dimension

    def cell_indices(self, points: np.ndarray) -> np.ndarray:
        """Map ``(n, d)`` points to per-axis integer indices, shape ``(n, d)``."""
        points = np.asarray(points, dtype=float)
        relative = (points - self.box.lows) / self.box.widths
        return np.clip((relative * self.m).astype(np.int64), 0, self.m - 1)

    def histogram(self, points: np.ndarray) -> np.ndarray:
        """Exact counts per cell, shape ``(m,) * d``."""
        points = np.asarray(points, dtype=float)
        if points.shape[0] == 0:
            return np.zeros(self.shape)
        indices = self.cell_indices(points)
        flat = np.ravel_multi_index(indices.T, self.shape)
        return (
            np.bincount(flat, minlength=self.n_cells)
            .reshape(self.shape)
            .astype(float)
        )

    def _axis_fractions(self, axis: int, lo: float, hi: float) -> np.ndarray:
        """Coverage fraction of ``[lo, hi]`` for each of the m cells on an axis."""
        axis_lo = self.box.lows[axis]
        width = self.box.widths[axis] / self.m
        edges = axis_lo + width * np.arange(self.m + 1)
        overlap = np.minimum(edges[1:], hi) - np.maximum(edges[:-1], lo)
        return np.clip(overlap / width, 0.0, 1.0)

    def estimate(self, counts: np.ndarray, query: NDBox) -> float:
        """Uniformity-assumption estimate of the count inside ``query``.

        The d-dimensional analogue of the 2-D bilinear form: contract the
        count tensor with one per-axis coverage vector per dimension.
        """
        counts = np.asarray(counts, dtype=float)
        if counts.shape != self.shape:
            raise ValueError(
                f"counts shape {counts.shape} does not match grid {self.shape}"
            )
        if query.dimension != self.dimension:
            raise ValueError("query dimension mismatch")
        result = counts
        for axis in range(self.dimension):
            fractions = self._axis_fractions(
                axis, query.lows[axis], query.highs[axis]
            )
            # Contract the leading axis each time.
            result = np.tensordot(fractions, result, axes=(0, 0))
        return float(result)


class NDUniformGridSynopsis:
    """The released state of d-dimensional UG."""

    def __init__(self, layout: NDGridLayout, counts: np.ndarray, epsilon: float):
        counts = np.asarray(counts, dtype=float)
        if counts.shape != layout.shape:
            raise ValueError("counts shape does not match layout")
        self.layout = layout
        self.counts = counts
        self.epsilon = epsilon
        self._engine = None  # lazy BatchQueryEngine for answer_many

    @property
    def dimension(self) -> int:
        return self.layout.dimension

    def answer(self, query: NDBox) -> float:
        return self.layout.estimate(self.counts, query)

    def batch_engine(self):
        """The lazily built d-dimensional prefix-sum engine."""
        if self._engine is None:
            from repro.queries.engine import BatchQueryEngine

            box = self.layout.box
            self._engine = BatchQueryEngine(box.lows, box.highs, self.counts)
        return self._engine

    def answer_many(self, boxes: np.ndarray) -> np.ndarray:
        """Vectorised estimates for ``(n, 2d)`` lows-then-highs rows.

        Routed through :class:`~repro.queries.engine.BatchQueryEngine`;
        the engine contract applies (a batch of another shape raises
        ``ValueError``, inverted/NaN rows answer 0, degenerate axes
        answer exactly 0).
        """
        return self.batch_engine().answer_batch(boxes)

    def total(self) -> float:
        return self.answer(self.layout.box)


class NDUniformGridBuilder:
    """UG generalised to d dimensions with the generalised Guideline 1.

    Parameters mirror :class:`~repro.core.uniform_grid.UniformGridBuilder`;
    ``max_cells`` guards against accidental tensor blow-ups in high d.
    """

    name = "UG-nd"

    def __init__(
        self,
        per_axis_size: int | None = None,
        c: float = DEFAULT_C,
        max_cells: int = 20_000_000,
    ):
        if per_axis_size is not None and per_axis_size < 1:
            raise ValueError(f"per_axis_size must be >= 1, got {per_axis_size}")
        self.per_axis_size = per_axis_size
        self.c = c
        self.max_cells = max_cells

    def fit(
        self,
        points: np.ndarray,
        box: NDBox,
        epsilon: float,
        rng: np.random.Generator | int | None,
        budget: PrivacyBudget | None = None,
    ) -> NDUniformGridSynopsis:
        rng = ensure_rng(rng)
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        budget = budget if budget is not None else PrivacyBudget(epsilon)
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != box.dimension:
            raise ValueError(
                f"points must have shape (n, {box.dimension}), got {points.shape}"
            )

        m = self.per_axis_size
        if m is None:
            m = guideline1_nd_grid_size(
                points.shape[0], epsilon, box.dimension, self.c
            )
        layout = NDGridLayout(box, m)
        if layout.n_cells > self.max_cells:
            raise ValueError(
                f"grid of {layout.n_cells} cells exceeds max_cells="
                f"{self.max_cells}; pass a smaller per_axis_size"
            )
        exact = layout.histogram(points)
        counts = noisy_histogram(
            exact, epsilon, rng, budget=budget, label=f"{box.dimension}-d cell counts"
        )
        return NDUniformGridSynopsis(layout, counts, epsilon)


class MultiDimGridSynopsis(Synopsis):
    """The d = 2 embedding of the ND grid into the 2-D serving tier.

    Wraps an :class:`NDUniformGridSynopsis` of dimension 2 so the
    generalised machinery — ND layout, d-dimensional grid engine — plugs
    into everything typed against :class:`~repro.core.synopsis.Synopsis`:
    the kind table, serialization, the synopsis store, and both
    HTTP transports.  A :class:`~repro.core.geometry.Rect` row
    ``(x_lo, y_lo, x_hi, y_hi)`` *is* the engine's lows-then-highs
    layout at d = 2, so queries pass through unchanged; the scalar
    :meth:`answer` routes through a single-row engine call, making the
    scalar and batch paths bit-identical by construction.
    """

    def __init__(self, nd: NDUniformGridSynopsis):
        if nd.dimension != 2:
            raise ValueError(
                f"servable embedding requires dimension 2, got {nd.dimension}"
            )
        box = nd.layout.box
        domain = Domain2D(box.lows[0], box.lows[1], box.highs[0], box.highs[1])
        super().__init__(domain, nd.epsilon)
        self._nd = nd

    @property
    def nd(self) -> NDUniformGridSynopsis:
        """The wrapped d-dimensional release."""
        return self._nd

    @property
    def layout(self) -> NDGridLayout:
        return self._nd.layout

    @property
    def counts(self) -> np.ndarray:
        return self._nd.counts

    @property
    def grid_size(self) -> tuple[int, int]:
        return (self._nd.layout.m, self._nd.layout.m)

    def answer(self, rect: Rect) -> float:
        return float(self._nd.answer_many(rects_to_boxes([rect]))[0])

    def answer_many(self, rects: "list[Rect] | np.ndarray") -> np.ndarray:
        return self._nd.answer_many(rects_to_boxes(rects))


class MultiDimGridBuilder(SynopsisBuilder):
    """Builds the servable 2-D specialisation of d-dimensional UG.

    Delegates the entire build to :class:`NDUniformGridBuilder` at
    ``d = 2`` — same guideline, same noise stream — and wraps the result
    for the serving tier.  ``fit_reference`` returns the raw
    :class:`NDUniformGridSynopsis`, which the property suite pins
    bit-identical to the wrapped release.
    """

    name = "UGnd"

    def __init__(
        self,
        per_axis_size: int | None = None,
        c: float = DEFAULT_C,
        max_cells: int = 20_000_000,
    ):
        self._nd_builder = NDUniformGridBuilder(
            per_axis_size=per_axis_size, c=c, max_cells=max_cells
        )

    @property
    def per_axis_size(self) -> int | None:
        return self._nd_builder.per_axis_size

    def label(self) -> str:
        if self.per_axis_size is None:
            return "UGnd(auto)"
        return f"UGnd{self.per_axis_size}"

    def _nd_box(self, dataset: GeoDataset) -> NDBox:
        bounds = dataset.domain.bounds
        return NDBox(
            np.array([bounds.x_lo, bounds.y_lo]),
            np.array([bounds.x_hi, bounds.y_hi]),
        )

    def fit(
        self,
        dataset: GeoDataset,
        epsilon: float,
        rng: np.random.Generator,
        budget: PrivacyBudget | None = None,
    ) -> MultiDimGridSynopsis:
        budget = self._budget(epsilon, budget)
        nd = self._nd_builder.fit(
            dataset.points, self._nd_box(dataset), epsilon, rng, budget=budget
        )
        return MultiDimGridSynopsis(nd)

    def fit_reference(
        self,
        dataset: GeoDataset,
        epsilon: float,
        rng: np.random.Generator,
        budget: PrivacyBudget | None = None,
    ) -> NDUniformGridSynopsis:
        """The retained raw ND build (identical noise stream as fit)."""
        budget = self._budget(epsilon, budget)
        return self._nd_builder.fit(
            dataset.points, self._nd_box(dataset), epsilon, rng, budget=budget
        )

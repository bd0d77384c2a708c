"""Equi-width grid layout and histogramming.

The grid is the workhorse data structure of the paper: both UG and AG (and
the Privelet / hierarchy baselines) reduce to computing a histogram over an
``mx x my`` equi-width grid and answering rectangle queries from per-cell
counts under the uniformity assumption.

:class:`GridLayout` knows only about geometry (cell edges, indices, overlap
fractions); it holds no counts, so the same layout can be shared by exact
histograms, noisy histograms, and wavelet-transformed histograms.

Query answering under the uniformity assumption is a rank-1 bilinear form:
for a query rectangle ``r`` the estimate is ``fx @ C @ fy`` where ``C`` is
the (noisy) count matrix and ``fx[i]`` / ``fy[j]`` are the fractions of
column ``i`` / row ``j`` covered by ``r``.  This is exactly the estimator
described in Section II-B of the paper (full cells contribute their whole
count, border cells contribute proportionally to overlap area) but runs in
``O(mx + my)`` plus a sliced matrix product instead of a cell loop.
"""

from __future__ import annotations

import numpy as np

from repro.core.geometry import Domain2D, Rect

__all__ = ["GridLayout"]


class GridLayout:
    """An ``mx x my`` equi-width grid over a rectangular domain.

    Cell ``(i, j)`` spans ``[x_edges[i], x_edges[i+1]] x
    [y_edges[j], y_edges[j+1]]``; ``i`` indexes the x axis (columns of the
    domain) and ``j`` the y axis.  Count matrices associated with the layout
    therefore have shape ``(mx, my)``.
    """

    def __init__(self, domain: Domain2D, mx: int, my: int | None = None):
        if my is None:
            my = mx
        if mx < 1 or my < 1:
            raise ValueError(f"grid size must be >= 1, got {mx} x {my}")
        self._domain = domain
        self._mx = int(mx)
        self._my = int(my)
        bounds = domain.bounds
        self._x_edges = np.linspace(bounds.x_lo, bounds.x_hi, self._mx + 1)
        self._y_edges = np.linspace(bounds.y_lo, bounds.y_hi, self._my + 1)

    @property
    def domain(self) -> Domain2D:
        return self._domain

    @property
    def shape(self) -> tuple[int, int]:
        return (self._mx, self._my)

    @property
    def mx(self) -> int:
        return self._mx

    @property
    def my(self) -> int:
        return self._my

    @property
    def n_cells(self) -> int:
        return self._mx * self._my

    @property
    def x_edges(self) -> np.ndarray:
        return self._x_edges

    @property
    def y_edges(self) -> np.ndarray:
        return self._y_edges

    @property
    def cell_width(self) -> float:
        return self._domain.width / self._mx

    @property
    def cell_height(self) -> float:
        return self._domain.height / self._my

    def __repr__(self) -> str:
        return f"GridLayout({self._mx} x {self._my} over {self._domain!r})"

    def cell_rect(self, i: int, j: int) -> Rect:
        """The rectangle of cell ``(i, j)``."""
        if not (0 <= i < self._mx and 0 <= j < self._my):
            raise IndexError(f"cell ({i}, {j}) out of range for {self.shape} grid")
        return Rect(
            self._x_edges[i], self._y_edges[j],
            self._x_edges[i + 1], self._y_edges[j + 1],
        )

    def flat_cell_geometry(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-cell origins and extents, indexed by flat cell id.

        Returns ``(x_lo, y_lo, width, height)`` arrays of length
        ``n_cells`` for cells in row-major order (``c = i * my + j``).
        Extents are the same edge subtractions a per-cell
        :class:`GridLayout` would perform (``edges[i + 1] - edges[i]``,
        not the constant ``domain extent / m``), so binning and coverage
        computed from these stay bit-identical to per-cell layouts —
        the invariant the flat AG kernel relies on.
        """
        x_lo = np.repeat(self._x_edges[:-1], self._my)
        y_lo = np.tile(self._y_edges[:-1], self._mx)
        width = np.repeat(np.diff(self._x_edges), self._my)
        height = np.tile(np.diff(self._y_edges), self._mx)
        return x_lo, y_lo, width, height

    def cell_indices(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map ``(n, 2)`` points to integer cell indices ``(ix, iy)``.

        Points on the shared edge of two cells are assigned to the
        higher-index cell except on the domain's far boundary, which belongs
        to the last cell (the standard half-open binning convention, closed
        at the top).
        """
        points = np.asarray(points, dtype=float)
        bounds = self._domain.bounds
        x_rel = (points[:, 0] - bounds.x_lo) / self._domain.width
        y_rel = (points[:, 1] - bounds.y_lo) / self._domain.height
        ix = np.clip((x_rel * self._mx).astype(np.int64), 0, self._mx - 1)
        iy = np.clip((y_rel * self._my).astype(np.int64), 0, self._my - 1)
        return ix, iy

    def histogram(self, points: np.ndarray) -> np.ndarray:
        """Exact per-cell counts of the given points, shape ``(mx, my)``."""
        points = np.asarray(points, dtype=float)
        if points.shape[0] == 0:
            return np.zeros(self.shape, dtype=float)
        ix, iy = self.cell_indices(points)
        flat = np.bincount(ix * self._my + iy, minlength=self.n_cells)
        return flat.reshape(self.shape).astype(float)

    # ------------------------------------------------------------------
    # Query answering support
    # ------------------------------------------------------------------

    def axis_coverage(
        self, edges: np.ndarray, lo: float, hi: float
    ) -> tuple[int, int, np.ndarray]:
        """Per-cell coverage fractions of ``[lo, hi]`` along one axis.

        Returns ``(first, last, fractions)`` where cells ``first .. last``
        (inclusive) are the only ones with non-zero overlap and
        ``fractions[k]`` is the fraction of cell ``first + k`` covered.
        When the interval misses the axis range entirely, ``fractions`` is
        empty and ``first > last``.
        """
        n = edges.size - 1
        lo = max(lo, edges[0])
        hi = min(hi, edges[-1])
        if hi <= lo:
            return 1, 0, np.empty(0)
        width = (edges[-1] - edges[0]) / n
        first = min(int((lo - edges[0]) / width), n - 1)
        last = min(int(np.nextafter((hi - edges[0]) / width, -np.inf)), n - 1)
        last = max(last, first)
        cell_los = edges[first : last + 1]
        cell_his = edges[first + 1 : last + 2]
        overlap = np.minimum(cell_his, hi) - np.maximum(cell_los, lo)
        fractions = np.clip(overlap / width, 0.0, 1.0)
        return first, last, fractions

    def coverage(self, rect: Rect) -> tuple[slice, slice, np.ndarray, np.ndarray]:
        """Coverage slices and fraction vectors for a query rectangle.

        Returns ``(x_slice, y_slice, fx, fy)`` such that the uniformity
        estimate for any count matrix ``C`` is ``fx @ C[x_slice, y_slice] @
        fy``.  Empty slices mean no overlap.
        """
        x_first, x_last, fx = self.axis_coverage(self._x_edges, rect.x_lo, rect.x_hi)
        y_first, y_last, fy = self.axis_coverage(self._y_edges, rect.y_lo, rect.y_hi)
        if fx.size == 0 or fy.size == 0:
            return slice(0, 0), slice(0, 0), np.empty(0), np.empty(0)
        return (
            slice(x_first, x_last + 1),
            slice(y_first, y_last + 1),
            fx,
            fy,
        )

    def estimate(self, counts: np.ndarray, rect: Rect) -> float:
        """Uniformity-assumption estimate of the count inside ``rect``.

        ``counts`` must have shape ``(mx, my)``.  Full cells contribute
        their whole count; border cells contribute proportionally to the
        covered area, exactly as Section II-B prescribes.
        """
        counts = np.asarray(counts, dtype=float)
        if counts.shape != self.shape:
            raise ValueError(
                f"counts shape {counts.shape} does not match grid {self.shape}"
            )
        x_slice, y_slice, fx, fy = self.coverage(rect)
        if fx.size == 0:
            return 0.0
        return float(fx @ counts[x_slice, y_slice] @ fy)

    def cells_touched(self, rect: Rect) -> int:
        """How many grid cells the rectangle overlaps (q in the error model)."""
        x_slice, y_slice, fx, fy = self.coverage(rect)
        return fx.size * fy.size

    def sample_points(
        self, counts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw a synthetic point cloud matching non-negative cell counts.

        Each cell ``(i, j)`` receives ``round(counts[i, j])`` points placed
        uniformly at random inside it; negative counts contribute nothing.
        This is how a released synopsis is turned into a synthetic dataset.
        """
        counts = np.asarray(counts, dtype=float)
        if counts.shape != self.shape:
            raise ValueError(
                f"counts shape {counts.shape} does not match grid {self.shape}"
            )
        per_cell = np.maximum(0, np.rint(counts)).astype(np.int64)
        total = int(per_cell.sum())
        if total == 0:
            return np.empty((0, 2))
        ix = np.repeat(np.arange(self._mx), per_cell.sum(axis=1))
        iy = np.repeat(
            np.tile(np.arange(self._my), self._mx), per_cell.reshape(-1)
        )
        xs = self._x_edges[ix] + rng.uniform(0.0, self.cell_width, size=total)
        ys = self._y_edges[iy] + rng.uniform(0.0, self.cell_height, size=total)
        return np.column_stack([xs, ys])

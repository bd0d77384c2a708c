"""The Adaptive Grid method (AG) — Section IV-B, the paper's main contribution.

AG addresses UG's weakness of partitioning dense and sparse regions
identically:

1. Lay a coarse ``m1 x m1`` first-level grid (``m1 = max(10,
   ceil(m_UG / 4))``) and obtain a noisy count per cell with budget
   ``alpha * eps``.
2. For each first-level cell with noisy count ``N'``, choose a second-level
   ``m2 x m2`` sub-grid by Guideline 2 (``m2 = ceil(sqrt(N' * (1 - alpha)
   * eps / c2))``, ``c2 = c / 2``) and obtain noisy leaf counts with the
   remaining budget ``(1 - alpha) * eps``.
3. Apply two-level **constrained inference** (Hay et al.) inside each
   first-level cell: combine the cell's own noisy count ``v`` with the sum
   of its leaves by inverse-variance weighting, then distribute the
   correction equally over the leaves::

       v' = (a^2 m2^2 v + (1-a)^2 * sum(u)) / ((1-a)^2 + a^2 m2^2)
       u'_ij = u_ij + (v' - sum(u)) / m2^2

Queries are answered from the inferred leaf counts with the uniformity
assumption, exactly like UG but with per-region granularity.

Flat CSR release layout
-----------------------

The released state is stored *flat*: per-first-level-cell sub-grid sizes
and totals as ``(m1x, m1y)`` arrays plus one concatenated ``leaf_counts``
vector indexed by CSR offsets.  Cell ``(i, j)`` (flat id ``c = i * m1y +
j``, row-major) owns the slice ``leaf_counts[leaf_offsets[c] :
leaf_offsets[c + 1]]``, which is its ``m2 x m2`` count matrix in C order.
The builder (one pass over the data, one noise draw, one inference pass)
writes these arrays directly, and the batch query engine reads them:
:meth:`~repro.queries.engine.TwoLevelGridEngine.adaptive_grid` computes
each cell's uniform sub-grid edges from ``cell_sizes`` and its
summed-area table from its slice of ``leaf_counts``, the same two-level
engine consistent trees answer through — no per-cell Python objects
anywhere on the hot paths.

Noise-stream-order invariant
----------------------------

``fit`` draws all level-2 Laplace noise in a *single* ``rng.laplace``
call over the concatenated leaf vector.  Because numpy's Laplace sampler
consumes exactly one uniform variate per output element, this is
bit-identical to the historical per-cell loop that drew one ``(m2, m2)``
block per cell in row-major first-level order — the release distribution
is unchanged, draw for draw.  The per-cell loop lives on as a test
oracle (``tests/oracles/adaptive_grid.py``) that pins this invariant down.
"""

from __future__ import annotations

import numpy as np

from repro.core.dataset import GeoDataset
from repro.core.geometry import Domain2D, Rect
from repro.core.grid import GridLayout
from repro.core.guidelines import (
    DEFAULT_ALPHA,
    DEFAULT_C,
    DEFAULT_C2,
    adaptive_first_level_size,
)
from repro.core.synopsis import Synopsis, SynopsisBuilder
from repro.privacy.budget import PrivacyBudget
from repro.privacy.mechanisms import ensure_rng, noisy_histogram

__all__ = [
    "AdaptiveGridSynopsis",
    "AdaptiveGridBuilder",
    "two_level_inference_flat",
]


def _segment_sums(
    values: np.ndarray, offsets: np.ndarray, sizes: np.ndarray
) -> np.ndarray:
    """Per-cell sums of a CSR leaf vector, grouped by sub-grid size.

    Cells sharing an ``m2`` are gathered into a ``(k, m2^2)`` matrix and
    summed along the last axis, which uses the same pairwise summation as
    ``np.sum`` over one cell's counts — so the result is bit-identical to
    the per-cell loop, unlike ``np.add.reduceat`` (sequential).  The
    number of distinct ``m2`` values is small, so the grouping loop is
    O(distinct sizes), not O(cells).
    """
    sums = np.empty(sizes.size)
    for size in np.unique(sizes):
        cells = np.flatnonzero(sizes == size)
        gather = offsets[cells][:, None] + np.arange(size * size)[None, :]
        sums[cells] = values[gather].sum(axis=1)
    return sums


def two_level_inference_flat(
    parent_counts: np.ndarray,
    leaf_counts: np.ndarray,
    leaf_offsets: np.ndarray,
    cell_sizes: np.ndarray,
    alpha: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Constrained inference for *all* first-level cells at once.

    Each first-level cell combines its parent's noisy count ``v`` (budget
    ``alpha * eps``) with its ``m2 x m2`` noisy leaves ``u`` (budget
    ``(1 - alpha) * eps``) by the paper's inverse-variance optimum: with
    ``Var(v) = 2 / (alpha eps)^2`` and ``Var(sum u) = m2^2 * 2 /
    ((1-alpha) eps)^2``, the best linear combination of the two estimates
    of the cell total is::

        v' = (a^2 m2^2) / ((1-a)^2 + a^2 m2^2) * v
           + (1-a)^2   / ((1-a)^2 + a^2 m2^2) * sum(u)

    and mean-consistency distributes the residual equally over leaves.
    ``parent_counts`` is the flat vector of noisy level-1 counts,
    ``leaf_counts`` the concatenated noisy leaf vector with CSR
    ``leaf_offsets``, and ``cell_sizes`` each cell's ``m2``.  Returns
    ``(combined_totals, adjusted_leaves)`` in the same flat layout,
    bit-identical to a per-cell loop (see :func:`_segment_sums`).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    parent_counts = np.asarray(parent_counts, dtype=float)
    leaf_counts = np.asarray(leaf_counts, dtype=float)
    n_leaves = (cell_sizes * cell_sizes).astype(float)
    leaf_sums = _segment_sums(leaf_counts, leaf_offsets, cell_sizes)
    a2m2 = alpha**2 * n_leaves
    b2 = (1.0 - alpha) ** 2
    combined = (a2m2 * parent_counts + b2 * leaf_sums) / (b2 + a2m2)
    per_leaf_shift = (combined - leaf_sums) / n_leaves
    adjusted = leaf_counts + np.repeat(per_leaf_shift, cell_sizes * cell_sizes)
    return combined, adjusted


class AdaptiveGridSynopsis(Synopsis):
    """The released state of AG, stored as flat CSR arrays.

    ``cell_sizes[i, j]`` is the ``m2`` of first-level cell ``(i, j)``,
    ``cell_totals[i, j]`` its inferred total ``v'``, and ``leaf_counts``
    the concatenation of every cell's ``m2 x m2`` inferred leaf matrix
    (C order) in row-major first-level order; ``leaf_offsets`` are the
    CSR offsets (``leaf_offsets[c] .. leaf_offsets[c + 1]`` bounds flat
    cell ``c = i * m1y + j``).
    """

    def __init__(
        self,
        domain: Domain2D,
        epsilon: float,
        level1: GridLayout,
        cell_sizes: np.ndarray,
        cell_totals: np.ndarray,
        leaf_counts: np.ndarray,
    ):
        super().__init__(domain, epsilon)
        cell_sizes = np.asarray(cell_sizes, dtype=np.int64)
        cell_totals = np.asarray(cell_totals, dtype=float)
        leaf_counts = np.asarray(leaf_counts, dtype=float)
        if cell_sizes.shape != level1.shape or cell_totals.shape != level1.shape:
            raise ValueError(
                f"cell_sizes/cell_totals must have the first-level shape "
                f"{level1.shape}, got {cell_sizes.shape} / {cell_totals.shape}"
            )
        if cell_sizes.size and cell_sizes.min() < 1:
            raise ValueError("cell_sizes must all be >= 1")
        sizes_flat = cell_sizes.reshape(-1)
        offsets = np.zeros(sizes_flat.size + 1, dtype=np.int64)
        np.cumsum(sizes_flat * sizes_flat, out=offsets[1:])
        if leaf_counts.ndim != 1 or leaf_counts.size != offsets[-1]:
            raise ValueError(
                f"leaf_counts must be a flat vector of {int(offsets[-1])} "
                f"values, got shape {leaf_counts.shape}"
            )
        self._level1 = level1
        self._cell_sizes = cell_sizes
        self._cell_totals = cell_totals
        self._leaf_counts = leaf_counts
        self._leaf_offsets = offsets
        self._layouts: dict[tuple[int, int], GridLayout] = {}  # cell_layout cache

    # ------------------------------------------------------------------
    # Flat released state (what engines and serialisation consume)
    # ------------------------------------------------------------------

    @property
    def level1_layout(self) -> GridLayout:
        return self._level1

    @property
    def first_level_size(self) -> tuple[int, int]:
        return self._level1.shape

    @property
    def cell_sizes(self) -> np.ndarray:
        """Per-first-level-cell sub-grid sizes ``m2``, shape ``(m1x, m1y)``."""
        return self._cell_sizes

    @property
    def cell_totals(self) -> np.ndarray:
        """Per-first-level-cell inferred totals ``v'``, shape ``(m1x, m1y)``."""
        return self._cell_totals

    @property
    def leaf_counts(self) -> np.ndarray:
        """Concatenated inferred leaf counts (CSR values vector)."""
        return self._leaf_counts

    @property
    def leaf_offsets(self) -> np.ndarray:
        """CSR offsets into :attr:`leaf_counts`, length ``m1x * m1y + 1``."""
        return self._leaf_offsets

    # ------------------------------------------------------------------
    # Per-cell accessors (views into the flat arrays)
    # ------------------------------------------------------------------

    def _flat_cell(self, i: int, j: int) -> int:
        mx, my = self._level1.shape
        if not (0 <= i < mx and 0 <= j < my):
            raise IndexError(f"cell ({i}, {j}) out of range for {mx} x {my} grid")
        return i * my + j

    def cell_grid_size(self, i: int, j: int) -> int:
        """The ``m2`` chosen for first-level cell ``(i, j)``."""
        self._flat_cell(i, j)
        return int(self._cell_sizes[i, j])

    def cell_layout(self, i: int, j: int) -> GridLayout:
        """The sub-grid layout of first-level cell ``(i, j)``.

        Layouts are derived from the flat arrays on first use and cached:
        the scalar ``answer`` path visits the same border cells over and
        over, and a :class:`GridLayout` construction (two ``linspace``
        edge arrays plus validation) is not free.
        """
        layout = self._layouts.get((i, j))
        if layout is None:
            rect = self._level1.cell_rect(i, j)
            m2 = self.cell_grid_size(i, j)
            cell_domain = Domain2D(rect.x_lo, rect.y_lo, rect.x_hi, rect.y_hi)
            layout = GridLayout(cell_domain, m2, m2)
            self._layouts[(i, j)] = layout
        return layout

    def cell_counts(self, i: int, j: int) -> np.ndarray:
        """Inferred leaf counts of first-level cell ``(i, j)`` (a view)."""
        c = self._flat_cell(i, j)
        m2 = int(self._cell_sizes[i, j])
        start = self._leaf_offsets[c]
        return self._leaf_counts[start : start + m2 * m2].reshape(m2, m2)

    def cell_total(self, i: int, j: int) -> float:
        """Inferred total count v' of first-level cell ``(i, j)``."""
        self._flat_cell(i, j)
        return float(self._cell_totals[i, j])

    def leaf_cell_count(self) -> int:
        """Total number of leaf cells across all sub-grids (O(1))."""
        return int(self._leaf_offsets[-1])

    def drift_cells(self, max_cells: int = 1024) -> np.ndarray:
        """The first-level cells (AG's coarse data-adaptive partition).

        Level 1 is where AG reads the data distribution (level-2 grids
        only refine within a cell), so the level-1 cells are the natural
        resolution for a build-vs-fill drift signal; they are also few
        (``m1 x m1``), keeping the per-batch fill histogram cheap.
        """
        if self._level1.n_cells > max_cells:
            return super().drift_cells(max_cells)
        x_lo, y_lo, width, height = self._level1.flat_cell_geometry()
        return np.column_stack([x_lo, y_lo, x_lo + width, y_lo + height])

    def answer(self, rect: Rect) -> float:
        # Only first-level cells overlapping the query contribute.  Fully
        # covered cells contribute their inferred total v' (cheap); border
        # cells are estimated from their sub-grid leaves.
        x_slice, y_slice, fx, fy = self._level1.coverage(rect)
        if fx.size == 0:
            return 0.0
        total = 0.0
        for di, i in enumerate(range(x_slice.start, x_slice.stop)):
            for dj, j in enumerate(range(y_slice.start, y_slice.stop)):
                if fx[di] >= 1.0 and fy[dj] >= 1.0:
                    total += float(self._cell_totals[i, j])
                else:
                    total += self.cell_layout(i, j).estimate(
                        self.cell_counts(i, j), rect
                    )
        return total

    def synthetic_points(self, rng: np.random.Generator) -> np.ndarray:
        rng = ensure_rng(rng)
        mx, my = self._level1.shape
        clouds = []
        for i in range(mx):
            for j in range(my):
                cloud = self.cell_layout(i, j).sample_points(
                    self.cell_counts(i, j), rng
                )
                if cloud.size:
                    clouds.append(cloud)
        if not clouds:
            return np.empty((0, 2))
        return np.vstack(clouds)


class AdaptiveGridBuilder(SynopsisBuilder):
    """Builds AG synopses (the paper's ``A_{m1, c2}`` notation).

    Parameters
    ----------
    first_level_size:
        Fixed ``m1``; ``None`` applies the paper's rule
        ``m1 = max(10, ceil(sqrt(N eps / c) / 4))``.
    alpha:
        Budget fraction for the first level (default 0.5).
    c2:
        Guideline 2 constant (default ``c / 2 = 5``).
    c:
        Guideline 1 constant used when deriving ``m1`` (default 10).
    constrained_inference:
        Apply the two-level inference step (default ``True``).  Exposed so
        the ablation bench can measure its contribution.
    max_cell_grid_size:
        Safety cap on ``m2`` to bound memory on adversarial inputs.
    """

    name = "AG"

    def __init__(
        self,
        first_level_size: int | None = None,
        alpha: float = DEFAULT_ALPHA,
        c2: float = DEFAULT_C2,
        c: float = DEFAULT_C,
        constrained_inference: bool = True,
        max_cell_grid_size: int = 256,
    ):
        if first_level_size is not None and first_level_size < 1:
            raise ValueError(f"first_level_size must be >= 1, got {first_level_size}")
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        if max_cell_grid_size < 1:
            raise ValueError("max_cell_grid_size must be >= 1")
        self.first_level_size = first_level_size
        self.alpha = alpha
        self.c2 = c2
        self.c = c
        self.constrained_inference = constrained_inference
        self.max_cell_grid_size = max_cell_grid_size

    def label(self) -> str:
        m1 = self.first_level_size if self.first_level_size is not None else "auto"
        return f"A{m1},{self.c2:g}"

    def _level1_layout(self, dataset: GeoDataset, epsilon: float) -> GridLayout:
        """The first-level grid: fixed ``m1`` or the paper's auto rule."""
        m1 = self.first_level_size
        if m1 is None:
            m1 = adaptive_first_level_size(dataset.size, epsilon, self.c)
        return GridLayout(dataset.domain, m1, m1)

    def _release_level1(
        self,
        exact_level1: np.ndarray,
        epsilon: float,
        rng: np.random.Generator,
        budget: PrivacyBudget,
    ) -> tuple[np.ndarray, float]:
        """Noisy level-1 counts plus the alpha-split budget accounting.

        Where the build spends the budget: ``alpha * epsilon`` on the
        level-1 histogram, then ``(1 - alpha) * epsilon`` for level 2 —
        one histogram release per *disjoint* first-level cell, so
        parallel composition prices all of level 2 at one spend.
        """
        level2_epsilon = (1.0 - self.alpha) * epsilon
        noisy_level1 = noisy_histogram(
            exact_level1, self.alpha * epsilon, rng,
            budget=budget, label="level-1 counts",
        )
        budget.spend(level2_epsilon, "level-2 counts (parallel over cells)")
        return noisy_level1, level2_epsilon

    def _cell_grid_sizes(
        self, noisy_level1: np.ndarray, level2_epsilon: float
    ) -> np.ndarray:
        """Guideline 2 for every first-level cell at once.

        Element-wise identical to
        :func:`~repro.core.guidelines.guideline2_cell_grid_size` capped
        at ``max_cell_grid_size`` (same expression order, so the same IEEE
        roundings).
        """
        noisy = np.maximum(0.0, noisy_level1.reshape(-1).astype(float))
        m2 = np.ceil(np.sqrt(noisy * level2_epsilon / self.c2))
        m2 = np.maximum(1, m2.astype(np.int64))
        return np.minimum(m2, self.max_cell_grid_size)

    def fit(
        self,
        dataset: GeoDataset,
        epsilon: float,
        rng: np.random.Generator,
        budget: PrivacyBudget | None = None,
    ) -> AdaptiveGridSynopsis:
        """Build the release with single vectorised passes over all cells.

        Noise-stream order (documented invariant, tested against the
        per-cell oracle): level-1 noise first, then one
        ``rng.laplace`` draw covering every leaf of every cell in
        row-major first-level order — bit-identical to the historical
        per-cell loop, which drew one ``(m2, m2)`` block at a time.
        """
        rng = ensure_rng(rng)
        budget = self._budget(epsilon, budget)

        level1 = self._level1_layout(dataset, epsilon)
        m1x, m1y = level1.shape

        # One pass over the points serves both levels: the level-1 cell ids
        # feed the level-1 histogram *and* the leaf assignment below.  Both
        # passes run in cache-sized chunks — the temporaries stay resident
        # instead of streaming through memory, which roughly halves the
        # per-point cost at service-scale N.  Chunking cannot change the
        # result (elementwise ops, integer bincounts), and only the int64
        # cell id per point is materialised whole.
        points = np.asarray(dataset.points, dtype=float)
        n_points = points.shape[0]
        chunk = 32_768
        cell_of_point = np.empty(n_points, dtype=np.int64)
        for start in range(0, n_points, chunk):
            stop = start + chunk
            ix_c, iy_c = level1.cell_indices(points[start:stop])
            np.add(ix_c * m1y, iy_c, out=cell_of_point[start:stop])
        exact_level1 = (
            np.bincount(cell_of_point, minlength=m1x * m1y)
            .reshape(m1x, m1y)
            .astype(float)
        )
        noisy_level1, level2_epsilon = self._release_level1(
            exact_level1, epsilon, rng, budget
        )

        sizes_flat = self._cell_grid_sizes(noisy_level1, level2_epsilon)
        n_leaves = sizes_flat * sizes_flat
        offsets = np.zeros(sizes_flat.size + 1, dtype=np.int64)
        np.cumsum(n_leaves, out=offsets[1:])
        total_leaves = int(offsets[-1])

        # Global flat leaf index per point: the within-cell sub-index uses
        # exactly the per-cell GridLayout binning expressions, so
        # assignments match the per-cell histogram bit for bit.  Cell
        # origins and extents come as flat-cell-indexed tables, so the
        # inner loop does one L1-resident gather per quantity instead of
        # recovering level-1 indices and re-gathering edges.
        cell_x_lo, cell_y_lo, cell_w, cell_h = level1.flat_cell_geometry()
        leaf_of_point = np.empty(n_points, dtype=np.int64)
        for start in range(0, n_points, chunk):
            stop = start + chunk
            cell_c = cell_of_point[start:stop]
            m2_pt = sizes_flat[cell_c]
            x_rel = (points[start:stop, 0] - cell_x_lo[cell_c]) / cell_w[cell_c]
            y_rel = (points[start:stop, 1] - cell_y_lo[cell_c]) / cell_h[cell_c]
            sub_ix = np.clip((x_rel * m2_pt).astype(np.int64), 0, m2_pt - 1)
            sub_iy = np.clip((y_rel * m2_pt).astype(np.int64), 0, m2_pt - 1)
            np.add(
                offsets[cell_c] + sub_ix * m2_pt, sub_iy,
                out=leaf_of_point[start:stop],
            )
        # One bincount over all points (not per chunk, which would cost
        # O(n_chunks * total_leaves) in accumulation alone at service N).
        exact_leaves = np.bincount(leaf_of_point, minlength=total_leaves).astype(
            float
        )

        # All level-2 noise in one draw (see the module docstring for why
        # this preserves the per-cell stream order bit for bit).
        scale = 1.0 / level2_epsilon
        noisy_leaves = exact_leaves + rng.laplace(0.0, scale, size=total_leaves)

        parent_flat = noisy_level1.reshape(-1)
        if self.constrained_inference:
            totals_flat, leaves = two_level_inference_flat(
                parent_flat, noisy_leaves, offsets, sizes_flat, self.alpha
            )
        else:
            totals_flat = _segment_sums(noisy_leaves, offsets, sizes_flat)
            leaves = noisy_leaves

        return AdaptiveGridSynopsis(
            dataset.domain,
            epsilon,
            level1,
            sizes_flat.reshape(m1x, m1y),
            totals_flat.reshape(m1x, m1y),
            leaves,
        )

"""Reference oracles for the Adaptive Grid (AG).

* :func:`two_level_inference` — the constrained inference of one
  first-level cell, as the paper writes it; the vectorised
  :func:`~repro.core.adaptive_grid.two_level_inference_flat` must match
  a loop of it bit for bit.
* :func:`fit_percell` — the pre-flat-kernel build, one histogram, one
  ``(m2, m2)`` Laplace draw and one :func:`two_level_inference` call per
  first-level cell in row-major order.
  :meth:`~repro.core.adaptive_grid.AdaptiveGridBuilder.fit` must release
  bit-identical state from the same ``rng`` state.
* :class:`AdaptiveGridEngine` — one
  :class:`~repro.queries.engine.BatchQueryEngine` per first-level cell,
  summed.  Its per-cell structure mirrors the scalar definition, which
  makes it the second opinion for the two-level summed-area
  :class:`~repro.queries.engine.TwoLevelGridEngine` AG is served by.
"""

from __future__ import annotations

import numpy as np

from repro.core.adaptive_grid import AdaptiveGridBuilder, AdaptiveGridSynopsis
from repro.core.dataset import GeoDataset
from repro.core.geometry import Domain2D, Rect, rects_to_boxes
from repro.core.grid import GridLayout
from repro.core.guidelines import guideline2_cell_grid_size
from repro.privacy.budget import PrivacyBudget
from repro.privacy.mechanisms import ensure_rng
from repro.queries.engine import BatchQueryEngine

__all__ = ["AdaptiveGridEngine", "fit_percell", "two_level_inference"]


def two_level_inference(
    parent_count: float,
    leaf_counts: np.ndarray,
    alpha: float,
) -> tuple[float, np.ndarray]:
    """Constrained inference for one AG first-level cell.

    Combines the parent's noisy count (budget ``alpha * eps``) with its
    ``m2 x m2`` noisy leaf counts (budget ``(1 - alpha) * eps``) into a
    consistent, lower-variance pair ``(v', u')`` with
    ``sum(u') == v'``.

    The weights are the inverse-variance optimum from the paper: with
    ``Var(v) = 2 / (alpha eps)^2`` and ``Var(sum u) = m2^2 * 2 /
    ((1-alpha) eps)^2``, the best linear combination of the two estimates
    of the cell total is::

        v' = (a^2 m2^2) / ((1-a)^2 + a^2 m2^2) * v
           + (1-a)^2   / ((1-a)^2 + a^2 m2^2) * sum(u)

    and mean-consistency distributes the residual equally over leaves.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    leaf_counts = np.asarray(leaf_counts, dtype=float)
    n_leaves = leaf_counts.size
    if n_leaves == 0:
        raise ValueError("leaf_counts must be non-empty")
    leaf_sum = float(leaf_counts.sum())
    a2m2 = alpha**2 * n_leaves
    b2 = (1.0 - alpha) ** 2
    combined = (a2m2 * parent_count + b2 * leaf_sum) / (b2 + a2m2)
    adjusted = leaf_counts + (combined - leaf_sum) / n_leaves
    return combined, adjusted


def fit_percell(
    builder: AdaptiveGridBuilder,
    dataset: GeoDataset,
    epsilon: float,
    rng: np.random.Generator,
    budget: PrivacyBudget | None = None,
) -> AdaptiveGridSynopsis:
    """``builder.fit`` as the per-cell loop (see module doc)."""
    rng = ensure_rng(rng)
    budget = builder._budget(epsilon, budget)
    level1 = builder._level1_layout(dataset, epsilon)
    m1x, m1y = level1.shape
    noisy_level1, level2_epsilon = builder._release_level1(
        level1.histogram(dataset.points), epsilon, rng, budget
    )

    # Pre-bucket the points by first-level cell so the second pass over
    # the data is a single group-by rather than m1^2 rectangle scans.
    ix, iy = level1.cell_indices(dataset.points)
    order = np.argsort(ix * m1y + iy, kind="stable")
    sorted_points = dataset.points[order]
    flat_cells = (ix * m1y + iy)[order]
    boundaries = np.searchsorted(flat_cells, np.arange(m1x * m1y + 1))

    sizes = np.empty((m1x, m1y), dtype=np.int64)
    totals = np.empty((m1x, m1y))
    leaf_chunks: list[np.ndarray] = []
    scale = 1.0 / level2_epsilon
    for i in range(m1x):
        for j in range(m1y):
            flat = i * m1y + j
            cell_points = sorted_points[boundaries[flat] : boundaries[flat + 1]]
            noisy_parent = float(noisy_level1[i, j])
            m2 = guideline2_cell_grid_size(noisy_parent, level2_epsilon, builder.c2)
            m2 = min(m2, builder.max_cell_grid_size)
            rect = level1.cell_rect(i, j)
            layout = GridLayout(
                Domain2D(rect.x_lo, rect.y_lo, rect.x_hi, rect.y_hi), m2, m2
            )
            exact = layout.histogram(cell_points)
            noisy = exact + rng.laplace(0.0, scale, size=exact.shape)
            if builder.constrained_inference:
                inferred_total, adjusted = two_level_inference(
                    noisy_parent, noisy.reshape(-1), builder.alpha
                )
            else:
                inferred_total = float(noisy.sum())
                adjusted = noisy.reshape(-1)
            sizes[i, j] = m2
            totals[i, j] = inferred_total
            leaf_chunks.append(np.asarray(adjusted, dtype=float))

    return AdaptiveGridSynopsis(
        dataset.domain,
        epsilon,
        level1,
        sizes,
        totals,
        np.concatenate(leaf_chunks),
    )


class AdaptiveGridEngine:
    """Per-cell composite engine for ``AdaptiveGridSynopsis``.

    One :class:`BatchQueryEngine` is prepared per first-level cell; a batch
    is answered by summing each cell engine's (domain-clipped) estimates.
    Preprocessing is O(total leaf cells); each batch then costs one
    vectorised pass per *touched* first-level cell (dispatch via a 2-D
    difference array), a Python-level loop the flat engine eliminates.
    """

    def __init__(self, synopsis: AdaptiveGridSynopsis):
        m1x, m1y = synopsis.first_level_size
        self._domain = synopsis.domain
        self._shape = (m1x, m1y)
        self._engines = []
        for i in range(m1x):
            for j in range(m1y):
                cell = synopsis.cell_layout(i, j).domain
                self._engines.append(
                    BatchQueryEngine(cell.lows, cell.highs, synopsis.cell_counts(i, j))
                )

    @property
    def n_cell_engines(self) -> int:
        return len(self._engines)

    def answer_batch(self, rects: list[Rect] | np.ndarray) -> np.ndarray:
        """Uniformity estimates for every rectangle in the batch.

        Each query is dispatched only to the first-level cells it
        overlaps: the per-query cell-index ranges are computed in one
        vectorised pass, and each overlapped cell engine evaluates just
        its own sub-batch — total work scales with cells *touched*, not
        with ``m1^2 * n``.
        """
        boxes = rects_to_boxes(rects)
        if boxes.size == 0:
            return np.empty(0)
        # Pre-clip to the domain once so every cell engine sees the same
        # effective query the scalar path evaluates.
        bounds = self._domain.bounds
        clipped = np.empty_like(boxes)
        clipped[:, 0] = np.clip(boxes[:, 0], bounds.x_lo, bounds.x_hi)
        clipped[:, 1] = np.clip(boxes[:, 1], bounds.y_lo, bounds.y_hi)
        clipped[:, 2] = np.clip(boxes[:, 2], bounds.x_lo, bounds.x_hi)
        clipped[:, 3] = np.clip(boxes[:, 3], bounds.y_lo, bounds.y_hi)

        # First-level index ranges per query.  Edge-exact bounds may
        # over-include a neighbouring cell, which then contributes a
        # zero-width (zero) estimate — harmless.
        mx, my = self._shape
        cell_w = self._domain.width / mx
        cell_h = self._domain.height / my
        i_lo = np.clip(((clipped[:, 0] - bounds.x_lo) / cell_w).astype(np.int64), 0, mx - 1)
        i_hi = np.clip(((clipped[:, 2] - bounds.x_lo) / cell_w).astype(np.int64), 0, mx - 1)
        j_lo = np.clip(((clipped[:, 1] - bounds.y_lo) / cell_h).astype(np.int64), 0, my - 1)
        j_hi = np.clip(((clipped[:, 3] - bounds.y_lo) / cell_h).astype(np.int64), 0, my - 1)

        # Inverted rows (x_hi < x_lo or y_hi < y_lo) answer 0 but must be
        # excluded from the dispatch bookkeeping: their reversed index
        # ranges would write negative bands into the difference array and
        # cancel *other* queries' contributions.
        valid = (clipped[:, 2] >= clipped[:, 0]) & (clipped[:, 3] >= clipped[:, 1])

        # 2-D difference array -> how many queries touch each cell; only
        # touched cells get an engine pass.
        touched = np.zeros((mx + 1, my + 1), dtype=np.int64)
        np.add.at(touched, (i_lo[valid], j_lo[valid]), 1)
        np.add.at(touched, (i_hi[valid] + 1, j_lo[valid]), -1)
        np.add.at(touched, (i_lo[valid], j_hi[valid] + 1), -1)
        np.add.at(touched, (i_hi[valid] + 1, j_hi[valid] + 1), 1)
        counts = touched.cumsum(axis=0).cumsum(axis=1)[:mx, :my]

        total = np.zeros(boxes.shape[0])
        for i, j in np.argwhere(counts > 0):
            mask = valid & (i_lo <= i) & (i <= i_hi) & (j_lo <= j) & (j <= j_hi)
            total[mask] += self._engines[i * my + j].answer_batch(clipped[mask])
        return total

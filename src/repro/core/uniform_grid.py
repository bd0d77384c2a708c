"""The Uniform Grid method (UG) — Section IV-A of the paper.

UG partitions the domain into an ``m x m`` equi-width grid and releases an
independent noisy count per cell.  Because the cells partition the data,
parallel composition makes the whole histogram cost a single ``epsilon``.
The only design decision is ``m``; :func:`~repro.core.guidelines.
guideline1_grid_size` supplies the paper's choice ``m = sqrt(N * eps / c)``
with ``c = 10``.

The builder optionally spends a small slice of the budget on a noisy
estimate of ``N`` for the guideline (``n_estimation_fraction``); the
paper's experiments size the grid from the true ``N``, which corresponds to
the default of 0.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.dataset import GeoDataset
from repro.core.geometry import Domain2D, Rect
from repro.core.grid import GridLayout
from repro.core.guidelines import DEFAULT_C, guideline1_grid_size
from repro.core.postprocess import POSTPROCESS_CHOICES, apply_postprocess
from repro.core.synopsis import Synopsis, SynopsisBuilder
from repro.privacy.budget import PrivacyBudget
from repro.privacy.mechanisms import ensure_rng, noisy_count, noisy_histogram

__all__ = ["UniformGridSynopsis", "UniformGridBuilder"]


class UniformGridSynopsis(Synopsis):
    """The released state of UG: a grid layout plus noisy cell counts."""

    def __init__(
        self,
        domain: Domain2D,
        epsilon: float,
        layout: GridLayout,
        counts: np.ndarray,
    ):
        super().__init__(domain, epsilon)
        counts = np.asarray(counts, dtype=float)
        if counts.shape != layout.shape:
            raise ValueError(
                f"counts shape {counts.shape} does not match grid {layout.shape}"
            )
        self._layout = layout
        self._counts = counts

    @property
    def layout(self) -> GridLayout:
        return self._layout

    @property
    def counts(self) -> np.ndarray:
        """The noisy per-cell counts (may contain negative values)."""
        return self._counts

    @property
    def grid_size(self) -> tuple[int, int]:
        return self._layout.shape

    def answer(self, rect: Rect) -> float:
        return self._layout.estimate(self._counts, rect)

    def synthetic_points(self, rng: np.random.Generator) -> np.ndarray:
        return self._layout.sample_points(self._counts, ensure_rng(rng))

    def drift_cells(self, max_cells: int = 1024) -> np.ndarray:
        """The grid's own cells (the default cover when there are too many).

        Measuring drift on the release's own partition makes the signal
        exactly Dasu et al.'s build-vs-fill comparison: the released
        counts are the build histogram, new points fill the same cells.
        """
        if self._layout.n_cells > max_cells:
            return super().drift_cells(max_cells)
        x_lo, y_lo, width, height = self._layout.flat_cell_geometry()
        return np.column_stack([x_lo, y_lo, x_lo + width, y_lo + height])


class UniformGridBuilder(SynopsisBuilder):
    """Builds UG synopses.

    Parameters
    ----------
    grid_size:
        Fixed grid size ``m`` (the paper's ``U_m`` notation).  When ``None``
        the builder applies Guideline 1.
    c:
        Guideline 1 constant (default 10).
    n_estimation_fraction:
        Fraction of the budget spent on a noisy estimate of ``N`` used only
        to size the grid.  0 (the default, matching the paper's
        experiments) sizes from the exact count.
    aspect_adaptive:
        Extension beyond the paper: split the guideline's cell count
        ``m^2`` across the axes proportionally to the domain's aspect
        ratio so cells come out square (``mx / my = width / height``).
        The paper always uses ``m x m`` even on its 360 x 150 domain;
        this option is ablated in ``bench_ablations``.
    postprocess:
        ``"none"`` (default, the paper's setting), ``"clamp"`` (zero out
        negative counts), or ``"project"`` (non-negativity projection
        preserving the noisy total).  Post-processing costs no budget.
    """

    name = "UG"

    def __init__(
        self,
        grid_size: int | None = None,
        c: float = DEFAULT_C,
        n_estimation_fraction: float = 0.0,
        aspect_adaptive: bool = False,
        postprocess: str = "none",
    ):
        if grid_size is not None and grid_size < 1:
            raise ValueError(f"grid_size must be >= 1, got {grid_size}")
        if not 0.0 <= n_estimation_fraction < 1.0:
            raise ValueError(
                f"n_estimation_fraction must be in [0, 1), got {n_estimation_fraction}"
            )
        if postprocess not in POSTPROCESS_CHOICES:
            raise ValueError(
                f"postprocess must be one of {POSTPROCESS_CHOICES}, "
                f"got {postprocess!r}"
            )
        self.grid_size = grid_size
        self.c = c
        self.n_estimation_fraction = n_estimation_fraction
        self.aspect_adaptive = aspect_adaptive
        self.postprocess = postprocess

    def label(self) -> str:
        if self.grid_size is None:
            return f"UG(c={self.c:g})"
        return f"U{self.grid_size}"

    def fit(
        self,
        dataset: GeoDataset,
        epsilon: float,
        rng: np.random.Generator,
        budget: PrivacyBudget | None = None,
    ) -> UniformGridSynopsis:
        rng = ensure_rng(rng)
        budget = self._budget(epsilon, budget)

        histogram_epsilon = epsilon
        m = self.grid_size
        if m is None:
            n_estimate = float(dataset.size)
            if self.n_estimation_fraction > 0.0:
                estimation_epsilon = epsilon * self.n_estimation_fraction
                histogram_epsilon = epsilon - estimation_epsilon
                n_estimate = noisy_count(
                    dataset.size, estimation_epsilon, rng, budget=budget,
                    label="N estimate",
                )
            m = guideline1_grid_size(n_estimate, epsilon, self.c)

        mx, my = self._axis_sizes(m, dataset.domain)
        layout = GridLayout(dataset.domain, mx, my)
        exact = layout.histogram(dataset.points)
        counts = noisy_histogram(
            exact, histogram_epsilon, rng, budget=budget, label="cell counts"
        )
        if self.postprocess != "none":
            counts = apply_postprocess(counts, self.postprocess)
        return UniformGridSynopsis(dataset.domain, epsilon, layout, counts)

    def _axis_sizes(self, m: int, domain) -> tuple[int, int]:
        """Per-axis sizes: square ``m x m`` or aspect-matched cells."""
        if not self.aspect_adaptive:
            return m, m
        # Keep the total cell count ~ m^2 while making cells square:
        # mx / my = width / height and mx * my = m^2.
        aspect = domain.width / domain.height
        mx = max(1, round(m * math.sqrt(aspect)))
        my = max(1, round(m / math.sqrt(aspect)))
        return mx, my

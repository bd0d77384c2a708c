"""Grid hierarchies ``H_{b,d}`` — the paper's Figure 3 baseline.

``H_{b,d}`` builds ``d`` nested equi-width grids over the domain, each
refining the previous by a ``b x b`` branching factor: level sizes are
``m / b^(d-1), ..., m / b, m`` where ``m`` is the leaf grid size.  The
budget is split uniformly across levels, each level's histogram is released
with Laplace noise (one parallel-composition spend per level), and
constrained inference reconciles the levels.

After inference the hierarchy is exactly consistent, so queries can be
answered from the leaf grid alone (summing leaves reproduces every interior
count); the leaf grid is shared with UG's query machinery.

This implementation is array-based rather than node-based: with uniform
branching and one measurement per node at every level, the two inference
passes reduce to per-level scalar-weight updates on count arrays, which
is orders of magnitude faster than a million-node object tree.  The
block operations and :func:`hierarchy_inference` take levels of any
rank, so the 1-D binary hierarchy of :mod:`repro.analysis.one_dim` runs
the same inference.
"""

from __future__ import annotations

import numpy as np

from repro.core.dataset import GeoDataset
from repro.core.geometry import Domain2D
from repro.core.grid import GridLayout
from repro.core.guidelines import DEFAULT_C, guideline1_grid_size
from repro.core.synopsis import SynopsisBuilder
from repro.core.uniform_grid import UniformGridSynopsis
from repro.privacy.budget import PrivacyBudget
from repro.privacy.composition import uniform_allocation
from repro.privacy.mechanisms import ensure_rng, laplace_scale

__all__ = [
    "HierarchicalGridBuilder",
    "HierarchicalGridSynopsis",
    "block_sum",
    "block_repeat",
    "hierarchy_inference",
]


def block_sum(matrix: np.ndarray, factor: int) -> np.ndarray:
    """Sum non-overlapping blocks of ``factor`` cells along every axis.

    Works at any rank: ``factor x factor`` blocks of a 2-D grid, runs of
    ``factor`` buckets of a 1-D histogram.  Every dimension must be
    divisible by ``factor``.
    """
    matrix = np.asarray(matrix, dtype=float)
    if any(size % factor for size in matrix.shape):
        raise ValueError(
            f"shape {matrix.shape} not divisible by block factor {factor}"
        )
    split = [n for size in matrix.shape for n in (size // factor, factor)]
    return matrix.reshape(split).sum(axis=tuple(range(1, 2 * matrix.ndim, 2)))


def block_repeat(matrix: np.ndarray, factor: int) -> np.ndarray:
    """Expand each entry into a block of ``factor`` cells along every axis
    (inverse shape of block_sum)."""
    for axis in range(np.ndim(matrix)):
        matrix = np.repeat(matrix, factor, axis=axis)
    return matrix


def hierarchy_inference(
    noisy_levels: list[np.ndarray],
    variances: list[float],
    branching: int,
) -> list[np.ndarray]:
    """Constrained inference over a stack of nested grid histograms.

    ``noisy_levels[0]`` is the coarsest grid, each subsequent level refines
    by ``branching`` along every axis, so a node has ``branching ** rank``
    children: 4 for a binary 2-D hierarchy, 2 for a binary 1-D one.
    ``variances[l]`` is the per-cell noise variance at level ``l``.
    Returns the consistent weighted-least-squares estimates level by level
    (the array form of Hay et al.'s two passes; weights are scalar per
    level because every node at a level shares the same variance).
    """
    if len(noisy_levels) != len(variances):
        raise ValueError("one variance per level required")
    depth = len(noisy_levels)
    if depth == 0:
        raise ValueError("at least one level required")
    k = branching ** np.ndim(noisy_levels[0])  # children per node

    # Upward pass: z[l] = best estimate from level l's own measurement and
    # the (already combined) levels below it.
    z_levels: list[np.ndarray] = [None] * depth  # type: ignore[list-item]
    z_variances: list[float] = [0.0] * depth
    z_levels[depth - 1] = np.asarray(noisy_levels[depth - 1], dtype=float)
    z_variances[depth - 1] = variances[depth - 1]
    for level in range(depth - 2, -1, -1):
        child_sum = block_sum(z_levels[level + 1], branching)
        child_variance = k * z_variances[level + 1]
        own_variance = variances[level]
        weight_own = child_variance / (own_variance + child_variance)
        z_levels[level] = (
            weight_own * np.asarray(noisy_levels[level], dtype=float)
            + (1.0 - weight_own) * child_sum
        )
        z_variances[level] = own_variance * child_variance / (
            own_variance + child_variance
        )

    # Downward pass: distribute each parent's residual equally among its
    # children (equal z-variances within a level make the shares uniform).
    inferred: list[np.ndarray] = [None] * depth  # type: ignore[list-item]
    inferred[0] = z_levels[0]
    for level in range(1, depth):
        parent_residual = inferred[level - 1] - block_sum(z_levels[level], branching)
        inferred[level] = z_levels[level] + block_repeat(parent_residual, branching) / k
    return inferred


class HierarchicalGridSynopsis(UniformGridSynopsis):
    """The released state of ``H_{b,d}``: the full level stack, flat.

    The inferred leaf grid (held by the :class:`UniformGridSynopsis`
    base) answers queries through the shared prefix-sum engine — after
    constrained inference the hierarchy is exactly consistent, so the
    leaves lose nothing.  The release additionally keeps the *raw* level
    stack in CSR form — per-level sizes, one flat measurement array with
    level offsets, one variance per level — so the measurements survive
    serialization and inference is re-runnable (:meth:`infer_leaf_counts`).
    """

    def __init__(
        self,
        domain: Domain2D,
        epsilon: float,
        layout: GridLayout,
        leaf_counts: np.ndarray,
        branching: int,
        level_sizes: list[int],
        measurements: np.ndarray,
        level_variances: np.ndarray,
    ):
        super().__init__(domain, epsilon, layout, leaf_counts)
        branching = int(branching)
        level_sizes = [int(size) for size in level_sizes]
        if branching < 2:
            raise ValueError(f"branching must be >= 2, got {branching}")
        if not level_sizes:
            raise ValueError("at least one level required")
        for coarse, fine in zip(level_sizes, level_sizes[1:]):
            if fine != coarse * branching:
                raise ValueError(
                    f"level sizes {level_sizes} do not refine by {branching}"
                )
        if (level_sizes[-1], level_sizes[-1]) != layout.shape:
            raise ValueError(
                f"finest level {level_sizes[-1]} does not match leaf grid "
                f"{layout.shape}"
            )
        offsets = np.zeros(len(level_sizes) + 1, dtype=np.int64)
        np.cumsum([size * size for size in level_sizes], out=offsets[1:])
        measurements = np.asarray(measurements, dtype=float)
        if measurements.shape != (offsets[-1],):
            raise ValueError(
                f"measurements shape {measurements.shape} != ({offsets[-1]},)"
            )
        level_variances = np.asarray(level_variances, dtype=float)
        if level_variances.shape != (len(level_sizes),):
            raise ValueError("one variance per level required")
        self._branching = branching
        self._level_sizes = level_sizes
        self._level_offsets = offsets
        self._measurements = measurements
        self._level_variances = level_variances

    @property
    def branching(self) -> int:
        return self._branching

    @property
    def depth(self) -> int:
        return len(self._level_sizes)

    @property
    def level_sizes(self) -> list[int]:
        """Grid sizes, coarsest to finest."""
        return list(self._level_sizes)

    @property
    def level_offsets(self) -> np.ndarray:
        """CSR bounds: level ``l`` occupies ``measurements[off[l]:off[l+1]]``."""
        return self._level_offsets

    @property
    def measurements(self) -> np.ndarray:
        """All raw noisy level histograms, flattened coarsest-first."""
        return self._measurements

    @property
    def level_variances(self) -> np.ndarray:
        """Per-cell measurement variance of each level."""
        return self._level_variances

    def level_measurements(self, level: int) -> np.ndarray:
        """The raw noisy ``s x s`` histogram of one level (a view)."""
        size = self._level_sizes[level]
        lo, hi = self._level_offsets[level], self._level_offsets[level + 1]
        return self._measurements[lo:hi].reshape(size, size)

    def infer_leaf_counts(self) -> np.ndarray:
        """Re-run constrained inference over the stored measurement stack.

        Bit-identical to the counts the builder released (same inputs
        through the same :func:`hierarchy_inference`); serialization
        round-trip tests lean on this.
        """
        if self.depth == 1:
            return self.level_measurements(0).copy()
        noisy_levels = [self.level_measurements(level) for level in range(self.depth)]
        inferred = hierarchy_inference(
            noisy_levels, [float(v) for v in self._level_variances], self._branching
        )
        return inferred[-1]


class HierarchicalGridBuilder(SynopsisBuilder):
    """Builds ``H_{b,d}``: a ``d``-level hierarchy over an ``m x m`` leaf grid.

    Parameters
    ----------
    leaf_grid_size:
        The finest grid size ``m``; must be divisible by
        ``branching^(depth-1)``.  ``None`` applies Guideline 1 and rounds
        up to the next multiple of ``branching^(depth-1)`` (needed by the
        zero-argument service factory).
    branching:
        Per-axis branching factor ``b`` between consecutive levels.
    depth:
        Number of levels ``d`` (``depth = 1`` degenerates to UG at ``m``).
    """

    name = "Hierarchy"

    def __init__(
        self,
        leaf_grid_size: int | None = None,
        branching: int = 2,
        depth: int = 2,
        c: float = DEFAULT_C,
    ):
        if branching < 2:
            raise ValueError(f"branching must be >= 2, got {branching}")
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        if leaf_grid_size is not None:
            if leaf_grid_size < 1:
                raise ValueError(
                    f"leaf_grid_size must be >= 1, got {leaf_grid_size}"
                )
            if leaf_grid_size % (branching ** (depth - 1)):
                raise ValueError(
                    f"leaf grid {leaf_grid_size} not divisible by "
                    f"branching^(depth-1) = {branching ** (depth - 1)}"
                )
        self.leaf_grid_size = leaf_grid_size
        self.branching = branching
        self.depth = depth
        self.c = c

    def label(self) -> str:
        return f"H{self.branching},{self.depth}"

    def _resolve_leaf_size(self, dataset: GeoDataset, epsilon: float) -> int:
        if self.leaf_grid_size is not None:
            return self.leaf_grid_size
        guess = guideline1_grid_size(dataset.size, epsilon, self.c)
        coarsest = self.branching ** (self.depth - 1)
        return max(coarsest, -(-guess // coarsest) * coarsest)

    def level_sizes(self, leaf_grid_size: int | None = None) -> list[int]:
        """Grid sizes from coarsest to finest, e.g. H(2,3) over 360: [90, 180, 360]."""
        m = self.leaf_grid_size if leaf_grid_size is None else leaf_grid_size
        if m is None:
            raise ValueError(
                "leaf grid size is data-dependent (Guideline 1); pass it in"
            )
        return [
            m // (self.branching ** (self.depth - 1 - level))
            for level in range(self.depth)
        ]

    def fit(
        self,
        dataset: GeoDataset,
        epsilon: float,
        rng: np.random.Generator,
        budget: PrivacyBudget | None = None,
    ) -> HierarchicalGridSynopsis:
        rng = ensure_rng(rng)
        budget = self._budget(epsilon, budget)
        leaf_grid_size = self._resolve_leaf_size(dataset, epsilon)

        # One noisy histogram per level, coarsest first.
        leaf_layout = GridLayout(dataset.domain, leaf_grid_size)
        exact_leaf = leaf_layout.histogram(dataset.points)
        level_epsilons = uniform_allocation(epsilon, self.depth)
        sizes = self.level_sizes(leaf_grid_size)
        noisy_levels: list[np.ndarray] = []
        variances: list[float] = []
        for level, (size, level_eps) in enumerate(zip(sizes, level_epsilons)):
            budget.spend(level_eps, f"level {level} counts (size {size})")
            factor = leaf_grid_size // size
            exact = block_sum(exact_leaf, factor) if factor > 1 else exact_leaf
            scale = laplace_scale(1.0, level_eps)
            noisy_levels.append(exact + rng.laplace(0.0, scale, size=exact.shape))
            variances.append(2.0 * scale**2)

        if self.depth == 1:
            leaf_counts = noisy_levels[0]
        else:
            inferred = hierarchy_inference(noisy_levels, variances, self.branching)
            leaf_counts = inferred[-1]

        # Consistency means leaf sums reproduce every interior estimate,
        # so queries run off the leaf grid alone; the raw stack rides
        # along for serialization.
        return HierarchicalGridSynopsis(
            dataset.domain,
            epsilon,
            leaf_layout,
            leaf_counts,
            self.branching,
            sizes,
            np.concatenate([level.ravel() for level in noisy_levels]),
            np.asarray(variances),
        )

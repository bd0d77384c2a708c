"""The Privelet baseline (Xiao, Wang, Gehrke, TKDE 2011).

Privelet releases a histogram through a **Haar wavelet transform**: noise is
added to wavelet coefficients instead of raw cell counts, which makes the
noise in a range query partially cancel (a range of length L touches only
``O(log L)`` coefficients instead of ``O(L)`` cells).

For a 1-D frequency vector of length ``n = 2^h``:

* the *base* coefficient is the overall mean;
* the *detail* coefficient of a node covering ``s`` cells is
  ``(mean of left half - mean of right half) / 2``.

Adding one tuple changes the base coefficient by ``1/n`` and each detail
coefficient on its root-to-leaf path by ``1/s``.  Privelet assigns weight
``W(c) = s`` (subtree size) to each coefficient; the *generalised
sensitivity* is then ``sum(W * |delta|) = 1 + log2(n)`` and each
coefficient receives noise ``Lap(GS / (eps * W(c)))``.

Two-dimensional data uses the **standard decomposition**: transform every
row, then every column of the result.  Coefficient weights multiply and the
generalised sensitivity becomes ``(1 + log2 nx) * (1 + log2 ny)``.

Grids whose size is not a power of two are zero-padded (the padding cells
lie outside any real data, so sensitivity is unaffected) and cropped after
the inverse transform.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.dataset import GeoDataset
from repro.core.grid import GridLayout
from repro.core.guidelines import DEFAULT_C, guideline1_grid_size
from repro.core.synopsis import SynopsisBuilder
from repro.core.uniform_grid import UniformGridSynopsis
from repro.privacy.budget import PrivacyBudget
from repro.privacy.mechanisms import ensure_rng

__all__ = [
    "PriveletBuilder",
    "PriveletSynopsis",
    "haar_forward",
    "haar_inverse",
    "haar_forward_matrix",
    "haar_inverse_matrix",
    "reconstruct_counts",
    "coefficient_weights",
    "generalised_sensitivity",
]


def _check_power_of_two(n: int) -> int:
    if n < 1 or (n & (n - 1)):
        raise ValueError(f"length must be a power of two, got {n}")
    return int(math.log2(n))


def haar_forward(vector: np.ndarray) -> np.ndarray:
    """Unnormalised Haar transform of a length ``2^h`` vector.

    Output layout: index 0 holds the base coefficient (overall mean);
    indices ``2^l .. 2^(l+1) - 1`` hold the detail coefficients of level
    ``l`` (level 0 = the root detail, covering the whole vector).
    """
    vector = np.asarray(vector, dtype=float)
    n = vector.size
    h = _check_power_of_two(n)
    coefficients = np.empty(n)
    averages = vector
    # Peel one resolution level per iteration, finest first.
    for level in range(h - 1, -1, -1):
        left = averages[0::2]
        right = averages[1::2]
        coefficients[2**level : 2 ** (level + 1)] = (left - right) / 2.0
        averages = (left + right) / 2.0
    coefficients[0] = averages[0]
    return coefficients


def haar_inverse(coefficients: np.ndarray) -> np.ndarray:
    """Inverse of :func:`haar_forward`."""
    coefficients = np.asarray(coefficients, dtype=float)
    n = coefficients.size
    h = _check_power_of_two(n)
    averages = np.array([coefficients[0]])
    for level in range(h):
        details = coefficients[2**level : 2 ** (level + 1)]
        expanded = np.empty(averages.size * 2)
        expanded[0::2] = averages + details
        expanded[1::2] = averages - details
        averages = expanded
    return averages


def haar_forward_matrix(matrix: np.ndarray, axis: int) -> np.ndarray:
    """Vectorised :func:`haar_forward` along one axis of a 2-D array.

    Every lane runs the exact per-element arithmetic of the 1-D
    transform (the butterfly operations are elementwise), so the result
    is bit-identical to ``np.apply_along_axis(haar_forward, axis, m)``
    without the per-lane Python dispatch.
    """
    lanes = np.moveaxis(np.asarray(matrix, dtype=float), axis, -1)
    n = lanes.shape[-1]
    h = _check_power_of_two(n)
    coefficients = np.empty_like(lanes)
    averages = lanes
    for level in range(h - 1, -1, -1):
        left = averages[..., 0::2]
        right = averages[..., 1::2]
        coefficients[..., 2**level : 2 ** (level + 1)] = (left - right) / 2.0
        averages = (left + right) / 2.0
    coefficients[..., 0] = averages[..., 0]
    return np.moveaxis(coefficients, -1, axis)


def haar_inverse_matrix(matrix: np.ndarray, axis: int) -> np.ndarray:
    """Vectorised :func:`haar_inverse` along one axis of a 2-D array.

    Bit-identical per lane to the ``apply_along_axis`` form for the same
    reason as :func:`haar_forward_matrix`.
    """
    lanes = np.moveaxis(np.asarray(matrix, dtype=float), axis, -1)
    n = lanes.shape[-1]
    h = _check_power_of_two(n)
    averages = lanes[..., :1]
    for level in range(h):
        details = lanes[..., 2**level : 2 ** (level + 1)]
        expanded = np.empty(averages.shape[:-1] + (averages.shape[-1] * 2,))
        expanded[..., 0::2] = averages + details
        expanded[..., 1::2] = averages - details
        averages = expanded
    return np.moveaxis(averages, -1, axis)


def reconstruct_counts(coefficients: np.ndarray, m: int) -> np.ndarray:
    """Grid counts from a noisy 2-D coefficient matrix (crop to ``m x m``).

    The single reconstruction path shared by the builder and the
    serialization loader, so a release loaded from disk carries counts
    bit-identical to the ones the builder produced.
    """
    reconstructed = haar_inverse_matrix(coefficients, 0)
    reconstructed = haar_inverse_matrix(reconstructed, 1)
    return reconstructed[:m, :m]


def coefficient_weights(n: int) -> np.ndarray:
    """Privelet weights ``W(c)``: subtree size per coefficient position.

    ``W = n`` for the base coefficient; a detail coefficient at level ``l``
    covers ``n / 2^l`` cells.
    """
    h = _check_power_of_two(n)
    weights = np.empty(n)
    weights[0] = n
    for level in range(h):
        weights[2**level : 2 ** (level + 1)] = n / (2**level)
    return weights


def generalised_sensitivity(n: int) -> float:
    """Generalised sensitivity ``1 + log2(n)`` of the weighted 1-D transform."""
    h = _check_power_of_two(n)
    return 1.0 + h


def _next_power_of_two(n: int) -> int:
    power = 1
    while power < n:
        power *= 2
    return power


class PriveletSynopsis(UniformGridSynopsis):
    """The released state of Privelet: noisy Haar coefficients plus the
    reconstructed grid.

    The ``p x p`` coefficient matrix is the *primary* release (what the
    archive stores); the reconstructed ``m x m`` counts (held by the
    :class:`UniformGridSynopsis` base, rebuilt on load) are the same
    estimator in the cell basis.  Every range estimate is the bilinear
    form of the cropped reconstruction, so the declared engine is the
    one grid kernel, :class:`~repro.queries.engine.BatchQueryEngine`,
    over the reconstructed grid — four corner gathers per query — and
    the scalar :meth:`answer` is UG's direct grid estimate over the same
    counts, an independent path the engine is checked against.
    """

    def __init__(
        self,
        domain,
        epsilon: float,
        layout: GridLayout,
        counts: np.ndarray,
        coefficients: np.ndarray,
    ):
        super().__init__(domain, epsilon, layout, counts)
        coefficients = np.asarray(coefficients, dtype=float)
        if (
            coefficients.ndim != 2
            or coefficients.shape[0] != coefficients.shape[1]
        ):
            raise ValueError(
                f"coefficients must be square, got {coefficients.shape}"
            )
        _check_power_of_two(coefficients.shape[0])
        if coefficients.shape[0] < max(layout.shape):
            raise ValueError(
                f"coefficient size {coefficients.shape[0]} smaller than "
                f"grid {layout.shape}"
            )
        self._coefficients = coefficients

    @property
    def coefficients(self) -> np.ndarray:
        """The ``p x p`` noisy Haar coefficient matrix (padded grid)."""
        return self._coefficients


class PriveletBuilder(SynopsisBuilder):
    """Builds the ``W_m`` baseline: Privelet over an ``m x m`` grid.

    Parameters
    ----------
    grid_size:
        Leaf grid size ``m``; ``None`` applies Guideline 1 (the paper's
        ``W_m`` always pairs Privelet with an explicitly chosen grid, but
        the guideline default makes the builder usable standalone).
    """

    name = "Privelet"

    def __init__(self, grid_size: int | None = None, c: float = DEFAULT_C):
        if grid_size is not None and grid_size < 1:
            raise ValueError(f"grid_size must be >= 1, got {grid_size}")
        self.grid_size = grid_size
        self.c = c

    def label(self) -> str:
        if self.grid_size is None:
            return "Privelet(auto)"
        return f"W{self.grid_size}"

    def fit(
        self,
        dataset: GeoDataset,
        epsilon: float,
        rng: np.random.Generator,
        budget: PrivacyBudget | None = None,
    ) -> PriveletSynopsis:
        rng = ensure_rng(rng)
        budget = self._budget(epsilon, budget)

        m = self.grid_size
        if m is None:
            m = guideline1_grid_size(dataset.size, epsilon, self.c)

        layout = GridLayout(dataset.domain, m, m)
        exact = layout.histogram(dataset.points)

        padded = _next_power_of_two(m)
        matrix = np.zeros((padded, padded))
        matrix[:m, :m] = exact

        # Standard decomposition: rows then columns.  The vectorised
        # transforms are bit-identical per lane to apply_along_axis over
        # the 1-D haar_forward, so the noise stream consumes the same
        # draws against the same coefficients.
        coefficients = haar_forward_matrix(matrix, 1)
        coefficients = haar_forward_matrix(coefficients, 0)

        weights_1d = coefficient_weights(padded)
        weight_matrix = np.outer(weights_1d, weights_1d)
        sensitivity_2d = generalised_sensitivity(padded) ** 2

        budget.spend(epsilon, "wavelet coefficients")
        scales = sensitivity_2d / (epsilon * weight_matrix)
        noisy = coefficients + rng.laplace(0.0, 1.0, size=coefficients.shape) * scales

        counts = reconstruct_counts(noisy, m)
        return PriveletSynopsis(dataset.domain, epsilon, layout, counts, noisy)

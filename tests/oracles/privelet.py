"""Reference oracle for the Privelet build.

:func:`fit_per_lane` transforms with ``np.apply_along_axis`` over the
1-D :func:`~repro.baselines.privelet.haar_forward` and
:func:`~repro.baselines.privelet.haar_inverse`, one lane at a time, and
releases a plain grid synopsis.  It is an independent oracle for the
vectorised transforms :meth:`~repro.baselines.privelet.PriveletBuilder.fit`
uses: ``fit`` must release bit-identical counts and consume the same
noise stream.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.privelet import (
    PriveletBuilder,
    _next_power_of_two,
    coefficient_weights,
    generalised_sensitivity,
    haar_forward,
    haar_inverse,
)
from repro.core.dataset import GeoDataset
from repro.core.grid import GridLayout
from repro.core.guidelines import guideline1_grid_size
from repro.core.uniform_grid import UniformGridSynopsis
from repro.privacy.budget import PrivacyBudget
from repro.privacy.mechanisms import ensure_rng

__all__ = ["fit_per_lane"]


def fit_per_lane(
    builder: PriveletBuilder,
    dataset: GeoDataset,
    epsilon: float,
    rng: np.random.Generator,
    budget: PrivacyBudget | None = None,
) -> UniformGridSynopsis:
    """``builder.fit`` with per-lane transforms (see module doc)."""
    rng = ensure_rng(rng)
    budget = builder._budget(epsilon, budget)

    m = builder.grid_size
    if m is None:
        m = guideline1_grid_size(dataset.size, epsilon, builder.c)

    layout = GridLayout(dataset.domain, m, m)
    exact = layout.histogram(dataset.points)

    padded = _next_power_of_two(m)
    matrix = np.zeros((padded, padded))
    matrix[:m, :m] = exact

    coefficients = np.apply_along_axis(haar_forward, 1, matrix)
    coefficients = np.apply_along_axis(haar_forward, 0, coefficients)

    weights_1d = coefficient_weights(padded)
    weight_matrix = np.outer(weights_1d, weights_1d)
    sensitivity_2d = generalised_sensitivity(padded) ** 2

    budget.spend(epsilon, "wavelet coefficients")
    scales = sensitivity_2d / (epsilon * weight_matrix)
    noisy = coefficients + rng.laplace(0.0, 1.0, size=coefficients.shape) * scales

    reconstructed = np.apply_along_axis(haar_inverse, 0, noisy)
    reconstructed = np.apply_along_axis(haar_inverse, 1, reconstructed)
    counts = reconstructed[:m, :m]

    return UniformGridSynopsis(dataset.domain, epsilon, layout, counts)

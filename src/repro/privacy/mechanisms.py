"""Differentially private primitives: the Laplace and exponential mechanisms.

All noise in the library flows through this module so that (a) every noisy
release is charged to a :class:`~repro.privacy.budget.PrivacyBudget` and
(b) randomness is always drawn from an explicitly supplied
``numpy.random.Generator``, which keeps experiments reproducible.

The paper uses:

* the **Laplace mechanism** for all count queries (sensitivity 1 for a
  histogram over disjoint cells, by parallel composition), and
* the **exponential mechanism** inside the KD-tree baselines to select
  noisy medians over a node's extent (Cormode et al., ICDE 2012).
"""

from __future__ import annotations

import math

import numpy as np

from repro.privacy.budget import PrivacyBudget

__all__ = [
    "ensure_rng",
    "laplace_scale",
    "laplace_noise",
    "laplace_mechanism",
    "noisy_count",
    "noisy_histogram",
    "exponential_mechanism",
    "noisy_median",
]


def ensure_rng(rng: np.random.Generator | int | None) -> np.random.Generator:
    """Coerce ``rng`` into a ``numpy.random.Generator``.

    Accepts an existing generator (returned as-is), an integer seed, or
    ``None`` for OS-seeded randomness.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def laplace_scale(sensitivity: float, epsilon: float) -> float:
    """The Laplace scale parameter ``b = sensitivity / epsilon``.

    The resulting ``Lap(b)`` noise has standard deviation ``sqrt(2) * b``.
    """
    if sensitivity <= 0:
        raise ValueError(f"sensitivity must be positive, got {sensitivity}")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    return sensitivity / epsilon


def laplace_noise(
    scale: float,
    rng: np.random.Generator,
    size: int | tuple[int, ...] | None = None,
) -> np.ndarray | float:
    """Draw Laplace noise with the given scale.

    Returns a scalar when ``size`` is ``None``, otherwise an array.
    """
    if scale <= 0:
        raise ValueError(f"Laplace scale must be positive, got {scale}")
    return rng.laplace(loc=0.0, scale=scale, size=size)


def laplace_mechanism(
    value: float | np.ndarray,
    epsilon: float,
    rng: np.random.Generator,
    sensitivity: float = 1.0,
    budget: PrivacyBudget | None = None,
    label: str = "laplace",
) -> float | np.ndarray:
    """Release ``value + Lap(sensitivity / epsilon)`` noise (element-wise).

    When ``value`` is an array, the *same* epsilon is charged once: the
    caller asserts that the components have combined L1 sensitivity
    ``sensitivity`` (e.g. a histogram over disjoint cells).  If ``budget``
    is given, the spend is recorded against it.
    """
    if budget is not None:
        budget.spend(epsilon, label)
    scale = laplace_scale(sensitivity, epsilon)
    value = np.asarray(value, dtype=float)
    noise = laplace_noise(scale, rng, size=value.shape if value.shape else None)
    result = value + noise
    if result.ndim == 0:
        return float(result)
    return result


def noisy_count(
    count: float,
    epsilon: float,
    rng: np.random.Generator,
    budget: PrivacyBudget | None = None,
    label: str = "count",
) -> float:
    """A single differentially private count (sensitivity 1)."""
    return float(
        laplace_mechanism(count, epsilon, rng, sensitivity=1.0, budget=budget, label=label)
    )


def noisy_histogram(
    counts: np.ndarray,
    epsilon: float,
    rng: np.random.Generator,
    budget: PrivacyBudget | None = None,
    label: str = "histogram",
) -> np.ndarray:
    """A differentially private histogram over *disjoint* cells.

    Each tuple contributes to exactly one cell, so by parallel composition
    adding independent ``Lap(1 / epsilon)`` noise to every cell satisfies
    ``epsilon``-DP overall and is charged as a single spend.
    """
    counts = np.asarray(counts, dtype=float)
    return np.asarray(
        laplace_mechanism(counts, epsilon, rng, sensitivity=1.0, budget=budget, label=label)
    )


def exponential_mechanism(
    utilities: np.ndarray,
    epsilon: float,
    rng: np.random.Generator,
    sensitivity: float = 1.0,
    budget: PrivacyBudget | None = None,
    label: str = "exponential",
) -> int:
    """Sample an index with probability proportional to ``exp(eps * u / (2 * GS))``.

    ``utilities`` is a 1-D array of scores; higher is better.  Uses the
    log-sum-exp trick for numerical stability, so very negative utilities
    are safe.
    """
    utilities = np.asarray(utilities, dtype=float)
    if utilities.ndim != 1 or utilities.size == 0:
        raise ValueError("utilities must be a non-empty 1-D array")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if sensitivity <= 0:
        raise ValueError(f"sensitivity must be positive, got {sensitivity}")
    if budget is not None:
        budget.spend(epsilon, label)
    logits = (epsilon / (2.0 * sensitivity)) * utilities
    logits = logits - logits.max()
    weights = np.exp(logits)
    probabilities = weights / weights.sum()
    return int(rng.choice(utilities.size, p=probabilities))


def noisy_median(
    sorted_values: np.ndarray,
    lo: float,
    hi: float,
    epsilon: float,
    rng: np.random.Generator,
    budget: PrivacyBudget | None = None,
) -> float:
    """A differentially private median over the extent ``[lo, hi]``.

    The exponential mechanism over the whole extent, as Cormode et al.
    (ICDE 2012) define the private median.  The ``n + 1`` intervals lie
    between consecutive sorted values, with ``lo`` and ``hi`` closing the
    two ends; interval ``j`` has weight
    ``length * exp(-(epsilon / 2) * |j - n / 2|)``, the rank-distance
    utility with sensitivity 1.  The output is uniform inside the chosen
    interval, so it is never a data value: zero-length intervals (ties)
    are never chosen, and an empty input gives a uniform draw over the
    extent.  A draw that lands exactly on ``lo`` or ``hi`` returns the
    midpoint ``(lo + hi) / 2``.  This is the split primitive of the
    KD-tree baselines, whose level builder draws from the same
    distribution for every node of a level at once.
    """
    sorted_values = np.asarray(sorted_values, dtype=float)
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if sorted_values.ndim != 1 or (
        sorted_values.size
        and (
            sorted_values[0] < lo
            or sorted_values[-1] > hi
            or np.any(np.diff(sorted_values) < 0)
        )
    ):
        raise ValueError("sorted_values must be a sorted 1-D array within [lo, hi]")
    if budget is not None:
        budget.spend(epsilon, "median")
    n = sorted_values.size
    lower = np.concatenate([[lo], sorted_values])
    lengths = np.concatenate([sorted_values, [hi]]) - lower
    with np.errstate(divide="ignore"):
        log_weights = np.log(lengths) - (epsilon / 2.0) * np.abs(
            np.arange(n + 1) - n / 2.0
        )
    weights = np.exp(log_weights - log_weights.max())
    index = int(rng.choice(n + 1, p=weights / weights.sum()))
    split = float(lower[index] + rng.random() * lengths[index])
    return split if lo < split < hi else (lo + hi) / 2.0


def laplace_variance(epsilon: float, sensitivity: float = 1.0) -> float:
    """Variance ``2 * (sensitivity / epsilon)^2`` of the Laplace mechanism."""
    return 2.0 * laplace_scale(sensitivity, epsilon) ** 2


def laplace_stddev(epsilon: float, sensitivity: float = 1.0) -> float:
    """Standard deviation ``sqrt(2) * sensitivity / epsilon``."""
    return math.sqrt(laplace_variance(epsilon, sensitivity))

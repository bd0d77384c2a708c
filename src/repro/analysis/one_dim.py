"""One-dimensional counterparts of UG and the hierarchy.

Section IV-C's argument rests on a contrast: binary hierarchies with
constrained inference are *very* effective for 1-D range queries (Hay et
al.) but much less so in 2-D.  To reproduce that contrast empirically —
not just via the closed-form border model — this module implements the
1-D versions of both methods over an ``m``-bucket histogram:

* :func:`flat_histogram` — noisy counts per bucket (1-D "UG");
* :func:`hierarchical_histogram` — a binary tree of interval counts with
  uniform per-level budgets and constrained inference, answered at the
  leaves;
* :func:`range_query` — interval sums with fractional end buckets;
* :func:`compare_methods` — Monte-Carlo mean error of both on random
  interval queries, the measurement behind the "hierarchies win big in
  1-D" claim.

The module is also servable: :class:`OneDimHistogramSynopsis` releases
the hierarchical histogram over a 2-D dataset's *x-marginal* and answers
rectangle queries as (interval estimate) x (fractional y-coverage of the
domain) — the uniformity assumption applied on the unmodelled axis.  It
is declared in both service tables: method ``Hier1d`` in
:mod:`repro.service.keys`, and kind ``one_dim`` in
:mod:`repro.core.serialization`, whose row serves batches through the
grid kernel :class:`~repro.queries.engine.BatchQueryEngine` over the
release as an ``m x 1`` grid of the domain: one cell spans the whole
y-extent, so a query's y-coverage fraction is that cell's overlap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.hierarchy import hierarchy_inference
from repro.core.dataset import GeoDataset
from repro.core.geometry import Domain2D, Rect, interval_overlap
from repro.core.synopsis import Synopsis, SynopsisBuilder
from repro.privacy.budget import PrivacyBudget
from repro.privacy.mechanisms import ensure_rng, laplace_scale

__all__ = [
    "flat_histogram",
    "hierarchical_histogram",
    "wavelet_histogram",
    "range_query",
    "OneDimComparison",
    "compare_methods",
    "OneDimHistogramSynopsis",
    "OneDimHistogramBuilder",
]


def _check_counts(counts: np.ndarray) -> np.ndarray:
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 1 or counts.size == 0:
        raise ValueError("counts must be a non-empty 1-D array")
    return counts


def flat_histogram(
    counts: np.ndarray,
    epsilon: float,
    rng: np.random.Generator,
    budget: PrivacyBudget | None = None,
) -> np.ndarray:
    """1-D UG: independent Laplace noise on every bucket (one spend)."""
    counts = _check_counts(counts)
    budget = budget if budget is not None else PrivacyBudget(epsilon)
    budget.spend(epsilon, "1-d histogram")
    scale = laplace_scale(1.0, epsilon)
    return counts + rng.laplace(0.0, scale, size=counts.shape)


def hierarchical_histogram(
    counts: np.ndarray,
    epsilon: float,
    rng: np.random.Generator,
    budget: PrivacyBudget | None = None,
) -> np.ndarray:
    """1-D binary hierarchy with constrained inference, returned as leaves.

    The bucket count must be a power of two.  The budget is split evenly
    across the ``log2(m) + 1`` levels; each level is a disjoint partition
    (one parallel-composition spend per level).  After inference the tree
    is consistent, so releasing the leaf vector loses nothing.

    Implementation note: the 2-D array inference engine is reused by
    viewing the histogram as an ``m x 1`` grid would break the branching
    arithmetic, so levels are built as ``(m / 2^l,)`` vectors and fed to
    :func:`~repro.baselines.hierarchy.hierarchy_inference` reshaped as
    ``(k, 1)`` matrices with branching applied on the first axis only via
    pairwise sums.
    """
    counts = _check_counts(counts)
    m = counts.size
    if m & (m - 1):
        raise ValueError(f"bucket count must be a power of two, got {m}")
    depth = int(np.log2(m)) + 1
    budget = budget if budget is not None else PrivacyBudget(epsilon)
    level_epsilon = epsilon / depth

    # Build exact level sums from the root (1 bucket) down to the leaves.
    exact_levels: list[np.ndarray] = [counts]
    while exact_levels[-1].size > 1:
        level = exact_levels[-1]
        exact_levels.append(level[0::2] + level[1::2])
    exact_levels.reverse()  # coarsest first

    noisy_levels = []
    variances = []
    scale = laplace_scale(1.0, level_epsilon)
    for index, level in enumerate(exact_levels):
        budget.spend(level_epsilon, f"1-d level {index} ({level.size} buckets)")
        noisy_levels.append(level + rng.laplace(0.0, scale, size=level.shape))
        variances.append(2.0 * scale**2)

    # Reuse the 2-D inference engine on (k, 1)-shaped matrices with a
    # synthetic second axis: branching b=2 on axis 0 requires square
    # blocks, so instead run the generic scalar-weight recursion here.
    inferred = _infer_1d(noisy_levels, variances)
    return inferred[-1]


def wavelet_histogram(
    counts: np.ndarray,
    epsilon: float,
    rng: np.random.Generator,
    budget: PrivacyBudget | None = None,
) -> np.ndarray:
    """1-D Privelet: Haar-transform, noise coefficients, invert.

    Uses the same weighting as the 2-D baseline
    (:mod:`repro.baselines.privelet`): coefficient weight = subtree size,
    generalised sensitivity ``1 + log2(m)``, noise
    ``Lap(GS / (eps * weight))`` per coefficient.  The bucket count must
    be a power of two.
    """
    from repro.baselines.privelet import (
        coefficient_weights,
        generalised_sensitivity,
        haar_forward,
        haar_inverse,
    )

    counts = _check_counts(counts)
    m = counts.size
    if m & (m - 1):
        raise ValueError(f"bucket count must be a power of two, got {m}")
    budget = budget if budget is not None else PrivacyBudget(epsilon)
    budget.spend(epsilon, "1-d wavelet coefficients")
    coefficients = haar_forward(counts)
    weights = coefficient_weights(m)
    scales = generalised_sensitivity(m) / (epsilon * weights)
    noisy = coefficients + rng.laplace(0.0, 1.0, size=m) * scales
    return haar_inverse(noisy)


def _infer_1d(
    noisy_levels: list[np.ndarray], variances: list[float]
) -> list[np.ndarray]:
    """Two-pass WLS inference for a binary 1-D hierarchy (coarsest first)."""
    depth = len(noisy_levels)
    z_levels: list[np.ndarray] = [None] * depth  # type: ignore[list-item]
    z_variances = [0.0] * depth
    z_levels[-1] = noisy_levels[-1]
    z_variances[-1] = variances[-1]
    for level in range(depth - 2, -1, -1):
        below = z_levels[level + 1]
        child_sum = below[0::2] + below[1::2]
        child_variance = 2.0 * z_variances[level + 1]
        own = variances[level]
        weight_own = child_variance / (own + child_variance)
        z_levels[level] = weight_own * noisy_levels[level] + (
            1.0 - weight_own
        ) * child_sum
        z_variances[level] = own * child_variance / (own + child_variance)

    inferred: list[np.ndarray] = [None] * depth  # type: ignore[list-item]
    inferred[0] = z_levels[0]
    for level in range(1, depth):
        z = z_levels[level]
        parent_residual = inferred[level - 1] - (z[0::2] + z[1::2])
        inferred[level] = z + np.repeat(parent_residual, 2) / 2.0
    return inferred


def range_query(released: np.ndarray, lo: float, hi: float) -> float:
    """Interval-sum estimate over ``[lo, hi]`` in bucket coordinates.

    ``lo`` and ``hi`` are fractional bucket positions in ``[0, m]``;
    partially covered end buckets contribute proportionally (the 1-D
    uniformity assumption).
    """
    released = _check_counts(released)
    m = released.size
    lo = max(0.0, min(float(lo), m))
    hi = max(0.0, min(float(hi), m))
    if hi <= lo:
        return 0.0
    first = int(lo)
    last = min(int(np.ceil(hi)) - 1, m - 1)
    total = float(released[first : last + 1].sum())
    total -= released[first] * (lo - first)
    total -= released[last] * (last + 1 - hi)
    return total


@dataclass(frozen=True)
class OneDimComparison:
    """Mean absolute range-query errors of the two 1-D methods."""

    flat_error: float
    hierarchy_error: float

    @property
    def improvement(self) -> float:
        """How many times better the hierarchy is (> 1 means it wins)."""
        if self.hierarchy_error == 0:
            return float("inf")
        return self.flat_error / self.hierarchy_error


def compare_methods(
    counts: np.ndarray,
    epsilon: float,
    rng: np.random.Generator | int | None,
    n_queries: int = 200,
    n_trials: int = 5,
) -> OneDimComparison:
    """Monte-Carlo comparison of flat vs hierarchical 1-D release.

    Random intervals of random lengths are asked of both releases; the
    returned means quantify Section IV-C's premise that hierarchies are
    very effective in 1-D.
    """
    counts = _check_counts(counts)
    rng = ensure_rng(rng)
    m = counts.size
    queries = []
    for _ in range(n_queries):
        length = rng.uniform(1.0, m)
        start = rng.uniform(0.0, m - length)
        queries.append((start, start + length))
    truths = np.array([range_query(counts, lo, hi) for lo, hi in queries])

    flat_errors, hierarchy_errors = [], []
    for _ in range(n_trials):
        flat = flat_histogram(counts, epsilon, rng)
        tree = hierarchical_histogram(counts, epsilon, rng)
        flat_answers = np.array([range_query(flat, lo, hi) for lo, hi in queries])
        tree_answers = np.array([range_query(tree, lo, hi) for lo, hi in queries])
        flat_errors.append(np.abs(flat_answers - truths).mean())
        hierarchy_errors.append(np.abs(tree_answers - truths).mean())
    return OneDimComparison(
        flat_error=float(np.mean(flat_errors)),
        hierarchy_error=float(np.mean(hierarchy_errors)),
    )


# ----------------------------------------------------------------------
# Servable release: the 1-D hierarchy over a 2-D dataset's x-marginal
# ----------------------------------------------------------------------


class OneDimHistogramSynopsis(Synopsis):
    """Released 1-D hierarchical histogram of a dataset's x-marginal.

    The released state is the inferred leaf vector of
    :func:`hierarchical_histogram` over ``m`` equi-width buckets spanning
    the domain's x-extent.  A rectangle query is answered as the
    fractional interval sum over x (:func:`range_query` semantics) scaled
    by the fraction of the domain's y-extent the rectangle covers — the
    uniformity assumption applied to the axis the release does not model.
    This is the 1-D contrast method of Section IV-C made servable, not a
    competitor to the 2-D families.
    """

    def __init__(self, domain: Domain2D, epsilon: float, released: np.ndarray):
        super().__init__(domain, epsilon)
        released = _check_counts(released)
        if released.size & (released.size - 1):
            raise ValueError(
                f"bucket count must be a power of two, got {released.size}"
            )
        self._released = released
        self._engine = None  # lazy BatchQueryEngine for answer_many

    @property
    def released(self) -> np.ndarray:
        """The inferred leaf counts (may contain negative values)."""
        return self._released

    @property
    def n_buckets(self) -> int:
        return self._released.size

    def _fractions(self, rect: Rect) -> tuple[float, float, float]:
        """Map a rect to (x bucket interval, y coverage fraction)."""
        bounds = self._domain.bounds
        if bounds.width <= 0 or bounds.height <= 0:
            return 0.0, 0.0, 0.0
        scale = self._released.size / bounds.width
        lo = (rect.x_lo - bounds.x_lo) * scale
        hi = (rect.x_hi - bounds.x_lo) * scale
        y_fraction = (
            interval_overlap(rect.y_lo, rect.y_hi, bounds.y_lo, bounds.y_hi)
            / bounds.height
        )
        return lo, hi, y_fraction

    def answer(self, rect: Rect) -> float:
        lo, hi, y_fraction = self._fractions(rect)
        if y_fraction == 0.0:
            return 0.0
        return range_query(self._released, lo, hi) * y_fraction

    def answer_many(self, rects: "list[Rect] | np.ndarray") -> np.ndarray:
        """Vectorised batch answering via the declared engine."""
        if self._engine is None:
            from repro.queries.engine import make_engine

            self._engine = make_engine(self)
        return self._engine.answer_batch(rects)


class OneDimHistogramBuilder(SynopsisBuilder):
    """Builds :class:`OneDimHistogramSynopsis` releases.

    Histograms the x-coordinates into ``n_buckets`` equi-width buckets
    (a disjoint partition of the domain, so the full hierarchy costs one
    ``epsilon`` under the per-level split of
    :func:`hierarchical_histogram`).
    """

    name = "Hier1d"

    def __init__(self, n_buckets: int = 256):
        if n_buckets < 1 or n_buckets & (n_buckets - 1):
            raise ValueError(
                f"n_buckets must be a power of two, got {n_buckets}"
            )
        self.n_buckets = n_buckets

    def label(self) -> str:
        return f"{self.name}(m={self.n_buckets})"

    def fit(
        self,
        dataset: GeoDataset,
        epsilon: float,
        rng: np.random.Generator,
        budget: PrivacyBudget | None = None,
    ) -> OneDimHistogramSynopsis:
        budget = self._budget(epsilon, budget)
        rng = ensure_rng(rng)
        bounds = dataset.domain.bounds
        counts, _ = np.histogram(
            dataset.xs, bins=self.n_buckets, range=(bounds.x_lo, bounds.x_hi)
        )
        released = hierarchical_histogram(
            counts.astype(float), epsilon, rng, budget
        )
        return OneDimHistogramSynopsis(dataset.domain, epsilon, released)

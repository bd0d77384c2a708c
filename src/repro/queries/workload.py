"""Query-workload generation (Section V-A of the paper).

The paper evaluates every method on six query sizes ``q1 .. q6``: ``q6``
covers between a quarter and a half of the domain and each smaller size
halves both the x and y extent (quartering the area).  For each size, 200
rectangles are placed uniformly at random inside the domain.

:class:`QueryWorkload` captures that construction and pairs each generated
rectangle with its exact answer so evaluation code never recomputes ground
truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.dataset import GeoDataset
from repro.core.geometry import Domain2D, Rect
from repro.privacy.mechanisms import ensure_rng

__all__ = [
    "QuerySize",
    "SizedQuerySet",
    "QueryWorkload",
    "paper_query_sizes",
    "nd_hyperrectangle_workload",
]

#: Number of query sizes in the paper's workloads.
N_SIZES = 6

#: Queries generated per size in the paper's experiments.
DEFAULT_QUERIES_PER_SIZE = 200


@dataclass(frozen=True)
class QuerySize:
    """One of the workload's rectangle sizes (width x height)."""

    label: str
    width: float
    height: float

    @property
    def area(self) -> float:
        return self.width * self.height


def paper_query_sizes(
    q6_width: float, q6_height: float, n_sizes: int = N_SIZES
) -> list[QuerySize]:
    """The doubling ladder of query sizes ``q1 .. q6``.

    ``q_{i+1}`` doubles both extents of ``q_i``, so given the largest size
    ``q6`` the ladder is ``q6 / 2^(6-i)`` per axis.

    >>> [s.width for s in paper_query_sizes(16.0, 16.0)]
    [0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
    """
    if q6_width <= 0 or q6_height <= 0:
        raise ValueError("q6 extents must be positive")
    if n_sizes < 1:
        raise ValueError(f"n_sizes must be >= 1, got {n_sizes}")
    sizes = []
    for i in range(1, n_sizes + 1):
        factor = 2.0 ** (n_sizes - i)
        sizes.append(QuerySize(f"q{i}", q6_width / factor, q6_height / factor))
    return sizes


@dataclass
class SizedQuerySet:
    """All queries of one size together with their exact answers."""

    size: QuerySize
    rects: list[Rect]
    true_answers: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __len__(self) -> int:
        return len(self.rects)


class QueryWorkload:
    """A full evaluation workload: several sizes x many random rectangles.

    Build one with :meth:`generate`; iterate over :attr:`query_sets` (one
    per size, smallest first).
    """

    def __init__(self, query_sets: list[SizedQuerySet], domain: Domain2D):
        self._query_sets = query_sets
        self._domain = domain

    @classmethod
    def generate(
        cls,
        dataset: GeoDataset,
        q6_width: float,
        q6_height: float,
        rng: np.random.Generator | int | None,
        queries_per_size: int = DEFAULT_QUERIES_PER_SIZE,
        n_sizes: int = N_SIZES,
    ) -> "QueryWorkload":
        """Generate the paper's workload for a dataset.

        Rectangles are uniformly placed inside the domain, and the exact
        answer of every query is computed up front from the dataset —
        in one ``count_many`` batch across all sizes, so the dataset's
        CSR ground-truth index answers the whole workload in a single
        vectorised pass.
        """
        rng = ensure_rng(rng)
        if queries_per_size < 1:
            raise ValueError(f"queries_per_size must be >= 1, got {queries_per_size}")
        domain = dataset.domain
        sizes = paper_query_sizes(q6_width, q6_height, n_sizes)
        rects_by_size: list[list[Rect]] = []
        for size in sizes:
            if size.width > domain.width or size.height > domain.height:
                raise ValueError(
                    f"query size {size.label} ({size.width} x {size.height}) "
                    f"exceeds the domain"
                )
            rects_by_size.append(
                [
                    domain.random_rect(size.width, size.height, rng)
                    for _ in range(queries_per_size)
                ]
            )
        all_answers = dataset.count_many(
            [rect for rects in rects_by_size for rect in rects]
        )
        sets = [
            SizedQuerySet(
                size,
                rects,
                all_answers[k * queries_per_size : (k + 1) * queries_per_size],
            )
            for k, (size, rects) in enumerate(zip(sizes, rects_by_size))
        ]
        return cls(sets, domain)

    @property
    def query_sets(self) -> list[SizedQuerySet]:
        return self._query_sets

    @property
    def domain(self) -> Domain2D:
        return self._domain

    @property
    def size_labels(self) -> list[str]:
        return [query_set.size.label for query_set in self._query_sets]

    def total_queries(self) -> int:
        return sum(len(query_set) for query_set in self._query_sets)

    def all_rects(self) -> list[Rect]:
        """Every rectangle across all sizes, smallest size first."""
        rects: list[Rect] = []
        for query_set in self._query_sets:
            rects.extend(query_set.rects)
        return rects

    def all_true_answers(self) -> np.ndarray:
        return np.concatenate(
            [query_set.true_answers for query_set in self._query_sets]
        )


def nd_hyperrectangle_workload(
    points: np.ndarray,
    box,
    rng: np.random.Generator | int | None,
    n_queries: int = DEFAULT_QUERIES_PER_SIZE,
    chunk_size: int = 256,
) -> tuple[np.ndarray, np.ndarray]:
    """Random d-dimensional hyper-rectangles with exact counts.

    ``box`` is any object exposing ``lows``/``highs``/``dimension``
    (e.g. :class:`~repro.extensions.multidim.NDBox`).  Queries are the
    bounding boxes of uniform corner pairs inside the box; rows come back
    as ``(n, 2d)`` lows-then-highs — the ND engines' batch layout.
    Ground truth counts points with inclusive bounds (matching
    ``NDBox.contains``), brute-forced in query chunks to bound the
    boolean intermediate at ``chunk_size * n_points * d``.
    """
    rng = ensure_rng(rng)
    if n_queries < 1:
        raise ValueError(f"n_queries must be >= 1, got {n_queries}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    points = np.asarray(points, dtype=float)
    d = int(box.dimension)
    if points.ndim != 2 or points.shape[1] != d:
        raise ValueError(f"points must have shape (n, {d}), got {points.shape}")
    corners = rng.uniform(box.lows, box.highs, size=(n_queries, 2, d))
    lows = corners.min(axis=1)
    highs = corners.max(axis=1)
    answers = np.empty(n_queries)
    for start in range(0, n_queries, chunk_size):
        stop = min(start + chunk_size, n_queries)
        inside = (points[None, :, :] >= lows[start:stop, None, :]) & (
            points[None, :, :] <= highs[start:stop, None, :]
        )
        answers[start:stop] = inside.all(axis=2).sum(axis=1)
    return np.concatenate([lows, highs], axis=1), answers

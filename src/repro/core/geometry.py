"""Planar geometry primitives used throughout the library.

The paper models a geospatial dataset as a set of points in a rectangular
two-dimensional domain, and every query as an axis-aligned rectangle.  This
module provides the two corresponding value types:

* :class:`Rect` -- a closed axis-aligned rectangle ``[x_lo, x_hi] x
  [y_lo, y_hi]``.
* :class:`Domain2D` -- the data domain: a rectangle with convenience helpers
  for clipping, normalisation, and sampling sub-rectangles.

Both types are immutable; all operations return new objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Rect", "Domain2D", "interval_overlap", "rects_to_boxes"]


def interval_overlap(lo1: float, hi1: float, lo2: float, hi2: float) -> float:
    """Return the length of the overlap of intervals ``[lo1, hi1]`` and ``[lo2, hi2]``.

    Returns 0.0 when the intervals are disjoint.  Inputs may be unordered in
    the sense that an empty interval (``lo > hi``) yields zero overlap.
    """
    return max(0.0, min(hi1, hi2) - max(lo1, lo2))


def rects_to_boxes(rects: "list[Rect] | np.ndarray") -> np.ndarray:
    """Normalise a query batch to an ``(n, 4)`` float array.

    Accepts a list of :class:`Rect`, a list of 4-number sequences, or an
    already-shaped array of ``(x_lo, y_lo, x_hi, y_hi)`` rows.  The
    single batch-normalisation used by the query engines
    (:mod:`repro.queries.engine` re-exports it) and the ground-truth
    index (:mod:`repro.core.point_index`).
    """
    if isinstance(rects, np.ndarray):
        boxes = np.asarray(rects, dtype=float)
    else:
        rects = list(rects)  # materialise: generators must survive the scan
        if all(hasattr(rect, "as_tuple") for rect in rects):
            return np.array(
                [rect.as_tuple() for rect in rects], dtype=float
            ).reshape(-1, 4)
        boxes = np.asarray(rects, dtype=float)
    if boxes.size == 0:
        if boxes.ndim == 2 and boxes.shape[1] != 4:
            raise ValueError(f"expected (n, 4) array, got {boxes.shape}")
        return boxes.reshape(0, 4)
    if boxes.ndim != 2 or boxes.shape[1] != 4:
        raise ValueError(f"expected (n, 4) array, got {boxes.shape}")
    return boxes


@dataclass(frozen=True)
class Rect:
    """A closed, axis-aligned rectangle ``[x_lo, x_hi] x [y_lo, y_hi]``.

    Degenerate rectangles (zero width or height) are permitted; negative
    extents are not.
    """

    x_lo: float
    y_lo: float
    x_hi: float
    y_hi: float

    def __post_init__(self) -> None:
        if self.x_hi < self.x_lo or self.y_hi < self.y_lo:
            raise ValueError(
                f"Rect extents must be non-negative, got "
                f"[{self.x_lo}, {self.x_hi}] x [{self.y_lo}, {self.y_hi}]"
            )

    @classmethod
    def from_center(cls, cx: float, cy: float, width: float, height: float) -> "Rect":
        """Build a rectangle from its center point and side lengths."""
        half_w = width / 2.0
        half_h = height / 2.0
        return cls(cx - half_w, cy - half_h, cx + half_w, cy + half_h)

    @classmethod
    def from_size(cls, x_lo: float, y_lo: float, width: float, height: float) -> "Rect":
        """Build a rectangle from its lower-left corner and side lengths."""
        return cls(x_lo, y_lo, x_lo + width, y_lo + height)

    @property
    def width(self) -> float:
        return self.x_hi - self.x_lo

    @property
    def height(self) -> float:
        return self.y_hi - self.y_lo

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return ((self.x_lo + self.x_hi) / 2.0, (self.y_lo + self.y_hi) / 2.0)

    def contains_point(self, x: float, y: float) -> bool:
        """True when ``(x, y)`` lies in the closed rectangle."""
        return self.x_lo <= x <= self.x_hi and self.y_lo <= y <= self.y_hi

    def contains_rect(self, other: "Rect") -> bool:
        """True when ``other`` lies entirely within this rectangle."""
        return (
            self.x_lo <= other.x_lo
            and other.x_hi <= self.x_hi
            and self.y_lo <= other.y_lo
            and other.y_hi <= self.y_hi
        )

    def intersects(self, other: "Rect") -> bool:
        """True when the two closed rectangles share at least one point."""
        return (
            self.x_lo <= other.x_hi
            and other.x_lo <= self.x_hi
            and self.y_lo <= other.y_hi
            and other.y_lo <= self.y_hi
        )

    def intersection(self, other: "Rect") -> "Rect | None":
        """The overlapping rectangle, or ``None`` when disjoint."""
        x_lo = max(self.x_lo, other.x_lo)
        y_lo = max(self.y_lo, other.y_lo)
        x_hi = min(self.x_hi, other.x_hi)
        y_hi = min(self.y_hi, other.y_hi)
        if x_hi < x_lo or y_hi < y_lo:
            return None
        return Rect(x_lo, y_lo, x_hi, y_hi)

    def overlap_area(self, other: "Rect") -> float:
        """Area of the intersection with ``other`` (0.0 when disjoint)."""
        dx = interval_overlap(self.x_lo, self.x_hi, other.x_lo, other.x_hi)
        dy = interval_overlap(self.y_lo, self.y_hi, other.y_lo, other.y_hi)
        return dx * dy

    def overlap_fraction(self, other: "Rect") -> float:
        """Fraction of *this* rectangle's area covered by ``other``.

        A degenerate rectangle (zero area) is considered fully covered when
        its location intersects ``other`` and uncovered otherwise.
        """
        if self.area == 0.0:
            return 1.0 if self.intersects(other) else 0.0
        return self.overlap_area(other) / self.area

    def expanded(self, margin: float) -> "Rect":
        """A rectangle grown by ``margin`` on every side (shrunk if negative)."""
        return Rect(
            self.x_lo - margin, self.y_lo - margin,
            self.x_hi + margin, self.y_hi + margin,
        )

    def translated(self, dx: float, dy: float) -> "Rect":
        return Rect(self.x_lo + dx, self.y_lo + dy, self.x_hi + dx, self.y_hi + dy)

    def mask(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Boolean mask of which ``(xs[i], ys[i])`` points lie in the rectangle."""
        return (
            (xs >= self.x_lo) & (xs <= self.x_hi)
            & (ys >= self.y_lo) & (ys <= self.y_hi)
        )

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x_lo, self.y_lo, self.x_hi, self.y_hi)


class Domain2D:
    """The rectangular domain that all data points and queries live in.

    A :class:`Domain2D` wraps a :class:`Rect` (its bounding box) and adds the
    operations synopsis construction needs: clipping points into the domain,
    normalising coordinates to the unit square, and sampling random query
    rectangles of a given size.
    """

    def __init__(self, x_lo: float, y_lo: float, x_hi: float, y_hi: float):
        if not all(math.isfinite(v) for v in (x_lo, y_lo, x_hi, y_hi)):
            raise ValueError("Domain2D bounds must be finite")
        if x_hi <= x_lo or y_hi <= y_lo:
            raise ValueError("Domain2D must have strictly positive extent")
        self._bounds = Rect(x_lo, y_lo, x_hi, y_hi)

    @classmethod
    def unit(cls) -> "Domain2D":
        """The unit square ``[0, 1] x [0, 1]``."""
        return cls(0.0, 0.0, 1.0, 1.0)

    @property
    def bounds(self) -> Rect:
        return self._bounds

    @property
    def width(self) -> float:
        return self._bounds.width

    @property
    def height(self) -> float:
        return self._bounds.height

    @property
    def area(self) -> float:
        return self._bounds.area

    @property
    def lows(self) -> np.ndarray:
        """``(x_lo, y_lo)``, the lower corner (as :class:`NDBox` names it)."""
        return np.array([self._bounds.x_lo, self._bounds.y_lo])

    @property
    def highs(self) -> np.ndarray:
        """``(x_hi, y_hi)``, the upper corner."""
        return np.array([self._bounds.x_hi, self._bounds.y_hi])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Domain2D):
            return NotImplemented
        return self._bounds == other._bounds

    def __hash__(self) -> int:
        return hash(self._bounds)

    def __repr__(self) -> str:
        b = self._bounds
        return f"Domain2D([{b.x_lo}, {b.x_hi}] x [{b.y_lo}, {b.y_hi}])"

    def contains(self, x: float, y: float) -> bool:
        return self._bounds.contains_point(x, y)

    def clip_points(self, points: np.ndarray) -> np.ndarray:
        """Clamp an ``(n, 2)`` point array into the domain's bounding box."""
        points = np.asarray(points, dtype=float)
        clipped = points.copy()
        clipped[:, 0] = np.clip(clipped[:, 0], self._bounds.x_lo, self._bounds.x_hi)
        clipped[:, 1] = np.clip(clipped[:, 1], self._bounds.y_lo, self._bounds.y_hi)
        return clipped

    def normalise(self, points: np.ndarray) -> np.ndarray:
        """Map points affinely into the unit square."""
        points = np.asarray(points, dtype=float)
        out = np.empty_like(points)
        out[:, 0] = (points[:, 0] - self._bounds.x_lo) / self.width
        out[:, 1] = (points[:, 1] - self._bounds.y_lo) / self.height
        return out

    def denormalise(self, unit_points: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`normalise`."""
        unit_points = np.asarray(unit_points, dtype=float)
        out = np.empty_like(unit_points)
        out[:, 0] = unit_points[:, 0] * self.width + self._bounds.x_lo
        out[:, 1] = unit_points[:, 1] * self.height + self._bounds.y_lo
        return out

    def clip_rect(self, rect: Rect) -> Rect | None:
        """Intersection of ``rect`` with the domain, or ``None`` if outside."""
        return self._bounds.intersection(rect)

    def random_rect(
        self, width: float, height: float, rng: np.random.Generator
    ) -> Rect:
        """Sample a uniformly placed ``width x height`` rectangle inside the domain.

        The rectangle is clamped to fit: the width/height may not exceed the
        domain extent.
        """
        if width > self.width or height > self.height:
            raise ValueError(
                f"query size {width} x {height} exceeds domain "
                f"{self.width} x {self.height}"
            )
        x_lo = self._bounds.x_lo + rng.uniform(0.0, self.width - width)
        y_lo = self._bounds.y_lo + rng.uniform(0.0, self.height - height)
        return Rect.from_size(x_lo, y_lo, width, height)

    def fraction(self, rect: Rect) -> float:
        """What fraction of the domain area ``rect`` covers (after clipping)."""
        return self._bounds.overlap_area(rect) / self.area

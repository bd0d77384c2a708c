"""Vectorised batch query answering for released synopses.

Experiments ask thousands of rectangle queries of the same release;
answering them one at a time costs a Python-level loop per query.  This
module evaluates a whole batch with numpy throughout.

Every grid-shaped release answers through one kernel,
:class:`BatchQueryEngine`: UG, the hierarchy's inferred leaves,
Privelet's reconstructed grid, a quadtree lowered onto its lattice, the
d-dimensional grid, and the 1-D histogram as an ``m x 1`` grid.  The
uniformity estimate of a box (Section II-B: cells inside count whole,
border cells by their overlap fraction) is the integral of the grid's
piecewise-constant density over it.  Let ``S`` be the zero-bordered
prefix-sum tensor of the counts, extended continuously by multilinear
interpolation inside cells.  Then the estimate is the ``2^d``-corner
inclusion-exclusion over ``S``; at d = 2, for ``[x0, x1] x [y0, y1]``::

    est = S(x1, y1) - S(x0, y1) - S(x1, y0) + S(x0, y0)

This is a summed-area table lookup (Crow, SIGGRAPH 1984): a whole batch
is one stacked pass over all ``2^d n`` corners, ``2^d`` gathers each.

Adaptive grids answer the same way, through
:class:`TwoLevelGridEngine`: ``S`` at a corner in a first-level cell is
three tabulated blocks plus the cell's own sub-grid prefix, so every
corner costs a few gathers and no per-cell expansion.

Spatial trees (quadtree, KD-standard, KD-hybrid) release the flat
level-order :class:`~repro.baselines.tree.TreeArrays` and answer through
one of three kernels, which :func:`~repro.baselines.tree.tree_engine`
picks once per engine from the release:

* a **consistent** tree (every internal count its children's sum, as
  constrained inference leaves it) whose leaves lie on the ``2^h x
  2^h`` lattice of its domain, with a lattice prefix no larger than its
  :class:`FlatTreeEngine` node vectors, is the piecewise-constant
  density of a uniform grid: it is lowered onto that lattice and
  answered by :class:`BatchQueryEngine` itself (a default quadtree once
  the data fills it);
* any other consistent tree whose leaves all have positive area is the
  piecewise-constant density of its leaves, which
  :class:`TwoLevelGridEngine`, AG's engine, answers over a uniform first
  level and each first-level cell's overlay of the leaves (KD-hybrid, a
  pruned quadtree), while its tables take at most five times the
  frontier engine's node vectors;
* every other tree (KD-standard and any uninferred tree, a tree with a
  zero-area leaf, a tree over the size rule) keeps
  :class:`FlatTreeEngine`, which answers a whole batch by
  level-synchronous frontier descent over the (query, node) pairs that
  intersect: each pair carries its four cover bits, an expanding parent
  compares only its split coordinate with the query's edges to decide
  which children enter the next level and with which bits, contained
  nodes contribute their counts, partial leaves the uniformity estimate,
  a pair the query covers along one axis and cuts once along the other
  reads the node's edge table along that axis (the descent's exact
  answers at every coordinate below the node, interpolated by its
  leaves' ramp), and only the pairs that hold a query corner or are
  crossed by two parallel query edges expand.

:func:`make_engine` returns the one engine a release keeps, building
it on first use through the synopsis type's row of
:data:`repro.core.serialization.KINDS`, the one table that says how each
type is archived and which engine serves it, so adding a synopsis type
never edits this module.  Every engine exposes ``slabs``, the buffers it
answers from, which the archive writer seals beside the release and the
loader restores the engine from.  That is how the serving layer
(:mod:`repro.service`) reuses one prepared engine across many incoming
query batches for every synopsis family.
"""

from __future__ import annotations

import itertools
import math
import threading

import numpy as np

from repro.baselines.tree import LEAF, QUADRANTS, X_HALVES, Y_HALVES
from repro.core.geometry import Rect, rects_to_boxes

__all__ = [
    "BatchQueryEngine",
    "FlatTreeEngine",
    "TwoLevelGridEngine",
    "make_engine",
    "scalar_answer_batch",
]


def scalar_answer_batch(synopsis, rects: "list[Rect] | np.ndarray") -> np.ndarray:
    """Answer a batch through a synopsis's scalar ``answer`` loop.

    Same contract as the vectorised engines: an empty batch returns an
    empty ``(0,)`` vector without touching the synopsis; inverted rows
    (``x_hi < x_lo`` or ``y_hi < y_lo``, which includes NaN bounds)
    answer 0 instead of raising from the :class:`Rect` constructor;
    degenerate zero-area rows are answered exactly like the equivalent
    edge/point :class:`Rect` query.  The scalar second opinion in
    engine equivalence tests and benchmarks.
    """
    boxes = rects_to_boxes(rects)
    out = np.zeros(boxes.shape[0])
    if boxes.shape[0] == 0:
        return out
    valid = (boxes[:, 2] >= boxes[:, 0]) & (boxes[:, 3] >= boxes[:, 1])
    for idx in np.flatnonzero(valid):
        out[idx] = synopsis.answer(Rect(*boxes[idx]))
    return out


class BatchQueryEngine:
    """Answers batches of box queries over an equi-width grid of any dimension.

    The grid spans the box ``[lows, highs]`` with ``counts`` of shape
    ``(m_1, ..., m_d)``.  Build once per released grid (O(cells)
    preprocessing: one zero-bordered prefix tensor of shape ``(m_1 + 1,
    ..., m_d + 1)``), then call :meth:`answer_batch` any number of times
    (``2^d`` corners per query, each a ``2^d``-vertex multilinear
    interpolation).  Query rows are lows-then-highs, ``2d`` columns; at
    d = 2 a :class:`Rect` row ``(x_lo, y_lo, x_hi, y_hi)`` is already in
    that order.
    """

    def __init__(self, lows, highs, counts: np.ndarray):
        counts = np.asarray(counts, dtype=float)
        # Prefix sums with a zero border: P[i, j, ...] = sum(counts[:i, :j, ...]).
        prefix = np.zeros(tuple(m + 1 for m in counts.shape))
        inner = prefix[(slice(1, None),) * counts.ndim]
        inner[...] = counts
        for axis in range(counts.ndim):
            np.cumsum(inner, axis=axis, out=inner)
        self._bind(lows, highs, prefix)

    def _bind(self, lows, highs, prefix: np.ndarray) -> None:
        lows = np.asarray(lows, dtype=float)
        highs = np.asarray(highs, dtype=float)
        d = prefix.ndim
        if lows.shape != (d,) or highs.shape != (d,) or not np.all(highs > lows):
            raise ValueError(
                f"grid box [{lows}, {highs}] does not span a {d}-dimensional grid"
            )
        shape = [m - 1 for m in prefix.shape]
        self._prefix = prefix
        # Per axis: origin, cell width and cell count, as Python scalars
        # (numpy's per-call overhead dominates at batch sizes).
        self._axes = [
            (float(lo), float(width), m)
            for lo, width, m in zip(lows, (highs - lows) / shape, shape)
        ]
        # Vertex v of a cell sits at offset 1 along axis a when bit a of v
        # is set.  Along a one-cell axis every corner lies in cell 0, so a
        # vertex at offset 0 there reads the zero border: skip it.
        strides = np.cumprod([1, *prefix.shape[:0:-1]])[::-1]
        ones = sum(1 << axis for axis in range(d) if shape[axis] == 1)
        self._vertices = [
            (v, int(sum(strides[a] for a in range(d) if v >> a & 1)))
            for v in range(1 << d)
            if v & ones == ones
        ]

    @classmethod
    def from_slabs(
        cls, lows, highs, shape: tuple[int, ...], slabs: dict[str, np.ndarray]
    ) -> "BatchQueryEngine":
        """Restore an engine over a grid of ``shape`` from the ``slabs``
        of an engine built over it, bit-identical to that engine.

        The slabs may be read-only mmap views; the engine never writes
        into its prefix buffer after construction, so restored engines
        share the archive's physical pages across forked workers.  A
        prefix of another shape (sealed by an older kernel) raises
        ``ValueError``.
        """
        prefix = np.asarray(slabs["prefix"], dtype=float)
        if prefix.shape != tuple(m + 1 for m in shape):
            raise ValueError(
                f"sealed prefix shape {prefix.shape} does not match grid "
                f"{tuple(shape)}"
            )
        engine = cls.__new__(cls)
        engine._bind(lows, highs, prefix)
        return engine

    @property
    def slabs(self) -> dict[str, np.ndarray]:
        """The buffers this engine answers from: its prefix tensor."""
        return {"prefix": self._prefix}

    @property
    def shape(self) -> tuple[int, ...]:
        """The grid's cells per axis."""
        return tuple(m for _, _, m in self._axes)

    @property
    def nbytes(self) -> int:
        """In-memory footprint of the prepared buffers."""
        return self._prefix.nbytes

    def _continuous_prefix(self, coords: list[np.ndarray]) -> np.ndarray:
        """Multilinear interpolation of the prefix at cell coordinates
        (fractional positions ``0 .. m``, one array per axis)."""
        index = None
        upper, lower = [], []
        for (_, _, m), c in zip(self._axes, coords):
            base = np.minimum(c.astype(np.int64), m - 1)
            # Row-major flat index into the (m_1 + 1, ..., m_d + 1) prefix.
            index = base if index is None else index * (m + 1) + base
            t = c - base
            upper.append(t)
            lower.append(1 - t)
        p = self._prefix.reshape(-1)
        total = None
        for vertex, offset in self._vertices:
            weight = None
            for axis in range(len(coords)):
                factor = upper[axis] if vertex >> axis & 1 else lower[axis]
                weight = factor if weight is None else weight * factor
            term = weight * p[index + offset]
            total = term if total is None else total + term
        return total

    def answer_batch(self, rects: list[Rect] | np.ndarray) -> np.ndarray:
        """Uniformity estimates for every box in the batch.

        Accepts an ``(n, 2d)`` array of lows-then-highs rows; at d = 2
        also a list of :class:`Rect` or 4-number rows.  Any other shape
        raises ``ValueError``.  Boxes are clipped to the grid; degenerate,
        inverted and NaN rows answer 0.
        """
        d = len(self._axes)
        boxes = rects_to_boxes(rects) if d == 2 else np.asarray(rects, dtype=float)
        if boxes.ndim != 2 or boxes.shape[1] != 2 * d:
            raise ValueError(
                f"expected an (n, {2 * d}) batch of lows-then-highs rows, "
                f"got shape {boxes.shape}"
            )
        n = boxes.shape[0]
        if n == 0:
            return np.empty(0)
        # Convert to cell units, clipped to the grid.
        lows, highs = [], []
        for axis, (origin, width, m) in enumerate(self._axes):
            lows.append(np.clip((boxes[:, axis] - origin) / width, 0.0, m))
            highs.append(np.clip((boxes[:, d + axis] - origin) / width, 0.0, m))
        # Degenerate, inverted, and NaN rows all answer 0, matching
        # scalar_answer_batch.  NaN survives np.clip and would poison the
        # int64 cast inside the interpolation (undefined conversion, then
        # an out-of-bounds gather), so zero those coordinates out before
        # evaluating; the mask overwrites the result afterwards.
        empty = ~(highs[0] > lows[0])
        for lo, hi in zip(lows[1:], highs[1:]):
            empty |= ~(hi > lo)
        if empty.any():
            lows = [np.where(empty, 0.0, c) for c in lows]
            highs = [np.where(empty, 0.0, c) for c in highs]

        # All 2^d n corners in one stacked pass: corner k takes the low
        # bound along axis a when bit a of k is set, and enters the
        # inclusion-exclusion with sign (-1)^(set bits of k).
        corners = range(1 << d)
        values = self._continuous_prefix([
            np.concatenate([lows[a] if k >> a & 1 else highs[a] for k in corners])
            for a in range(d)
        ])
        estimate = values[:n] - values[n : 2 * n]
        for k in corners[2:]:
            if bin(k).count("1") % 2:
                estimate -= values[k * n : (k + 1) * n]
            else:
                estimate += values[k * n : (k + 1) * n]
        estimate[empty] = 0.0
        return estimate


class TwoLevelGridEngine:
    """Summed-area batch engine over a two-level grid: adaptive grids
    and consistent trees.

    An ``AdaptiveGridSynopsis``, and a ``TreeSynopsis`` whose internal
    counts equal their children's sums and whose leaves all have
    positive area, answer a query with the integral of the
    piecewise-constant density of their leaves.  The engine holds that
    density over an ``mx x my`` first level.  Each first-level cell has
    a rectilinear overlay, its leaves' distinct x- and y-edges and its
    own lines; each overlay sub-cell lies in one leaf, so the cell's
    zero-bordered summed-area table over its overlay, read bilinearly,
    is exact inside it.  A corner ``(x, y)`` in cell ``(i, j)`` reads::

        S(x, y) = F(x, j) + G(i, y) - TP[i, j] + P_cell(i, j, x, y)

    ``TP`` is the prefix over the cells' totals, ``F(x, j)`` counts
    ``[X0, x] x [Y0, y_j]``, ``G(i, y)`` counts ``[X0, x_i] x [Y0, y]``
    and ``P_cell`` is the cell's table.  ``F`` is linear in ``x``
    between consecutive overlay x-edges of column ``i`` (``G`` likewise
    in ``y``), so both are tabulated at every distinct overlay edge
    along their axis and read through the rank ``k`` of the corner's x
    among those edges.  ``k`` also gives the cell column and, through a
    ``uint16`` rank map ``x_ranks[k, j]``, the sub-cell of cell ``(i,
    j)``'s overlay that holds ``[x_k, x_{k+1})``, so the bilinear read
    needs no search; the same holds along y.  A batch is one stacked
    pass over its ``4n`` corners.

    Two layouts supply the overlays and the cells' tables, from which
    ``F``, ``G``, the rank maps and ``TP`` are built alike:

    * :meth:`adaptive_grid`: AG's own first level, each cell's overlay
      its uniform ``m2 x m2`` sub-grid with computed edges, each cell's
      table its leaves' 2-D prefix sums.  Each cell's leaves sum to its
      released total (constrained inference makes ``sum(u') == v'``; a
      build without it releases that sum).
    * :meth:`layout` and :meth:`build`: a uniform ``G x G`` first level
      over a tree's root (:meth:`first_level_size`) and its leaves
      clipped into the cells they meet: each cell's edges from one
      ``np.unique`` over ``(cell, rank)`` keys, its table from its
      sub-cells' masses by segmented running sums, in bounded chunks;
      :meth:`layout` sizes the tables before any is allocated.

    Answers equal the scalar ``answer`` of either release up to
    rounding and, for a tree, the consistency it was accepted with.
    """

    def __init__(self, bounds, slabs: dict[str, np.ndarray]):
        """The engine over ``slabs`` (:meth:`build`'s or
        :meth:`adaptive_grid`'s) for a first level spanning ``bounds``
        ``(x_lo, y_lo, x_hi, y_hi)``.  Sealed slabs may be read-only mmap
        views, which answers only read; slabs of another kernel raise
        ``KeyError``, slabs whose shapes disagree ``ValueError``."""
        arrays = {
            name: np.asarray(slabs[name], dtype=dtype)
            for name, dtype in _GRID_SLAB_DTYPES.items()
        }
        # A totals prefix that is not a matrix fails the unpacking.
        mx, my = (size - 1 for size in arrays["totals_prefix"].shape)
        offsets = [arrays[name] for name in _GRID_OFFSETS]
        counts = [
            int(offset[-1]) if offset.ndim == 1 and offset.size else -1
            for offset in offsets
        ]
        expected = _grid_slab_shapes(
            (mx, my), arrays["x_edges"].size, arrays["y_edges"].size, *counts
        )
        mismatched = [
            name for name, shape in expected.items()
            if arrays[name].shape != shape
        ]
        edges = min(arrays["x_edges"].size, arrays["y_edges"].size)
        if min(mx, my) < 1 or edges < 2 or min(counts) < 0 or mismatched:
            raise ValueError(
                f"sealed two-level tables {mismatched or '(offsets)'} do not "
                "match their first level"
            )
        x_sizes, y_sizes, prefix_sizes = (np.diff(offset) for offset in offsets)
        if np.any(x_sizes < 2) or np.any(y_sizes < 2) or np.any(
            prefix_sizes != x_sizes * y_sizes
        ):
            raise ValueError("sealed two-level cell offsets are inconsistent")
        self._bounds = tuple(float(bound) for bound in bounds)
        self._shape = (mx, my)
        self._arrays = arrays
        for name, array in arrays.items():
            setattr(self, f"_{name}", array)

    @classmethod
    def adaptive_grid(cls, synopsis, slabs: dict[str, np.ndarray] | None = None):
        """The engine of an ``AdaptiveGridSynopsis`` release, restored
        over ``slabs`` when given; slabs that do not fit the release's
        first level and sub-grids raise ``ValueError``."""
        if slabs is None:
            return cls.build(_SubGridLayout(synopsis))
        engine = cls(_bounds(synopsis.domain), slabs)
        sizes = synopsis.cell_sizes
        if engine.shape != sizes.shape or any(
            not np.array_equal(np.diff(offsets), sizes.reshape(-1) + 1)
            for offsets in (engine._cell_x_offsets, engine._cell_y_offsets)
        ):
            raise ValueError(
                "sealed two-level tables do not match the release's sub-grids"
            )
        return engine

    @staticmethod
    def first_level_size(n_leaves: int) -> int:
        """A tree's ``G = 2^round(log2 sqrt(n_leaves / 16))``, within 8 ..
        128: about 16 leaves per first-level cell, which gave the
        smallest tables of ``G`` in 8 .. 128 on the landmark and storage
        trees."""
        exponent = round(math.log2(max(n_leaves, 1) / 16) / 2)
        return 1 << min(max(exponent, 3), 7)

    @classmethod
    def layout(cls, bounds, rects: np.ndarray, counts: np.ndarray) -> "_LeafLayout":
        """The pieces and edges of the tables over the leaves ``rects``
        (positive-area ``(x_lo, y_lo, x_hi, y_hi)`` rows tiling
        ``bounds``) with ``counts``; its ``nbytes`` are the tables'
        bytes, known before :meth:`build` allocates them."""
        return _LeafLayout(bounds, rects, counts, cls.first_level_size(counts.size))

    @classmethod
    def build(cls, layout: "_GridLayout") -> "TwoLevelGridEngine":
        """The engine over the tables of ``layout``."""
        return cls(layout.bounds, layout.tables())

    @property
    def slabs(self) -> dict[str, np.ndarray]:
        """The buffers this engine answers from (see :meth:`build`)."""
        return dict(self._arrays)

    @property
    def shape(self) -> tuple[int, int]:
        """``(mx, my)``, the first level's cells along x and y."""
        return self._shape

    @property
    def nbytes(self) -> int:
        """In-memory footprint of the prepared buffers."""
        return sum(array.nbytes for array in self._arrays.values())

    def _summed_area(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """``S`` at the corners of ``xs x ys``, each a ``(2, n)`` stack of
        one query edge per row inside the first level, as a ``(2, 2, n)``
        array indexed ``[y row, x row]``.  Each edge is ranked once;
        the corners combine the ranks by broadcasting."""
        mx, my = self._shape
        kx = _last_at_most(self._x_edges, xs)
        ky = _last_at_most(self._y_edges, ys)
        x0 = self._x_edges[kx]
        y0 = self._y_edges[ky]
        tx = (xs - x0) / (self._x_edges[kx + 1] - x0)
        ty = (ys - y0) / (self._y_edges[ky + 1] - y0)
        # Corner arrays broadcast to (2, 2, n): x along axis 1, y along 0.
        i = self._x_cells[kx][None]
        j = self._y_cells[ky][:, None]
        kx, tx, xs = kx[None], tx[None], xs[None]
        ky, ty, ys = ky[:, None], ty[:, None], ys[:, None]
        f_table = self._f_table.reshape(-1)
        index = kx * (my + 1) + j
        below = f_table[index]
        f = below + tx * (f_table[index + my + 1] - below)
        g_table = self._g_table.reshape(-1)
        index = ky * (mx + 1) + i
        below = g_table[index]
        g = below + ty * (g_table[index + mx + 1] - below)
        tp = self._totals_prefix.reshape(-1)[i * (my + 1) + j]
        # The corner's own cell: its overlay sub-cell from the rank maps,
        # then bilinear in the cell's zero-bordered table.
        cell = i * my + j
        a = self._x_ranks.reshape(-1)[kx * my + j]
        b = self._y_ranks.reshape(-1)[ky * mx + i]
        xa = self._cell_x_offsets[cell] + a
        y_first = self._cell_y_offsets[cell]
        stride = self._cell_y_offsets[cell + 1] - y_first
        yb = y_first + b
        left = self._cell_x[xa]
        bottom = self._cell_y[yb]
        u = (xs - left) / (self._cell_x[xa + 1] - left)
        v = (ys - bottom) / (self._cell_y[yb + 1] - bottom)
        base = self._cell_prefix_offsets[cell] + a * stride + b
        p = self._cell_prefix
        p00 = p[base]
        p10 = p[base + stride]
        low = p00 + v * (p[base + 1] - p00)
        high = p10 + v * (p[base + stride + 1] - p10)
        return f + g - tp + (low + u * (high - low))

    def answer_batch(self, rects: list[Rect] | np.ndarray) -> np.ndarray:
        """Uniformity estimates for every rectangle in the batch.

        Rectangles are clipped to the first level; degenerate, inverted
        and NaN rows answer 0, as in :class:`BatchQueryEngine`.
        """
        boxes = rects_to_boxes(rects)
        n = boxes.shape[0]
        if n == 0:
            return np.empty(0)
        x_lo, y_lo, x_hi, y_hi = self._bounds
        # Upper edges first: row 0 holds x_hi (y_hi), row 1 x_lo (y_lo).
        xs = np.clip(boxes[:, 2::-2].T, x_lo, x_hi)
        ys = np.clip(boxes[:, 3::-2].T, y_lo, y_hi)
        empty = ~((xs[0] > xs[1]) & (ys[0] > ys[1]))
        if empty.any():
            # NaN would poison the searches; the mask zeroes the rows.
            xs[:, empty] = x_lo
            ys[:, empty] = y_lo
        corners = self._summed_area(xs, ys)
        estimate = corners[0, 0] - corners[0, 1] - corners[1, 0] + corners[1, 1]
        estimate[empty] = 0.0
        return estimate


def _bounds(domain) -> tuple[float, float, float, float]:
    """``(x_lo, y_lo, x_hi, y_hi)`` of a :class:`Domain2D`."""
    b = domain.bounds
    return b.x_lo, b.y_lo, b.x_hi, b.y_hi


def _last_at_most(edges: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """For each coordinate, the index of the last edge ``<=`` it, at
    most ``len(edges) - 2`` (the last interval is closed).  The
    coordinates are searched in sorted order, which lets each search
    start where the last one ended."""
    flat = coords.reshape(-1)
    order = np.argsort(flat)
    rank = np.empty(flat.size, dtype=np.intp)
    rank[order] = np.searchsorted(edges, flat[order], side="right")
    np.minimum(rank - 1, edges.size - 2, out=rank)
    return rank.reshape(coords.shape)


#: Each slab of :class:`TwoLevelGridEngine` and its dtype.
_GRID_SLAB_DTYPES = {
    "x_edges": np.float64,
    "y_edges": np.float64,
    "x_cells": np.int32,
    "y_cells": np.int32,
    "x_ranks": np.uint16,
    "y_ranks": np.uint16,
    "f_table": np.float64,
    "g_table": np.float64,
    "totals_prefix": np.float64,
    "cell_x": np.float64,
    "cell_y": np.float64,
    "cell_x_offsets": np.int64,
    "cell_y_offsets": np.int64,
    "cell_prefix_offsets": np.int64,
    "cell_prefix": np.float64,
}

#: The CSR offsets of the cells' x-edges, y-edges and tables.
_GRID_OFFSETS = ("cell_x_offsets", "cell_y_offsets", "cell_prefix_offsets")

#: Table entries a construction pass handles at once, which bounds the
#: transient arrays of one pass.
_GRID_CHUNK = 1 << 15


def _grid_slab_shapes(
    shape, kx: int, ky: int, n_cell_x: int, n_cell_y: int, n_prefix: int
) -> dict[str, tuple[int, ...]]:
    """The shape of every :class:`TwoLevelGridEngine` slab: an ``mx x
    my`` first level (``shape``), ``kx`` / ``ky`` distinct edges, and the
    cells' ``n_cell_x`` x-edges, ``n_cell_y`` y-edges and ``n_prefix``
    table entries."""
    mx, my = shape
    cells = mx * my
    return {
        "x_edges": (kx,),
        "y_edges": (ky,),
        "x_cells": (kx - 1,),
        "y_cells": (ky - 1,),
        "x_ranks": (kx - 1, my),
        "y_ranks": (ky - 1, mx),
        "f_table": (kx, my + 1),
        "g_table": (ky, mx + 1),
        "totals_prefix": (mx + 1, my + 1),
        "cell_x": (n_cell_x,),
        "cell_y": (n_cell_y,),
        "cell_x_offsets": (cells + 1,),
        "cell_y_offsets": (cells + 1,),
        "cell_prefix_offsets": (cells + 1,),
        "cell_prefix": (n_prefix,),
    }


class _AxisLayout:
    """One axis of a :class:`_GridLayout` over an ``mx x my`` first level.

    ``edges`` are the distinct overlay edges along the axis, ``lines``
    the first-level lines' indices among them and ``cells`` each edge
    interval's first-level index along the axis.  Each first-level
    cell's own edges (its two lines and its overlay's edges between) are
    the sorted ``(cell, rank)`` ``keys``, ``coords`` their coordinates
    and ``offsets`` their CSR bounds per cell.  ``axis`` is 0 for x (a
    cell ``i * my + j`` is at ``i`` along it) and 1 for y.
    """

    def __init__(self, edges, lines, keys, shape, axis: int):
        k = edges.size
        n_cells = shape[0] * shape[1]
        self.edges, self.lines, self.keys = edges, lines, keys
        self.shape, self.axis, self.size = shape, axis, shape[axis]
        self.offsets = np.zeros(n_cells + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // k, minlength=n_cells), out=self.offsets[1:])
        self.coords = edges[keys % k]
        self.cells = (
            np.searchsorted(lines, np.arange(k - 1), side="right") - 1
        ).astype(np.int32)

    @classmethod
    def of_pieces(cls, lo, hi, piece_cells, line_coords, shape, axis: int):
        """The axis of pieces bounded by ``lo`` .. ``hi`` along it in
        cells ``piece_cells``, first-level lines at ``line_coords``.  The
        edges are sorted out of the pieces' bounds; the layout keeps each
        piece's bounds as indices into its cell's edges (``lo``,
        ``hi``)."""
        n = lo.size
        edges, rank = np.unique(
            np.concatenate([lo, hi, line_coords]), return_inverse=True
        )
        k = edges.size
        lines = rank[2 * n :]
        every = np.arange(shape[0] * shape[1])
        along = np.divmod(every, shape[1])[axis]
        keys, where = np.unique(
            np.concatenate([
                piece_cells * k + rank[:n],
                piece_cells * k + rank[n : 2 * n],
                every * k + lines[along],
                every * k + lines[along + 1],
            ]),
            return_inverse=True,
        )
        layout = cls(edges, lines, keys, shape, axis)
        first = layout.offsets[piece_cells]
        layout.lo = where[:n] - first
        layout.hi = where[n : 2 * n] - first
        return layout

    @classmethod
    def sub_grids(cls, lo, hi, sizes, shape, axis: int):
        """The axis of first-level cells cut into ``sizes`` equal parts
        along it, over ``shape[axis]`` equal parts of ``lo`` .. ``hi``.
        Every edge is computed in first-level units, ``i + k / m2``, in
        which equal fractions round to one float; the distinct edges
        come from the distinct ``(i, m2)`` pairs."""
        size = shape[axis]
        every = np.arange(sizes.size)
        along = np.divmod(every, shape[1])[axis]
        span = int(sizes.max()) + 1
        first, parts = np.divmod(np.unique(along * span + sizes), span)
        units = np.unique(np.append(_fractions(first, parts, 0), size))
        keys = np.repeat(every * units.size, sizes + 1) + np.searchsorted(
            units, _fractions(along, sizes, 1)
        )
        edges = lo + (hi - lo) * (units / size)
        edges[-1] = hi
        return cls(edges, np.searchsorted(units, np.arange(size + 1)), keys, shape, axis)

    def split(self, cells: np.ndarray):
        """Each cell's index along this axis and along the other."""
        pair = np.divmod(cells, self.shape[1])
        return pair[self.axis], pair[1 - self.axis]

    def ranks(self) -> np.ndarray:
        """The ``uint16`` rank map: entry ``(k, o)`` is the index of the
        overlay sub-cell holding edge interval ``k`` in the cell at
        ``o`` along the other axis, in the cell's own edges."""
        k = self.edges.size
        seen = np.zeros((k, self.shape[1 - self.axis]), dtype=np.int32)
        seen[self.keys % k, self.split(self.keys // k)[1]] = 1
        np.cumsum(seen, axis=0, out=seen)
        # A cell's edges up to k, less those up to its lower line, which
        # is its first edge.
        return (seen[:-1] - seen[self.lines[self.cells]]).astype(np.uint16)


def _fractions(first: np.ndarray, parts: np.ndarray, extra: int) -> np.ndarray:
    """``first[r] + k / parts[r]`` for ``k`` in ``0 .. parts[r] - 1 +
    extra``, concatenated in order."""
    counts = parts + extra
    k = _ranges(np.zeros(parts.size, dtype=np.int64), counts)
    return np.repeat(first, counts) + k / np.repeat(parts, counts)


class _GridLayout:
    """The overlays of an ``mx x my`` first level spanning ``bounds``
    (see :class:`TwoLevelGridEngine`), one :class:`_AxisLayout` a side,
    and each cell's table offsets.  A layout supplies its cells' tables
    (``_cell_prefix``); :meth:`tables` derives the rest from them."""

    def __init__(self, bounds, x: _AxisLayout, y: _AxisLayout):
        self.bounds = tuple(float(bound) for bound in bounds)
        self.shape = x.shape
        self.x, self.y = x, y
        self.prefix_offsets = np.zeros(x.offsets.size, dtype=np.int64)
        np.cumsum(
            np.diff(x.offsets) * np.diff(y.offsets), out=self.prefix_offsets[1:]
        )

    def tables(self) -> dict[str, np.ndarray]:
        """The engine's slabs (see :class:`TwoLevelGridEngine`)."""
        prefix = self._cell_prefix()
        totals_prefix = np.zeros((self.shape[0] + 1, self.shape[1] + 1))
        np.cumsum(
            np.cumsum(
                prefix[self.prefix_offsets[1:] - 1].reshape(self.shape), axis=0
            ),
            axis=1, out=totals_prefix[1:, 1:],
        )
        x_ranks = self.x.ranks()
        y_ranks = self.y.ranks()
        return {
            "x_edges": self.x.edges,
            "y_edges": self.y.edges,
            "x_cells": self.x.cells,
            "y_cells": self.y.cells,
            "x_ranks": x_ranks,
            "y_ranks": y_ranks,
            "f_table": self._axis_table(self.x, x_ranks, prefix, totals_prefix),
            "g_table": self._axis_table(self.y, y_ranks, prefix, totals_prefix),
            "totals_prefix": totals_prefix,
            "cell_x": self.x.coords,
            "cell_y": self.y.coords,
            "cell_x_offsets": self.x.offsets,
            "cell_y_offsets": self.y.offsets,
            "cell_prefix_offsets": self.prefix_offsets,
            "cell_prefix": prefix,
        }

    def _axis_table(self, layout: _AxisLayout, ranks, prefix, totals_prefix):
        """``F`` (x) or ``G`` (y) at every edge along ``layout``'s axis:
        ``table[e, o]`` counts the block from the lower corner to edge
        ``e`` along the axis and to first-level line ``o`` along the
        other axis.  Each cell of the edge's column (row) counts its
        part left of (below) the edge from its table's last row-major
        column (last row)."""
        axis = layout.axis
        x_counts = np.diff(self.x.offsets)
        y_counts = np.diff(self.y.offsets)
        starts = self.prefix_offsets[:-1]
        # Per cell, indexed [along axis, other axis]: its first edge
        # along the axis, the table entry of its first edge on the far
        # side, and the step from one edge to the next there.
        if axis == 0:
            last, step = starts + y_counts - 1, y_counts
        else:
            last, step = starts + (x_counts - 1) * y_counts, np.ones_like(starts)
            totals_prefix = totals_prefix.T
        grids = [
            array.reshape(self.shape) if axis == 0 else array.reshape(self.shape).T
            for array in (layout.offsets[:-1], last, step)
        ]
        k = layout.edges.size
        across = self.shape[1 - axis]
        table = np.empty((k, across + 1))
        table[-1] = totals_prefix[layout.size]
        rows = max(1, _GRID_CHUNK // across)
        for e0 in range(0, k - 1, rows):
            e1 = min(e0 + rows, k - 1)
            along = layout.cells[e0:e1]
            first, last, step = (grid[along] for grid in grids)
            local = ranks[e0:e1]
            first += local
            edge = layout.coords[first]
            t = (layout.edges[e0:e1, None] - edge) / (layout.coords[first + 1] - edge)
            del first, edge
            last += local * step
            below = prefix[last]
            partial = below + t * (prefix[last + step] - below)
            table[e0:e1] = totals_prefix[along]
            table[e0:e1, 1:] += np.cumsum(partial, axis=1)
        return table


class _SubGridLayout(_GridLayout):
    """An AG release's first level, each cell's overlay its uniform
    ``m2 x m2`` sub-grid (see :meth:`TwoLevelGridEngine.adaptive_grid`)."""

    def __init__(self, synopsis):
        bounds = _bounds(synopsis.domain)
        shape = synopsis.first_level_size
        self.sizes = synopsis.cell_sizes.reshape(-1)
        self.leaf_offsets = synopsis.leaf_offsets
        self.leaves = synopsis.leaf_counts
        super().__init__(
            bounds,
            _AxisLayout.sub_grids(bounds[0], bounds[2], self.sizes, shape, axis=0),
            _AxisLayout.sub_grids(bounds[1], bounds[3], self.sizes, shape, axis=1),
        )

    def _cell_prefix(self) -> np.ndarray:
        """Every cell's leaves' zero-bordered 2-D prefix sums, the
        ``(m2 + 1) x (m2 + 1)`` table over its sub-grid, row-major,
        concatenated in cell order."""
        sizes, prefix_offsets = self.sizes, self.prefix_offsets
        leaf_offsets, leaves = self.leaf_offsets, self.leaves
        prefix = np.zeros(int(prefix_offsets[-1]))
        # Vectorised per distinct m2: gather all same-size cells into one
        # (k, m2, m2) tensor, cumsum both axes, scatter into the buffer.
        for size in np.unique(sizes):
            cells = np.flatnonzero(sizes == size)
            src = leaf_offsets[cells][:, None] + np.arange(size * size)[None, :]
            blocks = leaves[src].reshape(-1, size, size)
            cums = blocks.cumsum(axis=1).cumsum(axis=2)
            inner = (
                np.arange(1, size + 1)[:, None] * (size + 1)
                + np.arange(1, size + 1)[None, :]
            ).reshape(-1)
            dst = prefix_offsets[cells][:, None] + inner[None, :]
            prefix[dst] = cums.reshape(cells.size, -1)
        return prefix


class _LeafLayout(_GridLayout):
    """A consistent tree's leaves laid over a ``size x size`` first level
    (see :class:`TwoLevelGridEngine`): the pieces, the edges and the
    tables' bytes (``nbytes``), before any table is allocated."""

    def __init__(self, bounds, rects, counts, size: int):
        x_lo, y_lo, x_hi, y_hi = (float(bound) for bound in bounds)
        shape = (size, size)
        steps = np.arange(size + 1) / size
        lines = []
        for lo, hi in ((x_lo, x_hi), (y_lo, y_hi)):
            coords = lo + (hi - lo) * steps
            coords[-1] = hi
            lines.append(coords)
        # Every leaf's range of cells along each axis (the cells its
        # interior meets), then one piece per leaf and cell.
        first, stop = [], []
        for axis, coords in enumerate(lines):
            first.append(np.searchsorted(coords, rects[:, axis], side="right") - 1)
            stop.append(np.searchsorted(coords, rects[:, axis + 2], side="left"))
        columns = stop[0] - first[0]
        rows = stop[1] - first[1]
        leaf = np.repeat(np.arange(counts.size), columns * rows)
        local = _ranges(np.zeros(counts.size, dtype=np.int64), columns * rows)
        column = first[0][leaf] + local // rows[leaf]
        row = first[1][leaf] + local % rows[leaf]
        del local
        cells = column * size + row
        order = np.argsort(cells, kind="stable")
        leaf, column, row, cells = leaf[order], column[order], row[order], cells[order]
        self.cells = cells
        super().__init__(
            bounds,
            _AxisLayout.of_pieces(
                np.maximum(rects[leaf, 0], lines[0][column]),
                np.minimum(rects[leaf, 2], lines[0][column + 1]),
                cells, lines[0], shape, axis=0,
            ),
            _AxisLayout.of_pieces(
                np.maximum(rects[leaf, 1], lines[1][row]),
                np.minimum(rects[leaf, 3], lines[1][row + 1]),
                cells, lines[1], shape, axis=1,
            ),
        )
        areas = (rects[:, 2] - rects[:, 0]) * (rects[:, 3] - rects[:, 1])
        self.density = (counts / areas)[leaf]
        shapes = _grid_slab_shapes(
            shape, self.x.edges.size, self.y.edges.size,
            int(self.x.offsets[-1]), int(self.y.offsets[-1]),
            int(self.prefix_offsets[-1]),
        )
        self.nbytes = sum(
            math.prod(dims) * np.dtype(_GRID_SLAB_DTYPES[name]).itemsize
            for name, dims in shapes.items()
        )
        # A rank map entry is a uint16: a cell with more overlay
        # sub-cells along an axis cannot be tabled.
        widest = max(int(np.diff(axis.offsets).max()) for axis in (self.x, self.y))
        if widest - 2 > np.iinfo(np.uint16).max:
            self.nbytes = math.inf

    def _cell_prefix(self) -> np.ndarray:
        """Every cell's zero-bordered summed-area table over its overlay,
        row-major (x-edge major), concatenated in cell order.

        Each piece's overlay sub-cells get their masses (density times
        sub-cell area) at their upper-right table entries, column-major,
        one run of sub-cells per piece and overlay row; running sums down
        the columns, a transpose into row-major and running sums along
        the rows finish the tables.  Cells are handled in chunks of about
        :data:`_GRID_CHUNK` entries.
        """
        x, y = self.x, self.y
        x_counts = np.diff(x.offsets)
        y_counts = np.diff(y.offsets)
        # Sub-cell widths and heights by the index of their lower edge.
        widths = np.diff(x.coords, append=0.0)
        heights = np.diff(y.coords, append=0.0)
        offsets = self.prefix_offsets
        prefix = np.zeros(int(offsets[-1]))
        piece_first = np.searchsorted(self.cells, np.arange(offsets.size))
        chunk = offsets[:-1] // _GRID_CHUNK
        bounds = np.concatenate([
            [0], np.flatnonzero(np.diff(chunk)) + 1, [offsets.size - 1]
        ])
        for c0, c1 in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            start, stop = int(offsets[c0]), int(offsets[c1])
            p0, p1 = int(piece_first[c0]), int(piece_first[c1])
            # One run per piece and overlay row b: its sub-cells a0 .. a1.
            high = y.hi[p0:p1] - y.lo[p0:p1]
            piece = np.repeat(np.arange(p0, p1), high)
            cell = self.cells[piece]
            b = y.lo[piece] + _ranges(np.zeros(p1 - p0, dtype=np.int64), high)
            a = x.lo[piece]
            span = x.hi[piece] - a
            value = self.density[piece] * heights[y.offsets[cell] + b]
            at = offsets[cell] - start + (b + 1) * x_counts[cell] + a + 1
            across = x.offsets[cell] + a
            del piece, cell, b, a
            local = _ranges(np.zeros(span.size, dtype=np.int64), span)
            block = np.zeros(stop - start)
            block[np.repeat(at, span) + local] = np.repeat(value, span) * widths[
                np.repeat(across, span) + local
            ]
            del local, at, across, value
            # Columns of x_count entries, y_count per cell.
            starts = np.cumsum(np.repeat(x_counts[c0:c1], y_counts[c0:c1]))
            starts = np.concatenate([[0], starts[:-1]])
            _segment_cumsum(block, starts)
            # The row-major index of each column-major entry: one row
            # (y_count) further per entry, back to the next column's top
            # at a column's start, and the next cell's first entry at a
            # cell's start.
            steps = np.repeat(y_counts[c0:c1], offsets[c0 + 1 : c1 + 1] - offsets[c0:c1])
            steps[starts] = np.repeat(1 - (x_counts[c0:c1] - 1) * y_counts[c0:c1],
                                      y_counts[c0:c1])
            steps[offsets[c0:c1] - start] = 1
            steps[0] = 0
            table = prefix[start:stop]
            table[np.cumsum(steps, out=steps)] = block
            del steps, block
            starts = np.cumsum(np.repeat(y_counts[c0:c1], x_counts[c0:c1]))
            _segment_cumsum(table, np.concatenate([[0], starts[:-1]]))
        return prefix


def _segment_cumsum(values: np.ndarray, starts: np.ndarray) -> None:
    """Running sums of ``values``, in place, restarted at every index of
    ``starts`` (increasing, from 0).

    One global ``cumsum``; each run's total is taken back at the next
    run's first entry, so the running total stays at the scale of one
    run's values (as in :func:`_scan`).
    """
    totals = np.add.reduceat(values, starts)
    values[starts[1:]] -= totals[:-1]
    np.cumsum(values, out=values)


class FlatTreeEngine:
    """Flat level-order batch engine for ``TreeSynopsis`` releases.

    Preprocessing copies the released :class:`~repro.baselines.tree.
    TreeArrays` state into per-coordinate node vectors (rect bounds,
    counts, CSR child offsets, leaf areas) and builds per-node *edge
    tables* (below).  A batch is answered by level-synchronous frontier
    descent over (query, node) pairs whose closed rects intersect.  Each
    pair carries four *cover bits*: ``q.x_lo <= x_lo``, ``x_hi <=
    q.x_hi`` and the same two along y.  The frontier starts as one
    (query, root) pair per valid query that meets the root, its bits
    compared from the root's bounds.  Each round reads every frontier
    pair's action from its bits and its node's split kind and tabled
    axes (one table lookup) and sorts the pairs by it —

    * **contained** pairs (all four bits set) contribute the node's
      whole count;
    * **partial leaves** contribute ``count * overlap_fraction`` — the
      same uniformity estimate the scalar descent computes, with
      zero-area leaves counted fully when touched;
    * **single-cut** pairs — the query covers the node along one axis
      and crosses it at exactly one coordinate ``a`` along the other —
      read the node's edge table along that axis, one lookup instead of
      a descent of the subtree;
    * every other partial internal pair (it holds a query corner, or two
      parallel query edges cross it) expands to the children it meets.

    An expanding node is split into two halves along one axis or into
    four quadrants (the release's
    :attr:`~repro.baselines.tree.TreeArrays.kinds`, which an archive
    load's validation has already derived; any other tree raises
    ``ValueError``),
    so a child's bounds are its parent's except at the split coordinate
    ``s``, the first child's upper bound.  Comparing ``s`` with the
    query's two edges on that axis (both axes for quadrants) decides
    which children meet the query (the lower half iff ``q.lo <= s``,
    the upper iff ``s <= q.hi``) and gives each child the one bit per
    split axis it does not inherit, so a disjoint child never enters the
    frontier and no pair gathers node bounds to be classified.  These
    are the comparisons :meth:`Rect.intersects` and
    :meth:`Rect.contains_rect` make on the child's own bounds, so every
    pair lands where the scalar descent puts it.

    A node's table along an axis lists ``E``, the distinct coordinates
    of every node below it along that axis, with the scalar descent's
    exact answers for the half-planes ``<= E[k]`` and ``>= E[k]``
    (``TL``, ``TR``, the query covering the node along the other axis)
    and the ramp integral ``F[k]`` of its positive-area leaves (each
    leaf's count times the fraction of it left of ``E[k]``).  The
    descent's answer jumps only at ``E`` (an uninferred internal count,
    a zero-area leaf) and changes only by ``F`` between edges, so with
    ``k`` the last index with ``E[k] <= a`` and ``t = (a - E[k]) /
    (E[k+1] - E[k])`` an upper query edge reads ``TL[k] + t (F[k+1] -
    F[k])``, and a lower one reads ``TR[k]`` when ``a == E[k]``, else
    ``TR[k+1] + (1 - t) (F[k+1] - F[k])``.  That holds for uninferred
    and inferred trees alike.  A node keeps its table along an axis
    only if every child spans the node's full extent on that axis —
    where expanding would turn one single-cut pair into one per child;
    elsewhere a single-cut pair expands and one child inherits the cut.

    Tables are built bottom-up, one level at a time in bounded chunks:
    a node's table merges, at each of its edges, the steps of the nodes
    between it and its nearest tabled descendants and those
    descendants' own table reads.  Each axis's tables are concatenated
    in node order and searched with one ``searchsorted`` over an
    ``int64`` key ``node * len(coords) + rank(edge)``.

    The pairs that score are set aside each round and evaluated together
    once the descent ends: one gather of contained counts, one pass over
    the partial leaves, one table read per axis (each query edge ranked
    in the table coordinates once per batch) and one ``np.bincount``
    into the answers.  The loop runs at most ``height + 1`` times
    regardless of batch size.  Answers equal ``TreeSynopsis.answer`` up
    to floating-point rounding: the per-pair classification and
    estimates evaluate the same expressions, but contributions are
    summed in another order than the scalar path's depth-first one.
    """

    def __init__(self, synopsis, slabs: dict[str, np.ndarray] | None = None):
        """The engine of ``synopsis`` over ``slabs`` (by default
        :meth:`precompute`'s).  Sealed slabs may be read-only mmap views,
        which the descent only gathers from; slabs sealed without edge
        tables raise ``KeyError``."""
        arrays = synopsis.arrays
        if slabs is None:
            slabs = self.precompute(synopsis)
        counts = np.asarray(arrays.counts, dtype=float)
        n = counts.size
        x_lo = np.asarray(slabs["x_lo"], dtype=float)
        y_lo = np.asarray(slabs["y_lo"], dtype=float)
        x_hi = np.asarray(slabs["x_hi"], dtype=float)
        y_hi = np.asarray(slabs["y_hi"], dtype=float)
        areas = np.asarray(slabs["areas"], dtype=float)
        fan_out = np.asarray(slabs["fan_out"], dtype=np.int64)
        is_leaf = np.asarray(slabs["is_leaf"], dtype=bool)
        for name, slab in (
            ("x_lo", x_lo), ("y_lo", y_lo), ("x_hi", x_hi), ("y_hi", y_hi),
            ("areas", areas), ("fan_out", fan_out), ("is_leaf", is_leaf),
        ):
            if slab.shape != (n,):
                raise ValueError(
                    f"sealed tree slab {name!r} has shape {slab.shape}, "
                    f"synopsis has {n} nodes"
                )
        self._x_lo = x_lo
        self._y_lo = y_lo
        self._x_hi = x_hi
        self._y_hi = y_hi
        self._areas = areas
        self._counts = counts
        self._child_offsets = np.asarray(arrays.child_offsets, dtype=np.int64)
        self._fan_out = fan_out
        self._x_tables = _EdgeTables.from_slabs(slabs, "x", n)
        self._y_tables = _EdgeTables.from_slabs(slabs, "y", n)
        # Each node's split kind and tabled axes, in the bits above a
        # pair's cover bits (see _ACTIONS); it takes the leaf mask's
        # place, which slabs derives from it.
        self._node_bits = (
            (arrays.kinds << 4)
            | (self._x_tables.tabled.view(np.uint8) << 6)
            | (self._y_tables.tabled.view(np.uint8) << 7)
        )

    @staticmethod
    def precompute(synopsis) -> dict[str, np.ndarray]:
        """Derived buffers to seal into a v2 archive at release time.

        The per-coordinate node vectors are strided copies out of the
        released ``rects`` matrix plus derived areas and CSR fan-outs;
        ``counts`` and ``child_offsets`` are the synopsis's own (already
        mapped) arrays and are referenced directly, not duplicated.  The
        edge tables of each axis ride beside them as six ``<axis>_*``
        slabs; sealing it all keeps each forked worker's private
        footprint at zero instead of one copy per process.
        """
        arrays = synopsis.arrays
        rects = np.asarray(arrays.rects, dtype=float)
        x_lo = np.ascontiguousarray(rects[:, 0])
        y_lo = np.ascontiguousarray(rects[:, 1])
        x_hi = np.ascontiguousarray(rects[:, 2])
        y_hi = np.ascontiguousarray(rects[:, 3])
        child_offsets = np.asarray(arrays.child_offsets, dtype=np.int64)
        fan_out = child_offsets[1:] - child_offsets[:-1]
        areas = (x_hi - x_lo) * (y_hi - y_lo)
        slabs = {
            "x_lo": x_lo,
            "y_lo": y_lo,
            "x_hi": x_hi,
            "y_hi": y_hi,
            "areas": areas,
            "fan_out": fan_out,
            "is_leaf": fan_out == 0,
        }
        counts = np.asarray(arrays.counts, dtype=float)
        for axis, lo, hi, height in (
            ("x", x_lo, x_hi, y_hi - y_lo),
            ("y", y_lo, y_hi, x_hi - x_lo),
        ):
            tables = _build_edge_tables(
                lo, hi, height, areas, counts, child_offsets,
                np.asarray(arrays.level_offsets, dtype=np.int64),
            )
            slabs.update(tables.slabs(axis))
        return slabs

    @property
    def slabs(self) -> dict[str, np.ndarray]:
        """The buffers this engine answers from (see :meth:`precompute`)."""
        return {
            "x_lo": self._x_lo,
            "y_lo": self._y_lo,
            "x_hi": self._x_hi,
            "y_hi": self._y_hi,
            "areas": self._areas,
            "fan_out": self._fan_out,
            "is_leaf": (self._node_bits >> 4) & 3 == LEAF,
            **self._x_tables.slabs("x"),
            **self._y_tables.slabs("y"),
        }

    @property
    def n_nodes(self) -> int:
        return int(self._counts.size)

    @staticmethod
    def buffer_nbytes(n_nodes: int) -> int:
        """Bytes of the node vectors of a tree of ``n_nodes`` nodes,
        without building the engine: seven 8-byte vectors per node
        (bounds, areas, counts, fan-outs), ``n + 1`` child offsets, one
        byte of split kind and tabled axes.  :attr:`nbytes` adds
        :attr:`table_nbytes`."""
        return 8 * (8 * n_nodes + 1) + n_nodes

    @property
    def table_nbytes(self) -> int:
        """Bytes of the edge tables of both axes."""
        return self._x_tables.nbytes + self._y_tables.nbytes

    @property
    def nbytes(self) -> int:
        """In-memory footprint of the prepared buffers."""
        arrays = (
            self._counts, self._child_offsets, self._x_lo, self._y_lo,
            self._x_hi, self._y_hi, self._areas, self._fan_out, self._node_bits,
        )
        return sum(a.nbytes for a in arrays) + self.table_nbytes

    def answer_batch(self, rects: list[Rect] | np.ndarray) -> np.ndarray:
        """Uniformity estimates for every rectangle in the batch."""
        boxes = rects_to_boxes(rects)
        n = boxes.shape[0]
        if n == 0:
            return np.empty(0)
        edges = np.ascontiguousarray(boxes.T)
        qx_lo, qy_lo, qx_hi, qy_hi = edges
        # Inverted rows (including NaN bounds) answer 0, matching
        # scalar_answer_batch; they never enter the frontier, and neither
        # does a query that misses the root.
        x_lo, y_lo, x_hi, y_hi = (
            self._x_lo[0], self._y_lo[0], self._x_hi[0], self._y_hi[0]
        )
        q = np.flatnonzero(
            (qx_hi >= qx_lo) & (qy_hi >= qy_lo)
            & (x_lo <= qx_hi) & (qx_lo <= x_hi) & (y_lo <= qy_hi) & (qy_lo <= y_hi)
        )
        v = np.zeros(q.size, dtype=np.int64)
        bits = (
            (qx_lo[q] <= x_lo).view(np.uint8) * np.uint8(_LEFT)
            | (x_hi <= qx_hi[q]).view(np.uint8) * np.uint8(_RIGHT)
            | (qy_lo[q] <= y_lo).view(np.uint8) * np.uint8(_BOTTOM)
            | (y_hi <= qy_hi[q]).view(np.uint8) * np.uint8(_TOP)
        )
        # Each round sorts the frontier by action, keeps the pairs that
        # score for one pass after the descent (query and node indices as
        # int32, half the bytes: no batch or tree comes near 2**31 rows)
        # and expands the rest by split kind.
        scored = []
        while q.size:
            action = _ACTIONS[bits | self._node_bits[v]]
            order = np.argsort(action, kind="stable")
            ends = np.cumsum(np.bincount(action, minlength=_N_ACTIONS)).tolist()
            done = order[: ends[_EXPAND - 1]]
            scored.append((
                q[done].astype(np.int32), v[done].astype(np.int32),
                bits[done], action[done],
            ))
            groups = [
                order[start:stop]
                for start, stop in zip(ends[_EXPAND - 1 :], ends[_EXPAND:])
            ]
            q, v, bits = self._expand(groups, q, v, bits, edges)
        if not scored:
            return np.zeros(n)
        q, v, bits, action = (np.concatenate(column) for column in zip(*scored))
        del scored
        return np.bincount(
            q, weights=self._scores(q, v, bits, action, edges), minlength=n
        )

    def _scores(self, q, v, bits, action, edges) -> np.ndarray:
        """What each scoring pair contributes to its query's answer, one
        action at a time (each in its own helper, so one action's
        temporaries are freed before the next's are made)."""
        scores = np.empty(q.size)
        contained = np.flatnonzero(action == _CONTAINED)
        scores[contained] = self._counts[v[contained]]
        leaf = np.flatnonzero(action == _PARTIAL_LEAF)
        scores[leaf] = self._leaf_scores(q[leaf], v[leaf], edges)
        # The upper query edge cuts when the lower one covers.
        for tables, cut, low_bit, q_lo, q_hi in (
            (self._x_tables, action == _X_CUT, _LEFT, edges[0], edges[2]),
            (self._y_tables, action == _Y_CUT, _BOTTOM, edges[1], edges[3]),
        ):
            cut = np.flatnonzero(cut)
            if cut.size:
                upper = (bits[cut] & low_bit) != 0
                scores[cut] = self._cut_scores(
                    tables, q[cut], v[cut], upper, q_lo, q_hi
                )
        return scores

    def _leaf_scores(self, q, v, edges) -> np.ndarray:
        """``count * overlap_fraction`` of partially covered leaves:
        interval_overlap per axis, then the overlap fraction — expression
        for expression what Rect.overlap_fraction computes, with
        zero-area regions counted fully."""
        qx_lo, qy_lo, qx_hi, qy_hi = edges
        dx = np.minimum(self._x_hi[v], qx_hi[q]) - (
            np.maximum(self._x_lo[v], qx_lo[q])
        )
        dy = np.minimum(self._y_hi[v], qy_hi[q]) - (
            np.maximum(self._y_lo[v], qy_lo[q])
        )
        overlap = np.maximum(0.0, dx) * np.maximum(0.0, dy)
        areas = self._areas[v]
        degenerate = areas == 0.0
        fraction = overlap / np.where(degenerate, 1.0, areas)
        fraction[degenerate] = 1.0
        return self._counts[v] * fraction

    @staticmethod
    def _cut_scores(tables, q, v, upper, q_lo, q_hi) -> np.ndarray:
        """Single-cut pairs' table reads: ``TL`` where the upper query
        edge cuts, ``TR`` where the lower one does.  Each query edge is
        ranked in the table coordinates (the index of the last
        coordinate ``<=`` it) once."""
        rank = np.searchsorted(tables.coords, (q_lo, q_hi), side="right") - 1
        below, above, _ = tables.lookup(
            v,
            np.where(upper, q_hi[q], q_lo[q]),
            np.where(upper, rank[1][q], rank[0][q]),
        )
        return np.where(upper, below, above)

    def _expand(self, groups, q, v, bits, edges):
        """The frontier pairs of the children that the expanding pairs
        meet: ``groups`` are the pairs whose nodes split into halves
        along x, halves along y and quadrants."""
        parts = []
        for kind, group in zip((X_HALVES, Y_HALVES, QUADRANTS), groups):
            if not group.size:
                continue
            pq = q[group]
            first = self._child_offsets[v[group]]
            halves = []
            if kind != Y_HALVES:
                halves.append(_halves(
                    self._x_hi[first], edges[0][pq], edges[2][pq], _LEFT, _RIGHT
                ))
            if kind != X_HALVES:
                halves.append(_halves(
                    self._y_hi[first], edges[1][pq], edges[3][pq], _BOTTOM, _TOP
                ))
            pb = bits[group]
            # Children in split order: x varies fastest.
            for child, combo in enumerate(itertools.product(*reversed(halves))):
                meets, keep, new = combo[0]
                for other_meets, other_keep, other_new in combo[1:]:
                    meets = meets & other_meets
                    keep &= other_keep
                    new = new | other_new
                hit = np.flatnonzero(meets)
                parts.append((pq[hit], first[hit] + child, (pb[hit] & keep) | new[hit]))
        if not parts:
            return _NO_PAIRS
        return tuple(np.concatenate(column) for column in zip(*parts))


#: A pair's cover bits: the query reaches the node's lower x, upper x,
#: lower y and upper y bound (``q.x_lo <= x_lo``, ``x_hi <= q.x_hi``, ...).
_LEFT, _RIGHT, _BOTTOM, _TOP = 1, 2, 4, 8


#: What a frontier pair does: the first four score (its node's count, a
#: partial leaf's fraction, an x- or y-table read), and a pair whose
#: node splits in kind ``k`` expands with action ``_EXPAND + k - 1``.
_CONTAINED, _PARTIAL_LEAF, _X_CUT, _Y_CUT, _EXPAND = range(5)
_N_ACTIONS = _EXPAND + QUADRANTS


def _pair_actions() -> np.ndarray:
    """Each pair's action, indexed by its cover bits OR'd with its
    node's bits (split kind ``<< 4``, x tabled ``<< 6``, y tabled ``<<
    7``).  A table read takes a pair the query covers along the other
    axis and cuts once along the table's."""
    code = np.arange(256)
    left, right, bottom, top, _, _, x_tabled, y_tabled = (
        (code >> bit) & 1 == 1 for bit in range(8)
    )
    kind = (code >> 4) & 3
    return np.select(
        [
            code & 15 == 15,
            kind == LEAF,
            x_tabled & bottom & top & (left != right),
            y_tabled & left & right & (bottom != top),
        ],
        [_CONTAINED, _PARTIAL_LEAF, _X_CUT, _Y_CUT],
        default=_EXPAND - 1 + kind,
    ).astype(np.uint8)


_ACTIONS = _pair_actions()
_NO_PAIRS = (np.empty(0, dtype=np.int64),) * 2 + (np.empty(0, dtype=np.uint8),)


def _halves(split, q_lo, q_hi, lo_bit: int, hi_bit: int):
    """The lower and upper halves of a split at ``split``, each as
    ``(meets, kept bits, new bits)``.

    The lower half meets the query iff ``q_lo <= split`` and its upper
    bound is covered iff ``split <= q_hi``; the upper half meets the
    query iff ``split <= q_hi`` and its lower bound is covered iff
    ``q_lo <= split``.  Every other bit is the parent's.
    """
    reach_lower = q_lo <= split
    reach_upper = split <= q_hi
    return (
        (reach_lower, 15 ^ hi_bit, reach_upper.view(np.uint8) * np.uint8(hi_bit)),
        (reach_upper, 15 ^ lo_bit, reach_lower.view(np.uint8) * np.uint8(lo_bit)),
    )


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The index ranges ``starts[i] .. starts[i] + lengths[i] - 1``,
    concatenated in order."""
    offsets = np.cumsum(lengths) - lengths
    local = np.arange(int(lengths.sum()), dtype=np.int64) - np.repeat(offsets, lengths)
    return np.repeat(starts, lengths) + local


def _children(
    child_offsets: np.ndarray, nodes: np.ndarray, fan_out: np.ndarray
) -> np.ndarray:
    """The children of every node in ``nodes``, concatenated in order."""
    return _ranges(child_offsets[nodes], fan_out)


#: Tabled nodes merged per construction pass, which bounds the
#: transient arrays of one pass on a wide tree level.
_TABLE_CHUNK = 4096


class _EdgeTables:
    """One axis's edge tables (see :class:`FlatTreeEngine`).

    ``coords`` are the tree's distinct coordinates along the axis;
    entry ``i`` of the concatenated tables belongs to node ``keys[i] //
    len(coords)`` at edge ``coords[keys[i] % len(coords)]`` and carries
    ``below`` (``TL``), ``above`` (``TR``) and ``ramp`` (``F``);
    ``tabled`` marks the nodes that keep a table.
    """

    FIELDS = ("coords", "keys", "below", "above", "ramp", "tabled")

    def __init__(self, coords, keys, below, above, ramp, tabled):
        self.coords = coords
        self.keys = keys
        self.below = below
        self.above = above
        self.ramp = ramp
        self.tabled = tabled

    @classmethod
    def from_slabs(cls, slabs: dict[str, np.ndarray], axis: str, n_nodes: int):
        coords, keys, below, above, ramp, tabled = (
            np.asarray(slabs[f"{axis}_{name}"]) for name in cls.FIELDS
        )
        m = keys.shape
        if (
            coords.ndim != 1
            or coords.size == 0
            or keys.ndim != 1
            or below.shape != m
            or above.shape != m
            or ramp.shape != m
            or tabled.shape != (n_nodes,)
        ):
            raise ValueError(
                f"sealed {axis} edge tables do not match a tree of "
                f"{n_nodes} nodes"
            )
        return cls(
            coords.astype(float, copy=False), keys.astype(np.int64, copy=False),
            below.astype(float, copy=False), above.astype(float, copy=False),
            ramp.astype(float, copy=False), tabled.astype(bool, copy=False),
        )

    def slabs(self, axis: str) -> dict[str, np.ndarray]:
        return {f"{axis}_{name}": getattr(self, name) for name in self.FIELDS}

    @property
    def nbytes(self) -> int:
        return sum(getattr(self, name).nbytes for name in self.FIELDS)

    def lookup(self, nodes: np.ndarray, a: np.ndarray, rank: np.ndarray):
        """``(TL, TR, F)`` of each node's table read at coordinate ``a``:
        the upper-edge rule, the lower-edge rule and the ramp integral
        (``a`` lies within the node's extent; ``rank`` is the index of
        the last coordinate ``<= a``)."""
        size = self.coords.size
        # The keys are int64 whatever the dtype of ``nodes``.
        base = np.asarray(nodes, dtype=np.int64) * size
        k = np.searchsorted(self.keys, base + rank, side="right") - 1
        k1 = np.minimum(k + 1, self.keys.size - 1)
        e0 = self.coords[self.keys[k] - base]
        # k + 1 leaves the node's table only for a lower edge on its far
        # boundary, which reads TR[k] alone.
        e1 = self.coords[np.clip(self.keys[k1] - base, 0, size - 1)]
        at_edge = a == e0
        t = np.where(at_edge, 0.0, (a - e0) / np.where(at_edge, 1.0, e1 - e0))
        rise = self.ramp[k1] - self.ramp[k]
        below = self.below[k] + t * rise
        above = np.where(at_edge, self.above[k], self.above[k1] + (1.0 - t) * rise)
        return below, above, self.ramp[k] + t * rise


def _build_edge_tables(
    lo: np.ndarray,
    hi: np.ndarray,
    height: np.ndarray,
    areas: np.ndarray,
    counts: np.ndarray,
    child_offsets: np.ndarray,
    level_offsets: np.ndarray,
) -> _EdgeTables:
    """One axis's edge tables, built bottom-up (see :class:`FlatTreeEngine`).

    ``lo``/``hi`` are the nodes' bounds along the axis, ``height`` their
    extents along the other one.  Each pass merges a chunk of one
    level's tabled nodes from the *items* below them: the nodes reached
    from their children through untabled internal nodes, stopping at
    tabled nodes and leaves.  Along the half-plane ``<= a`` an item
    counts fully on ``[hi, parent's hi)`` (contained while its parent is
    cut; from ``lo`` for a zero-area leaf), and while cut a tabled item
    reads its own table and a positive-area leaf its uniformity
    fraction; ``>= a`` mirrors it.  Steps are summed by one segmented
    scan per table, cut items are evaluated at the table's edges.
    """
    n = lo.size
    fan_out = child_offsets[1:] - child_offsets[:-1]
    leaf = fan_out == 0
    flat = leaf & (areas == 0.0)
    coords = np.unique(np.concatenate([lo, hi]))
    size = coords.size
    rank_lo = np.searchsorted(coords, lo)
    rank_hi = np.searchsorted(coords, hi)
    # The span rule: keep a table only where every child spans the node.
    parent = np.repeat(np.arange(n), fan_out)  # of nodes 1 .. n - 1
    narrower = (lo[1:] != lo[parent]) | (hi[1:] != hi[parent])
    tabled = ~leaf & (np.bincount(parent, weights=narrower, minlength=n) == 0)
    tables = _EdgeTables(
        coords, np.empty(0, dtype=np.int64), np.empty(0), np.empty(0),
        np.empty(0), tabled,
    )
    # Where each built table sits: tables are prepended level by level,
    # so a table's first entry is fixed counted back from the end.
    from_end = np.zeros(n, dtype=np.int64)
    length = np.zeros(n, dtype=np.int64)

    def merge(nodes: np.ndarray):
        # Items, each with its owning table and its parent item (-1: the
        # table's own node).
        owner = np.repeat(np.arange(nodes.size), fan_out[nodes])
        item = _children(child_offsets, nodes, fan_out[nodes])
        up = np.full(item.size, -1)
        owners, items, ups = [owner], [item], [up]
        done = 0
        while True:
            walk = np.flatnonzero(~leaf[item] & ~tabled[item])
            if not walk.size:
                break
            fan = fan_out[item[walk]]
            owner = np.repeat(owner[walk], fan)
            up = np.repeat(done + walk, fan)
            done += item.size
            item = _children(child_offsets, item[walk], fan)
            owners.append(owner)
            items.append(item)
            ups.append(up)
        owner = np.concatenate(owners)
        item = np.concatenate(items)
        up = np.concatenate(ups)

        # The table's edges: every item's own and a tabled item's edges.
        sub = tabled[item]
        t_first = tables.keys.size - from_end[item[sub]]
        t_count = length[item[sub]]
        t_entry = _ranges(t_first, t_count)
        local, where = np.unique(
            np.concatenate([
                owner * size + rank_lo[item],
                owner * size + rank_hi[item],
                np.repeat(owner[sub], t_count) * size + tables.keys[t_entry] % size,
            ]),
            return_inverse=True,
        )
        m = local.size
        j_lo, j_hi = where[: item.size], where[item.size : 2 * item.size]
        first = np.searchsorted(local, np.arange(nodes.size) * size)
        last = np.append(first[1:], m) - 1
        # A child of the table's node has the table's first and last
        # edges as its parent's bounds.
        up_lo = np.where(up >= 0, j_lo[up], first[owner])
        up_hi = np.where(up >= 0, j_hi[up], last[owner])
        c = counts[item]
        zero = flat[item]
        # Ramp totals: a positive-area leaf's count, a tabled item's F
        # at its far edge.
        full = np.where(leaf[item] & ~zero, c, 0.0)
        full[sub] = tables.ramp[t_first + t_count - 1]
        below = _scan(
            np.bincount(
                np.concatenate([np.where(zero, j_lo, j_hi), up_hi]),
                weights=np.concatenate([c, -c]), minlength=m,
            ),
            first, last,
        )
        above = _scan(
            np.bincount(
                np.concatenate([np.where(zero, j_hi, j_lo), up_lo]),
                weights=np.concatenate([c, -c]), minlength=m,
            ),
            first, last, reverse=True,
        )
        ramp = _scan(
            np.bincount(
                np.concatenate([j_hi, last[owner]]),
                weights=np.concatenate([full, -full]), minlength=m,
            ),
            first, last,
        )

        # Cut items: every table edge within a tabled item or a
        # positive-area leaf, read from its table or its fraction.
        cut = sub | (leaf[item] & ~zero)
        span = j_hi[cut] - j_lo[cut] + 1
        entry = _ranges(j_lo[cut], span)
        node = np.repeat(item[cut], span)
        rank = local[entry] % size
        e = coords[rank]
        b = np.empty(e.size)
        a = np.empty(e.size)
        f = np.empty(e.size)
        in_table = tabled[node]
        if in_table.any():
            b[in_table], a[in_table], f[in_table] = tables.lookup(
                node[in_table], e[in_table], rank[in_table]
            )
        in_leaf = ~in_table
        lv = node[in_leaf]
        w = counts[lv]
        left = ((e[in_leaf] - lo[lv]) * height[lv]) / areas[lv]
        b[in_leaf] = f[in_leaf] = w * left
        a[in_leaf] = w * (((hi[lv] - e[in_leaf]) * height[lv]) / areas[lv])
        lower = e < hi[node]
        higher = e > lo[node]
        inside = lower & higher
        below += np.bincount(entry[lower], weights=b[lower], minlength=m)
        above += np.bincount(entry[higher], weights=a[higher], minlength=m)
        ramp += np.bincount(entry[inside], weights=f[inside], minlength=m)
        ramp[last] = np.bincount(owner, weights=full, minlength=nodes.size)
        keys = nodes[local // size] * size + local % size
        return keys, below, above, ramp, first

    for level in range(level_offsets.size - 2, -1, -1):
        start, stop = level_offsets[level], level_offsets[level + 1]
        nodes = np.flatnonzero(tabled[start:stop]) + start
        if not nodes.size:
            continue
        parts = [
            merge(nodes[i : i + _TABLE_CHUNK])
            for i in range(0, nodes.size, _TABLE_CHUNK)
        ]
        sizes = [part[0].size for part in parts]
        firsts = np.concatenate([
            part[4] + offset
            for part, offset in zip(parts, np.cumsum(sizes) - sizes)
        ])
        added = int(sum(sizes))
        # Deeper levels hold larger node indices: prepending keeps the
        # concatenated keys sorted.
        tables = _EdgeTables(
            coords,
            *(
                np.concatenate([*(part[i] for part in parts), old])
                for i, old in enumerate(
                    (tables.keys, tables.below, tables.above, tables.ramp)
                )
            ),
            tabled,
        )
        from_end[nodes] = tables.keys.size - firsts
        length[nodes] = np.diff(np.append(firsts, added))
    return tables


def _scan(
    deltas: np.ndarray, first: np.ndarray, last: np.ndarray, reverse: bool = False
) -> np.ndarray:
    """Running sums of ``deltas`` restarted at each table (``first`` ..
    ``last``), from the left or, with ``reverse``, from the right.

    One global ``cumsum``, less its value before each table.  Every
    table's steps sum to zero (``F``'s total is taken back at its last
    entry and written there afterwards), so the running total stays at
    the size of one table's values and no table inherits another's
    rounding scale.
    """
    lengths = last - first + 1
    if reverse:
        running = np.cumsum(deltas[::-1])[::-1]
        base = np.append(running, 0.0)[last + 1]
    else:
        running = np.cumsum(deltas)
        base = np.concatenate([[0.0], running])[first]
    return running - np.repeat(base, lengths)


#: Guards the publication of a release's first finished engine build.
_PUBLISH = threading.Lock()


def make_engine(synopsis):
    """The batch engine a released synopsis keeps, built on first use.

    Returns :attr:`~repro.core.synopsis.Synopsis.engine` when the
    release holds it, else builds it with the ``engine`` constructor of
    the row of the synopsis's nearest declared type (see
    :func:`repro.core.serialization.synopsis_kind`) and keeps it.  The
    build runs outside any lock and the first finished one is published
    under a short lock (a losing concurrent build is discarded), so
    every caller gets the release's one engine.  Raises ``TypeError``
    for an undeclared synopsis type.

    Grid-shaped releases get the prefix-sum :class:`BatchQueryEngine`,
    adaptive grids the summed-area :class:`TwoLevelGridEngine`, spatial
    trees a lattice :class:`BatchQueryEngine`, the same
    :class:`TwoLevelGridEngine` or the level-order
    :class:`FlatTreeEngine`.  The returned object exposes
    ``answer_batch(rects) -> np.ndarray`` and ``slabs``, and holds no
    reference to raw data, so it can be shared across threads.
    """
    engine = synopsis.engine
    if engine is None:
        from repro.core.serialization import synopsis_kind

        engine = synopsis_kind(type(synopsis)).engine(synopsis)
        with _PUBLISH:
            if synopsis.engine is None:
                synopsis.engine = engine
            engine = synopsis.engine
    return engine

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

Adaptive grids answer the same way.  A corner ``(x, y)`` in first-level
cell ``(i, j)`` splits ``[X0, x] x [Y0, y]`` at the cell's lower-left
corner ``(x_i, y_j)`` into four blocks, so::

    S(x, y) = F(x, j) + G(i, y) - TP[i, j] + P_cell(i, j, x, y)

where ``TP`` is the prefix over the released first-level totals,
``F(x, j)`` the count of ``[X0, x] x [Y0, y_j]``, ``G(i, y)`` the count
of ``[X0, x_i] x [Y0, y]`` and ``P_cell`` the cell's own sub-grid
prefix.  ``F`` is linear in ``x`` between consecutive distinct sub-cell
x-edges (and ``G`` likewise in ``y``), so :class:`FlatAdaptiveGridEngine`
tabulates both at those edges once; every corner then costs one
``searchsorted`` and two gathers per table plus the cell's four-gather
bilinear prefix.  :class:`AdaptiveGridEngine`, the historical
one-``BatchQueryEngine``-per-cell composite, is retained as the
reference implementation for equivalence tests and benchmarks.

Spatial trees (quadtree, KD-standard, KD-hybrid) release the flat
level-order :class:`~repro.baselines.tree.TreeArrays`.  A tree whose
leaves lie on the ``2^h x 2^h`` lattice of its domain, whose internal
counts equal their children's sums, and whose lattice prefix is no larger
than its :class:`FlatTreeEngine` node vectors is the piecewise-constant
density of a uniform grid: its declared engine pair lowers it onto that
lattice and answers with :class:`BatchQueryEngine` itself (a default
quadtree once the data fills it).  Every other tree keeps
:class:`FlatTreeEngine`, which answers a whole batch by level-synchronous
frontier descent: every live (query, node) pair is classified as
contained / disjoint / partial in one vectorised pass per tree level,
contained nodes contribute their counts through one ``bincount`` gather,
partial leaves resolve the uniformity estimate in the same fused pass,
a pair the query covers along one axis and cuts once along the other
reads the node's edge table along that axis (the descent's exact
answers at every coordinate below the node, interpolated by its leaves'
ramp), and only the pairs that hold a query corner or are crossed by
two parallel query edges expand to the next level's frontier.

:func:`make_engine` builds the engine of any declared synopsis type
through its row of :data:`repro.core.serialization.KINDS`, the one table
that says how each type is archived and which engine serves it, so
adding a synopsis type never edits this module.  That is how the
serving layer (:mod:`repro.service`) reuses one prepared engine across
many incoming query batches for every synopsis family.
"""

from __future__ import annotations

import numpy as np

from repro.core.geometry import Rect, rects_to_boxes

__all__ = [
    "BatchQueryEngine",
    "FlatAdaptiveGridEngine",
    "FlatTreeEngine",
    "AdaptiveGridEngine",
    "compute_engine_slabs",
    "has_sealed_engine",
    "make_engine",
    "rects_to_boxes",  # canonical home: repro.core.geometry
    "scalar_answer_batch",
]


def scalar_answer_batch(synopsis, rects: "list[Rect] | np.ndarray") -> np.ndarray:
    """Answer a batch through a synopsis's scalar ``answer`` loop.

    The shared fallback path: same contract as the vectorised engines.
    An empty batch returns an empty ``(0,)`` vector without touching the
    synopsis; inverted rows (``x_hi < x_lo`` or ``y_hi < y_lo``, which
    includes NaN bounds) answer 0 instead of raising from the
    :class:`Rect` constructor; degenerate zero-area rows are answered
    exactly like the equivalent edge/point :class:`Rect` query.  The
    scalar second opinion in engine equivalence tests and benchmarks,
    and ``AdaptiveGridSynopsis.answer_many``'s small-batch branch.
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

    @staticmethod
    def precompute(lows, highs, counts: np.ndarray) -> dict[str, np.ndarray]:
        """Derived buffers to seal into a v2 archive at release time.

        Runs the exact constructor preprocessing, so an engine restored
        via :meth:`from_slabs` is bit-identical to one built in-process.
        """
        return {"prefix": BatchQueryEngine(lows, highs, counts)._prefix}

    @classmethod
    def from_slabs(
        cls, lows, highs, shape: tuple[int, ...], slabs: dict[str, np.ndarray]
    ) -> "BatchQueryEngine":
        """Restore an engine over a grid of ``shape`` from sealed slabs.

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


class FlatAdaptiveGridEngine:
    """Summed-area batch engine for ``AdaptiveGridSynopsis`` releases.

    Answers every rectangle by the four-corner inclusion-exclusion of
    :class:`BatchQueryEngine`, over the release's continuous summed-area
    function ``S``.  A corner ``(x, y)`` in first-level cell ``(i, j)``
    evaluates::

        S(x, y) = F(x, j) + G(i, y) - TP[i, j] + P_cell(i, j, x, y)

    * ``TP`` is the zero-bordered prefix over the released cell totals
      ``v'``: ``TP[i, j]`` counts ``[X0, x_i] x [Y0, y_j]``;
    * ``P_cell`` is cell ``(i, j)``'s own zero-bordered sub-grid prefix,
      bilinearly interpolated at the corner's sub-cell coordinates (one
      concatenated CSR buffer over all cells);
    * ``F(x, j)`` counts ``[X0, x] x [Y0, y_j]``: ``TP[i, j]`` plus, for
      every cell below row ``j`` in column ``i``, its leaves left of
      ``x``.  It is linear in ``x`` between consecutive distinct sub-cell
      x-edges (the union of the column's sub-grid edges), so it is
      tabulated once at every such edge;
    * ``G(i, y)`` is the transpose, counting ``[X0, x_i] x [Y0, y]``,
      tabulated at every distinct sub-cell y-edge.

    Coordinates run in first-level cell units (``(x - X0) /
    cell_width``), where the sub-cell edges of column ``i`` are exactly
    ``i + k / m2``.  Each table lookup is one ``searchsorted`` over the
    edges and two gathers, and all ``4n`` corners of a batch go through
    one stacked pass — no per-query or per-cell expansion.  The identity
    needs each cell's leaves to sum to its released total, which
    constrained inference enforces (``sum(u') == v'``) and a build
    without inference satisfies by definition, so answers equal the
    scalar two-level path up to floating-point rounding.
    """

    def __init__(self, synopsis, *, _slabs: dict[str, np.ndarray] | None = None):
        m1x, m1y = synopsis.first_level_size
        sizes = synopsis.cell_sizes.reshape(-1)
        slabs = self.precompute(synopsis) if _slabs is None else _slabs
        prefix = np.asarray(slabs["prefix"], dtype=float)
        prefix_offsets = np.asarray(slabs["prefix_offsets"], dtype=np.int64)
        totals_prefix = np.asarray(slabs["totals_prefix"], dtype=float)
        x_edges = np.asarray(slabs["x_edges"], dtype=float)
        y_edges = np.asarray(slabs["y_edges"], dtype=float)
        f_table = np.asarray(slabs["f_table"], dtype=float)
        g_table = np.asarray(slabs["g_table"], dtype=float)
        if prefix_offsets.shape != (sizes.size,):
            raise ValueError(
                f"sealed prefix offsets cover {prefix_offsets.shape[0]} "
                f"cells, synopsis has {sizes.size}"
            )
        expected = int(((sizes + 1) ** 2).sum())
        if prefix.shape != (expected,):
            raise ValueError(
                f"sealed CSR prefix holds {prefix.size} values, cell sizes "
                f"require {expected}"
            )
        if totals_prefix.shape != (m1x + 1, m1y + 1):
            raise ValueError(
                f"sealed totals prefix shape {totals_prefix.shape} does not "
                f"match first level ({m1x}, {m1y})"
            )
        for name, edges, table, extent, width in (
            ("f_table", x_edges, f_table, m1x, m1y + 1),
            ("g_table", y_edges, g_table, m1y, m1x + 1),
        ):
            if (
                edges.ndim != 1
                or edges.size < 2
                or edges[0] != 0.0
                or edges[-1] != extent
                or table.shape != (edges.size, width)
            ):
                raise ValueError(
                    f"sealed {name} of shape {table.shape} over "
                    f"{edges.size} edges does not match first level "
                    f"({m1x}, {m1y})"
                )
        self._domain = synopsis.domain
        self._shape = (m1x, m1y)
        self._cell_w = synopsis.domain.width / m1x
        self._cell_h = synopsis.domain.height / m1y
        self._sizes = sizes
        self._prefix = prefix
        self._prefix_offsets = prefix_offsets
        self._totals_prefix = totals_prefix
        self._x_edges = x_edges
        self._y_edges = y_edges
        self._f_table = f_table
        self._g_table = g_table

    @staticmethod
    def precompute(synopsis) -> dict[str, np.ndarray]:
        """Derived buffers to seal into a v2 archive at release time.

        The CSR prefix buffer, the level-1 totals prefix and the ``F`` /
        ``G`` edge tables (see the class docstring) are the whole
        prepared state; restoring from them only checks shapes.
        """
        m1x, m1y = synopsis.first_level_size
        sizes = synopsis.cell_sizes.reshape(-1)
        leaf_offsets = synopsis.leaf_offsets
        leaves = synopsis.leaf_counts

        # CSR prefix buffer: cell c owns the (sizes[c]+1)^2 block at
        # prefix_offsets[c], a row-major zero-bordered prefix-sum matrix.
        prefix_sizes = (sizes + 1) ** 2
        prefix_offsets = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(prefix_sizes, out=prefix_offsets[1:])
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
        prefix_offsets = prefix_offsets[:-1]

        totals_prefix = np.zeros((m1x + 1, m1y + 1))
        np.cumsum(
            np.cumsum(synopsis.cell_totals, axis=0), axis=1,
            out=totals_prefix[1:, 1:],
        )
        x_edges, f_table = _edge_table(
            synopsis.cell_sizes, prefix_offsets, prefix, totals_prefix, axis=0
        )
        y_edges, g_table = _edge_table(
            synopsis.cell_sizes, prefix_offsets, prefix, totals_prefix, axis=1
        )
        return {
            "prefix": prefix,
            "prefix_offsets": prefix_offsets,
            "totals_prefix": totals_prefix,
            "x_edges": x_edges,
            "y_edges": y_edges,
            "f_table": f_table,
            "g_table": g_table,
        }

    @classmethod
    def from_slabs(
        cls, synopsis, slabs: dict[str, np.ndarray]
    ) -> "FlatAdaptiveGridEngine":
        """Restore an engine from sealed slabs without rebuilding.

        The slabs may be read-only mmap views; ``answer_batch`` never
        writes into them, so restored engines share the archive's
        physical pages across forked workers.  Slabs sealed by an older
        precompute raise ``KeyError`` (missing) or ``ValueError``
        (mismatched), and :func:`make_engine` then rebuilds.
        """
        return cls(synopsis, _slabs=slabs)

    @property
    def n_cells(self) -> int:
        """Number of first-level cells covered by the CSR buffer."""
        return int(self._sizes.size)

    @property
    def nbytes(self) -> int:
        """In-memory footprint of the prepared buffers."""
        arrays = (
            self._sizes, self._prefix, self._prefix_offsets,
            self._totals_prefix, self._x_edges, self._y_edges,
            self._f_table, self._g_table,
        )
        return sum(a.nbytes for a in arrays)

    def _summed_area(self, gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
        """``S`` at corners given in first-level cell units (clipped)."""
        mx, my = self._shape
        i = np.minimum(gx.astype(np.int64), mx - 1)
        j = np.minimum(gy.astype(np.int64), my - 1)
        f = _edge_lerp(self._x_edges, self._f_table, gx, j)
        g = _edge_lerp(self._y_edges, self._g_table, gy, i)
        tp = self._totals_prefix.reshape(-1)[i * (my + 1) + j]
        # The corner's own cell: bilinear in its zero-bordered prefix.
        cell = i * my + j
        size = self._sizes[cell]
        xl = (gx - i) * size
        yl = (gy - j) * size
        x0 = np.minimum(xl.astype(np.int64), size - 1)
        y0 = np.minimum(yl.astype(np.int64), size - 1)
        tx = xl - x0
        ty = yl - y0
        stride = size + 1
        base = self._prefix_offsets[cell] + x0 * stride + y0
        p = self._prefix
        p00 = p[base]
        p10 = p[base + stride]
        low = p00 + ty * (p[base + 1] - p00)
        high = p10 + ty * (p[base + stride + 1] - p10)
        return f + g - tp + (low + tx * (high - low))

    def answer_batch(self, rects: list[Rect] | np.ndarray) -> np.ndarray:
        """Uniformity estimates for every rectangle in the batch.

        Rectangles are clipped to the domain; degenerate, inverted and
        NaN rows answer 0, as in :class:`BatchQueryEngine`.
        """
        boxes = rects_to_boxes(rects)
        n = boxes.shape[0]
        if n == 0:
            return np.empty(0)
        mx, my = self._shape
        bounds = self._domain.bounds
        gx = np.clip((boxes[:, 0::2] - bounds.x_lo) / self._cell_w, 0.0, mx)
        gy = np.clip((boxes[:, 1::2] - bounds.y_lo) / self._cell_h, 0.0, my)
        empty = ~((gx[:, 1] > gx[:, 0]) & (gy[:, 1] > gy[:, 0]))
        if empty.any():
            # NaN would poison the int64 casts; the mask zeroes the rows.
            gx[empty] = 0.0
            gy[empty] = 0.0
        x_lo, x_hi = gx[:, 0], gx[:, 1]
        y_lo, y_hi = gy[:, 0], gy[:, 1]
        corners = self._summed_area(
            np.concatenate([x_hi, x_lo, x_hi, x_lo]),
            np.concatenate([y_hi, y_hi, y_lo, y_lo]),
        )
        estimate = (
            corners[:n] - corners[n : 2 * n] - corners[2 * n : 3 * n]
            + corners[3 * n :]
        )
        estimate[empty] = 0.0
        return estimate


def _edge_table(
    cell_sizes: np.ndarray,
    prefix_offsets: np.ndarray,
    prefix: np.ndarray,
    totals_prefix: np.ndarray,
    axis: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Breakpoints and values of AG's ``F`` (``axis=0``) or ``G`` (``axis=1``).

    Returns ``(edges, table)``: ``edges`` are the sorted distinct sub-cell
    edges along ``axis`` in first-level cell units — ``i + k / m2`` for
    every sub-grid size ``m2`` in first-level column ``i`` (row, for
    ``axis=1``), then the far boundary — and ``table[e, j]`` counts the
    block from the domain origin to edge ``e`` along ``axis`` and to
    first-level edge ``j`` along the other axis.
    """
    ids = np.arange(cell_sizes.size).reshape(cell_sizes.shape)
    if axis == 1:
        cell_sizes, ids, totals_prefix = cell_sizes.T, ids.T, totals_prefix.T
    n_cols, n_rows = cell_sizes.shape
    # Each distinct (column, m2) pair contributes edges col + k / m2 for
    # k < m2 (k = m2 is the next column's k = 0).  Equal fractions round
    # to the same float, so np.unique merges e.g. 1/2 and 2/4 exactly.
    span = int(cell_sizes.max()) + 1
    pairs = np.unique(np.arange(n_cols)[:, None] * span + cell_sizes)
    cols, m2 = pairs // span, pairs % span
    k = np.arange(int(m2.sum())) - np.repeat(np.cumsum(m2) - m2, m2)
    col = np.repeat(cols, m2)
    frac = k / np.repeat(m2, m2)
    edges, first = np.unique(col + frac, return_index=True)
    col, frac = col[first], frac[first]
    # Every cell of the edge's column, counted from the column start to
    # the edge across its full extent on the other axis: the cell's
    # prefix along its last column (axis 0) or last row (axis 1).
    cells = ids[col]
    size = cell_sizes[col]
    pos = frac[:, None] * size
    p0 = np.minimum(pos.astype(np.int64), size - 1)
    stride = size + 1
    if axis == 0:
        lo = prefix_offsets[cells] + p0 * stride + size
        step = stride
    else:
        lo = prefix_offsets[cells] + size * stride + p0
        step = 1
    below = prefix[lo]
    partial = below + (pos - p0) * (prefix[lo + step] - below)
    table = np.empty((edges.size + 1, n_rows + 1))
    table[:-1] = totals_prefix[col]
    table[:-1, 1:] += np.cumsum(partial, axis=1)
    table[-1] = totals_prefix[n_cols]
    return np.append(edges, float(n_cols)), table


def _edge_lerp(
    edges: np.ndarray, table: np.ndarray, coords: np.ndarray, other: np.ndarray
) -> np.ndarray:
    """``table`` linearly interpolated between ``edges`` at ``coords``,
    in column ``other`` (one ``searchsorted`` and two gathers)."""
    k = np.minimum(np.searchsorted(edges, coords, side="right") - 1, edges.size - 2)
    t = (coords - edges[k]) / (edges[k + 1] - edges[k])
    width = table.shape[1]
    index = k * width + other
    flat = table.reshape(-1)
    below = flat[index]
    return below + t * (flat[index + width] - below)


class AdaptiveGridEngine:
    """Per-cell composite engine for ``AdaptiveGridSynopsis`` (reference).

    One :class:`BatchQueryEngine` is prepared per first-level cell; a batch
    is answered by summing each cell engine's (domain-clipped) estimates.
    This was the production AG engine before the flat CSR kernel
    (:class:`FlatAdaptiveGridEngine`) replaced it; it is retained because
    its per-cell structure mirrors the scalar definition directly, which
    makes it the natural second opinion in equivalence tests and the
    baseline in ``benchmarks/bench_flat_kernel.py``.

    Preprocessing is O(total leaf cells); each batch then costs one
    vectorised pass per *touched* first-level cell (dispatch via a 2-D
    difference array), which is a Python-level loop the flat engine
    eliminates.
    """

    def __init__(self, synopsis):
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


class FlatTreeEngine:
    """Flat level-order batch engine for ``TreeSynopsis`` releases.

    Preprocessing copies the released :class:`~repro.baselines.tree.
    TreeArrays` state into per-coordinate node vectors (rect bounds,
    counts, CSR child offsets, leaf areas) and builds per-node *edge
    tables* (below).  A batch is answered by level-synchronous frontier
    descent: the frontier starts as one (query, root) pair per valid
    query, and each round classifies every frontier pair in one
    vectorised pass —

    * **disjoint** pairs (node rect and closed query share no point)
      are dropped;
    * **contained** pairs (query covers the node rect) contribute the
      node's whole count;
    * **partial leaves** contribute ``count * overlap_fraction`` — the
      same uniformity estimate the scalar descent computes, with
      zero-area leaves counted fully when touched;
    * **single-cut** pairs — the query covers the node along one axis
      and crosses it at exactly one coordinate ``a`` along the other —
      read the node's edge table along that axis, one lookup instead of
      a descent of the subtree;
    * every other partial internal pair (it holds a query corner, or two
      parallel query edges cross it) expands to its children via
      ``repeat``/``arange`` arithmetic on the CSR offsets.

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

    Contributions accumulate per query with ``np.bincount``; the loop
    runs at most ``height + 1`` times regardless of batch size.  Answers
    equal ``TreeSynopsis.answer`` up to floating-point rounding: the
    per-pair classification and estimates evaluate the same expressions,
    but contributions are summed in another order than the scalar
    path's depth-first one.
    """

    def __init__(self, synopsis, *, _slabs: dict[str, np.ndarray] | None = None):
        arrays = synopsis.arrays
        slabs = self.precompute(synopsis) if _slabs is None else _slabs
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
        self._is_leaf = is_leaf
        self._x_tables = _EdgeTables.from_slabs(slabs, "x", n)
        self._y_tables = _EdgeTables.from_slabs(slabs, "y", n)

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

    @classmethod
    def from_slabs(cls, synopsis, slabs: dict[str, np.ndarray]) -> "FlatTreeEngine":
        """Restore an engine from sealed slabs without rebuilding.

        The slabs may be read-only mmap views; the descent only gathers
        from them, so restored engines share the archive's physical
        pages across forked workers.  Slabs sealed without edge tables
        raise ``KeyError``, and :func:`make_engine` then rebuilds.
        """
        return cls(synopsis, _slabs=slabs)

    @property
    def n_nodes(self) -> int:
        return int(self._counts.size)

    @staticmethod
    def buffer_nbytes(n_nodes: int) -> int:
        """Bytes of the node vectors of a tree of ``n_nodes`` nodes,
        without building the engine: seven 8-byte vectors per node
        (bounds, areas, counts, fan-outs), ``n + 1`` child offsets, the
        leaf mask.  :attr:`nbytes` adds :attr:`table_nbytes`."""
        return 8 * (8 * n_nodes + 1) + n_nodes

    @property
    def table_nbytes(self) -> int:
        """Bytes of the edge tables of both axes."""
        return self._x_tables.nbytes + self._y_tables.nbytes

    @property
    def nbytes(self) -> int:
        """In-memory footprint of the prepared buffers."""
        arrays = (
            self._x_lo, self._y_lo, self._x_hi, self._y_hi, self._areas,
            self._counts, self._child_offsets, self._fan_out, self._is_leaf,
        )
        return sum(a.nbytes for a in arrays) + self.table_nbytes

    def answer_batch(self, rects: list[Rect] | np.ndarray) -> np.ndarray:
        """Uniformity estimates for every rectangle in the batch."""
        boxes = rects_to_boxes(rects)
        n = boxes.shape[0]
        if n == 0:
            return np.empty(0)
        out = np.zeros(n)
        # Inverted rows (including NaN bounds) answer 0, matching
        # scalar_answer_batch; they never enter the frontier.
        valid = (boxes[:, 2] >= boxes[:, 0]) & (boxes[:, 3] >= boxes[:, 1])
        frontier_q = np.flatnonzero(valid)
        frontier_v = np.zeros(frontier_q.size, dtype=np.int64)
        query = boxes[frontier_q]  # one (x_lo, y_lo, x_hi, y_hi) row per pair

        while frontier_q.size:
            qx_lo, qy_lo, qx_hi, qy_hi = query.T
            nx_lo = self._x_lo[frontier_v]
            ny_lo = self._y_lo[frontier_v]
            nx_hi = self._x_hi[frontier_v]
            ny_hi = self._y_hi[frontier_v]
            # Closed-rect classification: the same comparisons as
            # Rect.intersects / Rect.contains_rect in the scalar descent.
            intersects = (
                (nx_lo <= qx_hi) & (qx_lo <= nx_hi)
                & (ny_lo <= qy_hi) & (qy_lo <= ny_hi)
            )
            left = qx_lo <= nx_lo
            right = nx_hi <= qx_hi
            bottom = qy_lo <= ny_lo
            top = ny_hi <= qy_hi
            x_covered = left & right
            y_covered = bottom & top
            contained = x_covered & y_covered
            leaf = self._is_leaf[frontier_v]
            partial = intersects & ~contained
            inner = partial & ~leaf

            pairs = [np.flatnonzero(contained)]
            scores = [self._counts[frontier_v[pairs[0]]]]
            partial_leaf = np.flatnonzero(partial & leaf)
            if partial_leaf.size:
                pv = frontier_v[partial_leaf]
                # interval_overlap per axis, then the overlap fraction —
                # expression for expression what Rect.overlap_fraction
                # computes, with zero-area regions counted fully.
                dx = np.minimum(nx_hi[partial_leaf], qx_hi[partial_leaf]) - (
                    np.maximum(nx_lo[partial_leaf], qx_lo[partial_leaf])
                )
                dy = np.minimum(ny_hi[partial_leaf], qy_hi[partial_leaf]) - (
                    np.maximum(ny_lo[partial_leaf], qy_lo[partial_leaf])
                )
                overlap = np.maximum(0.0, dx) * np.maximum(0.0, dy)
                areas = self._areas[pv]
                degenerate = areas == 0.0
                fraction = overlap / np.where(degenerate, 1.0, areas)
                fraction[degenerate] = 1.0
                pairs.append(partial_leaf)
                scores.append(self._counts[pv] * fraction)

            # Single-cut pairs: covered along one axis, crossed by exactly
            # one query edge along the other.  A node tabled along that
            # axis answers with one lookup; the upper edge cuts when the
            # lower one covers.
            for tables, covered, low, high, q_lo, q_hi in (
                (self._x_tables, y_covered, left, right, qx_lo, qx_hi),
                (self._y_tables, x_covered, bottom, top, qy_lo, qy_hi),
            ):
                cut = np.flatnonzero(inner & covered & (low != high))
                cut = cut[tables.tabled[frontier_v[cut]]]
                if cut.size:
                    upper = low[cut]
                    below, above, _ = tables.lookup(
                        frontier_v[cut], np.where(upper, q_hi[cut], q_lo[cut])
                    )
                    pairs.append(cut)
                    scores.append(np.where(upper, below, above))
                    inner[cut] = False
            pairs = np.concatenate(pairs)
            if pairs.size:
                out += np.bincount(
                    frontier_q[pairs], weights=np.concatenate(scores), minlength=n
                )

            # Expand the remaining partial internal pairs to their children.
            expand = np.flatnonzero(inner)
            if not expand.size:
                break
            parents = frontier_v[expand]
            fan_out = self._fan_out[parents]
            frontier_v = _children(self._child_offsets, parents, fan_out)
            expand = np.repeat(expand, fan_out)
            frontier_q = frontier_q[expand]
            query = query[expand]
        return out


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

    def lookup(
        self, nodes: np.ndarray, a: np.ndarray, rank: np.ndarray | None = None
    ):
        """``(TL, TR, F)`` of each node's table read at coordinate ``a``:
        the upper-edge rule, the lower-edge rule and the ramp integral
        (``a`` lies within the node's extent; ``rank``, when given, is
        the index of the last coordinate ``<= a``)."""
        size = self.coords.size
        base = nodes * size
        if rank is None:
            rank = np.searchsorted(self.coords, a, side="right") - 1
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


def compute_engine_slabs(synopsis) -> dict[str, np.ndarray]:
    """Derived engine buffers to seal alongside a release.

    The ``precompute`` of the synopsis's declared row; an empty dict is
    a valid sealing (the engine's prepared state is the released arrays
    themselves).  Raises ``TypeError`` for an undeclared synopsis type.
    """
    from repro.core.serialization import synopsis_kind

    return dict(synopsis_kind(type(synopsis)).precompute(synopsis))


def has_sealed_engine(synopsis) -> bool:
    """Whether the synopsis carries sealed engine slabs.

    Slabs are attached only through a declared row: by the archive
    loader, by the store's build, or from :func:`compute_engine_slabs`.
    After :func:`make_engine` this also says how the engine was made:
    slabs that turn out stale are dropped there, so a ``True`` here
    afterwards means the engine was restored, not rebuilt.
    """
    return synopsis.sealed_engine_slabs is not None


def make_engine(synopsis):
    """Build the batch engine for a released synopsis.

    Resolves the synopsis through the row of its nearest declared type
    (see :func:`repro.core.serialization.synopsis_kind`) and returns
    ``from_slabs(synopsis, slabs)``, over the sealed slabs when the
    synopsis carries them (loaded from a v2 archive, or sealed by the
    store when it built the release) and over freshly computed
    ``precompute(synopsis)`` otherwise.  Restoring from sealed slabs
    skips the derived-buffer rebuild, and mapped buffers stay read-only
    views over the archive.  Slabs an older precompute sealed (missing
    or mismatched arrays) are dropped from the synopsis and the engine
    is rebuilt.  Raises ``TypeError`` for an undeclared synopsis type.

    Grid-shaped releases get the prefix-sum :class:`BatchQueryEngine`,
    adaptive grids the summed-area :class:`FlatAdaptiveGridEngine`,
    spatial trees a lattice :class:`BatchQueryEngine` or the level-order
    :class:`FlatTreeEngine`.  The returned object exposes
    ``answer_batch(rects) -> np.ndarray`` and holds no reference to raw
    data, so it can be cached and shared across threads.
    """
    from repro.core.serialization import synopsis_kind

    row = synopsis_kind(type(synopsis))
    slabs = synopsis.sealed_engine_slabs
    if slabs is not None:
        try:
            return row.from_slabs(synopsis, slabs)
        except (KeyError, ValueError):
            # Stale slabs: drop them, so has_sealed_engine reports
            # the rebuild below and later calls skip the retry.
            synopsis.seal_engine_slabs(None)
    return row.from_slabs(synopsis, row.precompute(synopsis))
